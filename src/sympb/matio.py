"""Matrix file I/O: CSV (rows of comma-separated reals) and JSON (array of arrays)."""

from __future__ import annotations

import json
import warnings

import numpy as np

from .tables import FLOAT_FMT

__all__ = ["load_matrix", "save_matrix"]

# the end of numpy's refusal of a ragged CSV
_USECOLS_ADVICE = "; use `usecols` to select a subset and avoid this error"


def load_matrix(path: str) -> np.ndarray:
    """Read a real matrix from a ``.csv`` or ``.json`` file (by extension).

    Raises ValueError, naming the path, when the file does not hold a 2-D
    matrix (an empty one holds none), when a CSV line does not parse (with
    numpy's reason), when a JSON entry is not a JSON number (a bool, a
    string or null), or when an entry is NaN or infinite (the first such
    ``[row, col]``, counted from 0)."""
    if path.endswith(".json"):
        with open(path) as fh:
            # an integer beyond the float range reads as inf, not OverflowError
            m = np.asarray(json.load(fh, parse_int=float), dtype=object)
    else:
        try:
            with warnings.catch_warnings():
                # an empty file is refused below, without numpy's warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                m = np.loadtxt(path, delimiter=",", ndmin=2, comments="#")
        except ValueError as exc:
            # numpy's reason without its advice, which names a loadtxt parameter
            reason = str(exc).removesuffix(_USECOLS_ADVICE)
            raise ValueError(f"{path}: {reason}") from None
    if m.ndim != 2 or not m.size:
        raise ValueError(f"{path} does not contain a 2-D matrix")
    if m.dtype == object:
        for (i, j), x in np.ndenumerate(m):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"{path}: entry [{i}, {j}] is {json.dumps(x)}, "
                                 f"not a JSON number")
        m = m.astype(float)
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: entry [{i}, {j}] is {float(m[i, j])}, not a finite number")
    return m


def save_matrix(m, path: str) -> None:
    """Write a real matrix to ``.csv`` or ``.json`` (by extension)."""
    m = np.asarray(m, dtype=float)
    if path.endswith(".json"):
        with open(path, "w") as fh:
            json.dump([[float(x) for x in row] for row in m], fh)
            fh.write("\n")
    else:
        np.savetxt(path, m, delimiter=",", fmt=FLOAT_FMT)
