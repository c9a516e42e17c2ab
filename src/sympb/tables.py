"""Tabular experiment reports with deterministic CSV / JSON serialization.

Floats are written with 17 significant digits so output round-trips exactly;
identical inputs produce byte-identical files (metadata is sorted, no
timestamps).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

__all__ = ["ExperimentReport"]

FLOAT_FMT = "%.17g"


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return FLOAT_FMT % v
    return str(v)


def format_column(values) -> list:
    """``format_value`` of each value.  A column of ``float`` instances only
    (bools and ``np.float32`` are not) is formatted in one ``FLOAT_FMT``
    pass.

    A 1-d ndarray is formatted as its ``tolist()`` would be.  A float64 one
    formats each distinct bit pattern once (``np.unique`` of its ``uint64``
    view) and expands the strings through the inverse: an exp1 area column
    repeats a few dozen values 600 times.  The key is the bits, not the
    float value, since ``-0.0 == 0.0`` would merge ``-0`` into ``0``."""
    if isinstance(values, np.ndarray):
        if values.dtype != np.float64:
            return format_column(values.tolist())
        bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        distinct = list(map(FLOAT_FMT.__mod__, bits.view(np.float64).tolist()))
        return np.array(distinct, dtype=object)[inverse].tolist()
    if all(map(isinstance, values, repeat(float))):
        return list(map(FLOAT_FMT.__mod__, values))
    return list(map(format_value, values))


def csv_text(meta: dict, columns, cells) -> str:
    """The CSV text: one ``#``-prefixed JSON metadata line (sorted keys), the
    header, then one line per row of the formatted columns ``cells``."""
    lines = ["# " + json.dumps(meta, sort_keys=True), ",".join(columns)]
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


def write_text(target, text: str) -> None:
    """Write ``text`` to ``target``: a stream (anything with ``write``) or a
    path, which is created or overwritten."""
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)


@dataclass
class ExperimentReport:
    """Columns, rows and resolved-configuration metadata for one run."""

    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        if not self.columns:
            raise ValueError("a report needs at least one column")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row of length {len(row)} does not match {len(self.columns)} columns"
                )

    def to_csv(self, target) -> None:
        """Write CSV with a single ``#``-prefixed JSON metadata line on top."""
        write_text(target, self._csv_text())

    def to_json(self, target) -> None:
        write_text(target, self._json_text())

    def _csv_text(self) -> str:
        return csv_text(self.meta, self.columns, [format_column(c) for c in zip(*self.rows)])

    def _json_text(self) -> str:
        def norm(v):
            if isinstance(v, float) and math.isnan(v):
                return None
            return v

        doc = {
            "meta": self.meta,
            "columns": list(self.columns),
            "rows": [[norm(v) for v in row] for row in self.rows],
        }
        return json.dumps(doc, sort_keys=True) + "\n"
