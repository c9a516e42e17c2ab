"""Tabular experiment reports with deterministic CSV / JSON serialization.

Floats are written with 17 significant digits so output round-trips exactly;
identical inputs produce byte-identical files (metadata is sorted, no
timestamps).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
        """The CSV text; each value is written as :func:`format_value` writes
        it.  Rows are filled into one ``%`` template per tuple of value types;
        a row that holds a bool, which prints as ``true``/``false``, is
        formatted value by value."""
        lines = ["# " + json.dumps(self.meta, sort_keys=True), ",".join(self.columns)]
        templates = {}
        for row in self.rows:
            types = tuple(map(type, row))
            if types not in templates:
                templates[types] = None if bool in types else ",".join(
                    FLOAT_FMT if issubclass(t, float) else "%s" for t in types)
            template = templates[types]
            if template is None:
                lines.append(",".join(map(format_value, row)))
            else:
                lines.append(template % tuple(row))
        return "\n".join(lines) + "\n"

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
