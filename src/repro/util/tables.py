"""Plain-text table rendering for the experiment harness.

Every experiment prints its results as a table shaped like the corresponding
figure/table of the paper line (rows = workloads, columns = systems), so the
CLI output is directly comparable to EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = ["Table"]


@dataclass
class Table:
    """A simple column-aligned text table.

    >>> t = Table(["workload", "speedup"], title="demo")
    >>> t.add_row(["cg", 1.25])
    >>> print(t.render())  # doctest: +SKIP
    """

    columns: Sequence[str]
    title: str = ""
    float_format: str = "{:.3f}"
    rows: list[list[Any]] = field(default_factory=list)

    def add_row(self, row: Iterable[Any]) -> None:
        row = list(row)
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def _fmt(self, cell: Any) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return self.float_format.format(cell)
        return str(cell)

    def render(self) -> str:
        header = [str(c) for c in self.columns]
        body = [[self._fmt(c) for c in row] for row in self.rows]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

        out = []
        if self.title:
            out.append(self.title)
        out.append(line(header))
        out.append("  ".join("-" * w for w in widths))
        out.extend(line(row) for row in body)
        return "\n".join(out)

