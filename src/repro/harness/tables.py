"""Minimal ASCII table rendering for experiment reports.

The experiment harness prints its results as these tables; keeping the
renderer dependency-free makes the harness usable in any environment.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["Table"]


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


class Table:
    """A titled, column-aligned ASCII table."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells for {len(self.columns)} columns"
            )
        self.rows.append([_fmt(v) for v in values])

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.add_row(*row)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [self.title, "=" * max(len(self.title), len(header)), header, sep]
        for row in self.rows:
            lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
