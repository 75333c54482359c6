"""Series data + ASCII rendering for the figure experiments (F1–F6).

A :class:`Figure` holds named series of ``(x, y)`` points; ``render()``
draws a terminal scatter plot (optionally log-log) and ``to_rows()`` emits
the underlying numbers as table rows.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["Figure"]

_MARKS = "ox+*#@%&"


class Figure:
    """Named (x, y) series with a dependency-free terminal renderer."""

    def __init__(self, title: str, xlabel: str = "x", ylabel: str = "y", loglog: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.loglog = loglog
        self.series: dict[str, list[tuple[float, float]]] = {}

    def add(self, name: str, points: Iterable[tuple[float, float]]) -> None:
        self.series.setdefault(name, []).extend(
            (float(x), float(y)) for x, y in points
        )

    def add_point(self, name: str, x: float, y: float) -> None:
        self.series.setdefault(name, []).append((float(x), float(y)))

    # ------------------------------------------------------------------
    def to_rows(self) -> list[tuple[str, float, float]]:
        rows = []
        for name, pts in self.series.items():
            for x, y in sorted(pts):
                rows.append((name, x, y))
        return rows

    # ------------------------------------------------------------------
    def render(self, width: int = 64, height: int = 18) -> str:
        """ASCII scatter plot of all series."""
        all_pts = [(x, y) for pts in self.series.values() for (x, y) in pts]
        if not all_pts:
            return f"{self.title}\n(empty figure)"

        def tx(v: float) -> float:
            return math.log10(v) if self.loglog and v > 0 else v

        xs = [tx(x) for x, _ in all_pts]
        ys = [tx(y) for _, y in all_pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0

        grid = [[" "] * width for _ in range(height)]
        for i, (name, pts) in enumerate(sorted(self.series.items())):
            mark = _MARKS[i % len(_MARKS)]
            for x, y in pts:
                col = int((tx(x) - x0) / xr * (width - 1))
                row = height - 1 - int((tx(y) - y0) / yr * (height - 1))
                grid[row][col] = mark

        scale = " (log-log)" if self.loglog else ""
        lines = [f"{self.title}{scale}", f"y: {self.ylabel}   x: {self.xlabel}"]
        lines.append("+" + "-" * width + "+")
        for row in grid:
            lines.append("|" + "".join(row) + "|")
        lines.append("+" + "-" * width + "+")
        legend = "   ".join(
            f"{_MARKS[i % len(_MARKS)]} {name}"
            for i, name in enumerate(sorted(self.series))
        )
        lines.append(f"legend: {legend}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
