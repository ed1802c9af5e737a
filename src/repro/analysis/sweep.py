"""Generic parameter-sweep helpers.

The figure drivers are hand-written sweeps; these helpers cover the
ad-hoc exploration a user does around them ("how does the bound move if
I vary the queue size and the load together?") without re-writing the
two nested loops and the bookkeeping every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

from .report import render_table, to_csv

__all__ = ["SweepResult", "sweep_1d", "sweep_2d"]


@dataclass(frozen=True)
class SweepResult:
    """Labelled result grid of a sweep.

    ``rows`` are ``[param..., value]`` lists ready for rendering.
    """

    headers: List[str]
    rows: List[List[Any]]

    def table(self, title: str = "") -> str:
        """Render as an aligned ASCII table."""
        return render_table(self.headers, self.rows,
                            title=title or None)

    def csv(self) -> str:
        """Render as CSV (fields with commas/quotes/newlines quoted)."""
        return to_csv(self.headers, self.rows)

    def values(self) -> List[Any]:
        """The bare result column, in sweep order."""
        return [row[-1] for row in self.rows]


def sweep_1d(fn: Callable[[Any], Any], values: Sequence[Any],
             param: str = "x", result: str = "value") -> SweepResult:
    """Evaluate ``fn`` over one parameter axis.

    >>> sweep_1d(lambda x: x * x, [1, 2, 3]).values()
    [1, 4, 9]
    """
    rows = [[value, fn(value)] for value in values]
    return SweepResult([param, result], rows)


def sweep_2d(fn: Callable[[Any, Any], Any],
             first_values: Sequence[Any],
             second_values: Sequence[Any],
             first: str = "x", second: str = "y",
             result: str = "value") -> SweepResult:
    """Evaluate ``fn`` over a two-parameter grid (row-major)."""
    rows = [[a, b, fn(a, b)] for a in first_values for b in second_values]
    return SweepResult([first, second, result], rows)
