"""Order statistics and the comparison rule shared by the runner, the
compare tool and the tests.

Pure Python, no ``repro`` import: the runner process only spawns and
summarizes workers, so it must not pay (or perturb) the library import.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Verdicts :func:`verdict` can return.
GAIN, REGRESSION, UNRESOLVED, UNCHANGED = (
    "gain", "regression", "unresolved", "unchanged")

#: A gain needs at least this many A/B pairs ...
MIN_PAIRS = 10
#: ... and the change must win at least this share of them.
WIN_SHARE = 0.9


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them, so spreads read the same here and in any outside check;
    a single sample is its own quartiles."""
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and the raw samples of one metric."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "samples": list(values)}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: float,
            pairs: Optional[List[Tuple[float, float]]] = None) -> str:
    """Judge ``head`` against ``base`` for one metric on one workload.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` the share of the
    base median the metric may worsen by; ``pairs`` the ``(base, head)``
    values of alternating A/B runs, when there are any.

    * **gain** -- at least :data:`MIN_PAIRS` pairs, the head wins at
      least :data:`WIN_SHARE` of them (ties count for neither side), and
      the medians differ, in the head's favour, by more than the base's
      inter-quartile distance;
    * **unresolved** -- the base's own spread is wider than the bound,
      unless every head run reads better than every base run;
    * **regression** -- the head median is worse than the base median by
      more than the bound;
    * **unchanged** -- otherwise: no regression, and no gain shown.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    _h1, head_median, _h3 = quartiles(head)
    improvement = sign * (head_median - base_median)
    if pairs and len(pairs) >= MIN_PAIRS:
        wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
        if wins >= WIN_SHARE * len(pairs) and improvement > q3 - q1:
            return GAIN
    every_run_better = all(sign * (h - b) > 0 for h in head for b in base)
    if spread(base) > bound and not every_run_better:
        return UNRESOLVED
    if -improvement > bound * abs(base_median):
        return REGRESSION
    return UNCHANGED
