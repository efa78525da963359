"""Empirical CDFs and distribution summaries shared by the figures.

Empty inputs: helpers that summarise a distribution into a single
statistic (:func:`cdf_at`, :func:`fraction_above`, :func:`percentile`)
raise :class:`ValueError` on an empty sequence — there is no honest
number to return, and silently emitting 0.0 used to hide upstream bugs
behind opaque downstream Index/ZeroDivision errors. Helpers that return
a *collection* of points (:func:`empirical_cdf`,
:func:`histogram_fractions`) map an empty input to an empty output.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def _as_array(values: Sequence[float], context: str) -> np.ndarray:
    """1-D float array of ``values``; raises ValueError when empty.

    Accepts any sequence (including numpy arrays, whose truthiness is
    ambiguous under a bare ``not values`` check).
    """
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{context} expects a 1-D sequence of values")
    if array.size == 0:
        raise ValueError(f"{context} of an empty sequence")
    return array


def empirical_cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, fraction ≤ value) points of the empirical CDF.

    Duplicate values collapse to one point at their highest fraction.
    An empty input yields an empty point list.

    >>> empirical_cdf([1, 2, 2, 4])
    [(1.0, 0.25), (2.0, 0.75), (4.0, 1.0)]
    """
    if len(values) == 0:
        return []
    ordered = np.sort(_as_array(values, "empirical_cdf"))
    n = ordered.size
    points: List[Tuple[float, float]] = []
    for index, value in enumerate(ordered):
        if index + 1 < n and ordered[index + 1] == value:
            continue
        points.append((float(value), (index + 1) / n))
    return points


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values ≤ threshold (ValueError on an empty input)."""
    array = _as_array(values, "cdf_at")
    return float(np.count_nonzero(array <= threshold)) / array.size


def fraction_above(values: Sequence[float], threshold: float) -> float:
    """Fraction of values strictly greater than threshold (ValueError
    on an empty input)."""
    return 1.0 - cdf_at(values, threshold)


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]; ValueError on empty input)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    return float(np.percentile(_as_array(values, "percentile"), q))


def histogram_fractions(
    values: Sequence[int],
) -> List[Tuple[int, int, float]]:
    """(value, count, fraction) rows for a discrete distribution,
    sorted by value. An empty input yields an empty row list."""
    if len(values) == 0:
        return []
    counts: dict = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    total = len(values)
    return [
        (value, count, count / total)
        for value, count in sorted(counts.items())
    ]
