"""Nonparametric comparison machinery: Wilcoxon signed-rank and Friedman.

Both tests operate on per-problem results of competing algorithms. The
Wilcoxon test uses the exact null distribution of the rank sum for small
samples (enumerated over the observed, possibly tied, ranks) and a
tie-corrected normal approximation above that. The Friedman test ranks
algorithms within each problem row with mid-ranks and reports mean ranks,
a dense ordinal ranking, and the tie-corrected chi-square statistic.

The module needs only numpy and the standard library: mid-ranks are
computed with numpy, the normal tail is ``math.erfc`` and the chi-square
tail, whose degrees of freedom are always an integer here, is its finite
closed form (`chi2_sf`). No scipy module is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

EXACT_LIMIT = 20


@dataclass(frozen=True)
class PairedSamples:
    """Per-problem paired results of two algorithms."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
            raise ValueError("paired samples must be 1-D and equally long")
        if a.shape[0] < 2:
            raise ValueError("need at least two pairs")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("paired samples have non-finite values")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class ResultMatrix:
    """Problems x algorithms matrix of summary values (e.g. mean of best)."""

    problems: tuple[str, ...]
    algorithms: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.problems), len(self.algorithms)):
            raise ValueError("matrix shape must be (problems, algorithms)")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix has missing or non-finite cells")
        object.__setattr__(self, "values", values)


def mid_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks of a 1-D array, tied values sharing their mean rank.

    A group of c equal values ending at sorted position u gets
    u - (c - 1) / 2. Ranks are half-integers, so they are exact and equal
    ``scipy.stats.rankdata(values, method="average")``.
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


class WilcoxonResult(NamedTuple):
    p_value: float
    t_plus: float
    t_minus: float


def _exact_two_sided_p(doubled_ranks: np.ndarray, doubled_t_plus: int) -> float:
    """Two-sided p from the exact null distribution of the rank sum.

    Signs are equiprobable under the null, so the doubled rank sum follows
    the subset-sum distribution of the observed doubled ranks (integers,
    which keeps the tabulation exact even with mid-ranks).
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        r = int(r)
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    n_assignments = float(2 ** len(doubled_ranks))
    p_le = counts[: doubled_t_plus + 1].sum() / n_assignments
    p_ge = counts[doubled_t_plus:].sum() / n_assignments
    return min(1.0, 2.0 * min(p_le, p_ge))


def wilcoxon_signed_rank(samples: PairedSamples) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired results.

    Zero differences are dropped (Wilcoxon's original procedure), absolute
    differences are ranked with mid-ranks on ties, and T+/T- are the rank
    sums of positive and negative differences. Exact p for n <= 20 pairs,
    tie-corrected normal approximation beyond.

    Raises ValueError("no information") when every difference is zero.
    """
    diff = samples.a - samples.b
    diff = diff[diff != 0.0]
    if diff.size == 0:
        raise ValueError("no information: all paired differences are zero")
    ranks = mid_ranks(np.abs(diff))
    t_plus = float(ranks[diff > 0].sum())
    t_minus = float(ranks[diff < 0].sum())
    n = diff.size
    if n <= EXACT_LIMIT:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        p = _exact_two_sided_p(doubled, int(round(2.0 * t_plus)))
    else:
        # mean and variance of T+ over random signs; Var = sum(r_i^2)/4
        # already absorbs mid-rank ties (classical tie-correction form).
        mu = ranks.sum() / 2.0
        sigma = np.sqrt(np.sum(ranks**2) / 4.0)
        z = (t_plus - mu) / sigma
        p = math.erfc(abs(z) * math.sqrt(0.5))
    return WilcoxonResult(p_value=p, t_plus=t_plus, t_minus=t_minus)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of a chi-square variable with integer ``df`` >= 1.

    Closed forms, both finite sums of positive terms (no cancellation):
    even df, exp(-x/2) * sum_{i < df/2} (x/2)^i / i!; odd df,
    erfc(sqrt(x/2)) + sqrt(2x/pi) * exp(-x/2) * sum_{i < (df-1)/2} x^i / (3*5*...*(2i+1)).
    Each term is the previous one times a finite factor, starting from a
    finite multiple of exp(-x/2); every term is a probability, so none
    overflows, a far tail underflows to 0 and no step forms inf * 0.

    Beyond x = 1400 exp(-x/2) nears the subnormal range and loses bits, so
    the sum starts from exp(-700) and takes the rest of the exponent in
    slices of at most 700 whenever a term passes 1; the odd-df erfc term,
    below 1e-306 there, is added last. Up to x = 1400 the sum is the plain one.
    """
    if x <= 0.0:
        return 1.0
    odd = df % 2
    root = math.sqrt(x / 2.0)
    head = min(x / 2.0, 700.0)
    deferred = x / 2.0 - head
    erfc = math.erfc(root) if odd else 0.0
    late = erfc if deferred else 0.0
    total = erfc - late
    term = (2.0 / math.sqrt(math.pi) * root if odd else 1.0) * math.exp(-head)
    for i in range(df // 2):
        total += term
        term *= x / (2 * i + 2 + odd)
        if deferred and term > 1.0:
            cut = min(deferred, 700.0)
            deferred, scale = deferred - cut, math.exp(-cut)
            total, term = total * scale, term * scale
    return min(1.0, total * math.exp(-deferred) + late)


def friedman_mean_ranks(matrix: ResultMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Mean mid-rank per algorithm plus a dense ordinal ranking.

    Within every problem row the algorithms are ranked ascending by value
    (smaller is better). Ordinal 1 goes to the smallest mean rank and equal
    mean ranks share their ordinal.
    """
    if len(matrix.algorithms) < 2 or len(matrix.problems) < 2:
        raise ValueError("friedman ranking needs >= 2 algorithms and >= 2 problems")
    row_ranks = np.vstack([mid_ranks(row) for row in matrix.values])
    mean_ranks = row_ranks.mean(axis=0)
    distinct = np.unique(mean_ranks)
    ordinals = np.searchsorted(distinct, mean_ranks) + 1
    return mean_ranks, ordinals


def friedman_statistic(matrix: ResultMatrix) -> tuple[float, float]:
    """Tie-corrected Friedman chi-square and its chi-square tail p-value."""
    mean_ranks, _ = friedman_mean_ranks(matrix)
    n_problems, k = matrix.values.shape
    raw = 12.0 * n_problems / (k * (k + 1)) * np.sum((mean_ranks - (k + 1) / 2.0) ** 2)

    tie_sum = 0.0
    for row in matrix.values:
        _, counts = np.unique(row, return_counts=True)
        tie_sum += float(np.sum(counts.astype(float) ** 3 - counts))
    correction = 1.0 - tie_sum / (n_problems * k * (k**2 - 1))
    if correction <= 0.0:
        # every row fully tied: no discrimination at all
        return 0.0, 1.0
    statistic = float(raw / correction)
    return statistic, chi2_sf(statistic, k - 1)
