"""Exact two-sample Kolmogorov-Smirnov machinery.

The two-sample statistic D = sup_t |F1(t) - F2(t)| depends only on the order
of the pooled sample, so it is computed from ranks: any strictly increasing
map of the pooled values leaves it unchanged. Each pooled value becomes a key
(rank, sample bit); walking the keys in rank order with steps +n2 (first
sample) and -n1 (second sample) keeps h = n1*n2*(F1 - F2) as an exact
integer, and D is max |h| / (n1*n2) taken where the rank changes. A caller
that tests many column subsets of one pooled matrix ranks each row once and
sorts only the chosen ranks (see ``_kernels``).

Under the null that both samples are drawn exchangeably from one continuous
distribution, every interleaving of the n1+n2 ranks is equally likely, so
P(D >= d) is a ratio of lattice-path counts (Hodges 1958): paths from (0,0)
to (n1,n2) are tallied with arbitrary-precision integers and the p-value is
formed as an exact rational before rounding once to float. A rank group that
holds both sample bits is a cross-sample tie, which breaks the
exchangeability argument; the statistic is still exact for the data as
given, the result carries a flag, and the p-value is conservative: given the
pooled values, |h| is only read at the ends of tie groups, a subset of the
lattice vertices, so at least as many paths stay inside the band and the
p-value conditional on the ties is at most the one reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ResourceError, ValidationError
from .mtp import csv_text

DEFAULT_CDF_BUDGET = 10_000


# ---------------------------------------------------------------------------
# Empirical and other distribution functions as step functions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous distribution function: 0 before ``xs[0]`` and
    ``ys[k]`` on [xs[k], xs[k+1]), with nondecreasing heights in [0, 1]."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64).copy()
        ys = np.asarray(self.ys, dtype=np.float64).copy()
        if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape or xs.shape[0] == 0:
            raise ValidationError("step function needs matching nonempty xs and ys")
        if np.isnan(xs).any() or (xs[1:] <= xs[:-1]).any():
            raise ValidationError("step function xs must be strictly increasing")
        # every comparison with a NaN height is false, so NaN fails here too
        if not (ys[0] >= 0.0 and ys[-1] <= 1.0 and (ys[1:] >= ys[:-1]).all()):
            raise ValidationError("step function heights must be nondecreasing in [0, 1]")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def evaluate(self, t) -> np.ndarray:
        idx = np.searchsorted(self.xs, np.asarray(t, dtype=np.float64), side="right") - 1
        return np.where(idx >= 0, self.ys[np.maximum(idx, 0)], 0.0)

    def evaluate_sides(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(left limits, right values) at ``t`` from one left search; sorted
        ``t`` makes the search cheapest. A point that hits a jump exactly
        steps past it for its right value, which is the index a right search
        would give, since the xs are strictly increasing and not NaN."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.xs, t, side="left")
        last = self.xs.shape[0] - 1
        right = idx + (self.xs[np.minimum(idx, last)] == t)
        left = np.where(idx > 0, self.ys[np.maximum(idx - 1, 0)], 0.0)
        return left, np.where(right > 0, self.ys[np.maximum(right - 1, 0)], 0.0)


def _sorted_step(values: np.ndarray, total: int) -> StepFunction:
    """Distribution function of ``total`` equal weights at the sorted
    ``values``. The number of values at or below each distinct value is
    where the next distinct value starts; dividing that integer once puts
    every height exactly on the k/total lattice."""
    starts = np.concatenate(([True], values[1:] != values[:-1]))
    xs = values[starts]
    at_or_below = np.append(np.flatnonzero(starts)[1:], values.shape[0])
    del values  # a pooled mean's sample is large; freed before StepFunction copies
    return StepFunction(xs, at_or_below / total)


@dataclass(frozen=True)
class EDF:
    """Empirical distribution function of a finite sample."""

    sorted_values: np.ndarray
    size: int

    @classmethod
    def from_sample(cls, sample: Sequence[float]) -> "EDF":
        arr = np.asarray(sample, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ValidationError("EDF needs a nonempty sample")
        if not np.isfinite(arr).all():
            raise ValidationError("EDF sample must be finite")
        arr = np.sort(arr)
        arr.flags.writeable = False
        return cls(arr, int(arr.size))

    def as_step(self) -> StepFunction:
        return _sorted_step(self.sorted_values, self.size)


def mean_of_edfs(edfs: Sequence[EDF]) -> StepFunction:
    """Pointwise mean of EDFs of one common sample size, as one exact step
    function (no grid): the EDF of their pooled samples. The B=1 mean
    reproduces its EDF bit for bit."""
    if len(edfs) == 0:
        raise ValidationError("need at least one EDF")
    sizes = sorted({e.size for e in edfs})
    if len(sizes) > 1:
        raise ValidationError(f"mean_of_edfs needs equal sample sizes, got {sizes}")
    return _sorted_step(np.sort(np.concatenate([e.sorted_values for e in edfs])),
                        len(edfs) * sizes[0])


def _as_step(f) -> StepFunction:
    if isinstance(f, StepFunction):
        return f
    if isinstance(f, EDF):
        return f.as_step()
    raise ValidationError(f"cannot interpret {type(f).__name__} as a step function")


def kolmogorov_distance(f, g) -> float:
    """sup |f - g| for two distribution functions (EDFs accepted), taken
    exactly at jump points, checking right values and left limits.

    Only the jumps of the function with fewer of them (``f`` on a tie) are
    visited: between two of them it is a constant c while the other moves
    monotonically, and fl(c - x) is monotone in x, so |f - g| peaks at an end
    of each such interval. The ends are the right values and left limits at
    the visited jumps, the region before any jump (where both are 0), and the
    other function's last jump, all points of the union of both jump sets, so
    the float equals the one the union gives.

    At its own jumps the visited function needs no search: its right values
    are its heights and its left limits the heights shifted by one, 0 first.
    The other is read there by a single search that yields both sides
    (``StepFunction.evaluate_sides``), so against a large center each
    distance costs one search of the center.
    """
    fs = _as_step(f)
    gs = _as_step(g)
    a, b = (fs, gs) if fs.xs.shape[0] <= gs.xs.shape[0] else (gs, fs)
    b_left, b_right = b.evaluate_sides(a.xs)
    a_right = np.append(a.ys, a.evaluate(b.xs[-1]))
    right = np.abs(a_right - np.append(b_right, b.ys[-1])).max()
    left = np.abs(np.concatenate(([0.0], a.ys[:-1])) - b_left).max()
    return float(max(right, left))


# ---------------------------------------------------------------------------
# The statistic.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KSResult:
    statistic: float
    scaled: int
    n1: int
    n2: int
    p_value: float
    ties: bool


def _check_samples(s1, s2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(s1, dtype=np.float64).ravel()
    b = np.asarray(s2, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValidationError("both samples must be nonempty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("samples must be finite")
    return a, b


def ks_statistic(s1: Sequence[float], s2: Sequence[float]) -> float:
    """Two-sample statistic sup |F1 - F2| via a single merge pass."""
    a, b = _check_samples(s1, s2)
    scaled, _ = _kernels.ks_scaled_batch(a[None, :], b[None, :])
    return int(scaled[0]) / (a.size * b.size)


def ks_test(s1: Sequence[float], s2: Sequence[float]) -> KSResult:
    """Statistic plus its exact null p-value P(D >= observed)."""
    a, b = _check_samples(s1, s2)
    scaled, ties = _kernels.ks_scaled_batch(a[None, :], b[None, :])
    c = int(scaled[0])
    n1, n2 = a.size, b.size
    p = float(_pvalue_from_scaled(c, n1, n2))
    return KSResult(c / (n1 * n2), c, n1, n2, p, bool(ties[0]))


# ---------------------------------------------------------------------------
# Exact null distribution via lattice-path counting.
# ---------------------------------------------------------------------------


def _paths_within(n1: int, n2: int, limit: int) -> int:
    """Count monotone paths (0,0) -> (n1,n2) with |i*n2 - j*n1| <= limit at
    every vertex. Arbitrary-precision integers throughout."""
    if limit < 0:
        return 0
    if limit >= n1 * n2:
        return math.comb(n1 + n2, n1)
    prev = [0] * (n2 + 1)
    prev[0] = 1
    hi0 = min(n2, limit // n1)
    for j in range(1, hi0 + 1):
        prev[j] = 1
    for i in range(1, n1 + 1):
        cur = [0] * (n2 + 1)
        base = i * n2
        lo_num = base - limit
        lo = 0 if lo_num <= 0 else -(-lo_num // n1)
        hi = min(n2, (base + limit) // n1)
        if lo > hi:
            return 0
        for j in range(lo, hi + 1):
            acc = prev[j]
            if j > 0:
                acc += cur[j - 1]
            cur[j] = acc
        prev = cur
    return prev[n2]


def _validate_sizes(n1: int, n2: int) -> tuple[int, int]:
    n1 = int(n1)
    n2 = int(n2)
    if n1 < 1 or n2 < 1:
        raise ValidationError(f"sample sizes must be >= 1, got ({n1}, {n2})")
    return n1, n2


def _scaled_limit(d: float, n1: int, n2: int) -> int:
    """Largest integer |h| a path may reach while keeping D < d.

    d values landing on the lattice (within 1e-9 of an integer after scaling
    by n1*n2) are snapped so that P(D >= d) includes the atom at d.
    """
    c = d * n1 * n2
    rc = round(c)
    if abs(c - rc) <= 1e-9:
        return int(rc) - 1
    return math.floor(c)


def ks_exact_pvalue_exact(d: float, n1: int, n2: int) -> Fraction:
    """P(D >= d) as an exact rational."""
    n1, n2 = _validate_sizes(n1, n2)
    if not math.isfinite(d) or d < -1e-9 or d > 1.0 + 1e-9:
        raise ValidationError(f"d must lie in [0, 1], got {d}")
    return _pvalue_from_scaled(_scaled_limit(min(max(d, 0.0), 1.0), n1, n2) + 1, n1, n2)


def ks_exact_pvalue(d: float, n1: int, n2: int) -> float:
    """P(D >= d) rounded once to float."""
    return float(ks_exact_pvalue_exact(d, n1, n2))


@lru_cache(maxsize=256)
def _pvalue_from_scaled(c: int, n1: int, n2: int) -> Fraction:
    """P(n1*n2*D >= c) for integer c."""
    if c <= 0:
        return Fraction(1)
    inside = _paths_within(n1, n2, c - 1)
    return 1 - Fraction(inside, math.comb(n1 + n2, n1))


@lru_cache(maxsize=64)
def _counts_within_lattice(n1: int, n2: int) -> tuple[int, ...]:
    """Path counts with max |h| <= k*g for k = 0 .. n1*n2/g (g = gcd)."""
    g = math.gcd(n1, n2)
    steps = n1 * n2 // g
    return tuple(_paths_within(n1, n2, k * g) for k in range(steps + 1))


def exact_pvalues_for_scaled(scaled: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """P(D >= c/(n1*n2)) for each integer scaled statistic ``c`` in
    [0, n1*n2], in an array shaped like ``scaled``; one path count per
    distinct value."""
    n1, n2 = _validate_sizes(n1, n2)
    cs = np.asarray(scaled, dtype=np.int64)
    top = n1 * n2
    if cs.size and (cs.min() < 0 or cs.max() > top):
        bad = int(cs[(cs < 0) | (cs > top)][0])
        raise ValidationError(f"scaled statistic {bad} outside [0, {top}]")
    seen = np.zeros(top + 1, dtype=bool)
    seen[cs] = True
    table = np.empty(top + 1, dtype=np.float64)
    for c in np.flatnonzero(seen).tolist():
        table[c] = float(_pvalue_from_scaled(c, n1, n2))
    return table[cs]


@dataclass(frozen=True)
class ExactCdfTable:
    """P(D <= d) at every attainable value of the two-sample statistic."""

    n1: int
    n2: int
    ds: np.ndarray
    cdf: np.ndarray

    def as_step(self) -> StepFunction:
        return StepFunction(self.ds, self.cdf)

    def to_csv(self) -> str:
        return csv_text("d,cdf", self.ds, self.cdf)


def ks_exact_cdf(n1: int, n2: int, budget: int = DEFAULT_CDF_BUDGET) -> ExactCdfTable:
    """Full distribution table. Work grows with (n1*n2)**2/gcd, so the
    product n1*n2 is capped by ``budget``."""
    n1, n2 = _validate_sizes(n1, n2)
    if n1 * n2 > budget:
        raise ResourceError(
            f"ks_exact_cdf needs n1*n2 <= budget ({budget}), got {n1 * n2}; "
            "raise the budget explicitly to proceed"
        )
    counts = _counts_within_lattice(n1, n2)
    total = math.comb(n1 + n2, n1)
    g = math.gcd(n1, n2)
    ds = []
    cdf = []
    for k in range(1, len(counts)):
        if counts[k] > counts[k - 1]:
            ds.append((k * g) / (n1 * n2))
            cdf.append(float(Fraction(counts[k], total)))
    return ExactCdfTable(n1, n2, np.asarray(ds), np.asarray(cdf))
