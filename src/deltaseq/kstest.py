"""Exact two-sample Kolmogorov-Smirnov machinery.

The two-sample statistic D = sup_t |F1(t) - F2(t)| is computed on the integer
lattice: walking the merged samples with steps +n2 (first sample) and -n1
(second sample) keeps h = n1*n2*(F1 - F2) as an exact integer, and D is
max |h| / (n1*n2) taken at value boundaries. Under the null that both samples
are drawn exchangeably from one continuous distribution, every interleaving
of the n1+n2 ranks is equally likely, so P(D >= d) is a ratio of lattice-path
counts: paths from (0,0) to (n1,n2) are tallied with arbitrary-precision
integers and the p-value is formed as an exact rational before rounding once
to float. Tied values across samples break the exchangeability argument; the
statistic is still exact for the data as given and the result carries a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ResourceError, ValidationError
from .mtp import csv_text

DEFAULT_CDF_BUDGET = 10_000


# ---------------------------------------------------------------------------
# Empirical distribution functions and generic step functions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function: value ``y0`` before ``xs[0]`` and
    ``ys[k]`` on [xs[k], xs[k+1])."""

    xs: np.ndarray
    ys: np.ndarray
    y0: float = 0.0

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64).copy()
        ys = np.asarray(self.ys, dtype=np.float64).copy()
        if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape or xs.shape[0] == 0:
            raise ValidationError("step function needs matching nonempty xs and ys")
        if (xs[1:] <= xs[:-1]).any():
            raise ValidationError("step function xs must be strictly increasing")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @cached_property
    def nondecreasing(self) -> bool:
        """Finite heights that never step down, starting from ``y0``."""
        y0 = np.float64(self.y0)
        return bool(np.isfinite(y0) and np.isfinite(self.ys).all()
                    and y0 <= self.ys[0] and (self.ys[1:] >= self.ys[:-1]).all())

    def evaluate(self, t) -> np.ndarray:
        idx = np.searchsorted(self.xs, np.asarray(t, dtype=np.float64), side="right") - 1
        return np.where(idx >= 0, self.ys[np.maximum(idx, 0)], self.y0)

    def evaluate_left(self, t) -> np.ndarray:
        """Left limit, i.e. the value just before t."""
        idx = np.searchsorted(self.xs, np.asarray(t, dtype=np.float64), side="left") - 1
        return np.where(idx >= 0, self.ys[np.maximum(idx, 0)], self.y0)


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

    def evaluate(self, t) -> np.ndarray:
        return np.searchsorted(self.sorted_values, np.asarray(t, dtype=np.float64), side="right") / self.size

    def as_step(self) -> StepFunction:
        xs, counts = np.unique(self.sorted_values, return_counts=True)
        return StepFunction(xs, np.cumsum(counts) / self.size)


def mean_of_edfs(edfs: Sequence[EDF]) -> StepFunction:
    """Pointwise mean of EDFs as one exact weighted step function (no grid)."""
    if len(edfs) == 0:
        raise ValidationError("need at least one EDF")
    B = len(edfs)
    pooled = np.concatenate([e.sorted_values for e in edfs])
    sizes = {e.size for e in edfs}
    if len(sizes) == 1:
        # equal sample sizes: once the pooled values are sorted, the number at
        # or below each distinct value (the sum of the per-EDF counts) is
        # where the next distinct value starts. Dividing that integer once
        # puts every height exactly on the k/(B*n) lattice, and the B=1 mean
        # reproduces its EDF bit for bit.
        pooled.sort()
        starts = np.concatenate(([True], pooled[1:] != pooled[:-1]))
        xs = pooled[starts]
        at_or_below = np.append(np.flatnonzero(starts)[1:], pooled.shape[0])
        del pooled  # B samples large; freed before StepFunction copies its arrays
        return StepFunction(xs, at_or_below / (B * sizes.pop()))
    xs = np.unique(pooled)
    heights = np.zeros(xs.shape[0], dtype=np.float64)
    for e in edfs:
        heights += np.searchsorted(e.sorted_values, xs, side="right") / (B * e.size)
    return StepFunction(xs, heights)


def _as_step(f) -> StepFunction:
    if isinstance(f, StepFunction):
        return f
    if isinstance(f, EDF):
        return f.as_step()
    as_step = getattr(f, "as_step", None)
    if as_step is not None:
        return as_step()
    raise ValidationError(f"cannot interpret {type(f).__name__} as a step function")


def kolmogorov_distance(f, g) -> float:
    """sup |f - g| for two step functions (EDFs accepted), taken exactly at
    jump points, checking right values and left limits.

    When one function is nondecreasing, only the other's jumps are visited:
    between two of them the other is a constant c while the monotone one
    moves, and fl(c - x) is monotone in x, so |f - g| peaks at an end of each
    such interval. The ends are the right values and left limits at those
    jumps, the region before any jump, and the monotone function's last jump,
    all points of the union of both jump sets, so the float equals the one
    the union gives. If both are nondecreasing the smaller jump set is
    visited; if neither is, the union.
    """
    fs = _as_step(f)
    gs = _as_step(g)
    pairs = [(a, b) for a, b in ((fs, gs), (gs, fs)) if b.nondecreasing]
    if not pairs:
        xs = np.union1d(fs.xs, gs.xs)
        right = np.abs(fs.evaluate(xs) - gs.evaluate(xs)).max()
        left = np.abs(fs.evaluate_left(xs) - gs.evaluate_left(xs)).max()
        return float(max(right, left))
    a, b = min(pairs, key=lambda pair: pair[0].xs.shape[0])
    xs = np.append(a.xs, b.xs[-1])
    right = np.abs(a.evaluate(xs) - b.evaluate(xs)).max()
    left = np.abs(a.evaluate_left(a.xs) - b.evaluate_left(a.xs)).max()
    before = abs(np.float64(a.y0) - np.float64(b.y0))
    return float(max(right, left, before))


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
