"""Pairwise correlation summaries and the Fisher variance-stabilizing transform.

all_pairs_summary and z_summary summarize the correlation of every unordered
row pair without holding the pairs: rows are standardized once, and inner
products are taken tile by tile in a fixed canonical (row-block,
column-block) order, in contiguous parts across the usable CPUs (``_parts``).
Each tile sends one fixed-size record, its sums among them, and this process
adds the sums in canonical order as a serial loop would, so the result is
the same bytes for any number of parts. BLAS's thread count still matters:
OpenBLAS splits a dot product of more than about 10k values across threads.

r is binned over [-1, 1]; z needs its range, max|z|, first. Rows that are
equal, or one the negation of the other, raise DomainError before any GEMM:
their |r| is 1 whatever the GEMM kernel rounds it to. Pass 1 finds the
extreme correlations (raising DomainError on |r| = 1 there too), whose larger
|arctanh| is the candidate range. Pass 2 computes arctanh once per value for
the moments, the observed max|z| and the bins. Should the observed maximum
differ from the candidate, pass 3 bins every value again with the observed
range, so the bytes stay exact even where arctanh is not monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels, _parts
from .errors import DegenerateInputError, DomainError, ValidationError, _check_finite
from .mtp import csv_text, json_dumps

DEFAULT_BINS = 50


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped into [-1, 1]: a one-row call of
    the row-correlation kernel the censuses use.

    Requires equal lengths >= 2, finite values and nonzero sample variance
    on both sides; zero variance raises DegenerateInputError.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValidationError("pearson expects 1-d sequences")
    if xa.shape[0] != ya.shape[0]:
        raise ValidationError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise ValidationError("need at least 2 observations")
    _check_finite("values", xa, ya)
    r = float(_corr_centred(_centred(xa[None, :]), _centred(ya[None, :]))[0])
    if math.isnan(r):
        raise DegenerateInputError("zero sample variance")
    return r


def fisher_z(r: float) -> float:
    """z = atanh(r) = 0.5 * ln((1 + r) / (1 - r)); requires |r| < 1."""
    if not (-1.0 < r < 1.0):
        raise DomainError(f"fisher_z requires |r| < 1, got {r}")
    return math.atanh(r)


@dataclass(frozen=True)
class Histogram:
    """Equal-width bin counts; ``edges`` has one more entry than ``counts``.

    Bin k covers [edges[k], edges[k+1]) except the last, which is closed.
    """

    edges: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class CorrelationSummary:
    pair_count: int
    mean_r: float
    sd_r: float
    histogram: Histogram


@dataclass(frozen=True)
class ZSummary:
    pair_count: int
    mean_z: float
    sd_z: float
    theoretical_sd: float
    histogram: Histogram


def _row_values(source) -> np.ndarray:
    values = getattr(source, "values", source)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("expected a matrix-like source with 2-d values")
    return values


_CONST_TOL = 64.0 * np.finfo(np.float64).eps


def _effectively_constant(rows: np.ndarray) -> np.ndarray:
    """True per row when the spread is within float rounding of zero.

    Catches rows like y - x for y = x + c, whose exact difference is constant
    but whose float image wobbles by a few ulp.
    """
    hi = rows.max(axis=1)
    lo = rows.min(axis=1)
    # max |value| is max(hi, -lo), exactly, with no temporary of |rows|
    return hi - lo <= _CONST_TOL * np.maximum(1.0, np.maximum(hi, -lo))


def _centred(rows: np.ndarray) -> np.ndarray:
    return rows - rows.mean(axis=1, keepdims=True)


def _corr_centred(Xc: np.ndarray, Yc: np.ndarray) -> np.ndarray:
    """Row-wise Pearson correlation of two stacks of centred rows, clamped;
    NaN where either row is all zeros. Each row's result depends on that
    row alone, so a one-row call gives a block row's bits."""
    sx = np.sqrt(np.einsum("ij,ij->i", Xc, Xc))
    sy = np.sqrt(np.einsum("ij,ij->i", Yc, Yc))
    denom = sx * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.einsum("ij,ij->i", Xc, Yc) / denom
    r[denom == 0.0] = np.nan
    return np.clip(r, -1.0, 1.0)


def _standardized_rows(source) -> np.ndarray:
    """Rows centered and scaled to unit Euclidean norm, so correlations are
    plain inner products. A row constant up to rounding, whose norm and every
    r would be rounding noise, raises DegenerateInputError naming the first.

    Not ``_corr_centred``'s formula: the golden corr reports pin the bits of
    this division by each row's norm."""
    X = _row_values(source)
    if X.shape[0] < 2:
        raise ValidationError("need at least 2 rows for pairwise correlations")
    _check_finite("values", X)
    # checked a block of rows at a time, with no whole-matrix temporary
    constant = np.concatenate([_effectively_constant(X[rows])
                               for rows in _kernels.row_blocks(X.shape[0])])
    if constant.any():
        bad = int(np.argmax(constant))
        ids = getattr(source, "gene_ids", None) or getattr(source, "row_ids", None)
        name = ids[bad] if ids is not None else str(bad)
        raise DegenerateInputError(f"row {name!r} is constant up to rounding")
    Xc = _centred(X)
    Xc /= np.sqrt(np.einsum("ij,ij->i", Xc, Xc))[:, None]
    return Xc


_UNIT_R = "correlation of magnitude 1 (duplicated rows?) has no finite z"


def _has_collinear_pair(S: np.ndarray) -> bool:
    """Whether two standardized rows are equal, or one is the negation of the
    other, found in one pass over the rows.

    Each row is scaled by the sign of its first nonzero value (a unit row has
    one) and its -0.0 turned to 0.0, so such pairs become bitwise equal.
    """
    first = S[np.arange(S.shape[0]), np.argmax(S != 0.0, axis=1)]
    canon = S * np.sign(first)[:, None]
    canon += 0.0
    return len({row.tobytes() for row in canon}) < S.shape[0]


# The tiles run in parts (``_parts``) of at least this many pairs. Timed as
# the first summary of a fresh process, as commands run it (a fork costs
# more there than in a warm one), on a 2-vCPU Xeon at 88 arrays, 10 pairs:
# two parts won from 2.0M pairs for r (38 against 30 ms) and 4.5M for z (113
# against 84 ms) while the host ran two GEMMs side by side at full speed,
# and lost up to 18M (186 against 230 ms for r) while it ran them at 60 %.
_CORR_PART_PAIRS = 1 << 21
_TILE = 512  # rows a tile side; fixed, as the tiles set the order of the sums


def _block_records(S: np.ndarray, per_block: Callable[[np.ndarray], tuple], dtype) -> np.ndarray:
    """The ``dtype`` records ``per_block(vals)`` of the inner products
    ``vals`` of each _TILE x _TILE tile of all row pairs, in canonical order.
    A part computes its tiles one after another into one buffer, so ``vals``
    lives, and may be changed in place, only during its call. An error is
    raised at the first faulty tile in order, whichever part meets it."""
    k = S.shape[0]
    # a diagonal tile of one row has no pairs
    tiles = [(bi, bj) for bi in range(0, k, _TILE) for bj in range(bi, k, _TILE)
             if bi != bj or min(_TILE, k - bi) > 1]
    upper = {side: np.triu_indices(side, 1)
             for side in {min(_TILE, k - bi) for bi, bj in tiles if bi == bj}}
    buf = np.empty(min(_TILE, k) ** 2)

    def tile(t: int) -> tuple:
        bi, bj = tiles[t]
        Si = S[bi : bi + _TILE]
        Sj = S[bj : bj + _TILE]
        G = buf[: Si.shape[0] * Sj.shape[0]].reshape(Si.shape[0], Sj.shape[0])
        np.matmul(Si, Sj.T, out=G)
        if bi == bj:
            pairs = G[upper[Si.shape[0]]]
            vals = buf[: pairs.shape[0]]
            vals[:] = pairs
        else:
            vals = buf[: G.size]
        return per_block(vals)

    return _parts._map_in_parts(tile, len(tiles), dtype, k * (k - 1) // 2, _CORR_PART_PAIRS)


def _moments_and_bins(S: np.ndarray, transform: Callable[[np.ndarray], object],
                      zmax: float, bins: int) -> tuple[int, float, float, float, np.ndarray]:
    """Pair count, mean, sd, max|v| and ``bins`` counts over [-zmax, zmax]
    of v = transform(r), taken in place. A tile whose max|v| exceeds zmax
    is not binned."""
    scale = bins / (2.0 * zmax)

    def per_block(vals: np.ndarray) -> tuple:
        transform(vals)
        sums = float(vals.sum()), float(vals @ vals)
        top = max(float(vals.max()), -float(vals.min()))
        counts = np.zeros(bins, dtype=np.int64)
        if top <= zmax:
            _kernels.hist_accumulate(vals, -zmax, scale, counts)
        return vals.shape[0], *sums, top, counts

    records = _block_records(S, per_block, np.dtype([
        ("n", np.int64), ("s1", np.float64), ("s2", np.float64), ("top", np.float64),
        ("counts", np.int64, (bins,))]))
    total = int(records["n"].sum())
    s1 = s2 = 0.0
    for a, b in zip(records["s1"].tolist(), records["s2"].tolist()):
        s1 += a
        s2 += b
    mean = s1 / total
    sd = math.sqrt(max(s2 / total - mean * mean, 0.0))
    return total, mean, sd, max(0.0, float(records["top"].max())), records["counts"].sum(axis=0)


def _check_bins(bins: int) -> None:
    if bins < 1:
        raise ValidationError("bins must be >= 1")


def all_pairs_summary(source, bins: int = DEFAULT_BINS) -> CorrelationSummary:
    """Histogram (fixed range [-1, 1]) plus moments of r over all row pairs.

    ``source`` is an ExpressionMatrix, a DeltaMatrix, or a bare 2-d array.
    """
    _check_bins(bins)
    total, mean, sd, _, counts = _moments_and_bins(
        _standardized_rows(source), lambda r: np.clip(r, -1.0, 1.0, out=r), 1.0, bins)
    return CorrelationSummary(total, mean, sd, Histogram(np.linspace(-1.0, 1.0, bins + 1), counts))


def _extreme_z(lo: float, hi: float) -> float:
    """The larger |arctanh| of the extreme correlations, by the same array
    ufunc that transforms the blocks."""
    return float(np.abs(np.arctanh(np.array([lo, hi]))).max())


def _extremes(r: np.ndarray) -> tuple[float, float]:
    """A tile's smallest and largest r. fmin/fmax skip a NaN, so a tile
    holding one still raises on |r| = 1 as a clipped tile would."""
    lo = float(np.fmin.reduce(r))
    hi = float(np.fmax.reduce(r))
    if lo <= -1.0 or hi >= 1.0:
        raise DomainError(_UNIT_R)
    return lo, hi


def z_summary(source, bins: int = DEFAULT_BINS) -> ZSummary:
    """Fisher z over all row pairs with a symmetric data-driven histogram range.

    theoretical_sd is 1/sqrt(n - 3) for the source's array count n. A pair of
    duplicated rows (|r| = 1) is outside the transform's domain and raises
    DomainError.
    """
    _check_bins(bins)
    n = _row_values(source).shape[1]
    if n < 4:
        raise ValidationError("need at least 4 arrays for a z summary")
    S = _standardized_rows(source)
    if _has_collinear_pair(S):
        raise DomainError(_UNIT_R)
    # pass 1, GEMMs alone: the extreme correlations give the candidate range
    extremes = _block_records(S, _extremes, np.dtype([("lo", float), ("hi", float)]))
    candidate = _extreme_z(min(0.0, extremes["lo"].min()), max(0.0, extremes["hi"].max()))

    def arctanh(z: np.ndarray) -> None:
        np.arctanh(z, out=z)

    # pass 2: arctanh once per value, for the moments, max|z| and the bins
    zmax = candidate or 1.0
    total, mean, sd, observed, counts = _moments_and_bins(S, arctanh, zmax, bins)
    if observed != candidate:  # pass 3 bins every value with the observed range
        zmax = observed or 1.0
        counts = _moments_and_bins(S, arctanh, zmax, bins)[4]
    return ZSummary(total, mean, sd, 1.0 / math.sqrt(n - 3),
                    Histogram(np.linspace(-zmax, zmax, bins + 1), counts))


def histogram_to_csv(hist: Histogram) -> str:
    return csv_text("bin_low,bin_high,count", hist.edges[:-1], hist.edges[1:], hist.counts)


def summary_header_json(summary: CorrelationSummary | ZSummary) -> str:
    if isinstance(summary, ZSummary):
        return json_dumps({
            "pair_count": summary.pair_count,
            "mean": summary.mean_z,
            "sd": summary.sd_z,
            "theoretical_sd": summary.theoretical_sd,
        })
    return json_dumps({
        "pair_count": summary.pair_count,
        "mean": summary.mean_r,
        "sd": summary.sd_r,
        "theoretical_sd": None,
    })
