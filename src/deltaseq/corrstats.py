"""Pairwise correlation summaries and the Fisher variance-stabilizing transform.

all_pairs_summary histograms the Pearson correlation over every unordered row
pair without materializing the full pair list: rows are standardized once and
inner products are taken block by block in a fixed canonical (row-block,
column-block) order.

A one-worker executor computes each block up to two blocks ahead of the
caller: the GEMM, the upper-triangle pick of a diagonal block and an in-place
finish (the clip, or arctanh), written into a ring of three preallocated
``block * block`` buffers. The calling thread does all the accumulation,
histogram, sum and dot product, in canonical order, so every float is added
as in a serial loop. The result is the same bytes on one CPU or many as long
as BLAS runs one thread: OpenBLAS splits a dot product of more than about 10k
values across its threads, which moves the last bits of the sums.

Both summaries bin with ``_kernels.hist_accumulate``, which needs every value
inside its range. z_summary needs its histogram range, max|z|, before it can
bin. Rows that are equal, or one the negation of the other, raise DomainError
first: their |r| is 1 whatever the GEMM kernel rounds it to. A first pass of
GEMMs alone finds the extreme correlations (and raises DomainError on |r| = 1
there too); the larger |arctanh| of the two is the candidate range. The
second pass computes arctanh once per value for the moments, the observed
max|z| and the histogram, binning a block only while the running max|z| is
within the candidate range. Should the observed maximum differ from the
candidate, a third pass bins every value again with the observed range, so
the bytes stay exact even where arctanh is not monotone at an extreme.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateInputError, DomainError, ValidationError
from .mtp import csv_text, json_dumps

DEFAULT_BINS = 50


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped into [-1, 1]: a one-row call of
    the row-correlation kernel the censuses use.

    Requires equal lengths >= 2 and nonzero sample variance on both sides;
    zero variance raises DegenerateInputError.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValidationError("pearson expects 1-d sequences")
    if xa.shape[0] != ya.shape[0]:
        raise ValidationError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise ValidationError("need at least 2 observations")
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
    if not np.isfinite(X).all():
        raise ValidationError("correlations need finite values")
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


_RING = 3  # block buffers: one the caller reads, up to two computed ahead


def _iter_pair_blocks(S: np.ndarray, block: int,
                      finish: Callable[[np.ndarray], object] | None = None) -> Iterator[np.ndarray]:
    """Inner products of all unordered row pairs, yielded block by block in
    canonical (row-block, column-block) order, with ``finish`` applied to
    each block's values in place.

    A one-worker executor computes the blocks into a ring of ``_RING``
    buffers, so each yielded array is valid only until the next one is
    requested. Just before block t is yielded, block t + 2 is queued into the
    buffer of block t - 1, which the caller has released. An exception the
    worker raises is raised here, at its block; on close the queued blocks
    are cancelled and the worker is joined.
    """
    k = S.shape[0]
    # a diagonal block of one row has no pairs
    tiles = [(bi, bj) for bi in range(0, k, block) for bj in range(bi, k, block)
             if bi != bj or min(block, k - bi) > 1]
    side = min(block, k)
    ring = [np.empty(side * side) for _ in range(_RING)]
    # imported here: with logging it adds 6-9 ms to every command's start
    from concurrent.futures import ThreadPoolExecutor

    def compute(t: int) -> np.ndarray:
        bi, bj = tiles[t]
        Si = S[bi : bi + block]
        Sj = S[bj : bj + block]
        buf = ring[t % _RING]
        G = buf[: Si.shape[0] * Sj.shape[0]].reshape(Si.shape[0], Sj.shape[0])
        np.matmul(Si, Sj.T, out=G)
        if bi == bj:
            upper = G[np.triu_indices(G.shape[0], 1)]
            vals = buf[: upper.shape[0]]
            vals[:] = upper
        else:
            vals = buf[: G.size]
        if finish is not None:
            finish(vals)
        return vals

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="deltaseq-pair-blocks") as pool:
        ahead = _RING - 1
        futures = [pool.submit(compute, t) for t in range(min(ahead, len(tiles)))]
        try:
            for t in range(len(tiles)):
                if t + ahead < len(tiles):
                    futures.append(pool.submit(compute, t + ahead))
                yield futures[t].result()
        finally:
            for future in futures:
                future.cancel()


def _clip(vals: np.ndarray) -> None:
    np.clip(vals, -1.0, 1.0, out=vals)


def _arctanh(vals: np.ndarray) -> None:
    np.arctanh(vals, out=vals)


def all_pairs_summary(source, bins: int = DEFAULT_BINS, block: int = 512) -> CorrelationSummary:
    """Histogram (fixed range [-1, 1]) plus moments of r over all row pairs.

    ``source`` is an ExpressionMatrix, a DeltaMatrix, or a bare 2-d array.
    """
    if bins < 1:
        raise ValidationError("bins must be >= 1")
    S = _standardized_rows(source)
    counts = np.zeros(bins, dtype=np.int64)
    total = 0
    s1 = 0.0
    s2 = 0.0
    with closing(_iter_pair_blocks(S, block, _clip)) as blocks:
        for vals in blocks:
            total += vals.shape[0]
            s1 += float(vals.sum())
            s2 += float(vals @ vals)
            _kernels.hist_accumulate(vals, -1.0, bins / 2, counts)
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    return CorrelationSummary(total, mean, math.sqrt(var), Histogram(edges, counts))


def _extreme_z(lo: float, hi: float) -> float:
    """The larger |arctanh| of the extreme correlations, by the same array
    ufunc that transforms the blocks."""
    return float(np.abs(np.arctanh(np.array([lo, hi]))).max())


def z_summary(source, bins: int = DEFAULT_BINS, block: int = 512) -> ZSummary:
    """Fisher z over all row pairs with a symmetric data-driven histogram range.

    theoretical_sd is 1/sqrt(n - 3) for the source's array count n. A pair of
    duplicated rows (|r| = 1) is outside the transform's domain and raises
    DomainError.
    """
    if bins < 1:
        raise ValidationError("bins must be >= 1")
    n = _row_values(source).shape[1]
    if n < 4:
        raise ValidationError("need at least 4 arrays for a z summary")
    S = _standardized_rows(source)
    if _has_collinear_pair(S):
        raise DomainError(_UNIT_R)

    # pass 1, GEMMs alone: the extreme correlations. fmin/fmax skip a NaN,
    # so a block holding one still raises on |r| = 1 as a clipped block would.
    lo = 0.0
    hi = 0.0
    with closing(_iter_pair_blocks(S, block)) as blocks:
        for r in blocks:
            rmin = float(np.fmin.reduce(r))
            rmax = float(np.fmax.reduce(r))
            if rmin <= -1.0 or rmax >= 1.0:
                raise DomainError(_UNIT_R)
            lo = min(lo, rmin)
            hi = max(hi, rmax)
    candidate = _extreme_z(lo, hi)

    def bin_range(zmax: float) -> tuple[float, float]:
        zmax = zmax or 1.0
        return zmax, bins / (2.0 * zmax)

    # pass 2: arctanh once per value, for the moments, max|z| and the bins
    zmax, scale = bin_range(candidate)
    counts = np.zeros(bins, dtype=np.int64)
    total = 0
    s1 = 0.0
    s2 = 0.0
    observed = 0.0
    with closing(_iter_pair_blocks(S, block, _arctanh)) as blocks:
        for z in blocks:
            total += z.shape[0]
            s1 += float(z.sum())
            s2 += float(z @ z)
            observed = max(observed, float(z.max()), -float(z.min()))
            if observed <= candidate:  # else the third pass bins every value
                _kernels.hist_accumulate(z, -zmax, scale, counts)
    if observed != candidate:
        zmax, scale = bin_range(observed)
        counts[:] = 0
        with closing(_iter_pair_blocks(S, block, _arctanh)) as blocks:
            for z in blocks:
                _kernels.hist_accumulate(z, -zmax, scale, counts)
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    edges = np.linspace(-zmax, zmax, bins + 1)
    return ZSummary(total, mean, math.sqrt(var), 1.0 / math.sqrt(n - 3), Histogram(edges, counts))


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
