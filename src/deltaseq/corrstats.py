"""Pairwise correlation summaries and the Fisher variance-stabilizing transform.

all_pairs_summary histograms the Pearson correlation over every unordered row
pair without materializing the full pair list: rows are standardized once and
inner products are taken block by block in a fixed canonical order, so the
result is identical regardless of how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateInputError, DomainError, ValidationError
from .mtp import json_dumps

DEFAULT_BINS = 50


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped into [-1, 1].

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
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("zero sample variance")
    r = float(xc @ yc) / (sx * sy)
    return min(1.0, max(-1.0, r))


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

    def rows(self) -> Iterator[tuple[float, float, int]]:
        for k in range(self.counts.shape[0]):
            yield float(self.edges[k]), float(self.edges[k + 1]), int(self.counts[k])


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


def _standardized_rows(source, rows: Sequence[int] | None) -> np.ndarray:
    """Rows centered and scaled to unit Euclidean norm, so correlations are
    plain inner products."""
    values = _row_values(source)
    if rows is None:
        sel = np.arange(values.shape[0])
    else:
        sel = np.asarray(list(rows), dtype=np.int64)
        if sel.size != np.unique(sel).size:
            raise ValidationError("row subset must be distinct")
        if sel.size and (sel.min() < 0 or sel.max() >= values.shape[0]):
            raise ValidationError("row subset out of range")
    if sel.size < 2:
        raise ValidationError("need at least 2 rows for pairwise correlations")
    X = values[sel]
    Xc = X - X.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", Xc, Xc))
    if (norms == 0.0).any():
        bad = int(sel[int(np.argmax(norms == 0.0))])
        ids = getattr(source, "gene_ids", None) or getattr(source, "row_ids", None)
        name = ids[bad] if ids is not None else str(bad)
        raise DegenerateInputError(f"row {name!r} has zero variance")
    return Xc / norms[:, None]


def _iter_pair_blocks(S: np.ndarray, block: int) -> Iterator[np.ndarray]:
    """Clamped correlation values for all unordered pairs, yielded block by
    block in canonical (row-block, column-block) order."""
    k = S.shape[0]
    for bi in range(0, k, block):
        Si = S[bi : bi + block]
        for bj in range(bi, k, block):
            G = Si @ S[bj : bj + block].T
            if bi == bj:
                iu = np.triu_indices(G.shape[0], 1)
                vals = G[iu]
            else:
                vals = G.ravel()
            np.clip(vals, -1.0, 1.0, out=vals)
            yield vals


def all_pairs_summary(source, rows: Sequence[int] | None = None, bins: int = DEFAULT_BINS,
                      block: int = 512) -> CorrelationSummary:
    """Histogram (fixed range [-1, 1]) plus moments of r over all row pairs.

    ``source`` is an ExpressionMatrix, a DeltaMatrix, or a bare 2-d array;
    ``rows`` optionally restricts to a distinct index subset.
    """
    if bins < 1:
        raise ValidationError("bins must be >= 1")
    S = _standardized_rows(source, rows)
    counts = np.zeros(bins, dtype=np.int64)
    scale = bins / 2.0
    total = 0
    s1 = 0.0
    s2 = 0.0
    for vals in _iter_pair_blocks(S, block):
        _kernels.hist_accumulate(vals, -1.0, scale, counts)
        total += vals.shape[0]
        s1 += float(vals.sum())
        s2 += float(vals @ vals)
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    return CorrelationSummary(total, mean, math.sqrt(var), Histogram(edges, counts))


def z_summary(source, rows: Sequence[int] | None = None, bins: int = DEFAULT_BINS,
              block: int = 512) -> ZSummary:
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
    S = _standardized_rows(source, rows)

    def z_blocks() -> Iterator[np.ndarray]:
        for vals in _iter_pair_blocks(S, block):
            if (np.abs(vals) == 1.0).any():
                raise DomainError("correlation of magnitude 1 (duplicated rows?) has no finite z")
            yield np.arctanh(vals)

    total = 0
    s1 = 0.0
    s2 = 0.0
    zmax = 0.0
    for z in z_blocks():
        total += z.shape[0]
        s1 += float(z.sum())
        s2 += float(z @ z)
        zmax = max(zmax, float(np.abs(z).max()))
    if zmax == 0.0:
        zmax = 1.0
    counts = np.zeros(bins, dtype=np.int64)
    scale = bins / (2.0 * zmax)
    for z in z_blocks():
        _kernels.hist_accumulate(z, -zmax, scale, counts)
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    edges = np.linspace(-zmax, zmax, bins + 1)
    return ZSummary(total, mean, math.sqrt(var), 1.0 / math.sqrt(n - 3), Histogram(edges, counts))


def histogram_to_csv(hist: Histogram) -> str:
    lines = ["bin_low,bin_high,count"]
    for lo, hi, c in hist.rows():
        lines.append(f"{lo!r},{hi!r},{c}")
    return "\n".join(lines) + "\n"


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
