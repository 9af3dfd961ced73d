"""Tests for multiplicative-factor (type A) dependence between genes.

On a log scale the model y = x + z with z independent of x implies
Cov(x, y - x) = 0 with Var(x) <= Var(y), so the lower-variance member of a
pair is treated as the driver and the test statistic is the correlation
between the driver and the increment. For an ascending-variance triple
(u, v, w) with both adjacent pairs of this form, Cov(u, w - v) equals
-Cov(v - u, w - v), so a positive association between the root and the later
increment shows up as a negative covariance between consecutive increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .corrstats import _centred, _corr_centred, _effectively_constant
from .datamodel import ExpressionMatrix
from .errors import (DegenerateInputError, ResourceError, ValidationError, _check_alpha, _check_finite,
                     _check_positive)
from .mtp import csv_text

_erfc = np.vectorize(math.erfc, otypes=[np.float64])
TRIPLE_MODES = ("type_a_only", "any")  # triple_census's admission rules, its default first


def _fisher_pvalues(r: np.ndarray, n: int) -> np.ndarray:
    """Two-sided p-value for r under the null of zero correlation, using the
    normal reference for atanh(r) with sd 1/sqrt(n-3)."""
    with np.errstate(divide="ignore"):
        z = np.arctanh(np.clip(r, -1.0, 1.0))
    return _erfc(np.abs(z) * math.sqrt((n - 3) / 2.0))


def _increment_corr(drv: np.ndarray, drv_constant: np.ndarray, inc: np.ndarray,
                    inc_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Driver/increment correlation of a block of rows, given the centred
    increments, and which rows are degenerate: driver or increment
    effectively constant. Each row's result depends on that row alone."""
    degenerate = _effectively_constant(inc) | drv_constant
    return _corr_centred(_centred(drv), inc_c), degenerate


def _drivers_first(var: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Each row index pair with its lower-variance row first, the driver; a
    tie keeps the pair's order."""
    return np.where((var[pairs[:, 1]] < var[pairs[:, 0]])[:, None], pairs[:, ::-1], pairs)


def _type_a_rows(values: np.ndarray, pairs: np.ndarray,
                 ids: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Driver/increment correlation and degenerate flag of each (driver,
    modulator) row pair of ``values``; a pair of constant rows raises
    DegenerateInputError naming them by ``ids``."""
    lo, hi = pairs.T
    drv = values[lo]
    mod = values[hi]
    drv_constant = _effectively_constant(drv)
    both_const = drv_constant & _effectively_constant(mod)
    if both_const.any():
        k = int(np.argmax(both_const))
        raise DegenerateInputError(
            f"genes {ids[int(lo[k])]!r} and {ids[int(hi[k])]!r} are both constant")
    inc = mod - drv
    return _increment_corr(drv, drv_constant, inc, _centred(inc))


def _type_a_outcome(r: np.ndarray, degenerate: np.ndarray, n: int, alpha: float):
    """(statistic, p, is_type_a) from a whole vector of driver/increment
    correlations, in one p-value call: a vectorized transcendental may round
    by position in its array, so the vector is never split. A degenerate row
    satisfies the zero-covariance condition trivially: statistic 0, p 1,
    classified type A.
    """
    p = _fisher_pvalues(r, n)
    r = np.where(degenerate, 0.0, r)
    p = np.where(degenerate, 1.0, p)
    return r, p, p > alpha


@dataclass(frozen=True)
class TypeAResult:
    driver: int
    modulator: int
    statistic: float
    p_value: float
    is_type_a: bool
    n: int


def _checked_rows(*rows: Sequence[float]) -> np.ndarray:
    """The scalar tests' rows stacked as float64, refused with
    ValidationError unless of one length, at least 4, and finite."""
    rows = [np.asarray(r, dtype=np.float64).ravel() for r in rows]
    if len({r.shape for r in rows}) != 1:
        raise ValidationError("rows must have equal length")
    if rows[0].shape[0] < 4:
        raise ValidationError("need at least 4 observations")
    _check_finite("rows", *rows)
    return np.vstack(rows)


def type_a_test(x: Sequence[float], y: Sequence[float], alpha: float = 0.05,
                ids: tuple[int, int] = (0, 1)) -> TypeAResult:
    """Classify a gene pair; the lower-variance row becomes the driver.

    ``is_type_a`` is True when the driver/increment correlation is NOT
    significant at ``alpha`` (failing to reject the zero-covariance
    condition). Both rows constant is a degenerate input. The pair is one
    row of ``type_a_census``'s kernel, with the census's bits.
    """
    # rows stacked by ascending id, so a variance tie falls to the smaller id
    if ids[0] > ids[1]:
        x, y, ids = y, x, ids[::-1]
    rows = _checked_rows(x, y)
    n = rows.shape[1]
    _check_alpha(alpha)
    pair = _drivers_first(_kernels.row_variances(rows), np.array([[0, 1]]))
    r, degenerate = _type_a_rows(rows, pair, ids)
    r, p, ok = _type_a_outcome(r, degenerate, n, alpha)
    did, mid = (ids[k] for k in pair[0])
    return TypeAResult(did, mid, float(r[0]), float(p[0]), bool(ok[0]), n)


# ---------------------------------------------------------------------------
# Seeded censuses over random pairs / triples without replacement.
# ---------------------------------------------------------------------------


def _draw_distinct_tuples(rng: np.random.Generator, m: int, size: int, want: int,
                          seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``want`` sorted index tuples with no index twice and none among
    ``seen``, the ascending codes of the tuples drawn before.

    Returns the tuples as int64 rows in draw order, and ``seen`` with their
    codes added. A tuple's code reads its sorted indices as the digits of a
    base-``m`` number, so codes order as their tuples do. Each batch of draws
    keeps the first occurrence of each new code, and the batch is cut where
    ``want`` is reached; rows past the cut are not seen.
    """
    if m ** size >= 2 ** 63:
        raise ValidationError(f"{size}-tuples of {m} genes have codes beyond int64")
    chunks = [np.empty((0, size), dtype=np.int64)]
    got = 0
    while got < want:
        draw = np.sort(rng.integers(0, m, size=(max(32, 2 * (want - got)), size)), axis=1)
        codes = draw[:, 0]
        for k in range(1, size):
            codes = codes * m + draw[:, k]
        rows = np.flatnonzero((draw[:, 1:] != draw[:, :-1]).all(axis=1))
        new, first = np.unique(codes[rows], return_index=True)
        if seen.shape[0]:
            at = np.minimum(np.searchsorted(seen, new), seen.shape[0] - 1)
            first = first[seen[at] != new]
        rows = np.sort(rows[first])[: want - got]
        chunks.append(draw[rows])
        new = np.sort(codes[rows])
        seen = np.insert(seen, np.searchsorted(seen, new), new)
        got += rows.shape[0]
    return np.concatenate(chunks), seen


@dataclass(frozen=True)
class PairCensus:
    fraction: float
    pairs: np.ndarray
    statistics: np.ndarray
    p_values: np.ndarray
    is_type_a: np.ndarray
    alpha: float
    seed: int


def type_a_census(matrix: ExpressionMatrix, n_pairs: int, alpha: float = 0.05,
                  seed: int = 0) -> PairCensus:
    """Fraction of randomly sampled gene pairs classified type A.

    Pairs are drawn uniformly without replacement; the draw order is fixed by
    the seed, so the census is reproducible. Memory beyond the matrix is
    O(n_pairs) for the draws and outputs, and one block's rows
    (``_kernels.row_blocks``).
    """
    m = matrix.n_genes
    total = m * (m - 1) // 2
    if not (1 <= n_pairs <= total):
        raise ValidationError(f"n_pairs must lie in [1, {total}], got {n_pairs}")
    _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    idx, _ = _draw_distinct_tuples(rng, m, 2, n_pairs, np.empty(0, dtype=np.int64))

    values = matrix.values
    # the draws are ascending, so a variance tie falls to the lower index
    pairs = _drivers_first(_kernels.row_variances(values), idx)
    r = np.empty(n_pairs)
    degenerate = np.empty(n_pairs, dtype=bool)
    for rows in _kernels.row_blocks(n_pairs):
        r[rows], degenerate[rows] = _type_a_rows(values, pairs[rows], matrix.gene_ids)
    r, p, ok = _type_a_outcome(r, degenerate, matrix.n_arrays, alpha)
    return PairCensus(float(ok.mean()), pairs, r, p, ok, alpha, seed)


# ---------------------------------------------------------------------------
# Ordered triples.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripleStats:
    """Increment statistics for one ascending-variance triple."""

    ids: tuple[int, int, int]
    z1: np.ndarray
    z2: np.ndarray
    cov_z1_z2: float
    sigma_u: float
    sigma_v: float
    sigma_w: float
    rho_uv: float
    rho_vw: float
    degenerate: bool


def _triple_rows(values: np.ndarray, triples: np.ndarray):
    """(r1, deg1, r2, deg2, cov) of each ascending-variance (u, v, w) row
    triple: ``_increment_corr`` of the pairs (u, v) and (v, w), and the
    sample covariance of the increments z1 = v - u and z2 = w - v."""
    U, V, W = (values[col] for col in triples.T)
    z1 = V - U
    z2 = W - V
    z1c = _centred(z1)
    z2c = _centred(z2)
    r1, deg1 = _increment_corr(U, _effectively_constant(U), z1, z1c)
    r2, deg2 = _increment_corr(V, _effectively_constant(V), z2, z2c)
    cov = np.einsum("ij,ij->i", z1c, z2c) / (values.shape[1] - 1)
    return r1, deg1, r2, deg2, cov


def triple_stats(u: Sequence[float], v: Sequence[float], w: Sequence[float],
                 ids: tuple[int, int, int] = (0, 1, 2)) -> TripleStats:
    """Order three rows by ascending sample variance and report the statistics
    of the two consecutive increments.

    The triple is one row of ``triple_census``'s kernel, with the census's
    bits, and is degenerate when either adjacent pair is (a row or increment
    constant up to rounding); the covariance is still returned. ``rho_uv``
    and ``rho_vw`` are NaN when a row has zero variance.
    """
    rows = _checked_rows(u, v, w)
    var = _kernels.row_variances(rows)
    order = np.argsort(var, kind="stable")
    _, deg1, _, deg2, cov = _triple_rows(rows, order[None, :])
    rows = rows[order]
    sig = np.sqrt(var[order])
    rho_uv, rho_vw = _corr_centred(_centred(rows[:2]), _centred(rows[1:])).tolist()
    return TripleStats(tuple(int(ids[k]) for k in order), rows[1] - rows[0], rows[2] - rows[1],
                       float(cov[0]), *sig.tolist(), rho_uv, rho_vw, bool(deg1[0] | deg2[0]))


@dataclass(frozen=True)
class TripleCensus:
    fraction_negative: float
    triples: np.ndarray
    cov_z1_z2: np.ndarray
    pair_p_values: np.ndarray
    mode: str
    alpha: float
    seed: int
    attempts: int


def triple_census(matrix: ExpressionMatrix, n_triples: int, mode: str = TRIPLE_MODES[0],
                  alpha: float = 0.05, seed: int = 0,
                  max_attempt_factor: int = 50) -> TripleCensus:
    """Fraction of sampled ascending-variance triples whose consecutive
    increments have negative sample covariance.

    mode "type_a_only" keeps a triple only when both adjacent pairs pass the
    type A test at ``alpha``; candidates are drawn without replacement until
    ``n_triples`` qualify or the attempt budget (max_attempt_factor times the
    request) is exhausted, which raises ResourceError naming the count found.
    mode "any" keeps every sampled triple. Memory beyond the matrix is
    O(n_triples) for the draws, the seen codes and the outputs, and one
    block's rows (``_kernels.row_blocks``).
    """
    if mode not in TRIPLE_MODES:
        raise ValidationError(f"mode must be one of {TRIPLE_MODES}, got {mode!r}")
    m = matrix.n_genes
    total = m * (m - 1) * (m - 2) // 6
    if not (1 <= n_triples <= total):
        raise ValidationError(f"n_triples must lie in [1, {total}], got {n_triples}")
    _check_alpha(alpha)

    rng = np.random.default_rng(seed)
    values = matrix.values
    n = matrix.n_arrays
    var_all = _kernels.row_variances(values)
    budget = max_attempt_factor * n_triples if mode == "type_a_only" else n_triples
    budget = min(budget, total)

    seen = np.empty(0, dtype=np.int64)
    kept_ids: list[np.ndarray] = []
    kept_cov: list[np.ndarray] = []
    kept_p: list[np.ndarray] = []
    kept = 0
    attempts = 0
    while kept < n_triples and attempts < budget:
        want = min(budget - attempts, max(64, 2 * (n_triples - kept)))
        ids, seen = _draw_distinct_tuples(rng, m, 3, want, seen)
        attempts += want
        ordv = np.argsort(var_all[ids], axis=1, kind="stable")
        ids = np.take_along_axis(ids, ordv, axis=1)
        r1, r2, cov = np.empty(want), np.empty(want), np.empty(want)
        deg1, deg2 = np.empty(want, dtype=bool), np.empty(want, dtype=bool)
        for rows in _kernels.row_blocks(want):
            r1[rows], deg1[rows], r2[rows], deg2[rows], cov[rows] = _triple_rows(values, ids[rows])
        _, p1, ok1 = _type_a_outcome(r1, deg1, n, alpha)
        _, p2, ok2 = _type_a_outcome(r2, deg2, n, alpha)
        keep = np.flatnonzero(ok1 & ok2) if mode == "type_a_only" else np.arange(want)
        keep = keep[: n_triples - kept]
        kept_ids.append(ids[keep])
        kept_cov.append(cov[keep])
        kept_p.append(np.stack([p1[keep], p2[keep]], axis=1))
        kept += keep.shape[0]

    if kept < n_triples:
        raise ResourceError(
            f"triple census attempt budget exhausted after {attempts} candidates: "
            f"found {kept} of {n_triples} qualifying triples"
        )
    covs = np.concatenate(kept_cov)
    return TripleCensus(
        float((covs < 0.0).mean()),
        np.concatenate(kept_ids),
        covs,
        np.concatenate(kept_p),
        mode,
        alpha,
        seed,
        attempts,
    )


# ---------------------------------------------------------------------------
# The sufficient condition for a positive increment correlation, as a
# closed-form threshold on rho(v, w), and its covariance-model check.
# ---------------------------------------------------------------------------


def _check_sigmas(sigma_u: float, sigma_v: float, sigma_w: float) -> None:
    if not (0.0 < sigma_u <= sigma_v <= sigma_w) or not math.isfinite(sigma_w):
        raise ValidationError(
            f"need 0 < sigma_u <= sigma_v <= sigma_w, got ({sigma_u}, {sigma_v}, {sigma_w})"
        )


def positive_increment_threshold(sigma_u: float, sigma_v: float, sigma_w: float) -> float:
    """The paper's printed lower bound on rho(v, w), meant to make the
    consecutive increments of the ascending-variance triple correlate
    positively. Requires 0 < sigma_u <= sigma_v <= sigma_w.

    It is not sufficient once rho(u, v) and rho(u, w) range freely: where it
    lies below ``sharp_positive_increment_threshold``, the sound and sharp
    bound, a rho(v, w) between the two with u a positive multiple of w - v
    is a valid structure whose increments do not correlate positively.
    """
    _check_sigmas(sigma_u, sigma_v, sigma_w)
    return 1.0 - 0.5 * (1.0 - sigma_v / sigma_w) ** 2 * (1.0 - sigma_v / sigma_u) ** 2


def sharp_positive_increment_threshold(sigma_u: float, sigma_v: float, sigma_w: float) -> float:
    """The smallest rho* such that rho(v, w) > rho* makes Cov(v - u, w - v)
    positive whatever rho(u, v) and rho(u, w) are. Requires
    0 < sigma_u <= sigma_v <= sigma_w.

    By Cauchy-Schwarz, Cov(v - u, w - v) = Cov(v, w - v) - Cov(u, w - v)
    >= rho sigma_v sigma_w - sigma_v^2 - sigma_u sd(w - v), with equality
    when u is a positive multiple of w - v, so the bound is attained. The
    right side is positive exactly when
    rho > (sigma_v^2 - sigma_u^2 + sigma_u sqrt(sigma_u^2 + sigma_w^2 - sigma_v^2))
    / (sigma_v sigma_w), which is 1 when sigma_v = sigma_w or sigma_u = sigma_v.
    """
    _check_sigmas(sigma_u, sigma_v, sigma_w)
    su2, sv2, sw2 = sigma_u * sigma_u, sigma_v * sigma_v, sigma_w * sigma_w
    return (sv2 - su2 + sigma_u * math.sqrt(su2 + sw2 - sv2)) / (sigma_v * sigma_w)


@dataclass(frozen=True)
class TripleCovarianceModel:
    """Second-moment model of a type A triple: root u and increments a, b
    with Cov(u, a) = 0, Cov(a, b) = cov_ab, Cov(u, b) = -cov_ab."""

    var_u: float
    var_a: float
    var_b: float
    cov_ab: float

    def __post_init__(self) -> None:
        for name in ("var_u", "var_a", "var_b"):
            _check_positive(name, getattr(self, name))
        if not math.isfinite(self.cov_ab):
            raise ValidationError("cov_ab must be finite")

    def matrix(self) -> np.ndarray:
        c = self.cov_ab
        return np.array([
            [self.var_u, 0.0, -c],
            [0.0, self.var_a, c],
            [-c, c, self.var_b],
        ])


def type_a_triple_consistency(model: TripleCovarianceModel) -> bool:
    """True iff the model's covariance matrix is positive semidefinite, i.e.
    some joint distribution realizes it.

    Decided exactly from the principal minors, in ``Fraction``: every float
    is a rational. The variances are positive, and a determinant
    vu va vb - (vu + va) c^2 >= 0 puts c^2 below vu vb and va vb, the 2 x 2
    minors' other terms, so the determinant alone decides.
    """
    vu, va, vb, c = map(Fraction, (model.var_u, model.var_a, model.var_b, model.cov_ab))
    return vu * va * vb - (vu + va) * c * c >= 0


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _id_columns(ids: Sequence[str], index: np.ndarray) -> list[list[str]]:
    """The gene ids named by each column of an index table."""
    return [[ids[i] for i in col] for col in index.T.tolist()]


def pair_census_to_csv(census: PairCensus, matrix: ExpressionMatrix) -> str:
    return csv_text("id1,id2,statistic,p_value,flag",
                    *_id_columns(matrix.gene_ids, census.pairs),
                    census.statistics, census.p_values, census.is_type_a)


def triple_census_to_csv(census: TripleCensus, matrix: ExpressionMatrix) -> str:
    p1, p2 = census.pair_p_values.T
    cov = census.cov_z1_z2
    # min(p1, p2) as Python's min picks it: p1 unless p2 is smaller
    return csv_text("id1,id2,id3,statistic,p_value,flag",
                    *_id_columns(matrix.gene_ids, census.triples),
                    cov, np.where(p2 < p1, p2, p1), cov < 0.0)
