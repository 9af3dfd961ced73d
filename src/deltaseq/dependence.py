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
from typing import Sequence

import numpy as np

from .corrstats import pearson
from .datamodel import ExpressionMatrix
from .errors import DegenerateInputError, ResourceError, ValidationError
from .mtp import csv_text

_CONST_TOL = 64.0 * np.finfo(np.float64).eps
_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def _effectively_constant(rows: np.ndarray) -> np.ndarray:
    """True per row when the spread is within float rounding of zero.

    Catches rows like y - x for y = x + c, whose exact difference is constant
    but whose float image wobbles by a few ulp.
    """
    rows = np.atleast_2d(rows)
    spread = rows.max(axis=1) - rows.min(axis=1)
    scale = np.maximum(1.0, np.abs(rows).max(axis=1))
    return spread <= _CONST_TOL * scale


def _fisher_pvalues(r: np.ndarray, n: int) -> np.ndarray:
    """Two-sided p-value for r under the null of zero correlation, using the
    normal reference for atanh(r) with sd 1/sqrt(n-3)."""
    with np.errstate(divide="ignore"):
        z = np.arctanh(np.clip(r, -1.0, 1.0))
    return _erfc(np.abs(z) * math.sqrt((n - 3) / 2.0))


def _corr_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise Pearson correlation of two stacks of rows, clamped."""
    Xc = X - X.mean(axis=1, keepdims=True)
    Yc = Y - Y.mean(axis=1, keepdims=True)
    sx = np.sqrt(np.einsum("ij,ij->i", Xc, Xc))
    sy = np.sqrt(np.einsum("ij,ij->i", Yc, Yc))
    denom = sx * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.einsum("ij,ij->i", Xc, Yc) / denom
    r[denom == 0.0] = 0.0
    return np.clip(r, -1.0, 1.0)


def _type_a_batch(drv: np.ndarray, mod: np.ndarray, n: int, alpha: float):
    """Vectorized driver/increment test.

    Returns (statistic, p, is_type_a, degenerate). A degenerate row (driver
    or increment effectively constant) satisfies the zero-covariance
    condition trivially: statistic 0, p 1, classified type A.
    """
    inc = mod - drv
    degenerate = _effectively_constant(inc) | _effectively_constant(drv)
    r = _corr_rows(drv, inc)
    p = _fisher_pvalues(r, n)
    r = np.where(degenerate, 0.0, r)
    p = np.where(degenerate, 1.0, p)
    return r, p, p > alpha, degenerate


@dataclass(frozen=True)
class TypeAResult:
    driver: int
    modulator: int
    statistic: float
    p_value: float
    is_type_a: bool
    n: int


def type_a_test(x: Sequence[float], y: Sequence[float], alpha: float = 0.05,
                ids: tuple[int, int] = (0, 1)) -> TypeAResult:
    """Classify a gene pair; the lower-variance row becomes the driver.

    ``is_type_a`` is True when the driver/increment correlation is NOT
    significant at ``alpha`` (failing to reject the zero-covariance
    condition). Both rows constant is a degenerate input.
    """
    xa = np.asarray(x, dtype=np.float64).ravel()
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.shape != ya.shape:
        raise ValidationError("rows must have equal length")
    n = xa.shape[0]
    if n < 4:
        raise ValidationError("need at least 4 observations")
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    cx = bool(_effectively_constant(xa)[0])
    cy = bool(_effectively_constant(ya)[0])
    if cx and cy:
        raise DegenerateInputError("both rows are constant")
    vx = float(xa.var(ddof=1))
    vy = float(ya.var(ddof=1))
    if vx < vy or (vx == vy and ids[0] <= ids[1]):
        drv, mod = xa, ya
        did, mid = ids
    else:
        drv, mod = ya, xa
        did, mid = ids[1], ids[0]
    r, p, ok, _ = _type_a_batch(drv[None, :], mod[None, :], n, alpha)
    return TypeAResult(did, mid, float(r[0]), float(p[0]), bool(ok[0]), n)


# ---------------------------------------------------------------------------
# Seeded censuses over random pairs / triples without replacement.
# ---------------------------------------------------------------------------


def _draw_distinct_tuples(rng: np.random.Generator, m: int, size: int, want: int,
                          seen: set) -> list[tuple[int, ...]]:
    """Draw up to ``want`` previously unseen sorted index tuples."""
    out: list[tuple[int, ...]] = []
    while len(out) < want:
        draw = rng.integers(0, m, size=(max(32, 2 * (want - len(out))), size))
        for row in draw:
            key = tuple(sorted(int(v) for v in row))
            if len(set(key)) != size or key in seen:
                continue
            seen.add(key)
            out.append(key)
            if len(out) == want:
                break
    return out


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
    the seed, so the census is reproducible.
    """
    m = matrix.n_genes
    total = m * (m - 1) // 2
    if not (1 <= n_pairs <= total):
        raise ValidationError(f"n_pairs must lie in [1, {total}], got {n_pairs}")
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    rng = np.random.default_rng(seed)
    drawn = _draw_distinct_tuples(rng, m, 2, n_pairs, set())
    idx = np.asarray(drawn, dtype=np.int64)

    values = matrix.values
    var = values.var(axis=1, ddof=1)
    lo = idx[:, 0].copy()
    hi = idx[:, 1].copy()
    # Driver is the lower-variance gene; ties fall to the lower index.
    swap = var[hi] < var[lo]
    lo[swap], hi[swap] = idx[swap, 1], idx[swap, 0]
    drv = values[lo]
    mod = values[hi]
    both_const = _effectively_constant(drv) & _effectively_constant(mod)
    if both_const.any():
        k = int(np.argmax(both_const))
        raise DegenerateInputError(
            f"genes {matrix.gene_ids[int(lo[k])]!r} and {matrix.gene_ids[int(hi[k])]!r} are both constant"
        )
    r, p, ok, _ = _type_a_batch(drv, mod, matrix.n_arrays, alpha)
    pairs = np.stack([lo, hi], axis=1)
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
    threshold: float
    degenerate: bool


def _sample_cov(a: np.ndarray, b: np.ndarray) -> float:
    n = a.shape[0]
    return float((a - a.mean()) @ (b - b.mean())) / (n - 1)


def triple_stats(u: Sequence[float], v: Sequence[float], w: Sequence[float],
                 ids: tuple[int, int, int] = (0, 1, 2)) -> TripleStats:
    """Order three rows by ascending sample variance and report the statistics
    of the two consecutive increments.

    Identical rows make the triple degenerate; the covariance is still
    returned. The threshold field is the sufficient lower bound on rho(v, w)
    for a positive increment correlation, NaN when any sigma is zero.
    """
    rows = np.vstack([np.asarray(r, dtype=np.float64).ravel() for r in (u, v, w)])
    if rows.shape[1] < 4:
        raise ValidationError("need at least 4 observations")
    var = rows.var(axis=1, ddof=1)
    order = np.argsort(var, kind="stable")
    rows = rows[order]
    var = var[order]
    oid = tuple(int(ids[k]) for k in order)
    z1 = rows[1] - rows[0]
    z2 = rows[2] - rows[1]
    cov = _sample_cov(z1, z2)
    sig = np.sqrt(var)
    degenerate = bool(
        np.array_equal(rows[0], rows[1])
        or np.array_equal(rows[1], rows[2])
        or np.array_equal(rows[0], rows[2])
        or (sig == 0.0).any()
    )

    def _safe_r(a, b):
        try:
            return pearson(a, b)
        except DegenerateInputError:
            return math.nan

    rho_uv = _safe_r(rows[0], rows[1])
    rho_vw = _safe_r(rows[1], rows[2])
    thr = (
        positive_increment_threshold(float(sig[0]), float(sig[1]), float(sig[2]))
        if (sig > 0.0).all()
        else math.nan
    )
    return TripleStats(oid, z1, z2, cov, float(sig[0]), float(sig[1]), float(sig[2]),
                       rho_uv, rho_vw, thr, degenerate)


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


def triple_census(matrix: ExpressionMatrix, n_triples: int, mode: str = "type_a_only",
                  alpha: float = 0.05, seed: int = 0,
                  max_attempt_factor: int = 50) -> TripleCensus:
    """Fraction of sampled ascending-variance triples whose consecutive
    increments have negative sample covariance.

    mode "type_a_only" keeps a triple only when both adjacent pairs pass the
    type A test at ``alpha``; candidates are drawn without replacement until
    ``n_triples`` qualify or the attempt budget (max_attempt_factor times the
    request) is exhausted, which raises ResourceError naming the count found.
    mode "any" keeps every sampled triple.
    """
    if mode not in ("type_a_only", "any"):
        raise ValidationError(f"mode must be 'type_a_only' or 'any', got {mode!r}")
    m = matrix.n_genes
    total = m * (m - 1) * (m - 2) // 6
    if not (1 <= n_triples <= total):
        raise ValidationError(f"n_triples must lie in [1, {total}], got {n_triples}")
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")

    rng = np.random.default_rng(seed)
    values = matrix.values
    n = matrix.n_arrays
    var_all = values.var(axis=1, ddof=1)
    budget = max_attempt_factor * n_triples if mode == "type_a_only" else n_triples
    budget = min(budget, total)

    seen: set = set()
    kept_ids: list[tuple[int, int, int]] = []
    kept_cov: list[float] = []
    kept_p: list[tuple[float, float]] = []
    attempts = 0
    while len(kept_ids) < n_triples and attempts < budget:
        want = min(budget - attempts, max(64, 2 * (n_triples - len(kept_ids))))
        batch = _draw_distinct_tuples(rng, m, 3, want, seen)
        attempts += len(batch)
        ids = np.asarray(batch, dtype=np.int64)
        ordv = np.argsort(var_all[ids], axis=1, kind="stable")
        ids = np.take_along_axis(ids, ordv, axis=1)
        U = values[ids[:, 0]]
        V = values[ids[:, 1]]
        W = values[ids[:, 2]]
        _, p1, ok1, _ = _type_a_batch(U, V, n, alpha)
        _, p2, ok2, _ = _type_a_batch(V, W, n, alpha)
        z1 = V - U
        z2 = W - V
        z1c = z1 - z1.mean(axis=1, keepdims=True)
        z2c = z2 - z2.mean(axis=1, keepdims=True)
        cov = np.einsum("ij,ij->i", z1c, z2c) / (n - 1)
        keep = (ok1 & ok2) if mode == "type_a_only" else np.ones(len(batch), dtype=bool)
        for k in np.flatnonzero(keep):
            kept_ids.append(tuple(int(x) for x in ids[k]))
            kept_cov.append(float(cov[k]))
            kept_p.append((float(p1[k]), float(p2[k])))
            if len(kept_ids) == n_triples:
                break

    if len(kept_ids) < n_triples:
        raise ResourceError(
            f"triple census attempt budget exhausted after {attempts} candidates: "
            f"found {len(kept_ids)} of {n_triples} qualifying triples"
        )
    covs = np.asarray(kept_cov)
    return TripleCensus(
        float((covs < 0.0).mean()),
        np.asarray(kept_ids, dtype=np.int64),
        covs,
        np.asarray(kept_p),
        mode,
        alpha,
        seed,
        attempts,
    )


# ---------------------------------------------------------------------------
# The sufficient condition for a positive increment correlation, as a
# closed-form threshold on rho(v, w), and its covariance-model check.
# ---------------------------------------------------------------------------


def positive_increment_threshold(sigma_u: float, sigma_v: float, sigma_w: float) -> float:
    """Lower bound on rho(v, w): above it, consecutive increments of the
    ascending-variance triple correlate positively. Requires
    0 < sigma_u <= sigma_v <= sigma_w."""
    if not (0.0 < sigma_u <= sigma_v <= sigma_w) or not math.isfinite(sigma_w):
        raise ValidationError(
            f"need 0 < sigma_u <= sigma_v <= sigma_w, got ({sigma_u}, {sigma_v}, {sigma_w})"
        )
    return 1.0 - 0.5 * (1.0 - sigma_v / sigma_w) ** 2 * (1.0 - sigma_v / sigma_u) ** 2


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
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be finite and > 0, got {v}")
        if not math.isfinite(self.cov_ab):
            raise ValidationError("cov_ab must be finite")

    def matrix(self) -> np.ndarray:
        c = self.cov_ab
        return np.array([
            [self.var_u, 0.0, -c],
            [0.0, self.var_a, c],
            [-c, c, self.var_b],
        ])


def type_a_triple_consistency(model: TripleCovarianceModel, tol: float = 1e-9) -> bool:
    """True iff the model's covariance matrix is positive semidefinite, i.e.
    some joint distribution realizes it."""
    K = model.matrix()
    eigmin = float(np.linalg.eigvalsh(K)[0])
    scale = max(model.var_u, model.var_a, model.var_b)
    return eigmin >= -tol * scale


@dataclass(frozen=True)
class SoundnessSweep:
    """Monte Carlo audit of the positive-increment threshold."""

    checked: int
    counterexamples: tuple[dict, ...]

    @property
    def n_counterexamples(self) -> int:
        return len(self.counterexamples)


def increment_threshold_soundness_sweep(n_cases: int = 10_000, seed: int = 0,
                                        max_examples: int = 100) -> SoundnessSweep:
    """Sample valid covariance structures whose rho(v, w) strictly exceeds
    the threshold and check that the population covariance of consecutive
    increments is positive; violations are collected for reporting rather
    than asserted away."""
    rng = np.random.default_rng(seed)
    checked = 0
    examples: list[dict] = []
    attempts = 0
    while checked < n_cases:
        attempts += 1
        if attempts > 400:
            raise ResourceError("soundness sweep could not reach the requested case count")
        k = 4 * (n_cases - checked) + 64
        sig = np.sort(rng.uniform(0.2, 2.0, size=(k, 3)), axis=1)
        su, sv, sw = sig[:, 0], sig[:, 1], sig[:, 2]
        thr = 1.0 - 0.5 * (1.0 - sv / sw) ** 2 * (1.0 - sv / su) ** 2
        lo = np.maximum(thr, -0.999)
        rvw = lo + rng.uniform(0.0, 1.0, size=k) * (0.999 - lo)
        ruv = rng.uniform(-0.999, 0.999, size=k)
        ruw = rng.uniform(-0.999, 0.999, size=k)
        det = 1.0 + 2.0 * ruv * ruw * rvw - ruv**2 - ruw**2 - rvw**2
        valid = (det >= 0.0) & (rvw > thr) & (rvw < 1.0)
        cov = rvw * sv * sw - sv**2 - ruw * su * sw + ruv * su * sv
        for i in np.flatnonzero(valid):
            if checked == n_cases:
                break
            checked += 1
            if cov[i] <= 0.0 and len(examples) < max_examples:
                examples.append({
                    "sigma_u": float(su[i]), "sigma_v": float(sv[i]), "sigma_w": float(sw[i]),
                    "rho_uv": float(ruv[i]), "rho_uw": float(ruw[i]), "rho_vw": float(rvw[i]),
                    "threshold": float(thr[i]), "cov_increments": float(cov[i]),
                })
    return SoundnessSweep(checked, tuple(examples))


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
