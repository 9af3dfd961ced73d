"""Independent oracles used by the test suite.

Everything here is deliberately naive: exhaustive enumeration, double loops,
exact rational arithmetic, and superseded whole-batch forms of the package's
computations. Nothing imports the package under test, except
``jackknife_distances_oracle``, which replays a superseded pipeline through
the package's own building blocks.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np


def ascii_locale_env() -> dict[str, str]:
    """Environment of a child interpreter whose locale encoding is ASCII,
    with this checkout's ``src`` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@lru_cache(maxsize=None)
def enumerate_scaled_ks(n1: int, n2: int) -> tuple[tuple[int, int], ...]:
    """All (scaled statistic, labeling count) pairs for samples of sizes
    n1, n2 with no ties, by walking every one of the C(n1+n2, n1) rank
    labelings. The scaled statistic is n1*n2 * sup|F1 - F2|."""
    n = n1 + n2
    counts: Counter[int] = Counter()
    for pos in combinations(range(n), n1):
        sel = set(pos)
        h = 0
        best = 0
        for t in range(n):
            h += n2 if t in sel else -n1
            if abs(h) > best:
                best = abs(h)
        counts[best] += 1
    return tuple(sorted(counts.items()))


def enum_pvalue(c: int, n1: int, n2: int) -> Fraction:
    """P(scaled statistic >= c) by full enumeration."""
    total = math.comb(n1 + n2, n1)
    hit = sum(v for k, v in enumerate_scaled_ks(n1, n2) if k >= c)
    return Fraction(hit, total)


def enum_cdf(n1: int, n2: int) -> list[tuple[Fraction, Fraction]]:
    """Attainable (d, P(D <= d)) pairs by full enumeration."""
    total = math.comb(n1 + n2, n1)
    acc = 0
    out = []
    for k, v in enumerate_scaled_ks(n1, n2):
        acc += v
        out.append((Fraction(k, n1 * n2), Fraction(acc, total)))
    return out


def ks_scaled_oracle(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch KS by a stable argsort of each pooled float row: returns
    (n1*n2*D as int64, cross-sample tie flags). The walk adds +n2 per
    first-sample value and -n1 per second-sample value and reads |h| only
    where the value changes; a row is flagged when neighbouring equal values
    come from different samples."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    n1 = a.shape[1]
    n2 = b.shape[1]
    combined = np.concatenate([a, b], axis=1)
    order = np.argsort(combined, axis=1, kind="stable")
    vals = np.take_along_axis(combined, order, axis=1)
    steps = np.where(order < n1, np.int64(n2), np.int64(-n1))
    h = np.cumsum(steps, axis=1)
    boundary = np.empty(h.shape, dtype=bool)
    boundary[:, -1] = True
    boundary[:, :-1] = vals[:, 1:] != vals[:, :-1]
    out = np.where(boundary, np.abs(h), 0).max(axis=1)
    first = order < n1
    eq = vals[:, 1:] == vals[:, :-1]
    ties = (eq & (first[:, 1:] != first[:, :-1])).any(axis=1)
    return out.astype(np.int64), ties


def ks_distance_exact(s1, s2) -> Fraction:
    """sup |F1 - F2| of two empirical distribution functions, exactly.

    The sup of a difference of right-continuous step functions that agree at
    +/- infinity is attained at one of the pooled sample points.
    """
    s1 = [Fraction(x) for x in s1]
    s2 = [Fraction(x) for x in s2]
    best = Fraction(0)
    for x in sorted(set(s1) | set(s2)):
        f1 = Fraction(sum(1 for v in s1 if v <= x), len(s1))
        f2 = Fraction(sum(1 for v in s2 if v <= x), len(s2))
        best = max(best, abs(f1 - f2))
    return best


def pearson_fraction(x, y) -> Fraction:
    """Squared-free exact pearson for rational inputs: returns r as a
    Fraction ONLY when the denominator is a perfect rational square;
    otherwise use pearson_float."""
    n = len(x)
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    num = sxy * sxy
    den = sxx * syy
    mag2 = num / den
    root = _fraction_sqrt(mag2)
    if root is None:
        raise ValueError("correlation is irrational for these inputs")
    return root if sxy >= 0 else -root


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    pn = math.isqrt(q.numerator)
    pd = math.isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None


def pearson_float(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))


def all_pair_correlations(values: np.ndarray) -> np.ndarray:
    """Double-loop pearson over all row pairs (i < j), in that order."""
    m = values.shape[0]
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            out.append(min(1.0, max(-1.0, pearson_float(values[i], values[j]))))
    return np.asarray(out)


def hist_naive(values: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    """Equal-width counts with the last bin closed, matching floor semantics."""
    counts = np.zeros(bins, dtype=np.int64)
    scale = bins / (hi - lo)
    for v in np.asarray(values, dtype=np.float64).ravel():
        idx = int((v - lo) * scale)
        counts[min(max(idx, 0), bins - 1)] += 1
    return counts


def edf_eval(sample, t: float) -> float:
    sample = list(sample)
    return sum(1 for v in sample if v <= t) / len(sample)


def _step_value(xs, ys, y0, t, left: bool) -> np.float64:
    """Value of the right-continuous step function at t, or just before t."""
    k = sum(1 for x in xs if (x < t if left else x <= t))
    return np.float64(ys[k - 1] if k else y0)


def step_distance_union(f_xs, f_ys, f_y0, g_xs, g_ys, g_y0) -> float:
    """sup |f - g| of two step functions (value y0 before xs[0], ys[k] on
    [xs[k], xs[k+1])), read at every point of the union of both jump sets,
    right value and left limit, with float64 differences."""
    best = np.float64(0.0)
    for t in sorted(set(map(float, f_xs)) | set(map(float, g_xs))):
        for left in (False, True):
            diff = _step_value(f_xs, f_ys, f_y0, t, left) - _step_value(g_xs, g_ys, g_y0, t, left)
            best = max(best, abs(diff))
    return float(best)


def step_right(xs, ys, y0, t) -> np.ndarray:
    """Right values of a step function at ``t``, by a right search."""
    idx = np.searchsorted(xs, t, side="right") - 1
    return np.where(idx >= 0, ys[np.maximum(idx, 0)], y0)


def step_left(xs, ys, y0, t) -> np.ndarray:
    """Left limits of a step function at ``t``, by a left search."""
    idx = np.searchsorted(xs, t, side="left") - 1
    return np.where(idx >= 0, ys[np.maximum(idx, 0)], y0)


def step_distance_searches(a_xs, a_ys, a_y0, b_xs, b_ys, b_y0) -> float:
    """sup |a - b| for a nondecreasing ``b``, read at a's jumps and b's last
    jump with a separate right and left search of each function per side,
    plus the region before any jump."""
    xs = np.append(a_xs, b_xs[-1])
    r = np.abs(step_right(a_xs, a_ys, a_y0, xs) - step_right(b_xs, b_ys, b_y0, xs)).max()
    lo = np.abs(step_left(a_xs, a_ys, a_y0, a_xs) - step_left(b_xs, b_ys, b_y0, a_xs)).max()
    return float(max(r, lo, abs(np.float64(a_y0) - np.float64(b_y0))))


def jackknife_distances_oracle(matrix, d: int, B: int, first_k: int, seed: int = 0) -> np.ndarray:
    """Delete-d jackknife distances by the full per-subsample path: a
    validated column projection (``select_arrays``), its variance ordering,
    every labelled increment row (``delta_sequence``), then the first
    ``first_k`` rows; each EDF's distance to the mean of all B EDFs comes
    from ``step_distance_searches``. Same seeds and draws as
    ``jackknife_stability``, and the same ``DomainError`` when a correlation
    reaches |r| = 1; no budget check."""
    from deltaseq.corrstats import _standardized_rows
    from deltaseq.datamodel import select_arrays
    from deltaseq.errors import DomainError
    from deltaseq.kstest import EDF, mean_of_edfs
    from deltaseq.ordering import delta_sequence, variance_ordering

    n = matrix.n_arrays
    edfs = []
    for child in np.random.SeedSequence(seed).spawn(B):
        rng = np.random.default_rng(child)
        removed = rng.choice(n, size=d, replace=False)
        keep = np.setdiff1d(np.arange(n), removed)
        sub = select_arrays(matrix, keep)
        delta = delta_sequence(sub, variance_ordering(sub))
        S = _standardized_rows(delta.values[:first_k])
        r = np.clip((S @ S.T)[np.triu_indices(first_k, 1)], -1.0, 1.0)
        if (np.abs(r) == 1.0).any():
            raise DomainError("duplicated increment rows give |r| = 1; z-score undefined")
        edfs.append(EDF.from_sample(np.arctanh(r)))
    center = mean_of_edfs(edfs)
    steps = [e.as_step() for e in edfs]
    return np.asarray([step_distance_searches(s.xs, s.ys, 0.0, center.xs, center.ys, 0.0)
                       for s in steps])


def edf_mean_searchsorted(samples):
    """(xs, heights) of the pointwise mean of the EDFs of equal-size samples
    on the pooled distinct values: one searchsorted pass per sample sums
    integer counts, divided once."""
    sorted_samples = [np.sort(np.asarray(s, dtype=np.float64)) for s in samples]
    xs = np.unique(np.concatenate(sorted_samples))
    counts = np.zeros(xs.shape[0], dtype=np.int64)
    for s in sorted_samples:
        counts += np.searchsorted(s, xs, side="right")
    return xs, counts / (len(sorted_samples) * sorted_samples[0].size)


def edf_step_unique(sample):
    """(xs, heights) of a sample's EDF from ``np.unique`` counts and their
    cumulative sum."""
    values = np.asarray(sample, dtype=np.float64).ravel()
    xs, counts = np.unique(values, return_counts=True)
    return xs, np.cumsum(counts) / values.size


def draw_distinct_tuples_oracle(rng, m: int, size: int, want: int,
                                seen: set) -> list[tuple[int, ...]]:
    """Up to ``want`` sorted index tuples with no index twice and none in
    ``seen``, by a loop over every draw; the same rng calls as the census
    draw. Accepted tuples are added to ``seen``."""
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


_CONST_TOL = 64.0 * np.finfo(np.float64).eps
_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def _effectively_constant(rows):
    rows = np.atleast_2d(rows)
    spread = rows.max(axis=1) - rows.min(axis=1)
    scale = np.maximum(1.0, np.abs(rows).max(axis=1))
    return spread <= _CONST_TOL * scale


def _corr_rows(X, Y):
    Xc = X - X.mean(axis=1, keepdims=True)
    Yc = Y - Y.mean(axis=1, keepdims=True)
    sx = np.sqrt(np.einsum("ij,ij->i", Xc, Xc))
    sy = np.sqrt(np.einsum("ij,ij->i", Yc, Yc))
    denom = sx * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.einsum("ij,ij->i", Xc, Yc) / denom
    r[denom == 0.0] = 0.0
    return np.clip(r, -1.0, 1.0)


def _type_a_batch(drv, mod, n: int, alpha: float):
    inc = mod - drv
    degenerate = _effectively_constant(inc) | _effectively_constant(drv)
    r = _corr_rows(drv, inc)
    with np.errstate(divide="ignore"):
        z = np.arctanh(np.clip(r, -1.0, 1.0))
    p = _erfc(np.abs(z) * math.sqrt((n - 3) / 2.0))
    r = np.where(degenerate, 0.0, r)
    p = np.where(degenerate, 1.0, p)
    return r, p, p > alpha


def type_a_census_oracle(values, gene_ids, n_pairs: int, alpha: float, seed: int):
    """(pairs, statistics, p_values, is_type_a) of the pair census with every
    drawn pair's rows gathered and tested in one batch; a pair of constant
    rows raises ValueError with the census's message."""
    values = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    idx = np.asarray(draw_distinct_tuples_oracle(rng, values.shape[0], 2, n_pairs, set()),
                     dtype=np.int64)
    var = values.var(axis=1, ddof=1)
    lo = idx[:, 0].copy()
    hi = idx[:, 1].copy()
    swap = var[hi] < var[lo]
    lo[swap], hi[swap] = idx[swap, 1], idx[swap, 0]
    drv = values[lo]
    mod = values[hi]
    both_const = _effectively_constant(drv) & _effectively_constant(mod)
    if both_const.any():
        k = int(np.argmax(both_const))
        raise ValueError(
            f"genes {gene_ids[int(lo[k])]!r} and {gene_ids[int(hi[k])]!r} are both constant")
    r, p, ok = _type_a_batch(drv, mod, values.shape[1], alpha)
    return np.stack([lo, hi], axis=1), r, p, ok


def triple_census_oracle(values, n_triples: int, mode: str, alpha: float, seed: int,
                         max_attempt_factor: int = 50):
    """(triples, cov_z1_z2, pair_p_values, attempts) of the triple census with
    each candidate batch gathered and tested whole and the kept triples
    collected one by one; an exhausted budget returns None for the arrays."""
    values = np.asarray(values, dtype=np.float64)
    m, n = values.shape
    total = m * (m - 1) * (m - 2) // 6
    rng = np.random.default_rng(seed)
    var_all = values.var(axis=1, ddof=1)
    budget = max_attempt_factor * n_triples if mode == "type_a_only" else n_triples
    budget = min(budget, total)
    seen: set = set()
    kept_ids, kept_cov, kept_p = [], [], []
    attempts = 0
    while len(kept_ids) < n_triples and attempts < budget:
        want = min(budget - attempts, max(64, 2 * (n_triples - len(kept_ids))))
        batch = draw_distinct_tuples_oracle(rng, m, 3, want, seen)
        attempts += len(batch)
        ids = np.asarray(batch, dtype=np.int64)
        ordv = np.argsort(var_all[ids], axis=1, kind="stable")
        ids = np.take_along_axis(ids, ordv, axis=1)
        U = values[ids[:, 0]]
        V = values[ids[:, 1]]
        W = values[ids[:, 2]]
        _, p1, ok1 = _type_a_batch(U, V, n, alpha)
        _, p2, ok2 = _type_a_batch(V, W, n, alpha)
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
        return None, None, None, attempts
    return (np.asarray(kept_ids, dtype=np.int64), np.asarray(kept_cov), np.asarray(kept_p),
            attempts)
