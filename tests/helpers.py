"""Independent oracles used by the test suite.

Everything here is deliberately naive: exhaustive enumeration, double loops,
and exact rational arithmetic. Nothing imports the package under test.
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


def step_distance_probe(f, g, probes) -> float:
    """Lower bound on sup|f - g| by dense probing (right values only)."""
    probes = np.asarray(probes, dtype=np.float64)
    return float(np.abs(f.evaluate(probes) - g.evaluate(probes)).max())


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


def edf_mean_searchsorted(samples):
    """(xs, heights) of the pointwise mean of the samples' EDFs on the pooled
    distinct values, one searchsorted pass per sample. Equal sample sizes sum
    integer counts and divide once; unequal ones add each EDF's share."""
    sorted_samples = [np.sort(np.asarray(s, dtype=np.float64)) for s in samples]
    B = len(sorted_samples)
    xs = np.unique(np.concatenate(sorted_samples))
    sizes = {s.size for s in sorted_samples}
    if len(sizes) == 1:
        counts = np.zeros(xs.shape[0], dtype=np.int64)
        for s in sorted_samples:
            counts += np.searchsorted(s, xs, side="right")
        return xs, counts / (B * sizes.pop())
    heights = np.zeros(xs.shape[0], dtype=np.float64)
    for s in sorted_samples:
        heights += np.searchsorted(s, xs, side="right") / (B * s.size)
    return xs, heights
