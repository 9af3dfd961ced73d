"""Hot numeric kernels: batched two-sample KS statistics on the integer
lattice and fixed-width histogram accumulation, in numpy."""

from __future__ import annotations

import numpy as np

# Constants because clibench/run.py:machine_facts reads them; numpy is the only backend.
ACTIVE_BACKEND = "numpy"
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# Batched two-sample Kolmogorov-Smirnov statistic on the integer lattice.
#
# For row r the statistic is sup_t |F1(t) - F2(t)| where F1, F2 are the
# empirical distribution functions of a[r] and b[r]. Walking the merged
# sorted values with steps +n2 per first-sample point and -n1 per
# second-sample point gives n1*n2*|F1 - F2| as a running integer h; the sup
# is max |h| taken at value boundaries only, so tied values (within or
# across samples) are consumed as one atomic group. A row is flagged when
# the two samples share a value; the statistic is still exact for the data
# as given, but the exact null p-value assumes no cross-sample ties.
# ---------------------------------------------------------------------------


def ks_scaled_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch KS: returns (n1*n2*D as int64, cross-sample tie flags)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    m, n1 = a.shape
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


# ---------------------------------------------------------------------------
# Fixed-width histogram accumulation.
#
# Bin index is floor((v - lo) * scale) with scale = nbins / (hi - lo),
# clipped into [0, nbins-1]; the last bin is therefore closed on the right.
# ---------------------------------------------------------------------------


def hist_accumulate(values: np.ndarray, lo: float, scale: float, counts: np.ndarray) -> None:
    idx = ((values - lo) * scale).astype(np.int64)
    np.clip(idx, 0, counts.shape[0] - 1, out=idx)
    counts += np.bincount(idx, minlength=counts.shape[0]).astype(np.int64)
