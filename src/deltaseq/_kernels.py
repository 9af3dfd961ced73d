"""Hot numeric kernels: batched two-sample KS statistics on the integer
lattice and fixed-width histogram accumulation, in numpy."""

from __future__ import annotations

import numpy as np

# Constants because clibench/run.py:machine_facts reads them; numpy is the only backend.
ACTIVE_BACKEND = "numpy"
HAVE_NUMBA = False

# Rows per block of a pass that works through a matrix a few rows at a time
# (`row_blocks`), so its temporaries hold about this many rows, not the whole.
BLOCK_ROWS = 1024


def row_blocks(m: int) -> list[slice]:
    """Slices of BLOCK_ROWS rows covering ``range(m)`` in order, the last
    one up to a row longer so that no block is a lone row unless m is 1.
    numpy sums a strided row alone pairwise, but sums every row of a block
    of two or more, in the same layout, the way it sums the whole array's."""
    starts = list(range(0, m, max(2, BLOCK_ROWS)))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [m])]


def row_variances(values, columns: np.ndarray | None = None) -> np.ndarray:
    """Sample variance (ddof=1) of each row, over ``columns`` only when given,
    a block of rows at a time, so no copy of the whole is made. ``values`` is
    a 2-d array, or a tuple of them over the same rows pooled side by side,
    each block stacked C-ordered. Every row gets the bits of one whole-array
    ``var(axis=1, ddof=1)`` (of the tuple's C-ordered ``np.hstack``): a block
    of two or more rows has the whole array's layout and is reduced the same
    way (`row_blocks`)."""
    parts = [np.asarray(part, dtype=np.float64)
             for part in (values if isinstance(values, tuple) else (values,))]
    var = np.empty(parts[0].shape[0])
    for rows in row_blocks(var.shape[0]):
        block = parts[0][rows]
        if len(parts) > 1:
            block = np.concatenate([part[rows] for part in parts], axis=1, out=np.empty(
                (block.shape[0], sum(part.shape[1] for part in parts))))
        if columns is not None:
            block = block[:, columns]
        var[rows] = block.var(axis=1, ddof=1)
    return var


# ---------------------------------------------------------------------------
# Batched two-sample Kolmogorov-Smirnov statistic on the integer lattice.
#
# For row r the statistic is sup_t |F1(t) - F2(t)| where F1, F2 are the
# empirical distribution functions of a[r] and b[r]. It depends only on the
# order of the pooled row: any strictly increasing map of the pooled values
# (their dense ranks, say) leaves it unchanged, and so does the tie flag.
#
# Each pooled value becomes a key (rank, sample bit), bit 0 for the first
# sample and 1 for the second; pre-ranked integer rows are packed as
# 2*rank + bit. With the keys sorted by rank, walking them with steps +n2
# per bit-0 key and -n1 per bit-1 key gives n1*n2*(F1 - F2) as a running
# integer h, and the statistic is max |h| taken where the rank changes, so
# a group of tied values is consumed as one step. A row is flagged when some
# rank group holds both sample bits, i.e. the two samples share a value; the
# statistic is still exact for the data as given, but the exact null p-value
# assumes no cross-sample ties.
#
# Float rows get their keys from a pooled argsort a row block at a time
# (`row_blocks`), each block writing its flags into the transposed layout
# below, so no pooled copy of the whole batch is made. Callers that draw
# many column subsets of one pooled matrix dense-rank it once (`dense_ranks`)
# and pass the chosen integer ranks, whose keys need only one small integer
# sort. Keys are sorted and scanned in the transposed (n1+n2, m) layout, so
# each step is one vector operation across all m rows, with an int32
# accumulator while n1*n2 fits in it.
# ---------------------------------------------------------------------------


def dense_ranks(x: np.ndarray) -> np.ndarray:
    """Dense rank of each value within its row (0 for the row's smallest,
    equal values share a rank), as int32 while the ranks fit in it. Rows
    are ranked a block at a time into the one output."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.int32 if x.shape[1] <= 2**31 else np.int64)
    for rows in row_blocks(x.shape[0]):
        block = x[rows]
        order = np.argsort(block, axis=1)
        vals = np.take_along_axis(block, order, axis=1)
        ranks = np.zeros(block.shape, dtype=out.dtype)
        np.cumsum(vals[:, 1:] != vals[:, :-1], axis=1, out=ranks[:, 1:])
        np.put_along_axis(out[rows], order, ranks, axis=1)
    return out


def ks_scaled_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch KS: returns (n1*n2*D as int64, cross-sample tie flags).

    Rows of floats must be finite. Rows of integers are read as ranks within
    each pooled row (as from `dense_ranks`), which need not be dense; they
    are read fastest as the `.T` view of a C-ordered array that holds one
    sample value of every row per line.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    m, n1 = a.shape
    n2 = b.shape[1]
    if np.issubdtype(a.dtype, np.integer) and np.issubdtype(b.dtype, np.integer):
        lo = min(a.min(initial=0), b.min(initial=0))
        hi = max(a.max(initial=0), b.max(initial=0))
        keys = np.empty((n1 + n2, m), dtype=np.int32 if -2**30 <= lo and hi < 2**30 else np.int64)
        np.multiply(a.T, 2, out=keys[:n1], casting="unsafe")
        np.multiply(b.T, 2, out=keys[n1:], casting="unsafe")
        keys[n1:] += 1
        keys.sort(axis=0)
        second = (keys & 1).astype(bool)
        rank = keys >> 1
        change = rank[1:] != rank[:-1]
    else:
        second = np.empty((n1 + n2, m), dtype=bool)
        change = np.empty((n1 + n2 - 1, m), dtype=bool)
        for rows in row_blocks(m):
            combined = np.concatenate([a[rows], b[rows]], axis=1).astype(np.float64, copy=False)
            # the scan needs the keys grouped by rank only, so the sort need not be stable
            order = np.argsort(combined, axis=1)
            vals = np.take_along_axis(combined, order, axis=1)
            np.greater_equal(order.T, n1, out=second[:, rows])
            np.not_equal(vals[:, 1:].T, vals[:, :-1].T, out=change[:, rows])
    # second: the sample bits of the (n1+n2, m) sorted keys; change: a rank
    # change between neighbours. The one scan follows.
    h = second.astype(np.int32 if n1 * n2 < 2**31 else np.int64)
    h *= -(n1 + n2)
    h += n2
    if h.shape[0] <= h.shape[1]:
        # np.cumsum does not vectorise across axis 0; a row of adds per key does
        for i in range(1, h.shape[0]):
            h[i] += h[i - 1]
    else:
        np.cumsum(h, axis=0, out=h)
    # h is 0 after the last key, so only the changes inside the row count
    np.abs(h, out=h)
    out = (h[:-1] * change).max(axis=0, initial=0)
    ties = (~change & (second[1:] != second[:-1])).any(axis=0)
    return out.astype(np.int64), ties


# ---------------------------------------------------------------------------
# Fixed-width histogram accumulation, in place in the values.
#
# Bin index is floor((v - lo) * scale) with scale = nbins / (hi - lo). Every
# value must lie in [lo, hi]; index nbins, reached by hi alone, folds into the
# last bin, which is therefore closed on the right.
# ---------------------------------------------------------------------------


def hist_accumulate(values: np.ndarray, lo: float, scale: float, counts: np.ndarray) -> None:
    bins = counts.shape[0]
    values -= lo
    values *= scale
    binned = np.bincount(values.astype(np.int64), minlength=bins + 1)
    binned[bins - 1] += binned[bins]
    counts += binned[:bins]
