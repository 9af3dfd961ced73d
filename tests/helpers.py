"""Independent oracles used by the test suite.

Everything here is deliberately naive: exhaustive enumeration, double loops,
exact rational arithmetic, and superseded whole-batch forms of the package's
computations. Nothing imports the package under test, except
``jackknife_distances_oracle``, ``injection_oracle`` and the serial
correlation summaries (``all_pairs_summary_oracle``, ``z_summary_oracle``),
which replay a superseded pipeline through the package's own building
blocks, ``variance_ordering_oracle``, which returns a package ordering,
``duplicated_increment_matrix``, an input built as a package matrix, and
``line_load_oracle``, which builds a package matrix or raises the package's
errors so that they compare with the loader's.

``child_pids`` serves the suite's fixture that fails a test leaving a child
process behind; ``run_under_every_blas_kernel`` runs a script in children
under each OpenBLAS GEMM kernel the CPU can run; ``own_peak_kib`` measures
a command's own peak memory.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
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


def child_pids() -> set[int]:
    """Pids of this process's children, running or exited and not yet
    reaped; reaps none of them.

    Reads ``/proc/self/task/*/children`` where the kernel provides it, and
    otherwise finds the processes whose parent is this one in
    ``/proc/<pid>/stat``. Empty where there is no ``/proc``.

    A thread that ends between the listing of the tasks and the read of its
    file takes the file with it, and its children move to another task of
    this process; the tasks are then listed again, until one pass reads
    every file it listed.
    """
    tasks = Path("/proc/self/task")
    while tasks.is_dir():
        listed = list(tasks.glob("*/children"))
        if not listed:
            break
        try:
            return {int(pid) for f in listed for pid in f.read_text().split()}
        except (FileNotFoundError, ProcessLookupError):
            continue
    me = os.getpid()
    found = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while listed
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        if int(text[text.rindex(")") + 2 :].split()[1]) == me:
            found.add(int(text[: text.index(" ")]))
    return found


# Spawns the command in its argv, waits for it, and prints its exit code and
# ru_maxrss (KiB) on the last line of stdout.
_PEAK_LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def own_peak_kib(argv: list[str], cwd=None) -> tuple[int, int]:
    """Exit code and peak resident set (KiB) of the command ``argv``, whose
    first item is an executable's path, its forked children included.

    Linux carries a process's high-water mark across fork and exec: the
    child's memory map starts as a copy of its parent's, high-water mark
    included, and exec folds that mark into the ru_maxrss the child reports.
    A command spawned from this test process would so report at least
    pytest's own peak, with every test's data in it. It is spawned instead
    from a small launcher interpreter, whose fresh memory map is all the
    command inherits; wait4 then gives the larger of the command's own peak
    and its waited-for children's, such as its forked row parts. The
    command sees this checkout's ``src`` on its path.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_LAUNCHER, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    code, peak = proc.stdout.splitlines()[-1].split()
    return int(code), int(peak)


# (OPENBLAS_CORETYPE, the CPU flag it needs), newest first
BLAS_KERNELS = [("SkylakeX", "avx512f"), ("Haswell", "avx2"), ("Sandybridge", "avx"),
                ("Prescott", "pni")]  # pni: SSE3

# appended to each child's script: prints the name of the core OpenBLAS runs
_PRINT_BLAS_CORE = """
import ctypes as _ctypes, glob as _glob, os as _os
import numpy as _np
_libs = _glob.glob(_os.path.join(_os.path.dirname(_np.__file__), _os.pardir, "numpy.libs",
                                 "*openblas*"))
_corename = (getattr(_ctypes.CDLL(_libs[0]), "scipy_openblas_get_corename64_", None)
             if _libs else None)
if _corename is None:
    print("unknown")
else:
    _corename.restype = _ctypes.c_char_p
    print(_corename().decode())
"""


def cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


def run_under_every_blas_kernel(script: str) -> None:
    """Run ``script`` in a child interpreter under each OpenBLAS GEMM kernel
    the CPU can run (OPENBLAS_CORETYPE forces one) and assert that each child
    exits 0. Where every child could name its core, assert that the names
    differ, so each child really ran its own kernel. Skips the calling test
    where no CPU flags are readable."""
    import pytest

    flags = cpu_flags()
    kernels = [name for name, flag in BLAS_KERNELS if flag in flags]
    if not kernels:
        pytest.skip("no /proc/cpuinfo flags to choose kernels by")
    names = []
    for name in kernels:
        env = dict(ascii_locale_env(), OPENBLAS_CORETYPE=name)
        proc = subprocess.run([sys.executable, "-c", script + _PRINT_BLAS_CORE],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        names.append(proc.stdout.strip().splitlines()[-1])
    if "unknown" not in names:
        assert len(set(names)) == len(kernels), names


def duplicated_increment_matrix():
    """A 40 x 88 matrix whose genes 0-3, a, a + u, b, b + u, have the four
    lowest variances, so that every subsample of at least 80 arrays
    differences them into two increment rows, each u or -u by the order of
    the pair's variances. Each value is a multiple of 1/1024 below 16 in
    magnitude, so every difference is exact and the two rows are bitwise
    equal or negated."""
    from deltaseq import ExpressionMatrix

    rng = np.random.default_rng(13)
    n = 88
    a = rng.integers(-1024, 1024, size=n) / 1024
    b = 2 * rng.integers(-1024, 1024, size=n) / 1024
    u = rng.integers(-64, 64, size=n) / 512
    rest = 8 * rng.integers(-1024, 1024, size=(36, n)) / 1024
    values = np.vstack([a, a + u, b, b + u, rest])
    return ExpressionMatrix(tuple(f"g{i}" for i in range(40)),
                            tuple(f"a{j}" for j in range(n)), values)


def table_to_tsv_oracle(row_ids, col_ids, values) -> str:
    """The serial TSV writer: every row formatted by ``repr`` in one
    process, lines joined once."""
    lines = ["gene_id\t" + "\t".join(col_ids)]
    lines.extend(rid + "\t" + "\t".join(map(repr, row))
                 for rid, row in zip(row_ids, np.asarray(values, dtype=np.float64).tolist()))
    return "\n".join(lines) + "\n"


def bulk_load_oracle(data: bytes, has_header: bool):
    """The serial bulk loader: (gene ids, array ids, values) of a UTF-8
    table, or None where ``line_load_oracle`` must read it. The whole file is
    decoded and split into lines at once, trailing blank lines dropped, and
    one np.loadtxt call parses every value; the result stands only when every
    line gave a row of finite values as wide as the header."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None
    while lines and lines[-1].strip() == "":
        lines.pop()
    body = lines[1:] if has_header else lines
    gene_ids, rests = [], []
    try:
        for line in body:
            gid, rest = line.split("\t", 1)
            gene_ids.append(gid.strip())
            rests.append(rest)
        if not any(rests):
            return None
        values = np.loadtxt(rests, delimiter="\t", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if values.shape[0] != len(body) or not np.isfinite(values).all():
        return None
    if has_header:
        array_ids = [c.strip() for c in lines[0].split("\t")[1:]]
    else:
        array_ids = [f"A{i + 1}" for i in range(values.shape[1])]
    if values.shape[1] != len(array_ids):
        return None
    return tuple(gene_ids), tuple(array_ids), values


def line_load_oracle(path: Path, has_header: bool):
    """The whole-file line parser: the ExpressionMatrix (not log scale) of
    the UTF-8 table at ``path``, or the package's ParseError for its fault
    with the line and column numbers, or ValidationError from the matrix.
    The whole file is decoded first, so a byte that is not UTF-8 is named
    before any other fault; lines split as str.splitlines splits them, and
    trailing blank lines are dropped."""
    from deltaseq import ExpressionMatrix, ParseError

    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: file is empty")
    lineno = 1
    array_ids = None
    if has_header:
        header = lines[0].split("\t")
        if len(header) < 2:
            raise ParseError(f"{path}: line 1: header must name at least one array column")
        array_ids = [c.strip() for c in header[1:]]
        body = lines[1:]
        lineno = 2
    else:
        body = lines
    if not body:
        raise ParseError(f"{path}: no data rows after the header")

    gene_ids, rows = [], []
    width = None
    for offset, line in enumerate(body):
        ln = lineno + offset
        if line.strip() == "":
            raise ParseError(f"{path}: line {ln}: blank line inside table")
        cells = line.split("\t")
        if len(cells) < 2:
            raise ParseError(f"{path}: line {ln}: expected gene id and values, got {len(cells)} column(s)")
        vals = []
        for col, cell in enumerate(cells[1:], start=2):
            cell = cell.strip()
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"{path}: line {ln}: column {col}: not a number: {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(f"{path}: line {ln}: column {col}: non-finite value {cell!r}")
            vals.append(v)
        if width is None:
            width = len(vals)
            if array_ids is not None and width != len(array_ids):
                raise ParseError(
                    f"{path}: line {ln}: row has {width} values but header names {len(array_ids)} arrays"
                )
        elif len(vals) != width:
            raise ParseError(f"{path}: line {ln}: row has {len(vals)} values, expected {width}")
        gene_ids.append(cells[0].strip())
        rows.append(vals)
    if array_ids is None:
        array_ids = [f"A{i + 1}" for i in range(width or 0)]
    return ExpressionMatrix(tuple(gene_ids), tuple(array_ids), np.array(rows, dtype=np.float64), False)


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


def paths_within(n1: int, n2: int, limit: int) -> int:
    """Count monotone paths (0,0) -> (n1,n2) with |i*n2 - j*n1| <= limit at
    every vertex, one limit at a time: a DP over the rows i of the lattice,
    each row a Python list of big integers over the columns j inside the
    band. The superseded form of ``kstest._lattice_counts``."""
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


def hist_accumulate_clip(values: np.ndarray, lo: float, scale: float, counts: np.ndarray) -> None:
    """The superseded clipping histogram kernel: bin index
    floor((v - lo) * scale) clipped into [0, nbins-1]; ``values`` is left
    as it was, and values out of range land in the end bins."""
    idx = ((values - lo) * scale).astype(np.int64)
    np.clip(idx, 0, counts.shape[0] - 1, out=idx)
    counts += np.bincount(idx, minlength=counts.shape[0]).astype(np.int64)


def _iter_pair_blocks_serial(S: np.ndarray, block: int):
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


def all_pairs_summary_oracle(source, bins: int = 50, block: int = 512):
    """The serial all-pairs correlation summary: every block computed and
    consumed on the calling thread, in canonical order."""
    from deltaseq.corrstats import CorrelationSummary, Histogram, _standardized_rows
    from deltaseq.errors import ValidationError

    if bins < 1:
        raise ValidationError("bins must be >= 1")
    S = _standardized_rows(source)
    counts = np.zeros(bins, dtype=np.int64)
    scale = bins / 2.0
    total = 0
    s1 = 0.0
    s2 = 0.0
    for vals in _iter_pair_blocks_serial(S, block):
        hist_accumulate_clip(vals, -1.0, scale, counts)
        total += vals.shape[0]
        s1 += float(vals.sum())
        s2 += float(vals @ vals)
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    return CorrelationSummary(total, mean, math.sqrt(var), Histogram(edges, counts))


def z_summary_oracle(source, bins: int = 50, block: int = 512):
    """The serial Fisher z summary: one pass of GEMM and ``arctanh`` for the
    moments and ``max|z|``, a second identical pass to bin with that range.
    One change from the superseded code: the empty block of a last row
    block with one row adds nothing to ``max|z|`` (``initial=0.0``), where
    ``max`` of an empty array raised ValueError."""
    from deltaseq.corrstats import Histogram, ZSummary, _row_values, _standardized_rows
    from deltaseq.errors import DomainError, ValidationError

    if bins < 1:
        raise ValidationError("bins must be >= 1")
    n = _row_values(source).shape[1]
    if n < 4:
        raise ValidationError("need at least 4 arrays for a z summary")
    S = _standardized_rows(source)

    def z_blocks():
        for vals in _iter_pair_blocks_serial(S, block):
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
        zmax = max(zmax, float(np.abs(z).max(initial=0.0)))
    if zmax == 0.0:
        zmax = 1.0
    counts = np.zeros(bins, dtype=np.int64)
    scale = bins / (2.0 * zmax)
    for z in z_blocks():
        hist_accumulate_clip(z, -zmax, scale, counts)
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    edges = np.linspace(-zmax, zmax, bins + 1)
    return ZSummary(total, mean, math.sqrt(var), 1.0 / math.sqrt(n - 3), Histogram(edges, counts))


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


def edf_sides_searches(sorted_values, t) -> tuple[np.ndarray, np.ndarray]:
    """(left limits, right values) of the EDF of a sorted sample at ``t``:
    a left and a right search of the whole sample, each count divided once."""
    size = len(sorted_values)
    return (np.searchsorted(sorted_values, t, side="left") / size,
            np.searchsorted(sorted_values, t, side="right") / size)


def step_distance_searches(a_xs, a_ys, a_y0, b_xs, b_ys, b_y0) -> float:
    """sup |a - b| for a nondecreasing ``b``, read at a's jumps and b's last
    jump with a separate right and left search of each function per side,
    plus the region before any jump."""
    xs = np.append(a_xs, b_xs[-1])
    r = np.abs(step_right(a_xs, a_ys, a_y0, xs) - step_right(b_xs, b_ys, b_y0, xs)).max()
    lo = np.abs(step_left(a_xs, a_ys, a_y0, a_xs) - step_left(b_xs, b_ys, b_y0, a_xs)).max()
    return float(max(r, lo, abs(np.float64(a_y0) - np.float64(b_y0))))


def variance_ordering_oracle(values):
    """The ascending-variance ordering of the rows of ``values`` from one
    whole-array ``var(axis=1, ddof=1)`` and its stable argsort, less the
    lowest-variance row when the count is odd; a checked ``GeneOrdering``."""
    from deltaseq.ordering import GeneOrdering

    var = np.asarray(values).var(axis=1, ddof=1)
    order = np.argsort(var, kind="stable")
    if order.shape[0] % 2:
        order = order[1:]
    return GeneOrdering(order, var[order])


def dense_ranks_oracle(x) -> np.ndarray:
    """Dense rank of each value within its row, from ``np.unique`` per row."""
    return np.array([np.unique(row, return_inverse=True)[1] for row in np.asarray(x)])


def jackknife_distances_oracle(matrix, d: int, B: int, first_k: int, seed: int = 0) -> np.ndarray:
    """Delete-d jackknife distances by the full per-subsample path: a
    validated column projection (``select_arrays``), its whole-array
    variance ordering (``variance_ordering_oracle``), every labelled
    increment row (``delta_sequence``), then the first
    ``first_k`` rows; each EDF's distance to the mean of all B EDFs, built
    by ``edf_mean_searchsorted``, comes from ``step_distance_searches``.
    Same seeds and draws as ``jackknife_stability``, and the same
    ``DomainError`` when two standardized rows are equal or negated (a
    double loop) or a correlation reaches |r| = 1; no budget check."""
    from deltaseq.corrstats import _standardized_rows
    from deltaseq.datamodel import select_arrays
    from deltaseq.errors import DomainError
    from deltaseq.kstest import EDF
    from deltaseq.ordering import delta_sequence

    n = matrix.n_arrays
    samples = []
    for child in np.random.SeedSequence(seed).spawn(B):
        rng = np.random.default_rng(child)
        removed = rng.choice(n, size=d, replace=False)
        keep = np.setdiff1d(np.arange(n), removed)
        sub = select_arrays(matrix, keep)
        delta = delta_sequence(sub, variance_ordering_oracle(sub.values))
        S = _standardized_rows(delta.values[:first_k])
        r = np.clip((S @ S.T)[np.triu_indices(first_k, 1)], -1.0, 1.0)
        collinear = any(np.array_equal(S[i], S[j]) or np.array_equal(S[i], -S[j])
                        for i, j in combinations(range(first_k), 2))
        if collinear or (np.abs(r) == 1.0).any():
            raise DomainError("duplicated increment rows give |r| = 1; z-score undefined")
        samples.append(np.arctanh(r))
    center_xs, center_ys = edf_mean_searchsorted(samples)
    steps = [EDF.from_sample(z).as_step() for z in samples]
    return np.asarray([step_distance_searches(s.xs, s.ys, 0.0, center_xs, center_ys, 0.0)
                       for s in steps])


def injection_oracle(matrix, config, mode: str):
    """(m, targets, effects, truth, fp, tp, fdr) of the effect injection by
    its whole-matrix path: both halves projected (``select_arrays``), the
    ordering (``variance_ordering_oracle``) and the sds from the first half,
    a writable copy of the second half's values spiked and built into a new
    checked matrix, both halves' rows pooled and ranked in one call
    (``dense_ranks_oracle``), and each replicate's statistics from the
    drawn columns of those ranks (``ks_scaled_oracle``). Same seeds and
    draws as ``effect_injection_experiment``."""
    from deltaseq.datamodel import ExpressionMatrix, select_arrays
    from deltaseq.kstest import exact_pvalues_for_scaled
    from deltaseq.mtp import confusion_counts, extended_bonferroni
    from deltaseq.ordering import delta_sequence

    s1, s2 = config.split
    ss = np.random.SeedSequence(config.seed)
    rng = np.random.default_rng(ss)
    perm = rng.permutation(matrix.n_arrays)
    sub1 = select_arrays(matrix, np.sort(perm[:s1]))
    sub2 = select_arrays(matrix, np.sort(perm[s1 : s1 + s2]))
    ordering = variance_ordering_oracle(sub1.values)
    higher = ordering.permutation[1::2]
    m = ordering.n_pairs
    targets = np.sort(rng.choice(m, size=config.n_modified, replace=False)).astype(np.int64)

    def rows(half):
        return delta_sequence(half, ordering).values if mode == "delta" else half.values[higher]

    rows1 = rows(sub1)
    effects = config.effect_multiplier * rows1.std(axis=1, ddof=1)[targets]
    modified2 = sub2.values.copy()
    modified2[higher[targets]] += effects[:, None]
    rows2 = rows(ExpressionMatrix(sub2.gene_ids, sub2.array_ids, modified2, sub2.log_scale))
    truth = np.zeros(m, dtype=bool)
    truth[targets[effects != 0.0]] = True
    ranks = dense_ranks_oracle(np.concatenate([rows1, rows2], axis=1))
    fp, tp, fdr = [], [], []
    for child in ss.spawn(config.replicates):
        crng = np.random.default_rng(child)
        g1 = crng.choice(s1, size=config.n1, replace=False)
        g2 = crng.choice(s2, size=config.n2, replace=False)
        scaled, _ = ks_scaled_oracle(ranks[:, g1], ranks[:, s1 + g2])
        p = exact_pvalues_for_scaled(scaled, config.n1, config.n2)
        rep = confusion_counts(extended_bonferroni(p, config.pfer), truth)
        fp.append(rep.fp)
        tp.append(rep.tp)
        fdr.append(rep.fdr)
    return m, targets, effects, truth, np.array(fp), np.array(tp), np.array(fdr)


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
