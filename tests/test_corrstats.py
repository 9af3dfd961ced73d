import math
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import (
    DegenerateInputError,
    DomainError,
    ExpressionMatrix,
    ValidationError,
    all_pairs_summary,
    fisher_z,
    pearson,
    z_summary,
)
from deltaseq import _kernels, _parts, corrstats, delta_sequence, variance_ordering
from deltaseq.cli import main
from deltaseq.datamodel import save_matrix
from deltaseq.corrstats import histogram_to_csv, summary_header_json

from helpers import (
    all_pair_correlations,
    all_pairs_summary_oracle,
    ascii_locale_env,
    child_pids,
    hist_accumulate_clip,
    hist_naive,
    pearson_float,
    run_under_every_blas_kernel,
    z_summary_oracle,
)


class TestPearson:
    def test_known_value(self):
        # hand-solved: covariance 1.0, both variances 1.25 (about the mean 2.5)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_perfect_and_inverse(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, [-3 * v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            pearson([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        # not read as a zero variance
        with pytest.raises(ValidationError, match="values must be finite"):
            pearson([1.0, 2.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="values must be finite"):
            pearson([1.0, 2.0, 3.0], [bad, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=3, max_size=12))
    def test_symmetry_and_range(self, xs):
        rng = np.random.default_rng(len(xs))
        ys = rng.normal(size=len(xs)).tolist()
        if np.std(xs) == 0.0:
            return
        r = pearson(xs, ys)
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(pearson(ys, xs), abs=1e-12)
        assert r == pytest.approx(pearson_float(xs, ys), abs=1e-9)


class TestFisherZ:
    def test_known_value(self):
        # atanh(1/2) = log(3) / 2
        assert fisher_z(0.5) == pytest.approx(math.log(3.0) / 2.0, rel=1e-15)

    def test_odd_function(self):
        assert fisher_z(-0.3) == -fisher_z(0.3)

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5])
    def test_out_of_domain(self, r):
        with pytest.raises(DomainError):
            fisher_z(r)


# prints the report bytes of both summaries from the serial oracles, then at
# 1, 2 and 3 parts, one digest a line
BLAS_THREADS_SCRIPT = f"""
import hashlib, sys
from unittest import mock
import numpy as np
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from helpers import all_pairs_summary_oracle, z_summary_oracle
from deltaseq import _parts, all_pairs_summary, corrstats, z_summary
from deltaseq.corrstats import histogram_to_csv, summary_header_json
rng = np.random.default_rng(11)
values = rng.normal(size=(400, 40)) + rng.normal(size=40)
np.ones((256, 256)) @ np.ones((256, 256))  # starts OpenBLAS's pool before any fork

def digest(r, z, *block):
    text = "".join(summary_header_json(s) + histogram_to_csv(s.histogram)
                   for s in (r(values, 20, *block), z(values, 20, *block)))
    print(hashlib.sha256(text.encode()).hexdigest())

# tiles of 128 x 128: their dot products are long enough to split
digest(all_pairs_summary_oracle, z_summary_oracle, 128)
corrstats._TILE = 128
for k in (1, 2, 3):
    with mock.patch.object(_parts, "_usable_cpus", lambda: k), \\
            mock.patch.object(corrstats, "_CORR_PART_PAIRS", 1):
        digest(all_pairs_summary, z_summary)
"""

UNIT_R = "correlation of magnitude 1 (duplicated rows?) has no finite z"

DUPLICATED_PAIR_SCRIPT = f"""
import numpy as np
from deltaseq import DomainError, corrstats, z_summary
corrstats._TILE = 4
for sign in (1.0, -1.0):
    values = np.random.default_rng(6).normal(size=(11, 9))
    values[10] = sign * values[9]
    try:
        z_summary(values)
    except DomainError as exc:
        assert str(exc) == {UNIT_R!r}, exc
    else:
        raise SystemExit(f"no DomainError for sign {{sign}}")
"""


def random_matrix(m=12, n=9, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, n))


UNIT_EDGES = [-1.0, 1.0, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), -0.0, 0.0]


class TestUnitIntervalBins:
    """The r histogram's case of the in-place kernel: [-1, 1], scale bins/2."""

    @settings(max_examples=200, deadline=None)
    @given(vals=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(UNIT_EDGES)),
                         min_size=0, max_size=200),
           bins=st.integers(1, 64))
    def test_counts_equal_hist_accumulate(self, vals, bins):
        vals = np.array(vals, dtype=np.float64)
        want = np.arange(bins, dtype=np.int64)  # counts already there add up
        got = want.copy()
        hist_accumulate_clip(vals, -1.0, bins / 2, want)
        _kernels.hist_accumulate(vals.copy(), -1.0, bins / 2, got)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_edges_land_in_the_end_bins(self):
        counts = np.zeros(50, dtype=np.int64)
        _kernels.hist_accumulate(np.array(UNIT_EDGES), -1.0, 25.0, counts)
        assert counts[0] == 2 and counts[-1] == 2 and counts[25] == 2


class TestAllPairsSummary:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        values = random_matrix()
        values[3, 2] = bad
        with pytest.raises(ValidationError, match="finite"):
            all_pairs_summary(values)
        with pytest.raises(ValidationError, match="finite"):
            z_summary(values)

    def test_matches_double_loop(self):
        values = random_matrix()
        s = all_pairs_summary(values, bins=20)
        ref = all_pair_correlations(values)
        assert s.pair_count == ref.shape[0] == 12 * 11 // 2
        assert s.mean_r == pytest.approx(ref.mean(), abs=1e-12)
        assert s.sd_r == pytest.approx(ref.std(ddof=0), abs=1e-12)
        assert np.array_equal(s.histogram.counts, hist_naive(ref, -1.0, 1.0, 20))

    def test_histogram_covers_unit_interval(self):
        s = all_pairs_summary(random_matrix(), bins=10)
        assert s.histogram.edges[0] == -1.0
        assert s.histogram.edges[-1] == 1.0
        assert s.histogram.counts.sum() == s.pair_count

    def test_perfect_correlation_lands_in_last_bin(self):
        base = np.arange(6.0)
        values = np.vstack([base, 2 * base + 1.0])
        s = all_pairs_summary(values, bins=10)
        assert s.histogram.counts[-1] == 1
        assert s.mean_r == pytest.approx(1.0, abs=1e-12)

    def test_block_size_is_only_a_performance_knob(self, monkeypatch):
        # accumulation order may shift the last ulp, nothing more
        values = random_matrix(m=17)
        b = all_pairs_summary(values, bins=13)
        monkeypatch.setattr(corrstats, "_TILE", 3)
        a = all_pairs_summary(values, bins=13)
        assert a.pair_count == b.pair_count
        assert a.mean_r == pytest.approx(b.mean_r, rel=1e-12, abs=1e-15)
        assert a.sd_r == pytest.approx(b.sd_r, rel=1e-12)
        assert np.array_equal(a.histogram.counts, b.histogram.counts)

    @pytest.mark.parametrize("bins", [0, -1])
    @pytest.mark.parametrize("summary", [all_pairs_summary, z_summary])
    def test_bins_below_one_rejected(self, summary, bins, monkeypatch):
        # refused before any row is read
        monkeypatch.setattr(corrstats, "_row_values", None)
        with pytest.raises(ValidationError, match="bins must be >= 1"):
            summary(random_matrix(), bins=bins)

    def test_accepts_matrix_object(self):
        values = random_matrix(m=5, n=6)
        matrix = ExpressionMatrix(tuple(f"g{i}" for i in range(5)),
                                  tuple(f"a{j}" for j in range(6)), values, True)
        assert all_pairs_summary(matrix).pair_count == 10

    def test_zero_variance_row_named(self):
        values = random_matrix(m=4)
        values[2] = 7.0
        matrix = ExpressionMatrix(("g0", "g1", "g2", "g3"),
                                  tuple(f"a{j}" for j in range(9)), values, True)
        with pytest.raises(DegenerateInputError, match="g2"):
            all_pairs_summary(matrix)

    def test_single_pair_minimum(self):
        with pytest.raises(ValidationError):
            all_pairs_summary(random_matrix(m=1))


def shifted_copy_matrix() -> ExpressionMatrix:
    """40 x 12 genes where g1 = g0 + 0.7 and both have far the lowest
    variance, so their delta row pair1 reads 0.7 up to rounding."""
    values = random_matrix(m=40, n=12, seed=31) * 2.0
    values[0] *= 0.05
    values[1] = values[0] + 0.7
    return ExpressionMatrix(tuple(f"g{i}" for i in range(40)),
                            tuple(f"a{j}" for j in range(12)), values, True)


class TestConstantUpToRounding:
    """A row whose spread is rounding noise has no correlation to report,
    though its centred norm is not zero."""

    def delta(self):
        matrix = shifted_copy_matrix()
        delta = delta_sequence(matrix, variance_ordering(matrix))
        row = delta.values[0]
        assert delta.row_ids[0] == "pair1:g0-g1"
        assert np.abs(row - 0.7).max() < 1e-15
        centred = row - row.mean()
        assert centred @ centred > 0.0
        return delta

    @pytest.mark.parametrize("summary", [all_pairs_summary, z_summary])
    def test_library_refuses_the_row(self, summary):
        with pytest.raises(DegenerateInputError, match="pair1:g0-g1"):
            summary(self.delta())

    def test_cli_exits_1(self, tmp_path, capsys):
        self.delta()
        path = tmp_path / "shifted.tsv"
        save_matrix(shifted_copy_matrix(), path)
        code = main(["corr", "--in", str(path), "--on", "delta", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pair1:g0-g1" in err

    def test_checked_a_block_at_a_time(self, monkeypatch):
        # the first such row is named, here in the third block of 7 rows
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)
        values = random_matrix(m=30, n=9, seed=32)
        values[16] = (values[3] + 0.7) - values[3]
        values[25] = 2.0
        with pytest.raises(DegenerateInputError, match="'16'"):
            all_pairs_summary(values)


class TestZSummary:
    def test_matches_naive_transform(self):
        values = random_matrix(m=10, n=30, seed=3)
        s = z_summary(values, bins=16)
        z = np.arctanh(all_pair_correlations(values))
        assert s.pair_count == 45
        assert s.mean_z == pytest.approx(z.mean(), abs=1e-12)
        assert s.sd_z == pytest.approx(z.std(ddof=0), abs=1e-12)
        assert s.histogram.counts.sum() == 45

    def test_theoretical_sd(self):
        s = z_summary(random_matrix(m=6, n=88, seed=4))
        assert s.theoretical_sd == pytest.approx(1.0 / math.sqrt(85.0), rel=1e-15)

    def test_needs_four_arrays(self):
        with pytest.raises(ValidationError):
            z_summary(random_matrix(m=5, n=3))

    def test_duplicate_rows_are_domain_error(self):
        values = random_matrix(m=4)
        values[1] = values[0]
        with pytest.raises(DomainError):
            z_summary(values)


def same_summary(a, b):
    """Bitwise equality of two summaries: every float by its hex form, every
    array by its bytes."""
    assert type(a) is type(b)
    for name, x in vars(a).items():
        y = getattr(b, name)
        if name == "histogram":
            assert x.edges.tobytes() == y.edges.tobytes(), name
            assert x.counts.tobytes() == y.counts.tobytes(), name
        elif isinstance(x, float):
            assert x.hex() == y.hex(), name
        else:
            assert x == y, name


def tiles_of(side):
    """Tile the summaries' row pairs ``side`` rows a side, not _TILE's 512."""
    return mock.patch.object(corrstats, "_TILE", side)


@contextmanager
def cut_into(k):
    """Cut every summary's tiles into k parts, if it has the tiles: the
    thread gate still applies, and k - 1 children fork."""
    with mock.patch.object(_parts, "_usable_cpus", lambda: k), \
            mock.patch.object(corrstats, "_CORR_PART_PAIRS", 1):
        yield


def canonical_tiles(values, block):
    """The bytes of each tile's inner products, the values pass 1 sees, in
    canonical order."""
    S = corrstats._standardized_rows(values)
    k = S.shape[0]
    tiles = []
    for bi in range(0, k, block):
        for bj in range(bi, k, block):
            G = S[bi : bi + block] @ S[bj : bj + block].T
            vals = G[np.triu_indices(G.shape[0], 1)] if bi == bj else G.ravel()
            if vals.size:
                tiles.append(vals.tobytes())
    return tiles


class TestBlockPipeline:
    """The tiles in parts against the serial summaries."""

    @settings(max_examples=60, deadline=None)
    @given(block=st.integers(1, 9), data=st.data(), n=st.integers(4, 12),
           bins=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_serial(self, block, data, n, bins, seed):
        # from one block (k <= block) to a little over three; block sizes
        # that divide k and ones that do not
        k = data.draw(st.integers(2, 3 * block + 2), label="k")
        values = np.random.default_rng(seed).normal(size=(k, n))
        with tiles_of(block):
            got = all_pairs_summary(values, bins), z_summary(values, bins)
        same_summary(got[0], all_pairs_summary_oracle(values, bins, block))
        same_summary(got[1], z_summary_oracle(values, bins, block))

    @settings(max_examples=25, deadline=None)
    @given(block=st.integers(1, 9), data=st.data(), parts=st.integers(2, 3),
           bins=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_at_every_part_count(self, block, data, parts, bins, seed):
        k = data.draw(st.integers(2, 3 * block + 2), label="k")
        values = np.random.default_rng(seed).normal(size=(k, 7))
        with cut_into(parts), tiles_of(block):
            got = all_pairs_summary(values, bins), z_summary(values, bins)
        same_summary(got[0], all_pairs_summary_oracle(values, bins, block))
        same_summary(got[1], z_summary_oracle(values, bins, block))

    def test_bitwise_equal_in_parts_with_blas_threads(self):
        # OpenBLAS with two threads, its pool started before each fork: the
        # parts run it in every child as in the parent
        env = dict(ascii_locale_env(), OPENBLAS_NUM_THREADS="2")
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests = proc.stdout.split()
        assert len(digests) == 4 and len(set(digests)) == 1, digests

    @pytest.mark.parametrize("k, block", [(24, 8), (23, 8), (512, 128), (600, 512)])
    def test_bitwise_equal_on_correlated_rows(self, k, block, monkeypatch):
        # a shared factor spreads r over a wide range, as raw genes do
        rng = np.random.default_rng(k + block)
        values = rng.normal(size=(k, 30)) + 2.0 * rng.normal(size=30)
        monkeypatch.setattr(corrstats, "_TILE", block)
        same_summary(all_pairs_summary(values), all_pairs_summary_oracle(values, 50, block))
        same_summary(z_summary(values), z_summary_oracle(values, 50, block))
        with cut_into(2):
            same_summary(all_pairs_summary(values), all_pairs_summary_oracle(values, 50, block))
            same_summary(z_summary(values), z_summary_oracle(values, 50, block))

    def test_one_row_last_block(self):
        # 513 rows at the default block: the last row block holds one row and
        # no pair of its own; the serial z summary raised ValueError here
        values = random_matrix(m=513, n=10, seed=5)
        s = z_summary(values)
        assert s.pair_count == 513 * 512 // 2
        assert s.histogram.counts.sum() == s.pair_count
        z = np.arctanh(np.clip(np.corrcoef(values)[np.triu_indices(513, 1)], -1.0, 1.0))
        assert s.mean_z == pytest.approx(z.mean(), abs=1e-12)
        same_summary(all_pairs_summary(values), all_pairs_summary_oracle(values))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_duplicated_pair_in_last_block(self, sign, monkeypatch):
        values = random_matrix(m=11, n=9, seed=6)
        values[10] = sign * values[9]  # both rows in the last row block of 4
        monkeypatch.setattr(corrstats, "_TILE", 4)
        # raised before any GEMM, whose |r| for the pair depends on the kernel
        with pytest.raises(DomainError) as got:
            z_summary(values)
        assert str(got.value) == UNIT_R

    def test_negated_row_with_a_zero_found_before_any_gemm(self, monkeypatch):
        # centering leaves an exact 0.0 in both rows, -0.0 once one is negated
        values = random_matrix(m=6, n=5, seed=8)
        values[2] = [1.0, 2.0, 3.0, 4.0, 5.0]
        values[4] = -values[2]
        monkeypatch.setattr(corrstats, "_block_records", None)
        with pytest.raises(DomainError, match="magnitude 1"):
            z_summary(values)

    def test_duplicated_pair_under_every_blas_kernel(self):
        # OpenBLAS picks its GEMM kernel by CPU; each child forces one
        run_under_every_blas_kernel(DUPLICATED_PAIR_SCRIPT)

    def test_rebin_when_candidate_range_misses(self, monkeypatch):
        # the candidate range is exact where arctanh is monotone; a wrong one
        # must cost a third pass, never a byte
        values = random_matrix(m=40, n=12, seed=7)
        extreme_z = corrstats._extreme_z
        monkeypatch.setattr(corrstats, "_extreme_z", lambda lo, hi: 0.5 * extreme_z(lo, hi))
        passes = []
        block_records = corrstats._block_records

        def counted(*args):
            passes.append(args)
            return block_records(*args)

        monkeypatch.setattr(corrstats, "_block_records", counted)
        hist = _kernels.hist_accumulate

        def in_range(z, lo, scale, counts):
            # the kernel's precondition: every value's bin index lies in [0, bins]
            idx = (z - lo) * scale
            assert 0.0 <= idx.min(initial=0.0) and idx.max(initial=0.0) < counts.shape[0] + 1
            hist(z, lo, scale, counts)

        monkeypatch.setattr(_kernels, "hist_accumulate", in_range)
        monkeypatch.setattr(corrstats, "_TILE", 6)
        same_summary(z_summary(values, 17), z_summary_oracle(values, 17, 6))
        assert len(passes) == 3

    def test_no_thread_left_after_normal_run(self, monkeypatch):
        def refused(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refused)
        monkeypatch.setattr(corrstats, "_TILE", 4)
        with cut_into(2):
            z_summary(random_matrix(m=30))
            all_pairs_summary(random_matrix(m=30))

    def test_no_thread_left_after_caller_error(self, monkeypatch):
        calls = []

        def failing(values, lo, scale, counts):
            calls.append(values.shape[0])
            if len(calls) == 2:
                raise RuntimeError("caller failed")

        # one part: every tile bins through hist_accumulate in this process
        monkeypatch.setattr(_kernels, "hist_accumulate", failing)
        monkeypatch.setattr(corrstats, "_TILE", 4)
        with pytest.raises(RuntimeError, match="caller failed"):
            z_summary(random_matrix(m=40))
        assert len(calls) == 2

    def test_error_raised_at_first_faulty_tile(self, monkeypatch):
        # 40 rows in blocks of 4: 55 tiles. Each part count puts the faulty
        # tiles in other parts; the first in canonical order is raised,
        # whichever part, in a child or here, meets one first.
        values = random_matrix(m=40, seed=9)
        index = {vals: t for t, vals in enumerate(canonical_tiles(values, 4))}
        assert len(index) == 55
        extremes = corrstats._extremes

        def faulty(r):
            t = index[r.tobytes()]
            if t in bad:
                raise DomainError(f"tile {t}")
            return extremes(r)

        monkeypatch.setattr(corrstats, "_extremes", faulty)
        monkeypatch.setattr(corrstats, "_TILE", 4)
        for bad in ({30, 54}, {0, 40}, {20, 21, 50}, {54}):
            for k in (1, 2, 3):
                before = child_pids()
                with cut_into(k), pytest.raises(DomainError) as got:
                    z_summary(values)
                assert str(got.value) == f"tile {min(bad)}"
                assert child_pids() == before


class TestSerialization:
    def test_histogram_csv_shape(self):
        s = all_pairs_summary(random_matrix(), bins=4)
        lines = histogram_to_csv(s.histogram).splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 5

    def test_summary_json_keys(self):
        import json
        s = all_pairs_summary(random_matrix())
        payload = json.loads(summary_header_json(s))
        assert payload["pair_count"] == s.pair_count
        assert payload["theoretical_sd"] is None
        z = z_summary(random_matrix(m=5, n=12))
        zp = json.loads(summary_header_json(z))
        assert zp["theoretical_sd"] == pytest.approx(1 / math.sqrt(9))
