import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deltaseq import (
    ExpressionMatrix,
    ValidationError,
    delta_sequence,
    even_rank_genes,
    variance_ordering,
)
from deltaseq import _kernels, select_arrays
from deltaseq.ordering import (
    DeltaMatrix,
    GeneOrdering,
    delta_to_tsv,
    ordering_to_csv,
    rows_under_test,
)

from helpers import variance_ordering_oracle


def matrix_from(values, log_scale=True):
    values = np.asarray(values, dtype=np.float64)
    gene_ids = tuple(f"g{i}" for i in range(values.shape[0]))
    array_ids = tuple(f"a{j}" for j in range(values.shape[1]))
    return ExpressionMatrix(gene_ids, array_ids, values, log_scale)


class TestVarianceOrdering:
    def test_sorts_by_sample_variance(self):
        m = matrix_from([
            [0, 0, 0, 4],     # var 4
            [0, 0, 0, 2],     # var 1
            [0, 0, 0, 40],    # var 400
            [0, 0, 0, 20],    # var 100
        ])
        o = variance_ordering(m)
        assert o.permutation.tolist() == [1, 0, 3, 2]
        assert np.allclose(o.variances, [1.0, 4.0, 100.0, 400.0])

    def test_ties_keep_input_order(self):
        m = matrix_from([[0, 0, 0, 2], [0, 0, 0, 2], [0, 0, 0, 1]] * 2)
        o = variance_ordering(m)
        tied = [i for i in o.permutation.tolist() if i % 3 != 2]
        assert tied == sorted(tied)

    def test_odd_gene_count_drops_lowest(self):
        m = matrix_from([
            [0, 0, 0, 4],
            [0, 0, 0, 2],   # lowest variance, dropped
            [0, 0, 0, 8],
        ])
        o = variance_ordering(m)
        assert o.permutation.tolist() == [0, 2]
        assert o.n_pairs == 1

    def test_accepts_plain_array(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(6, 5))
        o = variance_ordering(values)
        assert (np.diff(o.variances) >= 0).all()
        v = values.var(axis=1, ddof=1)
        assert np.array_equal(np.sort(v), v[o.permutation])

    def test_constructor_validates(self):
        with pytest.raises(ValidationError, match="positive even length"):
            GeneOrdering(np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))  # odd length
        with pytest.raises(ValidationError, match="must be distinct"):
            GeneOrdering(np.array([0, 0]), np.array([1.0, 2.0]))  # repeated index
        with pytest.raises(ValidationError, match="non-decreasing"):
            GeneOrdering(np.array([0, 1]), np.array([2.0, 1.0]))  # decreasing variance
        with pytest.raises(ValidationError, match="equal length"):
            GeneOrdering(np.array([0, 1]), np.array([1.0, 2.0, 3.0]))
        for variances in ([np.nan, 0.0], [0.0, np.inf]):  # no order to claim
            with pytest.raises(ValidationError, match="variances must be finite"):
                GeneOrdering(np.array([1, 0]), np.array(variances))

    def test_hand_built_arrays_are_read_only_copies(self):
        perm = np.array([1, 0])
        o = GeneOrdering(perm, np.array([1.0, 2.0]))
        assert o.permutation is not perm
        assert not o.permutation.flags.writeable and not o.variances.flags.writeable

    def test_builds_without_constructor_checks(self, monkeypatch):
        def refuse(self):
            raise AssertionError("variance_ordering re-validated its ordering")

        monkeypatch.setattr(GeneOrdering, "__post_init__", refuse)
        values = np.random.default_rng(7).normal(size=(7, 5))
        o = variance_ordering(values)
        var = values.var(axis=1, ddof=1)
        assert o.permutation.tolist() == np.argsort(var, kind="stable")[1:].tolist()
        assert np.array_equal(o.variances, var[o.permutation])
        assert o.permutation.dtype == np.int64 and o.variances.dtype == np.float64
        assert not o.permutation.flags.writeable and not o.variances.flags.writeable
        with pytest.raises(ValueError):
            o.permutation[0] = 0

    @pytest.mark.parametrize("columns, message", [
        ([0, 1, -1], r"array index -1 out of range \[0, 5\)"),
        ([0, 1, 5], r"array index 5 out of range \[0, 5\)"),
        ([0, 2, 2], "array indices must be distinct"),
        # fewer than MIN_ARRAYS columns: refused before any variance is taken
        ([2], "need at least 4 array indices"),
        ([], "need at least 4 array indices"),
    ])
    def test_bad_columns_rejected_as_select_arrays_does(self, columns, message):
        values = np.random.default_rng(3).normal(size=(6, 5))
        for source in (values, matrix_from(values), (values[:, :2], values[:, 2:])):
            with warnings.catch_warnings(), pytest.raises(ValidationError, match=message):
                warnings.simplefilter("error")
                variance_ordering(source, columns=np.array(columns))
        with pytest.raises(ValidationError, match=message):
            select_arrays(matrix_from(values), columns + [3])

    @pytest.mark.parametrize("width", [1, 3])
    def test_fewer_arrays_than_min_rejected(self, width, monkeypatch):
        def no_variances(*args):
            raise AssertionError("variances taken before the width was checked")

        monkeypatch.setattr(_kernels, "row_variances", no_variances)
        values = np.random.default_rng(4).normal(size=(6, width))
        for source in (values, (values[:, :1], values[:, 1:])):
            with pytest.raises(ValidationError, match=f"need at least 4 arrays, got {width}"):
                variance_ordering(source)

    def test_values_not_2d_rejected(self, monkeypatch):
        # a 1-d part raised a bare IndexError from the width sum
        def no_variances(*args):
            raise AssertionError("variances taken before the shapes were checked")

        monkeypatch.setattr(_kernels, "row_variances", no_variances)
        wide = np.zeros((6, 4))
        for source in (np.arange(6.0), np.zeros((6, 4, 2)), (wide, np.arange(6.0)),
                       (np.arange(6.0), wide)):
            with pytest.raises(ValidationError, match="values must be 2-d"):
                variance_ordering(source)

    @pytest.mark.parametrize("rows", [(5, 6), (6, 5)])
    def test_parts_of_unequal_rows_rejected(self, rows, monkeypatch):
        # the taller second part's last row went unread; a taller first part
        # raised a bare numpy ValueError
        def no_variances(*args):
            raise AssertionError("variances taken before the shapes were checked")

        monkeypatch.setattr(_kernels, "row_variances", no_variances)
        source = tuple(np.random.default_rng(m).normal(size=(m, 4)) for m in rows)
        with pytest.raises(ValidationError, match="one row count"):
            variance_ordering(source)

    def test_single_gene_rejected(self):
        with pytest.raises(ValidationError, match="positive even length"):
            variance_ordering(np.arange(5.0)[None, :])


class TestRowBlocks:
    """With blocks of 7 rows, the ordering equals the stable argsort of one
    whole-array ``var(ddof=1)``, bit for bit, at and around block edges."""

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)

    @pytest.mark.parametrize("layout", ["C", "F", "projected"])
    @pytest.mark.parametrize("columns", ["all", "kept", "permuted"])
    @pytest.mark.parametrize("m", [6, 7, 8, 9, 13, 14, 15, 21, 22])
    def test_equals_whole_array_argsort(self, m, columns, layout):
        # 11 arrays: numpy sums a row of 8 or more pairwise when it reduces
        # it alone, and in order across the columns of a strided block, so
        # a lone row at a block edge would change the low bits
        rng = np.random.default_rng(m)
        values = np.round(rng.normal(size=(m, 11)) * rng.uniform(0.2, 3.0, size=(m, 1)), 1)
        source = {"C": values, "F": np.asfortranarray(values),
                  "projected": select_arrays(matrix_from(values), rng.permutation(11)).values}[layout]
        cols = {"all": None, "kept": np.sort(rng.choice(11, size=9, replace=False)),
                "permuted": rng.permutation(11)}[columns]
        var = (source if cols is None else source[:, cols]).var(axis=1, ddof=1)
        want = np.argsort(var, kind="stable")[m % 2 :]
        o = variance_ordering(source, columns=cols)
        assert o.permutation.tolist() == want.tolist()
        assert o.variances.view(np.int64).tolist() == var[want].view(np.int64).tolist()

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("m", [7, 8, 13, 15, 22])
    def test_pooled_pair_equals_concatenated(self, m, layout):
        # two phenotypes over one gene universe are pooled a block at a time,
        # without the whole concatenated copy, and give its bits
        rng = np.random.default_rng(100 + m)
        scale = rng.uniform(0.2, 3.0, size=(m, 1))
        a, b = (np.round(rng.normal(size=(m, n)) * scale, 1) for n in (6, 5))
        a[1] = -a[0]  # a variance tie across the pooled row, bit for bit
        b[1] = -b[0]
        want = variance_ordering_oracle(np.concatenate([a, b], axis=1))
        order = {"C": np.ascontiguousarray, "F": np.asfortranarray}[layout]
        got = variance_ordering((order(a), order(b)))
        assert got.permutation.tolist() == want.permutation.tolist()
        assert got.variances.view(np.int64).tolist() == want.variances.view(np.int64).tolist()

    def test_matrix_and_columns(self):
        # an ExpressionMatrix is read through its values, columns gathered per block
        rng = np.random.default_rng(3)
        m = matrix_from(np.round(rng.normal(size=(15, 10)), 1))
        keep = np.array([0, 2, 3, 5, 6, 9])
        want = variance_ordering(m.values[:, keep])
        got = variance_ordering(m, columns=keep)
        assert np.array_equal(got.permutation, want.permutation)
        assert np.array_equal(got.variances, want.variances)


class TestDeltaSequence:
    def test_hand_example(self):
        m = matrix_from([
            [1.0, 1.0, 1.0, 2.0],    # var lowest
            [1.0, 1.0, 1.0, 5.0],
            [10.0, 10.0, 10.0, 30.0],
            [10.0, 10.0, 10.0, 16.0],
        ])
        o = variance_ordering(m)
        assert o.permutation.tolist() == [0, 1, 3, 2]
        d = delta_sequence(m, o)
        assert d.n_pairs == 2
        assert np.allclose(d.values[0], m.values[1] - m.values[0])
        assert np.allclose(d.values[1], m.values[2] - m.values[3])
        assert d.row_ids[0] == "pair1:g0-g1"
        assert d.row_ids[1] == "pair2:g3-g2"

    def test_array_constant_shift_cancels(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(8, 6))
        m = matrix_from(values)
        o = variance_ordering(m)
        shifted = matrix_from(values + rng.normal(size=(1, 6)))
        d0 = delta_sequence(m, o)
        d1 = delta_sequence(shifted, o)
        assert np.allclose(d0.values, d1.values, atol=1e-12)

    def test_ordering_enforceable_on_other_sample(self):
        rng = np.random.default_rng(2)
        a = matrix_from(rng.normal(size=(6, 5)))
        b = matrix_from(rng.normal(size=(6, 7)))
        o = variance_ordering(a)
        d = delta_sequence(b, o)
        assert d.n_arrays == 7
        lows = o.permutation[0::2]
        highs = o.permutation[1::2]
        assert np.array_equal(d.values, b.values[highs] - b.values[lows])

    def test_ordering_out_of_bounds_rejected(self):
        a = matrix_from(np.random.default_rng(3).normal(size=(8, 5)))
        b = matrix_from(np.random.default_rng(4).normal(size=(4, 5)))
        with pytest.raises(ValidationError):
            delta_sequence(b, variance_ordering(a))

    def test_keeps_its_difference_array(self, monkeypatch):
        def refuse(self):
            raise AssertionError("delta_sequence copied its difference array")

        monkeypatch.setattr(DeltaMatrix, "__post_init__", refuse)
        m = matrix_from(np.random.default_rng(9).normal(size=(6, 5)))
        o = variance_ordering(m)
        d = delta_sequence(m, o)
        assert np.array_equal(d.values, m.values[o.permutation[1::2]] - m.values[o.permutation[0::2]])
        assert d.values.flags.c_contiguous and d.values.flags.owndata
        assert d.row_ids[0].startswith("pair1:") and d.array_ids == m.array_ids
        with pytest.raises(ValueError):
            d.values[0, 0] = 0.0

    @pytest.mark.parametrize("values, row_ids, array_ids, message", [
        (np.zeros((3, 2)), ("p1",), ("a", "b"), "row ids: 1 for 3 rows"),
        (np.zeros((1, 2)), ("p1",), ("a", "b", "c"), "array ids: 3 for 2 columns"),
        (np.zeros(2), ("p1",), ("a", "b"), "2-d"),
        (np.zeros((2, 2)), ("p1", "p1"), ("a", "b"), "duplicate row id: 'p1'"),
        (np.zeros((2, 2)), ("p1", "p2"), ("a", "a"), "duplicate array id: 'a'"),
    ])
    def test_constructor_refuses_ids_that_miss_the_values(self, values, row_ids, array_ids,
                                                          message):
        # delta_to_tsv wrote one row of three under these ids
        with pytest.raises(ValidationError, match=message):
            DeltaMatrix(values, row_ids, array_ids)

    def test_constructor_copies(self):
        values = np.arange(8.0).reshape(2, 4)
        d = DeltaMatrix(values, ("p1", "p2"), ("a", "b", "c", "d"))
        values[0, 0] = 99.0
        assert d.values[0, 0] == 0.0
        assert not d.values.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (8, 5),
                      elements=st.floats(min_value=-50, max_value=50, allow_nan=False)))
    def test_rows_are_high_minus_low(self, values):
        m = matrix_from(values)
        o = variance_ordering(m)
        d = delta_sequence(m, o)
        assert np.array_equal(
            d.values, values[o.permutation[1::2]] - values[o.permutation[0::2]]
        )
        pair_vars = o.variances.reshape(-1, 2)
        assert (pair_vars[:, 0] <= pair_vars[:, 1]).all()


class TestHelpers:
    def test_even_rank_genes(self):
        m = matrix_from(np.random.default_rng(5).normal(size=(6, 5)))
        o = variance_ordering(m)
        assert np.array_equal(even_rank_genes(o), o.permutation[1::2])

    def test_ordering_csv(self):
        m = matrix_from([[0, 0, 0, 2], [0, 0, 0, 4]])
        o = variance_ordering(m)
        lines = ordering_to_csv(o, m).splitlines()
        assert lines[0] == "rank,gene_id,variance"
        assert lines[1] == "1,g0,1.0"
        assert lines[2] == "2,g1,4.0"

    def test_delta_tsv_header(self):
        m = matrix_from(np.random.default_rng(6).normal(size=(4, 4)))
        d = delta_sequence(m, variance_ordering(m))
        head = delta_to_tsv(d).splitlines()[0]
        assert head == b"gene_id\ta0\ta1\ta2\ta3"


class TestRowsUnderTest:
    """Each kind of row, with 7-row blocks, along the matrix's own ordering
    and along one pooled with a second phenotype: the values and labels of
    ``delta_sequence``, ``even_rank_genes`` and the plain gene rows, bit for
    bit."""

    @pytest.mark.parametrize("kind", ["genes", "delta", "even"])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_kind_matches_its_definition(self, kind, pooled, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(21)
        scale = rng.uniform(0.2, 3.0, size=(23, 1))
        a, b = (matrix_from(np.round(rng.normal(size=(23, n)) * scale, 1)) for n in (9, 6))
        ordering = (variance_ordering_oracle(np.concatenate([a.values, b.values], axis=1))
                    if pooled else None)
        want_order = ordering if pooled else variance_ordering_oracle(a.values)
        values, row_ids = rows_under_test(a, kind, ordering)
        if kind == "genes":
            assert values is a.values  # the matrix itself, not a copy
            assert row_ids == a.gene_ids
        elif kind == "delta":
            want = delta_sequence(a, want_order)
            assert values.tobytes() == want.values.tobytes()
            assert row_ids == want.row_ids
        else:
            idx = even_rank_genes(want_order)
            assert values.tobytes() == a.values[idx].tobytes()
            assert row_ids == tuple(a.gene_ids[i] for i in idx.tolist())
        assert values.shape[0] == len(row_ids)

    def test_unknown_kind_rejected(self):
        m = matrix_from(np.random.default_rng(5).normal(size=(6, 5)))
        with pytest.raises(ValidationError, match="rows must be one of"):
            rows_under_test(m, "expression")
