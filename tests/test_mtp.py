import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltaseq import ValidationError, confusion_counts, extended_bonferroni
from deltaseq.mtp import csv_text, report_to_csv, report_to_json


class TestExtendedBonferroni:
    def test_threshold_is_budget_over_m(self):
        p = np.linspace(0.0001, 0.9, 3542)
        report = extended_bonferroni(p, pfer=9.0)
        assert report.threshold == pytest.approx(9.0 / 3542, rel=1e-15)
        assert report.m == 3542

    def test_rejections_on_hand_vector(self):
        # 0.375/6 = 1/16 is exact in binary, so the boundary case is clean
        p = [0.001, 0.5, 0.002, 0.049, 0.0625, 0.07]
        report = extended_bonferroni(p, pfer=0.375)
        assert report.threshold == 0.0625
        assert report.rejected.tolist() == [0, 2, 3, 4]  # boundary p included
        assert report.n_rejected == 4

    def test_budget_above_m_rejects_everything(self):
        p = np.full(5, 0.999)
        report = extended_bonferroni(p, pfer=10.0)
        assert report.threshold == 1.0
        assert report.n_rejected == 5

    def test_budget_may_exceed_one(self):
        # the control target is an expected count, not a probability
        report = extended_bonferroni(np.linspace(0, 1, 100), pfer=5.0)
        assert report.pfer == 5.0
        assert report.threshold == pytest.approx(0.05)

    def test_bad_pvalue_is_named(self):
        with pytest.raises(ValidationError, match="index 2"):
            extended_bonferroni([0.1, 0.2, 1.5], pfer=1.0)

    def test_bad_pfer(self):
        with pytest.raises(ValidationError):
            extended_bonferroni([0.1], pfer=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            extended_bonferroni([], pfer=1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
           st.floats(0.01, 20.0))
    def test_rejection_count_monotone_in_budget(self, p, pfer):
        small = extended_bonferroni(p, pfer)
        large = extended_bonferroni(p, pfer * 2)
        assert large.n_rejected >= small.n_rejected
        assert set(small.rejected.tolist()) <= set(large.rejected.tolist())


class TestConfusionCounts:
    def test_hand_example(self):
        p = [0.001, 0.9, 0.002, 0.8, 0.003]
        truth = [True, True, False, False, False]
        report = confusion_counts(extended_bonferroni(p, pfer=0.05), truth)
        # rejected: 0, 2, 4; true signals: 0, 1
        assert report.tp == 1
        assert report.fp == 2
        assert report.fdr == pytest.approx(2 / 3)

    def test_no_rejections_fdr_zero(self):
        report = confusion_counts(extended_bonferroni([0.9, 0.8], pfer=0.01),
                                  [True, False])
        assert report.fp == 0
        assert report.fdr == 0.0

    def test_truth_length_checked(self):
        with pytest.raises(ValidationError):
            confusion_counts(extended_bonferroni([0.5, 0.5], pfer=1.0), [True])

    def test_expected_false_positives_bounded(self):
        # uniform nulls: mean false positive count stays near the budget
        rng = np.random.default_rng(0)
        pfer = 3.0
        m = 500
        fps = []
        for _ in range(400):
            report = confusion_counts(
                extended_bonferroni(rng.uniform(size=m), pfer), np.zeros(m, dtype=bool)
            )
            fps.append(report.fp)
        mean = np.mean(fps)
        # Binomial(500, 0.006): sd of the mean over 400 panels ~ 0.086
        assert abs(mean - pfer) < 4 * 0.0865


class TestSerialization:
    def test_json_round_trip(self):
        report = confusion_counts(
            extended_bonferroni([0.001, 0.5, 0.002], pfer=0.15), [True, False, False]
        )
        payload = json.loads(report_to_json(report))
        assert payload["m"] == 3
        assert payload["n_rejected"] == 2
        assert payload["fp"] == 1
        assert payload["tp"] == 1
        assert payload["fdr"] == pytest.approx(0.5)

    def test_csv_without_truth(self):
        report = extended_bonferroni([0.01, 0.9], pfer=0.5)
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "index,p,rejected,truth"
        assert lines[1] == "0,0.01,1,"
        assert lines[2] == "1,0.9,0,"

    def test_csv_with_row_ids(self):
        report = extended_bonferroni([0.01, 0.9], pfer=0.5)
        lines = report_to_csv(report, row_ids=("alpha", "beta")).splitlines()
        assert lines[0] == "row_id,p,rejected,truth"
        assert lines[1].startswith("alpha,")

    def test_csv_row_id_length_checked(self):
        report = extended_bonferroni([0.01, 0.9], pfer=0.5)
        with pytest.raises(ValidationError):
            report_to_csv(report, row_ids=("only-one",))


# ids may hold any printable text, spaces and non-ASCII included, but no comma
_CSV_IDS = st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=","),
                   max_size=8)
_CSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308])
_CSV_ROWS = st.lists(st.tuples(_CSV_IDS, _CSV_FLOATS, st.integers(-2**63, 2**63 - 1),
                               st.booleans()), max_size=12)


class TestCsvText:
    @settings(max_examples=200, deadline=None)
    @given(_CSV_ROWS)
    @example([])
    @example([("g é 1", -0.0, 0, True), ("two words", 5e-324, -7, False),
              ("ß", 1e308, 2**63 - 1, True)])
    def test_matches_per_cell_reference(self, rows):
        ids = [r[0] for r in rows]
        xs = np.array([r[1] for r in rows], dtype=np.float64)
        ks = np.array([r[2] for r in rows], dtype=np.int64)
        flags = np.array([r[3] for r in rows], dtype=bool)
        got = csv_text("id,x,k,flag", ids, xs, ks, flags)
        want = "".join(["id,x,k,flag\n"] + [f"{i},{x!r},{k},{int(f)}\n" for i, x, k, f in rows])
        assert got == want
        lines = got.split("\n")
        assert lines[-1] == "" and len(lines) == len(rows) + 2
        back = np.array([float(line.split(",")[1]) for line in lines[1:-1]], dtype=np.float64)
        assert back.view(np.int64).tolist() == xs.view(np.int64).tolist()
