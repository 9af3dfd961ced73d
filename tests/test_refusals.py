"""Input refusals of the library: each names its fault in a DeltaseqError.

One case per refusal that no other test reaches, and the one seed rule every
random stream of the package goes through (``errors._seed_sequence``).
"""

import re

import numpy as np
import pytest

from deltaseq import (
    ChainSpec,
    EDF,
    ExpressionMatrix,
    InjectionConfig,
    NoiseModel,
    ParseError,
    StepFunction,
    TripleCovarianceModel,
    ValidationError,
    add_noise,
    all_pairs_summary,
    effect_injection_experiment,
    generate_chain_matrix,
    generate_null_matrix,
    jackknife_stability,
    kolmogorov_distance,
    load_matrix,
    mean_of_edfs,
    moving_mean_consistency,
    null_split_experiment,
    pearson,
    triple_census,
    type_a_census,
)
from deltaseq.errors import _seed_sequence
from deltaseq.synth import spec_from_json


@pytest.fixture(scope="module")
def matrix():
    return generate_null_matrix(m=12, n=10, shared_factor_sd=0.5, gene_sd=1.0, seed=3)


def _table(tmp_path, text):
    path = tmp_path / "m.tsv"
    path.write_text(text, encoding="utf-8")
    return load_matrix(path)


def _spec(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    return spec_from_json(path)


def _config(**changes):
    fields = dict(split=(5, 5), n_modified=1, effect_multiplier=1.0, n1=3, n2=3,
                  replicates=2, pfer=1.0, seed=0)
    return InjectionConfig(**{**fields, **changes})


@pytest.mark.parametrize("refused, error, message", [
    pytest.param(lambda m, t: ExpressionMatrix(("g1",), tuple("abcd"), np.ones((1, 4)), True),
                 ValidationError, "need at least 2 genes, got 1", id="one-gene"),
    pytest.param(lambda m, t: _table(t, "gene_id\ng1\ng2\n"), ParseError,
                 "line 1: header must name at least one array column", id="header-no-array"),
    pytest.param(lambda m, t: _table(t, "gene_id\ta\tb\tc\td\ng1 1 2 3 4\ng2\t1\t2\t3\t4\n"),
                 ParseError, "line 2: expected gene id and values, got 1 column(s)",
                 id="line-no-tab"),
    pytest.param(lambda m, t: pearson(np.ones((2, 3)), np.ones((2, 3))), ValidationError,
                 "pearson expects 1-d sequences", id="pearson-2d"),
    pytest.param(lambda m, t: all_pairs_summary(np.arange(5.0)), ValidationError,
                 "expected a matrix-like source with 2-d values", id="summary-1d"),
    pytest.param(lambda m, t: triple_census(m, 3, mode="x"), ValidationError,
                 "mode must be one of ('type_a_only', 'any'), got 'x'", id="triple-mode"),
    pytest.param(lambda m, t: TripleCovarianceModel(1.0, 1.0, 1.0, float("nan")),
                 ValidationError, "cov_ab must be finite", id="cov-ab-nan"),
    pytest.param(lambda m, t: null_split_experiment(m, 3, 3, mode="x"), ValidationError,
                 "mode must be one of ('delta', 'expression'), got 'x'", id="null-mode"),
    pytest.param(lambda m, t: jackknife_stability(m, 2, 0, 2), ValidationError,
                 "B must be >= 1, got 0", id="jackknife-B"),
    pytest.param(lambda m, t: _config(n_modified=-1), ValidationError,
                 "n_modified must be >= 0", id="inject-n-modified"),
    pytest.param(lambda m, t: moving_mean_consistency(np.ones((6, 1)), 1, 2), ValidationError,
                 "need at least 2 arrays", id="moving-one-array"),
    pytest.param(lambda m, t: StepFunction(np.array([0.0, 1.0]), np.array([1.0])),
                 ValidationError, "step function needs matching nonempty xs and ys",
                 id="step-lengths"),
    pytest.param(lambda m, t: mean_of_edfs([]), ValidationError, "need at least one EDF",
                 id="mean-no-edf"),
    pytest.param(lambda m, t: kolmogorov_distance(object(), EDF.from_sample([1.0, 2.0])),
                 ValidationError, "cannot interpret object as a step function",
                 id="distance-object"),
    pytest.param(lambda m, t: generate_null_matrix(m=1, n=4, shared_factor_sd=0.0,
                                                   gene_sd=1.0, seed=0),
                 ValidationError, "need m >= 2 and n >= 4, got m=1, n=4", id="null-one-gene"),
    pytest.param(lambda m, t: _spec(t, "[1, 2]"), ValidationError,
                 "must be an object with a 'kind' key", id="spec-list"),
])
def test_refusal_names_its_fault(refused, error, message, matrix, tmp_path):
    with pytest.raises(error, match=re.escape(message)):
        refused(matrix, tmp_path)


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, True, None, "3", np.float64(4.0)],
                         ids=["negative", "float", "fraction", "bool", "none", "str", "np-float"])
def test_seed_rule_refuses_what_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValidationError, match=re.escape(
            f"noise seed must be a non-negative integer, got {seed!r}")):
        _seed_sequence(seed, "noise seed")


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**70])
def test_seed_rule_draws_the_stream_of_the_raw_seed(seed):
    ours = np.random.default_rng(_seed_sequence(seed)).random(5)
    assert ours.tobytes() == np.random.default_rng(int(seed)).random(5).tobytes()


SEEDED = [
    pytest.param(lambda m, s: type_a_census(m, 3, seed=s), "seed", id="type-a"),
    pytest.param(lambda m, s: triple_census(m, 3, seed=s), "seed", id="triples"),
    pytest.param(lambda m, s: null_split_experiment(m, 3, 3, seed=s), "seed", id="null-split"),
    pytest.param(lambda m, s: jackknife_stability(m, 2, 2, 2, seed=s), "seed", id="jackknife"),
    pytest.param(lambda m, s: effect_injection_experiment(m, _config(seed=s)), "seed",
                 id="injection"),
    pytest.param(lambda m, s: generate_chain_matrix(ChainSpec(
        m=8, n=4, chain_length=2, base_sd=1.0, increment_sd=1.0, shared_factor_sd=0.0,
        seed=s)), "seed", id="chain"),
    pytest.param(lambda m, s: generate_null_matrix(m=4, n=4, shared_factor_sd=0.0, gene_sd=1.0,
                                                   seed=s), "seed", id="null"),
    pytest.param(lambda m, s: add_noise(m, NoiseModel("gene-array", 0.1), seed=s),
                 "noise seed", id="noise"),
]


@pytest.mark.parametrize("seeded, name", SEEDED)
def test_every_stream_refuses_a_negative_seed(seeded, name, matrix):
    with pytest.raises(ValidationError,
                       match=f"^{name} must be a non-negative integer, got -1$"):
        seeded(matrix, -1)


@pytest.mark.parametrize("seeded, name", SEEDED)
def test_every_stream_starts_from_a_seed_sequence(seeded, name, matrix, monkeypatch):
    # numpy never sees a raw seed, so none escapes the seed rule
    seen = []
    default_rng = np.random.default_rng

    def spy(seed):
        seen.append(type(seed))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    seeded(matrix, 5)
    assert seen and set(seen) == {np.random.SeedSequence}
