import json

import numpy as np
import pytest

from deltaseq import (
    ChainSpec,
    NoiseModel,
    ValidationError,
    add_noise,
    delta_sequence,
    generate_chain_matrix,
    generate_null_matrix,
    variance_ordering,
)
from deltaseq.synth import spec_from_json, spec_to_dict


def chain_spec(**over):
    base = dict(m=40, n=50, chain_length=4, base_sd=0.5, increment_sd=0.5,
                shared_factor_sd=0.0, seed=11)
    base.update(over)
    return ChainSpec(**base)


class TestChainGenerator:
    def test_shape_and_ids(self):
        m = generate_chain_matrix(chain_spec())
        assert m.n_genes == 40
        assert m.n_arrays == 50
        assert m.log_scale
        assert m.gene_ids[0] == "c0001g01"
        assert m.gene_ids[4] == "c0002g01"
        assert m.array_ids[0] == "A1"

    def test_deterministic(self):
        a = generate_chain_matrix(chain_spec())
        b = generate_chain_matrix(chain_spec())
        assert np.array_equal(a.values, b.values)

    def test_variance_grows_along_chain(self):
        m = generate_chain_matrix(chain_spec(m=4, chain_length=4, n=4000, seed=1))
        var = m.values.var(axis=1, ddof=1)
        assert var[0] < var[1] < var[2] < var[3]

    def test_consecutive_increment_independent_of_driver(self):
        m = generate_chain_matrix(chain_spec(m=2, chain_length=2, n=5000, seed=2))
        x = m.values[0]
        z = m.values[1] - m.values[0]
        r = float(np.corrcoef(x, z)[0, 1])
        assert abs(r) < 0.05

    def test_shared_factor_is_added_after_the_chains(self):
        # same seed: the factor shifts whole arrays, so within-array gene
        # differences survive almost unchanged
        plain = generate_chain_matrix(chain_spec(seed=3))
        lifted = generate_chain_matrix(chain_spec(seed=3, shared_factor_sd=2.0))
        diff_plain = plain.values[1] - plain.values[0]
        diff_lifted = lifted.values[1] - lifted.values[0]
        assert np.allclose(diff_plain, diff_lifted, atol=1e-9)
        assert not np.allclose(plain.values, lifted.values)

    def test_shared_factor_induces_cross_chain_correlation(self):
        m = generate_chain_matrix(chain_spec(m=8, chain_length=2, n=2000,
                                             base_sd=0.1, increment_sd=0.1,
                                             shared_factor_sd=1.0, seed=4))
        r = float(np.corrcoef(m.values[0], m.values[6])[0, 1])  # different chains
        assert r > 0.9

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            chain_spec(m=41)  # not divisible by chain_length
        with pytest.raises(ValidationError):
            chain_spec(chain_length=1)
        with pytest.raises(ValidationError):
            chain_spec(base_sd=0.0)
        with pytest.raises(ValidationError):
            chain_spec(increment_sd=-1.0)
        with pytest.raises(ValidationError):
            chain_spec(n=3)


class TestNullGenerator:
    def test_shape_and_determinism(self):
        a = generate_null_matrix(m=30, n=12, shared_factor_sd=0.5, gene_sd=0.3, seed=5)
        b = generate_null_matrix(m=30, n=12, shared_factor_sd=0.5, gene_sd=0.3, seed=5)
        assert a.n_genes == 30
        assert np.array_equal(a.values, b.values)

    def test_factor_dominates_gene_correlations(self):
        m = generate_null_matrix(m=40, n=500, shared_factor_sd=1.0, gene_sd=0.3, seed=6)
        r = float(np.corrcoef(m.values[0], m.values[1])[0, 1])
        # population value 1/(1 + 0.09) ~ 0.917
        assert r > 0.8

    def test_deltas_forget_the_factor(self):
        m = generate_null_matrix(m=40, n=500, shared_factor_sd=1.0, gene_sd=0.3, seed=7)
        d = delta_sequence(m, variance_ordering(m))
        r = float(np.corrcoef(d.values[0], d.values[1])[0, 1])
        assert abs(r) < 0.15


class TestAddNoise:
    def test_zero_sd_is_identity(self):
        m = generate_null_matrix(m=10, n=8, shared_factor_sd=0.0, gene_sd=1.0, seed=8)
        out = add_noise(m, NoiseModel("gene-array", 0.0), seed=1)
        assert np.array_equal(out.values, m.values)

    def test_gene_array_noise_changes_cells_independently(self):
        m = generate_null_matrix(m=10, n=8, shared_factor_sd=0.0, gene_sd=1.0, seed=9)
        out = add_noise(m, NoiseModel("gene-array", 0.5), seed=2)
        diff = out.values - m.values
        assert (np.abs(diff) > 0).all()
        # columns are not constant shifts
        assert np.abs(diff - diff.mean(axis=0, keepdims=True)).max() > 0.01

    def test_array_only_noise_is_a_column_shift(self):
        m = generate_null_matrix(m=10, n=8, shared_factor_sd=0.0, gene_sd=1.0, seed=10)
        out = add_noise(m, NoiseModel("array-only", 0.5), seed=3)
        diff = out.values - m.values
        assert np.allclose(diff, diff[0:1, :], atol=1e-15)

    def test_array_only_noise_cancels_in_deltas(self):
        m = generate_null_matrix(m=10, n=8, shared_factor_sd=0.0, gene_sd=1.0, seed=11)
        noisy = add_noise(m, NoiseModel("array-only", 2.0), seed=4)
        o = variance_ordering(m)
        assert np.allclose(delta_sequence(m, o).values,
                           delta_sequence(noisy, o).values, atol=1e-12)

    def test_deterministic_in_seed(self):
        m = generate_null_matrix(m=6, n=6, shared_factor_sd=0.0, gene_sd=1.0, seed=12)
        a = add_noise(m, NoiseModel("gene-array", 0.5), seed=5)
        b = add_noise(m, NoiseModel("gene-array", 0.5), seed=5)
        assert np.array_equal(a.values, b.values)


class TestSpecIO:
    def test_chain_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        payload = {"kind": "chain", "m": 8, "n": 6, "chain_length": 2,
                   "base_sd": 0.1, "increment_sd": 0.2, "shared_factor_sd": 0.0,
                   "seed": 3}
        path.write_text(json.dumps(payload))
        kind, spec = spec_from_json(path)
        assert kind == "chain"
        assert spec == ChainSpec(**{k: v for k, v in payload.items() if k != "kind"})
        assert spec_to_dict(kind, spec)["kind"] == "chain"

    def test_null_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        payload = {"kind": "null", "m": 8, "n": 6, "shared_factor_sd": 0.5,
                   "gene_sd": 0.3, "seed": 4}
        path.write_text(json.dumps(payload))
        kind, spec = spec_from_json(path)
        assert kind == "null"
        generate_null_matrix(**spec)  # keys are exactly the generator's args

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "lognormal"}')
        with pytest.raises(ValidationError):
            spec_from_json(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "null", "m": 8}')
        with pytest.raises(ValidationError):
            spec_from_json(path)

    @pytest.mark.parametrize("key, value", [("m", 8.0), ("chain_length", True), ("seed", "3"),
                                            ("base_sd", False), ("increment_sd", None)])
    def test_mistyped_chain_value(self, key, value, tmp_path):
        path = tmp_path / "spec.json"
        payload = {"kind": "chain", "m": 8, "n": 6, "chain_length": 2, "base_sd": 0.1,
                   "increment_sd": 0.2, "shared_factor_sd": 0.0, "seed": 3, key: value}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"chain spec: {key} must be"):
            spec_from_json(path)

    def test_integer_sd_is_a_number(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "null", "m": 8, "n": 6, "shared_factor_sd": 0,
                                    "gene_sd": 1, "seed": 4, "mean": 8}))
        assert spec_from_json(path)[1]["gene_sd"] == 1

    def test_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{")
        with pytest.raises(ValidationError):
            spec_from_json(path)


# every field of each kind's declaration, the defaulted ones among them given
FULL_SPECS = {
    "chain": {"m": 8, "n": 6, "chain_length": 2, "base_sd": 0.1, "increment_sd": 0.2,
              "shared_factor_sd": 0.0, "seed": 3, "base_mean": 7.5, "increment_mean": 0.1},
    "null": {"m": 8, "n": 6, "shared_factor_sd": 0.5, "gene_sd": 0.3, "seed": 4, "mean": 8.0},
}
DEFAULTED = {"chain": {"base_mean", "increment_mean"}, "null": {"mean"}}
INTEGERS = {"m", "n", "chain_length", "seed"}
FIELDS = [(kind, key) for kind, spec in FULL_SPECS.items() for key in spec]


def read_spec(tmp_path, kind, fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind, **fields}))
    return spec_from_json(path)


class TestSpecFieldsFromTheDeclaration:
    @pytest.mark.parametrize("kind", FULL_SPECS)
    def test_every_field_given_is_accepted(self, kind, tmp_path):
        _, payload = read_spec(tmp_path, kind, FULL_SPECS[kind])
        assert spec_to_dict(kind, payload) == {"kind": kind, **FULL_SPECS[kind]}

    @pytest.mark.parametrize("kind, key", FIELDS)
    def test_a_missing_field_is_refused_unless_defaulted(self, kind, key, tmp_path):
        fields = {k: v for k, v in FULL_SPECS[kind].items() if k != key}
        if key in DEFAULTED[kind]:
            read_spec(tmp_path, kind, fields)  # the declaration's default applies
        else:
            with pytest.raises(ValidationError, match=f"^{kind} spec needs "):
                read_spec(tmp_path, kind, fields)

    @pytest.mark.parametrize("kind", FULL_SPECS)
    def test_an_unknown_field_is_refused(self, kind, tmp_path):
        with pytest.raises(ValidationError, match=f"^{kind} spec needs .*; got .*'sd'"):
            read_spec(tmp_path, kind, {**FULL_SPECS[kind], "sd": 1.0})

    @pytest.mark.parametrize("bad", [True, "1"])
    @pytest.mark.parametrize("kind, key", FIELDS)
    def test_a_bool_or_string_field_is_refused(self, kind, key, bad, tmp_path):
        want = "an integer" if key in INTEGERS else "a number"
        with pytest.raises(ValidationError, match=f"^{kind} spec: {key} must be {want}, got {bad!r}$"):
            read_spec(tmp_path, kind, {**FULL_SPECS[kind], key: bad})
