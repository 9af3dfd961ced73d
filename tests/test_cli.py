"""End-to-end tests of the command line interface.

Everything runs in-process through cli.main(argv) so exit codes and stdout
are observable without spawning interpreters; only the locale test needs a
child interpreter, because the locale encoding is fixed at start-up.
"""

import ast
import hashlib
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deltaseq
from deltaseq import (ExpressionMatrix, NoiseModel, __version__, cli, corrstats, dependence,
                      experiments, jackknife_stability, kstest)
from deltaseq.cli import main
from deltaseq.datamodel import matrix_to_tsv, save_matrix
from deltaseq.synth import ChainSpec, generate_chain_matrix, generate_null_matrix
from helpers import ascii_locale_env, own_peak_kib


@pytest.fixture(scope="session")
def chain_tsv(tmp_path_factory):
    spec = ChainSpec(m=40, n=24, base_sd=0.05, increment_sd=0.4,
                     shared_factor_sd=0.0, chain_length=4, seed=11)
    path = tmp_path_factory.mktemp("cli_data") / "chain.tsv"
    path.write_text(matrix_to_tsv(generate_chain_matrix(spec)), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def null_pair_tsv(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_pair")
    paths = []
    for seed in (3, 4):
        m = generate_null_matrix(m=30, n=20, shared_factor_sd=1.0, gene_sd=0.5, seed=seed)
        p = base / f"null{seed}.tsv"
        p.write_text(matrix_to_tsv(m), encoding="utf-8")
        paths.append(str(p))
    return paths


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_cli_imports_only_public_library_names():
    # the CLI is built on the library's public surface: no private module
    # and no underscore-prefixed name of another deltaseq module
    tree = ast.parse(Path(inspect.getfile(cli)).read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("deltaseq")):
            path = (node.module or "").split(".")
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            path, names = [], [alias.name for alias in node.names
                               if alias.name.startswith("deltaseq")]
        else:
            continue
        for name in names:
            parts = path + name.split(".")
            if any(part.startswith("_") and not part.startswith("__") for part in parts):
                private.append(".".join(filter(None, parts)))
    assert private == []


def test_settings_are_declared_once_in_the_library():
    # no public function takes a tile size: the corr tiles are fixed
    for info in pkgutil.iter_modules(deltaseq.__path__):
        module = importlib.import_module(f"deltaseq.{info.name}")
        for name, value in vars(module).items():
            if inspect.isfunction(value) and not name.startswith("_"):
                assert "block" not in inspect.signature(value).parameters, (info.name, name)
    # the CLI's choices and defaults are the library's own
    params = {(c.name, p.flag): p for c in cli.COMMANDS for p in c.params}
    assert params["corr", "--bins"].default == corrstats.DEFAULT_BINS
    for command in ("ks", "exp-null"):
        assert params[command, "--budget"].default == kstest.DEFAULT_CDF_BUDGET
    mode = params["triples", "--mode"]
    assert mode.choices == dependence.TRIPLE_MODES
    assert mode.default == inspect.signature(dependence.triple_census).parameters["mode"].default
    kind = params["synth", "--noise-kind"]
    assert kind.choices == NoiseModel.KINDS and kind.default == NoiseModel.KINDS[0]


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 64
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_missing_required_flag(self, capsys):
        assert main(["order"]) == 64

    def test_ks_without_sizes(self, capsys):
        assert main(["ks", "--d", "0.5"]) == 64
        assert "usage error" in capsys.readouterr().err

    def test_inject_without_split(self, chain_tsv, tmp_path, capsys):
        code = main(["exp-inject", "--in", chain_tsv, "--out", str(tmp_path / "o")])
        assert code == 64
        assert "--split" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["check", "--in", str(tmp_path / "nope.tsv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("gene\ta\tb\tc\td\ng1\t1\t2\tx\t4\n", encoding="utf-8")
        assert main(["check", "--in", str(bad)]) == 1

    @pytest.mark.parametrize("flag", ["--in", "--spec", "--config"])
    def test_input_file_not_utf8(self, flag, chain_tsv, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(b"gene_id\ta\tb\tc\td\ng\xe91\t1\t2\t3\t4\ng2\t5\t6\t7\t8\n"
                        if flag == "--in" else b'{"kind": "null", "m": 12\xe9}')
        argv = {"--in": ["check", "--in", str(bad)],
                "--spec": ["synth", "--spec", str(bad), "--out", str(tmp_path / "o")],
                "--config": ["check", "--in", chain_tsv, "--config", str(bad)]}[flag]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_utf8_input_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("gene_id\ta\tb\tc\td\ngé1\t1\t2\t3\t4\ng2\t5\t6\t7\t8\n",
                        encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "deltaseq.cli", "check", "--in", str(path),
             "--out", str(tmp_path / "o")],
            env=ascii_locale_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_resource_budget_exit_code(self, capsys):
        code = main(["ks", "--cdf", "--n1", "300", "--n2", "301", "--budget", "100"])
        assert code == 2
        assert "resource limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command, budget", [
        (["ks", "--n1", "3", "--n2", "3", "--cdf"], "-1"),
        (["exp-null", "--n1", "6", "--n2", "6"], "0"),
    ], ids=["ks", "exp-null"])
    def test_budget_below_one_is_an_error(self, command, budget, chain_tsv, tmp_path, capsys):
        extra = ["--in", chain_tsv, "--out", str(tmp_path / "null")] if command[0] == "exp-null" else []
        assert main([*command, "--budget", budget, *extra]) == 1
        assert capsys.readouterr().err == f"error: ks_exact_cdf budget must be >= 1, got {budget}\n"

    def test_exp_null_refuses_its_budget_before_any_work(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exp-null ordered the genes before checking its budget")

        monkeypatch.setattr(experiments, "variance_ordering", refuse)
        path = tmp_path / "wide.tsv"
        save_matrix(generate_null_matrix(m=6, n=88, shared_factor_sd=0.0, gene_sd=1.0, seed=2), path)
        out = tmp_path / "null"
        code = main(["exp-null", "--in", str(path), "--n1", "44", "--n2", "44",
                     "--budget", "100", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "resource limit: ks_exact_cdf needs n1*n2 <= budget (100), got 1936")
        assert not out.exists()

    def test_jackknife_over_pair_budget(self, chain_tsv, tmp_path, capsys, monkeypatch):
        # first-k 5 gives 10 pairs per subsample: one subsample more than
        # the default budget holds is refused before any subsample is drawn
        cap = inspect.signature(jackknife_stability).parameters["max_pair_evals"].default
        reps = cap // 10 + 1

        def no_draws(*args, **kwargs):
            raise AssertionError("a subsample was drawn")

        monkeypatch.setattr(np.random, "SeedSequence", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        out = tmp_path / "jk"
        code = main(["exp-jackknife", "--in", chain_tsv, "--d", "4", "--reps", str(reps),
                     "--first-k", "5", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"resource limit: jackknife needs {10 * reps} pairwise correlations, over "
            f"the budget of {cap}; lower B (--reps) or first_k (--first-k), or raise the "
            f"max_pair_evals argument of jackknife_stability"]
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        pytest.param({"kind": "chain", "m": 2000.0, "n": 8, "chain_length": 4, "base_sd": 0.3,
                      "increment_sd": 0.3, "shared_factor_sd": 1.0, "seed": 7}, id="float-m"),
        pytest.param({"kind": "chain", "m": 16, "n": 8, "chain_length": 4, "base_sd": 0.3,
                      "increment_sd": 0.3, "shared_factor_sd": 1.0, "seed": 7.5}, id="float-seed"),
        pytest.param({"kind": "null", "m": 12, "n": 8, "shared_factor_sd": 0.5,
                      "gene_sd": "x", "seed": 21}, id="str-sd"),
    ])
    def test_synth_mistyped_spec(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (out / "synth.tsv").exists()

    @pytest.mark.parametrize("sd", ["-1", "nan"])
    def test_synth_bad_noise_sd(self, sd, tmp_path, capsys):
        # rejected even though a non-positive sd means no noise is drawn
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "null", "m": 12, "n": 8, "shared_factor_sd": 0.5,
                                    "gene_sd": 0.2, "seed": 21}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["synth", "--spec", str(spec), "--noise-sd", sd, "--out", str(out)]) == 1
        assert "noise sd" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_refuses_an_id_it_cannot_write(self, tmp_path, capsys, monkeypatch):
        # no spec names its ids; a generator that gives an unwritable one stands in
        bad = ExpressionMatrix(("g0", "g1 "), ("a", "b", "c", "d"), np.ones((2, 4)), True)
        monkeypatch.setattr(cli, "generate_null_matrix", lambda **spec: bad)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "null", "m": 12, "n": 8, "shared_factor_sd": 0.5,
                                    "gene_sd": 0.2, "seed": 21}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row id 'g1 ' would not read back")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, config, key", [
        pytest.param(["corr"], {"bins": "7"}, "bins", id="int-given-str"),
        pytest.param(["exp-inject"], {"split": 12}, "split", id="pair-given-int"),
        pytest.param(["exp-jackknife"], {"reps": 2.5}, "reps", id="int-given-float"),
        pytest.param(["corr"], {"bins": True}, "bins", id="int-given-bool"),
        pytest.param(["corr"], {"on": "rows"}, "on", id="not-a-choice"),
        pytest.param(["corr"], {"z": 1}, "z", id="switch-given-int"),
        pytest.param(["exp-inject"], {"split": [12, "12"]}, "split", id="pair-given-str"),
        pytest.param(["exp-inject"], {"split": [12, 12, 12]}, "split", id="pair-given-three"),
        pytest.param(["exp-inject", "--split", "12", "12"], {"pfer": "1"}, "pfer",
                     id="float-given-str"),
    ])
    def test_config_value_of_wrong_type(self, command, config, key, chain_tsv, tmp_path,
                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main([*command, "--in", chain_tsv, "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"config key {key} " in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_help_flag(self):
        assert main(["--help"]) == 0


class TestPeakMemory:
    ENTRY = "import sys; from deltaseq.cli import main; sys.exit(main())"

    @pytest.fixture(scope="class")
    def chain_4000(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("peak") / "m.tsv"
        save_matrix(generate_chain_matrix(ChainSpec(m=4000, n=88, base_sd=0.3, increment_sd=0.3,
                                                    shared_factor_sd=1.0, chain_length=4, seed=5)),
                    path)
        return path

    def peak_kib(self, *argv) -> int:
        code, peak = own_peak_kib([sys.executable, "-c", self.ENTRY, *map(str, argv)])
        assert code == 0
        return peak

    @pytest.fixture
    def parse_every_load(self, tmp_path, monkeypatch):
        """A cache location that cannot be a directory, so every load parses:
        a bound measured against ``check`` then compares two parses, not a
        parse with a hit on the entry it stored."""
        unusable = tmp_path / "a-file"
        unusable.write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(unusable))

    def test_check_holds_its_input_about_once(self, chain_4000, tmp_path):
        # The load holds the file's bytes, the values (about 0.4 of them)
        # and one chunk of temporaries; a second copy of the text, its lines
        # or its values would pass twice the file size. So does a table
        # with one cell only float() reads.
        path = chain_4000
        size_kib = path.stat().st_size / 1024
        assert size_kib > 4 << 10
        data = path.read_bytes()
        cell = data.find(b"\t", len(data) // 2) + 1
        odd = tmp_path / "odd.tsv"
        odd.write_bytes(data[:cell] + b"1_0" + data[data.find(b"\t", cell) :])
        code, base = own_peak_kib([sys.executable, "-c", "import deltaseq.cli"])
        assert code == 0
        for table in (path, odd):
            assert self.peak_kib("check", "--in", table) <= base + 2 * size_kib, table.name

    def test_check_from_the_cache_holds_no_more_than_a_parse(self, chain_4000, tmp_path,
                                                            monkeypatch, parse_every_load):
        # A miss parses, drops the file's bytes and writes the entry from the
        # values in place: only the entry's id text is new. A hit drops the
        # bytes before it reads the values (about 0.4 of them) into place.
        parse = self.peak_kib("check", "--in", chain_4000)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        miss = self.peak_kib("check", "--in", chain_4000)
        assert len(list((tmp_path / "cache" / "deltaseq" / "tables").iterdir())) == 1
        hit = self.peak_kib("check", "--in", chain_4000)
        assert miss <= parse + 512
        assert hit <= parse

    def test_jackknife_holds_its_z_scores_twice(self, chain_4000, tmp_path, parse_every_load):
        # Past the load, which check measures, the jackknife holds its
        # buffer of z-scores and their pooled sorted copy, 8 bytes each, plus
        # one subsample's product and EDF steps and the BLAS buffers (the
        # slack); whole-matrix column gathers or a center's step function
        # built from the pooled copy would pass the bound.
        check = self.peak_kib("check", "--in", chain_4000)
        z_scores = 16 * (500 * 499 // 2)
        peak = self.peak_kib("exp-jackknife", "--in", chain_4000, "--reps", 16,
                             "--first-k", 500, "--out", tmp_path / "j")
        assert peak <= check + 2 * 8 * z_scores / 1024 + (16 << 10)

    @pytest.mark.parametrize("mode", ["delta", "expression"])
    def test_injection_holds_its_pooled_rows_and_ranks(self, chain_4000, tmp_path, mode,
                                                       parse_every_load):
        # Past the load, the injection holds a half of the matrix at a time
        # while it builds that half's 2000 rows; the pooled rows (8 bytes a
        # value) and their int32 ranks then fit where the file's bytes were.
        # A second copy of each half would pass the bound.
        check = self.peak_kib("check", "--in", chain_4000)
        pooled_rows = 2000 * 88 * 8 / 1024
        ranks = 2000 * 88 * 4 / 1024
        peak = self.peak_kib("exp-inject", "--in", chain_4000, "--split", 44, 44,
                             "--n-modified", 100, "--multiplier", 2, "--n1", 10, "--n2", 10,
                             "--reps", 20, "--pfer", 9, "--mode", mode, "--out", tmp_path / "i")
        assert peak <= check + pooled_rows + ranks + (4 << 10)


class TestKsCommand:
    def test_pvalue_printed(self, capsys):
        assert main(["ks", "--d", "1", "--n1", "2", "--n2", "2"]) == 0
        assert "0.3333333333333333" in capsys.readouterr().out

    def test_pvalue_json(self, tmp_path, capsys):
        out = tmp_path / "ks"
        assert main(["ks", "--d", "1", "--n1", "2", "--n2", "2", "--out", str(out)]) == 0
        payload = read_json(out / "ks.json")
        assert payload["d"] == 1.0
        assert payload["n1"] == 2 and payload["n2"] == 2
        assert payload["p"] == pytest.approx(1.0 / 3.0, rel=1e-15)
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "ks"
        assert manifest["inputs"] == {}

    def test_cdf_table(self, tmp_path, capsys):
        out = tmp_path / "cdf"
        assert main(["ks", "--cdf", "--n1", "4", "--n2", "4", "--out", str(out)]) == 0
        lines = (out / "cdf.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "d,cdf"
        assert len(lines) == 5  # d in {0, 1/4, 1/2, 3/4, 1}
        assert lines[-1].endswith(",1.0")


class TestPipeline:
    def test_synth_check_corr(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "chain", "m": 16, "n": 12, "base_sd": 0.05,
            "increment_sd": 0.3, "shared_factor_sd": 0.0,
            "chain_length": 4, "seed": 5,
        }), encoding="utf-8")
        synth_out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(synth_out)]) == 0
        matrix_path = synth_out / "synth.tsv"
        assert matrix_path.is_file()
        manifest = read_json(synth_out / "manifest.json")
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert manifest["config"]["kind"] == "chain"
        assert manifest["config"]["spec"]["m"] == 16

        assert main(["check", "--in", str(matrix_path)]) == 0
        text = capsys.readouterr().out
        assert "16 genes x 12 arrays" in text
        assert "ok" in text

        corr_out = tmp_path / "corr"
        assert main(["corr", "--in", str(matrix_path), "--on", "delta",
                     "--bins", "8", "--out", str(corr_out)]) == 0
        hist = (corr_out / "histogram.csv").read_text(encoding="utf-8").splitlines()
        assert hist[0] == "bin_low,bin_high,count"
        assert len(hist) == 1 + 8
        summary = read_json(corr_out / "summary.json")
        assert summary["pair_count"] == 28  # C(8 delta rows, 2)

    def test_synth_null_kind_with_noise(self, tmp_path):
        spec_path = tmp_path / "null.json"
        spec_path.write_text(json.dumps({
            "kind": "null", "m": 12, "n": 8, "shared_factor_sd": 0.5,
            "gene_sd": 0.2, "seed": 21,
        }), encoding="utf-8")
        out = tmp_path / "synthnull"
        assert main(["synth", "--spec", str(spec_path), "--noise-sd", "0.1",
                     "--noise-kind", "array-only", "--noise-seed", "3",
                     "--out", str(out)]) == 0
        assert (out / "synth.tsv").is_file()
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == 21
        assert manifest["config"]["noise_sd"] == 0.1
        assert manifest["config"]["kind"] == "null"
        assert manifest["config"]["spec"]["m"] == 12

    def test_check_writes_report(self, chain_tsv, tmp_path):
        out = tmp_path / "check"
        assert main(["check", "--in", chain_tsv, "--out", str(out)]) == 0
        payload = read_json(out / "check.json")
        assert payload["genes"] == 40 and payload["arrays"] == 24
        assert payload["log_scale"] is True

    def test_order_and_delta(self, chain_tsv, tmp_path):
        order_out = tmp_path / "order"
        assert main(["order", "--in", chain_tsv, "--out", str(order_out)]) == 0
        lines = (order_out / "ordering.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank,gene_id,variance"
        assert len(lines) == 1 + 40

        delta_out = tmp_path / "delta"
        assert main(["delta", "--in", chain_tsv, "--out", str(delta_out)]) == 0
        rows = (delta_out / "delta.tsv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + 20

    def test_delta_order_from_other_file(self, chain_tsv, tmp_path):
        # array-only noise leaves the increments intact; the ordering source
        # is the clean file and both inputs land in the manifest
        from deltaseq.datamodel import load_matrix
        from deltaseq.synth import NoiseModel, add_noise

        noisy = tmp_path / "noisy.tsv"

        clean = load_matrix(chain_tsv)
        noisy.write_text(matrix_to_tsv(add_noise(clean, NoiseModel("array-only", 0.05), seed=9)),
                         encoding="utf-8")
        out = tmp_path / "delta2"
        assert main(["delta", "--in", str(noisy), "--order-from", chain_tsv,
                     "--out", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        assert set(manifest["inputs"]) == {str(noisy), chain_tsv}

    def test_typea_and_triples(self, chain_tsv, tmp_path):
        ta_out = tmp_path / "typea"
        assert main(["typea", "--in", chain_tsv, "--pairs", "25", "--alpha", "0.1",
                     "--seed", "9", "--out", str(ta_out)]) == 0
        payload = read_json(ta_out / "typea.json")
        assert payload["n_pairs"] == 25 and payload["seed"] == 9
        assert 0.0 <= payload["fraction"] <= 1.0
        pairs = (ta_out / "pairs.csv").read_text(encoding="utf-8").splitlines()
        assert len(pairs) == 1 + 25

        tr_out = tmp_path / "triples"
        assert main(["triples", "--in", chain_tsv, "--triples", "15", "--mode", "any",
                     "--seed", "4", "--out", str(tr_out)]) == 0
        payload = read_json(tr_out / "triples.json")
        assert payload["n_triples"] == 15 and payload["mode"] == "any"


class TestConfigResolution:
    def test_config_supplies_defaults(self, chain_tsv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bins": 7, "on": "genes"}), encoding="utf-8")
        out = tmp_path / "corr"
        assert main(["corr", "--in", chain_tsv, "--config", str(cfg),
                     "--out", str(out)]) == 0
        hist = (out / "histogram.csv").read_text(encoding="utf-8").splitlines()
        assert len(hist) == 1 + 7
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["bins"] == 7
        assert manifest["config"]["on"] == "genes"

    def test_flag_beats_config(self, chain_tsv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bins": 7}), encoding="utf-8")
        out = tmp_path / "corr"
        assert main(["corr", "--in", chain_tsv, "--config", str(cfg),
                     "--bins", "5", "--out", str(out)]) == 0
        hist = (out / "histogram.csv").read_text(encoding="utf-8").splitlines()
        assert len(hist) == 1 + 5
        assert read_json(out / "manifest.json")["config"]["bins"] == 5

    def test_config_values_kept_as_written(self, chain_tsv, tmp_path):
        # an integer for a float flag is accepted and not coerced, and a list
        # stands for a two-value flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pfer": 9, "split": [12, 12], "reps": 2, "n1": 5,
                                   "n2": 5}), encoding="utf-8")
        out = tmp_path / "inj"
        assert main(["exp-inject", "--in", chain_tsv, "--config", str(cfg),
                     "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text(encoding="utf-8")
        assert '"pfer": 9,' in text
        assert json.loads(text)["config"]["split"] == [12, 12]

    def test_unknown_config_key(self, chain_tsv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        code = main(["corr", "--in", chain_tsv, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_config_not_json(self, chain_tsv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken", encoding="utf-8")
        code = main(["corr", "--in", chain_tsv, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1


class TestManifest:
    def test_digest_and_fields(self, chain_tsv, tmp_path):
        out = tmp_path / "typea"
        assert main(["typea", "--in", chain_tsv, "--pairs", "10", "--seed", "2",
                     "--out", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "typea"
        assert manifest["version"] == __version__
        assert manifest["seed"] == 2
        assert manifest["config"]["pairs"] == 10
        assert manifest["config"]["alpha"] == 0.05  # default filled in
        assert "threads" not in manifest["config"]
        digest = hashlib.sha256(Path(chain_tsv).read_bytes()).hexdigest()
        assert manifest["inputs"] == {chain_tsv: digest}

    def test_digest_is_of_the_input_as_read_when_an_output_overwrites_it(self, chain_tsv, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        source = out / "delta.tsv"
        source.write_bytes(Path(chain_tsv).read_bytes())
        read = hashlib.sha256(source.read_bytes()).hexdigest()
        assert main(["delta", "--in", str(source), "--out", str(out)]) == 0
        assert hashlib.sha256(source.read_bytes()).hexdigest() != read  # delta.tsv was rewritten
        assert read_json(out / "manifest.json")["inputs"] == {str(source): read}


class TestExperimentCommands:
    def test_exp_null(self, chain_tsv, tmp_path, capsys):
        out = tmp_path / "null"
        assert main(["exp-null", "--in", chain_tsv, "--n1", "6", "--n2", "6",
                     "--mode", "expression", "--seed", "3", "--out", str(out)]) == 0
        assert "distance" in capsys.readouterr().out
        payload = read_json(out / "null_split.json")
        assert payload["n1"] == 6 and payload["n2"] == 6
        assert 0.0 <= payload["distance"] <= 1.0
        lines = (out / "null_split.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row_id,scaled,d"
        assert len(lines) == 1 + 20  # even-position genes of 40

    def test_exp_jackknife(self, chain_tsv, tmp_path):
        out = tmp_path / "jk"
        assert main(["exp-jackknife", "--in", chain_tsv, "--d", "4", "--reps", "3",
                     "--first-k", "5", "--seed", "2", "--out", str(out)]) == 0
        payload = read_json(out / "stability.json")
        assert payload["B"] == 3 and payload["d"] == 4
        lines = (out / "stability.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "subsample,distance"
        distances = [float(row.split(",")[1]) for row in lines[1:]]
        assert len(distances) == 3
        assert all(0.0 <= v <= 1.0 for v in distances)

    def test_exp_moving(self, chain_tsv, tmp_path):
        out = tmp_path / "mv"
        assert main(["exp-moving", "--in", chain_tsv, "--step", "2", "--k-max", "5",
                     "--on", "delta", "--out", str(out)]) == 0
        payload = read_json(out / "consistency.json")
        assert payload["row_counts"] == [2, 4, 6, 8, 10]
        lines = (out / "consistency.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 5

    def test_screen(self, null_pair_tsv, tmp_path, capsys):
        out = tmp_path / "screen"
        a, b = null_pair_tsv
        assert main(["screen", "--in", a, "--in2", b, "--mode", "delta",
                     "--pfer", "1", "--out", str(out)]) == 0
        payload = read_json(out / "screen.json")
        assert payload["m"] == 15  # 30 genes -> 15 increment rows
        assert payload["threshold"] == pytest.approx(1.0 / 15.0, rel=1e-15)
        lines = (out / "screen.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row_id,p,rejected,truth"
        assert len(lines) == 1 + 15

    def test_exceedance(self, null_pair_tsv, tmp_path, capsys):
        out = tmp_path / "exc"
        a, b = null_pair_tsv
        assert main(["exceedance", "--in", a, "--in2", b, "--mode", "expression",
                     "--alpha", "0.2", "--out", str(out)]) == 0
        payload = read_json(out / "exceedance.json")
        assert 0.0 <= payload["fraction"] <= 1.0
        lines = (out / "exceedance.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row_id,d,p,exceeds"
        assert len(lines) == 1 + 30

    def test_exp_inject_smoke(self, chain_tsv, tmp_path, capsys):
        out = tmp_path / "inj"
        assert main(["exp-inject", "--in", chain_tsv, "--split", "12", "12",
                     "--n-modified", "4", "--multiplier", "2", "--n1", "5",
                     "--n2", "5", "--reps", "4", "--pfer", "1", "--mode", "delta",
                     "--seed", "7", "--out", str(out)]) == 0
        payload = read_json(out / "injection.json")
        assert payload["config"]["replicates"] == 4
        assert len(payload["targets"]) == 4
        lines = (out / "injection.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,fp,tp,fdr"
        assert len(lines) == 1 + 4


def _run_inject(chain_tsv, outdir):
    argv = ["exp-inject", "--in", chain_tsv, "--split", "12", "12",
            "--n-modified", "4", "--multiplier", "2", "--n1", "5", "--n2", "5",
            "--reps", "4", "--pfer", "1", "--mode", "delta", "--seed", "7",
            "--out", str(outdir)]
    assert main(argv) == 0


class TestDeterminism:
    def test_rerun_is_byte_identical(self, chain_tsv, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        _run_inject(chain_tsv, a)
        _run_inject(chain_tsv, b)
        assert (a / "injection.json").read_bytes() == (b / "injection.json").read_bytes()
        assert (a / "injection.csv").read_bytes() == (b / "injection.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
