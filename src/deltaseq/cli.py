"""Command line interface.

Every run that produces files also writes a ``manifest.json`` recording the
subcommand, the resolved parameters, the seed, and the SHA-256 of the bytes
each input file was read as, so a result directory is self-describing. A
matrix is read and hashed once, by its load, which gives the digest as the
matrix's ``sha256``; synth's spec, which compute reads itself, is hashed
after compute. Exit codes: 0 on success, 64 for usage errors, and by the
error hierarchy (``errors``) for the rest: 2 for a ResourceError (a
computation over its budget), 1 for every other DeltaseqError and for an
OSError, each as one ``error:`` line.

Each subcommand is one entry of ``COMMANDS``: its parameters, each declared
once with its default and help, and a compute function that returns the line
to print and the files to write. One runner does the rest. Parameters may
come from a JSON config file (``--config``); values given on the command line
win over the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import __version__
from .corrstats import DEFAULT_BINS, all_pairs_summary, histogram_to_csv, summary_header_json, z_summary
from .datamodel import load_matrix, log_transform, table_to_tsv
from .dependence import (
    TRIPLE_MODES,
    pair_census_to_csv,
    triple_census_to_csv,
    type_a_census,
    triple_census,
)
from .errors import DeltaseqError, ParseError, ResourceError, ValidationError
from .experiments import (
    MODES,
    InjectionConfig,
    cross_phenotype_exceedance,
    effect_injection_experiment,
    jackknife_stability,
    moving_mean_consistency,
    null_split_experiment,
    two_sample_screen,
)
from .kstest import DEFAULT_CDF_BUDGET, ks_exact_cdf, ks_exact_pvalue
from .mtp import json_dumps, report_to_csv, report_to_json
from .ordering import ROW_KINDS, delta_sequence, delta_to_tsv, ordering_to_csv, rows_under_test, variance_ordering
from .synth import NoiseModel, add_noise, generate_chain_matrix, generate_null_matrix, spec_from_json, spec_to_dict


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so main() can map usage problems to code 64
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class Param:
    """One flag of a subcommand.

    A parameter is resolved from the flag, then the ``--config`` file (under
    its dest), then ``default``; a required one with no value is a usage
    error. An ``input`` flag instead names a file, never comes from the
    config, and lands in the manifest's digests: a ``"matrix"`` is loaded
    with the command's ``--log2``/``--no-header`` before compute sees it,
    and its digest is the load's; a ``"file"`` is handed over as its path,
    and hashed after compute.
    """

    flag: str
    help: str
    default: object = None
    type: Callable | None = None
    choices: tuple[str, ...] | None = None
    nargs: int | None = None
    metavar: tuple[str, ...] | None = None
    switch: bool = False  # takes no value; present means True
    required: bool = False
    input: str | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Output:
    """What a compute function returns: the line printed on stdout, the files
    written under ``--out`` (name -> text, or bytes written as they are), and
    for the manifest the seed of a command without a ``--seed`` parameter
    plus extra config entries."""

    stdout: str
    files: dict[str, str | bytes]
    seed: int | None = None
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """``compute(cfg, *inputs)`` gets the resolved parameters and one value
    per input flag, in declaration order (None for an absent optional one)."""

    name: str
    help: str
    compute: Callable[..., Output]
    params: tuple[Param, ...]
    out_required: bool = True


def _config_scalar_ok(p: Param, value) -> bool:
    if p.choices is not None:
        return isinstance(value, str) and value in p.choices
    if isinstance(value, bool):  # JSON true/false is not a number
        return False
    if p.type is int:
        return isinstance(value, int)
    return isinstance(value, (int, float))


def _config_value_ok(p: Param, value) -> bool:
    """Whether a ``--config`` value fits flag ``p``. Accepted values are used
    as given (an integer for a float flag stays an integer), so the manifest
    records what the file said."""
    if p.switch:
        return isinstance(value, bool)
    if p.nargs is not None:
        return (isinstance(value, list) and len(value) == p.nargs
                and all(_config_scalar_ok(p, v) for v in value))
    return _config_scalar_ok(p, value)


def _config_expected(p: Param) -> str:
    if p.switch:
        return "true or false"
    kind = (f"one of {', '.join(p.choices)}" if p.choices is not None
            else {int: "an integer", float: "a number"}[p.type])
    return kind if p.nargs is None else f"a list of {p.nargs} values, each {kind}"


def _resolve(ns, params: tuple[Param, ...]) -> dict:
    """Merge CLI values, config-file values, and built-in defaults.

    Precedence: explicit CLI flag, then config file, then default. All flag
    defaults are None so an unset flag is distinguishable from any value.
    Config values are checked against their flag's type, choices and arity.
    """
    cfg = {}
    if getattr(ns, "config", None):
        try:
            cfg = json.loads(Path(ns.config).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"config file {ns.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ParseError(f"config file {ns.config} must hold a JSON object")
        unknown = sorted(set(cfg) - {p.dest for p in params})
        if unknown:
            raise ValidationError(f"config keys not accepted here: {', '.join(unknown)}")
        for p in params:
            if p.dest in cfg and not _config_value_ok(p, cfg[p.dest]):
                raise ValidationError(f"config key {p.dest} must be {_config_expected(p)}, "
                                      f"got {json.dumps(cfg[p.dest])}")
    resolved = {}
    for p in params:
        value = getattr(ns, p.dest, None)
        if value is None:
            value = cfg.get(p.dest, p.default)
        resolved[p.dest] = value
    return resolved


def _manifest(outdir: Path, command: str, cfg: dict, inputs: dict[str, str], seed=None) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": cfg,
        "inputs": inputs,
    }
    (outdir / "manifest.json").write_text(json_dumps(payload), encoding="utf-8")


def _load(path: str, cfg: dict):
    """The matrix at ``path`` as compute gets it, and the SHA-256 of the
    bytes its load read, taken before ``--log2`` derives a matrix without
    one."""
    matrix = load_matrix(path, has_header=not cfg.get("no_header", False),
                         log_scale=not cfg.get("log2", False))
    digest = matrix.sha256
    if cfg.get("log2", False):
        matrix = log_transform(matrix, base=2.0)
    return matrix, digest


def _run(command: Command, ns) -> int:
    """Resolve parameters, load inputs, compute, then write the files and the
    manifest under ``--out`` (when given) and print the command's line."""
    cfg = _resolve(ns, tuple(p for p in command.params if not p.input))
    missing = [p.flag for p in command.params
               if p.required and not p.input and cfg[p.dest] is None]
    if missing:
        raise UsageError(f"{command.name} needs {' and '.join(missing)}")
    digests = {}  # each input's SHA-256, of the bytes it was read as
    inputs = []
    for p, path in ((p, getattr(ns, p.dest)) for p in command.params if p.input):
        if path and p.input == "matrix":
            matrix, digests[path] = _load(path, cfg)
            inputs.append(matrix)
        else:
            inputs.append(path or None)
    result = command.compute(cfg, *inputs)
    if ns.out:
        # a file compute read itself, hashed before an output may overwrite it
        for path in inputs:
            if isinstance(path, str):
                digests[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        outdir = Path(ns.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in result.files.items():
            if isinstance(text, bytes):
                (outdir / name).write_bytes(text)
            else:
                (outdir / name).write_text(text, encoding="utf-8")
        _manifest(outdir, command.name, {**cfg, **result.config}, digests,
                  seed=cfg.get("seed", result.seed))
    print(result.stdout)
    return 0


# -- compute functions --------------------------------------------------------
# Library functions are looked up as module globals at call time, never stored
# in the table, so a caller that rebinds them (for tracing) sees every call.


def _check(cfg, m) -> Output:
    lo = float(m.values.min())
    hi = float(m.values.max())
    return Output(
        f"{m.n_genes} genes x {m.n_arrays} arrays, log_scale={m.log_scale}, "
        f"values in [{lo!r}, {hi!r}]\nok",
        {"check.json": json_dumps({"genes": m.n_genes, "arrays": m.n_arrays,
                                   "log_scale": m.log_scale, "min": lo, "max": hi})})


def _corr(cfg, m) -> Output:
    rows = rows_under_test(m, cfg["on"])
    if cfg["z"]:
        summary = z_summary(rows, bins=cfg["bins"])
        line = f"{summary.pair_count} pairs, mean z = {summary.mean_z!r}, sd = {summary.sd_z!r}"
    else:
        summary = all_pairs_summary(rows, bins=cfg["bins"])
        line = f"{summary.pair_count} pairs, mean r = {summary.mean_r!r}, sd = {summary.sd_r!r}"
    return Output(line, {"histogram.csv": histogram_to_csv(summary.histogram),
                         "summary.json": summary_header_json(summary)})


def _order(cfg, m) -> Output:
    ordering = variance_ordering(m)
    return Output(f"{ordering.permutation.shape[0]} genes ordered, {ordering.n_pairs} pairs",
                  {"ordering.csv": ordering_to_csv(ordering, m)})


def _delta(cfg, m, order_from) -> Output:
    dm = delta_sequence(m, variance_ordering(m if order_from is None else order_from))
    return Output(f"{dm.n_pairs} increment rows over {dm.n_arrays} arrays",
                  {"delta.tsv": delta_to_tsv(dm)})


def _typea(cfg, m) -> Output:
    census = type_a_census(m, cfg["pairs"], alpha=cfg["alpha"], seed=cfg["seed"])
    return Output(
        f"type A fraction: {census.fraction!r} over {census.pairs.shape[0]} pairs",
        {"pairs.csv": pair_census_to_csv(census, m),
         "typea.json": json_dumps({"fraction": census.fraction,
                                   "n_pairs": int(census.pairs.shape[0]),
                                   "alpha": census.alpha, "seed": census.seed})})


def _triples(cfg, m) -> Output:
    census = triple_census(m, cfg["triples"], mode=cfg["mode"], alpha=cfg["alpha"],
                           seed=cfg["seed"])
    return Output(
        f"negative-covariance fraction: {census.fraction_negative!r} "
        f"over {census.triples.shape[0]} triples",
        {"triples.csv": triple_census_to_csv(census, m),
         "triples.json": json_dumps({"fraction_negative": census.fraction_negative,
                                     "n_triples": int(census.triples.shape[0]),
                                     "mode": census.mode, "alpha": census.alpha,
                                     "seed": census.seed, "attempts": census.attempts})})


def _ks(cfg) -> Output:
    n1, n2 = cfg["n1"], cfg["n2"]
    if cfg["cdf"]:
        table = ks_exact_cdf(n1, n2, budget=cfg["budget"])
        return Output(f"{len(table.ds)} attainable values for sizes ({n1}, {n2})",
                      {"cdf.csv": table.to_csv()})
    if cfg["d"] is None:
        raise UsageError("ks needs --d (or --cdf)")
    d = float(cfg["d"])
    p = ks_exact_pvalue(cfg["d"], n1, n2)
    return Output(f"d = {d!r}  n1 = {n1}  n2 = {n2}  p = {p!r}",
                  {"ks.json": json_dumps({"d": d, "n1": n1, "n2": n2, "p": p})})


def _screen(cfg, a, b) -> Output:
    report, row_ids = two_sample_screen(a, b, mode=cfg["mode"], pfer=cfg["pfer"])
    return Output(f"{report.n_rejected} of {report.m} rows rejected at PFER {cfg['pfer']}",
                  {"screen.json": report_to_json(report),
                   "screen.csv": report_to_csv(report, row_ids)})


def _exp_null(cfg, m) -> Output:
    result = null_split_experiment(m, cfg["n1"], cfg["n2"], mode=cfg["mode"],
                                   seed=cfg["seed"], cdf_budget=cfg["budget"])
    return Output(f"distance to exact null: {result.distance!r}",
                  {"null_split.json": result.to_json(), "null_split.csv": result.to_csv()})


def _exp_jackknife(cfg, m) -> Output:
    report = jackknife_stability(m, cfg["d"], cfg["reps"], cfg["first_k"], seed=cfg["seed"])
    return Output(f"mean distance {report.mean_distance!r}, sd {report.sd_distance!r} "
                  f"over {report.B} subsamples",
                  {"stability.json": report.to_json(), "stability.csv": report.to_csv()})


def _exp_inject(cfg, m) -> Output:
    config = InjectionConfig(split=tuple(int(s) for s in cfg["split"]),
                             n_modified=cfg["n_modified"],
                             effect_multiplier=cfg["multiplier"],
                             n1=cfg["n1"], n2=cfg["n2"], replicates=cfg["reps"],
                             pfer=cfg["pfer"], seed=cfg["seed"])
    report = effect_injection_experiment(m, config, mode=cfg["mode"])
    return Output(f"fp mean {report.fp_mean!r} sd {report.fp_sd!r}, fdr mean {report.fdr_mean!r}",
                  {"injection.json": report.to_json(), "injection.csv": report.to_csv()})


_MOVING_ON = ("delta", "genes")


def _exp_moving(cfg, m) -> Output:
    trajectory = moving_mean_consistency(rows_under_test(m, cfg["on"]), cfg["step"], cfg["k_max"])
    return Output(
        f"sd at {int(trajectory.row_counts[0])} rows: {float(trajectory.sd_values[0])!r}; "
        f"at {int(trajectory.row_counts[-1])}: {float(trajectory.sd_values[-1])!r}",
        {"consistency.json": trajectory.to_json(), "consistency.csv": trajectory.to_csv()})


def _exceedance(cfg, a, b) -> Output:
    result = cross_phenotype_exceedance(a, b, mode=cfg["mode"], alpha=cfg["alpha"])
    return Output(f"fraction at or below alpha: {result.fraction!r}",
                  {"exceedance.json": result.to_json(), "exceedance.csv": result.to_csv()})


def _synth(cfg, spec_path) -> Output:
    noise = NoiseModel(cfg["noise_kind"], cfg["noise_sd"])  # rejects a bad sd even when unused
    kind, spec = spec_from_json(spec_path)
    if kind == "chain":
        matrix, seed = generate_chain_matrix(spec), spec.seed
    else:
        matrix, seed = generate_null_matrix(**spec), spec["seed"]
    if noise.sd > 0.0:
        matrix = add_noise(matrix, noise, seed=cfg["noise_seed"])
    text = table_to_tsv(matrix.gene_ids, matrix.array_ids, matrix.values)
    return Output(f"wrote {matrix.n_genes} genes x {matrix.n_arrays} arrays",
                  {"synth.tsv": text}, seed=seed,
                  config={"kind": kind, "spec": spec_to_dict(kind, spec)})


# -- the command table ----------------------------------------------------------

_IN = Param("--in", "expression matrix (TSV)", required=True, input="matrix")
_IN2 = Param("--in2", "second matrix (TSV)", required=True, input="matrix")
_LOAD_FLAGS = (Param("--log2", "input is raw scale; apply log2 on load", False, switch=True),
               Param("--no-header", "input has no header line", False, switch=True))
_MATRIX = (_IN, *_LOAD_FLAGS)
_PAIR = (_IN, _IN2, *_LOAD_FLAGS)
_MODE = Param("--mode", "rows to test", "delta", choices=MODES)
_SEED = Param("--seed", "sampling seed", 0, int)
_PFER = Param("--pfer", "expected false positive budget", 1.0, float)
_BUDGET = Param("--budget", "cap on exact CDF work", DEFAULT_CDF_BUDGET, int)

COMMANDS = (
    Command("check", "validate a matrix file and print its shape", _check, _MATRIX,
            out_required=False),
    Command("corr", "all-pairs correlation summary and histogram", _corr, (
        *_MATRIX,
        Param("--on", "which rows to correlate", "genes", choices=ROW_KINDS),
        Param("--bins", "histogram bin count", DEFAULT_BINS, int),
        Param("--z", "summarize Fisher z instead of r", False, switch=True),
    )),
    Command("order", "variance ordering of genes", _order, _MATRIX),
    Command("delta", "increment rows from consecutive ordered pairs", _delta, (
        *_MATRIX,
        Param("--order-from", "matrix file supplying the ordering", input="matrix"),
    )),
    Command("typea", "random-pair census of the additive dependence test", _typea, (
        *_MATRIX,
        Param("--pairs", "number of random pairs", 1000, int),
        Param("--alpha", "test level", 0.05, float),
        _SEED,
    )),
    Command("triples", "random-triple census of increment covariances", _triples, (
        *_MATRIX,
        Param("--triples", "number of random triples", 1000, int),
        Param("--mode", "triple admission rule", TRIPLE_MODES[0], choices=TRIPLE_MODES),
        Param("--alpha", "pair test level", 0.05, float),
        _SEED,
    )),
    Command("ks", "exact two-sample distribution calculator", _ks, (
        Param("--d", "observed statistic", type=float),
        Param("--n1", "first sample size", type=int, required=True),
        Param("--n2", "second sample size", type=int, required=True),
        Param("--cdf", "emit the full CDF table", False, switch=True),
        _BUDGET,
    ), out_required=False),
    Command("screen", "two-phenotype row screen under PFER control", _screen,
            (*_PAIR, _MODE, _PFER)),
    Command("exp-null", "split one phenotype and compare to the exact null", _exp_null, (
        *_MATRIX,
        Param("--n1", "first group size", 10, int),
        Param("--n2", "second group size", 10, int),
        _MODE,
        Param("--seed", "split seed", 0, int),
        _BUDGET,
    )),
    Command("exp-jackknife", "delete-d stability of increment correlations", _exp_jackknife, (
        *_MATRIX,
        Param("--d", "arrays removed per subsample", 8, int),
        Param("--reps", "number of subsamples", 50, int),
        Param("--first-k", "increment rows kept", 50, int),
        Param("--seed", "subsampling seed", 0, int),
    )),
    Command("exp-inject", "spiked-constant detection under PFER control", _exp_inject, (
        *_MATRIX,
        Param("--split", "array counts for the two halves", type=int, nargs=2,
              metavar=("S1", "S2"), required=True),
        Param("--n-modified", "rows that get a spike", 10, int),
        Param("--multiplier", "spike size in row-sd units", 1.0, float),
        Param("--n1", "group size from half 1", 10, int),
        Param("--n2", "group size from half 2", 10, int),
        Param("--reps", "replicate count", 100, int),
        _PFER,
        _MODE,
        Param("--seed", "master seed", 0, int),
    )),
    Command("exp-moving", "moving-mean spread against rows averaged", _exp_moving, (
        *_MATRIX,
        Param("--step", "rows added per point", 10, int),
        Param("--k-max", "number of points", 10, int),
        Param("--on", "row source", "delta", choices=_MOVING_ON),
    )),
    Command("exceedance", "fraction of rows differing across phenotypes", _exceedance, (
        *_PAIR,
        _MODE,
        Param("--alpha", "per-row level", 0.05, float),
    )),
    Command("synth", "generate a synthetic matrix from a JSON spec", _synth, (
        Param("--spec", "generator spec (JSON)", required=True, input="file"),
        Param("--noise-sd", "measurement noise sd", 0.0, float),
        Param("--noise-kind", "noise sharing structure", NoiseModel.KINDS[0], choices=NoiseModel.KINDS),
        Param("--noise-seed", "noise seed", 1, int),
    )),
)


def _parser() -> _Parser:
    parser = _Parser(prog="deltaseq",
                     description="correlation structure analyses for expression matrices")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command")
    for command in COMMANDS:
        sub = subs.add_parser(command.name, help=command.help)
        sub.set_defaults(run=command)
        for p in command.params:
            if p.switch:
                sub.add_argument(p.flag, dest=p.dest, action="store_const", const=True,
                                 help=p.help)
            else:
                sub.add_argument(p.flag, dest=p.dest, type=p.type, choices=p.choices,
                                 nargs=p.nargs, metavar=p.metavar,
                                 required=p.required and p.input is not None, help=p.help)
        sub.add_argument("--out", required=command.out_required, help="output directory")
        sub.add_argument("--config", help="JSON file with parameter defaults")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if getattr(ns, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        return _run(ns.run, ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (DeltaseqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
