"""The benchmark's workloads: seeded inputs and a script of CLI steps each.

Inputs are made from the benchmark seed with the program's own chain
generator and TSV writer at paper scale (22k genes x 88 arrays). The program
only ever sees the generated files. Each step is one ``deltaseq`` command run
from a fresh pass directory, with the inputs one level up in ``../inputs``.
Why each workload is here is stated in the root ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

M_GENES = 22_000
N_ARRAYS = 88
# Phenotype A keeps the first 45 arrays and B the other 43, so the screen's
# lattice n1*n2/gcd = 1935 is past the cached-table limit (512) and every
# distinct statistic takes the big-integer path-count route.
SPLIT = 45
# Exported array data carry a few decimals; at 3 decimals about a third of
# the increment rows have cross-sample ties.
DECIMALS = 3
CHAIN = {"m": M_GENES, "n": N_ARRAYS, "chain_length": 4, "base_sd": 0.3,
         "increment_sd": 0.3, "shared_factor_sd": 1.0}
PAIRS_GENES = M_GENES * (M_GENES - 1) // 2
PAIRS_DELTA = (M_GENES // 2) * (M_GENES // 2 - 1) // 2
JACKKNIFE_REPS = 16


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple[str, ...]
    # values the step's JSON reports must hold, by file under the pass dir
    expect: dict = field(default_factory=dict)
    # output file -> input file it must equal byte for byte
    same_as: dict = field(default_factory=dict)

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], None]
    steps: tuple[Step, ...]
    # layers the traced pass must see called at least once
    layers: tuple[str, ...]
    # per-layer metrics that must be above zero in the traced run
    nonzero: tuple[str, ...] = ()


def _chain(seed: int):
    from deltaseq.synth import ChainSpec, generate_chain_matrix
    return generate_chain_matrix(ChainSpec(**CHAIN, seed=seed))


def _phenotype_inputs(seed: int, directory: Path) -> None:
    from deltaseq.datamodel import ExpressionMatrix, save_matrix
    m = _chain(seed)
    values = np.round(m.values, DECIMALS)
    for name, cols in (("pooled.tsv", slice(None)), ("a.tsv", slice(0, SPLIT)),
                       ("b.tsv", slice(SPLIT, None))):
        part = ExpressionMatrix(m.gene_ids, m.array_ids[cols], values[:, cols], True)
        save_matrix(part, directory / name)


def _chain_inputs(seed: int, directory: Path) -> None:
    from deltaseq.datamodel import save_matrix
    # `synth` on this spec must write chain.tsv byte for byte
    (directory / "spec.json").write_text(json.dumps({"kind": "chain", **CHAIN, "seed": seed}))
    save_matrix(_chain(seed), directory / "chain.tsv")


_A, _B, _POOLED, _CHAIN = "../inputs/a.tsv", "../inputs/b.tsv", "../inputs/pooled.tsv", "../inputs/chain.tsv"
_SYNTH = "synth/synth.tsv"

# Each workload joins two step scripts: with two workloads instead of four,
# each timed run can be twice as long in the same total time, which steadies
# its medians. The first stresses the KS side (kernel, exact p-values, EDF
# distances), the second the data side (TSV reading and writing, correlation
# blocks, censuses). Neither calls the other's layers.
WORKLOADS = {w.name: w for w in (
    Workload(
        "ks-jackknife",
        _phenotype_inputs,
        (
            Step("screen", ("screen", "--in", _A, "--in2", _B, "--pfer", "9", "--out", "screen"),
                 {"screen/screen.json": {"m": M_GENES // 2}}),
            Step("exceedance", ("exceedance", "--in", _A, "--in2", _B, "--out", "exceedance"),
                 {"exceedance/exceedance.json": {"n_rows": M_GENES // 2}}),
            Step("exp-null", ("exp-null", "--in", _POOLED, "--n1", "10", "--n2", "10",
                                  "--seed", "11", "--out", "exp-null"),
                 {"exp-null/null_split.json": {"n_statistics": M_GENES // 2}}),
            Step("exp-inject", ("exp-inject", "--in", _POOLED, "--split", "44", "44",
                                    "--n-modified", "100", "--multiplier", "2", "--n1", "10",
                                    "--n2", "10", "--reps", "300", "--pfer", "9", "--seed", "11",
                                    "--out", "exp-inject"),
                 {"exp-inject/injection.json": {"m": M_GENES // 2}}),
            Step("exp-jackknife", ("exp-jackknife", "--in", _POOLED, "--first-k", "500",
                                       "--reps", str(JACKKNIFE_REPS), "--seed", "11",
                                       "--out", "exp-jackknife"),
                 {"exp-jackknife/stability.json": {"B": JACKKNIFE_REPS, "first_k": 500}}),
            Step("exp-moving", ("exp-moving", "--in", _POOLED, "--out", "exp-moving"),
                 {"exp-moving/consistency.json": {"step": 10}}),
        ),
        ("cli.manifest", "datamodel.load", "datamodel.select", "ordering.variance",
         "ordering.delta", "kernels.ks", "kstest.pvalues", "kstest.cdf", "kstest.center",
         "kstest.distance", "mtp.bonferroni", "mtp.confusion", "mtp.csv",
         "experiments.inject", "experiments.jackknife", "experiments.report",
         "synth.generate", "datamodel.write"),
        ("kernels.ks.tied_rows", "kstest.lattice_counts"),
    ),
    Workload(
        "ingest-corr",
        _chain_inputs,
        (
            Step("synth", ("synth", "--spec", "../inputs/spec.json", "--out", "synth"),
                 same_as={_SYNTH: "chain.tsv"}),
            Step("check", ("check", "--in", _SYNTH, "--out", "check"),
                 {"check/check.json": {"genes": M_GENES, "arrays": N_ARRAYS}}),
            Step("order", ("order", "--in", _SYNTH, "--out", "order")),
            Step("delta", ("delta", "--in", _SYNTH, "--out", "delta")),
            Step("corr-genes", ("corr", "--in", _CHAIN, "--on", "genes", "--out", "corr-genes"),
                 {"corr-genes/summary.json": {"pair_count": PAIRS_GENES}}),
            Step("corr-delta-z", ("corr", "--in", _CHAIN, "--on", "delta", "--z",
                                      "--out", "corr-delta-z"),
                 {"corr-delta-z/summary.json": {"pair_count": PAIRS_DELTA}}),
            Step("typea", ("typea", "--in", _CHAIN, "--pairs", "100000", "--seed", "11",
                               "--out", "typea"),
                 {"typea/typea.json": {"n_pairs": 100_000}}),
            Step("triples", ("triples", "--in", _CHAIN, "--triples", "10000", "--seed", "11",
                                 "--out", "triples"),
                 {"triples/triples.json": {"n_triples": 10_000}}),
        ),
        ("cli.manifest", "datamodel.load", "datamodel.write", "ordering.variance",
         "ordering.delta", "kernels.hist", "corrstats.summary", "dependence.census",
         "dependence.csv", "synth.generate"),
    ),
)}
