"""Golden byte digests for every CLI subcommand variant.

Each case writes tiny seeded inputs into a fresh directory, runs
``cli.main`` from there with relative paths (so ``manifest.json`` does not
depend on where the test runs), and compares the sha256 of stdout and of
every file under ``out/`` with the digests recorded in ``GOLDEN``. Any
change to a report, a manifest or a printed line fails here.

To print the digests of the current program, for example after a deliberate
format change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from deltaseq.cli import main
from deltaseq.datamodel import ExpressionMatrix, matrix_to_tsv
from deltaseq.synth import (
    ChainSpec,
    NoiseModel,
    add_noise,
    generate_chain_matrix,
    generate_null_matrix,
)

_CHAIN_SPEC = {"m": 40, "n": 24, "base_sd": 0.05, "increment_sd": 0.4,
               "shared_factor_sd": 0.5, "chain_length": 4, "seed": 11}
_NULL_SPEC = {"m": 12, "n": 8, "shared_factor_sd": 0.5, "gene_sd": 0.2, "seed": 21}


def write_inputs(directory: Path) -> None:
    chain = generate_chain_matrix(ChainSpec(**_CHAIN_SPEC))
    text = matrix_to_tsv(chain)
    (directory / "chain.tsv").write_text(text, encoding="utf-8")
    (directory / "bare.tsv").write_text(text.split("\n", 1)[1], encoding="utf-8")
    raw = ExpressionMatrix(chain.gene_ids, chain.array_ids, np.exp2(chain.values), False)
    (directory / "raw.tsv").write_text(matrix_to_tsv(raw), encoding="utf-8")
    noisy = add_noise(chain, NoiseModel("array-only", 0.05), seed=9)
    (directory / "noisy.tsv").write_text(matrix_to_tsv(noisy), encoding="utf-8")
    # two phenotypes on one gene universe, rounded so some rows tie
    for name, seed in (("a.tsv", 3), ("b.tsv", 4)):
        m = generate_null_matrix(m=30, n=20, shared_factor_sd=1.0, gene_sd=0.5, seed=seed)
        m = ExpressionMatrix(m.gene_ids, m.array_ids, np.round(m.values, 1), True)
        (directory / name).write_text(matrix_to_tsv(m), encoding="utf-8")
    (directory / "chain.json").write_text(json.dumps({"kind": "chain", **_CHAIN_SPEC}),
                                          encoding="utf-8")
    (directory / "null.json").write_text(json.dumps({"kind": "null", **_NULL_SPEC}),
                                         encoding="utf-8")
    (directory / "cfg.json").write_text(json.dumps({"bins": 7, "on": "delta", "z": True}),
                                        encoding="utf-8")


CASES = {
    "check": ["check", "--in", "chain.tsv"],
    "check-out": ["check", "--in", "chain.tsv", "--out", "out"],
    "check-log2": ["check", "--in", "raw.tsv", "--log2", "--out", "out"],
    "check-no-header": ["check", "--in", "bare.tsv", "--no-header", "--out", "out"],
    "corr": ["corr", "--in", "chain.tsv", "--out", "out"],
    "corr-delta": ["corr", "--in", "chain.tsv", "--on", "delta", "--bins", "8", "--out", "out"],
    "corr-even": ["corr", "--in", "chain.tsv", "--on", "even", "--out", "out"],
    "corr-genes-z": ["corr", "--in", "chain.tsv", "--on", "genes", "--z", "--out", "out"],
    "corr-config": ["corr", "--in", "chain.tsv", "--config", "cfg.json", "--bins", "5",
                    "--out", "out"],
    "corr-log2": ["corr", "--in", "raw.tsv", "--log2", "--on", "delta", "--out", "out"],
    "order": ["order", "--in", "chain.tsv", "--out", "out"],
    "order-no-header": ["order", "--in", "bare.tsv", "--no-header", "--out", "out"],
    "delta": ["delta", "--in", "chain.tsv", "--out", "out"],
    "delta-order-from": ["delta", "--in", "noisy.tsv", "--order-from", "chain.tsv",
                         "--out", "out"],
    "typea": ["typea", "--in", "chain.tsv", "--pairs", "25", "--alpha", "0.1", "--seed", "9",
              "--out", "out"],
    "triples": ["triples", "--in", "chain.tsv", "--triples", "15", "--seed", "4",
                "--out", "out"],
    "triples-any": ["triples", "--in", "chain.tsv", "--triples", "15", "--mode", "any",
                    "--seed", "4", "--out", "out"],
    "ks-d": ["ks", "--d", "0.5", "--n1", "6", "--n2", "8"],
    "ks-d-out": ["ks", "--d", "0.5", "--n1", "6", "--n2", "8", "--out", "out"],
    "ks-cdf": ["ks", "--cdf", "--n1", "4", "--n2", "6"],
    "ks-cdf-out": ["ks", "--cdf", "--n1", "4", "--n2", "6", "--out", "out"],
    "screen": ["screen", "--in", "a.tsv", "--in2", "b.tsv", "--pfer", "2", "--out", "out"],
    "screen-expression": ["screen", "--in", "a.tsv", "--in2", "b.tsv", "--mode", "expression",
                          "--out", "out"],
    "exceedance": ["exceedance", "--in", "a.tsv", "--in2", "b.tsv", "--out", "out"],
    "exceedance-expression": ["exceedance", "--in", "a.tsv", "--in2", "b.tsv", "--mode",
                              "expression", "--alpha", "0.2", "--out", "out"],
    "exp-null": ["exp-null", "--in", "chain.tsv", "--n1", "6", "--n2", "6", "--seed", "3",
                 "--out", "out"],
    "exp-null-expression": ["exp-null", "--in", "chain.tsv", "--n1", "5", "--n2", "7",
                            "--mode", "expression", "--budget", "500", "--out", "out"],
    "exp-jackknife": ["exp-jackknife", "--in", "chain.tsv", "--d", "4", "--reps", "3",
                      "--first-k", "5", "--seed", "2", "--out", "out"],
    "exp-inject": ["exp-inject", "--in", "chain.tsv", "--split", "12", "12", "--n-modified", "4",
                   "--multiplier", "2", "--n1", "5", "--n2", "5", "--reps", "4", "--pfer", "1",
                   "--seed", "7", "--out", "out"],
    "exp-inject-expression": ["exp-inject", "--in", "chain.tsv", "--split", "12", "12",
                              "--reps", "3", "--mode", "expression", "--out", "out"],
    "exp-moving": ["exp-moving", "--in", "chain.tsv", "--step", "2", "--k-max", "5",
                   "--out", "out"],
    "exp-moving-genes": ["exp-moving", "--in", "chain.tsv", "--step", "3", "--k-max", "4",
                         "--on", "genes", "--out", "out"],
    "synth": ["synth", "--spec", "chain.json", "--out", "out"],
    "synth-noise": ["synth", "--spec", "chain.json", "--noise-sd", "0.2", "--noise-seed", "5",
                    "--out", "out"],
    "synth-null-noise": ["synth", "--spec", "null.json", "--noise-sd", "0.1",
                         "--noise-kind", "array-only", "--noise-seed", "3", "--out", "out"],
}


def run_case(argv) -> dict:
    """Exit code plus sha256 of stdout and of each file under out/; the
    caller has made the current directory hold the inputs."""
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    digests = {"exit": code, "stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    out = Path("out")
    if out.is_dir():
        for p in sorted(out.iterdir()):
            digests[f"out/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


# recorded from the program before the CLI became table-driven
GOLDEN = {
    "check": {
        "exit": 0,
        "stdout": "1ba082531338a241d4fae7e88fe9e4ad366e8a507878a8762953a403df0f4ef4"
    },
    "check-log2": {
        "exit": 0,
        "out/check.json": "46b1f35189d9b19a45019a1bc26417a14c5b2ca994c1a23d7052a41ce8a02779",
        "out/manifest.json": "c99e5258e079412fdfa42fb7169873a4fab4c56f10d159ab0feb1bf5a3ca6d73",
        "stdout": "fdab430e73cfc2bb32330def3cfd1c486559c899a45b023af04ae865282c6720"
    },
    "check-no-header": {
        "exit": 0,
        "out/check.json": "fd26ce1c5629db74777fc7235a1512623a8099bf210007150a09c28465e768d2",
        "out/manifest.json": "a53f0ecdcb90324814f9090f81100bf70b3bbea9374d9cc80664d00fba0fb1bc",
        "stdout": "1ba082531338a241d4fae7e88fe9e4ad366e8a507878a8762953a403df0f4ef4"
    },
    "check-out": {
        "exit": 0,
        "out/check.json": "fd26ce1c5629db74777fc7235a1512623a8099bf210007150a09c28465e768d2",
        "out/manifest.json": "85f39898a21c092cf23b31ddae21e47f231dfd93c64bcbe97ca37419093befbb",
        "stdout": "1ba082531338a241d4fae7e88fe9e4ad366e8a507878a8762953a403df0f4ef4"
    },
    "corr": {
        "exit": 0,
        "out/histogram.csv": "2b53c34a5f16a23307b7c01efbd05604b3491821d4dc66a485b999441e491df4",
        "out/manifest.json": "e50ad318e059928e370840dcbccdb77905c6a28f535936471c2cb41ec9b0e38d",
        "out/summary.json": "720e1301ad674f4edcb88759db0b5fe1e82922c26fb093a879d1824d97bbac52",
        "stdout": "8c43baecc34c83fd840ed89b205c9ea811adf4e2608ae4d0ebe9a64e7eeb361d"
    },
    "corr-config": {
        "exit": 0,
        "out/histogram.csv": "8be7f63e19f956d78fc6cfa39aa548c56761c718edb2fb453aef2099f8f93ce9",
        "out/manifest.json": "ae56c0d06ce27f1a55aec1b3eb0458bec528629c6f6a598b2255677579783f1a",
        "out/summary.json": "75971765ea1c46dd564e27235a60d361b72f04bb5389aa0f428786edf50d89a4",
        "stdout": "827444b4760fb6ef0608d25b61ba62fa6453de3f45e3dfb4061889d3dc57ca90"
    },
    "corr-delta": {
        "exit": 0,
        "out/histogram.csv": "9e72a53c359eef0b6b9712291aa79995663d44de9b4e04ac2f2036d4e99a314d",
        "out/manifest.json": "bb889b440ec82aede3c9df2d0e221eb31675a8433a5e78a99726dfd10cee0a2a",
        "out/summary.json": "af8db732287bdde96597e65f9a6fb962bafa4fe50d353527780c3d7e65a3c2bc",
        "stdout": "b8af12a61c3a1fb91fa9f83f63b9fb252ad024a0fa66223004674a45bef8a731"
    },
    "corr-even": {
        "exit": 0,
        "out/histogram.csv": "561ce81bafea33b858dae2ced78c75b27810781200e3495efe1edd60f1374794",
        "out/manifest.json": "c4b30643df4e91ea9000556a24a3c8eb4151fea9abaefa6d8937246b609e925a",
        "out/summary.json": "85c58b3d9ba17a832689f01859c3de1926bcbe14b9dfb83d0b2a3b48192041f8",
        "stdout": "39c8368893146f6b4c89193eb2fc1bc6d6e52bf82ad0e6d23beba7c57a2d3d8e"
    },
    "corr-genes-z": {
        "exit": 0,
        "out/histogram.csv": "d3ba8dc95fda7b5e5aecfbe042d323bb2d99eaac1fd57c368fca9a4bd20022fd",
        "out/manifest.json": "c74c7bf7656a6581a26e94f7cc31fb0ced8a37699e8e4e7f3184e0b249fe051f",
        "out/summary.json": "6fd2af404e67fc481ed20361c2f075e09210ebc2731e2e1b54850f88b64a0afd",
        "stdout": "5c555fbd3bc4db8ebd1e006b35a5fca32c37cc7dd0e57ed22dabbf14554effae"
    },
    "corr-log2": {
        "exit": 0,
        "out/histogram.csv": "fb8ab74dbe1fcc7654c6d83f0eefbe64e0559b0f70b59ae3271db00ab6a19979",
        "out/manifest.json": "2e743d75d8b45bcb3e8459804683864c7b309dbc259065f5f1b0fe33e0962520",
        "out/summary.json": "f478be4952a8372984af27e44507184f43961161c04311fb6b118a9ef76b42cb",
        "stdout": "607e08125619abdf32908fb1f1ef99ceb3aa88666b32a60133d6774639bc3f5a"
    },
    "delta": {
        "exit": 0,
        "out/delta.tsv": "a4e31b1f8508d6b7a29b044cb94b4ec9b85306efe28e4ca6d79497fa9fce5a46",
        "out/manifest.json": "aa97b9869c687dd2076596ccac766d94d9ff5d7976e28291cfcfd407d6206b86",
        "stdout": "dc34d8db3494b46bb8c1595c2410cd8816a5d642f9efc7d83e6873bf8c7705a0"
    },
    "delta-order-from": {
        "exit": 0,
        "out/delta.tsv": "feb555c9d5fe4db5a51d0aca3f1729eb7570ed8a5f0896e577592bfe07cff818",
        "out/manifest.json": "4c4d932d314315ecfdaae2660510a2b7e7d3e6479ed8469d9f853c4fb74d9114",
        "stdout": "dc34d8db3494b46bb8c1595c2410cd8816a5d642f9efc7d83e6873bf8c7705a0"
    },
    "exceedance": {
        "exit": 0,
        "out/exceedance.csv": "209aeaa274aba90c3eee271936af65a550897e276ecfc0871d0cd3d3566d4b7f",
        "out/exceedance.json": "a5dc09515052d300dd1d0cb1a937055a255fea0b370bfe3b4720ed8db805c0f0",
        "out/manifest.json": "83ffb0774219ab3ef49189892d471e7cba803901cea57682550ec7fbe06f05d4",
        "stdout": "2cc8aba2ce658c64efa1a0b03182bce8f13deaabd0ebd81c8fb732efb0b5638d"
    },
    "exceedance-expression": {
        "exit": 0,
        "out/exceedance.csv": "11f53ee416d974a61483fe85cc1d3a3bd683a0615b01c11226ff94ad0060afc0",
        "out/exceedance.json": "b7c313f06bbee456271c8a60ac620194a17cca8ae5d625ffbf53f5f12d862884",
        "out/manifest.json": "6c5b8381c3c583ffa53114fc6807fbf269e974b397c519b491395159a566fbc3",
        "stdout": "2cc8aba2ce658c64efa1a0b03182bce8f13deaabd0ebd81c8fb732efb0b5638d"
    },
    "exp-inject": {
        "exit": 0,
        "out/injection.csv": "db6ab6753e13454ded1b48ed5c8ae6ae507b77d2842c87ccb95088e20e058d10",
        "out/injection.json": "feb97bba50abe5c3f21b84bdfc70136d82a85f5bc41af70d2f6c42e4ff0cdb03",
        "out/manifest.json": "b6e19e25157dab767e4ea9cb20877d6fd8b016ff3f2c1edeb3a4e7f3a24066ba",
        "stdout": "094dbaea957b8d4abcd99052e1ca7e87bef8a052b8591ca1856e6a2d2188fba6"
    },
    "exp-inject-expression": {
        "exit": 0,
        "out/injection.csv": "5af0802c043357ecba305792cef12324bc112ac6d339612a979f517ed7256374",
        "out/injection.json": "e54ca3dededf1383e6a32e43cadc16326346aa2aef74d147276659fde1fef35a",
        "out/manifest.json": "c7594f8860276887e24745ff3f843cca217f7a7edda75d51a05be03e9de6d022",
        "stdout": "89b2d1aed3ce3d7a1ac874d666ced5e53840d76f495ba6799ab385f71557b8be"
    },
    "exp-jackknife": {
        "exit": 0,
        "out/manifest.json": "f56a596699aaf74f1ea56bb4f38c0584199c4b4c072e93879766ca65d7823a59",
        "out/stability.csv": "2f0d25160eead920bbf5787af3951b71a3ede4c7b11b2fad1989cb8c5727c349",
        "out/stability.json": "3f33e3239ca733399252c456ad69c9214d1162a134deca6575bf5c1375fe6328",
        "stdout": "b4c833fe9ec570e8fafdb262c7cf05f72d6990263cd8154eb9ded4d078b75cab"
    },
    "exp-moving": {
        "exit": 0,
        "out/consistency.csv": "323388600fdcf6dcd4de9bcb872cded25bdac76456d1fa6b0b089101e690e1f4",
        "out/consistency.json": "3c429922e6b4ec2ec4b3428d753098c056e74d57b3411efc0951b56a18069e0f",
        "out/manifest.json": "dc44787d40fca5d9feedb39034fc93ba40f648d109ade551fdbe4f7361234ae7",
        "stdout": "83d3c0c5c16a67d18ab98adfe4d7cb231ed90da2c80e594a27a4837ab338b033"
    },
    "exp-moving-genes": {
        "exit": 0,
        "out/consistency.csv": "ab11227b557e2873452412fd6bb5064d2b9108ff7b7221610cdea32beed12f04",
        "out/consistency.json": "a0c940c5f9f6a88dea3f9b629d6e37a1e3ff04ad63f63ee334feff2f646b6b1f",
        "out/manifest.json": "81d4fe9fb8759bdf46811e79de0c955022d505b8484ca47925f23a213479fd3f",
        "stdout": "cd3d09381dcb7748de560bf698175e215d2b4b24fce9b560b30f0163768cde1a"
    },
    "exp-null": {
        "exit": 0,
        "out/manifest.json": "35161ef88a5170b2407a26d88a8e75cba2069e5692430e4934538d7b1c1edbbf",
        "out/null_split.csv": "93a2a77b9288be9c5f9a0ed24170179dd4fab0e9c8982aca6b24da63d351938e",
        "out/null_split.json": "46532c8c8ba2f44fac889e111ac34a556bc2520114d4f7a8689b085aadde7b24",
        "stdout": "7eb2781d35ca3f7e4c742e5e0c7b9ff66bdf9aa001bf109fa64601fd4bcb44b8"
    },
    "exp-null-expression": {
        "exit": 0,
        "out/manifest.json": "baded16a00105f98eac03db996917e6dcf0ee5f80ff4cc261b7b6684aef75e35",
        "out/null_split.csv": "71208cebfd9928522afda1cf434f4a3aca6bb4c69c6f6c0d79ab8f6e7c6f540c",
        "out/null_split.json": "9152fd5691f01217effbc135065437f3a620bd6b9b27588bd5bc0d8e81a6b4ed",
        "stdout": "a4b97e15cf741033bec312dcd819a1c3ba745805c05d883d574794b484734e18"
    },
    "ks-cdf": {
        "exit": 0,
        "stdout": "beb7d37db004bef225ec3d016e5eceb3b45068b4c51f8a93cb622380a8f03e35"
    },
    "ks-cdf-out": {
        "exit": 0,
        "out/cdf.csv": "908c185477d51d783a7d35efb770aeb9b069bf63e230c729bfb0f3db555ac342",
        "out/manifest.json": "651dddd3a910ef85caeed87335d3cf2e00342dfd54b6f02f5670ac0068b193cf",
        "stdout": "beb7d37db004bef225ec3d016e5eceb3b45068b4c51f8a93cb622380a8f03e35"
    },
    "ks-d": {
        "exit": 0,
        "stdout": "716bd23843a6ac8b9152fd1d1ec973ad65143ac390f0294740fc465909bfe57a"
    },
    "ks-d-out": {
        "exit": 0,
        "out/ks.json": "5a307ab8f4d222d3a24a24f2f56ce794f1bd7c68ef659899211c82c065bffabb",
        "out/manifest.json": "234aa4440cd430bb47aa712a90f8339535d9a944105197d39dbb62e6570e6c2c",
        "stdout": "716bd23843a6ac8b9152fd1d1ec973ad65143ac390f0294740fc465909bfe57a"
    },
    "order": {
        "exit": 0,
        "out/manifest.json": "7ec6c8cf64a8e475eac6fe29c488bea380a182a5379dee3f47c001a2519d9ead",
        "out/ordering.csv": "bf60bec64742d8b2db1ce96a4ae53277d56df0404472f4196997d74da44c1419",
        "stdout": "c5f66c161e3958acbfb31da0557232ed920e4df4bf5ddb66156bec8d2e87a257"
    },
    "order-no-header": {
        "exit": 0,
        "out/manifest.json": "5420578bec0c3d34f9240377159bd9101e3419bdf244d642e0370c15eabb11aa",
        "out/ordering.csv": "bf60bec64742d8b2db1ce96a4ae53277d56df0404472f4196997d74da44c1419",
        "stdout": "c5f66c161e3958acbfb31da0557232ed920e4df4bf5ddb66156bec8d2e87a257"
    },
    "screen": {
        "exit": 0,
        "out/manifest.json": "d04ec12a32af730f1651a0eeadc6e47d18d1cd5bae091887af8e30a2d2b2dc29",
        "out/screen.csv": "e7ca2f289174ac3517666986c45a1c7d334602b4d3993b57bce69024d9cfc31c",
        "out/screen.json": "872488e318007f8add4e6ec634680d54f176ea62975d0f750f7849cce8f4883e",
        "stdout": "393f6b2209f95340d9cdd8aacceebe432d598837333b6f1eb7fcc947b42e6bcc"
    },
    "screen-expression": {
        "exit": 0,
        "out/manifest.json": "6854e634f7e9176e681d2e586eb14d9ab6c5f477c18a915352abf4768a33b2d6",
        "out/screen.csv": "6dba75e6d5fe8039081d757275dc2ac4ff48ad8273ce667083f3ac1d6a75c663",
        "out/screen.json": "a16ca9401d17d286b93565c5202023c5cff872e30fd27f9b632618b141a4b102",
        "stdout": "535dc7a87b751564116ae102e20fd65ea55938924189f46065d04ded793f7ac1"
    },
    "synth": {
        "exit": 0,
        "out/manifest.json": "9bd6fedad200e067e55b97f5bfe10125300ab5ac37efb3723454341bf35a70d3",
        "out/synth.tsv": "1f267d37d95b4f55bed7769a61aaebbea59c464808669451d5a9ab2fd589a57b",
        "stdout": "724c0447b11561c09b534fad20a7e04ac317eb11dea9e0636b94e77d2d3fa4ad"
    },
    "synth-noise": {
        "exit": 0,
        "out/manifest.json": "423b7f284bff93b235ee1f2fdaa068dd5df685813f8583085fdeccc5f4fc35d7",
        "out/synth.tsv": "9b3be3091ecfb73e04c321e6c7326f71817f7308144cad7b382d3ad0f291ff34",
        "stdout": "724c0447b11561c09b534fad20a7e04ac317eb11dea9e0636b94e77d2d3fa4ad"
    },
    "synth-null-noise": {
        "exit": 0,
        "out/manifest.json": "d8ceffca537de0303c09a91d6534a3c03c0971ee8f94c710f11502d33eb67792",
        "out/synth.tsv": "ce71cbcc4381010756f948e7366e7c931414be2a33fa35013e96e7ff80db3d8e",
        "stdout": "8a437e02a1361b766d37c1eb49b0e5afb2df96d5ad6dd07d7ebfec1e5ca02944"
    },
    "triples": {
        "exit": 0,
        "out/manifest.json": "00dbcd868a6bd7a09f249aedabafd0d12bd624a32bc456b31ff34e1c1bc8e255",
        "out/triples.csv": "e911517512180326b6c1541776537eaed318fac029845c77003b27402d2e4ebe",
        "out/triples.json": "c8195af7e690ae1fca344e99407a7a4ee4c088d1eafd218edf53668ffe8b1ac7",
        "stdout": "809b9d486e41e76f58cc386a6139e5f81490468dc983aa567e583d6196ec84d9"
    },
    "triples-any": {
        "exit": 0,
        "out/manifest.json": "a8a2affc975fb722238aae5265d745f4ff4581f7c4b7257ad182ade8c2d211c4",
        "out/triples.csv": "4d926cf580e3acb5f7b0bd05573dd25688523e08cfa076d077ff8f0f3cd5c36f",
        "out/triples.json": "9c22dfe056d138d4c13e7b6cd61b40179f9a7c66e1b31fae816bc55a83205e73",
        "stdout": "5dd3f41d815bd9d0c18fc77ae3678b5b40bd2ba01fbe7dc0c5863055c49639bc"
    },
    "typea": {
        "exit": 0,
        "out/manifest.json": "4fee653305dcb8782d5e4dd7457f24b73a1a17e7f4c06f31efcdeed913d11621",
        "out/pairs.csv": "3fe8758d0127adaf87a3e7d228751cb3ed89b45b62f6dabb586673b7cb40d8d8",
        "out/typea.json": "0437c887638f85cda18321b8c86f2a6f3dd5222f79dc9e46fb48297a2375c8b0",
        "stdout": "7502041851c9aeb8c091a8a6a384aedce48365faa54d5930b5d8d24c80925206"
    }
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name]) == GOLDEN[name]


def test_every_subcommand_is_covered():
    covered = {argv[0] for argv in CASES.values()}
    assert covered == {"check", "corr", "order", "delta", "typea", "triples", "ks", "screen",
                       "exp-null", "exp-jackknife", "exp-inject", "exp-moving", "exceedance",
                       "synth"}


if __name__ == "__main__":
    result = {}
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                write_inputs(Path(tmp))
                result[case] = run_case(argv)
            finally:
                os.chdir(here)
    json.dump(result, sys.stdout, indent=4, sort_keys=True)
    print()
