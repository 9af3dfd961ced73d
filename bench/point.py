"""Measure one trajectory point: a commit against its parent, paired.

    python bench/point.py --work DIR [--change REV] [--parent REV]

Both commits are exported with ``git archive`` into DIR (outside the
checkout; a ``git worktree`` would leave records in ``.git``), and the
unchanged ``clibench/run.py`` of each runs there, untraced, on every
workload of BENCHMARK.json for its ``run_seconds``, seeds 1-5, in two
rounds: 10 pairs per workload. Within a pair the two commits run back to
back, the side that goes first alternating from one pair to the next, so
host drift falls on both sides alike. Each run gets a fresh, empty
``XDG_CACHE_HOME``, so every run starts with a cold parsed-table cache.
``--change`` and ``--parent`` name older commits, to measure a past point.

The point is written to ``bench/BENCH_<short change sha>.json``: both
commits and their ``src`` trees, the machine facts, each workload's
end-to-end metrics per side (median and quartiles over all its runs), every
pair's values, the per-step medians and the report digests per seed.
``bench/compare.py`` prints ratios from it. Needs git and tar on the PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
SEEDS = (1, 2, 3, 4, 5)
ROUNDS = 2
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, into: Path) -> Path:
    """The tree of ``sha``, unpacked into a fresh directory under ``into``."""
    tree = into / sha[:12]
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return tree


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def run(tree: Path, workload: str, seed: int, work: Path) -> dict:
    """One ``clibench/run.py`` run in ``tree`` with a cold cache: its
    metrics, per-step medians, digest and correctness."""
    cache = Path(tempfile.mkdtemp(prefix="xdg-", dir=work))
    env = {**os.environ, "XDG_CACHE_HOME": str(cache)}
    cmd = [sys.executable, "clibench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    steps: dict[str, dict[str, float]] = {}
    digests = []
    machine = {}
    for line in lines:
        if line.startswith("step "):  # step LABEL KEY: median M q1 .. q3 .. n N
            label, key = line.split()[1:3]
            steps.setdefault(label, {})[key.rstrip(":")] = float(line.split()[4])
        elif line.startswith("digest "):
            digests.append(line)
        elif line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "steps": steps, "machine": machine,
            "digest": hashlib.sha256("\n".join(digests).encode()).hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", type=Path, required=True,
                    help="scratch directory outside the checkout for the exported trees")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--parent", default=None, help="default: the change's first parent")
    args = ap.parse_args(argv)

    shas = {"change": git("rev-parse", f"{args.change}^{{commit}}")}
    shas["parent"] = git("rev-parse", f"{args.parent or shas['change'] + '^'}^{{commit}}")
    work = args.work.resolve()
    if work == ROOT or ROOT in work.parents:
        raise SystemExit("--work must lie outside the checkout")
    work.mkdir(parents=True, exist_ok=True)
    trees = {side: export(shas[side], work) for side in SIDES}

    pairs = []
    machine = {}
    for rnd in range(ROUNDS):
        for seed in SEEDS:
            for workload in WORKLOADS:
                first = SIDES[len(pairs) % 2]
                order = SIDES if first == "parent" else SIDES[::-1]
                pair = {"workload": workload, "seed": seed, "round": rnd, "first": first}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, work)
                    machine = pair[side].pop("machine") or machine
                pairs.append(pair)
                print(f"{time.strftime('%H:%M:%S')} round {rnd} seed {seed} {workload}: " +
                      ", ".join(f"{m} {pair['parent']['metrics'][m]:.3f} -> "
                                f"{pair['change']['metrics'][m]:.3f}" for m in METRICS),
                      flush=True)

    workloads = {}
    for workload in WORKLOADS:
        mine = [p for p in pairs if p["workload"] == workload]
        entry = {"pairs": len(mine), "seeds": sorted({p["seed"] for p in mine})}
        for side in SIDES:
            runs = [p[side] for p in mine]
            labels = sorted({label for r in runs for label in r["steps"]})
            entry[side] = {
                "metrics": {m: summary([r["metrics"][m] for r in runs]) for m in METRICS},
                "steps": {label: {key: statistics.median(r["steps"][label][key] for r in runs
                                                         if label in r["steps"])
                                  for key in ("wall", "cpu", "rss_mb")}
                          for label in labels},
                "correct": all(r["correct"] and r["failed"] == 0 for r in runs),
                "digests": {str(s): sorted({p[side]["digest"] for p in mine if p["seed"] == s})
                            for s in entry["seeds"]},
            }
        entry["digests_match"] = entry["parent"]["digests"] == entry["change"]["digests"] and all(
            len(d) == 1 for d in entry["change"]["digests"].values())
        entry["runs"] = [{"seed": p["seed"], "round": p["round"], "first": p["first"],
                          **{side: p[side]["metrics"] for side in SIDES}} for p in mine]
        workloads[workload] = entry

    point = {
        "commit": shas["change"], "src_tree": git("rev-parse", f"{shas['change']}:src"),
        "parent": shas["parent"], "parent_src_tree": git("rev-parse", f"{shas['parent']}:src"),
        "machine": machine,
        "settings": {"seconds": SECONDS, "rounds": ROUNDS, "seeds": list(SEEDS),
                     "trace": 0, "cache": "cold at the start of every run"},
        "workloads": workloads,
    }
    out = ROOT / "bench" / f"BENCH_{shas['change'][:7]}.json"
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    for side in SIDES:
        shutil.rmtree(trees[side], ignore_errors=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
