"""End-to-end benchmark of the deltaseq command line at paper scale.

    python3 clibench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src``. Workloads live in ``workloads.py``. The load is a closed loop with
one client: each step is a fresh child process, started only after the
previous one has exited, with BLAS pinned to ``BLAS_THREADS`` threads.

``--trace 0`` builds the inputs, runs one whole untraced pass over the step
script, and then goes on through the script, pass after pass, as long as the
next step would end within ``--seconds`` by its last time; the last pass may
stop part way. Then it builds the inputs again until it has ``SETUPS`` build
times; ``setup_s`` is their median. ``wall_s`` and ``cpu_s`` are the sums over
the script of each step's median, so every step run counts, whole pass or
not; ``peak_rss_mb`` is the largest step median. ``failed_frac`` (failed
steps over attempted ones) is printed with the timings and carried by
``failed``/``attempted``. ``--trace 1`` builds the
inputs once under the span tracer, runs one untraced and one traced pass,
and reports the per-layer metrics, the tracing overhead and the span
coverage check.

Every step's report files, ``manifest.json`` and stdout are hashed. At the
reference seed the hashes must equal ``reference_digests.json``; at any seed
every pass must reproduce the first one. The hashes are printed, so two
commits compare with one ``diff``. ``--write-reference`` records the
reference digests of a workload from the current program.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (steps), and ``metrics``, named and with units as in the root
``BENCHMARK.json``. Working files go to ``.clibench/`` and are removed at
the end, except one result file per run under ``.clibench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 1
SETUPS = 3
BLAS_THREADS = 1  # two threads bought nothing on `corr` and slowed `exp-jackknife`
DEADLINE_S = 170.0  # every child is killed past this point of the run
# as the installed `deltaseq` console script runs it
ENTRY = "import sys; from deltaseq.cli import main; sys.exit(main())"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_facts() -> dict:
    import numpy as np
    from deltaseq import _kernels

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = os.cpu_count() or 1
    facts = {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": min(BLAS_THREADS, nproc),
        "kernel_backend": _kernels.ACTIVE_BACKEND,
        "numba_imports": _kernels.HAVE_NUMBA,
    }
    if not _kernels.HAVE_NUMBA:
        facts["note"] = "numba does not import here, so the numba kernel backend is not measured"
    return facts


def child_env(threads: int) -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    pinned = {k: str(threads) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **pinned}


def run_step(step, passdir: Path, env: dict, traced: bool, deadline: float) -> dict:
    """Run one command in a child process and wait for it; rusage from wait4."""
    spans = passdir / f"{step.label}.spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *step.argv]
    else:
        cmd = [sys.executable, "-c", ENTRY, *step.argv]
    with open(passdir / f"{step.label}.stdout", "wb") as out, \
            open(passdir / f"{step.label}.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=passdir, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"label": step.label, "start": start, "wall": end - start,
              "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
              "code": proc.returncode}
    if traced and spans.exists():
        result["trace"] = json.loads(spans.read_text(encoding="utf-8"))
    return result


def step_digests(step, passdir: Path) -> dict:
    out = passdir / step.out
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    digests = {"stdout": sha256(passdir / f"{step.label}.stdout")}
    digests.update({p.relative_to(passdir).as_posix(): sha256(p) for p in files})
    return digests


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def step_problems(step, res: dict, passdir: Path, inputs: Path) -> list[str]:
    if res["code"] != 0:
        tail = (passdir / f"{step.label}.stderr").read_text(errors="replace").strip()[-300:]
        return [f"exit code {res['code']}: {tail}"]
    problems = []
    if read_json(passdir / step.out / "manifest.json").get("command") != step.argv[0]:
        problems.append("manifest.json missing or names another command")
    for name, want in step.expect.items():
        got = read_json(passdir / name)
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{name}: {key} is {got.get(key)!r}, expected {value!r}")
    for name, source in step.same_as.items():
        path = passdir / name
        if not path.is_file() or sha256(path) != sha256(inputs / source):
            problems.append(f"{name} differs from {source}")
    return problems


def run_pass(workload, work: Path, index: int, env: dict, traced: bool, deadline: float,
             fits=lambda step: True) -> dict:
    """Run the step script in a fresh directory, stopping before the first
    step that ``fits`` refuses."""
    passdir = work / f"pass-{index}"
    passdir.mkdir()
    t0 = time.monotonic()
    steps = []
    for step in workload.steps:
        if not fits(step):
            break
        steps.append(run_step(step, passdir, env, traced, deadline))
    wall = time.monotonic() - t0
    for step, res in zip(workload.steps, steps):
        res["digests"] = step_digests(step, passdir)
        res["problems"] = step_problems(step, res, passdir, work / "inputs")
    shutil.rmtree(passdir)
    return {"traced": traced, "whole": len(steps) == len(workload.steps), "wall": wall,
            "steps": steps}


def make_inputs(workload, seed: int, work: Path, tracer=None) -> tuple[float, dict]:
    inputs = work / "inputs"
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir()
    t0 = time.monotonic()
    if tracer is None:
        workload.make_inputs(seed, inputs)
    else:
        tracer.call("setup", workload.make_inputs, (seed, inputs))
    elapsed = time.monotonic() - t0
    digests = {}
    for path in sorted(inputs.iterdir()):
        digests[path.name] = sha256(path)
        with open(path, "rb") as fh:  # flushed now, not during the next pass
            os.fsync(fh.fileno())
    return elapsed, digests


def check_digests(passes: list[dict], reference: dict | None) -> None:
    """Flag every step whose hashes differ from the reference (or pass 1)."""
    expected = reference or {s["label"]: s["digests"] for s in passes[0]["steps"]}
    for p in passes:
        for s in p["steps"]:
            if s["digests"] != expected.get(s["label"]):
                which = "the reference" if reference else "the first pass"
                s["problems"].append(f"report digests differ from {which}")


def layer_metrics(workload, all_labels, setup_spans, untraced: dict, traced: dict):
    """Per-layer metrics of one traced pass plus the traced set-up, and the
    problems of the span coverage check."""
    from spantrace import LAYERS, self_times

    calls = defaultdict(int)
    own = defaultdict(float)
    counts = defaultdict(int)
    cache = defaultdict(int)
    startups = []
    problems = []

    def add(spans):
        for span, s in zip(spans, self_times(spans)):
            calls[span[0]] += 1
            own[span[0]] += s
            for key, value in (span[4] or {}).items():
                counts[f"{span[0]}.{key}"] += value

    add(setup_spans)
    for res in traced["steps"]:
        trace = res.get("trace")
        if trace is None:
            problems.append(f"{res['label']}: the traced command wrote no spans")
            continue
        add(trace["spans"])
        startup = trace["main_start"] - res["start"]
        startups.append(startup)
        selfs = self_times(trace["spans"])
        gap = res["wall"] - startup - sum(selfs)
        # what remains is interpreter shutdown and writing the spans out
        if min(selfs) < -1e-6 or not 0.0 <= gap <= 0.05 * res["wall"] + 0.2:
            problems.append(f"{res['label']}: self times {sum(selfs):.4f} s do not add up to "
                            f"wall {res['wall']:.4f} s less start-up {startup:.4f} s")
        pv, lat = trace["caches"]["_pvalue_from_scaled"], trace["caches"]["_counts_within_lattice"]
        cache["hits"] += pv["hits"]
        cache["misses"] += pv["misses"]
        cache["lattice"] += pv["misses"] + lat["misses"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in {name for name, *_ in LAYERS} | {"cli.main"}:
        m[f"{layer}.self_s"] = own[layer]
        m[f"{layer}.calls"] = calls[layer]
    for key in ("kernels.ks.rows", "kernels.ks.tied_rows", "kernels.hist.values",
                "kstest.distance.points", "experiments.jackknife.pair_evals",
                "experiments.inject.replicates"):
        m[key] = counts[key]
    m.update({f"cli.step.{label}.wall_s": 0.0 for label in all_labels})
    m.update({f"cli.step.{r['label']}.wall_s": r["wall"] for r in traced["steps"]})
    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    for layer in ("datamodel.load", "datamodel.write"):
        m[f"{layer}.mb_per_s"] = ratio(counts[f"{layer}.bytes"] / 1e6, own[layer])
    m["kernels.ks.rows_per_s"] = ratio(counts["kernels.ks.rows"], own["kernels.ks"])
    m["kstest.lattice_counts"] = cache["lattice"]
    m["kstest.pvalue_cache.hit_ratio"] = ratio(cache["hits"], cache["hits"] + cache["misses"])
    m["corrstats.pairs"] = counts["corrstats.summary.pairs"]
    m["corrstats.gflops"] = ratio(counts["corrstats.summary.flops"] / 1e9, own["corrstats.summary"])
    m["dependence.triples.accept_ratio"] = ratio(counts["dependence.census.kept"],
                                                 counts["dependence.census.attempts"])
    m["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    for layer in workload.layers:
        if calls[layer] < 1:
            problems.append(f"layer {layer} recorded no call")
    for name in workload.nonzero:
        if not m[name] > 0:
            problems.append(f"{name} is {m[name]}, expected above zero")
    return m, problems


def measure(workload, seed: int, seconds: float, work: Path, env: dict, deadline: float):
    """Untraced run: set-ups and passes; returns (set-up times, passes, problems)."""
    elapsed, digests = make_inputs(workload, seed, work)
    setup_times = [elapsed]
    end = time.monotonic() + seconds
    last = {}  # step label -> its latest wall time

    def fits(step) -> bool:
        return step.label not in last or time.monotonic() + last[step.label] <= end

    passes = []
    while True:
        passes.append(run_pass(workload, work, len(passes), env, False, deadline, fits))
        last.update((s["label"], s["wall"]) for s in passes[-1]["steps"])
        if not passes[-1]["whole"]:
            break
    # the other set-ups come after the passes, so that their median samples
    # the machine at both ends of the run
    problems = []
    for _ in range(SETUPS - 1):
        elapsed, again = make_inputs(workload, seed, work)
        setup_times.append(elapsed)
        if again != digests:
            problems.append("set-up runs wrote different inputs")
    return setup_times, passes, problems


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's digests as the workload's reference")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "deltaseq" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a deltaseq checkout: need {SRC / 'deltaseq'} and {spec_path}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    expected = None
    if args.seed == REFERENCE_SEED and not args.write_reference:
        expected = reference.get(workload.name)
        if expected is None:
            print(f"error: no reference digests for {workload.name}", file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    facts = machine_facts()
    env = child_env(facts["blas_threads"])
    work = ROOT / ".clibench" / f"work-{workload.name}-{os.getpid()}"
    results = ROOT / ".clibench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            from spantrace import Tracer

            tracer = Tracer()
            tracer.install()
            setup_times = [make_inputs(workload, args.seed, work, tracer)[0]]
            passes = [run_pass(workload, work, 0, env, False, deadline),
                      run_pass(workload, work, 1, env, True, deadline)]
        else:
            setup_times, passes, problems = measure(workload, args.seed, args.seconds,
                                                    work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = defaultdict(lambda: defaultdict(list))  # label -> key -> values
    for p in passes:
        for s in p["steps"]:
            if not p["traced"]:
                for key in ("wall", "cpu", "rss_mb"):
                    samples[s["label"]][key].append(s[key])
    if args.trace:
        all_labels = [s.label for w in WORKLOADS.values() for s in w.steps]
        computed, problems = layer_metrics(workload, all_labels, tracer.spans, *passes)
    else:
        step_median = {label: {key: statistics.median(v) for key, v in by_key.items()}
                       for label, by_key in samples.items()}
        computed = {"wall_s": sum(m["wall"] for m in step_median.values()),
                    "cpu_s": sum(m["cpu"] for m in step_median.values()),
                    "peak_rss_mb": max(m["rss_mb"] for m in step_median.values()),
                    "setup_s": statistics.median(setup_times)}
    check_digests(passes, expected)
    steps = [s for p in passes for s in p["steps"]]
    failed = sum(1 for s in steps if s["problems"])
    if args.write_reference:
        if args.seed != REFERENCE_SEED or failed:
            print(f"error: reference digests need seed {REFERENCE_SEED} and a clean run",
                  file=sys.stderr)
            return 1
        reference[workload.name] = {s["label"]: s["digests"] for s in passes[0]["steps"]}
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in names}
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": facts, "setup_s": setup_times, "passes": passes,
              "computed": computed, "problems": problems}
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("machine " + json.dumps(facts, sort_keys=True))
    for s in passes[0]["steps"]:
        for name, digest in s["digests"].items():
            print(f"digest {s['label']} {name} {digest}")
    for s in steps:
        for problem in s["problems"]:
            print(f"FAILED {s['label']}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    timings = {f"step {label} {key}": values for label, by_key in samples.items()
               for key, values in by_key.items()}
    timings["whole pass wall"] = [p["wall"] for p in passes if p["whole"] and not p["traced"]]
    timings["setup_s"] = setup_times
    for name, values in timings.items():
        if values:
            q1, q2, q3 = quartiles(values)
            print(f"{name}: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(values)}")
    print(f"failed_frac: {failed / len(steps)} ({failed} of {len(steps)} steps)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(steps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
