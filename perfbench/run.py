#!/usr/bin/env python3
"""qmarginal benchmark: time to a certified verdict, end to end and per layer.

    python3 perfbench/run.py --workload dual-ladder --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. Each pass is a fresh `python3
perfbench/worker.py` process (cold library caches, numpy import) with BLAS
pinned to one thread; its cases run one after another (a closed loop with
one client). Passes repeat while the next one should end within --seconds
(at least one runs), and the run reports medians over them.

Times are reported in reference-speed seconds. The worker times a fixed
standard-library task (reference_task in worker.py) every 0.25 CPU seconds
during a pass, and once right after the import in a set-up-only process; a
raw time t measured alongside reference time r is reported as
t * REF_NOMINAL_S / r. On a shared host the speed of Python code drifts by
+-25% within a minute and by more over half an hour; raw seconds carry that
into every run, the scaled ones cancel it. Raw seconds are printed and kept
in the report.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, including the tracing
overhead (traced minus untraced wall_s). Every verdict is checked against
the pinned table in workloads.py. Metadata, per-pass details, spans and the
layer map go to .perfbench_out/; the last stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better); BENCHMARK.json must list the same names.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "exact_frac": ("fraction", "higher"),
    "passed_frac": ("fraction", "higher"),
}
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
REF_NOMINAL_S = 0.005  # reference_task seconds that count as nominal speed (~a quiet 2-vCPU x86 VM)
SETUP_SAMPLES = 8  # set-up-only processes per run, half before and half after the passes
RUN_BUDGET_S = 150.0  # no case starts later than this after the run began
GRACE_S = 10.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def spawn(extra, deadline):
    """Run one worker process; return (parsed last line or None, start time)."""
    env = {**os.environ, **BLAS_THREADS}
    start = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *extra],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - start, 0) + GRACE_S,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return None, start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, start
    return json.loads(lines[-1]), start


def check_manifest() -> str | None:
    """The BENCHMARK.json metric and workload names must match this code."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
        return "BENCHMARK.json end_to_end names differ from run.py"
    if {m["name"] for m in spec["per_layer"]} != set(tracer.PER_LAYER):
        return "BENCHMARK.json per_layer names differ from tracer.py"
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        return "BENCHMARK.json workloads differ from workloads.py"
    return None


def metadata(args) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            rev = git.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmarginal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "qmarginal" / "__init__.py").is_file():
        return fail(f"no qmarginal sources under {ROOT / 'src'}")
    problem = check_manifest()
    if problem:
        return fail(problem)

    t_run = time.time()
    deadline = t_run + RUN_BUDGET_S
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup, raw_setup = [], []

    def sample_setup() -> bool:
        for _ in range(SETUP_SAMPLES // 2):
            res, start = spawn(["--setup-only"], deadline)
            if res is None:
                return False
            setup.append((res["ready_at"] - start) * REF_NOMINAL_S / res["ref_s"])
            raw_setup.append(res["ready_at"] - start)
        return True

    if not sample_setup():
        return fail("a set-up-only worker failed; qmarginal does not import")

    modes = (0, 1) if args.trace else (0,)
    passes = []
    t_first = time.time()
    while True:
        t_round = time.time()
        for traced in modes:
            extra = [
                "--workload", args.workload, "--seed", str(args.seed), "--trace", str(traced),
                "--deadline", repr(deadline),
                "--workdir", str(OUT / "work"),
                "--spans", str(OUT / f"{tag}-pass{len(passes)}.spans.json"),
            ]  # fmt: skip
            res, start = spawn(extra, deadline)
            died = res is None
            if died:  # every case of the pass counts as failed
                attempted = workloads.ATTEMPTED[args.workload]
                lost = {"label": "worker", "attempted": attempted, "failed": attempted, "verdicts": workloads.VERDICTS[args.workload], "exact": 0, "error": "exited without a result"}
                res = {"wall_s": time.time() - start, "cases": [lost]}
            res["traced"] = traced
            passes.append(res)
        if died:  # more passes would only repeat that
            break
        # start another round only if it should end within --seconds
        now = time.time()
        ends = now + (now - t_round)
        if ends - t_first > args.seconds or ends > deadline:
            break
    if not sample_setup():
        return fail("a set-up-only worker failed after the passes")

    def median(key, traced=0):
        return statistics.median([p[key] for p in passes if p["traced"] == traced and key in p] or [0.0])

    for p in passes:
        p["scale"] = REF_NOMINAL_S / p["ref_s"] if "ref_s" in p else 1.0
        p["wall_nominal_s"] = p["wall_s"] * p["scale"]
    cases = [c for p in passes for c in p["cases"]]
    attempted = sum(c["attempted"] for c in cases)
    failed = sum(c["failed"] for c in cases)
    verdicts = sum(c["verdicts"] for c in cases)
    e2e = {
        "wall_s": median("wall_nominal_s"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": median("rss_mb"),
        "exact_frac": sum(c["exact"] for c in cases) / verdicts,
        "passed_frac": (attempted - failed) / attempted,
    }
    layers = {}
    if args.trace:
        traced = [p for p in passes if p["traced"] and "layers" in p]
        for name in tracer.PER_LAYER:
            if name != "trace.overhead_s":
                scaled = tracer.PER_LAYER[name][0] == "s"
                layers[name] = statistics.median_low([p["layers"][name] * (p["scale"] if scaled else 1) for p in traced] or [0])
        layers["trace.overhead_s"] = median("wall_nominal_s", traced=1) - e2e["wall_s"]

    meta = metadata(args)
    shown = layers if args.trace else e2e
    units = {n: tracer.PER_LAYER[n][0] for n in layers} if args.trace else {n: u for n, (u, _) in END_TO_END.items()}
    report = {
        "meta": meta,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "raw_wall_s": median("wall_s"),
        "raw_setup_s": statistics.median(raw_setup),
        "ref_nominal_s": REF_NOMINAL_S,
        "end_to_end": e2e,
        "per_layer": layers,
        "layer_moves": {n: moves for n, (_, _, moves) in tracer.PER_LAYER.items()},
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "passes": passes,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))

    print("meta " + json.dumps(meta))
    for p_i, p in enumerate(passes):
        for c in p["cases"]:
            if c["error"]:
                print(f"FAILED pass {p_i} {c['label']}: {c['error']}")
    n_traced = sum(p["traced"] for p in passes)
    print(f"passes {len(passes) - n_traced} untraced, {n_traced} traced; cases attempted {attempted}, failed {failed} (failed_frac {failed / attempted:.4g})")
    print(f"raw seconds: wall {median('wall_s'):.6g} s, setup {statistics.median(raw_setup):.6g} s; reference task {median('ref_s'):.6g} s against {REF_NOMINAL_S} s nominal")
    for name, value in shown.items():
        note = f"  -> {tracer.PER_LAYER[name][2]}" if args.trace else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"report {OUT / (tag + '.json')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
