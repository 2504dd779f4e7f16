#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds perfbench/ (and the
library sources it compiles) into .bench_build/; later runs reuse that
build.  The measuring program prints its full record; this script maps the
record onto the metrics BENCHMARK.json declares and prints, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.  perfbench/README.md describes the
workloads, the metrics and how each maps to a layer.

Exits non-zero without printing a result when the program cannot be built
or a workload cannot run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"

WORKLOADS = ("pipeline", "churn", "serve_light", "serve_mixed")

# End-to-end metric -> (metric of the workload's record, scale), for every
# workload.  BENCHMARK.json declares the metrics and their units; README.md
# says what each one is on each workload.
END_TO_END = {
    "pipeline": {
        "setup_s": ("setup_s", 1.0),
        "latency_ms": ("wall_s", 1e3),
        "rate_per_s": ("resumes_per_s", 1.0),
    },
    "churn": {
        "setup_s": ("setup_s", 1.0),
        "latency_ms": ("step_ms.p50", 1.0),
        "rate_per_s": ("steps_per_s", 1.0),
    },
    "serve_light": {
        "setup_s": ("setup_s", 1.0),
        "latency_ms": ("p50_ms", 1.0),
        "rate_per_s": ("capacity_qps", 1.0),
    },
    "serve_mixed": {
        "setup_s": ("setup_s", 1.0),
        "latency_ms": ("heavy_p50_ms", 1.0),
        "rate_per_s": ("achieved_qps", 1.0),
    },
}


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the measuring program; False on error."""
    if not (ROOT / "src").is_dir():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if (BUILD_DIR / "CMakeCache.txt").exists() else [configure]
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return False
    return BINARY.exists()


def reference_flags():
    """Flags passing the digests recorded in reference.json: the fixed
    world's analyses and the watched tables of every churn flip schedule."""
    path = BENCH_DIR / "reference.json"
    if not path.exists():
        return []
    recorded = json.loads(path.read_text())
    flags = []
    if recorded.get("analyses"):
        flags += ["--expect-analyses", recorded["analyses"]]
    for schedule, digests in sorted(recorded.get("seeds", {}).items()):
        if digests.get("watched"):
            flags += ["--expect-watched", f"{schedule}:{digests['watched']}"]
    return flags


def run_program(args):
    """Runs the measuring program; returns its record or None."""
    work_dir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--trace-file",
               str(trace_dir / f"{args.workload}-{args.seed}.json")]
    command += reference_flags()
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {done.returncode}")
        return None
    return json.loads(lines[-1])


def declared():
    """The benchmark declaration at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def contract_metrics(record, trace, declaration):
    """The metrics `declaration` names, taken from one record."""
    metrics = record["metrics"]
    if trace:
        return {m["name"]: {"value": metrics[m["name"]]["value"],
                            "unit": metrics[m["name"]]["unit"]}
                for m in declaration["per_layer"] if m["name"] in metrics}
    sources = END_TO_END[record["workload"]]
    out = {}
    for m in declaration["end_to_end"]:
        source, scale = sources[m["name"]]
        out[m["name"]] = {"value": metrics[source]["value"] * scale,
                          "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # A terminated run unwinds through subprocess.run, which then kills and
    # reaps the measuring program instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not build():
        return 1
    record = run_program(args)
    if record is None:
        return 1
    # The full record (host, every named metric) precedes the result line.
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": contract_metrics(record, args.trace, declared()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
