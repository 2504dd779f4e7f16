#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Builds the measuring program, then runs every workload on Scenario::small
at tiny lengths, untraced and traced.  It asserts that every metric the
benchmark names is printed with its unit, that every output check passes,
and that a corrupted expected reply is counted as a failed operation.
Takes about a minute.  Exits non-zero on the first failed assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the entry point, for its build and metric map)

SECONDS = "1.5"

# End-to-end metrics each workload's record names, with units.
NAMED = {
    "pipeline": {"setup_s": "s", "wall_s": "s", "resume_s": "s",
                 "resumes_per_s": "1/s", "peak_rss_mb": "MB"},
    "churn": {"setup_s": "s", "steps_per_s": "1/s", "step_ms.p50": "ms",
              "step_ms.p90": "ms", "step_ms.p99": "ms", "peak_rss_mb": "MB"},
    "serve_light": {"setup_s": "s", "capacity_qps": "1/s", "p50_ms": "ms",
                    "p90_ms": "ms", "p99_ms": "ms", "achieved_qps": "1/s",
                    "generator_late_ms.max": "ms", "peak_rss_mb": "MB"},
    "serve_mixed": {"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms",
                    "p99_ms": "ms", "achieved_qps": "1/s",
                    "light_p90_ms": "ms", "light_p99_ms": "ms",
                    "heavy_p50_ms": "ms", "publishes": "count",
                    "generator_late_ms.max": "ms", "peak_rss_mb": "MB"},
}

ARTIFACTS = ("truth", "sim", "observations", "inference", "analyses")
KINDS = ("server_info", "sa_prevalence", "homing", "causes",
         "path_availability", "rerun_infer", "what_if_failure")
PER_LAYER = (
    ["core.synthesize_s", "sim.simulate_s", "sim.process_events",
     "sim.events_per_s", "core.observe_s", "asrel.infer_s", "core.analyze_s",
     "pipeline.unaccounted_s", "asrel.accuracy", "core.store_load_s",
     "sim.initial_s", "churn.step_ms.p50", "churn.step_ms.p99",
     "churn.repropagated", "churn.memo_hits", "churn.memo_hit_ratio",
     "churn.warm_states", "serve.transport_queue_ms.p50",
     "serve.transport_queue_ms.p99", "serve.frame_codec_us",
     "serve.generator_late_ms.max", "serve.frames_in", "serve.frames_out",
     "serve.accepted", "serve.snapshot_build_s", "serve.refresh_s",
     "serve.publishes", "serve.whatif_wave_events",
     "serve.whatif_base_converged"]
    + [f"io.{what}.{a}" for what in ("encode_s", "decode_s", "bytes")
       for a in ARTIFACTS]
    + [f"serve.answer_us.{k}.{s}" for k in KINDS for s in ("p50", "max")]
    + [f"{w}.{what}" for w in run.WORKLOADS
       for what in ("unaccounted_share", "traced_wall_s")]
    + ["pipeline.trace_overhead_s", "churn.trace_overhead_s",
       "serve_light.trace_overhead_ms", "serve_mixed.trace_overhead_ms"])


def program(workload, trace, *extra):
    """Runs the measuring program on the small scenario; returns its record."""
    work_dir = run.ROOT / ".bench_build" / "smoke-work"
    done = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", "7", "--seconds",
         SECONDS, "--trace", str(trace), "--work-dir", str(work_dir),
         "--small", *extra],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    expect(done.returncode == 0,
           f"{workload} ran (exit {done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    expect(run.build(), "the measuring program builds")
    declared = run.declared()

    for workload in run.WORKLOADS:
        record = program(workload, 0)
        expect(record["failed"] == 0 and record["attempted"] > 0,
               f"{workload}: {record['failed']} of {record['attempted']} "
               "operations failed")
        for name, unit in NAMED[workload].items():
            metric = record["metrics"].get(name)
            expect(metric is not None and metric["unit"] == unit,
                   f"{workload}: metric {name} [{unit}] printed")
        for name in ("nproc", "hardware_concurrency", "build_type",
                     "compiler"):
            expect(name in record["host"], f"{workload}: host {name}")
        contract = run.contract_metrics(record, 0, declared)
        for metric in declared["end_to_end"]:
            got = contract.get(metric["name"])
            expect(got is not None and got["unit"] == metric["unit"]
                   and got["value"] > 0,
                   f"{workload}: end-to-end {metric['name']} is positive")
        print(f"ok   {workload}: {record['attempted']} operations, "
              f"{len(record['metrics'])} metrics")

    traced = program("pipeline", 1)
    expect(traced["failed"] == 0, "traced run: every check passes")
    for name in PER_LAYER:
        expect(name in traced["metrics"], f"traced run prints {name}")
    contract = run.contract_metrics(traced, 1, declared)
    for metric in declared["per_layer"]:
        got = contract.get(metric["name"])
        expect(got is not None and got["unit"] == metric["unit"],
               f"traced run prints {metric['name']} [{metric['unit']}]")
    print(f"ok   traced run: {len(traced['metrics'])} per-layer metrics")

    corrupted = program("serve_light", 0, "--corrupt-expected")
    expect(corrupted["failed"] >= 1,
           "a corrupted expected reply counts as a failed operation")
    print(f"ok   corrupted expected reply: {corrupted['failed']} failed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
