#!/usr/bin/env python3
"""Validates a bgpolicy bench-trajectory record (scripts/bench.sh output).

Accepts bgpolicy-bench/v11 (current: the `resume` rows add the
simulate.load span, where one hashing pass yields the SimArtifact's digest
and frame check), v10 (artifact_store adds the `resume`
rows — a store-resumed run through Analyze at one thread and at
hardware_concurrency, with its wall time, the SimArtifact-decode and
Observe-probe spans and their overlap — and the `resume_ok` flag), v9
(inference_scaling adds analysis_split — the one-thread analysis time split into SA inference,
homing, causes, import typicality, community verification and SA
verification, with the pass's wall clock and its unaccounted share —,
pipeline_stages rows add after_observe_seconds — the task-graph run's
time after observe.finish, Infer and Analyze — and a host with
hardware_concurrency 1 records only the 1-thread row of each scaling
section), v8 (adds the delta_propagation section —
lockstep incremental-vs-cold churn stepping with the byte-equivalence
flag `delta_match`, the steady-state `delta_speedup`, and the
spec-corpus replay counters), v7 (adds the query_service section — the
policy-query daemon's concurrent load run with queries/sec, latency
percentiles, snapshot-publish count, and the zero-error verification
flag), v6 (sim_scaling carries the flat-core
before/after — reference_seconds for the seed per-event engine,
flat_speedup over the threads=1 flat run, a reference_match counter
cross-check, and per-row events_per_sec), v5 (pipeline_stages rows gain
the task-graph comparison — graph_total_seconds, the irr/paths and
irr/sim overlap windows, and the Simulate chunk count), v4 (adds the
artifact_store section with per-artifact codec + load-vs-recompute
timings), v3 (adds the pipeline_stages section with per-stage wall-clock
timings), and v2 (earlier committed trajectory points).

Usage: validate_bench_json.py FILE...
Exits non-zero with a message naming the first violated requirement.
Stdlib-only on purpose: CI and the committed BENCH_*.json points must be
checkable without installing anything.
"""
import json
import sys


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def require(path, condition, message):
    if not condition:
        fail(path, message)


def check_scaling(path, name, record, result_keys):
    require(path, isinstance(record, dict), f"{name} must be an object")
    for key in ("bench", "scenario", "hardware_concurrency", "results"):
        require(path, key in record, f"{name}.{key} missing")
    require(path, isinstance(record["hardware_concurrency"], int),
            f"{name}.hardware_concurrency must be an integer")
    results = record["results"]
    require(path, isinstance(results, list) and results,
            f"{name}.results must be a non-empty array")
    for row in results:
        for key in result_keys:
            require(path, key in row, f"{name}.results[].{key} missing")
            require(path, isinstance(row[key], (int, float)),
                    f"{name}.results[].{key} must be a number")
    threads = [row["threads"] for row in results]
    require(path, threads == sorted(threads) and len(set(threads)) == len(threads),
            f"{name}.results[].threads must be strictly increasing")


def check_single_core_rows(path, name, record):
    """A one-CPU host records only the 1-thread row (v9)."""
    if record["hardware_concurrency"] == 1:
        require(path, [row["threads"] for row in record["results"]] == [1],
                f"{name}.results must hold only the threads=1 row when "
                "hardware_concurrency is 1")


def check_analysis_split(path, record):
    name = "inference_scaling.analysis_split"
    split = record.get("analysis_split")
    require(path, isinstance(split, dict), f"{name} must be an object")
    require(path, split.get("threads") == 1, f"{name}.threads must be 1")
    for key in ("sa_seconds", "homing_seconds", "causes_seconds",
                "import_typicality_seconds",
                "community_verification_seconds", "sa_verification_seconds",
                "total_seconds", "unaccounted_share"):
        require(path, isinstance(split.get(key), (int, float)),
                f"{name}.{key} must be a number")
    require(path, split["total_seconds"] > 0,
            f"{name}.total_seconds must be > 0")


def check_artifact_store(path, record):
    name = "artifact_store"
    require(path, isinstance(record, dict), f"{name} must be an object")
    for key in ("bench", "scenario", "hardware_concurrency", "results"):
        require(path, key in record, f"{name}.{key} missing")
    require(path, record.get("roundtrip_ok") is True,
            f"{name}.roundtrip_ok must be true")
    results = record["results"]
    require(path, isinstance(results, list) and results,
            f"{name}.results must be a non-empty array")
    artifacts = []
    for row in results:
        require(path, isinstance(row.get("artifact"), str),
                f"{name}.results[].artifact must be a string")
        artifacts.append(row["artifact"])
        for key in ("bytes", "compute_seconds", "encode_seconds",
                    "decode_seconds", "load_seconds", "load_speedup"):
            require(path, key in row, f"{name}.results[].{key} missing")
            require(path, isinstance(row[key], (int, float)),
                    f"{name}.results[].{key} must be a number")
    require(path, len(set(artifacts)) == len(artifacts),
            f"{name}.results[].artifact must be unique")


def check_resume(path, record, version):
    """The store-resumed run (v10): threads 1 and hardware_concurrency;
    v11 adds the simulate.load span."""
    name = "artifact_store.resume"
    require(path, record.get("resume_ok") is True,
            "artifact_store.resume_ok must be true (a resume computed a "
            "stage or changed a stage digest)")
    rows = record.get("resume")
    require(path, isinstance(rows, list) and rows,
            f"{name} must be a non-empty array")
    keys = ["threads", "wall_seconds", "sim_decode_seconds",
            "observe_probe_seconds", "overlap_seconds"]
    if version >= 11:
        keys.append("sim_load_seconds")
    for row in rows:
        for key in keys:
            require(path, isinstance(row.get(key), (int, float)),
                    f"{name}[].{key} must be a number")
        require(path, row["wall_seconds"] > 0,
                f"{name}[].wall_seconds must be > 0")
    hw = record["hardware_concurrency"]
    want = [1] if hw <= 1 else [1, hw]
    require(path, [row["threads"] for row in rows] == want,
            f"{name}[].threads must be {want} (one thread and "
            "hardware_concurrency)")


def check_query_service(path, record):
    name = "query_service"
    require(path, isinstance(record, dict), f"{name} must be an object")
    for key in ("bench", "scenario", "hardware_concurrency",
                "server_threads", "connections", "requests", "errors",
                "mismatches", "snapshot_publishes", "elapsed_seconds",
                "queries_per_sec", "latency_usec"):
        require(path, key in record, f"{name}.{key} missing")
    for key in ("connections", "requests", "errors", "mismatches",
                "snapshot_publishes"):
        require(path, isinstance(record[key], int),
                f"{name}.{key} must be an integer")
    require(path, record["requests"] > 0, f"{name}.requests must be > 0")
    require(path, record["errors"] == 0,
            f"{name}.errors must be 0 (dropped or malformed replies)")
    require(path, record["mismatches"] == 0,
            f"{name}.mismatches must be 0 (replies differ from the "
            "library answer)")
    require(path, isinstance(record["queries_per_sec"], (int, float))
            and record["queries_per_sec"] > 0,
            f"{name}.queries_per_sec must be a positive number")
    require(path, record.get("zero_errors") is True,
            f"{name}.zero_errors must be true")
    latency = record["latency_usec"]
    require(path, isinstance(latency, dict),
            f"{name}.latency_usec must be an object")
    for key in ("p50", "p90", "p99", "max"):
        require(path, isinstance(latency.get(key), (int, float)),
                f"{name}.latency_usec.{key} must be a number")
    require(path, latency["p50"] <= latency["p99"] <= latency["max"],
            f"{name}.latency_usec percentiles must be non-decreasing")


def check_delta_propagation(path, record):
    name = "delta_propagation"
    require(path, isinstance(record, dict), f"{name} must be an object")
    for key in ("bench", "scenario", "hardware_concurrency", "churn",
                "spec_replay", "delta_match", "delta_speedup"):
        require(path, key in record, f"{name}.{key} missing")
    require(path, record["delta_match"] is True,
            f"{name}.delta_match must be true (incremental stepping must "
            "be byte-equivalent to cold recomputation)")
    require(path, isinstance(record["delta_speedup"], (int, float))
            and record["delta_speedup"] > 1,
            f"{name}.delta_speedup must be a number > 1")
    churn = record["churn"]
    require(path, isinstance(churn, dict), f"{name}.churn must be an object")
    for key in ("warmup_steps", "measured_steps", "cold_seconds",
                "incremental_seconds", "cold_steps_per_sec",
                "incremental_steps_per_sec", "warm_states", "memo_hits"):
        require(path, isinstance(churn.get(key), (int, float)),
                f"{name}.churn.{key} must be a number")
    require(path, churn["measured_steps"] > 0,
            f"{name}.churn.measured_steps must be > 0")
    replay = record["spec_replay"]
    require(path, isinstance(replay, dict),
            f"{name}.spec_replay must be an object")
    for key in ("specs", "checks", "failures"):
        require(path, isinstance(replay.get(key), int),
                f"{name}.spec_replay.{key} must be an integer")
    require(path, replay["specs"] > 0,
            f"{name}.spec_replay.specs must be > 0")
    require(path, replay["failures"] == 0,
            f"{name}.spec_replay.failures must be 0")


def check_file(path):
    with open(path, encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except json.JSONDecodeError as error:
            fail(path, f"not valid JSON: {error}")
    schema = record.get("schema")
    versions = {f"bgpolicy-bench/v{n}": n for n in range(2, 12)}
    require(path, schema in versions,
            'schema must be "bgpolicy-bench/v2".."bgpolicy-bench/v11"')
    version = versions[schema]
    require(path, "generated_utc" in record, "generated_utc missing")

    flat_core = version >= 6
    sim_keys = ["threads", "seconds", "speedup"]
    if flat_core:
        sim_keys.append("events_per_sec")
    sim = record.get("sim_scaling")
    check_scaling(path, "sim_scaling", sim, tuple(sim_keys))
    require(path, sim.get("counters_match") is True,
            "sim_scaling.counters_match must be true")
    if flat_core:
        # The flat-core before/after: the seed per-event engine timed over
        # the same originations, counter-checked against the flat rows.
        for key in ("reference_seconds", "flat_speedup"):
            require(path, isinstance(sim.get(key), (int, float)),
                    f"sim_scaling.{key} must be a number")
        require(path, sim.get("reference_match") is True,
                "sim_scaling.reference_match must be true")

    inference = record.get("inference_scaling")
    check_scaling(path, "inference_scaling", inference,
                  ("threads", "gao_seconds", "path_index_seconds",
                   "analysis_seconds", "total_seconds", "speedup"))
    require(path, inference.get("products_match") is True,
            "inference_scaling.products_match must be true")

    summary = (f"sim rows: {len(sim['results'])}, "
               f"inference rows: {len(inference['results'])}")
    stages = None
    if version >= 3:
        stage_keys = ["threads", "synthesize_seconds", "simulate_seconds",
                      "observe_seconds", "infer_seconds", "analyze_seconds",
                      "total_seconds", "speedup"]
        if version >= 5:
            # The task-graph comparison: one end-to-end run with overlapped
            # stage nodes next to the serial-stage sum, plus the overlap
            # windows and the Simulate chunk count.
            stage_keys += ["graph_total_seconds",
                           "overlap_irr_paths_seconds",
                           "overlap_irr_sim_seconds", "sim_chunks"]
        if version >= 9:
            # The span after observe.finish: Infer and Analyze.
            stage_keys.append("after_observe_seconds")
        stages = record.get("pipeline_stages")
        check_scaling(path, "pipeline_stages", stages, tuple(stage_keys))
        require(path, stages.get("products_match") is True,
                "pipeline_stages.products_match must be true")
        summary += f", stage rows: {len(stages['results'])}"
    if version >= 4:
        store = record.get("artifact_store")
        check_artifact_store(path, store)
        summary += f", artifact rows: {len(store['results'])}"
    if version >= 7:
        service = record.get("query_service")
        check_query_service(path, service)
        summary += (f", query qps: {service['queries_per_sec']:.0f}")
    if version >= 8:
        delta = record.get("delta_propagation")
        check_delta_propagation(path, delta)
        summary += (f", delta speedup: {delta['delta_speedup']:.1f}x")
    if version >= 9:
        check_analysis_split(path, inference)
        for name, section in (("sim_scaling", sim),
                              ("inference_scaling", inference),
                              ("pipeline_stages", stages)):
            check_single_core_rows(path, name, section)
        split = inference["analysis_split"]
        summary += (f", analysis split unaccounted: "
                    f"{100 * split['unaccounted_share']:.1f}%")
    if version >= 10:
        check_resume(path, store, version)
        fastest = min(row["wall_seconds"] for row in store["resume"])
        summary += f", fastest resume: {fastest:.3f} s"

    print(f"{path}: ok ({summary})")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
