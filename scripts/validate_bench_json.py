#!/usr/bin/env python3
"""Validates a bgpolicy bench-trajectory record (scripts/bench.sh output).

Checks the current schema, bgpolicy-bench/v16: sim_scaling carries the
batch runner's one-thread pass by kind of run — the oracle
(oracle_seconds), the prefix-agnostic bases that belong to no origination
(base_converges, base_events, base_seconds), the waves derived from them
(waves, wave_events, wave_seconds) and the exact runs
(exact_originations, exact_events, exact_seconds), inside the pass's
fixpoint_seconds, with chosen_order_events the waves' and exact runs'
events — beside each origination converged alone in the oracle's order
(cold_order_events, cold_fixpoint_seconds) and in exact order
(exact_order_events, exact_fixpoint_seconds); every artifact_store row
carries decode_allocations, the operator-new count of its decode,
hash_seconds, a load's hashing alone (the store digest and frame
checksum), and the store's work counts for its load (load_bytes_mapped,
load_bytes_hashed, load_bytes_copied: one pass over what it mapped, no
copy), beside the resume rows (a store-resumed run through Analyze at one
thread and at hardware_concurrency, with its simulate.load,
simulate.decode and observe.probe spans and their overlap, and the
store's work counts for one resume: entries_mapped, hash_passes,
bytes_mapped, bytes_hashed, bytes_copied).

Records committed under an older schema are frozen: a file named in
FROZEN passes only with exactly its committed bytes (SHA-256), which is
stricter than any schema check.  A new record uses the current schema.

Usage: validate_bench_json.py FILE...
Exits non-zero with a message naming the first violated requirement.
Stdlib-only on purpose: CI and the committed BENCH_*.json points must be
checkable without installing anything.
"""
import hashlib
import json
import os
import sys

SCHEMA = "bgpolicy-bench/v16"

# The committed records of schemas v2..v15, by SHA-256 of their bytes.
FROZEN = {
    "BENCH_2026-07-29_pr2.json":
        "35aff9cb60476fbfa93cda4400c9986750dbaf0c78329509817b8eb4453e5c37",
    "BENCH_2026-07-30_pr3.json":
        "7b5beb2681b68ebed46c8731b55976c447e20b9222cec108ce1870db7ff6acdd",
    "BENCH_2026-07-30_pr4.json":
        "a82bea5d28878da0cd0387e8a5f039bbbf5b465aaf724ada24679e6ba7acc603",
    "BENCH_2026-07-30_pr5.json":
        "c22447f6f13f8fda24b6da72cb5ed6708b91f55c728a7d696b03809e1b54126b",
    "BENCH_2026-08-08_delta_propagation.json":
        "8bb5caf116a89eb5fdd57319d386f3831476b1e516cc0d42d51120105c32c4d0",
    "BENCH_2026-08-08_flat_sim_core.json":
        "bf08caf9388de3341fa03dc6363db2891bfc13b6ac811cf0719fb41f0a4c025f",
    "BENCH_2026-08-08_query_service.json":
        "6d4897c8514c4558b21e6259a74ca386aeaa590b32cfca1cf3061803c73da07e",
    "BENCH_2026-10-17_customer_cone.json":
        "198be0ac9b3dc9bb6c89984ae53808d1483d8045430ec5309b0d9cd6b42599f6",
    "BENCH_2026-10-17_fixpoint_kernel.json":
        "5ebb596137e7f82a982fe4852b09123bda90365b913d1736b37b68bfaaf4f36a",
    "BENCH_2026-10-17_parallel_resume.json":
        "17d1acfcbcbc82dc933dc6d1bc4e4fc759213b07f6d3648510eb6f4c88cec78e",
    "BENCH_2026-10-17_post_simulate_tail.json":
        "7da526c5fbdcd377405bc95dc941daac5e4eb3be16b730239fa0f5cf8de68b38",
    "BENCH_2026-10-17_vantage_rows.json":
        "180c7cb0028d0fdad0cfc8c673f8eabe43bc211ae8a6c30606fc22ae2cca342f",
    "BENCH_2026-10-18_one_pass_resume.json":
        "edb1a614e52a7ec4f004a47a90c1ad9c2a9581524d0ac02ca69fbc3dce5220e2",
    "BENCH_2026-10-18_columnar_tables.json":
        "c008cd054adc0f71e873b0b05a4728c3448d7e32c948bc96148f83f3cc575df7",
    "BENCH_2026-10-18_oracle_order.json":
        "9a175ea56e791971c122c74bb830ce5368da3c7062f0591169696696c8e3c77c",
    "BENCH_2026-10-19_origin_bases.json":
        "d4ff384f08bb1e1f3e1ae4b98442151cc799f6e7dceece934c5a46dcadd09d4c",
    "BENCH_2026-10-19_xxh64_store.json":
        "ca58204f097686faec1698257a3fb3de2eae21f72a001a6fd5a57371da3e088e",
}


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
    """A one-CPU host records only the 1-thread row."""
    if record["hardware_concurrency"] == 1:
        require(path, [row["threads"] for row in record["results"]] == [1],
                f"{name}.results must hold only the threads=1 row when "
                "hardware_concurrency is 1")


def check_fixpoint_kinds(path, sim):
    """The batch runner's one-thread pass by kind of run, and each
    origination converged alone in the oracle's and the exact order."""
    name = "sim_scaling"
    counts = ("originations", "base_converges", "base_events", "waves",
              "wave_events", "exact_originations", "exact_events",
              "chosen_order_events", "cold_order_events",
              "exact_order_events")
    for key in counts:
        require(path, isinstance(sim.get(key), int) and sim[key] >= 0,
                f"{name}.{key} must be a non-negative integer")
    require(path, sim["waves"] + sim["exact_originations"]
            == sim["originations"],
            f"{name}.waves + exact_originations must equal originations "
            "(one run of its own per origination)")
    require(path, sim["chosen_order_events"]
            == sim["wave_events"] + sim["exact_events"],
            f"{name}.chosen_order_events must equal wave_events + "
            "exact_events")
    for key in ("chosen_order_events", "cold_order_events",
                "exact_order_events"):
        require(path, sim[key] > 0, f"{name}.{key} must be > 0")
    for key in ("fixpoint_seconds", "fixpoint_ns_per_event",
                "cold_fixpoint_seconds", "exact_fixpoint_seconds",
                "exact_fixpoint_ns_per_event"):
        require(path, isinstance(sim.get(key), (int, float)) and sim[key] > 0,
                f"{name}.{key} must be a positive number")
    kinds = ("oracle_seconds", "base_seconds", "wave_seconds",
             "exact_seconds")
    for key in kinds:
        require(path, isinstance(sim.get(key), (int, float)) and sim[key] >= 0,
                f"{name}.{key} must be a non-negative number")
    require(path, sum(sim[key] for key in kinds)
            <= sim["fixpoint_seconds"] * 1.01,
            f"{name}: the kinds' seconds must fit inside fixpoint_seconds")


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
                    "decode_seconds", "load_seconds", "load_speedup",
                    "decode_allocations", "hash_seconds",
                    "load_bytes_mapped", "load_bytes_hashed",
                    "load_bytes_copied"):
            require(path, key in row, f"{name}.results[].{key} missing")
            require(path, isinstance(row[key], (int, float)),
                    f"{name}.results[].{key} must be a number")
    require(path, len(set(artifacts)) == len(artifacts),
            f"{name}.results[].artifact must be unique")
    for row in results:
        require(path, isinstance(row["decode_allocations"], int)
                and row["decode_allocations"] >= 0,
                f"{name}.results[].decode_allocations must be a "
                "non-negative integer")
        require(path, row["hash_seconds"] > 0,
                f"{name}.results[].hash_seconds must be > 0")
        require(path, row["load_bytes_mapped"] == row["bytes"]
                and row["load_bytes_hashed"] == row["bytes"]
                and row["load_bytes_copied"] == 0,
                f"{name}.results[]: a load maps and hashes its bytes once "
                "and copies none")


def check_resume(path, record):
    """The store-resumed run: threads 1 and hardware_concurrency."""
    name = "artifact_store.resume"
    require(path, record.get("resume_ok") is True,
            "artifact_store.resume_ok must be true (a resume computed a "
            "stage or changed a stage digest)")
    rows = record.get("resume")
    require(path, isinstance(rows, list) and rows,
            f"{name} must be a non-empty array")
    for row in rows:
        for key in ("threads", "wall_seconds", "sim_load_seconds",
                    "sim_decode_seconds", "observe_probe_seconds",
                    "overlap_seconds"):
            require(path, isinstance(row.get(key), (int, float)),
                    f"{name}[].{key} must be a number")
        require(path, row["wall_seconds"] > 0,
                f"{name}[].wall_seconds must be > 0")
        for key in ("entries_mapped", "hash_passes", "bytes_mapped",
                    "bytes_hashed", "bytes_copied"):
            require(path, isinstance(row.get(key), int) and row[key] >= 0,
                    f"{name}[].{key} must be a non-negative integer")
        require(path, row["entries_mapped"] == 5
                and row["hash_passes"] == row["entries_mapped"]
                and row["bytes_hashed"] == row["bytes_mapped"]
                and row["bytes_copied"] == 0,
                f"{name}[]: a resume maps the five stage entries and hashes "
                "each once, copying none")
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
    name = os.path.basename(path)
    if name in FROZEN:
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        require(path, digest == FROZEN[name],
                "a frozen record's bytes changed (sha256 " + digest + ")")
        print(f"{path}: ok (frozen)")
        return
    with open(path, encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except json.JSONDecodeError as error:
            fail(path, f"not valid JSON: {error}")
    require(path, record.get("schema") == SCHEMA,
            f'schema must be "{SCHEMA}" (older records are frozen)')
    require(path, "generated_utc" in record, "generated_utc missing")

    sim = record.get("sim_scaling")
    check_scaling(path, "sim_scaling", sim,
                  ("threads", "seconds", "speedup", "events_per_sec"))
    require(path, sim.get("counters_match") is True,
            "sim_scaling.counters_match must be true")
    # The flat-core before/after: the seed per-event engine timed over the
    # same originations, counter-checked against the flat rows.
    for key in ("reference_seconds", "flat_speedup"):
        require(path, isinstance(sim.get(key), (int, float)),
                f"sim_scaling.{key} must be a number")
    require(path, sim.get("reference_match") is True,
            "sim_scaling.reference_match must be true")
    check_fixpoint_kinds(path, sim)

    inference = record.get("inference_scaling")
    check_scaling(path, "inference_scaling", inference,
                  ("threads", "gao_seconds", "path_index_seconds",
                   "analysis_seconds", "total_seconds", "speedup"))
    require(path, inference.get("products_match") is True,
            "inference_scaling.products_match must be true")
    check_analysis_split(path, inference)

    # One run per thread count with the stages one after another, and the
    # task-graph run beside it: overlap windows, the Simulate chunk count
    # and the span after observe.finish.
    stages = record.get("pipeline_stages")
    check_scaling(path, "pipeline_stages", stages,
                  ("threads", "synthesize_seconds", "simulate_seconds",
                   "observe_seconds", "infer_seconds", "analyze_seconds",
                   "total_seconds", "speedup", "graph_total_seconds",
                   "overlap_irr_paths_seconds", "overlap_irr_sim_seconds",
                   "sim_chunks", "after_observe_seconds"))
    require(path, stages.get("products_match") is True,
            "pipeline_stages.products_match must be true")
    for section_name, section in (("sim_scaling", sim),
                                  ("inference_scaling", inference),
                                  ("pipeline_stages", stages)):
        check_single_core_rows(path, section_name, section)

    store = record.get("artifact_store")
    check_artifact_store(path, store)
    check_resume(path, store)
    service = record.get("query_service")
    check_query_service(path, service)
    delta = record.get("delta_propagation")
    check_delta_propagation(path, delta)

    split = inference["analysis_split"]
    fastest = min(row["wall_seconds"] for row in store["resume"])
    print(f"{path}: ok (sim rows: {len(sim['results'])}, "
          f"inference rows: {len(inference['results'])}, "
          f"stage rows: {len(stages['results'])}, "
          f"artifact rows: {len(store['results'])}, "
          f"query qps: {service['queries_per_sec']:.0f}, "
          f"delta speedup: {delta['delta_speedup']:.1f}x, "
          f"analysis split unaccounted: "
          f"{100 * split['unaccounted_share']:.1f}%, "
          f"fastest resume: {fastest:.3f} s)")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
