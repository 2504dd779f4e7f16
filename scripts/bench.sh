#!/usr/bin/env sh
# Runs the thread-scaling benches (prefix-sharded simulation, sharded
# inference pipeline, the staged-experiment per-stage bench, and the
# artifact-store codec/load bench) and emits one combined JSON record on
# stdout — the bench-trajectory hook for CI and local tracking.  Committed
# trajectory points live at the repo root as BENCH_*.json (see
# docs/REPRODUCTION.md).
#
# Usage: scripts/bench.sh [--small] [extra bench flags...]
# Builds the bench targets first if the build tree is missing them.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S "$repo_root" >&2
fi
# Always build: a no-op when up to date, and never benchmarks a stale binary.
cmake --build "$build_dir" -j \
  --target bench_sim_scaling --target bench_inference_scaling \
  --target bench_pipeline_stages --target bench_artifact_store \
  --target bench_query_service --target bench_delta_propagation >&2

# Each bench exits non-zero when its cross-thread determinism (or codec
# roundtrip / reply verification / delta-vs-cold equivalence) check fails;
# set -e turns that into a failed trajectory run.
sim_json=$("$build_dir/bench_sim_scaling" --json "$@")
inference_json=$("$build_dir/bench_inference_scaling" --json "$@")
stages_json=$("$build_dir/bench_pipeline_stages" --json "$@")
artifact_json=$("$build_dir/bench_artifact_store" --json "$@")
query_json=$("$build_dir/bench_query_service" --json "$@")
delta_json=$("$build_dir/bench_delta_propagation" --json \
  --specs "$repo_root/scenarios" "$@")

printf '{"schema":"bgpolicy-bench/v15","generated_utc":"%s","sim_scaling":%s,"inference_scaling":%s,"pipeline_stages":%s,"artifact_store":%s,"query_service":%s,"delta_propagation":%s}\n' \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$sim_json" "$inference_json" "$stages_json" "$artifact_json" "$query_json" "$delta_json"
