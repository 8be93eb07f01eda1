#!/usr/bin/env bash
# Builds the Release benches and writes the machine-readable perf artifacts
# at the repo root:
#   BENCH_local_spgemm.json    — local-kernel GFLOP/s (microbench; needs
#                                google-benchmark; schema in EXPERIMENTS.md)
#   BENCH_comm_1d.json         — communication trajectory of the 1D pipeline:
#                                fig05 (comm volume / CV / iterated plan-reuse)
#                                + fig06 (block-fetch K sweep), each with exact
#                                RDMA byte+call counts and the plan-vs-execute
#                                time split
#   BENCH_dist_backends.json   — the unified spgemm_dist backend comparison:
#                                fig08 (per-backend phase breakdown + comm
#                                volumes) + fig09 (per-dataset backend ranking,
#                                Auto's pick and per-algo cost predictions vs
#                                the measured winner)
#   BENCH_throughput.json      — fig15 serving throughput: multi-tenant plan
#                                cache + batched small-multiply fusion vs
#                                one-at-a-time, hot/cold hit rate, and the
#                                budget-forced eviction sections
#   BENCH_memory.json          — fig16 memory-bounded execution: per-backend
#                                peak-triples budget sweep (feasibility, panel
#                                counts, measured peaks, slowdown, bit-identity)
#                                + the Auto feasibility-cliff cell
#   BENCH_partition.json       — partition-aware planning (DESIGN.md §12):
#                                fig04 (per-backend identity-vs-partitioned
#                                iterated totals with reorder cost, edge cut,
#                                amortization series, joint Auto pick,
#                                bit-identity) + fig10 (RᵀA ordering study +
#                                the rectangular-degrade record)
# --refit skips the benches and refits CostParams.flop_s/triple_s from the
# accumulated prediction-vs-measured records already in
# BENCH_dist_backends.json (scripts/fit_cost_params.py). The fitted rates
# land in cost_params.json, which every subsequent bench run here applies
# automatically (exported as SA1D_COST_PARAMS; Machine loads it at
# startup) — the refit loop is closed, no hand-editing. Record refits in
# EXPERIMENTS.md.
# Usage: scripts/bench_local.sh [--comm-only|--local-only|--dist-only|--throughput-only|--partition-only|--memory-only|--refit] [SA1D_SCALE]
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=all
case "${1:-}" in
  --comm-only) MODE=comm; shift ;;
  --local-only) MODE=local; shift ;;
  --dist-only) MODE=dist; shift ;;
  --throughput-only) MODE=throughput; shift ;;
  --partition-only) MODE=partition; shift ;;
  --memory-only) MODE=memory; shift ;;
  --refit) exec python3 scripts/fit_cost_params.py BENCH_dist_backends.json ;;
esac
SCALE="${1:-${SA1D_SCALE:-1}}"
BUILD_DIR=build-bench

# A previous --refit left fitted rates behind: apply them to every bench
# run (Machine reads SA1D_COST_PARAMS at construction).
if [ -z "${SA1D_COST_PARAMS:-}" ] && [ -f cost_params.json ]; then
  export SA1D_COST_PARAMS="$(pwd)/cost_params.json"
  echo "applying refitted cost params from cost_params.json"
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release

if [ "$MODE" = all ] || [ "$MODE" = local ]; then
  cmake --build "$BUILD_DIR" --target microbench_local_kernels -j "$(nproc)"
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/microbench_local_kernels" \
    --json="$(pwd)/BENCH_local_spgemm.json"
  echo "BENCH_local_spgemm.json written (SA1D_SCALE=$SCALE)"
fi

if [ "$MODE" = all ] || [ "$MODE" = comm ]; then
  cmake --build "$BUILD_DIR" --target fig05_comm_volume --target fig06_block_fetch -j "$(nproc)"
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/fig05_comm_volume" --json="$tmpdir/fig05.json"
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/fig06_block_fetch" --json="$tmpdir/fig06.json"
  {
    printf '{\n"bench": "comm_1d",\n"scale": %s,\n"fig05_comm_volume": ' "$SCALE"
    cat "$tmpdir/fig05.json"
    printf ',\n"fig06_block_fetch": '
    cat "$tmpdir/fig06.json"
    printf '}\n'
  } > BENCH_comm_1d.json
  echo "BENCH_comm_1d.json written (SA1D_SCALE=$SCALE)"
fi

if [ "$MODE" = all ] || [ "$MODE" = dist ]; then
  cmake --build "$BUILD_DIR" --target fig08_strong_scaling_breakdown \
    --target fig09_squaring_scaling -j "$(nproc)"
  tmpdir2="$(mktemp -d)"
  trap 'rm -rf "${tmpdir:-}" "$tmpdir2"' EXIT
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/fig08_strong_scaling_breakdown" --json="$tmpdir2/fig08.json"
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/fig09_squaring_scaling" --json="$tmpdir2/fig09.json"
  {
    printf '{\n"bench": "dist_backends",\n"scale": %s,\n"fig08_backend_breakdown": ' "$SCALE"
    cat "$tmpdir2/fig08.json"
    printf ',\n"fig09_backend_compare": '
    cat "$tmpdir2/fig09.json"
    printf '}\n'
  } > BENCH_dist_backends.json
  echo "BENCH_dist_backends.json written (SA1D_SCALE=$SCALE)"
fi

if [ "$MODE" = all ] || [ "$MODE" = partition ]; then
  cmake --build "$BUILD_DIR" --target fig04_permutation_breakdown \
    --target fig10_rta_permutation -j "$(nproc)"
  tmpdir3="$(mktemp -d)"
  trap 'rm -rf "${tmpdir:-}" "${tmpdir2:-}" "$tmpdir3"' EXIT
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/fig04_permutation_breakdown" --json="$tmpdir3/fig04.json"
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/fig10_rta_permutation" --json="$tmpdir3/fig10.json"
  {
    printf '{\n"bench": "partition",\n"scale": %s,\n"fig04_partition_study": ' "$SCALE"
    cat "$tmpdir3/fig04.json"
    printf ',\n"fig10_rta_ordering": '
    cat "$tmpdir3/fig10.json"
    printf '}\n'
  } > BENCH_partition.json
  echo "BENCH_partition.json written (SA1D_SCALE=$SCALE)"
fi

if [ "$MODE" = all ] || [ "$MODE" = throughput ]; then
  cmake --build "$BUILD_DIR" --target fig15_throughput -j "$(nproc)"
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/fig15_throughput" --json="$(pwd)/BENCH_throughput.json"
  echo "BENCH_throughput.json written (SA1D_SCALE=$SCALE)"
fi

if [ "$MODE" = all ] || [ "$MODE" = memory ]; then
  cmake --build "$BUILD_DIR" --target fig16_memory -j "$(nproc)"
  SA1D_SCALE="$SCALE" "./$BUILD_DIR/fig16_memory" --json="$(pwd)/BENCH_memory.json"
  echo "BENCH_memory.json written (SA1D_SCALE=$SCALE)"
fi
