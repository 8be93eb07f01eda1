#!/usr/bin/env bash
# Builds and runs the sa1d benchmark (see benchmark/README.md).
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload in one process. The last stdout line is the result
#       object; --trace 1 reports the per-layer metrics and writes
#       build-benchmark/trace/NAME.trace.json (or under --trace-dir DIR).
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace-dir DIR] [--out FILE]
#       Every workload, each in its own process. Prints
#       `workload metric value unit (n=samples)` lines and writes one results
#       JSON (default build-benchmark/results-seed<N>.json). With --trace-dir
#       each workload is rerun traced, writing DIR/<workload>.trace.json and
#       DIR/layers.json.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/build-benchmark"
workloads=(replay-part fresh-summa bc serve)

workload="" seed=1 seconds=20 trace=0 trace_dir="" out=""
while (($#)); do
  if (($# < 2)); then
    echo "run.sh: $1 needs a value" >&2
    exit 2
  fi
  case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    --trace-dir) trace_dir=$2 ;;
    --out) out=$2 ;;
    *)
      echo "run.sh: unknown argument $1" >&2
      exit 2
      ;;
  esac
  shift 2
done

# The benchmark pins its cost parameters; refitted rates must not leak in.
unset SA1D_COST_PARAMS
if (($(nproc) < 4)); then
  echo "run.sh: the benchmark runs 4 rank threads and needs 4 cores; nproc is $(nproc)" >&2
  exit 2
fi

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target sa1d_bench -j 4 >&2
bin="$build/sa1d_bench"

if [[ -n $workload ]]; then
  args=(--workload "$workload" --seed "$seed" --seconds "$seconds")
  if [[ $trace == 1 ]]; then
    trace_dir=${trace_dir:-$build/trace}
    mkdir -p "$trace_dir"
    args+=(--trace-dir "$trace_dir")
  fi
  exec "$bin" "${args[@]}"
fi

out=${out:-$build/results-seed$seed.json}
tmp=$(mktemp -d "$build/run.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
[[ -n $trace_dir ]] && mkdir -p "$trace_dir"

status=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --record "$tmp/$w.json" >"$tmp/$w.out" || status=1
  sed '$d' "$tmp/$w.out"
  if [[ -n $trace_dir ]]; then
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace-dir "$trace_dir" \
      --record "$tmp/$w.traced.json" >"$tmp/$w.traced.out" || status=1
    sed '$d' "$tmp/$w.traced.out"
  fi
done

# Joins the per-workload records (one JSON object per file) into an array.
join_records() {
  local sep=""
  printf '['
  for f in "$@"; do
    [[ -f $f ]] || continue
    printf '%s' "$sep"
    cat "$f"
    sep=","
  done
  printf ']'
}

sha=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null ||
  echo unknown)
records=()
for w in "${workloads[@]}"; do records+=("$tmp/$w.json" "$tmp/$w.traced.json"); done
{
  printf '{"git_sha": "%s", "seed": %s, "seconds": %s, "runs": ' "$sha" "$seed" "$seconds"
  join_records "${records[@]}"
  printf '}\n'
} >"$out"
echo "results: $out" >&2
if [[ -n $trace_dir ]]; then
  traced=()
  for w in "${workloads[@]}"; do traced+=("$tmp/$w.traced.json"); done
  join_records "${traced[@]}" >"$trace_dir/layers.json"
  echo "traces: $trace_dir/<workload>.trace.json, $trace_dir/layers.json" >&2
fi
exit $status
