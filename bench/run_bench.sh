#!/usr/bin/env bash
# Runs the BDD microbenchmarks and writes their perf trajectory:
#   BENCH_bdd.json — google-benchmark JSON: cpu_time in ns per op, plus
#                    peak_live_nodes / cache_hit_rate counters.
# End-to-end throughput is measured by covest_bench/run.py.
#
# Usage: bench/run_bench.sh [build_dir] [output_json]
#        bench/run_bench.sh --check-stale [build_dir] [bench_json]
#
# --check-stale compares the committed trajectory file against the
# current binary, in both directions — CI runs it so a PR cannot land
# a stale file: BENCH_bdd.json must record exactly the benchmark
# families compiled into bdd_microbench. A missing row means the file
# predates a new benchmark; an extra row is a benchmark that was deleted.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [[ "${1:-}" == "--check-stale" ]]; then
  BUILD_DIR="${2:-${REPO_ROOT}/build}"
  BENCH_JSON="${3:-${REPO_ROOT}/BENCH_bdd.json}"
  if [[ ! -x "${BUILD_DIR}/bdd_microbench" ]]; then
    echo "--check-stale: ${BUILD_DIR}/bdd_microbench not built" >&2
    exit 1
  fi
  LIST_FILE="$(mktemp)"
  "${BUILD_DIR}/bdd_microbench" --benchmark_list_tests > "${LIST_FILE}"
  STATUS=0
  # `|| STATUS=$?` keeps set -e from aborting before the cleanup below.
  python3 - "${BENCH_JSON}" "${LIST_FILE}" <<'EOF' || STATUS=$?
import json, sys
# Benchmark *families* (the name before the first '/') must match the
# binary's exactly: no family missing, none left over from deleted code.
with open(sys.argv[2]) as f:
    binary = {line.split("/")[0].strip() for line in f if line.strip()}
if not binary:
    print("--check-stale: benchmark list came back empty", file=sys.stderr)
    sys.exit(1)
with open(sys.argv[1]) as f:
    data = json.load(f)
recorded = {b["name"].split("/")[0] for b in data.get("benchmarks", [])}
missing = sorted(binary - recorded)
extra = sorted(recorded - binary)
if missing:
    print(f"{sys.argv[1]} is stale: missing benchmark families "
          f"{missing}; regenerate with bench/run_bench.sh", file=sys.stderr)
if extra:
    print(f"{sys.argv[1]} is stale: records benchmark families {extra} "
          f"that bdd_microbench no longer has; drop them or regenerate",
          file=sys.stderr)
if missing or extra:
    sys.exit(1)
print(f"{sys.argv[1]} records exactly the {len(binary)} benchmark families")
EOF
  rm -f "${LIST_FILE}"
  exit "${STATUS}"
fi

BUILD_DIR="${1:-${REPO_ROOT}/build}"
OUT_JSON="${2:-${REPO_ROOT}/BENCH_bdd.json}"
MIN_TIME="${BENCH_MIN_TIME:-0.15}"

if [[ ! -x "${BUILD_DIR}/bdd_microbench" ]]; then
  echo "bdd_microbench not found; building in ${BUILD_DIR}" >&2
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" >/dev/null
  cmake --build "${BUILD_DIR}" --target bdd_microbench -j >/dev/null
fi

"${BUILD_DIR}/bdd_microbench" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json \
  --benchmark_out="${OUT_JSON}" \
  --benchmark_out_format=json \
  >/dev/null

echo "wrote ${OUT_JSON}"

# Human-readable summary: op/ns and node counters per benchmark.
python3 - "${OUT_JSON}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
print(f"{'benchmark':40} {'cpu_time/op':>14} {'peak_live_nodes':>16}")
for b in data.get("benchmarks", []):
    peak = b.get("peak_live_nodes", "")
    peak = f"{peak:.0f}" if isinstance(peak, float) else ""
    print(f"{b['name']:40} {b['cpu_time']:>11.1f} ns {peak:>16}")
EOF
