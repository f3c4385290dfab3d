#!/usr/bin/env bash
# Bench harness: runs the micro-benchmarks and the Figure 6 suite benches,
# then writes the parsed results as a JSON baseline (default
# BENCH_baseline.json at the repo root) via tools/benchjson.
#
# Usage:
#   tools/bench.sh                     # writes BENCH_baseline.json
#   tools/bench.sh BENCH_pr7.json      # writes a differently-named snapshot
#   BENCH_TIME=100x tools/bench.sh     # more samples for the micro benches
#   OBS_TIME=5000000x tools/bench.sh   # longer nil-sink observability pass
#   PAR_TIME=20x tools/bench.sh        # more samples for restart-racing DRESC
#
# The micro benches run with -benchmem so allocs/op lands in the baseline
# (the regression the clique-engine work is measured by); the Figure 6
# benches run once (-benchtime=1x) — their interesting numbers are the
# perf/loop and compile-µs/loop custom metrics, which are averages over the
# whole kernel suite and stable after a single pass.
#
# Re-measuring a few benches (a change that touches only their code): the
# box's speed drifts by up to 2x between windows, so a reading is only
# comparable with one taken in the same window. Build the parent's and the
# change's bench binaries, run them alternately in one window (five or
# more rounds at the baseline's -benchtime), and set each re-measured
# bench's ns/op entry to the parent's entry times the median
# change/parent ratio of the rounds; take its B/op and allocs/op from the
# change's own readings, which do not drift. Report the benches the change
# does not touch (BenchmarkMRRG, BenchmarkBuildAdjacency and
# BenchmarkArchFingerprint at least) beside the parent's reading in the
# same rounds, and keep their entries.
#
# Failure discipline: the script refuses to write a baseline unless the
# bench binary compiles, every bench run exits cleanly, and every expected
# micro bench actually appears in the captured output. A partial baseline is
# worse than none — bench-compare only diffs benches present in BOTH files,
# so a silently truncated baseline un-gates whatever fell out of it.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_baseline.json}"
micro='^(BenchmarkSATSolve|BenchmarkMapExact|BenchmarkMapExactBudget|BenchmarkScheduler|BenchmarkBuildCompat|BenchmarkBuildCompatTorus|BenchmarkCliqueFind|BenchmarkCliqueFindGrouped|BenchmarkCliqueFindGroupedTorus|BenchmarkMapREGIMap|BenchmarkMapREGIMapTorus|BenchmarkMapREGIMapParallel|BenchmarkMapDRESC|BenchmarkMapEMS|BenchmarkMapEMSTorus|BenchmarkSimulate|BenchmarkMRRG|BenchmarkEmitAndExecute|BenchmarkCompile|BenchmarkBuildAdjacency|BenchmarkArchFingerprint)$'
par='^BenchmarkMapDRESCParallel$'
fig='^BenchmarkFigure6_(REGIMap|DRESC|EMS)$'

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Compile the bench binary first so a build break fails here, with the
# compiler's error, rather than surfacing as a half-empty baseline.
echo "bench.sh: compiling bench binary..." >&2
if ! go test -c -o /dev/null .; then
  echo "bench.sh: ERROR: bench binary failed to build; not writing $out" >&2
  exit 1
fi

echo "bench.sh: micro benches (-benchtime ${BENCH_TIME:-20x})..." >&2
if ! go test -run '^$' -bench "$micro" -benchmem -benchtime "${BENCH_TIME:-20x}" . | tee -a "$tmp"; then
  echo "bench.sh: ERROR: micro bench run failed; not writing $out" >&2
  exit 1
fi
# The nil-sink observability bench measures single-digit nanoseconds; at the
# micro pass's iteration count its number is dominated by timer granularity
# (an old baseline pinned 144 ns for what is really a ~16 ns path). Run it
# alone with an iteration count long enough to amortize the timer.
echo "bench.sh: obs nil-sink bench (-benchtime ${OBS_TIME:-2000000x})..." >&2
if ! go test -run '^$' -bench '^BenchmarkObsNilSink$' -benchmem -benchtime "${OBS_TIME:-2000000x}" . | tee -a "$tmp"; then
  echo "bench.sh: ERROR: obs bench run failed; not writing $out" >&2
  exit 1
fi
# Restart-racing DRESC costs seconds per op on few cores; a short dedicated
# pass keeps the script usable on laptops while still baselining it.
echo "bench.sh: parallel DRESC bench (-benchtime ${PAR_TIME:-5x})..." >&2
if ! go test -run '^$' -bench "$par" -benchmem -benchtime "${PAR_TIME:-5x}" . | tee -a "$tmp"; then
  echo "bench.sh: ERROR: parallel DRESC bench run failed; not writing $out" >&2
  exit 1
fi
echo "bench.sh: Figure 6 suite benches (-benchtime ${FIG_TIME:-1x})..." >&2
if ! go test -run '^$' -bench "$fig" -benchmem -benchtime "${FIG_TIME:-1x}" . | tee -a "$tmp"; then
  echo "bench.sh: ERROR: Figure 6 bench run failed; not writing $out" >&2
  exit 1
fi

# A panic mid-run leaves earlier benches parseable and later ones missing;
# require every expected micro bench by name before trusting the capture.
expected='BenchmarkObsNilSink BenchmarkScheduler BenchmarkBuildCompat BenchmarkBuildCompatTorus
BenchmarkCliqueFind BenchmarkCliqueFindGrouped BenchmarkCliqueFindGroupedTorus
BenchmarkMapREGIMap BenchmarkMapREGIMapTorus BenchmarkMapREGIMapParallel BenchmarkMapDRESC BenchmarkMapDRESCParallel
BenchmarkMapEMS BenchmarkMapEMSTorus BenchmarkSimulate BenchmarkMRRG BenchmarkEmitAndExecute
BenchmarkCompile BenchmarkBuildAdjacency BenchmarkArchFingerprint
BenchmarkSATSolve BenchmarkMapExact BenchmarkMapExactBudget'
for b in $expected; do
  if ! grep -q "^${b}\b" "$tmp"; then
    echo "bench.sh: ERROR: $b missing from bench output; not writing $out" >&2
    exit 1
  fi
done

go run ./tools/benchjson -write "$out" -note "generated by tools/bench.sh; micro ${BENCH_TIME:-20x}, figures ${FIG_TIME:-1x}" <"$tmp"
