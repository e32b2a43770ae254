#!/bin/sh
# Sharding gate: run the shard benchmark into a fresh file, fail if the
# front door is demonstrably broken, then compare the fresh run against
# the committed BENCH_shard.json with bin/perf_gate.exe. The smoke check
# fails on group commit never coalescing (mean batch size <= 1 means every
# writer paid its own log sync), a shard left stalled over the admission
# hard limit when the run ends, a scaling ratio below the 1.5x acceptance
# floor, an incomplete run, or a resident one-shard store whose reads PM
# serves less than 90% of (admission pushed the paper's PM level-0 to the
# SSD). The benchmark prints one machine-greppable line:
#
#   SHARD speedup4=S mean_batch4=M stalled=K completed=N pm_share=P
#
# The committed baseline is never rewritten here. To refresh it after an
# intentional change:
#   dune exec bench/main.exe -- shard --json BENCH_shard.json
#
# Usage: scripts/check_shard.sh [BASELINE_JSON]  (default BENCH_shard.json)
set -eu

baseline="${1:-BENCH_shard.json}"
if [ ! -f "$baseline" ]; then
    echo "check_shard: baseline $baseline not found (generate it with:" >&2
    echo "  dune exec bench/main.exe -- shard --json $baseline)" >&2
    exit 1
fi

fresh="$(mktemp)"
log="$(mktemp)"
trap 'rm -f "$fresh" "$log"' EXIT

dune exec bench/main.exe -- shard --json "$fresh" | tee "$log"

summary="$(grep -o 'SHARD [a-z0-9_.=[:space:]]*' "$log" | head -n 1)"
if [ -z "$summary" ]; then
    echo "check_shard: no SHARD summary line in benchmark output" >&2
    exit 1
fi

field() {
    echo "$summary" | tr ' ' '\n' | sed -n "s/^$1=//p"
}

speedup="$(field speedup4)"
mean_batch="$(field mean_batch4)"
stalled="$(field stalled)"
completed="$(field completed)"
pm_share="$(field pm_share)"

echo "check_shard: speedup4=$speedup mean_batch4=$mean_batch" \
     "stalled=$stalled completed=$completed pm_share=$pm_share"

fail=0
if [ "$(echo "$speedup" | awk '{print ($1 >= 1.5) ? 1 : 0}')" != 1 ]; then
    echo "check_shard: FAIL - 4-shard put throughput below 1.5x of 1 shard ($speedup)" >&2
    fail=1
fi
if [ "$(echo "$mean_batch" | awk '{print ($1 > 1.0) ? 1 : 0}')" != 1 ]; then
    echo "check_shard: FAIL - group commit never batched (mean batch $mean_batch)" >&2
    fail=1
fi
if [ "$stalled" != 0 ]; then
    echo "check_shard: FAIL - a shard ended the run stalled over the hard limit" >&2
    fail=1
fi
if [ "$completed" != 6 ]; then
    echo "check_shard: FAIL - expected 6 completed runs, got $completed" >&2
    fail=1
fi
if [ "$(echo "$pm_share" | awk '{print ($1 >= 0.9) ? 1 : 0}')" != 1 ]; then
    echo "check_shard: FAIL - resident store served from PM for only $pm_share of reads" >&2
    fail=1
fi

if ! dune exec bin/perf_gate.exe -- "$baseline" "$fresh"; then
    echo "check_shard: FAIL - fresh run regressed against $baseline" >&2
    fail=1
fi
exit $fail
