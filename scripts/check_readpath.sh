#!/bin/sh
# Read-path gate: run the readpath benchmark into a fresh file, fail if the
# block cache or the PM-table blooms are demonstrably dead — a zero cache
# hit ratio on the Zipfian get phase, or a zero bloom filter rate on the
# negative-lookup phase — then compare the fresh run against the committed
# BENCH_readpath.json with bin/perf_gate.exe. The benchmark prints one
# machine-greppable line:
#
#   READPATH ssd_read_reduction=R cache_hit_ratio=C bloom_filter_rate=B device_free_negatives=D
#
# The committed baseline is never rewritten here. To refresh it after an
# intentional change:
#   dune exec bench/main.exe -- readpath --json BENCH_readpath.json
#
# Usage: scripts/check_readpath.sh [BASELINE_JSON]  (default BENCH_readpath.json)
set -eu

baseline="${1:-BENCH_readpath.json}"
if [ ! -f "$baseline" ]; then
    echo "check_readpath: baseline $baseline not found (generate it with:" >&2
    echo "  dune exec bench/main.exe -- readpath --json $baseline)" >&2
    exit 1
fi

fresh="$(mktemp)"
log="$(mktemp)"
trap 'rm -f "$fresh" "$log"' EXIT

dune exec bench/main.exe -- readpath --json "$fresh" | tee "$log"

summary="$(grep -o 'READPATH [^"]*' "$log" | head -n 1)"
if [ -z "$summary" ]; then
    echo "check_readpath: no READPATH summary line in benchmark output" >&2
    exit 1
fi

field() {
    echo "$summary" | tr ' ' '\n' | sed -n "s/^$1=//p"
}

hit_ratio="$(field cache_hit_ratio)"
filter_rate="$(field bloom_filter_rate)"
reduction="$(field ssd_read_reduction)"
device_free="$(field device_free_negatives)"

echo "check_readpath: ssd_read_reduction=$reduction cache_hit_ratio=$hit_ratio" \
     "bloom_filter_rate=$filter_rate device_free_negatives=$device_free"

fail=0
if [ "$hit_ratio" = "0.000" ]; then
    echo "check_readpath: FAIL - block cache hit ratio is 0 on the Zipfian get phase" >&2
    fail=1
fi
if [ "$filter_rate" = "0.000" ]; then
    echo "check_readpath: FAIL - PM bloom filter rate is 0 on the negative-lookup phase" >&2
    fail=1
fi

if ! dune exec bin/perf_gate.exe -- "$baseline" "$fresh"; then
    echo "check_readpath: FAIL - fresh run regressed against $baseline" >&2
    fail=1
fi
exit $fail
