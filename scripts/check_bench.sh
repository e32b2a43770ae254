#!/bin/sh
# Bench gate: run one benchmark experiment into a fresh file, then compare
# it against its committed baseline with bin/perf_gate.exe. Fails if the
# run fails one of the floors the experiment asserts itself
# (Report.require: bench/main.exe then exits 1), if perf_gate finds a
# metric beyond its tolerance on the bad side, a schema-version bump or a
# config-fingerprint change, or both. Both gates always run, so a failing
# leg prints its floors and its perf_gate table.
#
# The committed baseline is never rewritten here. To refresh it after an
# intentional change:
#   dune exec bench/main.exe -- ID --json BENCH_ID.json
#
# Usage: scripts/check_bench.sh ID [BASELINE_JSON]  (default BENCH_ID.json)
set -eu

if [ $# -lt 1 ]; then
    echo "usage: scripts/check_bench.sh ID [BASELINE_JSON]" >&2
    exit 2
fi
id="$1"
baseline="${2:-BENCH_$id.json}"

if [ ! -f "$baseline" ]; then
    echo "check_bench: baseline $baseline not found (generate it with:" >&2
    echo "  dune exec bench/main.exe -- $id --json $baseline)" >&2
    exit 1
fi

fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

fail=0
if ! dune exec bench/main.exe -- "$id" --json "$fresh"; then
    echo "check_bench: FAIL - $id failed a floor" >&2
    fail=1
fi
if ! dune exec bin/perf_gate.exe -- "$baseline" "$fresh"; then
    echo "check_bench: FAIL - fresh $id run regressed against $baseline" >&2
    fail=1
fi
exit $fail
