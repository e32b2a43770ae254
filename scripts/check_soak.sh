#!/bin/sh
# Availability gate: run the chaos soak into a fresh file, fail if the
# health layer is demonstrably broken, then compare the fresh run against
# the committed BENCH_soak.json with bin/perf_gate.exe. The smoke check
# fails on any golden/manifest/sanitizer violation, a healthy shard
# stalling behind a sick sibling (healthy-within-budget ratio under
# 0.99), or an overall deadline-ok ratio below 0.992. The last bar is the
# breaker check: with breakers off this seed lands at ~0.988, so the
# planted PMB_PLANT=no_breaker CI leg must fail here. The benchmark prints
# one machine-greppable line:
#
#   SOAK ops=N deadline_ok=D healthy=H sick_within=S violations=V ...
#
# The committed baseline is never rewritten here. To refresh it after an
# intentional change:
#   dune exec bench/main.exe -- soak --json BENCH_soak.json
#
# Usage: scripts/check_soak.sh [BASELINE_JSON]  (default BENCH_soak.json)
set -eu

baseline="${1:-BENCH_soak.json}"
if [ ! -f "$baseline" ]; then
    echo "check_soak: baseline $baseline not found (generate it with:" >&2
    echo "  dune exec bench/main.exe -- soak --json $baseline)" >&2
    exit 1
fi

fresh="$(mktemp)"
log="$(mktemp)"
trap 'rm -f "$fresh" "$log"' EXIT

dune exec bench/main.exe -- soak --json "$fresh" | tee "$log"

summary="$(grep -o 'SOAK [a-z0-9_.=[:space:]]*' "$log" | head -n 1)"
if [ -z "$summary" ]; then
    echo "check_soak: no SOAK summary line in benchmark output" >&2
    exit 1
fi

field() {
    echo "$summary" | tr ' ' '\n' | sed -n "s/^$1=//p"
}

ops="$(field ops)"
deadline_ok="$(field deadline_ok)"
healthy="$(field healthy)"
violations="$(field violations)"
trips="$(field trips)"
crashes="$(field crashes)"

echo "check_soak: ops=$ops deadline_ok=$deadline_ok healthy=$healthy" \
     "violations=$violations trips=$trips crashes=$crashes"

fail=0
if [ "$violations" != 0 ]; then
    echo "check_soak: FAIL - $violations correctness/sanitizer violation(s)" >&2
    fail=1
fi
if [ "$(echo "$healthy" | awk '{print ($1 >= 0.99) ? 1 : 0}')" != 1 ]; then
    echo "check_soak: FAIL - healthy-shard within-budget ratio $healthy < 0.99" >&2
    fail=1
fi
if [ "$(echo "$deadline_ok" | awk '{print ($1 >= 0.992) ? 1 : 0}')" != 1 ]; then
    echo "check_soak: FAIL - deadline-ok ratio $deadline_ok < 0.992" >&2
    fail=1
fi
if [ "$(echo "$crashes" | awk '{print ($1 >= 1) ? 1 : 0}')" != 1 ]; then
    echo "check_soak: FAIL - soak never exercised a crash-restart cycle" >&2
    fail=1
fi

if ! dune exec bin/perf_gate.exe -- "$baseline" "$fresh"; then
    echo "check_soak: FAIL - fresh run regressed against $baseline" >&2
    fail=1
fi
exit $fail
