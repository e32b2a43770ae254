#!/bin/sh
# Pipelined-compaction gate: run the pipeline benchmark into a fresh file,
# fail if the staged overlap is demonstrably broken, then compare the
# fresh run against the committed BENCH_pipeline.json with
# bin/perf_gate.exe. The smoke check fails on a 4-core speedup below the
# 1.8x acceptance floor, any stage that never got busy (zero overlap
# work), either idleness figure not measurably below the serial baseline,
# or sanitizer findings inside the replay. The benchmark prints one
# machine-greppable line:
#
#   PIPELINE speedup4=S makespan4_ns=M serial_ns=T cpu_idle4=C io_idle4=I
#            serial_cpu_idle=SC serial_io_idle=SI read_busy=R merge_busy=G
#            build_busy=B write_busy=W races=N lost_wakeups=L
#
# The planted leg (PMB_PLANT=serial_pipeline) forces the stages serial;
# this script must then fail on the speedup floor — CI runs that leg and
# asserts the failure, proving the check has teeth.
#
# The committed baseline is never rewritten here. To refresh it after an
# intentional change:
#   dune exec bench/main.exe -- pipeline --json BENCH_pipeline.json
#
# Usage: scripts/check_pipeline.sh [BASELINE_JSON]  (default BENCH_pipeline.json)
set -eu

baseline="${1:-BENCH_pipeline.json}"
if [ ! -f "$baseline" ]; then
    echo "check_pipeline: baseline $baseline not found (generate it with:" >&2
    echo "  dune exec bench/main.exe -- pipeline --json $baseline)" >&2
    exit 1
fi

fresh="$(mktemp)"
log="$(mktemp)"
trap 'rm -f "$fresh" "$log"' EXIT

dune exec bench/main.exe -- pipeline --json "$fresh" | tee "$log"

summary="$(grep -o 'PIPELINE [a-z0-9_.=[:space:]]*' "$log" | head -n 1)"
if [ -z "$summary" ]; then
    echo "check_pipeline: no PIPELINE summary line in benchmark output" >&2
    exit 1
fi

field() {
    echo "$summary" | tr ' ' '\n' | sed -n "s/^$1=//p"
}

speedup="$(field speedup4)"
cpu_idle="$(field cpu_idle4)"
io_idle="$(field io_idle4)"
serial_cpu_idle="$(field serial_cpu_idle)"
serial_io_idle="$(field serial_io_idle)"
races="$(field races)"
lost="$(field lost_wakeups)"

echo "check_pipeline: speedup4=$speedup cpu_idle4=$cpu_idle io_idle4=$io_idle" \
     "(serial: cpu $serial_cpu_idle io $serial_io_idle) races=$races"

fail=0
if [ "$(echo "$speedup" | awk '{print ($1 >= 1.8) ? 1 : 0}')" != 1 ]; then
    echo "check_pipeline: FAIL - 4-core pipeline speedup below 1.8x ($speedup)" >&2
    fail=1
fi
for stage in read merge build write; do
    busy="$(field ${stage}_busy)"
    if [ "$(echo "$busy" | awk '{print ($1 > 0) ? 1 : 0}')" != 1 ]; then
        echo "check_pipeline: FAIL - $stage stage shows zero busy time (no overlap work)" >&2
        fail=1
    fi
done
if [ "$(echo "$cpu_idle $serial_cpu_idle" | awk '{print ($1 < $2) ? 1 : 0}')" != 1 ]; then
    echo "check_pipeline: FAIL - bottleneck CPU idleness not below serial ($cpu_idle vs $serial_cpu_idle)" >&2
    fail=1
fi
if [ "$(echo "$io_idle $serial_io_idle" | awk '{print ($1 < $2) ? 1 : 0}')" != 1 ]; then
    echo "check_pipeline: FAIL - device idleness not below serial ($io_idle vs $serial_io_idle)" >&2
    fail=1
fi
if [ "$races" != 0 ] || [ "$lost" != 0 ]; then
    echo "check_pipeline: FAIL - sanitizer findings in the replay (races=$races lost_wakeups=$lost)" >&2
    fail=1
fi

if ! dune exec bin/perf_gate.exe -- "$baseline" "$fresh"; then
    echo "check_pipeline: FAIL - fresh run regressed against $baseline" >&2
    fail=1
fi
exit $fail
