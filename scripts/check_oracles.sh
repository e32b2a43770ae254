#!/bin/sh
# Determinism oracles: the CLI figures a refactor must leave unchanged
# (or re-record on purpose, naming each move as an Obs.Attr phase). The
# simulation runs on a virtual clock, so an honest rerun reproduces each
# number exactly:
#
#   ycsb --workload a              28556 sim ops/s (one-shard router)
#   ycsb --workload a --durable    30129 sim ops/s
#   crashtest --sites all          920 / 930 / 928 sites at 1 / 2 / 4
#                                  shards, 1000 / 1075 / 1211 crashes,
#                                  0 violations
#   ycsb --metrics F               a time series of at least one row
#
# The planted leg (PMB_PLANT=wal_skip_drain: every WAL sync skips its
# fence) moves the durable figure and breaks the crash sweeps, so this
# script must fail under it.
#
# Usage: scripts/check_oracles.sh
set -eu

ycsb_ops=28556
durable_ops=30129

log="$(mktemp)"
metrics="$(mktemp)"
trap 'rm -f "$log" "$metrics"' EXIT

dune build bin/pm_blade_cli.exe
cli() { dune exec --no-print-directory bin/pm_blade_cli.exe -- "$@"; }

fail=0

# The "(N ops/s)" figure of a ycsb run.
ops_per_s() { sed -n 's/.*(\([0-9]*\) ops\/s).*/\1/p' "$log" | head -n 1; }

cli ycsb --workload a --metrics "$metrics" > "$log"
got="$(ops_per_s)"
echo "check_oracles: ycsb a $got ops/s (oracle $ycsb_ops)"
if [ "$got" != "$ycsb_ops" ]; then
    echo "check_oracles: FAIL - ycsb a moved: $got != $ycsb_ops" >&2
    fail=1
fi
if ! tr -d ' \n' < "$metrics" | grep -q '"rows":\[\['; then
    echo "check_oracles: FAIL - --metrics wrote an empty time series" >&2
    fail=1
fi

cli ycsb --workload a --durable > "$log"
got="$(ops_per_s)"
echo "check_oracles: ycsb a --durable $got ops/s (oracle $durable_ops)"
if [ "$got" != "$durable_ops" ]; then
    echo "check_oracles: FAIL - ycsb a --durable moved: $got != $durable_ops" >&2
    fail=1
fi

for leg in 1:920:1000 2:930:1075 4:928:1211; do
    shards="${leg%%:*}"
    rest="${leg#*:}"
    sites="${rest%%:*}"
    crashes="${rest#*:}"
    status=0
    cli crashtest --sites all --shards "$shards" --metrics "$metrics" > "$log" || status=$?
    got_sites="$(sed -n 's/.*crash sweep: \([0-9]*\) sites.*/\1/p' "$log" | head -n 1)"
    got_crashes="$(tr -d ' \n' < "$metrics" | sed -n 's/.*"fault.crashes":\([0-9]*\).*/\1/p')"
    echo "check_oracles: crashtest --shards $shards: $got_sites sites, $got_crashes crashes," \
         "exit $status (oracle $sites / $crashes / 0)"
    if [ "$status" != 0 ] || ! grep -q 'invariant violations: none' "$log"; then
        echo "check_oracles: FAIL - crash sweep at $shards shard(s) found violations" >&2
        fail=1
    fi
    if [ "$got_sites" != "$sites" ] || [ "$got_crashes" != "$crashes" ]; then
        echo "check_oracles: FAIL - crash sweep at $shards shard(s) moved:" \
             "$got_sites sites / $got_crashes crashes" >&2
        fail=1
    fi
done

if [ "$fail" = 0 ]; then echo "check_oracles: OK"; fi
exit $fail
