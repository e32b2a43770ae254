# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check crashtest oracles scrubtest sanitize lint pmlint bench readpath-bench shard-bench pipeline-bench soak soak-bench doctor perf-gate fmt clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full crash-consistency sweep: crash at every injection site of the demo
# workload, recover, check invariants. SITES=50 for a quick smoke pass.
SITES ?= all
crashtest:
	dune exec bin/pm_blade_cli.exe -- crashtest --sites $(SITES)

# Determinism oracles: ycsb --workload a with and without --durable
# against the recorded sim ops/s, the full crash sweeps at 1/2/4 shards
# against their recorded site and crash counts (0 violations), and a
# non-empty --metrics time series. PMB_PLANT=wal_skip_drain must fail it.
oracles:
	sh scripts/check_oracles.sh

# Corruption sweep on the one-shard router: inject seeded bit rot into PM
# tables, SSTables, the WAL and the manifest, scrub every shard, and fail
# (exit 1) on any silent wrong answer, undetected corruption, or crash.
# CORRUPTIONS picks the point count.
CORRUPTIONS ?= 16
scrubtest:
	dune exec bin/pm_blade_cli.exe -- scrub --corruptions $(CORRUPTIONS)

# Sanitizer gauntlet: pmsan (persistence ordering + redundant-flush
# audit) over a clean workload on the one-shard router, schedsan
# (happens-before races, lost wakeups) over the scheduling harness, and a
# sanitized crash-sweep sample. Exits 1 on any finding. SAN_SITES picks
# the sweep sample size.
SAN_SITES ?= 50
sanitize:
	dune exec bin/pm_blade_cli.exe -- sanitize --sites $(SAN_SITES)

# Source hygiene: no Obj.magic, no console output in lib/, no partial
# accessors in the storage core, a .mli for every lib/ module, a caller
# for every lib/ module and a user for every exported val — plus the
# pmlint static analyzer for the AST-level rules.
lint:
	sh scripts/lint.sh

# Static analyzer on its own: pmlint parses every lib/ module with
# compiler-libs and enforces the protocol rules (flush-before-commit,
# suspend-in-critical-section, metric-hygiene, partial-accessor); only
# reasoned inline allow markers silence a finding. Writes the
# machine-readable report to PMLINT.json. The
# planted leg (PMB_PLANT=pmlint_fixture scripts/check_pmlint.sh) adds
# the dirty fixtures and must fail.
pmlint:
	sh scripts/check_pmlint.sh PMLINT.json

check: build test lint

bench:
	dune exec bench/main.exe

# Read-path benchmark (block cache, PM blooms, fence pruning, bounded
# scans) with the liveness smoke check: fails if the cache hit ratio or
# the bloom filter rate comes out zero. The fresh run goes to a temp file
# and the perf gate compares it against the committed BENCH_readpath.json,
# which this target never rewrites. Refresh the baseline after an
# intentional change:
#   dune exec bench/main.exe -- readpath --json BENCH_readpath.json
readpath-bench:
	sh scripts/check_readpath.sh BENCH_readpath.json

# Sharded front-door benchmark (range-sharded router, group commit,
# admission control) with the liveness smoke check: fails on zero
# batching, a shard left stalled over the hard limit at run end, a
# 4-shard scaling ratio below 1.5x, a resident one-shard store whose
# reads PM serves under 90% of, or an update-heavy cost-based shard whose
# relief steps are under half internal compactions. The fresh run goes
# to a temp file
# and the perf gate compares it against the committed BENCH_shard.json,
# which this target never rewrites. Refresh the baseline after an
# intentional change:
#   dune exec bench/main.exe -- shard --json BENCH_shard.json
shard-bench:
	sh scripts/check_shard.sh BENCH_shard.json

# Pipelined-compaction benchmark (staged read/merge/build/write overlap
# vs the Table III serial baseline) with the liveness smoke check: fails
# on a 4-core speedup under 1.8x, a stage with zero overlap work,
# idleness not below the serial run, or replay sanitizer findings. The
# fresh run goes to a temp file and the perf gate compares it against the
# committed BENCH_pipeline.json, which this target never rewrites.
# Refresh the baseline after an intentional change:
#   dune exec bench/main.exe -- pipeline --json BENCH_pipeline.json
pipeline-bench:
	sh scripts/check_pipeline.sh BENCH_pipeline.json

# Chaos soak via the CLI: seeded rounds of gray faults, crash-restart
# cycles (including a crash during recovery) and bit rot, driven through
# the health-aware router, checked against a golden model. SOAK_ROUNDS
# picks the length. Exits 1 on any violation.
SOAK_ROUNDS ?= 16
soak:
	dune exec bin/pm_blade_cli.exe -- soak --rounds $(SOAK_ROUNDS)

# Chaos-soak benchmark with the availability gate: fails on any
# correctness violation, a healthy-shard within-budget ratio under 0.99,
# or a deadline-ok ratio under 0.992 (the bar a breaker-less build
# misses). The fresh run goes to a temp file and the perf gate compares
# it against the committed BENCH_soak.json, which this target never
# rewrites. Refresh the baseline after an intentional change:
#   dune exec bench/main.exe -- soak --json BENCH_soak.json
soak-bench:
	sh scripts/check_soak.sh BENCH_soak.json

# Performance diagnosis: one YCSB-A run through the router with per-op
# latency attribution — where each operation's simulated time went
# (phase breakdown), background phases, the amplification/stall ledger,
# read-path effectiveness, the compaction pipeline, the front door and
# sanitizer status. Exits 1 if the attributed phases fail to cover op
# time.
doctor:
	dune exec bin/pm_blade_cli.exe -- doctor

# Perf-regression gate: rerun the attribution benchmark and compare its
# metrics against the committed BENCH_attr.json baseline with per-metric
# tolerances. Refresh the baseline after an intentional perf change:
#   dune exec bench/main.exe -- attr --json BENCH_attr.json
perf-gate:
	sh scripts/check_perf.sh BENCH_attr.json

fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
