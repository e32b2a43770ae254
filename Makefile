# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check crashtest oracles examples scrubtest sanitize lint pmlint bench readpath-bench shard-bench pipeline-bench soak soak-bench doctor perf-gate fmt clean

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

# Run every example to completion, then the paper's §VI-A tool
# (bin/benchmark_kv.exe, a bare engine) at small sizes. Each example
# asserts its own story (crash_recovery must detect its planted
# Wal_sync_loss act, corruption_scrub its checksum-off sweep), so any
# non-zero exit fails.
EXAMPLES = quickstart takeout_orders ycsb_demo secondary_index crash_recovery corruption_scrub
BENCHMARK_KV = "fillseq --num 2000" "readrandom --num 2000 --reads 500" \
  "filltables --tables 2 --indexes 2" "indexscan --tables 2 --indexes 2"
examples:
	@for e in $(EXAMPLES); do \
	  echo "== examples/$$e.exe"; \
	  dune exec examples/$$e.exe || { echo "examples/$$e.exe failed" >&2; exit 1; }; \
	done
	@for c in $(BENCHMARK_KV); do \
	  echo "== benchmark_kv $$c"; \
	  dune exec bin/benchmark_kv.exe -- $$c || { echo "benchmark_kv $$c failed" >&2; exit 1; }; \
	done

# Corruption sweep on the one-shard router: inject seeded bit rot into PM
# tables, SSTables, the WAL and the manifest, scrub every shard, and fail
# (exit 1) on any silent wrong answer, undetected corruption, or crash.
# CORRUPTIONS picks the point count.
CORRUPTIONS ?= 16
scrubtest:
	dune exec bin/pm_blade_cli.exe -- scrub --corruptions $(CORRUPTIONS)

# Sanitizer gauntlet: pmsan (persistence ordering + redundant-flush
# audit) over a clean workload on the one-shard router, schedsan
# (happens-before races, lost wakeups) over the serial replay of synthetic
# compactions (Compaction.Pipeline.replay_all) under the thread,
# cooperative and flush-coroutine policies, and a sanitized crash-sweep
# sample. Exits 1 on any finding. SAN_SITES picks
# the sweep sample size.
SAN_SITES ?= 50
sanitize:
	dune exec bin/pm_blade_cli.exe -- sanitize --sites $(SAN_SITES)

# Source hygiene: no Obj.magic, no console output in lib/, a .mli for
# every lib/ module, a caller for every lib/ module and a user for every
# exported val — plus the pmlint static analyzer for the AST-level rules
# (partial accessors among them).
lint:
	sh scripts/lint.sh

# Static analyzer on its own: pmlint parses every lib/ module with
# compiler-libs and enforces the protocol rules (flush-before-commit,
# suspend-in-critical-section, partial-accessor); only
# reasoned inline allow markers silence a finding. Writes the
# machine-readable report to PMLINT.json. The
# planted leg (PMB_PLANT=pmlint_fixture scripts/check_pmlint.sh) adds
# the dirty fixtures and must fail.
pmlint:
	sh scripts/check_pmlint.sh PMLINT.json

check: build test lint

bench:
	dune exec bench/main.exe

# Bench gates: each runs one experiment into a temp file, fails on any
# floor the experiment asserts itself (Report.require in bench/), and
# compares the run against its committed BENCH_<id>.json with perf_gate
# (scripts/check_bench.sh). No target rewrites a baseline; refresh one
# after an intentional change with
#   dune exec bench/main.exe -- ID --json BENCH_ID.json
readpath-bench:
	sh scripts/check_bench.sh readpath
shard-bench:
	sh scripts/check_bench.sh shard
pipeline-bench:
	sh scripts/check_bench.sh pipeline
soak-bench:
	sh scripts/check_bench.sh soak
perf-gate:
	sh scripts/check_bench.sh attr

# Chaos soak via the CLI: seeded rounds of gray faults, crash-restart
# cycles (including a crash during recovery) and bit rot, driven through
# the health-aware router, checked against a golden model. SOAK_ROUNDS
# picks the length. Exits 1 on any violation.
SOAK_ROUNDS ?= 16
soak:
	dune exec bin/pm_blade_cli.exe -- soak --rounds $(SOAK_ROUNDS)

# Performance diagnosis: one YCSB-A run through the router with per-op
# latency attribution — where each operation's simulated time went
# (phase breakdown), background phases, the amplification/stall ledger,
# read-path effectiveness, the compaction pipeline, the front door and
# sanitizer status. Exits 1 if the attributed phases fail to cover op
# time.
doctor:
	dune exec bin/pm_blade_cli.exe -- doctor

fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
