# Developer entry points. `make check` is the pre-commit gate;
# `make bench` refreshes the perf records (results/BENCH_*.json) that track
# engine throughput PR-over-PR; `make benchguard` asserts the steady-state
# zero-allocation contract of the batch engine; `make chaos` runs the
# fault-injection soak and refreshes results/BENCH_chaos.json; `make
# frontend` runs the concurrent-frontend verification suite and refreshes
# results/BENCH_frontend.json; `make cluster` runs the sharded-cluster
# verification suite and refreshes results/BENCH_cluster.json; `make
# rebalance` runs the live-rebalancing verification suite and refreshes
# results/BENCH_rebalance.json; `make clusterfrontend` runs the
# composed-stack verification suite (coalescing frontend over the elastic
# cluster, rebalance loop live) and refreshes
# results/BENCH_clusterfrontend.json; `make docs` lints the documentation
# (markdown links, pimbench command and pimgo.* API references in docs that
# describe the current system, cited benchmark files, facade godoc
# coverage) and gofmt cleanliness.

GO ?= go

.PHONY: build test race vet bench benchguard chaos frontend cluster rebalance clusterfrontend docs check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Round-engine and batch-engine microbenchmarks: human-readable output from
# the test suite, then the machine-readable JSON records via pimbench.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRound|BenchmarkDrive' -benchmem ./internal/pim/
	$(GO) run ./cmd/pimbench roundengine -out results/BENCH_roundengine.json
	$(GO) test -run '^$$' -bench 'BenchmarkBatchEngine' -benchmem .
	$(GO) run ./cmd/pimbench batchengine -out results/BENCH_batchengine.json

# Allocation guards: steady-state batch Get/Successor/Upsert/Delete on a
# warmed Map must allocate nothing (testing.AllocsPerRun == 0), and vet must
# be clean. Cheap enough to run on every commit, hence part of `check`.
benchguard:
	$(GO) test -run 'TestZeroAlloc' -count=1 .
	$(GO) vet ./...

# Fault-injection verification: the chaos soak (every built-in plan vs a
# fault-free oracle and the sequential baseline), the faulted determinism
# test, and the machine-readable recovery-cost record.
chaos:
	$(GO) test -run 'TestChaosSoak' -count=1 ./internal/core/
	$(GO) test -run 'TestFaultedDeterminismAcrossGOMAXPROCS' -count=1 .
	$(GO) run ./cmd/pimbench chaos -out results/BENCH_chaos.json

# Concurrent batching frontend verification: the oracle and chaos-soak
# equivalence tests (plus -race), a race stress of the collector's ordering
# (flush events vs Stats, dwell, drain on Close) over both executors and
# several GOMAXPROCS, then the client-ladder record.
frontend:
	$(GO) test -run 'TestFrontend' -count=1 ./internal/frontend/
	$(GO) test -race -run 'TestFrontend' -count=1 ./internal/frontend/
	$(GO) test -race -cpu 1,2,4 -count 20 -run 'FlushTrace|Dwell|Close' ./internal/frontend/
	$(GO) run ./cmd/pimbench frontend -out results/BENCH_frontend.json

# Sharded-cluster verification: the cluster-wide chaos soak (every fault
# plan x shard kills, all batch ops vs a fault-free single Map and the
# sequential oracle), the host-side checkpoint against the live machine
# and its zero-allocation guard, routing determinism across GOMAXPROCS
# (plus -race), then the machine-readable cluster-ladder record.
cluster:
	$(GO) test -run 'TestCluster|TestCheckpointMatchesSnapshot|TestCheckpointReusesBase|TestFold' -count=1 ./internal/cluster/
	$(GO) test -race -run 'TestClusterChaosSoak|TestClusterRoutingDeterminism' -count=1 ./internal/cluster/
	$(GO) run ./cmd/pimbench cluster -out results/BENCH_cluster.json

# Live-rebalancing verification: the migration/policy/lifecycle suites and
# the rebalance chaos soak (splits and merges under every fault plan x
# shard kills, traffic injected into both migration phases, vs the
# fault-free single Map and the sequential oracle; plus -race), then the
# elastic-ladder record with its refuse-on-divergence guard.
rebalance:
	$(GO) test -run 'TestSplitShard|TestMergeShards|TestMigration|TestRetiredShard|TestLoad|TestRebalance|TestClusterClose|TestStopShard|TestJournalGrowth|TestDegradedBroadcasts' -count=1 ./internal/cluster/
	$(GO) test -race -run 'TestRebalanceChaosSoak|TestClusterCloseDeterministic' -count=1 ./internal/cluster/
	$(GO) run ./cmd/pimbench rebalance -out results/BENCH_rebalance.json

# Composed-stack verification: the ClusterFrontend oracle/lifecycle suites,
# the chaos soak with the background rebalance loop live (plus -race), the
# DeltaLoads window edge cases, then the client-ladder record with its
# refuse-on-divergence guard and single-Map baseline.
clusterfrontend:
	$(GO) test -run 'TestClusterFrontend|TestClusterFlush|TestLoadDeltaEdgeCases|TestRebalanceFromStaleWindow' -count=1 ./internal/frontend/ ./internal/cluster/
	$(GO) test -race -run 'TestClusterFrontendChaosSoak|TestClusterFrontendCloseDeterministic|TestClusterFrontendRebalanceLoop' -count=1 ./internal/frontend/
	$(GO) run ./cmd/pimbench clusterfrontend -out results/BENCH_clusterfrontend.json

# Documentation gate: every intra-repo markdown link resolves, every
# `pimbench <cmd>` in the docs is a real command (validated against
# `pimbench -list`), every `pimgo.*` reference is a real facade export
# (root-level history and plan files such as CHANGES.md and ROADMAP.md
# are exempt from these two),
# every cited results/BENCH_*.json is checked in, every exported facade
# identifier has a doc comment, and all sources are gofmt-clean.
docs:
	$(GO) run ./cmd/pimbench -list | $(GO) run ./cmd/doccheck -cmds - -pkg .
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

check: build vet test benchguard docs race
