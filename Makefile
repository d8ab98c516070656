# Development targets for the mpsnap repository.

GO ?= go

.PHONY: all build build-examples test bench-test test-race test-short test-transport test-svc test-recovery test-cluster test-engines test-churn cover bench bench-core bench-smoke bench-wallclock fuzz fuzz-checker fuzz-wire fuzz-wal fuzz-engines fuzz-monitor explore experiments chaos soak-churn vet fmt-check loc clean

all: vet test

build:
	$(GO) build ./...

# Run every example program. Each finishes in well under a second and
# exits non-zero (log.Fatal) when its own self-check fails.
build-examples:
	@for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run "./$$d" >/dev/null || exit 1; \
	done

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Non-test Go lines outside the frozen benchmark module: the number a
# simplification PR is meant to move (CI prints it on every run).
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l

# The frozen repository benchmark is its own module (benchmark/, replace
# mpsnap => ../), so root `go test ./...` does not compile it: this is the
# step that fails when an internal/ API change breaks it (~4 s).
bench-test:
	$(GO) -C benchmark test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# The transport's send, redial and accept paths, repeated under the race
# detector on one and two Ps: where PR 18 found a once-in-twelve hang,
# and where the FIFO/redial invariants of the send loop are pinned.
test-transport:
	$(GO) test -race -count=20 -cpu 1,2 ./internal/transport/

# The service's serve loop, its clients parked on the node's waiter list
# and their crash wake-up, repeated under the race detector the same way.
test-svc:
	$(GO) test -race -count=20 -cpu 1,2 ./internal/svc/

# Crash-recovery matrix under the race detector: WAL replay, restart and
# rejoin under chaos on the sim, chan and tcp backends (plain and sharded
# runs, whole-shard crash included), plus the WAL's
# crash-point suite, the pruned-log differential oracle, the value log's
# straggler (below-frontier insert) tests, eqaso's acts-follow-syncs suite
# (one sync per update, vouch and prune only after a durable record), the
# cluster's recovered-segment tests (a member restarted, once and twice,
# after GC pruned its early writes) and crash-stop pruning without a WAL:
# eqaso's TestPruneKeepsActiveWindowWithoutWAL and
# TestCrashedPeerStopsPruneWithoutWAL on sim, chan and tcp, and the views
# compared across prune points (TestGoodViewsComparableAcrossPrunes, core's
# TestViewsComparableAcrossPrunePoints), which CI's race job runs here.
test-recovery:
	$(GO) test -race -count=1 -run 'Restart|Recover|Replay|Writer|CrashPoint|Prune|NoteVouch|Differential|Straggler|Sync|Vouch|Seed' ./internal/chaos/ ./internal/wal/ ./internal/core/ ./internal/eqaso/ ./internal/cluster/

# Sharded-cluster matrix under the race detector: routing, refusals,
# and validated cross-shard cuts on the sim, chan and tcp backends
# (a sharded run is a chaos.Run: internal/chaos's TestShards* tests, e.g.
# TestShardsChanSeeds covers 4 seeds with per-shard fault schedules), plus
# whole-shard crash+recover and whole-shard partition episodes on every
# backend, each shard a 3-node cluster under a one-of-each fault mix with
# a restart.
# The sharded runs and the routed-call tests are repeated on one and two
# Ps the way test-svc repeats svc: a handler admitting into the shard's svc
# queue is exactly what only a real mutex can deadlock (the simulator can
# only flag it).
# The last two lines are the two ways a member's segment is built: heavy
# loss on eqaso shards, which fold each write's delta and hold back a value
# that outran its predecessor, and acr shards, which have no fold and so
# commit each member's whole segment through the writer-side accumulator
# (acr has no WAL, hence no restarts).
CLUSTER_MIX = -n 3 -f 1 -restarts 1 -partitions 1 -drops 1 -spikes 1 -scan-ratio 0.2
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/mux/
	$(GO) test -race -count=5 -cpu 1,2 -run 'Routed|Queue' ./internal/cluster/
	$(GO) test -race -count=5 -cpu 1,2 -run '^TestShards' ./internal/chaos/
	$(GO) run ./cmd/aso chaos -backend all $(CLUSTER_MIX) -seed 7 -duration 1s -shards 3 -shard-crash 1
	$(GO) run ./cmd/aso chaos -backend all $(CLUSTER_MIX) -seed 9 -duration 1s -shards 2 -shard-partition 0
	$(GO) run ./cmd/aso chaos -backend sim $(CLUSTER_MIX) -seed 1 -duration 1s -shards 2 -drops 4 -drop-prob 0.5
	$(GO) run ./cmd/aso chaos -backend sim $(CLUSTER_MIX) -seed 7 -duration 1s -shards 2 -engine acr -restarts 0

# Engine matrix under the race detector: the registry smoke across every
# registered engine, the differential corpus (eqaso against every other
# linearizable engine), the
# register-vector core's own suite (both first-collect rules), and the
# challenger chaos matrix (4 seeds × sim + chan with the default fault
# mix).
test-engines:
	$(GO) test -race -count=1 ./internal/engine/ ./internal/regsnap/
	$(GO) test -race -count=1 -run 'TestChallengerEngines|TestRunEngines' ./internal/chaos/ ./internal/bench/

# Coverage profile across all packages plus a per-function summary; the
# total line is the number CI reports.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# One benchmark iteration per target; see bench_output.txt conventions.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Data-structure micro-benchmarks: the reference map engine (ValueSet)
# vs the history-independent value log on Add/CountLE/ViewLE/EQ setup,
# and what a below-frontier insert costs at H = 1k, 16k, 64k. CI runs
# them for one iteration (BENCHTIME=1x) so they build and run on every push.
BENCHTIME ?= 1s
bench-core:
	$(GO) test ./internal/core -bench . -benchmem -benchtime=$(BENCHTIME) -run '^$$'

# The artifact-bearing experiments `-e all` runs, at their -quick sizes,
# gates enforced (-check is a no-op for an experiment without one); each
# writes its committed BENCH_<name>.json. The list is bench.Experiments'
# (internal/bench TestBenchSmokeListMatchesTable fails when they differ).
BENCH_SMOKE = latency throughput hotpath recovery cluster engines
bench-smoke:
	@for e in $(BENCH_SMOKE); do \
		$(GO) run ./cmd/aso bench -e $$e -quick -check -json BENCH_$$e.json || exit 1; \
	done

# Wall-clock floor on the real TCP loopback stack: eqaso, acr and fastsnap
# at 256 clients; -check fails the build unless every engine reaches 1/3 of
# its ops/s in the committed BENCH_wallclock.json, which the same command
# plus `-json BENCH_wallclock.json` regenerates.
bench-wallclock:
	$(GO) run ./cmd/aso bench -e wallclock -check

# Churn matrix under the race detector: the streaming monitor's unit,
# equivalence, and injected-violation suites, the churn schedule property
# tests, then a short churn CLI matrix — eqaso, acr, fastsnap × 2 seeds
# on the sim, chan and tcp backends with the monitor armed.
test-churn:
	$(GO) test -race -count=1 ./internal/monitor/
	$(GO) test -race -count=1 -run 'TestChurn|TestGenerateChurn' ./internal/chaos/
	@for eng in eqaso acr fastsnap; do \
		for seed in 1 2; do \
			$(GO) run ./cmd/aso chaos -backend sim,chan,tcp -engine $$eng -seed $$seed -duration 2s -churn || exit 1; \
		done; \
	done

# Randomized conformance fuzzing across all algorithms (bounded batch).
fuzz:
	$(GO) run ./cmd/aso fuzz -count 5000

# Native Go fuzzing of the checker against brute force (30s).
fuzz-checker:
	$(GO) test -fuzz=FuzzCheckerAgainstBruteForce -fuzztime=30s ./internal/history/

# Wire codec fuzzing: canonical round trips + mutated-frame decodes over
# every registered codec (the engine registry, the cluster router, la).
fuzz-wire:
	$(GO) test -fuzz=FuzzWireRoundTrip -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=30s ./internal/wire/

# WAL replay fuzzing: arbitrary byte images must never panic and must
# recover exactly the longest intact record prefix.
fuzz-wal:
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=30s ./internal/wal/

# Monitor window fuzzing: random op tapes (the history fuzz corpus shape,
# restart markers included) streamed through the online monitor must
# produce zero violations whenever the offline checker accepts the tape.
fuzz-monitor:
	$(GO) test -fuzz=FuzzMonitorWindow -fuzztime=30s -run '^$$' ./internal/monitor/

# Differential engine fuzzing: random sequential op schedules run on
# EQ-ASO vs every other non-Sequential engine of the registry, every scan
# compared pointwise against the reference and the trivial oracle.
fuzz-engines:
	$(GO) test -fuzz=FuzzEngineEquivalence -fuzztime=30s -run '^$$' ./internal/engine/

# Bounded-exhaustive schedule exploration: every row of explore.Scenarios
# crossed with every registered engine and the atomic one-shot, each at
# its row's depth (the whole grid, ~20 s). A cell the engine's fault model
# rejects (byzaso and sso-byz need n > 3f) is reported, not run.
explore:
	$(GO) run ./cmd/aso explore

# Regenerate every table/figure of EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/aso bench

# Seeded chaos run (crashes, partitions, loss, delay spikes) with
# end-to-end linearizability checking, on both the simulator and a TCP
# loopback cluster. Override: make chaos SEED=7
SEED ?= 42
chaos:
	$(GO) run ./cmd/aso chaos -seed $(SEED) -duration 5s

# Long churn soak on the simulator: rolling restarts, membership flaps,
# lagging links, and an adversarial bursty workload across the atomic
# engine matrix, with the streaming monitor armed and first-violation
# trace dumps landing in traces/. Override: make soak-churn SOAK_DURATION=10m
SOAK_DURATION ?= 60s
soak-churn:
	@mkdir -p traces
	@for eng in eqaso acr fastsnap; do \
		$(GO) run ./cmd/aso chaos -backend sim -engine $$eng -seed $(SEED) -duration $(SOAK_DURATION) -churn -trace-dir traces || exit 1; \
	done

clean:
	$(GO) clean ./...
