GO ?= go

.PHONY: build test race vet ab chaos fuzz tracestress flakes detectors soak soak-short verify clean

build:
	$(GO) build ./...

# test is the tier-1 gate: vet + build + the full unit/property/integration
# suite.
test: vet build
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# ab is the A/B tool for `go run ./bench`, and the only accepted evidence for
# a performance claim: it builds ./bench from a throwaway git worktree of BASE
# (side a) and from this working tree (side b), runs the two binaries
# alternately in one session — N pairs, the side that goes first alternating —
# and prints -compare's table: both sides' medians and quartile spreads per
# workload and metric, the gap against BENCHMARK.json's bound, exit 1 over
# bound. Everything it writes is under a temp dir it removes, worktree
# included. A pair of all four workloads takes about 4 minutes. SEED picks
# the workload inputs on both sides: a gain found at one seed is checked
# again at another that was not used while building it.
#   make ab BASE=HEAD~1            make ab BASE=main N=5 WORKLOAD=recover_snapshot
#   make ab BASE=main SEED=3 WORKLOAD=live_local
N ?= 10
WORKLOAD ?= all
SEED ?= 1

ab:
	@test -n "$(BASE)" || { echo "usage: make ab BASE=<ref> [N=10] [WORKLOAD=all] [SEED=1]" >&2; exit 2; }
	@set -e; T=$$(mktemp -d); \
	trap 'git worktree remove --force "$$T/base" >/dev/null 2>&1 || true; rm -rf "$$T"' EXIT; \
	trap 'exit 130' INT TERM; \
	git worktree add --detach "$$T/base" "$(BASE)" >/dev/null; \
	(cd "$$T/base" && $(GO) build -o "$$T/a" ./bench); \
	$(GO) build -o "$$T/b" ./bench; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi; \
		for side in $$order; do \
			"$$T/$$side" -workload $(WORKLOAD) -seed $(SEED) -trace=false -out "$$T/$$side.jsonl" >/dev/null; \
		done; \
		echo "ab: pair $$i of $(N) done" >&2; \
	done; \
	echo "a = $(BASE) ($$(git rev-parse --short "$(BASE)")), b = working tree at $$(git rev-parse --short HEAD), seed $(SEED)"; \
	"$$T/b" -compare "$$T/a.jsonl" "$$T/b.jsonl"

# chaos runs the transport fault-injection suite under the race detector:
# heartbeat-detected half-open connections, repeated severs with resume,
# graceful drain, close-ordering, malformed frames and handshakes, overflow
# recovery, and the E13 resilience experiment end to end.
CHAOS_RUN = 'TestChaos|TestServerShutdown|TestClientClose|TestReconnect|TestMalformed|TestOverflow|TestPostOverflow'

chaos:
	$(GO) test -race -count=1 -run $(CHAOS_RUN) ./internal/remote
	$(GO) test -race -count=1 -run 'TestChaosPartitionProducesRetrievableDump' ./internal/debugz
	$(GO) test -race -count=1 -run 'TestAllExperimentsQuick/(E13|E15|E17)' ./internal/experiments

# fuzz smoke-runs two fuzzers for a bounded wall time each: FuzzDecodeFrame
# drives the binary frame decoder with mutations of the golden fixtures, and
# FuzzIndexMatchesModel drives the store's B+tree index against a sorted-map
# model from the quick-check's cases. Long exploratory runs use `go test
# -fuzz` directly; this target is the regression gate.
FUZZ_TIME ?= 10s

fuzz:
	$(GO) test -run XXX -fuzz FuzzDecodeFrame -fuzztime $(FUZZ_TIME) ./internal/remote
	$(GO) test -run XXX -fuzz FuzzIndexMatchesModel -fuzztime $(FUZZ_TIME) ./internal/mvcc

# tracestress hammers the one conformance subtest whose failure mode is a
# lost race between a trace stamp and the dispatch goroutine: every completed
# trace must carry its enqueue (or replay) stamp, 200 runs in a row.
tracestress:
	$(GO) test -count=200 -run 'TestConformance/.*/TracedStagesComplete' ./internal/coretest

# flakes repeats the tier-1 tests that used to fail: E17's "the storm reached
# Shed" check read a polled pressure level (it now reads the governor's own
# high-water), E6's routed arm waited for its random workload to race a move
# against an update (it now plays that interleaving on the fake clock), and
# the lag-gauge test waited under -race for a resync its blocked consumer
# could not deliver (it now reads the radar), and the watch-pod prune test
# waited for v3 to arrive rather than for version 3 to be servable (it now
# waits for its own premise). The black-box dump end-to-end test and E5 once
# failed in full parallel suite runs. Each must pass 30 runs in a row.
flakes:
	$(GO) test -count=30 -run 'TestAllExperimentsQuick/E17' ./internal/experiments
	$(GO) test -count=30 -run 'TestAllExperimentsQuick/E6$$' ./internal/experiments
	$(GO) test -count=30 -run 'TestAllExperimentsQuick/E5$$' ./internal/experiments
	$(GO) test -race -count=30 -run TestLagGaugesExcludeLaggedAndCancelledWatchers ./internal/core
	$(GO) test -race -count=30 -run TestWatchPodPrune ./internal/cache
	$(GO) test -race -count=30 -run TestChaosPartitionProducesRetrievableDump ./internal/debugz

# soak drives the full governed stack — MVCC store, hub, remote server, TCP,
# reconnecting clients, ResyncWatchers — through an overload storm under the
# race detector: stalled consumers, large values, every connection severed
# mid-storm. It must end with the heap bounded, the degradation ladder
# engaged, every consumer converged byte-equal, and zero goroutines leaked.
# soak-short is the same storm at CI scale and is part of `make verify`.
soak:
	$(GO) test -race -count=1 -run TestSoakOverloadStorm -v ./internal/experiments

soak-short:
	$(GO) test -race -count=1 -short -run TestSoakOverloadStorm ./internal/experiments

# detectors runs the deterministic anomaly-detector suite alone: every
# detector fires on its synthetic anomaly, none fires across ten simulated
# steady-state minutes, and the monitor/capture plumbing works on the fake
# clock.
detectors:
	$(GO) test -race -count=1 ./internal/flightrec

# verify is the gate a change must pass before it ships. The race target
# includes the hub contract, stress, and latency-isolation tests, and the
# allocation pins that keep an idle tracer, recorder and governor free on the
# hot path; chaos is the transport fault-injection suite (including the
# black-box dump e2e); fuzz smoke-runs the wire-codec and store-index
# fuzzers; tracestress repeats the trace-stamp ordering subtest; flakes
# repeats E17 quick; detectors is the deterministic anomaly-detector suite;
# soak-short is the CI-scale overload storm against the governed stack.
verify: vet build race chaos fuzz tracestress flakes detectors soak-short

clean:
	$(GO) clean ./...
