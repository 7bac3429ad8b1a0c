GO ?= go

.PHONY: build test test-shuffle test-sweep check-matrix test-budgets mutants fuzz-smoke race race-matrix bench bench-all bench-smoke bench-graph bench-alloc bench-flood bench-dense bench-faults bench-shard bench-sweep sweep-smoke serve-smoke fleet-chaos pins fmt fmt-check vet docs-check loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full suite in randomized test order: order-dependent state leaks
# (a Runner not reset between runs, a package-level cache primed by an
# earlier test) surface here before they flake elsewhere. Wired into the
# main CI job.
test-shuffle:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# The sharded determinism matrix under the race detector: every
# algorithm × model × fault schedule at shard counts 1/2/4/8, the
# sharded-vs-single-shard engine differential (TestThreeWay), the
# dispatch-invariance matrix (every tick pooled / every tick inline /
# the adaptive per-tick choice), the idle-hint soundness battery (every
# algorithm × wake regime, hinted event engine vs the round-by-round
# reference interpreter, and vs the hint-blind event engine under
# faults, at shards 1/2/4 pooled and inline), the randomized
# differential against the reference (TestReference*: it crosses shard
# counts on one reused Runner), the EffectiveShards table and the
# harness worker byte-identity matrix. This is the strongest signal
# on the tick-barrier protocol — a shard writing outside its node range
# is a data race here long before it is a wrong answer anywhere else.
# -cpu 1,2,4 on the engine layers
# because the engine only starts a shard pool when a multi-shard run has
# more than one core, and only hands it the ticks with enough due work:
# at 1 every tick runs inline, at 2 and 4 the race detector sees the
# concurrent dispatch even when the hardware would not take it. The
# flood family's batteries ride along (TestFlood*: the poisoned-box
# goldens, the model test against the reference flooder and the ownership
# tests; TestLemma43ListLength): its receivers read wire boxes in place,
# some of which crossed shards, and keep them for their own next sends,
# and a box released too early is a data race here before it is a moved
# hash. TestWarmTrialAfterGCAllocatesNoBox runs warm four-shard trials
# between collections: boxes cross shards in messages and land on another
# shard's shelf, and the shelves draw from and go back to the one locked
# reserve (TestContextShard holds each node to its shard's index). So
# does the recycling battery
# (TestRecycled*, TestRejoin*): a warm Runner renews its processes, some of
# whose wire records crossed shards in the run before, and a record or a
# slab shared by mistake between two of them is a data race at 2 and 4
# shards first. The harness matrix (4 sweeps
# a pass) runs once, at 4, and with it the sweep pipeline's backlog test:
# every worker runs the ordered tail under one lock, so the emitters, the
# aggregator and the Progress hook are only race-free if that lock is
# where the code says it is. The message-path battery rides along too
# (TestBroadcastMatches*, TestInboxOrder*, TestRowOutgrows*,
# TestWheelStorage*): the inbox-ordering scratch and the wheel's spare
# delivery arrays are per shard and the rows are stretches of one slab per
# Runner, which is exactly where a sharing mistake — a scratch two shards
# both reach, a row that spills into its neighbour's stretch — is a data
# race first. So do the arrival-pass tests (TestRoundCapLeavesNothingInFlight,
# TestCrashDropsPrewrittenArrivals, TestLossyInstrumentsPinned): a
# synchronous message is written into its receiver's row by the flush or
# the mailbox drain a tick before it is read, and at 2 and 4 shards a row
# written by the wrong shard, or before its tick's step phase has read it,
# is a data race here. So do the mailbox tests (TestMailHoldsReferences,
# TestPortSendCapSpansStartAndRound): a cross-shard message is read by
# the receiving shard's drain in its sender's outbox slot, and a node's
# send counters are its stepping shard's, so a slot overwritten before
# the drain, or counters two shards share, is a data race here first.
# So does the warm-Runner table (TestWarmRunner*):
# one Runner through mode, shard-count, instrument, fault, error and
# round-cap transitions, each run held to a fresh Runner's, at 4 shards
# pooled where the cores allow — and the rebinding table
# (TestRebindMatchesFresh): one Runner through graphs of other sizes and
# back, at 1, 2 and 4 shards, where rows and shards carved for the last
# graph are exactly what a stale range would race on.
# Every name in either -run list must match a test (go test -list), so a
# renamed or deleted test fails the target instead of leaving the matrix
# without a word.
RACE_ENGINE_RUN := TestSharded|TestShardMatrix|TestThreeWay|TestDispatchInvariance|TestIdleHint|TestReference|TestEffectiveShards|TestFlood|TestLemma43|TestRecycled|TestRejoin|TestBroadcastMatches|TestInboxOrder|TestRowOutgrows|TestWheelStorage|TestRoundCapLeavesNothingInFlight|TestCrashDropsPrewrittenArrivals|TestLossyInstrumentsPinned|TestWarmRunner|TestRebindMatchesFresh|TestWarmTrialAfterGCAllocatesNoBox|TestContextShard|TestMailHoldsReferences|TestPortSendCapSpansStartAndRound|TestSlotRoutes
RACE_SWEEP_RUN := TestSweepByteIdentical|TestSweepCSVIdentical|TestSweepUnsetShards|TestEmitKeepsUpWithCompletion
race-matrix:
	@set -e; for arg in '$(RACE_ENGINE_RUN);./internal/sim ./internal/core' '$(RACE_SWEEP_RUN);./internal/harness'; do \
		run="$${arg%%;*}"; pkgs="$${arg#*;}"; tests="$$($(GO) test -list '.*' $$pkgs | grep '^Test')"; \
		for name in $$(echo "$$run" | tr '|' ' '); do \
			echo "$$tests" | grep -qE "$$name" || { echo "race-matrix: -run name $$name matches no test in $$pkgs"; exit 1; }; \
		done; \
	done
	$(GO) test -race -cpu 1,2,4 -run '$(RACE_ENGINE_RUN)' ./internal/sim ./internal/core
	$(GO) test -race -cpu 4 -run '$(RACE_SWEEP_RUN)' ./internal/harness

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The repo's one benchmark (BENCHMARK.json, cmd/ule-bench/README.md): five
# workloads, end-to-end and per-layer metrics. Every recorded performance
# number comes from here; the bench-* targets below are focused
# microbenchmark sets for working on one layer.
bench-all:
	$(GO) run ./cmd/ule-bench

# One iteration per benchmark: proves the bench harness still runs without
# paying for a full measurement sweep (-benchmem so the allocation columns
# the fast-path work watches are exercised too). Covers the root package
# experiment benchmarks (the dense flood cell of bench-dense among them),
# the topology benchmarks and bench-dense's inbox-ordering rows. Wired
# into CI.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' . ./internal/graph
	$(GO) test -bench 'InboxOrder' -benchtime=1x -benchmem -run='^$$' ./internal/sim

# The topology fast-path measurement set (docs/PERFORMANCE.md): CSR
# construction + BFS/diameter benchmarks, the graph-construction
# allocation budgets, and the million-node wave delivery run.
bench-graph:
	$(GO) test -run 'TestAllocBudgetGraphConstruction' -v .
	$(GO) test -bench 'Graph' -benchtime 5x -benchmem -run='^$$' ./internal/graph
	$(GO) test -bench 'GraphMillionNodeWave|EngineWarm|EngineThroughput' -benchtime 5x -benchmem -run='^$$' .

# The host-cost budgets (docs/PERFORMANCE.md): the AllocsPerRun budgets of
# the engine fast path, what a cold Runner costs before that path is warm
# (TestAllocBudgetColdRunner) and, per registered algorithm, heap allocations and
# Round calls per delivered message, on a Prepared's first trial and on a
# later one (TestProtocolBudgets), plus the parked path's budget against
# the hint-blind engine and what a cross-shard message costs while it
# waits for the barrier (TestMailHoldsReferences; internal/sim), the
# sweep compiler's
# (internal/harness: compiling costs the cells, never the trials) and what
# a whole trial of the ule-bench sweep costs the heap
# (TestAllocBudgetSweepTrial), what a node's coins and least-element
# list cost (TestAllocBudgetNodeFootprint), and what a uled slot holds and
# a request costs it (internal/serve: at most slotPrepCap cells, a cold
# request rebinds one, a hot one costs only its response). These also run
# inside the full
# suite; the target gives CI a label for them, the way test-sweep labels
# the pipeline gate. The node generator's fuzzing against math/rand is in
# fuzz-smoke.
test-budgets:
	$(GO) test -run 'TestAllocBudget|TestProtocolBudgets|TestMailHoldsReferences' -v . ./internal/sim
	$(GO) test -run 'TestCompileCostIndependentOfTrials|TestAllocBudgetSweepTrial' -v ./internal/harness
	$(GO) test -run 'TestAllocBudgetColdElection|TestAllocBudgetHotElection|TestSlotMemoryFollowsTraffic|TestArenaReuse' -v ./internal/serve

# The allocation fast-path measurement set (docs/PERFORMANCE.md): the
# budget tests plus the engine benchmarks and the kingdom benchmark's
# allocs/msg and steps/msg. The recorded numbers are cmd/ule-bench's
# (elect-sparse: sim.floor_ns_per_tick, core.run_ms.*, sim.allocs_per_run,
# sim.bytes_per_run).
bench-alloc: test-budgets
	$(GO) test -bench 'EngineSparse|EngineWarm|EngineAsync|EngineParallel|EngineThroughput|SparseDFSTorus64|NodeRNGSeed|Thm410_Kingdom' -benchtime 5x -benchmem -run='^$$' .

# The flood data-path measurement set (docs/PERFORMANCE.md § "One copy per
# flood message"): the per-node Start budget and the per-message census,
# then leastel's ns/msg and allocs/msg on the dense and the sparse cell.
# The recorded numbers are cmd/ule-bench's (elect-sparse, elect-dense:
# core.run_ms.leastel-*).
bench-flood:
	$(GO) test -run 'TestFloodStartBudget|TestProtocolBudgets' -v .
	$(GO) test -bench 'FloodRound' -benchtime 20x -run='^$$' ./internal/core

# The synchronous message path measurement set (docs/PERFORMANCE.md § "The
# synchronous message path"): the flood cell that dominates elect-dense —
# warm, ns/msg, B/op and the heap in use after its warm runs (heap-MiB), on
# one core and on two, since the default shard count follows GOMAXPROCS —
# what ordering one inbox row costs per
# message by row length, degree and arrival order, and where landing
# broadcast slots by gathering starts to beat walking the broadcaster
# lists (minGatherShare). These are the by-step
# numbers that section quotes; the recorded end-to-end ones are
# cmd/ule-bench's (elect-dense: core.run_ms.flood-random64k).
bench-dense:
	$(GO) test -bench 'EngineDense_FloodRandom64k' -benchtime 5x -benchmem -cpu 1,2 -run='^$$' .
	$(GO) test -bench 'InboxOrder' -benchmem -run='^$$' ./internal/sim
	$(GO) test -bench 'SlotLanding' -benchtime 3x -cpu 2 -run='^$$' ./internal/sim

# The fault-adversary measurement set (docs/FAULTS.md): the fault-injected
# allocation budget plus the warm-path fault benchmarks.
bench-faults:
	$(GO) test -run 'TestAllocBudgetLeastelFaultyRing' -v .
	$(GO) test -bench 'EngineFaults' -benchtime 5x -benchmem -run='^$$' .

# The sharded-engine measurement set (docs/PERFORMANCE.md § "Sharded
# engine scaling"): the sharded allocation budgets, the inline-vs-pooled
# tick sweep the dispatch threshold was read from, what starting and
# closing the shard pool costs against the emptiest run that starts one,
# the million-node ring wave at 1/2/4/8 shards, and the 10M-node run. The before/after rows of
# that section come from cmd/ule-bench (elect-dense, elect-sparse), not
# from here.
bench-shard:
	$(GO) test -run 'TestAllocBudgetLeastelSharded|TestAllocBudgetLeastelAutoSharded' -v .
	$(GO) test -bench 'TickDispatch' -benchtime 5x -run='^$$' ./internal/sim
	$(GO) test -bench 'ShardPoolLifecycle' -benchmem -cpu 2 -run='^$$' ./internal/sim
	$(GO) test -bench 'EngineSharded$$' -benchtime 3x -benchmem -run='^$$' -timeout 30m .
	$(GO) test -bench 'EngineSharded10M' -benchtime 1x -benchmem -run='^$$' -timeout 30m .

# Focused sweep-pipeline gate (docs/PERFORMANCE.md § "Sweep pipeline"):
# the tail's allocation budget, the O(1)-aggregation guard, the two
# pipeline tests (a finished trial is emitted about when it finishes; an
# emitter error stops the workers and leaves no goroutine), the
# kill-and-resume byte-identity matrix, and the CLI binary sweep /
# resume / export round trip. All of these also run inside the full
# suite; this target exists so CI surfaces a pipeline regression under
# its own label, the same way race-matrix labels the determinism matrix.
# The binary decoder's fuzzing is in fuzz-smoke.
test-sweep:
	$(GO) test -run 'TestAllocBudgetSweepConsumer|TestConsumerMemoryFlatInTrialCount|TestEmitKeepsUpWithCompletion|TestRunStopsOnEmitterError|TestBinaryKillAndResume' -v ./internal/harness
	$(GO) test -run 'TestSweepModeBinaryAndExport|TestSweepModeResumeExcludesTextEmitters|TestFromBinCSVOut' -v ./cmd/ule-experiments

# The guarantee gate (docs/ARCHITECTURE.md § "One verdict"): every
# registered row on fifteen graphs under the seven fault-free models, and
# each row that says AnyStart also under a staggered wake schedule, held
# by Prepared.RunInto's check to its Table 1 row — its winner included —
# must break it in no run (TestCheckMatrix). It runs inside the full
# suite; this target gives CI a label for it, as test-sweep does the
# pipeline.
check-matrix:
	$(GO) test -run '^TestCheckMatrix$$' -v ./internal/core

# The mutation smoke (mutants_test.go, build tag mutants): each row breaks
# one rule of the program on purpose — an exact text swapped through
# go test -overlay, so the tree is never written — and names the tests
# that must fail on the broken copy. A row whose old text no longer
# matches exactly once, or that names a byte pin, fails the target. Not
# part of the full suite; wired into CI.
mutants:
	$(GO) test -tags mutants -count=1 -run '^TestMutants$$' -v .

# Every fuzz target for 20 s each: the one thing the full suite does not do
# (it only replays each target's seed corpus). FromSpec: the graph specs
# uled reads from clients. ParseModel: the execution-model grammar.
# ParseBinary: the binary decoder, every reader of a document or shard
# being that one scanner. LazySource: the node generator against
# math/rand, value for value. LeaseLine: the fleet's lease and worker
# lines, which a worker reads from its stdin and a coordinator from a
# process that may die mid-write. ElectionRequest: uled's election
# endpoint, whatever bytes a client posts. Wired into CI.
fuzz-smoke:
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzFromSpec -fuzztime 20s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzParseModel -fuzztime 20s
	$(GO) test ./internal/harness -run '^$$' -fuzz FuzzParseBinary -fuzztime 20s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzLazySource -fuzztime 20s
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzLeaseLine -fuzztime 20s
	$(GO) test ./internal/harness -run '^$$' -fuzz FuzzLoadSpec -fuzztime 20s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzElectionRequest -fuzztime 20s

# The sweep-pipeline measurement set (docs/PERFORMANCE.md): per-trial
# encoder benchmarks, steady-state consumer throughput for the
# JSON/CSV/binary emitter sets, the spec compiler at 16 200 and 10^6
# trials, the consumer allocation budget, and the kill-and-resume
# byte-identity test.
bench-sweep:
	$(GO) test -run 'TestAllocBudgetSweepConsumer|TestConsumerMemoryFlatInTrialCount|TestBinaryKillAndResume' -v ./internal/harness
	$(GO) test -bench 'EmitTrial|SweepConsumer|SpecCompile' -benchtime 3s -benchmem -run='^$$' ./internal/harness

# A tiny end-to-end sweep through the parallel harness: every registered
# algorithm on two graph families, JSON document discarded after parsing.
sweep-smoke:
	$(GO) run ./cmd/ule-experiments -sweep builtin:smoke -workers 4 -json - -progress=false > /dev/null

# Serving-layer smoke (docs/SERVICE.md): the uled binary itself — the
# test binary re-executed as uled — boots on an ephemeral port, answers an
# election over TCP with the in-process service's bytes, and on SIGTERM
# drains and exits 0. Everything else about the service (byte identity to
# the batch path, the async job lifecycle, the 400s, goroutine flatness)
# is internal/serve's in-process suite. Wired into CI.
serve-smoke:
	$(GO) test -count=1 -run TestServeAndDrain -v ./cmd/uled

# Distributed-sweep chaos gate (docs/DISTRIBUTED.md): internal/fleet's
# TestFleetKillChaos runs a 96-trial sweep through lease-serving worker
# processes (the test binary re-executed as a worker) at 1, 2 and 4
# workers, and in 24 units on 2 workers, with two scheduled worker kills
# each, and fails unless every killed unit is retried and every merged
# binary is byte-identical to a single-process run. It runs inside the
# full suite too; this target gives CI a label for it. Wired into CI.
fleet-chaos:
	$(GO) test -count=1 -run '^TestFleetKillChaos$$' -v ./internal/fleet

# Fresh SHA-256 sums of the outputs TestOutputPins holds (two `ule`
# tables, uled election bodies and a /v1/sweeps stream, `ule-experiments
# -quick`, a builtin:smoke sweep's JSON and binary documents), printed as
# the testdata/pins.json a change that means to move them would write.
pins:
	@ULE_PINS=print $(GO) test -count=1 -run '^TestOutputPins$$' -v ./cmd/ule ./cmd/ule-experiments | \
		grep '^  "' | sort | sed '$$!s/$$/,/; 1s/^/{\n/; $$s/$$/\n}/'

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -w needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Docs hygiene: every file under docs/ must be linked from README.md, the
# runnable godoc examples must pass (gofmt/vet cover them via fmt-check
# and vet, which gate this target), docs/PAPER_MAP.md's Table 1 must
# restate the registry's core.Spec row for row, and docs/ARCHITECTURE.md's
# table of the node's interface must list sim.Context's methods.
docs-check: fmt-check vet
	@missing=0; for f in docs/*.md; do \
		if ! grep -q "$$f" README.md; then \
			echo "README.md does not link $$f"; missing=1; \
		fi; \
	done; [ $$missing -eq 0 ]
	$(GO) test -run Example ./...
	$(GO) test -run '^TestPaperMapMatchesRegistry$$' ./internal/core
	$(GO) test -run '^TestContextIsTheModel$$' ./internal/sim

# Go line counts per package directory, non-test and test apart, then the
# totals: git ls-files '*.go', split on _test.go.
loc:
	@git ls-files '*.go' | while read -r f; do echo "$$f $$(wc -l < "$$f")"; done | \
	awk 'BEGIN { printf "%-28s %8s %8s\n", "package", "non-test", "test" } \
		{ d = $$1; sub(/\/[^\/]*$$/, "", d); if (d == $$1) d = "."; t = ($$1 ~ /_test\.go$$/); \
		  src[d] += (1 - t) * $$2; tst[d] += t * $$2; S += (1 - t) * $$2; T += t * $$2 } \
		END { for (d in src) printf "%-28s %8d %8d\n", d, src[d], tst[d] | "sort"; close("sort"); \
		  printf "%-28s %8d %8d\n", "total", S, T }'

# Everything the CI pipeline runs, in the same order.
ci: fmt-check vet build test-shuffle race test-sweep check-matrix test-budgets mutants fuzz-smoke bench-smoke sweep-smoke serve-smoke fleet-chaos race-matrix docs-check
