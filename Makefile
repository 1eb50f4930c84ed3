GO ?= go

.PHONY: test test-race chaos-race crash-matrix migrate-matrix fuzz-short vet lint lint-determinism sanitize bench-smoke bench bench-ab assembly-gate golden-trace obs-golden ci

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The bank chaos matrix under the race detector: fault injection + retries +
# dedup exercise every cross-node locking path, which is exactly where a
# data race would hide.
chaos-race:
	$(GO) test -race ./internal/chaos -run TestBankChaosMatrix

# Durability proofs under the race detector: the crash-point sweep (kill the
# disk at every WAL/checkpoint write boundary, replay, diff against the
# model), the replay-convergence property test, and the process-crash chaos
# cells (crash-restart-disk, crash-lose-disk) for bank and TPC-C.
crash-matrix:
	$(GO) test -race ./internal/crashtest
	$(GO) test -race ./internal/chaos -run 'DurableChaosMatrix'

# Live-migration proofs under the race detector: the journal boundary
# sweep (crash the management node at every journal-write durability
# boundary of a migration, in Lost and Applied variants; the range must end
# on exactly one owner), plus the kill-source / kill-target /
# kill-manager-at-cutover chaos cells for bank and TPC-C under histcheck.
migrate-matrix:
	$(GO) test -race ./internal/crashtest -run TestMigrationJournalBoundarySweep
	$(GO) test -race ./internal/chaos -run 'MigrationChaos'

# Short continuous-fuzzing session for the wire codecs; the regular test
# run only replays the corpus.
fuzz-short:
	$(GO) test ./internal/wire -run=Fuzz -fuzz=FuzzRoundTrip -fuzztime=10s

vet:
	$(GO) vet ./...

# tellvet: the determinism-and-concurrency analyzer suite (see DESIGN.md
# §6 and §9). Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/tellvet ./...

# The analyzer suite must itself be deterministic: two runs over identical
# inputs produce byte-identical summaries (package counts, per-analyzer
# finding/suppression counts). Any map-order or load-order nondeterminism
# in the analyzers shows up here as a diff.
lint-determinism:
	$(GO) run ./cmd/tellvet -summary ./... > /tmp/tellvet-sum-a.txt
	$(GO) run ./cmd/tellvet -summary ./... > /tmp/tellvet-sum-b.txt
	cmp /tmp/tellvet-sum-a.txt /tmp/tellvet-sum-b.txt
	rm -f /tmp/tellvet-sum-a.txt /tmp/tellvet-sum-b.txt

# Runtime sanitizer smoke: the telldebug build tag swaps every engine mutex
# for the instrumented internal/sanitize variant (acquisition-order graph,
# inversion detection, long-hold watchdog), and each suite's TestMain fails
# the package on leaked goroutines or recorded inversions. The bank chaos
# cell is the densest cross-node locking path, so it runs under the race
# detector with the sanitizers armed.
sanitize:
	$(GO) test -race -tags telldebug ./internal/sanitize
	$(GO) test -race -tags telldebug ./internal/chaos -run TestBankChaosMatrix

# Allocation guards for the store request path: the AllocsPerRun tests pin
# pooled encode/decode at zero steady-state allocations, a cold sized encode
# at one, a B+tree node decode at four and a full dedup window's commit at
# one (the cloned response), a fuzzy checkpoint at O(chunks) not O(cells), the
# simulator's steady state (sleep, resource, queue, satisfied timeout, pooled
# spawn) at zero, a future at one, a SimNet round trip at three, a connection
# lookup and a retried call at zero, a batched B+tree insert into one leaf at
# one store write, a root split racing another writer's root growth at no
# error, and every benchmark runs for one iteration so a broken hot path
# fails fast in CI.
bench-smoke:
	$(GO) test ./internal/wire -run 'ZeroAlloc|OneAlloc|PutBufRejects' -bench . -benchtime 1x
	$(GO) test ./internal/btree -run 'DecodeNodeAllocs|InsertManyWritesLeafOnce|RootGrowthRaceSweep' -bench DecodeNode -benchtime 1x
	$(GO) test ./internal/resil -run 'WindowCommitAllocs|CallAllocs' -bench WindowCommitFull -benchtime 1x
	$(GO) test ./internal/store -run 'CheckpointAllocs' -bench Checkpoint -benchtime 1x
	$(GO) test ./internal/sim -run 'SteadyStateAllocs' -bench . -benchtime 1x
	$(GO) test ./internal/transport -run 'SimNetRoundTripAllocs|ConnSetHitAllocs' -bench SimNetRoundTrip -benchtime 1x

# The repository benchmark (BENCHMARK.json): every workload × 3 seeds, one
# process per run, medians into .bench_build/suite.json. Compare two suite
# files with `bash bench/run.sh diff A.json B.json`.
bench:
	bash bench/run.sh suite --seed 42 --reps 3 --out .bench_build/suite.json

# A host-clock claim, measured the way bench/README.md asks: PAIRS interleaved
# runs of workload W (W=all: every workload) on revision BASE and on the
# working tree, same seed within a pair, alternating which side goes first;
# prints medians, quartiles, spread and wins per end-to-end metric and fails
# if a virtual-clock metric differs or a host-clock metric is worse than its
# BENCHMARK.json bound or unresolved (either side's spread above the bound,
# unless every change run beats every base run). A virtual-clock claim names
# its metric: CLAIM=tpmc lets virtual metrics move and judges every metric
# that way.
#	make bench-ab BASE=HEAD~1 [W=tpcc-std|all] [PAIRS=10] [CLAIM=tpmc]
W ?= tpcc-std
PAIRS ?= 10
CLAIM ?=
bench-ab:
	$(GO) run scripts/bench_ab.go -base $(BASE) -workload $(W) -pairs $(PAIRS) -claim "$(CLAIM)"

# One way to build a cluster: a full PN+SN+CM deployment is assembled only by
# internal/deploy (plus the per-process daemons in cmd/, commitmgr's own unit
# tests, the TCP integration test and the benchmark's frozen recipe).
assembly-gate:
	@! grep -rn --include='*.go' --exclude-dir=.bench_build -e 'commitmgr\.New(' -e 'core\.New(' . | grep -v \
		-e '^./internal/deploy/' -e '^./internal/commitmgr/.*_test\.go' -e '^./cmd/' \
		-e '^./tcp_integration_test\.go' -e '^./bench/'

# Golden-trace determinism: the same seed must produce byte-identical
# trace files across two independent small TPC-C runs.
golden-trace:
	TELL_SEED=7 $(GO) run ./cmd/tellbench -wh 2 -scale 0.02 -warmup 20 -measure 150 -trace /tmp/tell-trace-a.json
	TELL_SEED=7 $(GO) run ./cmd/tellbench -wh 2 -scale 0.02 -warmup 20 -measure 150 -trace /tmp/tell-trace-b.json
	cmp /tmp/tell-trace-a.json /tmp/tell-trace-b.json
	rm -f /tmp/tell-trace-a.json /tmp/tell-trace-b.json

# Telemetry determinism: two same-seed runs must render byte-identical
# telemetry (series windows, heat rows, breaches, flight captures) and the
# Prometheus exposition must match its golden (see internal/obs tests).
obs-golden:
	$(GO) test ./internal/exp -run TestObsGoldenDeterminism -count=1
	$(GO) test ./internal/obs -run 'TestPromGolden|TestDeterministicDump' -count=1

# Everything CI runs, in order (race on the fast packages and the embedded
# real-environment stress test only). .github/workflows/ci.yml runs this
# target, so this is the one list of CI steps.
ci:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -C bench .
	$(GO) test -race ./internal/wire ./internal/env ./internal/sim ./internal/transport \
		./internal/metrics ./internal/btree ./internal/lint ./internal/deploy
	$(GO) test -race -run TestConcurrentTransactStress .
	$(MAKE) assembly-gate
	$(MAKE) chaos-race
	$(MAKE) crash-matrix
	$(MAKE) migrate-matrix
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) lint-determinism
	$(MAKE) sanitize
	$(GO) test ./internal/wire -run=FuzzRoundTrip
	$(MAKE) bench-smoke
	$(MAKE) golden-trace
	$(MAKE) obs-golden
