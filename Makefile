GO ?= go

# BENCH is the committed perf-trajectory baseline: the highest-numbered
# BENCH_*.json in the repo, so a PR that commits a new baseline is
# automatically diffed against it (no stale pin to hand-bump).
BENCH ?= $(shell ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)
BENCH_N ?= 2000
BENCH_TOLERANCE ?= 1.0
SOAK ?= 60s

.PHONY: build test race vet lint analyze crash stress soak bench bench-diff all

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race -timeout 120s ./...

vet:
	$(GO) vet ./...

# lint fails on any Go file gofmt would rewrite (build and bench
# output under dot-directories aside), then runs the REACH-specific
# analyzers (reachvet) over the module. Both exit nonzero on findings.
# The shipped rule files are checked by analyze.
lint:
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/reachvet

# analyze runs the rule-set analysis (the per-rule coupling,
# composite, vars and names checks, then termination, confluence and
# reachability over the triggering graph) over every shipped rule
# file, failing on unsuppressed errors, and confirms the
# justified-suppression fixture stays accepted.
analyze:
	$(GO) run ./cmd/rulec -analyze examples/*/rules/*.rules
	$(GO) run ./cmd/rulec -analyze cmd/rulec/testdata/cycle_suppressed.rules

# bench regenerates the perf-trajectory baseline in place. bench-diff
# re-measures into a scratch file and compares it against the committed
# baseline, failing on ns/op regressions beyond BENCH_TOLERANCE (the CI
# default is generous — shared runners are noisy; tighten locally).
bench:
	$(GO) run ./cmd/reachbench -n $(BENCH_N) -json $(BENCH) > /dev/null

bench-diff:
	mkdir -p $(CURDIR)/.bench
	$(GO) run ./cmd/reachbench -n $(BENCH_N) -json $(CURDIR)/.bench/bench-current.json > /dev/null
	$(GO) run ./cmd/reachbench -diff -tolerance $(BENCH_TOLERANCE) $(BENCH) $(CURDIR)/.bench/bench-current.json

# crash runs the crash-consistency matrix (every workload — including
# the fuzzy-checkpoint and rotation scripts — crashed at every
# write/fsync boundary, clean and WAL-torn, with second crashes during
# recovery), the checkpoint-site fault-injection sweep, and a short
# fuzz of the WAL record decoder.
crash:
	$(GO) test -timeout 120s ./internal/fault/... -run 'TestCrashMatrix|TestHarnessCatchesLostCommit' -count=1
	$(GO) test -timeout 120s ./internal/storage -run 'TestCheckpointFailureSites|TestCheckpointRepeatedFailure' -count=1
	$(GO) test -timeout 120s ./internal/storage -run FuzzReadRecord -fuzz FuzzReadRecord -fuzztime 10s

# stress hammers the supervised rule executor under the race detector:
# mixed panicking/deadlocking/failing rules, WAL fault injection armed,
# plus the Drain/WaitDetached race, retry backoff under a virtual
# clock and crash-consistency invariants, in short mode so the whole
# target stays CI-sized. The lock leg checks the nested waits-for
# rules, the intent leg concurrent read-modify-write rule firings, and
# the temporal leg loops the detached-retry wedge's old reproducers.
# The intent leg also covers lazy binding (a false condition locks
# nothing it never read) and update intent for object event
# parameters; the eca leg the bounded WaitDetachedContext, the
# governor freeing a raiser parked on a full queue, and a kept
# trigger instance staying intact.
# The storage leg asserts the WAL-growth bound: segment chains stay
# short under sustained traffic with checkpoints.
stress:
	$(GO) test -race -short -timeout 120s -count=1 \
		-run 'TestExecutorStress|TestDrainWaitDetachedRace|TestDetachedRuleFaultInjection|TestDetachedDeadlockRetry|TestRetryBackoffIgnoresVirtualClock|TestWaitDetachedContextNamesStuckRule|TestParkedRaiserCannotDeadlock|TestKeptTriggerStaysValid' \
		./internal/eca
	$(GO) test -race -timeout 120s -count=1 \
		-run 'TestNestedCrossDeadlockDetected|TestNestedUpgradeDeadlockDetected|TestCycleThroughHoldersParent|TestSiblingWaitsNoFalseDeadlock|TestOvertakingGrantJoinsGraph|TestParallelSiblingsNoFalseDeadlock' \
		./internal/txn
	$(GO) test -race -timeout 120s -count=1 \
		-run 'TestImmediateReadModifyWriteNoVictims|TestDetachedReadModifyWriteNoRetries|TestObjectParamBoundForUpdate|TestFalseConditionLeavesRootUnlocked|TestFalseConditionsDoNotBlock|TestMissingRootInActionOnly|TestFalseConditionAllocs' \
		./internal/rules
	$(GO) test -race -timeout 120s -count=20 \
		-run 'TestTemporalRuleViaPublicAPI|TestTemporalRuleThroughDSL' \
		. ./internal/rules
	$(GO) test -race -timeout 120s -count=1 \
		-run 'TestWALGrowthBounded|TestStoreCheckpointWithActiveTxn|TestBackgroundCheckpointer' \
		./internal/storage

# soak runs the fault-armed overload soak under the race detector:
# writers hammer a slow detached rule through the governor's full
# degradation ladder while chaos waves break the checkpointer and
# escalate synthetic load, asserting forward progress, bounded memory,
# recovery to healthy, and a clean graceful shutdown. SOAK sets the
# duration (default 60s); CI runs the 5s short-mode variant.
soak:
	REACH_SOAK=$(SOAK) $(GO) test -race -timeout 600s -count=1 \
		-run TestOverloadSoak -v ./internal/core
