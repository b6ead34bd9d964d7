GO ?= go

.PHONY: check fmt vet lint build test race bench-smoke fuzz-smoke bench benchdiff benchdiff-test cover serve-smoke cluster-smoke golden

check: fmt vet lint build race bench-smoke benchdiff benchdiff-test cover fuzz-smoke cluster-smoke

# Fails when any tracked Go file is not gofmt-clean, listing them.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt drift:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-specific invariants: float equality, nondeterminism in the
# engine packages, blocking under locks, dropped hot-path write errors,
# sync.Pool ownership, goroutine stop signals, atomic/plain access
# mixing, and mutex acquisition order. Fails on findings AND on
# malformed or unused //dvfslint:allow directives, so stale exceptions
# cannot accumulate; -count prints the per-analyzer tally.
lint:
	$(GO) run ./cmd/dvfslint -count ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: catches bit-rot without timing anything.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Short fuzz sessions for the dynamic structures, the binary trace
# codec and the replica-side frame parser; cheap enough to run in
# every `make check`.
fuzz-smoke:
	$(GO) test -fuzz=FuzzInsertDelete -fuzztime=5s ./internal/rangetree
	$(GO) test -fuzz=FuzzDynamicCost -fuzztime=5s ./internal/dynsched
	$(GO) test -fuzz=FuzzBinaryRoundTrip -fuzztime=5s ./internal/obs
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/cluster

# Benchmark the hot packages and write the machine-readable baseline
# for this PR (diff against the previous PR's with `make benchdiff`).
bench:
	scripts/bench.sh BENCH_PR10.json

# Compare the two newest BENCH_PR<N>.json baselines (numeric order);
# fails on >20% ns/op regressions in benchmarks both files share and
# reports benchmarks new in this PR.
benchdiff:
	scripts/benchdiff.sh

# Shell test for the benchdiff gate itself: missing/empty baselines
# must fail, regressions must fail, new benchmarks must be reported.
benchdiff-test:
	scripts/benchdiff_test.sh

# Race-enabled per-package coverage floors for the engine-critical
# packages.
cover:
	scripts/cover.sh

# Boot dvfschedd on an ephemeral port, hit /healthz and /v1/plan once,
# and shut it down cleanly.
serve-smoke:
	scripts/serve_smoke.sh

# Membership-churn smoke: boot a 3-node in-process cluster and, while
# client traffic is in flight, join a 4th node (asserting the rebalance
# matches the ring diff), migrate a session to a pinned target, drain a
# node out of the ring, then kill a member — verifying zero
# accepted-task loss plus byte-identical oracle parity on every
# surviving trace. Well under 30s.
cluster-smoke:
	$(GO) run ./cmd/dvfsload -mode cluster -clients 6 -session-tasks 30 -batch 6

# Regenerate the report package's golden files.
golden:
	$(GO) test ./internal/report -update
