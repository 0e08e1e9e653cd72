GO ?= go

.PHONY: check vet lint build test test-bench ledger-smoke race race-par race-te race-chaos race-sched race-ctl race-wal race-fleet fuzz-smoke bench ledger profile-dcn profile-te profile-sched profile-recover experiments size clean

# The gate every change must pass: vet, build everything, race-test the
# parallel engine under contention, race-test the TE loop (its Loop is
# shared between the daemon's epoch ticker and status serving, and a
# fleet applier's stages reprogram the DCN fabric while the manager reads
# the pod's circuits under the fabric's lock), race-test the
# chaos subsystem (its injector threads live reconciler workers through
# scenario replays), race-test the online scheduler (its Scheduler is
# shared between the runner tick loop, fleet-event feedback, and RPC
# status/submit), race-test the control protocol three times over (one
# pipelined client is shared by N callers, one server connection runs
# decode, a worker pool and encode concurrently, and both ends flush
# through one batch writer whose shutdown follows the connection's
# lifetime) and both daemons' lifecycle once (shutdown joins every loop
# before the store closes; lwfleetd boots its TE loop from a recovered
# store), race-test the
# durable-state subsystem (its group-commit writer batches concurrent
# appenders and the store is shared by three journal sources plus the
# checkpointer), race-test fleet intake against the store three times over
# (intents journal concurrently outside Manager.mu, ordered only by their
# scope reservations, beside a checkpoint loop), fuzz every Fuzz* target
# against its reference bodies for ten seconds each, test the nested bench/
# module, run every ledger workload for a second, then race-test everything.
check: vet build race-par race-te race-chaos race-sched race-ctl race-wal race-fleet fuzz-smoke test-bench ledger-smoke race

race-par:
	$(GO) test -race ./internal/par/...

race-te:
	$(GO) test -race ./internal/te/...

race-chaos:
	$(GO) test -race ./internal/chaos/...

race-sched:
	$(GO) test -race ./internal/sched/... ./internal/superpod/...

race-ctl:
	$(GO) test -race -count=3 ./internal/ctlrpc/...
	$(GO) test -race ./internal/daemon/... ./cmd/lwfd/... ./cmd/lwfleetd/...

race-wal:
	$(GO) test -race ./internal/wal/...

race-fleet:
	$(GO) test -race -count=3 ./internal/fleet/... ./internal/wal/...

# Ten seconds of coverage-guided inputs through every Fuzz* target in the
# tree (`go test -list` finds them, so a new one needs no line here). Each
# is a differential against pre-optimisation reference bodies kept in its
# package's reference_test.go: the FEC transfer chain (bit for bit, and the
# concatenated curve stays monotone — slice admission compares against a
# threshold derived from it), sched.Pod placement (every cube's state
# and owner after each operation), the WAL's binary record codec (the
# JSON codec it replaced) and segment scanner (a slow frame reader), and
# the flow simulator's path-class max-min (the per-flow engine, every
# flow's rate and remaining bytes after each event). A failing input lands
# in the package's testdata/fuzz/ — commit it with the fix. Minimizing a
# new-coverage input runs no comparisons, so it is held to 3 s of the 10
# (Go's default, 60 s, left a run minimizing for most of its budget).
fuzz-smoke:
	@set -e; $(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { t[++n] = $$1 } /^ok/ { for (i = 1; i <= n; i++) print $$2, t[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "fuzz-smoke: $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 10s -fuzzminimizetime 3s $$pkg; \
	done

# gofmt -l prints unformatted files; any hit fails the target with a
# readable diagnostic. vet folds in the project analyzer suite (lint):
# go vet catches generic Go mistakes, lwlint enforces the lightwave
# contracts (determinism, virtual time, lock order, hot-path allocation,
# durability) documented in DESIGN.md §15.
vet: lint
	$(GO) vet ./...
	@fmtout=$$(gofmt -l cmd internal); if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi

# The project-invariant analyzer suite. Exits non-zero on any finding;
# findings are fixed or suppressed in-line with //lwlint:ignore plus a
# written reason. `go run ./cmd/lwlint -json ./...` gives the same
# results machine-readably.
lint:
	$(GO) run ./cmd/lwlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is a nested module, so `go test ./...` from the root never reaches it.
test-bench:
	$(GO) test -C bench ./...

# The workloads BENCHMARK.json names, read from its "workloads" array.
LEDGER_WORKLOADS = $(shell awk '/"workloads"/ { w = 1 } w && /^  \]/ { w = 0 } w && /"name"/ { gsub(/[",]/, "", $$2); print $$2 }' BENCHMARK.json)

# One second of every ledger workload, each run on its own: a run that
# exits non-zero, or whose result line (the last on stdout) is not
# "correct":true with "failed":0, fails the target naming the workload and
# printing the run's output.
ledger-smoke:
	@set -e; [ -n "$(LEDGER_WORKLOADS)" ] || { echo "ledger-smoke: no workloads in BENCHMARK.json"; exit 1; }; \
	for w in $(LEDGER_WORKLOADS); do \
		echo "ledger-smoke: $$w"; \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 1 2>&1) || { printf '%s\n' "$$out"; echo "ledger-smoke: $$w: run failed"; exit 1; }; \
		case "$$(printf '%s\n' "$$out" | tail -n 1)" in \
		*'"correct":true'*'"failed":0,'*) ;; \
		*) printf '%s\n' "$$out"; echo "ledger-smoke: $$w: not correct, or failed operations"; exit 1;; \
		esac; \
	done

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# The perf ledger (bench/README.md): builds the bench module and runs
# every workload end to end; `bash bench/run.sh --workload <w> --seed <n>
# --seconds <s> --trace <0|1>` picks one and adds the per-layer breakdown.
# BENCHMARK.json names the workloads and the gated metrics.
ledger:
	bash bench/run.sh

# CPU profile of the three figures the sim_flow ledger workload times: dcn
# (the §4.2 flow-level comparison), te and chaos (the epoch flow-replay);
# inspect with `$(GO) tool pprof dcn.test dcn.cpuprof` (live daemons expose
# the same data on <metrics-addr>/debug/pprof/profile).
profile-dcn:
	$(GO) test -run '^$$' -bench 'Figures/(dcn|te|chaos)$$' -benchtime 5x -cpuprofile dcn.cpuprof -o dcn.test .

# CPU profile of te.Evaluate at 16 blocks × 30 uplinks, the sim_flow te
# configuration at ROADMAP item 6's scale (internal/te
# BenchmarkEvaluateScale); inspect with `$(GO) tool pprof te.test
# te.cpuprof`.
profile-te:
	$(GO) test -run '^$$' -bench '^BenchmarkEvaluateScale/16x30$$' -benchtime 2x -cpuprofile te.cpuprof -o te.test ./internal/te

# CPU profile of the live superpod replay at the sim_sched ledger stage's
# configuration (internal/superpod BenchmarkEvaluate): compose admission
# (budget walk and pre-FEC BER) is ≈ 60 % of it, core.New ≈ 17 % and
# the OCS transaction ≈ 7 %; inspect with `$(GO) tool pprof sched.test
# sched.cpuprof`.
profile-sched:
	$(GO) test -run '^$$' -bench '^BenchmarkEvaluate$$' -benchtime 40x -cpuprofile sched.cpuprof -o sched.test ./internal/superpod

# CPU profiles of the two stages of the recover_cold ledger workload's
# boot that do work of their own: OpenStore scanning and folding a
# log-only history (internal/wal BenchmarkStoreOpen) and building one
# pod's fabric (internal/core BenchmarkNew, 48 switches selecting their
# mirrors); inspect with `$(GO) tool pprof wal.test recover-wal.cpuprof`
# and `$(GO) tool pprof core.test recover-core.cpuprof`.
profile-recover:
	$(GO) test -run '^$$' -bench '^BenchmarkStoreOpen$$' -benchtime 200x -cpuprofile recover-wal.cpuprof -o wal.test ./internal/wal
	$(GO) test -run '^$$' -bench '^BenchmarkNew$$' -benchtime 1000x -cpuprofile recover-core.cpuprof -o core.test ./internal/core

experiments:
	$(GO) run ./cmd/experiments

# The size ledger every CHANGES entry reports, over tracked files (`git
# add` new ones first): repo-wide Go, non-test Go outside bench/, the
# lines of DESIGN.md + EXPERIMENTS.md, and the loan ledger — per lwlint
# analyzer, the //lwlint:ignore suppressions naming it in non-test Go
# (the analyzers' own testdata corpora excluded).
size:
	@echo "repo-wide Go lines:             $$(git ls-files '*.go' | xargs cat | wc -l)"
	@echo "non-test Go lines outside bench: $$(git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | xargs cat | wc -l)"
	@echo "DESIGN.md + EXPERIMENTS.md lines: $$(cat DESIGN.md EXPERIMENTS.md | wc -l)"
	@named=$$(git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^internal/lint/testdata/' | \
		xargs grep -h '^[[:space:]]*//lwlint:ignore ' | awk '{ print $$2 }' | tr ',' '\n'); \
	for a in $$($(GO) run ./cmd/lwlint -list | awk '{ print $$1 }'); do \
		printf '%-31s %s\n' "lwlint:ignore $$a:" "$$(printf '%s\n' "$$named" | grep -cx "$$a")"; \
	done

clean:
	$(GO) clean ./...
