# Build, test and lint entry points. `make check` is the gate a PR must
# pass: tier-1 build+test, lint (gofmt, go vet, and tmilint's static
# annotation verification of the whole workload catalog), race-harness
# (the sweep executor, the tmid service and the machine's cross-goroutine
# token handoff are where real host-level concurrency lives, so their
# tests run under the race detector), mc (tmimc's exhaustive
# model-checking of the litmus kernels, plus the negative fixture that
# must diverge), suggest (tmilint's static repair solver run on the broken
# fixtures, its repair sets applied by tmimc and certified SC-equivalent
# and race-free), fuzz (the frame reader, the hello check and the
# /v1/import migration-stream reader, the doors samples enter tmid by,
# plus the four report readers, each fuzzed for 10 s), benchgate (every
# wall-clock-free paper table must stay byte-identical to its committed
# golden), backends (cross-backend repair
# parity plus the two-socket policy-table sweep), serve-smoke (a
# race-built tmid server replayed at by concurrent tmiload clients, advice
# streams asserted byte-identical to the offline detector) and
# cluster-smoke (a race-built in-process cluster — tmirouter over
# migratable tmid nodes — with one node killed and one added mid-run under
# a 16-client fleet: zero lost sessions, advice byte-identical to the
# offline replay). `make bench` persists one BENCH_<date>[.N].json perf
# point per invocation so the trajectory across PRs stays comparable;
# `make microbench` folds access-path microbenchmark stats into the same
# point.

GO ?= go

.PHONY: all build test race race-harness bench microbench benchgate backends serve-smoke cluster-smoke allocgate fuzz vet vet-src lint tmilint mc suggest fmt ci check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sweep executor fans simulation cells across GOMAXPROCS workers, the
# tmid service runs sharded detector goroutines under concurrent HTTP
# streams, and the machine's threads resume each other's coroutines across
# goroutines; these are the subsystems with host-level concurrency, so they
# get a dedicated race-detector lane in the check gate.
race-harness:
	$(GO) test -race ./internal/harness/... ./internal/service/... ./internal/cluster/... ./internal/sim/machine/...

# bench regenerates the full evaluation with the parallel sweep executor
# and appends a benchmark-trajectory point (wall-clock, cell counts,
# speedup, simulated metrics per experiment) to BENCH_<date>.json.
bench:
	$(GO) run ./cmd/tmibench -experiment all -runs 3 -bench-json auto

# microbench runs the access-path microbenchmarks (single-access latency,
# HITM transfer, step throughput, bare token handoff, PTSB commit scan) and
# folds micro.* ns/op and allocs/op stats into the day's newest
# BENCH_<date>[.N].json point.
microbench:
	$(GO) test -run '^$$' -bench 'AccessLatencyL1|AccessHITMPath|StepThroughput|Handoff|Commit.*Page' -benchmem \
		./internal/sim/machine ./internal/ptsb | $(GO) run ./cmd/tmimicro

# benchgate is the determinism gate: the rendered output of every paper
# experiment that reports no host wall-clock time must be byte-identical to
# its golden in testdata/golden/. Any change to scheduling, coherence,
# sampling or repair ordering shows up here before it can silently shift the
# paper's numbers. ingest and cluster time the host and are left out.
BENCHGATE_EXPERIMENTS = table1 table2 fig3 fig4 fig5 fig7 fig8 fig9 table3 \
	fig10 fig11 fig12 ablation-everywhere leveldb-detect energy commit-cost \
	prediction static-layout repair-backends

benchgate:
	@dir=$$(mktemp -d); rc=0; \
	$(GO) build -o $$dir/tmibench ./cmd/tmibench || { rm -rf $$dir; exit 1; }; \
	for e in $(BENCHGATE_EXPERIMENTS); do \
		if ! $$dir/tmibench -experiment $$e -runs 1 > $$dir/$$e.txt; then \
			echo "benchgate: $$e failed to run"; rc=1; \
		elif ! diff -u testdata/golden/$$e.txt $$dir/$$e.txt; then \
			echo "benchgate: $$e output diverged from testdata/golden/$$e.txt"; rc=1; \
		fi; \
	done; \
	rm -rf $$dir; \
	if [ $$rc -eq 0 ]; then echo "benchgate: $(words $(BENCHGATE_EXPERIMENTS)) experiments match their goldens"; fi; \
	exit $$rc

# backends is the repair-strategy gate: the cross-backend parity test (every
# backend must engage exactly when t2p engages and collapse flagged-line
# HITM at least as far, within 2x) plus one reduced-grid run of the
# repair-backends sweep on the two-socket NUMA model, so the workload x
# {t2p, pad, map, tmebox} policy table keeps rendering end to end.
backends:
	$(GO) test -run 'TestBackend' -count 1 ./tmi
	$(GO) run ./cmd/tmibench -experiment repair-backends -runs 1 > /dev/null
	@echo "backends: parity test and sweep passed"

# serve-smoke boots a race-built tmid on an ephemeral port and replays a
# simulator-generated HITM trace at it twice with tmiload, from 8 and then
# 2 concurrent clients, asserting every advice stream is byte-identical to
# the offline detector and no session was dropped. Each run also writes its
# verified offline advice bytes, which are then diffed against each other
# so both fleets provably compare against the same truth. tmiload's exit
# code is the verdict; the tmid log is printed on failure.
serve-smoke:
	@dir=$$(mktemp -d); \
	$(GO) build -race -o $$dir/tmid ./cmd/tmid || { rm -rf $$dir; exit 1; }; \
	$(GO) build -race -o $$dir/tmiload ./cmd/tmiload || { rm -rf $$dir; exit 1; }; \
	$$dir/tmid -addr 127.0.0.1:0 -addr-file $$dir/addr > $$dir/tmid.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	if [ ! -s $$dir/addr ]; then echo "serve-smoke: tmid never bound"; cat $$dir/tmid.log; kill $$pid 2>/dev/null; rm -rf $$dir; exit 1; fi; \
	$$dir/tmiload -addr "$$(cat $$dir/addr)" -clients 8 -advice-out $$dir/advice.8; rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		$$dir/tmiload -addr "$$(cat $$dir/addr)" -clients 2 -advice-out $$dir/advice.2; rc=$$?; \
		if [ $$rc -eq 0 ] && ! cmp -s $$dir/advice.8 $$dir/advice.2; then \
			echo "serve-smoke: offline advice bytes diverged between runs"; rc=1; \
		fi; \
	fi; \
	kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then echo "serve-smoke: FAILED (tmid log follows)"; cat $$dir/tmid.log; fi; \
	rm -rf $$dir; exit $$rc

# cluster-smoke is the chaos gate for the routing tier: a race-built
# tmiload boots an in-process cluster (tmirouter + 2 migratable tmid nodes,
# every hop a real HTTP connection), streams from 16 concurrent clients,
# and mid-run a fresh node is added through the router admin API and node 0
# is hard-killed (its sessions lost). The run must end with zero lost
# sessions and every client's advice byte-identical to the offline
# service.Replay truth — rebalancing and node death may cost retries,
# never correctness.
cluster-smoke:
	@dir=$$(mktemp -d); \
	$(GO) build -race -o $$dir/tmiload ./cmd/tmiload || { rm -rf $$dir; exit 1; }; \
	$$dir/tmiload -cluster 2 -clients 16 -repeat 4 -add-after 60ms -kill-after 120ms; rc=$$?; \
	rm -rf $$dir; exit $$rc

# allocgate runs the steady-state allocation guards without the race
# detector (AllocsPerRun is meaningless under -race, so the race-harness
# lane skips them): the binary wire codec's reader/writer and the service's
# whole decode-convert-recycle ingest path must stay at 0 allocs/op.
allocgate:
	$(GO) test -run 'SteadyStateDoesNotAllocate' -count 1 ./internal/toolio ./internal/service

# fuzz runs each input-boundary fuzz target for 10 s: the binary frame
# reader (every sample and tick tmid ingests), the hello decode + check,
# the report-document readers (checker, suggest, vet and trajectory JSON
# read back from disk), and the migration-stream reader behind
# /v1/import. A crasher lands in
# the package's testdata/fuzz/ and is committed there as a regression
# seed, so plain `go test` replays it from then on.
fuzz:
	@for f in FuzzBinReader FuzzHello FuzzReadReports; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s -parallel 2 ./internal/toolio || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzMigrationStream$$' -fuzztime 10s -parallel 2 ./internal/service

vet:
	$(GO) vet ./...

# vet-src runs tmivet — the source-level false-sharing analyzer — over the
# repo itself plus the seeded fixture corpus. Repo packages must come back
# clean (real findings get padded, like internal/service.ReplayResult);
# the fixtures' intentional bugs are waived by ID in tmivet.waivers so the
# waiver plumbing stays exercised. Confirmation is on: any new finding is
# graded against the simulator's dynamic detector before it fails the gate.
vet-src:
	$(GO) run ./cmd/tmivet -waive tmivet.waivers ./... testdata/srcvet/...

# fmt fails if any file needs reformatting (and prints which).
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# tmilint verifies the CCC annotation contract for every catalog workload
# and scores the static false-sharing predictor against a dynamic run.
tmilint:
	$(GO) run ./cmd/tmilint

# mc machine-checks CCC soundness: the clean litmus kernels must be
# SC-equivalent and race-free under exhaustive DPOR, and the deliberately
# under-annotated fixture must produce an SC divergence.
mc:
	$(GO) run ./cmd/tmimc
	$(GO) run ./cmd/tmimc -workload litmus-brokenfence -expect-divergence

# suggest closes the repair loop on the broken fixtures: tmilint solves for
# a minimal static repair set, tmimc applies it and certifies the repaired
# kernel SC-equivalent and race-free. brokenfence explores to completion;
# the 4-thread relaxed-IRIW baseline completes under 9000 runs while its
# PTSB side is capped, which -allow-incomplete waives via the subset
# argument (a capped PTSB run checked against a complete SC set cannot
# certify a non-SC behavior).
suggest:
	@dir=$$(mktemp -d); rc=1; \
	$(GO) build -o $$dir/tmilint ./cmd/tmilint && \
	$(GO) build -o $$dir/tmimc ./cmd/tmimc && \
	$$dir/tmilint -suggest -predict none -json -workloads litmus-brokenfence > $$dir/bf.json && \
	$$dir/tmimc -apply $$dir/bf.json && \
	$$dir/tmilint -suggest -predict none -json -workloads litmus-iriw-relaxed > $$dir/iriw.json && \
	$$dir/tmimc -apply $$dir/iriw.json -max-runs 9000 -allow-incomplete && \
	rc=0 && echo "suggest: repaired fixtures verified SC-equivalent and race-free"; \
	rm -rf $$dir; exit $$rc

lint: fmt vet
	$(GO) run ./cmd/tmilint

ci: build test vet vet-src lint

check: ci race-harness allocgate fuzz mc suggest benchgate backends serve-smoke cluster-smoke
