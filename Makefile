# Developer entry points. CI runs the same targets.

GO ?= go

.PHONY: fmt build test race vet e2e microbench cross-build fuzz-short experiments bench bench-test all

all: fmt build vet test

# fmt fails when any file is not gofmt-clean (CI's first step).
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# e2e boots rtled on loopback and validates wire-level linearizability
# with rtleload, clean and under a fault plan, once per shard count.
e2e:
	scripts/e2e.sh

# microbench compiles and completes the micro-benchmarks DESIGN.md §1.8
# quotes, the heap's own (plain load and store, map-touch-drop), the root
# package's observer-overhead model and the server's wire round trips, a
# hundred iterations each (CI's step;
# raise -benchtime, build both sides with `go test -c` and alternate them to
# measure).
microbench:
	$(GO) test -run '^$$' -bench 'Tx|LineSet|WriteSet|RWMutexParallel|Retreat|Load|Store|NewDrop|LockSection|SlowFind|SlowWriters|FastFind|ObserverOverhead|WireFastPath' \
		-benchtime 100x . ./internal/mem ./internal/htm ./internal/guard ./internal/core ./internal/server

# cross-build compiles the tree where the heap is not mapped (windows,
# js/wasm: heap_other.go) and vets the mapping on a second unix (darwin),
# so neither side of internal/mem's build constraint rots (CI's step).
cross-build:
	GOOS=windows $(GO) build ./...
	GOOS=js GOARCH=wasm $(GO) build ./...
	GOOS=darwin $(GO) vet ./internal/mem

# fuzz-short runs each fuzz target over untrusted bytes, and the fault-plan
# fuzzer, for ten seconds (CI's step): the request decoder together with
# both hello decoders, the frame reader, the response decoder, the snapshot
# reader, the replication log's file replay, and fault plans under the
# linearizability checker.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzSnapReader$$' -fuzztime 10s ./internal/snap
	$(GO) test -run '^$$' -fuzz '^FuzzLogReplay$$' -fuzztime 10s ./internal/repl
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime 10s ./internal/check

# experiments regenerates the evaluation record, EXPERIMENTS.md's generated
# tail (everything below its marker line; the rest of the file is kept):
# every figure and ablation A2–A6, each point the median of three 300 ms
# runs, once in the default regime at 1, 2, 4 and 8 threads and once with
# the virtualization knobs off at 1 and 2 threads, where two threads really
# overlap on a two-core host. Run it with nothing else on the host: on two
# vCPUs it took 824 and 825 s in two runs, about two thirds of it the
# default-regime run.
RECORD_MARKER = <!-- make experiments writes everything below this line. -->
experiments:
	grep -qxF '$(RECORD_MARKER)' EXPERIMENTS.md
	sed '/^$(RECORD_MARKER)$$/q' EXPERIMENTS.md > EXPERIMENTS.md.tmp
	$(GO) run ./cmd/experiments -fig all -threads 1,2,4,8 -interleave 4 -spurious 0.01 -dur 300ms -runs 3 >> EXPERIMENTS.md.tmp
	$(GO) run ./cmd/experiments -fig all -threads 1,2 -interleave 0 -spurious 0 -dur 300ms -runs 3 >> EXPERIMENTS.md.tmp
	mv EXPERIMENTS.md.tmp EXPERIMENTS.md

# bench runs the canonical benchmark (BENCHMARK.json): the four gated
# workloads, one result line each. benchmark/ is its own module, so root
# build/test targets never reach it; bench-test compiles it and runs its
# smoke path against the current cmd/rtled.
bench:
	$(GO) run -C benchmark .

bench-test:
	cd benchmark && $(GO) test ./...
