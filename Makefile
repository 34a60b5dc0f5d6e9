# Influence Maximization at Community Level — development targets.

GO ?= go

.PHONY: all build vet lint lint-bench graph api test race bench bench-core fuzz jobs-test poolcache-test shard-test experiments examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/imclint ./...

# Time each analyzer over the whole module and record the call/lock
# graph sizes it ran against.
lint-bench:
	$(GO) run ./cmd/imclint -bench BENCH_lint.json ./...

# Dump the whole-program call graph with per-function effect summaries.
graph:
	$(GO) run ./cmd/imclint -graph ./...

# Regenerate the exported-API golden snapshot after a deliberate change.
api:
	$(GO) run ./cmd/imclint -update-api ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The async job subsystem's suite, race-enabled: store durability,
# journal replay, worker pool, and the crash/resume determinism
# integration test.
jobs-test:
	$(GO) test -race -count=1 ./internal/job/ ./internal/serve/

# The pool snapshot format (identity headers, IMCP v3) and the shared pool
# cache, race-enabled: serialization identity checks, donor adoption
# determinism, cache store/evict/boot behavior, one save per solver pass
# of a cold solve, and the serve-level cold-vs-warm byte-identity
# integration test.
poolcache-test:
	$(GO) test -race -count=1 ./internal/ric/ ./internal/poolcache/ \
		./internal/serve/ -run 'Pool|Donor|Cache|Session|Eviction|Boot|ReadInto|Serial|ColdWarm|Codec|Decode|Failed|OncePerPass'

# The distributed shard runtime, race-enabled: stream-family
# disjointness, offset-pool splice identity, the coordinator/worker
# protocol (worker death, restart resume, degrade-to-local, corrupt or
# wrong-range worker payloads), and the serve-level
# distributed-vs-local byte-identity test.
shard-test:
	$(GO) test -race -count=1 ./internal/xrand/ ./internal/shard/
	$(GO) test -race -count=1 ./internal/ric/ -run 'Offset|Splice|ImportRange|Shard|Codec|Failed'
	$(GO) test -race -count=1 ./internal/serve/ -run 'Shard|Distributed'

bench:
	$(GO) test -bench=. -benchmem ./...

# Solver-kernel microbenchmarks (RIC generation + greedy scans) in the
# machine-readable BENCH_core.json shape. Pass BENCH_BASE=<old.json> to
# fill the before column from an earlier run.
bench-core:
	$(GO) run ./cmd/imcbench -benchcore BENCH_core.json \
		$(if $(BENCH_BASE),-benchbase $(BENCH_BASE))

fuzz:
	$(GO) test ./internal/graph/ -fuzz FuzzReadEdgeList -fuzztime 30s
	$(GO) test ./internal/graph/ -fuzz FuzzReadBinary -fuzztime 30s
	$(GO) test ./internal/ric/ -fuzz FuzzPoolRoundTrip -fuzztime 30s
	$(GO) test ./internal/ric/ -fuzz FuzzImportRange -fuzztime 30s
	$(GO) test ./internal/ric/ -fuzz FuzzDecodeMatchesReference -fuzztime 30s
	$(GO) test ./internal/ric/ -fuzz FuzzSamplerMatchesReference -fuzztime 30s
	$(GO) test ./internal/xrand/ -fuzz FuzzLiveIn -fuzztime 30s
	$(GO) test ./internal/xrand/ -fuzz FuzzLiveCount -fuzztime 30s

# Regenerate every table and figure at a laptop-friendly scale.
experiments:
	$(GO) run ./cmd/imcbench -experiment all -scale 0.1 \
		-scalefor facebook=1.0,wikivote=0.3,pokec=0.05 \
		-runs 2 -maxsamples 65536 -btroots 64

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/viralmarketing
	$(GO) run ./examples/gridattack
	$(GO) run ./examples/election
	$(GO) run ./examples/budgeted
	$(GO) run ./examples/ltmodel
	$(GO) run ./examples/dks

clean:
	$(GO) clean ./...
