.PHONY: verify build test bench bench-diff fuzz-smoke

# Where `make bench` writes its benchjson report: outside the tree, so a
# bench run can never overwrite the committed baseline below.
BENCH_OUT ?= /tmp/bench.json

# Baseline the bench-diff gate (and CI's bench-smoke job) compares
# against. It moves only by an explicit, explained commit.
BENCH_BASE ?= BENCH_BASELINE.json

# The gate for every change: static checks, full build, and the complete
# test suite under the race detector (the fault-tolerant transport is
# heavily concurrent; -race is not optional for it). That run includes the
# codec's differential tests — octree TestValidateMatchesPairwise (1.1e5
# trees against the pairwise oracle) and sample's decode-all-ways checks.
verify:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go build ./...
	go test -race ./...

build:
	go build ./...

test:
	go test ./...

# Benchmarks across every package, with the parsed results captured as
# JSON (cmd/benchjson) for cross-PR regression tracking.
bench:
	go test -bench=. -benchmem ./... | go run ./cmd/benchjson -o $(BENCH_OUT)

# Compare a fresh bench run against the committed baseline and fail on
# regression (cmd/benchdiff). CI runs a coarse version of this gate.
bench-diff:
	go test -bench=. -benchmem ./... | go run ./cmd/benchjson -o /tmp/bench-new.json
	go run ./cmd/benchdiff -base $(BENCH_BASE) -new /tmp/bench-new.json -tol 0.5 -allocs-slack 8 -zero-tol 65536 -strict

# 10s smoke of each fuzz target against the committed seed corpora; the
# full 30s runs are part of the PR acceptance checklist.
fuzz-smoke:
	go test ./internal/fft/ -fuzz=FuzzFFTRoundTrip -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/octree/ -fuzz=FuzzOctreeMetaCodec -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/octree/ -fuzz=FuzzValidateMatchesPairwise -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/sample/ -fuzz=FuzzCompressedIO -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/ckpt/ -fuzz=FuzzCheckpointCodec -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/wire/ -fuzz=FuzzWireFrameCodec -fuzztime=10s -fuzzminimizetime=5x
