.PHONY: verify build test bench fuzz-smoke profile

# The gate for every change: static checks, full build, and the complete
# test suite under the race detector (the fault-tolerant transport is
# heavily concurrent; -race is not optional for it). That run includes the
# codec's differential tests — octree TestValidateMatchesPairwise (1.1e5
# trees against the pairwise oracle) and sample's decode-all-ways checks.
# The arm64 vet builds the non-amd64 side of internal/fft, whose passes are
# the Go loops alone; the amd64 vet checks the AVX and AVX-512 assembly
# (asmdecl). The first step prints the fft dispatch this machine runs (AVX,
# AVX-512), so that a green log says which assembly twins it covered.
verify:
	@go test -count=1 -run '^TestDispatch$$' -v ./internal/fft | grep 'fft dispatch'
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	GOARCH=arm64 go vet ./...
	go build ./...
	go test -race ./...

build:
	go build ./...

test:
	go test ./...

# Every Go micro-benchmark, for reading by eye. Nothing gates on these
# numbers: timing claims go through `go run ./bench` (BENCHMARK.json), and
# the zero-allocation paths are pinned by AllocsPerRun tests in `make test`.
bench:
	go test -bench=. -benchmem ./...

# CPU profiles of one conv.Local run on one core at the local and solve
# shapes (BenchmarkLocalRun/n128-k32 and /n64-k16-fresh), and the top of
# each: where a local op spends its time. The profiles and the test binary
# go to a fresh temporary directory, named at the end. Not part of verify.
profile:
	@d=$$(mktemp -d) && \
	for b in n128-k32 n64-k16-fresh; do \
		go test -run '^$$' -bench "LocalRun/^$$b\$$" -cpu 1 -benchtime 3s \
			-o $$d/conv.test -cpuprofile $$d/local-$$b.prof ./internal/conv && \
		go tool pprof -top -nodecount 25 $$d/conv.test $$d/local-$$b.prof || exit 1; \
	done; \
	echo "profiles in $$d"

# 10s smoke of each fuzz target against the committed seed corpora; the
# full 30s runs are part of the PR acceptance checklist.
fuzz-smoke:
	go test ./internal/fft/ -fuzz=FuzzFFTRoundTrip -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/fft/ -fuzz=FuzzTile -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/octree/ -fuzz=FuzzOctreeMetaCodec -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/octree/ -fuzz=FuzzValidateMatchesPairwise -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/sample/ -fuzz=FuzzCompressedIO -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/sample/ -fuzz=FuzzPatchCodec -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/ckpt/ -fuzz=FuzzCheckpointCodec -fuzztime=10s -fuzzminimizetime=5x
	go test ./internal/wire/ -fuzz=FuzzWireFrameCodec -fuzztime=10s -fuzzminimizetime=5x
