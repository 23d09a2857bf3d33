GO ?= go
FUZZTIME ?= 10s

.PHONY: all check fmt vet build test race bench fuzz-smoke profile loc

all: check

# Full gate: what CI (and pre-commit) should run. The determinism, recovery,
# failover, open-loop, overload and observability guarantees are all tests.
check: fmt vet build test race

fmt: ; @test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scheduler, experiment caches, the sharded replay engine, the
# discrete-event engine, the replica dispatcher and the open-loop traffic
# generator are the concurrency-sensitive core; run them under the race
# detector. internal/core is here for the traces the scheduler shares between
# concurrent timing walks: a walk must never write to one.
race:
	$(GO) test -race ./internal/cluster/... ./internal/core/... ./internal/des/... ./internal/exp/... ./internal/sim/... ./internal/traffic/...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Profile the replay hot path: pprof CPU + heap profiles of full sim.Run
# replays (BenchmarkSimRun), with the top entries printed for a quick read.
# Open the interactive views with `go tool pprof cpu.pprof` / `go tool pprof
# mem.pprof`. End-to-end and per-layer timing is `go run ./bench`.
profile:
	$(GO) test -run '^$$' -bench BenchmarkSimRun -cpuprofile cpu.pprof -memprofile mem.pprof ./internal/sim
	$(GO) tool pprof -top -nodecount 15 cpu.pprof
	$(GO) tool pprof -top -nodecount 10 -sample_index=alloc_space mem.pprof

# The scoreboard ROADMAP quotes: non-test lines of Go under internal/ and
# cmd/, in total and per package.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@for d in internal/* cmd/*; do printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" $$d; done

# Adversarial-input smoke: run every native fuzz target for FUZZTIME each,
# starting from the checked-in seed corpora (regenerate those with
# `go run ./cmd/fuzzcorpus`). Go allows one -fuzz target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/snappy
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/zstdlite
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/lzo
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/gipfeli
	$(GO) test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzGen$$' -fuzztime $(FUZZTIME) ./internal/traffic
	$(GO) test -run '^$$' -fuzz '^FuzzRNGMatchesMathRand$$' -fuzztime $(FUZZTIME) ./internal/corpus
