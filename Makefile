GO ?= go
FUZZTIME ?= 10s
SEED ?= 1
N ?= 10

.PHONY: all check fmt vet build test race bench fuzz-smoke profile profile-dse loc options reach pairs fingerprints

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
# concurrent timing walks: a walk must never write to one. internal/hcbench
# is here for the chunk pools Generate shares between concurrent callers and
# indexes on GOMAXPROCS goroutines, internal/corpus for the standard corpus it
# generates the same way, internal/comp and the root package for the bounded
# lease of Coders that concurrent CompressCall / cdpu.Compress callers share
# (its allocation ceiling, TestCompressCallSteadyStateAllocs, holds here too:
# a lease drops no Put under the race detector), and internal/par for the one
# parallel loop all of the above fan out through.
race:
	$(GO) test -race . ./internal/cluster/... ./internal/comp/... ./internal/core/... ./internal/corpus/... ./internal/des/... ./internal/exp/... ./internal/hcbench/... ./internal/par/... ./internal/sim/... ./internal/traffic/...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Profile the replay hot path: pprof CPU + heap profiles of three
# replay-healthy-shaped sim.Run replays on one worker (BenchmarkSimRun:
# Seed 1, 12000 calls, Workers 1), with the top cumulative entries printed.
# Open the interactive views with `go tool pprof cpu.pprof` / `go tool pprof
# mem.pprof`. End-to-end and per-layer timing is `go run ./bench`.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkSimRun$$' -benchtime 3x -cpuprofile cpu.pprof -memprofile mem.pprof ./internal/sim
	$(GO) tool pprof -top -cum -nodecount 40 sim.test cpu.pprof
	$(GO) tool pprof -top -nodecount 10 -sample_index=alloc_space sim.test mem.pprof

# Profile the two compression sweeps of the dse-sweep workload: CPU + heap
# profiles of BenchmarkDSEFigure/fig12 and /fig15 (the history-SRAM ×
# placement sweeps, whose passes are mostly the LZ77 parse), three cold passes
# each on one worker at the workload's suite size, with the top cumulative
# entries printed. The suite is built before the timer starts.
profile-dse:
	$(GO) test -run '^$$' -bench '^BenchmarkDSEFigure$$/^fig1[25]$$' -benchtime 3x -cpuprofile dse-cpu.pprof -memprofile dse-mem.pprof ./internal/exp
	$(GO) tool pprof -top -cum -nodecount 40 exp.test dse-cpu.pprof
	$(GO) tool pprof -top -nodecount 10 -sample_index=alloc_space exp.test dse-mem.pprof

# The scoreboard ROADMAP quotes: non-test lines of Go under internal/ and
# cmd/, in total, for the four replay-engine packages together, for the six
# codec packages together, and per package.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf '%6d sim + cluster + core + des\n' "$$(find internal/sim internal/cluster internal/core internal/des -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf '%6d bits + fse + huffman + lz77 + snappy + zstdlite\n' "$$(find internal/bits internal/fse internal/huffman internal/lz77 internal/snappy internal/zstdlite -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@for d in internal/* cmd/*; do printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" $$d; done

# The option budget ROADMAP's aim 2 counts: the settable fields of the option
# structs TestEveryOptionHasACaller guards (options_guard_test.go), a nested
# config counted field by field.
options:
	@$(GO) test -count=1 -run '^TestEveryOptionHasACaller$$' -v . | grep -o 'option budget: .*'

# What no entry point reaches: build every binary (cmd/, examples/, bench) with
# coverage of the whole module (-coverpkg=./internal/... emits nothing on
# go1.24.0), run each at its smallest scale, and print the functions under
# internal/ that never executed. A function stays only if a binary, an
# experiment, an example, the public cdpu package or a benchmark workload can
# run it, or a safety contract needs it; CHANGES.md names the reason for each
# one this prints.
reach:
	@set -e; T=$$(mktemp -d); mkdir $$T/bin $$T/cov $$T/out; : >$$T/log; B=$$T/bin; \
	trap 's=$$?; [ $$s = 0 ] || tail -n 5 $$T/log >&2; rm -rf $$T; exit $$s' EXIT; \
	for d in cmd/* examples/* bench; do $(GO) build -cover -coverpkg=./... -o $$B/$$(basename $$d) ./$$d; done; \
	cat internal/exp/*.go docs/MODEL.md > $$T/payload; \
	export GOCOVERDIR=$$T/cov; exec 3>&1 4>&2 >$$T/log 2>&1; \
	$$B/cdpubench || true; \
	$$B/cdpubench -all -files 6 -calls 300 -samples 20000 -workers 2 -csv $$T/out/csv -metrics; \
	$$B/cdpubench -summary -files 6; \
	for a in hash fse stats; do $$B/cdpubench -ablation $$a -files 6; done; \
	for a in snappy zstd flate brotli gipfeli lzo; do \
		$$B/cdpu -c -algo $$a $$T/payload $$T/out/p.$$a; \
		$$B/cdpu -d -algo $$a $$T/out/p.$$a $$T/out/rt.$$a; cmp $$T/payload $$T/out/rt.$$a; \
	done; \
	$$B/cdpu -c -algo zstd -level 5 $$T/payload $$T/out/p.z5; $$B/cdpu -d $$T/out/p.z5 $$T/out/rt.z5; \
	for a in snappy zstd; do \
		$$B/cdpu -c -hw -algo $$a $$T/payload $$T/out/hw.$$a; \
		$$B/cdpu -d -hw -algo $$a -placement chiplet -sram 8192 $$T/out/hw.$$a $$T/out/hwrt.$$a; cmp $$T/payload $$T/out/hwrt.$$a; \
	done; \
	$$B/lzbench -file $$T/payload -iters 1; $$B/lzbench -file $$T/payload -iters 1 -algo zstd -levels; \
	$$B/hcbgen -out $$T/out/hcb -files 4 -maxfile 65536; \
	(cd $$T/out && $$B/fuzzcorpus); \
	for e in coldstorage placement quickstart rpccache; do $$B/$$e; done; \
	F="$$B/fleetsim -calls 300 -workers 2"; \
	$$F -metrics; $$F -replicas 3; $$F -openloop; $$F -trace $$T/out/trace.json; \
	$$B/bench -smoke -seconds 0.2; $$B/bench -smoke -seconds 0.2 -trace; \
	exec >&3 2>&4; \
	$(GO) tool covdata textfmt -i=$$T/cov -o=$$T/cover.txt; \
	$(GO) tool cover -func=$$T/cover.txt | awk '$$1 ~ /^cdpu\/internal\// && $$NF == "0.0%" { print $$1, $$2; n++ } END { print n+0, "functions under internal/ no entry point executed" }'

# A speed claim's evidence: N order-alternated pairs of one benchmark
# workload per seed in SEEDS (default: SEED), PARENT against the working tree,
# each seed judged by its own `bench -compare` (medians, quartiles, the bound,
# a verdict per end-to-end metric; the target fails if any seed reads
# "worse"). ./bench is built once per side — the parent's from a clone of
# PARENT under $TMPDIR, and run from that clone so its rows carry the parent's
# commit — and the side that runs first swaps every pair. Rows land in
# pairs-<workload>-seed<seed>-{parent,change}.jsonl, overwritten each time.
#
#	make pairs PARENT=HEAD~1 WORKLOAD=replay-overload [SEED=1 | SEEDS="1 7"] [N=10]
SEEDS ?= $(SEED)
pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make pairs PARENT=<ref> WORKLOAD=<name> [SEED=1 | SEEDS=\"1 7\"] [N=10]" >&2; exit 2; }
	@set -e; T=$$(mktemp -d); trap 'rm -rf $$T' EXIT; R=$$(pwd); \
	git clone -q . $$T/parent; git -C $$T/parent checkout -q --detach $$(git rev-parse --verify '$(PARENT)^{commit}'); \
	(cd $$T/parent && $(GO) build -o $$T/bench-parent ./bench); $(GO) build -o $$T/bench-change ./bench; \
	rows() { echo $$R/pairs-$(WORKLOAD)-seed$$1-$$2.jsonl; }; \
	show() { grep -E ' (ops_per_s|sim_fingerprint) ' $$T/out | sed "s/^/$$1  /"; }; \
	parent() { (cd $$T/parent && $$T/bench-parent -workload $(WORKLOAD) -seed $$1 -json-out $$(rows $$1 parent)) >$$T/out; show parent; }; \
	change() { $$T/bench-change -workload $(WORKLOAD) -seed $$1 -json-out $$(rows $$1 change) >$$T/out; show change; }; \
	for s in $(SEEDS); do \
		rm -f $$(rows $$s parent) $$(rows $$s change); \
		for i in $$(seq 1 $(N)); do \
			echo "seed $$s: pair $$i of $(N)"; \
			if [ $$((i % 2)) = 1 ]; then parent $$s; change $$s; else change $$s; parent $$s; fi; \
		done; \
	done; \
	rc=0; for s in $(SEEDS); do \
		echo "== $(WORKLOAD) seed $$s"; \
		$$T/bench-change -compare $$(rows $$s parent) $$(rows $$s change) || rc=1; \
	done; exit $$rc

# A "same behaviour" claim's evidence: the sim_fingerprint of each benchmark
# workload at each seed in SEEDS (default: SEED), PARENT against the working
# tree, with ./bench built once per side as pairs builds it. One timed second
# per run is enough: the fingerprint hashes what the workload simulates or
# encodes, not how long it ran. Prints one line per workload and seed and
# fails if any pair differs or is missing.
#
#	make fingerprints PARENT=HEAD~1 [SEED=1 | SEEDS="1 7"]
WORKLOADS = replay-healthy replay-overload dse-sweep codec-sw
fingerprints:
	@test -n "$(PARENT)" || { echo "usage: make fingerprints PARENT=<ref> [SEED=1 | SEEDS=\"1 7\"]" >&2; exit 2; }
	@set -e; T=$$(mktemp -d); trap 'rm -rf $$T' EXIT; \
	git clone -q . $$T/parent; git -C $$T/parent checkout -q --detach $$(git rev-parse --verify '$(PARENT)^{commit}'); \
	(cd $$T/parent && $(GO) build -o $$T/bench-parent ./bench); $(GO) build -o $$T/bench-change ./bench; \
	fp() { $$1 -workload $$2 -seed $$3 -seconds 1 | awk '$$2 == "sim_fingerprint" { print $$4 }'; }; \
	rc=0; for s in $(SEEDS); do for w in $(WORKLOADS); do \
		p=$$(cd $$T/parent && fp $$T/bench-parent $$w $$s); c=$$(fp $$T/bench-change $$w $$s); \
		v=equal; if [ -z "$$p" ] || [ "$$p" != "$$c" ]; then v=DIFFERENT; rc=1; fi; \
		printf '%-16s seed %-2s parent %s change %s %s\n' $$w $$s "$$p" "$$c" $$v; \
	done; done; exit $$rc

# Adversarial-input smoke: run every native fuzz target for FUZZTIME each,
# starting from the checked-in seed corpora (regenerate those with
# `go run ./cmd/fuzzcorpus`). Go allows one -fuzz target per invocation.
# FuzzParseMatchesReference caps minimizing at 100 runs an input: a run
# parses two inputs twice on two matchers, and the default 60 s of
# minimizing the first new input would fill a short FUZZTIME.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/snappy
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/zstdlite
	$(GO) test -run '^$$' -fuzz '^FuzzSizeOnlyMatchesFull$$' -fuzztime $(FUZZTIME) ./internal/zstdlite
	$(GO) test -run '^$$' -fuzz '^FuzzInspectMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/zstdlite
	$(GO) test -run '^$$' -fuzz '^FuzzReplayMatchesAppendReconstruct$$' -fuzztime $(FUZZTIME) ./internal/lz77
	$(GO) test -run '^$$' -fuzz '^FuzzParseMatchesReference$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/lz77
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/lzo
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/gipfeli
	$(GO) test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzGen$$' -fuzztime $(FUZZTIME) ./internal/traffic
	$(GO) test -run '^$$' -fuzz '^FuzzRNGMatchesMathRand$$' -fuzztime $(FUZZTIME) ./internal/corpus
	$(GO) test -run '^$$' -fuzz '^FuzzVerifySeqs$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFoldMatchesWalk$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecompressMatchesCodec$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPreparedRun$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzForMatchesSerial$$' -fuzztime $(FUZZTIME) ./internal/par
	$(GO) test -run '^$$' -fuzz '^FuzzCoderMatchesFresh$$' -fuzztime $(FUZZTIME) ./internal/comp
