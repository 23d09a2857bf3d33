GO ?= go
FUZZTIME ?= 10s

.PHONY: all check vet build test race bench bench-json bench-resil-json bench-cluster-json bench-traffic-json bench-overload-json bench-smoke trace-smoke chaos-smoke fuzz-smoke profile

all: check

# Full gate: what CI (and pre-commit) should run.
check: vet build test race bench-smoke trace-smoke chaos-smoke

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

# Refresh the checked-in replay benchmark numbers: serial per-call latency,
# allocations and throughput, the worker-scaling curve with parallel
# efficiency, and the 1/8/32/128 device-count scaling curve (see docs/MODEL.md
# "Fleet replay at scale" for the schema).
bench-json:
	$(GO) run ./cmd/simbench -device-scaling -o BENCH_sim.json
	@cat BENCH_sim.json

# Cheap standing guarantees: the replay Report is byte-identical at any
# worker count, steady-state replay stays (near) zero-alloc at every worker
# count, the worker-scaling curve shows no gross parallel-efficiency
# regression (rows with more workers than schedulable CPUs self-skip), a
# 128-device fleet replay hits the discrete-event engine's 3x multicore
# speedup target (the efficiency gates self-skip below 2 and 4 schedulable
# CPUs respectively), and the overload control plane holds its flash-crowd
# gates (worker invariance, gold-violation ceiling, deadline-shed wasted-cycle
# reduction, burn alerts).
bench-smoke:
	$(GO) run ./cmd/simbench -check
	$(GO) run ./cmd/simbench -scaling-check
	$(GO) run ./cmd/simbench -openloop-check
	$(GO) run ./cmd/simbench -overload-check -calls 2000 -o /dev/null

# Profile the replay hot path: pprof CPU + heap profiles of the full
# benchmark sweep, with the top entries printed for a quick read. Open the
# interactive views with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/simbench -calls 4000 -cpuprofile cpu.pprof -memprofile mem.pprof -o /dev/null
	$(GO) tool pprof -top -nodecount 15 cpu.pprof
	$(GO) tool pprof -top -nodecount 10 -sample_index=alloc_space mem.pprof

# Observability gate: a traced replay leaves the Report byte-identical, the
# exported Chrome trace parses, and the per-block attribution sums to Cycles
# bit-exactly across DSE corner configurations.
trace-smoke:
	$(GO) run ./cmd/simbench -trace-smoke

# Recovery gate: a stormed, recovered replay is byte-identical across worker
# counts and the abort baseline fails on the same call everywhere. The
# failover half replays through replica groups under a device-lifecycle storm
# and additionally pins the cluster path's bit-compat at Replicas=1 (the JSON
# it prints is the cluster benchmark; `make bench-cluster-json` checks it in).
chaos-smoke:
	$(GO) run ./cmd/simbench -chaos-check
	$(GO) run ./cmd/simbench -failover-check -calls 2000 -o /dev/null

# Refresh the checked-in recovery-layer benchmark (zero policy vs full policy
# under a 2% storm on the same call mix).
bench-resil-json:
	$(GO) run ./cmd/simbench -resil -o BENCH_resil.json
	@cat BENCH_resil.json

# Refresh the checked-in cluster benchmark (plain Replicas=1 engine vs a
# 3-replica group under a 2% device-lifecycle storm on the same call mix:
# dispatcher overhead and availability).
bench-cluster-json:
	$(GO) run ./cmd/simbench -failover-check -o BENCH_cluster.json
	@cat BENCH_cluster.json

# Refresh the checked-in open-loop traffic benchmark (generator-path overhead
# vs the closed-loop schedule, one near-knee replay with per-class sheds and
# SLO violations, and one autoscaled burst replay).
bench-traffic-json:
	$(GO) run ./cmd/simbench -openloop -o BENCH_traffic.json
	@cat BENCH_traffic.json

# Refresh the checked-in overload-control benchmark (healthy-path cost of the
# always-on control plane — burn tracking + deadline admission — plus the
# flash-crowd outcomes of the uncontrolled vs controlled fleets).
bench-overload-json:
	$(GO) run ./cmd/simbench -overload-check -o BENCH_overload.json
	@cat BENCH_overload.json

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
