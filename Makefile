# Standard checks for the ALPS repository. `make check` is the
# pre-commit gate: vet, build, and the full test suite under the race
# detector (every fault-injection test is deterministic and fake-backed,
# so -race adds coverage without flakiness).

GO ?= go

.PHONY: check vet fmt-check build perfbench-build test race short bench alloc-gate timeline trace trace-fleet chaos chaos-fleet chaos-failover vulncheck

check: vet build race

vet:
	$(GO) vet ./...

# Formatting gate: fails when any Go file is not gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

# perfbench/ is its own module (the real-OS benchmark), so the root
# build never compiles it; this vets and builds it against the tree.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast loop: skips the end-to-end tests that spawn real processes.
short:
	$(GO) test -short ./...

# Benchmarks, each writing a JSON report next to the repo root:
#   obs        — observer off vs on, ns/quantum, plus the coordinator
#                heartbeat with fleet tracing off vs on; hard-fails when
#                fleet tracing adds >1% (>5% quick) (BENCH_obs.json)
#   robustness — checkpoint write latency, per-cycle checkpoint
#                overhead vs the 5%-of-quantum budget, and coordinator
#                rebalance convergence vs the 12-round gate
#                (BENCH_robustness.json)
# QUICK=1 trims iterations for CI. The real-OS control-loop benchmark is
# perfbench (BENCHMARK.json, perfbench/README.md).
bench:
	$(GO) run ./cmd/alps-bench $(if $(QUICK),-quick) obs
	$(GO) run ./cmd/alps-bench $(if $(QUICK),-quick) robustness

# Fast alloc-regression gate. Runs without -race (race instrumentation
# allocates on the hot path) and fails if 1000 steady-state quanta of the
# indexed loop over FaultSys (N=300 and N=5000) heap-allocate even once,
# or if a real /proc stat read through RealSys allocates more than its
# Comm string.
alloc-gate:
	$(GO) test -run 'TestSteadyStateZeroAllocs|TestRealReadStatAllocs' -count=1 ./internal/osproc/

# Timeline smoke: retained-history closed-loop gates. A synthetic
# duty-cycled workload aliases a deliberately mismatched audit window;
# the run hard-fails unless the EWMA estimator cuts the raw gauge's
# steady-state beat ratio >=5x, the FFT-free autocorrelation detector
# finds the beat period in the retained series, and one history sample
# over a production-shaped registry costs <=1% of a 10ms quantum.
# Merges its section into BENCH_obs.json (obs keys preserved).
# QUICK=1 trims cycles/iterations for CI.
timeline:
	$(GO) run ./cmd/alps-bench $(if $(QUICK),-quick) timeline

# Trace smoke: run the built-in demo scenario through the simulator and
# emit TRACE_sim.json as Chrome trace-event JSON. alps-sim validates the
# trace before writing it, so a non-zero exit means the tracing pipeline
# regressed; the file opens directly in Perfetto (ui.perfetto.dev).
trace:
	$(GO) run ./cmd/alps-sim -chrome TRACE_sim.json
	@echo "wrote TRACE_sim.json (open in https://ui.perfetto.dev)"

# Fleet trace smoke: a deterministic coordsim fleet (coordinator + two
# shards on a virtual clock) converges, a shard's flight recorder fires,
# the coordinator collects every member's window, and the merged
# epoch-causal trace is validated and written as TRACE_fleet.json
# (coordinator track + one track per shard, publish->apply flow events;
# opens directly in Perfetto). Fails unless every committed epoch's
# causality is drawn and the correlated collection gathered all members.
# QUICK=1 trims the virtual run for CI.
trace-fleet:
	$(GO) run ./cmd/alps-bench $(if $(QUICK),-quick) fleettrace
	@echo "wrote TRACE_fleet.json (open in https://ui.perfetto.dev)"

# Crash/restart end-to-end suite under the race detector: SIGKILL the
# scheduler mid-run, restart from the -state file, require shares to
# reconverge and no workload process to be left SIGSTOPped; plus the
# restore-failure sweep and live-reconfig (SIGHUP + /admin/config)
# e2e tests. Spawns real processes; not part of `short`.
chaos:
	$(GO) test -race -run 'TestChaos|TestRestoreFailure|TestAdminConfig' -v ./cmd/alps/

# Fleet chaos suite under the race detector: the coordsim scenario
# (4 shards + coordinator on an in-memory faulty network and a virtual
# clock — coordinator SIGKILLed mid-rebalance and restarted from its
# checkpoint, a shard partitioned and healed, a shard killed) plus the
# real-process fleet e2e (coordinator and shard as separate processes;
# the shard must attach, then degrade to static shares when the
# coordinator dies). Deterministic except the final e2e, which spawns
# real busy loops; not part of `short`.
chaos-fleet:
	$(GO) test -race -run 'TestChaosFleet' -v ./internal/coord/
	$(GO) test -race -run 'TestFleetEndToEnd' -v ./cmd/alps/

# Replicated-coordinator failover suite under the race detector: the
# coordsim replica-set scenario (three coordinator replicas, the leader
# partitioned away from standbys and shards, a standby elected and
# reconfigured live, then killed so the fleet walks back onto the
# deposed original — whose stale-term publishes must be fenced) plus the
# replica-set and agent-failover unit scripts. Fully deterministic.
# The scenario runs with convergence-fed adaptive damping on and writes
# the surviving leader's /fleet/timeline capture (every reconvergence on
# the virtual clock) to TIMELINE_failover.json for the CI artifact.
chaos-failover:
	ALPS_TIMELINE_OUT=$(CURDIR)/TIMELINE_failover.json $(GO) test -race -run 'TestChaosFailover|TestReplica|TestDeposed|TestWeightsUpdate|TestHeartbeatHigherTerm|TestAgent' -v ./internal/coord/

# Known-vulnerability scan, gated on the tool being installed (the CI
# image may not ship it; we never install dependencies on the fly).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
