# Developer entry points. `make ci` is the full gate the CI workflow
# runs: vet, build, race-enabled tests, the tile-parallel determinism
# goldens, the differential validation oracle, the coverage floors, a
# one-iteration bench smoke and short fuzz smokes of
# every fuzz target, plus the tests of the nested benchmark module.

GO ?= go

# `make bench` sampling: enough repetitions for benchstat to attach
# confidence intervals to the committed baselines without taking all day.
BENCHTIME ?= 100ms
BENCHCOUNT ?= 5

# Minimum statement coverage, as package:floor pairs over internal/:
# the validation subsystem (the checker that gates everything else must
# not rot unexercised), the run supervisor (byte-identical resume), the
# campaign service (cache identity, backpressure, drain), the campaign
# fabric (failover, byte identity of cluster mode), the streaming first
# phase (the bounded-memory stratifier) and the chaos transport (the
# fault injector that certifies the fabric's trust layer).
COVER_FLOORS ?= check:85 resilience:85 serve:85 fabric:85 stream:85 chaos:85
COVER_PACKAGES := $(foreach pf,$(COVER_FLOORS),$(firstword $(subst :, ,$(pf))))

.PHONY: ci vet build test race determinism resilience serve fabric stream chaos validate e2ebench-test cover-check $(addprefix cover-check-,$(COVER_PACKAGES)) bench bench-tbr bench-cluster bench-check bench-smoke tile-bench-smoke fuzz-smoke

ci: vet build race determinism resilience serve fabric stream chaos validate e2ebench-test cover-check bench-check bench-smoke tile-bench-smoke fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Explicit gate on the parallelism guarantees: serial, frame-parallel
# and tile-parallel (tile-workers 1, 2, 4 and beyond, plus the
# composition of both axes) must produce byte-identical stats and obs
# snapshots, race-detector clean. Core count is a test axis too: the
# -cpu 1,2,4 runs repeat the frame-parallel characterization, the
# chunk-parallel k-means and selection, the tbr goldens, the fabric
# kill-worker and chaos-soak contracts, the resilience, serve and
# stream gates (the selections of those targets) and the batch
# supervise-then-degrade tests that share the streaming supervisor at
# each GOMAXPROCS, so no outcome can hide a dependence on the host's
# core count.
determinism:
	$(GO) test -race -count=1 -run '^TestGoldenDeterminism' ./internal/tbr
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/funcsim ./internal/cluster ./internal/core
	$(GO) test -race -count=1 -cpu 1,2,4 -run '^TestGoldenDeterminism' ./internal/tbr
	$(GO) test -race -count=1 -cpu 1,2,4 -run '^TestClusterKillWorkerMidCampaign$$|^TestChaosSoakByzantineKillRestart$$' ./internal/fabric
	$(GO) test -race -count=1 -cpu 1,2,4 -run '^TestGoldenKillAndResume$$|^TestDegradedAccuracyWithinWidenedBands$$' ./internal/resilience
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/serve ./internal/stream ./cmd/megsimd
	$(GO) test -race -count=1 -cpu 1,2,4 -run '^TestServerMode|^TestSampleStreaming|^TestStream|^TestSampleResilient' ./megsim ./cmd/megsim

# Explicit gate on the resilience guarantees: the kill-and-resume
# golden (byte-identical stats, obs snapshots and checkpoint bytes
# across kill points, worker counts and tile-worker counts, under
# injected faults) and the degraded-mode oracle (three fixed seeds,
# quarantined representative, accuracy within 3x-widened bands), both
# race-detector clean.
resilience:
	$(GO) test -race -count=1 -run '^TestGoldenKillAndResume$$' ./internal/resilience
	$(GO) test -race -count=1 -run '^TestDegradedAccuracyWithinWidenedBands$$' ./internal/resilience

# Explicit gate on the campaign service guarantees: concurrent
# identical submissions deduplicate to one execution with byte-identical
# results, the admission queue backpressures with 429 + Retry-After and
# drains cleanly, a drained daemon's checkpoints resume byte-identically
# after restart, and the CLI's -server mode matches a local run — all
# race-detector clean.
serve:
	$(GO) test -race -count=1 ./internal/serve
	$(GO) test -race -count=1 -run '^TestServerMode' ./cmd/megsim
	$(GO) test -race -count=1 ./cmd/megsimd

# Explicit gate on the cluster guarantees: killing a worker mid-campaign
# still produces byte-identical results (the coordinator fails over and
# the supervisor requeues lost frames), a campaign drained on one
# coordinator resumes byte-identically on another over a different
# fleet, routing policies respect draining/affinity invariants, and the
# worker/coordinator endpoints hold their refusal semantics — all
# race-detector clean.
fabric:
	$(GO) test -race -count=1 ./internal/fabric

# Explicit gate on the chaos-hardening guarantees: the deterministic
# fault transport replays identical fault sequences for identical
# seeds, and the end-to-end soak — a fleet with one byzantine worker
# tried first for every frame, its honest workers behind the chaos
# transport, every honest worker killed and restarted mid-campaign —
# quarantines the byzantine worker, requeues the killed frames, and
# still produces a report byte-identical to a clean single-process
# run. Per-class property tests pin that every fault
# class either triggers recovery or is absorbed without a trace — all
# race-detector clean.
chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -run '^TestChaosSoakByzantineKillRestart$$|^TestChaosFaultClassesPreserveReport$$|^TestClusterGoldenWithAuditAndHedging$$' ./internal/fabric

# Explicit gate on the streaming guarantees: the online stratifier is
# chunk-split invariant and bounded-memory, its snapshots round-trip
# byte-identically, the goldens pin streaming-vs-batch selection
# agreement on the oracle seeds, and a campaign killed mid-stream
# resumes to a byte-identical report at tile-workers 1 and 4 — all
# race-detector clean.
stream:
	$(GO) test -race -count=1 ./internal/stream
	$(GO) test -race -count=1 -run '^TestSampleStreaming|^TestStream' ./megsim ./cmd/megsim
	$(GO) test -race -count=1 -run '^TestStream' ./internal/serve

# The statistical acceptance gate: the differential oracle of
# internal/check runs MEGsim-sampled vs full simulation over three fixed
# randomized workloads (race-enabled, invariants armed) and fails if any
# metric's relative error leaves its tolerance band. The JSON accuracy
# report lands in results/validate.json.
validate:
	$(GO) run -race ./cmd/experiments validate -seeds 1,2,3 -out results/validate.json

# The end-to-end campaign benchmark under e2ebench/ is a nested Go
# module (it builds against this one through a local replace), so the
# root `go test ./...` never reaches it. Run its tests offline.
e2ebench-test:
	cd e2ebench && GOPROXY=off GOTOOLCHAIN=local $(GO) test ./...

# Coverage floors: cover-check runs cover-check-<pkg> for every
# package in COVER_FLOORS; each fails when ./internal/<pkg> statement
# coverage is below its floor.
cover-check: $(addprefix cover-check-,$(COVER_PACKAGES))

$(addprefix cover-check-,$(COVER_PACKAGES)): cover-check-%:
	@floor=$(patsubst $*:%,%,$(filter $*:%,$(COVER_FLOORS))); \
	if [ -z "$$floor" ]; then echo "cover-check: no floor for $* in COVER_FLOORS"; exit 1; fi; \
	cov=$$($(GO) test -cover ./internal/$* | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$cov" ]; then echo "cover-check: no coverage reported for internal/$*"; exit 1; fi; \
	echo "internal/$* coverage: $$cov% (floor $$floor%)"; \
	awk "BEGIN{exit !($$cov >= $$floor)}" || { echo "cover-check: internal/$* coverage $$cov% below $$floor% floor"; exit 1; }

# Benchmark baselines: run the tbr and cluster suites, keep the raw
# benchstat-format text, and convert to JSON with cmd/benchjson. The
# JSON files are committed as baselines; compare a fresh run with
#   jq -r '.raw[]' results/BENCH_tbr.json > old.txt && benchstat old.txt new.txt
bench: bench-tbr bench-cluster

bench-tbr:
	@mkdir -p results
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/tbr/... > results/BENCH_tbr.txt
	$(GO) run ./cmd/benchjson -in results/BENCH_tbr.txt -out results/BENCH_tbr.json

bench-cluster:
	@mkdir -p results
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/cluster > results/BENCH_cluster.txt
	$(GO) run ./cmd/benchjson -in results/BENCH_cluster.txt -out results/BENCH_cluster.json

# Benchmark regression gate: rerun the tbr and cluster suites and
# compare each against its committed baseline with cmd/benchjson
# -check. Allocation counts gate tightly (they are deterministic — a
# reintroduced per-tile allocation fails regardless of machine
# weather); wall clock gates primarily through the tile-workers=4 /
# serial ratio measured within the SAME run, which cancels host-speed
# variation (shared CI hosts have been observed to swing near 2x on an
# identical binary), plus a deliberately generous absolute backstop for
# gross regressions. The fresh runs are left in
# results/BENCH_{tbr,cluster}.new.txt for benchstat comparison against
# `jq -r '.raw[]' results/BENCH_{tbr,cluster}.json`.
#
# -max-alloc-growth 2.0: the frame benchmarks' allocs/op is fixed
# setup amortized over a small, benchtime-dependent b.N, so it jitters
# ~50-80; losing arena reuse jumps it to several hundred (the
# pre-arena path measured ~547/op at tile-workers=4), which 2x of a
# ~50-70 baseline still catches with an order of magnitude to spare.
#
# The cluster suite has no same-run ratio pair; it gates allocs/op at
# the same 2.0: a search's allocation count moves by a few per cent with
# the number of goroutines a k-means step fans out to, while a per-point
# or per-iteration allocation multiplies it.
#
# -max-ratio-growth 1.5: serial and tile-workers=4 run about a minute
# apart inside one `go test` invocation, so the machine-weather window
# can shift between them; +-25% ratio jitter has been observed on an
# otherwise idle host. A hot-path-only 2x regression still lands the
# ratio near 2x baseline, well past the 1.5x limit.
bench-check:
	@mkdir -p results
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/tbr/... > results/BENCH_tbr.new.txt
	$(GO) run ./cmd/benchjson -check -baseline results/BENCH_tbr.json \
		-ratio 'BenchmarkTileParallelRaster/tile-workers=4:BenchmarkTileParallelRaster/serial' \
		-max-alloc-growth 2.0 -max-ratio-growth 1.5 \
		-in results/BENCH_tbr.new.txt
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/cluster > results/BENCH_cluster.new.txt
	$(GO) run ./cmd/benchjson -check -baseline results/BENCH_cluster.json \
		-max-alloc-growth 2.0 -in results/BENCH_cluster.new.txt

# One iteration of every benchmark: catches bitrot in the bench suite
# without paying for stable measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# One iteration of the tile-parallel raster benchmark across worker
# counts: keeps the sharded path exercised even if the full bench
# suite is trimmed.
tile-bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkTileParallelRaster$$' -benchtime 1x ./internal/tbr

# -fuzz must match exactly one target per package, so each fuzz target
# gets its own short invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/gltrace
	$(GO) test -run '^$$' -fuzz '^FuzzGeneratedProgramExec$$' -fuzztime 5s ./internal/shader
	$(GO) test -run '^$$' -fuzz '^FuzzValidateArbitraryPrograms$$' -fuzztime 5s ./internal/shader
	$(GO) test -run '^$$' -fuzz '^FuzzSearch$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzBoundedAssign$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 5s ./internal/resilience
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCampaignRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWorkUnit$$' -fuzztime 5s ./internal/fabric
	$(GO) test -run '^$$' -fuzz '^FuzzStreamIngest$$' -fuzztime 5s ./internal/stream
