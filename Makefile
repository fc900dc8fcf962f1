GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race vet lint lint-fixtures spec-validate bench benchdiff bench-smoke bench-gate fleet-smoke replay-smoke perfbench-test fuzz-smoke property soak-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Baseline-gated: only findings absent from the committed (empty) baseline
# fail, so the gate is a ratchet — accepted debt is written down, anything
# new is an error.
lint:
	$(GO) run ./cmd/hpmlint -baseline .hpmlint-baseline.json ./...

# The violation fixtures must keep producing findings; a linter that goes
# quiet is worse than no linter. -expect compares exact per-fixture,
# per-rule counts against the committed golden file, so a linter that
# fails to build (or an analyzer that is silently neutered) fails the
# gate — the old `! hpmlint` form counted both as a pass.
lint-fixtures:
	cd internal/lint && $(GO) run ../../cmd/hpmlint -expect testdata/fixture_counts.json ./testdata/src/...

# Validate every committed workload-spec preset through the real CLI
# path (load, decode, field-path validation). Exit 2 on the first
# malformed spec, matching the hpmlint convention.
spec-validate:
	$(GO) run ./cmd/spsim -validate

# One pass over every paper benchmark; the human-readable run streams to
# the terminal and the parsed table lands in BENCH_campaign.json.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . | $(GO) run ./cmd/benchjson -o BENCH_campaign.json

# Re-run the paper benchmarks and print per-benchmark deltas against the
# committed baseline without overwriting it. Informational: single-pass
# timings are noisy, so benchdiff only fails on build/run errors.
benchdiff:
	$(GO) test -run '^$$' -bench . -benchtime 1x . | $(GO) run ./cmd/benchjson -o '' -diff BENCH_campaign.json

# Quick smoke: one iteration of the microsim + campaign-day benchmarks,
# just to prove the bench harness still builds and runs (used by CI).
bench-smoke:
	$(GO) test -run '^$$' -bench 'CPUSimulation|CampaignDay' -benchtime 1x . | $(GO) run ./cmd/benchjson -o '' -diff BENCH_campaign.json

# Regression gate: re-run the hot-path benchmarks and enforce the
# committed tolerances/ratios in BENCH_gates.json against the committed
# baseline. Unlike benchdiff this is pass/fail — a CampaignDay, fleet or
# telemetry-overhead regression beyond the (deliberately generous,
# single-iteration-noise-tolerant) bounds fails `make ci`. Only the
# campaign-scale benches are gated: their single pass does real work
# (tens of ms), so the timing is signal; micro benches at -benchtime 1x
# measure setup noise and stay diff-only.
bench-gate:
	$(GO) test -run '^$$' -bench 'CampaignDay|FleetCampaign|MeasureStandardCold|CollectorThroughput' -benchtime 1x . | $(GO) run ./cmd/benchjson -o '' -diff BENCH_campaign.json -gate BENCH_gates.json

# Operational smoke of the fleet engine through the real CLI: run a
# 2-cluster fleet sharded 2 ways, force a halt after the first cluster
# completes (writing the checkpoint), then resume from it to completion.
# The determinism leg records a faulted 3-cluster fleet with a checkpoint
# at 1 and at 2 shards: the compressed trace and checkpoint must be
# byte-identical, whichever shard finished its cluster first.
FLEET_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)
FLEET_SMOKE_CP := $(FLEET_SMOKE_DIR)/hpm-fleet-smoke.json.gz
FLEET_SMOKE_DET := $(foreach s,1 2,$(FLEET_SMOKE_DIR)/hpm-fleet-det$(s).trace.gz $(FLEET_SMOKE_DIR)/hpm-fleet-det$(s).json.gz)
fleet-smoke:
	rm -f $(FLEET_SMOKE_CP) $(FLEET_SMOKE_DET)
	$(GO) run ./cmd/spsim -days 2 -clusters 2 -shards 2 -checkpoint $(FLEET_SMOKE_CP) -halt-after 1
	$(GO) run ./cmd/spsim -days 2 -clusters 2 -shards 2 -checkpoint $(FLEET_SMOKE_CP) -resume
	$(GO) run ./cmd/spsim -days 2 -clusters 3 -shards 1 -faults -record $(FLEET_SMOKE_DIR)/hpm-fleet-det1.trace.gz -checkpoint $(FLEET_SMOKE_DIR)/hpm-fleet-det1.json.gz
	$(GO) run ./cmd/spsim -days 2 -clusters 3 -shards 2 -faults -record $(FLEET_SMOKE_DIR)/hpm-fleet-det2.trace.gz -checkpoint $(FLEET_SMOKE_DIR)/hpm-fleet-det2.json.gz
	cmp $(FLEET_SMOKE_DIR)/hpm-fleet-det1.trace.gz $(FLEET_SMOKE_DIR)/hpm-fleet-det2.trace.gz
	cmp $(FLEET_SMOKE_DIR)/hpm-fleet-det1.json.gz $(FLEET_SMOKE_DIR)/hpm-fleet-det2.json.gz
	rm -f $(FLEET_SMOKE_CP) $(FLEET_SMOKE_DET)

# Differential smoke of trace record/replay through the real CLI: record
# a 2-day campaign while exporting its database, replay the trace at a
# different worker count, and require the exported databases to be
# byte-identical. cmp is the whole proof — any divergence fails.
REPLAY_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)
replay-smoke:
	rm -f $(REPLAY_SMOKE_DIR)/hpm-replay-smoke.trace.gz $(REPLAY_SMOKE_DIR)/hpm-replay-live.json $(REPLAY_SMOKE_DIR)/hpm-replay-replayed.json
	$(GO) run ./cmd/spsim -days 2 -seed 7 -record $(REPLAY_SMOKE_DIR)/hpm-replay-smoke.trace.gz -o $(REPLAY_SMOKE_DIR)/hpm-replay-live.json
	$(GO) run ./cmd/spsim -days 2 -seed 7 -workers 3 -replay $(REPLAY_SMOKE_DIR)/hpm-replay-smoke.trace.gz -o $(REPLAY_SMOKE_DIR)/hpm-replay-replayed.json
	cmp $(REPLAY_SMOKE_DIR)/hpm-replay-live.json $(REPLAY_SMOKE_DIR)/hpm-replay-replayed.json
	rm -f $(REPLAY_SMOKE_DIR)/hpm-replay-smoke.trace.gz $(REPLAY_SMOKE_DIR)/hpm-replay-live.json $(REPLAY_SMOKE_DIR)/hpm-replay-replayed.json

# The benchmark harness's own tests (a separate module under perfbench/).
# Among them TestMirrorsSpsim builds spsim and requires `spsim -workers 1
# -days 2 -seed 9 -o` to write the same database bytes as the library
# campaign the benchmark times, so the CLI's run path cannot drift from
# what the benchmark measures.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Short fuzzing pass over every fuzz target (committed corpora plus
# FUZZTIME of fresh exploration per target). go test allows one -fuzz
# pattern per invocation, so each target gets its own run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlanInvariants$$' -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzEpilogueDelay$$' -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzProfileCacheDecode$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzMetricsEncode$$' -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz '^FuzzBaselineDecode$$' -fuzztime $(FUZZTIME) ./internal/lint/
	$(GO) test -run '^$$' -fuzz '^FuzzSpecDecode$$' -fuzztime $(FUZZTIME) ./internal/spec/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzDatabaseDecode$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzWireBatchDecode$$' -fuzztime $(FUZZTIME) ./internal/rs2hpm/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayDecode$$' -fuzztime $(FUZZTIME) ./internal/replay/

# Every property test in the tree, under the race detector.
property:
	$(GO) test -run Property -race ./...

# The collection-service soak suite under the race detector: wall-bounded
# runs against healthy/flaky/dead/slow fleets, leak-checked and with the
# sample ledger cross-footed exactly (internal/rs2hpm/loadtest).
soak-smoke:
	$(GO) test -race -run 'TestSoak' -count=1 ./internal/rs2hpm/loadtest/

ci: build vet test race lint lint-fixtures spec-validate fleet-smoke replay-smoke perfbench-test soak-smoke bench-gate
