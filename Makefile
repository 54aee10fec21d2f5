# Developer entry points. `make verify` mirrors the CI pipeline
# (.github/workflows/ci.yml) and the tier-1 acceptance gate.

CARGO ?= cargo

.PHONY: verify fmt lint build test perfbench-test determinism wide-smoke bench-build bench-device cluster-smoke fidelity serve-smoke obs-smoke flight-smoke bench-serve experiments

verify: fmt lint build test perfbench-test determinism wide-smoke bench-build bench-device cluster-smoke fidelity serve-smoke obs-smoke flight-smoke
	@echo "verify: all gates passed"

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

# The benchmark crate is a workspace of its own, so `test` never builds it:
# compile and test it here so an API change that breaks the calls it makes
# fails verify instead of the benchmark run.
perfbench-test:
	$(CARGO) test --release --offline -q --manifest-path perfbench/Cargo.toml

# Intra-run parallelism determinism suite at several worker shapes: the
# default counts (1,2,7,16), then deliberately awkward odd counts. Reports
# must be byte-identical to serial in every shape.
determinism:
	$(CARGO) test -q --test parallel_determinism --test cluster_determinism
	STREAMPIM_TEST_WORKERS=1,3,5,13 $(CARGO) test -q --test parallel_determinism --test cluster_determinism

# Wide-kernel differential suites with the portable fallback forced:
# proves the scalar/word/wide equivalences hold on the exact code path a
# machine without the detected SIMD features would run, and pins that
# path's functional flow to the recorded golden output.
wide-smoke:
	STREAMPIM_WIDE_PORTABLE=1 $(CARGO) test -q -p rm-core -p dw-logic -p rm-proc -p rm-bus -p pim-device --test proptests
	STREAMPIM_WIDE_PORTABLE=1 $(CARGO) test -q -p pim-device --test flow_golden

# Benches and examples must stay compilable even when not run.
bench-build:
	$(CARGO) bench --workspace --no-run
	$(CARGO) build --release --examples

# Device-kernel smoke bench, gated on speedup drift against the committed
# baseline (regenerate the baseline in full mode:
# `cargo run --release -p pim-bench --bin bench_device`).
bench-device:
	$(CARGO) run --release -p pim-bench --bin bench_device -- --smoke --out target/BENCH_device_smoke.json --compare BENCH_device.json
	test -s target/BENCH_device_smoke.json

# Cluster scale-out smoke: single-device equivalence, interconnect
# conservation, worker-count determinism across the device grid, and the
# 4-device data-parallel speedup gate — then the scaling-curve bench in
# smoke mode (regenerate the committed curves in full mode:
# `cargo run --release -p pim-bench --bin bench_cluster`).
cluster-smoke:
	$(CARGO) run --release -p pim-bench --bin cluster_smoke
	$(CARGO) run --release -p pim-bench --bin bench_cluster -- --smoke --out target/BENCH_cluster_smoke.json
	test -s target/BENCH_cluster_smoke.json

# Paper-fidelity regression gate: reruns the scaled evaluation and checks
# every figure against the frozen expectations in fidelity.toml.
fidelity:
	$(CARGO) run --release -p pim-bench --bin fidelity_gate

# Service-layer smoke: boots a pim-serve instance on a loopback port,
# exercises submit/poll/result, forces explicit 429s under a concurrent
# burst, scrapes /metrics.prom and /v1/events (strict exposition-format
# validation, request-id correlation), drains, and reconciles the
# metering ledger.
serve-smoke:
	$(CARGO) run --release -p pim-serve --bin serve_smoke

# Observability smoke: the telemetry A/B overhead gate (registry must add
# no measurable cost to the serving path) plus one rendered pim_top frame
# against a live in-process server.
obs-smoke:
	$(CARGO) run --release -p pim-serve --bin obs_overhead
	$(CARGO) run --release -p pim-serve --bin pim_top -- --demo

# Flight-recorder smoke: boots a server with a 1 ns SLO objective so
# every job breaches, then checks the tail sampler retained full records,
# each is fetchable at /v1/debug/requests/<id> with spans + attribution +
# folded stacks, /v1/device/health serves a non-empty wear heatmap, and
# the Prometheus exposition (strictly validated) carries the new families.
flight-smoke:
	$(CARGO) run --release -p pim-serve --bin flight_smoke

# Serving hot-path timing: one traced perfbench `serve_closed` run, reduced
# to the edge round trips (`serve.*`) and the dispatcher's service time.
# Not part of `verify`: it measures host time, which varies by machine.
bench-serve:
	mkdir -p target
	$(CARGO) run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload serve_closed --seed 1 --seconds 10 --trace 1 > target/bench_serve.txt
	grep -E '^metric (serve\.|runtime\.service_ms)' target/bench_serve.txt

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(CARGO) run --release -p pim-bench --bin experiments -- all
