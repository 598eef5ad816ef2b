#!/usr/bin/env bash
# Tier-1 verification: the whole workspace (every crate, bin, example, and
# test target) must build in release mode and the full test suite (unit +
# integration + doc tests, including the backend trait-conformance suite and
# the golden-file snapshots under tests/golden/) must pass. Everything is
# offline: all external dependencies are path stubs under vendor/.
#
# Time knobs for slow machines: PROPTEST_CASES caps property-test cases and
# GOLDEN_RUNS=0 skips the golden-file binary runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
# Compiler warnings are gate failures: the workspace must build warning-free.
RUSTFLAGS="-D warnings" cargo build --release --workspace --all-targets
# Rustdoc warnings (broken intra-doc links, redundant link targets) are gate
# failures too: a deleted or renamed item must not leave a dangling link.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo test -q
cargo test -q -p timely-sim
cargo test -q -p timely-dse
cargo test -q -p timely-baselines   # backend trait-conformance suite
cargo test -q -p timely-lint        # lexer/rule units + fixtures + self-check
cargo test -q -p timely-obs         # deterministic telemetry + trace export
# Static analysis gate (lint.toml): determinism, panic-freedom, unit
# discipline, float-eq, call-graph panic-reachability, hot-loop allocation
# checks — plus the suppression budget ratchet (the run exits nonzero when
# the live suppression count drifts from [budget] in either direction).
# Runs before the golden-file studies so an invariant slip fails fast with
# file:line [rule] output; use --fix-hints locally for suggested rewrites.
cargo run --release -p timely-lint -- --fix-hints
# The machine-readable report must be byte-identical across runs (same
# discipline as the golden studies).
cargo run --release -p timely-lint -- --json > target/lint_report_a.json
cargo run --release -p timely-lint -- --json > target/lint_report_b.json
cmp target/lint_report_a.json target/lint_report_b.json
# No suppression may outlive the code it suppresses.
cargo run --release -p timely-lint -- --stale-allows
# The serving study also exercises the observability exports: the bin
# validates the Chrome trace by parsing it back through the vendored serde
# stubs before writing it (byte-identical across runs; golden-pinned too).
cargo run --release -p timely-bench --bin serving_study -- --smoke \
    --trace target/trace_smoke.json --metrics target/metrics_smoke.txt > /dev/null
cargo run --release -p timely-bench --bin dse_study -- --smoke > /dev/null
cargo run --release -p timely-bench --bin backend_matrix > /dev/null
# The repository benchmark (perfbench/, pinned by BENCHMARK.json) is its own
# cargo workspace, so the builds above never compile it. Run every workload
# for one second and require its deterministic correctness verdict (report
# digests against the recorded ones): an API change that breaks the
# benchmark, or a report drift, fails here. Timings are not gated.
# The serving workloads also run traced at the held-out seed 20261017, which
# has no recorded digest: there the gate requires repeated and traced runs
# to give the same digest, so an event-queue change that leaked into pop
# order would fail.
for run in serve-fleet:1:0 serve-burst:1:0 dse-screen:1:0 dse-serve:1:0 \
    serve-fleet:20261017:1 serve-burst:20261017:1; do
    IFS=: read -r workload seed trace <<< "$run"
    verdict=$(cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace "$trace" | tail -n 1)
    if [[ "$verdict" != '{"correct": true'* ]]; then
        echo "perfbench $workload (seed $seed): not correct: $verdict" >&2
        exit 1
    fi
done
echo "tier-1 verify: OK"
