#!/usr/bin/env bash
# Tier-1 verification: offline release build + the full test suite,
# plus formatting and lint gates (rustfmt, clippy with -D warnings).
# This is the gate every PR must keep green (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline
cargo clippy --workspace --offline --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q --offline --workspace

# The benchmark harness builds the workspace crates from source by path,
# so a public-API change that breaks it fails here, not at benchmark time.
cargo test -q --offline --locked --manifest-path iobench/Cargo.toml

# The convergence oracle (crash the control plane at every tick boundary
# of every fault scenario) is too heavy for the debug suite; its tests
# are #[ignore]d there and run here in release.
cargo test -q --offline -p iorch-bench --release --test convergence -- --include-ignored

# Cluster-wide convergence oracle: crash the controller and each node at
# every tick of the cluster fault scenarios (node_crash, net_partition),
# seeds {7, 42, 1337}; the recovered steady-state digest must be
# byte-identical to the no-extra-fault run's.
cargo test -q --offline -p iorch-bench --release --test cluster_convergence -- --include-ignored

# Policy-redesign byte-identity oracle: every plane expressed as a policy
# set must replay every tracedump scenario (7 variants x 8 scenarios x
# seeds {7, 42, 1337}) to the committed fingerprints of the pre-redesign
# planes' timelines and decision logs in
# crates/bench/tests/fingerprints/traces.txt (the exhaustive sweep is
# #[ignore]d in debug).
cargo test -q --offline -p iorch-bench --release --test policy_equivalence -- --include-ignored

# Ablation sweep at the full profile: all seven named policy sets must
# provision and complete the bursty run on one engine, and the parameter
# ablations must run to completion (about 1.5 s in all).
cargo build --release --offline -p iorch-bench --bin experiments
target/release/experiments run ablation --profile full --seed 42 --out target/exp-ablation --quiet

# Declarative-runner smoke sweep: every named experiment runs at the
# smoke profile and every emitted JSON artifact must pass schema
# validation (required keys, finite numbers, nonzero sample counts).
rm -rf target/exp-smoke
target/release/experiments run all --profile smoke --seed 42 --out target/exp-smoke --quiet
target/release/experiments validate target/exp-smoke

# The cluster family (part of `run all` above) doubles as a gate: it
# fails unless every (nodes, fault) cell converges to the no-fault
# steady state with zero duplicated ownership. Its artifact
# (target/exp-smoke/cluster/cluster.json) is validated above and its
# bytes are pinned by the artifact fingerprints checked below.

# Control-plane scaling gate: `run all` skips wall-clock (timing) specs,
# so the scale experiment runs by name here. It regenerates
# BENCH_scale.json (schema-validated below, like every other artifact)
# and fails unless the 1024-domain steady-state control tick stays
# within 4x of the 16-domain tick and the 1024-domain churn cost per
# domain within 1.75x of the 16-domain figure.
rm -rf target/exp-scale
target/release/experiments run scale --profile smoke --seed 42 --out target/exp-scale
target/release/experiments validate target/exp-scale
target/release/experiments validate BENCH_scale.json

# Golden-summary regression suite: byte-identical smoke artifacts across
# repeated runs and seeds {7, 42, 1337}; at seed 42 every artifact must
# also match crates/bench/tests/fingerprints/smoke_seed42.txt (the
# telemetry rows are skipped with tracing compiled out, the one family
# fed by the trace tap). Plus the live-telemetry non-interference
# contract (the exhaustive sweep is #[ignore]d in debug).
cargo test -q --offline -p iorch-bench --release --test experiment_determinism -- --include-ignored

# Page-cache differential oracle: the slab/LRU-list/dirty-FIFO cache must
# match a naive Vec-based reference model on every return value and
# counter, across seed-swept op scripts at capacities of 1-8 chunks (the
# heavy sweep is #[ignore]d in debug).
cargo test -q --offline -p iorch-guestos --release --test pagecache_model -- --include-ignored

# Control-tick differential oracles: the memoized, merge-joined cluster
# controller must send the same message stream as a naive reference and
# serve desired() equal to a fresh placement pass; the change-driven
# co-scheduling rule must push exactly what an every-domain-every-tick
# reference pushes (heavy sweeps #[ignore]d in debug).
cargo test -q --offline -p iorchestra --release --test controller_model --test cosched_model -- --include-ignored

# Timer-wheel differential oracle: the wheel scheduler must fire the
# exact same events in the exact same order as the frozen binary-heap
# engine, across randomized op scripts (run in release for seed volume).
cargo test -q --offline -p iorch-bench --release --test scheduler_differential

# Hot-path perf gate: regenerates BENCH_hotpath.json at full measure and
# fails if any gated row (store write/read, watch fan-out, batched
# fan-out, control tick, scheduler churn) drops below its threshold.
scripts/bench_hotpath.sh

# The trace layer must also build and pass with the instrumentation
# compiled out (the production hot-path configuration).
export RUSTFLAGS="${RUSTFLAGS:-} --cfg iorch_trace_off"
cargo build --release --offline --workspace
cargo test -q --offline --workspace

echo "tier1 OK"
