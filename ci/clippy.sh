#!/bin/sh
# Lint gate for the whole workspace, in two tiers.
#
# The fail-soft layers — naiad-lite (engine, quarantine, fault injection),
# consolidate (budgeted consolidation), plan-cache (shared plan store),
# udf-serve (the long-lived service: a panic drops every tenant), and
# udf-obs (instrumentation must never panic the host) — must not unwrap in
# production code: faults are data here, not bugs. For them
# clippy::unwrap_used is denied on top of all default warnings; integration
# tests and unit-test modules opt back in via explicit allow attributes. The
# remaining crates (language, solver, datasets, benches) and the root
# package (the cross-crate suites under tests/, the qc binary, the examples)
# are held to -D warnings.
#
# Before either tier, the workspace must be rustfmt-clean: `cargo fmt --all
# --check` fails on any file the formatter would rewrite (the workspace
# members and their vendored path dependencies; bench/ is a workspace of
# its own and is not checked).
set -eu
cd "$(dirname "$0")/.."
cargo fmt --all --check
cargo clippy -p naiad-lite -p consolidate -p plan-cache -p udf-serve -p udf-obs --all-targets --no-deps -- \
    -D warnings -D clippy::unwrap_used
cargo clippy -p udf-lang -p udf-smt -p udf-data -p udf-bench -p query-consolidation \
    --all-targets --no-deps -- -D warnings
