#!/bin/sh
# Documentation gate: every public item in the workspace must document
# cleanly. `-D warnings` turns rustdoc lints (broken intra-doc links, bare
# URLs, invalid code-block attributes) into hard failures, so the metric
# registry in udf-obs and the OBSERVABILITY.md cross-references stay
# accurate as the surface grows.
set -eu
cd "$(dirname "$0")/.."
# The vendored crates (rand/proptest subsets) are not held to the
# gate — list the workspace's own crates explicitly, the root package (the
# facade library and the `qc` binary) included.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items \
    -p udf-lang -p udf-smt -p udf-obs -p consolidate -p plan-cache \
    -p naiad-lite -p udf-serve -p udf-data -p udf-bench -p query-consolidation
