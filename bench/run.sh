#!/usr/bin/env bash
# One command for the whole benchmark:
#   bench/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
# Builds the benchmark from source, then runs one workload (or, without
# --workload, all four, each in its own process so peak_rss_mb is per
# workload). Exits non-zero if the build fails or any output is wrong.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path bench/Cargo.toml --target-dir "$target" >&2

mkdir -p bench/out
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_JOURNAL_FS="$(stat -f -c %T bench/out 2>/dev/null || echo unknown)"

bin="$target/release/udf-perfbench"
workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--workload" ]]; then
        workload="${args[i + 1]:-}"
    fi
done
if [[ -n "$workload" ]]; then
    exec "$bin" "$@"
fi
status=0
for w in cold-omega warm-scan serve-steady serve-churn; do
    "$bin" --workload "$w" "$@" || status=$?
done
exit "$status"
