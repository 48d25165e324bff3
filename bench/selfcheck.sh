#!/usr/bin/env bash
# Run the full benchmark twice on the same commit and seed and fail unless the
# two sets agree within the bounds of BENCHMARK.json (see `check.py selfcheck`).
# Writes bench/out/selfcheck.json. About 12 minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 bench/check.py selfcheck "$@"
