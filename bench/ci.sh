#!/usr/bin/env bash
# Build, smoke-run all four workloads in both trace modes, and validate what
# they print against BENCHMARK.json (see `check.py validate`). A few seconds
# per workload.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 bench/check.py validate --smoke
