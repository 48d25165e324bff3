#!/bin/sh
# Execution-layer gate: everything that holds naiad-lite's policy driver
# (engine::run_shard over the ShardExec seam) and the aggregation path to
# "same observables under either backend, any worker count, any fault".
#
# 1. naiad-lite's own unit tests (the compiler, RegVm vs BatchVm at every fuel,
#    engine, agg, guard, fault injection).
# 2. The root suites that drive the engine from outside: RegVm against the
#    reference interpreter on random programs (prop_vm), backend parity
#    (chaos sweep plus every early exit of the driver), pushdown on/off
#    parity, the plan guard under both backends, the fail-soft matrix, UDAF
#    determinism, and `run_agg` against a fold on the reference interpreter
#    (prop_agg).
# 3. The benchmark's smoke run: bench/ builds against the engine's public
#    API from source and checks every workload's output against its
#    interpreter oracle (exit 1 on `correct: false`). Timings from a smoke
#    run are not asserted on.
set -eu
cd "$(dirname "$0")/.."

cargo test -q -p naiad-lite
for suite in prop_vm backend_parity prefilter_matrix guard_matrix fault_matrix agg_matrix prop_agg; do
    cargo test -q --test "$suite"
done
bash bench/run.sh --smoke >/dev/null
echo "exec: ok"
