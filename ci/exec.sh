#!/bin/sh
# Execution-layer gate: everything that holds naiad-lite's execution to
# "same observables under either backend, any worker count, any fault".
# Record shards (engine::run_shard over the ShardExec seam) and aggregation
# chunks (agg::fold_span) share one failure policy, the private module
# naiad-lite/src/policy.rs: one task runner, one isolated attempt, one
# transient-retry loop, one quarantine admission rule.
#
# 1. naiad-lite's own unit tests (the compiler, RegVm vs BatchVm at every fuel,
#    engine, agg, guard, the task runner, fault injection).
# 2. The root suites that drive the engine from outside: RegVm against the
#    reference interpreter on random programs (prop_vm), backend parity
#    (chaos sweep plus every early exit of the driver), pushdown on/off
#    parity, the plan guard under both backends, the fail-soft matrix, UDAF
#    determinism, and `run_agg` against a fold on the reference interpreter
#    (prop_agg).
# 3. udf-serve's tests: the service is the engine's production caller, and
#    they pin its epoch guard auditing every consolidated record.
# 4. The benchmark's smoke run: bench/ builds against the engine's public
#    API from source and checks every workload's output against its
#    interpreter oracle (exit 1 on `correct: false`). Timings from a smoke
#    run are not asserted on.
set -eu
cd "$(dirname "$0")/.."

cargo test -q -p naiad-lite
for suite in prop_vm backend_parity prefilter_matrix guard_matrix fault_matrix agg_matrix prop_agg; do
    cargo test -q --test "$suite"
done
cargo test -q -p udf-serve
bash bench/run.sh --smoke >/dev/null
echo "exec: ok"
