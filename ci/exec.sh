#!/bin/sh
# Execution-layer gate: everything that holds naiad-lite's execution to
# "same observables under either backend, any worker count, any fault".
# Record shards (engine::run_shard over the ShardExec seam) and aggregation
# chunks (agg::fold_span) share one failure policy, the private module
# naiad-lite/src/policy.rs: one task runner, one isolated attempt, one
# transient-retry loop, one quarantine admission rule.
#
# 1. udf-lang's tests: `FnLibrary` (the symbol-indexed table every external
#    call goes through) and the reference interpreter the machines are held
#    to.
# 2. naiad-lite's own unit tests (the compiler and its superinstructions,
#    RegVm vs BatchVm at every fuel with the calls each record sees, engine,
#    agg, guard, the task runner, fault injection).
# 3. The root suites that drive the engine from outside: RegVm against the
#    reference interpreter and against BatchVm on random programs (prop_vm),
#    the emitted bytecode against its pinned digests (lowering_golden),
#    backend parity (chaos sweep plus every early exit of the driver),
#    pushdown on/off parity, the plan guard under both backends, the
#    fail-soft matrix, UDAF determinism, and `run_agg` against a fold on the
#    reference interpreter (prop_agg).
# 4. udf-serve's tests: the service is the engine's production caller, and
#    they pin its epoch guard auditing every consolidated record.
# 5. The benchmark's smoke run: bench/ builds against the engine's public
#    API from source and checks every workload's output against its
#    interpreter oracle (exit 1 on `correct: false`). Timings from a smoke
#    run are not asserted on.
#
# First, nothing in production depends on the plan store: plan-cache is a
# leaf that only the benchmark's warm-scan workload, the warm_start example
# and tests use. It keys on naiad-lite's ExecBackend and frames its snapshot
# with udf-serve's framing, never the other way round.
set -eu
cd "$(dirname "$0")/.."

for crate in naiad-lite udf-serve udf-bench consolidate; do
    if cargo tree --offline -p "$crate" -e normal | grep -q "plan-cache"; then
        echo "$crate depends on plan-cache (cargo tree -p $crate -e normal)" >&2
        exit 1
    fi
done

cargo test -q -p udf-lang
cargo test -q -p naiad-lite
for suite in prop_vm lowering_golden backend_parity prefilter_matrix guard_matrix fault_matrix agg_matrix prop_agg; do
    cargo test -q --test "$suite"
done
cargo test -q -p udf-serve
bash bench/run.sh --smoke >/dev/null
echo "exec: ok"
