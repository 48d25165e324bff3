#!/bin/sh
# Solver gate: everything that holds udf-smt's verdicts, and the plans
# built on them, to "sound, and the same as before" when the solver's
# search changes (conflict cores, explanations, limits).
#
# 1. udf-smt's and consolidate's own unit tests: simplex and congruence
#    explanations, the sabotaged-candidate test that only passes because
#    every blocking clause is re-checked, the H1/H2 homomorphism proofs.
# 2. The root suites that rest on verdicts: brute-force soundness, conflict
#    cores of 12-40-literal conjunctions and the differential against
#    full-set minimisation (prop_solver); the paper's examples; incremental
#    vs from-scratch plans; cold vs cached plans.
# 3. The benchmark's cold path at smoke scale: source text to notifications
#    through the solver, every output checked against the interpreter
#    oracle (exit 1 on `correct: false`). Timings are not asserted on.
set -eu
cd "$(dirname "$0")/.."

cargo test -q -p udf-smt -p consolidate
cargo test -q --test prop_solver --test paper_examples --test delta_equivalence --test warm_cache_parity
bash bench/run.sh --smoke --workload cold-omega >/dev/null
echo "solver: ok"
