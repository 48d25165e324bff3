#!/bin/sh
# Solver gate: everything that holds udf-smt's verdicts, and the plans
# built on them, to "sound, and the same as before" when the solver's
# search changes (conflict cores, explanations, limits, which literals a
# final check sees, the CNF's shape).
#
# The search checks only the literals a boolean model needs (relevancy),
# takes a confirmed candidate core as it is (greedy deletion runs only on a
# candidate the theory did not refute), and asserts the root's conjuncts as
# unit clauses. None of that may move a verdict: solver_golden pins the
# verdicts apart from the models and counters, which do move with it, and
# the stock_tail suite bounds the simplex pivots of Stock at eight queries.
#
# 1. udf-smt's and consolidate's own unit tests: simplex and congruence
#    explanations, the sabotaged-candidate test that only passes because
#    every blocking clause is re-checked, the H1/H2 homomorphism proofs.
#    consolidate's `engine_soundness` pair property runs its full 48
#    generated cases here (SOUNDNESS_CASES; a plain `cargo test` runs the
#    first 8 of the same stream so the workspace run stays in budget).
#    In debug builds (these are) every "not valid" the countermodel pool
#    answers is re-asked of a fresh solver, in every suite below as well.
# 2. The root suites that rest on verdicts: brute-force soundness, conflict
#    cores of 12-40-literal conjunctions, the differential against
#    full-set minimisation, udf_smt::eval against the brute-force evaluator
#    and reused countermodels against the solver (prop_solver); the theory
#    kernel's answers, models, cores and work counters on seeded corpora,
#    held to digests pinned before its representation last changed
#    (solver_golden); the paper's examples; incremental vs from-scratch
#    plans; cold vs cached plans; Stock's four families at eight queries
#    under a pivot budget, each merged program held to Thm. 1 (stock_tail).
# 3. The solver's own tests, prop_solver and solver_golden again in the
#    release profile. Overflow checks are off there: an unchecked operation
#    wraps silently instead of panicking, so only the checked_* discipline
#    keeps an overflow an `Unknown`, and these runs are where a slip shows
#    (the `Rat` fast-path test compares against the general formulas).
# 4. The benchmark's cold path at smoke scale, then at full scale for one
#    second: source text to notifications through the solver, every output
#    checked against the interpreter oracle (exit 1 on `correct: false`).
#    Timings are not asserted on; the plans are: the counts below are exact
#    and deterministic on the default seeds (42/42) and on the held-out pair
#    (--seed 20140609 --query-seed 7), so a solver, pool or cache change
#    that alters one plan fails here in a minute, not in a 20-minute bench
#    comparison. The full-scale counts are the ones every performance
#    change to Ω is held to. A change that is meant to alter plans updates
#    them, and says so.
set -eu
cd "$(dirname "$0")/.."

SOUNDNESS_CASES=48 cargo test -q -p udf-smt -p consolidate
cargo test -q --test prop_solver --test solver_golden --test paper_examples --test delta_equivalence --test warm_cache_parity --test stock_tail
cargo test --release -q -p udf-smt
cargo test --release -q --test prop_solver --test solver_golden
plan_is() {
    got="$(printf '%s\n' "$out" | awk -v name="$1" '$1 == name { print $2; exit }')"
    if [ "$got" != "$2" ]; then
        echo "solver: plan identity broken ($seeds): $1 is ${got:-missing}, expected $2" >&2
        exit 1
    fi
}
seeds="42/42"
out="$(bash bench/run.sh --smoke --workload cold-omega)"
plan_is consolidate.rules_fired 76.000000
plan_is consolidate.merged_size_ratio 2.434389
plan_is plan_cost_ratio 0.326262
plan_is consolidate.full_tier_share 1.000000
seeds="20140609/7"
out="$(bash bench/run.sh --smoke --workload cold-omega --seed 20140609 --query-seed 7)"
plan_is consolidate.rules_fired 83.000000
plan_is consolidate.merged_size_ratio 2.337900
plan_is plan_cost_ratio 0.341973
plan_is consolidate.full_tier_share 1.000000
seeds="42/42, full scale"
out="$(bash bench/run.sh --workload cold-omega --seconds 1)"
plan_is consolidate.rules_fired 524.000000
plan_is consolidate.merged_size_ratio 3.353890
plan_is plan_cost_ratio 0.259976
plan_is consolidate.full_tier_share 1.000000
seeds="20140609/7, full scale"
out="$(bash bench/run.sh --workload cold-omega --seconds 1 --seed 20140609 --query-seed 7)"
plan_is consolidate.rules_fired 604.000000
plan_is consolidate.merged_size_ratio 3.347950
plan_is plan_cost_ratio 0.260604
plan_is consolidate.full_tier_share 1.000000
echo "solver: ok"
