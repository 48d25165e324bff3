#!/bin/sh
# Docs-as-tests: every example under examples/ must build and run to
# completion. The examples double as the README's worked walkthroughs
# (quickstart, fail-soft execution, plan-cache warm start, guarded
# execution, pre-filtered consolidation, ...), and each one asserts its
# own invariants internally (output parity, zero solver work on warm
# hits, demotion self-healing, skip counts) — a panic or non-zero exit
# here means the documented behaviour drifted from the code.
set -eu
cd "$(dirname "$0")/.."

examples="quickstart weather_monitor flight_search scalability \
failsoft warm_start guarded_execution prefiltered service_recovery"

for ex in $examples; do
    [ -f "examples/$ex.rs" ] || { echo "missing examples/$ex.rs" >&2; exit 1; }
done

# Catch examples added to the tree but not to this list.
for f in examples/*.rs; do
    name="$(basename "$f" .rs)"
    case " $examples " in
        *" $name "*) ;;
        *) echo "examples/$name.rs is not run by ci/examples.sh" >&2; exit 1 ;;
    esac
done

for ex in $examples; do
    echo "== example: $ex"
    cargo run --release --example "$ex" >/dev/null
done

# guarded_execution tells its story once per backend (one copy of the plan,
# two loops over it); make sure neither half was dropped, and that in each
# half the guard trip demoted the corrupted plan to the sequential path.
guarded="$(cargo run --release --example guarded_execution 2>/dev/null)"
for backend in per-record columnar; do
    echo "$guarded" | grep -q "^-- backend: $backend\$" \
        || { echo "guarded_execution did not run under $backend" >&2; exit 1; }
    echo "$guarded" | awk -v head="-- backend: $backend" '
        /^-- backend: / { inside = ($0 == head) }
        inside && /^corrupted .*demoted=true$/ { found = 1 }
        END { exit !found }' \
        || { echo "guarded_execution did not demote the corrupted plan under $backend" >&2; exit 1; }
done

echo "examples OK: all $(echo $examples | wc -w) examples ran"
