//! User-defined aggregation execution matrix: worker-count determinism and
//! per-UDAF fault isolation.
//!
//! The invariants under test:
//!
//! 1. **Worker-count determinism** — the consolidated multi-state pass
//!    produces bit-identical final states *and* bit-identical quarantine
//!    reports at 1, 2, and 8 workers (the merge tree is driver-side and
//!    depends only on the chunk grid, never on scheduling).
//! 2. **Mode agreement** — [`AggMode::Separate`], [`AggMode::Consolidated`],
//!    and a sequential single-shard reference fold agree bit-for-bit, under
//!    fault injection included.
//! 3. **Per-UDAF quarantine** — a fold panic excludes the faulting record
//!    from *that* definition's aggregate only; co-resident definitions in
//!    the same shared scan still absorb the record.

use naiad_lite::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
use naiad_lite::{
    AggMode, AggQuerySet, AggReport, Engine, EngineError, ErrorKind, ErrorPolicy, ScalarEnv, UdfEnv,
};
use proptest::prelude::*;
use udf_lang::agg::{parse_agg, AggDef};
use udf_lang::cost::Cost;
use udf_lang::intern::{Interner, Symbol};
use udf_lang::library::LibError;
use udf_lang::FnLibrary;
use udf_obs::names;

/// One generated aggregation shape. `Last` is the non-homomorphic one
/// (`merge` keeps the right state), pinned to the sequential shard.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Sum(i64),
    CountGt(i64),
    SumSq,
    Last,
}

impl Shape {
    fn source(self, id: usize) -> String {
        match self {
            Shape::Sum(w) => format!(
                "aggregate s{id} @{id} (v) {{ state s = 0;
                     fold  {{ p := probe(v); s := s + {w} * p; }}
                     merge {{ s := s + rhs_s; }} }}"
            ),
            Shape::CountGt(t) => format!(
                "aggregate c{id} @{id} (v) {{ state c = 0;
                     fold  {{ if (probe(v) > {t}) {{ c := c + 1; }} }}
                     merge {{ c := c + rhs_c; }} }}"
            ),
            Shape::SumSq => format!(
                "aggregate q{id} @{id} (v) {{ state ss = 0;
                     fold  {{ p := probe(v); ss := ss + p * p; }}
                     merge {{ ss := ss + rhs_ss; }} }}"
            ),
            Shape::Last => format!(
                "aggregate l{id} @{id} (v) {{ state l = -1;
                     fold  {{ l := probe(v); }}
                     merge {{ l := rhs_l; }} }}"
            ),
        }
    }

    fn homomorphic(self) -> bool {
        !matches!(self, Shape::Last)
    }
}

fn defs_of(shapes: &[Shape], interner: &mut Interner) -> (Vec<AggDef>, Vec<bool>) {
    let defs = shapes
        .iter()
        .enumerate()
        .map(|(id, s)| parse_agg(&s.source(id), interner).expect("generated shape parses"))
        .collect();
    let proved = shapes.iter().map(|s| s.homomorphic()).collect();
    (defs, proved)
}

fn quarantine_engine(workers: usize) -> Engine {
    Engine::new(workers).with_error_policy(ErrorPolicy::Quarantine { max_errors: 10_000 })
}

/// Runs the query set over `n_records` faulted scalar records. `probe` is
/// the trigger symbol, interned in the same interner as the definitions.
fn run(
    workers: usize,
    mode: AggMode,
    queries: &AggQuerySet,
    probe: Symbol,
    plan: &FaultPlan,
    n_records: usize,
    interner: &Interner,
) -> AggReport {
    let mut lib = FnLibrary::new();
    lib.register(probe, "probe", 1, 20, |a| a[0]);
    let env = FaultyEnv::new(ScalarEnv::new(1, lib), probe, plan.clone());
    let records =
        FaultyEnv::<ScalarEnv>::index_records((0..n_records).map(|v| vec![v as i64 - 40]));
    // Every fold and merge of the shapes here takes a handful of steps; the
    // small budget makes a looping merge run out of fuel quickly.
    let rep = quarantine_engine(workers)
        .with_retry(2)
        .with_fuel(1000)
        .with_recorder(udf_obs::RecorderCell::memory())
        .run_agg(&env, &records, queries, interner, mode)
        .expect("quarantine policy absorbs record faults");
    let ctx = format!("{workers} workers {mode:?}");
    assert_counters_equal_report(&rep, &ctx);
    // Every (record, definition) pair folds into the kept state exactly
    // once, unless quarantined — a merge-demoted definition's discarded
    // parallel pass included.
    let pairs = n_records * queries.defs.len();
    assert_eq!(
        rep.folds,
        (pairs - rep.quarantine.records_quarantined) as u64,
        "{ctx}"
    );
    // Every retried (record, definition) pair the report keeps either
    // recovered or is an entry carrying its retries.
    let q = &rep.quarantine;
    let unrecovered = q.entries.iter().filter(|e| e.retries > 0).count();
    assert_eq!(
        q.records_retried,
        q.records_recovered + unrecovered,
        "{ctx}"
    );
    rep
}

/// `engine.quarantined.*` and `engine.retries` describe the finalised
/// report (OBSERVABILITY.md), whatever the worker count and mode.
fn assert_counters_equal_report(rep: &AggReport, ctx: &str) {
    let q = &rep.quarantine;
    let snap = rep.metrics.as_ref().expect("memory recorder snapshots");
    let total = snap.counter(names::ENGINE_QUARANTINED);
    assert_eq!(total, q.records_quarantined as u64, "{ctx}");
    for (kind, name) in [
        (
            ErrorKind::DuplicateNotify,
            names::ENGINE_QUARANTINED_DUPLICATE_NOTIFY,
        ),
        (ErrorKind::Lib, names::ENGINE_QUARANTINED_LIB),
        (ErrorKind::OutOfFuel, names::ENGINE_QUARANTINED_OUT_OF_FUEL),
        (ErrorKind::Panic, names::ENGINE_QUARANTINED_PANIC),
    ] {
        let in_report = q.entries.iter().filter(|e| e.kind == kind).count();
        assert_eq!(snap.counter(name), in_report as u64, "{ctx}: {kind}");
    }
    assert_eq!(
        snap.counter(names::ENGINE_RETRIES),
        q.retry_attempts,
        "{ctx}"
    );
}

/// The observable output: (states, post-demotion flags, quarantine report).
fn observable(r: &AggReport) -> (Vec<Vec<i64>>, Vec<bool>, naiad_lite::QuarantineReport) {
    (r.states.clone(), r.proved.clone(), r.quarantine.clone())
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (-3i64..4).prop_map(Shape::Sum),
        (-50i64..120).prop_map(Shape::CountGt),
        Just(Shape::SumSq),
        Just(Shape::Last),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants 1 + 2, property-driven: arbitrary shape mixes, record
    /// counts crossing the chunk boundary, and seeded lib-error/panic
    /// faults. Every (worker count × mode) combination plus the sequential
    /// reference must agree bit-for-bit on states, post-demotion flags, and
    /// the quarantine report.
    #[test]
    fn aggregates_are_bit_identical_across_workers_and_modes(
        shapes in prop::collection::vec(shape_strategy(), 1..5),
        n_records in 1usize..700,
        faults in 0usize..20,
        seed in any::<u64>(),
    ) {
        silence_injected_panics();
        let mut interner = Interner::new();
        let probe = interner.intern("probe");
        let (defs, proved) = defs_of(&shapes, &mut interner);
        let queries = AggQuerySet::new(defs.clone(), proved);
        let sequential = AggQuerySet::sequential(defs);
        let plan = FaultPlan::seeded_kinds(
            seed,
            n_records,
            faults.min(n_records),
            &[FaultKind::LibError, FaultKind::Panic],
        );

        let reference = observable(&run(
            1, AggMode::Consolidated, &sequential, probe, &plan, n_records, &interner,
        ));
        for workers in [1usize, 2, 8] {
            for mode in [AggMode::Separate, AggMode::Consolidated] {
                let got =
                    observable(&run(workers, mode, &queries, probe, &plan, n_records, &interner));
                prop_assert_eq!(
                    (got.0, got.2),
                    (reference.0.clone(), reference.2.clone()),
                    "{workers} workers, {mode:?} must match the sequential reference"
                );
            }
        }
    }
}

#[test]
fn a_fold_panic_quarantines_only_the_owning_udaf() {
    silence_injected_panics();
    let mut interner = Interner::new();
    let probe = interner.intern("probe");
    // `risky` calls the trigger; `safe` never does and must keep every
    // record — including the faulted one — in its aggregate.
    let risky = parse_agg(
        "aggregate risky @1 (v) { state s = 0;
             fold  { p := probe(v); s := s + p; }
             merge { s := s + rhs_s; } }",
        &mut interner,
    )
    .expect("parses");
    let safe = parse_agg(
        "aggregate safe @2 (v) { state n = 0;
             fold  { n := n + 1; }
             merge { n := n + rhs_n; } }",
        &mut interner,
    )
    .expect("parses");
    let queries = AggQuerySet::new(vec![risky, safe], vec![true, true]);
    let faulted = 137usize;
    let n_records = 400usize;
    let plan = FaultPlan::single(faulted, FaultKind::Panic);

    let mut baseline: Option<(Vec<Vec<i64>>, naiad_lite::QuarantineReport)> = None;
    for workers in [1usize, 2, 8] {
        for mode in [AggMode::Separate, AggMode::Consolidated] {
            let rep = run(workers, mode, &queries, probe, &plan, n_records, &interner);
            // Exactly one (record, definition) pair is excluded.
            assert_eq!(rep.quarantine.records_quarantined, 1, "{workers}w {mode:?}");
            let e = &rep.quarantine.entries[0];
            assert_eq!(e.record, faulted);
            assert_eq!(
                e.query,
                Some(udf_lang::ast::ProgId(1)),
                "risky owns the fault"
            );
            // risky sums all records except the faulted one (values v - 40).
            let sum_all: i64 = (0..n_records as i64).map(|v| v - 40).sum();
            assert_eq!(rep.states[0], vec![sum_all - (faulted as i64 - 40)]);
            // safe still counts every record.
            assert_eq!(rep.states[1], vec![n_records as i64]);
            match &baseline {
                None => baseline = Some((rep.states.clone(), rep.quarantine.clone())),
                Some((s, q)) => {
                    assert_eq!(&rep.states, s, "{workers} workers {mode:?}");
                    assert_eq!(&rep.quarantine, q, "{workers} workers {mode:?}");
                }
            }
        }
    }
}

/// The counters-equal-report check inside `run`, on the case that needs
/// the counters to come from the finalised report: transient faults that
/// are retried, and a definition whose merge faults at run time, whose
/// parallel-pass entries are discarded and re-folded and must not be
/// counted twice.
#[test]
fn quarantine_counters_survive_retries_and_merge_demotion() {
    silence_injected_panics();
    let mut interner = Interner::new();
    let probe = interner.intern("probe");
    let (mut defs, mut proved) = defs_of(
        &[Shape::Sum(2), Shape::CountGt(10), Shape::Last],
        &mut interner,
    );
    // Claimed homomorphic, but the merge runs out of fuel: demoted at run time.
    defs.push(
        parse_agg(
            "aggregate sneaky @3 (v) { state s = 0;
                 fold  { p := probe(v); s := s + p; }
                 merge { i := 0; while (i < 100000) { i := i + 1; } s := s + rhs_s; } }",
            &mut interner,
        )
        .expect("parses"),
    );
    proved.push(true);
    let queries = AggQuerySet::new(defs, proved);
    let n_records = 600usize;
    let plan = FaultPlan::seeded_kinds(
        7,
        n_records,
        30,
        &[
            FaultKind::LibError,
            FaultKind::Panic,
            FaultKind::Transient(1),
            FaultKind::Transient(4),
        ],
    );
    for workers in [1usize, 2, 8] {
        for mode in [AggMode::Separate, AggMode::Consolidated] {
            let rep = run(workers, mode, &queries, probe, &plan, n_records, &interner);
            let ctx = format!("{workers} workers {mode:?}");
            assert_eq!(rep.proved, vec![true, true, false, false], "{ctx}");
            let by_kind = |k| {
                rep.quarantine
                    .entries
                    .iter()
                    .filter(|e| e.kind == k)
                    .count()
            };
            assert!(by_kind(ErrorKind::Lib) > 0, "{ctx}");
            assert!(by_kind(ErrorKind::Panic) > 0, "{ctx}");
            assert!(rep.quarantine.retry_attempts > 0, "{ctx}");
        }
    }
}

/// A definition demoted by a merge fault is folded twice — the discarded
/// parallel pass, then the sequential re-fold — but only the kept fold
/// counts: 600 records × 2 definitions, not 600 × 3.
#[test]
fn a_merge_demoted_definition_counts_its_folds_once() {
    let mut interner = Interner::new();
    let probe = interner.intern("probe");
    let (mut defs, mut proved) = defs_of(&[Shape::Sum(1)], &mut interner);
    defs.push(
        parse_agg(
            "aggregate sneaky @1 (v) { state s = 0;
                 fold  { s := s + v; }
                 merge { i := 0; while (i < 100000) { i := i + 1; } s := s + rhs_s; } }",
            &mut interner,
        )
        .expect("parses"),
    );
    proved.push(true);
    let queries = AggQuerySet::new(defs, proved);
    for mode in [AggMode::Separate, AggMode::Consolidated] {
        let rep = run(2, mode, &queries, probe, &FaultPlan::none(), 600, &interner);
        assert_eq!(rep.proved, vec![true, false], "{mode:?}");
        assert_eq!(rep.folds, 1200, "{mode:?}");
        let snap = rep.metrics.as_ref().expect("memory recorder snapshots");
        assert_eq!(snap.counter(names::AGG_FOLDS), 1200, "{mode:?}");
    }
}

/// A merge-demoted definition's discarded parallel pass keeps none of its
/// retry tally. Both definitions fault transiently on record 5 past the
/// retry budget: SUM keeps its entry with 2 retries; `sneaky`'s parallel
/// pass spends the rest of the fault and is discarded, and its sequential
/// re-fold needs no retry.
#[test]
fn a_merge_demoted_definition_keeps_no_retries_of_its_discarded_pass() {
    let mut interner = Interner::new();
    let probe = interner.intern("probe");
    let (mut defs, mut proved) = defs_of(&[Shape::Sum(1)], &mut interner);
    defs.push(
        parse_agg(
            "aggregate sneaky @1 (v) { state s = 0;
                 fold  { p := probe(v); s := s + p; }
                 merge { i := 0; while (i < 100000) { i := i + 1; } s := s + rhs_s; } }",
            &mut interner,
        )
        .expect("parses"),
    );
    proved.push(true);
    let queries = AggQuerySet::new(defs, proved);
    let plan = FaultPlan::single(5, FaultKind::Transient(6));
    for mode in [AggMode::Separate, AggMode::Consolidated] {
        let rep = run(2, mode, &queries, probe, &plan, 600, &interner);
        let q = &rep.quarantine;
        assert_eq!(rep.proved, vec![true, false], "{mode:?}");
        assert_eq!(q.entries.len(), 1, "{mode:?}");
        assert_eq!(
            (q.entries[0].record, q.entries[0].retries),
            (5, 2),
            "{mode:?}"
        );
        assert_eq!(
            (q.records_retried, q.retry_attempts, q.records_recovered),
            (1, 2, 0),
            "{mode:?}"
        );
    }
}

/// Indexed scalar records whose decode panics on one record: a panic
/// outside every fold.
struct Undecodable {
    inner: ScalarEnv,
    bad: usize,
}

impl UdfEnv for Undecodable {
    type Rec = (usize, Vec<i64>);

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn args(&self, rec: &Self::Rec, out: &mut Vec<i64>) {
        if rec.0 == self.bad {
            panic!("cannot decode record {}", rec.0);
        }
        self.inner.args(&rec.1, out);
    }

    fn call(&self, rec: &Self::Rec, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        self.inner.call(&rec.1, f, args)
    }

    fn fn_cost(&self, f: Symbol) -> Cost {
        self.inner.fn_cost(f)
    }
}

/// A chunk lost to a panic outside its folds is reported by its chunk
/// index and its payload, whatever the worker count: record 300 lies in
/// chunk 1 of the 256-record grid.
#[test]
fn a_lost_chunk_names_its_chunk_and_its_panic() {
    let mut interner = Interner::new();
    let probe = interner.intern("probe");
    let (defs, proved) = defs_of(&[Shape::Sum(1)], &mut interner);
    let queries = AggQuerySet::new(defs, proved);
    let mut lib = FnLibrary::new();
    lib.register(probe, "probe", 1, 20, |a| a[0]);
    let env = Undecodable {
        inner: ScalarEnv::new(1, lib),
        bad: 300,
    };
    let records: Vec<(usize, Vec<i64>)> = (0..2000).map(|i| (i, vec![i as i64])).collect();
    for workers in [1usize, 2, 8] {
        for mode in [AggMode::Separate, AggMode::Consolidated] {
            let err = quarantine_engine(workers)
                .run_agg(&env, &records, &queries, &interner, mode)
                .expect_err("record 300 cannot be decoded");
            assert_eq!(
                err,
                EngineError::WorkerPanicked {
                    shard: 1,
                    message: "cannot decode record 300".to_string(),
                },
                "{workers} workers {mode:?}"
            );
            assert_eq!(
                err.to_string(),
                "record shard or aggregation chunk 1 panicked: cannot decode record 300"
            );
        }
    }
}

/// The empty-flag encoding of `max` — the definition whose H2 obligation
/// the solver could not discharge while it blocked one model per conflict.
/// The real prover must now license the parallel pass, and the pass must
/// agree with the sequential fold bit for bit. All-negative inputs and
/// shards that see no record are the cases the flag exists for: a merge
/// that ignored it would report the initial `m = 0`.
#[test]
fn empty_flagged_max_is_proved_and_matches_the_sequential_fold() {
    let mut interner = Interner::new();
    let probe = interner.intern("probe");
    let def = parse_agg(
        "aggregate mx @1 (x) { state has = 0; state m = 0;
           fold { if (has == 0) { m := x; has := 1; }
                  else { if (m < x) { m := x; } else { skip; } } }
           merge { if (rhs_has == 0) { skip; }
                   else { if (has == 0) { m := rhs_m; has := rhs_has; }
                          else { if (m < rhs_m) { m := rhs_m; } else { skip; } } } } }",
        &mut interner,
    )
    .expect("parses");
    let queries = AggQuerySet::prove(vec![def.clone()], &mut interner, &Default::default())
        .expect("prover runs");
    assert_eq!(queries.proved, vec![true], "H1 and H2 are discharged");
    let sequential = AggQuerySet::sequential(vec![def]);
    let plan = FaultPlan::none();
    // Record values are `index − 40`: 30 records are all negative and leave
    // most of 8 workers' shards empty; 700 cross the chunk boundary.
    for (n_records, max) in [(30usize, -11i64), (700, 659)] {
        let reference = run(
            1,
            AggMode::Consolidated,
            &sequential,
            probe,
            &plan,
            n_records,
            &interner,
        );
        assert_eq!(reference.states, vec![vec![1, max]]);
        for workers in [1usize, 2, 8] {
            for mode in [AggMode::Separate, AggMode::Consolidated] {
                let rep = run(workers, mode, &queries, probe, &plan, n_records, &interner);
                let ctx = format!("{n_records} records, {workers} workers, {mode:?}");
                assert_eq!(rep.states, reference.states, "{ctx}");
                assert_eq!(rep.proved, vec![true], "{ctx}: no run-time demotion");
                assert!(rep.quarantine.is_clean(), "{ctx}");
            }
        }
    }
}

/// Invariant 2 with *proved* flags coming from the real prover, over a real
/// domain workload: the stock SUM/CNT/VAR/MIX families at test scale.
#[test]
fn domain_families_agree_across_modes_and_workers() {
    let mut interner = Interner::new();
    let env = udf_data::stock::StockEnv::new(&mut interner);
    let records = udf_data::stock::dataset_sized(12, 300, 7);
    for family in udf_data::agg::families(udf_data::DomainKind::Stock) {
        let defs = (family.build)(4, 21, &mut interner);
        let queries = AggQuerySet::prove(defs.clone(), &mut interner, &Default::default())
            .expect("family proves");
        assert_eq!(
            queries.proved.iter().filter(|p| **p).count() == defs.len(),
            family.provable,
            "family {}",
            family.label
        );
        let reference = quarantine_engine(1)
            .run_agg(
                &env,
                &records,
                &AggQuerySet::sequential(defs),
                &interner,
                AggMode::Consolidated,
            )
            .expect("reference runs");
        for workers in [1usize, 2, 8] {
            for mode in [AggMode::Separate, AggMode::Consolidated] {
                let rep = quarantine_engine(workers)
                    .run_agg(&env, &records, &queries, &interner, mode)
                    .expect("family runs");
                assert_eq!(
                    rep.states, reference.states,
                    "family {} at {workers} workers {mode:?}",
                    family.label
                );
                assert!(rep.quarantine.is_clean(), "healthy dataset");
            }
        }
    }
}
