//! `cold-omega`: per rep and per cell, from a fresh interner, a fresh
//! entailment memo and no plan cache — source text → `parse_programs` →
//! `consolidate_many` → lower → one `Engine::run` over a small dataset →
//! notification counts. Ω and udf-smt do nearly all the work, the executor
//! almost none: a solver change must show here, an executor change must not.

use crate::cells::{self, AnyCell, Cell, EnvCost, Gen};
use crate::harness::{
    add, get, ratio, record_smt_ms, smt_check_ms, Config, Cx, Layers, RepOut, Variant, Workload,
};
use crate::trace::Tracer;
use consolidate::{DegradationTier, Options};
use naiad_lite::engine::{Engine, ExecMode};
use naiad_lite::env::UdfEnv;
use udf_lang::cost::CostModel;

pub struct ColdOmega {
    cells: Vec<Box<dyn AnyCell>>,
    workers: usize,
}

/// Cells where Ω is expensive and the scan is not (see the README for the
/// measured cost of each and why Stock stops at n = 4).
pub fn setup(cfg: &Config, tr: &mut Tracer, layers: &mut Layers) -> Result<ColdOmega, String> {
    let mut g = Gen {
        seed: cfg.seed,
        query_seed: cfg.query_seed,
        tr,
        layers,
    };
    let cells = if cfg.smoke {
        vec![
            cells::weather(&mut g, "Q3", 6, 8, false)?,
            cells::twitter(&mut g, "BC", 6, 500, false)?,
        ]
    } else {
        vec![
            // Loop fusion (Loop 2/3 with inferred invariants).
            cells::weather(&mut g, "Q3", 21, 8, false)?,
            // The family ROADMAP item 2 names.
            cells::flight(&mut g, "Q1", 16, 1, false)?,
            // Boolean combinations: many cheap checks.
            cells::twitter(&mut g, "BC", 12, 500, false)?,
            // Where ms/check is highest.
            cells::stock(&mut g, "Q1", 4, 8, false)?,
        ]
    };
    Ok(ColdOmega {
        cells,
        workers: cfg.workers,
    })
}

impl Workload for ColdOmega {
    fn rep(&mut self, _index: usize, variant: Variant, tr: &mut Tracer, out: &mut RepOut) {
        let mut cx = Cx {
            tr,
            recorder: variant.recorder(),
            workers: self.workers,
            out,
            acc: Layers::new(),
        };
        let rep = cx.tr.open("bench", "rep");
        for cell in &self.cells {
            let result = cell.cold(&mut cx);
            cx.out.attempt(result);
        }
        cx.out.wall_s = cx.tr.close(rep);
        // Throughput here is source text to notifications: records over the whole rep.
        cx.out.records_wall_s = cx.out.wall_s;

        let Cx {
            recorder, out, acc, ..
        } = cx;
        let l = &mut out.layers;
        for (name, num, den) in [
            ("consolidate.memo_hit_ratio", "memo_hits", "memo_lookups"),
            (
                "consolidate.merged_size_ratio",
                "merged_size",
                "source_size",
            ),
            ("consolidate.full_tier_share", "full_tier", "cells"),
            ("plan_cost_ratio", "cons_cost", "many_cost"),
            ("naiad-lite.per_record_ns_per_rec", "cons_ns", "records"),
            ("naiad-lite.many_ns_per_rec", "many_ns", "records"),
            ("naiad-lite.udf_speedup", "many_udf_s", "cons_udf_s"),
        ] {
            l.insert(name, ratio(&acc, num, den));
        }
        let rep_ms = out.wall_s * 1e3;
        l.insert(
            "share.omega_of_rep",
            get(l, "consolidate.omega_ms") / rep_ms,
        );
        let engine_ms = (get(&acc, "cons_ns") + get(&acc, "many_ns")) / 1e6;
        l.insert("share.engine_of_rep", engine_ms / rep_ms);
        if let Some(ms) = smt_check_ms(&recorder) {
            record_smt_ms(l, ms);
        }
    }
}

pub fn cold_cell<E: UdfEnv>(cell: &Cell<E>, cx: &mut Cx) -> Result<(), String> {
    let span = cx.tr.open("bench", cell.name);
    let result = cold_cell_body(cell, cx);
    let wall = cx.tr.close(span);
    cx.out.ops_ms.push(wall * 1e3);
    result
}

fn cold_cell_body<E: UdfEnv>(cell: &Cell<E>, cx: &mut Cx) -> Result<(), String> {
    let cm = CostModel::default();
    // `memo: None` makes `consolidate_many` install a fresh memo per call.
    let opts = Options {
        recorder: cx.recorder.clone(),
        prefilter: cell.prefilter,
        ..Options::default()
    };
    let mut interner = cell.base.clone();

    let (programs, s) = cx.tr.timed("udf-lang", "parse_programs", || {
        udf_lang::parse::parse_programs(&cell.source, &mut interner)
    });
    let programs = programs.map_err(|e| format!("{}: parse: {e:?}", cell.name))?;
    add(&mut cx.out.layers, "udf-lang.parse_ms", s * 1e3);

    let (merged, s) = cx.tr.timed("consolidate", "consolidate_many", || {
        consolidate::consolidate_many(
            &programs,
            &mut interner,
            &cm,
            &EnvCost(&cell.env),
            &opts,
            true,
        )
    });
    let merged = merged.map_err(|e| format!("{}: consolidate_many: {e}", cell.name))?;
    let st = &merged.stats;
    let l = &mut cx.out.layers;
    add(l, "consolidate.omega_ms", s * 1e3);
    add(
        l,
        "consolidate.entail_queries",
        st.entailment_queries as f64,
    );
    add(l, "udf-smt.checks", st.solver.checks as f64);
    add(l, "udf-smt.sat_conflicts", st.solver.sat_conflicts as f64);
    add(l, "udf-smt.simplex_pivots", st.solver.simplex_pivots as f64);
    let r = &st.rules;
    let fired = r.if_eliminated + r.if3 + r.if4 + r.if5 + r.loop2 + r.loop3;
    add(l, "consolidate.rules_fired", fired as f64);
    add(&mut cx.acc, "memo_hits", st.memo_hits as f64);
    add(
        &mut cx.acc,
        "memo_lookups",
        (st.memo_hits + st.solver.checks) as f64,
    );
    add(&mut cx.acc, "merged_size", merged.program.size() as f64);
    let source_size: usize = programs.iter().map(|p| p.size()).sum();
    add(&mut cx.acc, "source_size", source_size as f64);
    add(
        &mut cx.acc,
        "full_tier",
        f64::from(u8::from(st.tier == DegradationTier::Full)),
    );
    add(&mut cx.acc, "cells", 1.0);

    let (qs, s) = cx.tr.timed("naiad-lite", "lower", || {
        cells::lower(&cell.env, &programs, &merged)
    });
    let qs = qs.map_err(|e| format!("{}: lower: {e}", cell.name))?;
    add(&mut cx.out.layers, "naiad-lite.lower_ms", s * 1e3);

    // Cost tracking on: the two passes also give Thm. 1's cost half.
    let engine = Engine::new(cx.workers).with_recorder(cx.recorder.clone());
    let (cons, cons_s) = cx.tr.timed("naiad-lite", "Engine::run(Consolidated)", || {
        engine.run(&cell.env, &cell.records, &qs, ExecMode::Consolidated, true)
    });
    let cons = cons.map_err(|e| format!("{}: run consolidated: {e}", cell.name))?;
    let (many, many_s) = cx.tr.timed("naiad-lite", "Engine::run(Many)", || {
        engine.run(&cell.env, &cell.records, &qs, ExecMode::Many, true)
    });
    let many = many.map_err(|e| format!("{}: run many: {e}", cell.name))?;
    let n = cell.records.len() as f64;
    add(&mut cx.acc, "records", n);
    add(&mut cx.acc, "cons_ns", cons_s * 1e9);
    add(&mut cx.acc, "many_ns", many_s * 1e9);
    add(&mut cx.acc, "cons_udf_s", cons.udf_time.as_secs_f64());
    add(&mut cx.acc, "many_udf_s", many.udf_time.as_secs_f64());
    add(&mut cx.acc, "cons_cost", cons.cost.unwrap_or(0) as f64);
    add(&mut cx.acc, "many_cost", many.cost.unwrap_or(0) as f64);
    cx.out.records += cell.records.len() as u64;

    if cons.counts != cell.expected || many.counts != cell.expected {
        return Err(format!(
            "{}: notification counts differ from the interpreter: consolidated {:?}, many {:?}, expected {:?}",
            cell.name, cons.counts, many.counts, cell.expected
        ));
    }
    if cons.missing.iter().chain(&many.missing).any(|&m| m != 0) {
        return Err(format!(
            "{}: a query did not notify on some record",
            cell.name
        ));
    }
    if cons.cost > many.cost {
        return Err(format!(
            "{}: consolidated cost {:?} exceeds sequential cost {:?}",
            cell.name, cons.cost, many.cost
        ));
    }
    Ok(())
}
