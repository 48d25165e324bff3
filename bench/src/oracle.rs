//! The independent reference every output is checked against: the
//! tree-walking interpreter of `udf-lang` over the *original* programs.
//! Nothing here goes through a VM, the Ω engine or the plan cache, and all
//! of it runs in set-up, outside every timed region.

use naiad_lite::env::{RecordLibrary, UdfEnv};
use udf_lang::agg::AggDef;
use udf_lang::ast::Program;
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::Interp;

/// `truth[q][r]`: whether query `q` notifies `true` on record `r`.
pub fn truth_table<E: UdfEnv>(
    env: &E,
    records: &[E::Rec],
    programs: &[Program],
    interner: &Interner,
) -> Result<Vec<Vec<bool>>, String> {
    let cm = CostModel::default();
    let mut truth = vec![Vec::with_capacity(records.len()); programs.len()];
    let mut args = Vec::new();
    for rec in records {
        args.clear();
        env.args(rec, &mut args);
        let lib = RecordLibrary::new(env, rec);
        let interp = Interp::new(cm.clone(), &lib);
        for (q, p) in programs.iter().enumerate() {
            let run = interp
                .run(p, &args, interner)
                .map_err(|e| format!("interpreter failed on query @{}: {e:?}", p.id.0))?;
            let verdict = run
                .notifications
                .get(p.id)
                .ok_or_else(|| format!("query @{} did not notify", p.id.0))?;
            truth[q].push(verdict);
        }
    }
    Ok(truth)
}

/// Expected per-query notification counts over `records`.
pub fn notify_counts<E: UdfEnv>(
    env: &E,
    records: &[E::Rec],
    programs: &[Program],
    interner: &Interner,
) -> Result<Vec<u64>, String> {
    Ok(truth_table(env, records, programs, interner)?
        .iter()
        .map(|row| row.iter().filter(|&&b| b).count() as u64)
        .collect())
}

/// Expected final aggregation states: a sequential interpreter fold of each
/// definition's `fold_view` over the records, in record order.
pub fn agg_states<E: UdfEnv>(
    env: &E,
    records: &[E::Rec],
    defs: &[AggDef],
    interner: &Interner,
) -> Result<Vec<Vec<i64>>, String> {
    let cm = CostModel::default();
    let views: Vec<Program> = defs.iter().map(AggDef::fold_view).collect();
    let mut states: Vec<Vec<i64>> = defs.iter().map(AggDef::init_state).collect();
    let mut args = Vec::new();
    for rec in records {
        let lib = RecordLibrary::new(env, rec);
        let interp = Interp::new(cm.clone(), &lib);
        for ((def, view), state) in defs.iter().zip(&views).zip(&mut states) {
            args.clear();
            args.extend_from_slice(state);
            env.args(rec, &mut args);
            let run = interp
                .run(view, &args, interner)
                .map_err(|e| format!("interpreter failed on aggregate @{}: {e:?}", def.id.0))?;
            for (slot, value) in def.state.iter().zip(state.iter_mut()) {
                *value = run.env[&slot.name];
            }
        }
    }
    Ok(states)
}
