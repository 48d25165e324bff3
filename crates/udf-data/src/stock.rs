//! Stock domain (paper §6.2): ~377k synthetic daily rows for a Nasdaq-100
//! style universe (100 tickers × ~3774 trading days), standing in for the
//! Yahoo-Finance history (see `DESIGN.md`). Prices follow a geometric random
//! walk; volumes are noisy around a per-ticker base.
//!
//! Records are per *company* (the unit the paper's queries filter), and the
//! daily rows are accessed through `closeAt(d)` / `volumeAt(d)`. The query
//! families are window aggregations written as explicit loops — exactly the
//! shape that exercises Loop 2/Loop 3 fusion:
//!
//! * **Q1** — average volume over a window above a threshold;
//! * **Q2** — maximum closing value over a window above a threshold;
//! * **Q3** — variance of the close over a window above a threshold
//!   (fixed-point, no square root);
//! * **BC** — boolean combinations: two window aggregations per UDF.

use crate::util::rng;
use crate::Family;
use naiad_lite::env::UdfEnv;
use rand::Rng;
use udf_lang::ast::Program;
use udf_lang::cost::Cost;
use udf_lang::intern::{Interner, Symbol};
use udf_lang::library::LibError;
use udf_lang::parse::parse_program;

/// Trading days per ticker (100 × 3774 ≈ the paper's 377423 rows).
pub const DAYS: usize = 3_774;
/// Number of tickers.
pub const DEFAULT_TICKERS: usize = 100;
/// Aggregation window length used by the query families.
pub(crate) const WINDOW: i64 = 250;

/// One company's history.
#[derive(Debug, Clone)]
pub struct Ticker {
    /// Ticker id.
    pub id: i64,
    /// Daily closing price in cents.
    pub close: Vec<i32>,
    /// Daily volume in thousands.
    pub volume: Vec<i32>,
}

/// Environment: `closeAt(d)` / `volumeAt(d)` accessors.
#[derive(Debug, Clone)]
pub struct StockEnv {
    close_at: Symbol,
    volume_at: Symbol,
}

impl StockEnv {
    /// Creates the environment.
    pub fn new(interner: &mut Interner) -> StockEnv {
        StockEnv {
            close_at: interner.intern("closeAt"),
            volume_at: interner.intern("volumeAt"),
        }
    }
}

impl UdfEnv for StockEnv {
    type Rec = Ticker;

    fn arity(&self) -> usize {
        1
    }

    fn args(&self, rec: &Ticker, out: &mut Vec<i64>) {
        out.push(rec.id);
    }

    fn call(&self, rec: &Ticker, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        let series: &[i32] = if f == self.close_at {
            &rec.close
        } else if f == self.volume_at {
            &rec.volume
        } else {
            return Err(LibError::UnknownFunction(format!("#{}", f.index())));
        };
        if args.len() != 1 {
            return Err(LibError::ArityMismatch {
                name: "seriesAt".to_owned(),
                expected: 1,
                got: args.len(),
            });
        }
        let d = args[0].rem_euclid(series.len() as i64) as usize;
        Ok(i64::from(series[d]))
    }

    fn fn_cost(&self, _f: Symbol) -> Cost {
        5 // array access
    }
}

/// Generates `n` tickers of `days` days.
pub fn dataset_sized(n: usize, days: usize, seed: u64) -> Vec<Ticker> {
    let mut r = rng("stock", "data", seed);
    (0..n)
        .map(|id| {
            let mut price = r.gen_range(1_000..40_000); // cents
            let base_vol = r.gen_range(100..5_000);
            let mut close = Vec::with_capacity(days);
            let mut volume = Vec::with_capacity(days);
            for _ in 0..days {
                // Geometric-ish random walk, ±2% daily.
                let delta = price * r.gen_range(-20..21) / 1000;
                price = (price + delta).max(50);
                close.push(price);
                volume.push((base_vol * r.gen_range(50..150) / 100).max(1));
            }
            Ticker {
                id: i64::try_from(id).expect("ticker id fits"),
                close,
                volume,
            }
        })
        .collect()
}

/// Window starts are drawn from a small set so queries in a family share
/// loops (the prerequisite for fusing them).
fn window_start(r: &mut rand::rngs::SmallRng, days: i64) -> i64 {
    let slots = ((days - WINDOW).max(1) / 500).max(1);
    r.gen_range(0..slots) * 500
}

fn q1_source(id: u32, a: i64, b: i64, avg: i64) -> String {
    // Σ volume > avg · window  ⇔  average volume > avg.
    let total = avg * (b - a);
    format!(
        "program s_q1_{id} @{id} (ticker) {{
             s := 0; d := {a};
             while (d < {b}) {{ v := volumeAt(d); s := s + v; d := d + 1; }}
             if (s > {total}) {{ notify true; }} else {{ notify false; }}
         }}"
    )
}

fn q2_source(id: u32, a: i64, b: i64, cap: i64) -> String {
    format!(
        "program s_q2_{id} @{id} (ticker) {{
             m := closeAt({a}); d := {a} + 1;
             while (d < {b}) {{ c := closeAt(d); if (c > m) {{ m := c; }} d := d + 1; }}
             if (m > {cap}) {{ notify true; }} else {{ notify false; }}
         }}"
    )
}

fn q3_source(id: u32, a: i64, b: i64, dev: i64) -> String {
    // Variance × W² in fixed point: W·Σx² − (Σx)² > W²·dev².
    let w = b - a;
    let bound = w * w * dev * dev;
    format!(
        "program s_q3_{id} @{id} (ticker) {{
             s := 0; ss := 0; d := {a};
             while (d < {b}) {{ c := closeAt(d); s := s + c; ss := ss + c * c; d := d + 1; }}
             if ({w} * ss - s * s > {bound}) {{ notify true; }} else {{ notify false; }}
         }}"
    )
}

fn build_family(
    fam: usize,
    id: u32,
    days: i64,
    r: &mut rand::rngs::SmallRng,
    interner: &mut Interner,
) -> Program {
    let a = window_start(r, days);
    let b = (a + WINDOW).min(days);
    let src = match fam {
        0 => q1_source(id, a, b, r.gen_range(500..4_000)),
        1 => q2_source(id, a, b, r.gen_range(5_000..45_000)),
        2 => q3_source(id, a, b, r.gen_range(200..4_000)),
        _ => {
            // BC: two aggregations over the same window, combined.
            let t1 = r.gen_range(500..4_000);
            let cap = r.gen_range(5_000..45_000);
            let total = t1 * (b - a);
            let join = if r.gen_bool(0.5) { "&&" } else { "||" };
            format!(
                "program s_bc_{id} @{id} (ticker) {{
                     s := 0; d := {a};
                     while (d < {b}) {{ v := volumeAt(d); s := s + v; d := d + 1; }}
                     m := closeAt({a}); e := {a} + 1;
                     while (e < {b}) {{ c := closeAt(e); if (c > m) {{ m := c; }} e := e + 1; }}
                     if (s > {total} {join} m > {cap}) {{ notify true; }} else {{ notify false; }}
                 }}"
            )
        }
    };
    parse_program(&src, interner).expect("generated stock query parses")
}

fn build_sized(
    fam: usize,
    n: usize,
    days: i64,
    seed: u64,
    interner: &mut Interner,
) -> Vec<Program> {
    let mut r = rng("stock", "queries", seed.wrapping_add(fam as u64));
    (0..n)
        .map(|q| build_family(fam, u32::try_from(q).expect("fits"), days, &mut r, interner))
        .collect()
}

fn build_n(fam: usize, n: usize, seed: u64, interner: &mut Interner) -> Vec<Program> {
    build_sized(fam, n, DAYS as i64, seed, interner)
}

/// Query families: Q1–Q3 plus BC.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            label: "Q1",
            build: |n, s, i| build_n(0, n, s, i),
        },
        Family {
            label: "Q2",
            build: |n, s, i| build_n(1, n, s, i),
        },
        Family {
            label: "Q3",
            build: |n, s, i| build_n(2, n, s, i),
        },
        Family {
            label: "BC",
            build: |n, s, i| build_n(3, n, s, i),
        },
    ]
}

/// A boxed family builder: `(n_queries, seed, interner) -> programs`.
pub type FamilyBuilder = Box<dyn Fn(usize, u64, &mut Interner) -> Vec<Program>>;

/// Family builders against a reduced number of days (for fast tests).
pub fn families_sized(days: i64) -> Vec<(&'static str, FamilyBuilder)> {
    (0..4usize)
        .map(|fam| {
            let label = ["Q1", "Q2", "Q3", "BC"][fam];
            let b: FamilyBuilder = Box::new(move |n, s, i| build_sized(fam, n, days, s, i));
            (label, b)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad_lite::engine::{Engine, ExecMode, QuerySet};
    use udf_lang::cost::CostModel;

    #[test]
    fn walk_is_positive_and_deterministic() {
        let a = dataset_sized(3, 100, 9);
        let b = dataset_sized(3, 100, 9);
        assert_eq!(a[2].close, b[2].close);
        assert!(a.iter().all(|t| t.close.iter().all(|&c| c >= 50)));
    }

    #[test]
    fn families_generate_runnable_queries() {
        let mut i = Interner::new();
        let env = StockEnv::new(&mut i);
        let records = dataset_sized(5, 600, 4);
        for (label, build) in families_sized(600) {
            let programs = build(4, 17, &mut i);
            let cm = CostModel::default();
            let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f)).unwrap();
            let r = Engine::new(2)
                .run(&env, &records, &qs, ExecMode::Many, false)
                .unwrap();
            assert_eq!(r.missing, vec![0; 4], "family {label}");
        }
    }
}
