//! Flight domain (paper §6.2): synthetic flight inventory for the first half
//! of November 2013 — 500 airlines across 10 cities, 12 daily flights per
//! city pair, a quarter of them direct. Prices follow an arithmetic
//! progression in the airline and city identifiers, as the paper describes.
//!
//! Query families:
//!
//! * **Q1** — direct flight between two cities under a price cap;
//! * **Q2** — flight with connections between two cities under a price cap;
//! * **Q3** — airline's average price between two cities under a cap
//!   (via the `avgPrice(o, d)` accessor);
//! * **Mix** — 50 queries sampled `{15, 20, 15}` from Q1–Q3.
//!
//! City pairs are drawn from a Zipf distribution so that popular routes are
//! queried by many UDFs — the paper's price-monitoring-application scenario.

use crate::util::{self, rng, Zipf};
use crate::Family;
use naiad_lite::env::UdfEnv;
use rand::distributions::Distribution;
use rand::Rng;
use std::sync::Arc;
use udf_lang::ast::Program;
use udf_lang::cost::Cost;
use udf_lang::intern::{Interner, Symbol};
use udf_lang::library::LibError;
use udf_lang::parse::parse_program;

/// Number of cities.
pub(crate) const CITIES: i64 = 10;
/// Number of airlines.
pub(crate) const AIRLINES: i64 = 500;
/// Days covered (Nov 1–15).
pub(crate) const DAYS: i64 = 15;

/// One flight row.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Operating airline id.
    pub airline: i64,
    /// Origin city id.
    pub origin: i64,
    /// Destination city id.
    pub dest: i64,
    /// Ticket price.
    pub price: i64,
    /// 0 = direct, ≥1 = connections.
    pub stops: i64,
    /// Day of month (1–15).
    pub day: i64,
}

/// Environment: scalar fields plus the `avgPrice(o, d)` accessor backed by a
/// per-airline average-price table computed at generation time.
#[derive(Debug, Clone)]
pub struct FlightEnv {
    avg_price: Symbol,
    /// `avg_table[airline × 100 + o × 10 + d]`.
    table: Arc<Vec<i64>>,
}

/// Cost of the average-price aggregation.
pub(crate) const AVG_PRICE_COST: Cost = 40;

impl FlightEnv {
    fn new(interner: &mut Interner, table: Arc<Vec<i64>>) -> FlightEnv {
        FlightEnv {
            avg_price: interner.intern("avgPrice"),
            table,
        }
    }
}

impl UdfEnv for FlightEnv {
    type Rec = FlightRecord;

    fn arity(&self) -> usize {
        6
    }

    fn args(&self, rec: &FlightRecord, out: &mut Vec<i64>) {
        out.extend_from_slice(&[
            rec.airline,
            rec.origin,
            rec.dest,
            rec.price,
            rec.stops,
            rec.day,
        ]);
    }

    fn call(&self, rec: &FlightRecord, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        if f != self.avg_price {
            return Err(LibError::UnknownFunction(format!("#{}", f.index())));
        }
        if args.len() != 2 {
            return Err(LibError::ArityMismatch {
                name: "avgPrice".to_owned(),
                expected: 2,
                got: args.len(),
            });
        }
        let (o, d) = (args[0].rem_euclid(CITIES), args[1].rem_euclid(CITIES));
        let idx = (rec.airline.rem_euclid(AIRLINES) * 100 + o * 10 + d) as usize;
        Ok(self.table[idx])
    }

    fn fn_cost(&self, _f: Symbol) -> Cost {
        AVG_PRICE_COST
    }
}

/// Generates the dataset and its environment.
pub fn dataset_sized(
    flights_per_pair_day: i64,
    interner: &mut Interner,
    seed: u64,
) -> (FlightEnv, Vec<FlightRecord>) {
    let mut r = rng("flight", "data", seed);
    let mut records = Vec::new();
    for day in 1..=DAYS {
        for o in 0..CITIES {
            for d in 0..CITIES {
                if o == d {
                    continue;
                }
                for _ in 0..flights_per_pair_day {
                    let airline = r.gen_range(0..AIRLINES);
                    // The paper: price is a multiple arithmetic progression
                    // in the airline and city identifiers.
                    let price =
                        60 + airline * 3 % 220 + o * 23 + d * 17 + day * 5 + r.gen_range(0..40);
                    let stops = i64::from(r.gen_range(0..4) != 0); // 1/4 direct
                    records.push(FlightRecord {
                        airline,
                        origin: o,
                        dest: d,
                        price,
                        stops,
                        day,
                    });
                }
            }
        }
    }
    // Per-airline average price table.
    let mut sums = vec![0i64; (AIRLINES * 100) as usize];
    let mut counts = vec![0i64; (AIRLINES * 100) as usize];
    for f in &records {
        let idx = (f.airline * 100 + f.origin * 10 + f.dest) as usize;
        sums[idx] += f.price;
        counts[idx] += 1;
    }
    let table: Vec<i64> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c > 0 { s / c } else { 0 })
        .collect();
    (FlightEnv::new(interner, Arc::new(table)), records)
}

fn pick_pair(r: &mut rand::rngs::SmallRng, zipf: &Zipf) -> (i64, i64) {
    let pair = zipf.sample(r) as i64;
    let o = pair / (CITIES - 1);
    let mut d = pair % (CITIES - 1);
    if d >= o {
        d += 1;
    }
    (o.min(CITIES - 1), d)
}

fn build_family(
    fam: usize,
    id: u32,
    r: &mut rand::rngs::SmallRng,
    zipf: &Zipf,
    interner: &mut Interner,
) -> Program {
    let (o, d) = pick_pair(r, zipf);
    let p = r.gen_range(150..420);
    let src = match fam {
        0 => format!(
            "program f_q1_{id} @{id} (airline, origin, dest, price, stops, day) {{
                 if (origin == {o} && dest == {d} && stops == 0 && price < {p})
                 {{ notify true; }} else {{ notify false; }}
             }}"
        ),
        1 => format!(
            "program f_q2_{id} @{id} (airline, origin, dest, price, stops, day) {{
                 if (origin == {o} && dest == {d} && stops >= 1 && price < {p})
                 {{ notify true; }} else {{ notify false; }}
             }}"
        ),
        _ => format!(
            "program f_q3_{id} @{id} (airline, origin, dest, price, stops, day) {{
                 a := avgPrice({o}, {d});
                 if (a < {p}) {{ notify true; }} else {{ notify false; }}
             }}"
        ),
    };
    parse_program(&src, interner).expect("generated flight query parses")
}

fn build_n(fam: usize, n: usize, seed: u64, interner: &mut Interner) -> Vec<Program> {
    let mut r = rng("flight", "queries", seed.wrapping_add(fam as u64));
    let zipf = Zipf::new((CITIES * (CITIES - 1)) as usize);
    (0..n)
        .map(|q| {
            build_family(
                fam,
                u32::try_from(q).expect("fits"),
                &mut r,
                &zipf,
                interner,
            )
        })
        .collect()
}

/// The Mix family: `{15, 20, 15}` over Q1–Q3 (§6.2's Q4).
pub fn mix(n: usize, seed: u64, interner: &mut Interner) -> Vec<Program> {
    let mut r = rng("flight", "mix", seed);
    let zipf = Zipf::new((CITIES * (CITIES - 1)) as usize);
    let cell = std::cell::RefCell::new(interner);
    util::sample_mix(n, &[15, 20, 15], &mut r, |fam, id, r| {
        build_family(fam, id, r, &zipf, &mut cell.borrow_mut())
    })
}

/// Query families in presentation order: Q1–Q3 plus Mix.
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
            label: "Mix",
            build: mix,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad_lite::engine::{Engine, ExecMode, QuerySet};
    use udf_lang::cost::CostModel;

    #[test]
    fn dataset_shape() {
        let mut i = Interner::new();
        let (env, records) = dataset_sized(2, &mut i, 5);
        assert_eq!(records.len(), (DAYS * CITIES * (CITIES - 1) * 2) as usize);
        let f = records
            .iter()
            .find(|f| f.stops == 0)
            .expect("some direct flights");
        let avg = env
            .call(f, i.intern("avgPrice"), &[f.origin, f.dest])
            .unwrap();
        assert!(avg > 0);
    }

    #[test]
    fn families_generate_runnable_queries() {
        let mut i = Interner::new();
        let (env, records) = dataset_sized(1, &mut i, 5);
        for fam in families() {
            let programs = (fam.build)(5, 9, &mut i);
            let cm = CostModel::default();
            let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f)).unwrap();
            let r = Engine::new(2)
                .run(&env, &records, &qs, ExecMode::Many, false)
                .unwrap();
            assert_eq!(r.missing, vec![0; 5], "family {}", fam.label);
        }
    }

    #[test]
    fn pair_picking_avoids_self_loops() {
        let mut r = rng("flight", "pairs", 0);
        let zipf = Zipf::new((CITIES * (CITIES - 1)) as usize);
        for _ in 0..200 {
            let (o, d) = pick_pair(&mut r, &zipf);
            assert_ne!(o, d);
            assert!((0..CITIES).contains(&o) && (0..CITIES).contains(&d));
        }
    }
}
