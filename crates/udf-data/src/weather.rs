//! Weather domain (paper §6.2): two years of synthetic hourly weather for
//! 500 cities. UDFs access a record through `tempOfMonth(m)` /
//! `rainOfMonth(m)` accessors which *compute* the monthly aggregate by
//! scanning ~1440 raw hourly samples — an intentionally expensive pure
//! function, exactly the kind of shared computation consolidation is
//! designed to reuse.
//!
//! Query families (50 queries each, parameters drawn per §6.2):
//!
//! * **Q1** — monthly average temperature, varying month and threshold;
//! * **Q2** — monthly rainfall, varying month and threshold;
//! * **Q3** — yearly average temperature (a 12-iteration loop over
//!   `tempOfMonth`), varying threshold;
//! * **Q4** — yearly rainfall (same loop shape over `rainOfMonth`);
//! * **Mix** — 50 queries sampled `{15, 15, 10, 10}` from Q1–Q4.

use crate::util::{self, rng};
use crate::Family;
use naiad_lite::env::UdfEnv;
use rand::Rng;
use udf_lang::ast::Program;
use udf_lang::cost::Cost;
use udf_lang::intern::{Interner, Symbol};
use udf_lang::library::LibError;
use udf_lang::parse::parse_program;

/// Hourly samples stored per city (two years).
pub(crate) const HOURS: usize = 17_520;
/// Hours per month window used by the accessors.
pub(crate) const MONTH_HOURS: usize = 720;
/// Default number of cities (the paper's 500).
pub const DEFAULT_CITIES: usize = 500;

/// One city's weather history.
#[derive(Debug, Clone)]
pub struct CityRecord {
    /// City identifier (the UDF argument).
    pub city: i64,
    /// Hourly temperature in tenths of °C.
    pub hourly_temp: Vec<i16>,
    /// Hourly rainfall in tenths of millimetres.
    pub hourly_rain: Vec<i16>,
}

/// The dataset binding: `tempOfMonth` / `rainOfMonth` accessors.
#[derive(Debug, Clone)]
pub struct WeatherEnv {
    temp_of_month: Symbol,
    rain_of_month: Symbol,
}

/// Abstract cost of one monthly aggregation (≈ 1440 hourly samples scanned
/// across both years — the accessor really does this work).
pub const ACCESSOR_COST: Cost = 1_440;

impl WeatherEnv {
    /// Creates the environment, interning its function names.
    pub fn new(interner: &mut Interner) -> WeatherEnv {
        WeatherEnv {
            temp_of_month: interner.intern("tempOfMonth"),
            rain_of_month: interner.intern("rainOfMonth"),
        }
    }

    fn month_aggregate(series: &[i16], month: i64, average: bool) -> i64 {
        // Month m ∈ 1..=12 selects the same calendar month of both years;
        // the aggregate is computed by scanning the raw hourly samples, as a
        // real `getTempOfMonth` UDF helper would.
        let m = ((month - 1).rem_euclid(12)) as usize;
        let year = HOURS / 2;
        let start1 = m * MONTH_HOURS;
        let start2 = year + m * MONTH_HOURS;
        let mut sum: i64 = 0;
        let mut n: i64 = 0;
        for start in [start1, start2] {
            for &v in series.iter().take(start + MONTH_HOURS).skip(start) {
                sum += i64::from(v);
                n += 1;
            }
        }
        if average && n > 0 {
            sum / n
        } else {
            // Rainfall totals are reported per average month (`/2` for the
            // two years) scaled to whole millimetres elsewhere; keep the raw
            // two-year total here.
            sum
        }
    }
}

impl UdfEnv for WeatherEnv {
    type Rec = CityRecord;

    fn arity(&self) -> usize {
        1
    }

    fn args(&self, rec: &CityRecord, out: &mut Vec<i64>) {
        out.push(rec.city);
    }

    fn call(&self, rec: &CityRecord, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        if f == self.temp_of_month {
            if args.len() != 1 {
                return Err(LibError::ArityMismatch {
                    name: "tempOfMonth".to_owned(),
                    expected: 1,
                    got: args.len(),
                });
            }
            Ok(WeatherEnv::month_aggregate(&rec.hourly_temp, args[0], true))
        } else if f == self.rain_of_month {
            if args.len() != 1 {
                return Err(LibError::ArityMismatch {
                    name: "rainOfMonth".to_owned(),
                    expected: 1,
                    got: args.len(),
                });
            }
            Ok(WeatherEnv::month_aggregate(
                &rec.hourly_rain,
                args[0],
                false,
            ))
        } else {
            Err(LibError::UnknownFunction(format!("#{}", f.index())))
        }
    }

    fn fn_cost(&self, _f: Symbol) -> Cost {
        ACCESSOR_COST
    }
}

/// Generates the dataset: `n_cities` cities with seasonal + diurnal
/// temperature structure (average hourly −1..10 °C) and rainfall in the
/// 0..200 mm-per-month range, as §6.2 specifies.
pub fn dataset_sized(n_cities: usize, seed: u64) -> Vec<CityRecord> {
    let mut r = rng("weather", "data", seed);
    (0..n_cities)
        .map(|c| {
            let base = r.gen_range(-10..60); // city-specific offset, tenths of °C
            let wet = r.gen_range(1..6); // rainfall scale, tenths of mm hourly
            let hourly_temp = (0..HOURS)
                .map(|h| {
                    let day = (h / 24) % 365;
                    let season = (f64::from(day as u32) / 365.0 * std::f64::consts::TAU).sin();
                    let diurnal = (f64::from((h % 24) as u32) / 24.0 * std::f64::consts::TAU).sin();
                    let noise = r.gen_range(-10..11);
                    i16::try_from(base + (season * 55.0) as i64 + (diurnal * 10.0) as i64 + noise)
                        .unwrap_or(0)
                })
                .collect();
            let hourly_rain = (0..HOURS)
                .map(|_| i16::try_from(r.gen_range(0..wet)).unwrap_or(0))
                .collect();
            CityRecord {
                city: i64::try_from(c).expect("city id fits"),
                hourly_temp,
                hourly_rain,
            }
        })
        .collect()
}

fn q1_source(id: u32, month: i64, threshold: i64) -> String {
    format!(
        "program w_q1_{id} @{id} (city) {{
             t := tempOfMonth({month});
             if (t > {threshold}) {{ notify true; }} else {{ notify false; }}
         }}"
    )
}

fn q2_source(id: u32, month: i64, threshold: i64) -> String {
    format!(
        "program w_q2_{id} @{id} (city) {{
             r := rainOfMonth({month});
             if (r < {threshold}) {{ notify true; }} else {{ notify false; }}
         }}"
    )
}

fn q3_source(id: u32, threshold: i64) -> String {
    // Yearly average temperature via the paper's loop shape (Example 2).
    format!(
        "program w_q3_{id} @{id} (city) {{
             s := 0; m := 1;
             while (m <= 12) {{ t := tempOfMonth(m); s := s + t; m := m + 1; }}
             if (s > {threshold}) {{ notify true; }} else {{ notify false; }}
         }}"
    )
}

fn q4_source(id: u32, threshold: i64) -> String {
    format!(
        "program w_q4_{id} @{id} (city) {{
             s := 0; m := 1;
             while (m <= 12) {{ r := rainOfMonth(m); s := s + r; m := m + 1; }}
             if (s < {threshold}) {{ notify true; }} else {{ notify false; }}
         }}"
    )
}

fn build_family(
    fam: usize,
    id: u32,
    r: &mut rand::rngs::SmallRng,
    interner: &mut Interner,
) -> Program {
    let src = match fam {
        0 => q1_source(id, r.gen_range(1..=12), r.gen_range(-40..70)),
        1 => q2_source(id, r.gen_range(1..=12), r.gen_range(1500..4500)),
        2 => q3_source(id, r.gen_range(-200..600)),
        _ => q4_source(id, r.gen_range(20000..46000)),
    };
    parse_program(&src, interner).expect("generated weather query parses")
}

fn family_n(fam: usize) -> fn(usize, u64, &mut Interner) -> Vec<Program> {
    match fam {
        0 => |n, seed, i| build_n(0, n, seed, i),
        1 => |n, seed, i| build_n(1, n, seed, i),
        2 => |n, seed, i| build_n(2, n, seed, i),
        3 => |n, seed, i| build_n(3, n, seed, i),
        _ => mix,
    }
}

fn build_n(fam: usize, n: usize, seed: u64, interner: &mut Interner) -> Vec<Program> {
    let mut r = rng("weather", "queries", seed.wrapping_add(fam as u64));
    (0..n)
        .map(|q| build_family(fam, u32::try_from(q).expect("fits"), &mut r, interner))
        .collect()
}

/// The Mix family: `{15, 15, 10, 10}` over Q1–Q4 (§6.2's Q5).
pub(crate) fn mix(n: usize, seed: u64, interner: &mut Interner) -> Vec<Program> {
    let mut r = rng("weather", "mix", seed);
    let cell = std::cell::RefCell::new(interner);
    util::sample_mix(n, &[15, 15, 10, 10], &mut r, |fam, id, r| {
        build_family(fam, id, r, &mut cell.borrow_mut())
    })
}

/// Query families in presentation order: Q1–Q4 plus Mix.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            label: "Q1",
            build: family_n(0),
        },
        Family {
            label: "Q2",
            build: family_n(1),
        },
        Family {
            label: "Q3",
            build: family_n(2),
        },
        Family {
            label: "Q4",
            build: family_n(3),
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
    fn dataset_is_deterministic() {
        let a = dataset_sized(3, 42);
        let b = dataset_sized(3, 42);
        assert_eq!(a[1].hourly_temp, b[1].hourly_temp);
        let c = dataset_sized(3, 43);
        assert_ne!(a[1].hourly_temp, c[1].hourly_temp);
    }

    #[test]
    fn accessors_aggregate() {
        let mut i = Interner::new();
        let env = WeatherEnv::new(&mut i);
        let rec = CityRecord {
            city: 0,
            hourly_temp: vec![10; HOURS],
            hourly_rain: vec![2; HOURS],
        };
        let t = env.call(&rec, i.intern("tempOfMonth"), &[3]).unwrap();
        assert_eq!(t, 10);
        let r = env.call(&rec, i.intern("rainOfMonth"), &[3]).unwrap();
        assert_eq!(r, i64::try_from(MONTH_HOURS).unwrap() * 2 * 2); // 2 windows × 2/h
        assert!(env.call(&rec, i.intern("nope"), &[1]).is_err());
        assert!(env.call(&rec, i.intern("tempOfMonth"), &[1, 2]).is_err());
    }

    #[test]
    fn families_generate_runnable_queries() {
        let mut i = Interner::new();
        let env = WeatherEnv::new(&mut i);
        let records = dataset_sized(10, 7);
        for fam in families() {
            let programs = (fam.build)(6, 11, &mut i);
            assert_eq!(programs.len(), 6);
            let cm = CostModel::default();
            let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f)).unwrap();
            let r = Engine::new(2)
                .run(&env, &records, &qs, ExecMode::Many, false)
                .unwrap();
            assert_eq!(r.missing, vec![0; 6], "family {}", fam.label);
        }
    }
}
