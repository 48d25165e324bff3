//! User-defined aggregation (UDAF) query sets — the aggregation edition of
//! the §6.2 workloads. Each domain gets four families of generated
//! [`AggDef`]s over its environment accessors:
//!
//! * **SUM** — linear sums of a record measure (weighted, so definitions
//!   within a family differ);
//! * **CNT** — conditional counts against seeded thresholds;
//! * **VAR** — two-slot sum + sum-of-squares (fixed-point variance inputs);
//! * **MIX** — sums and counts plus one *last-value* definition whose merge
//!   is provably **not** a homomorphism (`merge(x, init) = init ≠ x`), so a
//!   proved set degrades to `Partial` and the engine folds that definition
//!   sequentially.
//!
//! The first three shapes are exactly the ones the homomorphism prover
//! discharges; `MIX` exists to exercise the sound fallback tier end to end.

use crate::util::rng;
use crate::DomainKind;
use rand::rngs::SmallRng;
use rand::Rng;
use udf_lang::agg::{parse_agg, AggDef};
use udf_lang::intern::Interner;

/// Shape labels, in builder order.
pub(crate) const SHAPES: [&str; 4] = ["SUM", "CNT", "VAR", "MIX"];

/// An aggregation-family builder: `(n_defs, seed, interner) → definitions`.
pub(crate) type AggBuilder = fn(usize, u64, &mut Interner) -> Vec<AggDef>;

/// A named aggregation family within a domain.
#[derive(Clone, Debug)]
pub struct AggFamily {
    /// Label used in tables ("SUM", "CNT", "VAR", "MIX").
    pub label: &'static str,
    /// Whether every definition in the family is expected to prove (the
    /// `MIX` families deliberately contain one refutable definition).
    pub provable: bool,
    /// Builder: `(n_defs, seed, interner) → definitions`.
    pub build: AggBuilder,
}

/// Record parameter list for a domain, matching its `UdfEnv::args` order.
fn params(domain: DomainKind) -> &'static str {
    match domain {
        DomainKind::Weather => "city",
        DomainKind::Flight => "airline, origin, dest, price, stops, day",
        DomainKind::News => "tokens",
        DomainKind::Twitter => "smileys, lang",
        DomainKind::Stock => "ticker",
    }
}

/// A per-record integer measure: `(binding statements, expression)`. The
/// bindings compute scratch locals the expression may read; both vary by
/// seeded draw so definitions within a family differ.
fn measure(domain: DomainKind, r: &mut SmallRng) -> (String, String) {
    match domain {
        DomainKind::Weather => {
            let m = r.gen_range(1..13);
            (format!("t := tempOfMonth({m});"), "t".to_string())
        }
        DomainKind::Flight => (String::new(), "price".to_string()),
        DomainKind::News => (String::new(), "tokens".to_string()),
        DomainKind::Twitter => {
            let k = r.gen_range(0..5);
            (format!("t := sentimentScore({k});"), "t".to_string())
        }
        DomainKind::Stock => {
            let d = r.gen_range(0..600);
            (format!("t := volumeAt({d});"), "t".to_string())
        }
    }
}

/// A per-record boolean predicate for the conditional-count shape.
fn predicate(domain: DomainKind, r: &mut SmallRng) -> String {
    match domain {
        DomainKind::Weather => {
            // Two-year monthly rainfall total, tenths of mm.
            let m = r.gen_range(1..13);
            let thr = r.gen_range(500..80_000);
            format!("rainOfMonth({m}) > {thr}")
        }
        DomainKind::Flight => {
            // Flights cheaper than their route average (minus a margin).
            let margin = r.gen_range(0..60);
            format!("price < avgPrice(origin, dest) - {margin}")
        }
        DomainKind::News => {
            let w = r.gen_range(0..2_000);
            format!("containsWord({w}) > 0")
        }
        DomainKind::Twitter => {
            let k = r.gen_range(0..5);
            let thr = r.gen_range(20..80);
            format!("sentimentScore({k}) > {thr}")
        }
        DomainKind::Stock => {
            let d = r.gen_range(0..600);
            let thr = r.gen_range(5_000..45_000);
            format!("closeAt({d}) > {thr}")
        }
    }
}

fn sum_source(domain: DomainKind, id: u32, r: &mut SmallRng) -> String {
    let (bind, x) = measure(domain, r);
    let w = r.gen_range(1..5);
    format!(
        "aggregate sum_{id} @{id} ({}) {{
             state s = 0;
             fold  {{ {bind} s := s + {w} * {x}; }}
             merge {{ s := s + rhs_s; }}
         }}",
        params(domain)
    )
}

fn cnt_source(domain: DomainKind, id: u32, r: &mut SmallRng) -> String {
    let p = predicate(domain, r);
    format!(
        "aggregate cnt_{id} @{id} ({}) {{
             state c = 0;
             fold  {{ if ({p}) {{ c := c + 1; }} }}
             merge {{ c := c + rhs_c; }}
         }}",
        params(domain)
    )
}

fn var_source(domain: DomainKind, id: u32, r: &mut SmallRng) -> String {
    let (bind, x) = measure(domain, r);
    format!(
        "aggregate var_{id} @{id} ({}) {{
             state s = 0;
             state ss = 0;
             fold  {{ {bind} s := s + {x}; ss := ss + {x} * {x}; }}
             merge {{ s := s + rhs_s; ss := ss + rhs_ss; }}
         }}",
        params(domain)
    )
}

/// Last-value: `merge` keeps the right-hand state, so `merge(x, init)` is
/// `init`, not `x` — the prover refutes H1 and the engine must fall back.
fn last_source(domain: DomainKind, id: u32, r: &mut SmallRng) -> String {
    let (bind, x) = measure(domain, r);
    format!(
        "aggregate last_{id} @{id} ({}) {{
             state l = -1;
             fold  {{ {bind} l := {x}; }}
             merge {{ l := rhs_l; }}
         }}",
        params(domain)
    )
}

fn def_source(domain: DomainKind, shape: usize, q: usize, n: usize, r: &mut SmallRng) -> String {
    let id = u32::try_from(q).expect("query index fits");
    match shape {
        0 => sum_source(domain, id, r),
        1 => cnt_source(domain, id, r),
        2 => var_source(domain, id, r),
        _ => {
            // MIX: sums and counts, with the final definition refutable.
            if q + 1 == n {
                last_source(domain, id, r)
            } else if q.is_multiple_of(2) {
                sum_source(domain, id, r)
            } else {
                cnt_source(domain, id, r)
            }
        }
    }
}

fn build_set(
    domain: DomainKind,
    shape: usize,
    n: usize,
    seed: u64,
    interner: &mut Interner,
) -> Vec<AggDef> {
    let mut r = rng(domain.name(), "aggs", seed.wrapping_add(shape as u64));
    (0..n)
        .map(|q| {
            let src = def_source(domain, shape, q, n, &mut r);
            parse_agg(&src, interner).expect("generated aggregation parses")
        })
        .collect()
}

macro_rules! domain_builds {
    ($d:path) => {
        [
            |n, s, i| build_set($d, 0, n, s, i),
            |n, s, i| build_set($d, 1, n, s, i),
            |n, s, i| build_set($d, 2, n, s, i),
            |n, s, i| build_set($d, 3, n, s, i),
        ]
    };
}

/// Aggregation families for one domain: `SUM`, `CNT`, `VAR`, `MIX`.
pub fn families(domain: DomainKind) -> Vec<AggFamily> {
    let builds: [AggBuilder; 4] = match domain {
        DomainKind::Weather => domain_builds!(DomainKind::Weather),
        DomainKind::Flight => domain_builds!(DomainKind::Flight),
        DomainKind::News => domain_builds!(DomainKind::News),
        DomainKind::Twitter => domain_builds!(DomainKind::Twitter),
        DomainKind::Stock => domain_builds!(DomainKind::Stock),
    };
    SHAPES
        .iter()
        .zip(builds)
        .map(|(label, build)| AggFamily {
            label,
            provable: *label != "MIX",
            build,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use consolidate::{consolidate_aggs, DegradationTier, Options};

    #[test]
    fn generation_is_deterministic() {
        let mut i = Interner::new();
        for d in DomainKind::ALL {
            for f in families(d) {
                let a = (f.build)(3, 11, &mut i);
                let b = (f.build)(3, 11, &mut i);
                assert_eq!(a, b, "{} {}", d.name(), f.label);
                assert_eq!(a.len(), 3);
            }
        }
    }

    /// Every generated body reads only definitely-assigned variables (the
    /// engine compiles folds and merges to registers that start at 0, so
    /// `AggDef::validate` refuses anything else), whatever the draw.
    #[test]
    fn every_family_validates_in_every_domain() {
        let mut i = Interner::new();
        for d in DomainKind::ALL {
            for f in families(d) {
                for seed in 0..8 {
                    for def in (f.build)(6, seed, &mut i) {
                        assert_eq!(def.validate(&i), Ok(()), "{} {}", d.name(), f.label);
                    }
                }
            }
        }
    }

    #[test]
    fn provable_families_prove_and_mix_degrades_partially() {
        let mut i = Interner::new();
        let opts = Options::default();
        for d in DomainKind::ALL {
            for f in families(d) {
                let defs = (f.build)(3, 7, &mut i);
                let c = consolidate_aggs(&defs, &mut i, &opts).expect("consolidates");
                if f.provable {
                    assert_eq!(
                        c.tier,
                        DegradationTier::Full,
                        "{} {} should fully prove: {:?}",
                        d.name(),
                        f.label,
                        c.outcomes
                    );
                } else {
                    assert_eq!(
                        c.proved_flags(),
                        vec![true, true, false],
                        "{} {} should refute only the last definition",
                        d.name(),
                        f.label
                    );
                    assert_eq!(c.tier, DegradationTier::Partial);
                }
            }
        }
    }
}
