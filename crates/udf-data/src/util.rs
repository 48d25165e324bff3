//! Shared helpers for dataset generation and query-family construction.

use rand::distributions::Distribution;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use udf_lang::ast::Program;

/// Deterministic RNG for a `(domain, purpose, seed)` triple.
pub(crate) fn rng(domain: &str, purpose: &str, seed: u64) -> SmallRng {
    // Mix the strings into the seed so each (domain, purpose) stream is
    // independent but reproducible.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in domain.bytes().chain(purpose.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    SmallRng::seed_from_u64(h)
}

/// A Zipf-like sampler over `0..n` with exponent ~1 (rank-frequency shape of
/// natural-language vocabularies).
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks.
    pub(crate) fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / k as f64;
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }
}

impl Distribution<usize> for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Samples `n` queries by drawing a family index from `weights` for each
/// (the paper's Mix/Q5 construction, e.g. `{15, 15, 10, 10}`), delegating to
/// `build(family_idx, query_id, rng)`.
pub(crate) fn sample_mix<F>(
    n: usize,
    weights: &[u32],
    rng: &mut SmallRng,
    mut build: F,
) -> Vec<Program>
where
    F: FnMut(usize, u32, &mut SmallRng) -> Program,
{
    let total: u32 = weights.iter().sum();
    (0..n)
        .map(|q| {
            let mut pick = rng.gen_range(0..total);
            let mut fam = 0usize;
            for (k, &w) in weights.iter().enumerate() {
                if pick < w {
                    fam = k;
                    break;
                }
                pick -= w;
            }
            build(fam, u32::try_from(q).expect("query index fits u32"), rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::ast::{ProgId, Stmt};

    #[test]
    fn rng_is_deterministic_and_stream_separated() {
        let a: u64 = rng("weather", "data", 1).gen();
        let b: u64 = rng("weather", "data", 1).gen();
        let c: u64 = rng("weather", "queries", 1).gen();
        let d: u64 = rng("weather", "data", 2).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn zipf_favors_low_ranks() {
        let z = Zipf::new(100);
        let mut r = rng("t", "zipf", 7);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 500);
    }

    #[test]
    fn mix_respects_weights_roughly() {
        let mut r = rng("t", "mix", 3);
        let mut fam_counts = [0usize; 4];
        let progs = sample_mix(400, &[15, 15, 10, 10], &mut r, |fam, q, _| {
            fam_counts[fam] += 1;
            Program::new(ProgId(q), Vec::new(), Stmt::Skip)
        });
        assert_eq!(progs.len(), 400);
        assert!(fam_counts[0] > fam_counts[2]);
        assert!(fam_counts.iter().all(|&c| c > 40));
    }
}
