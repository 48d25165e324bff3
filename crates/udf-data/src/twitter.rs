//! Twitter domain (paper §6.2): 31152 synthetic tweets (standing in for the
//! IBM Many Eyes datasets — see `DESIGN.md`). Each tweet carries a smiley
//! count, a language tag, and latent sentiment/topic affinities; the
//! `sentimentScore(s)` / `topicScore(t)` accessors emulate per-tweet text
//! analysis (expensive pure functions, ideal for cross-query reuse).
//!
//! Query families:
//!
//! * **Q1** — number of smileys at least a threshold;
//! * **Q2** — sentiment analysis: `sentimentScore(s)` above a threshold,
//!   `s` drawn from a list of common sentiments;
//! * **Q3** — topic analysis: `topicScore(t)` above a threshold;
//! * **BC** — boolean combinations of atoms from Q1–Q3.

use crate::util::{rng, Zipf};
use crate::Family;
use naiad_lite::env::UdfEnv;
use rand::distributions::Distribution;
use rand::Rng;
use udf_lang::ast::Program;
use udf_lang::cost::Cost;
use udf_lang::intern::{Interner, Symbol};
use udf_lang::library::LibError;
use udf_lang::parse::parse_program;

/// Default tweet count.
pub const DEFAULT_TWEETS: usize = 31_152;
/// Number of sentiment classes ("happiness", …).
pub(crate) const SENTIMENTS: usize = 8;
/// Number of topic classes ("movies", …).
pub(crate) const TOPICS: usize = 8;

/// One tweet.
#[derive(Debug, Clone)]
pub struct Tweet {
    /// Smiley count.
    pub smileys: i64,
    /// Language id (0 = en, 1 = es, 2 = pt).
    pub lang: i64,
    /// Latent sentiment affinities, 0..100.
    pub sentiment: [i8; SENTIMENTS],
    /// Latent topic affinities, 0..100.
    pub topic: [i8; TOPICS],
}

/// Environment: `sentimentScore(s)` / `topicScore(t)`.
#[derive(Debug, Clone)]
pub struct TwitterEnv {
    sentiment_score: Symbol,
    topic_score: Symbol,
}

impl TwitterEnv {
    /// Creates the environment.
    pub fn new(interner: &mut Interner) -> TwitterEnv {
        TwitterEnv {
            sentiment_score: interner.intern("sentimentScore"),
            topic_score: interner.intern("topicScore"),
        }
    }
}

impl UdfEnv for TwitterEnv {
    type Rec = Tweet;

    fn arity(&self) -> usize {
        2
    }

    fn args(&self, rec: &Tweet, out: &mut Vec<i64>) {
        out.push(rec.smileys);
        out.push(rec.lang);
    }

    fn call(&self, rec: &Tweet, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        let table: &[i8] = if f == self.sentiment_score {
            &rec.sentiment
        } else if f == self.topic_score {
            &rec.topic
        } else {
            return Err(LibError::UnknownFunction(format!("#{}", f.index())));
        };
        if args.len() != 1 {
            return Err(LibError::ArityMismatch {
                name: "score".to_owned(),
                expected: 1,
                got: args.len(),
            });
        }
        let k = args[0].rem_euclid(table.len() as i64) as usize;
        Ok(i64::from(table[k]))
    }

    fn fn_cost(&self, _f: Symbol) -> Cost {
        50 // emulated text analysis
    }
}

/// Generates `n` tweets.
pub fn dataset_sized(n: usize, seed: u64) -> Vec<Tweet> {
    let mut r = rng("twitter", "data", seed);
    (0..n)
        .map(|_| {
            // Geometric-ish smiley count.
            let mut smileys = 0i64;
            while smileys < 6 && r.gen_bool(0.35) {
                smileys += 1;
            }
            let lang = r.gen_range(0..3);
            let dominant_s = r.gen_range(0..SENTIMENTS);
            let dominant_t = r.gen_range(0..TOPICS);
            let mut sentiment = [0i8; SENTIMENTS];
            let mut topic = [0i8; TOPICS];
            for (k, v) in sentiment.iter_mut().enumerate() {
                let base = if k == dominant_s { 55 } else { 10 };
                *v = i8::try_from(base + r.gen_range(0..40)).expect("fits i8");
            }
            for (k, v) in topic.iter_mut().enumerate() {
                let base = if k == dominant_t { 55 } else { 10 };
                *v = i8::try_from(base + r.gen_range(0..40)).expect("fits i8");
            }
            Tweet {
                smileys,
                lang,
                sentiment,
                topic,
            }
        })
        .collect()
}

fn atom(fam: usize, r: &mut rand::rngs::SmallRng, pop: &Zipf) -> String {
    match fam {
        0 => format!("smileys >= {}", r.gen_range(1..4)),
        1 => format!(
            "sentimentScore({}) > {}",
            pop.sample(r) % SENTIMENTS,
            r.gen_range(45..85)
        ),
        _ => format!(
            "topicScore({}) > {}",
            pop.sample(r) % TOPICS,
            r.gen_range(45..85)
        ),
    }
}

fn build_family(
    fam: usize,
    id: u32,
    r: &mut rand::rngs::SmallRng,
    pop: &Zipf,
    interner: &mut Interner,
) -> Program {
    let cond = if fam < 3 {
        atom(fam, r, pop)
    } else {
        let a = atom(r.gen_range(0..3), r, pop);
        let b = atom(r.gen_range(0..3), r, pop);
        let join = if r.gen_bool(0.5) { "&&" } else { "||" };
        format!("{a} {join} {b}")
    };
    let src = format!(
        "program t_{fam}_{id} @{id} (smileys, lang) {{
             if ({cond}) {{ notify true; }} else {{ notify false; }}
         }}"
    );
    parse_program(&src, interner).expect("generated twitter query parses")
}

fn build_n(fam: usize, n: usize, seed: u64, interner: &mut Interner) -> Vec<Program> {
    let mut r = rng("twitter", "queries", seed.wrapping_add(fam as u64));
    let pop = Zipf::new(SENTIMENTS.max(TOPICS));
    (0..n)
        .map(|q| build_family(fam, u32::try_from(q).expect("fits"), &mut r, &pop, interner))
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use naiad_lite::engine::{Engine, ExecMode, QuerySet};
    use udf_lang::cost::CostModel;

    #[test]
    fn tweets_have_plausible_fields() {
        let tw = dataset_sized(200, 1);
        assert!(tw.iter().any(|t| t.smileys > 0));
        assert!(tw.iter().all(|t| (0..3).contains(&t.lang)));
        assert!(tw
            .iter()
            .all(|t| t.sentiment.iter().all(|&s| (10..=95).contains(&s))));
    }

    #[test]
    fn families_generate_runnable_queries() {
        let mut i = Interner::new();
        let env = TwitterEnv::new(&mut i);
        let records = dataset_sized(60, 2);
        for fam in families() {
            let programs = (fam.build)(5, 21, &mut i);
            let cm = CostModel::default();
            let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f)).unwrap();
            let r = Engine::new(2)
                .run(&env, &records, &qs, ExecMode::Many, false)
                .unwrap();
            assert_eq!(r.missing, vec![0; 5], "family {}", fam.label);
        }
    }
}
