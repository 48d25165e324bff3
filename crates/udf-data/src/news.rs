//! News domain (paper §6.2): 19043 synthetic English news articles standing
//! in for the Reuters-21578 collection (see the substitution note in
//! `DESIGN.md`). Article vocabularies follow a Zipf distribution; word
//! lengths are a deterministic function of the word id so the aggregate
//! statistics (average/maximum word length) have realistic spreads.
//!
//! Query families:
//!
//! * **Q1** — word containment, the word drawn from a 50-word list;
//! * **Q2** — average word length above a threshold;
//! * **Q3** — maximum word length above a threshold;
//! * **BC** — boolean combinations of atoms from Q1–Q3;
//! * **PF** — long-article statistics: a cheap token-count guard *nests*
//!   around the expensive text scan, the shape the cross-query pre-filter
//!   synthesis exploits (most articles fail every guard and are skipped).

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

/// Default article count (the Reuters collection size).
pub const DEFAULT_ARTICLES: usize = 19_043;
/// Vocabulary size.
pub(crate) const VOCAB: usize = 5_000;

/// Length (characters) of word `w` — deterministic so article statistics are
/// reproducible.
pub(crate) fn word_len(w: i64) -> i64 {
    3 + (w * 7 + 1) % 10
}

/// One article: its distinct words and token statistics.
#[derive(Debug, Clone)]
pub struct Article {
    /// Sorted distinct word ids.
    pub words: Vec<u32>,
    /// Total token count.
    pub tokens: i64,
    /// Total characters across tokens.
    pub chars: i64,
    /// Longest word length.
    pub max_len: i64,
}

/// Environment: `containsWord(w)`, `avgWordLen100()`, `maxWordLen()`.
#[derive(Debug, Clone)]
pub struct NewsEnv {
    contains_word: Symbol,
    avg_word_len: Symbol,
    max_word_len: Symbol,
}

impl NewsEnv {
    /// Creates the environment.
    pub fn new(interner: &mut Interner) -> NewsEnv {
        NewsEnv {
            contains_word: interner.intern("containsWord"),
            avg_word_len: interner.intern("avgWordLen100"),
            max_word_len: interner.intern("maxWordLen"),
        }
    }
}

impl UdfEnv for NewsEnv {
    type Rec = Article;

    fn arity(&self) -> usize {
        1
    }

    fn args(&self, rec: &Article, out: &mut Vec<i64>) {
        out.push(rec.tokens);
    }

    fn call(&self, rec: &Article, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        if f == self.contains_word {
            if args.len() != 1 {
                return Err(LibError::ArityMismatch {
                    name: "containsWord".to_owned(),
                    expected: 1,
                    got: args.len(),
                });
            }
            let w = u32::try_from(args[0].rem_euclid(VOCAB as i64)).expect("in range");
            Ok(i64::from(rec.words.binary_search(&w).is_ok()))
        } else if f == self.avg_word_len {
            // Scan the article's vocabulary (real text work, shareable
            // across queries).
            let mut chars = 0i64;
            for &w in &rec.words {
                chars += word_len(i64::from(w));
            }
            Ok(if rec.words.is_empty() {
                0
            } else {
                chars * 100 / rec.words.len() as i64
            })
        } else if f == self.max_word_len {
            let mut max = 0i64;
            for &w in &rec.words {
                max = max.max(word_len(i64::from(w)));
            }
            Ok(max)
        } else {
            Err(LibError::UnknownFunction(format!("#{}", f.index())))
        }
    }

    fn fn_cost(&self, f: Symbol) -> Cost {
        if f == self.contains_word {
            30 // word search
        } else {
            45 // full-text scan to compute the statistic
        }
    }
}

/// Generates `n` articles.
pub fn dataset_sized(n: usize, seed: u64) -> Vec<Article> {
    let mut r = rng("news", "data", seed);
    let zipf = Zipf::new(VOCAB);
    (0..n)
        .map(|_| {
            let tokens = r.gen_range(50..600);
            let mut words: Vec<u32> = Vec::new();
            let mut chars = 0i64;
            let mut max_len = 0i64;
            for _ in 0..tokens {
                let w = zipf.sample(&mut r) as i64;
                let len = word_len(w);
                chars += len;
                max_len = max_len.max(len);
                words.push(u32::try_from(w).expect("vocab fits u32"));
            }
            words.sort_unstable();
            words.dedup();
            Article {
                words,
                tokens,
                chars,
                max_len,
            }
        })
        .collect()
}

fn atom(fam: usize, r: &mut rand::rngs::SmallRng, word_list: &Zipf) -> String {
    match fam {
        0 => format!("containsWord({}) == 1", word_list.sample(r)),
        1 => format!("avgWordLen100() > {}", r.gen_range(700..800)),
        _ => format!("maxWordLen() >= {}", r.gen_range(9..13)),
    }
}

fn build_family(
    fam: usize,
    id: u32,
    r: &mut rand::rngs::SmallRng,
    words: &Zipf,
    interner: &mut Interner,
) -> Program {
    if fam == 4 {
        // PF: a cheap necessary condition over the record's `tokens` field
        // guards the expensive text statistic. The guard *nests* around the
        // call instead of conjoining with it — connectives evaluate
        // strictly, so only the nested form keeps the library call
        // unreachable when the guard fails, which is exactly what the
        // pre-filter verifier must prove before it may skip a record.
        // "Long article" means the top decile: with tokens ∈ 50..600 the
        // weakest guard (550) admits ~9% of articles, so the synthesized
        // pre-filter skips the other ~91% — the selectivity regime the
        // pushdown is built for.
        let k = 550 + i64::from(id % 8) * 5; // 550..=585 over tokens ∈ 50..600
        let t = r.gen_range(700..800);
        let src = format!(
            "program n_{fam}_{id} @{id} (tokens) {{
                 if (tokens >= {k}) {{
                     if (avgWordLen100() > {t}) {{ notify true; }} else {{ notify false; }}
                 }} else {{ notify false; }}
             }}"
        );
        return parse_program(&src, interner).expect("generated news query parses");
    }
    let cond = if fam < 3 {
        atom(fam, r, words)
    } else {
        // BC: boolean combination of two or three atoms.
        let a = atom(r.gen_range(0..3), r, words);
        let b = atom(r.gen_range(0..3), r, words);
        let join = if r.gen_bool(0.5) { "&&" } else { "||" };
        if r.gen_bool(0.4) {
            let c = atom(r.gen_range(0..3), r, words);
            format!("({a} {join} {b}) && {c}")
        } else {
            format!("{a} {join} {b}")
        }
    };
    let src = format!(
        "program n_{fam}_{id} @{id} (tokens) {{
             if ({cond}) {{ notify true; }} else {{ notify false; }}
         }}"
    );
    parse_program(&src, interner).expect("generated news query parses")
}

fn build_n(fam: usize, n: usize, seed: u64, interner: &mut Interner) -> Vec<Program> {
    let mut r = rng("news", "queries", seed.wrapping_add(fam as u64));
    let words = Zipf::new(50); // the §6.2 "list of specified words"
    (0..n)
        .map(|q| {
            build_family(
                fam,
                u32::try_from(q).expect("fits"),
                &mut r,
                &words,
                interner,
            )
        })
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
        Family {
            label: "PF",
            build: |n, s, i| build_n(4, n, s, i),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad_lite::engine::{Engine, ExecMode, QuerySet};
    use udf_lang::cost::CostModel;

    #[test]
    fn articles_have_consistent_stats() {
        let arts = dataset_sized(50, 3);
        for a in &arts {
            assert!(a.tokens >= 50 && a.tokens < 600);
            assert!(a.chars >= a.tokens * 3);
            assert!(a.max_len >= 3 && a.max_len <= 12);
            assert!(a.words.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn env_functions_work() {
        let mut i = Interner::new();
        let env = NewsEnv::new(&mut i);
        let a = Article {
            words: vec![5, 9],
            tokens: 10,
            chars: 57,
            max_len: 9,
        };
        assert_eq!(env.call(&a, i.intern("containsWord"), &[5]).unwrap(), 1);
        assert_eq!(env.call(&a, i.intern("containsWord"), &[6]).unwrap(), 0);
        // word_len(5) = 9, word_len(9) = 7 → avg over distinct words = 800.
        assert_eq!(env.call(&a, i.intern("avgWordLen100"), &[]).unwrap(), 800);
        assert_eq!(env.call(&a, i.intern("maxWordLen"), &[]).unwrap(), 9);
    }

    #[test]
    fn families_generate_runnable_queries() {
        let mut i = Interner::new();
        let env = NewsEnv::new(&mut i);
        let records = dataset_sized(40, 5);
        for fam in families() {
            let programs = (fam.build)(5, 13, &mut i);
            let cm = CostModel::default();
            let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f)).unwrap();
            let r = Engine::new(2)
                .run(&env, &records, &qs, ExecMode::Many, false)
                .unwrap();
            assert_eq!(r.missing, vec![0; 5], "family {}", fam.label);
        }
    }
}
