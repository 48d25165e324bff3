//! Workloads for the PLDI 2014 UDF-consolidation evaluation (§6.2).
//!
//! Five domains, each with a seeded synthetic dataset generator, a
//! [`naiad_lite::UdfEnv`] binding records to the UDF language, and the
//! paper's query families:
//!
//! | Domain  | Records | Families |
//! |---------|---------|----------|
//! | [`weather`] | 500 cities, 2 years of hourly readings aggregated monthly | monthly/yearly temperature & rainfall filters + mix |
//! | [`flight`]  | half-month of flights, 500 airlines × 10 cities × 12 daily | direct / connecting / average-price filters + mix |
//! | [`news`]    | 19043 articles (Zipf vocabulary)                           | word containment, average & maximum word length + boolean combos |
//! | [`twitter`] | 31152 tweets                                               | smiley count, sentiment, topic + boolean combos |
//! | [`stock`]   | 100 tickers × ~3774 trading days (377k rows)               | average volume, maximum value, standard deviation + boolean combos |
//!
//! The paper used real Reuters/Twitter/Yahoo-Finance data; we substitute
//! seeded generators with the same shapes and sizes (see `DESIGN.md`). Query
//! parameters are drawn from the distributions described in §6.2, so queries
//! within a family overlap exactly the way the evaluation relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod agg;
pub mod flight;
pub mod news;
pub mod stock;
pub mod twitter;
mod util;
pub mod weather;

use udf_lang::ast::Program;
use udf_lang::intern::Interner;

/// The five evaluation domains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomainKind {
    /// Synthetic hourly weather for 500 cities.
    Weather,
    /// Synthetic flight inventory.
    Flight,
    /// Synthetic news articles.
    News,
    /// Synthetic tweets.
    Twitter,
    /// Synthetic daily stock rows.
    Stock,
}

impl DomainKind {
    /// All domains, in the paper's presentation order.
    pub const ALL: [DomainKind; 5] = [
        DomainKind::Weather,
        DomainKind::Flight,
        DomainKind::News,
        DomainKind::Twitter,
        DomainKind::Stock,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::Weather => "weather",
            DomainKind::Flight => "flight",
            DomainKind::News => "news",
            DomainKind::Twitter => "twitter",
            DomainKind::Stock => "stock",
        }
    }

    /// Parses a domain name.
    pub fn parse(s: &str) -> Option<DomainKind> {
        DomainKind::ALL.iter().copied().find(|d| d.name() == s)
    }
}

/// A named query family within a domain (the paper's Q1…Q4/Q5, `Mix`, `BC`).
#[derive(Clone, Debug)]
pub struct Family {
    /// Label used in tables ("Q1", "Mix", "BC", …).
    pub label: &'static str,
    /// Builder: `(n_queries, seed, interner) → programs`.
    pub build: fn(usize, u64, &mut Interner) -> Vec<Program>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_names_round_trip() {
        for d in DomainKind::ALL {
            assert_eq!(DomainKind::parse(d.name()), Some(d));
        }
        assert_eq!(DomainKind::parse("nope"), None);
    }
}
