//! Ablation study over the design choices called out in `DESIGN.md`:
//!
//! * **If policy** — the paper's related-heuristic dispatch between If 3/4/5
//!   versus forcing one rule everywhere (sharing vs code-size trade-off,
//!   §4's remark on derived rules);
//! * **Loop fusion** — Loop 2/Loop 3 enabled vs sequential loops only;
//! * **Entailment** — full SMT reasoning vs the syntactic-only baseline
//!   (what a conventional compiler's CSE could justify).
//!
//! ```text
//! cargo run -p udf-bench --release --bin ablation -- [--fast] [--seed S]
//! ```

use consolidate::{EntailmentMode, IfPolicy, Options};
use udf_bench::{run_domain, Scale};
use udf_data::DomainKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale {
        records: 0.2,
        queries: 24,
        passes: 5,
    };
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => scale = Scale::fast(),
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let configs: Vec<(&str, Options)> = vec![
        ("heuristic (paper)", Options::default()),
        (
            "always-if3",
            Options {
                if_policy: IfPolicy::AlwaysIf3,
                ..Options::default()
            },
        ),
        (
            "always-if4",
            Options {
                if_policy: IfPolicy::AlwaysIf4,
                ..Options::default()
            },
        ),
        (
            "always-if5",
            Options {
                if_policy: IfPolicy::AlwaysIf5,
                ..Options::default()
            },
        ),
        (
            "no-loop-fusion",
            Options {
                loop_fusion: false,
                ..Options::default()
            },
        ),
        (
            "syntactic-only",
            Options {
                mode: EntailmentMode::Syntactic,
                ..Options::default()
            },
        ),
    ];

    println!(
        "Ablations — weather Mix + news BC + stock Q1 (queries: {}, seed {seed})",
        scale.queries
    );
    println!(
        "{:<18} {:<8} {:<4} {:>10} {:>10} {:>12} {:>8} {:>7}",
        "config", "domain", "fam", "udf-spdup", "tot-spdup", "consolid.(s)", "size", "agree"
    );
    for (name, opts) in &configs {
        for domain in [DomainKind::Weather, DomainKind::News, DomainKind::Stock] {
            for r in run_domain(domain, scale, seed, opts) {
                let keep = matches!(
                    (r.domain.as_str(), r.family.as_str()),
                    ("weather", "Mix") | ("news", "BC") | ("stock", "Q1")
                );
                if !keep {
                    continue;
                }
                println!(
                    "{:<18} {:<8} {:<4} {:>9.2}x {:>9.2}x {:>12.3} {:>8} {:>7}",
                    name,
                    r.domain,
                    r.family,
                    r.udf_speedup(),
                    r.total_speedup(),
                    r.consolidation.as_secs_f64(),
                    r.merged_size,
                    if r.outputs_agree { "ok" } else { "FAIL" },
                );
            }
        }
    }
}
