//! `qc` — a command-line front end for program consolidation.
//!
//! ```text
//! qc consolidate <file> [--if3|--if4|--if5] [--no-loop-fusion] [--syntactic]
//! qc run <file> --args v1,v2,…  [--fn name=cost]…
//! qc bounds <file> [--iterations N]
//! ```
//!
//! `<file>` contains one or more `program … { … }` definitions (all sharing a
//! parameter list, each with a distinct `@id`). `consolidate` prints the
//! merged program plus rule statistics; `run` executes every source program
//! and the merged one on the supplied arguments and reports notifications
//! and costs; `bounds` prints static cost bounds per program.
//!
//! External functions are interpreted as deterministic hash-based stubs (the
//! CLI has no real dataset behind it); declare their cost with `--fn f=40`.

use std::collections::HashMap;
use std::process::ExitCode;

use query_consolidation::engine::{consolidate_many, EntailmentMode, IfPolicy, Options};
use query_consolidation::lang::{
    costs, parse::parse_programs, pretty, CostModel, Interner, Interp,
};

struct StubLib {
    costs: HashMap<String, u64>,
    interner_names: Vec<String>,
}

impl udf_lang::library::Library for StubLib {
    fn call(
        &self,
        f: udf_lang::intern::Symbol,
        args: &[i64],
    ) -> Result<i64, udf_lang::library::LibError> {
        // Deterministic stub: a hash of the function index and arguments.
        let mut acc = f.index() as i64 + 17;
        for (k, a) in args.iter().enumerate() {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(a.wrapping_mul(k as i64 + 1));
        }
        Ok(acc.rem_euclid(1_000))
    }

    fn cost(&self, f: udf_lang::intern::Symbol) -> u64 {
        self.interner_names
            .get(f.index())
            .and_then(|n| self.costs.get(n))
            .copied()
            .unwrap_or(udf_lang::library::DEFAULT_CALL_COST)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  qc consolidate <file> [--if3|--if4|--if5] [--no-loop-fusion] [--syntactic]\n  qc run <file> --args v1,v2,... [--fn name=cost]...\n  qc bounds <file> [--iterations N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some(path) = args.get(1) else {
        return usage();
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut interner = Interner::new();
    let programs = match parse_programs(&src, &mut interner) {
        Ok(p) if !p.is_empty() => p,
        Ok(_) => {
            eprintln!("error: {path} contains no programs");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut fn_costs: HashMap<String, u64> = HashMap::new();
    let mut run_args: Vec<i64> = Vec::new();
    let mut opts = Options::default();
    let mut iterations: Option<u64> = None;
    let mut it = args.iter().skip(2);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--if3" => opts.if_policy = IfPolicy::AlwaysIf3,
            "--if4" => opts.if_policy = IfPolicy::AlwaysIf4,
            "--if5" => opts.if_policy = IfPolicy::AlwaysIf5,
            "--no-loop-fusion" => opts.loop_fusion = false,
            "--syntactic" => opts.mode = EntailmentMode::Syntactic,
            "--args" => {
                let Some(list) = it.next() else {
                    return usage();
                };
                for v in list.split(',').filter(|s| !s.is_empty()) {
                    match v.trim().parse() {
                        Ok(n) => run_args.push(n),
                        Err(_) => {
                            eprintln!("error: bad argument `{v}`");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            "--fn" => {
                let Some(spec) = it.next() else {
                    return usage();
                };
                let Some((name, cost)) = spec.split_once('=') else {
                    return usage();
                };
                let Ok(cost) = cost.parse() else {
                    return usage();
                };
                fn_costs.insert(name.to_owned(), cost);
            }
            "--iterations" => {
                iterations = it.next().and_then(|v| v.parse().ok());
            }
            other => {
                eprintln!("error: unknown flag `{other}`");
                return usage();
            }
        }
    }

    let lib = StubLib {
        costs: fn_costs,
        interner_names: (0..interner.len())
            .map(|k| {
                interner
                    .resolve(udf_lang::intern::Symbol::from_index(k))
                    .to_owned()
            })
            .collect(),
    };
    let cm = CostModel::default();

    match cmd.as_str() {
        "consolidate" => {
            let merged = match consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "// consolidated {} programs in {:?}",
                programs.len(),
                merged.elapsed
            );
            println!("// rules: {:?}", merged.stats);
            println!(
                "// size: {} AST nodes (sources: {})",
                merged.program.size(),
                programs.iter().map(|p| p.size()).sum::<usize>()
            );
            print!("{}", pretty::program(&merged.program, &interner));
            ExitCode::SUCCESS
        }
        "run" => {
            let merged = match consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let interp = Interp::new(cm, &lib);
            let mut total = 0u64;
            for p in &programs {
                match interp.run(p, &run_args, &interner) {
                    Ok(r) => {
                        println!(
                            "program @{}: notifications {:?}, cost {}",
                            p.id.0,
                            r.notifications.iter().collect::<Vec<_>>(),
                            r.cost
                        );
                        total += r.cost;
                    }
                    Err(e) => {
                        eprintln!("error running @{}: {e}", p.id.0);
                        return ExitCode::FAILURE;
                    }
                }
            }
            match interp.run(&merged.program, &run_args, &interner) {
                Ok(r) => {
                    println!(
                        "consolidated: notifications {:?}, cost {} (sequential total {total})",
                        r.notifications.iter().collect::<Vec<_>>(),
                        r.cost
                    );
                    if r.cost > total {
                        eprintln!("BUG: consolidated cost exceeds sequential cost");
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    eprintln!("error running consolidated program: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        "bounds" => {
            let bopts = costs::BoundsOptions {
                loop_iterations: iterations,
            };
            for p in &programs {
                let b = costs::stmt_bounds(&p.body, &cm, &lib, &bopts);
                println!(
                    "program @{}: min {} max {}",
                    p.id.0,
                    b.min,
                    b.max.map_or("∞".to_owned(), |m| m.to_string())
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
