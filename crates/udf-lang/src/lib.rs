//! The imperative UDF language from *Consolidation of Queries with
//! User-Defined Functions* (PLDI 2014), Figure 1, together with its
//! cost-annotated big-step operational semantics (Figure 2).
//!
//! A [`Program`] is `λα₁…αₖ. S`: a parameter list plus a statement. Statements
//! are `skip`, integer assignments, sequencing, conditionals (`S₁ ⊕ᵉ S₂`),
//! `while` loops, and `notifyᵢ b` broadcasts. Integer expressions include
//! constants, parameters, local variables, `+ - *`, and calls to externally
//! provided pure library functions; boolean expressions are comparisons and
//! connectives over them.
//!
//! The crate provides:
//!
//! * [`ast`] — the abstract syntax, built over interned [`Symbol`]s,
//! * [`parse`] — a small concrete syntax, so UDFs can be written as text,
//! * [`pretty`] — a pretty-printer round-tripping with the parser,
//! * [`cost`] — the abstract cost model `cost(·)` of Figure 2,
//! * [`costs`] — static cost bounds derived from it,
//! * [`interp`] — the big-step interpreter producing `E, S ⇓ᵏ E', N`,
//! * [`library`] — the interface for external (uninterpreted) functions,
//! * [`analysis`] — free/assigned-variable analyses and renaming used by the
//!   consolidation engine,
//! * [`canon`] — De Bruijn-style alpha-canonicalization and stable structural
//!   hashing, the key basis for the plan cache,
//! * [`wire`] — the one-line text form a program takes across a process
//!   boundary (journal, checkpoint, plan-cache snapshot).
//!
//! # Example
//!
//! ```
//! use udf_lang::{parse::parse_program, interp::Interp, library::FnLibrary,
//!                cost::CostModel, intern::Interner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut interner = Interner::new();
//! let prog = parse_program(
//!     "program p1(price) { if (price < 200) { notify true; } else { notify false; } }",
//!     &mut interner,
//! )?;
//! let lib = FnLibrary::new();
//! let interp = Interp::new(CostModel::default(), &lib);
//! let run = interp.run(&prog, &[150], &interner)?;
//! assert_eq!(run.notifications.get(prog.id), Some(true));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod agg;
pub mod analysis;
pub mod ast;
pub mod canon;
pub mod cost;
pub mod costs;
pub mod intern;
pub mod interp;
pub mod library;
pub mod parse;
pub mod pretty;
pub mod wire;

pub use agg::{agg_hash, agg_set_key, parse_agg, parse_aggs, AggDef};
pub use ast::{BoolExpr, BoolOp, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
pub use cost::{Cost, CostModel};
pub use intern::{Interner, Symbol};
pub use interp::{EvalError, Interp};
pub use library::{FnLibrary, Library};
