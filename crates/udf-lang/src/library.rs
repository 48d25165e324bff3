//! External function libraries.
//!
//! The language has no function definitions: every `f(e₁,…,eₖ)` call targets
//! an externally provided *pure, deterministic* function (paper §3). The
//! operational semantics consults `eval(f(c̄)) = (c, m)` for both the return
//! value and the call cost `m`; a [`Library`] packages both.
//!
//! Purity matters: the consolidation calculus models calls as uninterpreted
//! functions, so two calls with provably equal arguments may be collapsed
//! into one. A library implementation must therefore be deterministic and
//! side-effect free.

use crate::cost::{Cost, FnCost};
use crate::intern::Symbol;
use std::fmt;
use std::sync::Arc;

/// Default cost charged for calls to functions without a declared cost.
pub const DEFAULT_CALL_COST: Cost = 10;

/// Errors raised by library calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibError {
    /// The function name is not provided by this library.
    UnknownFunction(String),
    /// The function was called with the wrong number of arguments.
    ArityMismatch {
        /// Function name.
        name: String,
        /// Declared arity.
        expected: usize,
        /// Number of arguments supplied.
        got: usize,
    },
    /// The call failed for a reason expected to clear on its own (an I/O
    /// hiccup, a momentarily unavailable backend). Engines may retry the
    /// record before quarantining it; every other [`LibError`] is permanent
    /// and retrying would only repeat the failure.
    Transient(String),
}

impl fmt::Display for LibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibError::UnknownFunction(name) => write!(f, "unknown external function `{name}`"),
            LibError::ArityMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "external function `{name}` expects {expected} argument(s), got {got}"
            ),
            LibError::Transient(detail) => write!(f, "transient library failure: {detail}"),
        }
    }
}

impl std::error::Error for LibError {}

/// Interface the interpreter uses to evaluate external calls.
pub trait Library {
    /// Evaluates `f(args)`. Must be pure and deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`LibError`] when `f` is unknown or called at the wrong arity.
    fn call(&self, f: Symbol, args: &[i64]) -> Result<i64, LibError>;

    /// Static cost of one call to `f` (excluding argument evaluation).
    fn cost(&self, f: Symbol) -> Cost;
}

impl<L: Library + ?Sized> FnCost for L {
    fn fn_cost(&self, f: Symbol) -> Cost {
        self.cost(f)
    }
}

type FnImpl = Arc<dyn Fn(&[i64]) -> i64 + Send + Sync>;

struct Entry {
    name: String,
    arity: usize,
    cost: Cost,
    imp: FnImpl,
}

/// A table-backed [`Library`].
///
/// Entries sit in a vector indexed by [`Symbol::index`], so a call costs one
/// bounds check and one indirection to its closure, not a hash: interned
/// symbols are dense, and a library registers a handful of them.
///
/// # Example
///
/// ```
/// use udf_lang::library::{FnLibrary, Library};
/// use udf_lang::intern::Interner;
///
/// let mut interner = Interner::new();
/// let sq = interner.intern("square");
/// let mut lib = FnLibrary::new();
/// lib.register(sq, "square", 1, 20, |args| args[0] * args[0]);
/// assert_eq!(lib.call(sq, &[7]), Ok(49));
/// assert_eq!(lib.cost(sq), 20);
/// ```
#[derive(Default, Clone)]
pub struct FnLibrary {
    /// Slot `i` holds the function of the symbol with index `i`, if any.
    entries: Vec<Option<Arc<Entry>>>,
}

impl fmt::Debug for FnLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self
            .entries
            .iter()
            .flatten()
            .map(|e| e.name.as_str())
            .collect();
        names.sort_unstable();
        f.debug_struct("FnLibrary")
            .field("functions", &names)
            .finish()
    }
}

impl FnLibrary {
    /// Creates an empty library.
    pub fn new() -> FnLibrary {
        FnLibrary::default()
    }

    /// Registers (or replaces) function `sym` with the given display `name`,
    /// `arity`, per-call `cost`, and implementation.
    pub fn register<F>(&mut self, sym: Symbol, name: &str, arity: usize, cost: Cost, imp: F)
    where
        F: Fn(&[i64]) -> i64 + Send + Sync + 'static,
    {
        let at = sym.index();
        if self.entries.len() <= at {
            self.entries.resize(at + 1, None);
        }
        self.entries[at] = Some(Arc::new(Entry {
            name: name.to_owned(),
            arity,
            cost,
            imp: Arc::new(imp),
        }));
    }

    fn entry(&self, f: Symbol) -> Option<&Entry> {
        self.entries.get(f.index())?.as_deref()
    }

    /// Declared arity of `f`, if registered.
    #[cfg(test)]
    pub(crate) fn arity(&self, f: Symbol) -> Option<usize> {
        self.entry(f).map(|e| e.arity)
    }

    /// Whether `f` is registered.
    #[cfg(test)]
    pub(crate) fn contains(&self, f: Symbol) -> bool {
        self.entry(f).is_some()
    }
}

impl Library for FnLibrary {
    fn call(&self, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        let entry = self
            .entry(f)
            .ok_or_else(|| LibError::UnknownFunction(format!("#{}", f.index())))?;
        if args.len() != entry.arity {
            return Err(LibError::ArityMismatch {
                name: entry.name.clone(),
                expected: entry.arity,
                got: args.len(),
            });
        }
        Ok((entry.imp)(args))
    }

    fn cost(&self, f: Symbol) -> Cost {
        self.entry(f).map_or(DEFAULT_CALL_COST, |e| e.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    #[test]
    fn register_and_call() {
        let mut i = Interner::new();
        let add3 = i.intern("add3");
        let mut lib = FnLibrary::new();
        lib.register(add3, "add3", 3, 7, |a| a[0] + a[1] + a[2]);
        assert_eq!(lib.call(add3, &[1, 2, 3]), Ok(6));
        assert_eq!(lib.cost(add3), 7);
        assert_eq!(lib.arity(add3), Some(3));
        assert!(lib.contains(add3));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut i = Interner::new();
        let f = i.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 1, |a| a[0]);
        let err = lib.call(f, &[1, 2]).unwrap_err();
        assert!(matches!(
            err,
            LibError::ArityMismatch {
                expected: 1,
                got: 2,
                ..
            }
        ));
    }

    #[test]
    fn unknown_function_is_reported() {
        let mut i = Interner::new();
        let g = i.intern("g");
        let lib = FnLibrary::new();
        assert!(matches!(
            lib.call(g, &[]),
            Err(LibError::UnknownFunction(_))
        ));
        // Unknown functions still have a (default) cost so static estimation
        // never fails.
        assert_eq!(lib.cost(g), DEFAULT_CALL_COST);
    }

    /// Entries are indexed by symbol: a library holding only a high index
    /// sizes its table to it, and the empty slots below are unknown.
    #[test]
    fn sparse_high_symbol_index() {
        let high = Symbol::from_index(4_000);
        let mut lib = FnLibrary::new();
        lib.register(high, "high", 2, 9, |a| a[0] - a[1]);
        assert_eq!(lib.call(high, &[10, 3]), Ok(7));
        assert_eq!((lib.cost(high), lib.arity(high)), (9, Some(2)));
        assert!(lib.contains(high));
        let past = Symbol::from_index(4_001);
        assert!(matches!(lib.call(past, &[]), Err(LibError::UnknownFunction(n)) if n == "#4001"));
        assert_eq!(format!("{lib:?}"), r#"FnLibrary { functions: ["high"] }"#);
    }

    /// A symbol below the largest registered one that was never registered
    /// behaves exactly like one past the table: unknown, default cost.
    #[test]
    fn unregistered_symbol_below_the_largest_is_unknown() {
        let mut i = Interner::new();
        let (a, gap, c) = (i.intern("a"), i.intern("gap"), i.intern("c"));
        let mut lib = FnLibrary::new();
        lib.register(a, "a", 0, 1, |_| 1);
        lib.register(c, "c", 0, 3, |_| 3);
        assert!(!lib.contains(gap));
        assert_eq!(lib.arity(gap), None);
        assert_eq!(lib.cost(gap), DEFAULT_CALL_COST);
        assert_eq!(
            lib.call(gap, &[]),
            Err(LibError::UnknownFunction(format!("#{}", gap.index())))
        );
        assert_eq!((lib.call(a, &[]), lib.call(c, &[])), (Ok(1), Ok(3)));
    }

    /// Registering a symbol again replaces its name, arity, cost and body.
    #[test]
    fn re_registration_replaces_the_entry() {
        let mut i = Interner::new();
        let f = i.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 5, |a| a[0]);
        lib.register(f, "f2", 2, 8, |a| a[0] * a[1]);
        assert_eq!(lib.call(f, &[3, 4]), Ok(12));
        assert_eq!((lib.cost(f), lib.arity(f)), (8, Some(2)));
        assert_eq!(
            lib.call(f, &[3]),
            Err(LibError::ArityMismatch {
                name: "f2".to_owned(),
                expected: 2,
                got: 1
            })
        );
        assert_eq!(format!("{lib:?}"), r#"FnLibrary { functions: ["f2"] }"#);
    }
}
