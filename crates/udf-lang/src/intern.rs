//! String interning for variable, parameter, and function names.
//!
//! All identifiers in the AST are [`Symbol`]s — cheap `Copy` indices into an
//! [`Interner`]. Consolidation merges programs from different sources, so the
//! interner also supports generating *fresh* symbols that are guaranteed not
//! to collide with any previously interned name.

use std::collections::HashMap;
use std::fmt;

/// An interned identifier. Cheap to copy and compare; resolve it back to text
/// with [`Interner::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Raw index of this symbol inside its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from a raw index previously obtained through
    /// [`Symbol::index`]. The caller must ensure the index came from the same
    /// interner the symbol will be resolved against.
    #[inline]
    pub fn from_index(index: usize) -> Symbol {
        Symbol(u32::try_from(index).expect("symbol index overflow"))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// A string interner mapping identifier text to [`Symbol`]s and back.
///
/// # Example
///
/// ```
/// use udf_lang::intern::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("x");
/// let b = interner.intern("x");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "x");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    names: Vec<Box<str>>,
    map: HashMap<Box<str>, Symbol>,
    fresh_counter: u64,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `name`, returning its symbol. Interning the same text twice
    /// returns the same symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.names.len()).expect("too many symbols"));
        self.names.push(Box::from(name));
        self.map.insert(Box::from(name), sym);
        sym
    }

    /// Resolves a symbol back to its text.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was created by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Looks up a name without interning it.
    #[cfg(test)]
    pub(crate) fn get(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).copied()
    }

    /// Generates a fresh symbol whose name starts with `prefix` and is
    /// guaranteed to differ from every symbol interned so far.
    ///
    /// Fresh names use the reserved `%` character, which the parser rejects in
    /// identifiers, so fresh symbols can never collide with source names.
    pub(crate) fn fresh(&mut self, prefix: &str) -> Symbol {
        loop {
            let candidate = format!("{prefix}%{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.map.contains_key(candidate.as_str()) {
                return self.intern(&candidate);
            }
        }
    }

    /// Number of distinct symbols interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("foo");
        let c = i.intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(a), "foo");
        assert_eq!(i.resolve(c), "bar");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let mut i = Interner::new();
        let x = i.intern("x");
        let f1 = i.fresh("x");
        let f2 = i.fresh("x");
        assert_ne!(f1, x);
        assert_ne!(f1, f2);
        assert!(i.resolve(f1).starts_with("x%"));
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
    }

    #[test]
    fn from_index_round_trips() {
        let mut i = Interner::new();
        let s = i.intern("v");
        assert_eq!(Symbol::from_index(s.index()), s);
    }
}
