//! Binding records to the UDF language.
//!
//! A UDF sees a record through two channels (paper §3): the record's scalar
//! fields arrive as the program's arguments `ᾱ`, and richer accessors
//! (e.g. `getTempOfMonth(m)` on a weather record) are *pure external
//! functions* closed over the record. A [`UdfEnv`] packages both; a
//! [`RecordLibrary`] views one record as a [`udf_lang::Library`] with no
//! allocation, so the reference interpreter runs over the same binding as
//! the engine's machines (tests and benchmark oracles use it).

use udf_lang::cost::Cost;
use udf_lang::intern::Symbol;
use udf_lang::library::{LibError, Library};

/// A dataset binding: how records of type `Rec` feed UDFs.
pub trait UdfEnv: Send + Sync {
    /// Record type.
    type Rec: Send + Sync;

    /// Number of scalar arguments every UDF over this dataset takes.
    fn arity(&self) -> usize;

    /// Writes the record's scalar fields into `out` (len == `arity()`).
    fn args(&self, rec: &Self::Rec, out: &mut Vec<i64>);

    /// Evaluates external function `f` on this record. Must be pure.
    ///
    /// # Errors
    ///
    /// Returns [`LibError`] for unknown functions or arity mismatches.
    fn call(&self, rec: &Self::Rec, f: Symbol, args: &[i64]) -> Result<i64, LibError>;

    /// Static cost of calling `f` (record-independent).
    fn fn_cost(&self, f: Symbol) -> Cost;
}

/// A [`Library`] view of one `(env, record)` pair.
#[derive(Debug)]
pub struct RecordLibrary<'a, E: UdfEnv> {
    env: &'a E,
    rec: &'a E::Rec,
}

impl<'a, E: UdfEnv> RecordLibrary<'a, E> {
    /// Creates the view.
    pub fn new(env: &'a E, rec: &'a E::Rec) -> RecordLibrary<'a, E> {
        RecordLibrary { env, rec }
    }
}

impl<'a, E: UdfEnv> Library for RecordLibrary<'a, E> {
    fn call(&self, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        self.env.call(self.rec, f, args)
    }

    fn cost(&self, f: Symbol) -> Cost {
        self.env.fn_cost(f)
    }
}

/// The simplest dataset: each record is a plain argument vector and there
/// are no external functions beyond an optional shared [`udf_lang::FnLibrary`].
pub struct ScalarEnv {
    arity: usize,
    library: udf_lang::FnLibrary,
}

impl std::fmt::Debug for ScalarEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScalarEnv")
            .field("arity", &self.arity)
            .finish()
    }
}

impl ScalarEnv {
    /// Creates a scalar environment of the given arity with record-independent
    /// external functions.
    pub fn new(arity: usize, library: udf_lang::FnLibrary) -> ScalarEnv {
        ScalarEnv { arity, library }
    }
}

impl UdfEnv for ScalarEnv {
    type Rec = Vec<i64>;

    fn arity(&self) -> usize {
        self.arity
    }

    fn args(&self, rec: &Vec<i64>, out: &mut Vec<i64>) {
        out.extend_from_slice(rec);
    }

    fn call(&self, _rec: &Vec<i64>, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        self.library.call(f, args)
    }

    fn fn_cost(&self, f: Symbol) -> Cost {
        self.library.cost(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::intern::Interner;
    use udf_lang::FnLibrary;

    #[test]
    fn scalar_env_round_trips_args_and_calls() {
        let mut i = Interner::new();
        let twice = i.intern("twice");
        let mut lib = FnLibrary::new();
        lib.register(twice, "twice", 1, 5, |a| a[0] * 2);
        let env = ScalarEnv::new(2, lib);
        let rec = vec![3, 9];
        let mut out = Vec::new();
        env.args(&rec, &mut out);
        assert_eq!(out, vec![3, 9]);
        let view = RecordLibrary::new(&env, &rec);
        assert_eq!(view.call(twice, &[21]), Ok(42));
        assert_eq!(view.cost(twice), 5);
    }
}
