//! Quickstart: consolidate the paper's Example 1 — two flight-filter UDFs
//! that share the expensive airline-name lookup — and verify behaviour and
//! cost on concrete inputs.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use query_consolidation::engine::{consolidate_pair, Options};
use query_consolidation::lang::{
    analysis::rename_locals, parse::parse_program, CostModel, FnLibrary, Interner, Interp,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut interner = Interner::new();

    // The external library: `toLower` stands for the paper's
    // `airline.name.toLower()` chain — an expensive pure function. Airline
    // names are interned integers: 1 = "united", 2 = "southwest".
    let to_lower = interner.intern("toLower");
    let mut lib = FnLibrary::new();
    lib.register(to_lower, "toLower", 1, 30, |a| a[0] & 0xff);

    // f1: flights operated by United or Southwest.
    let f1 = parse_program(
        "program f1 @1 (airline, price) {
             name := toLower(airline);
             if (name == 1) { notify true; }
             else { if (name == 2) { notify true; } else { notify false; } }
         }",
        &mut interner,
    )?;
    // f2: flights under $200 operated by United.
    let f2 = parse_program(
        "program f2 @2 (airline, price) {
             if (price >= 200) { notify false; }
             else { if (toLower(airline) == 1) { notify true; } else { notify false; } }
         }",
        &mut interner,
    )?;

    println!("=== input UDFs");
    println!(
        "{}",
        query_consolidation::lang::pretty::program(&f1, &interner)
    );
    println!(
        "{}",
        query_consolidation::lang::pretty::program(&f2, &interner)
    );

    // Consolidate: Π₁ ⊗ Π₂.
    let merged = consolidate_pair(
        &f1,
        &f2,
        &mut interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
    )?;
    println!(
        "=== consolidated ({:?}, rules {:?})",
        merged.elapsed, merged.stats
    );
    println!(
        "{}",
        query_consolidation::lang::pretty::program(&merged.program, &interner)
    );

    // Definition 1, checked dynamically: same notifications, cost never
    // larger than the sum.
    let r1 = rename_locals(&f1, &mut interner, "a$");
    let r2 = rename_locals(&f2, &mut interner, "b$");
    let interp = Interp::new(CostModel::default(), &lib);
    println!("=== behaviour check (airline, price) → f1, f2 | merged | costs");
    for airline in [1i64, 2, 3] {
        for price in [150i64, 250] {
            let a = interp.run(&r1, &[airline, price], &interner)?;
            let b = interp.run(&r2, &[airline, price], &interner)?;
            let m = interp.run(&merged.program, &[airline, price], &interner)?;
            let same = m.notifications.get(f1.id) == a.notifications.get(f1.id)
                && m.notifications.get(f2.id) == b.notifications.get(f2.id);
            println!(
                "({airline}, {price}) → {:?}, {:?} | merged {:?} {:?} | {} + {} vs {}  {}",
                a.notifications.get(f1.id).expect("f1 notifies"),
                b.notifications.get(f2.id).expect("f2 notifies"),
                m.notifications.get(f1.id).expect("merged notifies @1"),
                m.notifications.get(f2.id).expect("merged notifies @2"),
                a.cost,
                b.cost,
                m.cost,
                if same && m.cost <= a.cost + b.cost {
                    "ok"
                } else {
                    "VIOLATION"
                }
            );
        }
    }
    Ok(())
}
