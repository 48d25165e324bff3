//! Golden pins of aggregate parsing.
//!
//! Every `udf_data::agg` family of the five domains is built at `(N, SEED)`
//! into a fresh interner, which parses each generated `aggregate` source.
//! Per family the test pins the order-sensitive `agg_set_key`, the number
//! of interned names, and one FNV-64 digest over each definition's fold and
//! merge views as `pretty` prints them followed by the interner's names in
//! index order. A moved key or digest means the parser built a different
//! definition; a moved length or digest with the same key means it interned
//! names in a different order, which every symbol-indexed table observes.

use query_consolidation::dataflow::digest::Fnv64;
use query_consolidation::lang::intern::Symbol;
use query_consolidation::lang::{agg_set_key, pretty, Interner};
use query_consolidation::workloads::{agg, DomainKind};

const N: usize = 6;
const SEED: u64 = 9;

/// `(domain/family, agg_set_key, text digest, interner length)`.
type Row = (String, u128, u64, usize);

fn family_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for domain in DomainKind::ALL {
        for family in agg::families(domain) {
            let mut interner = Interner::new();
            let defs = (family.build)(N, SEED, &mut interner);
            let mut h = Fnv64::new();
            for d in &defs {
                h.bytes(pretty::program(&d.fold_view(), &interner).as_bytes());
                h.bytes(pretty::program(&d.merge_view(), &interner).as_bytes());
            }
            for i in 0..interner.len() {
                h.bytes(interner.resolve(Symbol::from_index(i)).as_bytes());
                h.bytes(b"\n");
            }
            rows.push((
                format!("{}/{}", domain.name(), family.label),
                agg_set_key(&defs, &interner),
                h.finish(),
                interner.len(),
            ));
        }
    }
    rows
}

/// `(domain/family, agg_set_key, text digest, interner length)` at
/// `(N, SEED)`; a change to how aggregates are parsed keeps every row.
#[rustfmt::skip]
const PINNED: &[(&str, u128, u64, usize)] = &[
    ("weather/SUM", 0x2c91a034d8df86a9e621f1c0710645a6, 0x3673ea50eda2e843, 5),
    ("weather/CNT", 0xc3c89974a0ee65e2162a99e39ce292ed, 0xd3cbb35ed42146fe, 4),
    ("weather/VAR", 0x7f4752fc060187c720b64691f66b0bfd, 0x293f57663ba5ed5d, 7),
    ("weather/MIX", 0xe3597557290d5e93c00f4828a8e3e929, 0x4a5d63fbbd4ce128, 10),
    ("flight/SUM", 0xa57592135f14e873c0771d173986b54e, 0xa1099c82da073cd8, 8),
    ("flight/CNT", 0x1f096c5f948e5c05d66120ed64dd8d76, 0x62f19b72ca06262d, 9),
    ("flight/VAR", 0xc9bb2376baa9b94332605465ff468922, 0xf00e9478daadea5f, 10),
    ("flight/MIX", 0x767f3891ac4244de5988f89c6c8429de, 0x040caba6624c807c, 13),
    ("news/SUM", 0x097ce6aec3976772f85a86628d8709ec, 0x6256d544a5aa658d, 3),
    ("news/CNT", 0x16ce83a1f5a339512f4ae33fd9263160, 0x233d9b734c416cd0, 4),
    ("news/VAR", 0x82e439fd67f4a321da681688711870e1, 0x1182e63709e1f883, 5),
    ("news/MIX", 0xc7499094f14a1cab0a3a99d77c195166, 0xa0c5b861c80eaef0, 8),
    ("twitter/SUM", 0xcd665ab6285d79d6b8370cedc0a7baf1, 0x513b0445516d171f, 6),
    ("twitter/CNT", 0x4b8caf82c3538794b6f9c04c8b156765, 0xa04981dc8be80a20, 5),
    ("twitter/VAR", 0xa19209edbe251038079cb40fea8653bc, 0x937a5f5ad79ba0b3, 8),
    ("twitter/MIX", 0x2ae40bb876b87e5eb985cc0b4fd67943, 0x8c040e74e8f866ae, 10),
    ("stock/SUM", 0xb12d1859829e769c0e9b701f0ecba133, 0x6ed662807c5bd257, 5),
    ("stock/CNT", 0xf82b10697659bcd99e7b3930a5c7c1f5, 0xdd8dbd8721f3255f, 4),
    ("stock/VAR", 0xc27445cf259b2817de4e03d121882762, 0x4ead123b7ed9e1dd, 7),
    ("stock/MIX", 0xd0a453fb798498233d58dbc58d4a9e25, 0xdb60259556e49c08, 10),
];

#[test]
fn aggregate_families_parse_to_the_pinned_definitions() {
    let got = family_rows();
    let same = got.len() == PINNED.len()
        && got
            .iter()
            .zip(PINNED)
            .all(|(g, p)| g.0 == p.0 && (g.1, g.2, g.3) == (p.1, p.2, p.3));
    let table: String = got
        .iter()
        .map(|(l, k, d, n)| format!("    (\"{l}\", 0x{k:032x}, 0x{d:016x}, {n}),\n"))
        .collect();
    assert!(
        same,
        "parsed aggregates differ from the pinned table; actual table:\n{table}"
    );
}
