//! Textual cache snapshots for warm starts across processes.
//!
//! The format is line-oriented and hand-rolled (the build is offline; no
//! serde). Keys are canonical hashes — stable across processes by
//! construction — and programs are the single-line S-expressions of
//! [`udf_lang::wire`], written verbatim from the entry, so a snapshot
//! written by one run primes the next.
//!
//! Every entry is one [`udf_serve::framing`] record: its header carries the
//! byte length of its payload and an FNV-1a 64 checksum over it, and writes
//! go through a temp file renamed into place, so a crash mid-write never
//! leaves a half-written snapshot at the target path:
//!
//! ```text
//! plan-cache-snapshot v3
//! entry 00f3…9a 113 a1b2c3d4e5f60718   # key, payload bytes, FNV-1a 64
//! tier full                            # payload: tier | stat | plan
//! stat entailment_queries 131          # unknown stat names are skipped on
//! stat rules.if3 2                     # load (forward compatibility)
//! program (program 1 (params a) (skip))
//! end
//! ```
//!
//! The plan line is `program <wire text>` for a merged program and
//! `proved true false …` for an aggregation entry's positional verdicts.
//! Loading is all or nothing: a file with any other header (older formats
//! included), a line that is not a verified entry, or an entry that does
//! not parse fails the load — the cost is a re-consolidation, never a
//! wrong plan.

use crate::{CacheConfig, CachedPlan, Plan, PlanCache, PlanKey};
use consolidate::{ConsolidationStats, DegradationTier};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use udf_serve::framing::{self, byte_line};

const HEADER: &str = "plan-cache-snapshot v3";

/// Projects one persisted counter out of the statistics.
type StatField = fn(&mut ConsolidationStats) -> &mut u64;

/// The persisted counters, by wire name: the one table both the writer and
/// the reader walk, so a counter cannot be saved and not loaded.
#[rustfmt::skip]
const STATS: [(&str, StatField); 25] = [
    ("entailment_queries", |s| &mut s.entailment_queries),
    ("memo_hits", |s| &mut s.memo_hits),
    ("pairs_consolidated", |s| &mut s.pairs_consolidated),
    ("pairs_degraded", |s| &mut s.pairs_degraded),
    ("rules.if_eliminated", |s| &mut s.rules.if_eliminated),
    ("rules.if3", |s| &mut s.rules.if3),
    ("rules.if4", |s| &mut s.rules.if4),
    ("rules.if5", |s| &mut s.rules.if5),
    ("rules.loop2", |s| &mut s.rules.loop2),
    ("rules.loop3", |s| &mut s.rules.loop3),
    ("rules.loop_seq", |s| &mut s.rules.loop_seq),
    ("rules.depth_fallbacks", |s| &mut s.rules.depth_fallbacks),
    ("rules.budget_fallbacks", |s| &mut s.rules.budget_fallbacks),
    ("solver.checks", |s| &mut s.solver.checks),
    ("solver.theory_checks", |s| &mut s.solver.theory_checks),
    ("solver.theory_conflicts", |s| &mut s.solver.theory_conflicts),
    ("solver.minimized_literals", |s| &mut s.solver.minimized_literals),
    ("solver.core_literals", |s| &mut s.solver.core_literals),
    ("solver.core_fallbacks", |s| &mut s.solver.core_fallbacks),
    ("solver.unknowns", |s| &mut s.solver.unknowns),
    ("solver.sat_decisions", |s| &mut s.solver.sat_decisions),
    ("solver.sat_conflicts", |s| &mut s.solver.sat_conflicts),
    ("solver.sat_propagations", |s| &mut s.solver.sat_propagations),
    ("solver.simplex_pivots", |s| &mut s.solver.simplex_pivots),
    ("solver.theory_rounds", |s| &mut s.solver.theory_rounds),
];

/// Renders one entry's payload — the `tier`/`stat`/plan lines the header's
/// length and checksum cover.
fn render_payload(plan: &CachedPlan) -> String {
    let mut payload = format!("tier {}\n", plan.stats.tier.as_str());
    let mut stats = plan.stats;
    for (name, field) in STATS {
        let _ = writeln!(payload, "stat {name} {}", field(&mut stats));
    }
    match &plan.plan {
        Plan::Program(text) => {
            let _ = writeln!(payload, "program {text}");
        }
        Plan::Agg(proved) => {
            payload.push_str("proved");
            for flag in proved {
                let _ = write!(payload, " {flag}");
            }
            payload.push('\n');
        }
    }
    payload
}

pub(crate) fn save(cache: &PlanCache, path: &Path) -> io::Result<()> {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for (key, plan) in cache.entries() {
        let payload = render_payload(&plan);
        out.push_str(&framing::render_frame(
            "entry",
            &[key.to_string()],
            &payload,
        ));
    }
    // Atomic publish (shared [`framing::atomic_write`] idiom): readers see
    // either the old snapshot or the complete new one — never a half-written
    // file — and an I/O error on any step leaves the target untouched.
    framing::atomic_write(path, out.as_bytes())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parses one payload (the `tier`/`stat`/plan lines) into a cached plan.
/// Any malformed line is an error.
fn parse_payload(payload: &str) -> Result<CachedPlan, String> {
    let mut tier = None;
    let mut stats = ConsolidationStats::default();
    let mut plan = None;
    for line in payload.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
        match word {
            "tier" => tier = Some(rest.parse::<DegradationTier>()?),
            "stat" => {
                let (name, val) = rest
                    .split_once(' ')
                    .ok_or("stat needs a name and a value")?;
                let v: u64 = val.parse().map_err(|_| "bad stat value".to_owned())?;
                // Unknown stat names come from newer writers; skip them.
                if let Some((_, field)) = STATS.iter().find(|(n, _)| *n == name) {
                    *field(&mut stats) = v;
                }
            }
            "program" | "proved" if plan.is_some() => {
                return Err("entry carries two plans".to_owned());
            }
            "program" => plan = Some(Plan::Program(rest.to_owned())),
            "proved" => {
                let flags = rest
                    .split_ascii_whitespace()
                    .map(|f| f.parse().map_err(|_| format!("bad proved flag {f:?}")));
                plan = Some(Plan::Agg(flags.collect::<Result<_, _>>()?));
            }
            other => return Err(format!("unknown payload directive {other:?}")),
        }
    }
    stats.tier = tier.ok_or("entry missing tier")?;
    match plan.ok_or("entry missing plan")? {
        Plan::Program(text) => {
            CachedPlan::from_wire(text, stats).map_err(|e| format!("bad program: {e}"))
        }
        Plan::Agg(proved) => Ok(CachedPlan::new_agg(proved, stats)),
    }
}

/// Parses one entry header via the shared framing, extracting the key.
fn parse_entry_header(line: &[u8]) -> Result<(u128, framing::FrameHeader), String> {
    let header = framing::parse_frame_header(line, "entry")?;
    if header.fields.len() != 1 {
        return Err("entry header needs exactly one key field".to_owned());
    }
    let key = u128::from_str_radix(&header.fields[0], 16).map_err(|_| "bad key hex".to_owned())?;
    Ok((key, header))
}

/// Reads every entry after the file header into `cache`; the first line
/// that is not a verified, well-formed entry is the error.
fn parse_entries(bytes: &[u8], mut pos: usize, cache: &PlanCache) -> Result<(), String> {
    while pos < bytes.len() {
        let (line, payload_start) = byte_line(bytes, pos);
        let (key, header) = parse_entry_header(line)?;
        let (payload, next) = framing::check_frame(bytes, &header, payload_start)
            .map_err(|e| format!("entry {key:032x}: {e}"))?;
        let plan = parse_payload(payload).map_err(|e| format!("entry {key:032x}: {e}"))?;
        cache.insert(PlanKey(key), plan);
        pos = next;
    }
    Ok(())
}

pub(crate) fn load(path: &Path, config: CacheConfig) -> io::Result<PlanCache> {
    let bytes = std::fs::read(path)?;
    let (header, pos) = byte_line(&bytes, 0);
    if header != HEADER.as_bytes() {
        return Err(bad("missing snapshot header"));
    }
    let cache = PlanCache::new(config);
    parse_entries(&bytes, pos, &cache).map_err(bad)?;
    Ok(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, ProgId, Program, Stmt};
    use udf_lang::intern::Interner;
    use udf_serve::framing::fnv64;

    fn sample_cache() -> PlanCache {
        let cache = PlanCache::default();
        let mut stats = ConsolidationStats {
            entailment_queries: 41,
            memo_hits: 3,
            pairs_consolidated: 2,
            ..ConsolidationStats::default()
        };
        stats.rules.if3 = 1;
        stats.solver.checks = 17;
        stats.tier = DegradationTier::Partial;
        let mut i = Interner::new();
        let (price, x) = (i.intern("price"), i.intern("u0$x%2"));
        let body = Stmt::Seq(
            Box::new(Stmt::Assign(
                x,
                IntExpr::mul(IntExpr::Var(price), IntExpr::Const(3)),
            )),
            Box::new(Stmt::Notify(ProgId(4), true)),
        );
        let prefilter = BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(10), IntExpr::Var(price));
        let program = Program::new(ProgId(4), vec![price], body);
        let plan = CachedPlan::new(&program, Some(&prefilter), &i, stats);
        cache.insert(PlanKey(0xdead_beef_0000_0001), plan);
        cache.insert(
            PlanKey(0xdead_beef_0000_0002),
            CachedPlan::new_agg(vec![true, false], stats),
        );
        cache
    }

    /// A snapshot file holding one correctly framed entry, key `2a`.
    fn framed(payload: &str) -> String {
        format!(
            "plan-cache-snapshot v3\nentry 2a {} {:016x}\n{payload}end\n",
            payload.len(),
            fnv64(payload.as_bytes())
        )
    }

    fn assert_same_entries(a: &PlanCache, b: &PlanCache) {
        let a = a.entries();
        let b = b.entries();
        assert_eq!(a.len(), b.len());
        for ((ka, pa), (kb, pb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(pa.plan, pb.plan);
            assert_eq!(pa.stats, pb.stats);
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("plan-cache-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        let cache = sample_cache();
        cache.save(&path).unwrap();
        let loaded = PlanCache::load(&path, CacheConfig::default()).unwrap();
        assert_same_entries(&cache, &loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let dir = std::env::temp_dir().join("plan-cache-test-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        sample_cache().save(&path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_to_unwritable_path_errors_without_touching_target() {
        let dir = std::env::temp_dir().join("plan-cache-test-nodir");
        std::fs::remove_dir_all(&dir).ok();
        // Parent directory does not exist: create/rename must fail and no
        // partial file may appear anywhere under it.
        let path = dir.join("snap.txt");
        assert!(sample_cache().save(&path).is_err());
        assert!(!path.exists());
    }

    #[test]
    fn load_rejects_malformed_snapshots() {
        let dir = std::env::temp_dir().join("plan-cache-test-malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let cases = [
            ("bad-header", "nope\n".to_owned()),
            // Older formats are not read: re-consolidating is always safe.
            (
                "old-header",
                framed("tier full\nprogram (program 1 (params) (skip))\n").replace("v3", "v2"),
            ),
            ("bad-key", "plan-cache-snapshot v3\nentry zz 0 0\nend\n".to_owned()),
            ("missing-tier", framed("program (program 1 (params) (skip))\n")),
            ("bad-program", framed("tier full\nprogram (program 1 (params) (frob))\n")),
            ("bad-flag", framed("tier full\nproved true yes\n")),
            (
                "two-plans",
                framed("tier full\nproved true\nprogram (program 1 (params) (skip))\n"),
            ),
            (
                "bad-crc",
                "plan-cache-snapshot v3\nentry 2a 34 0000000000000000\ntier full\nprogram (program 1 (params) (skip))\nend\n".to_owned(),
            ),
            // A line between entries that is not an entry header.
            (
                "debris",
                framed("tier full\nprogram (program 1 (params) (skip))\n") + "\n",
            ),
        ];
        for (name, text) in cases {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            assert!(
                PlanCache::load(&path, CacheConfig::default()).is_err(),
                "case {name} must be rejected"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn unknown_stats_are_skipped() {
        let dir = std::env::temp_dir().join("plan-cache-test-forward");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        let payload = "tier full\n\
                       stat rules.if3 5\n\
                       stat some.future.counter 9\n\
                       program (program 1 (params a) (skip))\n";
        std::fs::write(&path, framed(payload)).unwrap();
        let loaded = PlanCache::load(&path, CacheConfig::default()).unwrap();
        let entries = loaded.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, PlanKey(0x2a));
        assert_eq!(entries[0].1.stats.rules.if3, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_flipped_payload_byte_fails_the_load() {
        let dir = std::env::temp_dir().join("plan-cache-test-flipped");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        sample_cache().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // One flipped payload byte breaks that entry's checksum.
        let needle = b"(program 4 ";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("program entry present");
        bytes[at + 9] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = PlanCache::load(&path, CacheConfig::default()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_truncated_snapshot_fails_the_load() {
        let dir = std::env::temp_dir().join("plan-cache-test-truncate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        sample_cache().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // A file cut mid-payload loses its last entry's terminator.
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(PlanCache::load(&path, CacheConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// The exact bytes `save` writes for [`sample_cache`]: one program
    /// entry (a renamed local and a pre-filter) and one aggregation entry.
    const GOLDEN_SNAPSHOT: &str = "plan-cache-snapshot v3\n\
        entry 0000000000000000deadbeef00000001 777 ca9f7a0399685dc7\n\
        tier partial\n\
        stat entailment_queries 41\n\
        stat memo_hits 3\n\
        stat pairs_consolidated 2\n\
        stat pairs_degraded 0\n\
        stat rules.if_eliminated 0\n\
        stat rules.if3 1\n\
        stat rules.if4 0\n\
        stat rules.if5 0\n\
        stat rules.loop2 0\n\
        stat rules.loop3 0\n\
        stat rules.loop_seq 0\n\
        stat rules.depth_fallbacks 0\n\
        stat rules.budget_fallbacks 0\n\
        stat solver.checks 17\n\
        stat solver.theory_checks 0\n\
        stat solver.theory_conflicts 0\n\
        stat solver.minimized_literals 0\n\
        stat solver.core_literals 0\n\
        stat solver.core_fallbacks 0\n\
        stat solver.unknowns 0\n\
        stat solver.sat_decisions 0\n\
        stat solver.sat_conflicts 0\n\
        stat solver.sat_propagations 0\n\
        stat solver.simplex_pivots 0\n\
        stat solver.theory_rounds 0\n\
        program (program 4 (params price) (seq (assign u0$x%2 (mul (var price) (int 3))) (notify 4 true)) (prefilter (le (int 10) (var price))))\n\
        end\n\
        entry 0000000000000000deadbeef00000002 658 f829635b85f50978\n\
        tier partial\n\
        stat entailment_queries 41\n\
        stat memo_hits 3\n\
        stat pairs_consolidated 2\n\
        stat pairs_degraded 0\n\
        stat rules.if_eliminated 0\n\
        stat rules.if3 1\n\
        stat rules.if4 0\n\
        stat rules.if5 0\n\
        stat rules.loop2 0\n\
        stat rules.loop3 0\n\
        stat rules.loop_seq 0\n\
        stat rules.depth_fallbacks 0\n\
        stat rules.budget_fallbacks 0\n\
        stat solver.checks 17\n\
        stat solver.theory_checks 0\n\
        stat solver.theory_conflicts 0\n\
        stat solver.minimized_literals 0\n\
        stat solver.core_literals 0\n\
        stat solver.core_fallbacks 0\n\
        stat solver.unknowns 0\n\
        stat solver.sat_decisions 0\n\
        stat solver.sat_conflicts 0\n\
        stat solver.sat_propagations 0\n\
        stat solver.simplex_pivots 0\n\
        stat solver.theory_rounds 0\n\
        proved true false\n\
        end\n";

    #[test]
    fn save_bytes_are_golden() {
        let dir = std::env::temp_dir().join("plan-cache-test-golden");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        sample_cache().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text, GOLDEN_SNAPSHOT);
    }
}
