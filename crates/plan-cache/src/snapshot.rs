//! Textual cache snapshots for warm starts across processes.
//!
//! The format is line-oriented and hand-rolled (the build is offline; no
//! serde). Keys are canonical hashes — stable across processes by
//! construction — and programs are the single-line S-expressions of
//! [`crate::portable`], written verbatim from the entry, so a snapshot
//! written by one run primes the next.
//!
//! Snapshots are crash-safe: every entry header carries the byte length of
//! its payload and an FNV-1a 64 checksum over it, writes go through a temp
//! file renamed into place (a crash mid-write never leaves a half-written
//! snapshot at the target path), and [`load_recovering`] salvages around
//! corrupt or truncated entries instead of erroring the whole file:
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
//! A file with any other header (older formats included) is not read:
//! strict loading fails, lenient loading starts cold — the cost is a
//! re-consolidation, never a wrong plan.

use crate::framing::{self, byte_line, RecoveryIncident};
use crate::{CacheConfig, CachedPlan, Plan, PlanCache, PlanKey};
use consolidate::{ConsolidationStats, DegradationTier};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

const HEADER: &str = "plan-cache-snapshot v3";

/// Incident source tag for the shared [`RecoveryIncident`] shape.
const SUBSYSTEM: &str = "plan-cache";

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
/// Any malformed line is an error — in salvage mode the caller skips the
/// entry, in strict mode it fails the load.
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

/// Account of a lenient snapshot load (see [`PlanCache::load_recovering`]).
///
/// Every entry header the loader recognizes is counted in `total` and lands
/// in exactly one of `loaded` (verified and inserted) or `salvaged` (skipped
/// because its payload failed the length, checksum, or shape checks), so
/// `loaded + salvaged == total` always holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotRecovery {
    /// Entry headers recognized in the file.
    pub total: usize,
    /// Entries that verified and were inserted into the cache.
    pub loaded: usize,
    /// Entries skipped because they were corrupt or truncated.
    pub salvaged: usize,
    /// One incident per skipped entry (or rejected header), in the
    /// [`RecoveryIncident`] shape shared with the `udf-serve` journal.
    pub incidents: Vec<RecoveryIncident>,
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

/// The shared parser. In lenient mode every malformed entry is skipped and
/// accounted; in strict mode (`load`) the first incident fails the load.
fn parse_entries(bytes: &[u8], cache: &PlanCache) -> SnapshotRecovery {
    let mut recovery = SnapshotRecovery::default();
    // Skip the header line (the caller verified it).
    let (_, mut pos) = byte_line(bytes, 0);
    while pos < bytes.len() {
        let (line, next) = byte_line(bytes, pos);
        if !line.starts_with(b"entry ") {
            // Blank separators, the `end` of a salvaged-over entry, or
            // corrupt debris between entries: not an entry, not counted.
            pos = next;
            continue;
        }
        recovery.total += 1;
        // Verify the entry in stages; the first failure salvages it: the
        // incident is recorded, the scan resumes at `resume`, and the outer
        // loop hunts for the next `entry ` line from there.
        match verify_entry(bytes, line, next, cache) {
            Ok(resume) => {
                recovery.loaded += 1;
                pos = resume;
            }
            Err((resume, msg)) => {
                recovery.salvaged += 1;
                recovery
                    .incidents
                    .push(RecoveryIncident::new(SUBSYSTEM, msg));
                pos = resume;
            }
        }
    }
    recovery
}

/// Checks one entry (header at `line`, payload starting at `payload_start`)
/// and inserts it on success. Returns the offset to continue scanning from —
/// past the `end` terminator on success, at the best guess for the next
/// header on failure (with the incident message).
fn verify_entry(
    bytes: &[u8],
    line: &[u8],
    payload_start: usize,
    cache: &PlanCache,
) -> Result<usize, (usize, String)> {
    let (key, header) =
        parse_entry_header(line).map_err(|e| (payload_start, format!("entry skipped: {e}")))?;
    let key_text = format!("{key:032x}");
    let (payload, resume) = framing::check_frame(bytes, &header, payload_start)
        .map_err(|(resume, e)| (resume, format!("entry {key_text} skipped: {e}")))?;
    let plan = parse_payload(payload).map_err(|e| {
        let payload_end = payload_start + header.len;
        (payload_end, format!("entry {key_text} skipped: {e}"))
    })?;
    cache.insert(PlanKey(key), plan);
    Ok(resume)
}

fn has_header(bytes: &[u8]) -> bool {
    byte_line(bytes, 0).0 == HEADER.as_bytes()
}

pub(crate) fn load(path: &Path, config: CacheConfig) -> io::Result<PlanCache> {
    let bytes = std::fs::read(path)?;
    if !has_header(&bytes) {
        return Err(bad("missing snapshot header"));
    }
    let cache = PlanCache::new(config);
    match parse_entries(&bytes, &cache).incidents.first() {
        None => Ok(cache),
        Some(first) => Err(bad(first.detail.clone())),
    }
}

pub(crate) fn load_recovering(
    path: &Path,
    config: CacheConfig,
) -> io::Result<(PlanCache, SnapshotRecovery)> {
    let bytes = std::fs::read(path)?;
    let cache = PlanCache::new(config);
    let recovery = if has_header(&bytes) {
        parse_entries(&bytes, &cache)
    } else {
        SnapshotRecovery {
            incidents: vec![RecoveryIncident::new(
                SUBSYSTEM,
                "unrecognized snapshot header, starting cold",
            )],
            ..SnapshotRecovery::default()
        }
    };
    Ok((cache, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::fnv64;
    use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, ProgId, Program, Stmt};
    use udf_lang::intern::Interner;

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
        ];
        for (name, text) in cases {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            assert!(
                PlanCache::load(&path, CacheConfig::default()).is_err(),
                "case {name} must be rejected"
            );
            // The lenient loader turns every one of them into a cold start.
            let (cache, recovery) = PlanCache::load_recovering(
                &path,
                CacheConfig::default(),
                &udf_obs::RecorderCell::noop(),
            )
            .unwrap();
            assert_eq!(cache.len(), 0, "case {name}");
            assert_eq!(recovery.incidents.len(), 1, "case {name}");
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
    fn salvage_skips_corrupt_entries_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join("plan-cache-test-salvage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        let cache = PlanCache::default();
        for id in 0..4u32 {
            cache.insert(
                PlanKey(u128::from(id) + 1),
                CachedPlan::new(
                    &Program::new(ProgId(id), vec![], Stmt::Notify(ProgId(id), true)),
                    None,
                    &Interner::new(),
                    ConsolidationStats::default(),
                ),
            );
        }
        cache.save(&path).unwrap();
        // Flip one payload byte of the second entry: its checksum breaks,
        // the other three must still load.
        let mut bytes = std::fs::read(&path).unwrap();
        let needle = b"(program 1 ";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("second entry present");
        bytes[at + 9] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let recorder = udf_obs::RecorderCell::memory();
        let (loaded, recovery) =
            PlanCache::load_recovering(&path, CacheConfig::default(), &recorder).unwrap();
        assert_eq!(
            (recovery.total, recovery.loaded, recovery.salvaged),
            (4, 3, 1)
        );
        assert_eq!(loaded.len(), 3);
        assert!(
            recovery.incidents[0].detail.contains("checksum mismatch"),
            "{recovery:?}"
        );
        assert_eq!(recovery.incidents[0].subsystem, "plan-cache");
        assert_eq!(
            recorder
                .snapshot()
                .unwrap()
                .counter(udf_obs::names::CACHE_SNAPSHOT_SALVAGED),
            1
        );
        // Strict load refuses the same file.
        assert!(PlanCache::load(&path, CacheConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_tolerates_truncation() {
        let dir = std::env::temp_dir().join("plan-cache-test-truncate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        let cache = sample_cache();
        cache.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut the file mid-payload: the last entry is unloadable, but the
        // load still succeeds with an accounted salvage.
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let (loaded, recovery) = PlanCache::load_recovering(
            &path,
            CacheConfig::default(),
            &udf_obs::RecorderCell::noop(),
        )
        .unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(
            (recovery.total, recovery.loaded, recovery.salvaged),
            (2, 1, 1)
        );
        std::fs::remove_file(&path).ok();
    }
}
