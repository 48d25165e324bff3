//! The checkpoint carries the shared plan's *tree*, and recovery installs
//! it instead of re-deriving it through Ω:
//!
//! - the installed tree is the exported one — every leaf, every stored
//!   merge and its tier, slot order, the free list in order, the rename
//!   counter, the capacity — after a seeded schedule of registrations and
//!   deregistrations that doubles the tree several times;
//! - the recovered service and the one that never stopped go on identically
//!   under further churn, down to the merged program's text;
//! - a checkpoint whose frame checksum is fine but whose tree is not one
//!   `DeltaPlan` could have built is `Corrupt`, and so is one in the old
//!   (`v1`, plan-history) format — nothing on disk is touched either way;
//! - recovery from a checkpoint alone issues no SMT check, and
//!   [`RecoveryReport::solver_checks`] says so as a number.
//!
//! `ci/chaos.sh` sweeps this file across `CHAOS_SEED` values.

mod common;

use common::{chaos, library, splitmix64};
use naiad_lite::ScalarEnv;
use std::path::{Path, PathBuf};
use udf_lang::ast::ProgId;
use udf_lang::intern::Interner;
use udf_lang::pretty;
use udf_serve::framing;
use udf_serve::{
    ChurnOutcome, JournalError, RecoveryReport, ServeConfig, ServeError, Service, TenantId,
};

const CHECKPOINT: &str = "checkpoint";
const JOURNAL: &str = "journal.log";

fn build_env() -> (ScalarEnv, Interner) {
    let mut interner = Interner::new();
    (ScalarEnv::new(1, library(&mut interner)), interner)
}

fn config() -> ServeConfig {
    ServeConfig {
        // Checkpoints happen where the tests ask for them, nowhere else.
        journal_checkpoint_every: u64::MAX,
        ..ServeConfig::default()
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "plan-checkpoint-{name}-{}-{}",
        std::process::id(),
        chaos(0)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn open(dir: &Path) -> Service<ScalarEnv> {
    let (env, interner) = build_env();
    Service::open(env, interner, config(), dir).expect("open")
}

fn recover(dir: &Path) -> Result<(Service<ScalarEnv>, RecoveryReport), ServeError> {
    let (env, interner) = build_env();
    Service::recover(env, interner, config(), dir)
}

/// Seeded register / deregister traffic, applied to any number of services
/// in lockstep.
struct Churn {
    rng: u64,
    next_query: u32,
    live: Vec<(u32, u32)>,
}

impl Churn {
    fn new(seed: u64) -> Churn {
        Churn {
            rng: chaos(seed),
            next_query: 0,
            live: Vec::new(),
        }
    }

    /// One op, the same on every service: a registration while fewer than
    /// five queries are live (so the tree doubles to capacity 8 at least),
    /// then three registrations in five.
    fn step(&mut self, services: &mut [&mut Service<ScalarEnv>]) {
        if self.live.len() < 5 || splitmix64(&mut self.rng) % 5 < 3 {
            self.register(services);
        } else {
            let at = (splitmix64(&mut self.rng) as usize) % self.live.len();
            self.deregister(at, services);
        }
    }

    fn register(&mut self, services: &mut [&mut Service<ScalarEnv>]) {
        let tenant = (splitmix64(&mut self.rng) % 3) as u32;
        let id = self.next_query;
        self.next_query += 1;
        let f = if id % 3 == 2 { "probe" } else { "half" };
        let th = splitmix64(&mut self.rng) % 40;
        let src = format!(
            "program q{id} @{id} (v) {{
                 p := {f}(v);
                 if (p > {th}) {{ notify true; }} else {{ notify false; }}
             }}"
        );
        for svc in services.iter_mut() {
            let q = udf_lang::parse::parse_program(&src, svc.interner_mut()).expect("parses");
            let outcome = svc.register(TenantId(tenant), &q).expect("register");
            assert!(matches!(outcome, ChurnOutcome::Applied(_)));
        }
        self.live.push((tenant, id));
    }

    fn deregister(&mut self, at: usize, services: &mut [&mut Service<ScalarEnv>]) {
        let (tenant, id) = self.live.remove(at);
        for svc in services.iter_mut() {
            let outcome = svc
                .deregister(TenantId(tenant), ProgId(id))
                .expect("deregister");
            assert!(matches!(outcome, ChurnOutcome::Applied(_)));
        }
    }
}

/// Everything [`consolidate::DeltaPlan::export`] and the plan's public
/// readers say, as text (symbols differ between interners; names do not).
fn render(svc: &mut Service<ScalarEnv>) -> String {
    use std::fmt::Write as _;
    let image = svc.plan().export();
    let ids = svc.plan().ids();
    let tier = svc.plan().tier();
    let root = svc.plan().program().cloned();
    let i = svc.interner_mut();
    let mut out = format!(
        "cap {} renames {} free {:?} ids {ids:?} tier {tier}\n",
        image.cap, image.renames, image.free
    );
    for leaf in &image.leaves {
        let (original, renamed) = (
            pretty::program(&leaf.original, i),
            pretty::program(&leaf.renamed, i),
        );
        let _ = writeln!(out, "leaf {}\n{original}{renamed}", leaf.slot);
    }
    for node in &image.nodes {
        let merged = pretty::program(&node.program, i);
        let _ = writeln!(out, "node {} {}\n{merged}", node.index, node.tier);
    }
    if let Some(root) = root {
        let _ = writeln!(out, "root\n{}", pretty::program(&root, i));
    }
    out
}

/// A live service after `ops` churn ops and a checkpoint, plus a copy of
/// its durability directory taken right after that checkpoint. The last op
/// is always a deregistration, so whatever the seed the tree has a hole on
/// its free list as well as merges.
fn churned(name: &str, ops: u32) -> (Service<ScalarEnv>, Churn, PathBuf, PathBuf) {
    let dir = fresh_dir(name);
    let mut live = open(&dir);
    let mut churn = Churn::new(0xC0FF_EE00 + u64::from(ops));
    for _ in 1..ops {
        churn.step(&mut [&mut live]);
    }
    let at = (splitmix64(&mut churn.rng) as usize) % churn.live.len();
    churn.deregister(at, &mut [&mut live]);
    live.checkpoint().expect("checkpoint");
    let copy = fresh_dir(&format!("{name}-copy"));
    for file in [CHECKPOINT, JOURNAL] {
        std::fs::copy(dir.join(file), copy.join(file)).expect("copy durable state");
    }
    (live, churn, dir, copy)
}

#[test]
fn recovery_installs_the_exported_tree_exactly() {
    let (mut live, _, dir, copy) = churned("exact", 40);
    let image = live.plan().export();
    assert!(
        image.cap >= 8,
        "five live queries need capacity 8 (cap {})",
        image.cap
    );
    assert!(!image.free.is_empty() && !image.nodes.is_empty());

    let (mut recovered, report) = recover(&copy).expect("recover");
    assert_eq!(render(&mut recovered), render(&mut live));
    assert_eq!(
        report.plan_nodes_restored,
        (image.leaves.len() + image.nodes.len()) as u64
    );
    assert_eq!((report.frames_replayed, report.solver_checks), (0, 0));
    for d in [dir, copy] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn a_restored_plan_continues_like_its_live_twin() {
    let (mut live, mut churn, dir, copy) = churned("twin", 40);
    let (mut recovered, _) = recover(&copy).expect("recover");
    for _ in 0..6 {
        churn.step(&mut [&mut live, &mut recovered]);
    }
    let root = |svc: &mut Service<ScalarEnv>| {
        let root = svc
            .plan()
            .program()
            .cloned()
            .expect("queries are registered");
        (
            pretty::program(&root, svc.interner_mut()),
            svc.plan().ids(),
            svc.plan().tier(),
        )
    };
    assert_eq!(root(&mut recovered), root(&mut live));
    // And not just at the root: same slots, same merges, same names.
    assert_eq!(render(&mut recovered), render(&mut live));
    for d in [dir, copy] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Splits a checkpoint file into its header line, the `state` frame's
/// next-seq field, and the verified payload.
fn read_checkpoint(dir: &Path) -> (String, String, String) {
    let bytes = std::fs::read(dir.join(CHECKPOINT)).expect("checkpoint exists");
    let (header, pos) = framing::byte_line(&bytes, 0);
    let (line, pos) = framing::byte_line(&bytes, pos);
    let frame = framing::parse_frame_header(line, "state").expect("state frame");
    let (payload, _) = framing::check_frame(&bytes, &frame, pos).expect("intact frame");
    (
        String::from_utf8_lossy(header).into_owned(),
        frame.fields[0].clone(),
        payload.to_owned(),
    )
}

/// Publishes `payload` as the directory's checkpoint with a *valid* frame
/// checksum, so only what it says can be wrong with it.
fn write_checkpoint(dir: &Path, header: &str, next_seq: &str, payload: &str) {
    let frame = framing::render_frame("state", &[next_seq.to_owned()], payload);
    std::fs::write(dir.join(CHECKPOINT), format!("{header}\n{frame}")).expect("write checkpoint");
}

/// Recovery must fail as `Corrupt`, mention `why`, and leave the directory
/// byte-for-byte as it found it.
fn assert_corrupt(dir: &Path, why: &[&str]) {
    let before = [CHECKPOINT, JOURNAL].map(|f| std::fs::read(dir.join(f)).expect("durable file"));
    match recover(dir) {
        Err(ServeError::Journal(JournalError::Corrupt(msg))) => {
            for w in why {
                assert!(msg.contains(w), "{msg:?} should mention {w:?}");
            }
        }
        Err(other) => panic!("expected Corrupt mentioning {why:?}, got {other}"),
        Ok(_) => panic!("expected Corrupt mentioning {why:?}, but recovery succeeded"),
    }
    let after = [CHECKPOINT, JOURNAL].map(|f| std::fs::read(dir.join(f)).expect("durable file"));
    assert!(before == after, "a refused recovery must not write");
}

#[test]
fn an_inconsistent_tree_behind_a_valid_checksum_is_corrupt() {
    let (live, _, dir, copy) = churned("corrupt", 24);
    let image = live.plan().export();
    drop(live);
    let (header, next_seq, payload) = read_checkpoint(&copy);
    let line_of = |prefix: &str| -> &str {
        payload
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in\n{payload}"))
    };
    let swap_line =
        |old: &str, new: &str| payload.replacen(&format!("{old}\n"), &format!("{new}\n"), 1);
    let program_of = |line: &str, fields: usize| -> String {
        line.splitn(fields + 1, ' ')
            .nth(fields)
            .expect("program text")
            .to_owned()
    };

    // A stored merge that does not notify what its children notify: the
    // root's text replaced by one leaf's.
    let node = line_of(&format!("node {} ", image.nodes[0].index));
    let leaf = line_of(&format!("leaf {} ", image.leaves[0].slot));
    let forged = format!("node {} full {}", image.nodes[0].index, program_of(leaf, 2));
    write_checkpoint(&copy, &header, &next_seq, &swap_line(node, &forged));
    assert_corrupt(
        &copy,
        &[
            "checkpoint",
            "does not notify exactly what its children notify",
        ],
    );

    // A slot both live and free.
    let free = line_of("free");
    let both = format!(
        "free {}",
        std::iter::once(image.leaves[0].slot)
            .chain(image.free.iter().skip(1).copied())
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    assert_ne!(free, both);
    write_checkpoint(&copy, &header, &next_seq, &swap_line(free, &both));
    assert_corrupt(&copy, &["checkpoint", "listed twice"]);

    // A leaf that notifies someone else's id.
    let (own, foreign) = (image.leaves[0].original.id.0, image.leaves[1].original.id.0);
    let text = program_of(leaf, 2);
    let hijacked = text.replace(&format!("(notify {own} "), &format!("(notify {foreign} "));
    assert_ne!(
        text, hijacked,
        "the wire text spells notify as (notify <id> <bool>): {text}"
    );
    let forged = format!("leaf {} {hijacked}", image.leaves[0].slot);
    write_checkpoint(&copy, &header, &next_seq, &swap_line(leaf, &forged));
    assert_corrupt(&copy, &["checkpoint", "does not notify exactly its own id"]);

    // A leaf no tenant owns: the plan and the tenants disagree.
    let orphan = payload.replacen(&format!("{leaf}\n"), "", 1);
    write_checkpoint(&copy, &header, &next_seq, &orphan);
    assert_corrupt(&copy, &["checkpoint", "belong in the shared plan"]);

    // The untouched payload, re-framed the same way, still recovers.
    write_checkpoint(&copy, &header, &next_seq, &payload);
    recover(&copy).expect("the original payload is fine");
    for d in [dir, copy] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn a_v1_checkpoint_is_refused_by_name() {
    let (live, _, dir, copy) = churned("v1", 6);
    drop(live);
    let (header, next_seq, payload) = read_checkpoint(&copy);
    assert_eq!(header, "udf-serve-checkpoint v2");
    write_checkpoint(&copy, "udf-serve-checkpoint v1", &next_seq, &payload);
    assert_corrupt(
        &copy,
        &["udf-serve-checkpoint v1", "udf-serve-checkpoint v2"],
    );
    for d in [dir, copy] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn recovery_is_solver_free_unless_the_tail_changes_the_query_set() {
    let (mut live, mut churn, dir, copy) = churned("solver-free", 12);
    let (recovered, report) = recover(&copy).expect("recover");
    assert_eq!(
        report.solver_checks, 0,
        "a checkpoint-only directory needs no proof"
    );
    assert_eq!(report.frames_replayed, 0);
    assert!(report.plan_nodes_restored > 0);
    assert_eq!(
        format!("{:?}", recovered.status()),
        format!("{:?}", live.status())
    );
    drop(recovered);

    // Registrations after the checkpoint are journal tail: those, and only
    // those, go back through Ω.
    let tail = 4;
    for _ in 0..tail {
        churn.step(&mut [&mut live]);
    }
    let expected = render(&mut live);
    drop(live);
    let (mut recovered, report) = recover(&dir).expect("recover with a tail");
    assert_eq!(report.frames_replayed, tail);
    assert!(
        report.solver_checks > 0,
        "the tail's delta ops are re-proved"
    );
    assert_eq!(render(&mut recovered), expected);
    for d in [dir, copy] {
        let _ = std::fs::remove_dir_all(d);
    }
}
