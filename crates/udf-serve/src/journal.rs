//! The write-ahead epoch journal: crash-consistent durability for the
//! service.
//!
//! A journaled service (see [`crate::Service::open`] /
//! [`crate::Service::recover`]) appends one checksummed frame per state
//! transition — register, deregister, submit/reject, epoch commit — to
//! `journal.log` inside its durability directory, using the workspace's
//! [`crate::framing`] record format. Periodically the journal prefix is
//! folded into a full-state `checkpoint` file (atomic tmp+fsync+rename),
//! after which the journal is truncated back to its header. Programs
//! inside `reg` frames and checkpoint lines are the single-line wire text
//! of [`udf_lang::wire`]: one `write_program` out, one `read_program`
//! back, the exact tree either way.
//!
//! A checkpoint is *state*, the shared plan included: it carries the
//! [`consolidate::DeltaPlan`] merge tree itself (`plan` / `free` / `leaf`
//! / `node` lines, format `v2`), and recovery installs that tree after
//! validating it instead of re-deriving it through Ω — so a restart costs
//! what the live query set weighs, not what the service has lived through,
//! and touches the solver only for plan operations in the journal tail
//! ([`RecoveryReport::solver_checks`]). There is one format and one
//! reader; any other header is [`JournalError::Corrupt`].
//!
//! # Crash model and invariants
//!
//! - **Journal before acknowledge.** Every mutating service call appends
//!   its frame *before* returning to the caller. A crash mid-call can lose
//!   at most the one unacknowledged operation — exactly the operation
//!   whose caller never saw an `Ok`.
//! - **Frames are sequenced.** Frame sequence numbers are monotone across
//!   truncations and never reset. A checkpoint records the first sequence
//!   number it does *not* cover; recovery skips journal frames below it,
//!   which makes a crash between checkpoint rename and journal truncation
//!   harmless (the stale frames replay as no-ops).
//! - **Torn tails are salvaged, never parsed.** The first frame that fails
//!   length/terminator/checksum/sequence validation ends replay; it and
//!   everything after it are truncated away, reported through
//!   [`RecoveryReport`] as [`RecoveryIncident`]s.
//! - **Epoch commits are exactly-once.** `run_epoch` appends a single
//!   commit frame carrying the epoch's engine-dependent effects (demotions,
//!   per-tenant quarantine deltas) plus an output digest. Replay re-derives
//!   the deterministic parts (churn drain, shedding, batch drain) from the
//!   reconstructed queue and applies the journaled effects — records are
//!   never re-executed, so no record is double-processed. A crash before
//!   the commit frame means the epoch never happened: memory died with the
//!   process and no durable trace remains.
//!
//! # Crash-point injection
//!
//! [`SimCrash`] arms exactly one simulated crash at one of the enumerated
//! [`CrashPoint`]s. When it fires, the journal performs the partial or
//! unsynced write that a real crash at that point could leave behind
//! (including a seeded torn-write + bit-flip for [`CrashPoint::MidAppend`])
//! and returns [`JournalError::SimulatedCrash`]; the service poisons itself
//! and every subsequent call fails, modeling a dead process. Tests then
//! recover from the directory and diff against an uncrashed reference —
//! `tests/recovery_matrix.rs` sweeps every point, driven by `ci/chaos.sh`.

use crate::framing::{self, RecoveryIncident};
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use udf_obs::names;

/// Journal file name inside the durability directory.
pub(crate) const JOURNAL_FILE: &str = "journal.log";
/// Checkpoint file name inside the durability directory.
pub(crate) const CHECKPOINT_FILE: &str = "checkpoint";

const JOURNAL_HEADER: &str = "udf-serve-journal v1";
const CHECKPOINT_HEADER: &str = "udf-serve-checkpoint v2";
const SUBSYSTEM_JOURNAL: &str = "journal";

/// A durability-critical instant at which [`SimCrash`] can kill the
/// process's write mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Inside a frame append: a seeded prefix of the frame reaches the
    /// file, with one seeded bit flipped — a torn, corrupt tail.
    MidAppend,
    /// After the frame bytes are written but before `fsync`: the frame is
    /// complete in the file but was never acknowledged to the caller.
    PostAppendPreFsync,
    /// Inside the checkpoint temp-file write: a seeded prefix of the new
    /// checkpoint exists only under the temp name.
    MidCheckpoint,
    /// After the checkpoint temp file is written and synced but before the
    /// rename: the old checkpoint is still the published one.
    PostCheckpointFsyncPreRename,
    /// After the checkpoint rename but before the journal truncation: the
    /// new checkpoint is live while the journal still holds frames the
    /// checkpoint already covers.
    PostRenamePreTruncate,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CrashPoint::MidAppend => "mid-append",
            CrashPoint::PostAppendPreFsync => "post-append-pre-fsync",
            CrashPoint::MidCheckpoint => "mid-checkpoint",
            CrashPoint::PostCheckpointFsyncPreRename => "post-checkpoint-fsync-pre-rename",
            CrashPoint::PostRenamePreTruncate => "post-rename-pre-journal-truncate",
        };
        f.write_str(name)
    }
}

/// One armed simulated crash (see [`crate::ServeConfig::sim_crash`]).
///
/// Append points fire on the `after`-th frame append (1-based); checkpoint
/// points fire on the `after`-th checkpoint attempt. `seed` drives the torn
/// prefix length and bit-flip position for the corrupting points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCrash {
    /// Where in the durability pipeline the crash strikes.
    pub point: CrashPoint,
    /// Which occurrence (1-based) of the point's operation triggers it.
    pub after: u64,
    /// Seed for torn-write length and bit-flip position.
    pub seed: u64,
}

/// Errors from the durability layer.
#[derive(Debug, Clone)]
pub enum JournalError {
    /// An I/O operation on the journal or checkpoint failed.
    Io(String),
    /// A durable artifact that must be intact (an atomically-published
    /// checkpoint, the journal header, frame contents needed for replay)
    /// failed validation.
    Corrupt(String),
    /// The armed [`SimCrash`] fired; the service is now poisoned and must
    /// be recovered from disk.
    SimulatedCrash(CrashPoint),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Corrupt(e) => write!(f, "journal corrupt: {e}"),
            JournalError::SimulatedCrash(p) => write!(f, "simulated crash at {p}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(e: io::Error) -> JournalError {
    JournalError::Io(e.to_string())
}

/// Single-line wire codec for the service's record type, required to open
/// or recover a journaled service. The encoding must be injective and must
/// not contain newlines.
pub trait JournalRec: Sized {
    /// Appends the record as one line (no trailing newline) to `out`, so a
    /// frame or checkpoint of many records is written into one buffer.
    fn encode_rec(&self, out: &mut String);
    /// Parses a line produced by [`JournalRec::encode_rec`].
    ///
    /// # Errors
    ///
    /// A human-readable reason when the line does not parse.
    fn decode_rec(line: &str) -> Result<Self, String>;
}

impl JournalRec for Vec<i64> {
    fn encode_rec(&self, out: &mut String) {
        for (i, v) in self.iter().enumerate() {
            let sep = if i > 0 { " " } else { "" };
            let _ = write!(out, "{sep}{v}");
        }
    }

    fn decode_rec(line: &str) -> Result<Vec<i64>, String> {
        line.split_ascii_whitespace()
            .map(|w| {
                w.parse::<i64>()
                    .map_err(|_| format!("bad record value {w:?}"))
            })
            .collect()
    }
}

/// The faulty-env record shape `(global_id, payload)` — what
/// `FaultyEnv<ScalarEnv>` ingests (fault plans key on the embedded id, so
/// a recovered service replays the same faults for the same records).
impl JournalRec for (usize, Vec<i64>) {
    fn encode_rec(&self, out: &mut String) {
        let _ = write!(out, "{}", self.0);
        for v in &self.1 {
            let _ = write!(out, " {v}");
        }
    }

    fn decode_rec(line: &str) -> Result<(usize, Vec<i64>), String> {
        let mut words = line.split_ascii_whitespace();
        let id = words
            .next()
            .ok_or("empty faulty record line")?
            .parse::<usize>()
            .map_err(|_| "bad faulty record id".to_owned())?;
        let rest: Result<Vec<i64>, String> = words
            .map(|w| {
                w.parse::<i64>()
                    .map_err(|_| format!("bad record value {w:?}"))
            })
            .collect();
        Ok((id, rest?))
    }
}

/// What a service recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Frames replayed into service state.
    pub frames_replayed: u64,
    /// Frames skipped because the checkpoint already covered them (crash
    /// between checkpoint rename and journal truncation).
    pub frames_skipped: u64,
    /// Torn or corrupt tail frames truncated away.
    pub frames_salvaged: u64,
    /// Whether the journal ended in a torn tail (salvage fired).
    pub truncated_tail: bool,
    /// One incident per salvaged artifact.
    pub incidents: Vec<RecoveryIncident>,
    /// `(epoch, output_digest)` of every replayed epoch commit frame, in
    /// order — chaos tests diff these against the uncrashed reference.
    pub replayed_epoch_digests: Vec<(u64, u64)>,
    /// Plan-tree nodes installed from the checkpoint as written: live
    /// leaves plus stored merges (passthrough nodes are re-derived, not
    /// stored). 0 when there was no checkpoint.
    pub plan_nodes_restored: u64,
    /// SMT checks recovery issued: the solver bills of every delta
    /// operation the journal tail made it redo (`reg` / `dereg` frames,
    /// deferred churn applied by a replayed epoch, replayed demotions).
    /// Installing the checkpointed plan costs none, so this is 0 unless the
    /// tail changed the query set.
    pub solver_checks: u64,
}

/// The append side of the write-ahead journal, owned by a journaled
/// service. Generic over the service's record type only to capture its
/// [`JournalRec::encode_rec`] as a plain fn pointer, so unbounded service
/// methods can encode records.
pub(crate) struct Journal<R> {
    dir: PathBuf,
    file: File,
    next_seq: u64,
    appends_since_checkpoint: u64,
    appends_total: u64,
    checkpoints_total: u64,
    sim: Option<SimCrash>,
    pub(crate) encode: fn(&R, &mut String),
    recorder: udf_obs::RecorderCell,
}

impl<R> fmt::Debug for Journal<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<R: JournalRec> Journal<R> {
    /// Creates a fresh journal in `dir` (header only, no frames). Fails if
    /// durable state already exists there — callers must recover instead.
    pub(crate) fn create(
        dir: &Path,
        sim: Option<SimCrash>,
        recorder: udf_obs::RecorderCell,
    ) -> Result<Journal<R>, JournalError> {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let journal_path = dir.join(JOURNAL_FILE);
        if journal_path.exists() || dir.join(CHECKPOINT_FILE).exists() {
            return Err(JournalError::Io(format!(
                "durable state already exists in {} — use Service::recover",
                dir.display()
            )));
        }
        framing::atomic_write(&journal_path, format!("{JOURNAL_HEADER}\n").as_bytes())
            .map_err(io_err)?;
        Journal::resume(dir, 0, sim, recorder)
    }

    /// Opens the append handle on an existing journal without touching its
    /// contents; `next_seq` continues the recovered sequence.
    pub(crate) fn resume(
        dir: &Path,
        next_seq: u64,
        sim: Option<SimCrash>,
        recorder: udf_obs::RecorderCell,
    ) -> Result<Journal<R>, JournalError> {
        let file = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .map_err(io_err)?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            file,
            next_seq,
            appends_since_checkpoint: 0,
            appends_total: 0,
            checkpoints_total: 0,
            sim,
            encode: R::encode_rec,
            recorder,
        })
    }
}

impl<R> Journal<R> {
    /// Sequence number the next appended frame will carry — also the count
    /// of frames ever durably acknowledged (sequences never reset).
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Frames appended since the last checkpoint (the compaction trigger).
    pub(crate) fn appends_since_checkpoint(&self) -> u64 {
        self.appends_since_checkpoint
    }

    /// Appends one frame and syncs it; returns its sequence number.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`JournalError::SimulatedCrash`] when the armed
    /// [`SimCrash`] fires here (after performing its partial write).
    pub(crate) fn append(&mut self, kind: &str, payload: &str) -> Result<u64, JournalError> {
        let seq = self.next_seq;
        let frame = framing::render_frame("frame", &[seq.to_string(), kind.to_owned()], payload);
        self.appends_total += 1;
        if let Some(sim) = self.sim {
            if sim.after == self.appends_total {
                match sim.point {
                    CrashPoint::MidAppend => {
                        let bytes = frame.as_bytes();
                        // Torn write: a seeded prefix lands, one seeded bit
                        // flips. `% len` keeps it a strict prefix.
                        let keep = (sim.seed as usize) % bytes.len().max(1);
                        let mut torn = bytes[..keep].to_vec();
                        if !torn.is_empty() {
                            let at = (sim.seed >> 3) as usize % torn.len();
                            torn[at] ^= 1u8 << (sim.seed % 8) as u8;
                        }
                        let _ = self.file.write_all(&torn);
                        let _ = self.file.sync_data();
                        return Err(JournalError::SimulatedCrash(sim.point));
                    }
                    CrashPoint::PostAppendPreFsync => {
                        let _ = self.file.write_all(frame.as_bytes());
                        return Err(JournalError::SimulatedCrash(sim.point));
                    }
                    _ => {}
                }
            }
        }
        self.file.write_all(frame.as_bytes()).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        self.next_seq = seq + 1;
        self.appends_since_checkpoint += 1;
        self.recorder.add(names::JOURNAL_APPENDS, 1);
        Ok(seq)
    }

    /// Publishes a full-state checkpoint covering every frame below
    /// [`Journal::next_seq`], then truncates the journal back to its
    /// header. Temp-write → fsync → rename → truncate, with the armed
    /// [`SimCrash`] able to strike between any two steps.
    ///
    /// # Errors
    ///
    /// I/O failures or [`JournalError::SimulatedCrash`].
    pub(crate) fn checkpoint(&mut self, payload: &str) -> Result<(), JournalError> {
        self.checkpoints_total += 1;
        let sim = self
            .sim
            .filter(|s| s.after == self.checkpoints_total)
            .map(|s| (s.point, s.seed));
        let mut out = String::new();
        out.push_str(CHECKPOINT_HEADER);
        out.push('\n');
        out.push_str(&framing::render_frame(
            "state",
            &[self.next_seq.to_string()],
            payload,
        ));
        let ckpt = self.dir.join(CHECKPOINT_FILE);
        let tmp = framing::temp_path(&ckpt);
        if let Some((CrashPoint::MidCheckpoint, seed)) = sim {
            let bytes = out.as_bytes();
            let keep = (seed as usize) % bytes.len().max(1);
            let _ = std::fs::write(&tmp, &bytes[..keep]);
            return Err(JournalError::SimulatedCrash(CrashPoint::MidCheckpoint));
        }
        let write_tmp = || -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(out.as_bytes())?;
            f.sync_all()
        };
        write_tmp().map_err(io_err)?;
        if let Some((CrashPoint::PostCheckpointFsyncPreRename, _)) = sim {
            return Err(JournalError::SimulatedCrash(
                CrashPoint::PostCheckpointFsyncPreRename,
            ));
        }
        std::fs::rename(&tmp, &ckpt).map_err(io_err)?;
        if let Some((CrashPoint::PostRenamePreTruncate, _)) = sim {
            return Err(JournalError::SimulatedCrash(
                CrashPoint::PostRenamePreTruncate,
            ));
        }
        let journal_path = self.dir.join(JOURNAL_FILE);
        framing::atomic_write(&journal_path, format!("{JOURNAL_HEADER}\n").as_bytes())
            .map_err(io_err)?;
        // The rename replaced the inode the old handle pointed at.
        self.file = OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .map_err(io_err)?;
        self.appends_since_checkpoint = 0;
        self.recorder.add(names::JOURNAL_CHECKPOINTS, 1);
        Ok(())
    }
}

/// A checkpoint read back from disk: the first frame sequence it does not
/// cover, plus its verified payload.
pub(crate) struct LoadedCheckpoint {
    pub(crate) next_seq: u64,
    pub(crate) payload: String,
}

/// One verified journal frame.
pub(crate) struct LoadedFrame {
    pub(crate) seq: u64,
    pub(crate) kind: String,
    pub(crate) payload: String,
}

/// The journal's readable prefix plus salvage bookkeeping.
#[derive(Default)]
pub(crate) struct LoadedJournal {
    pub(crate) frames: Vec<LoadedFrame>,
    pub(crate) salvaged: u64,
    pub(crate) truncated_tail: bool,
    pub(crate) incidents: Vec<RecoveryIncident>,
}

/// Removes leftover temp files from writes that crashed before their
/// rename; returns how many were removed.
pub(crate) fn clean_orphan_temps(dir: &Path) -> io::Result<u64> {
    let mut removed = 0;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(&format!("{CHECKPOINT_FILE}.tmp."))
            || name.starts_with(&format!("{JOURNAL_FILE}.tmp."))
        {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Loads and verifies the checkpoint, if one was ever published.
///
/// # Errors
///
/// [`JournalError::Corrupt`] when a published checkpoint fails validation —
/// checkpoints are written atomically, so damage here is real disk rot,
/// not a crash artifact, and recovery must not guess around it.
pub(crate) fn load_checkpoint(dir: &Path) -> Result<Option<LoadedCheckpoint>, JournalError> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(e)),
    };
    let corrupt = |m: &str| JournalError::Corrupt(format!("checkpoint: {m}"));
    let (line, pos) = framing::byte_line(&bytes, 0);
    if line != CHECKPOINT_HEADER.as_bytes() {
        return Err(corrupt(&format!(
            "header {:?} is not {CHECKPOINT_HEADER:?}, the only format this build reads",
            String::from_utf8_lossy(line)
        )));
    }
    let (line, pos) = framing::byte_line(&bytes, pos);
    let header = framing::parse_frame_header(line, "state").map_err(|e| corrupt(&e))?;
    if header.fields.len() != 1 {
        return Err(corrupt("state frame needs exactly one next-seq field"));
    }
    let next_seq = header.fields[0]
        .parse::<u64>()
        .map_err(|_| corrupt("bad next-seq"))?;
    let (payload, resume) = framing::check_frame(&bytes, &header, pos).map_err(|e| corrupt(&e))?;
    if resume != bytes.len() {
        return Err(corrupt("trailing bytes after state frame"));
    }
    Ok(Some(LoadedCheckpoint {
        next_seq,
        payload: payload.to_owned(),
    }))
}

/// Scans the journal, yielding every verified frame up to the first torn or
/// corrupt one (which, with everything after it, is reported as salvaged —
/// an append-only writer cannot have valid frames beyond a torn one).
///
/// # Errors
///
/// [`JournalError::Corrupt`] when the journal header itself is damaged
/// (it is published atomically at creation, so this is disk rot).
pub(crate) fn load_journal(dir: &Path) -> Result<LoadedJournal, JournalError> {
    let path = dir.join(JOURNAL_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadedJournal::default()),
        Err(e) => return Err(io_err(e)),
    };
    let (line, mut pos) = framing::byte_line(&bytes, 0);
    if line != JOURNAL_HEADER.as_bytes() {
        return Err(JournalError::Corrupt("journal: bad header".to_owned()));
    }
    let mut out = LoadedJournal::default();
    while pos < bytes.len() {
        let (line, payload_start) = framing::byte_line(&bytes, pos);
        let frame = framing::parse_frame_header(line, "frame")
            .and_then(|header| {
                if header.fields.len() != 2 {
                    return Err("frame header needs seq and kind".to_owned());
                }
                let seq = header.fields[0]
                    .parse::<u64>()
                    .map_err(|_| "bad frame seq".to_owned())?;
                if let Some(prev) = out.frames.last() {
                    if seq != prev.seq + 1 {
                        return Err(format!(
                            "frame seq {seq} breaks sequence after {}",
                            prev.seq
                        ));
                    }
                }
                Ok((seq, header))
            })
            .and_then(|(seq, header)| {
                let (payload, resume) = framing::check_frame(&bytes, &header, payload_start)?;
                Ok((
                    LoadedFrame {
                        seq,
                        kind: header.fields[1].clone(),
                        payload: payload.to_owned(),
                    },
                    resume,
                ))
            });
        match frame {
            Ok((frame, resume)) => {
                out.frames.push(frame);
                pos = resume;
            }
            Err(reason) => {
                // Append-only writing means nothing beyond the first bad
                // frame can be valid: salvage the whole tail as one frame.
                out.salvaged += 1;
                out.truncated_tail = true;
                out.incidents.push(RecoveryIncident::new(
                    SUBSYSTEM_JOURNAL,
                    format!(
                        "torn tail truncated at byte {pos} ({} trailing bytes): {reason}",
                        bytes.len() - pos
                    ),
                ));
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("udf-serve-journal-{name}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_load_round_trips() {
        let d = dir("round-trip");
        let mut j: Journal<Vec<i64>> =
            Journal::create(&d, None, udf_obs::RecorderCell::noop()).unwrap();
        j.append("sub", "batch 0 epoch 0 seq 0 n 1\nrec 1 2 3\n")
            .unwrap();
        j.append(
            "epoch",
            "epoch 1 mode idle processed 0 applied 0 errors 0 digest 0\n",
        )
        .unwrap();
        let loaded = load_journal(&d).unwrap();
        assert_eq!(loaded.frames.len(), 2);
        assert_eq!(loaded.frames[0].kind, "sub");
        assert_eq!(loaded.frames[1].seq, 1);
        assert!(!loaded.truncated_tail);
    }

    #[test]
    fn checkpoint_covers_prefix_and_truncates() {
        let d = dir("checkpoint");
        let mut j: Journal<Vec<i64>> =
            Journal::create(&d, None, udf_obs::RecorderCell::noop()).unwrap();
        j.append("rej", "n 3\n").unwrap();
        j.checkpoint("epoch 0\n").unwrap();
        let ckpt = load_checkpoint(&d).unwrap().unwrap();
        assert_eq!(ckpt.next_seq, 1);
        assert_eq!(ckpt.payload, "epoch 0\n");
        assert!(load_journal(&d).unwrap().frames.is_empty(), "truncated");
        // Appends continue the global sequence after truncation.
        assert_eq!(j.append("rej", "n 1\n").unwrap(), 1);
    }

    #[test]
    fn torn_tail_is_salvaged_with_incident() {
        let d = dir("torn");
        let mut j: Journal<Vec<i64>> = Journal::create(
            &d,
            Some(SimCrash {
                point: CrashPoint::MidAppend,
                after: 2,
                seed: 41,
            }),
            udf_obs::RecorderCell::noop(),
        )
        .unwrap();
        j.append("rej", "n 1\n").unwrap();
        let err = j.append("rej", "n 2\n").unwrap_err();
        assert!(matches!(
            err,
            JournalError::SimulatedCrash(CrashPoint::MidAppend)
        ));
        let loaded = load_journal(&d).unwrap();
        assert_eq!(loaded.frames.len(), 1, "intact prefix survives");
        assert!(loaded.truncated_tail);
        assert_eq!(loaded.salvaged, 1);
        assert_eq!(loaded.incidents[0].subsystem, "journal");
    }

    #[test]
    fn record_codecs_round_trip() {
        fn line<R: JournalRec>(r: &R) -> String {
            let mut out = String::from("rec ");
            r.encode_rec(&mut out);
            out.split_off(4)
        }
        let v = vec![-3i64, 0, 99];
        assert_eq!(line(&v), "-3 0 99");
        assert_eq!(Vec::<i64>::decode_rec(&line(&v)).unwrap(), v);
        let empty: Vec<i64> = Vec::new();
        assert_eq!(line(&empty), "");
        assert_eq!(Vec::<i64>::decode_rec(&line(&empty)).unwrap(), empty);
        let p = (7usize, vec![1i64, -2]);
        assert_eq!(line(&p), "7 1 -2");
        assert_eq!(<(usize, Vec<i64>)>::decode_rec(&line(&p)).unwrap(), p);
        let bare = (3usize, Vec::<i64>::new());
        assert_eq!(line(&bare), "3");
        assert_eq!(<(usize, Vec<i64>)>::decode_rec(&line(&bare)).unwrap(), bare);
    }
}
