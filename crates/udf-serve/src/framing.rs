//! The checksummed record framing of every durable artifact in the
//! workspace.
//!
//! The service's write-ahead epoch journal and its checkpoint (and the
//! plan-cache snapshot, which imports this module) face one crash model —
//! a write can be torn at any byte, a sector can rot — and answer it the
//! same way, with this module's primitives:
//!
//! - **Length-framed, checksummed records.** Every record is one header
//!   line carrying the payload's byte length and an FNV-1a 64 checksum,
//!   followed by the payload and an `end` terminator:
//!
//!   ```text
//!   <keyword> <field>... <payload-bytes> <fnv1a64-hex>
//!   <payload lines...>
//!   end
//!   ```
//!
//!   A reader verifies length, terminator, checksum, and UTF-8 before
//!   trusting a single payload byte, so torn tails and bit flips are
//!   detected — never silently parsed.
//!
//! - **Atomic publication.** Whole-file artifacts (snapshots, checkpoints,
//!   journal truncations) go through [`atomic_write`]: write a sibling temp
//!   file, fsync, rename. A crash at any point leaves either the old file
//!   or the complete new one at the target path.
//!
//! - **One incident shape.** Journal recovery reports every record it
//!   truncated away as a [`RecoveryIncident`].

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use udf_lang::canon::Fnv64;

/// FNV-1a 64 over a byte string — the workspace's durable-record checksum
/// ([`Fnv64`], the same hasher as the engine's output digests).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.finish()
}

/// Returns the line starting at `pos` (without its newline) and the offset
/// just past it. Operates on raw bytes: corruption may have destroyed UTF-8
/// validity, which must not abort a salvage pass.
pub fn byte_line(bytes: &[u8], pos: usize) -> (&[u8], usize) {
    let end = bytes[pos..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |k| pos + k);
    let next = if end < bytes.len() { end + 1 } else { end };
    (&bytes[pos..end], next)
}

/// Sibling temp path for an atomic write (same directory, so the final
/// `rename` never crosses a filesystem).
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(os)
}

/// Atomically publishes `bytes` at `path`: write a sibling temp file,
/// fsync, rename over the target. Readers see either the old file or the
/// complete new one — never a partial write — and an error on any step
/// leaves the target untouched (the temp file is cleaned up).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    let write_all = || -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write_all().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// One salvaged-over record, as [`crate::RecoveryReport`] carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryIncident {
    /// Which durable artifact was damaged (`"journal"`).
    pub subsystem: &'static str,
    /// What was skipped and why, human-readable.
    pub detail: String,
}

impl RecoveryIncident {
    /// Creates an incident.
    pub(crate) fn new(subsystem: &'static str, detail: impl Into<String>) -> RecoveryIncident {
        RecoveryIncident {
            subsystem,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for RecoveryIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.subsystem, self.detail)
    }
}

/// Renders one framed record: header line (keyword, caller fields, payload
/// byte length, checksum), payload, `end` terminator.
pub fn render_frame(keyword: &str, fields: &[String], payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 64);
    out.push_str(keyword);
    for f in fields {
        out.push(' ');
        out.push_str(f);
    }
    out.push_str(&format!(
        " {} {:016x}\n",
        payload.len(),
        fnv64(payload.as_bytes())
    ));
    out.push_str(payload);
    out.push_str("end\n");
    out
}

/// A parsed frame header: the caller's fields plus the declared payload
/// length and checksum (the last two tokens of the header line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameHeader {
    /// The caller fields between the keyword and the length.
    pub fields: Vec<String>,
    /// Declared payload byte length.
    pub len: usize,
    /// Declared FNV-1a 64 checksum of the payload.
    pub crc: u64,
}

/// Parses one frame header line that must begin with `keyword`.
///
/// # Errors
///
/// A human-readable reason when the line is not UTF-8, does not start with
/// `keyword`, or its length/checksum tokens do not parse.
pub fn parse_frame_header(line: &[u8], keyword: &str) -> Result<FrameHeader, String> {
    let text = std::str::from_utf8(line).map_err(|_| format!("{keyword} header is not UTF-8"))?;
    let mut words: Vec<&str> = text.split_ascii_whitespace().collect();
    if words.first() != Some(&keyword) {
        return Err(format!("not a {keyword} header"));
    }
    if words.len() < 3 {
        return Err(format!("{keyword} header is missing length/checksum"));
    }
    let crc_word = words.pop().expect("len checked");
    let len_word = words.pop().expect("len checked");
    let crc = u64::from_str_radix(crc_word, 16).map_err(|_| "bad checksum hex".to_owned())?;
    let len: usize = len_word
        .parse()
        .map_err(|_| "bad payload length".to_owned())?;
    Ok(FrameHeader {
        fields: words[1..].iter().map(|w| (*w).to_owned()).collect(),
        len,
        crc,
    })
}

/// Verifies one frame's payload against its parsed header: length bound,
/// `end` terminator, checksum, UTF-8 — in that order.
///
/// On success returns the payload and the offset just past the `end`
/// terminator.
///
/// # Errors
///
/// The reason the frame is not intact.
pub fn check_frame<'a>(
    bytes: &'a [u8],
    header: &FrameHeader,
    payload_start: usize,
) -> Result<(&'a str, usize), String> {
    let payload_end = payload_start.saturating_add(header.len);
    if payload_end > bytes.len() {
        return Err("payload truncated".to_owned());
    }
    let payload = &bytes[payload_start..payload_end];
    // The `end` terminator must follow immediately; its absence means the
    // declared length itself is corrupt.
    let after = &bytes[payload_end..];
    if !(after.starts_with(b"end\n") || after == b"end") {
        return Err("missing end terminator".to_owned());
    }
    if fnv64(payload) != header.crc {
        return Err("checksum mismatch".to_owned());
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_owned())?;
    Ok((payload, payload_end + after.len().min(4)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let frame = render_frame("frame", &["7".to_owned(), "sub".to_owned()], "a b c\n");
        let bytes = frame.as_bytes();
        let (line, pos) = byte_line(bytes, 0);
        let header = parse_frame_header(line, "frame").unwrap();
        assert_eq!(header.fields, vec!["7".to_owned(), "sub".to_owned()]);
        let (payload, next) = check_frame(bytes, &header, pos).unwrap();
        assert_eq!(payload, "a b c\n");
        assert_eq!(next, bytes.len());
    }

    #[test]
    fn torn_and_flipped_frames_are_rejected() {
        let frame = render_frame("frame", &["1".to_owned()], "payload line\n");
        let bytes = frame.as_bytes();
        let (line, pos) = byte_line(bytes, 0);
        let header = parse_frame_header(line, "frame").unwrap();
        // Truncation inside the payload.
        let torn = &bytes[..bytes.len() - 6];
        let err = check_frame(torn, &header, pos).unwrap_err();
        assert!(err.contains("truncated") || err.contains("end terminator"));
        // A single flipped payload bit breaks the checksum.
        let mut flipped = bytes.to_vec();
        flipped[pos] ^= 0x40;
        let err = check_frame(&flipped, &header, pos).unwrap_err();
        assert_eq!(err, "checksum mismatch");
    }

    #[test]
    fn wrong_keyword_is_not_a_header() {
        assert!(parse_frame_header(b"entry 2a 5 0000000000000000", "frame").is_err());
        assert!(parse_frame_header(b"frame", "frame").is_err());
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("framing-test-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact");
        atomic_write(&path, b"one").unwrap();
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!temp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }
}
