//! Point-in-time metrics snapshots and their hand-rolled JSON codec.
//!
//! The workspace is dependency-free by policy (offline build container), so
//! the JSON writer and reader here implement exactly the subset the snapshot
//! format needs: objects, strings with `\"`/`\\`/`\n`/`\t`/`\uXXXX` escapes,
//! unsigned integers, and arrays of `[index, count]` pairs. Round-tripping is
//! tested property-style in the crate's test suite.

use crate::histogram::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time copy of every counter and histogram a recorder holds.
///
/// Snapshots are plain data: they compare with `==` (used by the
/// metrics/stats coherence tests), serialize to JSON with
/// [`MetricsSnapshot::to_json`], and parse back with
/// [`MetricsSnapshot::from_json`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, or `0` if it was never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram recorded under `name`, if any sample was observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Serializes the snapshot as a single JSON object:
    ///
    /// ```json
    /// {"counters": {"smt.checks": 12},
    ///  "histograms": {"smt.check_ns": {"count": 2, "sum": 90, "min": 40,
    ///                                   "max": 50, "buckets": [[6, 2]]}}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, k);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            );
            for (j, (b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{b},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Parses a snapshot previously produced by [`MetricsSnapshot::to_json`].
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let snap = p.snapshot()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input"));
        }
        Ok(snap)
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included: `"`,
/// `\\` and every control character are escaped. The workspace's one JSON
/// string writer — the explain tree and the figure emitters call it too.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`MetricsSnapshot::from_json`]: a message plus byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid utf8"))?;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated utf8"))?;
                    let s =
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit())
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii")
            .parse()
            .map_err(|_| self.err("number out of range"))
    }

    fn snapshot(&mut self) -> Result<MetricsSnapshot, JsonError> {
        let mut snap = MetricsSnapshot::default();
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(snap);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "counters" => snap.counters = self.counter_map()?,
                "histograms" => snap.histograms = self.histogram_map()?,
                _ => return Err(self.err("unknown top-level key")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(snap);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn counter_map(&mut self) -> Result<BTreeMap<String, u64>, JsonError> {
        let mut out = BTreeMap::new();
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            out.insert(key, self.number()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn histogram_map(&mut self) -> Result<BTreeMap<String, HistogramSnapshot>, JsonError> {
        let mut out = BTreeMap::new();
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            out.insert(key, self.histogram()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn histogram(&mut self) -> Result<HistogramSnapshot, JsonError> {
        let mut h = HistogramSnapshot::default();
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(h);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "count" => h.count = self.number()?,
                "sum" => h.sum = self.number()?,
                "min" => h.min = self.number()?,
                "max" => h.max = self.number()?,
                "buckets" => {
                    self.expect(b'[')?;
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        loop {
                            self.expect(b'[')?;
                            let idx = self.number()?;
                            self.expect(b',')?;
                            let n = self.number()?;
                            self.expect(b']')?;
                            let idx = u8::try_from(idx)
                                .map_err(|_| self.err("bucket index out of range"))?;
                            h.buckets.push((idx, n));
                            match self.peek() {
                                Some(b',') => self.pos += 1,
                                Some(b']') => {
                                    self.pos += 1;
                                    break;
                                }
                                _ => return Err(self.err("expected ',' or ']'")),
                            }
                        }
                    }
                }
                _ => return Err(self.err("unknown histogram key")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(h);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("smt.checks".into(), 12);
        s.counters.insert("consolidate.rule.if4".into(), 3);
        s.histograms.insert(
            "smt.check_ns".into(),
            HistogramSnapshot {
                count: 2,
                sum: 90,
                min: 40,
                max: 50,
                buckets: vec![(6, 2)],
            },
        );
        s
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let json = s.to_json();
        assert_eq!(MetricsSnapshot::from_json(&json).unwrap(), s);
    }

    #[test]
    fn empty_round_trip() {
        let s = MetricsSnapshot::default();
        assert_eq!(MetricsSnapshot::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn escapes_round_trip() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("weird \"name\"\\with\nstuff\tπ\r\u{1}".into(), 7);
        let json = s.to_json();
        assert!(json.contains("\\r\\u0001") && !json.chars().any(char::is_control), "{json}");
        assert_eq!(MetricsSnapshot::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn rejects_garbage() {
        assert!(MetricsSnapshot::from_json("not json").is_err());
        assert!(MetricsSnapshot::from_json("{\"counters\":{}}{").is_err());
        assert!(MetricsSnapshot::from_json("{\"bogus\":{}}").is_err());
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        assert_eq!(sample().counter("smt.checks"), 12);
        assert_eq!(sample().counter("absent"), 0);
    }
}
