//! Point-in-time metrics snapshots and their hand-rolled JSON writer.
//!
//! The workspace is dependency-free by policy, so the writer here emits
//! exactly the subset the snapshot format needs: objects, strings with
//! `\"`/`\\`/`\n`/`\t`/`\r`/`\uXXXX` escapes, unsigned integers, and arrays
//! of `[index, count]` pairs. The dump is write-only: people and scripts
//! read it, nothing in the workspace parses it back, so the tests pin the
//! exact bytes instead of a round trip.

use crate::histogram::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time copy of every counter and histogram a recorder holds.
///
/// Snapshots are plain data: they compare with `==` (used by the
/// metrics/stats coherence tests) and serialize to JSON with
/// [`MetricsSnapshot::to_json`].
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
                count: 3,
                sum: 100,
                min: 10,
                max: 50,
                buckets: vec![(4, 1), (6, 2)],
            },
        );
        s
    }

    #[test]
    fn empty_dump_is_golden() {
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            r#"{"counters":{},"histograms":{}}"#
        );
    }

    #[test]
    fn escapes_dump_is_golden() {
        let mut s = MetricsSnapshot::default();
        s.counters
            .insert("weird \"name\"\\with\nstuff\tπ\r\u{1}".into(), 7);
        assert_eq!(
            s.to_json(),
            r#"{"counters":{"weird \"name\"\\with\nstuff\tπ\r\u0001":7},"histograms":{}}"#
        );
    }

    #[test]
    fn histogram_dump_is_golden() {
        assert_eq!(
            sample().to_json(),
            concat!(
                r#"{"counters":{"consolidate.rule.if4":3,"smt.checks":12},"#,
                r#""histograms":{"smt.check_ns":{"count":3,"sum":100,"min":10,"max":50,"#,
                r#""buckets":[[4,1],[6,2]]}}}"#
            )
        );
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        assert_eq!(sample().counter("smt.checks"), 12);
        assert_eq!(sample().counter("absent"), 0);
    }
}
