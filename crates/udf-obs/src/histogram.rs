//! Log₂-bucketed histograms with atomic recording.
//!
//! Values are `u64` samples (typically latencies in nanoseconds). Bucket `0`
//! holds exactly the value `0`; bucket `k ≥ 1` holds the half-open power-of-two
//! range `[2^(k−1), 2^k − 1]`, so 65 buckets cover the full `u64` domain. The
//! mapping is a single `leading_zeros` instruction and recording is a handful
//! of relaxed atomic adds — cheap enough to leave enabled on hot paths.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for `0` plus one per power-of-two range of `u64`.
pub const BUCKETS: usize = 65;

/// Maps a sample to its bucket index: `0 → 0`, otherwise `64 − leading_zeros`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Inclusive `(low, high)` bounds of bucket `i`.
///
/// Bucket `0` is `(0, 0)`; bucket `k ≥ 1` is `(2^(k−1), 2^k − 1)` with the
/// final bucket capped at `u64::MAX`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == BUCKETS - 1 {
        (1u64 << (i - 1), u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A concurrent log₂ histogram. All updates are relaxed atomics; snapshots
/// are *not* linearizable across buckets (a snapshot taken mid-record may see
/// the bucket increment but not yet the sum), which is fine for metrics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Minimum recorded value; `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state (sparse: empty buckets are
    /// omitted).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Immutable copy of a [`Histogram`], suitable for reports and JSON dumps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all samples (wraps only after `u64` overflow).
    pub sum: u64,
    /// Smallest recorded sample (`0` when empty).
    pub min: u64,
    /// Largest recorded sample (`0` when empty).
    pub max: u64,
    /// Sparse `(bucket index, sample count)` pairs, ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or `None` when empty.
    #[cfg(test)]
    pub(crate) fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bounds_are_monotone_and_adjacent() {
        let mut prev_high: Option<u64> = None;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i} inverted");
            if let Some(p) = prev_high {
                assert_eq!(lo, p + 1, "gap/overlap before bucket {i}");
            }
            prev_high = Some(hi);
        }
        assert_eq!(prev_high, Some(u64::MAX));
    }

    #[test]
    fn index_lands_inside_bounds() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} not in bucket {i} [{lo},{hi}]");
        }
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1007);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), Some(201));
        let total: u64 = s.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_snapshot_is_default() {
        assert_eq!(Histogram::new().snapshot(), HistogramSnapshot::default());
    }
}
