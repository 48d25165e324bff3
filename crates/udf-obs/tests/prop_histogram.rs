//! Property tests for the log₂ histogram: the fast `leading_zeros` bucket
//! mapping must agree with a naive reference that scans bucket bounds, and
//! snapshots must account for every recorded sample exactly once.

// Integration tests may unwrap freely; the clippy gate denies it in src/.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use udf_obs::{bucket_bounds, bucket_index, Histogram, BUCKETS};

/// Reference bucketing: linear scan over the documented inclusive bounds.
fn reference_bucket(value: u64) -> usize {
    (0..BUCKETS)
        .find(|&i| {
            let (lo, hi) = bucket_bounds(i);
            lo <= value && value <= hi
        })
        .expect("bounds cover u64")
}

proptest! {
    #[test]
    fn bucket_index_matches_reference(v in any::<u64>()) {
        prop_assert_eq!(bucket_index(v), reference_bucket(v));
    }

    #[test]
    fn snapshot_accounts_for_every_sample(vs in prop::collection::vec(any::<u64>(), 0..200)) {
        let h = Histogram::new();
        for &v in &vs {
            h.record(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, vs.len() as u64);
        let bucket_total: u64 = s.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, vs.len() as u64);
        prop_assert_eq!(s.sum, vs.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        if let (Some(&lo), Some(&hi)) = (vs.iter().min(), vs.iter().max()) {
            prop_assert_eq!(s.min, lo);
            prop_assert_eq!(s.max, hi);
        }
        // Each sample must be counted in exactly the bucket the reference
        // mapping assigns it.
        for i in 0..BUCKETS {
            let expected = vs.iter().filter(|&&v| reference_bucket(v) == i).count() as u64;
            let got = s.buckets.iter().find(|&&(b, _)| b as usize == i).map_or(0, |&(_, n)| n);
            prop_assert_eq!(got, expected, "bucket {} disagrees", i);
        }
    }
}

#[test]
fn bounds_partition_u64() {
    let mut next = 0u64;
    for i in 0..BUCKETS {
        let (lo, hi) = bucket_bounds(i);
        assert_eq!(
            lo,
            next,
            "bucket {i} does not start where {} ended",
            i.wrapping_sub(1)
        );
        assert!(hi >= lo);
        if i + 1 < BUCKETS {
            next = hi + 1;
        } else {
            assert_eq!(hi, u64::MAX);
        }
    }
}
