//! Streaming FNV-1a 64 output digests for engine results.
//!
//! Several layers need to certify that two runs observed *the same
//! outputs*: the bench harness compares backends, the chaos CI compares a
//! recovered service against an uncrashed reference, and the `udf-serve`
//! write-ahead journal stamps every epoch commit frame with a digest of
//! that epoch's observable effects. They all share this hasher — the same
//! FNV-1a 64 constants as [`plan_cache::framing::fnv64`], streamed one
//! word at a time instead of over a contiguous byte string.

/// Streaming FNV-1a 64 hasher over little-endian `u64` words.
///
/// Feeding the words of a byte string one at a time produces the same
/// digest as hashing the concatenated `to_le_bytes` with
/// [`plan_cache::framing::fnv64`].
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a 64 offset basis.
    #[must_use]
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the digest, little-endian byte order.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a byte string into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_words_match_byte_string_fnv() {
        let mut h = Fnv64::new();
        h.u64(0x0102_0304_0506_0708);
        h.u64(7);
        let mut bytes = 0x0102_0304_0506_0708u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(h.finish(), plan_cache::framing::fnv64(&bytes));
    }

    #[test]
    fn bytes_and_word_feeds_compose() {
        let mut a = Fnv64::new();
        a.bytes(b"epoch 3");
        let mut b = Fnv64::new();
        for &c in b"epoch 3" {
            b.bytes(&[c]);
        }
        assert_eq!(a.finish(), b.finish());
    }
}
