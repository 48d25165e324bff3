//! Streaming FNV-1a 64 output digests for engine results.
//!
//! Several layers need to certify that two runs observed *the same
//! outputs*: the bench harness compares backends, the chaos CI compares a
//! recovered service against an uncrashed reference, and the `udf-serve`
//! write-ahead journal stamps every epoch commit frame with a digest of
//! that epoch's observable effects. They all share this hasher, the
//! workspace's one FNV-1a 64 ([`udf_lang::canon::Fnv64`]), which is also
//! the durable-record checksum.

pub use udf_lang::canon::Fnv64;

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
        let mut whole = Fnv64::new();
        whole.bytes(&bytes);
        assert_eq!(h.finish(), whole.finish());
        // The published FNV-1a 64 test vectors: the empty string is the
        // offset basis.
        let mut a = Fnv64::new();
        assert_eq!(a.finish(), 0xcbf2_9ce4_8422_2325);
        a.bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
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
