//! The workspace's one FNV-1a-64 implementation.
//!
//! Every digest in the reproduction — the `rocc-snapshot` trailer,
//! the observatory's manifest/golden digests, ECMP flow hashing, and the
//! per-component state digests of the divergence observatory — speaks
//! the same 64-bit FNV-1a so artifacts stay comparable across tools and
//! the constant folding lives in exactly one place. The helper sits in
//! `rocc-stats` because that crate is the dependency root every other
//! crate can reach (`rocc-core` depends on `rocc-sim`, so the helper
//! cannot live in `rocc-core` itself; `rocc-core` re-exports this module
//! as its public home).
//!
//! Reference: FNV-1a with the standard 64-bit offset basis and prime.
//! The digest of the empty input is the offset basis itself — pinned by
//! a unit test because three previously hand-rolled loops (snapshot
//! trailer, observatory digest, golden fingerprints) were deduplicated
//! into this helper and must keep byte-identical output.

/// FNV-1a 64-bit offset basis (digest of the empty input).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a-64: feed byte slices incrementally, read the digest
/// at any point. `Fnv64::default()` starts at the offset basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Absorb `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorb one `u64` in little-endian byte order (the word codecs'
    /// native encoding).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a-64 over `bytes`.
#[inline]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a-64 digest rendered as 16 lowercase hex digits — the exchange
/// format used by run manifests, golden documents, and digest ledgers.
pub fn hex_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_64(bytes))
}

/// Read back a digest in [`hex_digest`]'s form: exactly 16 lowercase hex
/// digits, so the digest re-renders as the same text.
pub fn parse_hex_digest(s: &str) -> Option<u64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(fnv1a_64(b""), FNV_OFFSET);
        assert_eq!(Fnv64::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"rocc-digest-ledger/v1";
        let mut h = Fnv64::new();
        h.write(&data[..7]);
        h.write(&data[7..]);
        assert_eq!(h.finish(), fnv1a_64(data));
    }

    #[test]
    fn hex_digests_read_back_only_in_canonical_form() {
        let h = hex_digest(b"foobar");
        assert_eq!(parse_hex_digest(&h), Some(fnv1a_64(b"foobar")));
        for bad in [
            "85944171F73967E8",
            "+5944171f73967e8",
            "85944171f73967e",
            "",
        ] {
            assert_eq!(parse_hex_digest(bad), None, "{bad}");
        }
    }

    #[test]
    fn known_vectors() {
        // Classic FNV-1a-64 test vectors.
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn write_u64_is_le_bytes() {
        let mut a = Fnv64::new();
        a.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(a.finish(), fnv1a_64(&0x0123_4567_89ab_cdefu64.to_le_bytes()));
    }

    #[test]
    fn hex_digest_is_16_lowercase_digits() {
        let d = hex_digest(b"hello");
        assert_eq!(d.len(), 16);
        assert_eq!(d, format!("{:016x}", fnv1a_64(b"hello")));
    }
}
