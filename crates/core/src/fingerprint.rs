//! Content fingerprints for SG-ML bundles and compiled models.
//!
//! A fingerprint identifies content: a checkpoint records the fingerprint of
//! the model it was captured against, and resumes only against a model with
//! the same fingerprint. The hash is FNV-1a 64 —
//! not cryptographic, just a stable, dependency-free identity (a collision
//! costs a missed mismatch, not a security hole).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An incremental FNV-1a 64 accumulator for fingerprinting multiple
/// length-delimited fields without concatenating them first.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    hash: u64,
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint { hash: FNV_OFFSET }
    }
}

impl Fingerprint {
    /// Starts a fresh accumulator.
    pub fn new() -> Fingerprint {
        Fingerprint::default()
    }

    /// Mixes a field in, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn update(&mut self, bytes: &[u8]) {
        for byte in (bytes.len() as u64)
            .to_le_bytes()
            .iter()
            .chain(bytes.iter())
        {
            self.hash ^= u64::from(*byte);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_separates_fields() {
        let mut a = Fingerprint::new();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Fingerprint::new();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
