//! FNV-1a, the one non-cryptographic string hash of the workspace.
//!
//! Used where keys are derived by our own code (session ids, Drain cache
//! tokens, routing keys, node names) and stability across builds matters
//! more than flooding resistance: `DefaultHasher`'s algorithm is
//! unspecified, and SipHash's DoS hardening is wasted on a per-line probe.

const OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(OFFSET_BASIS, bytes)
}

#[inline]
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a as a [`std::hash::Hasher`] for `HashMap`s on the hot path. A
/// fresh hasher (state 0) seeds from the offset basis on its first write;
/// later writes continue from the running state.
#[derive(Debug, Default, Clone)]
pub struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let seed = if self.0 == 0 { OFFSET_BASIS } else { self.0 };
        self.0 = fold(seed, bytes);
    }
}

/// `BuildHasher` for [`FnvHasher`]-keyed maps.
pub type FnvBuild = std::hash::BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hasher_seeds_from_the_offset_basis_and_chains() {
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), fnv1a(b"a"));
        h.write(b"b");
        assert_eq!(h.finish(), fnv1a(b"ab"));
        // No write yet: the state is still 0, not the offset basis.
        assert_eq!(FnvHasher::default().finish(), 0);
    }
}
