//! FNV-1a, the one non-cryptographic string hash of the workspace, and
//! SplitMix64, its one integer mixer.
//!
//! Used where keys are derived by our own code (session ids, Drain cache
//! tokens, routing keys, node names) and stability across builds matters
//! more than flooding resistance: `DefaultHasher`'s algorithm is
//! unspecified, and SipHash's DoS hardening is wasted on a per-line probe.

const OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;
/// SplitMix64's state increment (2^64 / φ).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

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

/// SplitMix64 (Steele, Lea & Flood, 2014): the output of the generator
/// whose state is `x`, i.e. its finalizer applied to `x + γ`. A stateless
/// mixer with full avalanche, for small integer keys (feature buckets,
/// rendezvous scores, jitter).
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 sequence seeded with `seed`: `splitmix64(seed)`,
/// `splitmix64(seed + γ)`, `splitmix64(seed + 2γ)`, …
pub fn splitmix64_seq(seed: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(seed), |s| Some(s.wrapping_add(GAMMA))).map(splitmix64)
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
    fn splitmix64_matches_reference_vectors() {
        // The first outputs of the reference generator seeded with 0.
        let expect = [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
        ];
        assert_eq!(splitmix64(0), expect[0]);
        assert_eq!(splitmix64_seq(0).take(3).collect::<Vec<_>>(), expect);
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
