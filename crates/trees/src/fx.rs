//! A small, deterministic, fast hasher for interned-id keys.
//!
//! The Rust Performance Book recommends replacing SipHash with a cheaper
//! hash for integer-keyed maps on hot paths. Rather than adding an external
//! dependency, this module implements the well-known FxHash mixing function
//! (as used by rustc): a multiply-and-rotate word hash. It is *not* DoS
//! resistant, which is fine: every key in this workspace is an interned id
//! or small tuple produced by our own code, never attacker-controlled.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: wrapping multiply by a large odd constant with a
/// rotate, folded over the input words.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Folds little-endian 8-byte words, then the tail zero-padded to a
    /// word.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add_to_hash(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// A `HashMap` using [`FxHasher`]. Deterministic iteration is still *not*
/// guaranteed; sort keys when determinism matters (e.g. canonical printing).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_values() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u32(1);
        b.write_u32(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
    }

    #[test]
    fn hashes_byte_slices() {
        let mut a = FxHasher::default();
        a.write(b"hello world, this is more than eight bytes");
        let mut b = FxHasher::default();
        b.write(b"hello world, this is more than eight bytes");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello world, this is more than eight bytez");
        assert_ne!(a.finish(), c.finish());
    }

    /// Pins the slice-hash values: every `FxHashMap` keyed by slices,
    /// vectors or strings keeps its table layout (and so its iteration
    /// order) only while these stay put.
    #[test]
    fn slice_hash_values_are_pinned() {
        use std::hash::Hash;
        const BYTES: [u64; 25] = [
            0x0000000000000000,
            0x805c52deae767467,
            0xe4aeaa3510726467,
            0x367ea88293eb6467,
            0x7f24e18d95eb6467,
            0xcd49741895eb6467,
            0xdd63881895eb6467,
            0x7f00881895eb6467,
            0xa500881895eb6467,
            0x7d7ce06c811bb5d3,
            0x93f8636e14159dd3,
            0xb7dd7a54511e9dd3,
            0xadb677cc5b1e9dd3,
            0x7ca4874b5b1e9dd3,
            0xde65e34b5b1e9dd3,
            0x2a80e34b5b1e9dd3,
            0x5880e34b5b1e9dd3,
            0x3418593369e13df0,
            0xd33cc5a26496bdf0,
            0x73b38e448c75bdf0,
            0x8866dd294a75bdf0,
            0x5ab9e5b64a75bdf0,
            0x038d89b64a75bdf0,
            0x62ca89b64a75bdf0,
            0x78ca89b64a75bdf0,
        ];
        let bytes: Vec<u8> = (0..24u32).map(|i| (i * 37 + 11) as u8).collect();
        for (len, &want) in BYTES.iter().enumerate() {
            let mut h = FxHasher::default();
            h.write(&bytes[..len]);
            assert_eq!(h.finish(), want, "length {len}");
        }
        let mut h = FxHasher::default();
        vec![1u64, u64::MAX, 0x0123_4567_89ab_cdef].hash(&mut h);
        assert_eq!(h.finish(), 0x5902d692e37ada08);
        let mut h = FxHasher::default();
        "typechecking for XML transformers".hash(&mut h);
        assert_eq!(h.finish(), 0x3527666de77c301e);
    }
}
