//! 128-bit FNV-1a fingerprinting.
//!
//! Cache soundness rests on content addressing: a key must name the
//! *exact* computation it stands for. [`Hasher128`] folds arbitrary
//! typed input (bytes, integers, floats by bit pattern, length-prefixed
//! strings) into a 128-bit FNV-1a state; [`Fingerprint`] is the
//! resulting identity. FNV-1a is not cryptographic — nobody is
//! attacking their own result cache — but at 128 bits the birthday
//! bound sits near 2⁶⁴ distinct keys, far beyond any cache population
//! this system can hold.

use serde::{Deserialize, Serialize};
use std::fmt;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content identity, split into two words for wire/serde
/// friendliness (the vendored JSON layer has no native u128).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Fingerprint {
    /// Reassemble the 128-bit value.
    pub fn as_u128(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// Build from a 128-bit value.
    pub fn from_u128(v: u128) -> Fingerprint {
        Fingerprint {
            hi: (v >> 64) as u64,
            lo: v as u64,
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// An incremental 128-bit FNV-1a hasher with typed, prefix-free write
/// helpers. Identical write sequences produce identical fingerprints on
/// every platform (floats are hashed by IEEE-754 bit pattern, integers
/// little-endian, strings length-prefixed).
#[derive(Debug, Clone)]
pub struct Hasher128 {
    state: u128,
}

impl Default for Hasher128 {
    fn default() -> Self {
        Hasher128::new()
    }
}

impl Hasher128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Hasher128 {
        Hasher128 { state: FNV_OFFSET }
    }

    /// Fold raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Fold a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Fold a `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Fold an `f64` by exact bit pattern — `-0.0` and `0.0` hash
    /// differently, every NaN payload hashes by its own bits, so the
    /// fingerprint distinguishes everything bit-identity distinguishes.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Fold a slice of `f64`s (length-prefixed).
    pub fn write_f64s(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// Fold a string (length-prefixed, so `"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The fingerprint of everything written so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint::from_u128(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(build: impl FnOnce(&mut Hasher128)) -> Fingerprint {
        let mut h = Hasher128::new();
        build(&mut h);
        h.finish()
    }

    #[test]
    fn known_fnv_vectors() {
        // Empty input hashes to the offset basis.
        assert_eq!(
            Hasher128::new().finish().as_u128(),
            0x6c62_272e_07bb_0142_62b8_2175_6295_c58d
        );
        // "a": published FNV-1a 128 test vector.
        let a = fp(|h| h.write(b"a"));
        assert_eq!(a.as_u128(), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        let x = fp(|h| {
            h.write_u64(1);
            h.write_u64(2);
        });
        let y = fp(|h| {
            h.write_u64(2);
            h.write_u64(1);
        });
        assert_ne!(x, y);
        assert_eq!(
            x,
            fp(|h| {
                h.write_u64(1);
                h.write_u64(2);
            })
        );
    }

    #[test]
    fn strings_are_prefix_free() {
        let x = fp(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let y = fp(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(x, y);
    }

    #[test]
    fn floats_hash_by_bits() {
        assert_ne!(fp(|h| h.write_f64(0.0)), fp(|h| h.write_f64(-0.0)));
        assert_eq!(fp(|h| h.write_f64(1.5)), fp(|h| h.write_f64(1.5)));
        let nan = fp(|h| h.write_f64(f64::NAN));
        assert_eq!(nan, fp(|h| h.write_f64(f64::NAN)), "same NaN bits agree");
    }

    #[test]
    fn display_and_words_roundtrip() {
        let f = fp(|h| h.write_str("roundtrip"));
        assert_eq!(Fingerprint::from_u128(f.as_u128()), f);
        let hex = f.to_string();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn serde_roundtrip() {
        let f = fp(|h| h.write_u64(42));
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(f, serde_json::from_str::<Fingerprint>(&json).unwrap());
    }
}
