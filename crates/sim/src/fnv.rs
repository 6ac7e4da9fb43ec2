//! FNV-1a-64, the workspace's owned hash.
//!
//! Every digest that is written down — a spec fingerprint, a sweep-store
//! salt, a checked-in witness, a recorded report digest
//! (`ScenarioReport::fingerprint`) — must mean the same thing on every
//! build, toolchain and platform, so it cannot come from
//! `std::collections::hash_map::DefaultHasher`, whose algorithm std leaves
//! unspecified. FNV-1a over bytes is fixed by its definition (offset basis
//! `0xcbf2_9ce4_8422_2325`, prime `0x100_0000_01b3`; Fowler, Noll and Vo),
//! and the published test vectors below pin this implementation to it.
//!
//! The hasher takes bytes only, never a `Hash` impl: std's `Hash` writes
//! integers in native byte order and adds its own separators, which is
//! exactly the unspecified behaviour this module exists to avoid. Callers
//! hash a byte encoding they define — the spec's canonical JSON text, a
//! little-endian `u64`, a report's documented field walk.

use std::fmt;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a-64 hash in progress. It is also a [`fmt::Write`] sink, so an
/// encoder that writes text can digest it without keeping it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The empty hash (the offset basis).
    pub const fn new() -> Self {
        Fnv1a64(OFFSET_BASIS)
    }

    /// Folds `bytes` in.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// The digest of everything written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a-64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chunking_and_text_sinks_do_not_change_the_digest() {
        let mut h = Fnv1a64::new();
        h.write(b"foo");
        let a = 'a';
        write!(h, "b{a}").unwrap();
        h.write_str("r").unwrap();
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }
}
