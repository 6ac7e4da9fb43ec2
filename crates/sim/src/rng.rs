//! Deterministic random number generation.
//!
//! Every source of nondeterminism in a run (message delays, oracle noise,
//! crash schedules, tie-breaking) is derived from a single `u64` seed via
//! independent [`SplitMix64`] streams, so that any reported result is
//! reproducible bit-for-bit. We deliberately avoid external RNG crates:
//! schedule stability across dependency upgrades is a correctness
//! requirement for this repository (see "Determinism" in README.md).

use crate::id::MAX_PROCESSES;

/// A SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
///
/// Fast, tiny state, passes BigCrush when used as intended; more than enough
/// for adversarial schedule generation.
///
/// # Examples
///
/// ```
/// use fd_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent stream for a named sub-purpose.
    ///
    /// Mixing the label keeps e.g. the delay stream and the oracle-noise
    /// stream statistically independent even though they share a root seed.
    pub fn stream(&self, label: u64) -> SplitMix64 {
        let mut g = SplitMix64::new(self.state ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        g.next_u64();
        g
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's rejection method (no modulo bias). A draw is rejected
        // only when the low half of the product is below `2^64 mod bound`,
        // which is itself `< bound`: the division is paid only then.
        let mut m = (self.next_u64() as u128).wrapping_mul(bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128).wrapping_mul(bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == hi {
            lo
        } else if hi - lo == u64::MAX {
            self.next_u64()
        } else {
            lo + self.below(hi - lo + 1)
        }
    }

    /// `true` with probability `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniformly chooses an element of a slice.
    ///
    /// Returns `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (in random order) and hands
    /// them to `f`: the first `k` entries of a full Fisher–Yates shuffle of
    /// `0..n`, done in a stack buffer, so sampling never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `k > n` or `n > MAX_PROCESSES`.
    #[inline]
    pub fn sample_indices<R>(&mut self, n: usize, k: usize, f: impl FnOnce(&[u16]) -> R) -> R {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx = [0u16; MAX_PROCESSES];
        for (i, slot) in idx[..n].iter_mut().enumerate() {
            *slot = i as u16;
        }
        self.shuffle(&mut idx[..n]);
        f(&idx[..k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ() {
        let root = SplitMix64::new(7);
        let mut s1 = root.stream(1);
        let mut s2 = root.stream(2);
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn below_in_bounds() {
        let mut g = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(g.below(10) < 10);
        }
    }

    #[test]
    fn range_inclusive() {
        let mut g = SplitMix64::new(2);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = g.range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
        assert_eq!(g.range(9, 9), 9);
    }

    #[test]
    fn chance_extremes() {
        let mut g = SplitMix64::new(3);
        assert!(!g.chance(0, 10));
        assert!(g.chance(10, 10));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = SplitMix64::new(4);
        let mut v: Vec<u32> = (0..50).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut g = SplitMix64::new(5);
        let mut d = g.sample_indices(10, 4, <[u16]>::to_vec);
        assert_eq!(d.len(), 4);
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn rough_uniformity() {
        let mut g = SplitMix64::new(6);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[g.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..=1300).contains(&c), "suspicious bucket count {c}");
        }
    }
}
