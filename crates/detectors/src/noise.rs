//! Deterministic adversarial noise.
//!
//! Eventual failure-detector classes promise nothing before their
//! stabilization time ("there is a time after which …"): during the anarchy
//! period the adversary may output *anything*. This module generates that
//! anything — as a pure function of `(seed, process, time-window, …)` so
//! runs stay reproducible and an oracle's answer does not flicker within a
//! window.

use fd_sim::{PSet, ProcessId, SplitMix64, Time};

/// The flicker period of all pre-stabilization noise, in ticks: an answer
/// is re-drawn once per window of this length.
pub const PERIOD: u64 = 7;

/// Stateless mixing of up to three words into a fresh RNG stream.
pub fn stream(seed: u64, a: u64, b: u64, c: u64) -> SplitMix64 {
    SplitMix64::new(seed)
        .stream(a.wrapping_mul(0x9E37_79B9_97F4_A7C1) ^ 0xA5A5)
        .stream(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ 0x5A5A)
        .stream(c.wrapping_mul(0x1656_67B1_9E37_79F9) ^ 0x3C3C)
}

/// The index of the [`PERIOD`]-tick window containing `now`.
pub(crate) fn window(now: Time) -> u64 {
    now.ticks() / PERIOD
}

/// An arbitrary subset of `{p_1..p_n} \ {me}`, stable within one window.
///
/// Each other process is included with probability 1/2.
pub fn arbitrary_set(seed: u64, me: ProcessId, now: Time, n: usize) -> PSet {
    let mut rng = stream(seed, me.0 as u64, window(now), 0x00ba_d5e7);
    let mut s = PSet::new();
    for i in 0..n {
        if i != me.0 && rng.chance(1, 2) {
            s.insert(ProcessId(i));
        }
    }
    s
}

/// An arbitrary non-empty subset of `{p_1..p_n}` of size `1..=max_size`,
/// stable within one window (used for pre-stabilization `Ω_z` outputs).
pub fn arbitrary_leader_set(
    seed: u64,
    me: ProcessId,
    now: Time,
    n: usize,
    max_size: usize,
) -> PSet {
    let mut rng = stream(seed, me.0 as u64, window(now), 0x001e_ade2);
    let k = rng.range(1, max_size.max(1) as u64) as usize;
    rng.sample_indices(n, k.min(n), |s| {
        s.iter().map(|&i| ProcessId(i as usize)).collect()
    })
}

/// An arbitrary boolean, stable within one window, keyed by a query set.
///
/// The set enters the stream as the XOR of its words, defined at every
/// width up to `MAX_PROCESSES`.
pub fn arbitrary_bool(seed: u64, me: ProcessId, x: PSet, now: Time) -> bool {
    let mut rng = stream(seed, me.0 as u64 ^ set_key(x), window(now), 0xb001);
    rng.chance(1, 2)
}

/// The XOR of a set's words.
fn set_key(x: PSet) -> u64 {
    x.as_words().iter().fold(0, |key, w| key ^ w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhiOracle, Scope};
    use fd_sim::{FailurePattern, OracleSuite};

    #[test]
    fn stable_within_window() {
        let a = arbitrary_set(1, ProcessId(0), Time(PERIOD), 6);
        let b = arbitrary_set(1, ProcessId(0), Time(2 * PERIOD - 1), 6);
        assert_eq!(a, b);
    }

    #[test]
    fn changes_across_windows() {
        // With 20 windows at n=8, at least one must differ from the first.
        let first = arbitrary_set(2, ProcessId(0), Time(0), 8);
        let changed = (1..20).any(|w| arbitrary_set(2, ProcessId(0), Time(w * PERIOD), 8) != first);
        assert!(changed);
    }

    #[test]
    fn excludes_self() {
        for w in 0..50 {
            let s = arbitrary_set(3, ProcessId(2), Time(w * PERIOD), 5);
            assert!(!s.contains(ProcessId(2)));
        }
    }

    #[test]
    fn leader_set_size_bounds() {
        for w in 0..50 {
            let s = arbitrary_leader_set(4, ProcessId(1), Time(w * PERIOD), 6, 3);
            assert!(!s.is_empty() && s.len() <= 3);
        }
    }

    #[test]
    fn bool_depends_on_set() {
        let x1 = PSet::singleton(ProcessId(0));
        let x2 = PSet::singleton(ProcessId(1));
        let differs = (0..64).any(|w| {
            let now = Time(w * PERIOD);
            arbitrary_bool(5, ProcessId(0), x1, now) != arbitrary_bool(5, ProcessId(0), x2, now)
        });
        assert!(differs);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            arbitrary_set(9, ProcessId(3), Time(77), 10),
            arbitrary_set(9, ProcessId(3), Time(77), 10)
        );
    }

    /// A pre-stabilization `◇φ_y` query over a set with members ≥ 128 is
    /// answered (the key is defined at every width), and below 128 the
    /// key equals the two-word fold of `bits()`, so no recorded run moves.
    #[test]
    fn bool_key_covers_wide_sets_and_keeps_narrow_ones() {
        let wide: PSet = (101..200).map(ProcessId).collect();
        let fp = FailurePattern::all_correct(200);
        let mut fd = PhiOracle::new(fp, 99, 1, Scope::Eventual(Time(1000)), 1);
        let _ = fd.query(ProcessId(0), wide, Time(5));
        let mut rng = SplitMix64::new(0xb001);
        for _ in 0..1000 {
            let x = PSet::from_bits(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()));
            assert_eq!(set_key(x), x.bits() as u64 ^ (x.bits() >> 64) as u64, "{x}");
        }
    }
}
