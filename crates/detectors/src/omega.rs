//! The classes `Ω_z`: eventual multiple leadership (paper §2.2, after
//! Neiger's generalization of Chandra–Hadzilacos–Toueg's `Ω`).
//!
//! A detector of class `Ω_z` outputs at each process a set `trusted_i` of at
//! most `z` identities such that, after some time, all correct processes
//! forever output the *same* set, which contains at least one correct
//! process. `Ω_1 = Ω`, and `Ω_z ⊆ Ω_{z+1}` (any `Ω_z` detector is trivially
//! an `Ω_{z+1}` detector).
//!
//! The adversarial realization packs the eventual leader set with faulty
//! processes (only one member needs to be correct) and emits uncoordinated
//! per-process noise before stabilization.

use crate::noise;
use fd_sim::{FailurePattern, OracleSuite, PSet, ProcessId, SplitMix64, Time};

/// An `Ω_z` oracle.
///
/// # Examples
///
/// ```
/// use fd_detectors::OmegaOracle;
/// use fd_sim::{FailurePattern, OracleSuite, ProcessId, Time};
///
/// let fp = FailurePattern::all_correct(4);
/// let mut fd = OmegaOracle::new(fp.clone(), 2, Time(50), 1);
/// // After stabilization all processes trust the same set with a correct
/// // member.
/// let l0 = fd.trusted(ProcessId(0), Time(1000));
/// let l1 = fd.trusted(ProcessId(1), Time(1000));
/// assert_eq!(l0, l1);
/// assert!(!(l0 & fp.correct()).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct OmegaOracle {
    fp: FailurePattern,
    z: usize,
    gst: Time,
    seed: u64,
    final_set: PSet,
}

impl OmegaOracle {
    /// Creates an `Ω_z` oracle stabilizing at `gst`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ z ≤ n` and some process is correct.
    pub fn new(fp: FailurePattern, z: usize, gst: Time, seed: u64) -> Self {
        let n = fp.n();
        assert!((1..=n).contains(&z), "need 1 <= z <= n");
        let correct = fp.correct();
        assert!(!correct.is_empty(), "at least one process must be correct");
        let mut rng = SplitMix64::new(seed).stream(0x03e6);
        let correct_vec: Vec<ProcessId> = correct.iter().collect();
        let leader = *rng.choose(&correct_vec).expect("non-empty");
        // Pack the eventual set with faulty processes: only one member
        // needs to be correct.
        let mut final_set = PSet::singleton(leader);
        let mut faulty: Vec<ProcessId> = fp.faulty().iter().collect();
        rng.shuffle(&mut faulty);
        for p in faulty {
            if final_set.len() >= z {
                break;
            }
            final_set.insert(p);
        }
        OmegaOracle {
            fp,
            z,
            gst,
            seed,
            final_set,
        }
    }

    /// As [`OmegaOracle::new`] with an explicitly chosen eventual leader
    /// set (used by the Theorem 5 lower-bound witnesses, which need a
    /// leader set of several *correct* processes to diversify estimates).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ |set| ≤ z` and `set` contains a correct process.
    pub fn with_final_set(fp: FailurePattern, z: usize, gst: Time, seed: u64, set: PSet) -> Self {
        assert!((1..=z).contains(&set.len()), "need 1 <= |set| <= z");
        assert!(
            !(set & fp.correct()).is_empty(),
            "the eventual leader set must contain a correct process"
        );
        OmegaOracle {
            fp,
            z,
            gst,
            seed,
            final_set: set,
        }
    }

    /// A *perfect* `Ω_z` detector in the sense of the paper §3.2: from the
    /// very beginning it outputs the same set at every process, containing
    /// a correct process (used by the oracle-efficiency and
    /// zero-degradation experiments).
    pub fn perfect(fp: FailurePattern, z: usize, seed: u64) -> Self {
        Self::new(fp, z, Time::ZERO, seed)
    }

    /// The eventual common leader set.
    pub fn final_set(&self) -> PSet {
        self.final_set
    }

    /// The stabilization time.
    pub fn gst(&self) -> Time {
        self.gst
    }

    /// `z`: the maximum size of output sets.
    pub fn z(&self) -> usize {
        self.z
    }
}

impl OracleSuite for OmegaOracle {
    fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
        if now >= self.gst {
            self.final_set
        } else {
            noise::arbitrary_leader_set(self.seed, p, now, self.fp.n(), self.z)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> FailurePattern {
        FailurePattern::builder(6)
            .crash(ProcessId(0), Time(30))
            .crash(ProcessId(5), Time(70))
            .build()
    }

    #[test]
    fn stabilizes_to_common_set_with_correct_member() {
        let mut fd = OmegaOracle::new(fp(), 3, Time(100), 5);
        let expected = fd.final_set();
        assert!(expected.len() <= 3);
        assert!(!(expected & fp().correct()).is_empty());
        for now in [100u64, 500, 9999] {
            for i in 0..6 {
                assert_eq!(fd.trusted(ProcessId(i), Time(now)), expected);
            }
        }
    }

    #[test]
    fn adversary_packs_faulty() {
        // z = 3, two faulty processes: both should appear in the final set.
        let fd = OmegaOracle::new(fp(), 3, Time(100), 6);
        assert_eq!((fd.final_set() & fp().faulty()).len(), 2);
        assert_eq!((fd.final_set() & fp().correct()).len(), 1);
    }

    #[test]
    fn noise_before_gst_disagrees_somewhere() {
        let mut fd = OmegaOracle::new(fp(), 2, Time(10_000), 7);
        let mut disagreement = false;
        for now in (0..2000u64).step_by(11) {
            let a = fd.trusted(ProcessId(1), Time(now));
            let b = fd.trusted(ProcessId(2), Time(now));
            if a != b {
                disagreement = true;
            }
            assert!(!a.is_empty() && a.len() <= 2);
        }
        assert!(disagreement);
    }

    #[test]
    fn perfect_is_stable_from_zero() {
        let mut fd = OmegaOracle::perfect(fp(), 1, 8);
        let l = fd.final_set();
        assert_eq!(l.len(), 1);
        for now in 0..50u64 {
            for i in 0..6 {
                assert_eq!(fd.trusted(ProcessId(i), Time(now)), l);
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 <= z <= n")]
    fn oversized_z_rejected() {
        let _ = OmegaOracle::new(FailurePattern::all_correct(3), 4, Time::ZERO, 1);
    }
}
