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
    /// The last pre-stabilization answer drawn per process: the answer is
    /// a pure function of `(seed, p, window)`, so a repeat read within a
    /// window is served from here instead of re-drawing it.
    memo: NoiseMemo,
}

/// One record per process — its window index, then the low `⌈n/64⌉` words
/// of the leader set drawn for that window — in one flat buffer, allocated
/// with the oracle (empty if it is stable from time zero) so that no read
/// allocates. An unfilled record holds [`NoiseMemo::EMPTY`], which no
/// window index reaches.
#[derive(Clone, Debug)]
struct NoiseMemo {
    records: Vec<u64>,
}

impl NoiseMemo {
    const EMPTY: u64 = u64::MAX;

    fn new(n: usize, gst: Time) -> Self {
        let len = if gst > Time::ZERO {
            n * (1 + n.div_ceil(64))
        } else {
            0
        };
        NoiseMemo {
            records: vec![NoiseMemo::EMPTY; len],
        }
    }

    /// The answer of `p` in `window`, drawn by `draw` unless the record of
    /// `p` already holds that window's.
    fn get(&mut self, p: ProcessId, n: usize, window: u64, draw: impl FnOnce() -> PSet) -> PSet {
        let words = n.div_ceil(64);
        let stride = 1 + words;
        let record = &mut self.records[p.0 * stride..][..stride];
        if record[0] == window {
            return PSet::from_words(&record[1..]);
        }
        let set = draw();
        record[0] = window;
        record[1..].copy_from_slice(&set.as_words()[..words]);
        set
    }
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
            memo: NoiseMemo::new(n, gst),
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
            memo: NoiseMemo::new(fp.n(), gst),
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
            return self.final_set;
        }
        let (seed, n, z) = (self.seed, self.fp.n(), self.z);
        self.memo.get(p, n, noise::window(now), || {
            noise::arbitrary_leader_set(seed, p, now, n, z)
        })
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

    /// The memo is invisible: interleaved reads across processes, `now`
    /// jumping back and forth over window edges (`7w − 1`, `7w`, `7w + 6`),
    /// and a clone taken mid-stream all answer exactly the direct draw,
    /// call for call — at a one-word, a two-word and a sixteen-word `n`,
    /// with leader sets up to all of `n` wide.
    #[test]
    fn memoized_noise_equals_the_direct_draw_call_for_call() {
        let gst = Time(noise::PERIOD * 40);
        for n in [5, 128, 1024] {
            for z in [1, 3, n] {
                let seed = 0x0e6a ^ (n * z) as u64;
                let mut rng = SplitMix64::new(seed);
                let procs = [0, 1, n / 2, n - 1].map(ProcessId);
                let mut fd = OmegaOracle::new(FailurePattern::all_correct(n), z, gst, seed);
                let mut twin = None;
                // What each process's record holds, to count the reads the
                // memo serves; `w` walks back and forth across the windows.
                let (mut held, mut hits, mut w) = (vec![None; n], 0, 20);
                for i in 0..2_000 {
                    let p = procs[rng.below(procs.len() as u64) as usize];
                    w = (w + rng.below(3)).saturating_sub(1).min(44);
                    let now = Time(match rng.below(5) {
                        0 => (noise::PERIOD * w).saturating_sub(1),
                        1 => noise::PERIOD * w,
                        2 => noise::PERIOD * w + noise::PERIOD - 1,
                        3 => noise::PERIOD * w + rng.below(noise::PERIOD),
                        _ => rng.below(gst.ticks() + 40),
                    });
                    if now < gst {
                        hits += usize::from(held[p.0] == Some(noise::window(now)));
                        held[p.0] = Some(noise::window(now));
                    }
                    let want = if now >= gst {
                        fd.final_set()
                    } else {
                        noise::arbitrary_leader_set(seed, p, now, n, z)
                    };
                    assert_eq!(fd.trusted(p, now), want, "n {n}, z {z}, {p} at {now}");
                    if i == 1_000 {
                        twin = Some(fd.clone());
                    }
                    if let Some(twin) = &mut twin {
                        assert_eq!(twin.trusted(p, now), want, "clone, n {n}, {p} at {now}");
                    }
                }
                assert!(hits > 100, "n {n}, z {z}: only {hits} reads served");
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
