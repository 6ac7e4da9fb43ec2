//! The classes `P` (perfect) and `◇P` (eventually perfect).
//!
//! A perfect detector never makes a mistake: it suspects exactly the
//! processes that have crashed (after a bounded detection lag) and never a
//! live one. The paper uses `P` as the top of the grid (`φ_t ≡ P`,
//! `◇φ_t ≡ ◇P` — shown equivalent in any system with at most `t`
//! crashes).

use crate::noise;
use crate::sx::Scope;
use fd_sim::{CrashSchedule, FailurePattern, OracleSuite, PSet, ProcessId, Time};

/// Ticks between a crash and its detection.
const DETECTION_LAG: u64 = 5;

/// A `P` / `◇P` oracle.
///
/// # Examples
///
/// ```
/// use fd_detectors::{PerfectOracle, Scope};
/// use fd_sim::{FailurePattern, OracleSuite, ProcessId, Time};
///
/// let fp = FailurePattern::builder(3).crash(ProcessId(2), Time(10)).build();
/// let mut fd = PerfectOracle::new(fp, Scope::Perpetual, 0);
/// assert!(fd.suspected(ProcessId(0), Time(1000)).contains(ProcessId(2)));
/// assert!(!fd.suspected(ProcessId(0), Time(1000)).contains(ProcessId(1)));
/// ```
#[derive(Clone, Debug)]
pub struct PerfectOracle {
    n: usize,
    /// The run's crashes, each visible `DETECTION_LAG` ticks after it.
    crashes: CrashSchedule,
    scope: Scope,
    seed: u64,
}

impl PerfectOracle {
    /// Creates a `P` (`Scope::Perpetual`) or `◇P` (`Scope::Eventual`)
    /// oracle; a crash is detected `DETECTION_LAG` (5) ticks after it happens.
    pub fn new(fp: FailurePattern, scope: Scope, seed: u64) -> Self {
        PerfectOracle {
            n: fp.n(),
            crashes: fp.crash_schedule(DETECTION_LAG),
            scope,
            seed,
        }
    }
}

impl OracleSuite for PerfectOracle {
    fn suspected(&mut self, p: ProcessId, now: Time) -> PSet {
        match self.scope {
            Scope::Eventual(gst) if now < gst => {
                let mut s = noise::arbitrary_set(self.seed, p, now, self.n);
                s.remove(p);
                s
            }
            _ => {
                let mut s = self.crashes.detected(now);
                s.remove(p);
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> FailurePattern {
        FailurePattern::builder(4)
            .crash(ProcessId(1), Time(20))
            .build()
    }

    #[test]
    fn perpetual_never_slanders() {
        let mut fd = PerfectOracle::new(fp(), Scope::Perpetual, 0);
        for now in 0..200u64 {
            for i in [0usize, 2, 3] {
                let s = fd.suspected(ProcessId(i), Time(now));
                // Only the actually crashed process may appear.
                assert!(s.is_subset(PSet::singleton(ProcessId(1))));
            }
        }
    }

    #[test]
    fn detects_after_lag() {
        let mut fd = PerfectOracle::new(fp(), Scope::Perpetual, 0);
        assert!(!fd.suspected(ProcessId(0), Time(24)).contains(ProcessId(1)));
        assert!(fd.suspected(ProcessId(0), Time(25)).contains(ProcessId(1)));
    }

    /// `P` and `◇P` against the per-call scan they replaced: seeded
    /// patterns at n ∈ {2…9, 64, 65, 128}, every reader, at every instant
    /// where an answer can change.
    #[test]
    fn perfect_matches_the_per_call_model() {
        for case in crate::crash_model::cases(0x9e7f, 4) {
            let n = case.fp.n();
            let instants = crate::crash_model::instants(&case, DETECTION_LAG);
            for scope in [Scope::Perpetual, Scope::Eventual(case.gst)] {
                let mut fd = PerfectOracle::new(case.fp.clone(), scope, 5);
                for &now in &instants {
                    for p in (0..n).map(ProcessId) {
                        let mut want = if scope.active(now) {
                            crate::crash_model::per_call_detected(&case.fp, now, DETECTION_LAG)
                        } else {
                            noise::arbitrary_set(5, p, now, n)
                        };
                        want.remove(p);
                        assert_eq!(
                            fd.suspected(p, now),
                            want,
                            "{case:?} {scope:?} {p} at {now}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eventual_noisy_then_perfect() {
        let mut fd = PerfectOracle::new(fp(), Scope::Eventual(Time(500)), 3);
        let slandered = (0..400u64).any(|now| {
            let s = fd.suspected(ProcessId(0), Time(now));
            !(s & fp().correct()).is_empty()
        });
        assert!(slandered, "◇P should misbehave before GST");
        let s = fd.suspected(ProcessId(0), Time(1000));
        assert_eq!(s, PSet::singleton(ProcessId(1)));
    }
}
