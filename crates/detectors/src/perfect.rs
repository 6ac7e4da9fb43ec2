//! The classes `P` (perfect) and `◇P` (eventually perfect).
//!
//! A perfect detector never makes a mistake: it suspects exactly the
//! processes that have crashed (after a bounded detection lag) and never a
//! live one. The paper uses `P` as the top of the grid (`φ_t ≡ P`,
//! `◇φ_t ≡ ◇P` — shown equivalent in any system with at most `t`
//! crashes).

use crate::noise;
use crate::sx::Scope;
use fd_sim::{FailurePattern, OracleSuite, PSet, ProcessId, Time};

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
    fp: FailurePattern,
    scope: Scope,
    /// Ticks between a crash and its detection.
    pub detection_lag: u64,
    /// Flicker period of pre-stabilization noise (`◇P` only).
    pub noise_period: u64,
    seed: u64,
}

impl PerfectOracle {
    /// Creates a `P` (`Scope::Perpetual`) or `◇P` (`Scope::Eventual`)
    /// oracle with default lag 5.
    pub fn new(fp: FailurePattern, scope: Scope, seed: u64) -> Self {
        PerfectOracle {
            fp,
            scope,
            detection_lag: 5,
            noise_period: 7,
            seed,
        }
    }

    fn crashed_with_lag(&self, now: Time) -> PSet {
        let mut s = PSet::new();
        for i in 0..self.fp.n() {
            let p = ProcessId(i);
            if let Some(tc) = self.fp.crash_time(p) {
                if now >= tc + self.detection_lag {
                    s.insert(p);
                }
            }
        }
        s
    }
}

impl OracleSuite for PerfectOracle {
    fn suspected(&mut self, p: ProcessId, now: Time) -> PSet {
        match self.scope {
            Scope::Eventual(gst) if now < gst => {
                let mut s = noise::arbitrary_set(self.seed, p, now, self.noise_period, self.fp.n());
                s.remove(p);
                s
            }
            _ => {
                let mut s = self.crashed_with_lag(now);
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
