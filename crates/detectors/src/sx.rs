//! The classes `S_x` and `◇S_x`: limited-scope accuracy failure detectors
//! (paper §2.2).
//!
//! Both provide each process `p_i` with a set `suspected_i` satisfying:
//!
//! * **Strong completeness** — eventually every crashed process is
//!   permanently suspected by every correct process;
//! * **Limited-scope weak accuracy** — there is a set `Q` of `x` processes
//!   containing a correct process `ℓ` that is never suspected by the
//!   processes of `Q` — *perpetually* (`S_x`) or *eventually* (`◇S_x`).
//!
//! `S_n = S`, `◇S_n = ◇S`, and `S_1`/`◇S_1` give no information.
//!
//! The oracle realizes the **adversarial envelope** of the class: before the
//! stabilization time a `◇S_x` detector outputs arbitrary sets; after it,
//! beyond the minimum promises, it may keep *slandering* (permanently
//! suspecting) correct processes outside the accuracy scope, and the scope
//! `Q` is packed with faulty processes (whose promise is vacuously cheap)
//! whenever possible.

use crate::noise;
use fd_sim::{FailurePattern, OracleSuite, PSet, ProcessId, SplitMix64, Time};

/// Whether a class property must hold from the start or only eventually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Perpetual accuracy (`S_x`, `φ_y`).
    Perpetual,
    /// Eventual accuracy (`◇S_x`, `◇φ_y`), stabilizing at the given time.
    Eventual(Time),
}

impl Scope {
    /// The stabilization time (zero for perpetual classes).
    pub fn gst(self) -> Time {
        match self {
            Scope::Perpetual => Time::ZERO,
            Scope::Eventual(t) => t,
        }
    }

    /// Whether the class promise is active at `now`.
    pub fn active(self, now: Time) -> bool {
        now >= self.gst()
    }
}

/// Ticks a crash needs before completeness reports it everywhere.
const COMPLETENESS_LAG: u64 = 8;

/// Probability (percent) that a given process permanently slanders a given
/// correct process outside its own accuracy obligation.
const SLANDER_PCT: u8 = 35;

/// An `S_x` / `◇S_x` oracle.
///
/// # Examples
///
/// ```
/// use fd_detectors::{SxOracle, Scope};
/// use fd_sim::{FailurePattern, OracleSuite, ProcessId, Time};
///
/// let fp = FailurePattern::all_correct(5);
/// let mut fd = SxOracle::new(fp, 2, 3, Scope::Eventual(Time(100)), 42);
/// // After stabilization, the scope's members do not suspect the pivot.
/// let q = fd.scope();
/// let l = fd.pivot();
/// for j in q {
///     assert!(!fd.suspected(j, Time(5000)).contains(l));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SxOracle {
    fp: FailurePattern,
    t: usize,
    x: usize,
    scope_kind: Scope,
    seed: u64,
    /// The accuracy scope `Q` (|Q| = x).
    q: PSet,
    /// The correct process `ℓ ∈ Q` never suspected inside `Q`.
    pivot: ProcessId,
    /// Per reading process, the correct processes it permanently slanders:
    /// a per-(i, j) coin, fixed for the whole run.
    slander: Vec<PSet>,
}

impl SxOracle {
    /// Creates the oracle for a run with failure pattern `fp`, resilience
    /// `t` and scope size `x`; picks `Q` and `ℓ` adversarially.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ x ≤ n` and the pattern has a correct process.
    pub fn new(fp: FailurePattern, t: usize, x: usize, scope_kind: Scope, seed: u64) -> Self {
        let n = fp.n();
        assert!((1..=n).contains(&x), "need 1 <= x <= n");
        let correct = fp.correct();
        assert!(!correct.is_empty(), "at least one process must be correct");
        let mut rng = SplitMix64::new(seed).stream(0x5c0b);
        // Adversarial pivot: an arbitrary correct process.
        let correct_vec: Vec<ProcessId> = correct.iter().collect();
        let pivot = *rng.choose(&correct_vec).expect("non-empty");
        // Adversarial scope: pivot + as many faulty processes as possible
        // (their never-suspect promise dies with them), then arbitrary
        // correct ones.
        let mut q = PSet::singleton(pivot);
        let mut faulty: Vec<ProcessId> = fp.faulty().iter().collect();
        rng.shuffle(&mut faulty);
        for p in faulty {
            if q.len() >= x {
                break;
            }
            q.insert(p);
        }
        let mut rest: Vec<ProcessId> = (correct - q).iter().collect();
        rng.shuffle(&mut rest);
        for p in rest {
            if q.len() >= x {
                break;
            }
            q.insert(p);
        }
        assert_eq!(q.len(), x, "could not assemble a scope of size x");
        Self::with_scope(fp, t, x, scope_kind, seed, q, pivot, SLANDER_PCT)
    }

    /// As [`SxOracle::new`] but with an explicitly chosen scope `Q`, pivot
    /// `ℓ` and slander probability: after stabilization each reader
    /// permanently suspects each correct process other than itself with
    /// probability `slander_pct` percent (`new` uses 35), except that the
    /// pivot is never suspected inside `Q`. Used by witness scenarios that
    /// need full control over the adversary's choices.
    ///
    /// # Panics
    ///
    /// Panics unless `|q| = x`, `ℓ ∈ q`, and `ℓ` is correct.
    #[allow(clippy::too_many_arguments)]
    pub fn with_scope(
        fp: FailurePattern,
        t: usize,
        x: usize,
        scope_kind: Scope,
        seed: u64,
        q: PSet,
        pivot: ProcessId,
        slander_pct: u8,
    ) -> Self {
        assert_eq!(q.len(), x, "scope must have exactly x members");
        assert!(q.contains(pivot), "pivot must belong to the scope");
        assert!(fp.is_correct(pivot), "pivot must be correct");
        let slander = (0..fp.n())
            .map(|i| {
                let mut s = PSet::new();
                for j in fp.correct() {
                    if j.0 == i {
                        continue;
                    }
                    let mut rng = noise::stream(seed, i as u64, j.0 as u64, 0x51a4de4);
                    if rng.chance(slander_pct as u64, 100) {
                        s.insert(j);
                    }
                }
                s
            })
            .collect();
        SxOracle {
            fp,
            t,
            x,
            scope_kind,
            seed,
            q,
            pivot,
            slander,
        }
    }

    /// The accuracy scope `Q` chosen for this run.
    pub fn scope(&self) -> PSet {
        self.q
    }

    /// The protected correct process `ℓ`.
    pub fn pivot(&self) -> ProcessId {
        self.pivot
    }

    /// The scope size `x`.
    pub fn x(&self) -> usize {
        self.x
    }

    /// The resilience bound `t` this oracle was configured with.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The stabilization time.
    pub fn gst(&self) -> Time {
        self.scope_kind.gst()
    }
}

impl OracleSuite for SxOracle {
    fn suspected(&mut self, p: ProcessId, now: Time) -> PSet {
        let n = self.fp.n();
        let mut s = if self.scope_kind.active(now) {
            // Completeness core: crashes surface after the lag…
            let mut base = PSet::new();
            for j in 0..n {
                let pj = ProcessId(j);
                if let Some(tc) = self.fp.crash_time(pj) {
                    if now >= tc + COMPLETENESS_LAG {
                        base.insert(pj);
                    }
                }
            }
            // …plus permanent slander of unprotected correct processes,
            // which the class permits.
            base | self.slander[p.0]
        } else {
            // Anarchy period of ◇S_x: anything at all.
            noise::arbitrary_set(self.seed, p, now, n)
        };
        s.remove(p);
        // The accuracy promise: inside Q, the pivot is never suspected —
        // from the very beginning for S_x, after stabilization for ◇S_x.
        let promise_active = match self.scope_kind {
            Scope::Perpetual => true,
            Scope::Eventual(gst) => now >= gst,
        };
        if promise_active && self.q.contains(p) {
            s.remove(self.pivot);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_with_crashes() -> FailurePattern {
        FailurePattern::builder(6)
            .crash(ProcessId(1), Time(50))
            .crash(ProcessId(4), Time(120))
            .build()
    }

    #[test]
    fn scope_has_size_x_and_contains_correct_pivot() {
        for seed in 0..20 {
            let fd = SxOracle::new(fp_with_crashes(), 2, 3, Scope::Eventual(Time(200)), seed);
            assert_eq!(fd.scope().len(), 3);
            assert!(fd.scope().contains(fd.pivot()));
            assert!(fp_with_crashes().is_correct(fd.pivot()));
        }
    }

    #[test]
    fn completeness_after_stabilization() {
        let fp = fp_with_crashes();
        let mut fd = SxOracle::new(fp.clone(), 2, 2, Scope::Eventual(Time(200)), 7);
        let late = Time(1000);
        for i in fp.correct() {
            let s = fd.suspected(i, late);
            assert!(s.contains(ProcessId(1)), "{i} must suspect crashed p2");
            assert!(s.contains(ProcessId(4)), "{i} must suspect crashed p5");
        }
    }

    #[test]
    fn accuracy_eventual_protects_pivot_after_gst() {
        let fp = fp_with_crashes();
        let mut fd = SxOracle::new(fp.clone(), 2, 4, Scope::Eventual(Time(200)), 8);
        let (q, l) = (fd.scope(), fd.pivot());
        for now in [200u64, 500, 5000] {
            for j in q {
                if fp.is_alive_at(j, Time(now)) {
                    assert!(!fd.suspected(j, Time(now)).contains(l));
                }
            }
        }
    }

    #[test]
    fn accuracy_perpetual_protects_pivot_always() {
        let fp = fp_with_crashes();
        let mut fd = SxOracle::new(fp.clone(), 2, 4, Scope::Perpetual, 9);
        let (q, l) = (fd.scope(), fd.pivot());
        for now in 0..400u64 {
            for j in q {
                if fp.is_alive_at(j, Time(now)) {
                    assert!(!fd.suspected(j, Time(now)).contains(l));
                }
            }
        }
    }

    #[test]
    fn anarchy_before_gst() {
        // Some process must suspect some correct process before GST —
        // the class allows it and the adversary uses it.
        let fp = fp_with_crashes();
        let mut fd = SxOracle::new(fp.clone(), 2, 2, Scope::Eventual(Time(10_000)), 10);
        let correct = fp.correct();
        let mut saw_false_suspicion = false;
        for now in (0..1000u64).step_by(13) {
            for i in correct {
                if !(fd.suspected(i, Time(now)) & correct).is_empty() {
                    saw_false_suspicion = true;
                }
            }
        }
        assert!(saw_false_suspicion);
    }

    #[test]
    fn never_suspects_self() {
        let fp = fp_with_crashes();
        let mut fd = SxOracle::new(fp.clone(), 2, 2, Scope::Eventual(Time(100)), 11);
        for now in (0..2000u64).step_by(37) {
            for i in 0..fp.n() {
                assert!(!fd.suspected(ProcessId(i), Time(now)).contains(ProcessId(i)));
            }
        }
    }

    #[test]
    fn scope_prefers_faulty_members() {
        // With x = 3 and 2 faulty processes, both faulty ones join Q.
        let fp = fp_with_crashes();
        let fd = SxOracle::new(fp.clone(), 2, 3, Scope::Eventual(Time(100)), 12);
        assert_eq!((fd.scope() & fp.faulty()).len(), 2);
    }

    #[test]
    fn slander_pct_decides_who_is_slandered_after_stabilization() {
        // After GST a reader's suspicion of correct processes is exactly
        // its slander: everyone it may suspect at 100 %, no one at 0 %.
        // A reader never suspects itself, and inside Q never the pivot.
        let fp = fp_with_crashes();
        let pivot = ProcessId(2);
        let q = PSet::from_iter([ProcessId(1), pivot, ProcessId(3)]);
        let scope = Scope::Eventual(Time(200));
        for (pct, seed) in [(100, 13), (0, 14)] {
            let mut fd = SxOracle::with_scope(fp.clone(), 2, 3, scope, seed, q, pivot, pct);
            for i in 0..fp.n() {
                let reader = ProcessId(i);
                let mut spared = PSet::singleton(reader);
                if q.contains(reader) {
                    spared.insert(pivot);
                }
                let expected = if pct == 100 {
                    fp.correct() - spared
                } else {
                    PSet::new()
                };
                let slandered = fd.suspected(reader, Time(1000)) & fp.correct();
                assert_eq!(slandered, expected, "slander_pct {pct}, reader {reader}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 <= x <= n")]
    fn zero_x_rejected() {
        let _ = SxOracle::new(FailurePattern::all_correct(3), 1, 0, Scope::Perpetual, 1);
    }
}
