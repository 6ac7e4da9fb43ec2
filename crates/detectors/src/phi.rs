//! The classes `φ_y`, `◇φ_y` and `Ψ_y`: query-based crash detectors
//! (paper §2.2, introduced by Mostéfaoui–Rajsbaum–Raynal for set agreement
//! with conditions).
//!
//! A `φ_y` detector provides a primitive `query(X)` over process sets:
//!
//! * **Triviality** — `|X| ≤ t−y ⇒ true`; `|X| > t ⇒ false`;
//! * **Safety** — for `t−y < |X| ≤ t`: `true` only if every member of `X`
//!   has crashed (perpetual for `φ_y`; only eventually enforced, and only
//!   for sets containing a *correct* process, for `◇φ_y`);
//! * **Liveness** — once all of `X` has crashed, repeated queries eventually
//!   return `true` forever.
//!
//! `φ_t ≡ P` (perfect) and `φ_0` gives no information. `Ψ_y` is the
//! subclass of `φ_y` whose query arguments must form a containment chain;
//! [`PsiOracle`] enforces that usage contract.

use crate::noise;
use crate::sx::Scope;
use fd_sim::{CrashSchedule, FailurePattern, OracleSuite, PSet, ProcessId, Time};

/// Ticks after the last crash of `X` before queries turn `true`.
const LIVENESS_LAG: u64 = 10;

/// A `φ_y` / `◇φ_y` oracle.
///
/// # Examples
///
/// ```
/// use fd_detectors::{PhiOracle, Scope};
/// use fd_sim::{CrashSchedule, FailurePattern, OracleSuite, PSet, ProcessId, Time};
///
/// // n = 5, t = 2, y = 1: meaningful query sizes are |X| = 2.
/// let fp = FailurePattern::builder(5).crash(ProcessId(4), Time(10)).build();
/// let mut fd = PhiOracle::new(fp, 2, 1, Scope::Perpetual, 3);
/// let tiny = PSet::singleton(ProcessId(0));
/// assert!(fd.query(ProcessId(0), tiny, Time(0)));          // |X| ≤ t−y
/// let mixed = PSet::from_iter([ProcessId(0), ProcessId(4)]);
/// assert!(!fd.query(ProcessId(1), mixed, Time(5000)));     // p1 alive
/// ```
#[derive(Clone, Debug)]
pub struct PhiOracle {
    /// The run's crashes, each visible `LIVENESS_LAG` ticks after it.
    crashes: CrashSchedule,
    t: usize,
    y: usize,
    scope: Scope,
    seed: u64,
}

impl PhiOracle {
    /// Creates a `φ_y` (`Scope::Perpetual`) or `◇φ_y` (`Scope::Eventual`)
    /// oracle for resilience bound `t`.
    ///
    /// # Panics
    ///
    /// Panics unless `y ≤ t` and the pattern's crash count respects `t`.
    pub fn new(fp: FailurePattern, t: usize, y: usize, scope: Scope, seed: u64) -> Self {
        assert!(y <= t, "need y <= t");
        assert!(
            fp.num_faulty() <= t,
            "failure pattern exceeds resilience bound"
        );
        PhiOracle {
            crashes: fp.crash_schedule(LIVENESS_LAG),
            t,
            y,
            scope,
            seed,
        }
    }

    /// The parameter `y`.
    pub fn y(&self) -> usize {
        self.y
    }

    /// The resilience bound `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The stabilization time (zero for the perpetual class).
    pub fn gst(&self) -> Time {
        self.scope.gst()
    }
}

impl OracleSuite for PhiOracle {
    fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
        let sz = x.len();
        // Triviality: too small / too big.
        if sz <= self.t.saturating_sub(self.y) {
            return true;
        }
        if sz > self.t {
            return false;
        }
        // Meaningful range t−y < |X| ≤ t.
        match self.scope {
            Scope::Eventual(gst) if now < gst => {
                // Anarchy: any answer at all (may violate perpetual safety).
                noise::arbitrary_bool(self.seed, p, x, now)
            }
            // `X ⊆ detected(now)`, counted: every member crashed at least
            // `LIVENESS_LAG` ago. A member outside Π never crashes, so it
            // is never counted.
            _ if self.crashes.count_detected(x, now) == sz => true,
            // `X ⊆ faulty`: all members faulty but not yet (stably)
            // crashed. `◇φ_y` answers `true` early: its eventual safety
            // only protects sets containing a correct process, so this lie
            // is admissible and maximally misleading.
            Scope::Eventual(_) => self.crashes.count_detected(x, Time::INFINITY) == sz,
            Scope::Perpetual => false,
        }
    }
}

/// A `Ψ_y` oracle: `φ_y` plus the *containment* usage contract — any two
/// queried sets must be comparable (`X ⊆ X'` or `X' ⊆ X`).
///
/// The wrapper validates the contract across all queries of the run and
/// panics at the first violation (a programming error in the caller).
#[derive(Clone, Debug)]
pub struct PsiOracle {
    inner: PhiOracle,
    /// Every distinct set queried so far. They are pairwise comparable (an
    /// incomparable query panics before it is stored), so a repeated query
    /// is answered by one equality scan.
    chain: Vec<PSet>,
}

impl PsiOracle {
    /// Wraps a `φ_y` oracle as `Ψ_y`, panicking on contract violations.
    pub fn new(inner: PhiOracle) -> Self {
        PsiOracle {
            inner,
            chain: Vec::new(),
        }
    }

    /// The underlying `φ_y` oracle.
    pub fn inner(&self) -> &PhiOracle {
        &self.inner
    }
}

impl OracleSuite for PsiOracle {
    fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
        if !self.chain.contains(&x) {
            assert!(
                self.chain.iter().all(|prev| prev.comparable(x)),
                "Ψ_y containment contract violated: {x} is incomparable with a previous query"
            );
            self.chain.push(x);
        }
        self.inner.query(p, x, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash_model;

    fn ps(ids: &[usize]) -> PSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    /// n = 6, t = 3; p4, p5, p6 crash at 10/20/30.
    fn fp() -> FailurePattern {
        FailurePattern::builder(6)
            .crash(ProcessId(3), Time(10))
            .crash(ProcessId(4), Time(20))
            .crash(ProcessId(5), Time(30))
            .build()
    }

    #[test]
    fn triviality_small_and_large() {
        let mut fd = PhiOracle::new(fp(), 3, 1, Scope::Perpetual, 1);
        // t − y = 2: any set of ≤ 2 answers true.
        assert!(fd.query(ProcessId(0), ps(&[0, 1]), Time(0)));
        // |X| > t = 3: false.
        assert!(!fd.query(ProcessId(0), ps(&[0, 1, 2, 3]), Time(9999)));
    }

    #[test]
    fn perpetual_safety() {
        let mut fd = PhiOracle::new(fp(), 3, 1, Scope::Perpetual, 2);
        // {p4, p5, p6} in the meaningful range; at t=15 only p4 crashed.
        assert!(!fd.query(ProcessId(0), ps(&[3, 4, 5]), Time(15)));
        // A set with a correct member is never true.
        assert!(!fd.query(ProcessId(0), ps(&[0, 4, 5]), Time(9999)));
    }

    /// A member outside Π never crashed: the answer is `false`, not an
    /// out-of-bounds read of the crash record.
    #[test]
    fn a_member_outside_the_system_is_never_crashed() {
        // n = 5, t = 2, y = 1; p5 crashes, p8 is no process of the run.
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(4), Time(10))
            .build();
        let x = ps(&[4, 7]);
        for scope in [Scope::Perpetual, Scope::Eventual(Time(100))] {
            let mut fd = PhiOracle::new(fp.clone(), 2, 1, scope, 11);
            assert!(!fd.query(ProcessId(0), x, Time(5000)), "{scope:?}");
            assert!(!fd.query(ProcessId(0), x, Time::INFINITY), "{scope:?}");
        }
    }

    #[test]
    fn liveness_after_all_crashed() {
        let mut fd = PhiOracle::new(fp(), 3, 1, Scope::Perpetual, 3);
        let dead = ps(&[3, 4, 5]);
        // All crashed by 30; lag 10 ⇒ true from 40 on, forever.
        assert!(!fd.query(ProcessId(1), dead, Time(35)));
        for now in [40u64, 100, 100000] {
            assert!(fd.query(ProcessId(1), dead, Time(now)));
        }
    }

    #[test]
    fn eventual_variant_lies_before_gst() {
        let mut fd = PhiOracle::new(fp(), 3, 2, Scope::Eventual(Time(10_000)), 4);
        // Meaningful sizes: 2..=3. A set with an alive member may be
        // reported crashed before GST.
        let alive_set = ps(&[0, 1]);
        // t − y = 1 so |X|=2 is meaningful.
        let lied = (0..2000u64)
            .step_by(7)
            .any(|now| fd.query(ProcessId(0), alive_set, Time(now)));
        assert!(lied, "◇φ_y should lie at least once before stabilization");
        // After stabilization: safety restored.
        assert!(!fd.query(ProcessId(0), alive_set, Time(20_000)));
    }

    #[test]
    fn doomed_sets_may_turn_true_early_for_eventual() {
        // p4..p6 are all faulty; at time 25 p6 is still alive. The eventual
        // class may nonetheless answer true after GST.
        let mut fd = PhiOracle::new(fp(), 3, 1, Scope::Eventual(Time(22)), 5);
        assert!(fd.query(ProcessId(0), ps(&[3, 4, 5]), Time(25)));
    }

    #[test]
    fn psi_accepts_chains() {
        let mut fd = PsiOracle::new(PhiOracle::new(fp(), 3, 1, Scope::Perpetual, 6));
        assert!(fd.query(ProcessId(0), ps(&[3]), Time(0))); // |X| ≤ t−y
        let _ = fd.query(ProcessId(0), ps(&[3, 4]), Time(0));
        let _ = fd.query(ProcessId(0), ps(&[3, 4, 5]), Time(0));
        let _ = fd.query(ProcessId(0), ps(&[3, 4]), Time(0)); // a repeat
    }

    #[test]
    #[should_panic(expected = "containment contract")]
    fn psi_strict_rejects_incomparable() {
        let mut fd = PsiOracle::new(PhiOracle::new(fp(), 3, 1, Scope::Perpetual, 7));
        let _ = fd.query(ProcessId(0), ps(&[3, 4]), Time(0));
        let _ = fd.query(ProcessId(0), ps(&[4, 5]), Time(0));
    }

    /// The containment rule as first written — every query is compared
    /// against every distinct earlier set — kept as the model the chain
    /// is checked against.
    #[derive(Default)]
    struct TwoScanModel {
        chain: Vec<PSet>,
    }

    impl TwoScanModel {
        /// Records the query; returns whether it violated the contract.
        fn query(&mut self, x: PSet) -> bool {
            let comparable = self.chain.iter().all(|&prev| prev.comparable(x));
            if !self.chain.contains(&x) {
                self.chain.push(x);
            }
            !comparable
        }
    }

    #[test]
    fn psi_matches_the_two_scan_model() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut rng = fd_sim::SplitMix64::new(0x9517);
        // Rounds that violate the contract, and queries of a set already
        // in the chain before that (the equality-scan path).
        let (mut violating_rounds, mut repeats) = (0, 0);
        for round in 0..200 {
            let n = 3 + round % 6; // 3..=8
            let fp = FailurePattern::all_correct(n);
            // A small pool makes repeats common; half the pool is a chain,
            // half is arbitrary.
            let mut pool: Vec<PSet> = (1..=n / 2 + 1).map(PSet::full).collect();
            for _ in 0..n / 2 + 1 {
                pool.push(PSet::from_bits(rng.below(1 << n) as u128));
            }
            let queries: Vec<PSet> = (0..40).map(|_| *rng.choose(&pool).unwrap()).collect();

            let mut model = TwoScanModel::default();
            let first_violation = queries.iter().position(|&x| model.query(x));
            let phi = || PhiOracle::new(fp.clone(), n - 1, 1, Scope::Perpetual, round as u64);
            let mut psi = PsiOracle::new(phi());
            let panicked_at = queries.iter().enumerate().position(|(idx, &x)| {
                let (p, now) = (ProcessId(idx % n), Time(idx as u64));
                repeats += u64::from(queries[..idx].contains(&x));
                match catch_unwind(AssertUnwindSafe(|| psi.query(p, x, now))) {
                    Ok(answer) => {
                        assert_eq!(answer, phi().query(p, x, now), "round {round} query {idx}");
                        false
                    }
                    Err(_) => true,
                }
            });
            assert_eq!(panicked_at, first_violation, "round {round}");
            violating_rounds += u64::from(first_violation.is_some());
        }
        // Both outcomes occur (189 rounds violate), and repeats are common.
        assert!((100..200).contains(&violating_rounds), "{violating_rounds}");
        assert!(repeats > 400, "{repeats}");
    }

    /// `query` as it read the crash record on every call, before the
    /// oracle held a crash schedule: the model for the two tests below.
    fn model_query(fd: &PhiOracle, fp: &FailurePattern, p: ProcessId, x: PSet, now: Time) -> bool {
        let sz = x.len();
        if sz <= fd.t.saturating_sub(fd.y) {
            return true;
        }
        if sz > fd.t {
            return false;
        }
        match fd.scope {
            Scope::Eventual(gst) if now < gst => noise::arbitrary_bool(fd.seed, p, x, now),
            _ => match crash_model::per_call_last_crash(fp, x) {
                Some(tc) if now >= tc + LIVENESS_LAG => true,
                Some(_) => matches!(fd.scope, Scope::Eventual(_)),
                None => false,
            },
        }
    }

    /// `φ_y` and `◇φ_y` against the per-call model: seeded patterns at
    /// n ∈ {2…9, 64, 65, 128}, y ∈ {0, random, t}, random query sets, at
    /// every instant where an answer can change.
    #[test]
    fn phi_matches_the_per_call_model() {
        let (mut answers, mut trues) = (0u64, 0u64);
        for mut case in crash_model::cases(0x9417, 6) {
            let t = case.t;
            let ys = [0, case.rng.below(t as u64 + 1) as usize, t];
            let instants = crash_model::instants(&case, LIVENESS_LAG);
            let fp = case.fp.clone();
            for (k, y) in ys.into_iter().enumerate() {
                for scope in [Scope::Perpetual, Scope::Eventual(case.gst)] {
                    let mut fd = PhiOracle::new(fp.clone(), t, y, scope, k as u64);
                    for q in 0..12 {
                        let x = crash_model::query_set(&mut case);
                        for &now in &instants {
                            let p = ProcessId(q % fp.n());
                            let want = model_query(&fd, &fp, p, x, now);
                            assert_eq!(
                                fd.query(p, x, now),
                                want,
                                "{case:?} y={y} {scope:?} {x} at {now}"
                            );
                            answers += 1;
                            trues += u64::from(want);
                        }
                    }
                }
            }
        }
        // Both answers are common.
        assert!(
            trues * 5 > answers && trues * 5 < answers * 4,
            "{trues}/{answers}"
        );
    }

    /// `Ψ_y` forwards every query of a containment chain to `φ_y`
    /// unchanged: its answers equal the per-call model's.
    #[test]
    fn psi_matches_the_per_call_model() {
        for mut case in crash_model::cases(0x9518, 3) {
            let (t, n) = (case.t, case.fp.n());
            let y = case.rng.below(t as u64 + 1) as usize;
            let instants = crash_model::instants(&case, LIVENESS_LAG);
            let fp = case.fp.clone();
            // A chain: the faulty processes first, then the rest, in a
            // random order within each group.
            let mut order: Vec<ProcessId> = fp.faulty().iter().collect();
            case.rng.shuffle(&mut order);
            let mut rest: Vec<ProcessId> = fp.correct().iter().collect();
            case.rng.shuffle(&mut rest);
            order.extend(rest);
            let chain: Vec<PSet> = (1..=n.min(t + 2))
                .map(|k| order[..k].iter().copied().collect())
                .collect();
            let scope = Scope::Eventual(case.gst);
            let mut psi = PsiOracle::new(PhiOracle::new(fp.clone(), t, y, scope, 3));
            for (i, &now) in instants.iter().enumerate() {
                for j in 0..chain.len() {
                    let x = chain[(i + j * 7) % chain.len()];
                    let p = ProcessId(j % n);
                    let want = model_query(psi.inner(), &fp, p, x, now);
                    assert_eq!(psi.query(p, x, now), want, "{case:?} y={y} {x} at {now}");
                }
            }
        }
    }

    #[test]
    fn phi_zero_gives_no_information() {
        // y = 0: every |X| ≤ t answers true trivially, |X| > t false —
        // nothing depends on the failure pattern.
        let mut fd = PhiOracle::new(fp(), 3, 0, Scope::Perpetual, 9);
        assert!(fd.query(ProcessId(0), ps(&[0, 1, 2]), Time(0)));
        assert!(!fd.query(ProcessId(0), ps(&[0, 1, 2, 3]), Time(0)));
    }

    #[test]
    fn phi_t_equals_perfect() {
        // y = t: meaningful range is 0 < |X| ≤ t, i.e. φ_t answers
        // crash-status questions about any small set — a perfect detector.
        let mut fd = PhiOracle::new(fp(), 3, 3, Scope::Perpetual, 10);
        assert!(!fd.query(ProcessId(0), ps(&[0]), Time(9999))); // correct
        assert!(fd.query(ProcessId(0), ps(&[3]), Time(9999))); // crashed
    }

    #[test]
    #[should_panic(expected = "y <= t")]
    fn y_above_t_rejected() {
        let _ = PhiOracle::new(fp(), 3, 4, Scope::Perpetual, 1);
    }
}
