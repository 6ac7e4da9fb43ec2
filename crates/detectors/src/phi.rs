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
use fd_sim::{FailurePattern, OracleSuite, PSet, ProcessId, Time};

/// Tuning of `φ_y` adversarial behaviour.
#[derive(Clone, Debug)]
pub struct PhiAdversary {
    /// Ticks after the last crash of `X` before queries turn `true`.
    pub liveness_lag: u64,
    /// Flicker period of pre-stabilization noise (`◇φ_y` only).
    pub noise_period: u64,
    /// `◇φ_y` only: after stabilization, answer `true` for sets whose
    /// members are all *faulty* even if some are still alive — the eventual
    /// safety property only protects sets containing a correct process, so
    /// this lie is admissible and maximally misleading.
    pub early_true_for_doomed: bool,
}

impl Default for PhiAdversary {
    fn default() -> Self {
        PhiAdversary {
            liveness_lag: 10,
            noise_period: 7,
            early_true_for_doomed: true,
        }
    }
}

/// A `φ_y` / `◇φ_y` oracle.
///
/// # Examples
///
/// ```
/// use fd_detectors::{PhiOracle, Scope};
/// use fd_sim::{FailurePattern, OracleSuite, PSet, ProcessId, Time};
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
    fp: FailurePattern,
    t: usize,
    y: usize,
    scope: Scope,
    adv: PhiAdversary,
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
        Self::with_adversary(fp, t, y, scope, seed, PhiAdversary::default())
    }

    /// As [`PhiOracle::new`] with explicit adversary tuning.
    pub fn with_adversary(
        fp: FailurePattern,
        t: usize,
        y: usize,
        scope: Scope,
        seed: u64,
        adv: PhiAdversary,
    ) -> Self {
        assert!(y <= t, "need y <= t");
        assert!(
            fp.num_faulty() <= t,
            "failure pattern exceeds resilience bound"
        );
        PhiOracle {
            fp,
            t,
            y,
            scope,
            adv,
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
                noise::arbitrary_bool(self.seed, p, x, now, self.adv.noise_period)
            }
            _ => match self.fp.all_crashed_by(x) {
                Some(tc) if now >= tc + self.adv.liveness_lag => true,
                Some(_) => {
                    // All members faulty but not yet (stably) crashed.
                    matches!(self.scope, Scope::Eventual(_)) && self.adv.early_true_for_doomed
                }
                None => false,
            },
        }
    }
}

/// A `Ψ_y` oracle: `φ_y` plus the *containment* usage contract — any two
/// queried sets must be comparable (`X ⊆ X'` or `X' ⊆ X`).
///
/// The wrapper validates the contract across all queries of the run. With
/// `strict` mode it panics on a violation (programming error in the caller);
/// otherwise it records the violation count for inspection.
#[derive(Clone, Debug)]
pub struct PsiOracle {
    inner: PhiOracle,
    /// Every distinct set queried so far, each with whether some other
    /// entry is incomparable with it. A new pair only ever appears when a
    /// set is first queried, so the flags are settled at insertion (on
    /// both sides) and a repeated query is answered by one equality scan.
    chain: Vec<(PSet, bool)>,
    strict: bool,
    violations: u64,
}

impl PsiOracle {
    /// Wraps a `φ_y` oracle as `Ψ_y`, panicking on contract violations.
    pub fn new(inner: PhiOracle) -> Self {
        PsiOracle {
            inner,
            chain: Vec::new(),
            strict: true,
            violations: 0,
        }
    }

    /// As [`PsiOracle::new`], but merely counts contract violations.
    pub fn lenient(inner: PhiOracle) -> Self {
        PsiOracle {
            strict: false,
            ..Self::new(inner)
        }
    }

    /// Number of containment violations observed (lenient mode).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The underlying `φ_y` oracle.
    pub fn inner(&self) -> &PhiOracle {
        &self.inner
    }
}

impl OracleSuite for PsiOracle {
    fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
        let known = self.chain.iter().position(|(prev, _)| *prev == x);
        let conflicted = match known {
            Some(i) => self.chain[i].1,
            None => {
                let mut conflicted = false;
                for (prev, flag) in &mut self.chain {
                    if !prev.comparable(x) {
                        *flag = true;
                        conflicted = true;
                    }
                }
                conflicted
            }
        };
        if conflicted {
            self.violations += 1;
            assert!(
                !self.strict,
                "Ψ_y containment contract violated: {x} is incomparable with a previous query"
            );
        }
        if known.is_none() {
            self.chain.push((x, conflicted));
        }
        self.inner.query(p, x, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(fd.violations(), 0);
    }

    #[test]
    #[should_panic(expected = "containment contract")]
    fn psi_strict_rejects_incomparable() {
        let mut fd = PsiOracle::new(PhiOracle::new(fp(), 3, 1, Scope::Perpetual, 7));
        let _ = fd.query(ProcessId(0), ps(&[3, 4]), Time(0));
        let _ = fd.query(ProcessId(0), ps(&[4, 5]), Time(0));
    }

    #[test]
    fn psi_lenient_counts() {
        let mut fd = PsiOracle::lenient(PhiOracle::new(fp(), 3, 1, Scope::Perpetual, 8));
        let _ = fd.query(ProcessId(0), ps(&[3, 4]), Time(0));
        let _ = fd.query(ProcessId(0), ps(&[4, 5]), Time(0));
        assert_eq!(fd.violations(), 1);
    }

    /// The containment rule as first written — every query is compared
    /// against every distinct earlier set — kept as the model the flagged
    /// chain is checked against.
    #[derive(Default)]
    struct TwoScanModel {
        chain: Vec<PSet>,
        violations: u64,
    }

    impl TwoScanModel {
        /// Records the query; returns whether it violated the contract.
        fn query(&mut self, x: PSet) -> bool {
            let comparable = self.chain.iter().all(|&prev| prev.comparable(x));
            if !comparable {
                self.violations += 1;
            }
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
        // Queries that violate on a set already in the chain: the case the
        // stored flag (not a fresh comparison) must answer.
        let mut repeated_violations = 0;
        for round in 0..200 {
            let n = 3 + round % 6; // 3..=8
            let fp = FailurePattern::all_correct(n);
            // A small pool makes repeats (of clean and of conflicted sets)
            // common; half the pool is a chain, half is arbitrary.
            let mut pool: Vec<PSet> = (1..=n / 2 + 1).map(PSet::full).collect();
            for _ in 0..n / 2 + 1 {
                pool.push(PSet::from_bits(rng.below(1 << n) as u128));
            }
            let queries: Vec<PSet> = (0..40).map(|_| *rng.choose(&pool).unwrap()).collect();

            let phi = || PhiOracle::new(fp.clone(), n - 1, 1, Scope::Perpetual, round as u64);
            let mut lenient = PsiOracle::lenient(phi());
            let mut strict = PsiOracle::new(phi());
            let mut model = TwoScanModel::default();
            let mut strict_alive = true;
            for (idx, &x) in queries.iter().enumerate() {
                let (p, now) = (ProcessId(idx % n), Time(idx as u64));
                let repeat = model.chain.contains(&x);
                let violated = model.query(x);
                repeated_violations += u64::from(repeat && violated);
                assert_eq!(lenient.query(p, x, now), phi().query(p, x, now));
                assert_eq!(lenient.violations(), model.violations, "query {idx}");
                if strict_alive {
                    let r = catch_unwind(AssertUnwindSafe(|| strict.query(p, x, now)));
                    assert_eq!(r.is_err(), violated, "strict mode at query {idx}");
                    strict_alive = !violated;
                }
            }
        }
        assert!(repeated_violations > 100, "{repeated_violations}");
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
