//! Executable irreducibility witnesses — the dotted arrows of the paper's
//! **Figure 1 grid** and the tightness halves of Theorems 7, 12 and 13.
//!
//! Impossibility proofs quantify over all algorithms and cannot be run;
//! what *can* be run are (a) the indistinguishable-run constructions the
//! proofs rely on, and (b) the constructions of this repository pushed one
//! step past their validity bounds, where the theorems say they must fail.
//! This module implements both:
//!
//! * [`theorem8`] — the run pair (R, R″) of Theorem 8 (`S_x ↛ ◇φ_y`): a
//!   candidate query-builder sees *identical* failure-detector outputs and
//!   local schedules in a run where the probed set `E` has crashed and in a
//!   run where `E` is merely silent; its liveness-mandated `true` answer in
//!   the first run is therefore a safety violation in the second.
//! * [`psi_boundary_violation`] — Figure 8 run at `y + z = t` (one below
//!   Theorem 12's bound): the triviality property masks the first chain
//!   set and a crashed process is elected forever.
//! * [`find_two_wheels_failure`] / [`find_addition_failure`] — seed
//!   searches exhibiting concrete runs where the two-wheels construction
//!   (below `x+y+z = t+2`, Theorem 7) and the Figure 9 addition (below
//!   `x+y = t+1`, Theorem 13) violate their target class.

use crate::scenario::{PsiOmegaScenario, TwoWheelsScenario, DEFAULT_MARGIN};
use crate::two_wheels::TwParams;
use fd_detectors::scenario::{run_to_horizon, CrashPlan, Scenario, ScenarioReport, ScenarioSpec};
use fd_detectors::{check, PhiOracle, Scope, ScriptedOracle, SetSchedule, SxOracle};
use fd_sim::{
    Automaton, Ctx, DelayModel, DelayRule, FailurePattern, FdValue, OracleSuite, PSet, ProcessId,
    SuspectPlusQuery, Time, Trace,
};

/// Output slot used by the strawman query-builder.
pub const QUERY_SLOT: u32 = fd_sim::slot::USER;

/// A best-effort candidate transformation `S_x → ◇φ_y` for a fixed target
/// set `E`: answer `true` once `E` has been contained in `suspected_i`
/// continuously for `stability` ticks. (Theorem 8 says *no* candidate can
/// work; this one is the natural attempt, and [`theorem8`] defeats it with
/// the proof's own adversary.)
#[derive(Clone, Debug)]
pub struct StrawmanQueryBuilder {
    /// The probed set.
    pub e: PSet,
    /// Required continuous-suspicion window before answering `true`.
    pub stability: u64,
    since: Option<Time>,
}

impl StrawmanQueryBuilder {
    /// Creates the candidate for target set `e`.
    pub fn new(e: PSet, stability: u64) -> Self {
        StrawmanQueryBuilder {
            e,
            stability,
            since: None,
        }
    }
}

impl Automaton for StrawmanQueryBuilder {
    type Msg = ();

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, (), O>) {
        ctx.publish(QUERY_SLOT, FdValue::Flag(false));
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        _msg: (),
        _ctx: &mut Ctx<'_, (), O>,
    ) {
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, (), O>) {
        let now = ctx.now();
        if self.e.is_subset(ctx.suspected()) {
            self.since.get_or_insert(now);
        } else {
            self.since = None;
        }
        let ans = self
            .since
            .map(|s| now - s >= self.stability)
            .unwrap_or(false);
        ctx.publish(QUERY_SLOT, FdValue::Flag(ans));
    }
}

/// Result of the Theorem 8 run-pair construction.
#[derive(Clone, Debug)]
pub struct Theorem8Witness {
    /// The probed set `E` (|E| = t − y + 1, in `◇φ_y`'s meaningful range).
    pub e: PSet,
    /// Earliest time a process outside `E` answered `true` in run R
    /// (where `E` crashed initially) — forced eventually by liveness.
    pub tau1: Option<Time>,
    /// Whether all processes outside `E` produced identical answer
    /// histories in R and R″ up to `tau1` (they must: both runs are
    /// indistinguishable to them).
    pub prefix_identical: bool,
    /// Whether the R″ run — where `E` is correct — contains a `true`
    /// answer at `tau1`, i.e. the safety violation.
    pub safety_violated: bool,
}

/// Compares two traces' histories of `(p, slot)` truncated at `tau`
/// (inclusive of changes strictly before `tau`).
pub fn histories_agree_until(a: &Trace, b: &Trace, p: ProcessId, slot: u32, tau: Time) -> bool {
    let cut = |t: &Trace| -> Vec<(Time, FdValue)> {
        t.history(p, slot)
            .samples()
            .iter()
            .filter(|s| s.at <= tau)
            .map(|s| (s.at, s.value))
            .collect()
    };
    cut(a) == cut(b)
}

/// Executes the Theorem 8 construction (`S_x ↛ ◇φ_y`, here rendered
/// against the strawman candidate).
///
/// Both runs use the *same* scripted `S_x`-legal detector (everyone
/// constantly suspects `E` — legal in both runs: in R completeness demands
/// it, in R″ the accuracy scope is any set avoiding `E`), fixed message
/// delays, and per-process step schedules, so processes outside `E`
/// observe literally identical inputs until `E`'s silence ends.
pub fn theorem8(n: usize, t: usize, y: usize, seed: u64) -> Theorem8Witness {
    assert!(y < t, "need y < t so that |E| = t−y+1 ≤ t");
    let e: PSet = (0..t - y + 1).map(ProcessId).collect();
    let stability = 40;
    let horizon = Time(5_000);

    let scripted = || {
        let mut o = ScriptedOracle::new();
        o.suspected = SetSchedule::constant(e);
        o
    };
    let mk = |_p: ProcessId| StrawmanQueryBuilder::new(e, stability);

    // Run R: E crashes initially.
    let fp_r = FailurePattern::builder(n).crash_all(e, Time::ZERO).build();
    let spec = ScenarioSpec::new(n, t)
        .seed(seed)
        .max_time(horizon)
        .delay(DelayModel::Fixed(3));
    let trace_r = run_to_horizon(&spec, &fp_r, mk, scripted());

    // τ1: first `true` answer by a process outside E in R.
    let outside = e.complement(n);
    let tau1 = outside
        .iter()
        .filter_map(|p| {
            trace_r
                .history(p, QUERY_SLOT)
                .samples()
                .iter()
                .find(|s| s.value == FdValue::Flag(true))
                .map(|s| s.at)
        })
        .min();

    // Run R″: E is correct but silent until after τ1 (targeted delays).
    let silence_until = tau1.map(|t1| t1 + 1_000).unwrap_or(horizon);
    let fp_r2 = FailurePattern::all_correct(n);
    let spec2 = spec.rule(DelayRule::silence_until(e, PSet::full(n), silence_until));
    let trace_r2 = run_to_horizon(&spec2, &fp_r2, mk, scripted());

    let prefix_identical = match tau1 {
        None => false,
        Some(t1) => outside
            .iter()
            .all(|p| histories_agree_until(&trace_r, &trace_r2, p, QUERY_SLOT, t1)),
    };
    let safety_violated = match tau1 {
        None => false,
        Some(t1) => outside
            .iter()
            .any(|p| trace_r2.history(p, QUERY_SLOT).value_at(t1) == Some(FdValue::Flag(true))),
    };
    Theorem8Witness {
        e,
        tau1,
        prefix_identical,
        safety_violated,
    }
}

/// Deterministic Figure 8 failure at `y + z = t` (one below Theorem 12's
/// bound): crash the `(z+1)`-th chain process. The first chain set (size
/// `z = t − y`) is masked by triviality, so every process forever elects
/// the crashed `p_{z+1}` — the returned check must fail.
pub fn psi_boundary_violation(n: usize, t: usize, y: usize, seed: u64) -> ScenarioReport {
    let z = t - y;
    assert!(z >= 1, "need y < t at the boundary");
    // The (z+1)-th identity is the one Figure 8's rule will elect.
    let victim = ProcessId(z);
    let fp = FailurePattern::builder(n).crash(victim, Time(50)).build();
    let spec = ScenarioSpec::new(n, t)
        .y(y)
        .z(z)
        .crashes(CrashPlan::Explicit(fp))
        .gst(Time(200))
        .seed(seed)
        .max_time(Time(20_000));
    PsiOmegaScenario.run(&spec)
}

/// Searches seeds for a run where the two-wheels construction with
/// infeasible parameters (`x + y + z ≤ t + 1`) fails the `Ω_z` check
/// (Theorem 7's necessity half: some run must fail).
pub fn find_two_wheels_failure(
    params: TwParams,
    fp: FailurePattern,
    gst: Time,
    seeds: std::ops::Range<u64>,
    max_time: Time,
) -> Option<(u64, ScenarioReport)> {
    assert!(
        !params.feasible(),
        "parameters are feasible; no failure is promised"
    );
    let base = TwoWheelsScenario::spec(params)
        .crashes(CrashPlan::Explicit(fp))
        .gst(gst)
        .max_time(max_time);
    for seed in seeds {
        let rep = TwoWheelsScenario::default().run(&base.with_seed(seed));
        if !rep.check.ok {
            return Some((seed, rep));
        }
    }
    None
}

/// Exhibits a Figure 9 failure at `x + y = t` (one below Theorem 13's
/// bound), using the proof's own scenario: the accuracy scope `Q`
/// (pivot `p_1` plus `x−1` processes) loses all members but the pivot to
/// crashes, every survivor permanently slanders every correct process, and
/// the `φ_y` triviality property (`|X| ≤ t−y` answers `true`) lets scans
/// that transiently miss a correct process publish suspicion of it — so no
/// correct process is ever *permanently* unsuspected.
pub fn find_addition_failure(
    n: usize,
    t: usize,
    x: usize,
    y: usize,
    seeds: std::ops::Range<u64>,
    max_time: Time,
) -> Option<(u64, ScenarioReport)> {
    assert!(
        x + y <= t,
        "parameters are feasible; no failure is promised"
    );
    assert!(x >= 1 && y < t);
    let pivot = ProcessId(0);
    let q: PSet = (0..x).map(ProcessId).collect();
    // Crash Q \ {pivot}: x−1 ≤ t crashes.
    let fp = {
        let mut b = FailurePattern::builder(n);
        for p in q {
            if p != pivot {
                b = b.crash(p, Time(100));
            }
        }
        b.build()
    };
    for seed in seeds {
        let sx = SxOracle::with_scope(fp.clone(), t, x, Scope::Perpetual, seed, q, pivot, 100);
        let phi = PhiOracle::new(fp.clone(), t, y, Scope::Perpetual, seed ^ 0x77);
        let oracle = SuspectPlusQuery {
            suspect: sx,
            query: phi,
        };
        let spec = ScenarioSpec::new(n, t)
            .x(x)
            .y(y)
            .crashes(CrashPlan::Explicit(fp.clone()))
            .seed(seed)
            .max_time(max_time);
        let trace = run_to_horizon(
            &spec,
            &fp,
            |_| crate::addition_s::AdditionMp::new(n),
            oracle,
        );
        // The output claims class S (= S_n): full-scope accuracy.
        let check = check::limited_scope_accuracy(&trace, &fp, n, false, DEFAULT_MARGIN, 0);
        if !check.ok {
            return Some((
                seed,
                ScenarioReport::new("witness_addition_boundary", &spec, fp.clone(), trace, check),
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem8_witness_fires() {
        // n = 5, t = 2, y = 1: |E| = 2.
        let w = theorem8(5, 2, 1, 7);
        assert!(w.tau1.is_some(), "liveness never fired in run R");
        assert!(w.prefix_identical, "runs distinguishable before τ1");
        assert!(w.safety_violated, "no safety violation in run R″");
    }

    #[test]
    fn theorem8_works_across_seeds() {
        for seed in 0..5 {
            let w = theorem8(6, 3, 1, seed);
            assert!(w.tau1.is_some() && w.prefix_identical && w.safety_violated);
        }
    }

    #[test]
    fn psi_boundary_fails_deterministically() {
        // n = 5, t = 2, y = 1 ⇒ z = 1 and y + z = t: below the bound.
        let rep = psi_boundary_violation(5, 2, 1, 3);
        assert!(
            !rep.check.ok,
            "boundary run unexpectedly passed: {}",
            rep.check
        );
        // The elected set is exactly the crashed victim.
        let last = rep
            .trace
            .history(ProcessId(4), fd_sim::slot::TRUSTED)
            .last()
            .unwrap()
            .as_set();
        assert_eq!(last, PSet::singleton(ProcessId(1)));
    }

    #[test]
    fn addition_boundary_failure_found() {
        // n = 5, t = 2, x = 1, y = 1: x + y = t (below x + y ≥ t + 1).
        let found = find_addition_failure(5, 2, 1, 1, 0..20, Time(30_000));
        assert!(found.is_some(), "no failing run found at the boundary");
    }
}
