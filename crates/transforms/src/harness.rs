//! Thin one-call adapters over the scenario engine, one per
//! transformation. All sim setup, oracle assembly, and report assembly
//! live in `fd_detectors::scenario` and [`crate::scenario`].

pub use crate::scenario::DEFAULT_MARGIN;
use crate::scenario::{AdditionScenario, PsiOmegaScenario, Substrate, TwoWheelsScenario};
use crate::two_wheels::TwParams;
pub use fd_detectors::scenario::{
    sample_oracle, MessageAdversary, MessageRule, ReportCache, RuleAction, SampledSlot,
};
use fd_detectors::scenario::{
    CrashPlan, Flavour, Runner, ScenarioReport, ScenarioSpec, SweepSummary,
};
use fd_detectors::{Scenario, Scope};
use fd_sim::{FailurePattern, Time};
use std::ops::Range;

/// Runs the two-wheels transformation `◇S_x + ◇φ_y → Ω_z` (Figures 5+6)
/// under adversarial oracles stabilizing at `gst`, and checks the built
/// detector against the `Ω_z` definition.
pub fn run_two_wheels(
    params: TwParams,
    fp: FailurePattern,
    gst: Time,
    seed: u64,
    max_time: Time,
) -> ScenarioReport {
    run_two_wheels_opt(params, fp, gst, seed, max_time, true)
}

/// As [`run_two_wheels`] with an explicit broadcast-throttle switch
/// (`throttled = false` restores the paper's literal
/// re-broadcast-while-dissatisfied tasks — the ablation of experiment E12).
pub fn run_two_wheels_opt(
    params: TwParams,
    fp: FailurePattern,
    gst: Time,
    seed: u64,
    max_time: Time,
    throttled: bool,
) -> ScenarioReport {
    let spec = TwoWheelsScenario::spec(params)
        .crashes(CrashPlan::Explicit(fp))
        .gst(gst)
        .seed(seed)
        .max_time(max_time);
    TwoWheelsScenario { throttled }.run(&spec)
}

/// Streams a multi-seed sweep of the two-wheels transformation into a
/// [`SweepSummary`] without retaining per-run traces (memory stays
/// `O(threads)` full reports however many seeds run).
pub fn sweep_two_wheels_summary(
    params: TwParams,
    crashes: CrashPlan,
    gst: Time,
    seeds: Range<u64>,
    max_time: Time,
    runner: Runner,
) -> SweepSummary {
    let spec = TwoWheelsScenario::spec(params)
        .crashes(crashes)
        .gst(gst)
        .max_time(max_time);
    runner.sweep_summary(&TwoWheelsScenario::default(), &spec, seeds)
}

/// Runs the `Ψ_y → Ω_z` transformation (Figure 8) and checks `Ω_z`.
///
/// The `Ψ_y` oracle is strict: any containment violation by the
/// transformation would panic the run.
#[allow(clippy::too_many_arguments)]
pub fn run_psi_omega(
    n: usize,
    t: usize,
    y: usize,
    z: usize,
    fp: FailurePattern,
    gst: Time,
    seed: u64,
    max_time: Time,
) -> ScenarioReport {
    let spec = ScenarioSpec::new(n, t)
        .y(y)
        .z(z)
        .crashes(CrashPlan::Explicit(fp))
        .gst(gst)
        .seed(seed)
        .max_time(max_time);
    PsiOmegaScenario.run(&spec)
}

/// Which flavour of the Figure 9 addition to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdditionFlavour {
    /// Perpetual inputs (`S_x + φ_y`), perpetual output (`S`).
    Perpetual,
    /// Eventual inputs (`◇S_x + ◇φ_y`) stabilizing at the given time,
    /// eventual output (`◇S`).
    Eventual(Time),
}

impl AdditionFlavour {
    /// The corresponding oracle scope.
    pub fn scope(self) -> Scope {
        match self {
            AdditionFlavour::Perpetual => Scope::Perpetual,
            AdditionFlavour::Eventual(gst) => Scope::Eventual(gst),
        }
    }

    fn split(self) -> (Flavour, Time) {
        match self {
            AdditionFlavour::Perpetual => (Flavour::Perpetual, Time::ZERO),
            AdditionFlavour::Eventual(gst) => (Flavour::Eventual, gst),
        }
    }
}

/// Runs the shared-memory Figure 9 addition `φ_y + S_x → S` and checks the
/// output against the (`◇`)`S` definition.
#[allow(clippy::too_many_arguments)]
pub fn run_addition_shm(
    n: usize,
    t: usize,
    x: usize,
    y: usize,
    fp: FailurePattern,
    flavour: AdditionFlavour,
    seed: u64,
    max_steps: u64,
) -> ScenarioReport {
    let (fl, gst) = flavour.split();
    let spec = ScenarioSpec::new(n, t)
        .x(x)
        .y(y)
        .crashes(CrashPlan::Explicit(fp))
        .gst(gst)
        .seed(seed)
        .max_steps(max_steps);
    AdditionScenario {
        substrate: Substrate::SharedMemory,
        flavour: fl,
    }
    .run(&spec)
}

/// Runs the message-passing port of the Figure 9 addition.
#[allow(clippy::too_many_arguments)]
pub fn run_addition_mp(
    n: usize,
    t: usize,
    x: usize,
    y: usize,
    fp: FailurePattern,
    flavour: AdditionFlavour,
    seed: u64,
    max_time: Time,
) -> ScenarioReport {
    let (fl, gst) = flavour.split();
    let spec = ScenarioSpec::new(n, t)
        .x(x)
        .y(y)
        .crashes(CrashPlan::Explicit(fp))
        .gst(gst)
        .seed(seed)
        .max_time(max_time);
    AdditionScenario {
        substrate: Substrate::MessagePassing,
        flavour: fl,
    }
    .run(&spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::ProcessId;

    #[test]
    fn two_wheels_builds_omega_all_correct() {
        let n = 5;
        let t = 2;
        // x = 2, y = 1 ⇒ z = t+2−x−y = 1.
        let params = TwParams::optimal(n, t, 2, 1);
        assert_eq!(params.z, 1);
        for seed in 0..3 {
            let rep = run_two_wheels(
                params,
                FailurePattern::all_correct(n),
                Time(400),
                seed,
                Time(40_000),
            );
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
        }
    }

    #[test]
    fn two_wheels_tolerates_a_persistent_mild_drop_adversary() {
        // Unlike the one-shot round broadcasts of the agreement algorithm,
        // the wheels' tasks re-send while dissatisfied — so the built Ω_z
        // survives a *persistent* (unwindowed) mild drop adversary.
        let params = TwParams::optimal(5, 2, 2, 1);
        let base = TwoWheelsScenario::spec(params)
            .gst(Time(400))
            .max_time(Time(40_000))
            .seed(1);
        let sc = TwoWheelsScenario::default();
        let clean = sc.run(&base);
        let none = sc.run(&base.clone().adversary(MessageAdversary::None));
        assert_eq!(clean.fingerprint(), none.fingerprint());
        let armed = base.adversary(MessageAdversary::Rules(vec![MessageRule::drop(10)]));
        let rep = sc.run(&armed);
        assert!(rep.check.ok, "{}", rep.check);
        assert!(rep.slim().counter("sim.dropped") > 0);
        assert_eq!(rep.fingerprint(), sc.run(&armed).fingerprint());
    }

    #[test]
    fn two_wheels_builds_omega_with_crashes() {
        let n = 5;
        let t = 2;
        let params = TwParams::optimal(n, t, 1, 1); // z = 2
        for seed in 0..3 {
            let fp = FailurePattern::builder(n)
                .crash(ProcessId(1), Time(150))
                .crash(ProcessId(3), Time(600))
                .build();
            let rep = run_two_wheels(params, fp, Time(800), seed, Time(40_000));
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
        }
    }

    #[test]
    fn two_wheels_y_zero_special_case() {
        // §4.3: ◇S_x alone (φ_0 gives nothing): x + z = t + 2.
        let n = 5;
        let t = 2;
        let params = TwParams::optimal(n, t, 3, 0); // z = 1
        let rep = run_two_wheels(
            params,
            FailurePattern::all_correct(n),
            Time(300),
            11,
            Time(40_000),
        );
        assert!(rep.check.ok, "{}", rep.check);
    }

    #[test]
    fn streamed_two_wheels_sweep_matches_eager_runs() {
        let params = TwParams::optimal(5, 2, 2, 1);
        let summary = sweep_two_wheels_summary(
            params,
            CrashPlan::Anarchic { by: Time(300) },
            Time(400),
            0..6,
            Time(40_000),
            Runner::with_threads(3),
        );
        assert_eq!(summary.runs, 6);
        let mut eager_passes = 0;
        for seed in 0..6 {
            let fp = CrashPlan::Anarchic { by: Time(300) }.materialize(5, 2, seed);
            let rep = run_two_wheels(params, fp, Time(400), seed, Time(40_000));
            eager_passes += rep.check.ok as u64;
        }
        assert_eq!(summary.passes, eager_passes);
    }

    #[test]
    fn cached_transform_sweep_matches_cold_sweep() {
        // The adapter layer rides the engine's report cache unchanged: a
        // warm two-wheels sweep is summary-identical to the cold one and
        // computes nothing new.
        let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
        let params = TwParams::optimal(5, 2, 2, 1);
        let sweep = |runner: Runner| {
            sweep_two_wheels_summary(
                params,
                CrashPlan::Anarchic { by: Time(300) },
                Time(400),
                0..6,
                Time(40_000),
                runner,
            )
        };
        let cold = sweep(Runner::with_threads(2).with_cache(cache));
        assert_eq!(cache.misses(), 6);
        let warm = sweep(Runner::sequential().with_cache(cache));
        assert_eq!(warm, cold);
        assert_eq!(cache.misses(), 6, "warm sweep recomputed a run");
        assert_eq!(cache.hits(), 6);
    }

    #[test]
    fn psi_omega_feasible() {
        let n = 5;
        let t = 2;
        // y + z = 1 + 2 = 3 ≥ t + 1.
        for seed in 0..3 {
            let fp = FailurePattern::builder(n)
                .crash(ProcessId(0), Time(100))
                .build();
            let rep = run_psi_omega(n, t, 1, 2, fp, Time(300), seed, Time(20_000));
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
        }
    }

    #[test]
    fn addition_mp_builds_diamond_s() {
        let n = 5;
        let t = 2;
        // x + y = 2 + 1 = 3 > t.
        let fp = FailurePattern::builder(n)
            .crash(ProcessId(2), Time(200))
            .build();
        let rep = run_addition_mp(
            n,
            t,
            2,
            1,
            fp,
            AdditionFlavour::Eventual(Time(500)),
            5,
            Time(40_000),
        );
        assert!(rep.check.ok, "{}", rep.check);
    }

    #[test]
    fn addition_shm_builds_s() {
        let n = 4;
        let t = 1;
        // x + y = 1 + 1 = 2 > t = 1.
        let fp = FailurePattern::builder(n)
            .crash(ProcessId(3), Time(500))
            .build();
        let rep = run_addition_shm(n, t, 1, 1, fp, AdditionFlavour::Perpetual, 6, 300_000);
        assert!(rep.check.ok, "{}", rep.check);
    }
}
