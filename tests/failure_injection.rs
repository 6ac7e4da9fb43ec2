//! Failure-injection suite: the algorithms must survive every adversity
//! the model permits — heavy-tailed delays, targeted silences shorter than
//! the horizon, crashes at awkward instants, partial reliable broadcasts
//! by faulty senders, and maximal crash counts.

use fd_grid::fd_core::{run_kset_with, KsetScenario};
use fd_grid::fd_transforms::{TwParams, TwoWheelsScenario};
use fd_grid::scenario::{CrashPlan, Runner, Scenario};
use fd_grid::{DelayModel, DelayRule, FailurePattern, PSet, ProcessId, Time};

#[test]
fn kset_survives_heavy_tailed_delays() {
    for seed in 0..5 {
        let spec = KsetScenario::spec(5, 2, 1)
            .seed(seed)
            .gst(Time(500))
            .delay(DelayModel::Spiky {
                lo: 1,
                hi: 8,
                spike_pct: 10,
                factor: 40,
            })
            .max_time(Time(200_000));
        let rep = Runner::sequential().run(&KsetScenario, &spec);
        assert!(rep.check.ok, "seed {seed}: {}", rep.check);
    }
}

#[test]
fn kset_survives_transient_partition() {
    // A silence window that *ends* (unlike the Theorem 5 witness): the
    // algorithm must recover and terminate.
    for seed in 0..5 {
        let half: PSet = [ProcessId(0), ProcessId(1)].into_iter().collect();
        let other = half.complement(5);
        let fp = FailurePattern::all_correct(5);
        let spec = KsetScenario::spec(5, 2, 1)
            .seed(seed)
            .gst(Time(200))
            .delay(DelayModel::Uniform { lo: 1, hi: 6 })
            .max_time(Time(200_000))
            .rule(DelayRule::silence_until(half, other, Time(3_000)))
            .rule(DelayRule::silence_until(other, half, Time(3_000)));
        let oracle = fd_grid::fd_detectors::OmegaOracle::new(fp.clone(), 1, Time(200), seed);
        let rep = run_kset_with(&spec, fp.clone(), oracle);
        assert!(rep.check.ok, "seed {seed}: {}", rep.check);
        assert_eq!(rep.trace.deciders(), fp.correct(), "seed {seed}");
        assert_eq!(rep.metrics.decided_values.len(), 1, "seed {seed}");
    }
}

#[test]
fn kset_survives_maximal_crashes_at_awkward_times() {
    // t crashes, all just before the oracle stabilizes.
    for seed in 0..6 {
        let spec = KsetScenario::spec(7, 3, 2)
            .seed(seed)
            .gst(Time(600))
            .crashes(CrashPlan::Random {
                f: 3,
                by: Time(590),
            })
            .max_time(Time(200_000));
        let rep = Runner::sequential().run(&KsetScenario, &spec);
        assert!(rep.check.ok, "seed {seed}: {}", rep.check);
    }
}

#[test]
fn kset_survives_initial_wipeout() {
    // All t crashes at time zero.
    for seed in 0..5 {
        let spec = KsetScenario::spec(5, 2, 1)
            .seed(seed)
            .gst(Time(400))
            .crashes(CrashPlan::Initial { f: 2 })
            .max_time(Time(150_000));
        let rep = Runner::sequential().run(&KsetScenario, &spec);
        assert!(rep.check.ok, "seed {seed}: {}", rep.check);
    }
}

#[test]
fn wheels_survive_staggered_crashes() {
    // Crash one process per "era" of the run.
    let params = TwParams::optimal(6, 2, 1, 1); // z = 2
    for seed in 0..4 {
        let fp = FailurePattern::builder(6)
            .crash(ProcessId(1), Time(100))
            .crash(ProcessId(4), Time(2_000))
            .build();
        let spec = TwoWheelsScenario::spec(params)
            .crashes(CrashPlan::Explicit(fp))
            .gst(Time(2_500))
            .seed(seed)
            .max_time(Time(50_000));
        let rep = TwoWheelsScenario::default().run(&spec);
        assert!(rep.check.ok, "seed {seed}: {}", rep.check);
    }
}

#[test]
fn kset_survives_decider_crash() {
    // The lowest-id process (often first decider) crashes right around
    // decision time; the reliable broadcast's partial-delivery freedom for
    // faulty senders is exercised by rb_partial_pct in the engine.
    for seed in 0..6 {
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(0), Time(450))
            .build();
        let spec = KsetScenario::spec(5, 2, 1)
            .seed(seed)
            .gst(Time(400))
            .crashes(CrashPlan::Explicit(fp));
        let rep = Runner::sequential().run(&KsetScenario, &spec);
        assert!(rep.check.ok, "seed {seed}: {}", rep.check);
    }
}

#[test]
fn two_wheels_survive_crash_of_scope_members() {
    // Crash low-id processes — exactly the ones the rings visit first.
    let params = TwParams::optimal(5, 2, 2, 1); // z = 1
    for seed in 0..4 {
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(0), Time(60))
            .crash(ProcessId(1), Time(120))
            .build();
        let spec = TwoWheelsScenario::spec(params)
            .crashes(CrashPlan::Explicit(fp))
            .gst(Time(700))
            .seed(seed)
            .max_time(Time(60_000));
        let rep = TwoWheelsScenario::default().run(&spec);
        assert!(rep.check.ok, "seed {seed}: {}", rep.check);
    }
}

#[test]
fn anarchic_crash_plan_respects_t() {
    for seed in 0..32 {
        let fp = CrashPlan::Anarchic { by: Time(1_000) }.materialize(7, 3, seed);
        assert!(
            fp.num_faulty() <= 3,
            "seed {seed}: {} crashes",
            fp.num_faulty()
        );
    }
}
