//! Determinism is a correctness requirement here (see "Determinism" in
//! README.md): every reported number must be reproducible bit-for-bit from
//! the seed. These tests re-run identical configurations and compare full
//! traces.

use fd_grid::fd_core::KsetScenario;
use fd_grid::fd_transforms::{TwParams, TwoWheelsScenario};
use fd_grid::scenario::{CrashPlan, Runner};
use fd_grid::{PipelineScenario, Scenario, Time, Trace};

fn fingerprint(trace: &Trace) -> (Vec<(u64, usize, u64)>, Vec<String>) {
    let decisions = trace
        .decisions()
        .iter()
        .map(|d| (d.at.ticks(), d.by.0, d.value))
        .collect();
    let histories = trace
        .histories()
        .map(|((p, slot), h)| {
            format!(
                "{p}:{slot}:{}",
                h.samples()
                    .iter()
                    .map(|s| format!("{}@{}", s.value, s.at))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    (decisions, histories)
}

#[test]
fn kset_runs_are_reproducible() {
    let run = || {
        let spec = KsetScenario::spec(6, 2, 2)
            .seed(77)
            .gst(Time(300))
            .crashes(CrashPlan::Random {
                f: 2,
                by: Time(400),
            });
        Runner::sequential().run(&KsetScenario, &spec)
    };
    let a = run();
    let b = run();
    assert_eq!(fingerprint(&a.trace), fingerprint(&b.trace));
    assert_eq!(a.metrics.msgs_sent, b.metrics.msgs_sent);
    assert_eq!(a.fp, b.fp);
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let spec = KsetScenario::spec(6, 2, 2).seed(seed).gst(Time(300));
        Runner::sequential().run(&KsetScenario, &spec)
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        (a.metrics.msgs_sent, a.metrics.last_decision),
        (b.metrics.msgs_sent, b.metrics.last_decision),
        "two seeds produced identical runs — suspicious"
    );
}

#[test]
fn two_wheels_runs_are_reproducible() {
    let run = || {
        let spec = TwoWheelsScenario::spec(TwParams::optimal(5, 2, 2, 1))
            .gst(Time(400))
            .seed(13)
            .max_time(Time(20_000));
        TwoWheelsScenario::default().run(&spec)
    };
    let a = run();
    let b = run();
    assert_eq!(fingerprint(&a.trace), fingerprint(&b.trace));
}

#[test]
fn pipeline_runs_are_reproducible() {
    let run = || {
        let spec = PipelineScenario::spec(5, 2, 2, 1)
            .gst(Time(300))
            .seed(5)
            .max_time(Time(120_000));
        PipelineScenario.run(&spec)
    };
    let a = run();
    let b = run();
    assert_eq!(fingerprint(&a.trace), fingerprint(&b.trace));
    assert_eq!(a.metrics.decided_values, b.metrics.decided_values);
}
