//! Tightness of every bound in the paper, as an integration suite:
//! constructions pass *at* their bound and fail *below* it.

use fd_grid::fd_core::LowerBoundScenario;
use fd_grid::fd_detectors::ViolationClass;
use fd_grid::fd_transforms::witness::{self, AdditionBoundaryScenario};
use fd_grid::fd_transforms::{
    AdditionScenario, PsiOmegaScenario, Substrate, TwParams, TwoWheelsScenario,
};
use fd_grid::{
    CrashPlan, FailurePattern, Flavour, PipelineScenario, ProcessId, Runner, Scenario,
    ScenarioSpec, Time,
};

#[test]
fn theorem7_two_wheels_exactly_at_bound() {
    // Every (x, y) on the x + y + z = t + 2 line passes.
    let (n, t) = (5, 2);
    for x in 1..=3usize {
        for y in 0..=2usize {
            if x + y > t + 1 {
                continue;
            }
            let params = TwParams::optimal(n, t, x, y);
            if params.z > t - y + 1 {
                continue;
            }
            let base = TwoWheelsScenario::spec(params)
                .gst(Time(400))
                .max_time(Time(40_000));
            for seed in 0..3 {
                let rep = TwoWheelsScenario::default().run(&base.with_seed(seed));
                assert!(rep.check.ok, "x={x} y={y} seed {seed}: {}", rep.check);
            }
        }
    }
}

#[test]
fn theorem7_below_bound_fails() {
    let infeasible = TwParams {
        n: 5,
        t: 2,
        x: 2,
        y: 0,
        z: 1, // x+y+z = 3 = t+1
    };
    assert!(!infeasible.feasible());
    let spec = TwoWheelsScenario::spec(infeasible)
        .gst(Time(400))
        .max_time(Time(25_000));
    let found = Runner::sequential()
        .sweep_find(&TwoWheelsScenario::default(), &spec, 0..15, |s| !s.check.ok);
    assert!(found.is_some());
}

#[test]
fn theorem12_psi_at_and_below_bound() {
    let (n, t) = (5, 2);
    // At the bound (y + z = t + 1): pass.
    for &(y, z) in &[(1usize, 2usize), (2, 1)] {
        for seed in 0..3 {
            let fp = FailurePattern::builder(n)
                .crash(ProcessId(0), Time(100))
                .build();
            let spec = ScenarioSpec::new(n, t)
                .y(y)
                .z(z)
                .crashes(CrashPlan::Explicit(fp))
                .gst(Time(400))
                .seed(seed)
                .max_time(Time(20_000));
            let rep = PsiOmegaScenario.run(&spec);
            assert!(rep.check.ok, "y={y} z={z} seed {seed}: {}", rep.check);
        }
    }
    // Below (y + z = t): deterministic failure.
    let rep = PsiOmegaScenario.run(&witness::psi_boundary_spec(n, t, 1).seed(9));
    assert!(!rep.check.ok);
}

#[test]
fn theorem13_addition_at_and_below_bound() {
    let (n, t) = (5, 2);
    // At the bound (x + y = t + 1).
    for &(x, y) in &[(2usize, 1usize), (1, 2)] {
        for seed in 0..3 {
            let fp = FailurePattern::builder(n)
                .crash(ProcessId(3), Time(250))
                .build();
            let spec = ScenarioSpec::new(n, t)
                .x(x)
                .y(y)
                .crashes(CrashPlan::Explicit(fp))
                .gst(Time(600))
                .seed(seed)
                .max_time(Time(40_000));
            let rep = AdditionScenario {
                substrate: Substrate::MessagePassing,
                flavour: Flavour::Eventual,
            }
            .run(&spec);
            assert!(rep.check.ok, "x={x} y={y} seed {seed}: {}", rep.check);
        }
    }
    // Below (x + y = t).
    let spec = witness::addition_boundary_spec(n, t, 1, 1);
    let found =
        Runner::sequential().sweep_find(&AdditionBoundaryScenario, &spec, 0..20, |s| !s.check.ok);
    assert!(found.is_some());
}

#[test]
fn theorem5_bounds() {
    // z ≤ k is necessary: more than k = 1 values decided.
    let spec = LowerBoundScenario::z_violation(5, 2, 1);
    let found = Runner::sequential().sweep_find(&LowerBoundScenario, &spec, 0..60, |s| {
        s.metrics.decided_values.len() > 1
    });
    let slim = found.expect("no agreement violation in 60 seeds");
    assert_eq!(
        slim.check.class,
        ViolationClass::Agreement,
        "{}",
        slim.check
    );
    // t < n/2 is necessary: nobody decides.
    let rep = LowerBoundScenario.run(&LowerBoundScenario::partition(4, 2).seed(1));
    assert!(rep.trace.decisions().is_empty());
    assert_eq!(
        rep.check.class,
        ViolationClass::Termination,
        "{}",
        rep.check
    );
}

#[test]
fn theorem5_sufficiency_composition() {
    // The other direction of Theorem 5's proof: ◇S_x → Ω_z → z-set
    // agreement end to end (the paper's T ∘ A composition).
    // y = 0: the transformation input is ◇S_3 alone (φ_0 is trivial).
    let base = PipelineScenario::spec(5, 2, 3, 0)
        .gst(Time(300))
        .max_time(Time(150_000));
    for seed in 0..2 {
        let rep = PipelineScenario.run(&base.with_seed(seed));
        assert!(rep.check.ok, "seed {seed}: {}", rep.check);
        assert_eq!(rep.spec.z, 1);
    }
}
