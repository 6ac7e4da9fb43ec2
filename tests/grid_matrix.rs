//! Integration sweep of the Figure 1 grid: every reduction arrow holds
//! across random adversarial runs; every irreducibility witness fires.

use fd_grid::fd_detectors::{
    check, sample_oracle, OmegaOracle, PerfectOracle, PhiOracle, SampledSlot, Scope, SxOracle,
};
use fd_grid::fd_sim::SplitMix64;
use fd_grid::fd_transforms::{
    witness, OmegaToDiamondS, PToPhi, PhiToP, TwParams, TwoWheelsScenario, WeakenPhi,
};
use fd_grid::{FailurePattern, Runner, Time};

const N: usize = 6;
const T: usize = 2;
const HORIZON: Time = Time(8_000);
const GST: Time = Time(900);

fn fp(seed: u64) -> FailurePattern {
    let mut rng = SplitMix64::new(seed).stream(0x917D);
    let f = rng.below(T as u64 + 1) as usize;
    FailurePattern::random(N, f, Time(1_500), &mut rng)
}

#[test]
fn sx_downward_and_diamond_arrows() {
    for seed in 0..8 {
        let fp = fp(seed);
        let mut o = SxOracle::new(fp.clone(), T, 3, Scope::Perpetual, seed);
        let tr = sample_oracle(&mut o, &fp, HORIZON, 11, SampledSlot::Suspected);
        for x in 1..=3 {
            assert!(check::s_x(&tr, &fp, x, 500, 0).ok, "S_3→S_{x} seed {seed}");
            assert!(
                check::diamond_s_x(&tr, &fp, x, 500).ok,
                "S_3→◇S_{x} seed {seed}"
            );
        }
    }
}

#[test]
fn omega_widening_arrow() {
    for seed in 0..8 {
        let fp = fp(seed);
        let mut o = OmegaOracle::new(fp.clone(), 2, GST, seed);
        let tr = sample_oracle(&mut o, &fp, HORIZON, 11, SampledSlot::Trusted);
        for z in 2..=4 {
            assert!(check::omega_z(&tr, &fp, z, 500).ok, "Ω_2→Ω_{z} seed {seed}");
        }
        // And the converse direction must fail here: the adversarial Ω_2
        // set has 2 members whenever a faulty filler exists.
        if fp.num_faulty() > 0 {
            assert!(
                !check::omega_z(&tr, &fp, 1, 500).ok,
                "Ω_2 ⊄ Ω_1 seed {seed}"
            );
        }
    }
}

#[test]
fn phi_weakening_arrow() {
    for seed in 0..8 {
        let fp = fp(seed);
        for y_target in 0..=1 {
            let inner = PhiOracle::new(fp.clone(), T, 2, Scope::Perpetual, seed);
            let mut weak = WeakenPhi::new(inner, T, y_target);
            let out = check::audit_phi(&mut weak, &fp, T, y_target, Time::ZERO, HORIZON);
            assert!(out.ok, "φ_2→φ_{y_target} seed {seed}: {out}");
        }
    }
}

#[test]
fn omega1_to_diamond_s_arrow() {
    for seed in 0..8 {
        let fp = fp(seed);
        let mut ds = OmegaToDiamondS::new(OmegaOracle::new(fp.clone(), 1, GST, seed), N);
        let tr = sample_oracle(&mut ds, &fp, HORIZON, 11, SampledSlot::Suspected);
        let out = check::diamond_s_x(&tr, &fp, N, 500);
        assert!(out.ok, "Ω_1→◇S seed {seed}: {out}");
    }
}

#[test]
fn phi_t_p_equivalence_arrows() {
    for seed in 0..8 {
        let fp = fp(seed);
        // φ_t → P.
        let mut p = PhiToP::new(PhiOracle::new(fp.clone(), T, T, Scope::Perpetual, seed), N);
        let tr = sample_oracle(&mut p, &fp, HORIZON, 11, SampledSlot::Suspected);
        let out = check::perfect_p(&tr, &fp, 500);
        assert!(out.ok, "φ_t→P seed {seed}: {out}");
        // P → φ_t.
        let mut phi = PToPhi::new(PerfectOracle::new(fp.clone(), Scope::Perpetual, seed), T);
        let out = check::audit_phi(&mut phi, &fp, T, T, Time::ZERO, HORIZON);
        assert!(out.ok, "P→φ_t seed {seed}: {out}");
    }
}

#[test]
fn theorem8_witness_always_fires() {
    for seed in 0..6 {
        let w = witness::theorem8(N, T, 1, seed);
        assert!(w.tau1.is_some(), "seed {seed}: no liveness answer");
        assert!(w.prefix_identical, "seed {seed}: runs distinguishable");
        assert!(w.safety_violated, "seed {seed}: no violation");
    }
}

#[test]
fn two_wheels_infeasible_fails_somewhere() {
    let infeasible = TwParams {
        n: N,
        t: T,
        x: 1,
        y: 1,
        z: 1,
    };
    assert!(!infeasible.feasible());
    let spec = TwoWheelsScenario::spec(infeasible)
        .gst(Time(400))
        .max_time(Time(25_000));
    let found = Runner::sequential()
        .sweep_find(&TwoWheelsScenario::default(), &spec, 0..15, |s| !s.check.ok);
    assert!(found.is_some(), "no infeasible-parameters failure found");
}
