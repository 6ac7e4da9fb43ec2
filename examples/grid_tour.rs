//! A tour of the paper's Figure 1 grid: instantiate one oracle per class,
//! walk the bold arrows with the structural adapters, and verify each
//! output against its target class definition.
//!
//! Run with: `cargo run --example grid_tour`

use fd_grid::fd_detectors::{
    check, sample_oracle, OmegaOracle, PerfectOracle, PhiOracle, SampledSlot, Scope, SxOracle,
};
use fd_grid::fd_transforms::{OmegaToDiamondS, PToPhi, PhiToP, WeakenPhi};
use fd_grid::{FailurePattern, ProcessId, Time};

fn main() {
    let n = 6;
    let t = 2;
    let fp = FailurePattern::builder(n)
        .crash(ProcessId(1), Time(150))
        .crash(ProcessId(4), Time(350))
        .build();
    let horizon = Time(8_000);
    let gst = Time(600);

    println!("grid tour: n = {n}, t = {t}, crashes = {}\n", fp.faulty());

    // Line z = 1 of the grid: S_{t+1}, ◇S_{t+1}, Ω_1, φ_t ≡ P.
    let mut s3 = SxOracle::new(fp.clone(), t, t + 1, Scope::Perpetual, 1);
    let tr = sample_oracle(&mut s3, &fp, horizon, 11, SampledSlot::Suspected);
    println!(
        "S_3  (perpetual)  : {}",
        check::s_x(&tr, &fp, t + 1, 500, 0)
    );

    let mut ds3 = SxOracle::new(fp.clone(), t, t + 1, Scope::Eventual(gst), 2);
    let tr = sample_oracle(&mut ds3, &fp, horizon, 11, SampledSlot::Suspected);
    println!(
        "◇S_3 (eventual)   : {}",
        check::diamond_s_x(&tr, &fp, t + 1, 500)
    );

    let mut om1 = OmegaOracle::new(fp.clone(), 1, gst, 3);
    let tr = sample_oracle(&mut om1, &fp, horizon, 11, SampledSlot::Trusted);
    println!("Ω_1               : {}", check::omega_z(&tr, &fp, 1, 500));

    // Bold arrow: Ω_1 → ◇S (complement adapter).
    let mut ds = OmegaToDiamondS::new(OmegaOracle::new(fp.clone(), 1, gst, 4), n);
    let tr = sample_oracle(&mut ds, &fp, horizon, 11, SampledSlot::Suspected);
    println!(
        "Ω_1 → ◇S          : {}",
        check::diamond_s_x(&tr, &fp, n, 500)
    );

    // Bold arrow: φ_t → P (singleton queries), and back.
    let mut p = PhiToP::new(PhiOracle::new(fp.clone(), t, t, Scope::Perpetual, 5), n);
    let tr = sample_oracle(&mut p, &fp, horizon, 11, SampledSlot::Suspected);
    println!("φ_t → P           : {}", check::perfect_p(&tr, &fp, 500));

    let mut phi = PToPhi::new(PerfectOracle::new(fp.clone(), Scope::Perpetual, 6), t);
    println!(
        "P → φ_t           : {}",
        check::audit_phi(&mut phi, &fp, t, t, Time::ZERO, horizon)
    );

    // Bold arrow: φ_2 → φ_1 (triviality-shift adapter).
    let mut weak = WeakenPhi::new(PhiOracle::new(fp.clone(), t, 2, Scope::Perpetual, 7), t, 1);
    println!(
        "φ_2 → φ_1         : {}",
        check::audit_phi(&mut weak, &fp, t, 1, Time::ZERO, horizon)
    );

    println!("\nevery bold arrow verified against its target class definition");
}
