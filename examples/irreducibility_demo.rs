//! The *impossible* side of the grid, executed.
//!
//! 1. Theorem 8's indistinguishable-run adversary defeats a candidate
//!    `S_x → ◇φ_y` transformation: the answer its liveness obligation
//!    forces in a run where `E` crashed is a safety violation in a run
//!    where `E` is merely slow.
//! 2. Theorem 12's bound is tight: Figure 8 run at `y + z = t` elects a
//!    crashed process forever.
//! 3. Theorem 5's bound is tight: an `Ω_{k+1}` detector (one grid line
//!    down) breaks `k`-set agreement.
//!
//! Run with: `cargo run --example irreducibility_demo`

use fd_grid::fd_core::LowerBoundScenario;
use fd_grid::fd_detectors::ViolationClass;
use fd_grid::fd_transforms::{witness, PsiOmegaScenario};
use fd_grid::Runner;

fn main() {
    println!("1) Theorem 8: S_x cannot build ◇φ_y");
    let w = witness::theorem8(5, 2, 1, 3);
    println!("   probed set E = {}", w.e);
    println!(
        "   run R  (E crashed): liveness forces answer true at {:?}",
        w.tau1
    );
    println!(
        "   run R″ (E silent) : prefixes identical = {}, safety violated = {}",
        w.prefix_identical, w.safety_violated
    );
    assert!(w.prefix_identical && w.safety_violated);

    println!("\n2) Theorem 12 tightness: Ψ_y → Ω_z fails at y + z = t");
    let r = Runner::sequential();
    let psi = witness::psi_boundary_spec(5, 2, 1);
    let found = r.sweep_find(&PsiOmegaScenario, &psi, 1..2, |s| !s.check.ok);
    let slim = found.expect("Ψ_y → Ω_z held below the bound (unexpected)");
    println!("   {}", slim.check);

    println!("\n3) Theorem 5 tightness: Ω_2 breaks consensus (k = 1)");
    let spec = LowerBoundScenario::z_violation(5, 2, 1);
    let found = r.sweep_find(&LowerBoundScenario, &spec, 0..60, |s| {
        s.metrics.decided_values.len() > 1
    });
    let slim = found.expect("no violation found (unexpected)");
    println!(
        "   seed {}: decided {:?} — more than one value!",
        slim.seed, slim.metrics.decided_values
    );
    assert_eq!(slim.check.class, ViolationClass::Agreement);

    println!("\n4) Theorem 5 tightness: t ≥ n/2 starves termination");
    let spec = LowerBoundScenario::partition(4, 2);
    let found = r.sweep_find(&LowerBoundScenario, &spec, 0..1, |s| !s.check.ok);
    let slim = found.expect("termination held at t ≥ n/2 (unexpected)");
    println!(
        "   partition run: decided {:?} by the horizon — {}",
        slim.metrics.decided_values, slim.check
    );
    assert!(slim.metrics.first_decision.is_none());
    assert_eq!(slim.check.class, ViolationClass::Termination);

    println!("\nall four impossibility witnesses fired, as the paper predicts");
}
