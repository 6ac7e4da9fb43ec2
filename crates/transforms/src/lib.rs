//! # fd-transforms — reductions, additions, and irreducibility witnesses
//!
//! The transformation algorithms of *"Irreducibility and Additivity of Set
//! Agreement-oriented Failure Detector Classes"* (PODC 2006):
//!
//! * [`two_wheels`] — the additivity construction `◇S_x + ◇φ_y → Ω_z`
//!   (paper Figures 5 + 6; optimal iff `x + y + z ≥ t + 2`, Theorem 7);
//! * [`psi_omega`] — the simple `Ψ_y → Ω_z` construction (Figure 8,
//!   `y + z ≥ t + 1`, Theorem 12);
//! * [`addition_s`] — the simple addition `φ_y + S_x → S` in shared memory
//!   and message passing (Figure 9, `x + y > t`, Theorem 13);
//! * [`inclusion`] — the grid's structural arrows (local adapters);
//! * [`ring`] — the combinatorial rings both wheels scan (Figure 4);
//! * [`witness`] — *executable* renderings of the irreducibility proofs
//!   (the Theorem 8 indistinguishable-run pair, and the boundary-violation
//!   specs of Theorems 12 and 13);
//! * [`catch_up`] — the churn catch-up layer (rebroadcast / state
//!   transfer), lifting any algorithm so late joiners recover prior-round
//!   state — what upgrades `CrashPlan::Churn` scenarios from safety-only
//!   to liveness;
//! * [`scenario`] — the [`Scenario`](fd_detectors::Scenario)
//!   implementations driving the transformations through the unified
//!   engine.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addition_s;
pub mod catch_up;
pub mod inclusion;
pub mod lower_wheel;
pub mod psi_omega;
pub mod ring;
pub mod scenario;
pub mod two_wheels;
pub mod upper_wheel;
pub mod witness;

pub use addition_s::{AdditionMp, AdditionShm, Heartbeat};
pub use catch_up::{CatchUp, CatchUpMsg};
pub use inclusion::{OmegaToDiamondS, PToPhi, PhiToP, WeakenPhi};
pub use lower_wheel::{LowerMsg, LowerWheel};
pub use psi_omega::PsiToOmega;
pub use ring::{binom, first_subset, next_subset, MemberRing, NestedRing};
pub use scenario::{
    AdditionScenario, PsiOmegaScenario, Substrate, TwoWheelsScenario, DEFAULT_MARGIN,
};
pub use two_wheels::{TwMsg, TwParams, TwoWheels};
pub use upper_wheel::{UpperMsg, UpperWheel};
