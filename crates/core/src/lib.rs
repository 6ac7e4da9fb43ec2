//! # fd-core — the paper's set-agreement algorithms
//!
//! The primary contribution of *"Irreducibility and Additivity of Set
//! Agreement-oriented Failure Detector Classes"* (PODC 2006), §3: an
//! `Ω_k`-based `k`-set agreement algorithm (paper Figure 3), together with
//! the problem-specification checkers and the `◇S` consensus baseline it
//! generalizes.
//!
//! * [`KsetOmega`] — the Figure 3 algorithm (two-phase rounds on top of an
//!   `Ω_z` oracle, `t < n/2`, at most `k ≥ z` distinct decisions);
//! * [`ConsensusMr`] — the Mostéfaoui–Raynal `◇S` quorum-based consensus
//!   (the paper's reference \[18\]), used as a baseline;
//! * [`spec`] — `kset_spec`, the trace-level face of the one `k`-set
//!   agreement judge in `fd_detectors::check`;
//! * [`scenario`] — the [`Scenario`](fd_detectors::Scenario)
//!   implementations driving the algorithms through the unified engine.
//!
//! ## Example
//!
//! ```
//! use fd_core::KsetScenario;
//! use fd_detectors::Scenario;
//!
//! // 2-set agreement among 5 processes with an adversarial Ω_2.
//! let report = KsetScenario.run(&KsetScenario::spec(5, 2, 2).seed(42));
//! assert!(report.check.ok, "{}", report.check);
//! assert!(report.metrics.decided_values.len() <= 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod consensus_mr;
pub mod kset_omega;
pub mod lower_bound;
pub mod repeated;
pub mod rounds;
pub mod scenario;
pub mod spec;

pub use consensus_mr::{ConsensusMr, MrMsg};
pub use kset_omega::{KsetMsg, KsetOmega, LeaderInput};
pub use lower_bound::LowerBoundScenario;
pub use repeated::{instance_decisions, repeated_spec, run_repeated_spec, RepMsg, RepeatedKset};
pub use rounds::{CoordSlab, EchoSlab, Phase1Slab, Phase2Slab, RoundSlab, RoundWindow};
pub use scenario::{run_kset_with, ConsensusScenario, KsetScenario, RepeatedScenario};
