//! # fd-detectors — failure-detector class oracles and property checkers
//!
//! Implements every failure-detector class studied in *"Irreducibility and
//! Additivity of Set Agreement-oriented Failure Detector Classes"* (PODC
//! 2006) as one fixed, oblivious oracle over a simulated run, plus
//! mechanical checkers for each class's defining properties.
//!
//! ## The grid (paper Figure 1)
//!
//! | line `z` | perpetual | eventual | leader | query (perpetual) | query (eventual) |
//! |---|---|---|---|---|---|
//! | 1 | `S_{t+1}` | `◇S_{t+1}` | `Ω_1 = Ω` | `φ_t ≡ P` | `◇φ_t ≡ ◇P` |
//! | z | `S_{t−z+2}` | `◇S_{t−z+2}` | `Ω_z` | `φ_{t−z+1}` | `◇φ_{t−z+1}` |
//! | t+1 | `S_1` | `◇S_1` | `Ω_{t+1}` | `φ_0` | `◇φ_0` |
//!
//! Every class in line `z` allows solving `z`-set agreement; `Ω_z` is the
//! weakest of its line (paper Theorem 5 and §6).
//!
//! ## Oracles
//!
//! * [`SxOracle`] — `S_x` / `◇S_x` (limited-scope accuracy, §2.2);
//! * [`OmegaOracle`] — `Ω_z` (eventual multiple leadership);
//! * [`PhiOracle`] / [`PsiOracle`] — `φ_y` / `◇φ_y` / `Ψ_y` (queries);
//! * [`PerfectOracle`] — `P` / `◇P`;
//! * [`ScriptedOracle`] — replay of authored histories (for the
//!   irreducibility witnesses).
//!
//! Oracles realize the *adversarial envelope* of their class: arbitrary
//! noise before stabilization, permanent slander where permitted, leader
//! sets packed with faulty processes, query answers as unhelpful as the
//! class allows. An algorithm that works against these oracles works
//! against any detector of the class. The envelope is fixed, one constant
//! per number:
//!
//! | class | fixed envelope behaviour | constant |
//! |---|---|---|
//! | every eventual class | pre-stabilization answers re-drawn per window | [`noise::PERIOD`] = 7 ticks |
//! | `S_x` / `◇S_x` | a crash is suspected everywhere after a lag | `COMPLETENESS_LAG` = 8 ticks |
//! | `S_x` / `◇S_x` | each reader permanently slanders each unprotected correct process with a fixed chance | `SLANDER_PCT` = 35 % (the one per-oracle value: [`SxOracle::with_scope`] takes it) |
//! | `Ω_z` | the eventual leader set is one correct process packed with faulty ones | — |
//! | `φ_y` / `◇φ_y` / `Ψ_y` | a fully crashed set answers `true` after a lag | `LIVENESS_LAG` = 10 ticks |
//! | `◇φ_y` | after stabilization a set of faulty processes answers `true` before its last member crashes | — |
//! | `P` / `◇P` | a crash is suspected after a lag | `DETECTION_LAG` = 5 ticks |
//!
//! ## Checkers
//!
//! [`check`] verifies recorded traces against class definitions
//! (completeness, limited-scope accuracy, eventual leadership, perfection),
//! suffix-style with explicit stabilization margins, and holds the one
//! `k`-set agreement judge, [`check::kset_agreement`].
//!
//! ## The scenario engine
//!
//! [`scenario`] is the workspace's unified execution layer: a
//! [`ScenarioSpec`] names a configuration, every algorithm and
//! transformation implements [`Scenario`], and the [`Runner`] executes
//! single runs, multi-seed sweeps, and grid matrices (in parallel, with
//! results identical to a sequential run), producing one
//! [`ScenarioReport`] type consumed uniformly by checkers, tables, and
//! benches. A spec has one encoding, its canonical JSON
//! ([`ScenarioSpec::canonical`], written with [`json`]); its fingerprint
//! and its one-line description are both derived from it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
#[cfg(test)]
mod crash_model;
pub mod json;
pub mod noise;
pub mod omega;
pub mod perfect;
pub mod phi;
pub mod scenario;
pub mod scripted;
pub mod sx;

pub use check::{CheckOutcome, ViolationClass};
pub use omega::OmegaOracle;
pub use perfect::PerfectOracle;
pub use phi::{PhiOracle, PsiOracle};
pub use scenario::{
    default_proposals, sample_oracle, CrashPlan, Flavour, Metrics, OracleChoice, OracleVisitor,
    ReportCache, Runner, SampledSlot, Scenario, ScenarioReport, ScenarioSpec, SweepSummary,
};
pub use scripted::{ScriptedOracle, SetSchedule};
pub use sx::{Scope, SxOracle};
