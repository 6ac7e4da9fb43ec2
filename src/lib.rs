//! # fd-grid — reproduction of *"Irreducibility and Additivity of Set
//! Agreement-oriented Failure Detector Classes"* (PODC 2006)
//!
//! This is the facade crate: it re-exports the whole workspace, the
//! unified [`scenario`] engine, and the [`pipeline`] composition that
//! stacks the paper's two headline results — the two-wheels transformation
//! `◇S_x + ◇φ_y → Ω_z` (Figures 5+6) under the `Ω_k`-based `k`-set
//! agreement algorithm (Figure 3) — into a single end-to-end system.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`fd_sim`] | deterministic asynchronous simulator: processes, crashes, reliable channels, reliable broadcast (axiomatic + echo), shared memory, traces |
//! | [`fd_detectors`] | oracles for `S_x`/`◇S_x`, `Ω_z`, `φ_y`/`◇φ_y`/`Ψ_y`, `P`/`◇P`; property checkers; the scenario engine |
//! | [`fd_core`] | the Figure 3 `Ω_k`-based `k`-set agreement algorithm, the `◇S` consensus baseline, spec checkers, Theorem 5 lower-bound witnesses |
//! | [`fd_transforms`] | the two-wheels addition, `Ψ_y → Ω_z`, `φ_y + S_x → S`, the grid's structural adapters, irreducibility witnesses |
//!
//! ## Quickstart
//!
//! ```
//! use fd_grid::{PipelineScenario, Scenario, Time};
//!
//! // Consensus (z = 1) among 5 processes from ◇S_2 + ◇φ_1 alone
//! // (t = 2: x + y + z = 2 + 1 + 1 = t + 2, the paper's exact bound).
//! let spec = PipelineScenario::spec(5, 2, 2, 1)
//!     .gst(Time(400))
//!     .seed(42)
//!     .max_time(Time(120_000));
//! let report = PipelineScenario.run(&spec);
//! assert!(report.check.ok, "{}", report.check);
//! ```
//!
//! ## Scenario sweeps
//!
//! Every algorithm and transformation implements
//! [`Scenario`](fd_detectors::Scenario); the [`Runner`] executes seed
//! sweeps and grid matrices on a work-stealing thread pool with results
//! identical to a sequential run:
//!
//! ```
//! use fd_grid::scenario::{Runner, SweepSummary};
//! use fd_grid::fd_core::KsetScenario;
//! use fd_grid::Time;
//!
//! let spec = KsetScenario::spec(5, 2, 2).gst(Time(400));
//! let reports = Runner::parallel().sweep(&KsetScenario, &spec, 0..16);
//! assert!(SweepSummary::of(&reports).all_pass());
//! ```
//!
//! For sweeps too large to hold every report (each carries a full
//! [`Trace`]), `Runner::sweep_fold` streams [`SlimReport`]s — metrics +
//! verdict, no trace — into an accumulator in strict seed order while
//! keeping only `O(threads)` full reports alive:
//!
//! ```
//! use fd_grid::scenario::Runner;
//! use fd_grid::fd_core::KsetScenario;
//! use fd_grid::Time;
//!
//! let spec = KsetScenario::spec(5, 2, 2).gst(Time(400));
//! let summary = Runner::parallel().sweep_summary(&KsetScenario, &spec, 0..64);
//! assert!(summary.all_pass());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod churn;
pub mod pipeline;

pub use fd_core;
pub use fd_detectors;
pub use fd_sim;
pub use fd_transforms;

/// The unified scenario engine (re-exported from [`fd_detectors`]).
pub use fd_detectors::scenario;

pub use fd_detectors::scenario::{
    CrashPlan, Flavour, Metrics, OracleChoice, ReportCache, Runner, Scenario, ScenarioReport,
    ScenarioSpec, SlimReport, SweepSummary,
};

pub use fd_sim::{
    DelayModel, DelayRule, FailurePattern, LinkFate, LinkOverride, MessageAdversary, MessageRule,
    PSet, ProcessId, RuleAction, Scheduler, SimConfig, Time, TopologyEpoch, TopologySchedule,
    Trace,
};

pub use churn::ChurnKsetScenario;
pub use pipeline::{PipeMsg, PipelineScenario, WheelsPlusKset};
