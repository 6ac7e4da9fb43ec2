//! The unified scenario engine: one spec, one trait, one runner, one report.
//!
//! Every algorithm and transformation in the workspace — the Figure 3
//! `k`-set agreement, the MR `◇S` consensus baseline, repeated instances,
//! the two-wheels addition, `Ψ_y → Ω_z`, the Figure 9 addition, and the
//! full pipeline — is exposed as a [`Scenario`]: a named object that turns
//! a [`ScenarioSpec`] into a [`ScenarioReport`]. The [`Runner`] executes
//! single runs, multi-seed sweeps, and full grid matrices, sequentially or
//! in parallel, with bit-identical results either way.
//!
//! The engine owns the three pieces every `Scenario` impl (`fd_core`,
//! `fd_transforms`, the facade pipeline) would otherwise repeat:
//!
//! * **crash materialization** — [`CrashPlan::materialize`];
//! * **sim setup** — [`ScenarioSpec::sim_config`] / [`ScenarioSpec::shm_config`]
//!   and the [`run_to_decision`] / [`run_to_horizon`] drivers;
//! * **report assembly** — [`ScenarioReport::new`] and [`Metrics::from_trace`].
//!
//! ```
//! use fd_detectors::scenario::{Runner, Scenario, ScenarioReport, ScenarioSpec};
//! use fd_detectors::CheckOutcome;
//!
//! /// A toy scenario: "passes" iff the materialized pattern respects `t`.
//! struct CountCrashes;
//! impl Scenario for CountCrashes {
//!     fn name(&self) -> &'static str {
//!         "count_crashes"
//!     }
//!     fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
//!         let fp = spec.materialize();
//!         let ok = fp.num_faulty() <= spec.t;
//!         let check = if ok {
//!             CheckOutcome::pass(None, "within t")
//!         } else {
//!             CheckOutcome::fail("too many crashes")
//!         };
//!         ScenarioReport::new(self.name(), spec, fp, fd_sim::Trace::new(), check)
//!     }
//! }
//!
//! let spec = ScenarioSpec::new(5, 2);
//! let reports = Runner::parallel().sweep(&CountCrashes, &spec, 0..32);
//! assert!(reports.iter().all(|r| r.check.ok));
//! ```

//!
//! # Layout
//!
//! One file per piece, one way to do each thing, everything re-exported
//! here so callers keep writing `fd_detectors::scenario::X`:
//!
//! * `spec` — [`ScenarioSpec`] and its builder, [`CrashPlan`], the
//!   [`salt`] constants;
//! * `codec` — the spec's one encoding, [`ScenarioSpec::canonical`], and
//!   its views: [`ScenarioSpec::fingerprint`] (FNV-1a-64 of it),
//!   [`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`] and
//!   [`ScenarioSpec::describe`];
//! * `oracle` — the per-class constructors each scenario builds its
//!   detectors with (Figure 3's `Ω_z` is [`ScenarioSpec::omega_oracle`];
//!   a spec names no oracle), and [`sample_oracle`];
//! * `report` — the run drivers, [`churn_envelope`], [`Metrics`],
//!   [`ScenarioReport`], [`SlimReport`];
//! * `cache` — [`ReportCache`];
//! * `runner` — [`Scenario`] and [`Runner`] (one sequential loop, one
//!   parallel loop);
//! * `summary` — [`SweepSummary`].

mod cache;
mod codec;
mod oracle;
mod report;
mod runner;
mod spec;
mod summary;
#[cfg(test)]
mod tests;

pub use crate::check::ChurnGuarantee;
pub use cache::{CellMap, ReportCache, SpillFn, CACHE_SHARDS, DEFAULT_CACHE_CAPACITY};
pub use oracle::{sample_oracle, OracleVisitor, SampledSlot};
pub use report::{
    churn_envelope, default_proposals, run_scenario_until, run_to_decision, run_to_horizon,
    Metrics, ScenarioReport, SlimReport,
};
pub use runner::{Runner, Scenario};
pub use spec::{salt, CrashPlan, Flavour, ScenarioSpec};
pub use summary::SweepSummary;

// Spec authors pick their message adversary through `adversary` and their
// topology through `topology`; re-export the knobs so they need not depend
// on `fd_sim` directly.
pub use fd_sim::{LinkFate, LinkOverride, TopologyEpoch, TopologySchedule};
pub use fd_sim::{MessageAdversary, MessageRule, RuleAction};
