//! Scenario runs re-composed from the program's public pieces, with a span
//! around each piece.
//!
//! `Scenario::run` is one opaque call; to see inside it from outside, the
//! traced run does by hand what each scenario does — `spec.materialize()`,
//! the oracle constructor, `Sim::new`, `Sim::run_into_trace(stop)`, the
//! checker, `ScenarioReport::new` + `slim()` — and records a span at each
//! boundary. The price is that this file repeats the scenarios' assembly
//! (which automaton, which oracle salts, which checker); the traced run
//! therefore compares every re-composed cell against the tally the
//! program's own `Scenario::run` produced, and a harness test does the
//! same for one cell of every workload. If they ever differ the trace is
//! void and the run reports its operations as failed.

use crate::spans::Spans;
use crate::workloads::{Cell, Kind};
use fd_core::kset_omega::KsetOmega;
use fd_core::spec::kset_spec;
use fd_detectors::scenario::{
    churn_envelope, default_proposals, salt, ChurnGuarantee, CrashPlan, Flavour, OracleVisitor,
    ScenarioReport, ScenarioSpec, SlimReport,
};
use fd_detectors::{check, CheckOutcome, PsiOracle};
use fd_grid::WheelsPlusKset;
use fd_sim::{run_shm, slot, Automaton, FailurePattern, OracleSuite, Sim, Trace};
use fd_transforms::catch_up::CatchUp;
use fd_transforms::scenario::DEFAULT_MARGIN;
use fd_transforms::{AdditionMp, AdditionShm, PsiToOmega, TwParams, TwoWheels};

/// Span names. A name is the layer it times; runs of different scenarios
/// keep their event loops apart so each transformation gets its own
/// per-event figure.
pub mod name {
    /// One whole scenario run.
    pub const RUN: &str = "detectors.scenario.run";
    /// `spec.materialize()`.
    pub const MATERIALIZE: &str = "detectors.scenario.materialize";
    /// The oracle constructor (up to the moment the run receives it).
    pub const ORACLE_BUILD: &str = "detectors.scenario.oracle_build";
    /// `Sim::new`.
    pub const SIM_NEW: &str = "sim.runtime.new";
    /// `Sim::run_into_trace` of a k-set or churn run.
    pub const LOOP_KSET: &str = "sim.runtime.loop";
    /// … of a two-wheels run.
    pub const LOOP_TWO_WHEELS: &str = "transforms.two_wheels.loop";
    /// … of a `Ψ_y → Ω_z` run.
    pub const LOOP_PSI_OMEGA: &str = "transforms.psi_omega.loop";
    /// … of a message-passing addition run.
    pub const LOOP_ADDITION_MP: &str = "transforms.addition_mp.loop";
    /// `run_shm` of a shared-memory addition run.
    pub const LOOP_ADDITION_SHM: &str = "transforms.addition_shm.loop";
    /// … of a pipeline run.
    pub const LOOP_PIPELINE: &str = "grid.pipeline.loop";
    /// `fd_core::spec::kset_spec` / `churn_envelope`.
    pub const SPEC_CHECK: &str = "core.spec.check";
    /// `fd_detectors::check::{omega_z, s_x, diamond_s_x}`.
    pub const CLASS_CHECK: &str = "detectors.check.class";
    /// `ScenarioReport::new` + `slim()` + dropping the full report.
    pub const REPORT: &str = "detectors.scenario.report";

    /// Every event-loop span name.
    pub const LOOPS: [&str; 6] = [
        LOOP_KSET,
        LOOP_TWO_WHEELS,
        LOOP_PSI_OMEGA,
        LOOP_ADDITION_MP,
        LOOP_ADDITION_SHM,
        LOOP_PIPELINE,
    ];
}

/// The event-loop span name of a scenario kind.
pub fn loop_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Kset | Kind::ChurnKset => name::LOOP_KSET,
        Kind::TwoWheels => name::LOOP_TWO_WHEELS,
        Kind::PsiOmega => name::LOOP_PSI_OMEGA,
        Kind::AdditionMp => name::LOOP_ADDITION_MP,
        Kind::AdditionShm => name::LOOP_ADDITION_SHM,
        Kind::Pipeline => name::LOOP_PIPELINE,
    }
}

/// Which stop predicate a run-to-decision scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopMode {
    /// The program's: `tr.deciders().is_superset(correct)` after every
    /// event.
    Production,
    /// Equivalent, but re-evaluated only when `decisions().len()` moved.
    /// The per-event difference between the two is what the production
    /// predicate costs (`sim.runtime.stop.*`).
    OnChange,
}

/// What a re-composed run hands back.
#[derive(Debug)]
pub struct Recomposed {
    /// The slim report, as `Scenario::run(..).slim()` would build it.
    pub slim: SlimReport,
    /// Σ history samples of the run's trace (published change points).
    pub samples: u64,
}

struct Tracer<'a> {
    spans: &'a mut Spans,
    run_id: u32,
    stop: StopMode,
}

impl Tracer<'_> {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.spans.enter(name, self.run_id);
        let r = f();
        self.spans.exit(id);
        r
    }

    /// `Sim::new` → event loop → checker → report, each under its span.
    #[allow(clippy::too_many_arguments)]
    fn message_passing<A: Automaton, O: OracleSuite>(
        &mut self,
        scenario: &'static str,
        loop_span: &'static str,
        check_span: &'static str,
        to_decision: bool,
        spec: &ScenarioSpec,
        fp: FailurePattern,
        make: impl FnMut(fd_sim::ProcessId) -> A,
        oracle: O,
        check: impl FnOnce(&Trace, &FailurePattern) -> CheckOutcome,
    ) -> Recomposed {
        let sim = self.timed(name::SIM_NEW, || {
            Sim::new(spec.sim_config(), fp.clone(), make, oracle)
        });
        let correct = fp.correct();
        let stop = self.stop;
        let trace = self.timed(loop_span, || match (to_decision, stop) {
            (false, _) => sim.run_into_trace(|_| false),
            (true, StopMode::Production) => {
                sim.run_into_trace(move |tr| tr.deciders().is_superset(correct))
            }
            (true, StopMode::OnChange) => {
                let (mut seen, mut done) = (usize::MAX, false);
                sim.run_into_trace(move |tr| {
                    let decided = tr.decisions().len();
                    if decided != seen {
                        seen = decided;
                        done = tr.deciders().is_superset(correct);
                    }
                    done
                })
            }
        });
        self.finish(scenario, check_span, spec, fp, trace, check)
    }

    fn finish(
        &mut self,
        scenario: &'static str,
        check_span: &'static str,
        spec: &ScenarioSpec,
        fp: FailurePattern,
        trace: Trace,
        check: impl FnOnce(&Trace, &FailurePattern) -> CheckOutcome,
    ) -> Recomposed {
        let check = self.timed(check_span, || check(&trace, &fp));
        let samples = trace
            .histories()
            .map(|(_, h)| h.samples().len() as u64)
            .sum();
        let slim = self.timed(name::REPORT, || {
            ScenarioReport::new(scenario, spec, fp, trace, check).slim()
        });
        Recomposed { slim, samples }
    }
}

/// Runs `cell` at run seed `seed` piece by piece, recording spans.
pub fn run(spans: &mut Spans, run_id: u32, cell: &Cell, seed: u64, stop: StopMode) -> Recomposed {
    let spec = cell.spec.with_seed(seed);
    let mut tr = Tracer {
        spans,
        run_id,
        stop,
    };
    let whole = tr.spans.enter(name::RUN, run_id);
    let fp = tr.timed(name::MATERIALIZE, || spec.materialize());
    let out = match cell.kind {
        Kind::Kset | Kind::ChurnKset => kset(&mut tr, cell.kind, &spec, fp),
        Kind::TwoWheels => {
            let params = params_of(&spec);
            let oracle = tr.timed(name::ORACLE_BUILD, || {
                spec.sx_plus_phi(&fp, Flavour::Eventual, salt::WHEELS_SX, salt::WHEELS_PHI)
            });
            tr.message_passing(
                "two_wheels",
                name::LOOP_TWO_WHEELS,
                name::CLASS_CHECK,
                false,
                &spec,
                fp,
                |p| TwoWheels::new(p, params),
                oracle,
                |trace, fp| check::omega_z(trace, fp, spec.z, DEFAULT_MARGIN),
            )
        }
        Kind::PsiOmega => {
            let oracle = tr.timed(name::ORACLE_BUILD, || {
                PsiOracle::new(spec.phi_oracle(&fp, Flavour::Eventual, salt::PSI_PHI))
            });
            tr.message_passing(
                "psi_omega",
                name::LOOP_PSI_OMEGA,
                name::CLASS_CHECK,
                false,
                &spec,
                fp,
                |_| PsiToOmega::new(spec.n, spec.z),
                oracle,
                |trace, fp| check::omega_z(trace, fp, spec.z, DEFAULT_MARGIN),
            )
        }
        Kind::AdditionMp => {
            let oracle = tr.timed(name::ORACLE_BUILD, || {
                spec.sx_plus_phi(
                    &fp,
                    Flavour::Eventual,
                    salt::ADDITION_SX,
                    salt::ADDITION_PHI,
                )
            });
            tr.message_passing(
                "addition_mp",
                name::LOOP_ADDITION_MP,
                name::CLASS_CHECK,
                false,
                &spec,
                fp,
                |_| AdditionMp::new(spec.n),
                oracle,
                // Eventual inputs: the output class is ◇S = ◇S_n.
                |trace, fp| check::diamond_s_x(trace, fp, spec.n, DEFAULT_MARGIN),
            )
        }
        Kind::AdditionShm => {
            let mut oracle = tr.timed(name::ORACLE_BUILD, || {
                spec.sx_plus_phi(
                    &fp,
                    Flavour::Perpetual,
                    salt::ADDITION_SX,
                    salt::ADDITION_PHI,
                )
            });
            let trace = tr.timed(name::LOOP_ADDITION_SHM, || {
                run_shm(
                    &spec.shm_config(),
                    &fp,
                    |_| AdditionShm::new(spec.n),
                    &mut oracle,
                )
            });
            tr.finish(
                "addition_shm",
                name::CLASS_CHECK,
                &spec,
                fp,
                trace,
                // Perpetual inputs: the output class is S = S_n, checked
                // from the scheduler's first publications on.
                |trace, fp| {
                    let slack = first_publication(trace);
                    check::s_x(trace, fp, spec.n, DEFAULT_MARGIN, slack + 1)
                },
            )
        }
        Kind::Pipeline => {
            let params = params_of(&spec);
            let proposals = default_proposals(spec.n);
            let oracle = tr.timed(name::ORACLE_BUILD, || {
                spec.sx_plus_phi(
                    &fp,
                    Flavour::Eventual,
                    salt::PIPELINE_SX,
                    salt::PIPELINE_PHI,
                )
            });
            tr.message_passing(
                "pipeline",
                name::LOOP_PIPELINE,
                name::SPEC_CHECK,
                true,
                &spec,
                fp,
                |p| WheelsPlusKset::new(p, params, proposals[p.0]),
                oracle,
                |trace, fp| kset_spec(trace, fp, spec.z, &proposals),
            )
        }
    };
    tr.spans.exit(whole);
    out
}

fn params_of(spec: &ScenarioSpec) -> TwParams {
    TwParams {
        n: spec.n,
        t: spec.t,
        x: spec.x,
        y: spec.y,
        z: spec.z,
    }
}

/// When the last process made its first `suspected_i` publication (the
/// scenario's `shm_publication_slack`): the shared-memory scheduler's
/// first publications come after a few scans, and the perpetual-accuracy
/// check must not start before them.
fn first_publication(trace: &Trace) -> u64 {
    trace
        .histories()
        .filter(|((_, s), _)| *s == slot::SUSPECTED)
        .filter_map(|(_, h)| h.samples().first().map(|s| s.at.ticks()))
        .max()
        .unwrap_or(0)
}

/// The Figure 3 runs. The oracle is chosen at run time by the spec, so the
/// rest of the run happens inside the visitor, monomorphic in the oracle
/// exactly as in the program.
fn kset(tr: &mut Tracer<'_>, kind: Kind, spec: &ScenarioSpec, fp: FailurePattern) -> Recomposed {
    struct Visit<'a, 'b> {
        tr: &'a mut Tracer<'b>,
        building: crate::spans::SpanId,
        kind: Kind,
        spec: &'a ScenarioSpec,
        fp: FailurePattern,
    }
    impl OracleVisitor for Visit<'_, '_> {
        type Out = Recomposed;
        fn visit<O: OracleSuite + 'static>(self, oracle: O) -> Recomposed {
            let Visit {
                tr,
                building,
                kind,
                spec,
                fp,
            } = self;
            tr.spans.exit(building);
            let proposals = default_proposals(spec.n);
            let churning = matches!(spec.crashes, CrashPlan::Churn { .. });
            match kind {
                Kind::ChurnKset if spec.catch_up => tr.message_passing(
                    "kset_churn",
                    name::LOOP_KSET,
                    name::SPEC_CHECK,
                    true,
                    spec,
                    fp,
                    |p| CatchUp::new(KsetOmega::new(proposals[p.0])),
                    oracle,
                    |trace, fp| {
                        churn_envelope(trace, fp, spec.k, &proposals, ChurnGuarantee::Liveness)
                    },
                ),
                _ => tr.message_passing(
                    if kind == Kind::ChurnKset {
                        "kset_churn"
                    } else {
                        "kset_omega"
                    },
                    name::LOOP_KSET,
                    name::SPEC_CHECK,
                    true,
                    spec,
                    fp,
                    |p| KsetOmega::new(proposals[p.0]),
                    oracle,
                    |trace, fp| {
                        if kind == Kind::ChurnKset || churning {
                            let g = ChurnGuarantee::SafetyOnly;
                            churn_envelope(trace, fp, spec.k, &proposals, g)
                        } else {
                            kset_spec(trace, fp, spec.k, &proposals)
                        }
                    },
                ),
            }
        }
    }
    let building = tr.spans.enter(name::ORACLE_BUILD, tr.run_id);
    let visit = Visit {
        building,
        kind,
        spec,
        fp: fp.clone(),
        tr,
    };
    spec.with_oracle(&fp, visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{batch, Tally, Workload};

    /// The re-composed run equals `Scenario::run` on counts, verdict and
    /// decided values, for cells of every workload and every kind.
    #[test]
    fn recomposed_runs_equal_the_programs_own() {
        let mut spans = Spans::with_capacity(64);
        let mut kinds = std::collections::BTreeSet::new();
        for workload in Workload::ALL {
            for cell in batch(workload, 0) {
                // One cell per kind per workload; the n = 128 cell too.
                if !kinds.insert((workload.name(), cell.kind, cell.spec.catch_up)) {
                    continue;
                }
                let seed = cell.seeds.start;
                let theirs = cell.scenario().run(&cell.spec.with_seed(seed)).slim();
                let ours = run(&mut spans, 0, &cell, seed, StopMode::Production).slim;
                assert_eq!(ours, theirs, "{} {}", workload.name(), cell.label);
                let (mut a, mut b) = (Tally::default(), Tally::default());
                a.absorb(&ours);
                b.absorb(&theirs);
                assert_eq!(a, b);
            }
        }
        assert!(kinds.len() >= 9, "{kinds:?}");
    }

    /// The on-change predicate stops on the same event as the production
    /// one, on crashy and failure-free cells.
    #[test]
    fn on_change_stop_predicate_stops_on_the_same_event() {
        let mut spans = Spans::with_capacity(64);
        let grid = batch(Workload::GridSmall, 0);
        let campaign = batch(Workload::CampaignStore, 0);
        let crashy = grid.iter().find(|c| c.label.ends_with("_f4")).unwrap();
        let free = grid.iter().find(|c| c.label.ends_with("_f0")).unwrap();
        let churn = campaign.iter().find(|c| c.spec.catch_up).unwrap();
        for cell in [crashy, free, churn] {
            for seed in cell.seeds.start..cell.seeds.start + 8 {
                let a = run(&mut spans, 0, cell, seed, StopMode::Production);
                let b = run(&mut spans, 0, cell, seed, StopMode::OnChange);
                assert_eq!(a.slim, b.slim, "{} seed {seed}", cell.label);
                assert_eq!(a.samples, b.samples);
            }
        }
    }

    #[test]
    fn every_run_records_the_same_span_tree_shape() {
        let mut spans = Spans::with_capacity(64);
        let cell = &batch(Workload::GridSmall, 0)[0];
        run(&mut spans, 3, cell, 0, StopMode::Production);
        let names: Vec<&str> = spans.records().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                name::RUN,
                name::MATERIALIZE,
                name::ORACLE_BUILD,
                name::SIM_NEW,
                name::LOOP_KSET,
                name::SPEC_CHECK,
                name::REPORT
            ]
        );
        assert!(spans.records().iter().all(|s| s.run_id == 3));
        assert!(spans.records()[1..].iter().all(|s| s.parent == 0));
    }
}
