//! [`Scenario`] implementations for the core algorithms: Figure 3 `k`-set
//! agreement, the MR `◇S` consensus baseline, and repeated instances.
//!
//! These are the *only* places in the crate that assemble a simulation for
//! their algorithm; every caller (the bench experiments, the examples,
//! the tests) builds a `ScenarioSpec` and goes through them.

use crate::consensus_mr::ConsensusMr;
use crate::kset_omega::KsetOmega;
use crate::repeated::run_repeated_spec;
use crate::spec;
use fd_detectors::scenario::{
    churn_envelope, default_proposals, run_to_decision, salt, ChurnGuarantee, CrashPlan, Flavour,
    Scenario, ScenarioReport, ScenarioSpec,
};
use fd_sim::{FailurePattern, OracleSuite};

/// The Figure 3 `Ω_z`-based `k`-set agreement algorithm, run under the
/// spec's `Ω_z` ([`ScenarioSpec::omega_oracle`] keyed by [`salt::OMEGA`],
/// adversarial before `gst`; set `z > k` to reproduce the Theorem 5
/// violation).
#[derive(Clone, Copy, Debug, Default)]
pub struct KsetScenario;

impl KsetScenario {
    /// The conventional spec for `k`-set agreement: `k = z`, `Ω_z` oracle.
    pub fn spec(n: usize, t: usize, k: usize) -> ScenarioSpec {
        ScenarioSpec::new(n, t).kz(k)
    }
}

impl Scenario for KsetScenario {
    fn name(&self) -> &'static str {
        "kset_omega"
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let oracle = spec.omega_oracle(&fp, salt::OMEGA);
        run_kset_with(spec, fp, oracle)
    }
}

/// Runs the Figure 3 algorithm under a caller-supplied oracle — the hook
/// the lower-bound witnesses use to inject hand-crafted adversarial
/// detectors (and delay rules, via `spec.rules`).
///
/// Churn runs are scored by the engine's
/// [`churn_envelope`] at [`ChurnGuarantee::SafetyOnly`]: the bare Figure 3
/// algorithm has no catch-up for late joiners, so it honestly claims
/// safety and nothing more. The catch-up variant that upgrades churn to
/// liveness lives in the facade (`fd_grid::churn`), stacked from this
/// algorithm plus `fd_transforms::catch_up`.
pub fn run_kset_with(
    spec: &ScenarioSpec,
    fp: FailurePattern,
    oracle: impl OracleSuite,
) -> ScenarioReport {
    let proposals = default_proposals(spec.n);
    let trace = run_to_decision(spec, &fp, |p| KsetOmega::new(proposals[p.0]), oracle);
    let check = if matches!(spec.crashes, CrashPlan::Churn { .. }) {
        churn_envelope(&trace, &fp, spec.k, &proposals, ChurnGuarantee::SafetyOnly)
    } else {
        spec::kset_spec(&trace, &fp, spec.k, &proposals)
    };
    ScenarioReport::new("kset_omega", spec, fp, trace, check)
}

/// The Mostéfaoui–Raynal `◇S` quorum-based consensus baseline, run under
/// `◇S = ◇S_n` (the algorithm is defined for it only).
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsensusScenario;

impl Scenario for ConsensusScenario {
    fn name(&self) -> &'static str {
        "consensus_mr"
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let proposals = default_proposals(spec.n);
        let oracle = spec.sx_oracle(&fp, spec.n, Flavour::Eventual, salt::DIAMOND_S);
        let trace = run_to_decision(spec, &fp, |p| ConsensusMr::new(proposals[p.0]), oracle);
        let check = spec::kset_spec(&trace, &fp, 1, &proposals);
        ScenarioReport::new(self.name(), spec, fp, trace, check)
    }
}

/// `m` successive `k`-set agreement instances (the zero-degradation
/// experiment made longitudinal), run by [`run_repeated_spec`]: every
/// instance is judged, and the first failing one is the report's check.
#[derive(Clone, Copy, Debug)]
pub struct RepeatedScenario {
    /// Number of successive instances.
    pub instances: u32,
}

impl Scenario for RepeatedScenario {
    fn name(&self) -> &'static str {
        "repeated_kset"
    }

    fn cache_tag(&self) -> String {
        // The instance count is configuration outside the spec.
        format!("repeated_kset/m={}", self.instances)
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let oracle = spec.omega_oracle(&fp, salt::OMEGA);
        run_repeated_spec(spec, self.instances, fp, oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::scenario::{CrashPlan, Runner};
    use fd_sim::{MessageAdversary, MessageRule, PSet, ProcessId, Time, TopologySchedule};

    #[test]
    fn kset_scenario_passes_grid_corner() {
        let spec = KsetScenario::spec(5, 2, 2)
            .seed(3)
            .crashes(CrashPlan::Random {
                f: 2,
                by: Time(500),
            });
        let rep = KsetScenario.run(&spec);
        assert!(rep.check.ok, "{}", rep.check);
        assert!(rep.metrics.decided_values.len() <= 2);
        assert!(rep.metrics.msgs_sent > 0);
    }

    #[test]
    fn runner_sweep_drives_all_three_scenarios() {
        let spec = KsetScenario::spec(5, 2, 1).gst(Time(400));
        let runner = Runner::sequential();
        for sc in [
            &KsetScenario as &dyn Scenario,
            &ConsensusScenario,
            &RepeatedScenario { instances: 2 },
        ] {
            let reports = runner.sweep(sc, &spec, 0..3);
            assert!(
                reports.iter().all(|r| r.check.ok),
                "{} failed: {:?}",
                sc.name(),
                reports
                    .iter()
                    .map(|r| r.check.to_string())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn adversary_knob_reaches_the_run() {
        // Explicit None is bit-identical to the default spec; an armed
        // adversary changes the run and reports its effects as counters.
        let base = KsetScenario::spec(5, 2, 2)
            .seed(4)
            .gst(Time(400))
            .crashes(CrashPlan::Anarchic { by: Time(400) });
        let default_run = KsetScenario.run(&base);
        let none = KsetScenario.run(&base.clone().adversary(MessageAdversary::None));
        assert_eq!(default_run.fingerprint(), none.fingerprint());
        // So is an empty rule list, which is why the spec encoding spells
        // it as `None`.
        let empty = KsetScenario.run(&base.clone().adversary(MessageAdversary::Rules(vec![])));
        assert_eq!(default_run.fingerprint(), empty.fingerprint());
        // Within-tolerance attack on a failure-free run: silencing one
        // sender (≤ t) is crash-equivalent — the n − t quorums never needed
        // it — and duplication is always harmless. Uniform drops, by
        // contrast, are *outside* the algorithm's liveness tolerance (one
        // permanently lost phase message can wedge a round forever); the
        // negative tests in tests/scenario_engine.rs pin that side.
        let muted = ProcessId(0);
        let armed = base
            .clone()
            .crashes(CrashPlan::None)
            .adversary(MessageAdversary::Rules(vec![
                MessageRule::drop(100)
                    .links(PSet::singleton(muted), PSet::singleton(muted).complement(5)),
                MessageRule::duplicate(20),
            ]));
        let rep = KsetScenario.run(&armed);
        assert!(rep.check.ok, "{}", rep.check);
        let slim = rep.slim();
        assert!(slim.counter("sim.dropped") > 0);
        assert!(slim.counter("sim.duplicated") > 0);
        assert_ne!(rep.fingerprint(), default_run.fingerprint());
        // And bit-reproducibly so.
        assert_eq!(rep.fingerprint(), KsetScenario.run(&armed).fingerprint());
    }

    #[test]
    fn topology_knob_reaches_the_run() {
        // Explicit None is bit-identical to the default spec; a partition
        // healing before GST changes the run, severs messages (the
        // sim.partitioned counter), and still decides — and the whole
        // thing is bit-reproducible.
        // Seed 5 puts the post-GST leader in the big island; a seed whose
        // leader is the isolated p4 (e.g. 4) wedges instead — the bench
        // leg's phase diagram maps that dependence out.
        let base = KsetScenario::spec(5, 2, 2).seed(5).gst(Time(400));
        let default_run = KsetScenario.run(&base);
        let none = KsetScenario.run(&base.clone().topology(TopologySchedule::None));
        assert_eq!(default_run.fingerprint(), none.fingerprint());
        // So is an empty epoch list, which the spec encoding spells as
        // `None`.
        let empty = KsetScenario.run(&base.clone().topology(TopologySchedule::Epochs(vec![])));
        assert_eq!(default_run.fingerprint(), empty.fingerprint());
        // {0,1,2,3} | {4}: the big island holds n - t = 3 quorums and (for
        // this seed) the post-GST leader, so it decides on its own; the
        // isolated p4 cannot — its round-1 phase messages are severed — but
        // the rb DECISION is *delayed until the heal*, never lost, so p4
        // still terminates. A heal after the horizon would honestly fail
        // liveness (the bench leg's negative witness pins that side).
        let islands = vec![
            (0..4).map(ProcessId).collect(),
            (4..5).map(ProcessId).collect(),
        ];
        let cut = base
            .clone()
            .topology(TopologySchedule::partition_until(islands, Time(200)));
        let rep = KsetScenario.run(&cut);
        assert!(rep.check.ok, "{}", rep.check);
        let slim = rep.slim();
        assert!(slim.counter("sim.partitioned") > 0);
        assert_eq!(slim.counter("sim.dropped"), 0, "severed is not dropped");
        assert_ne!(rep.fingerprint(), default_run.fingerprint());
        assert_eq!(rep.fingerprint(), KsetScenario.run(&cut).fingerprint());
    }

    #[test]
    fn churn_plan_is_scored_by_the_safety_envelope() {
        // The bare Figure 3 algorithm has no catch-up, so churn runs claim
        // safety only — and the envelope passes them on those terms
        // (upgrading to liveness is the facade churn scenario's job).
        for seed in 0..4 {
            let cfg = KsetScenario::spec(6, 2, 1)
                .seed(seed)
                .gst(Time(300))
                .max_time(Time(20_000))
                .crashes(CrashPlan::Churn {
                    crash_by: Time(200),
                    rejoin_after: 100,
                });
            let rep = KsetScenario.run(&cfg);
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.check.detail.contains("liveness not claimed"),
                "seed {seed}: {}",
                rep.check
            );
        }
    }

    #[test]
    fn churn_plan_runs_safely_and_reproducibly() {
        // Liveness is genuinely not guaranteed here: with f = t churn only
        // n − 2t processes run the whole window, which is below the n − t
        // quorum, and a fresh joiner starts in round 1 with no catch-up —
        // so the assertions are safety (validity + k-agreement of whatever
        // was decided), structure, and determinism, never termination.
        for seed in 0..4 {
            let cfg = KsetScenario::spec(5, 2, 2)
                .seed(seed)
                .gst(Time(400))
                .max_time(Time(20_000))
                .crashes(CrashPlan::Churn {
                    crash_by: Time(200),
                    rejoin_after: 100,
                });
            let rep = KsetScenario.run(&cfg);
            assert_eq!(rep.fp.num_faulty(), 2, "seed {seed}");
            let proposals = default_proposals(5);
            assert!(
                spec::validity(rep.trace.decisions(), &proposals).ok,
                "seed {seed}"
            );
            assert!(
                spec::k_agreement(rep.trace.decisions(), 2).ok,
                "seed {seed}"
            );
            // Bit-identical on a rerun.
            let again = KsetScenario.run(&cfg);
            assert_eq!(rep.fingerprint(), again.fingerprint(), "seed {seed}");
        }
    }
}
