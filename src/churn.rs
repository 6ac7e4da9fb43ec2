//! Churn with catch-up: the Figure 3 algorithm under `CrashPlan::Churn`,
//! stacked on the `fd_transforms::catch_up` rebroadcast / state-transfer
//! layer.
//!
//! PR 3's churn scenarios were deliberately safety-only: a late joiner
//! misses every message sent before its start time — including any
//! `DECISION` R-delivered before the join — and with `f = t` churn the
//! survivors alone sit *below* the `n − t` quorum, so stalled rounds can
//! never resume without the joiners. The catch-up layer closes both holes
//! (missed decisions are replayed from digests; replayed phase messages
//! hand the stalled round its missing quorum votes), which is what lets
//! this scenario claim the full
//! [`ChurnGuarantee::Liveness`] envelope.
//!
//! The scenario honours two spec knobs end to end:
//!
//! * [`ScenarioSpec::catch_up`] — `true` runs `CatchUp<KsetOmega>` and
//!   checks liveness; `false` runs the bare algorithm and checks the
//!   safety-only envelope (never claiming termination it cannot deliver);
//! * [`ScenarioSpec::adversary`] — the message adversary applies to all
//!   plain channels, including the catch-up's `JOIN_REQ` / `DIGEST`
//!   envelopes (the joiner's retry loop is what rides out a lossy window).
//!
//! ## The quorum-slack boundary
//!
//! Catch-up retransmits state *to joiners*; it does not retransmit phase
//! messages between survivors. Under `f = t` churn the post-crash system
//! sits exactly at the `n − t` quorum — zero slack — so combining it with
//! a drop adversary can permanently wedge a round (a survivor missing one
//! dropped phase message has nobody to re-request it from). Liveness under
//! an *active* drop adversary therefore additionally needs quorum slack
//! (fewer than `t` crashes, or a drop window that closes before the
//! decisive rounds); the witness tests in `tests/scenario_engine.rs` pin
//! the failing side of this boundary, and the adversary tests below pin
//! the passing side.

use fd_core::kset_omega::KsetOmega;
use fd_detectors::scenario::{
    churn_envelope, default_proposals, run_to_decision, salt, ChurnGuarantee, Scenario,
    ScenarioReport, ScenarioSpec,
};
use fd_sim::ProcessId;
use fd_transforms::catch_up::CatchUp;

/// `k`-set agreement under churn, with (or, for the negative control,
/// without) the catch-up layer. Intended for [`CrashPlan::Churn`] specs;
/// it runs fine under any crash plan, where catch-up is simply inert.
///
/// [`CrashPlan::Churn`]: fd_detectors::scenario::CrashPlan::Churn
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnKsetScenario;

impl ChurnKsetScenario {
    /// The conventional churn spec: `k = z`, `Ω_z` oracle, catch-up on.
    pub fn spec(n: usize, t: usize, k: usize) -> ScenarioSpec {
        ScenarioSpec::new(n, t).kz(k).catch_up(true)
    }
}

impl Scenario for ChurnKsetScenario {
    fn name(&self) -> &'static str {
        "kset_churn"
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let proposals = default_proposals(spec.n);
        let oracle = spec.omega_oracle(&fp, salt::OMEGA);
        let trace = if spec.catch_up {
            let make = |p: ProcessId| CatchUp::new(KsetOmega::new(proposals[p.0]));
            run_to_decision(spec, &fp, make, oracle)
        } else {
            run_to_decision(spec, &fp, |p| KsetOmega::new(proposals[p.0]), oracle)
        };
        let guarantee = if spec.catch_up {
            ChurnGuarantee::Liveness
        } else {
            ChurnGuarantee::SafetyOnly
        };
        let check = churn_envelope(&trace, &fp, spec.k, &proposals, guarantee);
        ScenarioReport::new(self.name(), spec, fp, trace, check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::scenario::{CrashPlan, Runner};
    use fd_sim::{MessageAdversary, MessageRule, Time};

    fn churn_spec(seed: u64) -> ScenarioSpec {
        ChurnKsetScenario::spec(6, 2, 1)
            .gst(Time(300))
            .seed(seed)
            .max_time(Time(60_000))
            .crashes(CrashPlan::Churn {
                crash_by: Time(150),
                rejoin_after: 500,
            })
    }

    #[test]
    fn catch_up_restores_liveness_under_churn() {
        for seed in 0..8 {
            let rep = ChurnKsetScenario.run(&churn_spec(seed));
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            // Every correct process — late joiners included — decided.
            assert!(
                rep.trace.deciders().is_superset(rep.fp.correct()),
                "seed {seed}: deciders {}",
                rep.trace.deciders()
            );
        }
    }

    #[test]
    fn disabled_catch_up_is_scored_safety_only() {
        for seed in 0..8 {
            let rep = ChurnKsetScenario.run(&churn_spec(seed).catch_up(false));
            // Safety holds, and the envelope must not claim liveness —
            // which the run generally cannot deliver without catch-up.
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.check.detail.contains("liveness not claimed"),
                "seed {seed}: {}",
                rep.check
            );
        }
    }

    #[test]
    fn catch_up_rides_out_a_windowed_adversary() {
        // Drop 25% of all plain messages until the join instant (and keep
        // duplicating well past it): the lossy window wedges the survivors
        // — nothing retransmits a lost phase message among them — and it is
        // the joiner's clean post-window state transfer plus its fresh
        // round broadcasts that pull every wedged round back over quorum.
        // This is the passing side of the quorum-slack boundary documented
        // in the module docs; the witness tests pin the failing side.
        use fd_sim::FailurePattern;
        let adv = MessageAdversary::Rules(vec![
            MessageRule::drop(25).window(Time::ZERO, Time(600)),
            MessageRule::duplicate(15).window(Time::ZERO, Time(1_200)),
        ]);
        let fp = FailurePattern::builder(6)
            .crash(fd_sim::ProcessId(1), Time(100))
            .join(fd_sim::ProcessId(5), Time(600))
            .build();
        for seed in 0..4 {
            let spec = ChurnKsetScenario::spec(6, 2, 1)
                .gst(Time(300))
                .seed(seed)
                .max_time(Time(60_000))
                .crashes(CrashPlan::Explicit(fp.clone()))
                .adversary(adv.clone());
            let rep = ChurnKsetScenario.run(&spec);
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.trace.deciders().contains(fd_sim::ProcessId(5)),
                "seed {seed}: joiner never decided"
            );
            let slim = rep.slim();
            assert!(
                slim.counter(fd_sim::counter::DROPPED) > 0,
                "seed {seed}: adversary never fired"
            );
        }
    }

    #[test]
    fn catch_up_rides_out_a_partition_during_join() {
        // The hardest liveness shape the topology adversary unlocks: p5
        // joins at 600 *inside* a partition that isolates it until 1200.
        // Every JOIN_REQ it broadcasts before the heal is severed
        // structurally — but the catch-up retry loop keeps re-sending, so
        // the first post-heal request gets the DIGEST transfer through and
        // the joiner still decides. No probabilistic adversary can express
        // this run: a 100% drop rule would also kill the retries *after*
        // 1200, and the schedule's heal is what makes the difference.
        use fd_sim::{FailurePattern, PSet, ProcessId, TopologySchedule};
        let islands = || -> Vec<PSet> {
            vec![
                (0..5).map(ProcessId).collect(),
                (5..6).map(ProcessId).collect(),
            ]
        };
        let fp = FailurePattern::builder(6)
            .crash(ProcessId(1), Time(100))
            .join(ProcessId(5), Time(600))
            .build();
        for seed in 0..4 {
            let spec = ChurnKsetScenario::spec(6, 2, 1)
                .gst(Time(300))
                .seed(seed)
                .max_time(Time(60_000))
                .crashes(CrashPlan::Explicit(fp.clone()))
                .topology(TopologySchedule::partition_until(islands(), Time(1_200)));
            let rep = ChurnKsetScenario.run(&spec);
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.trace.deciders().contains(ProcessId(5)),
                "seed {seed}: joiner never decided"
            );
            let slim = rep.slim();
            assert!(
                slim.counter("sim.partitioned") > 0,
                "seed {seed}: partition never severed anything"
            );

            // Negative control — the honest rejection: heal the same
            // partition only *after* the horizon and the joiner can never
            // catch up. The envelope must fail on termination (liveness
            // rejected) while safety (agreement on decided values) holds.
            let wedged = spec
                .clone()
                .topology(TopologySchedule::partition_until(islands(), Time(70_000)));
            let rep = ChurnKsetScenario.run(&wedged);
            assert!(
                !rep.check.ok,
                "seed {seed}: heal-after-horizon must fail liveness"
            );
            assert!(
                !rep.trace.deciders().contains(ProcessId(5)),
                "seed {seed}: isolated joiner cannot have decided"
            );
        }
    }

    #[test]
    fn partitioned_churn_is_queue_and_thread_deterministic() {
        // With a schedule set, runs stay deterministic across sequential
        // vs work-stealing parallel sweeps.
        use fd_sim::{ProcessId, TopologySchedule};
        let islands = vec![
            (0..5).map(ProcessId).collect(),
            (5..6).map(ProcessId).collect(),
        ];
        let base = churn_spec(2).topology(TopologySchedule::partition_until(islands, Time(1_200)));
        let seq = Runner::sequential().sweep(&ChurnKsetScenario, &base, 0..12);
        let par = Runner::with_threads(4).sweep(&ChurnKsetScenario, &base, 0..12);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.fingerprint(), b.fingerprint(), "seed {}", a.seed());
        }
    }

    #[test]
    fn churn_catch_up_is_queue_and_thread_deterministic() {
        let base = churn_spec(2);
        let seq = Runner::sequential().sweep(&ChurnKsetScenario, &base, 0..12);
        let par = Runner::with_threads(4).sweep(&ChurnKsetScenario, &base, 0..12);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.fingerprint(), b.fingerprint(), "seed {}", a.seed());
        }
    }
}
