//! Scenario-engine smoke matrix (the acceptance suite of the unified
//! engine): the whole `(n, k = z)` × crash-plan grid satisfies the k-set
//! agreement specification, parallel multi-seed sweeps are bit-identical
//! to sequential ones (determinism under threading), and noise oracles
//! outside their class envelope are *rejected* by the checkers (negative
//! scenarios — a passing check is the test failure).

use fd_grid::fd_core::spec;
use fd_grid::fd_core::KsetScenario;
use fd_grid::scenario::{CrashPlan, Runner, Scenario, ScenarioReport, SweepSummary};
use fd_grid::{FailurePattern, MessageAdversary, MessageRule, ProcessId, Time, Trace};

/// Every `(n, t)` scale of the matrix keeps `t < n/2`.
const SCALES: &[(usize, usize)] = &[(4, 1), (5, 2), (7, 3)];

fn crash_plans(n: usize, t: usize) -> Vec<(&'static str, CrashPlan)> {
    vec![
        ("none", CrashPlan::None),
        (
            "random",
            CrashPlan::Random {
                f: t,
                by: Time(500),
            },
        ),
        ("initial", CrashPlan::Initial { f: t }),
        (
            "explicit",
            CrashPlan::Explicit(
                FailurePattern::builder(n)
                    .crash(ProcessId(n - 1), Time(250))
                    .build(),
            ),
        ),
        ("anarchic", CrashPlan::Anarchic { by: Time(400) }),
    ]
}

#[test]
fn smoke_matrix_satisfies_kset_spec() {
    let runner = Runner::parallel();
    for &(n, t) in SCALES {
        for k in [1usize, 2, 3] {
            for (label, plan) in crash_plans(n, t) {
                let base = KsetScenario::spec(n, t, k)
                    .gst(Time(400))
                    .max_time(Time(200_000))
                    .crashes(plan);
                let reports = runner.sweep(&KsetScenario, &base, 0..2);
                for rep in &reports {
                    // The spec check bundles validity, k-agreement,
                    // termination, and decide-once; assert the pieces
                    // individually too so a failure names the culprit.
                    let proposals = fd_grid::scenario::default_proposals(n);
                    assert!(
                        spec::validity(rep.trace.decisions(), &proposals).ok,
                        "validity n={n} k={k} plan={label} seed={}",
                        rep.seed()
                    );
                    assert!(
                        spec::k_agreement(rep.trace.decisions(), k).ok,
                        "k-agreement n={n} k={k} plan={label} seed={}",
                        rep.seed()
                    );
                    assert!(
                        spec::termination(rep.trace.decisions(), &rep.fp).ok,
                        "termination n={n} k={k} plan={label} seed={}",
                        rep.seed()
                    );
                    assert!(
                        rep.check.ok,
                        "spec n={n} k={k} plan={label} seed={}: {}",
                        rep.seed(),
                        rep.check
                    );
                }
            }
        }
    }
}

fn fingerprint(rep: &ScenarioReport) -> String {
    let tr: &Trace = &rep.trace;
    let mut s = format!(
        "seed={};fp={:?};events={};sent={};",
        rep.seed(),
        rep.fp,
        rep.metrics.events,
        rep.metrics.msgs_sent
    );
    for d in tr.decisions() {
        s.push_str(&format!("d{}@{}={};", d.by.0, d.at, d.value));
    }
    for ((p, slot), h) in tr.histories() {
        s.push_str(&format!("h{p}:{slot}:"));
        for sample in h.samples() {
            s.push_str(&format!("{}@{},", sample.value, sample.at));
        }
        s.push(';');
    }
    // The library digest must separate runs exactly as finely as this
    // exhaustive textual fingerprint does; cross-check them against each
    // other wherever the text form is computed anyway.
    s.push_str(&format!("digest={:016x}", rep.fingerprint()));
    s
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    // ≥ 100 seeds, full trace fingerprints, several thread counts.
    let base = KsetScenario::spec(5, 2, 2)
        .gst(Time(400))
        .crashes(CrashPlan::Random {
            f: 2,
            by: Time(500),
        });
    let seq = Runner::sequential().sweep(&KsetScenario, &base, 0..112);
    assert_eq!(seq.len(), 112);
    let seq_prints: Vec<String> = seq.iter().map(fingerprint).collect();
    assert!(SweepSummary::of(&seq).all_pass());
    for threads in [2, 5, 16] {
        let par = Runner::with_threads(threads).sweep(&KsetScenario, &base, 0..112);
        let par_prints: Vec<String> = par.iter().map(fingerprint).collect();
        assert_eq!(seq_prints, par_prints, "threads={threads} diverged");
    }
}

#[test]
fn skewed_grid_is_trace_identical_across_thread_counts() {
    // Cells with wildly different run lengths — small n failure-free next
    // to n=13 anarchic — are exactly where a one-chunk-per-thread split
    // idles cores. The work-stealing runner must still produce
    // trace-fingerprint-identical reports at every thread count. 36 specs
    // are more than any fold window below (threads × 4 ≤ 32), so `grid`
    // parks run-ahead workers and drains the reorder buffer on the way.
    let mut specs = Vec::new();
    for &(n, t) in &[(5usize, 2usize), (9, 4), (13, 6)] {
        for seed in 0..6 {
            specs.push(
                KsetScenario::spec(n, t, 2)
                    .gst(Time(400))
                    .seed(seed)
                    .crashes(CrashPlan::Anarchic { by: Time(400) }),
            );
            specs.push(KsetScenario::spec(n, t, 1).gst(Time(300)).seed(seed));
        }
    }
    let seq = Runner::sequential().grid(&KsetScenario, &specs);
    assert_eq!(seq.len(), specs.len());
    let seq_prints: Vec<String> = seq.iter().map(fingerprint).collect();
    for threads in [1usize, 2, 3, 8, 64] {
        assert!(threads == 64 || specs.len() > threads * 4);
        let par = Runner::with_threads(threads).grid(&KsetScenario, &specs);
        let par_prints: Vec<String> = par.iter().map(fingerprint).collect();
        assert_eq!(seq_prints, par_prints, "threads={threads} diverged");
    }
}

#[test]
fn streaming_sweep_matches_eager_summary() {
    let base = KsetScenario::spec(5, 2, 2)
        .gst(Time(400))
        .crashes(CrashPlan::Anarchic { by: Time(400) });
    let eager = SweepSummary::of(&Runner::sequential().sweep(&KsetScenario, &base, 0..96));
    for threads in [1usize, 4, 16] {
        let streamed = Runner::with_threads(threads).sweep_summary(&KsetScenario, &base, 0..96);
        assert_eq!(streamed, eager, "threads={threads} diverged");
    }
}

/// The mixed-scale grid the engine differentials run over: 258 runs across
/// n = 5 / 9 / 13, failure-free and anarchic cells.
fn differential_grid() -> Vec<fd_grid::ScenarioSpec> {
    let mut specs = Vec::new();
    for &(n, t) in &[(5usize, 2usize), (9, 4), (13, 6)] {
        for seed in 0..43 {
            specs.push(
                KsetScenario::spec(n, t, 2)
                    .gst(Time(400))
                    .seed(seed)
                    .max_time(Time(30_000))
                    .crashes(CrashPlan::Anarchic { by: Time(400) }),
            );
            specs.push(
                KsetScenario::spec(n, t, 1)
                    .gst(Time(300))
                    .seed(seed)
                    .max_time(Time(30_000)),
            );
        }
    }
    specs
}

mod batching {
    //! The broadcast-batching acceptance suite: `Network::route_broadcast`
    //! with `Scheduler::push_batch` is bit-identical to the per-recipient
    //! routing loop of the previous engine, across scales and thread
    //! counts.

    use super::*;

    /// `KsetScenario` fingerprints of the n = 33 grid below — the
    /// large-fan-out complement of [`super::adversary::PR3_DIGESTS`],
    /// where a broadcast stages 33 deliveries per call. The runs were
    /// first recorded on the *pre-batching* engine (per-recipient `route`
    /// loop); these are the same runs, re-recorded under FNV-1a-64 when
    /// the report digest became a format. If any of these moves, batch
    /// routing perturbed a draw or a pop.
    const PRE_BATCH_N33_DIGESTS: [u64; 8] = [
        0x583a256465bec4ce,
        0xda7d882f2dbc7b66,
        0x36f82ef28c4d686b,
        0x60759decd9adcc2b,
        0x80477a19f2adae51,
        0xccb3242d351516c2,
        0xf7951e56c08c59b4,
        0x78efe89c3d68de21,
    ];

    fn n33_grid() -> Vec<fd_grid::ScenarioSpec> {
        let mut specs = Vec::new();
        for seed in 0..4 {
            specs.push(
                KsetScenario::spec(33, 16, 2)
                    .gst(Time(400))
                    .seed(seed)
                    .max_time(Time(30_000))
                    .crashes(CrashPlan::Anarchic { by: Time(400) }),
            );
            specs.push(
                KsetScenario::spec(33, 16, 1)
                    .gst(Time(300))
                    .seed(seed)
                    .max_time(Time(30_000)),
            );
        }
        specs
    }

    #[test]
    fn batched_broadcasts_match_recorded_pre_batching_digests() {
        for (spec, &want) in n33_grid().iter().zip(PRE_BATCH_N33_DIGESTS.iter()) {
            let got = KsetScenario.run(spec).fingerprint();
            assert_eq!(
                got, want,
                "n=33 seed={} diverged from the per-recipient-loop engine",
                spec.seed
            );
        }
    }

    /// The batched engine is fingerprint-identical across n = 5/9/13/33 at
    /// 1/2/4/8 threads (all compared against the sequential baseline).
    #[test]
    fn broadcast_batching_is_identical_across_scales_and_threads() {
        let mut specs = Vec::new();
        for &(n, t) in &[(5usize, 2usize), (9, 4), (13, 6), (33, 16)] {
            for seed in 0..2 {
                specs.push(
                    KsetScenario::spec(n, t, 2)
                        .gst(Time(400))
                        .seed(seed)
                        .max_time(Time(30_000))
                        .crashes(CrashPlan::Anarchic { by: Time(400) }),
                );
                specs.push(
                    KsetScenario::spec(n, t, 1)
                        .gst(Time(300))
                        .seed(seed)
                        .max_time(Time(30_000)),
                );
            }
        }
        let baseline: Vec<String> = Runner::sequential()
            .grid(&KsetScenario, &specs)
            .iter()
            .map(fingerprint)
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let prints: Vec<String> = Runner::with_threads(threads)
                .grid(&KsetScenario, &specs)
                .iter()
                .map(fingerprint)
                .collect();
            assert_eq!(baseline, prints, "threads={threads} diverged");
        }
    }

    /// Satellite (c) at the engine level, on the real algorithm: a
    /// cache-hit sweep folds to a bit-identical `SweepSummary` and never
    /// recomputes a run (the miss tally — i.e. actual simulations — stays
    /// frozen across warm passes).
    #[test]
    fn cached_kset_sweep_is_bit_identical_and_computes_nothing() {
        use fd_grid::scenario::ReportCache;
        let cache = &ReportCache::new();
        let base = KsetScenario::spec(5, 2, 2)
            .gst(Time(400))
            .max_time(Time(30_000))
            .crashes(CrashPlan::Anarchic { by: Time(400) });
        let cold =
            Runner::with_threads(4)
                .with_cache(cache)
                .sweep_summary(&KsetScenario, &base, 0..32);
        assert!(cold.all_pass());
        assert_eq!((cache.misses(), cache.hits()), (32, 0));
        for threads in [1usize, 4] {
            let warm = Runner::with_threads(threads)
                .with_cache(cache)
                .sweep_summary(&KsetScenario, &base, 0..32);
            assert_eq!(warm, cold, "threads={threads}: warm summary diverged");
            assert_eq!(
                cache.misses(),
                32,
                "threads={threads}: a cache hit re-ran the simulation"
            );
        }
        assert_eq!(cache.hits(), 64);
    }
}

mod adversary {
    //! The message-adversary acceptance suite: the `None` differential
    //! (PR-4's code path is bit-identical to the PR-3 engine), determinism
    //! under threading, and the above-tolerance witnesses.

    use super::*;

    /// `KsetScenario` fingerprints of the seeded n = 5 / 9 / 13 grid
    /// below: per scale, seeds 0–3, each as (anarchic k = 2, failure-free
    /// k = 1). The runs were first recorded on the engine before the
    /// message-adversary layer existed; these are the same runs,
    /// re-recorded under FNV-1a-64 when the report digest became a
    /// format. If any of these moves, the adversary layer
    /// (or a salt / draw-order change) perturbed the clean path — exactly
    /// the silent drift this table exists to catch.
    pub(crate) const PR3_DIGESTS: [u64; 24] = [
        0x333fc452fa927d21,
        0x54bc58227ef27a9b,
        0x755889c60bfbec65,
        0xb099d12a2473ab1a,
        0xd2ff4200079e49cf,
        0xf6d0fa2a4a753daf,
        0xd4f18c2e714123cf,
        0x9057ff0def928ff1,
        0x89f44c64eb2e9cc8,
        0xc5db39272fc086ab,
        0x65d443e072dee4b7,
        0xba911779ec5d23e9,
        0xfd661fe1be1d72d6,
        0xbf025c45948c6676,
        0xa76f24d50419307f,
        0x178bf3f4ff389b07,
        0xf0d760ba58f44a8d,
        0xb08f697644dd0933,
        0xc040fc4c5f73a92c,
        0x196d8c6e6394170b,
        0x035b367d3ad2de0b,
        0x6e842b3c508e54ab,
        0xf8d61b4ddf4c6162,
        0x1c5a680985bf7ca7,
    ];

    pub(crate) fn pinned_grid() -> Vec<fd_grid::ScenarioSpec> {
        let mut specs = Vec::new();
        for &(n, t) in &[(5usize, 2usize), (9, 4), (13, 6)] {
            for seed in 0..4 {
                specs.push(
                    KsetScenario::spec(n, t, 2)
                        .gst(Time(400))
                        .seed(seed)
                        .max_time(Time(30_000))
                        .crashes(CrashPlan::Anarchic { by: Time(400) }),
                );
                specs.push(
                    KsetScenario::spec(n, t, 1)
                        .gst(Time(300))
                        .seed(seed)
                        .max_time(Time(30_000)),
                );
            }
        }
        specs
    }

    #[test]
    fn none_adversary_matches_recorded_pr3_digests() {
        // Both the default spec (adversary never mentioned) and an
        // explicitly threaded MessageAdversary::None must reproduce the
        // PR-3 engine bit for bit.
        let specs = pinned_grid();
        for (variant, make) in [
            ("default", None),
            ("explicit_none", Some(MessageAdversary::None)),
        ] {
            for (spec, &want) in specs.iter().zip(PR3_DIGESTS.iter()) {
                let spec = match &make {
                    None => spec.clone(),
                    Some(adv) => spec.clone().adversary(adv.clone()),
                };
                let got = KsetScenario.run(&spec).fingerprint();
                assert_eq!(
                    got, want,
                    "{variant}: n={} seed={} diverged from the PR-3 engine",
                    spec.n, spec.seed
                );
            }
        }
    }

    /// Fingerprints of runs whose traffic includes unicasts (the upper
    /// wheel's `Response`s, catch-up's `Digest` replies), first recorded
    /// on the engine where a unicast still took the scalar
    /// `Network::route`; these are the same runs, re-recorded under
    /// FNV-1a-64 when the report digest became a format.
    /// Every [`PR3_DIGESTS`] run is broadcasts and R-broadcasts only, so
    /// this table is what pins the send path: clean two-wheels (2 seeds),
    /// two-wheels under a drop rule and under a latency epoch (both run
    /// each copy through the topology fate and the message rules), the
    /// pipeline, churn + catch-up (2 seeds)
    /// and the partition-during-join probe.
    const UNICAST_DIGESTS: [u64; 8] = [
        0x4d9b099996342e3e,
        0xb6a2dfa46304923b,
        0x550c5ed052555128,
        0xa3f4300a649aa052,
        0x5f88993018da0ee6,
        0x45beeb986ff1a375,
        0xf15b3556578d3bb7,
        0xf2ff37e6d0ea1ffc,
    ];

    fn unicast_runs() -> Vec<(&'static dyn Scenario, fd_grid::ScenarioSpec)> {
        use fd_grid::fd_transforms::{TwParams, TwoWheelsScenario};
        use fd_grid::{ChurnKsetScenario, LinkOverride, PSet, PipelineScenario};
        use fd_grid::{TopologyEpoch, TopologySchedule};
        const WHEELS: &TwoWheelsScenario = &TwoWheelsScenario { throttled: true };
        let wheels = TwoWheelsScenario::spec(TwParams::optimal(5, 2, 2, 1))
            .gst(Time(400))
            .max_time(Time(40_000));
        let latency = TopologySchedule::Epochs(vec![TopologyEpoch::new(Time::ZERO, Time(2_000))
            .link(LinkOverride::latency(
                (0..5).map(ProcessId).collect(),
                PSet::singleton(ProcessId(4)),
                40,
                120,
            ))]);
        let churn = ChurnKsetScenario::spec(6, 2, 1)
            .gst(Time(300))
            .max_time(Time(60_000));
        let churn_clean = churn.clone().crashes(CrashPlan::Churn {
            crash_by: Time(150),
            rejoin_after: 500,
        });
        let probe = FailurePattern::builder(6)
            .crash(ProcessId(1), Time(100))
            .join(ProcessId(5), Time(600))
            .build();
        let churn_probe =
            churn
                .crashes(CrashPlan::Explicit(probe))
                .topology(TopologySchedule::partition_until(
                    vec![
                        (0..5).map(ProcessId).collect(),
                        PSet::singleton(ProcessId(5)),
                    ],
                    Time(1_200),
                ));
        vec![
            (WHEELS, wheels.with_seed(0)),
            (WHEELS, wheels.with_seed(1)),
            (
                WHEELS,
                wheels
                    .with_seed(1)
                    .adversary(MessageAdversary::Rules(vec![MessageRule::drop(10)])),
            ),
            (WHEELS, wheels.with_seed(0).topology(latency)),
            (
                &PipelineScenario,
                PipelineScenario::spec(5, 2, 2, 1)
                    .gst(Time(400))
                    .max_time(Time(120_000)),
            ),
            (&ChurnKsetScenario, churn_clean.with_seed(0)),
            (&ChurnKsetScenario, churn_clean.with_seed(1)),
            (&ChurnKsetScenario, churn_probe),
        ]
    }

    #[test]
    fn unicast_runs_match_recorded_digests() {
        let got: Vec<u64> = unicast_runs()
            .iter()
            .map(|(scenario, spec)| scenario.run(spec).fingerprint())
            .collect();
        assert_eq!(got, UNICAST_DIGESTS, "{got:#018x?}");
    }

    /// The tentpole differential at full width: the explicit-`None` grid is
    /// fingerprint-identical to the default grid across the mixed
    /// n = 5 / 9 / 13 differential grid at 1 / 2 / 4 / 8 threads.
    #[test]
    fn none_adversary_grid_is_identical_across_threads() {
        let specs = differential_grid();
        let baseline: Vec<String> = Runner::sequential()
            .grid(&KsetScenario, &specs)
            .iter()
            .map(fingerprint)
            .collect();
        let none_specs: Vec<fd_grid::ScenarioSpec> = specs
            .iter()
            .map(|s| s.clone().adversary(MessageAdversary::None))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let prints: Vec<String> = Runner::with_threads(threads)
                .grid(&KsetScenario, &none_specs)
                .iter()
                .map(fingerprint)
                .collect();
            assert_eq!(baseline, prints, "threads={threads} diverged");
        }
    }

    #[test]
    fn armed_adversary_is_deterministic_across_threads() {
        // An *armed* adversary (drop + dup + corrupt, windowed) is just as
        // deterministic as the clean engine: same seed ⇒ same run at any
        // thread count.
        let adv = MessageAdversary::Rules(vec![
            MessageRule::drop(10).window(Time::ZERO, Time(400)),
            MessageRule::duplicate(10).window(Time::ZERO, Time(400)),
            MessageRule::corrupt(5, 3).window(Time::ZERO, Time(400)),
        ]);
        let specs: Vec<fd_grid::ScenarioSpec> = (0..12)
            .map(|seed| {
                KsetScenario::spec(5, 2, 2)
                    .gst(Time(400))
                    .seed(seed)
                    .max_time(Time(30_000))
                    .adversary(adv.clone())
            })
            .collect();
        let baseline: Vec<String> = Runner::sequential()
            .grid(&KsetScenario, &specs)
            .iter()
            .map(fingerprint)
            .collect();
        for threads in [2usize, 8] {
            let prints: Vec<String> = Runner::with_threads(threads)
                .grid(&KsetScenario, &specs)
                .iter()
                .map(fingerprint)
                .collect();
            assert_eq!(
                baseline, prints,
                "threads={threads} diverged under the armed adversary"
            );
        }
    }

    /// Above-tolerance drops: a persistent 60% drop rate starves the
    /// `n − t` quorums and the spec checker must reject — every recorded
    /// seed is a non-termination witness (deterministic in the seed). If
    /// one ever starts passing, the adversary's draw order moved.
    #[test]
    fn drop_above_tolerance_rejects_liveness() {
        let adv = MessageAdversary::Rules(vec![MessageRule::drop(60)]);
        for seed in [0u64, 1, 2, 5, 9, 13] {
            let spec = KsetScenario::spec(5, 2, 1)
                .seed(seed)
                .max_time(Time(6_000))
                .adversary(adv.clone());
            let rep = KsetScenario.run(&spec);
            assert!(
                !rep.check.ok,
                "seed {seed}: checker accepted a run under 60% drops: {}",
                rep.check
            );
            assert!(
                !rep.trace.deciders().is_superset(rep.fp.correct()),
                "seed {seed}: all correct decided despite above-tolerance drops"
            );
            assert!(rep.slim().counter("sim.dropped") > 0, "seed {seed}");
        }
    }

    /// Bounded corruption is outside the algorithm's *safety* tolerance:
    /// Figure 3 has no authentication, so a corrupted estimate that gets
    /// adopted is decided. Recorded witnesses: validity (a never-proposed
    /// value decided) on most seeds, and on seed 1 a 1-agreement violation
    /// with both decided values legitimate proposals.
    #[test]
    fn corruption_witnesses_break_validity_or_agreement() {
        let adv = MessageAdversary::Rules(vec![MessageRule::corrupt(40, 7)]);
        for seed in [0u64, 2, 3, 4, 5] {
            let spec = KsetScenario::spec(5, 2, 1)
                .seed(seed)
                .max_time(Time(60_000))
                .adversary(adv.clone());
            let rep = KsetScenario.run(&spec);
            assert!(!rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.check.detail.contains("validity"),
                "seed {seed}: expected a validity witness, got {}",
                rep.check
            );
        }
        let spec = KsetScenario::spec(5, 2, 1)
            .seed(1)
            .max_time(Time(60_000))
            .adversary(adv);
        let rep = KsetScenario.run(&spec);
        assert!(
            rep.check.detail.contains("agreement"),
            "seed 1: expected the agreement witness, got {}",
            rep.check
        );
    }
}

mod topology {
    //! The topology-adversary acceptance suite: the unset-schedule
    //! differential (the new `fate()` branch costs zero draws and stays
    //! bit-identical to every recorded digest), determinism with a
    //! schedule *set* (1 / 4 threads), and the
    //! liveness-flip witnesses around the heal-time threshold.

    use super::adversary::{pinned_grid, PR3_DIGESTS};
    use super::*;
    use fd_grid::{PSet, TopologyEpoch, TopologySchedule};

    #[test]
    fn unset_schedule_matches_recorded_pr3_digests() {
        // Explicit `TopologySchedule::None` (and an empty Epochs list,
        // which `epoch_at` never matches) reproduce the pinned grid bit
        // for bit: the topology layer draws nothing when it has nothing
        // to say.
        for (variant, topo) in [
            ("explicit_none", TopologySchedule::None),
            ("empty_epochs", TopologySchedule::Epochs(vec![])),
        ] {
            for (spec, &want) in pinned_grid().iter().zip(PR3_DIGESTS.iter()) {
                let got = KsetScenario
                    .run(&spec.clone().topology(topo.clone()))
                    .fingerprint();
                assert_eq!(
                    got, want,
                    "{variant}: n={} seed={} diverged from the PR-3 engine",
                    spec.n, spec.seed
                );
            }
        }
    }

    fn islands_41(n: usize) -> Vec<PSet> {
        vec![
            (0..n - 1).map(ProcessId).collect(),
            (n - 1..n).map(ProcessId).collect(),
        ]
    }

    #[test]
    fn armed_schedule_is_deterministic_across_threads() {
        // A schedule mixing a partition epoch with an asymmetric latency
        // epoch is as deterministic as the clean engine: same seed ⇒ same
        // run, sequential or work-stealing.
        let all: PSet = (0..5).map(ProcessId).collect();
        let last: PSet = (4..5).map(ProcessId).collect();
        let topo = TopologySchedule::Epochs(vec![
            TopologyEpoch::new(Time::ZERO, Time(800)).islands(islands_41(5)),
            TopologyEpoch::new(Time(800), Time(2_000))
                .link(fd_grid::LinkOverride::latency(all, last, 40, 120)),
        ]);
        let specs: Vec<fd_grid::ScenarioSpec> = (0..12)
            .map(|seed| {
                KsetScenario::spec(5, 2, 2)
                    .gst(Time(400))
                    .seed(seed)
                    .max_time(Time(60_000))
                    .topology(topo.clone())
            })
            .collect();
        let baseline: Vec<String> = Runner::sequential()
            .grid(&KsetScenario, &specs)
            .iter()
            .map(fingerprint)
            .collect();
        for threads in [1usize, 4] {
            let prints: Vec<String> = Runner::with_threads(threads)
                .grid(&KsetScenario, &specs)
                .iter()
                .map(fingerprint)
                .collect();
            assert_eq!(
                baseline, prints,
                "threads={threads} diverged under the schedule"
            );
        }
    }

    /// The liveness flip the phase-diagram bench leg sweeps, pinned at
    /// test scale. Partition `{0..3} | {4}` on n = 5, t = 2, k = 2:
    /// with the Ω leader in the big island (seed 0), an early heal lets
    /// every process decide (the cut process by the heal-delayed
    /// `DECISION` rb), while a heal *after* the horizon leaves exactly
    /// the four mainland deciders — liveness honestly rejected, safety
    /// (k-agreement, validity) intact.
    #[test]
    fn heal_time_flips_liveness_but_never_safety() {
        let base = KsetScenario::spec(5, 2, 2)
            .gst(Time(400))
            .seed(0)
            .max_time(Time(100_000));
        let healed = base.clone().topology(TopologySchedule::partition_until(
            islands_41(5),
            Time(2_000),
        ));
        let rep = KsetScenario.run(&healed);
        assert!(rep.check.ok, "healed: {}", rep.check);
        assert_eq!(rep.trace.deciders().len(), 5, "healed: everyone decides");
        assert!(rep.slim().counter("sim.partitioned") > 0);

        let wedged = base.topology(TopologySchedule::partition_until(
            islands_41(5),
            Time(200_000),
        ));
        let rep = KsetScenario.run(&wedged);
        assert!(!rep.check.ok, "wedged: liveness must be rejected");
        assert_eq!(
            rep.trace.deciders().len(),
            4,
            "wedged: mainland decides alone"
        );
        assert!(
            !rep.check.detail.contains("agreement") && !rep.check.detail.contains("validity"),
            "wedged: safety must hold, got {}",
            rep.check
        );
    }
}

mod churn_catch_up {
    //! Churn catch-up regressions at the engine level: the liveness
    //! upgrade, its edge cases, and the safety-only negative control.

    use super::*;
    use fd_grid::ChurnKsetScenario;

    fn base_spec(seed: u64) -> fd_grid::ScenarioSpec {
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
    fn catch_up_upgrades_churn_to_liveness() {
        for seed in 0..6 {
            let rep = ChurnKsetScenario.run(&base_spec(seed));
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.trace.deciders().is_superset(rep.fp.correct()),
                "seed {seed}: a correct process (joiners included) never decided"
            );
        }
    }

    #[test]
    fn disabled_catch_up_keeps_the_safety_only_verdict() {
        // No spurious liveness claims: the envelope scores the bare run as
        // safety-only, and the run itself demonstrates the hole (for these
        // seeds the joiners miss the pre-join decisions and never decide).
        for seed in 0..6 {
            let rep = ChurnKsetScenario.run(&base_spec(seed).catch_up(false));
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.check.detail.contains("liveness not claimed"),
                "seed {seed}: {}",
                rep.check
            );
        }
    }

    #[test]
    fn rejoin_at_or_past_horizon_stays_safe() {
        // The joiners never activate: catch-up must not manufacture a
        // liveness claim out of processes that cannot run, so the check
        // fails honestly under Liveness and the run stays safe.
        let spec = ChurnKsetScenario::spec(6, 2, 1)
            .gst(Time(300))
            .seed(3)
            .max_time(Time(2_000))
            .crashes(CrashPlan::Churn {
                crash_by: Time(100),
                rejoin_after: 5_000,
            });
        let rep = ChurnKsetScenario.run(&spec);
        assert!(
            !rep.check.ok,
            "joiners past the horizon cannot satisfy liveness: {}",
            rep.check
        );
        assert!(rep.check.detail.contains("never decided"), "{}", rep.check);
        // The same run is fine on safety-only terms.
        let safe = ChurnKsetScenario.run(&spec.catch_up(false));
        assert!(safe.check.ok, "{}", safe.check);
    }

    #[test]
    fn rejoin_after_zero_joins_at_the_crash_instant() {
        // rejoin_after = 0: each fresh id starts exactly when its partner
        // crashes. Catch-up handles the "nothing to miss" case (crash at
        // time > 0) and the at-zero collapse (not a late joiner at all).
        for seed in 0..4 {
            let spec = ChurnKsetScenario::spec(6, 2, 1)
                .gst(Time(300))
                .seed(seed)
                .max_time(Time(60_000))
                .crashes(CrashPlan::Churn {
                    crash_by: Time(150),
                    rejoin_after: 0,
                });
            let rep = ChurnKsetScenario.run(&spec);
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert!(
                rep.trace.deciders().is_superset(rep.fp.correct()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn churn_catch_up_is_fingerprint_deterministic() {
        for seed in 0..4 {
            let spec = base_spec(seed);
            let a = ChurnKsetScenario.run(&spec);
            let b = ChurnKsetScenario.run(&spec);
            assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed}");
        }
    }
}

/// Churn regression at the engine level: the plan materializes its edge
/// cases (rejoin landing at/after the horizon, churn at `crash_by = 0`)
/// into runnable, deterministic scenarios.
#[test]
fn churn_edge_cases_run_deterministically() {
    // Rejoin at (in fact past) the horizon: the fresh ids never activate,
    // and the run must complete without panicking, identically on a
    // rerun.
    let at_horizon = KsetScenario::spec(5, 2, 2)
        .gst(Time(300))
        .max_time(Time(2_000))
        .crashes(CrashPlan::Churn {
            crash_by: Time(100),
            rejoin_after: 2_000,
        });
    // Churn at crash_by = 0: every crash initial, every rejoin at a fixed
    // offset.
    let at_zero = KsetScenario::spec(5, 2, 2)
        .gst(Time(300))
        .max_time(Time(2_000))
        .crashes(CrashPlan::Churn {
            crash_by: Time::ZERO,
            rejoin_after: 50,
        });
    for (label, base) in [
        ("rejoin_at_horizon", at_horizon),
        ("churn_at_zero", at_zero),
    ] {
        for seed in 0..8 {
            let spec = base.clone().seed(seed);
            let rep = KsetScenario.run(&spec);
            assert_eq!(rep.fp.num_faulty(), 2, "{label} seed {seed}");
            let rejoin = spec_rejoin(&spec);
            for p in (0..5).map(ProcessId).filter(|&p| rep.fp.joins_late(p)) {
                let s = rep.fp.start_time(p).ticks();
                assert!(
                    rep.fp
                        .faulty()
                        .iter()
                        .any(|v| rep.fp.crash_time(v).unwrap().ticks() + rejoin == s),
                    "{label} seed {seed}: joiner {p} at {s} matches no crash"
                );
            }
            // Decisions (if any — liveness is not promised under churn)
            // stay within the k-set envelope.
            assert!(
                spec::k_agreement(rep.trace.decisions(), 2).ok,
                "{label} seed {seed}: agreement violated"
            );
            assert_eq!(
                rep.fingerprint(),
                KsetScenario.run(&spec).fingerprint(),
                "{label} seed {seed}: rerun diverged under churn"
            );
        }
    }
}

fn spec_rejoin(spec: &fd_grid::ScenarioSpec) -> u64 {
    match spec.crashes {
        CrashPlan::Churn { rejoin_after, .. } => rejoin_after,
        _ => unreachable!("churn spec expected"),
    }
}

mod negative {
    //! Negative scenarios: oracles built from `fd_detectors::noise` that
    //! step *outside* their class envelope, wired as expected-failure
    //! runs. The class checkers (and the k-set spec) must reject them — a
    //! passing check here is the test failure.

    use super::*;
    use fd_grid::fd_core::run_kset_with;
    use fd_grid::fd_detectors::scenario::{sample_oracle, SampledSlot};
    use fd_grid::fd_detectors::{check, noise};
    use fd_grid::fd_sim::OracleSuite;
    use fd_grid::PSet;

    /// `now` on a clock slowed so that one `noise::PERIOD` window lasts
    /// `period` ticks: these out-of-class oracles keep their own flicker
    /// rate (the recorded seeds below depend on it).
    fn slowed(now: Time, period: u64) -> Time {
        Time(now.ticks() / period * noise::PERIOD)
    }

    /// A "leader" oracle that never leaves the anarchy period: arbitrary
    /// non-empty leader sets (of size up to `n`, far beyond any `z`),
    /// re-drawn every `period` ticks, forever. Violates `Ω_z`'s eventual
    /// leadership on every axis: no stabilization, no size bound, no
    /// agreement across processes.
    struct NoisyOmega {
        seed: u64,
        n: usize,
        period: u64,
    }

    impl OracleSuite for NoisyOmega {
        fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
            noise::arbitrary_leader_set(self.seed, p, slowed(now, self.period), self.n, self.n)
        }
    }

    /// A suspicion oracle that outputs arbitrary flickering sets forever —
    /// outside `◇S_x` (no permanent suspicion of the crashed, no stable
    /// scope) and outside `P` (slanders the living).
    struct NoisySuspect {
        seed: u64,
        n: usize,
        period: u64,
    }

    impl OracleSuite for NoisySuspect {
        fn suspected(&mut self, p: ProcessId, now: Time) -> PSet {
            noise::arbitrary_set(self.seed, p, slowed(now, self.period), self.n)
        }
    }

    /// A query oracle answering coin flips — outside every `φ_y` (its
    /// triviality clauses alone pin half the answers).
    struct NoisyPhi {
        seed: u64,
    }

    impl OracleSuite for NoisyPhi {
        fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
            noise::arbitrary_bool(self.seed, p, x, slowed(now, 10))
        }
    }

    #[test]
    fn unstabilizing_omega_noise_fails_the_omega_checker() {
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(4), Time(100))
            .build();
        for seed in 0..8 {
            let mut oracle = NoisyOmega {
                seed,
                n: 5,
                period: 20,
            };
            let trace = sample_oracle(&mut oracle, &fp, Time(4_000), 10, SampledSlot::Trusted);
            let out = check::omega_z(&trace, &fp, 2, 200);
            assert!(
                !out.ok,
                "seed {seed}: Ω_2 checker accepted pure noise: {out}"
            );
        }
    }

    #[test]
    fn flickering_suspicion_noise_fails_completeness_and_perfection() {
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(4), Time(100))
            .build();
        for seed in 0..8 {
            let mut oracle = NoisySuspect {
                seed,
                n: 5,
                period: 20,
            };
            let trace = sample_oracle(&mut oracle, &fp, Time(4_000), 10, SampledSlot::Suspected);
            let ds = check::diamond_s_x(&trace, &fp, 2, 200);
            assert!(!ds.ok, "seed {seed}: ◇S_2 checker accepted noise: {ds}");
            let p = check::perfect_p(&trace, &fp, 200);
            assert!(!p.ok, "seed {seed}: P checker accepted noise: {p}");
        }
    }

    #[test]
    fn coin_flip_queries_fail_the_phi_audit() {
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(4), Time(100))
            .build();
        for seed in 0..8 {
            let mut oracle = NoisyPhi { seed };
            let out = check::audit_phi(&mut oracle, &fp, 2, 1, Time::ZERO, Time(4_000));
            assert!(!out.ok, "seed {seed}: φ audit accepted coin flips: {out}");
        }
    }

    /// End-to-end negative scenario: the Figure 3 algorithm driven by the
    /// never-stabilizing noisy Ω. An algorithm this robust still reaches
    /// consensus on many schedules, so the seeds below are *recorded
    /// non-termination witnesses* (everything is deterministic in the
    /// seed): the spec checker rejects each of them. If one ever starts
    /// *passing*, the simulation's draw order or the oracle envelope moved
    /// — exactly the silent drift this test exists to catch.
    #[test]
    fn kset_under_unstabilizing_omega_noise_is_rejected() {
        for seed in [1u64, 3, 4, 5, 14, 22, 23] {
            let spec = KsetScenario::spec(5, 2, 1).seed(seed).max_time(Time(6_000));
            let fp = spec.materialize();
            let oracle = NoisyOmega {
                seed,
                n: 5,
                period: 15,
            };
            let rep = run_kset_with(&spec, fp, oracle);
            assert!(
                !rep.check.ok,
                "seed {seed}: spec checker accepted a run under noise-Ω: {}",
                rep.check
            );
        }
    }
}

mod witnesses {
    //! Minimized adversary-search witnesses, checked in as permanent
    //! regression tests. Each document below is the verbatim
    //! `MinimalWitness` JSON that CI's `sweep search` campaign (budget 32,
    //! search seed 0, 4 seeds per spec) emits after shrinking — pinned byte
    //! for byte by `the_campaign_emits_the_checked_in_witnesses`. Each spec
    //! is a local minimum of the shrinker's walk over the canonical
    //! encoding (no dropped element, reset member or lowered number still
    //! violates the named predicate at the named seed), and re-shrinking it
    //! accepts nothing. The replay test holds the violation class, the
    //! checker detail, the event count, and the spec fingerprint — if any
    //! of these move, the engine's draw order or a checker changed
    //! observable behavior.
    //!
    //! To promote a freshly found witness: copy its entry out of the
    //! search report (`--out`), paste it here, and assert its `class`.

    use fd_bench::{json, run_search, shrink, MinimalWitness, SearchConfig};
    use fd_grid::fd_detectors::scenario::{ReportCache, Runner};
    use fd_grid::fd_detectors::ViolationClass;

    /// Validity broken by live corruption: 22% of messages corrupted
    /// (bound 1) in tick [0, 1) of a 7-tick horizon, with delays of 1–2
    /// ticks and `t = 1`, is enough for a never-proposed value to be
    /// adopted and decided by p1.
    const VALIDITY_CORRUPTION: &str = r#"{"class":"validity","description":"n=5 t=1 adversary=[{\"action\":\"corrupt\",\"active_from\":0,\"active_to\":1,\"bound\":1,\"from\":\"all\",\"pct\":22,\"to\":\"all\"}] delay={\"hi\":2,\"kind\":\"uniform\",\"lo\":0} gst=1 max_time=7","detail":"validity: p1 decided 99 which was never proposed","events":121,"fingerprint":5052432489911056619,"scenario":"kset_omega","schema":"fd-minimal-witness/1","seed":0,"shrink_steps":[{"description":"adversary[0].active_to 18446744073709551615 -> 62","pass":"lower"},{"description":"adversary[0].bound 7 -> 6","pass":"lower"},{"description":"adversary[0].pct 40 -> 26","pass":"lower"},{"description":"adversary[0].active_to 62 -> 57","pass":"lower"},{"description":"adversary[0].bound 6 -> 2","pass":"lower"},{"description":"gst 300 -> 58","pass":"lower"},{"description":"adversary[0].pct 26 -> 23","pass":"lower"},{"description":"max_time 60000 -> 77","pass":"lower"},{"description":"t 2 -> 1","pass":"lower"},{"description":"adversary[0].active_to 57 -> 39","pass":"lower"},{"description":"adversary[0].bound 2 -> 1","pass":"lower"},{"description":"adversary[0].active_to 39 -> 1","pass":"lower"},{"description":"adversary[0].pct 23 -> 22","pass":"lower"},{"description":"delay.hi 10 -> 2","pass":"lower"},{"description":"delay.lo 1 -> 0","pass":"lower"},{"description":"gst 58 -> 1","pass":"lower"},{"description":"max_time 77 -> 7","pass":"lower"}],"spec":{"adversary":[{"action":"corrupt","active_from":0,"active_to":1,"bound":1,"from":"all","pct":22,"to":"all"}],"catch_up":false,"crashes":{"kind":"none"},"delay":{"hi":2,"kind":"uniform","lo":0},"delay_rules":[],"gst":1,"k":1,"max_steps":200000,"max_time":7,"n":5,"oracle":"omega","t":1,"topology":[],"x":1,"y":1,"z":1}}"#;

    /// 1-agreement broken by a whisper of corruption: a *3%* corruption
    /// rate (bound 2) active only in tick [0, 1) of a 4-tick horizon still
    /// splits the decision — two legitimate proposals both decided. The
    /// shrinker's 21-step trail took this from a 60000-tick,
    /// 40%-corruption probe.
    const AGREEMENT_CORRUPTION: &str = r#"{"class":"agreement","description":"n=5 t=1 adversary=[{\"action\":\"corrupt\",\"active_from\":0,\"active_to\":1,\"bound\":2,\"from\":\"all\",\"pct\":3,\"to\":\"all\"}] delay={\"hi\":2,\"kind\":\"uniform\",\"lo\":0} gst=0 max_time=4","detail":"agreement: 2 distinct values decided ([101, 102]) > k = 1","events":71,"fingerprint":17539516855702461469,"scenario":"kset_omega","schema":"fd-minimal-witness/1","seed":1,"shrink_steps":[{"description":"adversary[0].active_to 18446744073709551615 -> 313","pass":"lower"},{"description":"adversary[0].bound 7 -> 2","pass":"lower"},{"description":"adversary[0].pct 40 -> 39","pass":"lower"},{"description":"adversary[0].active_to 313 -> 309","pass":"lower"},{"description":"adversary[0].pct 39 -> 34","pass":"lower"},{"description":"gst 300 -> 46","pass":"lower"},{"description":"adversary[0].active_to 309 -> 65","pass":"lower"},{"description":"adversary[0].pct 34 -> 17","pass":"lower"},{"description":"delay.hi 10 -> 9","pass":"lower"},{"description":"adversary[0].active_to 65 -> 59","pass":"lower"},{"description":"gst 46 -> 0","pass":"lower"},{"description":"adversary[0].active_to 59 -> 6","pass":"lower"},{"description":"adversary[0].pct 17 -> 3","pass":"lower"},{"description":"adversary[0].active_to 6 -> 1","pass":"lower"},{"description":"delay.hi 9 -> 7","pass":"lower"},{"description":"delay.hi 7 -> 3","pass":"lower"},{"description":"max_time 60000 -> 6","pass":"lower"},{"description":"t 2 -> 1","pass":"lower"},{"description":"delay.hi 3 -> 2","pass":"lower"},{"description":"delay.lo 1 -> 0","pass":"lower"},{"description":"max_time 6 -> 4","pass":"lower"}],"spec":{"adversary":[{"action":"corrupt","active_from":0,"active_to":1,"bound":2,"from":"all","pct":3,"to":"all"}],"catch_up":false,"crashes":{"kind":"none"},"delay":{"hi":2,"kind":"uniform","lo":0},"delay_rules":[],"gst":0,"k":1,"max_steps":200000,"max_time":4,"n":5,"oracle":"omega","t":1,"topology":[],"x":1,"y":1,"z":1}}"#;

    /// A *sampled* (not probe) spec from the fuzzed space: n=4 under fixed
    /// delay, a delay rule holding p3's messages until tick 65, and 8%
    /// corruption — the shrinker dropped one whole message rule, three of
    /// the delay rule's senders and the crash plan on its way to this
    /// 330-event validity reproducer.
    const VALIDITY_SILENCE_CORRUPTION: &str = r#"{"class":"validity","description":"n=4 t=1 adversary=[{\"action\":\"corrupt\",\"active_from\":0,\"active_to\":74,\"bound\":4,\"from\":\"all\",\"pct\":8,\"to\":\"all\"}] delay={\"d\":5,\"kind\":\"fixed\"} delay_rules=[{\"active_from\":0,\"active_to\":60,\"deliver_not_before\":65,\"from\":[3],\"to\":[0,1,2,3]}] gst=69 max_time=83","detail":"validity: p1 decided 99 which was never proposed","events":330,"fingerprint":17665595199285274617,"scenario":"kset_omega","schema":"fd-minimal-witness/1","seed":0,"shrink_steps":[{"description":"adversary[0] removed","pass":"drop"},{"description":"delay_rules[0].from[0] removed","pass":"drop"},{"description":"delay_rules[0].from[0] removed","pass":"drop"},{"description":"delay_rules[0].from[0] removed","pass":"drop"},{"description":"crashes {\"by\":831,\"kind\":\"anarchic\"} -> {\"kind\":\"none\"}","pass":"reset"},{"description":"adversary[0].active_to 18446744073709551615 -> 76","pass":"lower"},{"description":"adversary[0].bound 7 -> 5","pass":"lower"},{"description":"adversary[0].pct 11 -> 8","pass":"lower"},{"description":"adversary[0].bound 5 -> 4","pass":"lower"},{"description":"delay_rules[0].active_to 67 -> 60","pass":"lower"},{"description":"delay_rules[0].deliver_not_before 67 -> 65","pass":"lower"},{"description":"adversary[0].active_to 76 -> 74","pass":"lower"},{"description":"gst 300 -> 69","pass":"lower"},{"description":"max_time 2000 -> 83","pass":"lower"}],"spec":{"adversary":[{"action":"corrupt","active_from":0,"active_to":74,"bound":4,"from":"all","pct":8,"to":"all"}],"catch_up":false,"crashes":{"kind":"none"},"delay":{"d":5,"kind":"fixed"},"delay_rules":[{"active_from":0,"active_to":60,"deliver_not_before":65,"from":[3],"to":[0,1,2,3]}],"gst":69,"k":1,"max_steps":200000,"max_time":83,"n":4,"oracle":"omega","t":1,"topology":[],"x":1,"y":1,"z":1}}"#;

    const WITNESSES: [(&str, ViolationClass); 3] = [
        (VALIDITY_CORRUPTION, ViolationClass::Validity),
        (AGREEMENT_CORRUPTION, ViolationClass::Agreement),
        (VALIDITY_SILENCE_CORRUPTION, ViolationClass::Validity),
    ];

    fn decoded(doc: &str) -> MinimalWitness {
        MinimalWitness::from_json(&json::parse(doc).expect("witness must parse"))
            .expect("witness must decode")
    }

    #[test]
    fn checked_in_witnesses_still_reproduce_their_violations() {
        for (doc, want_class) in WITNESSES {
            let w = decoded(doc);
            assert_eq!(w.class, want_class, "{}", w.description);
            assert_eq!(w.spec.fingerprint(), w.fingerprint, "{}", w.description);
            let rep = fd_bench::scenario_for(&w.spec).run(&w.spec.clone().seed(w.seed));
            assert!(
                !rep.check.ok && rep.check.class == w.class,
                "{}: no longer a [{}] witness: {}",
                w.description,
                w.class.name(),
                rep.check
            );
            assert_eq!(rep.check.detail, w.detail, "{}", w.description);
            assert_eq!(rep.metrics.events, w.events, "{}", w.description);
        }
    }

    #[test]
    fn witness_json_round_trips_byte_exactly() {
        // The codec is canonical (sorted keys, raw u64 tokens): decoding
        // a document and re-emitting it reproduces the input bytes, so
        // two campaigns finding the same witness write identical files.
        for (doc, _) in WITNESSES {
            let w = decoded(doc);
            assert_eq!(w.to_json().emit(), doc, "{}", w.description);
        }
    }

    #[test]
    fn the_campaign_emits_the_checked_in_witnesses() {
        // `SearchConfig::default()` is CI's `--budget 32 --search-seed 0
        // --seeds-per-spec 4`.
        let cache = ReportCache::new();
        let report = run_search(
            &Runner::sequential().with_cache(&cache),
            &SearchConfig::default(),
        );
        let emitted: Vec<String> = report
            .witnesses
            .iter()
            .map(|w| w.to_json().emit())
            .collect();
        let checked_in: Vec<&str> = WITNESSES.iter().map(|(doc, _)| *doc).collect();
        assert_eq!(emitted, checked_in);
    }

    #[test]
    fn a_minimal_witness_is_a_fixed_point() {
        let cache = ReportCache::new();
        let runner = Runner::sequential().with_cache(&cache);
        for (doc, _) in WITNESSES {
            let w = decoded(doc);
            let again = shrink(&runner, &w.spec, w.seed, w.class);
            assert!(
                again.trail.is_empty(),
                "re-shrinking {} accepted steps: {:?}",
                w.description,
                again
                    .trail
                    .iter()
                    .map(|s| format!("{}: {}", s.pass, s.description))
                    .collect::<Vec<_>>()
            );
            assert_eq!(again.spec.fingerprint(), w.fingerprint);
        }
    }
}

#[test]
fn grid_matrix_runs_in_spec_order() {
    // Every scale, twelve seeds each, interleaved: 36 specs, more than the
    // widest fold window below (8 × 4), so the order is the fold's doing.
    let specs: Vec<_> = (0..12 * SCALES.len())
        .map(|i| {
            let (n, t) = SCALES[i % SCALES.len()];
            KsetScenario::spec(n, t, 1)
                .gst(Time(300))
                .seed(9 + (i / SCALES.len()) as u64)
        })
        .collect();
    for threads in [1usize, 2, 3, 8] {
        assert!(specs.len() > threads * 4);
        let reports = Runner::with_threads(threads).grid(&KsetScenario, &specs);
        assert_eq!(reports.len(), specs.len());
        for (rep, spec) in reports.iter().zip(&specs) {
            let (n, seed) = (spec.n, spec.seed);
            assert_eq!(
                (rep.spec.n, rep.seed()),
                (n, seed),
                "threads={threads}: grid order scrambled"
            );
            assert!(rep.check.ok, "n={n} seed={seed}: {}", rep.check);
        }
    }
}
