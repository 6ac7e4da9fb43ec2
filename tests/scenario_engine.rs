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
                        spec::validity(&rep.trace, &proposals).ok,
                        "validity n={n} k={k} plan={label} seed={}",
                        rep.seed()
                    );
                    assert!(
                        spec::k_agreement(&rep.trace, k).ok,
                        "k-agreement n={n} k={k} plan={label} seed={}",
                        rep.seed()
                    );
                    assert!(
                        spec::termination(&rep.trace, &rep.fp).ok,
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

    /// `KsetScenario` fingerprints recorded on the *pre-batching* engine
    /// (per-recipient `route` loop) for the n = 33 grid below — the
    /// large-fan-out complement of [`super::adversary::PR3_DIGESTS`],
    /// where a broadcast stages 33 deliveries per call. If any of these
    /// moves, batch routing perturbed a draw or a pop.
    const PRE_BATCH_N33_DIGESTS: [u64; 8] = [
        0x4ff6a2224212ccb2,
        0x611764dd8f5dc92a,
        0x4bd34cdc15db096e,
        0x5e18a66232c5a4a9,
        0xfd754d48f291736e,
        0xf62777da978dca71,
        0x6ecb23a7ebddc328,
        0x063b1ed0e4ccb5fc,
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

    /// `KsetScenario` fingerprints recorded on the PR-3 engine (before the
    /// message-adversary layer existed) for the seeded n = 5 / 9 / 13
    /// grid below: per scale, seeds 0–3, each as (anarchic k = 2,
    /// failure-free k = 1). If any of these moves, the adversary layer
    /// (or a salt / draw-order change) perturbed the clean path — exactly
    /// the silent drift this table exists to catch.
    pub(crate) const PR3_DIGESTS: [u64; 24] = [
        0x4cde60aaa105139c,
        0x691b88ef8aae7d03,
        0x75bdead03f0adc01,
        0x7a78c5b05972d0da,
        0x54231c179a6944aa,
        0xb684e3b1aba6a196,
        0x391e3e0c46ebf206,
        0xf39dddf10817c498,
        0x7311658e0b04b495,
        0x0188791901f23516,
        0x4f74f72a9e67c9dd,
        0x5223f8cd5c0e44af,
        0x112c611508dde608,
        0xa28a989187fe9111,
        0x74c06d0c89433139,
        0xa89cd998a8642860,
        0xf8f4c9444477c8c3,
        0x08c5f03c8a2afbef,
        0xe0f12bcdf14f9ddb,
        0xbf9bfe57e1a7f9fa,
        0x87cd15bfbec0e05f,
        0xe0e227652f4783ee,
        0x1b1221140992ba06,
        0x067e213f6c2c1eff,
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
    /// wheel's `Response`s, catch-up's `Digest` replies), recorded on the
    /// PR-24 engine, where a unicast still took the scalar `Network::route`.
    /// Every [`PR3_DIGESTS`] run is broadcasts and R-broadcasts only, so
    /// this table is what pins the send path: clean two-wheels (2 seeds),
    /// two-wheels under a drop rule and under a latency epoch (both take
    /// the per-recipient path), the pipeline, churn + catch-up (2 seeds)
    /// and the partition-during-join probe.
    const UNICAST_DIGESTS: [u64; 8] = [
        0x8fb4097984f9ab05,
        0xb79e4ccaf7c7e9b9,
        0x725826b7bdf52c96,
        0xc110402423bc4580,
        0xe098a27f0972c1ac,
        0x7fffd67ac39a868d,
        0xf00cc2eea392f16f,
        0xcb95a324dd198eb9,
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
                spec::k_agreement(&rep.trace, 2).ok,
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
            noise::arbitrary_leader_set(self.seed, p, now, self.period, self.n, self.n)
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
            noise::arbitrary_set(self.seed, p, now, self.period, self.n)
        }
    }

    /// A query oracle answering coin flips — outside every `φ_y` (its
    /// triviality clauses alone pin half the answers).
    struct NoisyPhi {
        seed: u64,
    }

    impl OracleSuite for NoisyPhi {
        fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
            noise::arbitrary_bool(self.seed, p, x, now, 10)
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
    //! `MinimalWitness` JSON the `sweep search` campaign emitted (budget
    //! 32, search seed 0) after shrinking: the smallest spec its passes
    //! could reach that still violates the named predicate at the named
    //! seed. The test replays each spec through the engine and holds the
    //! violation class, the checker detail, the event count, and the
    //! spec fingerprint — if any of these move, the engine's draw order
    //! or a checker changed observable behavior.
    //!
    //! To promote a freshly found witness: copy its entry out of the
    //! search report (`--out`), paste it here, and assert its `class`.

    use fd_bench::{json, MinimalWitness};
    use fd_grid::fd_detectors::ViolationClass;

    /// Validity broken by live corruption: 15% of messages corrupted
    /// (bound 4) in the first 21 ticks of a 28-tick horizon is enough
    /// for a never-proposed value to be adopted and decided by p3.
    const VALIDITY_CORRUPTION: &str = r#"{"class":"validity","description":"n=5 t=2 adversary=[{\"action\":\"corrupt\",\"active_from\":0,\"active_to\":21,\"bound\":4,\"from\":\"all\",\"pct\":15,\"to\":\"all\"}] gst=1 max_time=28","detail":"validity: p3 decided 99 which was never proposed","events":137,"fingerprint":11130984197085071070,"scenario":"kset_omega","schema":"fd-minimal-witness/1","seed":0,"shrink_steps":[{"description":"shrank horizon 60000 -> 67","pass":"shrink-horizon"},{"description":"shrank gst 300 -> 26","pass":"shrink-gst"},{"description":"shrank horizon 67 -> 47","pass":"shrink-horizon"},{"description":"shrank gst 26 -> 1","pass":"shrink-gst"},{"description":"shrank horizon 47 -> 28","pass":"shrink-horizon"},{"description":"shrank rule #0 pct 40 -> 15","pass":"shrink-rule-pct"},{"description":"shrank rule #0 corruption bound 7 -> 4","pass":"shrink-rule-bound"},{"description":"clamped rule #0 window to horizon","pass":"narrow-rule-window"},{"description":"shrank rule #0 window end 29 -> 21","pass":"narrow-rule-window"}],"spec":{"adversary":[{"action":"corrupt","active_from":0,"active_to":21,"bound":4,"from":"all","pct":15,"to":"all"}],"catch_up":false,"crashes":{"kind":"none"},"delay":{"hi":10,"kind":"uniform","lo":1},"delay_rules":[],"gst":1,"k":1,"max_steps":200000,"max_time":28,"n":5,"oracle":"omega","t":2,"topology":[],"x":1,"y":1,"z":1}}"#;

    /// 1-agreement broken by a whisper of corruption: a *3%* corruption
    /// rate (bound 2) active only in tick [0, 1) of a 13-tick horizon
    /// still splits the decision — two legitimate proposals both
    /// decided. The shrinker's 19-step trail took this from a
    /// 60000-tick, 40%-corruption probe.
    const AGREEMENT_CORRUPTION: &str = r#"{"class":"agreement","description":"n=5 t=2 adversary=[{\"action\":\"corrupt\",\"active_from\":0,\"active_to\":1,\"bound\":2,\"from\":\"all\",\"pct\":3,\"to\":\"all\"}] gst=0 max_time=13","detail":"agreement: 2 distinct values decided ([101, 102]) > k = 1","events":63,"fingerprint":14510577873027147604,"scenario":"kset_omega","schema":"fd-minimal-witness/1","seed":1,"shrink_steps":[{"description":"shrank horizon 60000 -> 318","pass":"shrink-horizon"},{"description":"shrank gst 300 -> 297","pass":"shrink-gst"},{"description":"shrank rule #0 corruption bound 7 -> 2","pass":"shrink-rule-bound"},{"description":"shrank gst 297 -> 275","pass":"shrink-gst"},{"description":"shrank horizon 318 -> 296","pass":"shrink-horizon"},{"description":"shrank gst 275 -> 248","pass":"shrink-gst"},{"description":"shrank horizon 296 -> 273","pass":"shrink-horizon"},{"description":"shrank gst 248 -> 167","pass":"shrink-gst"},{"description":"shrank horizon 273 -> 194","pass":"shrink-horizon"},{"description":"shrank gst 167 -> 22","pass":"shrink-gst"},{"description":"shrank horizon 194 -> 48","pass":"shrink-horizon"},{"description":"shrank gst 22 -> 1","pass":"shrink-gst"},{"description":"shrank horizon 48 -> 28","pass":"shrink-horizon"},{"description":"shrank rule #0 pct 40 -> 9","pass":"shrink-rule-pct"},{"description":"shrank gst 1 -> 0","pass":"shrink-gst"},{"description":"shrank horizon 28 -> 13","pass":"shrink-horizon"},{"description":"shrank rule #0 pct 9 -> 3","pass":"shrink-rule-pct"},{"description":"clamped rule #0 window to horizon","pass":"narrow-rule-window"},{"description":"shrank rule #0 window end 14 -> 1","pass":"narrow-rule-window"}],"spec":{"adversary":[{"action":"corrupt","active_from":0,"active_to":1,"bound":2,"from":"all","pct":3,"to":"all"}],"catch_up":false,"crashes":{"kind":"none"},"delay":{"hi":10,"kind":"uniform","lo":1},"delay_rules":[],"gst":0,"k":1,"max_steps":200000,"max_time":13,"n":5,"oracle":"omega","t":2,"topology":[],"x":1,"y":1,"z":1}}"#;

    /// A *sampled* (not probe) spec from the fuzzed space: n=4 under
    /// fixed delay, a full-silence delay rule until tick 67, and 3%
    /// corruption — the shrinker dropped one whole message rule and the
    /// crash plan on its way to this 264-event validity reproducer.
    const VALIDITY_SILENCE_CORRUPTION: &str = r#"{"class":"validity","description":"n=4 t=1 adversary=[{\"action\":\"corrupt\",\"active_from\":0,\"active_to\":100,\"bound\":2,\"from\":\"all\",\"pct\":3,\"to\":\"all\"}] delay={\"d\":5,\"kind\":\"fixed\"} delay_rules=[{\"active_from\":0,\"active_to\":67,\"deliver_not_before\":67,\"from\":[0,1,2,3],\"to\":[0,1,2,3]}] gst=85 max_time=109","detail":"validity: p1 decided 99 which was never proposed","events":264,"fingerprint":17110066388413079971,"scenario":"kset_omega","schema":"fd-minimal-witness/1","seed":0,"shrink_steps":[{"description":"dropped message rule #0","pass":"drop-adv-rule"},{"description":"removed crash plan","pass":"weaken-crashes"},{"description":"shrank horizon 2000 -> 199","pass":"shrink-horizon"},{"description":"shrank gst 300 -> 175","pass":"shrink-gst"},{"description":"shrank gst 175 -> 85","pass":"shrink-gst"},{"description":"shrank horizon 199 -> 109","pass":"shrink-horizon"},{"description":"shrank rule #0 pct 11 -> 3","pass":"shrink-rule-pct"},{"description":"shrank rule #0 corruption bound 7 -> 2","pass":"shrink-rule-bound"},{"description":"clamped rule #0 window to horizon","pass":"narrow-rule-window"},{"description":"shrank rule #0 window end 110 -> 100","pass":"narrow-rule-window"}],"spec":{"adversary":[{"action":"corrupt","active_from":0,"active_to":100,"bound":2,"from":"all","pct":3,"to":"all"}],"catch_up":false,"crashes":{"kind":"none"},"delay":{"d":5,"kind":"fixed"},"delay_rules":[{"active_from":0,"active_to":67,"deliver_not_before":67,"from":[0,1,2,3],"to":[0,1,2,3]}],"gst":85,"k":1,"max_steps":200000,"max_time":109,"n":4,"oracle":"omega","t":1,"topology":[],"x":1,"y":1,"z":1}}"#;

    const WITNESSES: [(&str, ViolationClass); 3] = [
        (VALIDITY_CORRUPTION, ViolationClass::Validity),
        (AGREEMENT_CORRUPTION, ViolationClass::Agreement),
        (VALIDITY_SILENCE_CORRUPTION, ViolationClass::Validity),
    ];

    #[test]
    fn checked_in_witnesses_still_reproduce_their_violations() {
        for (doc, want_class) in WITNESSES {
            let w = MinimalWitness::from_json(&json::parse(doc).expect("witness must parse"))
                .expect("witness must decode");
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
            let w = MinimalWitness::from_json(&json::parse(doc).unwrap()).unwrap();
            assert_eq!(w.to_json().emit(), doc, "{}", w.description);
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
