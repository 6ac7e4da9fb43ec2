//! Unit tests of the scenario engine, grouped by the file under test.

use super::runner::ordered_fold;
use super::*;
use crate::check::CheckOutcome;
use fd_sim::{DelayModel, DelayRule, FailurePattern, OracleSuite, PSet, ProcessId, Time, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---- spec.rs ---------------------------------------------------------------

#[test]
fn crash_plans_materialize() {
    assert_eq!(CrashPlan::None.materialize(4, 1, 0).num_faulty(), 0);
    assert_eq!(
        CrashPlan::Random { f: 2, by: Time(10) }
            .materialize(5, 2, 1)
            .num_faulty(),
        2
    );
    let ini = CrashPlan::Initial { f: 3 }.materialize(7, 3, 2);
    assert_eq!(ini.num_faulty(), 3);
    assert_eq!(ini.last_crash(), Time::ZERO);
    let an = CrashPlan::Anarchic { by: Time(100) }.materialize(6, 2, 3);
    assert!(an.num_faulty() <= 2);
}

#[test]
fn random_plan_respects_promised_bound_for_all_seeds() {
    // Regression for the crash-plan off-by-one: `by` is an inclusive
    // upper bound, including the degenerate `by = Time(0)`.
    for by in [0u64, 1, 10] {
        let plan = CrashPlan::Random { f: 2, by: Time(by) };
        for seed in 0..256 {
            let fp = plan.materialize(6, 2, seed);
            for p in fp.faulty() {
                let at = fp.crash_time(p).unwrap();
                assert!(at <= Time(by), "seed {seed}: crash at {at} > by {by}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "f=3 crashes exceed the bound")]
fn random_plan_rejects_f_above_t() {
    let _ = CrashPlan::Random { f: 3, by: Time(5) }.materialize(7, 2, 0);
}

#[test]
#[should_panic(expected = "f=9 crashes exceed the bound")]
fn random_plan_rejects_f_above_n() {
    // f > n used to die deep inside sample_indices; now the panic names
    // the offending plan at materialization.
    let _ = CrashPlan::Random { f: 9, by: Time(5) }.materialize(5, 2, 0);
}

#[test]
#[should_panic(expected = "must satisfy t < n")]
fn initial_plan_rejects_t_at_n() {
    let _ = CrashPlan::Initial { f: 1 }.materialize(4, 4, 0);
}

#[test]
#[should_panic(expected = "must satisfy t < n")]
fn anarchic_plan_rejects_t_at_n() {
    let _ = CrashPlan::Anarchic { by: Time(10) }.materialize(3, 3, 0);
}

#[test]
fn materialization_is_deterministic() {
    let plan = CrashPlan::Anarchic { by: Time(500) };
    for seed in 0..16 {
        assert_eq!(plan.materialize(7, 3, seed), plan.materialize(7, 3, seed));
    }
    let churn = CrashPlan::Churn {
        crash_by: Time(200),
        rejoin_after: 40,
    };
    for seed in 0..16 {
        assert_eq!(churn.materialize(7, 3, seed), churn.materialize(7, 3, seed));
    }
}

#[test]
fn churn_plan_materializes_pairs() {
    let plan = CrashPlan::Churn {
        crash_by: Time(300),
        rejoin_after: 25,
    };
    for seed in 0..64 {
        let fp = plan.materialize(9, 4, seed);
        assert_eq!(fp.num_faulty(), 4);
        let joiners = (0..9).map(ProcessId).filter(|&p| fp.joins_late(p)).count();
        assert!(joiners <= 4);
        for v in fp.faulty() {
            assert!(fp.crash_time(v).unwrap() <= Time(300), "seed {seed}");
        }
    }
}

#[test]
fn churn_plan_edge_cases() {
    // crash_by = 0: every crash is initial, every joiner starts at
    // exactly rejoin_after.
    let plan = CrashPlan::Churn {
        crash_by: Time::ZERO,
        rejoin_after: 10,
    };
    for seed in 0..32 {
        let fp = plan.materialize(6, 2, seed);
        for v in fp.faulty() {
            assert_eq!(fp.crash_time(v), Some(Time::ZERO));
        }
        for p in (0..6).map(ProcessId).filter(|&p| fp.joins_late(p)) {
            assert_eq!(fp.start_time(p), Time(10), "seed {seed}");
        }
    }
    // rejoin_after = 0 at crash_by = 0 collapses to all-initial
    // crashes with every id live from time zero.
    let fp = CrashPlan::Churn {
        crash_by: Time::ZERO,
        rejoin_after: 0,
    }
    .materialize(6, 2, 3);
    assert!(!fp.has_late_joiners());
}

#[test]
#[should_panic(expected = "churn needs 2t ≤ n")]
fn churn_plan_rejects_crowded_system() {
    let _ = CrashPlan::Churn {
        crash_by: Time(10),
        rejoin_after: 5,
    }
    .materialize(5, 3, 0);
}

#[test]
fn spec_builders_compose() {
    let spec = ScenarioSpec::new(7, 3)
        .kz(2)
        .x(2)
        .y(1)
        .gst(Time(400))
        .seed(9)
        .max_time(Time(60_000));
    assert_eq!((spec.n, spec.t, spec.k, spec.z), (7, 3, 2, 2));
    assert_eq!(spec.sim_config().seed, 9);
    assert_eq!(spec.sim_config().max_time, Time(60_000));
    assert_eq!(spec.with_seed(11).seed, 11);
    assert_eq!(spec.with_seed(11).n, 7);
}

#[test]
fn spec_adversary_knob_reaches_sim_config() {
    let spec = ScenarioSpec::new(5, 2);
    assert!(spec.adversary.is_none());
    assert!(spec.sim_config().adversary.is_none());
    assert!(!spec.catch_up);
    let armed = spec
        .adversary(MessageAdversary::Rules(vec![MessageRule::drop(10)]))
        .catch_up(true);
    assert_eq!(armed.sim_config().adversary.describe(), "drop10");
    assert!(armed.catch_up);
    assert!(armed.with_seed(9).catch_up, "seed copies keep the knobs");
    assert_eq!(armed.with_seed(9).adversary.describe(), "drop10");
}

// ---- codec.rs --------------------------------------------------------------

#[test]
fn spec_fingerprint_covers_the_knobs_but_not_seed() {
    fn islands_34() -> Vec<fd_sim::PSet> {
        vec![
            (0..3).map(ProcessId).collect(),
            (3..7).map(ProcessId).collect(),
        ]
    }
    fn islands_43() -> Vec<fd_sim::PSet> {
        vec![
            (0..4).map(ProcessId).collect(),
            (4..7).map(ProcessId).collect(),
        ]
    }
    let base = ScenarioSpec::new(7, 3).kz(2).gst(Time(500));
    let fp = base.fingerprint();
    // Stable across clones and reruns.
    assert_eq!(fp, base.clone().fingerprint());
    // Pinned twice, so a failure says which moved: the canonical bytes
    // (the encoding), and their FNV-1a-64 (the hash). Store keys, run
    // directories and the checked-in witnesses hash exactly these bytes.
    assert_eq!(
        base.canonical(),
        r#"{"adversary":[],"catch_up":false,"crashes":{"kind":"none"},"#.to_owned()
            + r#""delay":{"hi":10,"kind":"uniform","lo":1},"delay_rules":[],"gst":500,"k":2,"#
            + r#""max_steps":200000,"max_time":100000,"n":7,"oracle":"omega","t":3,"#
            + r#""topology":[],"x":1,"y":1,"z":2}"#,
        "spec encoding moved"
    );
    assert_eq!(fp, fd_sim::fnv1a64(base.canonical().as_bytes()));
    assert_eq!(fp, 0x6d28_4461_30dd_7e5b, "spec fingerprint hash moved");
    // The seed is deliberately excluded: it is the key's other half.
    assert_eq!(fp, base.clone().seed(99).fingerprint());
    // Every other knob separates.
    let variants = [
        ScenarioSpec::new(8, 3).kz(2).gst(Time(500)),
        base.clone().k(1),
        base.clone().x(2),
        base.clone().y(2),
        base.clone().gst(Time(501)),
        base.clone().max_time(Time(99_999)),
        base.clone().max_steps(7),
        base.clone().oracle(OracleChoice::Sx(Flavour::Perpetual)),
        base.clone().oracle(OracleChoice::Sx(Flavour::Eventual)),
        base.clone().crashes(CrashPlan::Anarchic { by: Time(50) }),
        base.clone().crashes(CrashPlan::Initial { f: 1 }),
        base.clone().crashes(CrashPlan::Explicit(
            FailurePattern::builder(7)
                .crash(ProcessId(1), Time(9))
                .build(),
        )),
        base.clone().delay(DelayModel::Fixed(3)),
        base.clone().rule(DelayRule::silence_until(
            fd_sim::PSet::singleton(ProcessId(0)),
            fd_sim::PSet::full(7),
            Time(100),
        )),
        base.clone()
            .adversary(MessageAdversary::Rules(vec![MessageRule::drop(10)])),
        base.clone()
            .adversary(MessageAdversary::Rules(vec![MessageRule::drop(11)])),
        base.clone().catch_up(true),
        // Topology schedules: a partition, the same
        // partition with its epoch boundary moved one tick, the same
        // partition with one island member moved across the cut, and a
        // latency override (cache-poisoning guards for the store).
        base.clone()
            .topology(TopologySchedule::partition_until(islands_34(), Time(500))),
        base.clone()
            .topology(TopologySchedule::partition_until(islands_34(), Time(501))),
        base.clone()
            .topology(TopologySchedule::partition_until(islands_43(), Time(500))),
        base.clone()
            .topology(TopologySchedule::Epochs(vec![TopologyEpoch::new(
                Time::ZERO,
                Time(500),
            )
            .link(LinkOverride::latency(
                fd_sim::PSet::singleton(ProcessId(0)),
                fd_sim::PSet::singleton(ProcessId(1)),
                40,
                90,
            ))])),
        base.clone()
            .topology(TopologySchedule::Epochs(vec![TopologyEpoch::new(
                Time::ZERO,
                Time(500),
            )
            .link(LinkOverride::latency(
                fd_sim::PSet::singleton(ProcessId(0)),
                fd_sim::PSet::singleton(ProcessId(1)),
                40,
                91,
            ))])),
        base.clone()
            .topology(TopologySchedule::Epochs(vec![TopologyEpoch::new(
                Time::ZERO,
                Time(500),
            )
            .link(LinkOverride::silence(
                fd_sim::PSet::singleton(ProcessId(0)),
                fd_sim::PSet::singleton(ProcessId(1)),
            ))])),
    ];
    let mut prints: Vec<u64> = variants.iter().map(|s| s.fingerprint()).collect();
    prints.push(fp);
    let unique: std::collections::BTreeSet<u64> = prints.iter().copied().collect();
    assert_eq!(unique.len(), prints.len(), "spec fingerprints collided");
    // Empty rule and epoch lists run exactly as `None` does (pinned by the
    // k-set scenario's knob tests), so they share its encoding.
    for same in [
        base.clone().adversary(MessageAdversary::Rules(vec![])),
        base.clone().topology(TopologySchedule::Epochs(vec![])),
    ] {
        assert_eq!(same.canonical(), base.canonical());
    }
}

/// A spec with every knob off its default: every encoder branch but the
/// other variants of each enum, which the tests below cover.
fn kitchen_sink_spec() -> ScenarioSpec {
    let island_a: PSet = [ProcessId(0), ProcessId(1)].into_iter().collect();
    let island_b = PSet::singleton(ProcessId(2));
    ScenarioSpec::new(6, 2)
        .kz(2)
        .x(3)
        .y(2)
        .oracle(OracleChoice::SxPlusPhi(Flavour::Eventual))
        .crashes(CrashPlan::Churn {
            crash_by: Time(900),
            rejoin_after: 77,
        })
        .delay(DelayModel::Spiky {
            lo: 2,
            hi: 9,
            spike_pct: 13,
            factor: 11,
        })
        .rule(DelayRule::silence_until(
            PSet::full(6),
            PSet::full(6),
            Time(250),
        ))
        .gst(Time(400))
        .max_time(Time(5_000))
        .max_steps(9_999)
        .adversary(MessageAdversary::from_rules(vec![
            MessageRule::drop(30).window(Time(10), Time(90)),
            MessageRule::duplicate(5),
            MessageRule::corrupt(15, 4).links(island_a, PSet::full(6)),
        ]))
        .topology(TopologySchedule::from_epochs(vec![TopologyEpoch::new(
            Time(100),
            Time(2_000),
        )
        .islands(vec![island_a, island_b])
        .link(LinkOverride::latency(island_a, island_b, 5, 25))
        .link(LinkOverride::silence(island_b, island_a))]))
        .catch_up(true)
}

/// One spec per variant of every encoded enum, plus the kitchen sink.
fn every_variant() -> Vec<ScenarioSpec> {
    let base = ScenarioSpec::new(6, 2);
    let mut specs = vec![kitchen_sink_spec()];
    specs.extend(
        [
            OracleChoice::None,
            OracleChoice::Omega,
            OracleChoice::Sx(Flavour::Perpetual),
            OracleChoice::Sx(Flavour::Eventual),
            OracleChoice::Phi(Flavour::Perpetual),
            OracleChoice::Phi(Flavour::Eventual),
            OracleChoice::Psi,
            OracleChoice::SxPlusPhi(Flavour::Perpetual),
            OracleChoice::SxPlusPhi(Flavour::Eventual),
            OracleChoice::Perfect(Flavour::Perpetual),
            OracleChoice::Perfect(Flavour::Eventual),
        ]
        .map(|o| base.clone().oracle(o)),
    );
    specs.extend(
        [
            CrashPlan::Random { f: 2, by: Time(40) },
            CrashPlan::Initial { f: 1 },
            CrashPlan::Anarchic { by: Time(7) },
            CrashPlan::Explicit(
                FailurePattern::builder(6)
                    .crash(ProcessId(1), Time(9))
                    .crash(ProcessId(4), Time::ZERO)
                    .join(ProcessId(5), Time(30))
                    .build(),
            ),
        ]
        .map(|c| base.clone().crashes(c)),
    );
    specs.push(base.clone().delay(DelayModel::Fixed(u64::MAX)));
    specs
}

#[test]
fn spec_codec_round_trips_every_field() {
    for spec in every_variant() {
        let text = spec.canonical();
        // Canonical: sorted keys and compact spelling, byte for byte what
        // the tree emitter writes for the parsed text.
        assert_eq!(crate::json::parse(&text).unwrap().emit(), text);
        // The fingerprint is the hash of exactly these bytes.
        assert_eq!(spec.fingerprint(), fd_sim::fnv1a64(text.as_bytes()));
        // Decoding is the inverse, and re-encodes byte-identically.
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("decode");
        assert_eq!(back.canonical(), text);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }
}

#[test]
fn spec_codec_covers_every_oracle_and_infinity() {
    let mut prints = std::collections::BTreeSet::new();
    for spec in every_variant() {
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("decode");
        assert_eq!(back.oracle, spec.oracle);
        assert_eq!(format!("{:?}", back.crashes), format!("{:?}", spec.crashes));
        assert!(prints.insert(spec.fingerprint()), "{}", spec.describe());
    }
    // An unscoped rule's window end is Time::INFINITY (u64::MAX): it must
    // survive the numeric codec exactly.
    let spec = ScenarioSpec::new(4, 1)
        .adversary(MessageAdversary::from_rules(vec![MessageRule::drop(10)]));
    let back = ScenarioSpec::from_json(&spec.to_json()).expect("decode");
    assert_eq!(back.adversary.rules()[0].active_to, Time::INFINITY);
}

#[test]
fn explicit_patterns_decode_only_for_their_n() {
    let spec = ScenarioSpec::new(3, 1).crashes(CrashPlan::Explicit(
        FailurePattern::builder(3)
            .crash(ProcessId(2), Time(5))
            .build(),
    ));
    assert!(spec
        .canonical()
        .contains(r#""crashes":{"crash_at":[null,null,5],"kind":"explicit","start_at":[0,0,0]}"#));
    let mut doc = spec.to_json();
    let crate::json::Json::Obj(members) = &mut doc else {
        unreachable!()
    };
    members.insert("n".into(), crate::json::Json::num_u64(4));
    let err = ScenarioSpec::from_json(&doc).unwrap_err();
    assert!(
        err.starts_with("crashes: an explicit pattern needs"),
        "{err}"
    );
}

#[test]
fn describe_names_what_differs_from_the_defaults() {
    assert_eq!(ScenarioSpec::new(5, 2).describe(), "n=5 t=2");
    assert_eq!(
        ScenarioSpec::new(7, 3).kz(2).gst(Time(500)).describe(),
        "n=7 t=3 gst=500 k=2 z=2"
    );
    let armed = ScenarioSpec::new(5, 2)
        .max_time(Time(28))
        .adversary(MessageAdversary::from_rules(vec![MessageRule::corrupt(
            15, 4,
        )]));
    assert_eq!(
        armed.describe(),
        r#"n=5 t=2 adversary=[{"action":"corrupt","active_from":0,"#.to_owned()
            + r#""active_to":18446744073709551615,"bound":4,"from":"all","pct":15,"to":"all"}] "#
            + "max_time=28"
    );
    // The seed is not part of a spec's encoding.
    assert_eq!(armed.clone().seed(9).describe(), armed.describe());
}

// ---- oracle.rs -------------------------------------------------------------

/// Which primitives an oracle choice answers (the others panic by
/// contract, so the probe must not touch them), and the concrete oracle
/// type the choice must resolve to.
fn primitives(choice: OracleChoice) -> (bool, bool, bool, &'static str) {
    // (suspected, trusted, query, type)
    match choice {
        OracleChoice::None => (false, false, false, "NoOracle"),
        OracleChoice::Omega => (false, true, false, "OmegaOracle"),
        OracleChoice::Sx(_) => (true, false, false, "SxOracle"),
        OracleChoice::Phi(_) => (false, false, true, "PhiOracle"),
        OracleChoice::Psi => (false, false, true, "PsiOracle"),
        OracleChoice::SxPlusPhi(_) => (true, false, true, "SuspectPlusQuery"),
        OracleChoice::Perfect(_) => (true, false, false, "PerfectOracle"),
    }
}

/// Drives an oracle through a fixed probe schedule — every process, a time
/// grid spanning the GST, and (for query oracles) a family of probe sets —
/// and transcribes every answer. Two oracles are draw-for-draw equal iff
/// their transcripts are.
fn transcript<O: OracleSuite>(
    oracle: &mut O,
    fp: &FailurePattern,
    choice: OracleChoice,
) -> Vec<String> {
    let (suspected, trusted, query, _) = primitives(choice);
    let n = fp.n();
    let mut out = Vec::new();
    for step in 0..40u64 {
        let now = Time(step * 25);
        for p in (0..n).map(ProcessId) {
            if suspected {
                out.push(format!("s:{p}@{now}={}", oracle.suspected(p, now)));
            }
            if trusted {
                out.push(format!("t:{p}@{now}={}", oracle.trusted(p, now)));
            }
            if query {
                for width in 1..=n.min(4) {
                    let x: PSet = (0..width).map(ProcessId).collect();
                    out.push(format!("q:{p}@{now}:{x}={}", oracle.query(p, x, now)));
                }
            }
        }
    }
    out
}

/// The probing visitor: names the concrete type it was handed and
/// transcribes its answers.
struct ProbeOracle<'a> {
    fp: &'a FailurePattern,
    choice: OracleChoice,
}

impl OracleVisitor for ProbeOracle<'_> {
    type Out = (&'static str, Vec<String>);
    fn visit<O: OracleSuite + 'static>(self, mut oracle: O) -> Self::Out {
        (
            std::any::type_name::<O>(),
            transcript(&mut oracle, self.fp, self.choice),
        )
    }
}

#[test]
fn with_oracle_honours_choice() {
    let mut choices = vec![OracleChoice::None, OracleChoice::Omega, OracleChoice::Psi];
    for f in [Flavour::Perpetual, Flavour::Eventual] {
        choices.push(OracleChoice::Sx(f));
        choices.push(OracleChoice::Phi(f));
        choices.push(OracleChoice::SxPlusPhi(f));
        choices.push(OracleChoice::Perfect(f));
    }
    for choice in choices {
        let spec = ScenarioSpec::new(7, 3)
            .x(2)
            .z(2)
            .seed(1)
            .gst(Time(400))
            .oracle(choice)
            .crashes(CrashPlan::Random {
                f: 3,
                by: Time(500),
            });
        let fp = spec.materialize();
        let probe = || ProbeOracle { fp: &fp, choice };
        let (ty, answers) = spec.with_oracle(&fp, probe());
        // The arm resolves to the class's concrete type …
        let want = primitives(choice).3;
        assert!(ty.contains(want), "{choice:?} resolved to {ty}");
        // … which answers exactly the primitives of its class …
        assert_eq!(
            answers.is_empty(),
            choice == OracleChoice::None,
            "{choice:?}"
        );
        // … as a pure function of (spec, seed).
        assert_eq!(spec.with_oracle(&fp, probe()).1, answers, "{choice:?}");
        // The stream is keyed by the choice's canonical salt.
        if choice == OracleChoice::Omega {
            let mut direct = spec.omega_oracle(&fp, salt::OMEGA);
            assert_eq!(transcript(&mut direct, &fp, choice), answers);
            // Ω_z after GST: at least one leader, at most z.
            let leaders = direct.trusted(ProcessId(0), Time(10_000));
            assert!((1..=spec.z).contains(&leaders.len()), "{leaders}");
        }
    }
}

// ---- report.rs -------------------------------------------------------------

struct Probe;
impl Scenario for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let mut trace = Trace::new();
        trace.decide(Time(spec.seed + 1), ProcessId(0), spec.seed);
        trace.bump("probe.runs", 1);
        ScenarioReport::new(
            self.name(),
            spec,
            fp,
            trace,
            CheckOutcome::pass(None, "probe"),
        )
    }
}

#[test]
fn churn_envelope_scores_safety_and_liveness() {
    let fp = FailurePattern::builder(4)
        .crash(ProcessId(0), Time(10))
        .join(ProcessId(3), Time(50))
        .build();
    let proposals = [100, 101, 102, 103];
    let mut tr = Trace::new();
    tr.decide(Time(20), ProcessId(1), 101);
    tr.decide(Time(25), ProcessId(2), 101);
    // Joiner has not decided: safety passes, liveness fails.
    let safe = churn_envelope(&tr, &fp, 1, &proposals, ChurnGuarantee::SafetyOnly);
    assert!(safe.ok, "{safe}");
    let live = churn_envelope(&tr, &fp, 1, &proposals, ChurnGuarantee::Liveness);
    assert!(!live.ok, "{live}");
    assert!(live.detail.contains("never decided"), "{live}");
    // Once the joiner decides, liveness passes too.
    tr.decide(Time(90), ProcessId(3), 101);
    let live = churn_envelope(&tr, &fp, 1, &proposals, ChurnGuarantee::Liveness);
    assert!(live.ok, "{live}");
    assert_eq!(live.stabilized_at, Some(Time(90)));
}

#[test]
fn churn_envelope_rejects_safety_violations_regardless_of_guarantee() {
    let fp = FailurePattern::builder(3)
        .join(ProcessId(2), Time(40))
        .build();
    let proposals = [100, 101, 102];
    for g in [ChurnGuarantee::SafetyOnly, ChurnGuarantee::Liveness] {
        // Unproposed value.
        let mut tr = Trace::new();
        tr.decide(Time(5), ProcessId(0), 999);
        assert!(!churn_envelope(&tr, &fp, 2, &proposals, g).ok);
        // Too many distinct values.
        let mut tr = Trace::new();
        tr.decide(Time(5), ProcessId(0), 100);
        tr.decide(Time(6), ProcessId(1), 101);
        assert!(!churn_envelope(&tr, &fp, 1, &proposals, g).ok);
        // Double decision.
        let mut tr = Trace::new();
        tr.decide(Time(5), ProcessId(0), 100);
        tr.decide(Time(7), ProcessId(0), 100);
        assert!(!churn_envelope(&tr, &fp, 1, &proposals, g).ok);
        // A decision before the decider joined.
        let mut tr = Trace::new();
        tr.decide(Time(5), ProcessId(2), 100);
        let out = churn_envelope(&tr, &fp, 1, &proposals, g);
        assert!(!out.ok, "{out}");
        assert!(out.detail.contains("before joining"), "{out}");
    }
}

#[test]
fn fingerprint_separates_runs_and_matches_reruns() {
    let base = ScenarioSpec::new(5, 2).crashes(CrashPlan::Anarchic { by: Time(50) });
    let a = Probe.run(&base.with_seed(1)).fingerprint();
    let b = Probe.run(&base.with_seed(1)).fingerprint();
    let c = Probe.run(&base.with_seed(2)).fingerprint();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn slim_report_carries_counters_and_verdict() {
    let rep = Probe.run(&ScenarioSpec::new(5, 2).seed(3));
    let slim = rep.slim();
    assert_eq!(slim.seed, 3);
    assert!(slim.check.ok);
    assert_eq!(slim.metrics.decided_values, rep.metrics.decided_values);
    assert_eq!(slim.counter("probe.runs"), rep.trace.counter("probe.runs"));
}

// ---- cache.rs --------------------------------------------------------------

/// A scenario that counts how often it actually runs — the probe for
/// "a cache hit never re-executes the simulation".
struct CountingProbe<'a>(&'a AtomicU64);
impl Scenario for CountingProbe<'_> {
    fn name(&self) -> &'static str {
        "counting_probe"
    }
    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        self.0.fetch_add(1, Ordering::Relaxed);
        Probe.run(spec)
    }
}

#[test]
fn cache_salt_is_fnv_of_the_tag_and_the_fingerprint() {
    let spec = ScenarioSpec::new(7, 3).kz(2).gst(Time(500));
    let mut bytes = b"kset_omega\xff".to_vec();
    bytes.extend(spec.fingerprint().to_le_bytes());
    let salt = ReportCache::salt("kset_omega", &spec);
    assert_eq!(salt, fd_sim::fnv1a64(&bytes));
    // Pinned: run directories are keyed by it on every build.
    assert_eq!(salt, 0xda50_c2d4_3289_00f1);
    assert_ne!(salt, ReportCache::salt("kset_churn", &spec));
    assert_eq!(salt, ReportCache::salt("kset_omega", &spec.with_seed(3)));
}

#[test]
fn cached_sweep_is_bit_identical_and_never_reruns() {
    let cache = &ReportCache::new();
    let executed = AtomicU64::new(0);
    let probe = CountingProbe(&executed);
    let base = ScenarioSpec::new(5, 2).crashes(CrashPlan::Anarchic { by: Time(50) });
    let cold = Runner::with_threads(4)
        .with_cache(cache)
        .sweep_summary(&probe, &base, 0..200);
    assert_eq!(executed.load(Ordering::Relaxed), 200);
    assert_eq!(cache.misses(), 200);
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.entries(), 200);
    // Warm sweep: bit-identical summary, zero new executions.
    for threads in [1usize, 4] {
        let warm = Runner::with_threads(threads)
            .with_cache(cache)
            .sweep_summary(&probe, &base, 0..200);
        assert_eq!(warm, cold, "threads={threads}");
        assert_eq!(
            executed.load(Ordering::Relaxed),
            200,
            "cache hit re-ran the scenario"
        );
    }
    assert_eq!(cache.hits(), 400);
    // A different spec (or an uncached runner) does not hit.
    let other =
        Runner::sequential()
            .with_cache(cache)
            .sweep_summary(&probe, &base.clone().k(2), 0..10);
    assert_eq!(other.runs, 10);
    assert_eq!(executed.load(Ordering::Relaxed), 210);
    let uncached = Runner::sequential().sweep_summary(&probe, &base, 0..10);
    assert_eq!(uncached.runs, 10);
    assert_eq!(
        executed.load(Ordering::Relaxed),
        220,
        "default runner must not cache"
    );
}

#[test]
fn cache_capacity_caps_insertions_without_changing_results() {
    let cache = &ReportCache::with_capacity(16);
    let base = ScenarioSpec::new(5, 2);
    let runner = Runner::sequential().with_cache(cache);
    let a = runner.sweep_summary(&Probe, &base, 0..100);
    assert!(
        cache.entries() <= 32,
        "per-shard rounding stays near the cap"
    );
    let b = runner.sweep_summary(&Probe, &base, 0..100);
    assert_eq!(a, b, "capped cache must not change summaries");
    assert!(cache.hits() > 0, "capped cache still serves what it holds");
    assert!(
        cache.capped_inserts() > 0,
        "skipped inserts must be observable"
    );
    cache.clear();
    assert_eq!((cache.entries(), cache.hits(), cache.misses()), (0, 0, 0));
    assert_eq!((cache.capped_inserts(), cache.hydrated()), (0, 0));
}

#[test]
fn spill_hook_observes_every_computed_cell_exactly_once() {
    let cache = &ReportCache::with_capacity(16);
    let spilled: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&spilled);
    cache.set_spill(Some(Arc::new(move |salt, seed, _slim| {
        sink.lock().unwrap().push((salt, seed));
    })));
    let runner = Runner::sequential().with_cache(cache);
    let base = ScenarioSpec::new(5, 2);
    runner.sweep_summary(&Probe, &base, 0..100);
    // Every computed cell spills — including the ones the capacity cap
    // kept out of the in-memory map.
    let seen = spilled.lock().unwrap().clone();
    assert_eq!(seen.len(), 100, "one spill per computed cell");
    let salts: std::collections::BTreeSet<u64> = seen.iter().map(|&(s, _)| s).collect();
    assert_eq!(salts.len(), 1, "one spec ⇒ one salt");
    let seeds: std::collections::BTreeSet<u64> = seen.iter().map(|&(_, s)| s).collect();
    assert_eq!(seeds.len(), 100);
    assert!(cache.capped_inserts() > 0, "cap engaged during the sweep");
    // Warm lookups and hydration never re-spill.
    runner.sweep_summary(&Probe, &base, 0..10);
    let slim = SlimReport {
        scenario: "probe",
        seed: 7,
        num_faulty: 0,
        check: CheckOutcome::pass(None, "ok"),
        metrics: Metrics::default(),
        counters: Vec::new(),
    };
    cache.hydrate([CellMap::from([((1, 7), slim)])]);
    assert_eq!(spilled.lock().unwrap().len(), 100);
    cache.set_spill(None);
    runner.sweep_summary(&Probe, &base.clone().k(2), 0..5);
    assert_eq!(
        spilled.lock().unwrap().len(),
        100,
        "cleared hook must not fire"
    );
}

#[test]
fn hydrated_cells_serve_hits_without_tallying() {
    let cache = &ReportCache::new();
    let executed = AtomicU64::new(0);
    let probe = CountingProbe(&executed);
    let base = ScenarioSpec::new(5, 2);
    // Compute the cells once in a scratch cache, capturing them via the
    // spill hook — exactly what a durable store does on a cold run.
    let scratch = &ReportCache::new();
    let captured: Arc<Mutex<Vec<(u64, u64, SlimReport)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    scratch.set_spill(Some(Arc::new(move |salt, seed, slim| {
        sink.lock().unwrap().push((salt, seed, slim.clone()));
    })));
    let cold = Runner::sequential()
        .with_cache(scratch)
        .sweep_summary(&probe, &base, 0..50);
    assert_eq!(executed.load(Ordering::Relaxed), 50);
    // Hydrate a fresh cache from the captured cells ("reopen"), one map
    // per shard as a store decodes them.
    let mut shards: Vec<CellMap> = (0..CACHE_SHARDS).map(|_| CellMap::new()).collect();
    for (salt, seed, slim) in captured.lock().unwrap().iter() {
        shards[ReportCache::shard_of((*salt, *seed))].insert((*salt, *seed), slim.clone());
    }
    assert_eq!(cache.hydrate(shards), 50);
    assert_eq!(cache.hydrated(), 50);
    assert_eq!((cache.hits(), cache.misses()), (0, 0));
    let warm = Runner::sequential()
        .with_cache(cache)
        .sweep_summary(&probe, &base, 0..50);
    assert_eq!(warm, cold, "hydrated sweep must be bit-identical");
    assert_eq!(
        executed.load(Ordering::Relaxed),
        50,
        "hydrated cells must serve as hits"
    );
    assert_eq!((cache.hits(), cache.misses()), (50, 0));
}

/// Whatever index a map is handed in under — its own shard's, another's,
/// one past the last shard — each cell lands in the shard its key belongs
/// to, and the cap and the tallies count cell by cell.
#[test]
fn hydrate_routes_every_cell_to_its_own_shard() {
    let cell = |seed: u64| {
        let slim = SlimReport {
            scenario: "probe",
            seed,
            num_faulty: 0,
            check: CheckOutcome::pass(None, "ok"),
            metrics: Metrics::default(),
            counters: Vec::new(),
        };
        ((9, seed), slim)
    };
    let jumbled = || -> Vec<CellMap> {
        let mut maps: Vec<CellMap> = (0..CACHE_SHARDS + 2).map(|_| CellMap::new()).collect();
        for seed in 0..64 {
            let (key, slim) = cell(seed);
            maps[seed as usize % (CACHE_SHARDS + 2)].insert(key, slim);
        }
        maps
    };
    let cache = ReportCache::new();
    assert_eq!(cache.hydrate(jumbled()), 64);
    assert_eq!((cache.entries(), cache.hydrated()), (64, 64));
    for seed in 0..64 {
        assert_eq!(cache.lookup((9, seed)), Some(cell(seed).1), "seed {seed}");
    }
    assert_eq!(
        (cache.hits(), cache.misses(), cache.capped_inserts()),
        (64, 0, 0)
    );

    // One entry per shard: 16 admitted, the other 48 tallied as capped.
    let capped = ReportCache::with_capacity(CACHE_SHARDS);
    assert_eq!(capped.hydrate(jumbled()), CACHE_SHARDS);
    assert_eq!(capped.capped_inserts(), 64 - CACHE_SHARDS as u64);
    assert_eq!(capped.hydrated(), CACHE_SHARDS as u64);
}

// ---- runner.rs -------------------------------------------------------------

/// `ordered_fold` as an index-ordered map: what `Runner::grid` makes of it.
fn ordered_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    ordered_fold(n, threads, f, Vec::new(), |out, item| out.push(item))
}

#[test]
fn ordered_fold_matches_sequential_map() {
    let seq = ordered_map(37, 1, |i| i * i);
    assert_eq!(seq, (0..37).map(|i| i * i).collect::<Vec<_>>());
    for threads in [2, 3, 8, 64] {
        assert_eq!(ordered_map(37, threads, |i| i * i), seq);
    }
}

#[test]
fn ordered_fold_empty_and_oversized() {
    assert!(ordered_map(0, 8, |i| i).is_empty());
    assert_eq!(ordered_map(3, 100, |i| i), vec![0, 1, 2]);
}

#[test]
fn ordered_fold_balances_skewed_workloads() {
    // Indices with wildly different costs, more of them than any window
    // (threads × 4 ≤ 32 < 129 below 64 threads): the atomic-claim scheduler
    // must still fold in index order whatever the thread count.
    let cost = |i: usize| {
        let mut acc = i as u64;
        let spins = if i.is_multiple_of(7) { 50_000 } else { 10 };
        for k in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        acc
    };
    let seq = ordered_map(129, 1, cost);
    for threads in [2, 4, 8, 64] {
        assert_eq!(ordered_map(129, threads, cost), seq, "threads={threads}");
    }
}

#[test]
fn sweep_orders_by_seed_in_parallel() {
    let base = ScenarioSpec::new(5, 2).crashes(CrashPlan::Anarchic { by: Time(50) });
    let seq = Runner::sequential().sweep(&Probe, &base, 0..64);
    let par = Runner::with_threads(8).sweep(&Probe, &base, 0..64);
    assert_eq!(seq.len(), 64);
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.seed(), b.seed());
        assert_eq!(a.fp, b.fp);
        assert_eq!(a.metrics.decided_values, b.metrics.decided_values);
    }
}

#[test]
fn sweep_fold_matches_eager_summary_over_10k_seeds() {
    let base = ScenarioSpec::new(5, 2).crashes(CrashPlan::Anarchic { by: Time(50) });
    let eager = SweepSummary::of(&Runner::sequential().sweep(&Probe, &base, 0..10_000));
    for threads in [1usize, 3, 8] {
        let streamed = Runner::with_threads(threads).sweep_summary(&Probe, &base, 0..10_000);
        assert_eq!(streamed, eager, "threads={threads}");
    }
}

#[test]
fn sweep_fold_folds_in_seed_order() {
    let base = ScenarioSpec::new(5, 2);
    for threads in [2usize, 8] {
        let seeds = Runner::with_threads(threads).sweep_fold(
            &Probe,
            &base,
            0..2_000,
            Vec::new(),
            |v, slim| v.push(slim.seed),
        );
        assert_eq!(seeds, (0..2_000).collect::<Vec<u64>>(), "threads={threads}");
    }
}

#[test]
fn sweep_fold_empty_range() {
    let base = ScenarioSpec::new(5, 2);
    let s = Runner::with_threads(4).sweep_summary(&Probe, &base, 7..7);
    assert_eq!(s, SweepSummary::default());
}

// ---- summary.rs ------------------------------------------------------------

#[test]
fn summary_aggregates() {
    let base = ScenarioSpec::new(5, 2);
    let reports = Runner::sequential().sweep(&Probe, &base, 0..10);
    let s = SweepSummary::of(&reports);
    assert_eq!(s.runs, 10);
    assert!(s.all_pass());
    assert_eq!(s.decided_runs, 10);
    assert_eq!(s.pass_cell(), "10/10");
}
