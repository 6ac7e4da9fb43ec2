//! Unit tests of the scenario engine, grouped by the file under test.

use super::runner::ordered_fold;
use super::*;
use crate::check::CheckOutcome;
use crate::check::ViolationClass;
use fd_sim::{
    counter, slot, DelayModel, DelayRule, FailurePattern, FdValue, OracleSuite, PSet, ProcessId,
    SplitMix64, Time, Trace,
};
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
    // One crash needs t ≥ 1, as `Sim::new` asserts.
    let mut doc = spec.to_json();
    let crate::json::Json::Obj(members) = &mut doc else {
        unreachable!()
    };
    members.insert("t".into(), crate::json::Json::num_u64(0));
    members.insert("y".into(), crate::json::Json::num_u64(0));
    let err = ScenarioSpec::from_json(&doc).unwrap_err();
    assert!(err.contains("past the bound t = 0"), "{err}");
}

/// A crash tick of `u64::MAX` (`Time::INFINITY`) is refused with an error,
/// as the builder refuses it: a process that never crashes is `null`. The
/// tick below it still decodes, and re-encodes to the same bytes.
#[test]
fn explicit_patterns_reject_a_crash_at_the_end_of_the_clock() {
    let text = |crash: u64| {
        format!(r#"{{"crash_at":[null,null,{crash}],"kind":"explicit","start_at":[0,0,0]}}"#)
    };
    let spec = ScenarioSpec::new(3, 1).crashes(CrashPlan::Explicit(
        FailurePattern::builder(3)
            .crash(ProcessId(2), Time(u64::MAX - 1))
            .build(),
    ));
    let canonical = spec.canonical();
    assert!(canonical.contains(&text(u64::MAX - 1)), "{canonical}");
    let back = crate::json::parse(&canonical).unwrap();
    assert_eq!(
        ScenarioSpec::from_json(&back).unwrap().canonical(),
        canonical
    );
    let never = canonical.replace(&text(u64::MAX - 1), &text(u64::MAX));
    let err = ScenarioSpec::from_json(&crate::json::parse(&never).unwrap()).unwrap_err();
    assert!(
        err.contains("crash_at[2]: a crash at the end of the clock"),
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

/// A report built by hand at n = 3, no engine involved: one sample of each
/// `FdValue` kind, one decision, a crash, a late start and two counters.
fn hand_built_report() -> ScenarioReport {
    let fp = FailurePattern::builder(3)
        .crash(ProcessId(1), Time(40))
        .join(ProcessId(2), Time(7))
        .build();
    let mut trace = Trace::new();
    let set = PSet::from_iter([0, 2].map(ProcessId));
    trace.publish(ProcessId(0), slot::TRUSTED, Time(5), FdValue::Set(set));
    trace.publish(
        ProcessId(0),
        slot::REPR,
        Time(6),
        FdValue::Proc(ProcessId(2)),
    );
    trace.publish(ProcessId(2), slot::ROUND, Time(9), FdValue::Num(4));
    trace.publish(ProcessId(2), slot::USER, Time(8), FdValue::Flag(true));
    trace.decide(Time(30), ProcessId(0), 101);
    trace.bump(counter::SENT, 9);
    trace.bump(counter::EVENTS, 12);
    let spec = ScenarioSpec::new(3, 1).seed(42);
    let check = CheckOutcome::pass(Some(Time(30)), "hand-built");
    ScenarioReport::new("hand", &spec, fp, trace, check)
}

#[test]
fn fingerprint_is_fnv_of_the_documented_bytes() {
    let int = |b: &mut Vec<u8>, v: u64| b.extend(v.to_le_bytes());
    let mut b = Vec::new();
    // The seed and n, then each process's crash time (tag, time) and start
    // time: p0 never crashes and starts at 0, p1 crashes at 40, p2 joins
    // at 7.
    for v in [42, 3] {
        int(&mut b, v);
    }
    b.push(0);
    int(&mut b, 0);
    b.push(1);
    int(&mut b, 40);
    int(&mut b, 0);
    b.push(0);
    int(&mut b, 7);
    int(&mut b, 12); // events
    int(&mut b, 9); // msgs_sent
    b.push(1); // check.ok
    for v in [30, 0, 101] {
        int(&mut b, v); // the decision: at, by, value
    }
    // Histories by process, then slot: each is (p, slot), then per sample
    // the time, the tag and the payload (a set is ⌈3/64⌉ = 1 word).
    for v in [0, slot::TRUSTED.into(), 5] {
        int(&mut b, v);
    }
    b.push(0);
    int(&mut b, 0b101);
    for v in [0, slot::REPR.into(), 6] {
        int(&mut b, v);
    }
    b.push(1);
    int(&mut b, 2);
    for v in [2, slot::ROUND.into(), 9] {
        int(&mut b, v);
    }
    b.push(3);
    int(&mut b, 4);
    for v in [2, slot::USER.into(), 8] {
        int(&mut b, v);
    }
    b.extend([2, 1]);
    // Counters sorted by name: bytes, 0xff, value.
    b.extend(b"sim.events\xff");
    int(&mut b, 12);
    b.extend(b"sim.sent\xff");
    int(&mut b, 9);

    let rep = hand_built_report();
    assert_eq!(rep.fingerprint(), fd_sim::fnv1a64(&b));
    // Pinned: a change here is a change of the digest's bytes, not of the
    // engine.
    assert_eq!(rep.fingerprint(), 0xe97e_d2c1_88b4_94a9);
}

#[test]
fn fingerprint_sees_every_word_of_a_wide_set() {
    let report = |with_p129: bool| {
        let mut set = PSet::singleton(ProcessId(3));
        if with_p129 {
            set.insert(ProcessId(129));
        }
        let mut trace = Trace::new();
        trace.publish(ProcessId(0), slot::SUSPECTED, Time(1), FdValue::Set(set));
        let fp = FailurePattern::builder(130).build();
        let spec = ScenarioSpec::new(130, 1);
        ScenarioReport::new("wide", &spec, fp, trace, CheckOutcome::pass(None, ""))
    };
    assert_ne!(report(false).fingerprint(), report(true).fingerprint());
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
    let mut cells = CellMap::new();
    cells.insert((1, 7), &slim);
    cache.hydrate([cells]);
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
        shards[ReportCache::shard_of((*salt, *seed))].insert((*salt, *seed), slim);
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
/// to, repacked against that shard's name table (whose ids mean other
/// names than the map's did), also into shards that already hold cells;
/// and the cap and the tallies count cell by cell.
#[test]
fn hydrate_routes_every_cell_to_its_own_shard() {
    let names = leaked_names("hydrate", 6);
    let cell = |seed: u64| SlimReport {
        scenario: names[seed as usize % 6],
        seed,
        num_faulty: seed as usize % 3,
        check: CheckOutcome::fail_as(ViolationClass::Termination, format!("p{seed} — π")),
        metrics: Metrics {
            events: seed * 1_000,
            decided_values: vec![seed],
            ..Metrics::default()
        },
        counters: vec![
            (names[(seed as usize + 1) % 6], seed),
            (names[(seed as usize + 4) % 6], 7),
        ],
    };
    // Each map meets the names in an order of its own, and most hold keys
    // of several shards.
    let jumbled = |seeds: std::ops::Range<u64>| -> Vec<CellMap> {
        let mut maps: Vec<CellMap> = (0..CACHE_SHARDS + 2).map(|_| CellMap::new()).collect();
        for seed in seeds.rev() {
            maps[seed as usize % (CACHE_SHARDS + 2)].insert((9, seed), &cell(seed));
        }
        maps
    };
    let cache = ReportCache::new();
    assert_eq!(cache.hydrate(jumbled(0..64)), 64);
    assert_eq!((cache.entries(), cache.hydrated()), (64, 64));
    assert_eq!(cache.hydrate(jumbled(64..200)), 136);
    for seed in 0..200 {
        assert_eq!(cache.lookup((9, seed)), Some(cell(seed)), "seed {seed}");
    }
    assert_eq!(
        (cache.hits(), cache.misses(), cache.capped_inserts()),
        (200, 0, 0)
    );

    // One entry per shard: 16 admitted, the other 48 tallied as capped.
    let capped = ReportCache::with_capacity(CACHE_SHARDS);
    assert_eq!(capped.hydrate(jumbled(0..64)), CACHE_SHARDS);
    assert_eq!(capped.capped_inserts(), 64 - CACHE_SHARDS as u64);
    assert_eq!(capped.hydrated(), CACHE_SHARDS as u64);
    let served = (0..64)
        .filter_map(|seed| {
            capped
                .lookup((9, seed))
                .map(|slim| assert_eq!(slim, cell(seed)))
        })
        .count();
    assert_eq!(served, CACHE_SHARDS);
}

/// `count` distinct names no literal in the crate spells, leaked once each.
fn leaked_names(prefix: &str, count: usize) -> Vec<&'static str> {
    (0..count)
        .map(|i| &*Box::leak(format!("{prefix}.{i}").into_boxed_str()))
        .collect()
}

/// Every varint length from 1 to 10 bytes, and the bounds between them.
fn any_packed_u64(rng: &mut SplitMix64) -> u64 {
    const EDGES: [u64; 9] = [
        0,
        1,
        127,
        128,
        16_383,
        16_384,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];
    match rng.below(3) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => rng.below(1_000),
        _ => rng.next_u64() >> rng.below(64),
    }
}

/// `None`, `Some(Time(0))`, `Time(u64::MAX)`, or anything between.
fn any_packed_time(rng: &mut SplitMix64) -> Option<Time> {
    match rng.below(4) {
        0 => None,
        1 => Some(Time(0)),
        2 => Some(Time::INFINITY),
        _ => Some(Time(any_packed_u64(rng))),
    }
}

/// Empty, plain, multibyte and escape-heavy, or 4 kB of detail.
fn any_detail(rng: &mut SplitMix64) -> String {
    const PIECES: [&str; 8] = [
        "validity; 1 distinct decisions ≤ k = 1; termination; decide-once",
        "\"quoted\" \\ slash/",
        "\n\r\t\u{0}\u{1f}\u{7f}",
        " — π ",
        "𝔘𝕟𝕚",
        "🦀",
        "\u{fffd}\u{ffff}",
        "p3 never decided",
    ];
    match rng.below(6) {
        0 => String::new(),
        1 => "x".repeat(4096),
        _ => (0..rng.range(1, 8))
            .map(|_| *rng.choose(&PIECES).unwrap())
            .collect(),
    }
}

/// A random report of class `class`, its names drawn from `names`; its
/// counters number 0, 1–16, or 17–40.
fn any_packed_slim(rng: &mut SplitMix64, names: &[&'static str], class: usize) -> SlimReport {
    let name = |rng: &mut SplitMix64| *rng.choose(names).unwrap();
    let counters = match rng.below(4) {
        0 => 0,
        1 => rng.range(17, 41),
        _ => rng.range(1, 17),
    };
    SlimReport {
        scenario: name(rng),
        seed: any_packed_u64(rng),
        num_faulty: any_packed_u64(rng) as usize,
        check: CheckOutcome {
            ok: rng.chance(1, 2),
            stabilized_at: any_packed_time(rng),
            detail: any_detail(rng),
            class: ViolationClass::ALL[class % ViolationClass::ALL.len()],
        },
        metrics: Metrics {
            msgs_sent: any_packed_u64(rng),
            rb_sent: any_packed_u64(rng),
            delivered: any_packed_u64(rng),
            events: any_packed_u64(rng),
            max_round: any_packed_u64(rng),
            decided_values: (0..rng.below(5)).map(|_| any_packed_u64(rng)).collect(),
            first_decision: any_packed_time(rng),
            last_decision: any_packed_time(rng),
        },
        counters: (0..counters)
            .map(|_| (name(rng), any_packed_u64(rng)))
            .collect(),
    }
}

/// Pack → unpack is the identity over random reports and the edges of
/// every field, in one shard whose name table outgrows one-byte ids; every
/// cell still reads back after the table has grown past it.
#[test]
fn packed_cells_unpack_to_what_was_packed() {
    let mut rng = SplitMix64::new(0xCE11_9AC4);
    let names = leaked_names("packed", 200);
    let mut map = CellMap::new();
    let mut packed: Vec<((u64, u64), SlimReport)> = Vec::new();
    let mut put = |map: &mut CellMap, slim: SlimReport, salt: u64| {
        let key = (salt, slim.seed);
        map.insert(key, &slim);
        assert_eq!(map.get(key).as_ref(), Some(&slim), "{slim:?}");
        packed.push((key, slim));
    };

    let max = SlimReport {
        scenario: names[199],
        seed: u64::MAX,
        num_faulty: usize::MAX,
        check: CheckOutcome {
            ok: true,
            stabilized_at: Some(Time(u64::MAX)),
            detail: "x".repeat(4096),
            class: ViolationClass::Unclassified,
        },
        metrics: Metrics {
            msgs_sent: u64::MAX,
            rb_sent: u64::MAX,
            delivered: u64::MAX,
            events: u64::MAX,
            max_round: u64::MAX,
            decided_values: vec![u64::MAX; 3],
            first_decision: Some(Time(u64::MAX)),
            last_decision: Some(Time(u64::MAX)),
        },
        counters: names.iter().map(|&name| (name, u64::MAX)).collect(),
    };
    put(&mut map, max.clone(), u64::MAX);
    // `None` and `Some(Time(0))` are two different cells.
    let mut zero = SlimReport::default();
    zero.check.stabilized_at = Some(Time(0));
    zero.metrics.first_decision = Some(Time(0));
    put(&mut map, SlimReport::default(), 0);
    put(&mut map, zero.clone(), 1);
    assert_ne!(map.get((0, 0)), map.get((1, 0)));
    // Every class, passed and failed, with an empty and a multibyte detail.
    for (i, class) in ViolationClass::ALL.into_iter().enumerate() {
        for ok in [false, true] {
            let mut slim = zero.clone();
            slim.seed = i as u64;
            slim.check.ok = ok;
            slim.check.class = class;
            slim.check.detail = if ok {
                String::new()
            } else {
                "≤ \"π\"\n🦀".into()
            };
            put(&mut map, slim, 2 + ok as u64);
        }
    }
    for i in 0..2_000 {
        let slim = any_packed_slim(&mut rng, &names, i);
        put(&mut map, slim, rng.next_u64());
    }
    // The same text at another address is the same name: it packs to the
    // table's id, not to a new entry (whose id would take two bytes here).
    let copy: &'static str = Box::leak(names[7].to_string().into_boxed_str());
    let mut slim = max;
    slim.scenario = names[7];
    slim.counters = vec![(names[7], 1)];
    let before = map.packed_bytes();
    put(&mut map, slim.clone(), 2);
    let original = map.packed_bytes() - before;
    slim.scenario = copy;
    slim.counters = vec![(copy, 1), (names[7], 2)];
    put(&mut map, slim.clone(), 4);
    slim.counters.pop();
    let before = map.packed_bytes();
    put(&mut map, slim, 5);
    assert_eq!(map.packed_bytes() - before, original);

    assert_eq!(map.len(), packed.len());
    for (key, slim) in &packed {
        assert_eq!(map.get(*key).as_ref(), Some(slim));
    }
    let mut all: Vec<_> = map.iter().collect();
    all.sort_by_key(|(key, _)| *key);
    packed.sort_by_key(|(key, _)| *key);
    assert_eq!(all, packed);
}

/// The packed block is exactly its fields' bytes: a k-set-sized cell takes
/// about 100 of them, and a cell costs one allocation of that size.
#[test]
fn a_packed_cell_is_exactly_its_bytes() {
    let mut map = CellMap::new();
    let slim = SlimReport {
        scenario: "kset_omega",
        seed: 3,
        num_faulty: 2,
        check: CheckOutcome::pass(
            Some(Time(412)),
            "validity; 1 distinct decisions ≤ k = 1; termination; decide-once",
        ),
        metrics: Metrics {
            msgs_sent: 2_000,
            rb_sent: 40,
            delivered: 1_990,
            events: 4_100,
            max_round: 3,
            decided_values: vec![101],
            first_decision: Some(Time(430)),
            last_decision: Some(Time(512)),
        },
        counters: vec![
            ("sim.delivered", 1_990),
            ("sim.events", 4_100),
            ("sim.rb_sent", 40),
            ("sim.sent", 2_000),
        ],
    };
    map.insert((1, 3), &slim);
    // num_faulty 1, ok 1, class 1, stabilized 1 + 2, five metrics
    // 2 + 1 + 2 + 2 + 1, decided 1 + 1, two decisions 2 × (1 + 2),
    // scenario 1, counters 1 + 4 × 1 + (2 + 2 + 1 + 2), detail 66.
    let fields = 1 + 1 + 1 + 3 + 8 + 2 + 6 + 1 + 1 + 4 + 7;
    assert_eq!(map.packed_bytes(), fields + slim.check.detail.len());
    assert_eq!(map.packed_bytes(), 101);
    assert_eq!(map.get((1, 3)), Some(slim));
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

#[test]
fn sweep_find_is_the_same_search_at_every_thread_count() {
    // The probe decides its seed, so the first witness of "decided 13"
    // in 10..40 is seed 13; a miss walks the whole range.
    let base = ScenarioSpec::new(5, 2);
    let decided_13 = |slim: &SlimReport| slim.metrics.decided_values == [13];
    let never = |_: &SlimReport| false;
    // One search per thread count, each on a fresh cache: the seed found,
    // the tallies and the keys the cache stored (seen by the spill hook).
    let search = |threads: usize| {
        let cache = ReportCache::new();
        let stored: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
        let sink = Arc::clone(&stored);
        cache.set_spill(Some(Arc::new(move |salt, seed, _slim| {
            sink.lock().unwrap().push((salt, seed));
        })));
        let r = Runner::with_threads(threads).with_cache(&cache);
        let found = r
            .sweep_find(&Probe, &base, 10..40, decided_13)
            .map(|s| s.seed);
        let missed = r.sweep_find(&Probe, &base.clone().k(2), 0..5, never);
        assert_eq!(missed, None, "threads={threads}");
        let cold = (
            found,
            cache.hits(),
            cache.misses(),
            stored.lock().unwrap().clone(),
        );
        // A second pass over the warm cache computes nothing.
        assert_eq!(
            r.sweep_find(&Probe, &base, 10..40, decided_13)
                .map(|s| s.seed),
            found
        );
        assert_eq!(r.sweep_find(&Probe, &base.clone().k(2), 0..5, never), None);
        assert_eq!(
            cache.misses(),
            cold.2,
            "threads={threads}: warm pass missed"
        );
        assert_eq!(cache.hits(), cold.1 + cold.2, "threads={threads}");
        cold
    };
    let sequential = search(1);
    assert_eq!(sequential.0, Some(13));
    // Seeds 10..=13 of the first search, all five of the second.
    assert_eq!((sequential.1, sequential.2), (0, 9));
    assert_eq!(sequential.3.len(), 9);
    for threads in [2, 4] {
        assert_eq!(search(threads), sequential, "threads={threads}");
    }
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
