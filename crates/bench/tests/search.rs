//! Shrinker soundness: the guarantees the adversary search's witness
//! minimizer must uphold for a checked-in reproducer to be trustworthy.
//! Every accepted shrink step still violates the original predicate at
//! the original seed (a trail is a chain of reproducers, not a log of
//! guesses), and the trail and the minimum are bit-identical across thread
//! counts (shrinking is a pure function of `(start, seed, class)`). That
//! every checked-in minimum is a fixed point is pinned beside the
//! witnesses, in `tests/scenario_engine.rs` at the workspace root.

use fd_bench::json::{self, Json};
use fd_bench::{classify, probe_specs, scenario_for, shrink, MinimalWitness, RunClass};
use fd_detectors::scenario::{CrashPlan, ReportCache, Runner, ScenarioSpec};
use fd_detectors::ViolationClass;
use fd_sim::{FailurePattern, MessageAdversary, MessageRule, ProcessId, Time};

/// A runner backed by `cache`.
fn runner(threads: usize, cache: &ReportCache) -> Runner<'_> {
    let runner = if threads == 0 {
        Runner::sequential()
    } else {
        Runner::with_threads(threads)
    };
    runner.with_cache(cache)
}

/// The violation `spec` shows at `seed`.
fn violation(spec: ScenarioSpec, seed: u64) -> (ScenarioSpec, u64, ViolationClass) {
    let rep = scenario_for(&spec).run(&spec.clone().seed(seed));
    assert_eq!(classify(&rep.check), RunClass::Violation, "{}", rep.check);
    (spec, seed, rep.check.class)
}

/// The probe witness: seed 0 of the live-corruption probe spec violates
/// validity (a corrupted estimate gets adopted and decided — Figure 3 has
/// no authentication).
fn probe_violation() -> (ScenarioSpec, u64, ViolationClass) {
    violation(probe_specs().remove(0), 0)
}

/// A validity violation that needs an explicit-pattern crash (p0 at tick
/// 1): without it, the same corruption breaks nothing at seed 0. A
/// shrinker that lowers `n` must not leave the 5-process pattern behind:
/// the engine panics on a pattern of the wrong size ("failure pattern
/// size mismatch").
fn explicit_crash_violation() -> (ScenarioSpec, u64, ViolationClass) {
    let spec = ScenarioSpec::new(5, 2)
        .kz(1)
        .adversary(MessageAdversary::from_rules(vec![MessageRule::corrupt(
            3, 7,
        )]))
        .max_time(Time(3000));
    let crash = FailurePattern::builder(5)
        .crash(ProcessId(0), Time(1))
        .build();
    let fine = scenario_for(&spec).run(&spec.clone().seed(0));
    assert_ne!(classify(&fine.check), RunClass::Violation, "{}", fine.check);
    violation(spec.crashes(CrashPlan::Explicit(crash)), 0)
}

#[test]
fn every_trail_spec_still_reproduces_the_violation() {
    for (start, seed, class) in [probe_violation(), explicit_crash_violation()] {
        let outcome = shrink(&runner(0, &ReportCache::new()), &start, seed, class);
        assert!(
            !outcome.trail.is_empty(),
            "{} must shrink",
            start.describe()
        );
        for step in &outcome.trail {
            let rep = scenario_for(&step.spec).run(&step.spec.clone().seed(seed));
            assert!(
                !rep.check.ok && rep.check.class == class,
                "step `{}` ({}) no longer reproduces [{}]: {}",
                step.pass,
                step.description,
                class.name(),
                rep.check
            );
        }
        // The trail ends at the minimum it claims.
        let last = &outcome.trail.last().unwrap().spec;
        assert_eq!(last.fingerprint(), outcome.spec.fingerprint());
    }
}

#[test]
fn shrinking_is_deterministic_across_threads_and_event_cores() {
    let (start, seed, class) = probe_violation();
    let baseline = shrink(&runner(1, &ReportCache::new()), &start, seed, class);
    let trail_of = |o: &fd_bench::ShrinkOutcome| {
        o.trail
            .iter()
            .map(|s| format!("{}: {}", s.pass, s.description))
            .collect::<Vec<_>>()
    };
    // Thread counts: shrink candidates are single-seed runs, which the
    // runner executes sequentially regardless — same trail, same minimum.
    let wide = shrink(&runner(4, &ReportCache::new()), &start, seed, class);
    assert_eq!(trail_of(&baseline), trail_of(&wide), "threads diverged");
    assert_eq!(baseline.spec.fingerprint(), wide.spec.fingerprint());
    let sequential = shrink(&runner(0, &ReportCache::new()), &start, seed, class);
    assert_eq!(
        trail_of(&baseline),
        trail_of(&sequential),
        "sequential runner diverged"
    );
}

/// The base document of the two decoder tests below: the validity witness
/// the search emits for the probe spec (checked in as a regression in
/// `tests/scenario_engine.rs` at the workspace root).
const MINIMAL_VALIDITY_WITNESS: &str = r#"{"class":"validity","description":"n=5 t=1 adversary=[{\"action\":\"corrupt\",\"active_from\":0,\"active_to\":1,\"bound\":1,\"from\":\"all\",\"pct\":22,\"to\":\"all\"}] delay={\"hi\":2,\"kind\":\"uniform\",\"lo\":0} gst=1 max_time=7","detail":"validity: p1 decided 99 which was never proposed","events":121,"fingerprint":5052432489911056619,"scenario":"kset_omega","schema":"fd-minimal-witness/1","seed":0,"shrink_steps":[],"spec":{"adversary":[{"action":"corrupt","active_from":0,"active_to":1,"bound":1,"from":"all","pct":22,"to":"all"}],"catch_up":false,"crashes":{"kind":"none"},"delay":{"hi":2,"kind":"uniform","lo":0},"delay_rules":[],"gst":1,"k":1,"max_steps":200000,"max_time":7,"n":5,"oracle":"omega","t":1,"topology":[],"x":1,"y":1,"z":1}}"#;

/// The decoder accepts any `u64` delay or epoch bound, so the engine must
/// replay them: a `Fixed(u64::MAX)` delay and a cut that heals at
/// `u64::MAX` deliver at `Time::INFINITY` (after the horizon) instead of
/// overflowing `Time` — a panic in debug, in release a message arriving
/// before it was sent or an rb crossing a permanent cut.
#[test]
fn endless_delays_and_cuts_replay_without_overflow() {
    let witness = edited(
        &json::parse(MINIMAL_VALIDITY_WITNESS).expect("parse witness"),
        "spec.max_time",
        "3000",
    );
    // Churn: the joiners broadcast at their join time, so `t ≥ 1`.
    const CHURN: &str = r#"{"kind":"churn","crash_by":10,"rejoin_after":5}"#;
    const NEVER: &str = r#"{"kind":"fixed","d":18446744073709551615}"#;
    const CUT: &str =
        r#"[{"from":0,"until":18446744073709551615,"islands":[[0,1,2,3],[4]],"overrides":[]}]"#;
    let slow = edited(
        &edited(&witness, "spec.delay", NEVER),
        "spec.crashes",
        CHURN,
    );
    // Nothing arrives; the mainland decides and its DECISION rb is held
    // at the cut for ever.
    for (doc, deciders) in [(slow, 0), (edited(&witness, "spec.topology", CUT), 4)] {
        let w = MinimalWitness::from_json(&doc).expect("decode witness");
        let rep = scenario_for(&w.spec).run(&w.spec.clone().seed(w.seed));
        assert_eq!(rep.trace.deciders().len(), deciders, "{}", rep.check);
    }
}

/// `doc` with the value at the dotted `path` (object keys, array indices)
/// replaced by the JSON text `value` — or, for `""`, the member removed.
fn edited(doc: &Json, path: &str, value: &str) -> Json {
    let (head, rest) = path.split_once('.').unwrap_or((path, ""));
    let mut doc = doc.clone();
    match &mut doc {
        Json::Obj(members) if !rest.is_empty() => {
            let child = edited(&members[head], rest, value);
            members.insert(head.to_string(), child);
        }
        Json::Obj(members) if value.is_empty() => {
            members.remove(head);
        }
        Json::Obj(members) => {
            members.insert(head.to_string(), json::parse(value).expect(value));
        }
        Json::Arr(items) => {
            let at: usize = head.parse().expect("array index");
            items[at] = edited(&items[at], rest, value);
        }
        other => panic!("{path} walks into {other:?}"),
    }
    doc
}

/// A witness file is outside input: a value the engine's constructors
/// would assert on — or an `as` cast would silently wrap — must fail the
/// load with an error naming the field. Before the decoder range-checked,
/// `"pct": 300` loaded as 44 %, `"spike_pct": 256` as 0, and `"n": 5000`,
/// `t ≥ n` or `"z": 0` panicked inside the engine at replay.
#[test]
fn out_of_range_witness_fields_fail_the_load_by_name() {
    let witness = json::parse(MINIMAL_VALIDITY_WITNESS).expect("parse witness");
    const SPIKY: &str = r#"{"kind":"spiky","lo":1,"hi":10,"spike_pct":256,"factor":2}"#;
    const CHURN: &str = r#"{"kind":"churn","crash_by":10,"rejoin_after":5}"#;
    // (path under the witness, replacement, what the error must name)
    let rejected = [
        ("spec.adversary.0.pct", "300", "`pct` is 300"),
        ("spec.adversary.0.pct", "101", "`pct` is 101"),
        (
            "spec.adversary.0.pct",
            "18446744073709551616",
            "`pct` is not a u64",
        ),
        ("spec.delay", SPIKY, "`spike_pct` is 256"),
        ("spec.n", "5000", "`n` is 5000"),
        ("spec.n", "1", "`n` is 1"),
        ("spec.n", "0", "`n` is 0"),
        ("spec.n", r#""five""#, "`n` is not a u64"),
        ("spec.t", "5", "`t` is 5"),
        ("spec.t", "4096", "`t` is 4096"),
        ("spec.k", "0", "`k` is 0"),
        ("spec.k", "6", "`k` is 6"),
        ("spec.x", "0", "`x` is 0"),
        ("spec.x", "6", "`x` is 6"),
        ("spec.y", "2", "`y` is 2"),
        ("spec.z", "0", "`z` is 0"),
        ("spec.z", "6", "`z` is 6"),
        (
            "spec.crashes",
            r#"{"kind":"random","f":3,"by":9}"#,
            "`f` is 3",
        ),
        ("spec.crashes", r#"{"kind":"initial","f":9}"#, "`f` is 9"),
        (
            "spec.crashes",
            r#"{"kind":"explicit"}"#,
            "missing `crash_at`",
        ),
        ("spec.crashes", r#"{"kind":"meteor"}"#, "unknown kind"),
        ("spec.adversary.0.from", "[0,5000]", "from: id 5000"),
        ("spec.gst", "", "missing `gst`"),
        ("spec.catch_up", "1", "`catch_up` is not a bool"),
        ("spec.topology", r#""none""#, "`topology` is not an array"),
        ("seed", r#""0""#, "`seed` is not a u64"),
        ("class", r#""liveliness""#, "unknown class"),
    ];
    for (path, value, names) in rejected {
        let err = MinimalWitness::from_json(&edited(&witness, path, value))
            .err()
            .unwrap_or_else(|| panic!("{path} := {value} was accepted"));
        assert!(err.contains(names), "{path} := {value}: {err}");
    }
    // Churn needs 2t ≤ n, as `CrashPlan::materialize` asserts.
    let churn = edited(&witness, "spec.crashes", CHURN);
    let crowded = edited(&edited(&churn, "spec.t", "2"), "spec.n", "3");
    let err = MinimalWitness::from_json(&crowded).unwrap_err();
    assert!(err.contains("2t ≤ n"), "{err}");
    // The bounds themselves are accepted: the checks are not off by one.
    let accepted = [
        ("spec.adversary.0.pct", "100"),
        ("spec.adversary.0.pct", "0"),
        ("spec.n", "1024"),
        ("spec.t", "4"),
        ("spec.k", "5"),
        ("spec.x", "5"),
        ("spec.y", "0"),
        ("spec.y", "1"),
        ("spec.z", "5"),
        ("spec.crashes", CHURN),
        ("spec.crashes", r#"{"kind":"initial","f":1}"#),
        (
            "spec.crashes",
            r#"{"kind":"explicit","crash_at":[null,null,null,null,3],"start_at":[0,0,0,0,0]}"#,
        ),
    ];
    for (path, value) in accepted {
        if let Err(err) = MinimalWitness::from_json(&edited(&witness, path, value)) {
            panic!("{path} := {value} was rejected: {err}");
        }
    }
}
