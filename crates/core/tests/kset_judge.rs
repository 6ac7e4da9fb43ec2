//! The one `k`-set agreement judge at the edge of each clause.
//!
//! Every case is a hand-built run just inside or just outside one clause —
//! validity, at most `k` distinct values, decide-once (twice, or before
//! the join), termination — scored four ways: `fd_core::spec::kset_spec`,
//! `churn_envelope` under both guarantees, and a one-instance repeated
//! run (`fd_core::repeated_spec`), whose proposals are the instance's. All
//! four are compositions of `fd_detectors::check::kset_agreement`, so each
//! case pins one verdict per claim.

use fd_core::repeated::proposal;
use fd_core::repeated_spec;
use fd_core::spec::kset_spec;
use fd_detectors::scenario::{churn_envelope, ChurnGuarantee};
use fd_detectors::ViolationClass::{self, Agreement, DecideOnce, Termination, Validity};
use fd_sim::{FailurePattern, ProcessId, Time, Trace};

const PASS: ViolationClass = ViolationClass::None;
const K: usize = 2;
const N: usize = 4;

/// p1 crashes at 10; p4 joins at 50. Correct: p2, p3, p4.
fn fp() -> FailurePattern {
    FailurePattern::builder(N)
        .crash(ProcessId(0), Time(10))
        .join(ProcessId(3), Time(50))
        .build()
}

/// What a decision decides: process `i`'s proposal, or a value nobody
/// proposed.
#[derive(Clone, Copy)]
enum V {
    Of(usize),
    Foreign,
}

/// The same run with proposals `100 + i` (the single-shot judges) and
/// with instance 0's (the repeated judge).
fn traces(ds: &[(u64, usize, V)]) -> (Trace, Trace) {
    let (mut single, mut repeated) = (Trace::new(), Trace::new());
    for &(at, by, v) in ds {
        let (a, b) = match v {
            V::Of(i) => (100 + i as u64, proposal(ProcessId(i), 0)),
            V::Foreign => (999, 999),
        };
        single.decide(Time(at), ProcessId(by), a);
        repeated.decide(Time(at), ProcessId(by), b);
    }
    (single, repeated)
}

/// The verdict classes of `ds` under kset_spec, churn safety-only, churn
/// liveness and one repeated instance, in that order.
fn classes(ds: &[(u64, usize, V)]) -> [ViolationClass; 4] {
    let (single, repeated) = traces(ds);
    let fp = fp();
    let proposals: Vec<u64> = (0..N as u64).map(|i| 100 + i).collect();
    [
        kset_spec(&single, &fp, K, &proposals),
        churn_envelope(&single, &fp, K, &proposals, ChurnGuarantee::SafetyOnly),
        churn_envelope(&single, &fp, K, &proposals, ChurnGuarantee::Liveness),
        repeated_spec(&repeated, &fp, K, 1),
    ]
    .map(|out| {
        assert_eq!(out.ok, out.class == ViolationClass::None, "{out}");
        out.class
    })
}

/// Two values among the correct processes, each decided once after its
/// decider started: inside every clause.
const BASE: [(u64, usize, V); 3] = [(20, 1, V::Of(1)), (25, 2, V::Of(2)), (60, 3, V::Of(1))];

fn base_and(extra: (u64, usize, V)) -> Vec<(u64, usize, V)> {
    let mut ds = BASE.to_vec();
    ds.push(extra);
    ds
}

#[test]
fn validity_boundary() {
    // The faulty p1 decides a proposed value, then one nobody proposed.
    assert_eq!(classes(&base_and((5, 0, V::Of(2)))), [PASS; 4]);
    assert_eq!(classes(&base_and((5, 0, V::Foreign))), [Validity; 4]);
}

#[test]
fn k_versus_k_plus_one_distinct_values() {
    // k = 2 values, then a third, decided by the faulty p1.
    assert_eq!(classes(&BASE), [PASS; 4]);
    assert_eq!(classes(&base_and((5, 0, V::Of(1)))), [PASS; 4]);
    assert_eq!(classes(&base_and((5, 0, V::Of(0)))), [Agreement; 4]);
}

#[test]
fn duplicate_decision_boundary() {
    // p2 decides again, the same value. In a repeated run a process's
    // second decision is its next instance's, which a one-instance
    // judgement leaves out.
    let twice = base_and((30, 1, V::Of(1)));
    assert_eq!(classes(&twice), [DecideOnce, DecideOnce, DecideOnce, PASS]);
}

#[test]
fn decision_before_the_join_boundary() {
    // p4 joins at 50: deciding at 50 is allowed, at 49 is not.
    let at = |t| [(20, 1, V::Of(1)), (25, 2, V::Of(2)), (t, 3, V::Of(1))];
    assert_eq!(classes(&at(50)), [PASS; 4]);
    assert_eq!(classes(&at(49)), [DecideOnce; 4]);
}

#[test]
fn one_correct_process_undecided() {
    // The faulty p1 never deciding is fine; the correct p4 is not, unless
    // liveness is not claimed.
    let without_p4 = &BASE[..2];
    assert_eq!(
        classes(without_p4),
        [Termination, PASS, Termination, Termination]
    );
}

/// Safety outranks liveness in every judge: a foreign value with a
/// correct process undecided fails as validity.
#[test]
fn safety_outranks_termination() {
    let ds = [(20, 1, V::Of(1)), (25, 2, V::Foreign)];
    assert_eq!(classes(&ds), [Validity; 4]);
}

/// `kset_spec`'s detail strings, pass and fail, word for word — the
/// checked-in search witnesses carry them.
#[test]
fn kset_spec_details_are_pinned() {
    let fp = fp();
    let proposals = [100, 101, 102, 103];
    let detail = |ds: &[(u64, usize, V)]| kset_spec(&traces(ds).0, &fp, K, &proposals).detail;
    assert_eq!(
        detail(&BASE),
        "validity; 2 distinct decisions ≤ k = 2; termination; decide-once"
    );
    assert_eq!(
        detail(&base_and((5, 0, V::Foreign))),
        "validity: p1 decided 999 which was never proposed"
    );
    assert_eq!(
        detail(&base_and((5, 0, V::Of(0)))),
        "agreement: 3 distinct values decided ([100, 101, 102]) > k = 2"
    );
    assert_eq!(detail(&base_and((30, 1, V::Of(1)))), "p2 decided twice");
    assert_eq!(
        detail(&[(20, 1, V::Of(1)), (25, 2, V::Of(2)), (49, 3, V::Of(1))]),
        "p4 decided at t=49 before joining at t=50"
    );
    assert_eq!(
        detail(&BASE[..2]),
        "termination: correct {p4} never decided"
    );
}

/// A repeated run is judged over every decider, not only the correct
/// ones: the faulty p1 deciding a value foreign to instance 1, or a
/// (k+1)-th value of it, fails the run.
#[test]
fn repeated_run_bounds_faulty_deciders() {
    let fp = fp();
    let k = 1;
    let run = |p1_in_instance_1: u64| {
        let mut tr = Trace::new();
        tr.decide(Time(2), ProcessId(0), proposal(ProcessId(1), 0));
        tr.decide(Time(8), ProcessId(0), p1_in_instance_1);
        for (i, p) in [1, 2, 3].map(ProcessId).into_iter().enumerate() {
            tr.decide(Time(60 + i as u64), p, proposal(ProcessId(1), 0));
            tr.decide(Time(90 + i as u64), p, proposal(ProcessId(2), 1));
        }
        repeated_spec(&tr, &fp, k, 2)
    };
    let same = run(proposal(ProcessId(2), 1));
    assert!(same.ok, "{same}");
    assert_eq!(same.detail, "2 instances");

    let foreign = run(proposal(ProcessId(0), 0));
    assert_eq!(foreign.class, Validity, "{foreign}");
    assert_eq!(
        foreign.detail,
        "instance 1: validity: p1 decided 1000 which was never proposed"
    );

    let second_value = run(proposal(ProcessId(0), 1));
    assert_eq!(second_value.class, Agreement, "{second_value}");
    assert_eq!(
        second_value.detail,
        "instance 1: agreement: 2 distinct values decided ([2000, 2002]) > k = 1"
    );
}
