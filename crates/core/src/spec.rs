//! Problem-specification checkers for `k`-set agreement.
//!
//! The paper's definition (§1): every process proposes a value and every
//! non-faulty process must decide (termination) such that at most `k`
//! different values are decided (agreement) and every decided value is a
//! proposed value (validity). `k = 1` is consensus.

use fd_detectors::{CheckOutcome, ViolationClass};
use fd_sim::{FailurePattern, Trace};

/// **Validity**: every decided value was proposed.
pub fn validity(trace: &Trace, proposals: &[u64]) -> CheckOutcome {
    for d in trace.decisions() {
        if !proposals.contains(&d.value) {
            return CheckOutcome::fail_as(
                ViolationClass::Validity,
                format!(
                    "validity: {} decided {} which was never proposed",
                    d.by, d.value
                ),
            );
        }
    }
    CheckOutcome::pass(None, "validity")
}

/// **k-Agreement**: at most `k` distinct values are decided.
pub fn k_agreement(trace: &Trace, k: usize) -> CheckOutcome {
    let distinct = trace.decided_values();
    if distinct.len() > k {
        CheckOutcome::fail_as(
            ViolationClass::Agreement,
            format!(
                "agreement: {} distinct values decided ({distinct:?}) > k = {k}",
                distinct.len()
            ),
        )
    } else {
        CheckOutcome::pass(
            None,
            format!("{} distinct decisions ≤ k = {k}", distinct.len()),
        )
    }
}

/// **Termination**: every correct process decides (within the horizon).
pub fn termination(trace: &Trace, fp: &FailurePattern) -> CheckOutcome {
    let missing = fp.correct() - trace.deciders();
    if missing.is_empty() {
        CheckOutcome::pass(None, "termination")
    } else {
        CheckOutcome::fail_as(
            ViolationClass::Termination,
            format!("termination: correct {missing} never decided"),
        )
    }
}

/// **No duplicate decisions**: a process decides at most once.
pub fn decide_once(trace: &Trace) -> CheckOutcome {
    let mut seen = fd_sim::PSet::new();
    for d in trace.decisions() {
        if !seen.insert(d.by) {
            return CheckOutcome::fail_as(
                ViolationClass::DecideOnce,
                format!("{} decided twice", d.by),
            );
        }
    }
    CheckOutcome::pass(None, "decide-once")
}

/// The full `k`-set agreement specification. A safety violation outranks a
/// liveness one: a process that decides twice fails the run as
/// [`ViolationClass::DecideOnce`] even when a correct process also never
/// decided. (`and` keeps its first failure, so decide-once is conjoined
/// before termination when it fails; a pass still reads "validity; …;
/// termination; decide-once".)
pub fn kset_spec(trace: &Trace, fp: &FailurePattern, k: usize, proposals: &[u64]) -> CheckOutcome {
    let safety = validity(trace, proposals).and(k_agreement(trace, k));
    let once = decide_once(trace);
    if !once.ok {
        return safety.and(once);
    }
    safety.and(termination(trace, fp)).and(once)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::{ProcessId, Time};

    fn fp() -> FailurePattern {
        FailurePattern::builder(3)
            .crash(ProcessId(2), Time(10))
            .build()
    }

    #[test]
    fn validity_pass_fail() {
        let mut tr = Trace::new();
        tr.decide(Time(5), ProcessId(0), 7);
        assert!(validity(&tr, &[7, 9]).ok);
        assert!(!validity(&tr, &[9]).ok);
    }

    #[test]
    fn agreement_counts_distinct() {
        let mut tr = Trace::new();
        tr.decide(Time(1), ProcessId(0), 1);
        tr.decide(Time(2), ProcessId(1), 2);
        tr.decide(Time(3), ProcessId(2), 1);
        assert!(k_agreement(&tr, 2).ok);
        assert!(!k_agreement(&tr, 1).ok);
    }

    #[test]
    fn termination_needs_all_correct() {
        let mut tr = Trace::new();
        tr.decide(Time(1), ProcessId(0), 1);
        assert!(!termination(&tr, &fp()).ok);
        tr.decide(Time(2), ProcessId(1), 1);
        assert!(termination(&tr, &fp()).ok); // p3 is faulty, excused
    }

    #[test]
    fn decide_once_rejects_duplicates() {
        let mut tr = Trace::new();
        tr.decide(Time(1), ProcessId(0), 1);
        tr.decide(Time(2), ProcessId(0), 1);
        assert!(!decide_once(&tr).ok);
    }

    #[test]
    fn full_spec() {
        let mut tr = Trace::new();
        tr.decide(Time(1), ProcessId(0), 5);
        tr.decide(Time(2), ProcessId(1), 6);
        let out = kset_spec(&tr, &fp(), 2, &[5, 6]);
        assert!(out.ok, "{out}");
        assert!(!kset_spec(&tr, &fp(), 1, &[5, 6]).ok);
        assert_eq!(
            out.detail,
            "validity; 2 distinct decisions ≤ k = 2; termination; decide-once"
        );
    }

    /// p1 decides twice while the correct p2 never decides: the duplicate
    /// is a safety violation and must be what the run fails on, not the
    /// missing decision — `fd_bench::search` books termination failures as
    /// honest liveness refusals.
    #[test]
    fn duplicate_decision_outranks_missing_decision() {
        let mut tr = Trace::new();
        tr.decide(Time(1), ProcessId(0), 5);
        tr.decide(Time(2), ProcessId(0), 5);
        assert!(!termination(&tr, &fp()).ok);
        let out = kset_spec(&tr, &fp(), 1, &[5]);
        assert!(!out.ok);
        assert_eq!(out.class, ViolationClass::DecideOnce, "{out}");
        assert_eq!(out.detail, "p1 decided twice");
        // An earlier safety failure still comes first.
        let invalid = kset_spec(&tr, &fp(), 1, &[6]);
        assert_eq!(invalid.class, ViolationClass::Validity, "{invalid}");
    }
}
