//! Problem-specification checkers for `k`-set agreement.
//!
//! The paper's definition (§1): every process proposes a value and every
//! non-faulty process must decide (termination) such that at most `k`
//! different values are decided (agreement) and every decided value is a
//! proposed value (validity). `k = 1` is consensus.
//!
//! The clauses are written once, over a slice of decisions, beside the
//! class checkers in [`fd_detectors::check`]; this module re-exports them
//! and reads a whole run's [`Trace`] into the judge.

pub use fd_detectors::check::{decide_once, k_agreement, termination, validity};

use fd_detectors::check::{self, ChurnGuarantee};
use fd_detectors::CheckOutcome;
use fd_sim::{FailurePattern, Trace};

/// The full `k`-set agreement specification, liveness claimed
/// ([`check::kset_agreement`]). A safety violation outranks a liveness
/// one; a pass reads "validity; …; termination; decide-once".
pub fn kset_spec(trace: &Trace, fp: &FailurePattern, k: usize, proposals: &[u64]) -> CheckOutcome {
    check::kset_agreement(
        trace.decisions(),
        fp,
        k,
        proposals,
        ChurnGuarantee::Liveness,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::ViolationClass;
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
        assert!(validity(tr.decisions(), &[7, 9]).ok);
        assert!(!validity(tr.decisions(), &[9]).ok);
    }

    #[test]
    fn agreement_counts_distinct() {
        let mut tr = Trace::new();
        tr.decide(Time(1), ProcessId(0), 1);
        tr.decide(Time(2), ProcessId(1), 2);
        tr.decide(Time(3), ProcessId(2), 1);
        assert!(k_agreement(tr.decisions(), 2).ok);
        assert!(!k_agreement(tr.decisions(), 1).ok);
    }

    #[test]
    fn termination_needs_all_correct() {
        let mut tr = Trace::new();
        tr.decide(Time(1), ProcessId(0), 1);
        assert!(!termination(tr.decisions(), &fp()).ok);
        tr.decide(Time(2), ProcessId(1), 1);
        assert!(termination(tr.decisions(), &fp()).ok); // p3 is faulty, excused
    }

    #[test]
    fn decide_once_rejects_duplicates() {
        let mut tr = Trace::new();
        tr.decide(Time(1), ProcessId(0), 1);
        tr.decide(Time(2), ProcessId(0), 1);
        assert!(!decide_once(tr.decisions(), &fp()).ok);
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
        assert!(!termination(tr.decisions(), &fp()).ok);
        let out = kset_spec(&tr, &fp(), 1, &[5]);
        assert!(!out.ok);
        assert_eq!(out.class, ViolationClass::DecideOnce, "{out}");
        assert_eq!(out.detail, "p1 decided twice");
        // An earlier safety failure still comes first.
        let invalid = kset_spec(&tr, &fp(), 1, &[6]);
        assert_eq!(invalid.class, ViolationClass::Validity, "{invalid}");
    }
}
