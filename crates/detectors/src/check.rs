//! Trace-based property checkers for every failure-detector class.
//!
//! Each checker takes a recorded [`Trace`] (with its observation horizon)
//! and the run's [`FailurePattern`], and decides whether the published
//! histories satisfy the class definition. Eventual properties are verified
//! *suffix-style*: the checker searches for a stabilization point `τ` and
//! requires the property to hold from `τ` through the horizon, with a
//! caller-chosen `margin` separating `τ` from the horizon so that "held in
//! the last instant by luck" does not count as stabilization.
//!
//! These checkers are what turns the paper's theorems into executable
//! experiments: a transformation *works* iff its output trace passes the
//! checker of the class it claims to build, across many seeds and
//! adversarial schedules — and *fails witnessed* when run outside its valid
//! parameter range.

use fd_sim::{slot, FailurePattern, FdValue, History, OracleSuite, PSet, ProcessId, Time, Trace};
use std::fmt;

/// Machine-readable classification of a failed check — *which* predicate
/// of the problem spec or detector-class definition was violated.
///
/// Until this type existed, distinguishing "validity broke" from "liveness
/// was honestly refused" meant string-matching on [`CheckOutcome::detail`],
/// which is exactly the kind of contract a fuzzer cannot build on. Every
/// checker now tags its failures with a class via
/// [`CheckOutcome::fail_as`]; the adversary search engine
/// (`fd_bench::search`) keys its expected-pass / honest-liveness-refusal /
/// checker-violation triage on [`ViolationClass::is_safety`].
///
/// The class is part of the durable sweep-store cell format (encoded by
/// name, see `fd_bench::store`), so [`ViolationClass::name`] /
/// [`ViolationClass::from_name`] round-trip every variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationClass {
    /// No violation: the check passed.
    None,
    /// A decided value was never proposed (k-set validity).
    Validity,
    /// More than `k` distinct values decided (k-set agreement).
    Agreement,
    /// A process decided twice, or decided before it joined the run.
    DecideOnce,
    /// A correct process never decided within the horizon (termination /
    /// churn liveness).
    Termination,
    /// A crashed process was never permanently suspected (strong
    /// completeness).
    Completeness,
    /// No scope of the required size eventually protects a correct
    /// process (limited-scope accuracy).
    Accuracy,
    /// The trusted outputs never converge to a valid leader set (`Ω_z`
    /// eventual leadership).
    Leadership,
    /// A live process was suspected (perpetual accuracy of `P`).
    Slander,
    /// A `φ_y` query answer broke the triviality/safety/liveness audit.
    PhiAudit,
    /// A failure produced by the legacy [`CheckOutcome::fail`] constructor
    /// with no class attached. Counted as a safety violation so that
    /// unclassified failures surface loudly instead of being filed as
    /// honest refusals.
    Unclassified,
}

impl ViolationClass {
    /// Every variant, in a stable order (schema enumeration for docs and
    /// round-trip tests).
    pub const ALL: [ViolationClass; 11] = [
        ViolationClass::None,
        ViolationClass::Validity,
        ViolationClass::Agreement,
        ViolationClass::DecideOnce,
        ViolationClass::Termination,
        ViolationClass::Completeness,
        ViolationClass::Accuracy,
        ViolationClass::Leadership,
        ViolationClass::Slander,
        ViolationClass::PhiAudit,
        ViolationClass::Unclassified,
    ];

    /// Stable wire name (the on-disk encoding of the class).
    pub fn name(self) -> &'static str {
        match self {
            ViolationClass::None => "none",
            ViolationClass::Validity => "validity",
            ViolationClass::Agreement => "agreement",
            ViolationClass::DecideOnce => "decide_once",
            ViolationClass::Termination => "termination",
            ViolationClass::Completeness => "completeness",
            ViolationClass::Accuracy => "accuracy",
            ViolationClass::Leadership => "leadership",
            ViolationClass::Slander => "slander",
            ViolationClass::PhiAudit => "phi_audit",
            ViolationClass::Unclassified => "unclassified",
        }
    }

    /// Parses a wire name back to the class (`None` for unknown names).
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Whether a violation of this class breaks a *safety* guarantee.
    ///
    /// Safety classes must never fail, under any adversary the model
    /// admits — a safety-class failure is a checker violation worth a
    /// minimal witness. Liveness-flavoured classes (termination and the
    /// eventual detector properties) are honestly refusable: an
    /// above-tolerance drop rate or an unhealed partition is *supposed*
    /// to starve them.
    pub fn is_safety(self) -> bool {
        match self {
            ViolationClass::Validity
            | ViolationClass::Agreement
            | ViolationClass::DecideOnce
            | ViolationClass::Slander
            | ViolationClass::PhiAudit
            | ViolationClass::Unclassified => true,
            ViolationClass::None
            | ViolationClass::Termination
            | ViolationClass::Completeness
            | ViolationClass::Accuracy
            | ViolationClass::Leadership => false,
        }
    }
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of one property check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the property holds over the observation window.
    pub ok: bool,
    /// The detected stabilization point (when meaningful).
    pub stabilized_at: Option<Time>,
    /// Human-readable explanation, most useful on failure.
    pub detail: String,
    /// Which predicate failed ([`ViolationClass::None`] on a pass).
    pub class: ViolationClass,
}

impl CheckOutcome {
    /// A passing outcome (optionally carrying the stabilization point).
    pub fn pass(stabilized_at: Option<Time>, detail: impl Into<String>) -> Self {
        CheckOutcome {
            ok: true,
            stabilized_at,
            detail: detail.into(),
            class: ViolationClass::None,
        }
    }

    /// A failing outcome with an explanation but no machine-readable
    /// class ([`ViolationClass::Unclassified`]). Prefer
    /// [`CheckOutcome::fail_as`] in checkers — unclassified failures are
    /// conservatively triaged as safety violations downstream.
    pub fn fail(detail: impl Into<String>) -> Self {
        Self::fail_as(ViolationClass::Unclassified, detail)
    }

    /// A failing outcome tagged with the violated predicate's class.
    pub fn fail_as(class: ViolationClass, detail: impl Into<String>) -> Self {
        CheckOutcome {
            ok: false,
            stabilized_at: None,
            detail: detail.into(),
            class,
        }
    }

    /// Combines two outcomes conjunctively. On failure the *first* failing
    /// operand's class and detail win (checkers short-circuit the same
    /// way), so `a.and(b)` classifies like `a` when both fail.
    pub fn and(self, other: CheckOutcome) -> CheckOutcome {
        CheckOutcome {
            ok: self.ok && other.ok,
            stabilized_at: match (self.stabilized_at, other.stabilized_at) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            class: if !self.ok {
                self.class
            } else if !other.ok {
                other.class
            } else {
                ViolationClass::None
            },
            detail: if self.ok && other.ok {
                format!("{}; {}", self.detail, other.detail)
            } else if !self.ok {
                self.detail
            } else {
                other.detail
            },
        }
    }
}

impl fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}",
            if self.ok { "PASS" } else { "FAIL" },
            self.detail
        )
    }
}

/// Earliest time `τ < end` such that `pred` holds for every value in force
/// on `[τ, end)`. `None` if the final value violates `pred` or the history
/// is empty before `end`.
fn suffix_start(h: &History, end: Time, mut pred: impl FnMut(FdValue) -> bool) -> Option<Time> {
    let mut candidate: Option<Time> = None;
    let mut any = false;
    for s in h.samples() {
        if s.at >= end {
            break;
        }
        any = true;
        if pred(s.value) {
            candidate.get_or_insert(s.at);
        } else {
            candidate = None;
        }
    }
    if any {
        candidate
    } else {
        None
    }
}

/// **Strong completeness** (classes `S_x`, `◇S_x`, `P`, `◇P`):
/// eventually every crashed process is permanently suspected by every
/// correct process. Verified on the `slot::SUSPECTED` histories.
pub fn strong_completeness(trace: &Trace, fp: &FailurePattern, margin: u64) -> CheckOutcome {
    let horizon = trace.horizon();
    let faulty = fp.faulty();
    if faulty.is_empty() {
        return CheckOutcome::pass(Some(Time::ZERO), "completeness vacuous (no crashes)");
    }
    let mut worst = Time::ZERO;
    for i in fp.correct() {
        let h = trace.history(i, slot::SUSPECTED);
        match suffix_start(h, horizon, |v| faulty.is_subset(v.as_set())) {
            None => {
                return CheckOutcome::fail_as(
                    ViolationClass::Completeness,
                    format!(
                        "completeness: {i} does not permanently suspect all of {faulty} \
                         (last suspicion set: {:?})",
                        h.last()
                    ),
                )
            }
            Some(tau) => worst = worst.max(tau),
        }
    }
    if horizon.ticks().saturating_sub(worst.ticks()) < margin {
        return CheckOutcome::fail_as(
            ViolationClass::Completeness,
            format!("completeness stabilized only at {worst} (< margin {margin} before {horizon})"),
        );
    }
    CheckOutcome::pass(Some(worst), format!("completeness from {worst}"))
}

/// **Limited-scope weak accuracy** of scope size `x`
/// (perpetual for `S_x`, eventual for `◇S_x`): there is a set `Q` of `x`
/// processes containing a correct `ℓ` that no member of `Q` suspects —
/// from `start_slack` on (perpetual) or from some time on (eventual).
///
/// `perpetual` selects the variant; `start_slack` is the grace period the
/// perpetual check allows for the first publication of each history.
pub fn limited_scope_accuracy(
    trace: &Trace,
    fp: &FailurePattern,
    x: usize,
    perpetual: bool,
    margin: u64,
    start_slack: u64,
) -> CheckOutcome {
    let horizon = trace.horizon();
    let n = fp.n();
    let mut best: Option<(Time, ProcessId, PSet)> = None;
    for ell in fp.correct() {
        // For each process j: earliest time from which j (while alive)
        // never suspects ℓ.
        let mut taus: Vec<(Time, ProcessId)> = Vec::new();
        let mut tau_ell: Option<Time> = None;
        for j in (0..n).map(ProcessId) {
            let end = fp.crash_time(j).unwrap_or(Time::INFINITY).min(horizon);
            let h = trace.history(j, slot::SUSPECTED);
            let published_before_end = h.samples().iter().any(|s| s.at < end);
            let tau = if !published_before_end {
                if fp.is_correct(j) {
                    None // a silent correct process cannot certify anything
                } else {
                    // Crashed before publishing anything: vacuously
                    // compliant (a crashed process suspects no one).
                    Some(Time::ZERO)
                }
            } else {
                match suffix_start(h, end, |v| !v.as_set().contains(ell)) {
                    Some(tau) => Some(tau),
                    // A faulty process that suspected ℓ up to its crash
                    // becomes vacuously compliant at the crash instant.
                    None if !fp.is_correct(j) => Some(end),
                    None => None,
                }
            };
            if let Some(tau) = tau {
                if j == ell {
                    tau_ell = Some(tau);
                } else {
                    taus.push((tau, j));
                }
            }
        }
        let Some(tau_ell) = tau_ell else { continue };
        if taus.len() + 1 < x {
            continue;
        }
        taus.sort();
        let mut q = PSet::singleton(ell);
        let mut tau_star = tau_ell;
        for &(tau, j) in taus.iter().take(x - 1) {
            q.insert(j);
            tau_star = tau_star.max(tau);
        }
        if best.as_ref().is_none_or(|(t, _, _)| tau_star < *t) {
            best = Some((tau_star, ell, q));
        }
    }
    match best {
        None => CheckOutcome::fail_as(
            ViolationClass::Accuracy,
            format!(
                "accuracy(x={x}): no correct process is eventually unsuspected by {x} processes"
            ),
        ),
        Some((tau, ell, q)) => {
            if perpetual && tau.ticks() > start_slack {
                return CheckOutcome::fail_as(
                    ViolationClass::Accuracy,
                    format!(
                        "perpetual accuracy(x={x}): best scope {q} protects {ell} only from {tau} \
                         (> start slack {start_slack})"
                    ),
                );
            }
            if horizon.ticks().saturating_sub(tau.ticks()) < margin {
                return CheckOutcome::fail_as(
                    ViolationClass::Accuracy,
                    format!(
                        "accuracy(x={x}): stabilized only at {tau} \
                         (< margin {margin} before {horizon})"
                    ),
                );
            }
            CheckOutcome::pass(
                Some(tau),
                format!("accuracy: {q} never suspects {ell} from {tau}"),
            )
        }
    }
}

/// **Eventual multiple leadership** (class `Ω_z`): there is a time after
/// which all correct processes output the same `trusted` set, of size at
/// most `z`, containing at least one correct process. Verified on the
/// `slot::TRUSTED` histories.
pub fn eventual_leadership(
    trace: &Trace,
    fp: &FailurePattern,
    z: usize,
    margin: u64,
) -> CheckOutcome {
    let horizon = trace.horizon();
    let mut common: Option<PSet> = None;
    let mut tau = Time::ZERO;
    for i in fp.correct() {
        let h = trace.history(i, slot::TRUSTED);
        let Some(last) = h.last() else {
            return CheckOutcome::fail_as(
                ViolationClass::Leadership,
                format!("leadership: correct {i} never published trusted_i"),
            );
        };
        let set = last.as_set();
        match common {
            None => common = Some(set),
            Some(c) if c != set => {
                return CheckOutcome::fail_as(
                    ViolationClass::Leadership,
                    format!(
                        "leadership: correct processes disagree at horizon ({c} vs {set} at {i})"
                    ),
                )
            }
            _ => {}
        }
        tau = tau.max(h.last_change().unwrap_or(Time::ZERO));
    }
    let Some(l) = common else {
        return CheckOutcome::fail_as(
            ViolationClass::Leadership,
            "leadership: no correct process".to_string(),
        );
    };
    if l.len() > z {
        return CheckOutcome::fail_as(
            ViolationClass::Leadership,
            format!(
                "leadership: eventual set {l} has {} members (> z = {z})",
                l.len()
            ),
        );
    }
    if (l & fp.correct()).is_empty() {
        return CheckOutcome::fail_as(
            ViolationClass::Leadership,
            format!("leadership: eventual set {l} contains no correct process"),
        );
    }
    if horizon.ticks().saturating_sub(tau.ticks()) < margin {
        return CheckOutcome::fail_as(
            ViolationClass::Leadership,
            format!("leadership: last change at {tau} (< margin {margin} before {horizon})"),
        );
    }
    CheckOutcome::pass(Some(tau), format!("Ω_{z} leadership on {l} from {tau}"))
}

/// **Perpetual perfection** (class `P` accuracy): no process ever suspects
/// a process that has not crashed yet.
pub fn never_slanders(trace: &Trace, fp: &FailurePattern) -> CheckOutcome {
    for i in (0..fp.n()).map(ProcessId) {
        let h = trace.history(i, slot::SUSPECTED);
        for s in h.samples() {
            let crashed = fp.crashed_at(s.at);
            let v = s.value.as_set();
            if !v.is_subset(crashed) {
                return CheckOutcome::fail_as(
                    ViolationClass::Slander,
                    format!(
                        "perfection: {i} suspected {} at {} while alive",
                        v - crashed,
                        s.at
                    ),
                );
            }
        }
    }
    CheckOutcome::pass(Some(Time::ZERO), "no live process ever suspected")
}

/// Full `◇S_x` check: strong completeness ∧ eventual limited-scope accuracy.
pub fn diamond_s_x(trace: &Trace, fp: &FailurePattern, x: usize, margin: u64) -> CheckOutcome {
    strong_completeness(trace, fp, margin)
        .and(limited_scope_accuracy(trace, fp, x, false, margin, 0))
}

/// Full `S_x` check: strong completeness ∧ perpetual limited-scope accuracy
/// (allowing `start_slack` ticks for first publications).
pub fn s_x(
    trace: &Trace,
    fp: &FailurePattern,
    x: usize,
    margin: u64,
    start_slack: u64,
) -> CheckOutcome {
    strong_completeness(trace, fp, margin).and(limited_scope_accuracy(
        trace,
        fp,
        x,
        true,
        margin,
        start_slack,
    ))
}

/// Full `Ω_z` check (alias of [`eventual_leadership`]).
pub fn omega_z(trace: &Trace, fp: &FailurePattern, z: usize, margin: u64) -> CheckOutcome {
    eventual_leadership(trace, fp, z, margin)
}

/// Full `P` check: perfection ∧ completeness.
pub fn perfect_p(trace: &Trace, fp: &FailurePattern, margin: u64) -> CheckOutcome {
    never_slanders(trace, fp).and(strong_completeness(trace, fp, margin))
}

/// Audits a query-style oracle *directly* against the `φ_y` / `◇φ_y`
/// definition by probing it over a time grid:
///
/// * **triviality** at every probe time (`|X| ≤ t−y ⇒ true`,
///   `|X| > t ⇒ false`);
/// * **safety** for meaningful sets containing a correct process, at probe
///   times `≥ check_from` (pass `Time::ZERO` for perpetual `φ_y`, the
///   stabilization time for `◇φ_y`);
/// * **liveness** for fully-crashed meaningful sets in the last tenth of
///   the window (`true` expected there, forever).
pub fn audit_phi<O: OracleSuite + ?Sized>(
    oracle: &mut O,
    fp: &FailurePattern,
    t: usize,
    y: usize,
    check_from: Time,
    horizon: Time,
) -> CheckOutcome {
    let n = fp.n();
    let probe_times: Vec<Time> = (0..=20).map(|i| Time(horizon.ticks() * i / 20)).collect();
    let correct = fp.correct();
    let faulty = fp.faulty();
    let asker = correct.min().expect("a correct process");

    // Build probe sets of each interesting size.
    let mut small = PSet::new();
    for p in (0..n).map(ProcessId).take(t.saturating_sub(y)) {
        small.insert(p);
    }
    let big: PSet = (0..(t + 1).min(n)).map(ProcessId).collect();
    // A meaningful set containing a correct process.
    let meaningful_size = (t - y + 1).min(t);
    let mut with_correct = PSet::singleton(asker);
    for p in (0..n).map(ProcessId) {
        if with_correct.len() >= meaningful_size {
            break;
        }
        with_correct.insert(p);
    }
    // A meaningful fully-faulty set, if the pattern allows one.
    let dead: Option<PSet> = if faulty.len() >= meaningful_size && meaningful_size >= 1 {
        Some(faulty.iter().take(meaningful_size).collect())
    } else {
        None
    };

    for &tau in &probe_times {
        if !small.is_empty() && !oracle.query(asker, small, tau) {
            return CheckOutcome::fail_as(
                ViolationClass::PhiAudit,
                format!("φ triviality: |X|≤t−y answered false at {tau}"),
            );
        }
        if big.len() > t && oracle.query(asker, big, tau) {
            return CheckOutcome::fail_as(
                ViolationClass::PhiAudit,
                format!("φ triviality: |X|>t answered true at {tau}"),
            );
        }
        if with_correct.len() > t.saturating_sub(y)
            && tau >= check_from
            && oracle.query(asker, with_correct, tau)
        {
            return CheckOutcome::fail_as(
                ViolationClass::PhiAudit,
                format!(
                    "φ safety: {with_correct} (contains correct {asker}) answered true at {tau}"
                ),
            );
        }
    }
    if let Some(dead) = dead {
        if dead.len() > t.saturating_sub(y) {
            let late_from = Time(horizon.ticks() - horizon.ticks() / 10);
            for &tau in probe_times.iter().filter(|&&tau| tau >= late_from) {
                if !oracle.query(asker, dead, tau) {
                    return CheckOutcome::fail_as(
                        ViolationClass::PhiAudit,
                        format!("φ liveness: fully-crashed {dead} still answered false at {tau}"),
                    );
                }
            }
        }
    }
    CheckOutcome::pass(Some(check_from), "φ triviality/safety/liveness audit")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(ids: &[usize]) -> PSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    /// n=4; p4 crashes at 50.
    fn fp() -> FailurePattern {
        FailurePattern::builder(4)
            .crash(ProcessId(3), Time(50))
            .build()
    }

    fn base_trace(horizon: u64) -> Trace {
        let mut t = Trace::new();
        t.set_horizon(Time(horizon));
        t
    }

    #[test]
    fn completeness_pass_and_fail() {
        let fp = fp();
        let mut tr = base_trace(1000);
        for i in 0..3 {
            let p = ProcessId(i);
            tr.publish(p, slot::SUSPECTED, Time(1), FdValue::Set(PSet::EMPTY));
            tr.publish(p, slot::SUSPECTED, Time(60), FdValue::Set(ps(&[3])));
        }
        assert!(strong_completeness(&tr, &fp, 100).ok);

        // p1 later unsuspects the crashed process: must fail.
        let mut bad = tr.clone();
        bad.publish(
            ProcessId(0),
            slot::SUSPECTED,
            Time(900),
            FdValue::Set(PSet::EMPTY),
        );
        assert!(!strong_completeness(&bad, &fp, 10).ok);
    }

    #[test]
    fn completeness_vacuous_without_crashes() {
        let fp = FailurePattern::all_correct(3);
        let tr = base_trace(100);
        assert!(strong_completeness(&tr, &fp, 10).ok);
    }

    #[test]
    fn completeness_respects_margin() {
        let fp = fp();
        let mut tr = base_trace(100);
        for i in 0..3 {
            let p = ProcessId(i);
            tr.publish(p, slot::SUSPECTED, Time(95), FdValue::Set(ps(&[3])));
        }
        assert!(!strong_completeness(&tr, &fp, 50).ok);
        assert!(strong_completeness(&tr, &fp, 5).ok);
    }

    /// Publishes a "suspicion cycle" among the correct p1, p2, p3 (each
    /// permanently suspects the next one and the faulty p4), so no scope of
    /// size 4 can protect anyone.
    fn cycle_trace() -> Trace {
        let mut tr = base_trace(1000);
        tr.publish(
            ProcessId(0),
            slot::SUSPECTED,
            Time(1),
            FdValue::Set(ps(&[1, 3])),
        );
        tr.publish(
            ProcessId(1),
            slot::SUSPECTED,
            Time(1),
            FdValue::Set(ps(&[2, 3])),
        );
        tr.publish(
            ProcessId(2),
            slot::SUSPECTED,
            Time(1),
            FdValue::Set(ps(&[0, 3])),
        );
        tr
    }

    #[test]
    fn accuracy_eventual_finds_scope() {
        let fp = fp();
        let tr = cycle_trace();
        // ℓ = p1 is protected by Q = {p1, p2, p4} (p2 never suspects p1;
        // the silent crashed p4 joins vacuously): x = 3 passes.
        let out = limited_scope_accuracy(&tr, &fp, 3, false, 100, 0);
        assert!(out.ok, "{out}");
        // x = 4 needs every process, but the cycle means each correct
        // process is permanently suspected by some correct process: fail.
        let out = limited_scope_accuracy(&tr, &fp, 4, false, 100, 0);
        assert!(!out.ok, "{out}");
    }

    #[test]
    fn accuracy_perpetual_requires_early_protection() {
        let fp = fp();
        // Early protection: scopes exist from the first samples.
        assert!(limited_scope_accuracy(&cycle_trace(), &fp, 3, true, 100, 5).ok);

        // Now everyone (including the faulty p4, until its crash at 50)
        // suspects every other process; p2 releases p1 only at time 400.
        let mut late = base_trace(1000);
        late.publish(
            ProcessId(0),
            slot::SUSPECTED,
            Time(1),
            FdValue::Set(ps(&[1, 2, 3])),
        );
        late.publish(
            ProcessId(1),
            slot::SUSPECTED,
            Time(1),
            FdValue::Set(ps(&[0, 2, 3])),
        );
        late.publish(
            ProcessId(1),
            slot::SUSPECTED,
            Time(400),
            FdValue::Set(ps(&[2, 3])),
        );
        late.publish(
            ProcessId(2),
            slot::SUSPECTED,
            Time(1),
            FdValue::Set(ps(&[0, 1, 3])),
        );
        late.publish(
            ProcessId(3),
            slot::SUSPECTED,
            Time(1),
            FdValue::Set(ps(&[0, 1, 2])),
        );
        assert!(!limited_scope_accuracy(&late, &fp, 2, true, 100, 5).ok);
        assert!(limited_scope_accuracy(&late, &fp, 2, false, 100, 5).ok);
    }

    #[test]
    fn accuracy_faulty_member_vacuous_from_crash() {
        // Everyone suspects all others; p4 does too until it crashes at 50.
        // The best eventual scope is {ℓ, p4}, stabilizing exactly at the
        // crash instant.
        let fp = fp();
        let mut tr = base_trace(1000);
        for i in 0..4usize {
            let p = ProcessId(i);
            tr.publish(
                p,
                slot::SUSPECTED,
                Time(1),
                FdValue::Set(PSet::full(4) - PSet::singleton(p)),
            );
        }
        let out = limited_scope_accuracy(&tr, &fp, 2, false, 100, 0);
        assert!(out.ok, "{out}");
        assert_eq!(out.stabilized_at, Some(Time(50)));
        // But that scope is not perpetual.
        assert!(!limited_scope_accuracy(&tr, &fp, 2, true, 100, 5).ok);
    }

    #[test]
    fn accuracy_counts_crashed_members_vacuously() {
        // Scope can include the crashed p4, which published nothing.
        let fp = fp();
        let mut tr = base_trace(1000);
        for i in 0..3 {
            let p = ProcessId(i);
            // Everyone permanently suspects p1 except p1 itself.
            let s = if i == 0 { ps(&[3]) } else { ps(&[0, 3]) };
            tr.publish(p, slot::SUSPECTED, Time(1), FdValue::Set(s));
        }
        // Q = {p1, p4}: p4 crashed (vacuous), p1 doesn't suspect itself.
        let out = limited_scope_accuracy(&tr, &fp, 2, false, 100, 0);
        assert!(out.ok, "{out}");
    }

    #[test]
    fn leadership_pass() {
        let fp = fp();
        let mut tr = base_trace(1000);
        for i in 0..3 {
            let p = ProcessId(i);
            tr.publish(p, slot::TRUSTED, Time(1), FdValue::Set(ps(&[i])));
            tr.publish(p, slot::TRUSTED, Time(200), FdValue::Set(ps(&[1, 3])));
        }
        let out = eventual_leadership(&tr, &fp, 2, 100);
        assert!(out.ok, "{out}");
        assert_eq!(out.stabilized_at, Some(Time(200)));
    }

    #[test]
    fn leadership_fails_on_disagreement_size_and_faulty_only() {
        let fp = fp();
        // Disagreement.
        let mut tr = base_trace(1000);
        tr.publish(ProcessId(0), slot::TRUSTED, Time(1), FdValue::Set(ps(&[0])));
        tr.publish(ProcessId(1), slot::TRUSTED, Time(1), FdValue::Set(ps(&[1])));
        tr.publish(ProcessId(2), slot::TRUSTED, Time(1), FdValue::Set(ps(&[1])));
        assert!(!eventual_leadership(&tr, &fp, 2, 10).ok);

        // Size too big for z = 1.
        let mut tr = base_trace(1000);
        for i in 0..3 {
            tr.publish(
                ProcessId(i),
                slot::TRUSTED,
                Time(1),
                FdValue::Set(ps(&[0, 1])),
            );
        }
        assert!(!eventual_leadership(&tr, &fp, 1, 10).ok);
        assert!(eventual_leadership(&tr, &fp, 2, 10).ok);

        // Only-faulty leader set.
        let mut tr = base_trace(1000);
        for i in 0..3 {
            tr.publish(ProcessId(i), slot::TRUSTED, Time(1), FdValue::Set(ps(&[3])));
        }
        assert!(!eventual_leadership(&tr, &fp, 1, 10).ok);
    }

    #[test]
    fn leadership_requires_all_correct_published() {
        let fp = fp();
        let mut tr = base_trace(1000);
        tr.publish(ProcessId(0), slot::TRUSTED, Time(1), FdValue::Set(ps(&[0])));
        // p2, p3 never publish.
        assert!(!eventual_leadership(&tr, &fp, 1, 10).ok);
    }

    #[test]
    fn never_slanders_checks_every_sample() {
        let fp = fp();
        let mut tr = base_trace(1000);
        tr.publish(
            ProcessId(0),
            slot::SUSPECTED,
            Time(60),
            FdValue::Set(ps(&[3])),
        );
        assert!(never_slanders(&tr, &fp).ok);
        // Suspecting p4 before its crash at 50 is slander.
        let mut bad = base_trace(1000);
        bad.publish(
            ProcessId(0),
            slot::SUSPECTED,
            Time(10),
            FdValue::Set(ps(&[3])),
        );
        assert!(!never_slanders(&bad, &fp).ok);
    }

    /// Each correct process of [`fp`] publishes `before` at tick 1 and
    /// `after` at `at`; the crashed p4 publishes `before` at tick 1.
    fn switch_at(slot: u32, horizon: u64, at: u64, before: PSet, after: PSet) -> Trace {
        let mut tr = base_trace(horizon);
        for i in 0..4 {
            tr.publish(ProcessId(i), slot, Time(1), FdValue::Set(before));
            if i < 3 {
                tr.publish(ProcessId(i), slot, Time(at), FdValue::Set(after));
            }
        }
        tr
    }

    /// "Eventually" means at least `margin` ticks before the horizon: a
    /// property that takes hold at exactly `horizon − margin` passes, one
    /// that takes hold a tick later fails, for every eventual checker.
    #[test]
    fn eventual_checkers_pass_at_horizon_minus_margin_and_fail_a_tick_later() {
        const MARGIN: u64 = 100;
        let (fp, horizon) = (fp(), 1000);
        let edge = horizon - MARGIN;
        let all = PSet::full(4);
        type Checker = fn(&Trace, &FailurePattern) -> CheckOutcome;
        let checkers: [(&str, u32, PSet, PSet, Checker); 3] = [
            // Every correct process suspects the crashed p4 from `at` on.
            (
                "completeness",
                slot::SUSPECTED,
                PSet::EMPTY,
                ps(&[3]),
                |tr, fp| strong_completeness(tr, fp, MARGIN),
            ),
            // Everyone suspects everyone until `at`, then only p4: the best
            // scope of 3 (ℓ, a correct peer, the crashed p4) holds from `at`.
            ("accuracy", slot::SUSPECTED, all, ps(&[3]), |tr, fp| {
                limited_scope_accuracy(tr, fp, 3, false, MARGIN, 0)
            }),
            // The correct processes agree on {p1, p2} from `at` on.
            (
                "leadership",
                slot::TRUSTED,
                ps(&[3]),
                ps(&[0, 1]),
                |tr, fp| eventual_leadership(tr, fp, 2, MARGIN),
            ),
        ];
        for (what, slot, before, after, check) in checkers {
            let out = check(&switch_at(slot, horizon, edge, before, after), &fp);
            assert!(out.ok, "{what} at horizon − margin: {out}");
            assert_eq!(out.stabilized_at, Some(Time(edge)), "{what}");
            let out = check(&switch_at(slot, horizon, edge + 1, before, after), &fp);
            assert!(!out.ok, "{what} a tick later: {out}");
            assert!(out.detail.contains("margin"), "{what}: {out}");
        }
    }

    /// `Ω_z` bounds the eventual leader set by `z` whatever the set's
    /// representation: at n = 70 a set with a member ≥ 64 is stored out of
    /// line by the trace, and z + 1 such members are still one too many.
    #[test]
    fn leadership_rejects_z_plus_one_members_stored_out_of_line() {
        let (n, z) = (70, 2);
        let fp = FailurePattern::all_correct(n);
        let trusting = |l: PSet| {
            let mut tr = base_trace(1000);
            for i in 0..n {
                tr.publish(ProcessId(i), slot::TRUSTED, Time(1), FdValue::Set(l));
            }
            eventual_leadership(&tr, &fp, z, 100)
        };
        let out = trusting(ps(&[5, 64, 69]));
        assert!(!out.ok, "{out}");
        assert!(out.detail.contains("3 members"), "{out}");
        let out = trusting(ps(&[64, 69]));
        assert!(out.ok, "{out}");
    }

    /// A crash takes effect at its tick: suspecting p4 (crash at 50) at
    /// tick 49 is slander, at tick 50 it is not.
    #[test]
    fn never_slanders_from_the_crash_tick_on() {
        let fp = fp();
        let suspecting_at = |at| {
            let mut tr = base_trace(1000);
            tr.publish(
                ProcessId(0),
                slot::SUSPECTED,
                Time(1),
                FdValue::Set(PSet::EMPTY),
            );
            tr.publish(
                ProcessId(0),
                slot::SUSPECTED,
                Time(at),
                FdValue::Set(ps(&[3])),
            );
            never_slanders(&tr, &fp)
        };
        let out = suspecting_at(49);
        assert!(!out.ok && out.class == ViolationClass::Slander, "{out}");
        assert!(suspecting_at(50).ok);
    }

    #[test]
    fn outcome_and_combines() {
        let a = CheckOutcome::pass(Some(Time(5)), "a");
        let b = CheckOutcome::pass(Some(Time(9)), "b");
        let c = a.clone().and(b);
        assert!(c.ok);
        assert_eq!(c.stabilized_at, Some(Time(9)));
        let f = CheckOutcome::fail("nope");
        assert!(!a.and(f.clone()).ok);
        assert_eq!(f.and(CheckOutcome::pass(None, "x")).detail, "nope");
    }
}
