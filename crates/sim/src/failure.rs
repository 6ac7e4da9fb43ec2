//! Failure patterns: who crashes and when.
//!
//! A run of the paper's model is parameterized by a *failure pattern*: a
//! function assigning to each process an optional crash time. A process is
//! *correct* in the run if it never crashes, and *faulty* otherwise. `t`
//! bounds the number of faulty processes (`0 ≤ t < n` in general; most
//! algorithms additionally require `t < n/2`).
//!
//! As an extension for churn scenarios, a pattern may also assign a process
//! a *start time* > 0: the process takes no step and receives no message
//! before it, modelling a crashed process "recovering" as a fresh process
//! id that joins the run late (the paper's crash-stop model has no true
//! recovery, so reincarnation under a new identity is the honest encoding).
//! A late joiner that never crashes still counts as *correct*.

use crate::id::{PSet, ProcessId};
use crate::rng::SplitMix64;
use crate::time::Time;

/// The crash schedule of one run.
///
/// # Examples
///
/// ```
/// use fd_sim::{FailurePattern, ProcessId, Time};
/// let fp = FailurePattern::builder(4)
///     .crash(ProcessId(2), Time(10))
///     .build();
/// assert!(fp.is_correct(ProcessId(0)));
/// assert!(!fp.is_correct(ProcessId(2)));
/// assert!(fp.is_alive_at(ProcessId(2), Time(9)));
/// assert!(!fp.is_alive_at(ProcessId(2), Time(10)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailurePattern {
    n: usize,
    /// One record per process, so a liveness test reads one place.
    life: Vec<Life>,
}

/// When one process runs: from `start` (inclusive) to `end` (exclusive),
/// where `end` is its crash time, or [`Time::INFINITY`] if it never
/// crashes. A crash *at* `Time::INFINITY` is rejected by the builder, so
/// the sentinel is unambiguous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Life {
    start: Time,
    end: Time,
}

impl Life {
    const CORRECT: Life = Life {
        start: Time::ZERO,
        end: Time::INFINITY,
    };

    fn crash(self) -> Option<Time> {
        (self.end != Time::INFINITY).then_some(self.end)
    }
}

impl FailurePattern {
    /// A pattern with `n` processes and no failures.
    pub fn all_correct(n: usize) -> Self {
        FailurePattern {
            n,
            life: vec![Life::CORRECT; n],
        }
    }

    /// Starts building a pattern for `n` processes.
    pub fn builder(n: usize) -> FailurePatternBuilder {
        FailurePatternBuilder {
            fp: FailurePattern::all_correct(n),
        }
    }

    /// Random pattern: `f` uniformly-chosen processes crash at uniform times
    /// in `[0, horizon]` — never after `horizon`, including `horizon = 0`
    /// (all crashes initial).
    ///
    /// # Panics
    ///
    /// Panics if `f > n`.
    pub fn random(n: usize, f: usize, horizon: Time, rng: &mut SplitMix64) -> Self {
        let mut b = FailurePattern::builder(n);
        for i in rng.sample_indices(n, f, <[u16]>::to_vec) {
            let at = Time(rng.range(0, horizon.ticks()));
            b = b.crash(ProcessId(i as usize), at);
        }
        b.build()
    }

    /// Random pattern where all `f` crashes are *initial* (before the run
    /// starts) — the premise of the paper's zero-degradation property.
    pub fn random_initial(n: usize, f: usize, rng: &mut SplitMix64) -> Self {
        let mut b = FailurePattern::builder(n);
        for i in rng.sample_indices(n, f, <[u16]>::to_vec) {
            b = b.crash(ProcessId(i as usize), Time::ZERO);
        }
        b.build()
    }

    /// Random *churn* pattern: `f` processes crash at uniform times in
    /// `[0, crash_by]`, and for each crash a distinct fresh process id
    /// joins the run `rejoin_after` ticks after the crash — the crashed
    /// process "recovering" under a new identity. The `2f` involved ids
    /// are drawn without replacement; the remaining `n − 2f` processes run
    /// from time zero and never crash.
    ///
    /// Draw order (part of the reproducibility contract): one
    /// `sample_indices(n, 2f)` call, then `f` crash-time draws.
    ///
    /// # Panics
    ///
    /// Panics if `2f > n` (not enough ids for the fresh incarnations).
    pub fn churn(
        n: usize,
        f: usize,
        crash_by: Time,
        rejoin_after: u64,
        rng: &mut SplitMix64,
    ) -> Self {
        assert!(
            2 * f <= n,
            "churn needs 2f ≤ n ids (f crashers + f fresh joiners), got f={f}, n={n}"
        );
        let ids = rng.sample_indices(n, 2 * f, <[u16]>::to_vec);
        let mut b = FailurePattern::builder(n);
        for j in 0..f {
            let at = Time(rng.range(0, crash_by.ticks()));
            b = b
                .crash(ProcessId(ids[j] as usize), at)
                .join(ProcessId(ids[f + j] as usize), at + rejoin_after);
        }
        b.build()
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The crash time of `p`, if `p` is faulty.
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        self.life[p.0].crash()
    }

    /// The start time of `p` (`Time::ZERO` unless `p` joins the run late).
    pub fn start_time(&self, p: ProcessId) -> Time {
        self.life[p.0].start
    }

    /// Whether `p` joins the run after time zero (a churn reincarnation).
    pub fn joins_late(&self, p: ProcessId) -> bool {
        self.life[p.0].start > Time::ZERO
    }

    /// Whether any process joins the run after time zero.
    pub fn has_late_joiners(&self) -> bool {
        self.life.iter().any(|l| l.start > Time::ZERO)
    }

    /// Whether `p` never crashes in this run.
    pub fn is_correct(&self, p: ProcessId) -> bool {
        self.life[p.0].end == Time::INFINITY
    }

    /// Whether `p` is running at time `now`: it has started (start takes
    /// effect at its scheduled instant) and has not yet crashed (crash
    /// takes effect at its scheduled instant). A correct process that has
    /// started is alive at every instant, `Time::INFINITY` included.
    #[inline]
    pub fn is_alive_at(&self, p: ProcessId, now: Time) -> bool {
        let Life { start, end } = self.life[p.0];
        // `now < end` misses one instant of a correct process's life,
        // `Time::INFINITY` itself; the sentinel test covers it.
        start <= now && (now < end || end == Time::INFINITY)
    }

    /// The set `C` of correct processes.
    pub fn correct(&self) -> PSet {
        (0..self.n)
            .map(ProcessId)
            .filter(|&p| self.is_correct(p))
            .collect()
    }

    /// The set of faulty processes (crashed at any time in the run).
    pub fn faulty(&self) -> PSet {
        self.correct().complement(self.n)
    }

    /// Number of faulty processes (`f` in the paper).
    pub fn num_faulty(&self) -> usize {
        self.faulty().len()
    }

    /// The set of processes already crashed at time `now` (crash-based:
    /// a late joiner that has not started yet is *not* in this set).
    pub fn crashed_at(&self, now: Time) -> PSet {
        (0..self.n)
            .map(ProcessId)
            .filter(|&p| matches!(self.crash_time(p), Some(tc) if now >= tc))
            .collect()
    }

    /// The set of processes running at time `now` (started and not yet
    /// crashed). With late joiners this is *not* the complement of
    /// [`FailurePattern::crashed_at`].
    pub fn alive_at(&self, now: Time) -> PSet {
        (0..self.n)
            .map(ProcessId)
            .filter(|&p| self.is_alive_at(p, now))
            .collect()
    }

    /// The run's crashes as an oracle that reports each one `lag` ticks
    /// after it happens sees them: see [`CrashSchedule`].
    pub fn crash_schedule(&self, lag: u64) -> CrashSchedule {
        let mut steps: Vec<(Time, ProcessId)> = (0..self.n)
            .map(ProcessId)
            .filter_map(|p| Some((self.crash_time(p)? + lag, p)))
            .collect();
        steps.sort_unstable();
        CrashSchedule { steps }
    }

    /// The last crash instant of the run (`Time::ZERO` if failure-free).
    pub fn last_crash(&self) -> Time {
        self.life
            .iter()
            .filter_map(|l| l.crash())
            .max()
            .unwrap_or(Time::ZERO)
    }
}

/// The crashes of a run, each paired with the instant `tc + lag` from
/// which a failure detector with detection lag `lag` reports it, sorted by
/// that instant. Built once per oracle, so a read walks only the crashes
/// already detected instead of every process; the instant saturates at
/// [`Time::INFINITY`] rather than wrapping.
///
/// # Examples
///
/// ```
/// use fd_sim::{FailurePattern, PSet, ProcessId, Time};
/// let fp = FailurePattern::builder(4)
///     .crash(ProcessId(2), Time(10))
///     .crash(ProcessId(0), Time(3))
///     .build();
/// let crashes = fp.crash_schedule(5);
/// assert_eq!(crashes.detected(Time(7)), PSet::EMPTY);
/// assert_eq!(crashes.detected(Time(8)), PSet::singleton(ProcessId(0)));
/// assert_eq!(crashes.detected(Time(15)), fp.faulty());
/// let first = PSet::singleton(ProcessId(0));
/// assert_eq!(crashes.detected_until(Time(9)), (first, Time(15)));
/// assert_eq!(crashes.detected_until(Time(15)), (fp.faulty(), Time::INFINITY));
/// let x = PSet::from_iter([ProcessId(0), ProcessId(1)]);
/// assert_eq!(crashes.count_detected(x, Time(15)), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashSchedule {
    /// `(tc + lag, p)` for every faulty `p`, in increasing order.
    steps: Vec<(Time, ProcessId)>,
}

impl CrashSchedule {
    /// The crashes detected at `now`: every `p` with `tc(p) + lag ≤ now`.
    /// At `Time::INFINITY` that is every faulty process.
    fn due(&self, now: Time) -> impl Iterator<Item = ProcessId> + '_ {
        self.steps
            .iter()
            .take_while(move |&&(at, _)| at <= now)
            .map(|&(_, p)| p)
    }

    /// The processes whose crash is detected at `now`.
    #[inline]
    pub fn detected(&self, now: Time) -> PSet {
        self.due(now).collect()
    }

    /// [`CrashSchedule::detected`] at `now`, and the instant the next
    /// crash becomes due: the answer holds from `now` until just before
    /// it. [`Time::INFINITY`] if no crash is left to come.
    pub fn detected_until(&self, now: Time) -> (PSet, Time) {
        let due = self.steps.partition_point(|&(at, _)| at <= now);
        let until = self.steps.get(due).map_or(Time::INFINITY, |&(at, _)| at);
        (self.steps[..due].iter().map(|&(_, p)| p).collect(), until)
    }

    /// How many members of `x` are detected at `now`: `|x ∩ detected(now)|`,
    /// without building the set. It equals `x.len()` iff `x ⊆ detected(now)`.
    #[inline]
    pub fn count_detected(&self, x: PSet, now: Time) -> usize {
        self.due(now).filter(|&p| x.contains(p)).count()
    }
}

/// Builder for [`FailurePattern`].
#[derive(Clone, Debug)]
pub struct FailurePatternBuilder {
    fp: FailurePattern,
}

impl FailurePatternBuilder {
    /// Schedules `p` to crash at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range, or if `at` is `Time::INFINITY` (the
    /// end of the clock, never reached: a process that crashes there is
    /// one that never crashes, so leave it correct).
    pub fn crash(mut self, p: ProcessId, at: Time) -> Self {
        assert!(p.0 < self.fp.n, "{p} out of range (n={})", self.fp.n);
        assert!(
            at != Time::INFINITY,
            "{p} cannot crash at {at}: a crash at the end of the clock never happens"
        );
        self.fp.life[p.0].end = at;
        self
    }

    /// Schedules every member of `xs` to crash at `at`.
    pub fn crash_all(mut self, xs: PSet, at: Time) -> Self {
        for p in xs {
            self = self.crash(p, at);
        }
        self
    }

    /// Schedules `p` to join the run at `at` instead of time zero (churn:
    /// a fresh process id standing in for a recovered process).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn join(mut self, p: ProcessId, at: Time) -> Self {
        assert!(p.0 < self.fp.n, "{p} out of range (n={})", self.fp.n);
        self.fp.life[p.0].start = at;
        self
    }

    /// Finishes the pattern.
    pub fn build(self) -> FailurePattern {
        self.fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_correct_basics() {
        let fp = FailurePattern::all_correct(3);
        assert_eq!(fp.correct(), PSet::full(3));
        assert_eq!(fp.num_faulty(), 0);
        assert_eq!(fp.last_crash(), Time::ZERO);
    }

    #[test]
    fn crash_semantics() {
        let fp = FailurePattern::builder(3)
            .crash(ProcessId(1), Time(5))
            .build();
        assert!(fp.is_alive_at(ProcessId(1), Time(4)));
        assert!(!fp.is_alive_at(ProcessId(1), Time(5)));
        assert_eq!(fp.crashed_at(Time(5)), PSet::singleton(ProcessId(1)));
        assert_eq!(fp.alive_at(Time(4)), PSet::full(3));
        assert_eq!(fp.crash_time(ProcessId(1)), Some(Time(5)));
        assert_eq!(fp.crash_time(ProcessId(0)), None);
    }

    #[test]
    fn crash_schedule() {
        let fp = FailurePattern::builder(4)
            .crash(ProcessId(0), Time(3))
            .crash(ProcessId(2), Time(8))
            .build();
        let both = PSet::from_iter([ProcessId(0), ProcessId(2)]);
        let crashes = fp.crash_schedule(0);
        assert_eq!(crashes.detected(Time(2)), PSet::EMPTY);
        assert_eq!(crashes.detected(Time(3)), PSet::singleton(ProcessId(0)));
        assert_eq!(crashes.detected(Time(8)), both);
        assert_eq!(crashes.detected(Time::INFINITY), both);
        // The lag delays every report; no correct process is ever reported.
        let lagged = fp.crash_schedule(10);
        assert_eq!(lagged.detected(Time(17)), PSet::singleton(ProcessId(0)));
        assert_eq!(lagged.detected(Time(18)), both);
        assert_eq!(
            FailurePattern::all_correct(3)
                .crash_schedule(5)
                .detected(Time::INFINITY),
            PSet::EMPTY
        );
        assert_eq!(fp.last_crash(), Time(8));
    }

    /// `tc + lag` saturates: a crash near the end of the clock is
    /// reported at `Time::INFINITY` itself, never at a wrapped instant.
    #[test]
    fn crash_schedule_saturates_at_the_end_of_the_clock() {
        let late = ProcessId(1);
        let fp = FailurePattern::builder(2)
            .crash(late, Time(u64::MAX - 3))
            .build();
        let crashes = fp.crash_schedule(10);
        assert_eq!(crashes.detected(Time::ZERO), PSet::EMPTY);
        assert_eq!(crashes.detected(Time(u64::MAX - 1)), PSet::EMPTY);
        assert_eq!(crashes.detected(Time::INFINITY), PSet::singleton(late));
        assert_eq!(
            fp.crash_schedule(3).detected(Time(u64::MAX)),
            PSet::singleton(late)
        );
    }

    #[test]
    fn random_respects_f() {
        let mut rng = SplitMix64::new(11);
        let fp = FailurePattern::random(10, 3, Time(100), &mut rng);
        assert_eq!(fp.num_faulty(), 3);
        let fp0 = FailurePattern::random_initial(10, 4, &mut rng);
        assert_eq!(fp0.num_faulty(), 4);
        for p in fp0.faulty() {
            assert_eq!(fp0.crash_time(p), Some(Time::ZERO));
        }
    }

    #[test]
    fn random_crash_times_never_exceed_horizon() {
        // Regression: `random` used `range(0, horizon.max(1))`, so a
        // horizon of 0 could crash a process at time 1 — after the bound.
        for seed in 0..200 {
            for by in [0u64, 1, 2, 7, 100] {
                let mut rng = SplitMix64::new(seed);
                let fp = FailurePattern::random(8, 3, Time(by), &mut rng);
                assert_eq!(fp.num_faulty(), 3);
                for p in fp.faulty() {
                    let at = fp.crash_time(p).unwrap();
                    assert!(
                        at <= Time(by),
                        "seed {seed}: crash at {at} breaks promised bound {by}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_horizon_zero_is_all_initial() {
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let fp = FailurePattern::random(6, 2, Time::ZERO, &mut rng);
            for p in fp.faulty() {
                assert_eq!(fp.crash_time(p), Some(Time::ZERO));
            }
        }
    }

    #[test]
    fn crash_all() {
        let xs = PSet::from_iter([ProcessId(0), ProcessId(1)]);
        let fp = FailurePattern::builder(3).crash_all(xs, Time(2)).build();
        assert_eq!(fp.faulty(), xs);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crash_out_of_range_panics() {
        let _ = FailurePattern::builder(2).crash(ProcessId(5), Time(1));
    }

    #[test]
    fn join_semantics() {
        let fp = FailurePattern::builder(4)
            .join(ProcessId(2), Time(10))
            .crash(ProcessId(0), Time(20))
            .build();
        assert!(fp.joins_late(ProcessId(2)));
        assert!(!fp.joins_late(ProcessId(1)));
        assert!(fp.has_late_joiners());
        assert_eq!(fp.start_time(ProcessId(2)), Time(10));
        // Not alive before its start, alive from it, still correct.
        assert!(!fp.is_alive_at(ProcessId(2), Time(9)));
        assert!(fp.is_alive_at(ProcessId(2), Time(10)));
        assert!(fp.is_correct(ProcessId(2)));
        // crashed_at is crash-based: the unjoined p2 is not "crashed".
        assert_eq!(fp.crashed_at(Time(5)), PSet::EMPTY);
        assert_eq!(
            fp.alive_at(Time(5)),
            PSet::from_iter([ProcessId(1), ProcessId(3), ProcessId(0)])
        );
        assert_eq!(fp.crashed_at(Time(20)), PSet::singleton(ProcessId(0)));
        assert!(!FailurePattern::all_correct(2).has_late_joiners());
    }

    #[test]
    fn churn_pairs_crashers_with_fresh_joiners() {
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let fp = FailurePattern::churn(9, 3, Time(100), 50, &mut rng);
            assert_eq!(fp.num_faulty(), 3);
            let joiners: Vec<ProcessId> = (0..9)
                .map(ProcessId)
                .filter(|&p| fp.joins_late(p))
                .collect();
            assert_eq!(joiners.len(), 3);
            for &q in &joiners {
                // Fresh ids never crash and start exactly 50 ticks after
                // some crash.
                assert!(fp.is_correct(q));
                let s = fp.start_time(q).ticks();
                assert!(
                    fp.faulty()
                        .iter()
                        .any(|v| fp.crash_time(v).unwrap().ticks() + 50 == s),
                    "seed {seed}: join at {s} matches no crash"
                );
            }
            for v in fp.faulty() {
                assert!(fp.crash_time(v).unwrap() <= Time(100));
                assert!(!fp.joins_late(v), "a crasher must not also be a joiner");
            }
        }
    }

    #[test]
    fn churn_at_zero_and_zero_rejoin() {
        let mut rng = SplitMix64::new(7);
        let fp = FailurePattern::churn(6, 2, Time::ZERO, 0, &mut rng);
        // crash_by = 0: all crashes initial; rejoin_after = 0: joiners
        // start at the crash instant.
        for v in fp.faulty() {
            assert_eq!(fp.crash_time(v), Some(Time::ZERO));
        }
        // rejoin_after = 0 at crash_by = 0: joins land at time zero, so no
        // process is a *late* joiner.
        assert!(!fp.has_late_joiners());
        assert_eq!(fp.num_faulty(), 2);
    }

    /// The one-record-per-process pattern against the two-vector model it
    /// replaced, under random builder sequences: crashes at zero, joins
    /// then crashes, crashes at the join instant, crashes before the join,
    /// late joiners, and overwrites (the builder's last call wins). Every
    /// accessor is compared, at every instant where an answer can change
    /// and at both ends of the clock.
    #[test]
    fn liveness_record_matches_the_two_vector_model() {
        struct Model {
            crash_at: Vec<Option<Time>>,
            start_at: Vec<Time>,
        }
        impl Model {
            fn alive(&self, p: usize, now: Time) -> bool {
                now >= self.start_at[p] && self.crash_at[p].is_none_or(|tc| now < tc)
            }
        }
        for case in 0..300u64 {
            let mut rng = SplitMix64::new(0x11fe).stream(case);
            let n = 1 + rng.below(9) as usize;
            let mut model = Model {
                crash_at: vec![None; n],
                start_at: vec![Time::ZERO; n],
            };
            let mut b = FailurePattern::builder(n);
            let tick = |rng: &mut SplitMix64| {
                Time(match rng.below(4) {
                    0 => 0,
                    1 => rng.below(8),
                    2 => rng.below(1_000),
                    _ => u64::MAX - 1 - rng.below(3),
                })
            };
            for _ in 0..rng.below(12) {
                let p = rng.below(n as u64) as usize;
                match rng.below(4) {
                    0 => {
                        let at = tick(&mut rng);
                        b = b.crash(ProcessId(p), at);
                        model.crash_at[p] = Some(at);
                    }
                    1 => {
                        let at = tick(&mut rng);
                        b = b.join(ProcessId(p), at);
                        model.start_at[p] = at;
                    }
                    // A crash at the join instant, or a join then a crash.
                    2 => {
                        let at = tick(&mut rng);
                        let later = at.0.saturating_add(rng.below(9)).min(u64::MAX - 1);
                        let crash = if rng.chance(1, 2) { at } else { Time(later) };
                        b = b.join(ProcessId(p), at).crash(ProcessId(p), crash);
                        (model.start_at[p], model.crash_at[p]) = (at, Some(crash));
                    }
                    // Crashed at zero, whenever it was to start.
                    _ => {
                        b = b.crash(ProcessId(p), Time::ZERO);
                        model.crash_at[p] = Some(Time::ZERO);
                    }
                }
            }
            let fp = b.build();
            let mut instants = vec![Time::ZERO, Time(1), Time::INFINITY];
            for p in 0..n {
                for at in model.crash_at[p].into_iter().chain([model.start_at[p]]) {
                    instants.extend([at, Time(at.0.saturating_sub(1)), at + 1]);
                }
            }
            let correct: PSet = (0..n)
                .filter(|&p| model.crash_at[p].is_none())
                .map(ProcessId)
                .collect();
            assert_eq!(fp.correct(), correct, "case {case}");
            assert_eq!(fp.faulty(), correct.complement(n), "case {case}");
            assert_eq!(fp.num_faulty(), n - correct.len(), "case {case}");
            let late = model.start_at.iter().any(|&s| s > Time::ZERO);
            assert_eq!(fp.has_late_joiners(), late, "case {case}");
            let last = model.crash_at.iter().flatten().max().copied();
            assert_eq!(fp.last_crash(), last.unwrap_or(Time::ZERO), "case {case}");
            for p in 0..n {
                let id = ProcessId(p);
                assert_eq!(fp.crash_time(id), model.crash_at[p], "case {case}, {id}");
                assert_eq!(fp.start_time(id), model.start_at[p], "case {case}, {id}");
                assert_eq!(fp.is_correct(id), model.crash_at[p].is_none());
                assert_eq!(fp.joins_late(id), model.start_at[p] > Time::ZERO);
                for &now in &instants {
                    let alive = model.alive(p, now);
                    assert_eq!(fp.is_alive_at(id, now), alive, "case {case}, {id} at {now}");
                }
            }
            for &now in &instants {
                let alive: PSet = (0..n)
                    .filter(|&p| model.alive(p, now))
                    .map(ProcessId)
                    .collect();
                assert_eq!(fp.alive_at(now), alive, "case {case} at {now}");
                let crashed: PSet = (0..n)
                    .filter(|&p| model.crash_at[p].is_some_and(|tc| now >= tc))
                    .map(ProcessId)
                    .collect();
                assert_eq!(fp.crashed_at(now), crashed, "case {case} at {now}");
            }
            let lag = rng.below(12);
            let crashes = fp.crash_schedule(lag);
            assert_eq!(
                crashes.detected(Time::INFINITY),
                correct.complement(n),
                "case {case}"
            );
            for tc in model.crash_at.iter().flatten() {
                let at = *tc + lag;
                instants.extend([at, Time(at.0.saturating_sub(1))]);
            }
            for &now in &instants {
                let detected: PSet = (0..n)
                    .filter(|&p| model.crash_at[p].is_some_and(|tc| now >= tc + lag))
                    .map(ProcessId)
                    .collect();
                assert_eq!(
                    crashes.detected(now),
                    detected,
                    "case {case} at {now}, lag {lag}"
                );
                for bits in 0..1u64 << n.min(6) {
                    let xs = PSet::from_words(&[bits]);
                    let want = (xs & detected).len();
                    assert_eq!(
                        crashes.count_detected(xs, now),
                        want,
                        "case {case}, {xs} at {now}"
                    );
                }
            }
        }
    }

    /// A crash at `Time::INFINITY` is refused, not stored: the record's
    /// end-of-clock sentinel means "never crashes".
    #[test]
    #[should_panic(expected = "cannot crash at")]
    fn a_crash_at_the_end_of_the_clock_is_rejected() {
        let _ = FailurePattern::builder(3).crash(ProcessId(1), Time::INFINITY);
    }

    #[test]
    #[should_panic(expected = "churn needs 2f ≤ n")]
    fn churn_rejects_too_many_pairs() {
        let mut rng = SplitMix64::new(0);
        let _ = FailurePattern::churn(5, 3, Time(10), 5, &mut rng);
    }
}
