//! Test-only: the per-call crash reads the `P`, `S_x` and `φ_y` oracles
//! made before they shared one [`fd_sim::CrashSchedule`], kept as the
//! model their answers are checked against, and the seeded failure
//! patterns and instants those checks run over.

use fd_sim::{FailurePattern, PSet, ProcessId, SplitMix64, Time};

/// The completeness core as first written: a scan over every process,
/// keeping each one crashed at least `lag` ticks before `now`.
pub(crate) fn per_call_detected(fp: &FailurePattern, now: Time, lag: u64) -> PSet {
    let mut s = PSet::new();
    for i in 0..fp.n() {
        let p = ProcessId(i);
        if let Some(tc) = fp.crash_time(p) {
            if now >= tc + lag {
                s.insert(p);
            }
        }
    }
    s
}

/// The earliest time at which every member of `xs` has crashed, or `None`
/// if some member is correct (members must lie in Π).
pub(crate) fn per_call_last_crash(fp: &FailurePattern, xs: PSet) -> Option<Time> {
    let mut worst = Time::ZERO;
    for p in xs {
        match fp.crash_time(p) {
            None => return None,
            Some(tc) => worst = worst.max(tc),
        }
    }
    Some(worst)
}

/// One seeded case: a pattern with at most `t` crashes, and a
/// stabilization time for the eventual classes.
#[derive(Debug)]
pub(crate) struct Case {
    pub fp: FailurePattern,
    pub t: usize,
    pub gst: Time,
    pub rng: SplitMix64,
}

/// Seeded cases at `n ∈ {2…9, 64, 65, 128}`, `rounds` per size. Crashes
/// fall in `[0, 300)`; one case in four also crashes a process at
/// `u64::MAX − 3`, where `tc + lag` must saturate.
pub(crate) fn cases(seed: u64, rounds: u64) -> Vec<Case> {
    let sizes = (2..=9).chain([64, 65, 128]);
    let mut out = Vec::new();
    for n in sizes {
        for round in 0..rounds {
            let mut rng = SplitMix64::new(seed).stream(n as u64 * 1000 + round);
            let t = 1 + rng.below(n as u64 - 1) as usize;
            let f = rng.below(t as u64 + 1) as usize;
            let mut fp = FailurePattern::random(n, f, Time(299), &mut rng);
            if f > 0 && rng.chance(1, 4) {
                let victim = fp.faulty().min().expect("f > 0");
                let mut b = FailurePattern::builder(n);
                for p in fp.faulty() {
                    let at = fp.crash_time(p).expect("faulty");
                    b = b.crash(p, if p == victim { Time(u64::MAX - 3) } else { at });
                }
                fp = b.build();
            }
            let gst = Time(rng.below(400));
            out.push(Case { fp, t, gst, rng });
        }
    }
    out
}

/// The instants where a lag-`lag` answer can change: 0, every `tc + lag − 1`
/// and `tc + lag`, the stabilization time and `Time::INFINITY`.
pub(crate) fn instants(case: &Case, lag: u64) -> Vec<Time> {
    let mut at = vec![Time::ZERO, case.gst, Time::INFINITY];
    for p in case.fp.faulty() {
        let due = case.fp.crash_time(p).expect("faulty") + lag;
        at.extend([Time(due.0.saturating_sub(1)), due]);
    }
    at
}

/// A random query set of `Π`: a subset of the faulty processes, the same
/// plus one correct process, or any set, sized around the `φ_y` range.
pub(crate) fn query_set(case: &mut Case) -> PSet {
    let n = case.fp.n();
    let rng = &mut case.rng;
    let faulty: Vec<ProcessId> = case.fp.faulty().iter().collect();
    let correct: Vec<ProcessId> = case.fp.correct().iter().collect();
    let mut x: PSet = faulty
        .iter()
        .copied()
        .filter(|_| rng.chance(2, 3))
        .collect();
    match rng.below(3) {
        0 => {}
        1 => {
            x.insert(
                *rng.choose(&correct)
                    .expect("t < n leaves a correct process"),
            );
        }
        _ => {
            let size = 1 + rng.below(case.t as u64 + 1);
            x = (0..size)
                .map(|_| ProcessId(rng.below(n as u64) as usize))
                .collect();
        }
    }
    x
}
