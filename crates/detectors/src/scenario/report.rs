//! What a run produces: the drivers that execute an automaton under a
//! spec, the churn verdict envelope, and the [`Metrics`] /
//! [`ScenarioReport`] / [`SlimReport`] every scenario reports through.

use super::spec::ScenarioSpec;
use crate::check::{CheckOutcome, ViolationClass};
use fd_sim::{
    counter, slot, Automaton, FailurePattern, FdValue, OracleSuite, ProcessId, Sim, Time, Trace,
};
use std::hash::{Hash, Hasher};

/// The canonical proposal vector: process `p_i` proposes `100 + i`.
pub fn default_proposals(n: usize) -> Vec<u64> {
    (0..n).map(|i| 100 + i as u64).collect()
}

/// Runs an automaton under this spec until `stop` fires (or the horizon /
/// event cap is reached) and returns the recorded trace.
pub fn run_scenario_until<A: Automaton, O: OracleSuite>(
    spec: &ScenarioSpec,
    fp: &FailurePattern,
    make: impl FnMut(ProcessId) -> A,
    oracle: O,
    stop: impl FnMut(&Trace) -> bool,
) -> Trace {
    let sim = Sim::new(spec.sim_config(), fp.clone(), make, oracle);
    sim.run_into_trace(stop)
}

/// Runs an automaton until every correct process has decided.
pub fn run_to_decision<A: Automaton, O: OracleSuite>(
    spec: &ScenarioSpec,
    fp: &FailurePattern,
    make: impl FnMut(ProcessId) -> A,
    oracle: O,
) -> Trace {
    let correct = fp.correct();
    run_scenario_until(spec, fp, make, oracle, move |tr| {
        tr.deciders().is_superset(correct)
    })
}

/// Runs an automaton to the configured horizon (transformations have no
/// decision event; their output is judged over the whole window).
pub fn run_to_horizon<A: Automaton, O: OracleSuite>(
    spec: &ScenarioSpec,
    fp: &FailurePattern,
    make: impl FnMut(ProcessId) -> A,
    oracle: O,
) -> Trace {
    run_scenario_until(spec, fp, make, oracle, |_| false)
}

/// The guarantee level a churn scenario claims — the verdict envelope for
/// runs under [`CrashPlan::Churn`](super::CrashPlan::Churn).
///
/// PR 3 landed churn with safety-only guarantees because the Figure 3
/// algorithm has no catch-up for late joiners; the catch-up layer upgrades
/// churn scenarios to [`ChurnGuarantee::Liveness`]. The envelope keeps the
/// two claims honest: a safety-only run must never be scored as if it
/// promised termination, and a liveness run must actually deliver it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnGuarantee {
    /// Only safety is promised: whatever was decided is valid, within `k`,
    /// and decided once per process. Late joiners may never decide.
    SafetyOnly,
    /// Safety plus termination: every correct process — *including* every
    /// late joiner — decides within the horizon.
    Liveness,
}

/// The engine-level churn verdict: safety unconditionally, termination only
/// when the scenario claims [`ChurnGuarantee::Liveness`].
///
/// This is deliberately self-contained (decisions and the failure pattern
/// are everything it reads) so that every churn-aware scenario — core
/// algorithms, transformations, the facade pipeline — can share one
/// envelope; the per-algorithm problem specs (e.g. `fd_core::spec`) remain
/// the checkers for non-churn runs.
pub fn churn_envelope(
    trace: &Trace,
    fp: &FailurePattern,
    k: usize,
    proposals: &[u64],
    guarantee: ChurnGuarantee,
) -> CheckOutcome {
    // Safety 1: validity — every decided value was proposed.
    for d in trace.decisions() {
        if !proposals.contains(&d.value) {
            return CheckOutcome::fail_as(
                ViolationClass::Validity,
                format!(
                    "churn validity: {} decided {} which was never proposed",
                    d.by, d.value
                ),
            );
        }
    }
    // Safety 2: at most k distinct decisions.
    let distinct = trace.decided_values();
    if distinct.len() > k {
        return CheckOutcome::fail_as(
            ViolationClass::Agreement,
            format!(
                "churn agreement: {} distinct values decided ({distinct:?}) > k = {k}",
                distinct.len()
            ),
        );
    }
    // Safety 3: decide-once, and only by processes that were started.
    let mut seen = fd_sim::PSet::new();
    for d in trace.decisions() {
        if !seen.insert(d.by) {
            return CheckOutcome::fail_as(
                ViolationClass::DecideOnce,
                format!("churn decide-once: {} decided twice", d.by),
            );
        }
        if d.at < fp.start_time(d.by) {
            return CheckOutcome::fail_as(
                ViolationClass::DecideOnce,
                format!(
                    "churn structure: {} decided at {} before joining at {}",
                    d.by,
                    d.at,
                    fp.start_time(d.by)
                ),
            );
        }
    }
    match guarantee {
        ChurnGuarantee::SafetyOnly => CheckOutcome::pass(
            None,
            format!(
                "churn safety envelope: {} decisions within k = {k} (liveness not claimed)",
                trace.decisions().len()
            ),
        ),
        ChurnGuarantee::Liveness => {
            let missing = fp.correct() - trace.deciders();
            if missing.is_empty() {
                CheckOutcome::pass(
                    trace.decisions().last().map(|d| d.at),
                    format!("churn liveness envelope: all correct decided within k = {k}"),
                )
            } else {
                CheckOutcome::fail_as(
                    ViolationClass::Termination,
                    format!(
                        "churn liveness: correct {missing} never decided (late joiners included)"
                    ),
                )
            }
        }
    }
}

/// Uniform run statistics, extracted from the trace once, consumed by
/// tables, benches, and tests alike.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Reliable-broadcast invocations.
    pub rb_sent: u64,
    /// Deliveries handed to live processes.
    pub delivered: u64,
    /// Events processed by the engine.
    pub events: u64,
    /// Largest round reached by a correct process (0 if none published).
    pub max_round: u64,
    /// Distinct decided values.
    pub decided_values: Vec<u64>,
    /// Time of the first decision.
    pub first_decision: Option<Time>,
    /// Time of the last decision.
    pub last_decision: Option<Time>,
}

impl Metrics {
    /// Extracts the metrics of a recorded run.
    pub fn from_trace(trace: &Trace, fp: &FailurePattern) -> Self {
        let max_round = fp
            .correct()
            .iter()
            .filter_map(|p| trace.history(p, slot::ROUND).last())
            .map(|v| match v {
                FdValue::Num(r) => r,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let ds = trace.decisions();
        Metrics {
            msgs_sent: trace.counter(counter::SENT),
            rb_sent: trace.counter(counter::RB_SENT),
            delivered: trace.counter(counter::DELIVERED),
            events: trace.counter(counter::EVENTS),
            max_round,
            decided_values: trace.decided_values(),
            first_decision: ds.first().map(|d| d.at),
            last_decision: ds.last().map(|d| d.at),
        }
    }
}

/// The one report type every scenario produces: the spec that ran, the
/// materialized pattern, the trace, the verdict, and the metrics.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Name of the scenario that ran.
    pub scenario: &'static str,
    /// The spec that ran (seed included).
    pub spec: ScenarioSpec,
    /// The run's failure pattern.
    pub fp: FailurePattern,
    /// Everything observed during the run.
    pub trace: Trace,
    /// The scenario's verdict: the problem spec for algorithms, the target
    /// class definition for transformations.
    pub check: CheckOutcome,
    /// Uniform run statistics.
    pub metrics: Metrics,
}

impl ScenarioReport {
    /// Assembles a report, extracting the metrics from the trace.
    pub fn new(
        scenario: &'static str,
        spec: &ScenarioSpec,
        fp: FailurePattern,
        trace: Trace,
        check: CheckOutcome,
    ) -> Self {
        ScenarioReport {
            scenario,
            spec: spec.clone(),
            metrics: Metrics::from_trace(&trace, &fp),
            fp,
            trace,
            check,
        }
    }

    /// The seed this report was produced from.
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// A stable 64-bit digest of everything observable about the run: the
    /// seed, the failure pattern (crash and start times), the event and
    /// message counts, every decision, every published history sample, and
    /// the counters. Two runs are *the same run* iff their fingerprints
    /// match — the currency of the determinism tests (parallel vs
    /// sequential, cached vs cold, recorded digests).
    ///
    /// Uses [`std::collections::hash_map::DefaultHasher`], which hashes
    /// with fixed keys — the digest is stable across runs and builds of
    /// the same toolchain, but is not an on-disk format.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.spec.seed.hash(&mut h);
        self.fp.n().hash(&mut h);
        for p in (0..self.fp.n()).map(ProcessId) {
            self.fp.crash_time(p).map(|t| t.ticks()).hash(&mut h);
            self.fp.start_time(p).ticks().hash(&mut h);
        }
        self.metrics.events.hash(&mut h);
        self.metrics.msgs_sent.hash(&mut h);
        self.check.ok.hash(&mut h);
        for d in self.trace.decisions() {
            (d.at.ticks(), d.by.0, d.value).hash(&mut h);
        }
        for ((p, slot), hist) in self.trace.histories() {
            (p.0, slot).hash(&mut h);
            for s in hist.samples() {
                s.at.ticks().hash(&mut h);
                hash_fd_value(s.value, &mut h);
            }
        }
        for (name, v) in self.trace.counters() {
            (name, v).hash(&mut h);
        }
        h.finish()
    }

    /// The slim view of this report: everything a summary needs, nothing a
    /// million-seed sweep can't afford to hold.
    pub fn slim(&self) -> SlimReport {
        SlimReport {
            scenario: self.scenario,
            seed: self.spec.seed,
            num_faulty: self.fp.num_faulty(),
            check: self.check.clone(),
            metrics: self.metrics.clone(),
            counters: self.trace.counters(),
        }
    }
}

fn hash_fd_value(v: FdValue, h: &mut impl Hasher) {
    match v {
        FdValue::Set(s) => match s.try_bits() {
            // Sets confined to 128 identities hash exactly as the
            // historical u128 mask did — every recorded digest for n ≤ 128
            // depends on it. Wider sets (n > 128 runs) get their own tag.
            Some(bits) => {
                0u8.hash(h);
                bits.hash(h);
            }
            None => {
                4u8.hash(h);
                s.words().hash(h);
            }
        },
        FdValue::Proc(p) => {
            1u8.hash(h);
            p.0.hash(h);
        }
        FdValue::Flag(b) => {
            2u8.hash(h);
            b.hash(h);
        }
        FdValue::Num(n) => {
            3u8.hash(h);
            n.hash(h);
        }
    }
}

/// The streaming-sweep currency: metrics, verdict, and counters of one run
/// *without* the [`Trace`]. A [`SlimReport`] is a few hundred bytes where a
/// full [`ScenarioReport`] holds every published history of the run, which
/// is what lets [`Runner::sweep_fold`](super::Runner::sweep_fold) push millions of seeds while keeping
/// only `O(threads)` full reports alive at any instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlimReport {
    /// Name of the scenario that ran.
    pub scenario: &'static str,
    /// The seed of the run.
    pub seed: u64,
    /// Number of faulty processes in the materialized pattern.
    pub num_faulty: usize,
    /// The scenario's verdict.
    pub check: CheckOutcome,
    /// Uniform run statistics.
    pub metrics: Metrics,
    /// The run's named counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
}

impl SlimReport {
    /// A named counter's value (0 if the run never bumped it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}
