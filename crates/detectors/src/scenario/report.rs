//! What a run produces: the drivers that execute an automaton under a
//! spec, the churn verdict envelope, and the [`Metrics`] /
//! [`ScenarioReport`] / [`SlimReport`] every scenario reports through.

use super::spec::ScenarioSpec;
use crate::check::{self, CheckOutcome, ChurnGuarantee};
use fd_sim::{
    counter, slot, Automaton, FailurePattern, FdValue, Fnv1a64, OracleSuite, ProcessId, Sim, Time,
    Trace,
};

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
    // Every decider has a decision, so `deciders ⊇ correct` needs at least
    // `|correct|` decisions: a length compare rejects most events before
    // the superset test reads sixteen words.
    let needed = correct.len();
    run_scenario_until(spec, fp, make, oracle, move |tr| {
        tr.decisions().len() >= needed && tr.deciders().is_superset(correct)
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

/// The engine-level churn verdict: the `k`-set agreement judge
/// ([`check::kset_agreement`]) under the scenario's claim — safety
/// unconditionally, termination only under [`ChurnGuarantee::Liveness`],
/// whose pass stabilizes at the run's last decision.
///
/// Decisions and the failure pattern are everything it reads, so every
/// churn-aware scenario — core algorithms, transformations, the facade
/// pipeline — shares one verdict.
pub fn churn_envelope(
    trace: &Trace,
    fp: &FailurePattern,
    k: usize,
    proposals: &[u64],
    guarantee: ChurnGuarantee,
) -> CheckOutcome {
    let mut out = check::kset_agreement(trace.decisions(), fp, k, proposals, guarantee);
    if out.ok && guarantee == ChurnGuarantee::Liveness {
        out.stabilized_at = trace.decisions().last().map(|d| d.at);
    }
    out
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
    /// The digest is a format: FNV-1a-64 ([`fd_sim::Fnv1a64`]) of the
    /// bytes below, in order, so it is the same on every build, toolchain
    /// and platform. With `n = fp.n()`:
    ///
    /// | field | encoding |
    /// |---|---|
    /// | `spec.seed`, `n` | integers |
    /// | each process `p_0 … p_{n−1}` | its crash time as a tag byte (0 `None`, 1 `Some`) and the time if present, then its start time |
    /// | `metrics.events`, `metrics.msgs_sent` | integers |
    /// | `check.ok` | one byte, 0 or 1 |
    /// | each decision, in time order | `at`, `by`, `value` as integers |
    /// | each history, by process then slot | process and slot as integers, then per sample its time and its value |
    /// | each counter, sorted by name | the name's bytes, a `0xff` byte, then the value |
    ///
    /// An integer (a time, a process index, a slot) is 8 little-endian
    /// bytes. A value is a tag byte, then its payload: `Set` 0, then the
    /// set's first ⌈n/64⌉ words as integers; `Proc` 1, then the index;
    /// `Flag` 2, then one byte 0 or 1; `Num` 3, then the number. The
    /// sections carry no counts or separators besides these.
    pub fn fingerprint(&self) -> u64 {
        let n = self.fp.n();
        let mut h = Fnv1a64::new();
        let int = |h: &mut Fnv1a64, v: u64| h.write(&v.to_le_bytes());
        int(&mut h, self.spec.seed);
        int(&mut h, n as u64);
        for p in (0..n).map(ProcessId) {
            match self.fp.crash_time(p) {
                None => h.write(&[0]),
                Some(t) => {
                    h.write(&[1]);
                    int(&mut h, t.ticks());
                }
            }
            int(&mut h, self.fp.start_time(p).ticks());
        }
        int(&mut h, self.metrics.events);
        int(&mut h, self.metrics.msgs_sent);
        h.write(&[self.check.ok as u8]);
        for d in self.trace.decisions() {
            for v in [d.at.ticks(), d.by.0 as u64, d.value] {
                int(&mut h, v);
            }
        }
        for ((p, slot), hist) in self.trace.histories() {
            int(&mut h, p.0 as u64);
            int(&mut h, slot.into());
            for s in hist.samples() {
                int(&mut h, s.at.ticks());
                match s.value {
                    FdValue::Set(set) => {
                        h.write(&[0]);
                        for &w in &set.as_words()[..n.div_ceil(64)] {
                            int(&mut h, w);
                        }
                    }
                    FdValue::Proc(q) => {
                        h.write(&[1]);
                        int(&mut h, q.0 as u64);
                    }
                    FdValue::Flag(b) => h.write(&[2, b as u8]),
                    FdValue::Num(x) => {
                        h.write(&[3]);
                        int(&mut h, x);
                    }
                }
            }
        }
        for (name, v) in self.trace.counters() {
            h.write(name.as_bytes());
            h.write(&[0xff]);
            int(&mut h, v);
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

/// The streaming-sweep currency: metrics, verdict, and counters of one run
/// *without* the [`Trace`]. A [`SlimReport`] is a 200-byte struct and three
/// small heap blocks (detail, decided values, counters) — about 100 bytes
/// once a [`ReportCache`](super::ReportCache) packs it — where a
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

impl Default for SlimReport {
    /// An empty report: a passing check, no detail, no counters — the
    /// scratch a decoder fills in place.
    fn default() -> Self {
        SlimReport {
            scenario: "",
            seed: 0,
            num_faulty: 0,
            check: CheckOutcome::pass(None, String::new()),
            metrics: Metrics::default(),
            counters: Vec::new(),
        }
    }
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
