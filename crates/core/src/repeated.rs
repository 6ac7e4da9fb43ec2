//! Repeated (long-lived) set agreement — the extension motivating the
//! paper's *zero degradation* property (§3.2): "zero-degradation is
//! particularly important when a set agreement algorithm is used
//! repeatedly: it means that future executions do not suffer from past
//! process failures as soon as the failure detector behaves perfectly."
//!
//! [`RepeatedKset`] runs `m` successive instances of the Figure 3
//! algorithm on one process set: a process enters instance `i+1` as soon
//! as it decides instance `i` (fresh proposals per instance, messages
//! tagged with the instance number and buffered across instance
//! boundaries). Experiment E11 measures per-instance round counts when
//! crashes hit during instance 0: with a perfect `Ω_k`, every later
//! instance decides in a single round — the zero-degradation claim made
//! longitudinal.

use crate::kset_omega::{KsetMsg, KsetOmega};
use fd_detectors::scenario::ScenarioSpec;
use fd_detectors::CheckOutcome;
use fd_sim::{
    counter, forward_ops, Automaton, Ctx, FailurePattern, Op, OracleSuite, ProcessId, Time, Trace,
};

/// Message of the repeated protocol: an inner Figure 3 message tagged with
/// its instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepMsg {
    /// Instance number (0-based).
    pub inst: u32,
    /// The inner algorithm message.
    pub inner: KsetMsg,
}

impl fd_sim::Corruptible for RepMsg {
    /// Corruption passes through to the inner Figure 3 message; the
    /// instance tag stays intact (same rationale as round numbers).
    fn corrupt(&mut self, bound: u64, rng: &mut fd_sim::SplitMix64) -> bool {
        self.inner.corrupt(bound, rng)
    }
}

/// Proposal of process `p` in instance `inst` (distinct per process and
/// instance, so cross-instance value leakage would be caught by validity).
pub fn proposal(p: ProcessId, inst: u32) -> u64 {
    1_000 * (inst as u64 + 1) + p.0 as u64
}

/// One process running `m` successive Figure 3 instances.
#[derive(Clone, Debug)]
pub struct RepeatedKset {
    instances: u32,
    cur: u32,
    kset: KsetOmega,
    /// Deliveries for future instances, replayed on entry.
    buffered: Vec<(ProcessId, u32, KsetMsg, bool)>,
    /// Retained partition buffer for the replay in `maybe_advance` — the
    /// buffers swap back and forth so instance boundaries allocate nothing
    /// once warm.
    scratch: Vec<(ProcessId, u32, KsetMsg, bool)>,
    /// Recycled inner op buffer (empty between activations; see
    /// [`Ctx::reborrow_inner`]).
    kset_ops: Vec<Op<KsetMsg>>,
    finished: bool,
}

impl RepeatedKset {
    /// Creates the process, set to run `instances` instances.
    ///
    /// # Panics
    ///
    /// Panics if `instances == 0`.
    pub fn new(me: ProcessId, instances: u32) -> Self {
        assert!(instances > 0, "need at least one instance");
        RepeatedKset {
            instances,
            cur: 0,
            kset: KsetOmega::new(proposal(me, 0)),
            buffered: Vec::new(),
            scratch: Vec::new(),
            kset_ops: Vec::new(),
            finished: false,
        }
    }

    /// Runs an inner activation, filtering the inner `Halt` (the inner
    /// algorithm halts after deciding; the repeated wrapper instead
    /// advances to the next instance) and tagging outgoing messages.
    fn run_inner<O: OracleSuite + ?Sized>(
        &mut self,
        ctx: &mut Ctx<'_, RepMsg, O>,
        f: impl FnOnce(&mut KsetOmega, &mut Ctx<'_, KsetMsg, O>),
    ) {
        let inst = self.cur;
        let kset = &mut self.kset;
        ctx.reborrow_inner(&mut self.kset_ops, |ictx| f(kset, ictx));
        self.kset_ops.retain(|op| !matches!(op, Op::Halt));
        forward_ops(ctx, &mut self.kset_ops, |inner| RepMsg { inst, inner });
        self.maybe_advance(ctx);
    }

    /// If the current instance decided, move to the next one (replaying any
    /// buffered deliveries for it).
    fn maybe_advance<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, RepMsg, O>) {
        while self.kset.has_decided() && !self.finished {
            ctx.bump("repeated.instance_done");
            if self.cur + 1 >= self.instances {
                self.finished = true;
                ctx.halt();
                return;
            }
            self.cur += 1;
            self.kset = KsetOmega::new(proposal(ctx.me(), self.cur));
            let inst = self.cur;
            // Start the new instance.
            let kset = &mut self.kset;
            ctx.reborrow_inner(&mut self.kset_ops, |ictx| kset.on_start(ictx));
            forward_ops(ctx, &mut self.kset_ops, |inner| RepMsg { inst, inner });
            // Replay buffered deliveries for this instance (in arrival
            // order), re-buffering later instances and dropping stale
            // ones. The two buffers swap rather than reallocate: `take`
            // moves the scratch Vec out so its drain can run alongside
            // the `&mut self` replay calls, then hands the (empty, still
            // warm) storage back.
            debug_assert!(self.scratch.is_empty());
            std::mem::swap(&mut self.buffered, &mut self.scratch);
            let mut pending = std::mem::take(&mut self.scratch);
            for (from, i, msg, rb) in pending.drain(..) {
                match i.cmp(&inst) {
                    std::cmp::Ordering::Less => {} // stale instance: drop
                    std::cmp::Ordering::Greater => self.buffered.push((from, i, msg, rb)),
                    std::cmp::Ordering::Equal => {
                        let kset = &mut self.kset;
                        ctx.reborrow_inner(&mut self.kset_ops, |ictx| {
                            if rb {
                                kset.on_rb_deliver(from, msg, ictx)
                            } else {
                                kset.on_message(from, msg, ictx)
                            }
                        });
                        self.kset_ops.retain(|op| !matches!(op, Op::Halt));
                        forward_ops(ctx, &mut self.kset_ops, |inner| RepMsg { inst, inner });
                    }
                }
            }
            self.scratch = pending;
        }
    }

    fn deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: RepMsg,
        rb: bool,
        ctx: &mut Ctx<'_, RepMsg, O>,
    ) {
        if self.finished {
            return;
        }
        match msg.inst.cmp(&self.cur) {
            std::cmp::Ordering::Less => {} // stale instance: ignore
            std::cmp::Ordering::Greater => {
                self.buffered.push((from, msg.inst, msg.inner, rb));
            }
            std::cmp::Ordering::Equal => {
                self.run_inner(ctx, |k, ictx| {
                    if rb {
                        k.on_rb_deliver(from, msg.inner, ictx)
                    } else {
                        k.on_message(from, msg.inner, ictx)
                    }
                });
            }
        }
    }
}

impl Automaton for RepeatedKset {
    type Msg = RepMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, RepMsg, O>) {
        self.run_inner(ctx, |k, ictx| k.on_start(ictx));
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: RepMsg,
        ctx: &mut Ctx<'_, RepMsg, O>,
    ) {
        self.deliver(from, msg, false, ctx);
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: RepMsg,
        ctx: &mut Ctx<'_, RepMsg, O>,
    ) {
        self.deliver(from, msg, true, ctx);
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, RepMsg, O>) {
        if !self.finished {
            self.run_inner(ctx, |k, ictx| k.on_step(ictx));
        }
    }
}

/// Per-instance statistics of a repeated run.
#[derive(Clone, Debug)]
pub struct InstanceStats {
    /// Instance number.
    pub inst: u32,
    /// Distinct values decided in this instance.
    pub distinct_values: Vec<u64>,
    /// Time of the instance's last decision among correct processes.
    pub last_decision: Time,
}

/// Report of a repeated run.
#[derive(Clone, Debug)]
pub struct RepeatedReport {
    /// The run's trace.
    pub trace: Trace,
    /// The run's failure pattern.
    pub fp: FailurePattern,
    /// Per-instance statistics (length = instances iff all completed).
    pub per_instance: Vec<InstanceStats>,
    /// The combined specification outcome: every instance satisfies
    /// validity, k-agreement and termination.
    pub spec: CheckOutcome,
    /// Total messages sent across all instances.
    pub msgs_sent: u64,
}

/// Runs `instances` successive `spec.k`-set agreement instances under
/// `spec` and checks the specification of every one of them.
///
/// A process's `i`-th decision (in its own decision order) is its
/// instance-`i` decision; validity is checked against [`proposal`].
pub fn run_repeated_spec(
    spec: &ScenarioSpec,
    instances: u32,
    fp: FailurePattern,
    oracle: impl fd_sim::OracleSuite,
) -> RepeatedReport {
    let n = spec.n;
    let k = spec.k;
    let correct = fp.correct();
    let want = instances as usize * correct.len();
    let trace = fd_detectors::scenario::run_scenario_until(
        spec,
        &fp,
        |p| RepeatedKset::new(p, instances),
        oracle,
        move |tr| {
            tr.decisions()
                .iter()
                .filter(|d| correct.contains(d.by))
                .count()
                >= want
        },
    );

    // Group decisions: process p's i-th decision belongs to instance i.
    let mut spec = CheckOutcome::pass(None, format!("{instances} instances"));
    let mut per_instance = Vec::new();
    for inst in 0..instances {
        let mut values = Vec::new();
        let mut last = Time::ZERO;
        let mut missing = fd_sim::PSet::new();
        for p in fp.correct() {
            let ds: Vec<_> = trace.decisions().iter().filter(|d| d.by == p).collect();
            match ds.get(inst as usize) {
                None => {
                    missing.insert(p);
                }
                Some(d) => {
                    values.push(d.value);
                    last = last.max(d.at);
                    // Validity: the value is some process's proposal for
                    // this instance.
                    let valid = (0..n).any(|q| d.value == proposal(ProcessId(q), inst));
                    if !valid {
                        spec = spec.and(CheckOutcome::fail_as(
                            fd_detectors::ViolationClass::Validity,
                            format!("instance {inst}: {p} decided foreign value {}", d.value),
                        ));
                    }
                }
            }
        }
        if !missing.is_empty() {
            spec = spec.and(CheckOutcome::fail_as(
                fd_detectors::ViolationClass::Termination,
                format!("instance {inst}: correct {missing} never decided"),
            ));
        }
        values.sort_unstable();
        values.dedup();
        if values.len() > k {
            spec = spec.and(CheckOutcome::fail_as(
                fd_detectors::ViolationClass::Agreement,
                format!(
                    "instance {inst}: {} distinct values (> k = {k})",
                    values.len()
                ),
            ));
        }
        per_instance.push(InstanceStats {
            inst,
            distinct_values: values,
            last_decision: last,
        });
    }
    RepeatedReport {
        msgs_sent: trace.counter(counter::SENT),
        per_instance,
        spec,
        fp,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::OmegaOracle;

    #[test]
    fn five_instances_all_correct() {
        for seed in 0..3 {
            let fp = FailurePattern::all_correct(5);
            let oracle = OmegaOracle::new(fp.clone(), 1, Time(300), seed);
            let rep = {
                let spec = ScenarioSpec::new(5, 2)
                    .kz(1)
                    .seed(seed)
                    .max_time(Time(400_000));
                run_repeated_spec(&spec, 5, fp, oracle)
            };
            assert!(rep.spec.ok, "seed {seed}: {}", rep.spec);
            assert_eq!(rep.per_instance.len(), 5);
            for s in &rep.per_instance {
                assert_eq!(s.distinct_values.len(), 1, "instance {}", s.inst);
            }
        }
    }

    #[test]
    fn instances_decide_in_order() {
        let fp = FailurePattern::all_correct(4);
        let oracle = OmegaOracle::perfect(fp.clone(), 1, 1);
        let rep = {
            let spec = ScenarioSpec::new(4, 1)
                .kz(1)
                .seed(2)
                .max_time(Time(200_000));
            run_repeated_spec(&spec, 3, fp, oracle)
        };
        assert!(rep.spec.ok, "{}", rep.spec);
        let mut prev = Time::ZERO;
        for s in &rep.per_instance {
            assert!(s.last_decision >= prev);
            prev = s.last_decision;
        }
    }

    #[test]
    fn crashes_during_instance_zero_do_not_stall_later_ones() {
        for seed in 0..3 {
            let fp = FailurePattern::builder(5)
                .crash(ProcessId(1), Time(40))
                .crash(ProcessId(3), Time(90))
                .build();
            let oracle = OmegaOracle::new(fp.clone(), 1, Time(200), seed);
            let rep = {
                let spec = ScenarioSpec::new(5, 2)
                    .kz(1)
                    .seed(seed)
                    .max_time(Time(400_000));
                run_repeated_spec(&spec, 4, fp, oracle)
            };
            assert!(rep.spec.ok, "seed {seed}: {}", rep.spec);
        }
    }

    #[test]
    fn two_set_repeated() {
        let fp = FailurePattern::all_correct(5);
        let oracle = OmegaOracle::new(fp.clone(), 2, Time(250), 7);
        let rep = {
            let spec = ScenarioSpec::new(5, 2)
                .kz(2)
                .seed(7)
                .max_time(Time(400_000));
            run_repeated_spec(&spec, 3, fp, oracle)
        };
        assert!(rep.spec.ok, "{}", rep.spec);
        for s in &rep.per_instance {
            assert!(s.distinct_values.len() <= 2);
        }
    }
}
