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
use fd_detectors::check::{self, ChurnGuarantee};
use fd_detectors::scenario::{run_scenario_until, ScenarioReport, ScenarioSpec};
use fd_detectors::CheckOutcome;
use fd_sim::{
    forward_ops, Automaton, Ctx, Decision, FailurePattern, Op, OracleSuite, ProcessId, Trace,
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

/// The instance-`inst` decisions of a repeated run at `n` processes: a
/// process's `i`-th decision, in its own decision order, is its
/// instance-`i` decision. Faulty processes count like correct ones.
pub fn instance_decisions(decisions: &[Decision], n: usize, inst: u32) -> Vec<Decision> {
    let mut made = vec![0u32; n];
    decisions
        .iter()
        .filter(|d| {
            made[d.by.0] += 1;
            made[d.by.0] == inst + 1
        })
        .copied()
        .collect()
}

/// Judges a repeated run's trace: each of its `instances` instances
/// ([`instance_decisions`]) goes to [`check::kset_agreement`] against that
/// instance's proposals ([`proposal`]), termination claimed. The verdict
/// is the first failing instance's, its detail prefixed with the instance,
/// or a pass reading "`m` instances".
pub fn repeated_spec(trace: &Trace, fp: &FailurePattern, k: usize, instances: u32) -> CheckOutcome {
    let n = fp.n();
    let judge = |inst| {
        let proposals: Vec<u64> = (0..n).map(|q| proposal(ProcessId(q), inst)).collect();
        let decided = instance_decisions(trace.decisions(), n, inst);
        check::kset_agreement(&decided, fp, k, &proposals, ChurnGuarantee::Liveness)
    };
    (0..instances)
        .map(|inst| (inst, judge(inst)))
        .find(|(_, out)| !out.ok)
        .map(|(inst, out)| CheckOutcome {
            detail: format!("instance {inst}: {}", out.detail),
            ..out
        })
        .unwrap_or_else(|| CheckOutcome::pass(None, format!("{instances} instances")))
}

/// Runs `instances` successive `spec.k`-set agreement instances under
/// `spec`, until every correct process decided all of them, and judges
/// the run with [`repeated_spec`].
pub fn run_repeated_spec(
    spec: &ScenarioSpec,
    instances: u32,
    fp: FailurePattern,
    oracle: impl fd_sim::OracleSuite,
) -> ScenarioReport {
    let correct = fp.correct();
    let want = instances as usize * correct.len();
    let trace = run_scenario_until(
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
    let check = repeated_spec(&trace, &fp, spec.k, instances);
    ScenarioReport::new("repeated_kset", spec, fp, trace, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::OmegaOracle;
    use fd_sim::Time;

    /// The distinct values and the last decision time of each instance.
    fn per_instance(rep: &ScenarioReport, instances: u32) -> Vec<(Vec<u64>, Time)> {
        (0..instances)
            .map(|inst| {
                let ds = instance_decisions(rep.trace.decisions(), rep.fp.n(), inst);
                let mut values: Vec<u64> = ds.iter().map(|d| d.value).collect();
                values.sort_unstable();
                values.dedup();
                (values, ds.iter().map(|d| d.at).max().unwrap_or(Time::ZERO))
            })
            .collect()
    }

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
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert_eq!(rep.check.detail, "5 instances");
            for (inst, (values, _)) in per_instance(&rep, 5).iter().enumerate() {
                assert_eq!(values.len(), 1, "instance {inst}");
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
        assert!(rep.check.ok, "{}", rep.check);
        let mut prev = Time::ZERO;
        for (_, last) in per_instance(&rep, 3) {
            assert!(last >= prev);
            prev = last;
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
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
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
        assert!(rep.check.ok, "{}", rep.check);
        for (values, _) in per_instance(&rep, 3) {
            assert!(values.len() <= 2);
        }
    }
}
