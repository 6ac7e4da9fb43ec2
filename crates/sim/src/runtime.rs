//! The discrete-event simulation engine.
//!
//! Drives a set of [`Automaton`] processes over the asynchronous network of
//! [`crate::network`], under a [`FailurePattern`], recording a [`Trace`].
//! Everything is deterministic in the `(config, pattern, seed)` triple.

use crate::adversary::{MessageAdversary, RouteEffects, TopologySchedule};
use crate::arena::{MsgArena, MsgSlot};
use crate::automaton::{Automaton, Ctx, Op, Quiet};
use crate::event::{EventKind, EventQueue, Scheduler, Staged};
use crate::failure::FailurePattern;
use crate::id::{PSet, ProcessId};
use crate::network::{DelayModel, DelayRule, Network};
use crate::oracle::OracleSuite;
use crate::rng::SplitMix64;
use crate::time::Time;
use crate::trace::Trace;

/// Counter names of the engine itself, written into the trace once per run
/// (each only if non-zero) when [`Sim::run_into_trace`] returns.
pub mod counter {
    /// Point-to-point messages sent (a broadcast counts `n`).
    pub const SENT: &str = "sim.sent";
    /// Reliable-broadcast invocations.
    pub const RB_SENT: &str = "sim.rb_sent";
    /// Deliveries actually handed to live processes.
    pub const DELIVERED: &str = "sim.delivered";
    /// Events processed by the engine.
    pub const EVENTS: &str = "sim.events";
    /// Messages lost by the message adversary.
    pub const DROPPED: &str = "sim.dropped";
    /// Messages duplicated by the message adversary.
    pub const DUPLICATED: &str = "sim.duplicated";
    /// Messages corrupted by the message adversary.
    pub const CORRUPTED: &str = "sim.corrupted";
    /// Plain messages cut by the topology schedule (structural partition
    /// loss, counted separately from probabilistic `DROPPED`).
    pub const PARTITIONED: &str = "sim.partitioned";
}

/// Periodic step interval bounds in ticks: each process takes its next
/// step a uniform `STEP_MIN..=STEP_MAX` ticks after the previous one.
const STEP_MIN: u64 = 1;
const STEP_MAX: u64 = 5;

/// Probability (percent) that an R-broadcast by a *faulty* process reaches
/// no correct process (the partial-broadcast freedom the reliable-broadcast
/// spec grants the adversary).
const RB_PARTIAL_PCT: u64 = 30;

/// The safety valve: a run stops after this many events. It scales with
/// the O(n²) messages a broadcast round costs: a 20M floor for small
/// systems (which no healthy n ≤ 128 run approaches) and ~200 full
/// broadcast rounds of headroom at the n = 1024 frontier, where a single
/// pre-GST round is already ~1M events.
fn max_events(n: usize) -> u64 {
    20_000_000u64.max((n as u64 * n as u64).saturating_mul(200))
}

/// Static configuration of a run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of processes `n` (≤ [`crate::id::MAX_PROCESSES`]).
    pub n: usize,
    /// Resilience bound `t` (maximum number of crashes).
    pub t: usize,
    /// Root seed; all nondeterminism derives from it.
    pub seed: u64,
    /// Hard stop: no event after this time is processed.
    pub max_time: Time,
    /// Base message-delay distribution.
    pub delay: DelayModel,
    /// Targeted-delay adversary rules.
    pub rules: Vec<DelayRule>,
    /// The message adversary attacking the plain channels
    /// ([`MessageAdversary::None`] is bit-identical to no adversary at
    /// all; reliable-broadcast deliveries are exempt by construction).
    pub adversary: MessageAdversary,
    /// The structural topology schedule — partitions, heals, asymmetric
    /// links ([`TopologySchedule::None`] is bit-identical to no schedule
    /// at all; severed reliable-broadcast messages are delayed until the
    /// heal, never lost).
    pub topology: TopologySchedule,
}

impl SimConfig {
    /// A reasonable default configuration for `n` processes with resilience
    /// `t`: uniform delays 1–10, steps every 1–5 ticks, horizon 50 000.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(n >= 2, "need at least two processes");
        assert!(t < n, "t must be < n");
        SimConfig {
            n,
            t,
            seed: 0,
            max_time: Time(50_000),
            delay: DelayModel::default(),
            rules: Vec::new(),
            adversary: MessageAdversary::None,
            topology: TopologySchedule::None,
        }
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the message adversary (builder style).
    pub fn adversary(mut self, adversary: MessageAdversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the topology schedule (builder style).
    pub fn topology(mut self, topology: TopologySchedule) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the horizon (builder style).
    pub fn max_time(mut self, max_time: Time) -> Self {
        self.max_time = max_time;
        self
    }

    /// Sets the delay model (builder style).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Adds a targeted-delay rule (builder style).
    pub fn rule(mut self, rule: DelayRule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// The simulation engine.
///
/// # Examples
///
/// ```
/// use fd_sim::*;
///
/// // A trivial automaton: everyone broadcasts "hello" once and decides on
/// // the first hello it hears.
/// #[derive(Default)]
/// struct Hello { decided: bool }
/// impl Automaton for Hello {
///     type Msg = u64;
///     fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u64, O>) {
///         ctx.broadcast(ctx.me().0 as u64);
///     }
///     fn on_message<O: OracleSuite + ?Sized>(
///         &mut self,
///         _from: ProcessId,
///         msg: u64,
///         ctx: &mut Ctx<'_, u64, O>,
///     ) {
///         if !self.decided {
///             self.decided = true;
///             ctx.decide(msg);
///             ctx.halt();
///         }
///     }
///     fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, u64, O>) {}
/// }
///
/// let cfg = SimConfig::new(4, 1).seed(7);
/// let fp = FailurePattern::all_correct(4);
/// let sim = Sim::new(cfg, fp, |_p| Hello::default(), NoOracle);
/// let trace = sim.run_into_trace(|_| false);
/// assert_eq!(trace.deciders().len(), 4);
/// ```
pub struct Sim<A: Automaton, O: OracleSuite> {
    cfg: SimConfig,
    fp: FailurePattern,
    procs: Vec<A>,
    halted: Vec<bool>,
    oracle: O,
    net: Network,
    queue: EventQueue,
    /// In-flight message payloads. Every routed message body lives here
    /// exactly once while any of its deliveries are pending; queued events
    /// carry only a `Copy` [`crate::arena::MsgSlot`] handle. A clean
    /// broadcast therefore clones nothing at routing time — per-recipient
    /// copies materialize lazily when the delivery pops, and only for a
    /// recipient that reads them: deliveries to crashed recipients and
    /// deliveries the recipient [`Automaton::settle`]s from the borrowed
    /// payload never pay for a clone at all.
    arena: MsgArena<A::Msg>,
    /// The recycled operation buffer: the hot loop hands it to each
    /// activation's [`Ctx`] and takes it back when the activation ends —
    /// drained by `apply_ops` if the activation emitted ops, as it
    /// came otherwise — so steady-state event processing allocates no
    /// `Vec<Op>`. Activations never nest, so one buffer is all there is
    /// to recycle.
    ops: Vec<Op<A::Msg>>,
    /// Recycled staging buffer: every send (unicast, broadcast or
    /// R-broadcast) stages its deliveries here and flushes them through one
    /// [`Scheduler::push_batch`] call, so steady-state broadcasting
    /// allocates nothing per recipient either.
    staging: Vec<Staged>,
    /// One independent step-schedule stream per process, so that the
    /// presence or absence of one process's events never perturbs another
    /// process's step times — a prerequisite for the indistinguishable-run
    /// adversaries of the paper's irreducibility proofs.
    step_rngs: Vec<SplitMix64>,
    rb_rng: SplitMix64,
    trace: Trace,
    now: Time,
    events: u64,
    /// The engine's own counters, kept as plain fields and folded into the
    /// trace once, when the run ends: point-to-point messages sent,
    /// reliable-broadcast invocations, deliveries handed to live processes,
    /// and the running sum of what the adversary and the topology did.
    sent: u64,
    rb_sent: u64,
    delivered: u64,
    effects: RouteEffects,
    /// The event cap, fixed from `n` at construction.
    max_events: u64,
}

impl<A: Automaton, O: OracleSuite> std::fmt::Debug for Sim<A, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl<A: Automaton, O: OracleSuite> Sim<A, O> {
    /// Builds a simulation: one automaton per process from the factory, the
    /// failure pattern, and the oracle bundle.
    ///
    /// # Panics
    ///
    /// Panics if the pattern size does not match `cfg.n` or if the pattern
    /// violates `t`.
    pub fn new(
        cfg: SimConfig,
        fp: FailurePattern,
        mut make: impl FnMut(ProcessId) -> A,
        oracle: O,
    ) -> Self {
        assert_eq!(fp.n(), cfg.n, "failure pattern size mismatch");
        assert!(
            fp.num_faulty() <= cfg.t,
            "failure pattern has {} crashes but t = {}",
            fp.num_faulty(),
            cfg.t
        );
        let root = SplitMix64::new(cfg.seed);
        // The message adversary draws from its own stream (salt 0xADE5 —
        // part of the reproducibility contract, see
        // `fd_detectors::scenario::salt`): enabling it never perturbs the
        // delay stream of the messages that still get through.
        let net = Network::new(cfg.delay.clone(), cfg.rules.clone(), root.stream(0xDE1A))
            .with_adversary(cfg.adversary.clone(), root.stream(0xADE5))
            .with_topology(cfg.topology.clone(), root.stream(0x7090));
        let procs: Vec<A> = (0..cfg.n).map(|i| make(ProcessId(i))).collect();
        let mut sim = Sim {
            halted: vec![false; cfg.n],
            procs,
            oracle,
            net,
            queue: EventQueue::new(),
            arena: MsgArena::with_capacity(cfg.n),
            ops: Vec::new(),
            staging: Vec::with_capacity(cfg.n + 1),
            step_rngs: (0..cfg.n)
                .map(|i| root.stream(0x57E9).stream(i as u64))
                .collect(),
            rb_rng: root.stream(0x4BAD),
            trace: Trace::new(),
            now: Time::ZERO,
            events: 0,
            sent: 0,
            rb_sent: 0,
            delivered: 0,
            effects: RouteEffects::default(),
            max_events: max_events(cfg.n),
            cfg,
            fp,
        };
        sim.bootstrap();
        sim
    }

    fn bootstrap(&mut self) {
        for i in 0..self.cfg.n {
            let p = ProcessId(i);
            if self.fp.is_alive_at(p, Time::ZERO) {
                self.activate(p, true);
                let d = self.next_step_delay(p);
                self.queue.push(Time(d), p, EventKind::Step);
            } else if self.fp.joins_late(p) {
                // Churn: a fresh process id joining the run late. Its
                // `on_start` fires at the join instant (unless it is also
                // scheduled to crash at or before it).
                let start = self.fp.start_time(p);
                if self.fp.is_alive_at(p, start) {
                    self.queue.push(start, p, EventKind::Join);
                }
            }
        }
    }

    fn next_step_delay(&mut self, p: ProcessId) -> u64 {
        self.step_rngs[p.0].range(STEP_MIN, STEP_MAX)
    }

    /// Runs until `stop(&trace)` returns true (checked after each event),
    /// the horizon, the event cap, or queue exhaustion, and hands back the
    /// trace — the one way to drive a run. `|_| false` runs to the horizon.
    ///
    /// The trace's horizon is the last event's time if `stop` fired, else
    /// the configured `max_time`; its `sim.events` counter is the number
    /// of processed events. The engine's [`counter`]s are written once, at
    /// the end: the stop predicate sees only what the automata published,
    /// decided and bumped.
    pub fn run_into_trace(mut self, mut stop: impl FnMut(&Trace) -> bool) -> Trace {
        let mut stopped_early = false;
        while let Some(ev) = self.queue.pop() {
            if ev.at > self.cfg.max_time {
                break;
            }
            if self.events >= self.max_events {
                break;
            }
            self.now = ev.at;
            self.events += 1;
            let to = ev.to;
            match ev.kind {
                EventKind::Deliver { from, slot } => self.deliver(to, from, slot, false),
                EventKind::RbDeliver { from, slot } => self.deliver(to, from, slot, true),
                EventKind::Step | EventKind::Join => {
                    if self.fp.is_alive_at(to, self.now) && !self.halted[to.0] {
                        let join = matches!(ev.kind, EventKind::Join);
                        let (n, t) = (self.cfg.n, self.cfg.t);
                        if join || !self.procs[to.0].settle(Quiet::Step, n, t) {
                            self.activate(to, join);
                        }
                        if !self.halted[to.0] {
                            let d = self.next_step_delay(to);
                            self.queue.push(self.now + d, to, EventKind::Step);
                        }
                    }
                }
            }
            if stop(&self.trace) {
                stopped_early = true;
                break;
            }
        }
        // One bump per counter per run, not per event. A zero count leaves
        // its key absent, so an adversary-free trace lists no effect keys.
        let fx = self.effects;
        for (name, by) in [
            (counter::EVENTS, self.events),
            (counter::SENT, self.sent),
            (counter::RB_SENT, self.rb_sent),
            (counter::DELIVERED, self.delivered),
            (counter::DROPPED, fx.dropped),
            (counter::DUPLICATED, fx.duplicated),
            (counter::CORRUPTED, fx.corrupted),
            (counter::PARTITIONED, fx.severed),
        ] {
            if by > 0 {
                self.trace.bump(name, by);
            }
        }
        // If the run stopped early the observation window ends at the last
        // event; otherwise (horizon reached or queue drained — after which
        // nothing can change) it extends to the configured horizon.
        self.trace.set_horizon(if stopped_early {
            self.now
        } else {
            self.cfg.max_time
        });
        self.trace
    }

    /// Splits the engine into what one activation of `p` borrows: its
    /// automaton, the arena its message (if any) comes out of, and a
    /// [`Ctx`] over the recycled op buffer.
    #[inline]
    fn ctx(&mut self, p: ProcessId) -> (&mut A, &mut MsgArena<A::Msg>, Ctx<'_, A::Msg, O>) {
        let ctx = Ctx::with_buffer(
            p,
            self.cfg.n,
            self.cfg.t,
            self.now,
            &mut self.oracle,
            &mut self.trace,
            std::mem::take(&mut self.ops),
        );
        (&mut self.procs[p.0], &mut self.arena, ctx)
    }

    /// Hands one popped delivery to its recipient. The payload goes from
    /// the arena slot straight into the by-value callback argument — the
    /// clone [`MsgArena::take`] makes is the only copy. A crashed
    /// recipient's delivery, and one the recipient [`Automaton::settle`]s
    /// from the borrowed payload, is released without materializing it
    /// at all; the latter still counts as delivered.
    fn deliver(&mut self, to: ProcessId, from: ProcessId, slot: MsgSlot, rb: bool) {
        if !self.fp.is_alive_at(to, self.now) {
            self.arena.release(slot);
            return;
        }
        self.delivered += 1;
        let msg = self.arena.get(slot);
        let (n, t) = (self.cfg.n, self.cfg.t);
        if self.procs[to.0].settle(Quiet::Deliver { from, msg, rb }, n, t) {
            self.arena.release(slot);
            return;
        }
        let (proc, arena, mut ctx) = self.ctx(to);
        if rb {
            proc.on_rb_deliver(from, arena.take(slot), &mut ctx);
        } else {
            proc.on_message(from, arena.take(slot), &mut ctx);
        }
        let ops = ctx.take_ops();
        self.finish(to, ops);
    }

    /// Runs `p`'s `on_start` if `start`, else its `on_step`.
    fn activate(&mut self, p: ProcessId, start: bool) {
        let (proc, _, mut ctx) = self.ctx(p);
        if start {
            proc.on_start(&mut ctx)
        } else {
            proc.on_step(&mut ctx)
        }
        let ops = ctx.take_ops();
        self.finish(p, ops);
    }

    /// Ends an activation of `p`: applies what it buffered, if anything,
    /// and keeps the (empty) buffer for the next one. Most activations
    /// emit nothing — a guard re-checked and still closed — and go
    /// straight back.
    #[inline(always)]
    fn finish(&mut self, p: ProcessId, ops: Vec<Op<A::Msg>>) {
        if ops.is_empty() {
            // `ctx` left `Vec::new()` in `self.ops`, which owns no memory:
            // forgetting it instead of dropping it skips a capacity test
            // and a call that never frees anything.
            debug_assert_eq!(self.ops.capacity(), 0, "activations never nest");
            std::mem::forget(std::mem::replace(&mut self.ops, ops));
        } else {
            self.apply_ops(p, ops);
        }
    }

    /// Applies the operations one activation buffered and keeps the
    /// (drained) buffer for the next one.
    fn apply_ops(&mut self, from: ProcessId, mut ops: Vec<Op<A::Msg>>) {
        for op in ops.drain(..) {
            match op {
                Op::Send { to, msg } => {
                    // A unicast is a one-recipient broadcast: same staged
                    // path, same draws as the `to` copy of a broadcast.
                    self.sent += 1;
                    self.effects += self.net.route_to(
                        &mut self.queue,
                        &mut self.arena,
                        from,
                        std::iter::once(to),
                        self.now,
                        msg,
                        &mut self.staging,
                    );
                }
                Op::Broadcast { msg } => {
                    // All n delivery delays drawn in one pass, the payload
                    // stored once in the arena, and all deliveries inserted
                    // through a single `push_batch`.
                    self.sent += self.cfg.n as u64;
                    self.effects += self.net.route_broadcast(
                        &mut self.queue,
                        &mut self.arena,
                        from,
                        self.cfg.n,
                        self.now,
                        msg,
                        &mut self.staging,
                    );
                }
                Op::RBroadcast { msg } => {
                    self.rb_sent += 1;
                    self.rb_cast(from, msg);
                }
                Op::Timer { delay } => {
                    self.queue.push(self.now + delay, from, EventKind::Step);
                }
                Op::Halt => {
                    self.halted[from.0] = true;
                }
            }
        }
        self.ops = ops;
    }

    /// Reliable-broadcast semantics (paper §2.1):
    /// * validity / integrity by construction (each receiver gets one copy);
    /// * termination: if the sender is correct, every correct process
    ///   R-delivers; if the sender is faulty, the adversary may instead let
    ///   the message reach only a (possibly empty) subset of the faulty
    ///   processes — never a strict subset of the correct ones.
    fn rb_cast(&mut self, from: ProcessId, msg: A::Msg) {
        let receivers: PSet =
            if !self.fp.is_correct(from) && self.rb_rng.chance(RB_PARTIAL_PCT, 100) {
                // Partial broadcast: a random subset of the faulty processes,
                // sampled as positions in the increasing-identity order of the
                // faulty set.
                let faulty = self.fp.faulty();
                let len = faulty.len();
                let k = self.rb_rng.below(len as u64 + 1) as usize;
                let picked: PSet = self.rb_rng.sample_indices(len, k, |s| {
                    s.iter().map(|&i| ProcessId(i as usize)).collect()
                });
                faulty
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| picked.contains(ProcessId(i)))
                    .map(|(_, p)| p)
                    .collect()
            } else {
                PSet::full(self.cfg.n)
            };
        // R-deliveries bypass the message adversary: the rb axioms (no
        // loss, alteration, or duplication) are a premise of the model.
        // Batched like plain broadcasts: delays drawn in receiver order,
        // one `push_batch` insert.
        self.net.route_protected(
            &mut self.queue,
            &mut self.arena,
            from,
            receivers,
            self.now,
            msg,
            &mut self.staging,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NoOracle;
    use crate::trace::slot;
    use crate::trace::FdValue;

    /// Broadcasts once; counts receipts; decides when it heard everyone
    /// except up to `t` processes.
    struct Counter {
        heard: PSet,
        decided: bool,
    }

    impl Automaton for Counter {
        type Msg = ();

        fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, (), O>) {
            ctx.broadcast(());
        }

        fn on_message<O: OracleSuite + ?Sized>(
            &mut self,
            from: ProcessId,
            _msg: (),
            ctx: &mut Ctx<'_, (), O>,
        ) {
            self.heard.insert(from);
            if !self.decided && self.heard.len() >= ctx.n() - ctx.t() {
                self.decided = true;
                ctx.decide(self.heard.len() as u64);
            }
        }

        fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, (), O>) {}
    }

    fn counter(_p: ProcessId) -> Counter {
        Counter {
            heard: PSet::EMPTY,
            decided: false,
        }
    }

    #[test]
    fn all_correct_everyone_decides() {
        let cfg = SimConfig::new(5, 1).seed(3);
        let fp = FailurePattern::all_correct(5);
        let sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        assert_eq!(rep.deciders(), PSet::full(5));
    }

    #[test]
    fn crashed_process_does_not_decide() {
        let cfg = SimConfig::new(5, 1).seed(4);
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(2), Time::ZERO)
            .build();
        let sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        assert!(!rep.deciders().contains(ProcessId(2)));
        assert_eq!(rep.deciders().len(), 4);
    }

    #[test]
    fn determinism() {
        let run = |seed| {
            let cfg = SimConfig::new(6, 2).seed(seed);
            let fp = FailurePattern::builder(6)
                .crash(ProcessId(0), Time(7))
                .build();
            let sim = Sim::new(cfg, fp, counter, NoOracle);
            let rep = sim.run_into_trace(|_| false);
            (
                rep.counter(counter::EVENTS),
                rep.counter(counter::SENT),
                rep.decisions().to_vec(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn early_stop_predicate() {
        let cfg = SimConfig::new(4, 1).seed(5);
        let fp = FailurePattern::all_correct(4);
        let sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run_into_trace(|t| !t.decisions().is_empty());
        assert!(rep.horizon() < Time(50_000), "stopped before the horizon");
        assert!(!rep.decisions().is_empty());
    }

    /// An automaton that publishes its round on every step and halts at 3.
    struct Stepper {
        rounds: u64,
    }

    impl Automaton for Stepper {
        type Msg = ();
        fn on_start<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, (), O>) {}
        fn on_message<O: OracleSuite + ?Sized>(
            &mut self,
            _f: ProcessId,
            _m: (),
            _ctx: &mut Ctx<'_, (), O>,
        ) {
        }
        fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, (), O>) {
            self.rounds += 1;
            ctx.publish(slot::ROUND, FdValue::Num(self.rounds));
            if self.rounds == 3 {
                ctx.halt();
            }
        }
    }

    #[test]
    fn halt_stops_steps() {
        let cfg = SimConfig::new(2, 0).seed(6);
        let fp = FailurePattern::all_correct(2);
        let sim = Sim::new(cfg, fp, |_| Stepper { rounds: 0 }, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        for i in 0..2 {
            assert_eq!(
                rep.history(ProcessId(i), slot::ROUND).last(),
                Some(FdValue::Num(3))
            );
        }
    }

    /// Emits ops on some activations only: a broadcast on every third
    /// delivery, a timer on every fourth, and a halt once ten deliveries
    /// from at least `n − t` distinct senders were heard. Its steps only
    /// count themselves, and a step of a halted process counts as an
    /// error.
    struct Sparse {
        delivered: u64,
        heard: PSet,
        halted: bool,
    }

    impl Automaton for Sparse {
        type Msg = ();
        fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, (), O>) {
            ctx.broadcast(());
        }
        fn on_message<O: OracleSuite + ?Sized>(
            &mut self,
            from: ProcessId,
            _m: (),
            ctx: &mut Ctx<'_, (), O>,
        ) {
            if self.halted {
                return;
            }
            self.delivered += 1;
            self.heard.insert(from);
            if self.delivered.is_multiple_of(3) {
                ctx.broadcast(());
            }
            if self.delivered.is_multiple_of(4) {
                ctx.set_timer(2);
            }
            if self.heard.len() >= ctx.n() - ctx.t() && self.delivered >= 10 {
                self.halted = true;
                ctx.halt();
            }
        }
        fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, (), O>) {
            let name = if self.halted {
                "steps_after_halt"
            } else {
                "steps"
            };
            ctx.bump(name);
        }
    }

    /// Activations that emit nothing skip applying ops; the ones that emit
    /// lose none. The counts are those of the engine that applied every
    /// activation's (possibly empty) buffer.
    #[test]
    fn skipped_activations_drop_no_op() {
        let run = |seed| {
            let cfg = SimConfig::new(7, 3).seed(seed);
            let fp = FailurePattern::builder(7)
                .crash(ProcessId(4), Time(6))
                .build();
            let sparse = |_| Sparse {
                delivered: 0,
                heard: PSet::EMPTY,
                halted: false,
            };
            let rep = Sim::new(cfg, fp, sparse, NoOracle).run_into_trace(|_| false);
            assert_eq!(rep.counter("steps_after_halt"), 0, "seed {seed}");
            [counter::SENT, counter::DELIVERED, counter::EVENTS, "steps"].map(|c| rep.counter(c))
        };
        // [sent, delivered, events, steps] for seeds 0, 1, 2.
        let want = [
            [189, 168, 232, 23],
            [182, 160, 225, 23],
            [182, 160, 231, 29],
        ];
        assert_eq!((0..3).map(run).collect::<Vec<_>>(), want);
    }

    #[test]
    fn late_joiner_starts_at_its_join_time() {
        // p2 joins at 50: it misses the t=0 broadcasts (dropped — it is
        // not alive), broadcasts its own hello at 50, and everyone else
        // hears it.
        let cfg = SimConfig::new(4, 1).seed(9);
        let fp = FailurePattern::builder(4)
            .crash(ProcessId(0), Time(30))
            .join(ProcessId(2), Time(50))
            .build();
        let sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        // p1/p3 hear p0's pre-crash broadcast, each other, and eventually
        // p2 — enough for n - t = 3. The joiner itself missed every t≈0
        // broadcast and nobody rebroadcasts, so it hears only itself and
        // must not decide.
        assert!(rep.deciders().contains(ProcessId(1)));
        assert!(rep.deciders().contains(ProcessId(3)));
        assert!(!rep.deciders().contains(ProcessId(2)));
        // No delivery reached p2 before its join time.
        assert!(rep.counter(counter::EVENTS) > 0);
    }

    #[test]
    fn join_past_horizon_never_activates() {
        let cfg = SimConfig::new(3, 1).seed(2).max_time(Time(100));
        let fp = FailurePattern::builder(3)
            .join(ProcessId(2), Time(10_000))
            .build();
        let sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        // The run completes without panicking and the joiner does nothing.
        assert!(!rep.deciders().contains(ProcessId(2)));
    }

    #[test]
    fn join_at_crash_instant_is_skipped() {
        // A process scheduled to crash at its own join time never runs.
        let cfg = SimConfig::new(3, 1).seed(3);
        let fp = FailurePattern::builder(3)
            .join(ProcessId(1), Time(20))
            .crash(ProcessId(1), Time(20))
            .build();
        let sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        assert!(!rep.deciders().contains(ProcessId(1)));
    }

    #[test]
    fn explicit_none_adversary_is_bit_identical_to_default() {
        let run = |adv: MessageAdversary| {
            let cfg = SimConfig::new(6, 2).seed(21).adversary(adv);
            let fp = FailurePattern::builder(6)
                .crash(ProcessId(1), Time(30))
                .build();
            let sim = Sim::new(cfg, fp, counter, NoOracle);
            let rep = sim.run_into_trace(|_| false);
            (
                rep.counter(counter::EVENTS),
                rep.counter(counter::SENT),
                rep.counter(counter::DELIVERED),
                rep.decisions().to_vec(),
            )
        };
        let base = run(MessageAdversary::None);
        assert_eq!(base, run(MessageAdversary::Rules(vec![])));
    }

    #[test]
    fn drop_adversary_loses_deliveries_and_counts_them() {
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::drop(30)]);
        let run = |adv: MessageAdversary| {
            let cfg = SimConfig::new(5, 1).seed(11).adversary(adv);
            let fp = FailurePattern::all_correct(5);
            let sim = Sim::new(cfg, fp, counter, NoOracle);
            sim.run_into_trace(|_| false)
        };
        let clean = run(MessageAdversary::None);
        let attacked = run(adv.clone());
        let dropped = attacked.counter(counter::DROPPED);
        assert!(dropped > 0, "30% drop lost nothing");
        assert_eq!(
            attacked.counter(counter::DELIVERED) + dropped,
            attacked.counter(counter::SENT),
            "every sent message is either delivered or counted dropped"
        );
        assert_eq!(clean.counter(counter::DROPPED), 0);
        // Determinism: the attacked run reproduces bit-identically.
        let again = run(adv);
        assert_eq!(
            attacked.counter(counter::EVENTS),
            again.counter(counter::EVENTS)
        );
        assert_eq!(
            attacked.counter(counter::DROPPED),
            again.counter(counter::DROPPED)
        );
    }

    #[test]
    fn duplicate_adversary_delivers_extra_copies() {
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::duplicate(50)]);
        let cfg = SimConfig::new(5, 1).seed(12).adversary(adv);
        let fp = FailurePattern::all_correct(5);
        let sim = Sim::new(cfg, fp, counter, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        let dup = rep.counter(counter::DUPLICATED);
        assert!(dup > 0, "50% duplication duplicated nothing");
        assert_eq!(
            rep.counter(counter::DELIVERED),
            rep.counter(counter::SENT) + dup,
            "each duplicate is one extra delivery"
        );
    }

    #[test]
    fn rb_deliveries_survive_a_total_drop_adversary() {
        // Everyone rb-broadcasts once; a 100% drop adversary kills every
        // plain channel, but the axiomatic rb is exempt: every process
        // still R-delivers and decides.
        struct RbOnly {
            decided: bool,
        }
        impl Automaton for RbOnly {
            type Msg = u64;
            fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u64, O>) {
                ctx.rb_broadcast(ctx.me().0 as u64);
            }
            fn on_message<O: OracleSuite + ?Sized>(
                &mut self,
                _f: ProcessId,
                _m: u64,
                _ctx: &mut Ctx<'_, u64, O>,
            ) {
            }
            fn on_rb_deliver<O: OracleSuite + ?Sized>(
                &mut self,
                _f: ProcessId,
                m: u64,
                ctx: &mut Ctx<'_, u64, O>,
            ) {
                if !self.decided {
                    self.decided = true;
                    ctx.decide(m);
                }
            }
            fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, u64, O>) {}
        }
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::drop(100)]);
        let cfg = SimConfig::new(4, 1).seed(5).adversary(adv);
        let fp = FailurePattern::all_correct(4);
        let sim = Sim::new(cfg, fp, |_| RbOnly { decided: false }, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        assert_eq!(rep.deciders().len(), 4);
        assert_eq!(rep.counter(counter::DROPPED), 0, "nothing plain sent");
    }

    #[test]
    fn messages_from_faulty_sender_still_delivered() {
        // p0 broadcasts at start then crashes at t=1: reliability of the
        // channel means its messages still arrive.
        struct Once;
        impl Automaton for Once {
            type Msg = u8;
            fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u8, O>) {
                if ctx.me() == ProcessId(0) {
                    ctx.broadcast(1);
                }
            }
            fn on_message<O: OracleSuite + ?Sized>(
                &mut self,
                from: ProcessId,
                _m: u8,
                ctx: &mut Ctx<'_, u8, O>,
            ) {
                if from == ProcessId(0) && ctx.me() != ProcessId(0) {
                    ctx.decide(1);
                }
            }
            fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, u8, O>) {}
        }
        let cfg = SimConfig::new(3, 1).seed(8);
        let fp = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(1))
            .build();
        let sim = Sim::new(cfg, fp, |_| Once, NoOracle);
        let rep = sim.run_into_trace(|_| false);
        assert!(rep.deciders().contains(ProcessId(1)));
        assert!(rep.deciders().contains(ProcessId(2)));
    }
}
