//! Process automata: the programming model for distributed algorithms.
//!
//! Each process of the paper's pseudo-code is implemented as a deterministic
//! state machine reacting to deliveries and local steps. The pseudo-code's
//! `wait until` statements become guards re-evaluated on every event that
//! can move them (a delivery the automaton [`Automaton::ignores`] cannot);
//! its `repeat forever` tasks run on periodic [`EventKind::Step`] events.
//!
//! [`EventKind::Step`]: crate::event::EventKind::Step

use crate::id::{PSet, ProcessId};
use crate::oracle::OracleSuite;
use crate::time::Time;
use crate::trace::{FdValue, Trace};

/// An operation emitted by an automaton during one activation; the runtime
/// applies them after the activation returns.
#[derive(Clone, Debug)]
pub enum Op<M> {
    /// Point-to-point send.
    Send {
        /// Destination.
        to: ProcessId,
        /// Payload.
        msg: M,
    },
    /// `Broadcast(m)`: a plain send to every process (including self).
    Broadcast {
        /// Payload.
        msg: M,
    },
    /// `R_broadcast(m)`: reliable broadcast (paper §2.1 semantics).
    RBroadcast {
        /// Payload.
        msg: M,
    },
    /// Request an extra `Step` event after `delay` ticks.
    Timer {
        /// Delay in ticks (≥ 1).
        delay: u64,
    },
    /// Stop this process's periodic steps (its tasks halted).
    Halt,
}

/// Execution context passed to an automaton on every activation.
///
/// Gives access to the clock, the process's identity, the system size, the
/// failure-detector bundle, and the outgoing operation buffer.
///
/// The oracle is a *generic* parameter (defaulting to `dyn OracleSuite` so
/// hand-written harness code can keep the erased type): when the runtime
/// instantiates `Ctx` with the concrete oracle bundle of the run, every
/// [`Ctx::suspected`]/[`Ctx::trusted`]/[`Ctx::query`] call in the
/// activation hot loop is a static call the compiler can inline — no
/// vtable hop per oracle read. See `fd_sim::oracle` for where the one
/// deliberate dynamic-dispatch boundary lives.
pub struct Ctx<'a, M, O: OracleSuite + ?Sized = dyn OracleSuite + 'a> {
    me: ProcessId,
    n: usize,
    t: usize,
    now: Time,
    oracle: &'a mut O,
    trace: &'a mut Trace,
    ops: Vec<Op<M>>,
}

impl<M, O: OracleSuite + ?Sized> std::fmt::Debug for Ctx<'_, M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("me", &self.me)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<'a, M, O: OracleSuite + ?Sized> Ctx<'a, M, O> {
    /// Creates a context (used by the runtime; exposed for harnesses that
    /// drive automata directly in unit tests).
    pub fn new(
        me: ProcessId,
        n: usize,
        t: usize,
        now: Time,
        oracle: &'a mut O,
        trace: &'a mut Trace,
    ) -> Self {
        Self::with_buffer(me, n, t, now, oracle, trace, Vec::new())
    }

    /// As [`Ctx::new`], but buffering operations into a caller-recycled
    /// vector. The runtime pools these buffers across activations so the
    /// hot loop stops allocating one `Vec<Op>` per event; the buffer must
    /// arrive empty.
    pub fn with_buffer(
        me: ProcessId,
        n: usize,
        t: usize,
        now: Time,
        oracle: &'a mut O,
        trace: &'a mut Trace,
        ops: Vec<Op<M>>,
    ) -> Self {
        debug_assert!(ops.is_empty(), "recycled op buffer must arrive empty");
        Ctx {
            me,
            n,
            t,
            now,
            oracle,
            trace,
            ops,
        }
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Total number of processes `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of crashes `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Reads `suspected_i` from the underlying failure detector.
    pub fn suspected(&mut self) -> PSet {
        self.oracle.suspected(self.me, self.now)
    }

    /// Reads `trusted_i` from the underlying failure detector.
    pub fn trusted(&mut self) -> PSet {
        self.oracle.trusted(self.me, self.now)
    }

    /// Invokes `query(x)` on the underlying failure detector.
    pub fn query(&mut self, x: PSet) -> bool {
        self.oracle.query(self.me, x, self.now)
    }

    /// Sends `msg` to `to` over the (reliable, asynchronous) channel.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.ops.push(Op::Send { to, msg });
    }

    /// `Broadcast(m)`: sends `msg` to every process including self.
    pub fn broadcast(&mut self, msg: M) {
        self.ops.push(Op::Broadcast { msg });
    }

    /// `R_broadcast(m)`: reliably broadcasts `msg` (paper §2.1).
    pub fn rb_broadcast(&mut self, msg: M) {
        self.ops.push(Op::RBroadcast { msg });
    }

    /// Requests an extra activation after `delay` ticks (≥ 1).
    pub fn set_timer(&mut self, delay: u64) {
        self.ops.push(Op::Timer {
            delay: delay.max(1),
        });
    }

    /// Stops this process's periodic steps.
    pub fn halt(&mut self) {
        self.ops.push(Op::Halt);
    }

    /// Publishes an observable output value (deduplicated step function).
    pub fn publish(&mut self, slot: u32, value: FdValue) {
        self.trace.publish(self.me, slot, self.now, value);
    }

    /// Records the decision of this process.
    pub fn decide(&mut self, value: u64) {
        self.trace.decide(self.now, self.me, value);
    }

    /// Increments a named metric counter.
    pub fn bump(&mut self, name: &'static str) {
        self.trace.bump(name, 1);
    }

    /// Drains the buffered operations (runtime use).
    pub fn take_ops(&mut self) -> Vec<Op<M>> {
        std::mem::take(&mut self.ops)
    }

    /// Runs `f` with a child context typed at a different message alphabet,
    /// sharing this context's clock, oracle and trace, and returns the
    /// closure's value. The child buffers its operations into `ops`, which
    /// the caller owns and recycles across activations exactly as the
    /// runtime recycles the top-level buffer: it is moved into the child,
    /// handed back with whatever the closure emitted, and must arrive
    /// empty. Used by wrapper automata (e.g. the echo-based reliable
    /// broadcast, the two-wheels composition) that translate an inner
    /// algorithm's operations, usually through [`forward_ops`].
    pub fn reborrow_inner<M2, R>(
        &mut self,
        ops: &mut Vec<Op<M2>>,
        f: impl FnOnce(&mut Ctx<'_, M2, O>) -> R,
    ) -> R {
        let mut child = Ctx::with_buffer(
            self.me,
            self.n,
            self.t,
            self.now,
            &mut *self.oracle,
            &mut *self.trace,
            std::mem::take(ops),
        );
        let r = f(&mut child);
        *ops = child.ops;
        r
    }
}

/// Replays operations buffered by an inner automaton (obtained via
/// [`Ctx::reborrow_inner`]) into an outer context, translating message
/// payloads with `f`, and leaves `ops` empty with its capacity intact for
/// the next activation. This is the plumbing for *composed* automata —
/// e.g. the two-wheels construction wraps two sub-algorithms whose
/// messages are embedded into one combined alphabet.
pub fn forward_ops<M1, M2, O: OracleSuite + ?Sized>(
    ctx: &mut Ctx<'_, M2, O>,
    ops: &mut Vec<Op<M1>>,
    mut f: impl FnMut(M1) -> M2,
) {
    // Most inner activations emit nothing: skip the drain's set-up.
    if ops.is_empty() {
        return;
    }
    for op in ops.drain(..) {
        match op {
            Op::Send { to, msg } => ctx.send(to, f(msg)),
            Op::Broadcast { msg } => ctx.broadcast(f(msg)),
            Op::RBroadcast { msg } => ctx.rb_broadcast(f(msg)),
            Op::Timer { delay } => ctx.set_timer(delay),
            Op::Halt => ctx.halt(),
        }
    }
}

/// A deterministic per-process state machine.
///
/// The runtime activates exactly one callback per event; callbacks must not
/// block — `wait until` conditions are expressed by returning and
/// re-checking guards on later activations.
///
/// Every callback is generic over the oracle bundle `O` so the runtime's
/// hot loop stays monomorphic end to end: algorithms written against
/// `Ctx<'_, Msg, O>` compile to static oracle calls for whatever concrete
/// bundle the run was built with. The generic methods make the trait
/// non-object-safe, which is deliberate — automata are always statically
/// known to the engine ([`crate::Sim`] is generic over `A`), and so are
/// oracles: each run is built with its concrete oracle type, never one
/// erased behind a `dyn`.
pub trait Automaton {
    /// The message alphabet of the algorithm. The
    /// [`Corruptible`](crate::adversary::Corruptible) bound is what lets
    /// the message adversary mutate payloads in flight; alphabets with
    /// nothing to corrupt use the empty impl (a no-op).
    type Msg: Clone + std::fmt::Debug + crate::adversary::Corruptible;

    /// Called once at time zero (before any delivery), unless the process
    /// crashed initially.
    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Self::Msg, O>);

    /// Called when a point-to-point or plain-broadcast message arrives.
    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg, O>,
    );

    /// Called when a reliably-broadcast message is R-delivered
    /// (`from` is the original broadcaster).
    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg, O>,
    ) {
        // Most algorithms treat R-delivery like an ordinary delivery.
        self.on_message(from, msg, ctx);
    }

    /// Called on periodic local steps (drives `repeat forever` tasks and
    /// re-evaluates time-dependent guards such as oracle reads).
    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Self::Msg, O>);

    /// Whether a delivery of `msg` would be a no-op, asked before the
    /// payload leaves the arena. If so, the engine releases the delivery
    /// as it releases one to a crashed recipient: no clone, no [`Ctx`], no
    /// callback. It still counts in `sim.delivered`.
    ///
    /// Return `true` only if neither [`Automaton::on_message`] nor
    /// [`Automaton::on_rb_deliver`] would, given `msg` now, change state
    /// (a pure lookup hint aside), emit an op, read the oracle, or write
    /// the trace. The default never skips. Wrappers that log or forward
    /// every inner message keep it: an inner no-op is not theirs.
    fn ignores(&self, msg: &Self::Msg) -> bool {
        let _ = msg;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NoOracle;

    #[test]
    fn ctx_buffers_ops() {
        let mut oracle = NoOracle;
        let mut trace = Trace::new();
        let mut ctx: Ctx<'_, u8> = Ctx::new(ProcessId(0), 3, 1, Time(5), &mut oracle, &mut trace);
        ctx.send(ProcessId(1), 7);
        ctx.broadcast(8);
        ctx.rb_broadcast(9);
        ctx.set_timer(0);
        ctx.halt();
        let ops = ctx.take_ops();
        assert_eq!(ops.len(), 5);
        assert!(matches!(
            ops[0],
            Op::Send {
                to: ProcessId(1),
                msg: 7
            }
        ));
        assert!(matches!(ops[3], Op::Timer { delay: 1 })); // clamped to >= 1
        assert!(matches!(ops[4], Op::Halt));
        assert!(ctx.take_ops().is_empty());
    }

    #[test]
    fn ctx_publish_and_decide_land_in_trace() {
        let mut oracle = NoOracle;
        let mut trace = Trace::new();
        {
            let mut ctx: Ctx<'_, u8> =
                Ctx::new(ProcessId(2), 3, 1, Time(4), &mut oracle, &mut trace);
            ctx.publish(crate::trace::slot::TRUSTED, FdValue::Num(1));
            ctx.decide(99);
            ctx.bump("x");
        }
        assert_eq!(trace.decisions().len(), 1);
        assert_eq!(trace.counter("x"), 1);
        assert_eq!(
            trace
                .history(ProcessId(2), crate::trace::slot::TRUSTED)
                .last(),
            Some(FdValue::Num(1))
        );
    }

    #[test]
    fn ctx_accessors() {
        let mut oracle = NoOracle;
        let mut trace = Trace::new();
        let ctx: Ctx<'_, u8> = Ctx::new(ProcessId(1), 5, 2, Time(9), &mut oracle, &mut trace);
        assert_eq!(ctx.me(), ProcessId(1));
        assert_eq!(ctx.n(), 5);
        assert_eq!(ctx.t(), 2);
        assert_eq!(ctx.now(), Time(9));
    }
}
