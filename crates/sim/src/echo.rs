//! A constructive reliable-broadcast implementation (echo algorithm).
//!
//! The paper assumes a reliable-broadcast abstraction and cites
//! Hadzilacos & Toueg for implementations. The runtime provides the
//! abstraction axiomatically ([`crate::runtime::Sim`]'s `rb_broadcast`);
//! this module provides the classic *relay* implementation on top of plain
//! sends, so the substrate is built, not assumed:
//!
//! ```text
//! R_broadcast(m):  send ECHO(self, seq, m) to all (including self)
//! on ECHO(src, seq, m) first received: re-send ECHO(src, seq, m) to all;
//!                                      R_deliver(src, m)
//! ```
//!
//! With reliable channels this satisfies validity, integrity and
//! termination: if any correct process delivers, it has relayed to all, so
//! all correct processes deliver.
//!
//! [`EchoRb`] is a *wrapper automaton*: it owns an inner [`Automaton`] and
//! transparently turns the inner automaton's `RBroadcast` operations into
//! echo-protocol messages, delivering `on_rb_deliver` upcalls exactly once
//! per (origin, sequence-number). Tests in `tests/` show algorithm runs are
//! property-equivalent under the axiomatic and the echo-based broadcast.

use crate::automaton::{Automaton, Ctx, Op};
use crate::id::ProcessId;
use crate::oracle::OracleSuite;
use std::collections::HashSet;

/// Messages of the echo protocol, wrapping the inner alphabet `M`.
#[derive(Clone, Debug)]
pub enum EchoMsg<M> {
    /// A plain point-to-point/broadcast message of the inner algorithm.
    Plain(M),
    /// An echo of origin `origin`'s `seq`-th reliable broadcast.
    Echo {
        /// The process that invoked `R_broadcast`.
        origin: ProcessId,
        /// The origin's broadcast sequence number.
        seq: u64,
        /// The broadcast payload.
        payload: M,
    },
}

impl<M: crate::adversary::Corruptible> crate::adversary::Corruptible for EchoMsg<M> {
    /// Corruption reaches the wrapped payload — the echo-based rb runs over
    /// plain channels, so (unlike the axiomatic rb) it *is* attackable.
    fn corrupt(&mut self, bound: u64, rng: &mut crate::rng::SplitMix64) -> bool {
        match self {
            EchoMsg::Plain(m) | EchoMsg::Echo { payload: m, .. } => m.corrupt(bound, rng),
        }
    }
}

/// Wraps an automaton, implementing its reliable broadcasts with the echo
/// algorithm over plain channels.
///
/// # Examples
///
/// See `tests/echo_equivalence.rs` at the repository root.
#[derive(Debug)]
pub struct EchoRb<A: Automaton> {
    inner: A,
    next_seq: u64,
    seen: HashSet<(ProcessId, u64)>,
    /// Recycled inner op buffer (empty between activations; see
    /// [`Ctx::reborrow_inner`]).
    inner_ops: Vec<Op<A::Msg>>,
}

impl<A: Automaton> EchoRb<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        EchoRb {
            inner,
            next_seq: 0,
            seen: HashSet::new(),
            inner_ops: Vec::new(),
        }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Runs one inner activation and rewrites its `RBroadcast` ops into
    /// echo messages (self-delivery happens via the network like any other
    /// copy, since we send to ourselves too).
    fn run_inner<O: OracleSuite + ?Sized>(
        &mut self,
        ctx: &mut Ctx<'_, EchoMsg<A::Msg>, O>,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg, O>),
    ) {
        let inner = &mut self.inner;
        ctx.reborrow_inner(&mut self.inner_ops, |ictx| f(inner, ictx));
        for op in self.inner_ops.drain(..) {
            match op {
                Op::Send { to, msg } => ctx.send(to, EchoMsg::Plain(msg)),
                Op::Broadcast { msg } => ctx.broadcast(EchoMsg::Plain(msg)),
                Op::RBroadcast { msg } => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    ctx.broadcast(EchoMsg::Echo {
                        origin: ctx.me(),
                        seq,
                        payload: msg,
                    });
                }
                Op::Timer { delay } => ctx.set_timer(delay),
                Op::Halt => ctx.halt(),
            }
        }
    }
}

impl<A: Automaton> Automaton for EchoRb<A> {
    type Msg = EchoMsg<A::Msg>;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Self::Msg, O>) {
        self.run_inner(ctx, |a, ictx| a.on_start(ictx));
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg, O>,
    ) {
        match msg {
            EchoMsg::Plain(m) => {
                self.run_inner(ctx, |a, ictx| a.on_message(from, m, ictx));
            }
            EchoMsg::Echo {
                origin,
                seq,
                payload,
            } => {
                if self.seen.insert((origin, seq)) {
                    // First receipt: relay, then R-deliver to the inner
                    // automaton.
                    ctx.broadcast(EchoMsg::Echo {
                        origin,
                        seq,
                        payload: payload.clone(),
                    });
                    self.run_inner(ctx, |a, ictx| a.on_rb_deliver(origin, payload, ictx));
                }
            }
        }
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Self::Msg, O>) {
        self.run_inner(ctx, |a, ictx| a.on_step(ictx));
    }
}
