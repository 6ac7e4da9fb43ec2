//! Churn catch-up: a rebroadcast / state-transfer layer for late joiners.
//!
//! `CrashPlan::Churn` models recovery as a fresh process id joining the run
//! late. PR 3 landed that with *safety-only* guarantees, because a late
//! joiner misses everything sent before its start time — in particular any
//! reliably-broadcast `DECISION` delivered before the join, after which the
//! deciders have halted and nobody will ever repeat it. This module is the
//! missing catch-up: a *transformation* (in the same spirit as the wheels)
//! that lifts any [`Automaton`] for the crash-stop model into one whose
//! late joiners recover the prior-round state.
//!
//! ## Protocol
//!
//! * Every process logs each payload it ever broadcasts (plain or
//!   reliable), in send order, tagged with which primitive carried it.
//! * A process whose `on_start` fires after time zero is a *late joiner*:
//!   it broadcasts `JOIN_REQ`, and keeps re-broadcasting it on every local
//!   step until it has collected digests from `n − t − 1` distinct other
//!   processes (all the other correct ones, at least; a process cannot
//!   digest itself) —
//!   the retry is what makes catch-up robust to a message adversary
//!   dropping requests or digests.
//! * On `JOIN_REQ` from another process, a process answers with
//!   `DIGEST(log)`: a state-transfer snapshot of everything it contributed
//!   to the run so far (an empty log still answers — the digest doubles as
//!   the acknowledgement).
//! * On `DIGEST`, the joiner replays each logged payload into its inner
//!   automaton as if it had been delivered normally (reliable entries via
//!   `on_rb_deliver`, the rest via `on_message`, sender = the digest's
//!   author). Inner algorithms already deduplicate redundant deliveries —
//!   the Figure 3 algorithm by `(round, sender)`, decisions by the
//!   decided flag — so replays compose with live traffic.
//! * Once the joiner has its `n − t − 1` digests it broadcasts one
//!   `REPAIR`: the union of everything it gathered, tagged with each
//!   entry's original sender. This is the *rebroadcast* half of the layer:
//!   a survivor wedged by a dropped phase message (nothing else ever
//!   retransmits between survivors) recovers it from the repair digest —
//!   without this, a wedged survivor that happens to be the stabilized
//!   `Ω` leader deadlocks every round after it.
//!
//! With `f = t` churn the survivors alone are below the `n − t` quorum, so
//! a stalled round can *only* resume once joiners re-enter it; replaying
//! the per-process contribution logs both fast-forwards the joiner through
//! completed rounds and hands the stalled round the missing quorum votes.
//! This is what upgrades churn scenarios from safety-only to liveness (see
//! `fd_detectors::scenario::churn_envelope` and the facade's churn
//! scenario).
//!
//! Digests are *state transfer*, not channel traffic: like the runtime's
//! reliable broadcast they are treated as checksummed and are exempt from
//! payload corruption (the adversary can still drop or duplicate the
//! `CatchUpMsg` envelopes — retries absorb that).

use fd_sim::{Automaton, Corruptible, Ctx, Op, OracleSuite, PSet, ProcessId, SplitMix64, Time};

/// Trace counters bumped by the catch-up layer.
pub mod counter {
    /// `JOIN_REQ` broadcasts (first attempt and retries).
    pub const JOIN_REQ: &str = "catchup.join_req";
    /// `DIGEST` replies sent.
    pub const DIGEST: &str = "catchup.digest";
    /// Logged payloads replayed into the inner automaton.
    pub const REPLAYED: &str = "catchup.replayed";
    /// Consolidated `REPAIR` digests broadcast by caught-up joiners.
    pub const REPAIR: &str = "catchup.repair";
}

/// One process's contribution log: `(was_reliable, payload)` in send order.
pub type ContributionLog<M> = Vec<(bool, M)>;

/// The catch-up alphabet wrapping an inner alphabet `M`.
#[derive(Clone, Debug)]
pub enum CatchUpMsg<M> {
    /// An ordinary message of the inner algorithm.
    App(M),
    /// A late joiner asking for state transfer.
    JoinReq,
    /// One process's contribution log: `(was_reliable, payload)` in send
    /// order.
    Digest(ContributionLog<M>),
    /// A caught-up joiner's consolidated rebroadcast: the union of the
    /// digests it gathered, each entry tagged with its original sender.
    Repair(Vec<(ProcessId, bool, M)>),
}

impl<M: Corruptible> Corruptible for CatchUpMsg<M> {
    /// In-flight application traffic stays corruptible; `JOIN_REQ` carries
    /// nothing and digests model checksummed state transfer.
    fn corrupt(&mut self, bound: u64, rng: &mut SplitMix64) -> bool {
        match self {
            CatchUpMsg::App(m) => m.corrupt(bound, rng),
            CatchUpMsg::JoinReq | CatchUpMsg::Digest(_) | CatchUpMsg::Repair(_) => false,
        }
    }
}

/// Wraps an automaton with the churn catch-up protocol.
///
/// # Examples
///
/// See the module tests and `fd_grid::churn` for the Figure 3 stack.
#[derive(Clone, Debug)]
pub struct CatchUp<A: Automaton> {
    inner: A,
    /// Everything this process ever broadcast: `(was_reliable, payload)`.
    log: ContributionLog<A::Msg>,
    /// Whether this process started after time zero.
    late: bool,
    /// Distinct processes whose digest has arrived.
    digests_from: PSet,
    /// Latest digest gathered per responder (insertion order — the
    /// deterministic flattening order of the repair rebroadcast).
    gathered: Vec<(ProcessId, ContributionLog<A::Msg>)>,
    /// Number of distinct responders covered by the last repair broadcast
    /// (0 = none yet). A digest from a *new* responder after the first
    /// repair triggers an updated one: a wedged survivor may need exactly
    /// the log that was still in flight when the threshold was crossed.
    repaired_upto: usize,
    /// Recycled inner op buffer (empty between activations; see
    /// [`Ctx::reborrow_inner`]).
    inner_ops: Vec<Op<A::Msg>>,
}

impl<A: Automaton> CatchUp<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        CatchUp {
            inner,
            log: Vec::new(),
            late: false,
            digests_from: PSet::EMPTY,
            gathered: Vec::new(),
            repaired_upto: 0,
            inner_ops: Vec::new(),
        }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Whether this process joined late and is still collecting digests
    /// (`target` distinct responders; a process never digests itself).
    pub fn catching_up(&self, target: usize) -> bool {
        self.late && self.digests_from.len() < target
    }

    /// Runs one inner activation and forwards its ops, logging every
    /// broadcast payload for future digests.
    fn run_inner<O: OracleSuite + ?Sized>(
        &mut self,
        ctx: &mut Ctx<'_, CatchUpMsg<A::Msg>, O>,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg, O>),
    ) {
        let inner = &mut self.inner;
        ctx.reborrow_inner(&mut self.inner_ops, |ictx| f(inner, ictx));
        for op in self.inner_ops.drain(..) {
            match op {
                Op::Send { to, msg } => ctx.send(to, CatchUpMsg::App(msg)),
                Op::Broadcast { msg } => {
                    self.log.push((false, msg.clone()));
                    ctx.broadcast(CatchUpMsg::App(msg));
                }
                Op::RBroadcast { msg } => {
                    self.log.push((true, msg.clone()));
                    ctx.rb_broadcast(CatchUpMsg::App(msg));
                }
                Op::Timer { delay } => ctx.set_timer(delay),
                Op::Halt => ctx.halt(),
            }
        }
    }

    fn handle<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: CatchUpMsg<A::Msg>,
        rb: bool,
        ctx: &mut Ctx<'_, CatchUpMsg<A::Msg>, O>,
    ) {
        match msg {
            CatchUpMsg::App(m) => {
                if rb {
                    self.run_inner(ctx, |a, ictx| a.on_rb_deliver(from, m, ictx));
                } else {
                    self.run_inner(ctx, |a, ictx| a.on_message(from, m, ictx));
                }
            }
            CatchUpMsg::JoinReq => {
                // Answer everyone but ourselves (our own broadcast loops
                // back); an empty log still answers, as the ack.
                if from != ctx.me() {
                    ctx.bump(counter::DIGEST);
                    ctx.send(from, CatchUpMsg::Digest(self.log.clone()));
                }
            }
            CatchUpMsg::Digest(entries) => {
                self.digests_from.insert(from);
                for (reliable, m) in &entries {
                    ctx.bump(counter::REPLAYED);
                    let m = m.clone();
                    if *reliable {
                        self.run_inner(ctx, |a, ictx| a.on_rb_deliver(from, m, ictx));
                    } else {
                        self.run_inner(ctx, |a, ictx| a.on_message(from, m, ictx));
                    }
                }
                // Keep the responder's latest log (moved, not re-cloned —
                // lossy windows make digests arrive many times).
                match self.gathered.iter_mut().find(|(p, _)| *p == from) {
                    Some((_, log)) => *log = entries,
                    None => self.gathered.push((from, entries)),
                }
                self.maybe_repair(ctx);
            }
            CatchUpMsg::Repair(entries) => {
                for (origin, reliable, m) in entries {
                    // Own contributions are already inner state; everything
                    // else replays exactly like a digest entry.
                    if origin == ctx.me() {
                        continue;
                    }
                    ctx.bump(counter::REPLAYED);
                    if reliable {
                        self.run_inner(ctx, |a, ictx| a.on_rb_deliver(origin, m, ictx));
                    } else {
                        self.run_inner(ctx, |a, ictx| a.on_message(origin, m, ictx));
                    }
                }
            }
        }
    }

    /// Broadcasts the consolidated repair digest once the joiner has heard
    /// from `n − t − 1` distinct responders, and again whenever a new
    /// responder's digest lands after that.
    fn maybe_repair<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, CatchUpMsg<A::Msg>, O>) {
        let heard = self.digests_from.len();
        if !self.late
            || heard <= self.repaired_upto
            || self.catching_up((ctx.n() - ctx.t()).saturating_sub(1))
        {
            return;
        }
        self.repaired_upto = heard;
        ctx.bump(counter::REPAIR);
        let flat: Vec<(ProcessId, bool, A::Msg)> = self
            .gathered
            .iter()
            .flat_map(|(p, log)| log.iter().map(|(rb, m)| (*p, *rb, m.clone())))
            .collect();
        ctx.broadcast(CatchUpMsg::Repair(flat));
    }

    fn request_state<O: OracleSuite + ?Sized>(&self, ctx: &mut Ctx<'_, CatchUpMsg<A::Msg>, O>) {
        ctx.bump(counter::JOIN_REQ);
        ctx.broadcast(CatchUpMsg::JoinReq);
    }
}

impl<A: Automaton> Automaton for CatchUp<A> {
    type Msg = CatchUpMsg<A::Msg>;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Self::Msg, O>) {
        if ctx.now() > Time::ZERO {
            self.late = true;
            self.request_state(ctx);
        }
        self.run_inner(ctx, |a, ictx| a.on_start(ictx));
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg, O>,
    ) {
        self.handle(from, msg, false, ctx);
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg, O>,
    ) {
        self.handle(from, msg, true, ctx);
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Self::Msg, O>) {
        // Retry until n − t − 1 distinct digests arrived — the other
        // correct processes, of which there are at least that many, are
        // each guaranteed to eventually answer (a process cannot digest
        // itself). Under a message adversary any single request or reply
        // may be lost, and processes that have not joined yet cannot
        // answer; the periodic retry absorbs both.
        if self.catching_up((ctx.n() - ctx.t()).saturating_sub(1)) {
            self.request_state(ctx);
        }
        self.run_inner(ctx, |a, ictx| a.on_step(ictx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::{
        FailurePattern, MessageAdversary, MessageRule, NoOracle, Sim, SimConfig, Time, Trace,
    };

    /// Toy protocol with the exact churn hole: everyone reliably
    /// broadcasts a token at start and decides on the first token it
    /// R-delivers *from another process*. A late joiner misses all tokens
    /// (everyone else has halted) and can never decide without catch-up.
    #[derive(Clone, Debug)]
    struct RbToken {
        decided: bool,
    }

    impl Automaton for RbToken {
        type Msg = u64;
        fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u64, O>) {
            ctx.rb_broadcast(500 + ctx.me().0 as u64);
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
            from: ProcessId,
            m: u64,
            ctx: &mut Ctx<'_, u64, O>,
        ) {
            if !self.decided && from != ctx.me() {
                self.decided = true;
                ctx.decide(m);
                ctx.halt();
            }
        }
        fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, u64, O>) {}
    }

    fn churn_fp() -> FailurePattern {
        FailurePattern::builder(5)
            .crash(ProcessId(1), Time::ZERO)
            .join(ProcessId(4), Time(400))
            .build()
    }

    fn run_tokens(wrap: bool, adversary: MessageAdversary) -> Trace {
        let cfg = SimConfig::new(5, 1)
            .seed(3)
            .max_time(Time(3_000))
            .adversary(adversary);
        let fp = churn_fp();
        if wrap {
            let sim = Sim::new(
                cfg,
                fp,
                |_| CatchUp::new(RbToken { decided: false }),
                NoOracle,
            );
            sim.run_into_trace(|_| false)
        } else {
            let sim = Sim::new(cfg, fp, |_| RbToken { decided: false }, NoOracle);
            sim.run_into_trace(|_| false)
        }
    }

    #[test]
    fn late_joiner_without_catch_up_never_decides() {
        let tr = run_tokens(false, MessageAdversary::None);
        assert!(!tr.deciders().contains(ProcessId(4)));
        assert_eq!(tr.deciders().len(), 3);
    }

    #[test]
    fn late_joiner_catches_up_via_digest_replay() {
        let tr = run_tokens(true, MessageAdversary::None);
        assert!(
            tr.deciders().contains(ProcessId(4)),
            "joiner still undecided: deciders = {}",
            tr.deciders()
        );
        assert_eq!(tr.deciders().len(), 4);
        assert!(tr.counter(counter::JOIN_REQ) >= 1);
        assert!(tr.counter(counter::DIGEST) >= 1);
        assert!(tr.counter(counter::REPLAYED) >= 1);
    }

    #[test]
    fn catch_up_survives_a_windowed_drop_adversary() {
        // Drop 60% of all plain messages until well past the join: the
        // JOIN_REQ retry keeps asking until n − t − 1 digests arrive.
        let adv =
            MessageAdversary::Rules(vec![MessageRule::drop(60).window(Time::ZERO, Time(1_500))]);
        let tr = run_tokens(true, adv);
        assert!(
            tr.deciders().contains(ProcessId(4)),
            "joiner undecided under windowed drops: deciders = {}",
            tr.deciders()
        );
        assert!(
            tr.counter(counter::JOIN_REQ) > 1,
            "drops should have forced at least one retry"
        );
        assert!(tr.counter(fd_sim::counter::DROPPED) > 0);
    }

    #[test]
    fn catch_up_runs_are_deterministic() {
        let a = run_tokens(true, MessageAdversary::None);
        let b = run_tokens(true, MessageAdversary::None);
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.counter(counter::REPLAYED), b.counter(counter::REPLAYED));
    }

    #[test]
    fn on_time_processes_never_request_state() {
        let cfg = SimConfig::new(4, 1).seed(9).max_time(Time(2_000));
        let fp = FailurePattern::all_correct(4);
        let sim = Sim::new(
            cfg,
            fp,
            |_| CatchUp::new(RbToken { decided: false }),
            NoOracle,
        );
        let trace = sim.run_into_trace(|_| false);
        assert_eq!(trace.counter(counter::JOIN_REQ), 0);
        assert_eq!(trace.counter(counter::DIGEST), 0);
        assert_eq!(trace.deciders().len(), 4);
    }
}
