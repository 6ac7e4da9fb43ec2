//! The asynchronous network: reliable, non-FIFO channels with adversarially
//! chosen (finite) delays.
//!
//! The paper's model (§2.1): every pair of processes is connected by a
//! reliable channel — no creation, alteration, or loss — but there is *no*
//! bound on transfer delays and channels are not FIFO. The simulator draws
//! each message's delay independently from a [`DelayModel`] and then applies
//! any matching [`DelayRule`]s, which is how the indistinguishable-run
//! adversaries of Theorems 8–11 are expressed ("all messages sent by the
//! processes of `E` between τ and τ₁ are delayed until after τ₁").
//!
//! Payloads are not carried by the scheduled events: every routing path
//! stores the message once in the run's [`MsgArena`] and schedules `Copy`
//! events holding a [`crate::arena::MsgSlot`] handle — a clean broadcast is
//! one arena insert plus `n` index writes, not `n` clones of `M`.

use crate::adversary::{
    BroadcastEffects, Corruptible, LinkFate, MessageAdversary, RouteEffects, RuleAction,
    TopologySchedule,
};
use crate::arena::MsgArena;
use crate::event::{EventKind, Scheduler, Staged};
use crate::id::{PSet, ProcessId};
use crate::rng::SplitMix64;
use crate::time::Time;

/// Distribution of base message delays (always ≥ 1 tick).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly `d` ticks.
    Fixed(u64),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Minimum delay.
        lo: u64,
        /// Maximum delay.
        hi: u64,
    },
    /// Uniform in `[lo, hi]`, but with probability `spike_pct`% the delay is
    /// multiplied by `factor` — a heavy-tail adversary that exercises the
    /// "anarchy period" before failure detectors stabilize.
    Spiky {
        /// Minimum base delay.
        lo: u64,
        /// Maximum base delay.
        hi: u64,
        /// Spike probability in percent.
        spike_pct: u8,
        /// Multiplier applied on a spike.
        factor: u64,
    },
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Uniform { lo: 1, hi: 10 }
    }
}

impl DelayModel {
    /// Draws one delay.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let d = match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { lo, hi } => rng.range(lo.min(hi), hi.max(lo)),
            DelayModel::Spiky {
                lo,
                hi,
                spike_pct,
                factor,
            } => {
                let base = rng.range(lo.min(hi), hi.max(lo));
                if rng.chance(spike_pct as u64, 100) {
                    base.saturating_mul(factor.max(1))
                } else {
                    base
                }
            }
        };
        d.max(1)
    }
}

/// A targeted-delay adversary rule.
///
/// Messages sent by a process in `from` to a process in `to`, at a send time
/// inside `[active_from, active_to)`, are not delivered before
/// `deliver_not_before`. Channels stay reliable — nothing is dropped, only
/// delayed, exactly as in the run constructions of the paper's
/// irreducibility proofs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayRule {
    /// Senders the rule applies to.
    pub from: PSet,
    /// Receivers the rule applies to.
    pub to: PSet,
    /// Start (inclusive) of the send-time window.
    pub active_from: Time,
    /// End (exclusive) of the send-time window.
    pub active_to: Time,
    /// Earliest allowed delivery time for matching messages.
    pub deliver_not_before: Time,
}

impl DelayRule {
    /// A rule delaying everything `from → to` sent before `until` to arrive
    /// no earlier than `until`.
    pub fn silence_until(from: PSet, to: PSet, until: Time) -> Self {
        DelayRule {
            from,
            to,
            active_from: Time::ZERO,
            active_to: until,
            deliver_not_before: until,
        }
    }

    fn applies(&self, from: ProcessId, to: ProcessId, sent_at: Time) -> bool {
        self.from.contains(from)
            && self.to.contains(to)
            && sent_at >= self.active_from
            && sent_at < self.active_to
    }
}

/// The network: computes delivery times and applies the message adversary.
#[derive(Clone, Debug)]
pub struct Network {
    delay: DelayModel,
    rules: Vec<DelayRule>,
    rng: SplitMix64,
    adversary: MessageAdversary,
    /// The adversary's own stream (salt `0xADE5` off the run's root seed):
    /// enabling rules never perturbs the delay draws of the messages that
    /// still get through.
    adv_rng: SplitMix64,
    topology: TopologySchedule,
    /// The topology schedule's own stream (salt `0x7090`): override-latency
    /// draws and post-heal release jitter never perturb the delay or
    /// adversary streams, and an unset schedule never touches it.
    topo_rng: SplitMix64,
}

/// Draws one delivery time from `delay` + `rules` using `rng`. Together
/// with its draw-identical batched twin [`sample_delivery_bulk`], this is
/// the *only* place a delivery time is ever sampled:
/// [`Network::delivery_time`], every scalar and batched route path (regular
/// copies draw from the delay stream, duplicate copies from the adversary
/// stream), and the protected reliable-broadcast path all funnel through
/// these two. Part of the reproducibility contract: the delay draw happens
/// *before* the message adversary is consulted (see
/// [`Network::route_with`]), so the delivered subset of messages keeps
/// exactly the delivery times it would have had in a clean run, and
/// adding/removing adversary rules never shifts this stream.
#[inline]
fn sample_delivery(
    delay: &DelayModel,
    rules: &[DelayRule],
    rng: &mut SplitMix64,
    from: ProcessId,
    to: ProcessId,
    sent_at: Time,
) -> Time {
    let mut at = sent_at + delay.sample(rng);
    for r in rules {
        if r.applies(from, to, sent_at) && at < r.deliver_not_before {
            // Deterministic small jitter past the release point keeps
            // releases from synchronizing into one mega-tick.
            at = r.deliver_not_before + rng.range(0, 3);
        }
    }
    at
}

/// The batched [`sample_delivery`]: draws delivery times for one send to
/// each process in `recipients`, in iteration order, emitting
/// `(recipient, delivery_time)` pairs.
///
/// Draw-for-draw identical to calling [`sample_delivery`] per recipient —
/// the RNG-stream-position differential tests pin this — but with the
/// delay-model match and the rule scan hoisted out of the loop on the
/// common path. A rule is *in scope* for the batch when its sender set and
/// send-time window match; only then does per-recipient work depend on the
/// rule (the `to` check and the order-sensitive release jitter), so only
/// then does the batch fall back to the scalar sampler.
#[inline]
fn sample_delivery_bulk(
    delay: &DelayModel,
    rules: &[DelayRule],
    rng: &mut SplitMix64,
    from: ProcessId,
    recipients: impl IntoIterator<Item = ProcessId>,
    sent_at: Time,
    mut emit: impl FnMut(ProcessId, Time),
) {
    let rule_in_scope = rules
        .iter()
        .any(|r| r.from.contains(from) && sent_at >= r.active_from && sent_at < r.active_to);
    if rule_in_scope {
        for to in recipients {
            emit(to, sample_delivery(delay, rules, rng, from, to, sent_at));
        }
        return;
    }
    // Clean batch: every recipient samples the bare model, so the match on
    // the model runs once instead of once per recipient. Per-recipient
    // draws stay in recipient order (`range`, then `chance` for spiky),
    // exactly as the scalar path makes them.
    match *delay {
        DelayModel::Fixed(d) => {
            let at = sent_at + d.max(1);
            for to in recipients {
                emit(to, at);
            }
        }
        DelayModel::Uniform { lo, hi } => {
            let (lo, hi) = (lo.min(hi), hi.max(lo));
            for to in recipients {
                emit(to, sent_at + rng.range(lo, hi).max(1));
            }
        }
        DelayModel::Spiky {
            lo,
            hi,
            spike_pct,
            factor,
        } => {
            let (lo, hi) = (lo.min(hi), hi.max(lo));
            for to in recipients {
                let base = rng.range(lo, hi);
                let d = if rng.chance(spike_pct as u64, 100) {
                    base.saturating_mul(factor.max(1))
                } else {
                    base
                };
                emit(to, sent_at + d.max(1));
            }
        }
    }
}

impl Network {
    /// Creates a network with the given base delay model, delay-adversary
    /// rules, and a dedicated RNG stream. The message adversary starts as
    /// [`MessageAdversary::None`]; see [`Network::with_adversary`].
    pub fn new(delay: DelayModel, rules: Vec<DelayRule>, rng: SplitMix64) -> Self {
        let adv_rng = rng.stream(0xADE5);
        let topo_rng = rng.stream(0x7090);
        Network {
            delay,
            rules,
            rng,
            adversary: MessageAdversary::None,
            adv_rng,
            topology: TopologySchedule::None,
            topo_rng,
        }
    }

    /// Installs a message adversary with its own RNG stream (builder
    /// style). The runtime derives `rng` as `root.stream(0xADE5)`.
    pub fn with_adversary(mut self, adversary: MessageAdversary, rng: SplitMix64) -> Self {
        self.adversary = adversary;
        self.adv_rng = rng;
        self
    }

    /// Installs a topology schedule with its own RNG stream (builder
    /// style). The runtime derives `rng` as `root.stream(0x7090)`.
    pub fn with_topology(mut self, topology: TopologySchedule, rng: SplitMix64) -> Self {
        self.topology = topology;
        self.topo_rng = rng;
        self
    }

    /// The installed message adversary.
    pub fn adversary(&self) -> &MessageAdversary {
        &self.adversary
    }

    /// The installed topology schedule.
    pub fn topology(&self) -> &TopologySchedule {
        &self.topology
    }

    /// Delivery time for a message `from → to` sent at `sent_at`.
    pub fn delivery_time(&mut self, from: ProcessId, to: ProcessId, sent_at: Time) -> Time {
        sample_delivery(&self.delay, &self.rules, &mut self.rng, from, to, sent_at)
    }

    /// Routes a point-to-point message: draws its delivery time, applies
    /// the message adversary, stores the surviving payload in `arena`, and
    /// schedules the delivery for `to` on the given [`Scheduler`]. This is
    /// the runtime's send path for *plain* channels; the trait bound lets
    /// tests and measurement harnesses substitute their own sink while
    /// staying statically dispatched (`?Sized` also admits
    /// `&mut dyn Scheduler` where a trait object is genuinely needed).
    ///
    /// Returns what the adversary did ([`RouteEffects::default`] on the
    /// clean path). With [`MessageAdversary::None`] this is draw-for-draw
    /// identical to the pre-adversary simulator.
    ///
    /// The delay draw happens before the adversary is consulted, even for
    /// messages that end up dropped — so the delivered subset keeps exactly
    /// the delivery times it would have had in the clean run. Dropped
    /// payloads never touch the arena.
    pub fn route<M: Clone + Corruptible, Q: Scheduler + ?Sized>(
        &mut self,
        queue: &mut Q,
        arena: &mut MsgArena<M>,
        from: ProcessId,
        to: ProcessId,
        sent_at: Time,
        msg: M,
    ) -> RouteEffects {
        self.route_with(arena, from, to, sent_at, msg, |at, to, kind| {
            queue.push(at, to, kind)
        })
    }

    /// The one routing core every plain-channel path shares: draws the
    /// delivery time, applies the message adversary (corruption mutates the
    /// still-owned payload *before* it is stored), allocates the arena
    /// slot, and *emits* the resulting event(s) — directly into a scheduler
    /// for the scalar [`Network::route`], into a staging buffer for
    /// [`Network::route_broadcast`]. Keeping it in one place is what pins
    /// the draw-order contract down: delay draw first (from the delay
    /// stream), then one `chance` draw per in-scope rule per message in
    /// rule order (from the adversary stream), then one extra delay draw
    /// per duplicate (adversary stream again). A duplicated message stores
    /// its payload once (one slot, two pending deliveries); the original is
    /// emitted first, so at equal delivery times it keeps the smaller
    /// sequence number.
    ///
    /// The topology schedule is resolved *before* the message adversary
    /// (structure trumps probability): a severed message consumes its base
    /// delay draw — keeping the delay stream at clean-run positions — and
    /// is then lost with zero adversary draws; a latency override replaces
    /// the drawn delivery time with one draw from the topology stream
    /// (again leaving the delay stream clean-run-identical) and the message
    /// then faces the adversary rules as usual. Duplicates of a
    /// latency-overridden message keep the base-model delay from the
    /// adversary stream, like every duplicate.
    #[inline]
    fn route_with<M: Clone + Corruptible>(
        &mut self,
        arena: &mut MsgArena<M>,
        from: ProcessId,
        to: ProcessId,
        sent_at: Time,
        mut msg: M,
        mut emit: impl FnMut(Time, ProcessId, EventKind),
    ) -> RouteEffects {
        let fate = if self.topology.is_none() {
            LinkFate::Open
        } else {
            self.topology.fate(from, to, sent_at)
        };
        if self.adversary.is_none() && matches!(fate, LinkFate::Open) {
            let at = self.delivery_time(from, to, sent_at);
            let slot = arena.alloc(msg, 1);
            emit(at, to, EventKind::Deliver { from, slot });
            return RouteEffects::default();
        }
        let mut at = self.delivery_time(from, to, sent_at);
        match fate {
            LinkFate::Open => {}
            LinkFate::Severed { .. } => {
                // Cut: lost structurally, no adversary draws, no arena slot.
                // The base delay draw above already happened, so delivered
                // messages keep their clean-run times.
                return RouteEffects {
                    severed: true,
                    ..RouteEffects::default()
                };
            }
            LinkFate::Latency { lo, hi } => {
                at = sent_at + self.topo_rng.range(lo.min(hi), hi.max(lo)).max(1);
            }
        }
        let mut fx = RouteEffects::default();
        {
            // Disjoint-field borrows: rules read-only, adversary stream
            // mutable. One `chance` draw per in-scope rule per message, in
            // rule order — the determinism contract of the dropped set.
            let Network {
                adversary, adv_rng, ..
            } = self;
            for rule in adversary.rules() {
                if !rule.applies(from, to, sent_at) || !adv_rng.chance(rule.pct as u64, 100) {
                    continue;
                }
                match rule.action {
                    RuleAction::Drop => {
                        // Lost: nothing is scheduled or stored, later rules
                        // are moot, and earlier duplications/corruptions of
                        // this message are moot too — only the drop is
                        // reported.
                        return RouteEffects {
                            dropped: true,
                            ..RouteEffects::default()
                        };
                    }
                    RuleAction::Duplicate => fx.duplicated = true,
                    RuleAction::Corrupt { bound } => {
                        // Only plain deliveries carry corruptible payloads
                        // here: rb deliveries never reach route() at all
                        // (route_protected), keeping the rb exemption
                        // structural rather than incidental. The payload is
                        // still owned at this point, so corruption happens
                        // in place, before the arena ever sees it.
                        fx.corrupted |= msg.corrupt(bound, adv_rng);
                    }
                }
            }
        }
        if fx.duplicated {
            // The copy's delay comes from the adversary stream, so the
            // next regular message's delay draw is unaffected. One slot
            // with two pending deliveries — the payload is stored once.
            let Network {
                delay,
                rules,
                adv_rng,
                ..
            } = self;
            let dup_at = sample_delivery(delay, rules, adv_rng, from, to, sent_at);
            let slot = arena.alloc(msg, 2);
            emit(at, to, EventKind::Deliver { from, slot });
            emit(dup_at, to, EventKind::Deliver { from, slot });
        } else {
            let slot = arena.alloc(msg, 1);
            emit(at, to, EventKind::Deliver { from, slot });
        }
        fx
    }

    /// Routes one broadcast of `msg` by `from` to processes `0..n`: draws
    /// all `n` delivery delays in a single pass — draw for draw in the
    /// exact per-recipient order the scalar [`Network::route`] loop
    /// produces, so traces are bit-identical — stages the deliveries into
    /// the caller-recycled `staging` buffer, and inserts them through one
    /// [`Scheduler::push_batch`] call.
    ///
    /// On the adversary-free path the payload is stored **once** (one arena
    /// slot with `n` pending deliveries): routing the broadcast costs no
    /// clone of `M` at all — the per-recipient copies materialize lazily at
    /// delivery time. With an armed adversary each recipient's copy is
    /// routed (and possibly independently corrupted) separately, exactly as
    /// the scalar loop would.
    ///
    /// Returns the counted sum of what the adversary did across the
    /// broadcast ([`BroadcastEffects::is_clean`] under
    /// [`MessageAdversary::None`]). `staging` must arrive empty and is
    /// cleared again before returning.
    // The arena + recycled staging buffer are exactly why the batch
    // path exists; folding them into a params struct would only move
    // the argument count somewhere less legible.
    #[allow(clippy::too_many_arguments)]
    pub fn route_broadcast<M: Clone + Corruptible, Q: Scheduler + ?Sized>(
        &mut self,
        queue: &mut Q,
        arena: &mut MsgArena<M>,
        from: ProcessId,
        n: usize,
        sent_at: Time,
        msg: M,
        staging: &mut Vec<Staged>,
    ) -> BroadcastEffects {
        debug_assert!(staging.is_empty(), "staging buffer must arrive empty");
        let mut fx = BroadcastEffects::default();
        if self.adversary.is_none() && self.topology.epoch_at(sent_at).is_none() {
            // Fast path: one arena slot for the whole storm, all n delays
            // drawn in one bulk pass, no per-recipient adversary branching
            // or model re-matching. A topology epoch covering the send time
            // forces the per-recipient loop below, because each link can
            // have a different fate.
            let slot = arena.stage(msg);
            sample_delivery_bulk(
                &self.delay,
                &self.rules,
                &mut self.rng,
                from,
                (0..n).map(ProcessId),
                sent_at,
                |to, at| {
                    staging.push(Staged {
                        at,
                        to,
                        kind: EventKind::Deliver { from, slot },
                    });
                },
            );
            arena.commit(slot, staging.len() as u32);
        } else {
            for i in 0..n {
                let to = ProcessId(i);
                let one = self.route_with(arena, from, to, sent_at, msg.clone(), |at, to, kind| {
                    staging.push(Staged { at, to, kind })
                });
                fx.absorb(one);
            }
        }
        queue.push_batch(staging);
        staging.clear();
        fx
    }

    /// Routes a message on a channel the adversary cannot touch — the
    /// runtime's path for reliable-broadcast deliveries, whose axioms (no
    /// loss, no alteration, no duplication) are a premise of the model.
    ///
    /// The topology schedule *delays* rb messages but never loses them: a
    /// severed link holds the message until just past the epoch's heal
    /// time (release jitter from the topology stream keeps heals from
    /// synchronizing into one mega-tick), and a latency override replaces
    /// the drawn delivery time. This is exactly the model's delay-only
    /// adversary — arbitrary finite delays over reliable channels.
    pub fn route_protected<M, Q: Scheduler + ?Sized>(
        &mut self,
        queue: &mut Q,
        arena: &mut MsgArena<M>,
        from: ProcessId,
        to: ProcessId,
        sent_at: Time,
        msg: M,
    ) {
        let mut at = self.delivery_time(from, to, sent_at);
        if !self.topology.is_none() {
            at = Self::protected_fate(&self.topology, &mut self.topo_rng, from, to, sent_at, at);
        }
        let slot = arena.alloc(msg, 1);
        queue.push(at, to, EventKind::RbDeliver { from, slot });
    }

    /// Applies the topology schedule to one protected delivery: severed
    /// links hold the message until just past `heal`, latency overrides
    /// replace the base draw. Shared by the scalar and batched rb paths so
    /// the two stay draw-for-draw identical.
    #[inline]
    fn protected_fate(
        topology: &TopologySchedule,
        topo_rng: &mut SplitMix64,
        from: ProcessId,
        to: ProcessId,
        sent_at: Time,
        at: Time,
    ) -> Time {
        match topology.fate(from, to, sent_at) {
            LinkFate::Open => at,
            LinkFate::Severed { heal } => at.max(heal + topo_rng.range(0, 3)),
            LinkFate::Latency { lo, hi } => sent_at + topo_rng.range(lo.min(hi), hi.max(lo)).max(1),
        }
    }

    /// The batched [`Network::route_protected`]: one reliable-broadcast
    /// delivery of `msg` per process in `receivers`, delays drawn in
    /// iteration order (identical to the scalar loop), the payload stored
    /// once (one slot, one pending delivery per receiver), inserted through
    /// a single [`Scheduler::push_batch`] call. `staging` must arrive empty
    /// and is cleared again before returning.
    // The arena + recycled staging buffer are exactly why the batch
    // path exists; folding them into a params struct would only move
    // the argument count somewhere less legible.
    #[allow(clippy::too_many_arguments)]
    pub fn route_protected_batch<M, Q: Scheduler + ?Sized>(
        &mut self,
        queue: &mut Q,
        arena: &mut MsgArena<M>,
        from: ProcessId,
        receivers: impl IntoIterator<Item = ProcessId>,
        sent_at: Time,
        msg: M,
        staging: &mut Vec<Staged>,
    ) {
        debug_assert!(staging.is_empty(), "staging buffer must arrive empty");
        let slot = arena.stage(msg);
        if self.topology.epoch_at(sent_at).is_none() {
            sample_delivery_bulk(
                &self.delay,
                &self.rules,
                &mut self.rng,
                from,
                receivers,
                sent_at,
                |to, at| {
                    staging.push(Staged {
                        at,
                        to,
                        kind: EventKind::RbDeliver { from, slot },
                    });
                },
            );
        } else {
            // A topology epoch covers this send: each link can have its own
            // fate, so fall back to the scalar sampler per receiver (base
            // delay draw first, draw-identical to the clean bulk pass, then
            // the protected fate from the topology stream).
            let Network {
                delay,
                rules,
                rng,
                topology,
                topo_rng,
                ..
            } = self;
            for to in receivers {
                let base = sample_delivery(delay, rules, rng, from, to, sent_at);
                let at = Self::protected_fate(topology, topo_rng, from, to, sent_at, base);
                staging.push(Staged {
                    at,
                    to,
                    kind: EventKind::RbDeliver { from, slot },
                });
            }
        }
        arena.commit(slot, staging.len() as u32);
        queue.push_batch(staging);
        staging.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn rng() -> SplitMix64 {
        SplitMix64::new(99)
    }

    /// Pops a delivery's `(from, payload)` out of its queue's arena.
    fn take_delivery<M: Clone>(arena: &mut MsgArena<M>, e: &Event) -> (ProcessId, M) {
        match e.kind {
            EventKind::Deliver { from, slot } | EventKind::RbDeliver { from, slot } => {
                (from, arena.take(slot))
            }
            ref k => panic!("expected a delivery, got {k:?}"),
        }
    }

    #[test]
    fn fixed_delay() {
        let mut net = Network::new(DelayModel::Fixed(4), vec![], rng());
        let at = net.delivery_time(ProcessId(0), ProcessId(1), Time(10));
        assert_eq!(at, Time(14));
    }

    #[test]
    fn delay_at_least_one() {
        let mut net = Network::new(DelayModel::Fixed(0), vec![], rng());
        let at = net.delivery_time(ProcessId(0), ProcessId(1), Time(10));
        assert_eq!(at, Time(11));
    }

    #[test]
    fn uniform_within_bounds() {
        let mut net = Network::new(DelayModel::Uniform { lo: 2, hi: 6 }, vec![], rng());
        for _ in 0..200 {
            let at = net.delivery_time(ProcessId(0), ProcessId(1), Time(0));
            assert!((2..=6).contains(&at.0));
        }
    }

    #[test]
    fn spiky_produces_spikes() {
        let mut net = Network::new(
            DelayModel::Spiky {
                lo: 1,
                hi: 2,
                spike_pct: 50,
                factor: 100,
            },
            vec![],
            rng(),
        );
        let mut spiked = false;
        for _ in 0..100 {
            let at = net.delivery_time(ProcessId(0), ProcessId(1), Time(0));
            if at.0 >= 100 {
                spiked = true;
            }
        }
        assert!(spiked);
    }

    #[test]
    fn adversary_none_routes_identically_to_the_plain_path() {
        // The fast path and an empty-rule adversary must both be
        // draw-for-draw identical to the pre-adversary network.
        let mut plain = Network::new(DelayModel::Uniform { lo: 1, hi: 9 }, vec![], rng());
        let mut none = Network::new(DelayModel::Uniform { lo: 1, hi: 9 }, vec![], rng())
            .with_adversary(MessageAdversary::None, SplitMix64::new(77));
        use crate::event::EventQueue;
        let mut q1 = EventQueue::new();
        let mut q2 = EventQueue::new();
        let mut arena1: MsgArena<u64> = MsgArena::new();
        let mut arena2: MsgArena<u64> = MsgArena::new();
        for i in 0..100u64 {
            let from = ProcessId(i as usize % 4);
            let to = ProcessId((i as usize + 1) % 4);
            let fx = plain.route(&mut q1, &mut arena1, from, to, Time(i), i);
            assert!(fx.is_clean());
            let fx = none.route(&mut q2, &mut arena2, from, to, Time(i), i);
            assert!(fx.is_clean());
        }
        for _ in 0..100 {
            let a = q1.pop().unwrap();
            let b = q2.pop().unwrap();
            assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to));
            assert_eq!(
                take_delivery(&mut arena1, &a),
                take_delivery(&mut arena2, &b)
            );
        }
    }

    #[test]
    fn drop_rule_loses_messages_deterministically() {
        use crate::event::EventQueue;
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::drop(40)]);
        let run = || {
            let mut net = Network::new(DelayModel::Fixed(3), vec![], rng())
                .with_adversary(adv.clone(), SplitMix64::new(5).stream(0xADE5));
            let mut q = EventQueue::new();
            let mut arena: MsgArena<u64> = MsgArena::new();
            let mut dropped = Vec::new();
            for i in 0..200u64 {
                let fx = net.route(&mut q, &mut arena, ProcessId(0), ProcessId(1), Time(i), i);
                if fx.dropped {
                    dropped.push(i);
                }
            }
            let mut delivered = Vec::new();
            while let Some(e) = q.pop() {
                delivered.push(take_delivery(&mut arena, &e).1);
            }
            assert!(arena.is_empty(), "drained queue must drain the arena");
            (dropped, delivered)
        };
        let (d1, del1) = run();
        let (d2, del2) = run();
        assert_eq!(d1, d2, "dropped set must be seed-deterministic");
        assert_eq!(del1, del2);
        assert!(!d1.is_empty(), "a 40% drop rule lost nothing in 200 sends");
        assert_eq!(d1.len() + del1.len(), 200);
    }

    #[test]
    fn duplicate_rule_schedules_a_second_copy() {
        use crate::event::EventQueue;
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::duplicate(100)]);
        let mut net = Network::new(DelayModel::Fixed(2), vec![], rng())
            .with_adversary(adv, SplitMix64::new(9));
        let mut q = EventQueue::new();
        let mut arena: MsgArena<u64> = MsgArena::new();
        let fx = net.route(&mut q, &mut arena, ProcessId(0), ProcessId(1), Time(10), 42);
        assert!(fx.duplicated && !fx.dropped && !fx.corrupted);
        assert_eq!(q.len(), 2);
        assert_eq!(arena.live(), 1, "both copies share one stored payload");
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert!(a.at <= b.at);
        for e in [a, b] {
            assert_eq!(take_delivery(&mut arena, &e).1, 42);
        }
        assert!(arena.is_empty());
    }

    #[test]
    fn corrupt_rule_stays_within_bound() {
        use crate::event::EventQueue;
        let bound = 5u64;
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::corrupt(100, bound)]);
        let mut net = Network::new(DelayModel::Fixed(1), vec![], rng())
            .with_adversary(adv, SplitMix64::new(13));
        let mut q = EventQueue::new();
        let mut arena: MsgArena<u64> = MsgArena::new();
        let mut corrupted = 0;
        for i in 0..100u64 {
            let payload = 1_000 + i;
            let fx = net.route(
                &mut q,
                &mut arena,
                ProcessId(0),
                ProcessId(1),
                Time(i),
                payload,
            );
            corrupted += fx.corrupted as u32;
            let e = q.pop().unwrap();
            let (_, msg) = take_delivery(&mut arena, &e);
            assert!(msg.abs_diff(payload) <= bound, "{payload} -> {msg}");
        }
        assert!(corrupted > 50, "100% corruption rule fired {corrupted}/100");
    }

    #[test]
    fn protected_route_ignores_the_adversary() {
        use crate::event::EventQueue;
        let adv = MessageAdversary::Rules(vec![crate::adversary::MessageRule::drop(100)]);
        let mut net = Network::new(DelayModel::Fixed(1), vec![], rng())
            .with_adversary(adv, SplitMix64::new(3));
        let mut q = EventQueue::new();
        let mut arena: MsgArena<u64> = MsgArena::new();
        net.route_protected(&mut q, &mut arena, ProcessId(0), ProcessId(1), Time(0), 7);
        assert_eq!(q.len(), 1, "rb deliveries must never be dropped");
        let e = q.pop().unwrap();
        assert_eq!(take_delivery(&mut arena, &e), (ProcessId(0), 7));
    }

    #[test]
    fn windowed_drop_only_fires_inside_the_window() {
        use crate::event::EventQueue;
        let adv = MessageAdversary::Rules(vec![
            crate::adversary::MessageRule::drop(100).window(Time::ZERO, Time(50))
        ]);
        let mut net = Network::new(DelayModel::Fixed(1), vec![], rng())
            .with_adversary(adv, SplitMix64::new(4));
        let mut q = EventQueue::new();
        let mut arena: MsgArena<u64> = MsgArena::new();
        for t in [0u64, 49, 50, 100] {
            let fx = net.route(&mut q, &mut arena, ProcessId(0), ProcessId(1), Time(t), t);
            assert_eq!(fx.dropped, t < 50, "send at {t}");
        }
        assert_eq!(q.len(), 2);
        assert_eq!(arena.live(), 2, "dropped payloads never touch the arena");
    }

    /// The batching contract at the network level: `route_broadcast` is
    /// draw-for-draw and push-for-push identical to the historical
    /// per-recipient `route` loop — including the RNG stream positions it
    /// leaves behind — with and without an armed adversary. (Slot numbering
    /// differs between the two layouts — the batch stores a clean broadcast
    /// once — so equality is checked on the observable: `(at, seq, to)` and
    /// the materialized payloads.)
    #[test]
    fn route_broadcast_matches_the_scalar_recipient_loop() {
        use crate::event::EventQueue;
        let adversaries = [
            MessageAdversary::None,
            MessageAdversary::Rules(vec![
                crate::adversary::MessageRule::drop(15),
                crate::adversary::MessageRule::duplicate(20),
                crate::adversary::MessageRule::corrupt(25, 4),
            ]),
        ];
        for adv in adversaries {
            for n in [2usize, 5, 9, 33] {
                let mut scalar_net = Network::new(DelayModel::default(), vec![], rng())
                    .with_adversary(adv.clone(), SplitMix64::new(31).stream(0xADE5));
                let mut batch_net = scalar_net.clone();
                let mut scalar_q = EventQueue::new();
                let mut batch_q = EventQueue::new();
                let mut scalar_arena: MsgArena<u64> = MsgArena::new();
                let mut batch_arena: MsgArena<u64> = MsgArena::new();
                let mut staging = Vec::new();
                for round in 0..40u64 {
                    let from = ProcessId(round as usize % n);
                    let sent = Time(round * 3);
                    let msg = 1_000 + round;
                    let mut scalar_fx = crate::adversary::BroadcastEffects::default();
                    for i in 0..n {
                        scalar_fx.absorb(scalar_net.route(
                            &mut scalar_q,
                            &mut scalar_arena,
                            from,
                            ProcessId(i),
                            sent,
                            msg,
                        ));
                    }
                    let batch_fx = batch_net.route_broadcast(
                        &mut batch_q,
                        &mut batch_arena,
                        from,
                        n,
                        sent,
                        msg,
                        &mut staging,
                    );
                    assert!(staging.is_empty(), "staging must be cleared");
                    assert_eq!(scalar_fx, batch_fx, "n={n} round={round}");
                    // An interleaved scalar send keeps proving the stream
                    // positions agree after every broadcast.
                    let fx_a = scalar_net.route(
                        &mut scalar_q,
                        &mut scalar_arena,
                        from,
                        ProcessId((round as usize + 1) % n),
                        sent,
                        round,
                    );
                    let fx_b = batch_net.route(
                        &mut batch_q,
                        &mut batch_arena,
                        from,
                        ProcessId((round as usize + 1) % n),
                        sent,
                        round,
                    );
                    assert_eq!(fx_a, fx_b, "n={n} round={round}");
                }
                loop {
                    match (scalar_q.pop(), batch_q.pop()) {
                        (None, None) => break,
                        (a, b) => {
                            let a = a.expect("scalar drained first");
                            let b = b.expect("batch drained first");
                            assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to), "n={n}");
                            assert_eq!(
                                take_delivery(&mut scalar_arena, &a),
                                take_delivery(&mut batch_arena, &b),
                                "n={n}"
                            );
                        }
                    }
                }
                assert!(scalar_arena.is_empty() && batch_arena.is_empty(), "n={n}");
            }
        }
    }

    /// The bulk sampler's contract: for every delay model, with and
    /// without in-scope delay rules, `sample_delivery_bulk` emits the same
    /// delivery times as the scalar per-recipient loop *and* leaves the
    /// RNG at the same stream position — so a run may switch freely
    /// between the two without perturbing any later draw.
    #[test]
    fn bulk_sampler_matches_scalar_loop_and_rng_stream_position() {
        let models = [
            DelayModel::Fixed(4),
            DelayModel::Uniform { lo: 1, hi: 10 },
            DelayModel::Uniform { lo: 3, hi: 3 },
            DelayModel::Spiky {
                lo: 1,
                hi: 8,
                spike_pct: 30,
                factor: 50,
            },
        ];
        let sender = ProcessId(1);
        let rule_sets: [Vec<DelayRule>; 3] = [
            vec![],
            // In scope for `sender` during [0, 60): forces the scalar
            // fallback, including its release-jitter draws.
            vec![DelayRule::silence_until(
                PSet::singleton(sender),
                PSet::full(9),
                Time(60),
            )],
            // Matching window but a different sender: the batch must
            // recognize the rule is out of scope and take the clean path.
            vec![DelayRule::silence_until(
                PSet::singleton(ProcessId(5)),
                PSet::full(9),
                Time(60),
            )],
        ];
        for model in &models {
            for rules in &rule_sets {
                for n in [1usize, 4, 9] {
                    let mut scalar_rng = SplitMix64::new(2024).stream(0xDE1A);
                    let mut bulk_rng = scalar_rng.clone();
                    for round in 0..25u64 {
                        let sent = Time(round * 5);
                        let scalar: Vec<(ProcessId, Time)> = (0..n)
                            .map(ProcessId)
                            .map(|to| {
                                (
                                    to,
                                    sample_delivery(
                                        model,
                                        rules,
                                        &mut scalar_rng,
                                        sender,
                                        to,
                                        sent,
                                    ),
                                )
                            })
                            .collect();
                        let mut bulk = Vec::new();
                        sample_delivery_bulk(
                            model,
                            rules,
                            &mut bulk_rng,
                            sender,
                            (0..n).map(ProcessId),
                            sent,
                            |to, at| bulk.push((to, at)),
                        );
                        assert_eq!(scalar, bulk, "model={model:?} n={n} round={round}");
                        assert_eq!(
                            scalar_rng, bulk_rng,
                            "stream position diverged: model={model:?} n={n} round={round}"
                        );
                        // An interleaved scalar draw keeps the two streams
                        // honest between batches.
                        let a = sample_delivery(
                            model,
                            rules,
                            &mut scalar_rng,
                            sender,
                            ProcessId(0),
                            sent,
                        );
                        let b = sample_delivery(
                            model,
                            rules,
                            &mut bulk_rng,
                            sender,
                            ProcessId(0),
                            sent,
                        );
                        assert_eq!(a, b);
                    }
                }
            }
        }
    }

    /// Same contract for the protected (reliable-broadcast) path.
    #[test]
    fn route_protected_batch_matches_the_scalar_loop() {
        use crate::event::EventQueue;
        let mut scalar_net = Network::new(DelayModel::default(), vec![], rng());
        let mut batch_net = scalar_net.clone();
        let mut scalar_q = EventQueue::new();
        let mut batch_q = EventQueue::new();
        let mut scalar_arena: MsgArena<u64> = MsgArena::new();
        let mut batch_arena: MsgArena<u64> = MsgArena::new();
        let mut staging = Vec::new();
        for round in 0..30u64 {
            let from = ProcessId(round as usize % 7);
            let receivers = PSet::full(7);
            for to in receivers {
                scalar_net.route_protected(
                    &mut scalar_q,
                    &mut scalar_arena,
                    from,
                    to,
                    Time(round),
                    round,
                );
            }
            batch_net.route_protected_batch(
                &mut batch_q,
                &mut batch_arena,
                from,
                receivers,
                Time(round),
                round,
                &mut staging,
            );
        }
        while let Some(a) = scalar_q.pop() {
            let b = batch_q.pop().unwrap();
            assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to));
            assert_eq!(
                take_delivery(&mut scalar_arena, &a),
                take_delivery(&mut batch_arena, &b)
            );
        }
        assert!(batch_q.pop().is_none());
        assert!(scalar_arena.is_empty() && batch_arena.is_empty());
    }

    #[test]
    fn rule_delays_matching_messages() {
        let e = PSet::singleton(ProcessId(0));
        let all = PSet::full(3);
        let rule = DelayRule::silence_until(e, all, Time(100));
        let mut net = Network::new(DelayModel::Fixed(1), vec![rule], rng());
        // Sent inside the window: held back to >= 100.
        let at = net.delivery_time(ProcessId(0), ProcessId(1), Time(5));
        assert!(at >= Time(100));
        // Different sender: unaffected.
        let at = net.delivery_time(ProcessId(2), ProcessId(1), Time(5));
        assert_eq!(at, Time(6));
        // Sent after the window: unaffected.
        let at = net.delivery_time(ProcessId(0), ProcessId(1), Time(200));
        assert_eq!(at, Time(201));
    }

    /// Boundary-semantics audit (ISSUE 9 satellite): `DelayRule` windows
    /// are half-open `[active_from, active_to)`, in agreement with
    /// `MessageRule::applies` and the topology epochs — a message sent
    /// exactly AT `active_to` (== `silence_until`'s release point) is
    /// already out of scope, and an empty window is inert everywhere.
    #[test]
    fn delay_rule_window_is_half_open_at_every_edge() {
        let gst = Time(100);
        let rule = DelayRule::silence_until(PSet::full(3), PSet::full(3), gst);
        let mut net = Network::new(DelayModel::Fixed(1), vec![rule], rng());
        // Sent one tick before the edge: still silenced.
        let at = net.delivery_time(ProcessId(0), ProcessId(1), Time(gst.0 - 1));
        assert!(at >= gst);
        // Sent exactly AT gst: the rule no longer applies.
        let at = net.delivery_time(ProcessId(0), ProcessId(1), gst);
        assert_eq!(at, gst + 1);

        // active_from == active_to: an empty window never fires, even AT
        // the shared edge.
        let empty = DelayRule {
            from: PSet::full(3),
            to: PSet::full(3),
            active_from: Time(40),
            active_to: Time(40),
            deliver_not_before: Time(500),
        };
        let mut net = Network::new(DelayModel::Fixed(1), vec![empty], rng());
        for t in [39u64, 40, 41] {
            let at = net.delivery_time(ProcessId(0), ProcessId(1), Time(t));
            assert_eq!(at, Time(t + 1), "sent at {t}");
        }
    }

    // --- topology schedule ---

    use crate::adversary::{LinkOverride, TopologyEpoch, TopologySchedule};

    fn islands_2x3() -> Vec<PSet> {
        let a: PSet = [ProcessId(0), ProcessId(1), ProcessId(2)]
            .into_iter()
            .collect();
        let b: PSet = [ProcessId(3), ProcessId(4), ProcessId(5)]
            .into_iter()
            .collect();
        vec![a, b]
    }

    /// The tentpole's determinism contract: installing
    /// `TopologySchedule::None` explicitly is bit-identical to never
    /// mentioning topology at all — same events, same payloads, same RNG
    /// stream positions, on plain and protected paths alike.
    #[test]
    fn topology_none_is_bit_identical_to_plain() {
        use crate::event::EventQueue;
        let mut plain = Network::new(DelayModel::default(), vec![], rng());
        let mut explicit = Network::new(DelayModel::default(), vec![], rng())
            .with_topology(TopologySchedule::None, SplitMix64::new(123));
        let mut q1 = EventQueue::new();
        let mut q2 = EventQueue::new();
        let mut a1: MsgArena<u64> = MsgArena::new();
        let mut a2: MsgArena<u64> = MsgArena::new();
        let mut staging = Vec::new();
        for i in 0..60u64 {
            let from = ProcessId(i as usize % 6);
            let to = ProcessId((i as usize + 1) % 6);
            let fx1 = plain.route(&mut q1, &mut a1, from, to, Time(i), i);
            let fx2 = explicit.route(&mut q2, &mut a2, from, to, Time(i), i);
            assert_eq!(fx1, fx2);
            plain.route_protected(&mut q1, &mut a1, from, to, Time(i), i + 500);
            explicit.route_protected(&mut q2, &mut a2, from, to, Time(i), i + 500);
            plain.route_broadcast(&mut q1, &mut a1, from, 6, Time(i), i, &mut staging);
            explicit.route_broadcast(&mut q2, &mut a2, from, 6, Time(i), i, &mut staging);
        }
        while let Some(a) = q1.pop() {
            let b = q2.pop().unwrap();
            assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to));
            assert_eq!(take_delivery(&mut a1, &a), take_delivery(&mut a2, &b));
        }
        assert!(q2.pop().is_none());
    }

    /// Plain messages crossing a severed cut are lost structurally: no
    /// coin flip, no arena slot — and the delivered (intra-island) subset
    /// keeps exactly the delivery times of a schedule-free run, because
    /// the base delay draw happens before the fate is applied.
    #[test]
    fn severed_links_drop_structurally_and_heal_at_the_edge() {
        use crate::event::EventQueue;
        let heal = Time(500);
        let sched = TopologySchedule::partition_until(islands_2x3(), heal);
        let mut cut = Network::new(DelayModel::default(), vec![], rng())
            .with_topology(sched, SplitMix64::new(7).stream(0x7090));
        let mut free = Network::new(DelayModel::default(), vec![], rng());
        let mut qc = EventQueue::new();
        let mut qf = EventQueue::new();
        let mut ac: MsgArena<u64> = MsgArena::new();
        let mut af: MsgArena<u64> = MsgArena::new();
        let mut severed = 0u32;
        for i in 0..120u64 {
            let from = ProcessId(i as usize % 6);
            let to = ProcessId((i as usize * 5 + 1) % 6);
            // Straddle the heal: sends after 500 all go through.
            let sent = Time(i * 5);
            let fx_c = cut.route(&mut qc, &mut ac, from, to, sent, i);
            let fx_f = free.route(&mut qf, &mut af, from, to, sent, i);
            assert!(fx_f.is_clean());
            let crosses = (from.0 < 3) != (to.0 < 3);
            let expect_severed = crosses && sent < heal;
            assert_eq!(fx_c.severed, expect_severed, "i={i}");
            assert!(!fx_c.dropped, "severed is counted separately from dropped");
            severed += fx_c.severed as u32;
        }
        assert!(severed > 0, "the cut severed nothing");
        // Every message the cut run delivered arrives at its clean-run time.
        let mut clean: std::collections::HashMap<u64, Time> = std::collections::HashMap::new();
        while let Some(e) = qf.pop() {
            let (_, payload) = take_delivery(&mut af, &e);
            clean.insert(payload, e.at);
        }
        let mut delivered = 0u32;
        while let Some(e) = qc.pop() {
            let (_, payload) = take_delivery(&mut ac, &e);
            assert_eq!(clean[&payload], e.at, "payload {payload}");
            delivered += 1;
        }
        assert_eq!(delivered + severed, 120);
        assert!(ac.is_empty(), "severed payloads must never touch the arena");
    }

    /// A latency override replaces the base delay with a draw from the
    /// topology stream, leaving the delay stream at clean-run positions.
    #[test]
    fn latency_override_draws_from_the_topology_stream() {
        use crate::event::EventQueue;
        let (lo, hi) = (200u64, 300u64);
        let ep = TopologyEpoch::new(Time::ZERO, Time(1_000)).link(LinkOverride::latency(
            PSet::singleton(ProcessId(0)),
            PSet::singleton(ProcessId(1)),
            lo,
            hi,
        ));
        let mut slow = Network::new(DelayModel::Uniform { lo: 1, hi: 9 }, vec![], rng())
            .with_topology(
                TopologySchedule::Epochs(vec![ep]),
                SplitMix64::new(7).stream(0x7090),
            );
        let mut free = Network::new(DelayModel::Uniform { lo: 1, hi: 9 }, vec![], rng());
        let mut qs = EventQueue::new();
        let mut as_: MsgArena<u64> = MsgArena::new();
        for i in 0..50u64 {
            let sent = Time(i * 10);
            // Overridden direction: delivery inside [sent+lo, sent+hi].
            let fx = slow.route(&mut qs, &mut as_, ProcessId(0), ProcessId(1), sent, i);
            assert!(fx.is_clean(), "latency override is not an attack");
            let e = qs.pop().unwrap();
            assert!(
                (sent + lo..=sent + hi).contains(&e.at),
                "i={i}: {:?} outside [{:?}, {:?}]",
                e.at,
                sent + lo,
                sent + hi
            );
            take_delivery(&mut as_, &e);
            // The *delay* stream stays clean-run-identical: the overridden
            // send above still consumed its base draw, so after burning
            // that draw on the free network the next clean send (the
            // non-overridden reverse direction) must agree draw-for-draw.
            let _ = free.delivery_time(ProcessId(0), ProcessId(1), sent);
            let expect = free.delivery_time(ProcessId(1), ProcessId(0), sent);
            let fx = slow.route(&mut qs, &mut as_, ProcessId(1), ProcessId(0), sent, i);
            assert!(fx.is_clean());
            let a = qs.pop().unwrap();
            assert_eq!(a.at, expect, "delay stream diverged at i={i}");
            take_delivery(&mut as_, &a);
        }
    }

    /// rb messages crossing a severed cut are *delayed until the heal*,
    /// never lost — the axioms of the protected channel survive the
    /// partition — and the batched path matches the scalar one.
    #[test]
    fn protected_route_is_delayed_until_heal_never_lost() {
        use crate::event::EventQueue;
        let heal = Time(400);
        let sched = TopologySchedule::partition_until(islands_2x3(), heal);
        let mut scalar = Network::new(DelayModel::default(), vec![], rng())
            .with_topology(sched.clone(), SplitMix64::new(21).stream(0x7090));
        let mut batch = scalar.clone();
        let mut qs = EventQueue::new();
        let mut qb = EventQueue::new();
        let mut as_: MsgArena<u64> = MsgArena::new();
        let mut ab: MsgArena<u64> = MsgArena::new();
        let mut staging = Vec::new();
        let receivers = PSet::full(6);
        for round in 0..40u64 {
            let from = ProcessId(round as usize % 6);
            let sent = Time(round * 20);
            for to in receivers {
                scalar.route_protected(&mut qs, &mut as_, from, to, sent, round);
            }
            batch.route_protected_batch(
                &mut qb,
                &mut ab,
                from,
                receivers,
                sent,
                round,
                &mut staging,
            );
        }
        let mut total = 0u32;
        while let Some(a) = qs.pop() {
            let b = qb.pop().unwrap();
            assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to));
            let (src, payload) = take_delivery(&mut as_, &a);
            assert_eq!((src, payload), take_delivery(&mut ab, &b));
            let sent = Time(payload * 20);
            let crosses = (src.0 < 3) != (a.to.0 < 3);
            if crosses && sent < heal {
                assert!(a.at >= heal, "cross-cut rb delivered before the heal");
            }
            total += 1;
        }
        assert!(qb.pop().is_none());
        assert_eq!(total, 40 * 6, "rb must never lose a message");
        assert!(as_.is_empty() && ab.is_empty());
    }

    /// `route_broadcast` under a topology schedule matches the scalar
    /// per-recipient loop draw-for-draw (with and without an armed message
    /// adversary on top).
    #[test]
    fn route_broadcast_matches_scalar_loop_under_topology() {
        use crate::event::EventQueue;
        let sched = TopologySchedule::Epochs(vec![TopologyEpoch::new(Time::ZERO, Time(300))
            .islands(islands_2x3())
            .link(LinkOverride::latency(
                PSet::singleton(ProcessId(0)),
                PSet::singleton(ProcessId(3)),
                50,
                80,
            ))]);
        let adversaries = [
            MessageAdversary::None,
            MessageAdversary::Rules(vec![
                crate::adversary::MessageRule::drop(15),
                crate::adversary::MessageRule::duplicate(20),
            ]),
        ];
        for adv in adversaries {
            let mut scalar_net = Network::new(DelayModel::default(), vec![], rng())
                .with_adversary(adv.clone(), SplitMix64::new(31).stream(0xADE5))
                .with_topology(sched.clone(), SplitMix64::new(31).stream(0x7090));
            let mut batch_net = scalar_net.clone();
            let mut scalar_q = EventQueue::new();
            let mut batch_q = EventQueue::new();
            let mut scalar_arena: MsgArena<u64> = MsgArena::new();
            let mut batch_arena: MsgArena<u64> = MsgArena::new();
            let mut staging = Vec::new();
            let n = 6usize;
            for round in 0..40u64 {
                let from = ProcessId(round as usize % n);
                // Straddles the heal at 300.
                let sent = Time(round * 10);
                let msg = 1_000 + round;
                let mut scalar_fx = BroadcastEffects::default();
                for i in 0..n {
                    scalar_fx.absorb(scalar_net.route(
                        &mut scalar_q,
                        &mut scalar_arena,
                        from,
                        ProcessId(i),
                        sent,
                        msg,
                    ));
                }
                let batch_fx = batch_net.route_broadcast(
                    &mut batch_q,
                    &mut batch_arena,
                    from,
                    n,
                    sent,
                    msg,
                    &mut staging,
                );
                assert_eq!(scalar_fx, batch_fx, "round={round}");
                if sent < Time(300) && from.0 != 0 {
                    assert!(batch_fx.severed > 0, "round={round}: cut severed nothing");
                }
            }
            loop {
                match (scalar_q.pop(), batch_q.pop()) {
                    (None, None) => break,
                    (a, b) => {
                        let a = a.expect("scalar drained first");
                        let b = b.expect("batch drained first");
                        assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to));
                        assert_eq!(
                            take_delivery(&mut scalar_arena, &a),
                            take_delivery(&mut batch_arena, &b)
                        );
                    }
                }
            }
        }
    }
}
