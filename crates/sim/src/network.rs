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
//! Two channels, one routing method each: [`Network::route_to`] carries
//! `send` and `broadcast` over the plain links (a unicast is a
//! one-recipient broadcast; [`Network::route_broadcast`] is its `0..n`
//! call), and [`Network::route_protected`] carries reliable-broadcast
//! deliveries, which the message adversary cannot touch. Both stage the
//! payload once in the run's [`MsgArena`], push `Copy` events holding a
//! [`crate::arena::MsgSlot`] handle through one [`Scheduler::push_batch`],
//! and commit the slot's delivery count — a clean broadcast is one arena
//! insert plus `n` index writes, not `n` clones of `M`.

use crate::adversary::{
    Corruptible, LinkFate, MessageAdversary, RouteEffects, RuleAction, TopologySchedule,
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
/// [`Network::delivery_time`], both route paths (regular copies draw from
/// the delay stream, duplicate copies from the adversary stream), and the
/// protected reliable-broadcast path all funnel through these two. Part
/// of the reproducibility contract: the delay draw happens *before* the
/// message adversary is consulted (see [`Network::route_with`]), so the
/// delivered subset of messages keeps exactly the delivery times it would
/// have had in a clean run, and adding/removing adversary rules never
/// shifts this stream.
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
///
/// Why the twin stays: with it deleted (`route_to`'s clean path and
/// `route_protected` each one [`sample_delivery`] loop, −180 lines, every
/// count the benchmark checks unchanged), the benchmark lost
/// `events_per_s` in 3 of 3 alternating 27-second pairs per workload on a
/// 2-core x86-64 box: `scale_n128` medians 22.99M → 21.64M (−5.9%),
/// `grid_small` 15.51M → 15.05M (−3.0%).
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

    /// Routes one send of `msg` by `from` to every process in `recipients`
    /// — a unicast is `once(to)`, a broadcast `0..n` — over the plain
    /// channels the message adversary attacks: draws the delivery times,
    /// applies the topology schedule and the adversary, stages the
    /// surviving deliveries into the caller-recycled `staging` buffer and
    /// inserts them through one [`Scheduler::push_batch`] call. The
    /// `?Sized` bound admits `&mut dyn Scheduler` where a trait object is
    /// genuinely needed.
    ///
    /// On the clean path (no adversary, no topology epoch covering the send
    /// time) the payload is stored **once** — one arena slot with one
    /// pending delivery per recipient, no clone of `M` at all — and the
    /// delays come from one bulk pass, draw for draw what a per-recipient
    /// loop would draw. Otherwise each recipient's copy goes through the
    /// per-recipient core (the payload moves into the last copy), so each
    /// link can have its own fate and each copy is attacked apart.
    ///
    /// Returns the counted sum of what the adversary and the topology did
    /// across the recipients ([`RouteEffects::is_clean`] under
    /// [`MessageAdversary::None`] and no epoch). `staging` must arrive
    /// empty and is cleared again before returning.
    // The arena + recycled staging buffer are what keep a send
    // allocation-free; folding them into a params struct would only move
    // the argument count somewhere less legible.
    #[allow(clippy::too_many_arguments)]
    pub fn route_to<M: Clone + Corruptible, Q: Scheduler + ?Sized>(
        &mut self,
        queue: &mut Q,
        arena: &mut MsgArena<M>,
        from: ProcessId,
        recipients: impl IntoIterator<Item = ProcessId>,
        sent_at: Time,
        msg: M,
        staging: &mut Vec<Staged>,
    ) -> RouteEffects {
        debug_assert!(staging.is_empty(), "staging buffer must arrive empty");
        let fx = if self.adversary.is_none() && self.topology.epoch_at(sent_at).is_none() {
            let slot = arena.stage(msg);
            sample_delivery_bulk(
                &self.delay,
                &self.rules,
                &mut self.rng,
                from,
                recipients,
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
            RouteEffects::default()
        } else {
            self.route_with(arena, from, recipients, sent_at, msg, staging)
        };
        queue.push_batch(staging);
        staging.clear();
        fx
    }

    /// [`Network::route_to`] every process `0..n`: the runtime's
    /// `Op::Broadcast`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn route_broadcast<M: Clone + Corruptible, Q: Scheduler + ?Sized>(
        &mut self,
        queue: &mut Q,
        arena: &mut MsgArena<M>,
        from: ProcessId,
        n: usize,
        sent_at: Time,
        msg: M,
        staging: &mut Vec<Staged>,
    ) -> RouteEffects {
        let recipients = (0..n).map(ProcessId);
        self.route_to(queue, arena, from, recipients, sent_at, msg, staging)
    }

    /// The per-recipient path of [`Network::route_to`], one copy per
    /// recipient in iteration order (every copy but the last is a clone;
    /// the last takes the payload): draws the delivery time, applies the
    /// message adversary (corruption mutates the still-owned copy *before*
    /// it is stored), stages one arena slot per surviving copy and pushes
    /// its delivery (or two) onto `staging`. Keeping it in one place is
    /// what pins the draw-order contract down: per copy, delay draw first
    /// (from the delay stream), then one `chance` draw per in-scope rule in
    /// rule order (from the adversary stream), then one extra delay draw
    /// per duplicate (adversary stream again). A duplicated copy stores its
    /// payload once (one slot, two pending deliveries); the original is
    /// staged first, so at equal delivery times it keeps the smaller
    /// sequence number.
    ///
    /// The topology schedule is resolved *before* the message adversary
    /// (structure trumps probability): a severed copy consumes its base
    /// delay draw — keeping the delay stream at clean-run positions — and
    /// is then lost with zero adversary draws; a latency override replaces
    /// the drawn delivery time with one draw from the topology stream
    /// (again leaving the delay stream clean-run-identical) and the copy
    /// then faces the adversary rules as usual. Duplicates of a
    /// latency-overridden copy keep the base-model delay from the adversary
    /// stream, like every duplicate. Dropped and severed copies never touch
    /// the arena.
    fn route_with<M: Clone + Corruptible>(
        &mut self,
        arena: &mut MsgArena<M>,
        from: ProcessId,
        recipients: impl IntoIterator<Item = ProcessId>,
        sent_at: Time,
        msg: M,
        staging: &mut Vec<Staged>,
    ) -> RouteEffects {
        let mut fx = RouteEffects::default();
        let mut recipients = recipients.into_iter().peekable();
        let mut payload = Some(msg);
        'copies: while let Some(to) = recipients.next() {
            let mut msg = match recipients.peek() {
                Some(_) => payload.clone(),
                None => payload.take(),
            }
            .expect("one payload per copy");
            let fate = if self.topology.is_none() {
                LinkFate::Open
            } else {
                self.topology.fate(from, to, sent_at)
            };
            let mut at = self.delivery_time(from, to, sent_at);
            let (mut duplicated, mut corrupted) = (false, false);
            match fate {
                LinkFate::Open => {}
                LinkFate::Severed { .. } => {
                    // Cut: lost structurally, no adversary draws, no arena
                    // slot. The base delay draw above already happened, so
                    // delivered copies keep their clean-run times.
                    fx.severed += 1;
                    continue;
                }
                LinkFate::Latency { lo, hi } => {
                    at = sent_at + self.topo_rng.range(lo.min(hi), hi.max(lo)).max(1);
                }
            }
            // Disjoint-field borrows: rules read-only, adversary stream
            // mutable. One `chance` draw per in-scope rule per copy, in rule
            // order — the determinism contract of the dropped set.
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
                        // this copy are moot too — only the drop counts.
                        fx.dropped += 1;
                        continue 'copies;
                    }
                    RuleAction::Duplicate => duplicated = true,
                    RuleAction::Corrupt { bound } => {
                        // Only plain deliveries carry corruptible payloads:
                        // rb deliveries take `route_protected`, which never
                        // consults the adversary, keeping the rb exemption
                        // structural rather than incidental. The copy is
                        // still owned here, so corruption happens in place,
                        // before the arena ever sees it.
                        corrupted |= msg.corrupt(bound, adv_rng);
                    }
                }
            }
            let slot = arena.stage(msg);
            staging.push(Staged {
                at,
                to,
                kind: EventKind::Deliver { from, slot },
            });
            if duplicated {
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
                staging.push(Staged {
                    at: dup_at,
                    to,
                    kind: EventKind::Deliver { from, slot },
                });
            }
            arena.commit(slot, 1 + duplicated as u32);
            fx.duplicated += duplicated as u64;
            fx.corrupted += corrupted as u64;
        }
        fx
    }

    /// Routes one reliable-broadcast delivery of `msg` to each process in
    /// `receivers`, on a channel the message adversary cannot touch — the
    /// rb axioms (no loss, no alteration, no duplication) are a premise of
    /// the model. The payload is stored once (one slot, one pending
    /// delivery per receiver), delays are drawn in iteration order, and
    /// the deliveries go in through one [`Scheduler::push_batch`] call.
    ///
    /// The topology schedule *delays* rb messages but never loses them: a
    /// severed link holds the message until just past the epoch's heal
    /// time (release jitter from the topology stream keeps heals from
    /// synchronizing into one mega-tick), and a latency override replaces
    /// the drawn delivery time. This is exactly the model's delay-only
    /// adversary — arbitrary finite delays over reliable channels.
    /// `staging` must arrive empty and is cleared again before returning.
    #[allow(clippy::too_many_arguments)]
    pub fn route_protected<M, Q: Scheduler + ?Sized>(
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
            // fate, so draw per receiver (base delay first, draw-identical
            // to the clean bulk pass, then the fate from the topology
            // stream). Severed links hold the message until just past the
            // heal; latency overrides replace the base draw.
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
                let at = match topology.fate(from, to, sent_at) {
                    LinkFate::Open => base,
                    LinkFate::Severed { heal } => base.max(heal + topo_rng.range(0, 3)),
                    LinkFate::Latency { lo, hi } => {
                        sent_at + topo_rng.range(lo.min(hi), hi.max(lo)).max(1)
                    }
                };
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
    use crate::adversary::{LinkOverride, MessageRule, TopologyEpoch};
    use crate::event::{Event, EventQueue};
    use std::iter::once;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    fn rng() -> SplitMix64 {
        SplitMix64::new(99)
    }

    /// One side of a routing test: a network with its own queue and arena.
    struct Lane {
        net: Network,
        q: EventQueue,
        arena: MsgArena<u64>,
    }

    impl Lane {
        fn new(net: Network) -> Self {
            Lane {
                net,
                q: EventQueue::new(),
                arena: MsgArena::new(),
            }
        }

        /// One unicast: [`Network::route_to`] a single recipient.
        fn send(&mut self, from: ProcessId, to: ProcessId, at: Time, msg: u64) -> RouteEffects {
            let (q, arena) = (&mut self.q, &mut self.arena);
            self.net
                .route_to(q, arena, from, once(to), at, msg, &mut Vec::new())
        }

        /// `n` unicasts to `0..n` in recipient order, effects summed.
        fn unicasts(&mut self, from: ProcessId, n: usize, at: Time, msg: u64) -> RouteEffects {
            let mut sum = RouteEffects::default();
            for to in (0..n).map(ProcessId) {
                let fx = self.send(from, to, at, msg);
                sum.dropped += fx.dropped;
                sum.duplicated += fx.duplicated;
                sum.corrupted += fx.corrupted;
                sum.severed += fx.severed;
            }
            sum
        }

        fn broadcast(&mut self, from: ProcessId, n: usize, at: Time, msg: u64) -> RouteEffects {
            let (q, arena, mut staging) = (&mut self.q, &mut self.arena, Vec::new());
            let fx = self
                .net
                .route_broadcast(q, arena, from, n, at, msg, &mut staging);
            assert!(staging.is_empty(), "staging must be cleared");
            fx
        }

        fn rb(
            &mut self,
            from: ProcessId,
            to: impl IntoIterator<Item = ProcessId>,
            at: Time,
            m: u64,
        ) {
            let (q, arena, mut staging) = (&mut self.q, &mut self.arena, Vec::new());
            self.net
                .route_protected(q, arena, from, to, at, m, &mut staging);
            assert!(staging.is_empty(), "staging must be cleared");
        }

        /// Pops the next delivery as `(event, from, payload)`.
        fn pop(&mut self) -> Option<(Event, ProcessId, u64)> {
            let e = self.q.pop()?;
            match e.kind {
                EventKind::Deliver { from, slot } | EventKind::RbDeliver { from, slot } => {
                    Some((e, from, self.arena.take(slot)))
                }
                k => panic!("expected a delivery, got {k:?}"),
            }
        }

        /// Drains this lane beside `other`, which must pop the same
        /// `(at, seq, to)` with the same `(from, payload)` and nothing
        /// more; both arenas end empty. Slot numbering may differ (a batch
        /// stores a clean send once), so only the observable is compared.
        fn drain_beside(&mut self, other: &mut Lane) -> Vec<(Event, ProcessId, u64)> {
            let mut popped = Vec::new();
            while let Some((a, from, msg)) = self.pop() {
                let (b, b_from, b_msg) = other.pop().expect("the other lane drained first");
                assert_eq!(
                    (a.at, a.seq, a.to, from, msg),
                    (b.at, b.seq, b.to, b_from, b_msg)
                );
                popped.push((a, from, msg));
            }
            assert!(other.q.is_empty(), "this lane drained first");
            assert!(
                self.arena.is_empty() && other.arena.is_empty(),
                "arena leak"
            );
            popped
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

    /// A delay past the end of the clock arrives at `Time::INFINITY` — it
    /// neither panics on the addition nor wraps to before the send.
    #[test]
    fn delivery_time_saturates_at_infinity() {
        let spike = DelayModel::Spiky {
            lo: u64::MAX / 2,
            hi: u64::MAX / 2,
            spike_pct: 100,
            factor: 4,
        };
        for model in [DelayModel::Fixed(u64::MAX), spike] {
            let mut lane = Lane::new(Network::new(model.clone(), vec![], rng()));
            lane.broadcast(P0, 3, Time(7), 1);
            while let Some((e, ..)) = lane.pop() {
                assert_eq!(e.at, Time::INFINITY, "{model:?}");
            }
        }
    }

    /// An R-broadcast across a cut that never heals is held until
    /// `Time::INFINITY`, not wrapped around by the release jitter.
    #[test]
    fn protected_route_across_an_endless_cut_saturates() {
        let sched = TopologySchedule::partition_until(islands_2x3(), Time::INFINITY);
        let mut lane = Lane::new(
            Network::new(DelayModel::default(), vec![], rng())
                .with_topology(sched, SplitMix64::new(5).stream(0x7090)),
        );
        for t in [Time(0), Time(10), Time(20)] {
            lane.rb(P0, PSet::full(6), t, 9);
        }
        assert_eq!(lane.q.len(), 18, "rb never loses a message");
        while let Some((e, ..)) = lane.pop() {
            assert_eq!(e.at == Time::INFINITY, e.to.0 >= 3, "{e:?}");
        }
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
        let net = || Network::new(DelayModel::Uniform { lo: 1, hi: 9 }, vec![], rng());
        let mut plain = Lane::new(net());
        let mut none = Lane::new(net().with_adversary(MessageAdversary::None, SplitMix64::new(77)));
        for i in 0..100u64 {
            let from = ProcessId(i as usize % 4);
            let to = ProcessId((i as usize + 1) % 4);
            assert!(plain.send(from, to, Time(i), i).is_clean());
            assert!(none.send(from, to, Time(i), i).is_clean());
        }
        assert_eq!(plain.drain_beside(&mut none).len(), 100);
    }

    #[test]
    fn drop_rule_loses_messages_deterministically() {
        let adv = MessageAdversary::Rules(vec![MessageRule::drop(40)]);
        let run = || {
            let mut lane = Lane::new(
                Network::new(DelayModel::Fixed(3), vec![], rng())
                    .with_adversary(adv.clone(), SplitMix64::new(5).stream(0xADE5)),
            );
            let dropped: Vec<u64> = (0..200u64)
                .filter(|&i| lane.send(P0, P1, Time(i), i).dropped == 1)
                .collect();
            let delivered: Vec<u64> = std::iter::from_fn(|| lane.pop()).map(|d| d.2).collect();
            assert!(lane.arena.is_empty(), "drained queue must drain the arena");
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
        let adv = MessageAdversary::Rules(vec![MessageRule::duplicate(100)]);
        let mut lane = Lane::new(
            Network::new(DelayModel::Fixed(2), vec![], rng())
                .with_adversary(adv, SplitMix64::new(9)),
        );
        let fx = lane.send(P0, P1, Time(10), 42);
        assert_eq!((fx.duplicated, fx.dropped, fx.corrupted), (1, 0, 0));
        assert_eq!(lane.q.len(), 2);
        assert_eq!(lane.arena.live(), 1, "both copies share one stored payload");
        let (a, _, x) = lane.pop().unwrap();
        let (b, _, y) = lane.pop().unwrap();
        assert!(a.at <= b.at);
        assert_eq!((x, y), (42, 42));
        assert!(lane.arena.is_empty());
    }

    #[test]
    fn corrupt_rule_stays_within_bound() {
        let bound = 5u64;
        let adv = MessageAdversary::Rules(vec![MessageRule::corrupt(100, bound)]);
        let mut lane = Lane::new(
            Network::new(DelayModel::Fixed(1), vec![], rng())
                .with_adversary(adv, SplitMix64::new(13)),
        );
        let mut corrupted = 0;
        for i in 0..100u64 {
            let payload = 1_000 + i;
            corrupted += lane.send(P0, P1, Time(i), payload).corrupted;
            let (.., msg) = lane.pop().unwrap();
            assert!(msg.abs_diff(payload) <= bound, "{payload} -> {msg}");
        }
        assert!(corrupted > 50, "100% corruption rule fired {corrupted}/100");
    }

    #[test]
    fn protected_route_ignores_the_adversary() {
        let adv = MessageAdversary::Rules(vec![MessageRule::drop(100)]);
        let mut lane = Lane::new(
            Network::new(DelayModel::Fixed(1), vec![], rng())
                .with_adversary(adv, SplitMix64::new(3)),
        );
        lane.rb(P0, once(P1), Time(0), 7);
        assert_eq!(lane.q.len(), 1, "rb deliveries must never be dropped");
        let (_, from, msg) = lane.pop().unwrap();
        assert_eq!((from, msg), (P0, 7));
    }

    #[test]
    fn windowed_drop_only_fires_inside_the_window() {
        let adv =
            MessageAdversary::Rules(vec![MessageRule::drop(100).window(Time::ZERO, Time(50))]);
        let mut lane = Lane::new(
            Network::new(DelayModel::Fixed(1), vec![], rng())
                .with_adversary(adv, SplitMix64::new(4)),
        );
        for t in [0u64, 49, 50, 100] {
            let fx = lane.send(P0, P1, Time(t), t);
            assert_eq!(fx.dropped, (t < 50) as u64, "send at {t}");
        }
        assert_eq!(lane.q.len(), 2);
        assert_eq!(
            lane.arena.live(),
            2,
            "dropped payloads never touch the arena"
        );
    }

    /// The batching contract at the network level: `route_broadcast` is
    /// draw-for-draw and push-for-push identical to `n` unicasts in
    /// recipient order — including the RNG stream positions it leaves
    /// behind — with and without an armed adversary.
    #[test]
    fn route_broadcast_matches_the_scalar_recipient_loop() {
        let adversaries = [
            MessageAdversary::None,
            MessageAdversary::Rules(vec![
                MessageRule::drop(15),
                MessageRule::duplicate(20),
                MessageRule::corrupt(25, 4),
            ]),
        ];
        for adv in adversaries {
            for n in [2usize, 5, 9, 33] {
                let net = Network::new(DelayModel::default(), vec![], rng())
                    .with_adversary(adv.clone(), SplitMix64::new(31).stream(0xADE5));
                let (mut unicast, mut batch) = (Lane::new(net.clone()), Lane::new(net));
                for round in 0..40u64 {
                    let from = ProcessId(round as usize % n);
                    let (sent, msg) = (Time(round * 3), 1_000 + round);
                    let fx = unicast.unicasts(from, n, sent, msg);
                    assert_eq!(
                        fx,
                        batch.broadcast(from, n, sent, msg),
                        "n={n} round={round}"
                    );
                    // An interleaved unicast keeps proving the stream
                    // positions agree after every broadcast.
                    let to = ProcessId((round as usize + 1) % n);
                    let fx = unicast.send(from, to, sent, round);
                    assert_eq!(fx, batch.send(from, to, sent, round), "n={n} round={round}");
                }
                unicast.drain_beside(&mut batch);
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

    /// Same contract for the protected (reliable-broadcast) path: one
    /// `route_protected` to a receiver set equals one per receiver.
    #[test]
    fn route_protected_matches_the_per_receiver_loop() {
        let net = Network::new(DelayModel::default(), vec![], rng());
        let (mut each, mut batch) = (Lane::new(net.clone()), Lane::new(net));
        for round in 0..30u64 {
            let from = ProcessId(round as usize % 7);
            let receivers = PSet::full(7);
            for to in receivers {
                each.rb(from, once(to), Time(round), round);
            }
            batch.rb(from, receivers, Time(round), round);
        }
        each.drain_beside(&mut batch);
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

    fn islands_2x3() -> Vec<PSet> {
        vec![
            (0..3).map(ProcessId).collect(),
            (3..6).map(ProcessId).collect(),
        ]
    }

    /// The tentpole's determinism contract: installing
    /// `TopologySchedule::None` explicitly is bit-identical to never
    /// mentioning topology at all — same events, same payloads, same RNG
    /// stream positions, on plain and protected paths alike.
    #[test]
    fn topology_none_is_bit_identical_to_plain() {
        let net = || Network::new(DelayModel::default(), vec![], rng());
        let mut plain = Lane::new(net());
        let mut explicit =
            Lane::new(net().with_topology(TopologySchedule::None, SplitMix64::new(123)));
        for i in 0..60u64 {
            let from = ProcessId(i as usize % 6);
            let to = ProcessId((i as usize + 1) % 6);
            let t = Time(i);
            assert_eq!(plain.send(from, to, t, i), explicit.send(from, to, t, i));
            for lane in [&mut plain, &mut explicit] {
                lane.rb(from, once(to), t, i + 500);
                lane.broadcast(from, 6, t, i);
            }
        }
        plain.drain_beside(&mut explicit);
    }

    /// Plain messages crossing a severed cut are lost structurally: no
    /// coin flip, no arena slot — and the delivered (intra-island) subset
    /// keeps exactly the delivery times of a schedule-free run, because
    /// the base delay draw happens before the fate is applied.
    #[test]
    fn severed_links_drop_structurally_and_heal_at_the_edge() {
        let heal = Time(500);
        let sched = TopologySchedule::partition_until(islands_2x3(), heal);
        let net = || Network::new(DelayModel::default(), vec![], rng());
        let mut cut = Lane::new(net().with_topology(sched, SplitMix64::new(7).stream(0x7090)));
        let mut free = Lane::new(net());
        let mut severed = 0;
        for i in 0..120u64 {
            let from = ProcessId(i as usize % 6);
            let to = ProcessId((i as usize * 5 + 1) % 6);
            // Straddle the heal: sends after 500 all go through.
            let sent = Time(i * 5);
            let fx = cut.send(from, to, sent, i);
            assert!(free.send(from, to, sent, i).is_clean());
            let crosses = (from.0 < 3) != (to.0 < 3);
            let expect_severed = crosses && sent < heal;
            assert_eq!(fx.severed, expect_severed as u64, "i={i}");
            assert_eq!(fx.dropped, 0, "severed is counted separately from dropped");
            severed += fx.severed;
        }
        assert!(severed > 0, "the cut severed nothing");
        // Every message the cut run delivered arrives at its clean-run time.
        let clean: std::collections::HashMap<u64, Time> = std::iter::from_fn(|| free.pop())
            .map(|(e, _, payload)| (payload, e.at))
            .collect();
        let mut delivered = 0;
        while let Some((e, _, payload)) = cut.pop() {
            assert_eq!(clean[&payload], e.at, "payload {payload}");
            delivered += 1;
        }
        assert_eq!(delivered + severed, 120);
        assert!(
            cut.arena.is_empty(),
            "severed payloads must never touch the arena"
        );
    }

    /// A latency override replaces the base delay with a draw from the
    /// topology stream, leaving the delay stream at clean-run positions.
    #[test]
    fn latency_override_draws_from_the_topology_stream() {
        let (lo, hi) = (200u64, 300u64);
        let ep = TopologyEpoch::new(Time::ZERO, Time(1_000)).link(LinkOverride::latency(
            PSet::singleton(P0),
            PSet::singleton(P1),
            lo,
            hi,
        ));
        let net = || Network::new(DelayModel::Uniform { lo: 1, hi: 9 }, vec![], rng());
        let mut slow = Lane::new(net().with_topology(
            TopologySchedule::Epochs(vec![ep]),
            SplitMix64::new(7).stream(0x7090),
        ));
        let mut free = net();
        for i in 0..50u64 {
            let sent = Time(i * 10);
            // Overridden direction: delivery inside [sent+lo, sent+hi].
            let fx = slow.send(P0, P1, sent, i);
            assert!(fx.is_clean(), "latency override is not an attack");
            let (e, ..) = slow.pop().unwrap();
            assert!((sent + lo..=sent + hi).contains(&e.at), "i={i}: {e:?}");
            // The *delay* stream stays clean-run-identical: the overridden
            // send above still consumed its base draw, so after burning
            // that draw on the free network the next clean send (the
            // non-overridden reverse direction) must agree draw-for-draw.
            let _ = free.delivery_time(P0, P1, sent);
            let expect = free.delivery_time(P1, P0, sent);
            assert!(slow.send(P1, P0, sent, i).is_clean());
            let (e, ..) = slow.pop().unwrap();
            assert_eq!(e.at, expect, "delay stream diverged at i={i}");
        }
    }

    /// rb messages crossing a severed cut are *delayed until the heal*,
    /// never lost — the axioms of the protected channel survive the
    /// partition — and one send to every receiver matches one per receiver.
    #[test]
    fn protected_route_is_delayed_until_heal_never_lost() {
        let heal = Time(400);
        let sched = TopologySchedule::partition_until(islands_2x3(), heal);
        let net = Network::new(DelayModel::default(), vec![], rng())
            .with_topology(sched, SplitMix64::new(21).stream(0x7090));
        let (mut each, mut batch) = (Lane::new(net.clone()), Lane::new(net));
        let receivers = PSet::full(6);
        for round in 0..40u64 {
            let from = ProcessId(round as usize % 6);
            let sent = Time(round * 20);
            for to in receivers {
                each.rb(from, once(to), sent, round);
            }
            batch.rb(from, receivers, sent, round);
        }
        let popped = each.drain_beside(&mut batch);
        assert_eq!(popped.len(), 40 * 6, "rb must never lose a message");
        for (e, src, payload) in popped {
            let crosses = (src.0 < 3) != (e.to.0 < 3);
            if crosses && Time(payload * 20) < heal {
                assert!(e.at >= heal, "cross-cut rb delivered before the heal");
            }
        }
    }

    /// `route_broadcast` under a topology schedule matches `n` unicasts
    /// draw-for-draw (with and without an armed message adversary on top).
    #[test]
    fn route_broadcast_matches_scalar_loop_under_topology() {
        let sched = TopologySchedule::Epochs(vec![TopologyEpoch::new(Time::ZERO, Time(300))
            .islands(islands_2x3())
            .link(LinkOverride::latency(
                PSet::singleton(P0),
                PSet::singleton(ProcessId(3)),
                50,
                80,
            ))]);
        let adversaries = [
            MessageAdversary::None,
            MessageAdversary::Rules(vec![MessageRule::drop(15), MessageRule::duplicate(20)]),
        ];
        for adv in adversaries {
            let net = Network::new(DelayModel::default(), vec![], rng())
                .with_adversary(adv.clone(), SplitMix64::new(31).stream(0xADE5))
                .with_topology(sched.clone(), SplitMix64::new(31).stream(0x7090));
            let (mut unicast, mut batch) = (Lane::new(net.clone()), Lane::new(net));
            let n = 6usize;
            for round in 0..40u64 {
                let from = ProcessId(round as usize % n);
                // Straddles the heal at 300.
                let (sent, msg) = (Time(round * 10), 1_000 + round);
                let fx = batch.broadcast(from, n, sent, msg);
                assert_eq!(unicast.unicasts(from, n, sent, msg), fx, "round={round}");
                if sent < Time(300) && from.0 != 0 {
                    assert!(fx.severed > 0, "round={round}: cut severed nothing");
                }
            }
            unicast.drain_beside(&mut batch);
        }
    }
}
