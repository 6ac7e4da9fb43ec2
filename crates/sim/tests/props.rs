//! Property-based tests of the simulator substrate — hand-rolled seeded
//! cases (the build environment has no `proptest`); every case derives
//! from a `SplitMix64` stream of a fixed root seed, so failures reproduce
//! exactly.

use fd_sim::{
    Automaton, Corruptible, Ctx, DelayModel, DelayRule, Event, EventKind, EventQueue,
    FailurePattern, MessageAdversary, MessageRule, MsgArena, Network, NoOracle, OracleSuite, PSet,
    ProcessId, RouteEffects, Scheduler, Sim, SimConfig, SplitMix64, Staged, Time,
};
use std::iter::once;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const CASES: u64 = 128;

fn rng_for(case: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(0x51D_0000 + case).stream(stream)
}

#[test]
fn event_queue_pops_in_nondecreasing_time() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0);
        let len = 1 + rng.below(59) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time(t), ProcessId(i % 4), EventKind::Step);
        }
        let mut prev = Time::ZERO;
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!(e.at >= prev);
            prev = e.at;
            n += 1;
        }
        assert_eq!(n, times.len());
    }
}

#[test]
fn event_queue_fifo_among_ties() {
    for k in 2usize..20 {
        let mut q = EventQueue::new();
        for i in 0..k {
            q.push(Time(7), ProcessId(i), EventKind::Step);
        }
        for i in 0..k {
            assert_eq!(q.pop().unwrap().to, ProcessId(i));
        }
    }
}

/// The [`Scheduler`] contract as an executable model: a `Vec` kept sorted
/// by `(at, seq)`, with the trait's default one-by-one `push_batch`.
#[derive(Debug, Default)]
struct ModelQueue {
    pending: Vec<Event>,
    next_seq: u64,
}

impl Scheduler for ModelQueue {
    fn push(&mut self, at: Time, to: ProcessId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.pending.partition_point(|e| (e.at, e.seq) < (at, seq));
        self.pending.insert(pos, Event { at, seq, to, kind });
    }

    fn pop(&mut self) -> Option<Event> {
        (!self.pending.is_empty()).then(|| self.pending.remove(0))
    }

    fn peek_time(&self) -> Option<Time> {
        self.pending.first().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// [`EventQueue`] and [`ModelQueue`] fed the same pushes; every pop asserts
/// they agree on `peek_time`, `len` and the popped event.
#[derive(Default)]
struct Lockstep {
    queue: EventQueue,
    model: ModelQueue,
}

impl Lockstep {
    fn push(&mut self, at: Time) {
        let to = ProcessId(at.ticks() as usize % 8);
        self.queue.push(at, to, EventKind::Step);
        self.model.push(at, to, EventKind::Step);
    }

    /// The queue takes the batch in one `push_batch` call; the model takes
    /// the same events one by one.
    fn push_batch(&mut self, times: impl Iterator<Item = Time>) {
        let batch: Vec<Staged> = times
            .map(|at| Staged {
                at,
                to: ProcessId(at.ticks() as usize % 8),
                kind: EventKind::Join,
            })
            .collect();
        self.queue.push_batch(&batch);
        for s in &batch {
            self.model.push(s.at, s.to, s.kind);
        }
    }

    fn pop(&mut self, ctx: &str) -> Option<Event> {
        assert_eq!(self.queue.peek_time(), self.model.peek_time(), "{ctx}");
        assert_eq!(self.queue.len(), self.model.len(), "{ctx}");
        let (a, b) = (self.queue.pop(), self.model.pop());
        assert_eq!(
            a.map(|e| (e.at, e.seq, e.to, e.kind)),
            b.map(|e| (e.at, e.seq, e.to, e.kind)),
            "{ctx}: queue diverged from the model"
        );
        a
    }

    fn drain(&mut self, ctx: &str) {
        while self.pop(ctx).is_some() {}
        assert!(self.queue.is_empty() && self.model.is_empty(), "{ctx}");
    }
}

#[test]
fn event_queue_pops_exactly_like_the_model() {
    // Any push sequence — random times over ranges narrow enough to force
    // heavy same-tick ties, with the odd `Time::INFINITY` — pops in the
    // model's (at, seq) order.
    for case in 0..CASES {
        let mut rng = rng_for(case, 7);
        let span = [4, 50, 500][case as usize % 3];
        let mut pair = Lockstep::default();
        for _ in 0..1 + rng.below(300) {
            if rng.chance(1, 40) {
                pair.push(Time::INFINITY);
            } else {
                pair.push(Time(rng.below(span)));
            }
        }
        pair.drain(&format!("case {case} (span {span})"));
    }
}

#[test]
fn event_queue_matches_the_model_under_bursts_and_batches() {
    // The simulator's own shape: near-monotone bursts interleaved with
    // pops, occasional far-future sparse events, and broadcasts of random
    // fan-out staged through `push_batch`.
    for case in 0..32 {
        let ctx = format!("case {case}");
        let mut rng = rng_for(case, 11);
        let mut pair = Lockstep::default();
        let mut now = 0u64;
        for _ in 0..600 {
            if rng.chance(1, 4) {
                let fanout = 1 + rng.below(33);
                let at = |_| Time(now + 1 + rng.below(12));
                pair.push_batch((0..fanout).map(at));
            } else {
                for _ in 0..1 + rng.below(6) {
                    let far = rng.chance(1, 25);
                    pair.push(Time(now + rng.below(if far { 5_000 } else { 3 })));
                }
            }
            for _ in 0..1 + rng.below(3) {
                if let Some(e) = pair.pop(&ctx) {
                    now = e.at.ticks();
                }
            }
        }
        pair.drain(&ctx);
    }
}

#[test]
fn event_queue_matches_the_model_across_the_wheel_window() {
    // The queue's wheel covers 64 ticks from the last popped one; anything
    // further goes to its fallback heap. Spans just inside, on and just
    // beyond that edge (and far beyond it), pushed from a clock that pops
    // keep moving, make the same tick reachable through both structures.
    const W: u64 = 64;
    for case in 0..64 {
        let mut rng = rng_for(case, 13);
        let span = [W - 1, W, W + 1, 5_000][case as usize % 4];
        let ctx = format!("case {case} (span {span})");
        let mut pair = Lockstep::default();
        let mut now = 0u64;
        for _ in 0..400 {
            if rng.chance(1, 5) {
                let fanout = 1 + rng.below(17);
                pair.push_batch((0..fanout).map(|_| Time(now + rng.below(span + 1))));
            } else {
                for _ in 0..1 + rng.below(4) {
                    // One push in eight lands before the clock.
                    let back = if rng.chance(1, 8) { rng.below(W) } else { 0 };
                    pair.push(Time((now + rng.below(span + 1)).saturating_sub(back)));
                }
            }
            for _ in 0..rng.below(4) {
                if let Some(e) = pair.pop(&ctx) {
                    now = e.at.ticks();
                }
            }
        }
        pair.drain(&ctx);
    }
}

/// Stages a broadcast through `route_broadcast` and replays the identical
/// sends as `n` unicasts (`route_to` one recipient each) on an independent
/// network clone; both the queue contents and the adversary effect totals
/// must agree.
#[test]
fn route_broadcast_equals_scalar_loop_under_every_adversary() {
    let adversaries = || {
        [
            MessageAdversary::None,
            MessageAdversary::Rules(vec![MessageRule::drop(30)]),
            MessageAdversary::Rules(vec![
                MessageRule::drop(10).window(Time::ZERO, Time(100)),
                MessageRule::duplicate(30),
                MessageRule::corrupt(20, 5),
            ]),
        ]
    };
    for case in 0..48u64 {
        for adv in adversaries() {
            let mut rng = rng_for(case, 12);
            let n = 2 + rng.below(32) as usize;
            let mut batch_net = Network::new(
                DelayModel::Uniform { lo: 1, hi: 12 },
                vec![],
                SplitMix64::new(case).stream(5),
            )
            .with_adversary(adv.clone(), SplitMix64::new(case).stream(6));
            let mut scalar_net = batch_net.clone();
            let mut batch_q = ModelQueue::default();
            let mut scalar_q = EventQueue::new();
            let mut batch_arena: MsgArena<u64> = MsgArena::new();
            let mut scalar_arena: MsgArena<u64> = MsgArena::new();
            let mut staging: Vec<Staged> = Vec::new();
            for round in 0..12u64 {
                let from = ProcessId(round as usize % n);
                let sent = Time(round * 7);
                let batch_fx = batch_net.route_broadcast(
                    &mut batch_q,
                    &mut batch_arena,
                    from,
                    n,
                    sent,
                    round,
                    &mut staging,
                );
                let mut scalar_fx = RouteEffects::default();
                for i in 0..n {
                    let fx = scalar_net.route_to(
                        &mut scalar_q,
                        &mut scalar_arena,
                        from,
                        once(ProcessId(i)),
                        sent,
                        round,
                        &mut staging,
                    );
                    scalar_fx.dropped += fx.dropped;
                    scalar_fx.duplicated += fx.duplicated;
                    scalar_fx.corrupted += fx.corrupted;
                    scalar_fx.severed += fx.severed;
                }
                assert_eq!(batch_fx, scalar_fx, "case {case} round {round} n {n}");
            }
            assert_eq!(batch_q.len(), scalar_q.len(), "case {case} n {n}");
            while let Some(a) = scalar_q.pop() {
                let b = batch_q.pop().unwrap();
                assert_eq!(
                    (a.at, a.seq, a.to),
                    (b.at, b.seq, b.to),
                    "case {case} n {n}"
                );
                // Slot numbering differs between the layouts (the batch
                // stores a clean broadcast once), so compare the payloads
                // the deliveries materialize, not the raw handles.
                let (
                    EventKind::Deliver { from: fa, slot: sa },
                    EventKind::Deliver { from: fb, slot: sb },
                ) = (a.kind, b.kind)
                else {
                    panic!("case {case} n {n}: non-delivery event");
                };
                assert_eq!(fa, fb, "case {case} n {n}");
                assert_eq!(
                    scalar_arena.take(sa),
                    batch_arena.take(sb),
                    "case {case} n {n}"
                );
            }
            assert!(
                scalar_arena.is_empty() && batch_arena.is_empty(),
                "case {case} n {n}: arena leak"
            );
        }
    }
}

#[test]
fn churn_patterns_are_structurally_sound() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 8);
        let n = 4 + rng.below(9) as usize; // 4..13
        let f = rng.below(n as u64 / 2 + 1) as usize; // 2f <= n
        let crash_by = Time(rng.below(400));
        let rejoin = rng.below(200);
        let fp = FailurePattern::churn(n, f, crash_by, rejoin, &mut rng);
        assert_eq!(fp.num_faulty(), f);
        let joiners = (0..n).map(ProcessId).filter(|&p| fp.joins_late(p)).count();
        // rejoin = 0 with a crash at 0 makes that joiner start at 0.
        assert!(joiners <= f);
        for p in (0..n).map(ProcessId) {
            if fp.joins_late(p) {
                assert!(fp.is_correct(p));
                assert!(!fp.is_alive_at(p, Time::ZERO));
            }
        }
    }
}

/// A popped delivery: `(at, seq, to, payload)`.
type Popped = (Time, u64, ProcessId, u64);

/// Routes `len` random messages through a fresh adversarial network into a
/// queue, returning `(dropped ids, popped delivery sequence)`.
fn route_case<Q: Scheduler + Default>(
    case: u64,
    adv: MessageAdversary,
    len: usize,
) -> (Vec<u64>, Vec<Popped>) {
    let mut net = Network::new(
        DelayModel::Uniform { lo: 1, hi: 12 },
        vec![],
        SplitMix64::new(case).stream(1),
    )
    .with_adversary(adv, SplitMix64::new(case).stream(2));
    let mut q = Q::default();
    let mut arena: MsgArena<u64> = MsgArena::new();
    let mut staging = Vec::new();
    let mut dropped = Vec::new();
    let mut rng = rng_for(case, 9);
    for i in 0..len as u64 {
        let from = ProcessId(rng.below(5) as usize);
        let to = once(ProcessId(rng.below(5) as usize));
        let sent = Time(rng.below(300));
        let fx = net.route_to(&mut q, &mut arena, from, to, sent, i, &mut staging);
        if fx.dropped == 1 {
            dropped.push(i);
        }
    }
    let mut popped = Vec::new();
    while let Some(e) = q.pop() {
        if let EventKind::Deliver { slot, .. } = e.kind {
            popped.push((e.at, e.seq, e.to, arena.take(slot)));
        }
    }
    assert!(arena.is_empty(), "case {case}: arena leak after drain");
    (dropped, popped)
}

#[test]
fn drop_rule_same_seed_same_dropped_set() {
    // Satellite contract: the dropped message set is a pure function of the
    // seed — across repeated runs, on the heap and on the model queue.
    for case in 0..CASES {
        let adv = MessageAdversary::Rules(vec![MessageRule::drop(35)]);
        let (d1, p1) = route_case::<EventQueue>(case, adv.clone(), 150);
        let (d2, p2) = route_case::<EventQueue>(case, adv.clone(), 150);
        assert_eq!(d1, d2, "case {case}: dropped set not deterministic");
        assert_eq!(p1, p2, "case {case}: surviving schedule not deterministic");
        let (d3, _) = route_case::<ModelQueue>(case, adv, 150);
        assert_eq!(d1, d3, "case {case}: dropped set depends on the queue");
        assert_eq!(d1.len() + p1.len(), 150);
    }
    // Across all cases the rule must actually fire somewhere.
    let adv = MessageAdversary::Rules(vec![MessageRule::drop(35)]);
    let (d, _) = route_case::<EventQueue>(3, adv, 150);
    assert!(!d.is_empty());
}

#[test]
fn duplication_never_reorders_pop_order() {
    // Satellite contract: with a duplication adversary in play, the heap
    // and the model queue still pop the identical (at, seq) sequence, and
    // that sequence is ascending.
    for case in 0..CASES {
        let adv = MessageAdversary::Rules(vec![MessageRule::duplicate(40)]);
        let (_, heap) = route_case::<EventQueue>(case, adv.clone(), 120);
        let (_, model) = route_case::<ModelQueue>(case, adv, 120);
        assert_eq!(heap, model, "case {case}: heap left the model under dup");
        let mut prev: Option<(Time, u64)> = None;
        for &(at, seq, _, _) in &heap {
            if let Some(p) = prev {
                assert!((at, seq) > p, "case {case}: pop order regressed");
            }
            prev = Some((at, seq));
        }
    }
    // Duplicates must exist somewhere across the cases.
    let adv = MessageAdversary::Rules(vec![MessageRule::duplicate(40)]);
    let (_, popped) = route_case::<EventQueue>(1, adv, 120);
    assert!(popped.len() > 120, "40% duplication produced no copies");
}

#[test]
fn corruption_stays_within_declared_bound() {
    // Satellite contract: a Corrupt{bound} rule moves a numeric payload by
    // at most `bound`, and u64's Corruptible impl reports honestly.
    for case in 0..CASES {
        let bound = 1 + case % 17;
        let mut rng = rng_for(case, 10);
        for _ in 0..50 {
            let old = rng.below(100_000);
            let mut v = old;
            let changed = v.corrupt(bound, &mut rng);
            assert!(v.abs_diff(old) <= bound, "case {case}: {old} -> {v}");
            assert_eq!(changed, v != old);
        }
        // End to end through the network: payload i moves by ≤ bound.
        let adv = MessageAdversary::Rules(vec![MessageRule::corrupt(60, bound)]);
        let mut net = Network::new(
            DelayModel::Fixed(2),
            vec![],
            SplitMix64::new(case).stream(3),
        )
        .with_adversary(adv, SplitMix64::new(case).stream(4));
        let mut q = EventQueue::new();
        let mut arena: MsgArena<u64> = MsgArena::new();
        let mut staging = Vec::new();
        for i in 0..80u64 {
            let payload = 10_000 + i * 100;
            net.route_to(
                &mut q,
                &mut arena,
                ProcessId(0),
                once(ProcessId(1)),
                Time(i),
                payload,
                &mut staging,
            );
            let e = q.pop().unwrap();
            let EventKind::Deliver { slot, .. } = e.kind else {
                panic!("wrong kind")
            };
            let msg = arena.take(slot);
            assert!(
                msg.abs_diff(payload) <= bound,
                "case {case}: {payload} -> {msg} breaks bound {bound}"
            );
        }
    }
}

/// The delivery time of one unicast `from → to` sent at `at`, through
/// [`Network::route_to`].
fn delivery_at(net: &mut Network, from: ProcessId, to: ProcessId, at: Time) -> Time {
    let (mut q, mut arena) = (EventQueue::new(), MsgArena::<u64>::new());
    net.route_to(&mut q, &mut arena, from, once(to), at, 0, &mut Vec::new());
    q.pop().expect("a clean unicast is delivered").at
}

#[test]
fn network_delivery_always_after_send() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 1);
        let mut net = Network::new(
            DelayModel::Uniform { lo: 0, hi: 20 },
            vec![],
            SplitMix64::new(case),
        );
        let sends = 1 + rng.below(49);
        for _ in 0..sends {
            let from = rng.below(6) as usize;
            let to = rng.below(6) as usize;
            let at = rng.below(5000);
            let d = delivery_at(&mut net, ProcessId(from), ProcessId(to), Time(at));
            assert!(d > Time(at), "delivery not strictly after send");
        }
    }
}

#[test]
fn delay_rule_release_respected() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 2);
        let send_at = rng.below(99);
        let rule = DelayRule::silence_until(PSet::full(4), PSet::full(4), Time(100));
        let mut net = Network::new(DelayModel::Fixed(2), vec![rule], SplitMix64::new(case));
        let d = delivery_at(&mut net, ProcessId(0), ProcessId(1), Time(send_at));
        assert!(d >= Time(100));
        // After the window, delays return to normal.
        let d = delivery_at(&mut net, ProcessId(0), ProcessId(1), Time(150));
        assert_eq!(d, Time(152));
    }
}

#[test]
fn failure_pattern_crash_monotone() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 3);
        let n = 2 + rng.below(8) as usize; // 2..10
        let f = (case as usize) % n;
        let fp = FailurePattern::random(n, f, Time(300), &mut rng);
        // crashed_at is monotone non-decreasing.
        let mut prev = PSet::EMPTY;
        for t in (0..600).step_by(37) {
            let cur = fp.crashed_at(Time(t));
            assert!(prev.is_subset(cur));
            prev = cur;
        }
        // And converges to the faulty set.
        assert_eq!(fp.crashed_at(Time(10_000)), fp.faulty());
    }
}

#[test]
fn splitmix_streams_are_independent_of_order() {
    for case in 0..CASES {
        // Drawing from stream A must not affect stream B.
        let root = SplitMix64::new(case);
        let mut a1 = root.stream(1);
        let mut b1 = root.stream(2);
        let _ = a1.next_u64();
        let x = b1.next_u64();
        let mut b2 = root.stream(2);
        assert_eq!(b2.next_u64(), x);
    }
}

/// `SplitMix64::below` as it was before its fast path: the rejection
/// threshold (one 64-bit division) computed on every call.
fn below_reject_loop(g: &mut SplitMix64, bound: u64) -> u64 {
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let m = (g.next_u64() as u128) * (bound as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

#[test]
fn below_equals_the_reject_loop_in_value_and_stream_position() {
    let mut bounds = vec![1, 2, 3, 1 << 63, u64::MAX];
    for k in 1..64 {
        bounds.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    for case in 0..CASES {
        let mut new = rng_for(case, 11);
        let mut old = new.clone();
        for &bound in &bounds {
            // Bounds just above 2^63 reject every other draw, so the slow
            // path is walked as often as the fast one.
            for _ in 0..8 {
                assert_eq!(new.below(bound), below_reject_loop(&mut old, bound));
                assert_eq!(new, old, "stream positions diverged at bound {bound}");
            }
        }
    }
}

/// `SplitMix64::sample_indices` as it was when it returned a `Vec`.
fn sample_indices_vec(g: &mut SplitMix64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    g.shuffle(&mut idx);
    idx.truncate(k);
    idx
}

#[test]
fn stack_sampler_equals_the_vec_shuffle_in_value_and_stream_position() {
    for n in (1..=130).chain([1024]) {
        for k in (0..=n.min(8)).chain([n]) {
            let mut new = rng_for(n as u64, 12 + k as u64);
            let mut old = new.clone();
            let got = new.sample_indices(n, k, <[u16]>::to_vec);
            let want = sample_indices_vec(&mut old, n, k);
            assert!(got.iter().map(|&i| i as usize).eq(want), "n = {n}, k = {k}");
            assert_eq!(new, old, "stream positions diverged at n = {n}, k = {k}");
        }
    }
}

/// A payload that counts its clones.
#[derive(Debug)]
struct Counted(Arc<AtomicUsize>);

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.0.fetch_add(1, Ordering::Relaxed);
        Counted(Arc::clone(&self.0))
    }
}

impl Corruptible for Counted {}

/// `p0` broadcasts one [`Counted`] at start; nobody else sends anything.
struct OneBroadcast(Arc<AtomicUsize>);

impl Automaton for OneBroadcast {
    type Msg = Counted;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Counted, O>) {
        if ctx.me() == ProcessId(0) {
            ctx.broadcast(Counted(Arc::clone(&self.0)));
        }
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        _msg: Counted,
        _ctx: &mut Ctx<'_, Counted, O>,
    ) {
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, Counted, O>) {}
}

/// Through the whole engine, a broadcast costs one clone per delivery to a
/// live recipient, except that the last delivery to pop moves the payload
/// out of the arena: `n − c − 1` clones with `c` crashed recipients, or
/// `n − c` when that last pop is for a crashed recipient (released, never
/// materialized). Nothing between the arena and `on_message` clones again.
/// The per-seed counts are the ones the engine produced before deliveries
/// were handed over slot-direct.
#[test]
fn broadcast_through_sim_clones_once_per_live_delivery() {
    const N: usize = 9;
    let crashed = [ProcessId(2), ProcessId(5), ProcessId(7)];
    let mut seen = Vec::new();
    for seed in 0..12 {
        let clones = Arc::new(AtomicUsize::new(0));
        let mut fp = FailurePattern::builder(N);
        for &p in &crashed {
            fp = fp.crash(p, Time::ZERO);
        }
        let cfg = SimConfig::new(N, 4).seed(seed).max_time(Time(200));
        let sim = Sim::new(
            cfg,
            fp.build(),
            |_| OneBroadcast(Arc::clone(&clones)),
            NoOracle,
        );
        sim.run_into_trace(|_| false);
        let got = clones.load(Ordering::Relaxed);
        let live = N - crashed.len();
        assert!(
            got == live - 1 || got == live,
            "seed {seed}: {got} clones for {live} live recipients"
        );
        seen.push(got);
    }
    assert_eq!(seen, [5, 6, 6, 5, 5, 6, 6, 5, 5, 6, 6, 5]);
}
