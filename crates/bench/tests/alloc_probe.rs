//! Steady-state allocation probe for the arena-staged broadcast path.
//!
//! After warm-up — once the event queue, the arena slab and free list,
//! and the staging buffer have grown to their steady-state capacities —
//! routing a broadcast at n = 128 and draining all of its deliveries must
//! perform **zero** heap allocations: the payload is staged once, the
//! delivery index is packed `Copy` data, and every buffer is recycled.
//! This pins the tentpole's O(n)-index-writes-not-O(n)-clones claim at
//! the allocator level, where a regression (a stray `clone`, a rebuilt
//! `Vec`, a `HashMap` insert) cannot hide.
//!
//! A second phase pins the event queue's page recycling: with one
//! broadcast per tick and only the *due* deliveries popped, a dozen ticks
//! are pending at any time while the queue's timing wheel turns several
//! full revolutions, and every page a tick drains must be reused by a
//! later tick rather than allocated afresh. A broadcast storm on a fresh
//! queue then pins the pool's size: what it leaves resident is what was
//! pending at the peak plus a partial page per tick, not a buffer per
//! tick as large as the largest burst.
//!
//! A third phase pins the Figure 3 Phase-1 round state in the pre-GST
//! shape, all 128 senders reporting different leader sets: a fresh
//! `Phase1Slab` absorbs such a round on the one allocation `new` made —
//! 16 bytes per sender at every `n`, plus the `⌈n/64⌉`-word sender bitset
//! at its head — and a slab pooled by its `RoundWindow` absorbs further
//! ones on none. The Phase-2 and echo slabs hold nothing on the heap but a
//! sender row of at most `⌈n/64⌉` words: their windows allocate in the
//! first round only, the window's one slot and the row's growth.
//!
//! A fourth phase pins the anarchy-period `Ω_z` read and the delivery
//! that makes it: a pre-GST `OmegaOracle::trusted` samples its leader
//! set on the stack, and a `PHASE1` delivered to a `KsetOmega` whose
//! line 05 quorum already holds — so line 06 runs its set algebra and
//! re-reads the oracle — allocates nothing either.
//!
//! A fifth phase pins the composed automata and the register model: once
//! `TwoWheels`' recycled inner-op buffers and the oracles' memos are
//! warm, a local step, an answered `INQUIRY` and an absorbed `RESPONSE`
//! allocate nothing, and `run_shm` allocates for its set-up and the
//! trace's early growth only — twice the steps, not one allocation more.
//!
//! A sixth phase pins the sweep store's cell codec and the report cache's
//! packed cells: `encode_cell` makes the one allocation of the line it
//! returns, and `decode_cell` the three a `SlimReport` owns (detail,
//! decided values, counters), the two lists at exactly their length. A
//! list past the decoder's on-stack bound still decodes. Opening a store
//! decodes every line into one scratch report and packs it into its shard:
//! one allocation per cell. `SweepStore::hydrate_into` then hands the
//! packed cells to an empty cache without allocating at all: the store's
//! per-shard maps become the cache's shards. A computed cell costs the
//! runner no clone and the cache one allocation, its packed bytes, within
//! a per-cell bound: a cached sweep allocates what an uncached one does
//! plus that one block per cell.
//!
//! The probe binary holds exactly one `#[test]` so no concurrently
//! running test can touch the process-global counter between the
//! snapshots. Counting is compiled in only under `debug_assertions`
//! (see [`CountingAlloc`]); release runs skip the assertions.

use fd_bench::{decode_cell, encode_cell, CountingAlloc, SweepStore};
use fd_core::{
    EchoSlab, KsetMsg, KsetOmega, KsetScenario, Phase1Slab, Phase2Slab, RoundSlab, RoundWindow,
};
use fd_detectors::scenario::{CellMap, ReportCache, Runner, Scenario, SlimReport, CACHE_SHARDS};
use fd_detectors::{OmegaOracle, PhiOracle, Scope, SxOracle};
use fd_sim::{
    run_shm, Automaton, Ctx, DelayModel, EventKind, EventQueue, FailurePattern, MsgArena, Network,
    Op, OracleSuite, PSet, ProcessId, Scheduler, ShmConfig, SplitMix64, Staged, SuspectPlusQuery,
    Time, Trace,
};
use fd_transforms::{AdditionShm, TwMsg, TwParams, TwoWheels, UpperMsg};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const N: usize = 128;

/// The tick span of `EventQueue`'s wheel (a private constant of
/// `fd_sim::event`): one revolution of the ring.
const WHEEL_TICKS: u64 = 64;

/// Nodes per page of `EventQueue`'s pool (likewise private).
const PAGE: usize = 128;

/// Pops every pending event due at or before `now`, consuming the arena
/// payloads the way the engine does; folds them so the work cannot be
/// optimized away.
fn drain_due(q: &mut EventQueue, arena: &mut MsgArena<u64>, now: Time) -> u64 {
    let mut acc = 0u64;
    while q.peek_time().is_some_and(|at| at <= now) {
        let ev = q.pop().expect("peeked");
        if let EventKind::Deliver { slot, .. } = ev.kind {
            acc = acc.wrapping_add(arena.take(slot));
        }
    }
    acc
}

/// Pops every pending event.
fn drain(q: &mut EventQueue, arena: &mut MsgArena<u64>) -> u64 {
    drain_due(q, arena, Time::INFINITY)
}

/// Drives a `RoundWindow<S>` through eight rounds in which every one of
/// `n` senders is heard, in ascending order, each round retired before the
/// next. Returns the allocations of round 1, the bytes its last allocating
/// insert asked for (the sender row's final size: senders arrive in
/// ascending order, so the row grows one word at a time) and the
/// allocations of rounds 2–8.
fn sender_rows<S: RoundSlab + Default>(
    n: usize,
    insert: impl Fn(&mut S, ProcessId),
    count: impl Fn(&S) -> usize,
) -> (u64, u64, u64) {
    let mut window: RoundWindow<S> = RoundWindow::new();
    let (mut first, mut row_bytes) = (0, 0);
    let before = ALLOC.allocations();
    for r in 1..=8 {
        if r == 2 {
            first = ALLOC.allocations() - before;
        }
        let slab = window.entry(r, S::default);
        for from in 0..n {
            let (allocs, bytes) = (ALLOC.allocations(), ALLOC.bytes());
            insert(slab, ProcessId(from));
            if ALLOC.allocations() > allocs {
                row_bytes = ALLOC.bytes() - bytes;
            }
        }
        assert_eq!(count(slab), n, "round {r}");
        window.retire_below(r + 1);
    }
    let later = ALLOC.allocations() - before - first;
    (first, row_bytes, later)
}

type WheelOracles = SuspectPlusQuery<SxOracle, PhiOracle>;

/// One cycle of p_1 of a 5-process two-wheels instance, driven the way
/// `Sim` drives it — one `Ctx` per activation over the recycled top-level
/// buffer `buf`: a local step (which broadcasts a fresh INQUIRY), an
/// INQUIRY from p_2 (answered with a RESPONSE) and p_2's RESPONSE to the
/// outstanding inquiry (which ends the wait). Returns the ops emitted.
fn wheels_cycle(
    wheels: &mut TwoWheels,
    oracle: &mut WheelOracles,
    trace: &mut Trace,
    buf: &mut Vec<Op<TwMsg>>,
    now: u64,
) -> usize {
    let mut sent = 0;
    // `None` is a local step, `Some(m)` a delivery of `m` from p_2.
    let mut activate = |msg: Option<UpperMsg>| {
        let ops = std::mem::take(buf);
        let mut ctx = Ctx::with_buffer(ProcessId(0), 5, 2, Time(now), oracle, trace, ops);
        match msg {
            None => wheels.on_step(&mut ctx),
            Some(m) => wheels.on_message(ProcessId(1), TwMsg::Upper(m), &mut ctx),
        }
        *buf = ctx.take_ops();
        let seq = buf.iter().find_map(|op| match op {
            Op::Broadcast {
                msg: TwMsg::Upper(UpperMsg::Inquiry { seq }),
            } => Some(*seq),
            _ => None,
        });
        sent += buf.len();
        buf.clear();
        seq
    };
    let seq = activate(None).expect("a step with no wait inquires");
    activate(Some(UpperMsg::Inquiry { seq: now }));
    let repr = ProcessId(1);
    activate(Some(UpperMsg::Response { seq, repr }));
    sent
}

#[test]
fn routed_broadcast_is_allocation_free_after_warmup() {
    if !ALLOC.enabled() {
        eprintln!("skipping: allocation counting is debug-only");
        return;
    }
    let mut q = EventQueue::new();
    let mut net = Network::new(
        DelayModel::Uniform { lo: 1, hi: 12 },
        vec![],
        SplitMix64::new(7).stream(0xDE1A),
    );
    let mut arena: MsgArena<u64> = MsgArena::new();
    let mut staging: Vec<Staged> = Vec::new();
    let mut acc = 0u64;
    let mut clock = 0u64;
    // Warm-up at 4× the measured load, so every recycled capacity — queue
    // buckets, arena slab and free list, staging — strictly dominates what
    // a single steady-state broadcast needs.
    for _ in 0..320 {
        for burst in 0..4 {
            let from = ProcessId(((clock + burst) % N as u64) as usize);
            net.route_broadcast(
                &mut q,
                &mut arena,
                from,
                N,
                Time(clock),
                clock ^ burst,
                &mut staging,
            );
        }
        acc = acc.wrapping_add(drain(&mut q, &mut arena));
        clock += 1;
    }
    assert!(arena.is_empty(), "warm-up left live payloads");
    let before = ALLOC.allocations();
    for _ in 0..256 {
        let from = ProcessId((clock % N as u64) as usize);
        net.route_broadcast(
            &mut q,
            &mut arena,
            from,
            N,
            Time(clock),
            clock,
            &mut staging,
        );
        acc = acc.wrapping_add(drain(&mut q, &mut arena));
        clock += 1;
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "{} heap allocations across 256 warmed-up broadcasts at n = {N} \
         (the routed-broadcast steady state must be allocation-free)",
        after - before,
    );
    assert!(arena.is_empty(), "probe left live payloads");

    // Overlapped regime: one broadcast per tick, only the due deliveries
    // popped, so ~12 ticks stay pending while the wheel turns. Two
    // revolutions warm the recycled buckets up to this load; the next
    // three must not allocate.
    let mut tick = |clock: &mut u64| {
        let from = ProcessId((*clock % N as u64) as usize);
        let now = Time(*clock);
        net.route_broadcast(&mut q, &mut arena, from, N, now, *clock, &mut staging);
        *clock += 1;
        drain_due(&mut q, &mut arena, now)
    };
    for _ in 0..2 * WHEEL_TICKS {
        acc = acc.wrapping_add(tick(&mut clock));
    }
    let before = ALLOC.allocations();
    for _ in 0..3 * WHEEL_TICKS {
        acc = acc.wrapping_add(tick(&mut clock));
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "{} heap allocations across three wheel revolutions of overlapped \
         broadcasts (drained pages must be recycled, not reallocated)",
        after - before,
    );
    acc = acc.wrapping_add(drain(&mut q, &mut arena));
    assert!(arena.is_empty(), "overlapped phase left live payloads");

    // A storm on a fresh queue: 16 broadcasts a tick, the due deliveries
    // popped, so ~13k nodes are pending over a dozen ticks. The pool a
    // drained queue keeps is bounded by that peak — its pages, one partial
    // page per tick of the ring at most, the growth step's eighth — where
    // per-tick buffers would each have kept their largest burst.
    let mut storm = EventQueue::new();
    let mut peak = 0;
    for now in 0..24u64 {
        for burst in 0..16 {
            let from = ProcessId(((now + burst) % N as u64) as usize);
            net.route_broadcast(
                &mut storm,
                &mut arena,
                from,
                N,
                Time(now),
                now ^ burst,
                &mut staging,
            );
        }
        peak = peak.max(storm.len());
        acc = acc.wrapping_add(drain_due(&mut storm, &mut arena, Time(now)));
    }
    acc = acc.wrapping_add(drain(&mut storm, &mut arena));
    assert!(peak > 10_000, "the storm peaked at {peak} pending events");
    let bound = peak.div_ceil(PAGE) + WHEEL_TICKS as usize;
    assert!(
        storm.node_capacity() <= bound * PAGE,
        "a drained storm left {} nodes of pool for a peak of {peak} pending ({bound} pages allowed)",
        storm.node_capacity(),
    );

    // Phase-1 round state: one allocation per slab, none per round — even
    // when no two senders agree on a leader set.
    let distinct = |from: usize, r: u32| {
        PSet::from_iter([ProcessId(from), ProcessId((from + r as usize) % N)])
    };
    let before = ALLOC.allocations();
    let mut fresh = Phase1Slab::new(N);
    for from in 0..N {
        fresh.insert(ProcessId(from), distinct(from, 1), 0);
    }
    assert_eq!(
        ALLOC.allocations() - before,
        1,
        "a Phase1Slab at n = {N} must be a single allocation, however many \
         distinct leader sets its first round brings"
    );
    acc = acc.wrapping_add(fresh.count() as u64);
    drop(fresh);
    // Two words per sender — an estimate and a packed ≤ 4-member leader
    // set — whatever ⌈n/64⌉ is, after the ⌈n/64⌉ words of sender bitset.
    for n in [9, 128, 1024] {
        let (allocs, bytes) = (ALLOC.allocations(), ALLOC.bytes());
        let slab = Phase1Slab::new(n);
        assert_eq!(
            (ALLOC.allocations() - allocs, ALLOC.bytes() - bytes),
            (1, 16 * n as u64 + 8 * n.div_ceil(64) as u64),
            "Phase1Slab::new({n}) must be one allocation of 16·n + 8·⌈n/64⌉ bytes"
        );
        acc = acc.wrapping_add(slab.count() as u64);
    }
    // Phase-2 and echo round state, eight rounds of every sender.
    for n in [9, 128, 1024] {
        let phase2 = sender_rows(
            n,
            |s: &mut Phase2Slab, p| s.insert(p, None),
            Phase2Slab::count,
        );
        let echo = sender_rows(
            n,
            |s: &mut EchoSlab, p| s.insert(p, Some(1)),
            EchoSlab::count,
        );
        let words = n.div_ceil(64) as u64;
        for (what, rows) in [("Phase2Slab", phase2), ("EchoSlab", echo)] {
            assert_eq!(
                rows,
                (1 + words, 8 * words, 0),
                "RoundWindow<{what}> at n = {n}: (round-1 allocations, the row's \
                 last size in bytes, allocations in rounds 2–8)"
            );
        }
    }
    let mut window: RoundWindow<Phase1Slab> = RoundWindow::new();
    let round = |window: &mut RoundWindow<Phase1Slab>, r: u32| {
        for from in 0..N {
            window.entry(r, || Phase1Slab::new(N)).insert(
                ProcessId(from),
                distinct(from, r),
                r as u64,
            );
        }
        let slab = window.get(r).expect("entry made above");
        let aux = slab.majority(N).and_then(|l| slab.min_member_est(l));
        window.retire_below(r + 1);
        aux.unwrap_or(1)
    };
    acc = acc.wrapping_add(round(&mut window, 1));
    let before = ALLOC.allocations();
    for r in 2..8 {
        acc = acc.wrapping_add(round(&mut window, r));
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "{} heap allocations across six rounds of {N} all-distinct leader \
         sets in a pooled Phase1Slab",
        after - before,
    );

    // Anarchy-period oracle reads: `gst` is never reached, so every read
    // draws a fresh ≤ z-member leader set.
    let (t, z) = (63, 2);
    let mut oracle = OmegaOracle::new(FailurePattern::all_correct(N), z, Time::INFINITY, 7);
    let before = ALLOC.allocations();
    for now in 0..64 {
        acc = acc.wrapping_add(oracle.trusted(ProcessId(now % N), Time(now as u64)).len() as u64);
    }
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "a pre-GST Ω_z read must sample its leader set without allocating"
    );

    // Steady-state PHASE1 deliveries to one process stuck in round 1: it
    // never hears a member of its L_i and, within one noise window, the
    // oracle keeps answering L_i, so past the quorum every delivery runs
    // the whole line 05 → line 06 → oracle-read path and returns.
    let (me, now) = (ProcessId(0), Time(3));
    let li = oracle.trusted(me, now);
    let mut trace = Trace::new();
    let mut proc = KsetOmega::new(100);
    let mut ctx = Ctx::with_buffer(me, N, t, now, &mut oracle, &mut trace, Vec::new());
    proc.on_start(&mut ctx);
    let mut deliver = |from: usize| {
        let msg = KsetMsg::Phase1 {
            r: 1,
            leaders: distinct(from, 1),
            est: from as u64,
        };
        proc.on_message(ProcessId(from), msg, &mut ctx);
    };
    let senders: Vec<usize> = (0..N).filter(|&i| !li.contains(ProcessId(i))).collect();
    deliver(senders[0]);
    let before = ALLOC.allocations();
    for &from in &senders[1..] {
        deliver(from);
    }
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "PHASE1 deliveries below and past the n − t quorum must not allocate"
    );
    assert_eq!(proc.round(), 1, "the probed process must still be waiting");
    assert!(senders.len() > N - t, "the quorum was never reached");

    // Composed automata: see `wheels_cycle`.
    let (n, t) = (5, 2);
    let fp = FailurePattern::all_correct(n);
    let mut oracle = SuspectPlusQuery {
        suspect: SxOracle::new(fp.clone(), t, 2, Scope::Perpetual, 7),
        query: PhiOracle::new(fp.clone(), t, 1, Scope::Perpetual, 7),
    };
    let mut trace = Trace::new();
    let mut wheels = TwoWheels::new(ProcessId(0), TwParams::optimal(n, t, 2, 1));
    let mut buf: Vec<Op<TwMsg>> = Vec::new();
    for now in 0..8 {
        wheels_cycle(&mut wheels, &mut oracle, &mut trace, &mut buf, now);
    }
    let before = ALLOC.allocations();
    let mut sent = 0;
    for now in 8..72 {
        sent += wheels_cycle(&mut wheels, &mut oracle, &mut trace, &mut buf, now);
    }
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "warmed-up TwoWheels steps, INQUIRY answers and RESPONSE deliveries must not allocate"
    );
    assert!(
        sent >= 2 * 64,
        "every cycle must emit its INQUIRY and its RESPONSE"
    );

    // Register model: whatever `run_shm` allocates (processes, memory,
    // trace, its schedule buffer) it allocates early; the second 10k
    // steps of the same run add nothing.
    let mut shm_allocs = |max_steps: u64| {
        let cfg = ShmConfig {
            max_steps,
            ..ShmConfig::new(n, t).seed(7)
        };
        let before = ALLOC.allocations();
        let trace = run_shm(&cfg, &fp, |_| AdditionShm::new(n), &mut oracle);
        acc = acc.wrapping_add(trace.horizon().0);
        ALLOC.allocations() - before
    };
    let (short, long) = (shm_allocs(10_000), shm_allocs(20_000));
    assert!(
        long <= short,
        "run_shm allocated {long} times over 20k steps but {short} over 10k"
    );

    // Cell codec: a real k-set cell (non-empty detail, one decided value,
    // the four `sim.*` counters) encodes into the one `String` it returns
    // and decodes into the three heap parts a `SlimReport` owns — no
    // tree, no token strings, no second look-up of an interned name.
    let spec = KsetScenario::spec(5, 2, 1).gst(Time(400)).seed(3);
    let slim = Runner::sequential().run(&KsetScenario, &spec).slim();
    assert!(!slim.check.detail.is_empty());
    assert_eq!(slim.metrics.decided_values.len(), 1);
    assert_eq!(slim.counters.len(), 4);
    let line = encode_cell(7, 3, &slim);
    assert_eq!(decode_cell(&line), Ok(((7, 3), slim.clone())));
    let before = ALLOC.allocations();
    let again = encode_cell(7, 3, &slim);
    assert_eq!(
        ALLOC.allocations() - before,
        1,
        "encode_cell must allocate its line and nothing else"
    );
    let before = ALLOC.allocations();
    let decoded = decode_cell(&again);
    let decode_allocs = ALLOC.allocations() - before;
    assert!(
        decode_allocs <= 3,
        "decode_cell allocated {decode_allocs} times; detail, decided and counters make 3"
    );
    let (key, decoded) = decoded.expect("the cell decodes");
    let (decided, counters) = (&decoded.metrics.decided_values, &decoded.counters);
    assert_eq!(
        (decided.capacity(), counters.capacity()),
        (decided.len(), counters.len()),
        "decoded lists must be exactly sized: they are what a resume keeps"
    );
    acc = acc.wrapping_add(key.0);
    // Past the decoder's on-stack bound of 16, a list grows as a `Vec`.
    let mut wide = slim.clone();
    wide.counters = (0..20u64)
        .map(|v| (slim.counters[v as usize % 4].0, v))
        .collect();
    assert_eq!(
        decode_cell(&encode_cell(7, 3, &wide)),
        Ok(((7, 3), wide)),
        "a 20-counter cell must decode"
    );

    // Open: a run directory's cells decode into one scratch report and
    // pack straight into their shards, so each cell costs the open one
    // allocation, its packed bytes — measured as the difference between
    // two directories alike but for 40 more cells (the same segments, one
    // per shard, and the same manifest).
    let dir = |cells: u64| {
        let dir =
            std::env::temp_dir().join(format!("fd-alloc-probe-{cells}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SweepStore::open(&dir).expect("open run dir");
        let spill = store.spill();
        for seed in 0..cells {
            spill(7, seed, &slim);
        }
        drop(spill);
        store.close().expect("close run dir");
        let segments = std::fs::read_dir(dir.join("shards"))
            .expect("list shards")
            .count();
        (dir, segments)
    };
    let ((small, small_segments), (large, large_segments)) = (dir(40), dir(80));
    assert_eq!(small_segments, CACHE_SHARDS);
    assert_eq!(large_segments, CACHE_SHARDS);
    // A store nothing is spilled to starts no writer thread, so nothing
    // allocates behind the count's back.
    let open_allocs = |dir: &std::path::Path| {
        let before = ALLOC.allocations();
        let store = SweepStore::open(dir).expect("reopen run dir");
        (ALLOC.allocations() - before, store)
    };
    let (_, warm) = open_allocs(&small);
    warm.close().expect("close run dir");
    let (small_allocs, store) = open_allocs(&small);
    assert_eq!(store.loaded(), 40);
    store.close().expect("close run dir");
    let (large_allocs, store) = open_allocs(&large);
    assert_eq!(
        large_allocs - small_allocs,
        40,
        "opening a store must allocate one block per cell for its cells"
    );

    // Hydrate: the reopened run directory's cells move into an empty cache.
    let cache = ReportCache::new();
    let before = ALLOC.allocations();
    let admitted = store.hydrate_into(&cache);
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "hydrate_into must move the packed cells, not copy them"
    );
    assert_eq!((admitted, store.loaded(), cache.entries()), (80, 80, 80));
    store.close().expect("close run dir");
    for dir in [small, large] {
        std::fs::remove_dir_all(&dir).expect("remove run dir");
    }

    // Insert: with its shard maps sized up front, every shard's name table
    // warmed by one cell of the same scenario, and a spill hook that only
    // counts, a cached sweep of 16 computed cells allocates what the
    // uncached sweep does, plus the salt (once per sweep, measured on an
    // empty range), plus one block per cell: its packed bytes. The runner
    // clones nothing — the cache packs from a borrow — and the blocks stay
    // within a per-cell bound set from the measured size: these 16 cells
    // pack into 1,578 bytes, 98.6 a cell.
    let spec = KsetScenario::spec(5, 2, 1).gst(Time(400));
    let salt = ReportCache::salt(&KsetScenario.cache_tag(), &spec);
    let spilled = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&spilled);
    let cache = ReportCache::new();
    cache.hydrate((0..CACHE_SHARDS).map(|_| {
        let mut shard = CellMap::new();
        shard.reserve(16);
        shard
    }));
    cache.set_spill(Some(Arc::new(move |_, _, _: &SlimReport| {
        counter.fetch_add(1, Ordering::Relaxed);
    })));
    for shard in 0..CACHE_SHARDS {
        let seed = (1_000..)
            .find(|&seed| ReportCache::shard_of((salt, seed)) == shard)
            .expect("every shard has seeds");
        Runner::sequential()
            .with_cache(&cache)
            .sweep_summary(&KsetScenario, &spec, seed..seed + 1);
    }
    assert_eq!(cache.entries(), CACHE_SHARDS);
    let sweep_cost = |runner: Runner, seeds: std::ops::Range<u64>| {
        let (allocs, bytes) = (ALLOC.allocations(), ALLOC.bytes());
        std::hint::black_box(runner.sweep_summary(&KsetScenario, &spec, seeds));
        (ALLOC.allocations() - allocs, ALLOC.bytes() - bytes)
    };
    let extra = |seeds: std::ops::Range<u64>| {
        let plain = sweep_cost(Runner::sequential(), seeds.clone());
        let cached = sweep_cost(Runner::sequential().with_cache(&cache), seeds);
        (cached.0 - plain.0, cached.1 - plain.1)
    };
    let salted = extra(0..0);
    let (allocs, bytes) = extra(0..16);
    assert_eq!(
        allocs - salted.0,
        16,
        "a computed cell must cost the cache one allocation, its packed bytes, \
         and the runner no clone"
    );
    const PACKED_BYTES_PER_CELL: u64 = 104;
    let packed = bytes - salted.1;
    assert!(
        packed <= 16 * PACKED_BYTES_PER_CELL,
        "16 computed cells packed into {packed} bytes, over {PACKED_BYTES_PER_CELL} per cell"
    );
    assert_eq!(spilled.load(Ordering::Relaxed), 2 * CACHE_SHARDS as u64);
    assert_eq!(
        (cache.entries(), cache.capped_inserts()),
        (CACHE_SHARDS + 16, 0)
    );
    std::hint::black_box(acc);
}
