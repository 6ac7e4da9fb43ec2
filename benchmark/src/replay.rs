//! Replays: each inner layer's public API driven on its own, in the
//! workload's shape.
//!
//! A span cannot be put around something that runs 10⁷ times inside
//! `Sim::run_into_trace`, so the per-event layers are measured by replay:
//! the benchmark calls the layer's public functions in a loop shaped like
//! the workload (its `n`, its delay model, its message type, its adversary
//! rules) and reports nanoseconds per operation. Multiplied by the run's
//! deterministic operation counts, a replay predicts the layer's share of
//! the event loop; what the replays together do not explain is reported as
//! `sim.runtime.loop.unattributed_share`, stated rather than hidden.
//!
//! Every figure is the fastest of [`SAMPLES`] timing samples of about
//! [`OPS_PER_SAMPLE`] operations each (the timed run's reasoning: the host
//! only ever slows a sample down). At `n ≤ 9`
//! a fill-and-drain cycle is under a hundred operations, so the two clock
//! reads around it are a few percent of what the queue, network and arena
//! replays report there.

use crate::timed::fastest as fast;
use crate::workloads::{Cell, Kind};
use fd_bench::json;
use fd_bench::{decode_cell, encode_cell, SweepStore};
use fd_core::kset_omega::{KsetMsg, KsetOmega};
use fd_core::{Phase1Slab, Phase2Slab, RoundWindow};
use fd_detectors::scenario::{
    salt, Flavour, ReportCache, Runner, Scenario, ScenarioReport, ScenarioSpec, SlimReport,
};
use fd_detectors::CheckOutcome;
use fd_sim::{
    counter, slot, Automaton, Ctx, DelayModel, Event, EventKind, EventQueue, FailurePattern,
    FdValue, MessageAdversary, MessageRule, MsgArena, MsgSlot, Network, OracleSuite, PSet,
    ProcessId, Scheduler, SplitMix64, Staged, Time, Trace,
};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Timing samples per replay.
pub const SAMPLES: usize = 7;
/// Operations per timing sample (rounded to whole cycles).
pub const OPS_PER_SAMPLE: usize = 150_000;

/// Times `body` (which returns how many operations it performed)
/// [`SAMPLES`] times and returns the fastest nanoseconds per operation.
fn ns_per_op(mut body: impl FnMut() -> usize) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let ops = body();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    fast(&samples)
}

/// The shape a workload's messages travel in.
#[derive(Debug, Clone)]
pub struct Shape {
    /// System size.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Leader-set size of the `PHASE1` payload.
    pub z: usize,
    /// Delay model of the representative cell.
    pub delay: DelayModel,
    /// The adversary of the workload's heaviest armed cell, or the
    /// reference rule set where the workload has none.
    pub adversary: MessageAdversary,
    /// Send times stay below this, so windowed rules stay in scope.
    pub horizon: u64,
}

impl Shape {
    /// The shape of `cell`, armed with `armed`'s adversary if the batch
    /// has an armed cell.
    pub fn of(cell: &Cell, armed: Option<&Cell>) -> Shape {
        Shape {
            n: cell.spec.n,
            t: cell.spec.t,
            z: cell.spec.z.max(1),
            delay: cell.spec.delay.clone(),
            adversary: match armed {
                Some(c) => c.spec.adversary.clone(),
                None => {
                    MessageAdversary::Rules(vec![MessageRule::drop(10), MessageRule::duplicate(10)])
                }
            },
            horizon: armed.map_or(cell.spec.max_time.ticks(), |c| c.spec.max_time.ticks()),
        }
    }

    fn phase1(&self) -> KsetMsg {
        KsetMsg::Phase1 {
            r: 1,
            leaders: PSet::full(self.z),
            est: 100,
        }
    }

    fn network(&self, armed: bool) -> Network {
        let root = SplitMix64::new(0x5EED);
        let net = Network::new(self.delay.clone(), Vec::new(), root.stream(0xDE1A));
        if armed {
            net.with_adversary(self.adversary.clone(), root.stream(0xADE5))
        } else {
            net
        }
    }
}

/// A scheduler that schedules nothing: it only remembers which arena
/// slots were staged, so routing can be timed apart from pushing.
#[derive(Debug, Default)]
struct Sink {
    staged: Vec<MsgSlot>,
}

impl Scheduler for Sink {
    fn push(&mut self, _at: Time, _to: ProcessId, kind: EventKind) {
        if let EventKind::Deliver { slot, .. } | EventKind::RbDeliver { slot, .. } = kind {
            self.staged.push(slot);
        }
    }
    fn push_batch(&mut self, batch: &[Staged]) {
        for s in batch {
            self.push(s.at, s.to, s.kind);
        }
    }
    fn pop(&mut self) -> Option<Event> {
        None
    }
    fn peek_time(&self) -> Option<Time> {
        None
    }
    fn len(&self) -> usize {
        self.staged.len()
    }
}

/// What the clean-path queue / network / arena replay measured.
#[derive(Debug, Clone, Copy)]
pub struct QueueReplay {
    /// `Network::route_broadcast` into the [`Sink`], per message.
    pub route_ns: f64,
    /// The same into an `EventQueue`, minus `route_ns`, per message.
    pub push_ns: f64,
    /// `EventQueue::pop`, per event.
    pub pop_ns: f64,
    /// `MsgArena::take`, per delivery.
    pub take_ns: f64,
    /// Deepest the queue got.
    pub depth_max: usize,
}

/// `n` senders broadcast into an `EventQueue` + `MsgArena`; then the `n²`
/// deliveries are popped, then taken. One such cycle is one round's worth
/// of traffic, and the queue depth it reaches (`n²`) is the depth the
/// workload's runs reach.
pub fn queue(shape: &Shape) -> QueueReplay {
    let n = shape.n;
    let per_cycle = n * n;
    let cycles = (OPS_PER_SAMPLE / per_cycle).max(1);
    let mut net = shape.network(false);
    let mut arena: MsgArena<KsetMsg> = MsgArena::with_capacity(n);
    let mut staging: Vec<Staged> = Vec::with_capacity(n + 1);
    let mut sink = Sink {
        staged: Vec::with_capacity(per_cycle),
    };
    let mut heap = EventQueue::new();
    let mut popped: Vec<MsgSlot> = Vec::with_capacity(per_cycle);
    let mut msgs: Vec<KsetMsg> = Vec::with_capacity(n);
    let msg = shape.phase1();
    let mut depth_max = 0;
    let mut now = Time::ZERO;
    let (mut route, mut pushed, mut pop, mut take) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SAMPLES {
        let mut ns = [0u128; 4];
        for _ in 0..cycles {
            now = Time((now.ticks() + 7) % shape.horizon.max(8));
            msgs.extend(std::iter::repeat_n(msg.clone(), n));
            let t0 = Instant::now();
            for (from, m) in msgs.drain(..).enumerate() {
                net.route_broadcast(
                    &mut sink,
                    &mut arena,
                    ProcessId(from),
                    n,
                    now,
                    m,
                    &mut staging,
                );
            }
            ns[0] += t0.elapsed().as_nanos();
            for slot in sink.staged.drain(..) {
                arena.release(slot);
            }

            msgs.extend(std::iter::repeat_n(msg.clone(), n));
            let t0 = Instant::now();
            for (from, m) in msgs.drain(..).enumerate() {
                net.route_broadcast(
                    &mut heap,
                    &mut arena,
                    ProcessId(from),
                    n,
                    now,
                    m,
                    &mut staging,
                );
            }
            ns[1] += t0.elapsed().as_nanos();
            depth_max = depth_max.max(heap.len());

            let t0 = Instant::now();
            while let Some(ev) = heap.pop() {
                if let EventKind::Deliver { slot, .. } = ev.kind {
                    popped.push(slot);
                }
            }
            ns[2] += t0.elapsed().as_nanos();

            let t0 = Instant::now();
            for slot in popped.drain(..) {
                black_box(arena.take(slot));
            }
            ns[3] += t0.elapsed().as_nanos();
        }
        let ops = (cycles * per_cycle) as f64;
        route.push(ns[0] as f64 / ops);
        pushed.push(ns[1] as f64 / ops);
        pop.push(ns[2] as f64 / ops);
        take.push(ns[3] as f64 / ops);
    }
    QueueReplay {
        route_ns: fast(&route),
        push_ns: fast(&pushed) - fast(&route),
        pop_ns: fast(&pop),
        take_ns: fast(&take),
        depth_max,
    }
}

/// What the armed-path network replay measured.
#[derive(Debug, Clone, Copy)]
pub struct ArmedReplay {
    /// `Network::route_broadcast` under the shape's adversary, per message.
    pub ns_per_msg: f64,
    /// Deliveries staged per message routed (drops lower it, duplicates
    /// raise it).
    pub delivered_ratio: f64,
}

/// The same broadcasts through a network with the adversary installed:
/// the per-recipient path (one adversary draw per in-scope rule per
/// message, one arena slot per copy) instead of the bulk fast path.
pub fn armed(shape: &Shape) -> ArmedReplay {
    let n = shape.n;
    let cycles = (OPS_PER_SAMPLE / (n * n)).max(1);
    let mut net = shape.network(true);
    let mut arena: MsgArena<KsetMsg> = MsgArena::with_capacity(n * n);
    let mut staging: Vec<Staged> = Vec::with_capacity(2 * n);
    let mut sink = Sink {
        staged: Vec::with_capacity(2 * n * n),
    };
    let mut msgs: Vec<KsetMsg> = Vec::with_capacity(n);
    let msg = shape.phase1();
    let mut now = Time::ZERO;
    let (mut routed, mut staged) = (0u64, 0u64);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let mut ns = 0u128;
        for _ in 0..cycles {
            now = Time((now.ticks() + 7) % shape.horizon.max(8));
            msgs.extend(std::iter::repeat_n(msg.clone(), n));
            let t0 = Instant::now();
            for (from, m) in msgs.drain(..).enumerate() {
                net.route_broadcast(
                    &mut sink,
                    &mut arena,
                    ProcessId(from),
                    n,
                    now,
                    m,
                    &mut staging,
                );
            }
            ns += t0.elapsed().as_nanos();
            routed += (n * n) as u64;
            staged += sink.staged.len() as u64;
            for slot in sink.staged.drain(..) {
                arena.release(slot);
            }
        }
        samples.push(ns as f64 / (cycles * n * n) as f64);
    }
    ArmedReplay {
        ns_per_msg: fast(&samples),
        delivered_ratio: staged as f64 / routed as f64,
    }
}

/// What the trace replay measured.
#[derive(Debug, Clone, Copy)]
pub struct TraceReplay {
    /// `Trace::bump` of the engine's per-event counters.
    pub bump_ns: f64,
    /// `tr.deciders().is_superset(correct)` with half the processes
    /// decided.
    pub deciders_ns: f64,
    /// `Trace::publish` into known slots, one value change in sixteen.
    pub publish_ns: f64,
}

/// `Trace::bump`, the stop predicate's `deciders()`, and `Trace::publish`.
///
/// `bump` is string-keyed and ROADMAP item 4 wants it gone; it is called
/// here, and only here, because it runs once or twice per event today and
/// a measurement spine that cannot see it would miss a named suspect.
pub fn trace(shape: &Shape) -> TraceReplay {
    let n = shape.n;
    let mut tr = Trace::new();
    // Counter order as a run creates it: the bootstrap broadcast bumps
    // SENT before the first event is popped.
    for name in [counter::SENT, counter::EVENTS, counter::DELIVERED] {
        tr.bump(name, 1);
    }
    let bump_ns = ns_per_op(|| {
        for _ in 0..OPS_PER_SAMPLE / 2 {
            let tr = black_box(&mut tr);
            tr.bump(counter::EVENTS, 1);
            tr.bump(counter::DELIVERED, 1);
        }
        OPS_PER_SAMPLE / 2 * 2
    });
    for p in 0..n.div_ceil(2) {
        tr.decide(Time(p as u64), ProcessId(p), 100);
    }
    let correct = PSet::full(n);
    let deciders_ns = ns_per_op(|| {
        for _ in 0..OPS_PER_SAMPLE {
            black_box(black_box(&tr).deciders().is_superset(correct));
        }
        OPS_PER_SAMPLE
    });
    let publish_ns = ns_per_op(|| {
        let mut tr = Trace::new();
        for i in 0..OPS_PER_SAMPLE {
            let which = if i % 2 == 0 {
                slot::TRUSTED
            } else {
                slot::ROUND
            };
            let value = FdValue::Num((i / (32 * n)) as u64);
            tr.publish(ProcessId(i / 2 % n), which, Time(i as u64), value);
        }
        black_box(&tr);
        OPS_PER_SAMPLE
    });
    TraceReplay {
        bump_ns,
        deciders_ns,
        publish_ns,
    }
}

/// What the round-slab replay measured.
#[derive(Debug, Clone, Copy)]
pub struct RoundsReplay {
    /// `Phase1Slab::insert` + the line 05/06 guard reads, per message.
    pub phase1_ns: f64,
    /// `Phase2Slab::insert` + the line 11 guard read, per message.
    pub phase2_ns: f64,
    /// `Phase1Slab::new(n)` (and its drop).
    pub slab_new_ns: f64,
}

/// The `fd_core::rounds` slabs as `KsetOmega` drives them: `n` inserts per
/// round with the guards re-read after each, the round's value choice, and
/// the slab recycled through its `RoundWindow`.
pub fn rounds(shape: &Shape) -> RoundsReplay {
    let n = shape.n;
    let leaders = PSet::full(shape.z);
    let rounds = (OPS_PER_SAMPLE / n).max(1) as u32;
    let mut w1: RoundWindow<Phase1Slab> = RoundWindow::new();
    let mut next = 1u32;
    let phase1_ns = ns_per_op(|| {
        for r in next..next + rounds {
            for from in 0..n {
                let slab = w1.entry(r, || Phase1Slab::new(n));
                slab.insert(ProcessId(from), leaders, 100 + from as u64);
                black_box((slab.count(), slab.heard_from(leaders)));
            }
            let slab = w1.get(r).expect("entry made above");
            black_box(slab.majority(n).and_then(|l| slab.min_member_est(l)));
            w1.retire_below(r + 1);
        }
        next += rounds;
        rounds as usize * n
    });
    let mut w2: RoundWindow<Phase2Slab> = RoundWindow::new();
    let mut next = 1u32;
    let phase2_ns = ns_per_op(|| {
        for r in next..next + rounds {
            for from in 0..n {
                let slab = w2.entry(r, Phase2Slab::default);
                slab.insert(ProcessId(from), (from != 0).then_some(100));
                black_box(slab.count());
            }
            let slab = w2.get(r).expect("entry made above");
            black_box((slab.min_val(), slab.all_non_bot()));
            w2.retire_below(r + 1);
        }
        next += rounds;
        rounds as usize * n
    });
    let slab_new_ns = ns_per_op(|| {
        for _ in 0..20_000 {
            black_box(Phase1Slab::new(black_box(n)));
        }
        20_000
    });
    RoundsReplay {
        phase1_ns,
        phase2_ns,
        slab_new_ns,
    }
}

/// `KsetOmega::on_message` through a public `Ctx::with_buffer`, per
/// message: one process fed `n` `PHASE1` then `n` `PHASE2` messages a
/// round (one `⊥` among them, so it never decides and starts the next
/// round), its operation buffer recycled as the runtime recycles it.
pub fn on_message(shape: &Shape) -> f64 {
    struct Leaders(PSet);
    impl OracleSuite for Leaders {
        fn trusted(&mut self, _p: ProcessId, _now: Time) -> PSet {
            self.0
        }
    }
    let (n, t) = (shape.n, shape.t);
    let leaders = PSet::full(shape.z);
    let rounds = (OPS_PER_SAMPLE / (2 * n)).max(1) as u32;
    ns_per_op(|| {
        let me = ProcessId(0);
        let mut oracle = Leaders(leaders);
        let mut tr = Trace::new();
        let mut proc = KsetOmega::new(100);
        let mut buf = Vec::new();
        let mut activate =
            |now: u64, f: &mut dyn FnMut(&mut KsetOmega, &mut Ctx<'_, KsetMsg, Leaders>)| {
                let mut ctx = Ctx::with_buffer(
                    me,
                    n,
                    t,
                    Time(now),
                    &mut oracle,
                    &mut tr,
                    std::mem::take(&mut buf),
                );
                f(&mut proc, &mut ctx);
                buf = ctx.take_ops();
                buf.clear();
            };
        activate(0, &mut |p, ctx| p.on_start(ctx));
        for r in 1..=rounds {
            for from in 0..n {
                let msg = KsetMsg::Phase1 {
                    r,
                    leaders,
                    est: 100 + from as u64,
                };
                activate(r as u64, &mut |p, ctx| {
                    p.on_message(ProcessId(from), msg.clone(), ctx)
                });
            }
            for from in 0..n {
                let msg = KsetMsg::Phase2 {
                    r,
                    aux: (from != 0).then_some(100),
                };
                activate(r as u64, &mut |p, ctx| {
                    p.on_message(ProcessId(from), msg.clone(), ctx)
                });
            }
        }
        assert_eq!(
            proc.round(),
            rounds + 1,
            "the replayed process must keep advancing"
        );
        rounds as usize * 2 * n
    })
}

/// One read of the cell's failure detector, per call: `trusted_i` for the
/// `Ω_z` scenarios, `suspected_i` and `query(X)` in turn for the `S_x + φ_y`
/// ones, `query(X)` for `Ψ_y`'s `φ_y`.
pub fn oracle_query(cell: &Cell) -> f64 {
    let spec = cell.spec.with_seed(cell.seeds.start);
    let fp = spec.materialize();
    let n = spec.n;
    let sweeps = (OPS_PER_SAMPLE / n).max(1);
    // A set of the one size whose answer is not trivial.
    let x = PSet::full((spec.t + 1).saturating_sub(spec.y).clamp(1, n));
    fn sweep(n: usize, sweeps: usize, mut read: impl FnMut(ProcessId, Time)) -> usize {
        for now in 0..sweeps {
            for p in 0..n {
                read(ProcessId(p), Time(now as u64));
            }
        }
        sweeps * n
    }
    match cell.kind {
        Kind::Kset | Kind::ChurnKset => {
            let mut o = spec.omega_oracle(&fp, salt::OMEGA);
            ns_per_op(|| {
                sweep(n, sweeps, |p, now| {
                    black_box(o.trusted(p, now));
                })
            })
        }
        Kind::PsiOmega => {
            let mut o = spec.phi_oracle(&fp, Flavour::Eventual, salt::PSI_PHI);
            ns_per_op(|| {
                sweep(n, sweeps, |p, now| {
                    black_box(o.query(p, x, now));
                })
            })
        }
        Kind::TwoWheels | Kind::AdditionMp | Kind::AdditionShm | Kind::Pipeline => {
            let mut o = spec.sx_plus_phi(&fp, Flavour::Eventual, salt::WHEELS_SX, salt::WHEELS_PHI);
            ns_per_op(|| {
                sweep(n, sweeps, |p, now| {
                    if now.ticks() % 2 == 0 {
                        black_box(o.suspected(p, now));
                    } else {
                        black_box(o.query(p, x, now));
                    }
                })
            })
        }
    }
}

/// `ScenarioSpec::fingerprint()` per call, over the batch's specs. The
/// value is thrown away: digests are timed here, never compared.
pub fn fingerprint(cells: &[Cell]) -> f64 {
    let reps = (20_000 / cells.len()).max(1);
    ns_per_op(|| {
        for _ in 0..reps {
            for cell in cells {
                black_box(black_box(&cell.spec).fingerprint());
            }
        }
        reps * cells.len()
    })
}

/// What the cell-codec replay measured.
#[derive(Debug, Clone, Copy)]
pub struct CodecReplay {
    /// `encode_cell`, per cell.
    pub encode_ns: f64,
    /// `decode_cell`, per cell.
    pub decode_ns: f64,
    /// Mean encoded line length.
    pub bytes_per_cell: f64,
    /// `fd_bench::json::parse` over the encoded lines.
    pub parse_mb_per_s: f64,
}

/// The store's cell codec over the workload's own reports.
pub fn codec(kept: &[(u64, u64, SlimReport)]) -> CodecReplay {
    let passes = (5_000 / kept.len()).max(1);
    let encode_ns = ns_per_op(|| {
        for _ in 0..passes {
            for (salt, seed, slim) in kept {
                black_box(encode_cell(*salt, *seed, slim));
            }
        }
        passes * kept.len()
    });
    let lines: Vec<String> = kept
        .iter()
        .map(|(salt, seed, slim)| encode_cell(*salt, *seed, slim))
        .collect();
    let bytes: usize = lines.iter().map(String::len).sum();
    let decode_ns = ns_per_op(|| {
        for _ in 0..passes {
            for line in &lines {
                black_box(decode_cell(line).expect("own encoding decodes"));
            }
        }
        passes * lines.len()
    });
    let parse_ns_per_byte = ns_per_op(|| {
        for _ in 0..passes {
            for line in &lines {
                black_box(json::parse(line).expect("own encoding parses"));
            }
        }
        passes * bytes
    });
    CodecReplay {
        encode_ns,
        decode_ns,
        bytes_per_cell: bytes as f64 / lines.len() as f64,
        // bytes per ns × 1000 = MB per s.
        parse_mb_per_s: 1e3 / parse_ns_per_byte,
    }
}

/// What the store replay measured.
#[derive(Debug, Clone, Copy)]
pub struct StoreReplay {
    /// Open a fresh directory, spill every cell, close: per cell.
    pub persist_ns: f64,
    /// `SweepStore::open` + `hydrate_into`, per cell.
    pub open_hydrate_ns: f64,
    /// The all-hit sweep through `Runner::with_cache`, per cell.
    pub hit_ns: f64,
    /// Hits over lookups in those sweeps (must be 1).
    pub hit_ratio: f64,
    /// Cells the all-hit sweeps served.
    pub served: u64,
}

/// Persist the workload's cells into `dir`, then resume from it: the
/// store's write path and read path, each on its own.
pub fn store(
    dir: &Path,
    cells: &[Cell],
    kept: &[(u64, u64, SlimReport)],
    cache: &'static ReportCache,
) -> io::Result<StoreReplay> {
    let rounds = 5;
    let mut persist = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let t0 = Instant::now();
        let store = SweepStore::open(dir)?;
        for cell in cells {
            store.register_spec(&cell.label, &cell.scenario().cache_tag(), &cell.spec);
        }
        store.commit_manifest()?;
        let spill = store.spill();
        for (salt, seed, slim) in kept {
            spill(*salt, *seed, slim);
        }
        store.close()?;
        persist.push(t0.elapsed().as_nanos() as f64 / kept.len() as f64);
    }
    let runner = Runner::sequential().with_cache(cache);
    let (mut open, mut hit) = (Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0, 0);
    // The first open compacts the multi-segment shards the writes left;
    // the fastest sample reads past it.
    for _ in 0..rounds + 2 {
        cache.clear();
        let t0 = Instant::now();
        let store = SweepStore::open(dir)?;
        store.hydrate_into(cache);
        open.push(t0.elapsed().as_nanos() as f64 / kept.len() as f64);
        let t0 = Instant::now();
        for cell in cells {
            black_box(crate::workloads::run_seeds(
                runner,
                cell,
                cell.seeds.clone(),
                false,
            ));
        }
        hit.push(t0.elapsed().as_nanos() as f64 / kept.len() as f64);
        store.close()?;
        hits += cache.hits();
        lookups += cache.hits() + cache.misses();
    }
    cache.clear();
    Ok(StoreReplay {
        persist_ns: fast(&persist),
        open_hydrate_ns: fast(&open),
        hit_ns: fast(&hit),
        hit_ratio: hits as f64 / lookups as f64,
        served: lookups,
    })
}

/// A scenario that simulates nothing, so a sweep of it costs only what the
/// runner and the cache add around a run.
#[derive(Debug)]
struct Nothing;

impl Scenario for Nothing {
    fn name(&self) -> &'static str {
        "benchmark_nothing"
    }
    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = FailurePattern::all_correct(spec.n);
        ScenarioReport::new(
            self.name(),
            spec,
            fp,
            Trace::new(),
            CheckOutcome::pass(None, ""),
        )
    }
}

/// What the runner / cache replay measured, per run.
#[derive(Debug, Clone, Copy)]
pub struct RunnerReplay {
    /// `Runner::sweep_fold` over a direct `run(..).slim()` loop.
    pub overhead_ns: f64,
    /// A cached sweep of uncached cells over an uncached sweep: lookup
    /// miss + insert.
    pub miss_ns: f64,
}

/// The cost the runner and a cold cache add around each run, measured on a
/// scenario that does nothing.
pub fn runner(cache: &'static ReportCache) -> RunnerReplay {
    const RUNS: u64 = 20_000;
    let spec = ScenarioSpec::new(5, 2);
    let direct = ns_per_op(|| {
        let mut events = 0;
        for seed in 0..RUNS {
            events += Nothing.run(&spec.with_seed(seed)).slim().metrics.events;
        }
        black_box(events);
        RUNS as usize
    });
    let sweep = |runner: Runner| {
        ns_per_op(|| {
            cache.clear();
            black_box(runner.sweep_fold(&Nothing, &spec, 0..RUNS, 0, |acc, slim| {
                *acc += slim.metrics.events
            }));
            RUNS as usize
        })
    };
    let uncached = sweep(Runner::sequential());
    let cached = sweep(Runner::sequential().with_cache(cache));
    cache.clear();
    RunnerReplay {
        overhead_ns: uncached - direct,
        miss_ns: cached - uncached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{batch, Workload};

    fn small() -> Shape {
        let cells = batch(Workload::CampaignStore, 0);
        let armed = cells.iter().find(|c| !c.spec.adversary.is_none());
        Shape::of(&cells[0], armed)
    }

    #[test]
    fn queue_replay_fills_to_n_squared_and_measures_every_part() {
        let shape = small();
        let q = queue(&shape);
        assert_eq!(q.depth_max, shape.n * shape.n);
        for ns in [q.route_ns, q.pop_ns, q.take_ns] {
            assert!(ns > 0.0 && ns < 10_000.0, "{q:?}");
        }
        assert!(q.push_ns >= 0.0);
    }

    #[test]
    fn armed_replay_takes_the_per_recipient_path() {
        let mut shape = small();
        shape.adversary = MessageAdversary::Rules(vec![MessageRule::drop(50)]);
        let a = armed(&shape);
        assert!(a.delivered_ratio > 0.4 && a.delivered_ratio < 0.6, "{a:?}");
        shape.adversary = MessageAdversary::Rules(vec![MessageRule::duplicate(100)]);
        assert_eq!(armed(&shape).delivered_ratio, 2.0);
    }

    #[test]
    fn layer_replays_run_in_every_workload_shape() {
        for workload in Workload::ALL {
            let cells = batch(workload, 0);
            // The n = 128 shape is covered by the traced run itself; keep
            // the unit test quick.
            let cell = cells.iter().min_by_key(|c| c.spec.n).unwrap();
            let shape = Shape::of(cell, None);
            let t = trace(&shape);
            assert!(t.bump_ns > 0.0 && t.deciders_ns > 0.0 && t.publish_ns > 0.0);
            let r = rounds(&shape);
            assert!(r.phase1_ns > 0.0 && r.phase2_ns > 0.0 && r.slab_new_ns > 0.0);
            assert!(on_message(&shape) > 0.0);
            for kind_cell in &cells {
                if kind_cell.spec.n <= 9 {
                    assert!(oracle_query(kind_cell) > 0.0, "{}", kind_cell.label);
                }
            }
            assert!(fingerprint(&cells) > 0.0);
        }
    }

    #[test]
    fn codec_and_runner_replays_measure_something() {
        let cells = batch(Workload::GridSmall, 0);
        let cell = &cells[0];
        let (_, slims) = crate::workloads::run_seeds(Runner::sequential(), cell, 0..8, true);
        let kept: Vec<_> = slims.into_iter().map(|s| (1, s.seed, s)).collect();
        let c = codec(&kept);
        assert!(c.encode_ns > 0.0 && c.decode_ns > 0.0 && c.parse_mb_per_s > 0.0);
        assert!(c.bytes_per_cell > 100.0);
        let r = runner(Box::leak(Box::new(ReportCache::new())));
        // Differences of two measurements: either may read slightly
        // negative, neither may be absurd.
        assert!(r.overhead_ns.abs() < 10_000.0 && r.miss_ns.abs() < 10_000.0);
    }
}
