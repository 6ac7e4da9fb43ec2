//! The traced run: where a repetition's time goes, layer by layer.
//!
//! A separate process mode (`--trace 1`); the timed runs carry none of
//! this. Three outside-in instruments, all calling public API only:
//!
//! * **Spans** ([`crate::recompose`]): the workload's batch re-run with
//!   each scenario run re-composed from its public pieces and a span at
//!   every boundary. Traced and untraced batches alternate, step by step
//!   as in the timed run, and their difference is the tracing overhead.
//! * **Differentials**: the same `Sim` runs under the production stop
//!   predicate and under an equivalent one that re-evaluates only when a
//!   decision arrives; the per-event difference is what the predicate
//!   costs.
//! * **Replays** ([`crate::replay`]): the per-event layers driven alone in
//!   the workload's shape.
//!
//! Every per-layer metric is measured in every traced run. Where the
//! workload's batch does not contain a scenario kind (no transformation in
//! the k-set workloads, no class checker outside `transforms_horizon`),
//! the figure comes from one reference cell of that kind — the
//! `transforms_horizon` definition of it, one run seed — so the number is
//! a measurement on every workload and a change to that layer shows
//! everywhere. A `share` is derived from counts; where the workload does
//! not use the layer it is exactly 0.

use crate::alloc;
use crate::metrics::{Measured, Outcome, PER_LAYER};
use crate::recompose::{self, loop_name, name, StopMode};
use crate::replay::{self, Shape};
use crate::spans::{NameTotal, Spans};
use crate::timed::{expected_tallies, fastest, plan, warm_cache, Samples, Scratch, Step, MAX_REPS};
use crate::workloads::{batch, failed_runs, run_batch, run_seeds, Cell, Kind, Tally, Workload};
use fd_core::kset_omega::{KsetMsg, KsetOmega};
use fd_core::KsetScenario;
use fd_detectors::scenario::{default_proposals, salt, ReportCache, Runner, SlimReport};
use fd_sim::{Sim, Time};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Root span of one traced batch.
const ROOT: &str = "benchmark.traced_batch";
/// Events per pass of the stop-predicate differential.
const DIFFERENTIAL_EVENTS: u64 = 1_000_000;
/// Passes per predicate in the differential; each run keeps its fastest.
const DIFFERENTIAL_PASSES: usize = 3;
/// Events of the `n = 512` frontier probe: the first million of the run,
/// where ~n² deliveries are pending.
const FRONTIER_EVENTS: u64 = 1_000_000;

/// Per-cell counts a traced batch gathers beyond the tally.
#[derive(Debug, Clone, Default)]
struct Counts {
    tally: Tally,
    delivered: u64,
    samples: u64,
}

impl Counts {
    fn absorb(&mut self, slim: &SlimReport, samples: u64) {
        self.tally.absorb(slim);
        self.delivered += slim.metrics.delivered;
        self.samples += samples;
    }
}

type Totals = BTreeMap<&'static str, NameTotal>;

/// Per name, the fastest total over several recordings of the same work.
fn fastest_totals(recordings: &[Totals]) -> Totals {
    let mut out = Totals::new();
    for rec in recordings {
        for (name, t) in rec {
            let best = out.entry(name).or_insert(*t);
            if t.total_ns < best.total_ns {
                *best = *t;
            }
        }
    }
    out
}

fn sweep_steps(workload: Workload, cells: &[Cell]) -> Vec<(usize, Range<u64>)> {
    plan(workload, cells)
        .into_iter()
        .filter_map(|s| match s {
            Step::Sweep { cell, seeds } => Some((cell, seeds)),
            _ => None,
        })
        .collect()
}

/// One untraced batch: the uncached `Runner` sweep, step by step.
fn untraced_batch(
    cells: &[Cell],
    steps: &[(usize, Range<u64>)],
    samples: &mut Samples,
) -> Vec<Tally> {
    let mut tallies = vec![Tally::default(); cells.len()];
    for (i, (cell, seeds)) in steps.iter().enumerate() {
        let t0 = Instant::now();
        let (tally, _) = run_seeds(Runner::sequential(), &cells[*cell], seeds.clone(), false);
        samples.by_step[i].push(t0.elapsed().as_secs_f64());
        tallies[*cell].add(&tally);
    }
    tallies
}

/// One traced batch: the same runs, re-composed under spans.
fn traced_batch(
    cells: &[Cell],
    steps: &[(usize, Range<u64>)],
    spans: &mut Spans,
    samples: &mut Samples,
) -> Vec<Counts> {
    let mut counts = vec![Counts::default(); cells.len()];
    spans.clear();
    let root = spans.enter(ROOT, u32::MAX);
    let mut run_id = 0;
    for (i, (cell, seeds)) in steps.iter().enumerate() {
        let t0 = Instant::now();
        for seed in seeds.clone() {
            let out = recompose::run(spans, run_id, &cells[*cell], seed, StopMode::Production);
            counts[*cell].absorb(&out.slim, out.samples);
            run_id += 1;
        }
        samples.by_step[i].push(t0.elapsed().as_secs_f64());
    }
    spans.exit(root);
    counts
}

/// The stop-predicate differential: nanoseconds per event the production
/// predicate costs over the on-change one, on a sample of the batch's
/// run-to-decision cells drawn in proportion to their events.
fn stop_differential(cells: &[Cell], reference: &[Tally]) -> (f64, u64) {
    let deciding = |c: &Cell| matches!(c.kind, Kind::Kset | Kind::ChurnKset | Kind::Pipeline);
    let total: u64 = cells
        .iter()
        .zip(reference)
        .filter(|(c, _)| deciding(c))
        .map(|(_, t)| t.events)
        .sum();
    let mut spans = Spans::with_capacity(16);
    let (mut production, mut on_change, mut events) = (0.0, 0.0, 0u64);
    for cell in cells.iter().filter(|c| deciding(c)) {
        let take = (cell.runs() * DIFFERENTIAL_EVENTS)
            .div_ceil(total.max(1))
            .clamp(1, cell.runs());
        for seed in cell.seeds.start..cell.seeds.start + take {
            let mut best = [f64::INFINITY; 2];
            let mut run_events = 0;
            for _ in 0..DIFFERENTIAL_PASSES {
                for (slot, mode) in [StopMode::Production, StopMode::OnChange]
                    .iter()
                    .enumerate()
                {
                    spans.clear();
                    let out = recompose::run(&mut spans, 0, cell, seed, *mode);
                    let lap = spans
                        .records()
                        .iter()
                        .find(|s| s.name == loop_name(cell.kind))
                        .expect("a run-to-decision run has an event loop");
                    best[slot] = best[slot].min((lap.end_ns - lap.start_ns) as f64);
                    run_events = out.slim.metrics.events;
                }
            }
            events += run_events;
            production += best[0];
            on_change += best[1];
        }
    }
    ((production - on_change) / events.max(1) as f64, events)
}

/// Nanoseconds per event of the first `cap` events of one failure-free
/// k-set run at system size `n` (the scaling-curve cell's spec).
fn loop_probe(n: usize, seed: u64, cap: u64) -> f64 {
    let spec = KsetScenario::spec(n, (n - 1) / 2, 2)
        .gst(Time(100))
        .seed(seed);
    let fp = spec.materialize();
    let proposals = default_proposals(n);
    let sim = Sim::new(
        spec.sim_config(),
        fp.clone(),
        |p| KsetOmega::new(proposals[p.0]),
        spec.omega_oracle(&fp, salt::OMEGA),
    );
    let correct = fp.correct();
    let mut events = 0u64;
    let t0 = Instant::now();
    let trace = sim.run_into_trace(|tr| {
        events += 1;
        events >= cap || tr.deciders().is_superset(correct)
    });
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(trace);
    ns / events as f64
}

/// Span totals of one run of one reference cell per transformation kind,
/// and the work each did. Fastest of three passes.
fn reference_cells(seed: u64, missing: &[Kind]) -> (Totals, BTreeMap<Kind, u64>) {
    let pool = batch(Workload::TransformsHorizon, seed);
    let mut spans = Spans::with_capacity(64);
    let mut recordings = Vec::new();
    let mut work = BTreeMap::new();
    for _ in 0..3 {
        spans.clear();
        for (i, kind) in missing.iter().enumerate() {
            let cell = pool
                .iter()
                .find(|c| c.kind == *kind)
                .expect("transforms_horizon has every transformation kind");
            let out = recompose::run(
                &mut spans,
                i as u32,
                cell,
                cell.seeds.start,
                StopMode::Production,
            );
            work.insert(
                *kind,
                out.slim.metrics.events + cell.uncounted_work_per_run(),
            );
        }
        recordings.push(spans.totals());
    }
    (fastest_totals(&recordings), work)
}

/// Everything the fixed-cost probes measured.
struct Probes {
    shape_line: String,
    queue: replay::QueueReplay,
    armed: replay::ArmedReplay,
    trace: replay::TraceReplay,
    rounds: replay::RoundsReplay,
    on_message: f64,
    oracle: f64,
    fingerprint: f64,
    codec: replay::CodecReplay,
    store: replay::StoreReplay,
    runner: replay::RunnerReplay,
    stop_ns: f64,
    stop_events: u64,
    frontier_ns: f64,
    n128_ns: f64,
    /// Wall time of the batch swept by a 2-thread runner.
    parallel_secs: f64,
    /// Tallies of the 2-thread sweeps, to be checked like any other.
    parallel_tallies: Vec<Vec<Tally>>,
    /// Transformation kinds the batch lacks, and their reference runs.
    missing: Vec<Kind>,
    reference_totals: Totals,
    reference_work: BTreeMap<Kind, u64>,
}

/// Replays, differentials and one-off probes, in the shape of the batch's
/// heaviest simulated cell.
fn probe(
    seed: u64,
    cells: &[Cell],
    reference: &[Tally],
    kept: &[(u64, u64, SlimReport)],
    scratch: &Path,
) -> Result<Probes, String> {
    let heaviest = |pick: &dyn Fn(&Cell) -> bool, weight: &dyn Fn(&Tally) -> u64| {
        cells
            .iter()
            .zip(reference)
            .filter(|(c, _)| pick(c))
            .max_by_key(|(_, t)| weight(t))
            .map(|(c, _)| c)
    };
    let heavy = heaviest(&|c| c.kind != Kind::AdditionShm, &|t| t.events)
        .expect("every batch simulates something");
    let armed_cell = heaviest(&|c| !c.spec.adversary.is_none(), &|t| t.msgs);
    let shape = Shape::of(heavy, armed_cell);
    let shape_line = format!(
        "replay shape: n={} t={} z={} delay={:?} adversary={} (from {}{})",
        shape.n,
        shape.t,
        shape.z,
        shape.delay,
        shape.adversary.describe(),
        heavy.label,
        armed_cell.map_or(String::new(), |c| format!(", armed {}", c.label)),
    );
    let (stop_ns, stop_events) = stop_differential(cells, reference);
    let first_seed = cells[0].seeds.start;
    let parallel: Vec<(f64, Vec<Tally>)> = (0..2)
        .map(|_| {
            let t0 = Instant::now();
            let tallies = run_batch(Runner::with_threads(2), cells);
            (t0.elapsed().as_secs_f64(), tallies)
        })
        .collect();
    let missing: Vec<Kind> = [
        Kind::TwoWheels,
        Kind::PsiOmega,
        Kind::AdditionMp,
        Kind::AdditionShm,
        Kind::Pipeline,
    ]
    .into_iter()
    .filter(|k| !cells.iter().any(|c| c.kind == *k))
    .collect();
    let (reference_totals, reference_work) = reference_cells(seed, &missing);
    Ok(Probes {
        shape_line,
        queue: replay::queue(&shape),
        armed: replay::armed(&shape),
        trace: replay::trace(&shape),
        rounds: replay::rounds(&shape),
        on_message: replay::on_message(&shape),
        oracle: replay::oracle_query(heavy),
        fingerprint: replay::fingerprint(cells),
        codec: replay::codec(kept),
        store: replay::store(&scratch.join("probe"), cells, kept, warm_cache())
            .map_err(|e| format!("store replay: {e}"))?,
        runner: replay::runner(warm_cache()),
        stop_ns,
        stop_events,
        frontier_ns: loop_probe(512, first_seed, FRONTIER_EVENTS),
        n128_ns: fastest(&[0, 1].map(|_| loop_probe(128, first_seed, FRONTIER_EVENTS))),
        parallel_secs: fastest(&parallel.iter().map(|(s, _)| *s).collect::<Vec<_>>()),
        parallel_tallies: parallel.into_iter().map(|(_, t)| t).collect(),
        missing,
        reference_totals,
        reference_work,
    })
}

/// What the alternating untraced / traced batches recorded.
struct Recorded {
    untraced: Samples,
    traced: Samples,
    /// Per span name, the fastest recording.
    totals: Totals,
    /// Per-cell counts of the (deterministic) traced batch.
    counts: Vec<Counts>,
    /// Allocator calls of one untraced batch, per run: exact.
    allocs_per_run: f64,
    /// The accounting line of the first traced batch.
    closure: String,
    pairs: usize,
    /// Tallies of every batch run here, to be checked like any other.
    tallies: Vec<Vec<Tally>>,
}

/// Alternates untraced and traced batches until `deadline` (at least two
/// pairs), writing the first traced batch's spans to `trace_path`.
fn alternate(
    cells: &[Cell],
    steps: &[(usize, Range<u64>)],
    deadline: impl Fn(f64) -> bool,
    trace_path: &Path,
) -> Result<Recorded, String> {
    let runs: u64 = cells.iter().map(Cell::runs).sum();
    let mut untraced = Samples::with_capacity(steps.len(), MAX_REPS);
    let mut traced = Samples::with_capacity(steps.len(), MAX_REPS);
    let mut spans = Spans::with_capacity(runs as usize * 8 + 8);
    let mut recordings: Vec<Totals> = Vec::new();
    let mut counts = Vec::new();
    let mut tallies = Vec::new();
    let mut allocs_per_run = 0.0;
    let mut closure = String::new();
    let mut pair_secs = 0.0;
    while recordings.len() < MAX_REPS && (recordings.len() < 2 || !deadline(pair_secs)) {
        let t_pair = Instant::now();
        let calls = alloc::stats().calls;
        tallies.push(untraced_batch(cells, steps, &mut untraced));
        allocs_per_run = (alloc::stats().calls - calls) as f64 / runs as f64;
        let t_traced = Instant::now();
        counts = traced_batch(cells, steps, &mut spans, &mut traced);
        let wall_ns = t_traced.elapsed().as_nanos() as f64;
        tallies.push(counts.iter().map(|c| c.tally.clone()).collect());
        if recordings.is_empty() {
            spans
                .write_jsonl(trace_path)
                .map_err(|e| format!("{}: {e}", trace_path.display()))?;
            let self_sum: u64 = spans.self_times().iter().sum();
            closure = format!(
                "accounting: {} spans, self times sum to {self_sum} ns, traced wall {wall_ns:.0} ns \
                 (differ by {:.4} %); first traced batch written to {}",
                spans.records().len(),
                (self_sum as f64 - wall_ns).abs() / wall_ns * 100.0,
                trace_path.display()
            );
        }
        recordings.push(spans.totals());
        pair_secs = t_pair.elapsed().as_secs_f64();
    }
    Ok(Recorded {
        untraced,
        traced,
        totals: fastest_totals(&recordings),
        counts,
        allocs_per_run,
        closure,
        pairs: recordings.len(),
        tallies,
    })
}

/// The value of every per-layer metric, from the probes, the recorded
/// batches and the runs' own deterministic counts.
fn assemble(cells: &[Cell], p: &Probes, r: &Recorded) -> Vec<Measured> {
    let runs = cells.iter().map(Cell::runs).sum::<u64>() as f64;
    // Counts the shares are made of, all from the runs' own metrics.
    let sum = |pick: &dyn Fn(&Cell) -> bool, of: &dyn Fn(&Counts) -> u64| -> f64 {
        cells
            .iter()
            .zip(&r.counts)
            .filter(|(c, _)| pick(c))
            .map(|(_, k)| of(k))
            .sum::<u64>() as f64
    };
    let all = |_: &Cell| true;
    let kset = |c: &Cell| matches!(c.kind, Kind::Kset | Kind::ChurnKset);
    let deciding = |c: &Cell| kset(c) || c.kind == Kind::Pipeline;
    let armed_path = |c: &Cell| !c.spec.adversary.is_none() || !c.spec.topology.is_none();
    let events = sum(&all, &|k| k.tally.events);
    let delivered = sum(&all, &|k| k.delivered);
    let msgs = sum(&all, &|k| k.tally.msgs);
    let armed_msgs = sum(&armed_path, &|k| k.tally.msgs);
    let published = sum(&all, &|k| k.samples);
    let kset_delivered = sum(&kset, &|k| k.delivered);
    // One SENT bump per broadcast, not per message.
    let broadcasts: f64 = cells
        .iter()
        .zip(&r.counts)
        .map(|(c, k)| k.tally.msgs as f64 / c.spec.n as f64)
        .sum();
    let bumps = events + delivered + broadcasts;

    let total = |n: &str| r.totals.get(n).map_or(0.0, |t| t.total_ns as f64);
    let count = |n: &str| r.totals.get(n).map_or(0.0, |t| t.count as f64);
    let sim_loop_ns: f64 = name::LOOPS
        .iter()
        .filter(|n| **n != name::LOOP_ADDITION_SHM)
        .map(|n| total(n))
        .sum();
    let untraced_ns = r.untraced.fastest_sum(|_| true) * 1e9;
    let traced_ns = r.traced.fastest_sum(|_| true) * 1e9;
    let share = |ns: f64| ns / sim_loop_ns;

    // Per-kind event loops and the class checker: from the batch where it
    // has the kind, else from the reference cell.
    let per_work = |kind: Kind| -> f64 {
        if p.missing.contains(&kind) {
            let t = p.reference_totals[loop_name(kind)];
            t.total_ns as f64 / p.reference_work[&kind] as f64
        } else {
            let work: u64 = cells
                .iter()
                .zip(&r.counts)
                .filter(|(c, _)| c.kind == kind)
                .map(|(c, k)| k.tally.events + c.uncounted_work_per_run() * k.tally.runs)
                .sum();
            total(loop_name(kind)) / work as f64
        }
    };
    let class_check = match r.totals.get(name::CLASS_CHECK) {
        Some(t) => t.total_ns as f64 / t.count as f64,
        None => {
            let t = p.reference_totals[name::CLASS_CHECK];
            t.total_ns as f64 / t.count as f64
        }
    };

    let (queue, trace, rounds) = (&p.queue, &p.trace, &p.rounds);
    let stop_share = share(p.stop_ns * sum(&deciding, &|k| k.tally.events));
    let event_share = share((queue.push_ns + queue.pop_ns) * events);
    let network_share =
        share(queue.route_ns * (msgs - armed_msgs) + p.armed.ns_per_msg * armed_msgs);
    let arena_share = share(queue.take_ns * delivered);
    let trace_share = share(trace.bump_ns * bumps + trace.publish_ns * published);
    let kset_share = share(p.on_message * kset_delivered);
    let rounds_share = share((rounds.phase1_ns + rounds.phase2_ns) / 2.0 * kset_delivered);
    let attributed =
        stop_share + event_share + network_share + arena_share + trace_share + kset_share;

    let value = |metric: &str| -> f64 {
        match metric {
            "detectors.scenario.materialize.ns_per_run" => total(name::MATERIALIZE) / runs,
            "detectors.scenario.oracle_build.ns_per_run" => total(name::ORACLE_BUILD) / runs,
            "detectors.scenario.report.ns_per_run" => total(name::REPORT) / runs,
            "detectors.scenario.spec_fingerprint.ns" => p.fingerprint,
            "detectors.scenario.cache.hit_ns" => p.store.hit_ns,
            "detectors.scenario.cache.miss_ns" => p.runner.miss_ns,
            "detectors.scenario.cache.hit_ratio" => p.store.hit_ratio,
            "detectors.scenario.runner.overhead_share" => p.runner.overhead_ns * runs / untraced_ns,
            "detectors.scenario.runner.speedup_t2" => untraced_ns / 1e9 / p.parallel_secs,
            "sim.runtime.new.ns_per_run" => total(name::SIM_NEW) / count(name::SIM_NEW),
            "sim.runtime.allocs_per_run" => r.allocs_per_run,
            "sim.runtime.loop.ns_per_event" => sim_loop_ns / events,
            "sim.runtime.loop.share" => {
                (sim_loop_ns + total(name::LOOP_ADDITION_SHM)) / total(ROOT)
            }
            "sim.runtime.loop.unattributed_share" => 1.0 - attributed,
            "sim.runtime.loop.ns_per_event_n512" => p.frontier_ns,
            "sim.runtime.loop.slope_n512_over_n128" => p.frontier_ns / p.n128_ns,
            "sim.runtime.stop.ns_per_event" => p.stop_ns,
            "sim.runtime.stop.share" => stop_share,
            "sim.event.push.ns_per_op" => queue.push_ns,
            "sim.event.pop.ns_per_op" => queue.pop_ns,
            "sim.event.depth_max" => queue.depth_max as f64,
            "sim.event.ops" => 2.0 * events,
            "sim.event.share" => event_share,
            "sim.network.route.ns_per_msg" => queue.route_ns,
            "sim.network.msgs" => msgs,
            "sim.network.share" => network_share,
            "sim.network.armed.ns_per_msg" => p.armed.ns_per_msg,
            "sim.network.armed.delivered_ratio" => p.armed.delivered_ratio,
            "sim.arena.take.ns_per_op" => queue.take_ns,
            "sim.arena.takes" => delivered,
            "sim.arena.share" => arena_share,
            "sim.trace.bump.ns_per_op" => trace.bump_ns,
            "sim.trace.deciders.ns_per_op" => trace.deciders_ns,
            "sim.trace.publish.ns_per_op" => trace.publish_ns,
            "sim.trace.publishes" => published,
            "sim.trace.share" => trace_share,
            "core.rounds.phase1.ns_per_msg" => rounds.phase1_ns,
            "core.rounds.phase2.ns_per_msg" => rounds.phase2_ns,
            "core.rounds.slab_new.ns" => rounds.slab_new_ns,
            "core.rounds.share" => rounds_share,
            "core.kset_omega.on_message.ns_per_msg" => p.on_message,
            "core.kset_omega.msg_bytes" => std::mem::size_of::<KsetMsg>() as f64,
            "core.kset_omega.share" => kset_share,
            "core.spec.check.ns_per_run" => total(name::SPEC_CHECK) / count(name::SPEC_CHECK),
            "detectors.check.class.ns_per_run" => class_check,
            "detectors.oracle.query.ns_per_op" => p.oracle,
            "transforms.two_wheels.ns_per_event" => per_work(Kind::TwoWheels),
            "transforms.psi_omega.ns_per_event" => per_work(Kind::PsiOmega),
            "transforms.addition_mp.ns_per_event" => per_work(Kind::AdditionMp),
            "transforms.addition_shm.ns_per_step" => per_work(Kind::AdditionShm),
            "grid.pipeline.ns_per_event" => per_work(Kind::Pipeline),
            "bench.store.encode.ns_per_cell" => p.codec.encode_ns,
            "bench.store.persist.ns_per_cell" => p.store.persist_ns,
            "bench.store.bytes_per_cell" => p.codec.bytes_per_cell,
            "bench.store.decode.ns_per_cell" => p.codec.decode_ns,
            "bench.store.open_hydrate.ns_per_cell" => p.store.open_hydrate_ns,
            "bench.json.parse.mb_per_s" => p.codec.parse_mb_per_s,
            "trace_overhead_share" => (traced_ns - untraced_ns) / untraced_ns,
            other => unreachable!("unmeasured per-layer metric {other}"),
        }
    };
    PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
        })
        .collect()
}

/// Runs the traced protocol for one workload.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<(Outcome, Vec<String>), String> {
    let started = Instant::now();
    let cells = batch(workload, seed);
    let steps = sweep_steps(workload, &cells);
    let expected = expected_tallies(workload, seed, &cells)?;
    let scratch = Scratch::create(workload)?;
    let runs: u64 = cells.iter().map(Cell::runs).sum();

    // The reference: one uncached sweep of the batch, reports kept.
    let mut kept = Vec::new();
    let mut reference = vec![Tally::default(); cells.len()];
    for (cell, seeds) in &steps {
        let c = &cells[*cell];
        let (tally, slims) = run_seeds(Runner::sequential(), c, seeds.clone(), true);
        reference[*cell].add(&tally);
        let salt = ReportCache::salt(&c.scenario().cache_tag(), &c.spec);
        kept.extend(slims.into_iter().map(|s| (salt, s.seed, s)));
    }
    let want = expected.as_deref().unwrap_or(&reference);
    let mut failed = failed_runs(workload, &cells, &reference, want);

    let probes = probe(seed, &cells, &reference, &kept, scratch.path())?;
    drop(kept);
    // Untraced and traced batches alternate for the time that is left.
    let recorded = alternate(
        &cells,
        &steps,
        |pair_secs| started.elapsed().as_secs_f64() + pair_secs >= seconds,
        &out_dir.join(format!("{}.trace.jsonl", workload.name())),
    )?;

    // Every batch run anywhere above must be the reference batch: the
    // 2-thread sweeps, the untraced batches, and above all the re-composed
    // ones — if those differ from the program's own runs the trace is void.
    let batches = probes.parallel_tallies.iter().chain(&recorded.tallies);
    let mut attempted = runs + probes.store.served;
    for tallies in batches {
        attempted += runs;
        failed += failed_runs(workload, &cells, tallies, &reference);
    }
    failed += ((1.0 - probes.store.hit_ratio) * probes.store.served as f64).round() as u64;

    let metrics = assemble(&cells, &probes, &recorded);
    let mut lines = vec![
        probes.shape_line.clone(),
        recorded.closure.clone(),
        format!(
            "{} traced/untraced batch pairs; differential over {} events; \
             span totals of the fastest recording:",
            recorded.pairs, probes.stop_events
        ),
    ];
    for (span, t) in &recorded.totals {
        lines.push(format!(
            "  span {span:<34} count {:>6}  total {:>12} ns  self {:>12} ns",
            t.count, t.total_ns, t.self_ns
        ));
    }
    for m in &metrics {
        lines.push(format!("{:<46} {:>18.4} {}", m.name, m.value, m.unit));
    }
    lines.push(format!("ops_attempted {attempted}  ops_failed {failed}"));
    Ok((
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
        lines,
    ))
}
