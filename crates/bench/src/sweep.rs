//! A representative grid sweep with machine-readable throughput output.
//!
//! [`representative_sweep`] drives the Figure 3 scenario over a grid of
//! `(n, t, k)` cells × crash plans × seeds through the work-stealing
//! [`Runner`], measures wall-clock throughput (runs/sec and simulator
//! events/sec), and renders everything as JSON (`BENCH_sweep.json`) for
//! tracking across commits. Cells are summarized via the streaming
//! [`Runner::sweep_summary`], so the sweep's memory footprint is
//! `O(threads)` full reports no matter how many seeds run;
//! [`streaming_sweep`] pushes that to ≥100k seeds on a single cell as an
//! explicit demonstration. No external JSON crate is available offline,
//! so the (flat, fully-controlled) document is rendered by hand.
//!
//! [`check_baseline`] gates CI on per-thread `runs_per_sec` against the
//! committed report.
//!
//! Timing is recorded in microseconds (`wall_us`, clamped to ≥ 1) and both
//! rates are derived from that same duration, so the JSON stays internally
//! consistent even on sub-millisecond CI smoke runs (where the old
//! `wall_ms` rounded to 0 while `runs_per_sec` was finite).

use fd_core::harness::kset_config;
use fd_core::KsetScenario;
use fd_detectors::scenario::{
    CrashPlan, MessageAdversary, MessageRule, ReportCache, Runner, Scenario, ScenarioSpec,
    SweepSummary,
};
use fd_grid::ChurnKsetScenario;
use fd_sim::{FailurePattern, PSet, ProcessId, Time, TopologySchedule};
use std::path::Path;
use std::time::Instant;

use crate::store::{InvocationRecord, SweepStore};

/// One grid cell of the sweep.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Cell label (`n5_t2_k1_f2`-style).
    pub label: String,
    /// Seeds run in this cell.
    pub runs: u64,
    /// Runs whose spec check passed.
    pub passes: u64,
    /// Simulator events processed in this cell.
    pub events: u64,
    /// Messages sent in this cell.
    pub msgs: u64,
}

/// Throughput of the ≥100k-seed single-cell streaming sweep.
#[derive(Clone, Debug)]
pub struct StreamResult {
    /// Label of the cell the stream ran (`n5_t2_k2_f2`-style).
    pub cell: String,
    /// Seeds streamed.
    pub runs: u64,
    /// Runs whose spec check passed.
    pub passes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Wall-clock duration, microseconds (≥ 1).
    pub wall_us: u64,
    /// Completed scenario runs per wall-clock second.
    pub runs_per_sec: f64,
}

/// The adversary sweep leg: the kset grid under windowed drop/duplicate
/// rules plus the churn catch-up liveness probe, with its own gates.
#[derive(Clone, Debug)]
pub struct AdversaryLeg {
    /// One-line description of the rule set (`drop10+dup10` style).
    pub adversary: String,
    /// Drop probability (percent) inside the pre-GST window.
    pub drop_pct: u8,
    /// Duplication probability (percent) inside the pre-GST window.
    pub dup_pct: u8,
    /// Seeds run across the adversary cells.
    pub runs: u64,
    /// Runs whose spec check passed. Uniform drops sit *outside* the
    /// algorithm's liveness tolerance, so this is a degradation curve —
    /// deliberately not gated at 100%.
    pub passes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Messages the adversary lost.
    pub dropped: u64,
    /// Messages the adversary duplicated.
    pub duplicated: u64,
    /// Wall-clock duration, microseconds (≥ 1).
    pub wall_us: u64,
    /// Completed scenario runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Gate: running the adversary grid twice produced bit-identical
    /// fingerprints (the adversary is deterministic in the seed).
    pub deterministic: bool,
    /// Gate: an explicit `MessageAdversary::None` spec is
    /// fingerprint-identical to the default spec on the standard grid.
    pub none_identical: bool,
    /// Gate: every churn + catch-up run passed the liveness envelope
    /// under the adversary.
    pub churn_catchup_live: bool,
    /// Gate: with catch-up disabled the same churn runs are scored by the
    /// safety-only envelope (all pass on those terms, no liveness claimed)
    /// and at least one seed witnesses the late joiner never deciding —
    /// the hole the catch-up layer exists to close.
    pub churn_safety_only: bool,
    /// Per-cell results.
    pub cells: Vec<CellResult>,
}

/// One heal-time cell of the topology phase diagram.
#[derive(Clone, Debug)]
pub struct HealCell {
    /// Heal tick of the partition epoch (`[0, heal)` severs the islands).
    pub heal: u64,
    /// Seeds run at this heal time.
    pub runs: u64,
    /// Runs whose spec check passed (liveness *and* safety).
    pub passes: u64,
    /// Minimum decider count across the cell's runs — the wedged floor.
    pub min_deciders: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Messages the partition severed structurally.
    pub severed: u64,
}

/// Cap on the honest-rejection seeds a [`TopologyLeg`] records: enough
/// to show the rejection is systematic rather than a one-seed fluke,
/// small enough to keep the report line readable.
pub const MAX_NEGATIVE_WITNESSES: usize = 4;

/// The topology sweep leg: the `{0..n−2} | {n−1}` partition's heal time
/// swept against the termination horizon — a one-axis phase diagram of
/// liveness — plus the partition-during-join churn probe and its gates.
#[derive(Clone, Debug)]
pub struct TopologyLeg {
    /// `TopologySchedule::describe()` of the smallest-heal schedule.
    pub schedule: String,
    /// Seeds run across all heal cells.
    pub runs: u64,
    /// Runs that passed the full envelope. This is the phase diagram's
    /// y-axis, deliberately not gated at 100%: late heals *must* fail.
    pub passes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Messages severed structurally across the leg.
    pub severed: u64,
    /// Wall-clock duration, microseconds (≥ 1).
    pub wall_us: u64,
    /// Completed scenario runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Gate: the partitioned grid reruns bit-identically (the topology
    /// stream is deterministic in the seed).
    pub deterministic: bool,
    /// Gate: an explicit `TopologySchedule::None` spec is
    /// fingerprint-identical to the default spec (the unset schedule
    /// draws nothing).
    pub none_identical: bool,
    /// Gate: churn + catch-up rides out a partition that isolates the
    /// joiner through its own join instant (heal before the horizon).
    pub churn_partition_live: bool,
    /// Gate: the phase diagram actually flips — the earliest heal cell
    /// has passing runs and the latest (past-horizon) cell has none.
    pub liveness_flip: bool,
    /// Seeds at the past-horizon heal that are honest negative
    /// witnesses: liveness rejected with the mainland (`n − 1` deciders)
    /// agreeing safely among themselves. In seed order, capped at
    /// [`MAX_NEGATIVE_WITNESSES`]; empty if no seed exhibited it (all
    /// sampled seeds had the Ω leader inside the cut island).
    pub negative_witness_seeds: Vec<u64>,
    /// Per-heal cells, in sweep order (ascending heal).
    pub cells: Vec<HealCell>,
}

/// The whole sweep: cells plus throughput.
#[derive(Clone, Debug)]
pub struct SweepBenchReport {
    /// Worker threads the runner used.
    pub threads: usize,
    /// The message adversary of the main grid (always `"none"`: the grid
    /// is the clean baseline; attacked runs live in the adversary leg).
    pub adversary: String,
    /// Total runs across all cells.
    pub total_runs: u64,
    /// Total runs that passed.
    pub total_passes: u64,
    /// Total simulator events processed.
    pub total_events: u64,
    /// Wall-clock duration, microseconds (≥ 1; the source of truth both
    /// rates are derived from).
    pub wall_us: u64,
    /// Wall-clock duration, milliseconds (derived from `wall_us`, rounded
    /// up so it never reads 0 while the rates are finite).
    pub wall_ms: u64,
    /// Completed scenario runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Simulator events per wall-clock second.
    pub events_per_sec: f64,
    /// Per-cell results.
    pub cells: Vec<CellResult>,
    /// The streaming demonstration, when one was run.
    pub stream: Option<StreamResult>,
    /// The report-cache leg, when one was run.
    pub cache: Option<CacheLeg>,
    /// The durable sweep-store leg, when one was run.
    pub store: Option<StoreLeg>,
    /// The adversary sweep leg, when one was run.
    pub adversary_leg: Option<AdversaryLeg>,
    /// The topology (partition phase-diagram) leg, when one was run.
    pub topology_leg: Option<TopologyLeg>,
    /// The `n`-scaling curve, when one was run.
    pub scaling: Option<ScalingCurve>,
}

/// The grid the sweep covers: `(n, t)` scales × `k` × crash count. Public
/// so the sweep bin can register the specs in a run directory's manifest.
pub fn grid_cells(seeds_per_cell: u64) -> Vec<(String, ScenarioSpec, u64)> {
    let mut cells = Vec::new();
    for &(n, t) in &[(5usize, 2usize), (7, 3), (9, 4)] {
        for k in [1usize, 2] {
            for &f in &[0usize, t] {
                let label = format!("n{n}_t{t}_k{k}_f{f}");
                let spec = kset_config(n, t, k)
                    .gst(Time(400))
                    .crashes(CrashPlan::Random { f, by: Time(500) });
                cells.push((label, spec, seeds_per_cell));
            }
        }
    }
    cells
}

/// Runs the representative grid sweep and measures throughput. Each cell is
/// folded into a [`SweepSummary`] as its runs finish — no per-run report
/// outlives its cell's fold frontier.
pub fn representative_sweep(seeds_per_cell: u64, runner: Runner) -> SweepBenchReport {
    let cells = grid_cells(seeds_per_cell);
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(cells.len());
    for (label, spec, seeds) in cells {
        let summary = runner.sweep_summary(&KsetScenario, &spec, 0..seeds);
        out.push(CellResult {
            label,
            runs: summary.runs,
            passes: summary.passes,
            events: summary.total_events,
            msgs: summary.total_msgs,
        });
    }
    let wall_us = (t0.elapsed().as_micros() as u64).max(1);
    let total_runs: u64 = out.iter().map(|c| c.runs).sum();
    let total_passes: u64 = out.iter().map(|c| c.passes).sum();
    let total_events: u64 = out.iter().map(|c| c.events).sum();
    let secs = wall_us as f64 / 1e6;
    SweepBenchReport {
        threads: runner.threads(),
        adversary: MessageAdversary::None.describe(),
        total_runs,
        total_passes,
        total_events,
        wall_us,
        wall_ms: wall_us.div_ceil(1000),
        runs_per_sec: total_runs as f64 / secs,
        events_per_sec: total_events as f64 / secs,
        cells: out,
        stream: None,
        cache: None,
        store: None,
        adversary_leg: None,
        topology_leg: None,
        scaling: None,
    }
}

/// One point of the events/s-vs-`n` scaling curve.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Number of processes.
    pub n: usize,
    /// Resilience bound (`(n − 1) / 2`, maximal for `t < n/2`).
    pub t: usize,
    /// Seeds run at this size.
    pub runs: u64,
    /// Runs whose spec check passed.
    pub passes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Wall-clock duration, microseconds (≥ 1).
    pub wall_us: u64,
    /// Simulator events per wall-clock second at this size.
    pub events_per_sec: f64,
}

/// The `n`-scaling leg: the same failure-free `k = 2` cell at every size
/// in `ns`, so `BENCH_sweep.json` carries an events/s-vs-`n` curve into
/// the arena/bitset frontier (`n` up to [`fd_sim::MAX_PROCESSES`]).
#[derive(Clone, Debug)]
pub struct ScalingCurve {
    /// The process counts measured, in order (recorded in the JSON so a
    /// trimmed CI curve is distinguishable from the full one).
    pub ns: Vec<usize>,
    /// Seeds per size.
    pub seeds_per_cell: u64,
    /// One point per entry of `ns`.
    pub points: Vec<ScalePoint>,
}

/// Measures the events/s-vs-`n` scaling curve at the sizes in `ns`.
///
/// Failure-free (crashes change the workload shape per size, which would
/// confound the curve), `k = 2`, maximal `t`. Every run's spec check still
/// applies — a silent wrong answer at `n = 1024` fails the leg rather than
/// becoming a fast number.
///
/// # Panics
///
/// Panics if any `n` exceeds [`fd_sim::MAX_PROCESSES`].
pub fn scaling_curve(ns: &[usize], seeds_per_cell: u64, runner: Runner) -> ScalingCurve {
    let mut points = Vec::with_capacity(ns.len());
    for &n in ns {
        assert!(
            n <= fd_sim::MAX_PROCESSES,
            "scaling point n={n} exceeds MAX_PROCESSES={}",
            fd_sim::MAX_PROCESSES
        );
        let t = (n - 1) / 2;
        // A short GST: the curve measures event-routing throughput, and
        // every pre-GST tick buys another O(n²)-message round of churn —
        // at n = 1024 the standard gst = 400 alone is tens of millions of
        // events before the oracle even lets anyone decide.
        let spec = kset_config(n, t, 2).gst(Time(100));
        let t0 = Instant::now();
        let summary = runner.sweep_summary(&KsetScenario, &spec, 0..seeds_per_cell);
        let wall_us = (t0.elapsed().as_micros() as u64).max(1);
        points.push(ScalePoint {
            n,
            t,
            runs: summary.runs,
            passes: summary.passes,
            events: summary.total_events,
            msgs: summary.total_msgs,
            wall_us,
            events_per_sec: summary.total_events as f64 / (wall_us as f64 / 1e6),
        });
    }
    ScalingCurve {
        ns: ns.to_vec(),
        seeds_per_cell,
        points,
    }
}

/// The report-cache proving leg.
#[derive(Clone, Debug)]
pub struct CacheLeg {
    /// Runs computed by the cold pass (all misses).
    pub cold_runs: u64,
    /// Runs requested by the warm pass (all hits on the overlap).
    pub warm_runs: u64,
    /// Cache hits across both passes.
    pub hits: u64,
    /// Cache misses across both passes (the cells actually computed).
    pub misses: u64,
    /// Whether the warm summaries were bit-identical to the cold ones.
    pub identical: bool,
    /// Wall-clock of the cold pass, microseconds (≥ 1).
    pub cold_wall_us: u64,
    /// Wall-clock of the warm pass, microseconds (≥ 1).
    pub warm_wall_us: u64,
}

/// Runs the cache leg: the representative grid is swept cold through a
/// fresh [`ReportCache`] (every run a miss), then the same specs are swept
/// again warm (the E4/E10 sharing pattern). The warm pass must be
/// bit-identical summary for summary, compute nothing new, and report its
/// hits; the sweep bin gates on `identical && hits > 0`.
pub fn cache_leg(seeds_per_cell: u64, runner: Runner) -> CacheLeg {
    // Deliberately leaked: `Runner::with_cache` wants `'static` (that is
    // what keeps the runner `Copy`), and the leg runs once per process.
    let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
    let runner = runner.with_cache(cache);
    let sweep_all = || -> Vec<SweepSummary> {
        grid_cells(seeds_per_cell)
            .into_iter()
            .map(|(_, spec, seeds)| runner.sweep_summary(&KsetScenario, &spec, 0..seeds))
            .collect()
    };
    let t0 = Instant::now();
    let cold = sweep_all();
    let cold_wall_us = (t0.elapsed().as_micros() as u64).max(1);
    let t1 = Instant::now();
    let warm = sweep_all();
    let warm_wall_us = (t1.elapsed().as_micros() as u64).max(1);
    CacheLeg {
        cold_runs: cold.iter().map(|s| s.runs).sum(),
        warm_runs: warm.iter().map(|s| s.runs).sum(),
        hits: cache.hits(),
        misses: cache.misses(),
        identical: cold == warm,
        cold_wall_us,
        warm_wall_us,
    }
}

/// The durable sweep-store proving leg: the on-disk twin of [`CacheLeg`].
#[derive(Clone, Debug)]
pub struct StoreLeg {
    /// Runs computed by the cold pass (all misses, all persisted).
    pub cold_runs: u64,
    /// Wall-clock of the cold pass (sweep + final flush), microseconds.
    pub cold_wall_us: u64,
    /// Cells the cold pass flushed to the run directory.
    pub wrote: u64,
    /// Wall-clock of reopening the directory and hydrating a fresh cache,
    /// microseconds.
    pub open_wall_us: u64,
    /// Cells hydrated into the fresh cache on reopen.
    pub hydrated: u64,
    /// Runs requested by the warm (resumed) pass.
    pub warm_runs: u64,
    /// Cache hits during the warm pass (gate: equals `warm_runs`).
    pub warm_hits: u64,
    /// Cache misses during the warm pass (gate: 0 — nothing recomputed).
    pub warm_misses: u64,
    /// Wall-clock of the warm sweep itself, microseconds.
    pub warm_wall_us: u64,
    /// Whether warm summaries were bit-identical to cold, cell for cell.
    pub identical: bool,
    /// `cold_wall_us / (open_wall_us + warm_wall_us)` — the resume
    /// speedup including the cost of reading the directory back.
    pub speedup: f64,
}

/// The cell set the store leg proves itself on: the representative grid
/// plus two campaign-scale cells (n = 17 and n = 33, failure-free). The
/// large cells matter for the speedup claim: replaying a persisted cell
/// costs microseconds *regardless of what it cost to compute*, so the
/// resume advantage scales with per-run simulation cost — the small-n
/// grid alone would understate what a real (large-n, many-seed) campaign
/// gets back from the store.
fn store_grid(seeds_per_cell: u64) -> Vec<(String, ScenarioSpec, u64)> {
    let mut cells = grid_cells(seeds_per_cell);
    for &(n, t) in &[(17usize, 8usize), (33, 16)] {
        let label = format!("n{n}_t{t}_k2_f0");
        let spec = kset_config(n, t, 2).gst(Time(400));
        cells.push((label, spec, seeds_per_cell));
    }
    cells
}

/// Runs the store leg against `dir` (which should be empty or absent): the
/// store grid ([`store_grid`]: the representative grid plus n = 17/33
/// cells) is swept cold through a fresh [`ReportCache`] whose spill hook
/// persists into a [`SweepStore`], the store is closed, and then —
/// simulating a new process — the directory is reopened, a *second* fresh
/// cache is hydrated from it, and the same grid is swept warm. The warm
/// pass must be bit-identical, all hits, zero misses; the sweep bin gates
/// on exactly that.
pub fn store_leg(seeds_per_cell: u64, runner: Runner, dir: &Path) -> std::io::Result<StoreLeg> {
    let sweep_all = |runner: Runner| -> Vec<SweepSummary> {
        store_grid(seeds_per_cell)
            .into_iter()
            .map(|(_, spec, seeds)| runner.sweep_summary(&KsetScenario, &spec, 0..seeds))
            .collect()
    };
    // Cold: compute everything, spill every cell into the run directory.
    let store = SweepStore::open(dir)?;
    for (label, spec, _) in store_grid(seeds_per_cell) {
        store.register_spec(&label, &KsetScenario.cache_tag(), &spec);
    }
    // Leaked for the same `'static` reason as in `cache_leg`.
    let cold_cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
    cold_cache.set_spill(Some(store.spill()));
    let t0 = Instant::now();
    let cold = sweep_all(runner.with_cache(cold_cache));
    let cold_runs: u64 = cold.iter().map(|s| s.runs).sum();
    let cold_wrote = store.flush()?;
    store.record_invocation(InvocationRecord {
        runs: cold_runs,
        hits: cold_cache.hits(),
        misses: cold_cache.misses(),
        wrote: cold_wrote,
        wall_us: (t0.elapsed().as_micros() as u64).max(1),
    });
    let summary = store.close()?;
    let cold_wall_us = (t0.elapsed().as_micros() as u64).max(1);
    cold_cache.set_spill(None);

    // Warm: a fresh cache in a "new process", hydrated from disk.
    let t1 = Instant::now();
    let store = SweepStore::open(dir)?;
    let warm_cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
    let hydrated = store.hydrate_into(warm_cache) as u64;
    let open_wall_us = (t1.elapsed().as_micros() as u64).max(1);
    let t2 = Instant::now();
    let warm = sweep_all(runner.with_cache(warm_cache));
    let warm_wall_us = (t2.elapsed().as_micros() as u64).max(1);
    let warm_runs: u64 = warm.iter().map(|s| s.runs).sum();
    store.record_invocation(InvocationRecord {
        runs: warm_runs,
        hits: warm_cache.hits(),
        misses: warm_cache.misses(),
        wrote: 0,
        wall_us: warm_wall_us,
    });
    store.close()?;
    Ok(StoreLeg {
        cold_runs,
        cold_wall_us,
        wrote: summary.wrote,
        open_wall_us,
        hydrated,
        warm_runs,
        warm_hits: warm_cache.hits(),
        warm_misses: warm_cache.misses(),
        warm_wall_us,
        identical: cold == warm,
        speedup: cold_wall_us as f64 / (open_wall_us + warm_wall_us) as f64,
    })
}

/// The pre-GST drop/duplicate rule set of the adversary leg.
fn windowed_adversary(drop_pct: u8, dup_pct: u8, gst: Time) -> MessageAdversary {
    MessageAdversary::Rules(vec![
        MessageRule::drop(drop_pct).window(Time::ZERO, gst),
        MessageRule::duplicate(dup_pct).window(Time::ZERO, gst),
    ])
}

/// Runs the adversary sweep leg:
///
/// * the `(n, t, k)` grid — larger scales included, up to `n = 65` — under
///   a pre-GST drop/duplicate adversary, recording the pass-rate
///   degradation curve (uniform drops are outside the algorithm's
///   liveness tolerance by design, so 100% is *not* expected);
/// * a determinism gate (the attacked grid reruns bit-identically);
/// * a `MessageAdversary::None` differential gate (explicitly threading
///   the empty adversary is fingerprint-identical to the default spec);
/// * the churn probe: churn + catch-up under the adversary must pass the
///   liveness envelope, and the same runs without catch-up must stay
///   safety-only (late joiner undecided).
pub fn adversary_leg(
    seeds_per_cell: u64,
    runner: Runner,
    drop_pct: u8,
    dup_pct: u8,
) -> AdversaryLeg {
    let gst = Time(400);
    let adv = windowed_adversary(drop_pct, dup_pct, gst);
    let scales: &[(usize, usize)] = &[(5, 2), (9, 4), (17, 8), (33, 16), (65, 32)];
    let make_cells = || {
        scales.iter().map(|&(n, t)| {
            let label = format!("adv_n{n}_t{t}_k2_f0");
            // Failure-free: crashes would eat the quorum slack that lets
            // the window's permanent losses be absorbed at all.
            let spec = kset_config(n, t, 2)
                .gst(gst)
                .adversary(adv.clone())
                .crashes(CrashPlan::None);
            (label, spec)
        })
    };
    let t0 = Instant::now();
    let mut cells = Vec::new();
    let mut prints: Vec<u64> = Vec::new();
    let mut dropped = 0;
    let mut duplicated = 0;
    let mut events = 0;
    for (label, spec) in make_cells() {
        let reports = runner.sweep(&KsetScenario, &spec, 0..seeds_per_cell);
        let mut cell = CellResult {
            label,
            runs: 0,
            passes: 0,
            events: 0,
            msgs: 0,
        };
        for rep in reports {
            cell.runs += 1;
            cell.passes += rep.check.ok as u64;
            cell.events += rep.metrics.events;
            cell.msgs += rep.metrics.msgs_sent;
            events += rep.metrics.events;
            dropped += rep.trace.counter(fd_sim::counter::DROPPED);
            duplicated += rep.trace.counter(fd_sim::counter::DUPLICATED);
            prints.push(rep.fingerprint());
        }
        cells.push(cell);
    }
    let wall_us = (t0.elapsed().as_micros() as u64).max(1);
    // Determinism gate: the attacked grid reruns bit-identically.
    let mut reprints: Vec<u64> = Vec::new();
    for (_, spec) in make_cells() {
        for rep in runner.sweep(&KsetScenario, &spec, 0..seeds_per_cell) {
            reprints.push(rep.fingerprint());
        }
    }
    let deterministic = prints == reprints;
    // None-differential gate on the standard grid shape.
    let none_identical = {
        let base = kset_config(5, 2, 2)
            .gst(gst)
            .crashes(CrashPlan::Anarchic { by: Time(400) });
        (0..4).all(|seed| {
            let spec = base.with_seed(seed);
            let explicit = spec.clone().adversary(MessageAdversary::None);
            KsetScenario.run(&spec).fingerprint() == KsetScenario.run(&explicit).fingerprint()
        })
    };
    // Churn probe: quorum slack (one crash < t) + a drop window closing at
    // the join, the configuration whose liveness the catch-up layer
    // restores (see fd_grid::churn for the boundary discussion).
    let churn_fp = FailurePattern::builder(6)
        .crash(ProcessId(1), Time(100))
        .join(ProcessId(5), Time(600))
        .build();
    let churn_adv = MessageAdversary::Rules(vec![
        MessageRule::drop(drop_pct.min(25)).window(Time::ZERO, Time(600)),
        MessageRule::duplicate(dup_pct.min(15)).window(Time::ZERO, Time(1_200)),
    ]);
    let churn_base = ChurnKsetScenario::spec(6, 2, 1)
        .gst(Time(300))
        .max_time(Time(60_000))
        .crashes(CrashPlan::Explicit(churn_fp))
        .adversary(churn_adv);
    let mut churn_catchup_live = true;
    let mut bare_all_safe = true;
    let mut stuck_joiner_witnessed = false;
    for seed in 0..seeds_per_cell.clamp(1, 4) {
        let live = ChurnKsetScenario.run(&churn_base.with_seed(seed));
        churn_catchup_live &= live.check.ok;
        let bare = ChurnKsetScenario.run(&churn_base.with_seed(seed).catch_up(false));
        bare_all_safe &= bare.check.ok && bare.check.detail.contains("liveness not claimed");
        // On some seeds every decision lands after the join and the joiner
        // decides via the (exempt) reliable broadcast anyway; the envelope
        // still only claims safety. At least one seed must witness the
        // genuinely stuck joiner.
        stuck_joiner_witnessed |= !bare.trace.deciders().contains(ProcessId(5));
    }
    let churn_safety_only = bare_all_safe && stuck_joiner_witnessed;
    let runs: u64 = cells.iter().map(|c| c.runs).sum();
    let passes: u64 = cells.iter().map(|c| c.passes).sum();
    AdversaryLeg {
        adversary: adv.describe(),
        drop_pct,
        dup_pct,
        runs,
        passes,
        events,
        dropped,
        duplicated,
        wall_us,
        runs_per_sec: runs as f64 / (wall_us as f64 / 1e6),
        deterministic,
        none_identical,
        churn_catchup_live,
        churn_safety_only,
        cells,
    }
}

/// The topology leg: sweep the heal time of a `{0..3} | {4}` partition on
/// the `n = 5, t = 2, k = 2` scenario against the termination horizon
/// (`max_time = 100_000`, GST 400) and record pass-rate per heal — a
/// one-axis termination phase diagram. The physics it charts (see
/// `fd_grid::churn` and the scenario-engine topology tests): phase
/// messages are plain broadcasts with no retransmission, so the cut
/// process can only decide through the heal-delayed `DECISION` reliable
/// broadcast, and only when the post-GST Ω leader sits in the mainland.
/// Pass ⇔ leader in mainland ∧ heal before horizon; the last grid point
/// (heal = 2 × horizon) therefore *must* fail — its first
/// mainland-leader seed is recorded as the negative witness (liveness
/// honestly rejected with `n − 1` deciders in safe agreement).
///
/// Gates: determinism (the partitioned grid reruns bit-identically), the
/// `TopologySchedule::None` differential (unset schedule draws nothing),
/// the churn probe (catch-up rides out a partition that isolates a
/// joiner through its join instant), and the liveness flip itself.
pub fn topology_leg(seeds_per_cell: u64, runner: Runner) -> TopologyLeg {
    let n = 5usize;
    let horizon = Time(100_000);
    let islands = || -> Vec<PSet> {
        vec![
            (0..n - 1).map(ProcessId).collect(),
            (n - 1..n).map(ProcessId).collect(),
        ]
    };
    // Two decades below the horizon, one straddling cell, one past it.
    let heal_grid: &[u64] = &[200, 2_000, 20_000, 200_000];
    let spec_at = |heal: u64| {
        kset_config(n, 2, 2)
            .gst(Time(400))
            .max_time(horizon)
            .topology(TopologySchedule::partition_until(islands(), Time(heal)))
    };
    let t0 = Instant::now();
    let mut cells = Vec::new();
    let mut prints: Vec<u64> = Vec::new();
    let mut events = 0;
    let mut severed = 0;
    let mut negative_witness_seeds = Vec::new();
    for &heal in heal_grid {
        let reports = runner.sweep(&KsetScenario, &spec_at(heal), 0..seeds_per_cell);
        let mut cell = HealCell {
            heal,
            runs: 0,
            passes: 0,
            min_deciders: u64::MAX,
            events: 0,
            severed: 0,
        };
        for rep in reports {
            let deciders = rep.trace.deciders().len() as u64;
            cell.runs += 1;
            cell.passes += rep.check.ok as u64;
            cell.min_deciders = cell.min_deciders.min(deciders);
            cell.events += rep.metrics.events;
            cell.severed += rep.trace.counter(fd_sim::counter::PARTITIONED);
            if heal > horizon.ticks()
                && negative_witness_seeds.len() < MAX_NEGATIVE_WITNESSES
                && !rep.check.ok
                && deciders == (n - 1) as u64
            {
                negative_witness_seeds.push(rep.seed());
            }
            prints.push(rep.fingerprint());
        }
        events += cell.events;
        severed += cell.severed;
        cells.push(cell);
    }
    let wall_us = (t0.elapsed().as_micros() as u64).max(1);
    // Determinism gate: the partitioned grid reruns bit-identically.
    let mut reprints: Vec<u64> = Vec::new();
    for &heal in heal_grid {
        for rep in runner.sweep(&KsetScenario, &spec_at(heal), 0..seeds_per_cell) {
            reprints.push(rep.fingerprint());
        }
    }
    let deterministic = prints == reprints;
    // None-differential gate: the unset schedule draws nothing.
    let none_identical = {
        let base = kset_config(5, 2, 2)
            .gst(Time(400))
            .crashes(CrashPlan::Anarchic { by: Time(400) });
        (0..4).all(|seed| {
            let spec = base.with_seed(seed);
            let explicit = spec.clone().topology(TopologySchedule::None);
            KsetScenario.run(&spec).fingerprint() == KsetScenario.run(&explicit).fingerprint()
        })
    };
    // Churn probe: the joiner comes up *inside* the partition; catch-up's
    // retry loop must carry it across the heal.
    let churn_fp = FailurePattern::builder(6)
        .crash(ProcessId(1), Time(100))
        .join(ProcessId(5), Time(600))
        .build();
    let churn_islands: Vec<PSet> = vec![
        (0..5).map(ProcessId).collect(),
        (5..6).map(ProcessId).collect(),
    ];
    let churn_base = ChurnKsetScenario::spec(6, 2, 1)
        .gst(Time(300))
        .max_time(Time(60_000))
        .crashes(CrashPlan::Explicit(churn_fp))
        .topology(TopologySchedule::partition_until(
            churn_islands,
            Time(1_200),
        ));
    let churn_partition_live = (0..seeds_per_cell.clamp(1, 4)).all(|seed| {
        let rep = ChurnKsetScenario.run(&churn_base.with_seed(seed));
        rep.check.ok
            && rep.trace.deciders().contains(ProcessId(5))
            && rep.trace.counter(fd_sim::counter::PARTITIONED) > 0
    });
    let liveness_flip =
        cells.first().is_some_and(|c| c.passes > 0) && cells.last().is_some_and(|c| c.passes == 0);
    let runs: u64 = cells.iter().map(|c| c.runs).sum();
    let passes: u64 = cells.iter().map(|c| c.passes).sum();
    TopologyLeg {
        schedule: spec_at(heal_grid[0]).topology.describe(),
        runs,
        passes,
        events,
        severed,
        wall_us,
        runs_per_sec: runs as f64 / (wall_us as f64 / 1e6),
        deterministic,
        none_identical,
        churn_partition_live,
        liveness_flip,
        negative_witness_seeds,
        cells,
    }
}

/// Verdict of [`check_baseline`].
#[derive(Clone, Debug, PartialEq)]
pub enum BaselineVerdict {
    /// Throughput is within the allowed envelope of the baseline, or the
    /// comparison was skipped as not like-for-like (the message says
    /// which).
    Ok(String),
    /// Throughput regressed beyond the allowed envelope.
    Regressed(String),
}

/// Compares this report's `runs_per_sec` against a committed
/// `BENCH_sweep.json` baseline. Only like-for-like runs are gated: if the
/// thread counts differ, the comparison is skipped (thread scaling is
/// nowhere near linear on SMT CI runners, so normalizing per thread would
/// manufacture spurious failures). Returns
/// [`BaselineVerdict::Regressed`] when the current rate falls more than
/// `max_regression_pct` percent below the baseline's.
pub fn check_baseline(
    report: &SweepBenchReport,
    baseline_json: &str,
    max_regression_pct: u64,
) -> BaselineVerdict {
    let Some(base_rate) = json_number(baseline_json, "runs_per_sec") else {
        return BaselineVerdict::Ok("baseline has no runs_per_sec field; skipping".into());
    };
    let base_threads = json_number(baseline_json, "threads")
        .unwrap_or(1.0)
        .max(1.0);
    if base_threads as usize != report.threads {
        return BaselineVerdict::Ok(format!(
            "baseline ran on {} thread(s), this report on {}; not like-for-like, skipping",
            base_threads, report.threads
        ));
    }
    let floor = base_rate * (100 - max_regression_pct.min(100)) as f64 / 100.0;
    let msg = format!(
        "current {:.1} runs/s vs baseline {:.1} on {} thread(s) (floor {:.1}, allowed regression {}%)",
        report.runs_per_sec, base_rate, report.threads, floor, max_regression_pct
    );
    if report.runs_per_sec < floor {
        BaselineVerdict::Regressed(msg)
    } else {
        BaselineVerdict::Ok(msg)
    }
}

/// Extracts the first top-level `"key": <number>` from the (flat,
/// fully-controlled) JSON this module itself writes. Not a JSON parser —
/// just enough for the regression gate, with no external crates available.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The single cell [`streaming_sweep`] drives, public for the same
/// manifest-registration reason as [`grid_cells`].
pub fn stream_cell() -> (String, ScenarioSpec) {
    let (n, t, k, f) = (5, 2, 2, 2);
    let spec = kset_config(n, t, k)
        .gst(Time(400))
        .crashes(CrashPlan::Random { f, by: Time(500) });
    (format!("n{n}_t{t}_k{k}_f{f}"), spec)
}

/// Streams `seeds` runs of one representative crashy cell (`n5_t2_k2_f2`)
/// through [`Runner::sweep_fold`]. Memory stays `O(threads)` full reports
/// regardless of `seeds`, which is the point: this is the million-seed mode
/// the eager sweep cannot afford.
pub fn streaming_sweep(seeds: u64, runner: Runner) -> StreamResult {
    let (label, spec) = stream_cell();
    let t0 = Instant::now();
    let summary = runner.sweep_summary(&KsetScenario, &spec, 0..seeds);
    let wall_us = (t0.elapsed().as_micros() as u64).max(1);
    StreamResult {
        cell: label,
        runs: summary.runs,
        passes: summary.passes,
        events: summary.total_events,
        wall_us,
        runs_per_sec: summary.runs as f64 / (wall_us as f64 / 1e6),
    }
}

impl SweepBenchReport {
    /// Attaches a streaming demonstration to the report (builder style).
    pub fn with_stream(mut self, stream: StreamResult) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Attaches a report-cache leg to the report (builder style).
    pub fn with_cache_leg(mut self, cache: CacheLeg) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a durable-store leg to the report (builder style).
    pub fn with_store_leg(mut self, store: StoreLeg) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches an adversary leg to the report (builder style).
    pub fn with_adversary_leg(mut self, leg: AdversaryLeg) -> Self {
        self.adversary_leg = Some(leg);
        self
    }

    /// Attaches the topology (partition phase-diagram) leg.
    pub fn with_topology_leg(mut self, leg: TopologyLeg) -> Self {
        self.topology_leg = Some(leg);
        self
    }

    /// Attaches an `n`-scaling curve to the report (builder style).
    pub fn with_scaling(mut self, scaling: ScalingCurve) -> Self {
        self.scaling = Some(scaling);
        self
    }

    /// A deterministic digest of the grid results (cells + stream): two
    /// invocations that produced bit-identical sweeps render the same
    /// digest, so CI can diff the `grid_digest` line between a cold store
    /// run and its resume. Rendered as hex in the JSON (a raw u64 would be
    /// mangled by f64-based readers).
    pub fn grid_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for c in &self.cells {
            c.label.hash(&mut h);
            (c.runs, c.passes, c.events, c.msgs).hash(&mut h);
        }
        if let Some(st) = &self.stream {
            st.cell.hash(&mut h);
            (st.runs, st.passes, st.events).hash(&mut h);
        }
        h.finish()
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"grid_sweep\",\n");
        s.push_str("  \"scenario\": \"kset_omega\",\n");
        s.push_str(&format!("  \"adversary\": \"{}\",\n", self.adversary));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"total_runs\": {},\n", self.total_runs));
        s.push_str(&format!("  \"total_passes\": {},\n", self.total_passes));
        s.push_str(&format!("  \"total_events\": {},\n", self.total_events));
        s.push_str(&format!("  \"wall_us\": {},\n", self.wall_us));
        s.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        s.push_str(&format!("  \"runs_per_sec\": {:.2},\n", self.runs_per_sec));
        s.push_str(&format!(
            "  \"events_per_sec\": {:.2},\n",
            self.events_per_sec
        ));
        s.push_str(&format!(
            "  \"grid_digest\": \"{:016x}\",\n",
            self.grid_digest()
        ));
        if let Some(st) = &self.stream {
            s.push_str(&format!(
                "  \"stream\": {{\"cell\": \"{}\", \"runs\": {}, \"passes\": {}, \"events\": {}, \"wall_us\": {}, \"runs_per_sec\": {:.2}}},\n",
                st.cell, st.runs, st.passes, st.events, st.wall_us, st.runs_per_sec
            ));
        }
        if let Some(c) = &self.cache {
            s.push_str(&format!(
                "  \"cache\": {{\"cold_runs\": {}, \"warm_runs\": {}, \"hits\": {}, \"misses\": {}, \
                 \"identical\": {}, \"cold_wall_us\": {}, \"warm_wall_us\": {}}},\n",
                c.cold_runs,
                c.warm_runs,
                c.hits,
                c.misses,
                c.identical,
                c.cold_wall_us,
                c.warm_wall_us,
            ));
        }
        if let Some(st) = &self.store {
            s.push_str(&format!(
                "  \"store\": {{\"cold_runs\": {}, \"cold_wall_us\": {}, \"wrote\": {}, \
                 \"open_wall_us\": {}, \"hydrated\": {}, \"warm_runs\": {}, \"warm_hits\": {}, \
                 \"warm_misses\": {}, \"warm_wall_us\": {}, \"identical\": {}, \"speedup\": {:.1}}},\n",
                st.cold_runs,
                st.cold_wall_us,
                st.wrote,
                st.open_wall_us,
                st.hydrated,
                st.warm_runs,
                st.warm_hits,
                st.warm_misses,
                st.warm_wall_us,
                st.identical,
                st.speedup,
            ));
        }
        if let Some(leg) = &self.adversary_leg {
            s.push_str(&format!(
                "  \"adversary_leg\": {{\"adversary\": \"{}\", \"drop_pct\": {}, \"dup_pct\": {}, \
                 \"runs\": {}, \"passes\": {}, \"events\": {}, \"dropped\": {}, \"duplicated\": {}, \
                 \"wall_us\": {}, \"runs_per_sec\": {:.2}, \"deterministic\": {}, \
                 \"none_identical\": {}, \"churn_catchup_live\": {}, \"churn_safety_only\": {}}},\n",
                leg.adversary,
                leg.drop_pct,
                leg.dup_pct,
                leg.runs,
                leg.passes,
                leg.events,
                leg.dropped,
                leg.duplicated,
                leg.wall_us,
                leg.runs_per_sec,
                leg.deterministic,
                leg.none_identical,
                leg.churn_catchup_live,
                leg.churn_safety_only,
            ));
            s.push_str("  \"adversary_cells\": [\n");
            for (i, c) in leg.cells.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"label\": \"{}\", \"runs\": {}, \"passes\": {}, \"events\": {}, \"msgs\": {}}}{}\n",
                    c.label,
                    c.runs,
                    c.passes,
                    c.events,
                    c.msgs,
                    if i + 1 == leg.cells.len() { "" } else { "," }
                ));
            }
            s.push_str("  ],\n");
        }
        if let Some(leg) = &self.topology_leg {
            s.push_str(&format!(
                "  \"topology_leg\": {{\"schedule\": \"{}\", \"runs\": {}, \"passes\": {}, \
                 \"events\": {}, \"severed\": {}, \"wall_us\": {}, \"runs_per_sec\": {:.2}, \
                 \"deterministic\": {}, \"none_identical\": {}, \"churn_partition_live\": {}, \
                 \"liveness_flip\": {}, \"negative_witness_seeds\": [{}]}},\n",
                leg.schedule,
                leg.runs,
                leg.passes,
                leg.events,
                leg.severed,
                leg.wall_us,
                leg.runs_per_sec,
                leg.deterministic,
                leg.none_identical,
                leg.churn_partition_live,
                leg.liveness_flip,
                leg.negative_witness_seeds
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ));
            s.push_str("  \"topology_cells\": [\n");
            for (i, c) in leg.cells.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"heal\": {}, \"runs\": {}, \"passes\": {}, \"min_deciders\": {}, \
                     \"events\": {}, \"severed\": {}}}{}\n",
                    c.heal,
                    c.runs,
                    c.passes,
                    c.min_deciders,
                    c.events,
                    c.severed,
                    if i + 1 == leg.cells.len() { "" } else { "," }
                ));
            }
            s.push_str("  ],\n");
        }
        if let Some(sc) = &self.scaling {
            s.push_str(&format!(
                "  \"scaling\": {{\"ns\": [{}], \"seeds_per_cell\": {}, \"points\": [\n",
                sc.ns
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                sc.seeds_per_cell,
            ));
            for (i, p) in sc.points.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"n\": {}, \"t\": {}, \"runs\": {}, \"passes\": {}, \"events\": {}, \
                     \"msgs\": {}, \"wall_us\": {}, \"events_per_sec\": {:.2}}}{}\n",
                    p.n,
                    p.t,
                    p.runs,
                    p.passes,
                    p.events,
                    p.msgs,
                    p.wall_us,
                    p.events_per_sec,
                    if i + 1 == sc.points.len() { "" } else { "," }
                ));
            }
            s.push_str("  ]},\n");
        }
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"label\": \"{}\", \"runs\": {}, \"passes\": {}, \"events\": {}, \"msgs\": {}}}{}\n",
                c.label,
                c.runs,
                c.passes,
                c.events,
                c.msgs,
                if i + 1 == self.cells.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_passes_and_serializes() {
        let rep = representative_sweep(2, Runner::parallel())
            .with_stream(streaming_sweep(32, Runner::parallel()));
        assert_eq!(rep.total_runs, rep.cells.len() as u64 * 2);
        assert_eq!(
            rep.total_passes, rep.total_runs,
            "grid cell failed its spec"
        );
        assert!(rep.total_events > 0);
        assert!(rep.wall_us >= 1);
        assert!(rep.wall_ms >= 1);
        let json = rep.to_json();
        assert!(json.contains("\"runs_per_sec\""));
        assert!(json.contains("\"wall_us\""));
        assert!(json.contains("\"stream\""));
        assert!(json.contains("n5_t2_k1_f0"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn cache_leg_hits_and_stays_identical() {
        let leg = cache_leg(2, Runner::parallel());
        assert!(leg.identical, "warm summaries diverged from cold");
        assert_eq!(leg.cold_runs, leg.warm_runs);
        assert_eq!(
            leg.hits, leg.warm_runs,
            "every warm run must be served from the cache"
        );
        assert_eq!(leg.misses, leg.cold_runs);
        let json = representative_sweep(1, Runner::sequential())
            .with_cache_leg(leg)
            .to_json();
        assert!(json.contains("\"cache\": {"));
        assert!(json.contains("\"identical\": true"));
    }

    #[test]
    fn store_leg_resumes_all_hits_and_identical() {
        let dir = std::env::temp_dir().join(format!("fd-store-leg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let leg = store_leg(2, Runner::parallel(), &dir).unwrap();
        assert!(leg.identical, "warm summaries diverged from cold");
        assert_eq!(leg.cold_runs, leg.warm_runs);
        assert_eq!(leg.wrote, leg.cold_runs, "every cold run must persist");
        assert_eq!(leg.hydrated, leg.cold_runs, "every cell must hydrate");
        assert_eq!(leg.warm_hits, leg.warm_runs, "resume must be all hits");
        assert_eq!(leg.warm_misses, 0, "resume must recompute nothing");
        let json = representative_sweep(1, Runner::sequential())
            .with_store_leg(leg)
            .to_json();
        assert!(json.contains("\"store\": {"));
        assert!(json.contains("\"warm_misses\": 0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_digest_tracks_results_not_timing() {
        let a = representative_sweep(2, Runner::sequential());
        let b = representative_sweep(2, Runner::parallel());
        assert_eq!(
            a.grid_digest(),
            b.grid_digest(),
            "digest must ignore wall time and thread count"
        );
        let c = representative_sweep(1, Runner::sequential());
        assert_ne!(a.grid_digest(), c.grid_digest());
        let digest_line = format!("\"grid_digest\": \"{:016x}\"", a.grid_digest());
        assert!(a.to_json().contains(&digest_line));
    }

    #[test]
    fn main_grid_records_the_empty_adversary() {
        let rep = representative_sweep(1, Runner::sequential());
        assert_eq!(rep.adversary, "none");
        assert!(rep.to_json().contains("\"adversary\": \"none\""));
    }

    #[test]
    fn adversary_leg_gates_hold() {
        let leg = adversary_leg(1, Runner::parallel(), 10, 10);
        assert!(leg.deterministic, "adversary grid not deterministic");
        assert!(leg.none_identical, "None-differential failed");
        assert!(leg.churn_catchup_live, "churn+catch-up lost liveness");
        assert!(leg.churn_safety_only, "bare churn not safety-only");
        assert!(leg.dropped > 0, "drop rules never fired");
        assert!(leg.duplicated > 0, "dup rules never fired");
        assert_eq!(leg.adversary, "drop10+dup10");
        let json = representative_sweep(1, Runner::sequential())
            .with_adversary_leg(leg)
            .to_json();
        assert!(json.contains("\"adversary_leg\""));
        assert!(json.contains("\"churn_catchup_live\": true"));
        assert!(json.contains("adv_n65_t32_k2_f0"));
    }

    #[test]
    fn topology_leg_gates_hold_and_the_diagram_flips() {
        let leg = topology_leg(1, Runner::parallel());
        assert!(leg.deterministic, "partitioned grid not deterministic");
        assert!(leg.none_identical, "None-differential failed");
        assert!(leg.churn_partition_live, "partition-during-join wedged");
        assert!(leg.liveness_flip, "phase diagram never flipped");
        assert!(leg.severed > 0, "partition never severed a message");
        // Seed 0's Ω leader sits in the mainland, so the past-horizon
        // cell records it as an honest negative witness: liveness
        // rejected with the four mainland deciders in safe agreement.
        // Every mainland-leader seed at that heal qualifies, in seed
        // order, up to the cap.
        assert_eq!(leg.negative_witness_seeds.first(), Some(&0));
        assert!(
            leg.negative_witness_seeds.len() <= MAX_NEGATIVE_WITNESSES,
            "witness list must honor the cap"
        );
        assert!(
            leg.negative_witness_seeds.windows(2).all(|w| w[0] < w[1]),
            "witnesses must be recorded in seed order"
        );
        let last = leg.cells.last().unwrap();
        assert_eq!(last.passes, 0, "past-horizon heal must fail");
        assert_eq!(last.min_deciders, 4, "mainland decides alone");
        let json = representative_sweep(1, Runner::sequential())
            .with_topology_leg(leg)
            .to_json();
        assert!(json.contains("\"topology_leg\""));
        assert!(json.contains("\"liveness_flip\": true"));
        assert!(json.contains("\"negative_witness_seeds\": [0"));
        assert!(json.contains("{\"heal\": 200,"));
    }

    #[test]
    fn scaling_curve_measures_and_serializes() {
        let sc = scaling_curve(&[5, 9], 1, Runner::parallel());
        assert_eq!(sc.ns, vec![5, 9]);
        assert_eq!(sc.points.len(), 2);
        for p in &sc.points {
            assert_eq!(p.runs, 1);
            assert_eq!(p.passes, p.runs, "n={} failed its spec", p.n);
            assert!(p.events > 0);
            assert!(p.events_per_sec > 0.0);
            assert_eq!(p.t, (p.n - 1) / 2);
        }
        // More processes, more simulated work.
        assert!(sc.points[1].events > sc.points[0].events);
        let json = representative_sweep(1, Runner::sequential())
            .with_scaling(sc)
            .to_json();
        assert!(json.contains("\"scaling\": {\"ns\": [5, 9]"));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"n\": 9"));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PROCESSES")]
    fn scaling_curve_rejects_oversized_n() {
        scaling_curve(&[fd_sim::MAX_PROCESSES + 1], 1, Runner::sequential());
    }

    #[test]
    fn baseline_gate_accepts_and_rejects() {
        let rep = representative_sweep(1, Runner::sequential());
        // Against itself: always within the envelope.
        match check_baseline(&rep, &rep.to_json(), 30) {
            BaselineVerdict::Ok(_) => {}
            BaselineVerdict::Regressed(msg) => panic!("self-comparison regressed: {msg}"),
        }
        // Against an impossibly fast baseline: must reject.
        let fast = format!(
            "{{\n  \"threads\": 1,\n  \"runs_per_sec\": {:.2},\n  \"events_per_sec\": 1.0\n}}\n",
            rep.runs_per_sec * 1e6
        );
        assert!(matches!(
            check_baseline(&rep, &fast, 30),
            BaselineVerdict::Regressed(_)
        ));
        // A baseline without the field is skipped, not failed.
        assert!(matches!(
            check_baseline(&rep, "{}", 30),
            BaselineVerdict::Ok(_)
        ));
        // A baseline from a different thread count is not like-for-like:
        // skipped (thread scaling is not linear), never failed.
        let other_threads = format!(
            "{{\n  \"threads\": 4,\n  \"runs_per_sec\": {:.2}\n}}\n",
            rep.runs_per_sec * 1e6
        );
        match check_baseline(&rep, &other_threads, 30) {
            BaselineVerdict::Ok(msg) => assert!(msg.contains("skipping"), "{msg}"),
            BaselineVerdict::Regressed(msg) => panic!("thread mismatch must skip: {msg}"),
        }
    }

    #[test]
    fn rates_derive_from_the_recorded_duration() {
        let rep = representative_sweep(1, Runner::sequential());
        let secs = rep.wall_us as f64 / 1e6;
        assert!((rep.runs_per_sec - rep.total_runs as f64 / secs).abs() < 1e-6);
        assert!((rep.events_per_sec - rep.total_events as f64 / secs).abs() < 1e-3);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let a = representative_sweep(2, Runner::sequential());
        let b = representative_sweep(2, Runner::with_threads(4));
        assert_eq!(a.total_events, b.total_events);
        assert_eq!(a.total_passes, b.total_passes);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.msgs, cb.msgs, "cell {} diverged", ca.label);
        }
    }

    #[test]
    fn streaming_matches_eager_cell() {
        let spec = kset_config(5, 2, 2)
            .gst(Time(400))
            .crashes(CrashPlan::Random {
                f: 2,
                by: Time(500),
            });
        let eager = SweepSummary::of(&Runner::sequential().sweep(&KsetScenario, &spec, 0..24));
        let st = streaming_sweep(24, Runner::with_threads(4));
        assert_eq!(st.runs, eager.runs);
        assert_eq!(st.passes, eager.passes);
        assert_eq!(st.events, eager.total_events);
    }
}
