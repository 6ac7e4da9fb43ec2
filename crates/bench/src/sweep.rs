//! The counted-results report behind the committed `BENCH_sweep.json`.
//!
//! Five sections, one function each: [`representative_sweep`] (`cells`),
//! [`streaming_sweep`] (`stream`), [`adversary_leg`], [`topology_leg`] and
//! [`scaling_curve`]. Every value in them is a count — runs, passes,
//! events, messages, drops, severed links — or a finding derived from
//! counts, so the whole document is a pure function of `(spec, seed)`:
//! no wall clock, no thread count. That makes the committed file a
//! golden: CI `cmp`s a fresh flagless `sweep` run against it byte for
//! byte, and `golden_sections_match_the_committed_report` does the same
//! in tier-1 for the sections that are cheap in a debug build. Speed is
//! measured elsewhere, by `BENCHMARK.json` and the `benchmark/` package.
//!
//! Cells are summarized via the streaming [`Runner::sweep_summary`], so
//! the grid's memory footprint is `O(threads)` full reports no matter how
//! many seeds run; [`streaming_sweep`] pushes that to ≥100k seeds on a
//! single cell.

use fd_core::KsetScenario;
use fd_detectors::scenario::{
    CrashPlan, MessageAdversary, MessageRule, Runner, Scenario, ScenarioSpec,
};
use fd_grid::ChurnKsetScenario;
use fd_sim::{FailurePattern, PSet, ProcessId, Time, TopologySchedule};

use crate::json::Json;

/// Seeds per cell of the adversary and topology legs, and per churn probe.
const LEG_SEEDS: u64 = 2;

/// Drop and duplication probability (percent) of the adversary leg.
const ADVERSARY_PCT: u8 = 10;

/// The process counts of the committed `scaling` section.
pub const SCALING_NS: [usize; 3] = [256, 512, 1024];

fn num(v: u64) -> Json {
    Json::num_u64(v)
}

fn arr<T>(items: &[T], to_json: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(to_json).collect())
}

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

impl CellResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.clone())),
            ("runs", num(self.runs)),
            ("passes", num(self.passes)),
            ("events", num(self.events)),
            ("msgs", num(self.msgs)),
        ])
    }
}

/// The ≥100k-seed single-cell streaming sweep.
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
}

impl StreamResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cell", Json::str(self.cell.clone())),
            ("runs", num(self.runs)),
            ("passes", num(self.passes)),
            ("events", num(self.events)),
        ])
    }
}

/// The adversary sweep leg: the kset grid under windowed drop/duplicate
/// rules plus the churn catch-up liveness probe.
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
    /// deliberately not expected to be 100%.
    pub passes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Messages the adversary lost.
    pub dropped: u64,
    /// Messages the adversary duplicated.
    pub duplicated: u64,
    /// Finding: every churn + catch-up run passed the liveness envelope
    /// under the adversary.
    pub churn_catchup_live: bool,
    /// Finding: with catch-up disabled the same churn runs are scored by
    /// the safety-only envelope (all pass on those terms, no liveness
    /// claimed) and at least one seed witnesses the late joiner never
    /// deciding — the hole the catch-up layer exists to close.
    pub churn_safety_only: bool,
    /// Per-cell results.
    pub cells: Vec<CellResult>,
}

impl AdversaryLeg {
    fn to_json(&self) -> Json {
        Json::obj([
            ("adversary", Json::str(self.adversary.clone())),
            ("drop_pct", num(self.drop_pct.into())),
            ("dup_pct", num(self.dup_pct.into())),
            ("runs", num(self.runs)),
            ("passes", num(self.passes)),
            ("events", num(self.events)),
            ("dropped", num(self.dropped)),
            ("duplicated", num(self.duplicated)),
            ("churn_catchup_live", Json::Bool(self.churn_catchup_live)),
            ("churn_safety_only", Json::Bool(self.churn_safety_only)),
        ])
    }
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

impl HealCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("heal", num(self.heal)),
            ("runs", num(self.runs)),
            ("passes", num(self.passes)),
            ("min_deciders", num(self.min_deciders)),
            ("events", num(self.events)),
            ("severed", num(self.severed)),
        ])
    }
}

/// The topology sweep leg: the `{0..n−2} | {n−1}` partition's heal time
/// swept against the termination horizon — a one-axis phase diagram of
/// liveness — plus the partition-during-join churn probe.
#[derive(Clone, Debug)]
pub struct TopologyLeg {
    /// `TopologySchedule::describe()` of the smallest-heal schedule.
    pub schedule: String,
    /// Seeds run across all heal cells.
    pub runs: u64,
    /// Runs that passed the full envelope. This is the phase diagram's
    /// y-axis, deliberately not expected to be 100%: late heals *must*
    /// fail.
    pub passes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Messages severed structurally across the leg.
    pub severed: u64,
    /// Finding: churn + catch-up rides out a partition that isolates the
    /// joiner through its own join instant (heal before the horizon).
    pub churn_partition_live: bool,
    /// Finding: the phase diagram actually flips — the earliest heal cell
    /// has passing runs and the latest (past-horizon) cell has none.
    pub liveness_flip: bool,
    /// Seeds at the past-horizon heal that are honest negative
    /// witnesses: liveness rejected with the mainland (`n − 1` deciders)
    /// agreeing safely among themselves. In seed order; empty if no seed
    /// exhibited it (all sampled seeds had the Ω leader inside the cut
    /// island).
    pub negative_witness_seeds: Vec<u64>,
    /// Per-heal cells, in sweep order (ascending heal).
    pub cells: Vec<HealCell>,
}

impl TopologyLeg {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schedule", Json::str(self.schedule.clone())),
            ("runs", num(self.runs)),
            ("passes", num(self.passes)),
            ("events", num(self.events)),
            ("severed", num(self.severed)),
            (
                "churn_partition_live",
                Json::Bool(self.churn_partition_live),
            ),
            ("liveness_flip", Json::Bool(self.liveness_flip)),
            (
                "negative_witness_seeds",
                arr(&self.negative_witness_seeds, |&s| num(s)),
            ),
        ])
    }
}

/// The whole report: one field per section, built whole.
#[derive(Clone, Debug)]
pub struct SweepBenchReport {
    /// The main grid, adversary-free ([`representative_sweep`]).
    pub cells: Vec<CellResult>,
    /// The single-cell streaming sweep.
    pub stream: StreamResult,
    /// The adversary leg.
    pub adversary_leg: AdversaryLeg,
    /// The topology (partition phase-diagram) leg.
    pub topology_leg: TopologyLeg,
    /// The events-vs-`n` curve.
    pub scaling: ScalingCurve,
}

/// The grid the sweep covers: `(n, t)` scales × `k` × crash count. Public
/// so the sweep bin can register the specs in a run directory's manifest.
pub fn grid_cells(seeds_per_cell: u64) -> Vec<(String, ScenarioSpec, u64)> {
    let mut cells = Vec::new();
    for &(n, t) in &[(5usize, 2usize), (7, 3), (9, 4)] {
        for k in [1usize, 2] {
            for &f in &[0usize, t] {
                let label = format!("n{n}_t{t}_k{k}_f{f}");
                let spec = KsetScenario::spec(n, t, k)
                    .gst(Time(400))
                    .crashes(CrashPlan::Random { f, by: Time(500) });
                cells.push((label, spec, seeds_per_cell));
            }
        }
    }
    cells
}

/// Runs the main grid. Each cell is folded into a `SweepSummary` as its
/// runs finish — no per-run report outlives its cell's fold frontier.
pub fn representative_sweep(seeds_per_cell: u64, runner: Runner) -> Vec<CellResult> {
    grid_cells(seeds_per_cell)
        .into_iter()
        .map(|(label, spec, seeds)| {
            let summary = runner.sweep_summary(&KsetScenario, &spec, 0..seeds);
            CellResult {
                label,
                runs: summary.runs,
                passes: summary.passes,
                events: summary.total_events,
                msgs: summary.total_msgs,
            }
        })
        .collect()
}

/// One point of the events-vs-`n` scaling curve.
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
}

impl ScalePoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", num(self.n as u64)),
            ("t", num(self.t as u64)),
            ("runs", num(self.runs)),
            ("passes", num(self.passes)),
            ("events", num(self.events)),
            ("msgs", num(self.msgs)),
        ])
    }
}

/// The `n`-scaling leg: the same failure-free `k = 2` cell at every size
/// in `ns`, one seed each, so `BENCH_sweep.json` carries an events-vs-`n`
/// curve into the arena/bitset frontier (`n` up to
/// [`fd_sim::MAX_PROCESSES`]).
#[derive(Clone, Debug)]
pub struct ScalingCurve {
    /// The process counts run, in order.
    pub ns: Vec<usize>,
    /// Seeds per size.
    pub seeds_per_cell: u64,
    /// One point per entry of `ns`.
    pub points: Vec<ScalePoint>,
}

impl ScalingCurve {
    fn to_json(&self) -> Json {
        Json::obj([
            ("ns", arr(&self.ns, |&n| num(n as u64))),
            ("seeds_per_cell", num(self.seeds_per_cell)),
            ("points", arr(&self.points, ScalePoint::to_json)),
        ])
    }
}

/// Runs the events-vs-`n` scaling curve at the sizes in `ns`
/// ([`SCALING_NS`] for the committed report), one seed per size.
///
/// Failure-free (crashes change the workload shape per size, which would
/// confound the curve), `k = 2`, maximal `t`. Every run's spec check still
/// applies — a silent wrong answer at `n = 1024` shows up as a failed
/// pass, not as a plausible count.
///
/// # Panics
///
/// Panics if any `n` exceeds [`fd_sim::MAX_PROCESSES`].
pub fn scaling_curve(ns: &[usize], runner: Runner) -> ScalingCurve {
    let seeds_per_cell = 1;
    let mut points = Vec::with_capacity(ns.len());
    for &n in ns {
        assert!(
            n <= fd_sim::MAX_PROCESSES,
            "scaling point n={n} exceeds MAX_PROCESSES={}",
            fd_sim::MAX_PROCESSES
        );
        let t = (n - 1) / 2;
        // A short GST: every pre-GST tick buys another O(n²)-message
        // round of churn — at n = 1024 the standard gst = 400 alone is
        // tens of millions of events before the oracle even lets anyone
        // decide.
        let spec = KsetScenario::spec(n, t, 2).gst(Time(100));
        let summary = runner.sweep_summary(&KsetScenario, &spec, 0..seeds_per_cell);
        points.push(ScalePoint {
            n,
            t,
            runs: summary.runs,
            passes: summary.passes,
            events: summary.total_events,
            msgs: summary.total_msgs,
        });
    }
    ScalingCurve {
        ns: ns.to_vec(),
        seeds_per_cell,
        points,
    }
}

/// The churn probe both legs attack: six processes, one early crash (so
/// the quorum keeps slack) and process 5 joining late, at tick 600.
fn churn_probe_spec() -> ScenarioSpec {
    let fp = FailurePattern::builder(6)
        .crash(ProcessId(1), Time(100))
        .join(ProcessId(5), Time(600))
        .build();
    ChurnKsetScenario::spec(6, 2, 1)
        .gst(Time(300))
        .max_time(Time(60_000))
        .crashes(CrashPlan::Explicit(fp))
}

/// Runs the adversary sweep leg:
///
/// * the `(n, t, k)` grid — larger scales included, up to `n = 65` — under
///   a pre-GST drop/duplicate adversary, recording the pass-rate
///   degradation curve (uniform drops are outside the algorithm's
///   liveness tolerance by design, so 100% is *not* expected);
/// * the churn probe: churn + catch-up under the adversary must pass the
///   liveness envelope, and the same runs without catch-up must stay
///   safety-only (late joiner undecided).
pub fn adversary_leg(runner: Runner) -> AdversaryLeg {
    let gst = Time(400);
    let adv = MessageAdversary::Rules(vec![
        MessageRule::drop(ADVERSARY_PCT).window(Time::ZERO, gst),
        MessageRule::duplicate(ADVERSARY_PCT).window(Time::ZERO, gst),
    ]);
    let mut cells = Vec::new();
    let mut dropped = 0;
    let mut duplicated = 0;
    for (n, t) in [(5, 2), (9, 4), (17, 8), (33, 16), (65, 32)] {
        // Failure-free: crashes would eat the quorum slack that lets
        // the window's permanent losses be absorbed at all.
        let spec = KsetScenario::spec(n, t, 2)
            .gst(gst)
            .adversary(adv.clone())
            .crashes(CrashPlan::None);
        let mut cell = CellResult {
            label: format!("adv_n{n}_t{t}_k2_f0"),
            runs: 0,
            passes: 0,
            events: 0,
            msgs: 0,
        };
        for rep in runner.sweep(&KsetScenario, &spec, 0..LEG_SEEDS) {
            cell.runs += 1;
            cell.passes += rep.check.ok as u64;
            cell.events += rep.metrics.events;
            cell.msgs += rep.metrics.msgs_sent;
            dropped += rep.trace.counter(fd_sim::counter::DROPPED);
            duplicated += rep.trace.counter(fd_sim::counter::DUPLICATED);
        }
        cells.push(cell);
    }
    // Churn probe: quorum slack (one crash < t) + a drop window closing at
    // the join, the configuration whose liveness the catch-up layer
    // restores (see fd_grid::churn for the boundary discussion).
    let churn_base = churn_probe_spec().adversary(MessageAdversary::Rules(vec![
        MessageRule::drop(ADVERSARY_PCT).window(Time::ZERO, Time(600)),
        MessageRule::duplicate(ADVERSARY_PCT).window(Time::ZERO, Time(1_200)),
    ]));
    let mut churn_catchup_live = true;
    let mut bare_all_safe = true;
    let mut stuck_joiner_witnessed = false;
    for seed in 0..LEG_SEEDS {
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
    AdversaryLeg {
        adversary: adv.describe(),
        drop_pct: ADVERSARY_PCT,
        dup_pct: ADVERSARY_PCT,
        runs: cells.iter().map(|c| c.runs).sum(),
        passes: cells.iter().map(|c| c.passes).sum(),
        events: cells.iter().map(|c| c.events).sum(),
        dropped,
        duplicated,
        churn_catchup_live,
        churn_safety_only: bare_all_safe && stuck_joiner_witnessed,
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
/// (heal = 2 × horizon) therefore *must* fail — its mainland-leader seeds
/// are recorded as the negative witnesses (liveness honestly rejected
/// with `n − 1` deciders in safe agreement).
///
/// Findings: the churn probe (catch-up rides out a partition that
/// isolates a joiner through its join instant) and the liveness flip
/// itself.
pub fn topology_leg(runner: Runner) -> TopologyLeg {
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
        KsetScenario::spec(n, 2, 2)
            .gst(Time(400))
            .max_time(horizon)
            .topology(TopologySchedule::partition_until(islands(), Time(heal)))
    };
    let mut cells = Vec::new();
    let mut negative_witness_seeds = Vec::new();
    for &heal in heal_grid {
        let mut cell = HealCell {
            heal,
            runs: 0,
            passes: 0,
            min_deciders: u64::MAX,
            events: 0,
            severed: 0,
        };
        for rep in runner.sweep(&KsetScenario, &spec_at(heal), 0..LEG_SEEDS) {
            let deciders = rep.trace.deciders().len() as u64;
            cell.runs += 1;
            cell.passes += rep.check.ok as u64;
            cell.min_deciders = cell.min_deciders.min(deciders);
            cell.events += rep.metrics.events;
            cell.severed += rep.trace.counter(fd_sim::counter::PARTITIONED);
            if heal > horizon.ticks() && !rep.check.ok && deciders == (n - 1) as u64 {
                negative_witness_seeds.push(rep.seed());
            }
        }
        cells.push(cell);
    }
    // Churn probe: the joiner comes up *inside* the partition; catch-up's
    // retry loop must carry it across the heal.
    let churn_islands: Vec<PSet> = vec![
        (0..5).map(ProcessId).collect(),
        (5..6).map(ProcessId).collect(),
    ];
    let churn_base = churn_probe_spec().topology(TopologySchedule::partition_until(
        churn_islands,
        Time(1_200),
    ));
    let churn_partition_live = (0..LEG_SEEDS).all(|seed| {
        let rep = ChurnKsetScenario.run(&churn_base.with_seed(seed));
        rep.check.ok
            && rep.trace.deciders().contains(ProcessId(5))
            && rep.trace.counter(fd_sim::counter::PARTITIONED) > 0
    });
    let liveness_flip =
        cells.first().is_some_and(|c| c.passes > 0) && cells.last().is_some_and(|c| c.passes == 0);
    TopologyLeg {
        schedule: spec_at(heal_grid[0]).topology.describe(),
        runs: cells.iter().map(|c| c.runs).sum(),
        passes: cells.iter().map(|c| c.passes).sum(),
        events: cells.iter().map(|c| c.events).sum(),
        severed: cells.iter().map(|c| c.severed).sum(),
        churn_partition_live,
        liveness_flip,
        negative_witness_seeds,
        cells,
    }
}

/// The single cell [`streaming_sweep`] drives, public for the same
/// manifest-registration reason as [`grid_cells`].
pub fn stream_cell() -> (String, ScenarioSpec) {
    let (n, t, k, f) = (5, 2, 2, 2);
    let spec = KsetScenario::spec(n, t, k)
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
    let summary = runner.sweep_summary(&KsetScenario, &spec, 0..seeds);
    StreamResult {
        cell: label,
        runs: summary.runs,
        passes: summary.passes,
        events: summary.total_events,
    }
}

impl SweepBenchReport {
    /// Total runs across the main grid's cells.
    pub fn total_runs(&self) -> u64 {
        self.cells.iter().map(|c| c.runs).sum()
    }

    /// Main-grid runs whose spec check passed.
    pub fn total_passes(&self) -> u64 {
        self.cells.iter().map(|c| c.passes).sum()
    }

    /// Simulator events processed across the main grid.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// The report as a JSON value, one member per section. `adversary` is
    /// the main grid's (always `"none"`: the grid is the clean baseline;
    /// attacked runs live in the adversary leg).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str("grid_sweep")),
            ("scenario", Json::str("kset_omega")),
            ("adversary", Json::str(MessageAdversary::None.describe())),
            ("total_runs", num(self.total_runs())),
            ("total_passes", num(self.total_passes())),
            ("total_events", num(self.total_events())),
            ("cells", arr(&self.cells, CellResult::to_json)),
            ("stream", self.stream.to_json()),
            ("adversary_leg", self.adversary_leg.to_json()),
            (
                "adversary_cells",
                arr(&self.adversary_leg.cells, CellResult::to_json),
            ),
            ("topology_leg", self.topology_leg.to_json()),
            (
                "topology_cells",
                arr(&self.topology_leg.cells, HealCell::to_json),
            ),
            ("scaling", self.scaling.to_json()),
        ])
    }

    /// The document written to `BENCH_sweep.json`: canonical (sorted
    /// keys), one top-level section per line.
    pub fn to_json_string(&self) -> String {
        self.to_json().emit_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use fd_detectors::scenario::SweepSummary;

    /// The whole report at a shape small enough for a debug build.
    fn small_report(runner: Runner) -> SweepBenchReport {
        SweepBenchReport {
            cells: representative_sweep(2, runner),
            stream: streaming_sweep(32, runner),
            adversary_leg: adversary_leg(runner),
            topology_leg: topology_leg(runner),
            scaling: scaling_curve(&[5, 9], runner),
        }
    }

    #[test]
    fn sweep_passes_and_serializes() {
        let rep = small_report(Runner::parallel());
        assert_eq!(rep.total_runs(), rep.cells.len() as u64 * 2);
        assert_eq!(
            rep.total_passes(),
            rep.total_runs(),
            "grid cell failed its spec"
        );
        assert!(rep.total_events() > 0);
        let text = rep.to_json_string();
        let doc = json::parse(&text).expect("the report must parse");
        assert_eq!(doc, rep.to_json());
        assert_eq!(
            text.lines().count(),
            doc.as_obj().unwrap().len() + 2,
            "one line per top-level section between the braces"
        );
        assert!(text.contains("n5_t2_k1_f0"));
        for gone in ["wall_", "_per_sec", "threads", "grid_digest", "speedup"] {
            assert!(!text.contains(gone), "{gone} is not a counted result");
        }
    }

    #[test]
    fn report_is_byte_identical_at_every_thread_count() {
        let sequential = small_report(Runner::sequential()).to_json_string();
        for threads in [2, 4] {
            assert_eq!(
                sequential,
                small_report(Runner::with_threads(threads)).to_json_string(),
                "report moved at {threads} threads"
            );
        }
    }

    #[test]
    fn golden_sections_match_the_committed_report() {
        let committed = json::parse(include_str!("../../../BENCH_sweep.json"))
            .expect("the committed report must parse");
        let runner = Runner::parallel();
        let adv = adversary_leg(runner);
        let topo = topology_leg(runner);
        for (section, fresh) in [
            ("adversary_leg", adv.to_json()),
            ("adversary_cells", arr(&adv.cells, CellResult::to_json)),
            ("topology_leg", topo.to_json()),
            ("topology_cells", arr(&topo.cells, HealCell::to_json)),
        ] {
            assert_eq!(
                committed.get(section),
                Some(&fresh),
                "`{section}` moved: re-record BENCH_sweep.json only in a PR that says digests moved"
            );
        }
    }

    #[test]
    fn main_grid_records_the_empty_adversary() {
        let doc = small_report(Runner::sequential()).to_json();
        assert_eq!(doc.get("adversary").and_then(Json::as_str), Some("none"));
    }

    #[test]
    fn adversary_leg_gates_hold() {
        let leg = adversary_leg(Runner::parallel());
        assert!(leg.churn_catchup_live, "churn+catch-up lost liveness");
        assert!(leg.churn_safety_only, "bare churn not safety-only");
        assert!(leg.dropped > 0, "drop rules never fired");
        assert!(leg.duplicated > 0, "dup rules never fired");
        assert_eq!(leg.adversary, "drop10+dup10");
        assert_eq!(leg.cells.last().unwrap().label, "adv_n65_t32_k2_f0");
    }

    #[test]
    fn topology_leg_gates_hold_and_the_diagram_flips() {
        let leg = topology_leg(Runner::parallel());
        assert!(leg.churn_partition_live, "partition-during-join wedged");
        assert!(leg.liveness_flip, "phase diagram never flipped");
        assert!(leg.severed > 0, "partition never severed a message");
        // Seed 0's Ω leader sits in the mainland, so the past-horizon
        // cell records it as an honest negative witness: liveness
        // rejected with the four mainland deciders in safe agreement.
        // Every mainland-leader seed at that heal qualifies, in seed
        // order.
        assert_eq!(leg.negative_witness_seeds.first(), Some(&0));
        assert!(
            leg.negative_witness_seeds.windows(2).all(|w| w[0] < w[1]),
            "witnesses must be recorded in seed order"
        );
        assert_eq!(leg.cells[0].heal, 200);
        let last = leg.cells.last().unwrap();
        assert_eq!(last.passes, 0, "past-horizon heal must fail");
        assert_eq!(last.min_deciders, 4, "mainland decides alone");
    }

    #[test]
    fn scaling_curve_measures_and_serializes() {
        let sc = scaling_curve(&[5, 9], Runner::parallel());
        assert_eq!(sc.ns, vec![5, 9]);
        assert_eq!(sc.points.len(), 2);
        for p in &sc.points {
            assert_eq!(p.runs, 1);
            assert_eq!(p.passes, p.runs, "n={} failed its spec", p.n);
            assert!(p.events > 0);
            assert_eq!(p.t, (p.n - 1) / 2);
        }
        // More processes, more simulated work.
        assert!(sc.points[1].events > sc.points[0].events);
        let json = sc.to_json().emit();
        assert!(json.starts_with(r#"{"ns":[5,9],"points":[{"#), "{json}");
        assert!(json.contains(r#""n":9"#));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PROCESSES")]
    fn scaling_curve_rejects_oversized_n() {
        scaling_curve(&[fd_sim::MAX_PROCESSES + 1], Runner::sequential());
    }

    #[test]
    fn streaming_matches_eager_cell() {
        let spec = KsetScenario::spec(5, 2, 2)
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
