//! The four workloads: what one *repetition* of each runs, and what counts
//! as a correct outcome.
//!
//! A repetition is a fixed, deterministic batch of [`Cell`]s — a scenario,
//! a spec and a range of run seeds — pushed through
//! `Runner::sequential().sweep_fold`. `--seed` shifts the run seeds (and,
//! for `campaign_store`, draws the campaign's numbers); at `--seed 0` the
//! batches are the ones `expected.json` pins count for count. See the
//! README's glossary for why each workload is here.

use crate::campaign::campaign_specs;
use fd_bench::{classify, expects_safety_violation, RunClass};
use fd_core::KsetScenario;
use fd_detectors::scenario::{CrashPlan, Flavour, Runner, Scenario, ScenarioSpec, SlimReport};
use fd_grid::{ChurnKsetScenario, PipelineScenario};
use fd_sim::{FailurePattern, ProcessId, Time};
use fd_transforms::{AdditionScenario, PsiOmegaScenario, Substrate, TwParams, TwoWheelsScenario};
use std::ops::Range;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The historical main grid: 12 small k-set cells × 25 seeds.
    GridSmall,
    /// The scaling-curve cell at n = 128, 2 seeds.
    ScaleN128,
    /// The paper's transformations, run to the horizon.
    TransformsHorizon,
    /// A generated adversary campaign swept into a durable store.
    CampaignStore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GridSmall,
        Workload::ScaleN128,
        Workload::TransformsHorizon,
        Workload::CampaignStore,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in
    /// `expected.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSmall => "grid_small",
            Workload::ScaleN128 => "scale_n128",
            Workload::TransformsHorizon => "transforms_horizon",
            Workload::CampaignStore => "campaign_store",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Warm resumes of the workload's run directory per repetition. Few,
    /// because every resume ends in an untimed `close()` whose manifest
    /// fsync costs wall time the run could spend on repetitions; more
    /// where the directory is tiny (300 / 2 / 44 / 768 cells).
    pub fn resumes_per_rep(self) -> usize {
        match self {
            Workload::GridSmall => 1,
            Workload::ScaleN128 => 4,
            Workload::TransformsHorizon => 2,
            Workload::CampaignStore => 1,
        }
    }

    /// Whether the timed batch itself runs through a spilling cache into a
    /// fresh store (the cold phase of `campaign_store`). The other three
    /// sweep uncached, as the historical grid always did; their run
    /// directory is written once, during set-up.
    pub fn sweeps_into_store(self) -> bool {
        self == Workload::CampaignStore
    }
}

/// Which scenario a cell runs (and which automaton the traced run
/// re-composes for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Figure 3 k-set agreement on `Ω_z`.
    Kset,
    /// Figure 3 under churn, with or without the catch-up layer.
    ChurnKset,
    /// The two-wheels addition `◇S_x + ◇φ_y → Ω_z`.
    TwoWheels,
    /// `Ψ_y → Ω_z`.
    PsiOmega,
    /// Figure 9 addition, message passing, eventual inputs.
    AdditionMp,
    /// Figure 9 addition, shared memory, perpetual inputs.
    AdditionShm,
    /// Two wheels under Figure 3, end to end.
    Pipeline,
}

static KSET: KsetScenario = KsetScenario;
static CHURN: ChurnKsetScenario = ChurnKsetScenario;
static TWO_WHEELS: TwoWheelsScenario = TwoWheelsScenario { throttled: true };
static PSI_OMEGA: PsiOmegaScenario = PsiOmegaScenario;
static ADDITION_MP: AdditionScenario = AdditionScenario {
    substrate: Substrate::MessagePassing,
    flavour: Flavour::Eventual,
};
static ADDITION_SHM: AdditionScenario = AdditionScenario {
    substrate: Substrate::SharedMemory,
    flavour: Flavour::Perpetual,
};
static PIPELINE: PipelineScenario = PipelineScenario;

/// One cell of a batch: every run seed in `seeds` under one spec.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable label, the key into `expected.json`.
    pub label: String,
    /// The scenario the cell runs.
    pub kind: Kind,
    /// The spec (its `seed` field is overwritten per run).
    pub spec: ScenarioSpec,
    /// The run seeds.
    pub seeds: Range<u64>,
}

impl Cell {
    /// The program's scenario object for this cell.
    pub fn scenario(&self) -> &'static dyn Scenario {
        match self.kind {
            Kind::Kset => &KSET,
            Kind::ChurnKset => &CHURN,
            Kind::TwoWheels => &TWO_WHEELS,
            Kind::PsiOmega => &PSI_OMEGA,
            Kind::AdditionMp => &ADDITION_MP,
            Kind::AdditionShm => &ADDITION_SHM,
            Kind::Pipeline => &PIPELINE,
        }
    }

    /// Runs in this cell.
    pub fn runs(&self) -> u64 {
        self.seeds.end - self.seeds.start
    }

    /// Work a run does that `Metrics.events` does not count: the
    /// shared-memory scheduler executes `max_steps` steps and never bumps
    /// the event counter.
    pub fn uncounted_work_per_run(&self) -> u64 {
        match self.kind {
            Kind::AdditionShm => self.spec.max_steps,
            _ => 0,
        }
    }

    /// Whether a run of this cell may end in `class`. Every cell of the
    /// first three workloads sits inside its theorem's envelope and must
    /// pass; a campaign cell may also honestly refuse liveness, and may
    /// break safety only under a live corruption rule.
    pub fn admits(&self, class: RunClass, workload: Workload) -> bool {
        match class {
            RunClass::Pass => true,
            _ if workload != Workload::CampaignStore => false,
            RunClass::LivenessRefusal => true,
            RunClass::Violation => expects_safety_violation(&self.spec),
        }
    }
}

/// First run seed of a batch: `--seed 0` starts at run seed 0 (the
/// historical `0..seeds` ranges), other seeds at disjoint offsets.
fn run_seed_base(seed: u64) -> u64 {
    seed.wrapping_mul(1_000_000) % (1 << 62)
}

/// The batch `workload` repeats at `--seed seed`.
pub fn batch(workload: Workload, seed: u64) -> Vec<Cell> {
    let base = run_seed_base(seed);
    let seeds = |count: u64| base..base + count;
    match workload {
        Workload::GridSmall => grid_small(seeds(25)),
        Workload::ScaleN128 => vec![Cell {
            label: "n128_t63_k2_f0".into(),
            kind: Kind::Kset,
            // The scaling-curve cell: a short GST, because every pre-GST
            // tick buys another O(n²)-message round.
            spec: KsetScenario::spec(128, 63, 2).gst(Time(100)),
            seeds: seeds(2),
        }],
        Workload::TransformsHorizon => transforms_horizon(&seeds),
        Workload::CampaignStore => campaign_specs(seed)
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Cell {
                label: format!("c{i:03}"),
                kind: if matches!(spec.crashes, CrashPlan::Churn { .. }) {
                    Kind::ChurnKset
                } else {
                    Kind::Kset
                },
                spec,
                seeds: seeds(4),
            })
            .collect(),
    }
}

/// The main grid of every past `BENCH_sweep.json`: (n,t) × k × f.
pub fn grid_small(seeds: Range<u64>) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (n, t) in [(5usize, 2usize), (7, 3), (9, 4)] {
        for k in [1usize, 2] {
            for f in [0, t] {
                cells.push(Cell {
                    label: format!("n{n}_t{t}_k{k}_f{f}"),
                    kind: Kind::Kset,
                    spec: KsetScenario::spec(n, t, k)
                        .gst(Time(400))
                        .crashes(CrashPlan::Random { f, by: Time(500) }),
                    seeds: seeds.clone(),
                });
            }
        }
    }
    cells
}

fn one_crash(n: usize, p: usize, at: u64) -> CrashPlan {
    CrashPlan::Explicit(
        FailurePattern::builder(n)
            .crash(ProcessId(p), Time(at))
            .build(),
    )
}

/// The additivity results through their `Scenario` impls, with the
/// geometries and single-crash patterns of the `fig56_two_wheels`,
/// `fig8_psi` and `fig9_addition` benches.
fn transforms_horizon(seeds: &dyn Fn(u64) -> Range<u64>) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (x, y) in [(1usize, 1usize), (2, 0), (2, 1), (3, 0)] {
        let params = TwParams::optimal(5, 2, x, y);
        cells.push(Cell {
            label: format!("two_wheels_x{x}_y{y}_z{}", params.z),
            kind: Kind::TwoWheels,
            spec: TwoWheelsScenario::spec(params)
                .gst(Time(400))
                .max_time(Time(20_000)),
            seeds: seeds(2),
        });
    }
    for (n, t, y, z) in [(5usize, 2usize, 1usize, 2usize), (5, 2, 2, 1), (7, 3, 2, 2)] {
        cells.push(Cell {
            label: format!("psi_omega_n{n}_y{y}_z{z}"),
            kind: Kind::PsiOmega,
            spec: ScenarioSpec::new(n, t)
                .y(y)
                .z(z)
                .crashes(one_crash(n, 0, 100))
                .gst(Time(300))
                .max_time(Time(10_000)),
            seeds: seeds(8),
        });
    }
    cells.push(Cell {
        label: "addition_mp_eventual".into(),
        kind: Kind::AdditionMp,
        spec: ScenarioSpec::new(5, 2)
            .x(2)
            .y(1)
            .crashes(one_crash(5, 2, 200))
            .gst(Time(500))
            .max_time(Time(30_000)),
        seeds: seeds(2),
    });
    cells.push(Cell {
        label: "addition_shm_perpetual".into(),
        kind: Kind::AdditionShm,
        spec: ScenarioSpec::new(4, 1)
            .x(1)
            .y(1)
            .crashes(one_crash(4, 3, 500))
            .max_steps(300_000),
        seeds: seeds(2),
    });
    cells.push(Cell {
        label: "pipeline_x2_y1".into(),
        kind: Kind::Pipeline,
        spec: PipelineScenario::spec(5, 2, 2, 1)
            .gst(Time(400))
            .max_time(Time(150_000)),
        seeds: seeds(8),
    });
    cells
}

/// The per-cell count tuple `expected.json` pins: plain counts, never a
/// digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs folded.
    pub runs: u64,
    /// Runs whose check passed.
    pub passes: u64,
    /// Runs that refused a liveness property.
    pub refusals: u64,
    /// Runs that broke a safety property.
    pub violations: u64,
    /// Σ `Metrics.events`.
    pub events: u64,
    /// Σ `Metrics.msgs_sent`.
    pub msgs: u64,
    /// Σ over runs of Σ distinct decided values.
    pub decided_sum: u64,
}

impl Tally {
    /// Folds one run.
    pub fn absorb(&mut self, slim: &SlimReport) {
        self.runs += 1;
        match classify(&slim.check) {
            RunClass::Pass => self.passes += 1,
            RunClass::LivenessRefusal => self.refusals += 1,
            RunClass::Violation => self.violations += 1,
        }
        self.events += slim.metrics.events;
        self.msgs += slim.metrics.msgs_sent;
        self.decided_sum += slim.metrics.decided_values.iter().sum::<u64>();
    }

    /// Folds a whole tally (for batch totals).
    pub fn add(&mut self, other: &Tally) {
        self.runs += other.runs;
        self.passes += other.passes;
        self.refusals += other.refusals;
        self.violations += other.violations;
        self.events += other.events;
        self.msgs += other.msgs;
        self.decided_sum += other.decided_sum;
    }
}

/// Sweeps `seeds` of one cell through `runner` and tallies them; with
/// `keep`, also returns every run's [`SlimReport`] in seed order.
pub fn run_seeds(
    runner: Runner,
    cell: &Cell,
    seeds: Range<u64>,
    keep: bool,
) -> (Tally, Vec<SlimReport>) {
    runner.sweep_fold(
        cell.scenario(),
        &cell.spec,
        seeds,
        (Tally::default(), Vec::new()),
        |(tally, kept), slim| {
            tally.absorb(&slim);
            if keep {
                kept.push(slim);
            }
        },
    )
}

/// Sweeps a whole batch, one tally per cell.
pub fn run_batch(runner: Runner, cells: &[Cell]) -> Vec<Tally> {
    cells
        .iter()
        .map(|cell| run_seeds(runner, cell, cell.seeds.clone(), false).0)
        .collect()
}

/// Simulated work of a batch: counted events plus the shared-memory steps
/// the event counter does not see.
pub fn work(cells: &[Cell], tallies: &[Tally]) -> u64 {
    cells
        .iter()
        .zip(tallies)
        .map(|(c, t)| t.events + c.uncounted_work_per_run() * t.runs)
        .sum()
}

/// Runs whose cell tally differs from `reference` — every run of such a
/// cell, since a moved count says nothing about which run moved it.
pub fn mismatched_runs(cells: &[Cell], tallies: &[Tally], reference: &[Tally]) -> u64 {
    assert_eq!(tallies.len(), reference.len(), "tallies of another batch");
    cells
        .iter()
        .zip(tallies.iter().zip(reference))
        .filter(|(_, (tally, want))| tally != want)
        .map(|(cell, _)| cell.runs())
        .sum()
}

/// Runs of a batch that count as failed: every run of a cell whose tally
/// differs from `reference` (the expectation file or the warm-up
/// repetition), else the runs whose verdict the cell does not admit.
pub fn failed_runs(
    workload: Workload,
    cells: &[Cell],
    tallies: &[Tally],
    reference: &[Tally],
) -> u64 {
    let inadmissible: u64 = cells
        .iter()
        .zip(tallies.iter().zip(reference))
        .filter(|(_, (tally, want))| tally == want)
        .map(|(cell, (tally, _))| {
            let mut bad = 0;
            if !cell.admits(RunClass::LivenessRefusal, workload) {
                bad += tally.refusals;
            }
            if !cell.admits(RunClass::Violation, workload) {
                bad += tally.violations;
            }
            bad
        })
        .sum();
    mismatched_runs(cells, tallies, reference) + inadmissible
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_have_the_documented_sizes() {
        let runs = |w| batch(w, 0).iter().map(Cell::runs).sum::<u64>();
        assert_eq!(runs(Workload::GridSmall), 300);
        assert_eq!(runs(Workload::ScaleN128), 2);
        assert_eq!(runs(Workload::TransformsHorizon), 4 * 2 + 3 * 8 + 2 + 2 + 8);
        assert_eq!(runs(Workload::CampaignStore), 192 * 4);
    }

    #[test]
    fn seed_zero_keeps_the_historical_run_seeds_and_other_seeds_move_them() {
        assert!(batch(Workload::GridSmall, 0)
            .iter()
            .all(|c| c.seeds == (0..25)));
        let moved = batch(Workload::GridSmall, 3);
        assert!(moved.iter().all(|c| c.seeds == (3_000_000..3_000_025)));
        // Labels are seed-independent: they key the expectation file.
        for w in Workload::ALL {
            let labels = |s| batch(w, s).into_iter().map(|c| c.label).collect::<Vec<_>>();
            assert_eq!(labels(0), labels(9));
        }
        // Huge seeds neither overflow nor wrap a range.
        assert!(batch(Workload::ScaleN128, u64::MAX)[0].seeds.end > 0);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn only_campaign_cells_admit_refusals_and_only_corruption_admits_violations() {
        let grid = &batch(Workload::GridSmall, 0)[0];
        assert!(grid.admits(RunClass::Pass, Workload::GridSmall));
        assert!(!grid.admits(RunClass::LivenessRefusal, Workload::GridSmall));
        assert!(!grid.admits(RunClass::Violation, Workload::GridSmall));
        let campaign = batch(Workload::CampaignStore, 0);
        let (mut corrupting, mut clean) = (0, 0);
        for cell in &campaign {
            assert!(cell.admits(RunClass::LivenessRefusal, Workload::CampaignStore));
            if cell.admits(RunClass::Violation, Workload::CampaignStore) {
                corrupting += 1;
            } else {
                clean += 1;
            }
        }
        assert!(corrupting >= 12 && clean >= 24, "{corrupting} / {clean}");
    }

    #[test]
    fn a_tally_mismatch_fails_every_run_of_the_cell() {
        let cells = batch(Workload::ScaleN128, 0);
        let good = Tally {
            runs: 2,
            passes: 2,
            events: 10,
            ..Tally::default()
        };
        let mut off = good.clone();
        off.events += 1;
        let w = Workload::ScaleN128;
        let want = std::slice::from_ref(&good);
        assert_eq!(failed_runs(w, &cells, want, want), 0);
        assert_eq!(failed_runs(w, &cells, &[off], want), 2);
        let refused = Tally {
            passes: 1,
            refusals: 1,
            ..good.clone()
        };
        let refused = std::slice::from_ref(&refused);
        assert_eq!(failed_runs(w, &cells, refused, refused), 1);
    }
}
