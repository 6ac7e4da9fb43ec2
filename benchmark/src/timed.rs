//! The timed run: set-up rounds, then repetitions of the workload's batch
//! for `--seconds`, every *step* of a repetition timed on its own.
//!
//! A repetition is a fixed sequence of steps — sweeps of a few run seeds
//! each, warm resumes spread evenly between them, and for `campaign_store`
//! the store open and close — and the same step does bit-identical
//! simulated work in every repetition. Each step keeps its own sample of
//! wall times, one per repetition. A phase's time is the **sum over its
//! steps of the step's fastest time**, and a throughput metric is the
//! phase's pinned work over that sum.
//!
//! Why steps of 5–100 ms and their minimum, not whole batches and a
//! quartile: the reference host runs at a quiet speed and, for seconds or
//! minutes at a time, at one of several speeds 5–50 % slower; nothing ever
//! makes a step faster than the quiet speed. A short step runs almost
//! entirely at one speed, so the sum of minima is the quiet-speed time of
//! the batch as soon as every step has met one quiet moment — and with a
//! batch of a quarter of a second repeated ~100 times, a few quiet seconds
//! anywhere in the run are enough for that. The README's protocol section
//! has the recordings behind this.
//!
//! No spans are recorded here: the traced run is a separate process mode.

use crate::alloc;
use crate::expected;
use crate::metrics::{
    Measured, Outcome, END_TO_END, EVENTS_PER_S, HEAP_PEAK_MB, RESUME_CELLS_PER_S, SETUP_S,
};
use crate::stats::Quartiles;
use crate::workloads::{
    batch, failed_runs, mismatched_runs, run_seeds, work, Cell, Kind, Tally, Workload,
};
use fd_bench::{InvocationRecord, SweepStore};
use fd_detectors::scenario::{ReportCache, Runner, SlimReport};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Set-up rounds per run. `setup_s` is the sum over a round's parts of the
/// part's fastest time, for the same reason a batch's time is the sum of
/// its steps' fastest times: a round writes a run directory (18 fsyncs of
/// 0.4–18 ms each on the reference disk), and whole-round figures read
/// 0.126 s and 0.167 s in two consecutive runs of one binary.
pub const SETUP_ROUNDS: usize = 8;
/// Fewest timed repetitions, whatever `--seconds` says.
pub const MIN_REPS: usize = 5;
/// Most timed repetitions: the sample buffers are allocated once, before
/// the first repetition, so the heap peak does not depend on how many
/// repetitions the host had time for.
pub const MAX_REPS: usize = 256;

/// The process-wide cache the cold sweeps spill from. `Runner::with_cache`
/// wants `'static`; a `OnceLock` gives that without leaking one cache per
/// repetition, and [`ReportCache::clear`] between uses stands in for a
/// fresh cache.
pub fn cold_cache() -> &'static ReportCache {
    static CACHE: OnceLock<ReportCache> = OnceLock::new();
    CACHE.get_or_init(ReportCache::new)
}

/// The process-wide cache the warm resumes hydrate.
pub fn warm_cache() -> &'static ReportCache {
    static CACHE: OnceLock<ReportCache> = OnceLock::new();
    CACHE.get_or_init(ReportCache::new)
}

/// One individually timed part of a repetition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Open a fresh run directory, register the specs, commit the
    /// manifest, arm the spill hook (`campaign_store` only).
    StoreOpen,
    /// Sweep `seeds` of cell `cell`.
    Sweep {
        /// Index into the batch.
        cell: usize,
        /// The run seeds of this step.
        seeds: Range<u64>,
    },
    /// Flush, record the invocation, close the store.
    StoreClose,
    /// One warm resume of the last complete run directory.
    Resume,
}

/// Run seeds per sweep step: a whole cell where that lasts 5–20 ms (and
/// always on `campaign_store`: one fingerprint and one salt per spec, as a
/// real campaign pays), one run where a run alone lasts longer.
fn seeds_per_step(workload: Workload, cell: &Cell) -> u64 {
    match (workload, cell.kind) {
        (Workload::ScaleN128, _) => 1,
        (Workload::TransformsHorizon, Kind::PsiOmega | Kind::Pipeline) => cell.runs(),
        (Workload::TransformsHorizon, _) => 1,
        (Workload::GridSmall | Workload::CampaignStore, _) => cell.runs(),
    }
}

/// The step sequence of one repetition of `workload`. Resumes are spread
/// evenly through the batch rather than run in a block at its end, so a
/// quiet second anywhere in a repetition has a resume in it.
pub fn plan(workload: Workload, cells: &[Cell]) -> Vec<Step> {
    let mut batch = Vec::new();
    if workload.sweeps_into_store() {
        batch.push(Step::StoreOpen);
    }
    for (i, cell) in cells.iter().enumerate() {
        let per = seeds_per_step(workload, cell);
        let mut lo = cell.seeds.start;
        while lo < cell.seeds.end {
            let hi = (lo + per).min(cell.seeds.end);
            batch.push(Step::Sweep {
                cell: i,
                seeds: lo..hi,
            });
            lo = hi;
        }
    }
    if workload.sweeps_into_store() {
        batch.push(Step::StoreClose);
    }
    let resumes = workload.resumes_per_rep();
    let mut steps = Vec::with_capacity(batch.len() + resumes);
    let mut placed = 0;
    for (i, step) in batch.iter().enumerate() {
        steps.push(step.clone());
        while placed < resumes && (placed + 1) * batch.len() <= (i + 1) * resumes {
            steps.push(Step::Resume);
            placed += 1;
        }
    }
    steps
}

/// The recorded tallies of `cells` when `seed` is the one `expected.json`
/// pins, `None` at any other seed.
pub fn expected_tallies(
    workload: Workload,
    seed: u64,
    cells: &[Cell],
) -> Result<Option<Vec<Tally>>, String> {
    if seed != 0 {
        return Ok(None);
    }
    let tallies = expected::load(&expected::expected_path(), workload)?;
    if !tallies
        .iter()
        .map(|(l, _)| l)
        .eq(cells.iter().map(|c| &c.label))
    {
        return Err("expected.json does not list this batch's cells".into());
    }
    Ok(Some(tallies.into_iter().map(|(_, t)| t).collect()))
}

/// A per-process scratch directory under `out/`, removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates (emptying it first) the scratch directory of `workload`.
    pub fn create(workload: Workload) -> Result<Scratch, String> {
        let dir = expected::benchmark_dir().join("out").join(format!(
            "scratch-{}-{}",
            workload.name(),
            std::process::id()
        ));
        let made = match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => std::fs::create_dir_all(&dir),
        };
        made.map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nowhere to report an error from here; a leftover scratch
        // directory is ignored by git and emptied by the next run.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one repetition observed, besides its step times.
#[derive(Debug, Default)]
pub struct Repetition {
    /// One tally per cell.
    pub tallies: Vec<Tally>,
    /// With `keep`: every run's report under its store key.
    pub kept: Vec<(u64, u64, SlimReport)>,
    /// Cells the warm resumes served.
    pub resumed: u64,
    /// Cells the warm resumes did not serve correctly: misses, and every
    /// run of a cell whose warm tally differs from the reference.
    pub resume_failed: u64,
}

/// One workload, set up and ready to repeat.
#[derive(Debug)]
pub struct Harness {
    /// The workload.
    pub workload: Workload,
    /// The batch.
    pub cells: Vec<Cell>,
    /// One repetition, step by step.
    pub steps: Vec<Step>,
    /// The warm-up repetition's tallies: what every later one must equal.
    pub reference: Vec<Tally>,
    /// Runs of the warm-up repetition that failed their check.
    pub warmup_failed: u64,
    scratch: Scratch,
    /// Repetitions run so far; picks which of the two run directories a
    /// `campaign_store` repetition writes and which it resumes.
    reps: u64,
}

impl Harness {
    /// One set-up round: generate the inputs from `seed`, load the
    /// expectations, make the scratch directory, run one untimed warm-up
    /// repetition and leave a complete run directory behind. Also returns
    /// the wall time of each part of the round — the inputs, every step of
    /// the warm-up repetition, the run directory — which is the same list
    /// of parts in every round.
    pub fn set_up(workload: Workload, seed: u64) -> Result<(Harness, Vec<f64>), String> {
        let t0 = Instant::now();
        let cells = batch(workload, seed);
        let steps = plan(workload, &cells);
        let expected = expected_tallies(workload, seed, &cells)?;
        let mut harness = Harness {
            workload,
            cells,
            steps,
            reference: Vec::new(),
            warmup_failed: 0,
            scratch: Scratch::create(workload)?,
            reps: 0,
        };
        let mut parts = vec![t0.elapsed().as_secs_f64()];
        let io_err = |e: io::Error| format!("set-up of {}: {e}", workload.name());
        let keep = !workload.sweeps_into_store();
        let warmup = harness
            .repetition(keep, |_, secs| parts.push(secs))
            .map_err(io_err)?;
        let t0 = Instant::now();
        if keep {
            harness.write_run_dir(&warmup.kept).map_err(io_err)?;
        }
        let want = expected.as_deref().unwrap_or(&warmup.tallies);
        harness.warmup_failed = failed_runs(workload, &harness.cells, &warmup.tallies, want);
        harness.reference = warmup.tallies;
        parts.push(t0.elapsed().as_secs_f64());
        Ok((harness, parts))
    }

    /// Runs of one repetition's batch.
    pub fn runs(&self) -> u64 {
        self.cells.iter().map(Cell::runs).sum()
    }

    /// `campaign_store` alternates between two run directories: repetition
    /// `r` sweeps cold into one while its resumes read the one repetition
    /// `r − 1` completed. The other workloads write directory 0 once, in
    /// set-up.
    fn run_dir(&self, parity: u64) -> PathBuf {
        self.scratch.path().join(format!("run{}", parity % 2))
    }

    /// Executes one repetition, reporting each step's wall time to
    /// `timed(step index, seconds)`. The first repetition (the warm-up)
    /// has no complete run directory yet and skips its resumes. With
    /// `keep`, every run's report is returned under its store key.
    pub fn repetition(
        &mut self,
        keep: bool,
        mut timed: impl FnMut(usize, f64),
    ) -> io::Result<Repetition> {
        let (writes, reads) = if self.workload.sweeps_into_store() {
            (self.run_dir(self.reps), self.run_dir(self.reps + 1))
        } else {
            (self.run_dir(0), self.run_dir(0))
        };
        let warmup = self.reps == 0;
        self.reps += 1;
        let mut out = Repetition {
            tallies: vec![Tally::default(); self.cells.len()],
            ..Repetition::default()
        };
        let mut store: Option<SweepStore> = None;
        let mut cold_started = Instant::now();
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Step::StoreOpen => {
                    if writes.exists() {
                        std::fs::remove_dir_all(&writes)?;
                    }
                    cold_cache().clear();
                    let t0 = Instant::now();
                    cold_started = t0;
                    let opened = SweepStore::open(&writes)?;
                    self.register(&opened);
                    opened.hydrate_into(cold_cache());
                    cold_cache().set_spill(Some(opened.spill()));
                    opened.commit_manifest()?;
                    timed(i, t0.elapsed().as_secs_f64());
                    store = Some(opened);
                }
                Step::Sweep { cell, seeds } => {
                    let runner = if store.is_some() {
                        Runner::sequential().with_cache(cold_cache())
                    } else {
                        Runner::sequential()
                    };
                    let c = &self.cells[*cell];
                    let t0 = Instant::now();
                    let (tally, slims) = run_seeds(runner, c, seeds.clone(), keep);
                    timed(i, t0.elapsed().as_secs_f64());
                    out.tallies[*cell].add(&tally);
                    if keep {
                        let salt = ReportCache::salt(&c.scenario().cache_tag(), &c.spec);
                        out.kept
                            .extend(slims.into_iter().map(|s| (salt, s.seed, s)));
                    }
                }
                Step::StoreClose => {
                    let open = store.take().expect("StoreClose follows StoreOpen");
                    let t0 = Instant::now();
                    let wrote = open.flush()?;
                    open.record_invocation(InvocationRecord {
                        runs: self.runs(),
                        hits: cold_cache().hits(),
                        misses: cold_cache().misses(),
                        wrote,
                        wall_us: cold_started.elapsed().as_micros() as u64,
                    });
                    open.close()?;
                    timed(i, t0.elapsed().as_secs_f64());
                    cold_cache().set_spill(None);
                }
                Step::Resume if warmup => {}
                Step::Resume => {
                    let (secs, tallies) = self.resume(&reads)?;
                    timed(i, secs);
                    let cache = warm_cache();
                    out.resumed += cache.hits() + cache.misses();
                    // A miss recomputes the cell, so the tallies alone
                    // cannot see it.
                    let moved = mismatched_runs(&self.cells, &tallies, &self.reference);
                    out.resume_failed += cache.misses().max(moved);
                }
            }
        }
        Ok(out)
    }

    fn register(&self, store: &SweepStore) {
        for cell in &self.cells {
            store.register_spec(&cell.label, &cell.scenario().cache_tag(), &cell.spec);
        }
    }

    /// Persists an uncached warm-up repetition's cells, through the same
    /// spill hook a cached sweep would have fed.
    fn write_run_dir(&self, kept: &[(u64, u64, SlimReport)]) -> io::Result<()> {
        let store = SweepStore::open(self.run_dir(0))?;
        self.register(&store);
        store.commit_manifest()?;
        let spill = store.spill();
        for (salt, seed, slim) in kept {
            spill(*salt, *seed, slim);
        }
        store.close()?;
        Ok(())
    }

    /// One warm resume: open the run directory, hydrate a cleared cache,
    /// sweep every cell through it. Timed up to the end of the sweep; the
    /// store is closed after the clock stops.
    fn resume(&self, dir: &Path) -> io::Result<(f64, Vec<Tally>)> {
        let cache = warm_cache();
        cache.clear();
        let runner = Runner::sequential().with_cache(cache);
        let t0 = Instant::now();
        let store = SweepStore::open(dir)?;
        store.hydrate_into(cache);
        let tallies: Vec<Tally> = self
            .cells
            .iter()
            .map(|c| run_seeds(runner, c, c.seeds.clone(), false).0)
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        store.close()?;
        Ok((secs, tallies))
    }
}

/// The fastest of a step's samples.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Per-step samples of one repetition plan.
#[derive(Debug)]
pub struct Samples {
    /// `by_step[step]` holds one wall time per repetition.
    pub by_step: Vec<Vec<f64>>,
}

impl Samples {
    /// Empty samples for `steps` steps, with room for `reps` repetitions
    /// each, so recording never allocates.
    pub fn with_capacity(steps: usize, reps: usize) -> Samples {
        Samples {
            by_step: (0..steps).map(|_| Vec::with_capacity(reps)).collect(),
        }
    }

    /// Bytes the buffers hold.
    pub fn bytes(&self) -> usize {
        self.by_step
            .iter()
            .map(|s| s.capacity() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Σ over the chosen steps of the step's fastest time.
    pub fn fastest_sum(&self, chosen: impl Fn(usize) -> bool) -> f64 {
        self.by_step
            .iter()
            .enumerate()
            .filter(|(i, _)| chosen(*i))
            .map(|(_, s)| fastest(s))
            .sum()
    }

    /// Σ over the chosen steps of the step's quartiles: the phase time a
    /// run would have had at the fast, typical and slow quarter of the
    /// host's speeds.
    pub fn quartile_sum(&self, chosen: impl Fn(usize) -> bool) -> Quartiles {
        let mut sum = Quartiles {
            q1: 0.0,
            q2: 0.0,
            q3: 0.0,
        };
        for (_, s) in self.by_step.iter().enumerate().filter(|(i, _)| chosen(*i)) {
            let q = Quartiles::of(s);
            sum.q1 += q.q1;
            sum.q2 += q.q2;
            sum.q3 += q.q3;
        }
        sum
    }
}

/// Everything a timed run measured, before it is boiled down to metrics.
#[derive(Debug)]
pub struct TimedRun {
    /// Wall time of each part of each set-up round, `setups[round][part]`.
    pub setups: Vec<Vec<f64>>,
    /// Timed repetitions completed.
    pub reps: usize,
    /// Simulated work of one repetition's batch phase.
    pub work: u64,
    /// Cells one warm resume serves.
    pub cells_per_resume: u64,
    /// The repetition plan.
    pub steps: Vec<Step>,
    /// One sample per step per repetition.
    pub samples: Samples,
    /// Peak live heap over the timed repetitions, the sample buffers
    /// excluded.
    pub heap_peak: usize,
    /// Operations attempted over the timed repetitions.
    pub attempted: u64,
    /// Operations failed (set-up failures included).
    pub failed: u64,
}

/// Runs the whole protocol for one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<TimedRun, String> {
    let mut setups: Vec<Vec<f64>> = Vec::with_capacity(SETUP_ROUNDS);
    let mut harness = None;
    for _ in 0..SETUP_ROUNDS {
        // Drop the previous round first: both would use one scratch path.
        drop(harness.take());
        let (round, parts) = Harness::set_up(workload, seed)?;
        harness = Some(round);
        setups.push(parts);
    }
    let mut harness = harness.expect("at least one set-up round");

    let mut samples = Samples::with_capacity(harness.steps.len(), MAX_REPS);
    let mut rep_secs = Vec::with_capacity(MAX_REPS);
    let buffers = samples.bytes();
    alloc::reset_peak();

    let mut attempted = 0;
    let mut failed = harness.warmup_failed;
    let started = Instant::now();
    while rep_secs.len() < MAX_REPS {
        let t_rep = Instant::now();
        let rep = harness
            .repetition(false, |step, secs| samples.by_step[step].push(secs))
            .map_err(|e| format!("repetition of {}: {e}", workload.name()))?;
        rep_secs.push(t_rep.elapsed().as_secs_f64());
        attempted += harness.runs() + rep.resumed;
        failed += failed_runs(workload, &harness.cells, &rep.tallies, &harness.reference)
            + rep.resume_failed;
        // Stop when another typical repetition would overrun `--seconds`.
        let left = seconds - started.elapsed().as_secs_f64();
        if rep_secs.len() >= MIN_REPS && left < Quartiles::of(&rep_secs).q2 {
            break;
        }
    }
    let heap_peak = alloc::stats().peak.saturating_sub(buffers);
    Ok(TimedRun {
        setups,
        reps: rep_secs.len(),
        work: work(&harness.cells, &harness.reference),
        cells_per_resume: harness.runs(),
        steps: harness.steps.clone(),
        samples,
        heap_peak,
        attempted,
        failed,
    })
}

impl TimedRun {
    /// The end-to-end metrics, in registry order, and the human-readable
    /// lines that go above the result line.
    pub fn outcome(&self) -> (Outcome, Vec<String>) {
        let resume = |i: usize| self.steps[i] == Step::Resume;
        let mut lines = Vec::new();
        let mut metrics = Vec::new();
        for spec in END_TO_END {
            let (value, note) = match spec.name {
                EVENTS_PER_S => self.throughput(|i| !resume(i), false, self.work, spec.bound),
                // Every resume does the same work, so they pool into one
                // step's sample.
                RESUME_CELLS_PER_S => {
                    self.throughput(resume, true, self.cells_per_resume, spec.bound)
                }
                HEAP_PEAK_MB => (self.heap_peak as f64 / 1e6, String::new()),
                SETUP_S => {
                    let rounds: Vec<f64> = self.setups.iter().map(|r| r.iter().sum()).collect();
                    let parts = self.setups[0].len();
                    let fast: f64 = (0..parts)
                        .map(|p| fastest(&self.setups.iter().map(|r| r[p]).collect::<Vec<_>>()))
                        .sum();
                    (fast, format!("{parts} parts; whole rounds {rounds:.4?}"))
                }
                other => unreachable!("unmeasured end-to-end metric {other}"),
            };
            lines.push(format!(
                "{:<22} {:>16.4} {:<4} {note}",
                spec.name, value, spec.unit
            ));
            metrics.push(Measured {
                name: spec.name,
                value,
                unit: spec.unit,
            });
        }
        lines.push(format!(
            "ops_attempted {}  ops_failed {}  repetitions {}  steps/repetition {}",
            self.attempted,
            self.failed,
            self.reps,
            self.steps.len()
        ));
        (
            Outcome {
                correct: self.failed == 0,
                attempted: self.attempted,
                failed: self.failed,
                metrics,
            },
            lines,
        )
    }

    /// `work / Σ fastest step times` over the chosen steps, with the
    /// median-based figure, the quartile figures and the spread beside it.
    /// `pooled` says the chosen steps all do the same work and count as
    /// one step sampled several times a repetition (the resumes).
    fn throughput(
        &self,
        chosen: impl Fn(usize) -> bool + Copy,
        pooled: bool,
        work: u64,
        bound: f64,
    ) -> (f64, String) {
        let work = work as f64;
        let (fast, q) = if pooled {
            let all: Vec<f64> = (0..self.steps.len())
                .filter(|i| chosen(*i))
                .flat_map(|i| self.samples.by_step[i].iter().copied())
                .collect();
            (fastest(&all), Quartiles::of(&all))
        } else {
            (
                self.samples.fastest_sum(chosen),
                self.samples.quartile_sum(chosen),
            )
        };
        let spread = q.spread();
        let note = format!(
            "median-based {:.4}  q1..q3 {:.4}..{:.4}  R {}  spread {:.4}{}",
            work / q.q2,
            work / q.q3,
            work / q.q1,
            self.reps,
            spread,
            if spread > bound { "  unresolved" } else { "" }
        );
        (work / fast, note)
    }

    /// Writes every step sample as CSV (`step,kind,rep,seconds`), so a
    /// protocol question can be answered from a finished run.
    pub fn write_samples(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("step,kind,rep,seconds\n");
        for (step, samples) in self.samples.by_step.iter().enumerate() {
            let kind = match self.steps[step] {
                Step::StoreOpen => "store_open",
                Step::Sweep { .. } => "sweep",
                Step::StoreClose => "store_close",
                Step::Resume => "resume",
            };
            for (rep, secs) in samples.iter().enumerate() {
                out.push_str(&format!("{step},{kind},{rep},{secs:?}\n"));
            }
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_cover_every_run_seed_exactly_once_and_spread_the_resumes() {
        for workload in Workload::ALL {
            let cells = batch(workload, 2);
            let steps = plan(workload, &cells);
            let mut next: Vec<u64> = cells.iter().map(|c| c.seeds.start).collect();
            for step in &steps {
                if let Step::Sweep { cell, seeds } = step {
                    assert_eq!(seeds.start, next[*cell], "steps are contiguous");
                    next[*cell] = seeds.end;
                }
            }
            for (cell, reached) in cells.iter().zip(next) {
                assert_eq!(reached, cell.seeds.end, "{}", cell.label);
            }
            let count = |s: &Step| steps.iter().filter(|x| *x == s).count();
            let stores = usize::from(workload.sweeps_into_store());
            assert_eq!(count(&Step::StoreOpen), stores);
            assert_eq!(count(&Step::StoreClose), stores);
            assert_eq!(count(&Step::Resume), workload.resumes_per_rep());
            // Spread: one after everything else, and where there are
            // several, some but not all of them in the first half.
            let half = steps.len() / 2;
            let early = steps[..half].iter().filter(|s| **s == Step::Resume).count();
            let all = workload.resumes_per_rep();
            assert!(all == 1 || (early >= 1 && early < all), "{early} of {all}");
            assert_eq!(steps.last(), Some(&Step::Resume));
        }
    }

    #[test]
    fn phase_time_is_the_sum_of_step_minima() {
        let samples = Samples {
            by_step: vec![
                vec![1.0, 2.0, 3.0],
                vec![10.0, 30.0, 20.0],
                vec![5.0, 4.0, 6.0],
            ],
        };
        assert_eq!(samples.fastest_sum(|_| true), 15.0);
        assert_eq!(samples.fastest_sum(|i| i != 1), 5.0);
        let q = samples.quartile_sum(|i| i < 2);
        assert_eq!((q.q1, q.q2, q.q3), (11.0, 22.0, 33.0));
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn expectations_are_only_consulted_at_seed_zero() {
        let cells = batch(Workload::ScaleN128, 5);
        assert_eq!(expected_tallies(Workload::ScaleN128, 5, &cells), Ok(None));
        let pinned = expected_tallies(Workload::ScaleN128, 0, &cells)
            .unwrap()
            .unwrap();
        assert_eq!(pinned[0].events, expected::SCALE_N128_EVENTS);
        // Another batch's cells are not this workload's expectations.
        let other = batch(Workload::GridSmall, 0);
        assert!(expected_tallies(Workload::ScaleN128, 0, &other).is_err());
    }
}
