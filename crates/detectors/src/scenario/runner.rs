//! [`Scenario`] and the [`Runner`] that executes it: one sequential loop,
//! one in-order work-stealing loop (`ordered_fold`), nothing else.

use super::cache::ReportCache;
use super::report::{ScenarioReport, SlimReport};
use super::spec::ScenarioSpec;
use super::summary::SweepSummary;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// One algorithm or transformation, exposed to the engine.
///
/// Implementations must be deterministic in `spec.seed` and must not keep
/// mutable state across runs ([`Runner`] may call [`Scenario::run`] from
/// several threads at once).
pub trait Scenario: Sync {
    /// Stable name, used in reports and tables.
    fn name(&self) -> &'static str;

    /// Executes one run of the scenario under `spec`.
    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport;

    /// The scenario half of a [`ReportCache`] key: must uniquely identify
    /// this scenario *object*, including every knob it carries outside
    /// the [`ScenarioSpec`] (the spec fingerprint and the seed are the
    /// key's other half). The default — the scenario's name — is correct
    /// for unit-struct scenarios; **any scenario with out-of-spec
    /// configuration** (an ablation switch, an instance count, a flavour)
    /// **must override this**, or differently-configured objects sharing
    /// a name would serve each other's cached runs.
    fn cache_tag(&self) -> String {
        self.name().to_string()
    }
}

/// Executes scenarios: single runs, multi-seed sweeps, grid matrices —
/// sequentially or on a thread pool, with identical results either way.
/// Optionally consults a [`ReportCache`] it borrows for `'c` in its
/// streaming sweeps.
#[derive(Clone, Copy, Debug)]
pub struct Runner<'c> {
    threads: usize,
    cache: Option<&'c ReportCache>,
}

impl Runner<'static> {
    /// A strictly sequential runner.
    pub fn sequential() -> Self {
        Runner {
            threads: 1,
            cache: None,
        }
    }

    /// A runner using all available cores.
    pub fn parallel() -> Self {
        Runner {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache: None,
        }
    }

    /// A runner with an explicit thread count (≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            cache: None,
        }
    }
}

impl<'c> Runner<'c> {
    /// Consults `cache` in the streaming sweeps ([`Runner::sweep_fold`] /
    /// [`Runner::sweep_summary`]): cache-hit seeds skip the simulation and
    /// fold the stored [`SlimReport`] — bit-identical to a cold sweep,
    /// because runs are pure in `(scenario, spec, seed)`. Misses run and
    /// populate the cache. The runner stays `Copy`: it only borrows the
    /// cache, which outlives every sweep through it.
    pub fn with_cache<'d>(self, cache: &'d ReportCache) -> Runner<'d> {
        Runner {
            threads: self.threads,
            cache: Some(cache),
        }
    }

    /// The cache this runner consults, if any.
    pub fn cache(&self) -> Option<&'c ReportCache> {
        self.cache
    }

    /// The worker count this runner fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes one run.
    pub fn run(&self, scenario: &dyn Scenario, spec: &ScenarioSpec) -> ScenarioReport {
        scenario.run(spec)
    }

    /// Executes one run per seed in `seeds`, all other parameters fixed.
    /// Reports come back in seed order regardless of thread interleaving.
    pub fn sweep(
        &self,
        scenario: &dyn Scenario,
        base: &ScenarioSpec,
        seeds: Range<u64>,
    ) -> Vec<ScenarioReport> {
        let specs: Vec<ScenarioSpec> = seeds.map(|s| base.with_seed(s)).collect();
        self.grid(scenario, &specs)
    }

    /// Executes one run per spec (a full grid matrix), in spec order.
    pub fn grid(&self, scenario: &dyn Scenario, specs: &[ScenarioSpec]) -> Vec<ScenarioReport> {
        ordered_fold(
            specs.len(),
            self.threads,
            |i| scenario.run(&specs[i]),
            Vec::with_capacity(specs.len()),
            |reports, report| reports.push(report),
        )
    }

    /// Streams one run per seed through `fold`, in seed order, without ever
    /// holding more than `O(threads)` reports: each run is slimmed to a
    /// [`SlimReport`] the moment it finishes and its [`fd_sim::Trace`] is
    /// dropped.
    ///
    /// The fold is applied in strict seed order regardless of thread
    /// interleaving, so the result is bit-identical to a sequential fold.
    pub fn sweep_fold<A: Send>(
        &self,
        scenario: &dyn Scenario,
        base: &ScenarioSpec,
        seeds: Range<u64>,
        init: A,
        fold: impl Fn(&mut A, SlimReport) + Sync,
    ) -> A {
        let lo = seeds.start;
        let n = usize::try_from(seeds.end.saturating_sub(lo)).expect("seed range too large");
        // One salt per sweep: the spec fingerprint (seed-independent) mixed
        // with the scenario name; per-run keys append the seed.
        let cache = self
            .cache
            .map(|c| (c, ReportCache::salt(&scenario.cache_tag(), base)));
        let run_one = |i: usize| -> SlimReport {
            let seed = lo + i as u64;
            if let Some((cache, salt)) = cache {
                let key = (salt, seed);
                if let Some(slim) = cache.lookup(key) {
                    return slim;
                }
                let slim = scenario.run(&base.with_seed(seed)).slim();
                cache.insert(key, &slim);
                return slim;
            }
            scenario.run(&base.with_seed(seed)).slim()
        };
        ordered_fold(n, self.threads, run_one, init, fold)
    }

    /// Streams a sweep directly into a [`SweepSummary`] — the constant-memory
    /// replacement for `SweepSummary::of(&runner.sweep(..))`.
    pub fn sweep_summary(
        &self,
        scenario: &dyn Scenario,
        base: &ScenarioSpec,
        seeds: Range<u64>,
    ) -> SweepSummary {
        self.sweep_fold(
            scenario,
            base,
            seeds,
            SweepSummary::default(),
            |acc, slim| acc.absorb(&slim),
        )
    }
}

/// The runner's one loop: `produce(i)` for `i in 0..n`, each result handed
/// to `fold` in strict index order, so the accumulator is independent of
/// the thread count.
///
/// With one thread it is a plain `for`. Otherwise workers claim one index
/// at a time from a shared atomic counter — a thread that draws a long run
/// (a big-`n` cell, an anarchic schedule) simply claims fewer indices while
/// the others drain the rest, so skewed grids keep every core busy — and
/// finished items wait in a reorder buffer until the fold frontier reaches
/// them. Workers that race ahead of the frontier park until the window (a
/// small multiple of the thread count) reopens, which bounds that buffer on
/// skewed workloads. Each index is produced exactly once on exactly one
/// thread.
pub(super) fn ordered_fold<T: Send, A: Send>(
    n: usize,
    threads: usize,
    produce: impl Fn(usize) -> T + Sync,
    init: A,
    fold: impl Fn(&mut A, T) + Sync,
) -> A {
    if n == 0 {
        return init;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let mut acc = init;
        for i in 0..n {
            fold(&mut acc, produce(i));
        }
        return acc;
    }
    struct FoldState<T, A> {
        /// Finished items waiting for the fold frontier, keyed by index.
        pending: BTreeMap<usize, T>,
        /// Next index the in-order fold expects.
        next: usize,
        acc: A,
    }
    let state = Mutex::new(FoldState {
        pending: BTreeMap::new(),
        next: 0,
        acc: init,
    });
    let frontier_moved = Condvar::new();
    let claim = AtomicUsize::new(0);
    let window = threads * 4;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // One index per claim: scenario runs are ~ms-scale, so the
                // fetch_add is noise and the finest granularity wins on skew.
                let i = claim.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                {
                    // Park while too far ahead of the fold frontier. The
                    // worker holding the frontier index is never gated
                    // (window ≥ 1), so the frontier always advances.
                    let mut st = state.lock().unwrap();
                    while i >= st.next + window {
                        st = frontier_moved.wait(st).unwrap();
                    }
                }
                let item = produce(i);
                let mut guard = state.lock().unwrap();
                let st = &mut *guard;
                st.pending.insert(i, item);
                while let Some(item) = st.pending.remove(&st.next) {
                    fold(&mut st.acc, item);
                    st.next += 1;
                }
                drop(guard);
                frontier_moved.notify_all();
            });
        }
    });
    state.into_inner().unwrap().acc
}
