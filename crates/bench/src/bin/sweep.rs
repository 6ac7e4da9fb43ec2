//! Emits `BENCH_sweep.json`: throughput of a representative grid sweep
//! (runs/sec, events/sec) through the work-stealing scenario runner, a
//! large single-cell streaming sweep that holds only `O(threads)` full
//! reports in memory, and the cache, store, adversary, topology and
//! `n`-scaling legs.
//!
//! Usage: `cargo run -p fd-bench --bin sweep --release [-- --seeds N]
//! [-- --threads N] [-- --stream N] [-- --cache N] [-- --store-leg N]
//! [-- --store DIR] [-- --resume] [-- --adv N] [-- --adv-drop P]
//! [-- --adv-dup P] [-- --topo N] [-- --curve LIST] [-- --n-max N]
//! [-- --baseline PATH] [-- --out PATH] [-- --profile]`
//!
//! Or, to aggregate previously written run directories:
//! `cargo run -p fd-bench --bin sweep --release -- analyze DIR [DIR ...]`
//!
//! Or, to run the adversary search campaign (sample the fault space,
//! classify outcomes, shrink checker violations to minimal witnesses):
//! `cargo run -p fd-bench --bin sweep --release -- search [--budget N]
//! [--search-seed S] [--seeds-per-spec N] [--max-witnesses N]
//! [--threads N] [--store DIR] [--resume] [--out PATH]`
//!
//! The search campaign is deterministic in `--search-seed`: reruns —
//! at any `--threads` — emit a byte-identical witness report. It exits
//! non-zero if any spec *without* a corruption rule breaks a safety
//! property (drops, duplicates, delays, partitions, and in-bound crashes
//! must only ever cost liveness), or if the seeded-in probe violation is
//! not found and shrunk. With `--store DIR` every computed cell — shrink
//! candidates included — persists to the run directory, and a rerun
//! resumes from it; `--resume` asserts the resumed campaign recomputed
//! nothing.
//!
//! Every subcommand parses its arguments once against its own flag set: an
//! unknown flag, a missing value, or a value that does not parse prints the
//! usage on stderr and exits with status 2 — nothing runs on a typo.
//!
//! `--profile` prints a per-phase event-count breakdown after the run:
//! every grid cell's simulated events, plus the streaming and adversary
//! phases — where the work actually goes, for sizing optimization targets.
//! With `--store`, it also prints the hydrated cache's occupancy and
//! capped-insert tallies (how effective store hydration was).
//!
//! `--store DIR` makes the main grid + streaming legs durable: DIR is
//! opened (or created) as a run directory, its cells hydrate the report
//! cache before the sweep, and every newly computed cell is persisted
//! crash-safely as it finishes. A rerun against the same DIR resumes with
//! pure cache hits and a bit-identical `grid_digest`. `--resume` asserts
//! exactly that (0 misses, >0 hydrated cells) — CI's kill-and-resume gate.
//! `--store-leg N` (default 1 seed per cell; 0 skips) proves the
//! round-trip in-process against a scratch directory: cold sweep → close →
//! reopen → hydrate a fresh cache → warm sweep must be bit-identical, all
//! hits, zero misses.
//!
//! `--threads 0` (the default) uses all available cores; `--stream 0`
//! skips the streaming demonstration. `--cache N` runs the report-cache
//! leg (default 1 seed per cell; 0 skips): a cold grid sweep through a
//! fresh cache, then the same sweep warm, which must be bit-identical and
//! all hits, or the run aborts. `--adv N` runs the
//! adversary sweep leg at `--adv-drop`/`--adv-dup` percent (default 2
//! seeds per cell; 0 skips) — its determinism, `None`-differential, and
//! churn catch-up gates abort on failure; its grid pass-rate is recorded,
//! not gated (uniform drops are outside the algorithm's liveness tolerance
//! by design). `--topo N` runs the topology leg (default 2 seeds per heal
//! cell; 0 skips): a partition's heal time swept against the termination
//! horizon into a liveness phase diagram — its determinism,
//! `TopologySchedule::None`-differential, partition-during-join churn and
//! liveness-flip gates abort on failure; pass-rate per heal cell is
//! recorded, not gated (past-horizon heals *must* fail).
//! `--curve LIST` runs the `n`-scaling leg at the
//! comma-separated process counts in `LIST` (default `256,512,1024`; pass
//! `--curve 0` to skip), one seed per size, recording the events/s-vs-`n`
//! curve and the chosen `n` list in the JSON; `--n-max N` drops every
//! curve point above `N` (how CI trims the leg to an `n = 256` smoke).
//! `--baseline PATH` compares per-thread `runs_per_sec` against a
//! committed report and exits non-zero on a >30% regression.

use fd_bench::{BaselineVerdict, InvocationRecord, SearchConfig, SweepStore};
use fd_detectors::scenario::{ReportCache, Runner};
use std::str::FromStr;

const USAGE: &str = "\
usage: sweep [--seeds N] [--threads N] [--stream N] [--cache N] [--store-leg N]
             [--store DIR] [--resume] [--adv N] [--adv-drop P] [--adv-dup P]
             [--topo N] [--curve LIST|0] [--n-max N] [--baseline PATH]
             [--out PATH] [--profile]
       sweep analyze DIR [DIR ...]
       sweep search [--budget N] [--search-seed S] [--seeds-per-spec N]
             [--max-witnesses N] [--threads N] [--store DIR] [--resume]
             [--out PATH]";

/// One subcommand's flag set: each flag's name and whether it takes a value.
type Known = [(&'static str, bool)];

const MAIN_FLAGS: &Known = &[
    ("--seeds", true),
    ("--threads", true),
    ("--stream", true),
    ("--cache", true),
    ("--store-leg", true),
    ("--store", true),
    ("--resume", false),
    ("--adv", true),
    ("--adv-drop", true),
    ("--adv-dup", true),
    ("--topo", true),
    ("--curve", true),
    ("--n-max", true),
    ("--baseline", true),
    ("--out", true),
    ("--profile", false),
];

const SEARCH_FLAGS: &Known = &[
    ("--budget", true),
    ("--search-seed", true),
    ("--seeds-per-spec", true),
    ("--max-witnesses", true),
    ("--threads", true),
    ("--store", true),
    ("--resume", false),
    ("--out", true),
];

/// The `(flag, value)` pairs of one invocation, every one of them checked
/// against the subcommand's flag set.
struct Flags<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    fn parse(argv: &'a [String], known: &Known) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let &(_, takes_value) = known
                .iter()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            let value = if takes_value {
                let v = it.next().filter(|v| !v.starts_with("--"));
                Some(v.ok_or_else(|| format!("`{arg}` needs a value"))?.as_str())
            } else {
                None
            };
            out.push((arg.as_str(), value));
        }
        Ok(Flags(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    fn text(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.text(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{name} {v}`: not a valid number")),
        }
    }
}

/// The main sweep's options.
struct MainOpts {
    seeds: u64,
    threads: usize,
    stream: u64,
    cache: u64,
    store_leg: u64,
    store: Option<String>,
    resume: bool,
    adv: u64,
    adv_drop: u8,
    adv_dup: u8,
    topo: u64,
    /// The `n`-scaling sizes: `--curve 256,512,1024` (the default),
    /// `--curve 0` to skip, already trimmed to `--n-max` (the CI smoke
    /// shape).
    curve: Vec<usize>,
    baseline: Option<String>,
    out: String,
    profile: bool,
}

impl MainOpts {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let f = Flags::parse(argv, MAIN_FLAGS)?;
        let n_max: usize = f.num("--n-max", usize::MAX)?;
        let curve = match f.text("--curve").unwrap_or("256,512,1024").trim() {
            "0" => Vec::new(),
            list => list
                .split(',')
                .map(|p| p.trim().parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| format!("`--curve {list}`: not a comma-separated list of sizes"))?,
        };
        Ok(MainOpts {
            seeds: f.num("--seeds", 25)?,
            threads: f.num("--threads", 0)?,
            stream: f.num("--stream", 100_000)?,
            cache: f.num("--cache", 1)?,
            store_leg: f.num("--store-leg", 1)?,
            store: f.text("--store").map(String::from),
            resume: f.has("--resume"),
            adv: f.num("--adv", 2)?,
            adv_drop: f.num("--adv-drop", 10)?,
            adv_dup: f.num("--adv-dup", 10)?,
            topo: f.num("--topo", 2)?,
            curve: curve.into_iter().filter(|&n| n <= n_max).collect(),
            baseline: f.text("--baseline").map(String::from),
            out: f.text("--out").unwrap_or("BENCH_sweep.json").into(),
            profile: f.has("--profile"),
        })
    }
}

/// The `search` subcommand's options.
struct SearchOpts {
    cfg: SearchConfig,
    threads: usize,
    store: Option<String>,
    resume: bool,
    out: String,
}

impl SearchOpts {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let f = Flags::parse(argv, SEARCH_FLAGS)?;
        Ok(SearchOpts {
            cfg: SearchConfig {
                search_seed: f.num("--search-seed", 0)?,
                budget: f.num("--budget", 32)?,
                seeds_per_spec: f.num("--seeds-per-spec", 4)?,
                max_witnesses: f.num("--max-witnesses", 3)?,
            },
            threads: f.num("--threads", 0)?,
            store: f.text("--store").map(String::from),
            resume: f.has("--resume"),
            out: f.text("--out").unwrap_or("SEARCH_witnesses.json").into(),
        })
    }
}

/// The `analyze` subcommand takes run directories only.
fn analyze_dirs(argv: &[String]) -> Result<&[String], String> {
    match argv.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(format!("unknown argument `{flag}`")),
        None if argv.is_empty() => Err("analyze needs at least one run directory".into()),
        None => Ok(argv),
    }
}

fn runner_for(threads: usize) -> Runner {
    if threads == 0 {
        Runner::parallel()
    } else {
        Runner::with_threads(threads)
    }
}

/// `sweep analyze DIR [DIR ...]` — aggregate run directories into tables.
fn run_analyze(dirs: &[String]) {
    let report = fd_bench::analyze_run_dirs(dirs)
        .unwrap_or_else(|e| panic!("analyze: failed to load run dirs: {e}"));
    print!("{}", report.render());
}

/// `sweep search ...` — the adversary search campaign: sample the fault
/// space across message rules, crash plans, delays, and topology; classify
/// every cell as pass / honest liveness refusal / checker violation; and
/// shrink each expected violation to a minimal witness.
fn run_search_cmd(o: SearchOpts) {
    let cfg = &o.cfg;
    let runner = runner_for(o.threads);
    // Always cache-backed: the shrinker's fixed-point loop re-visits
    // candidates, and the cache turns repeats into lookups. With --store
    // the cache additionally hydrates from / spills to the run directory,
    // making a killed campaign resumable without recomputing any cell.
    let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
    let store = o.store.as_deref().map(|dir| {
        let store = SweepStore::open(dir).unwrap_or_else(|e| panic!("open --store {dir}: {e}"));
        for (i, spec) in fd_bench::generate(cfg).iter().enumerate() {
            let scenario = fd_bench::scenario_for(spec);
            store.register_spec(
                &format!("search[{i}] {}", fd_bench::describe_spec(spec)),
                &scenario.cache_tag(),
                spec,
            );
        }
        let hydrated = store.hydrate_into(cache);
        cache.set_spill(Some(store.spill()));
        // Commit the manifest before computing anything: a killed campaign
        // then leaves a trusted, resumable run directory behind.
        store
            .commit_manifest()
            .unwrap_or_else(|e| panic!("store commit manifest: {e}"));
        println!(
            "store: opened {dir} — {} cell(s) on disk, {hydrated} hydrated",
            store.loaded(),
        );
        store
    });
    let runner = runner.with_cache(cache);
    let t0 = std::time::Instant::now();
    let report = fd_bench::run_search(&runner, cfg);
    let wall_us = t0.elapsed().as_micros() as u64;
    let s = &report.stats;
    println!(
        "search (seed {}): {} specs, {} runs in {} us — {} passes, {} refusals, \
         {} violations ({} shrink runs)",
        cfg.search_seed,
        s.specs,
        s.runs,
        wall_us,
        s.passes,
        s.refusals,
        s.violations,
        s.shrink_runs,
    );
    for w in &report.witnesses {
        println!(
            "witness [{}] seed {} ({} shrink steps, {} events to violation): {}",
            w.class.name(),
            w.seed,
            w.shrink_steps.len(),
            w.events,
            w.description,
        );
    }
    for u in &report.unexpected {
        eprintln!(
            "UNEXPECTED [{}] violation at seed {}: {} — {}",
            u.class.name(),
            u.seed,
            u.description,
            u.detail,
        );
    }
    if let Some(store) = store {
        let wrote = store.flush().unwrap_or_else(|e| panic!("store flush: {e}"));
        store.record_invocation(InvocationRecord {
            runs: s.runs,
            hits: cache.hits(),
            misses: cache.misses(),
            wrote,
            wall_us,
        });
        let dir = store.dir().display().to_string();
        store.close().unwrap_or_else(|e| panic!("store close: {e}"));
        println!(
            "store: closed {dir} — wrote {wrote} new cell(s), {} hits / {} misses this run",
            cache.hits(),
            cache.misses(),
        );
        if o.resume {
            assert!(
                cache.hydrated() > 0,
                "--resume: the store hydrated nothing (empty or mismatched run dir)"
            );
            assert_eq!(
                cache.misses(),
                0,
                "--resume: cells (shrink candidates included) were recomputed \
                 instead of served from the store"
            );
            assert_eq!(cache.hits(), s.runs, "--resume: not every run was a hit");
            println!(
                "store: resume verified — all {} runs served from the run directory",
                s.runs,
            );
        }
    }
    std::fs::write(&o.out, report.to_json_string()).expect("write witness report");
    println!("wrote {}", o.out);
    assert!(
        report.unexpected.is_empty(),
        "search surfaced {} unexpected safety violation(s): a drop/duplicate/delay/\
         topology/crash adversary broke a safety property",
        report.unexpected.len(),
    );
    assert!(
        report
            .witnesses
            .iter()
            .any(|w| w.class == fd_detectors::ViolationClass::Validity),
        "the seeded-in probe violation was not found and shrunk"
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match argv.first().map(String::as_str) {
        Some("analyze") => analyze_dirs(&argv[1..]).map(run_analyze),
        Some("search") => SearchOpts::parse(&argv[1..]).map(run_search_cmd),
        _ => MainOpts::parse(&argv).map(run_sweep),
    };
    if let Err(msg) = parsed {
        eprintln!("sweep: {msg}\n{USAGE}");
        std::process::exit(2);
    }
}

fn run_sweep(o: MainOpts) {
    let runner = runner_for(o.threads);
    // --store DIR: open the run directory, hydrate the report cache from
    // it, and persist every newly computed grid/stream cell as it lands.
    let store_ctx: Option<(SweepStore, &'static ReportCache)> = o.store.as_deref().map(|dir| {
        let store = SweepStore::open(dir).unwrap_or_else(|e| panic!("open --store {dir}: {e}"));
        let tag = {
            use fd_detectors::scenario::Scenario as _;
            fd_core::KsetScenario.cache_tag()
        };
        for (label, spec, _) in fd_bench::grid_cells(o.seeds) {
            store.register_spec(&label, &tag, &spec);
        }
        if o.stream > 0 {
            let (slabel, sspec) = fd_bench::stream_cell();
            store.register_spec(&format!("stream_{slabel}"), &tag, &sspec);
        }
        // Leaked: `Runner::with_cache` wants `'static`, and the bin runs
        // one campaign per process.
        let cache: &'static ReportCache = Box::leak(Box::new(ReportCache::new()));
        let hydrated = store.hydrate_into(cache);
        cache.set_spill(Some(store.spill()));
        // Commit the manifest before computing anything: a killed sweep
        // then leaves a trusted, resumable run directory behind.
        store
            .commit_manifest()
            .unwrap_or_else(|e| panic!("store commit manifest: {e}"));
        println!(
            "store: opened {dir} — {} cell(s) on disk, {hydrated} hydrated, {} corrupt line(s){}",
            store.loaded(),
            store.corrupt(),
            if store.archived_stale() {
                ", stale shards archived"
            } else {
                ""
            },
        );
        (store, cache)
    });
    let grid_runner = match &store_ctx {
        Some((_, cache)) => runner.with_cache(cache),
        None => runner,
    };
    let mut report = fd_bench::representative_sweep(o.seeds, grid_runner);
    println!(
        "grid sweep: {} runs ({} passed) on {} threads in {} us — {:.1} runs/s, {:.0} events/s",
        report.total_runs,
        report.total_passes,
        report.threads,
        report.wall_us,
        report.runs_per_sec,
        report.events_per_sec,
    );
    if o.stream > 0 {
        let stream = fd_bench::streaming_sweep(o.stream, grid_runner);
        println!(
            "streaming sweep: {} runs ({} passed) in {} us — {:.1} runs/s, O(threads) reports held",
            stream.runs, stream.passes, stream.wall_us, stream.runs_per_sec,
        );
        assert_eq!(
            stream.passes, stream.runs,
            "streaming sweep had failing runs"
        );
        report = report.with_stream(stream);
    }
    // Finalize the run directory: record this invocation, flush, close.
    // The cache stays alive (it is 'static) for the --profile stats below.
    let store_cache: Option<&'static ReportCache> = store_ctx.map(|(store, cache)| {
        let wrote = store.flush().unwrap_or_else(|e| panic!("store flush: {e}"));
        let runs = report.total_runs + report.stream.as_ref().map_or(0, |s| s.runs);
        let wall_us = report.wall_us + report.stream.as_ref().map_or(0, |s| s.wall_us);
        store.record_invocation(InvocationRecord {
            runs,
            hits: cache.hits(),
            misses: cache.misses(),
            wrote,
            wall_us,
        });
        let dir = store.dir().display().to_string();
        store.close().unwrap_or_else(|e| panic!("store close: {e}"));
        println!(
            "store: closed {dir} — wrote {wrote} new cell(s), {} hits / {} misses this run",
            cache.hits(),
            cache.misses(),
        );
        if o.resume {
            assert!(
                cache.hydrated() > 0,
                "--resume: the store hydrated nothing (empty or mismatched run dir)"
            );
            assert_eq!(
                cache.misses(),
                0,
                "--resume: cells were recomputed instead of served from the store"
            );
            assert_eq!(cache.hits(), runs, "--resume: not every run was a hit");
            println!("store: resume verified — all {runs} runs served from the run directory");
        }
        cache
    });
    if o.cache > 0 {
        let leg = fd_bench::cache_leg(o.cache, runner);
        println!(
            "cache leg: {} cold runs ({} us), {} warm runs ({} us) — {} hits, {} misses, identical: {}",
            leg.cold_runs,
            leg.cold_wall_us,
            leg.warm_runs,
            leg.warm_wall_us,
            leg.hits,
            leg.misses,
            leg.identical,
        );
        assert!(
            leg.identical,
            "cache-served sweep diverged from the cold sweep"
        );
        assert!(leg.hits > 0, "warm sweep produced no cache hits");
        report = report.with_cache_leg(leg);
    }
    if o.store_leg > 0 {
        let scratch =
            std::env::temp_dir().join(format!("fd-sweep-store-leg-{}", std::process::id()));
        std::fs::remove_dir_all(&scratch).ok();
        let leg = fd_bench::store_leg(o.store_leg, runner, &scratch)
            .unwrap_or_else(|e| panic!("store leg: {e}"));
        std::fs::remove_dir_all(&scratch).ok();
        println!(
            "store leg: {} cold runs ({} us, {} cells written); resume: {} us open+hydrate, \
             {} us sweep — {} hits, {} misses, identical: {}, speedup {:.0}x",
            leg.cold_runs,
            leg.cold_wall_us,
            leg.wrote,
            leg.open_wall_us,
            leg.warm_wall_us,
            leg.warm_hits,
            leg.warm_misses,
            leg.identical,
            leg.speedup,
        );
        assert!(
            leg.identical,
            "store-resumed sweep diverged from the cold sweep"
        );
        assert_eq!(
            leg.wrote, leg.cold_runs,
            "cold sweep cells not all persisted"
        );
        assert_eq!(
            leg.warm_hits, leg.warm_runs,
            "store resume was not all cache hits"
        );
        assert_eq!(leg.warm_misses, 0, "store resume recomputed cells");
        report = report.with_store_leg(leg);
    }
    if o.adv > 0 {
        let leg = fd_bench::adversary_leg(o.adv, runner, o.adv_drop, o.adv_dup);
        println!(
            "adversary leg ({}): {}/{} runs passed, {} dropped, {} duplicated — {:.1} runs/s",
            leg.adversary, leg.passes, leg.runs, leg.dropped, leg.duplicated, leg.runs_per_sec,
        );
        assert!(
            leg.deterministic,
            "adversary grid did not rerun bit-identically"
        );
        assert!(
            leg.none_identical,
            "explicit MessageAdversary::None diverged from the default spec"
        );
        assert!(
            leg.churn_catchup_live,
            "churn + catch-up failed the liveness envelope under the adversary"
        );
        assert!(
            leg.churn_safety_only,
            "churn without catch-up no longer scores safety-only"
        );
        report = report.with_adversary_leg(leg);
    }
    if o.topo > 0 {
        let leg = fd_bench::topology_leg(o.topo, runner);
        println!(
            "topology leg ({}): {}/{} runs passed, {} severed — heal grid [{}], \
             negative witness seeds {:?}",
            leg.schedule,
            leg.passes,
            leg.runs,
            leg.severed,
            leg.cells
                .iter()
                .map(|c| format!("{}:{}/{}", c.heal, c.passes, c.runs))
                .collect::<Vec<_>>()
                .join(", "),
            leg.negative_witness_seeds,
        );
        assert!(
            leg.deterministic,
            "partitioned grid did not rerun bit-identically"
        );
        assert!(
            leg.none_identical,
            "explicit TopologySchedule::None diverged from the default spec"
        );
        assert!(
            leg.churn_partition_live,
            "churn + catch-up failed liveness under a partition-during-join"
        );
        assert!(
            leg.liveness_flip,
            "heal-time phase diagram did not flip: earliest heal must pass, \
             past-horizon heal must fail"
        );
        report = report.with_topology_leg(leg);
    }
    if !o.curve.is_empty() {
        let sc = fd_bench::scaling_curve(&o.curve, 1, runner);
        for p in &sc.points {
            println!(
                "scaling curve (n={}): {} events in {} us — {:.0} events/s",
                p.n, p.events, p.wall_us, p.events_per_sec,
            );
            assert_eq!(
                p.passes, p.runs,
                "scaling point n={} failed its spec check",
                p.n
            );
        }
        report = report.with_scaling(sc);
    }
    if o.profile {
        println!("event profile (per phase):");
        for c in &report.cells {
            println!(
                "  grid      {:<28} {:>12} events  ({} runs)",
                c.label, c.events, c.runs
            );
        }
        println!(
            "  grid      {:<28} {:>12} events  ({} runs)",
            "TOTAL", report.total_events, report.total_runs
        );
        if let Some(s) = &report.stream {
            println!(
                "  stream    {:<28} {:>12} events  ({} runs)",
                s.cell, s.events, s.runs
            );
        }
        if let Some(a) = &report.adversary_leg {
            for c in &a.cells {
                println!(
                    "  adversary {:<28} {:>12} events  ({} runs)",
                    c.label, c.events, c.runs
                );
            }
            println!(
                "  adversary {:<28} {:>12} events  ({} runs)",
                "TOTAL", a.events, a.runs
            );
        }
        if let Some(t) = &report.topology_leg {
            for c in &t.cells {
                println!(
                    "  topology  heal={:<23} {:>12} events  ({} runs)",
                    c.heal, c.events, c.runs
                );
            }
            println!(
                "  topology  {:<28} {:>12} events  ({} runs)",
                "TOTAL", t.events, t.runs
            );
        }
        if let Some(cache) = store_cache {
            // Occupancy and "eviction" (capped-insert) stats: how full the
            // in-memory cache is and whether store hydration was capped.
            println!(
                "  cache     {:<28} {:>12} entries ({} hits, {} misses, {} hydrated, {} capped)",
                "report-cache",
                cache.len(),
                cache.hits(),
                cache.misses(),
                cache.hydrated(),
                cache.capped_inserts(),
            );
        }
    }
    let json = report.to_json();
    std::fs::write(&o.out, &json).expect("write BENCH_sweep.json");
    println!("wrote {}", o.out);
    assert_eq!(
        report.total_passes, report.total_runs,
        "grid sweep had failing cells"
    );
    if let Some(path) = &o.baseline {
        let base =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        match fd_bench::check_baseline(&report, &base, 30) {
            BaselineVerdict::Ok(msg) => println!("baseline check ok: {msg}"),
            BaselineVerdict::Regressed(msg) => {
                eprintln!("baseline check FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        for line in ["--sedes 3", "--seeds 3 extra", "bench"] {
            assert!(MainOpts::parse(&argv(line)).is_err(), "main: {line}");
        }
        assert!(SearchOpts::parse(&argv("--seeds 3")).is_err());
        assert!(analyze_dirs(&argv("runs/a --threads")).is_err());
        assert!(analyze_dirs(&[]).is_err());
        assert_eq!(analyze_dirs(&argv("a b")).unwrap().len(), 2);
    }

    #[test]
    fn removed_queue_flags_are_rejected() {
        // Spelled in pieces so a tree-wide grep for the removed flags
        // stays empty.
        for gone in ["queue", "compare", "large", concat!("auto", "-queue")] {
            let line = format!("--seeds 1 --{gone} 0");
            let err = MainOpts::parse(&argv(&line)).err().expect(&line);
            assert!(err.contains(gone), "{err}");
        }
    }

    #[test]
    fn missing_and_unparsable_values_are_rejected() {
        for line in [
            "--seeds",
            "--seeds --threads 2",
            "--seeds 1O",
            "--threads -1",
            "--adv-drop 300",
            "--curve 256,x",
            "--n-max big",
        ] {
            assert!(MainOpts::parse(&argv(line)).is_err(), "main: {line}");
        }
        for line in ["--budget", "--budget many", "--search-seed -4"] {
            assert!(SearchOpts::parse(&argv(line)).is_err(), "search: {line}");
        }
    }

    #[test]
    fn every_surviving_flag_is_accepted() {
        let o = MainOpts::parse(&argv(
            "--seeds 3 --threads 2 --stream 7 --cache 4 --store-leg 5 --store d --resume \
             --adv 6 --adv-drop 11 --adv-dup 12 --topo 8 --curve 128,256,512 --n-max 256 \
             --baseline b.json --out o.json --profile",
        ))
        .unwrap();
        assert_eq!((o.seeds, o.threads, o.stream), (3, 2, 7));
        assert_eq!((o.cache, o.store_leg, o.adv, o.topo), (4, 5, 6, 8));
        assert_eq!((o.adv_drop, o.adv_dup), (11, 12));
        assert_eq!(o.curve, vec![128, 256], "--n-max trims the curve");
        assert_eq!(o.store.as_deref(), Some("d"));
        assert_eq!(o.baseline.as_deref(), Some("b.json"));
        assert_eq!(o.out, "o.json");
        assert!(o.resume && o.profile);

        let d = MainOpts::parse(&[]).unwrap();
        assert_eq!((d.seeds, d.threads, d.stream), (25, 0, 100_000));
        assert_eq!(d.curve, vec![256, 512, 1024]);
        assert_eq!(d.out, "BENCH_sweep.json");
        assert!(!d.resume && !d.profile && d.store.is_none());
        assert!(MainOpts::parse(&argv("--curve 0"))
            .unwrap()
            .curve
            .is_empty());

        let s = SearchOpts::parse(&argv(
            "--budget 9 --search-seed 5 --seeds-per-spec 2 --max-witnesses 1 --threads 3 \
             --store d --resume --out w.json",
        ))
        .unwrap();
        assert_eq!((s.cfg.budget, s.cfg.search_seed), (9, 5));
        assert_eq!((s.cfg.seeds_per_spec, s.cfg.max_witnesses), (2, 1));
        assert_eq!((s.threads, s.resume, s.out.as_str()), (3, true, "w.json"));
        assert_eq!(s.store.as_deref(), Some("d"));
    }
}
