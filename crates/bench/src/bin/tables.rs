//! Prints every experiment table of `fd_bench::experiments` (E1–E15);
//! after its first three lines, the output is `tests/golden/tables_quick.md`
//! with `--quick` and `tests/golden/tables_full.md` without.
//!
//! Usage: `cargo run -p fd-bench --bin tables --release [-- --quick]
//! [-- --store DIR [--resume]]`
//!
//! `--store DIR` opens DIR as a durable run directory (the
//! `fd_bench::StoreSession` `sweep search --store` uses too): stored cells
//! hydrate the report cache, new cells persist as they finish, and a rerun
//! resumes from disk. `--resume` aborts unless every swept run was served
//! from the directory. Store status goes to stderr; stdout is the tables.
//! A usage error (unknown, repeated or valueless flag, `--resume` without
//! `--store`) prints the usage on stderr and exits with status 2.

use fd_bench::flags::{Flags, Known};
use fd_bench::StoreSession;
use fd_detectors::scenario::Runner;

const USAGE: &str = "usage: tables [--quick] [--store DIR [--resume]]";

const FLAGS: &Known = &[("--quick", false), ("--store", true), ("--resume", false)];

/// One invocation's options.
struct Opts<'a> {
    quick: bool,
    store: Option<&'a str>,
    resume: bool,
}

impl<'a> Opts<'a> {
    fn parse(argv: &'a [String]) -> Result<Self, String> {
        let f = Flags::parse(argv, FLAGS)?;
        let (store, resume) = f.store()?;
        Ok(Opts {
            quick: f.has("--quick"),
            store,
            resume,
        })
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let o = Opts::parse(&argv).unwrap_or_else(|msg| {
        eprintln!("tables: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    // --store DIR: the swept cells hydrate from the run directory and
    // persist into it as they land.
    let session = o.store.map(|dir| {
        let session =
            StoreSession::open(dir, |_| {}).unwrap_or_else(|e| panic!("open --store {dir}: {e}"));
        eprintln!("{}", session.opened());
        session
    });
    let runner = match &session {
        Some(session) => Runner::parallel().with_cache(session.cache()),
        None => Runner::parallel(),
    };
    println!(
        "# Experiment tables — Irreducibility and Additivity of Set \
         Agreement-oriented Failure Detector Classes (PODC 2006)"
    );
    println!(
        "\nmode: {} (seeds per configuration: {})",
        if o.quick { "quick" } else { "full" },
        fd_bench::experiments::seeds(o.quick)
    );
    // The run directory's invocation log keeps a wall time; the tables do
    // not.
    let t0 = std::time::Instant::now();
    for table in fd_bench::all(o.quick, runner) {
        println!("{table}");
    }
    if let Some(session) = session {
        // Every swept run is one cache lookup.
        let cache = session.cache();
        let runs = cache.hits() + cache.misses();
        match session.close(runs, t0.elapsed().as_micros() as u64, o.resume) {
            Ok(line) => eprintln!("{line}"),
            Err(msg) => panic!("{msg}"),
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
    fn typos_and_missing_values_are_rejected() {
        for line in [
            "--quik",
            "--store",
            "--store --quick",
            "--quick runs/x",
            "--quick --quick",
            "--resume",
            "--quick --resume",
            "--store d --resume --resume",
        ] {
            assert!(Opts::parse(&argv(line)).is_err(), "{line}");
        }
        let all = argv("--quick --store d --resume");
        let o = Opts::parse(&all).unwrap();
        assert!(o.quick && o.resume);
        assert_eq!(o.store, Some("d"));
        let none = Opts::parse(&[]).unwrap();
        assert!(!none.quick && !none.resume && none.store.is_none());
    }
}
