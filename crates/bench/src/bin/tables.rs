//! Prints every experiment table of `fd_bench::experiments`.
//!
//! Usage: `cargo run -p fd-bench --bin tables --release [-- --quick]
//! [-- --store DIR]`
//!
//! `--store DIR` opens DIR as a durable run directory (the same
//! `fd_bench::StoreSession` as `sweep --store`): previously computed sweep
//! cells hydrate the report cache before the experiments run, and newly
//! computed cells are persisted as they finish — rerunning with the same
//! DIR resumes the swept experiments from disk. Store status goes to
//! stderr; stdout is the tables.
//!
//! An unknown flag, a repeated flag or a `--store` without a value prints
//! the usage on stderr and exits with status 2 — nothing runs on a typo.

use fd_bench::flags::{Flags, Known};
use fd_bench::StoreSession;
use fd_detectors::scenario::Runner;

const USAGE: &str = "usage: tables [--quick] [--store DIR]";

const FLAGS: &Known = &[("--quick", false), ("--store", true)];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&argv, FLAGS).unwrap_or_else(|msg| {
        eprintln!("tables: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    let quick = flags.has("--quick");
    // --store DIR: the swept cells hydrate from the run directory and
    // persist into it as they land.
    let session = flags.text("--store").map(|dir| {
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
        if quick { "quick" } else { "full" },
        fd_bench::experiments::seeds(quick)
    );
    // The run directory's invocation log keeps a wall time; the tables do
    // not.
    let t0 = std::time::Instant::now();
    for table in fd_bench::all(quick, runner) {
        println!("{table}");
    }
    if let Some(session) = session {
        // Every swept run is one cache lookup.
        let cache = session.cache();
        let runs = cache.hits() + cache.misses();
        match session.close(runs, t0.elapsed().as_micros() as u64, false) {
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
        ] {
            assert!(Flags::parse(&argv(line), FLAGS).is_err(), "{line}");
        }
        let both = argv("--quick --store runs/x");
        let f = Flags::parse(&both, FLAGS).unwrap();
        assert!(f.has("--quick"));
        assert_eq!(f.text("--store"), Some("runs/x"));
        let none = Flags::parse(&[], FLAGS).unwrap();
        assert!(!none.has("--quick") && none.text("--store").is_none());
    }
}
