//! Prints every experiment table of `fd_bench::experiments`.
//!
//! Usage: `cargo run -p fd-bench --bin tables --release [-- --quick]
//! [-- --store DIR]`
//!
//! `--store DIR` opens DIR as a durable run directory (see
//! `fd_bench::store`): previously computed sweep cells hydrate the global
//! report cache before the experiments run, and newly computed cells are
//! persisted as they finish — rerunning with the same DIR resumes the
//! swept experiments from disk.
//!
//! An unknown flag, a repeated flag or a `--store` without a value prints
//! the usage on stderr and exits with status 2 — nothing runs on a typo.

use fd_bench::flags::{Flags, Known};
use fd_bench::SweepStore;
use fd_detectors::scenario::ReportCache;

const USAGE: &str = "usage: tables [--quick] [--store DIR]";

const FLAGS: &Known = &[("--quick", false), ("--store", true)];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&argv, FLAGS).unwrap_or_else(|msg| {
        eprintln!("tables: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    let quick = flags.has("--quick");
    let store = flags.text("--store").map(|dir| {
        let store = SweepStore::open(dir).unwrap_or_else(|e| panic!("open --store {dir}: {e}"));
        let hydrated = fd_bench::experiments::attach_store(&store);
        eprintln!(
            "store: opened {dir} — {} cell(s) on disk, {hydrated} hydrated",
            store.loaded()
        );
        store
    });
    println!(
        "# Experiment tables — Irreducibility and Additivity of Set \
         Agreement-oriented Failure Detector Classes (PODC 2006)"
    );
    println!(
        "\nmode: {} (seeds per configuration: {})",
        if quick { "quick" } else { "full" },
        fd_bench::experiments::seeds(quick)
    );
    for table in fd_bench::all(quick) {
        println!("{table}");
    }
    if let Some(store) = store {
        let cache = ReportCache::global();
        let dir = store.dir().display().to_string();
        let summary = store.close().unwrap_or_else(|e| panic!("store close: {e}"));
        eprintln!(
            "store: closed {dir} — wrote {} new cell(s), {} hits / {} misses this run",
            summary.wrote,
            cache.hits(),
            cache.misses(),
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
