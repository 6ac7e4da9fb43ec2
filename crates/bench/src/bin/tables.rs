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

use fd_bench::SweepStore;
use fd_detectors::scenario::ReportCache;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let store = args
        .iter()
        .position(|a| a == "--store")
        .and_then(|i| args.get(i + 1))
        .map(|dir| {
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
