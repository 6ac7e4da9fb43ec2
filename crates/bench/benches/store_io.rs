//! Sweep-store I/O microbenches: the cell codec in isolation, the full
//! persist path (spill → writer thread → batched fsync'd segments), and
//! the resume path (segment replay + cache hydration). These bound the
//! store's overhead against the sweep it serves: a cold million-seed
//! campaign pays `persist` once per computed cell, a resume pays `reopen`
//! once per process — both must stay far below the cost of simulating
//! the cells they save.

use fd_bench::{decode_cell, encode_cell, Suite, SweepStore};
use fd_detectors::scenario::{Metrics, ReportCache, SlimReport};
use fd_detectors::{CheckOutcome, ViolationClass};
use fd_sim::Time;
use std::hint::black_box;
use std::path::PathBuf;

const CELLS: u64 = 1_000;

/// A persisted cell shaped like the ones a k-set sweep stores: the four
/// `sim.*` counters (names the decoder interns), a ~70-byte non-ASCII
/// detail with nothing to escape on a pass (the decoder borrows it from
/// the line) and one that needs escaping on a failure, one decided value.
fn sample(seed: u64) -> SlimReport {
    let ok = !seed.is_multiple_of(7);
    SlimReport {
        scenario: "kset_omega",
        seed,
        num_faulty: 2,
        check: CheckOutcome {
            ok,
            stabilized_at: Some(Time(400 + seed % 64)),
            detail: String::from(if ok {
                "validity; 1 distinct decisions ≤ k = 1; termination; decide-once"
            } else {
                "termination: correct process p3 never decided (\"stuck\" in round 6)"
            }),
            class: if ok {
                ViolationClass::None
            } else {
                ViolationClass::Termination
            },
        },
        metrics: Metrics {
            msgs_sent: 1_200 + seed,
            rb_sent: 40,
            delivered: 1_100 + seed,
            events: 2_500 + seed.wrapping_mul(3),
            max_round: 6,
            decided_values: vec![seed % 5],
            first_decision: Some(Time(410)),
            last_decision: Some(Time(470 + seed % 32)),
        },
        counters: vec![
            ("sim.delivered", 1_100 + seed),
            ("sim.events", 2_500 + seed.wrapping_mul(3)),
            ("sim.rb_sent", 40),
            ("sim.sent", 1_200 + seed),
        ],
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fd-store-io-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Writes `CELLS` cells through the full spill → writer → segment path.
fn persist(dir: &PathBuf) -> u64 {
    std::fs::remove_dir_all(dir).ok();
    let store = SweepStore::open(dir).expect("open scratch run dir");
    let spill = store.spill();
    for seed in 0..CELLS {
        spill(0x5EED_0001, seed, &sample(seed));
    }
    let wrote = store.flush().expect("flush");
    store.close().expect("close");
    wrote
}

fn main() {
    let mut suite = Suite::new("store_io");

    // Codec in isolation: encode and decode of one canonical cell line.
    let lines: Vec<String> = (0..CELLS)
        .map(|seed| encode_cell(0x5EED_0001, seed, &sample(seed)))
        .collect();
    suite.bench("encode_1k_cells", || {
        let mut bytes = 0usize;
        for seed in 0..CELLS {
            bytes += encode_cell(0x5EED_0001, seed, &sample(seed)).len();
        }
        black_box(bytes)
    });
    suite.bench("decode_1k_cells", || {
        let mut ok = 0usize;
        for line in &lines {
            ok += usize::from(decode_cell(line).is_ok());
        }
        assert_eq!(ok, CELLS as usize, "all benchmark lines must decode");
        black_box(ok)
    });

    // Full write path, batched segments and fsync included.
    let persist_dir = scratch("persist");
    suite.bench("persist_1k_cells", || {
        let wrote = persist(&persist_dir);
        assert_eq!(wrote, CELLS, "dedup must not eat fresh cells");
        black_box(wrote)
    });

    // Resume path: replay segments, hydrate a fresh cache.
    let reopen_dir = scratch("reopen");
    persist(&reopen_dir);
    suite.bench("reopen_and_hydrate_1k", || {
        let store = SweepStore::open(&reopen_dir).expect("reopen run dir");
        assert_eq!(store.loaded(), CELLS as usize);
        let cache = ReportCache::new();
        let hydrated = store.hydrate_into(&cache);
        assert_eq!(hydrated, CELLS as usize);
        store.close().expect("close");
        black_box(hydrated)
    });

    std::fs::remove_dir_all(&persist_dir).ok();
    std::fs::remove_dir_all(&reopen_dir).ok();
}
