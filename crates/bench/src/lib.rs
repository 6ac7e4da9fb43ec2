//! # fd-bench — experiment harness regenerating every paper artifact
//!
//! One experiment per figure/theorem of the paper, plus the adversary,
//! heal-time and scaling studies (the [`experiments`] module is the
//! index), all driven by the unified scenario engine. The [`experiments`]
//! module computes the tables; the `tables` binary prints them
//! (`cargo run -p fd-bench --bin tables --release`), and its two
//! renderings are the goldens of counted results (runs, passes, events,
//! messages — no wall clock): `tests/golden/tables_quick.md` and
//! `tests/golden/tables_full.md`. The `sweep` binary runs the adversary
//! search and aggregates run directories. Nothing here times anything:
//! every perf number comes from the repo benchmark (`BENCHMARK.json`, the
//! `benchmark/` package).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod experiments;
pub mod flags;
pub mod micro;
pub mod search;
pub mod store;
pub mod table;

pub use fd_detectors::json;

pub use analyze::{analyze_run_dirs, AnalyzeReport};
pub use experiments::all;
pub use micro::CountingAlloc;
pub use search::{
    classify, describe_spec, expects_safety_violation, generate, probe_specs, run_search,
    scenario_for, shrink, MinimalWitness, RunClass, SearchConfig, SearchReport, SearchStats,
    ShrinkOutcome, ShrinkStep, ShrinkStepRecord, UnexpectedViolation, SEARCH_SCHEMA,
    WITNESS_SCHEMA,
};
pub use store::{
    decode_cell, encode_cell, load_run_dir, InvocationRecord, Manifest, RunDir, SpecEntry,
    StoreSession, StoreSummary, SweepStore, STORE_FORMAT,
};
pub use table::Table;
