//! # fd-benchmark — the repository's benchmark, measured from outside
//!
//! One binary, `fd-benchmark --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, runs one workload per process and prints every metric
//! by name with its unit, then one JSON result line. Everything it
//! measures it reaches through the public API of the workspace crates; no
//! file outside this directory knows the benchmark exists. `README.md`
//! beside this crate's manifest is the reference: workload and metric
//! glossary, the interaction table, the protocol and its evidence, and the
//! API allow-list.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod campaign;
pub mod expected;
pub mod metrics;
pub mod recompose;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;
