//! `expected.json`: the `--seed 0` count tuples of every workload.
//!
//! Plain counts per cell — runs, passes, refusals, violations, Σ events,
//! Σ messages, Σ decided values — never a `fingerprint()` digest, so the
//! file survives a change of hasher. `fd-benchmark --record` rewrites it;
//! every run at `--seed 0` checks its warm-up repetition against it.

use crate::workloads::{batch, run_batch, work, Tally, Workload};
use fd_bench::json::{self, Json};
use fd_detectors::scenario::Runner;
use std::path::{Path, PathBuf};

/// Events of one `grid_small` repetition at `--seed 0`: the main grid at
/// its historical 25 seeds per cell, the `total_events` of every
/// `BENCH_sweep.json` through PR 9.
pub const GRID_SMALL_EVENTS: u64 = 1_230_816;
/// Events of one `scale_n128` repetition at `--seed 0`: the first two
/// seeds of the scaling curve's n = 128 point.
pub const SCALE_N128_EVENTS: u64 = 687_534;

const SCHEMA: &str = "fd-benchmark-expected/1";

/// The benchmark's own directory (where `expected.json` and `out/` live).
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where the expectations live.
pub fn expected_path() -> PathBuf {
    benchmark_dir().join("expected.json")
}

/// The recorded tallies of one workload, in batch order.
pub fn load(path: &Path, workload: Workload) -> Result<Vec<(String, Tally)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} file", path.display()));
    }
    let cells = doc
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .and_then(|w| w.get("cells"))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no cells for {}", path.display(), workload.name()))?;
    cells
        .iter()
        .map(|c| {
            let num = |key: &str| {
                c.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("expected cell lacks {key}"))
            };
            let label = c
                .get("label")
                .and_then(Json::as_str)
                .ok_or("expected cell lacks label")?;
            Ok((
                label.to_string(),
                Tally {
                    runs: num("runs")?,
                    passes: num("passes")?,
                    refusals: num("refusals")?,
                    violations: num("violations")?,
                    events: num("events")?,
                    msgs: num("msgs")?,
                    decided_sum: num("decided_sum")?,
                },
            ))
        })
        .collect()
}

/// Runs every workload's `--seed 0` batch once and writes the tallies,
/// one cell per line so a moved count shows as a one-line diff.
pub fn record(path: &Path) -> Result<(), String> {
    let runner = Runner::sequential();
    let mut out = format!("{{\"schema\":\"{SCHEMA}\",\"seed\":0,\n\"workloads\":{{\n");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let cells = batch(workload, 0);
        let tallies = run_batch(runner, &cells);
        let mut total = Tally::default();
        tallies.iter().for_each(|t| total.add(t));
        out.push_str(&format!(
            "\"{}\":{{\"runs\":{},\"events\":{},\"work\":{},\"cells\":[\n",
            workload.name(),
            total.runs,
            total.events,
            work(&cells, &tallies)
        ));
        for (i, (cell, t)) in cells.iter().zip(&tallies).enumerate() {
            let line = Json::obj([
                ("label", Json::str(cell.label.as_str())),
                ("runs", Json::num_u64(t.runs)),
                ("passes", Json::num_u64(t.passes)),
                ("refusals", Json::num_u64(t.refusals)),
                ("violations", Json::num_u64(t.violations)),
                ("events", Json::num_u64(t.events)),
                ("msgs", Json::num_u64(t.msgs)),
                ("decided_sum", Json::num_u64(t.decided_sum)),
            ])
            .emit();
            out.push_str(&line);
            out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
        }
        out.push_str(if w + 1 < Workload::ALL.len() {
            "]},\n"
        } else {
            "]}\n"
        });
    }
    out.push_str("}}\n");
    json::parse(&out).map_err(|e| format!("recorded document does not parse: {e}"))?;
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(workload: Workload) -> u64 {
        load(&expected_path(), workload)
            .unwrap()
            .iter()
            .map(|(_, t)| t.events)
            .sum()
    }

    #[test]
    fn committed_expectations_carry_the_pinned_totals() {
        assert_eq!(events(Workload::GridSmall), GRID_SMALL_EVENTS);
        assert_eq!(events(Workload::ScaleN128), SCALE_N128_EVENTS);
    }

    #[test]
    fn committed_expectations_cover_every_cell_of_every_batch() {
        for workload in Workload::ALL {
            let want: Vec<String> = batch(workload, 0).into_iter().map(|c| c.label).collect();
            let have: Vec<String> = load(&expected_path(), workload)
                .unwrap()
                .into_iter()
                .map(|(label, _)| label)
                .collect();
            assert_eq!(have, want, "{}", workload.name());
        }
    }

    #[test]
    fn the_grid_batch_is_the_historical_workload() {
        // Recomputed, not read back: the 300-run main grid.
        let cells = batch(Workload::GridSmall, 0);
        let events: u64 = run_batch(Runner::sequential(), &cells)
            .iter()
            .map(|t| t.events)
            .sum();
        assert_eq!(events, GRID_SMALL_EVENTS);
    }

    #[test]
    fn no_digest_is_recorded() {
        let text = std::fs::read_to_string(expected_path()).unwrap();
        assert!(!text.contains("fingerprint") && !text.contains("salt"));
    }
}
