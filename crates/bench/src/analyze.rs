//! `sweep analyze` — aggregate run directories into tables.
//!
//! Consumes one or more run directories written by `tables --store DIR`
//! or `sweep search --store DIR` (see [`crate::store`]) and renders:
//!
//! - a **per-spec table**: runs, pass rate, mean events / messages /
//!   rounds, and mean decision time, one row per registered spec (cells
//!   whose salt is not in any manifest are grouped under the raw salt);
//! - a **phase summary**: specs bucketed by pass-rate band — the
//!   termination-phase-diagram shape (all-pass / mixed / all-fail) that a
//!   heal-time-vs-pass-rate sweep will later reuse;
//! - an **invocations table**: per-invocation runs / hits / misses /
//!   cells-written / wall time, straight from the manifests — the
//!   resume-behavior audit trail.
//!
//! Aggregation is pure over the cells: overlapping directories dedup by
//! `(salt, seed)` (later directories win), so re-analyzing a resumed
//! campaign never double-counts a cell.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;

use fd_detectors::scenario::SlimReport;

use crate::store::{load_run_dir, RunDir};
use crate::table::Table;

/// Aggregated view over one or more run directories.
#[derive(Debug)]
pub struct AnalyzeReport {
    /// The loaded directories, in argument order. Their cells have moved
    /// into `cells`.
    pub dirs: Vec<RunDir>,
    /// Deduped cells across all directories, keyed `(salt, seed)`.
    pub cells: HashMap<(u64, u64), SlimReport>,
    /// Total corrupt lines skipped across directories.
    pub corrupt: u64,
}

/// Per-spec aggregate used by the tables.
#[derive(Clone, Debug, Default)]
pub struct SpecAggregate {
    /// Human label (from a manifest) or `salt:<hex>` fallback.
    pub label: String,
    /// Cells aggregated.
    pub runs: u64,
    /// Cells whose check passed.
    pub passes: u64,
    /// Sum of engine events.
    pub events: u64,
    /// Sum of point-to-point messages.
    pub msgs: u64,
    /// Sum of max rounds.
    pub rounds: u64,
    /// Sum + count of last-decision times (decided runs only).
    pub decision_time_sum: u64,
    /// Number of runs that decided at all.
    pub decided_runs: u64,
}

impl SpecAggregate {
    /// Pass rate in [0, 1].
    pub fn pass_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.passes as f64 / self.runs as f64
        }
    }
}

/// Loads and merges `dirs` (later directories win on key collisions).
pub fn analyze_run_dirs(dirs: &[impl AsRef<Path>]) -> io::Result<AnalyzeReport> {
    let mut loaded = Vec::with_capacity(dirs.len());
    let mut cells = HashMap::new();
    let mut corrupt = 0u64;
    for dir in dirs {
        let mut run = load_run_dir(dir)?;
        corrupt += run.corrupt;
        cells.extend(std::mem::take(&mut run.cells));
        loaded.push(run);
    }
    Ok(AnalyzeReport {
        dirs: loaded,
        cells,
        corrupt,
    })
}

impl AnalyzeReport {
    /// Groups the cells per spec salt, labeled via the manifests.
    pub fn aggregates(&self) -> Vec<SpecAggregate> {
        let mut by_salt: BTreeMap<u64, SpecAggregate> = BTreeMap::new();
        for ((salt, _seed), slim) in &self.cells {
            let agg = by_salt.entry(*salt).or_insert_with(|| {
                let label = self
                    .dirs
                    .iter()
                    .rev() // later dirs win, like the cell merge
                    .find_map(|d| d.manifest.label_for_salt(*salt))
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("salt:{salt:016x}"));
                SpecAggregate {
                    label,
                    ..SpecAggregate::default()
                }
            });
            agg.runs += 1;
            agg.passes += u64::from(slim.check.ok);
            agg.events += slim.metrics.events;
            agg.msgs += slim.metrics.msgs_sent;
            agg.rounds += slim.metrics.max_round;
            if let Some(t) = slim.metrics.last_decision {
                agg.decision_time_sum += t.0;
                agg.decided_runs += 1;
            }
        }
        by_salt.into_values().collect()
    }

    /// The per-spec pass-rate / events table.
    pub fn spec_table(&self) -> Table {
        let mut t = Table::new(
            "Sweep cells by spec",
            &[
                "spec",
                "runs",
                "pass",
                "pass %",
                "avg events",
                "avg msgs",
                "avg round",
                "avg t_dec",
            ],
        );
        for agg in self.aggregates() {
            let avg = |sum: u64| -> String {
                if agg.runs == 0 {
                    "-".into()
                } else {
                    format!("{:.1}", sum as f64 / agg.runs as f64)
                }
            };
            let t_dec = if agg.decided_runs == 0 {
                "-".into()
            } else {
                format!(
                    "{:.1}",
                    agg.decision_time_sum as f64 / agg.decided_runs as f64
                )
            };
            t.row(vec![
                agg.label.clone(),
                agg.runs.to_string(),
                agg.passes.to_string(),
                format!("{:.1}", agg.pass_rate() * 100.0),
                avg(agg.events),
                avg(agg.msgs),
                avg(agg.rounds),
                t_dec,
            ]);
        }
        t.note(format!(
            "{} cells across {} run dir(s); {} corrupt line(s) skipped",
            self.cells.len(),
            self.dirs.len(),
            self.corrupt
        ));
        t
    }

    /// The phase summary: specs bucketed by pass-rate band. This is the
    /// termination phase diagram shape — a parameter sweep reads as
    /// "which region of spec space always terminates, which never does,
    /// and where is the transition".
    pub fn phase_table(&self) -> Table {
        let mut t = Table::new(
            "Termination phase summary",
            &["phase", "specs", "runs", "example spec"],
        );
        let aggs = self.aggregates();
        type Band = (&'static str, Box<dyn Fn(f64) -> bool>);
        let bands: [Band; 3] = [
            ("all pass (100%)", Box::new(|r| r >= 1.0)),
            ("mixed (0–100%)", Box::new(|r| r > 0.0 && r < 1.0)),
            ("all fail (0%)", Box::new(|r| r <= 0.0)),
        ];
        for (name, in_band) in &bands {
            let members: Vec<&SpecAggregate> = aggs
                .iter()
                .filter(|a| a.runs > 0 && in_band(a.pass_rate()))
                .collect();
            t.row(vec![
                name.to_string(),
                members.len().to_string(),
                members.iter().map(|a| a.runs).sum::<u64>().to_string(),
                members
                    .first()
                    .map(|a| a.label.clone())
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        t
    }

    /// The per-invocation wall-time table, from the manifests.
    pub fn invocations_table(&self) -> Table {
        let mut t = Table::new(
            "Invocations",
            &["dir", "runs", "hits", "misses", "wrote", "wall"],
        );
        for run in &self.dirs {
            let dir_name = run
                .dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| run.dir.display().to_string());
            for inv in &run.manifest.invocations {
                t.row(vec![
                    dir_name.clone(),
                    inv.runs.to_string(),
                    inv.hits.to_string(),
                    inv.misses.to_string(),
                    inv.wrote.to_string(),
                    format_us(inv.wall_us),
                ]);
            }
        }
        if t.rows.is_empty() {
            t.note("no invocation records (directories written without manifests?)");
        }
        t
    }

    /// Renders the full analyze output (all three tables).
    pub fn render(&self) -> String {
        format!(
            "{}{}{}",
            self.spec_table(),
            self.phase_table(),
            self.invocations_table()
        )
    }
}

fn format_us(us: u64) -> String {
    if us >= 2_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 2_000 {
        format!("{:.1} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{InvocationRecord, SweepStore};
    use fd_detectors::scenario::Metrics;
    use fd_detectors::CheckOutcome;

    fn cell(seed: u64, ok: bool, events: u64) -> SlimReport {
        SlimReport {
            scenario: "analyze_probe",
            seed,
            num_faulty: 0,
            check: if ok {
                CheckOutcome::pass(None, "ok")
            } else {
                CheckOutcome::fail("no")
            },
            metrics: Metrics {
                events,
                last_decision: ok.then_some(fd_sim::Time(40)),
                ..Metrics::default()
            },
            counters: Vec::new(),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("fd-analyze-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn aggregates_and_tables_over_two_dirs() {
        let dir_a = temp_dir("a");
        let dir_b = temp_dir("b");
        {
            let store = SweepStore::open(&dir_a).unwrap();
            let spill = store.spill();
            for seed in 0..10 {
                spill(7, seed, &cell(seed, seed < 8, 100));
            }
            // Overlap: dir B rewrites seeds 5..10 and adds 10..15.
            store.record_invocation(InvocationRecord {
                runs: 10,
                hits: 0,
                misses: 10,
                wrote: 10,
                wall_us: 5_000,
            });
            store.close().unwrap();
            let store = SweepStore::open(&dir_b).unwrap();
            let spill = store.spill();
            for seed in 5..15 {
                spill(7, seed, &cell(seed, seed < 8, 100));
            }
            for seed in 0..4 {
                spill(9, seed, &cell(seed, false, 50));
            }
            store.close().unwrap();
        }
        let report = analyze_run_dirs(&[&dir_a, &dir_b]).unwrap();
        assert_eq!(report.cells.len(), 15 + 4, "dedup across dirs by key");
        let aggs = report.aggregates();
        assert_eq!(aggs.len(), 2);
        let salt7 = &aggs[0];
        assert_eq!((salt7.runs, salt7.passes), (15, 8));
        assert_eq!(salt7.decided_runs, 8);
        let salt9 = &aggs[1];
        assert_eq!((salt9.runs, salt9.passes), (4, 0));
        assert!((salt9.pass_rate()).abs() < 1e-12);
        let rendered = report.render();
        assert!(rendered.contains("Sweep cells by spec"), "{rendered}");
        assert!(rendered.contains("mixed (0–100%)"), "{rendered}");
        assert!(rendered.contains("all fail (0%)"), "{rendered}");
        assert!(rendered.contains("5.0 ms"), "{rendered}");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
