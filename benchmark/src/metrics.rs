//! The metric registry: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names; a harness test keeps the two in step.

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// Simulated work (events, plus shared-memory steps) per host second over
/// the batch phase of a repetition.
pub const EVENTS_PER_S: &str = "events_per_s";
/// Cells served per host second by a warm resume of the workload's run
/// directory (open + hydrate + all-hit sweep).
pub const RESUME_CELLS_PER_S: &str = "resume_cells_per_s";
/// Peak live heap over the timed repetitions, from the counting allocator.
pub const HEAP_PEAK_MB: &str = "heap_peak_mb";
/// Wall time of one set-up round: Σ over its parts of the part's fastest
/// time across the run's rounds.
pub const SETUP_S: &str = "setup_s";

/// The end-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: EVENTS_PER_S,
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: RESUME_CELLS_PER_S,
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: HEAP_PEAK_MB,
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A per-layer metric: one number about one module, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `crate.module.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer metrics, printed by every `--trace 1` run.
pub const PER_LAYER: [PerLayer; 58] = [
    lower("detectors.scenario.materialize.ns_per_run", "ns"),
    lower("detectors.scenario.oracle_build.ns_per_run", "ns"),
    lower("detectors.scenario.report.ns_per_run", "ns"),
    lower("detectors.scenario.spec_fingerprint.ns", "ns"),
    lower("detectors.scenario.cache.hit_ns", "ns"),
    lower("detectors.scenario.cache.miss_ns", "ns"),
    higher("detectors.scenario.cache.hit_ratio", "ratio"),
    lower("detectors.scenario.runner.overhead_share", "share"),
    higher("detectors.scenario.runner.speedup_t2", "x"),
    lower("sim.runtime.new.ns_per_run", "ns"),
    lower("sim.runtime.allocs_per_run", "count"),
    lower("sim.runtime.loop.ns_per_event", "ns"),
    lower("sim.runtime.loop.share", "share"),
    lower("sim.runtime.loop.unattributed_share", "share"),
    lower("sim.runtime.loop.ns_per_event_n512", "ns"),
    lower("sim.runtime.loop.slope_n512_over_n128", "x"),
    lower("sim.runtime.stop.ns_per_event", "ns"),
    lower("sim.runtime.stop.share", "share"),
    lower("sim.event.push.ns_per_op", "ns"),
    lower("sim.event.pop.ns_per_op", "ns"),
    lower("sim.event.depth_max", "count"),
    lower("sim.event.ops", "count"),
    lower("sim.event.share", "share"),
    lower("sim.network.route.ns_per_msg", "ns"),
    lower("sim.network.msgs", "count"),
    lower("sim.network.share", "share"),
    lower("sim.network.armed.ns_per_msg", "ns"),
    higher("sim.network.armed.delivered_ratio", "ratio"),
    lower("sim.arena.take.ns_per_op", "ns"),
    lower("sim.arena.takes", "count"),
    lower("sim.arena.share", "share"),
    lower("sim.trace.bump.ns_per_op", "ns"),
    lower("sim.trace.deciders.ns_per_op", "ns"),
    lower("sim.trace.publish.ns_per_op", "ns"),
    lower("sim.trace.publishes", "count"),
    lower("sim.trace.share", "share"),
    lower("core.rounds.phase1.ns_per_msg", "ns"),
    lower("core.rounds.phase2.ns_per_msg", "ns"),
    lower("core.rounds.slab_new.ns", "ns"),
    lower("core.rounds.share", "share"),
    lower("core.kset_omega.on_message.ns_per_msg", "ns"),
    lower("core.kset_omega.msg_bytes", "B"),
    lower("core.kset_omega.share", "share"),
    lower("core.spec.check.ns_per_run", "ns"),
    lower("detectors.check.class.ns_per_run", "ns"),
    lower("detectors.oracle.query.ns_per_op", "ns"),
    lower("transforms.two_wheels.ns_per_event", "ns"),
    lower("transforms.psi_omega.ns_per_event", "ns"),
    lower("transforms.addition_mp.ns_per_event", "ns"),
    lower("transforms.addition_shm.ns_per_step", "ns"),
    lower("grid.pipeline.ns_per_event", "ns"),
    lower("bench.store.encode.ns_per_cell", "ns"),
    lower("bench.store.persist.ns_per_cell", "ns"),
    lower("bench.store.bytes_per_cell", "B"),
    lower("bench.store.decode.ns_per_cell", "ns"),
    lower("bench.store.open_hydrate.ns_per_cell", "ns"),
    higher("bench.json.parse.mb_per_s", "MB/s"),
    lower("trace_overhead_share", "share"),
];

/// One measured value, as it goes into the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one benchmark process reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output was the expected one.
    pub correct: bool,
    /// Operations attempted (scenario runs and resumed cells).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Every metric of the run's mode, in registry order.
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Values print with Rust's
    /// shortest round-trip formatting, so every measured digit survives.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_bench::json::{self, Json};
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = crate::expected::benchmark_dir().join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = manifest();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_is_better),
                )
            })
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_is_better),
                )
            })
            .collect();
        assert_eq!(listed("per_layer"), layers);
        for (m, listed) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let out = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Measured {
                name: SETUP_S,
                value: 0.8127,
                unit: "s",
            }],
        };
        let line = out.result_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get(SETUP_S).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
