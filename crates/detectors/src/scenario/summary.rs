//! [`SweepSummary`]: the aggregate view of a sweep.

use super::report::{Metrics, ScenarioReport, SlimReport};

/// Aggregate view of a sweep, for tables and benches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Number of runs.
    pub runs: u64,
    /// Runs whose check passed.
    pub passes: u64,
    /// Sum of point-to-point messages across runs.
    pub total_msgs: u64,
    /// Sum of processed events across runs.
    pub total_events: u64,
    /// Sum of per-run max rounds.
    pub total_rounds: u64,
    /// Largest round seen in any run.
    pub max_round: u64,
    /// Sum of last-decision times over the runs that decided.
    pub total_decision_time: u64,
    /// Runs in which at least one decision was made.
    pub decided_runs: u64,
}

impl SweepSummary {
    /// Summarizes a batch of reports.
    pub fn of(reports: &[ScenarioReport]) -> Self {
        let mut s = SweepSummary::default();
        for r in reports {
            s.absorb_parts(r.check.ok, &r.metrics);
        }
        s
    }

    /// Folds one slim report into the summary (the streaming counterpart of
    /// [`SweepSummary::of`], fed by [`Runner::sweep_fold`](super::Runner::sweep_fold)).
    pub fn absorb(&mut self, slim: &SlimReport) {
        self.absorb_parts(slim.check.ok, &slim.metrics);
    }

    fn absorb_parts(&mut self, ok: bool, m: &Metrics) {
        self.runs += 1;
        self.passes += ok as u64;
        self.total_msgs += m.msgs_sent;
        self.total_events += m.events;
        self.total_rounds += m.max_round;
        self.max_round = self.max_round.max(m.max_round);
        if let Some(t) = m.last_decision {
            self.total_decision_time += t.ticks();
            self.decided_runs += 1;
        }
    }

    /// Whether every run passed.
    pub fn all_pass(&self) -> bool {
        self.passes == self.runs
    }

    /// `"passes/runs"`, the tables' favourite cell.
    pub fn pass_cell(&self) -> String {
        format!("{}/{}", self.passes, self.runs)
    }

    /// Mean messages per run (0 if empty).
    pub fn avg_msgs(&self) -> u64 {
        self.total_msgs.checked_div(self.runs).unwrap_or(0)
    }

    /// Mean max-round per run (0 if empty).
    pub fn avg_rounds(&self) -> u64 {
        self.total_rounds.checked_div(self.runs).unwrap_or(0)
    }

    /// Mean last-decision time over the runs that decided.
    pub fn avg_decision_time(&self) -> Option<u64> {
        self.total_decision_time.checked_div(self.decided_runs)
    }
}
