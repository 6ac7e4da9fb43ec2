//! Executable witnesses of **Theorem 5**'s lower bounds: `k`-set agreement
//! is solvable in `AS_{n,t}[Ω_z]` **iff** `t < n/2` and `z ≤ k`.
//!
//! The sufficiency half is the Figure 3 algorithm itself
//! ([`crate::kset_omega`]); this module exhibits concrete runs for the
//! necessity half. Both run under [`LowerBoundScenario`] (Figure 3 fed a
//! legal `Ω_z` electing `{p_0 … p_{z−1}}`, all correct, from tick 0); each
//! is a spec constructor whose delay rules make the run fail, swept by a
//! [`Runner`](fd_detectors::scenario::Runner) like any other cell:
//!
//! * [`LowerBoundScenario::z_violation`] — with an `Ω_{k+1}` whose leader
//!   set holds `k+1` correct processes, the adversary delays one leader's
//!   messages so that different majorities adopt estimates from different
//!   leaders, and more than `k` values get decided (agreement fails);
//! * [`LowerBoundScenario::partition`] — with `t ≥ n/2` the classic
//!   two-partition schedule starves every majority (`> n/2`) leader-set
//!   certificate, so no correct process ever decides (termination fails).
//!
//! Neither witness is a proof (proofs quantify over all algorithms); each
//! is the proof's run construction made machine-checkable against this
//! repository's implementation.

use crate::scenario::{run_kset_with, KsetScenario};
use fd_detectors::scenario::{Scenario, ScenarioReport, ScenarioSpec};
use fd_detectors::OmegaOracle;
use fd_sim::{DelayModel, DelayRule, PSet, ProcessId, Time};

/// Figure 3 under `OmegaOracle::with_final_set(fp, spec.z, spec.gst,
/// spec.seed, {p_0 … p_{z−1}})`: a legal `Ω_z` that elects the `z`
/// lowest identities. Build its specs with
/// [`LowerBoundScenario::z_violation`] and [`LowerBoundScenario::partition`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LowerBoundScenario;

impl LowerBoundScenario {
    /// The `z ≤ k` witness: Figure 3 for `k`-set agreement fed `Ω_{k+1}`
    /// (legal, but one line below `Ω_k` in the grid), with the lowest-id
    /// leader silenced towards the non-leaders until tick 2000, so that
    /// processes hearing only the other leaders adopt different estimates.
    /// Some seed decides **more than `k` distinct values**.
    pub fn z_violation(n: usize, t: usize, k: usize) -> ScenarioSpec {
        assert!(2 * t < n, "keep t < n/2 so only z is at fault");
        assert!(k < n, "need z = k+1 <= n");
        let leaders: PSet = (0..k + 1).map(ProcessId).collect();
        KsetScenario::spec(n, t, k)
            .z(k + 1)
            .gst(Time::ZERO)
            .max_time(Time(60_000))
            .delay(DelayModel::Uniform { lo: 1, hi: 12 })
            .rule(DelayRule::silence_until(
                PSet::singleton(ProcessId(0)),
                leaders.complement(n),
                Time(2_000),
            ))
    }

    /// The `t < n/2` witness: two halves of the system never hear each
    /// other (all cross-half messages delayed past the horizon). With
    /// `n − t ≤ n/2`, each half clears the `n − t` quorums locally but no
    /// process ever assembles a *majority* certificate for a leader set,
    /// so no decision is ever reached — termination fails at every seed.
    pub fn partition(n: usize, t: usize) -> ScenarioSpec {
        assert!(2 * t >= n, "need t >= n/2 for this witness");
        let half_a: PSet = (0..n / 2).map(ProcessId).collect();
        let half_b = half_a.complement(n);
        let horizon = Time(30_000);
        KsetScenario::spec(n, t, 1)
            .gst(Time::ZERO)
            .max_time(horizon)
            .rule(DelayRule::silence_until(half_a, half_b, horizon + 1))
            .rule(DelayRule::silence_until(half_b, half_a, horizon + 1))
    }
}

impl Scenario for LowerBoundScenario {
    fn name(&self) -> &'static str {
        "kset_lower_bound"
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let leaders: PSet = (0..spec.z).map(ProcessId).collect();
        let oracle = OmegaOracle::with_final_set(fp.clone(), spec.z, spec.gst, spec.seed, leaders);
        ScenarioReport {
            scenario: self.name(),
            ..run_kset_with(spec, fp, oracle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::scenario::Runner;
    use fd_detectors::ViolationClass;

    #[test]
    fn z_above_k_breaks_agreement() {
        let spec = LowerBoundScenario::z_violation(5, 2, 1);
        let found = Runner::sequential().sweep_find(&LowerBoundScenario, &spec, 0..60, |slim| {
            slim.metrics.decided_values.len() > 1
        });
        let slim = found.expect("no agreement violation found in 60 seeds");
        // Only agreement degrades: validity, checked first, still holds.
        assert_eq!(
            slim.check.class,
            ViolationClass::Agreement,
            "{}",
            slim.check
        );
    }

    #[test]
    fn partition_starves_decisions() {
        let spec = LowerBoundScenario::partition(4, 2);
        for seed in 0..3 {
            let report = LowerBoundScenario.run(&spec.with_seed(seed));
            assert!(
                report.trace.decisions().is_empty(),
                "seed {seed}: partition run decided {:?}",
                report.metrics.decided_values
            );
            assert_eq!(report.check.class, ViolationClass::Termination);
        }
    }

    #[test]
    #[should_panic(expected = "keep t < n/2")]
    fn z_violation_rejects_t_at_half() {
        LowerBoundScenario::z_violation(4, 2, 1);
    }
}
