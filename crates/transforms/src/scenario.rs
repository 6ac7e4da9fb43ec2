//! [`Scenario`] implementations for the transformations: the two-wheels
//! addition (Figures 5+6), `Ψ_y → Ω_z` (Figure 8), and the Figure 9
//! addition `φ_y + S_x → S` in both substrates.
//!
//! A transformation run has no decision event; each scenario runs to the
//! configured horizon and judges the built detector's output histories
//! against the target class definition.

use crate::addition_s::{AdditionMp, AdditionShm};
use crate::psi_omega::PsiToOmega;
use crate::two_wheels::{TwParams, TwoWheels};
use fd_detectors::scenario::{
    run_to_horizon, salt, Flavour, Scenario, ScenarioReport, ScenarioSpec,
};
use fd_detectors::{check, CheckOutcome, PsiOracle};
use fd_sim::{run_shm, FailurePattern, Time, Trace};

/// Margin (ticks before the horizon) an eventual property must hold for.
pub const DEFAULT_MARGIN: u64 = 3_000;

/// The two-wheels transformation `◇S_x + ◇φ_y → Ω_z` (Figures 5+6),
/// run under adversarial oracles stabilizing at `spec.gst` and checked
/// against the `Ω_z` definition.
///
/// The wheel geometry is taken literally from the spec's `(x, y, z)`; set
/// `z < t + 2 − x − y` to reproduce the Theorem 7 boundary violation.
#[derive(Clone, Copy, Debug)]
pub struct TwoWheelsScenario {
    /// Whether the one-broadcast-per-pair-instance throttle is on
    /// (`false` restores the paper's literal re-broadcast tasks — the
    /// ablation of experiment E12).
    pub throttled: bool,
}

impl Default for TwoWheelsScenario {
    fn default() -> Self {
        TwoWheelsScenario { throttled: true }
    }
}

impl TwoWheelsScenario {
    /// The spec encoding `params` (the scenario reads the geometry back
    /// from the spec's grid parameters).
    pub fn spec(params: TwParams) -> ScenarioSpec {
        ScenarioSpec::new(params.n, params.t)
            .x(params.x)
            .y(params.y)
            .z(params.z)
    }
}

impl Scenario for TwoWheelsScenario {
    fn name(&self) -> &'static str {
        "two_wheels"
    }

    fn cache_tag(&self) -> String {
        // The throttle is configuration *outside* the spec: the two E12
        // ablation variants must never share cache entries.
        format!("two_wheels/throttled={}", self.throttled)
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let params = TwParams {
            n: spec.n,
            t: spec.t,
            x: spec.x,
            y: spec.y,
            z: spec.z,
        };
        let oracle = spec.sx_plus_phi(&fp, Flavour::Eventual, salt::WHEELS_SX, salt::WHEELS_PHI);
        let throttled = self.throttled;
        let trace = run_to_horizon(
            spec,
            &fp,
            |p| {
                let w = TwoWheels::new(p, params);
                if throttled {
                    w
                } else {
                    w.unthrottled()
                }
            },
            oracle,
        );
        let check = check::omega_z(&trace, &fp, spec.z, DEFAULT_MARGIN);
        ScenarioReport::new(self.name(), spec, fp, trace, check)
    }
}

/// The simple `Ψ_y → Ω_z` transformation (Figure 8), checked against
/// `Ω_z`. The `Ψ_y` oracle is strict: any containment violation by the
/// transformation panics the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PsiOmegaScenario;

impl Scenario for PsiOmegaScenario {
    fn name(&self) -> &'static str {
        "psi_omega"
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let oracle = PsiOracle::new(spec.phi_oracle(&fp, Flavour::Eventual, salt::PSI_PHI));
        let trace = run_to_horizon(spec, &fp, |_| PsiToOmega::new(spec.n, spec.z), oracle);
        let check = check::omega_z(&trace, &fp, spec.z, DEFAULT_MARGIN);
        ScenarioReport::new(self.name(), spec, fp, trace, check)
    }
}

/// Which computation model the Figure 9 addition runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The message-passing port (bounded by `spec.max_time`).
    MessagePassing,
    /// The literal SWMR shared-memory algorithm (bounded by
    /// `spec.max_steps`).
    SharedMemory,
}

/// The Figure 9 addition `φ_y + S_x → S`, on either substrate, with either
/// perpetual inputs (output class `S`) or eventual inputs stabilizing at
/// `spec.gst` (output class `◇S`).
#[derive(Clone, Copy, Debug)]
pub struct AdditionScenario {
    /// The computation model.
    pub substrate: Substrate,
    /// Perpetual (`S_x + φ_y → S`) or eventual (`◇S_x + ◇φ_y → ◇S`).
    pub flavour: Flavour,
}

impl Scenario for AdditionScenario {
    fn name(&self) -> &'static str {
        match self.substrate {
            Substrate::MessagePassing => "addition_mp",
            Substrate::SharedMemory => "addition_shm",
        }
    }

    fn cache_tag(&self) -> String {
        // The flavour is out-of-spec configuration (the substrate already
        // splits the name): perpetual and eventual runs differ.
        let flavour = match self.flavour {
            Flavour::Perpetual => "perpetual",
            Flavour::Eventual => "eventual",
        };
        format!("{}/flavour={flavour}", self.name())
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let mut oracle = spec.sx_plus_phi(&fp, self.flavour, salt::ADDITION_SX, salt::ADDITION_PHI);
        let (trace, slack) = match self.substrate {
            Substrate::MessagePassing => {
                let trace = run_to_horizon(spec, &fp, |_| AdditionMp::new(spec.n), oracle);
                let slack = mp_publication_slack(&trace);
                (trace, slack)
            }
            Substrate::SharedMemory => {
                let trace = run_shm(
                    &spec.shm_config(),
                    &fp,
                    |_| AdditionShm::new(spec.n),
                    &mut oracle,
                );
                let slack = shm_publication_slack(&trace);
                (trace, slack)
            }
        };
        let check = addition_check(&trace, &fp, spec.n, self.flavour, slack + 1);
        ScenarioReport::new(self.name(), spec, fp, trace, check)
    }
}

/// The target-class check of the Figure 9 addition: class `S = S_n` for
/// perpetual inputs, `◇S = ◇S_n` for eventual ones.
fn addition_check(
    trace: &Trace,
    fp: &FailurePattern,
    n: usize,
    flavour: Flavour,
    start_slack: u64,
) -> CheckOutcome {
    match flavour {
        // Output class S: completeness + perpetual full-scope accuracy.
        Flavour::Perpetual => check::s_x(trace, fp, n, DEFAULT_MARGIN, start_slack),
        // Output class ◇S.
        Flavour::Eventual => check::diamond_s_x(trace, fp, n, DEFAULT_MARGIN),
    }
}

/// The shm scheduler's first publications happen after a few scans; the
/// perpetual-accuracy check must not start before them.
fn shm_publication_slack(trace: &Trace) -> u64 {
    trace
        .histories()
        .filter(|((_, s), _)| *s == fd_sim::slot::SUSPECTED)
        .filter_map(|(_, h)| h.samples().first().map(|s| s.at.ticks()))
        .max()
        .unwrap_or(0)
}

/// First non-empty publication per process in the message-passing port
/// (the initial ∅ is a placeholder).
fn mp_publication_slack(trace: &Trace) -> u64 {
    trace
        .histories()
        .filter(|((_, s), _)| *s == fd_sim::slot::SUSPECTED)
        .filter_map(|(_, h)| {
            h.samples()
                .iter()
                .find(|s| s.at > Time::ZERO)
                .map(|s| s.at.ticks())
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::scenario::{CrashPlan, Runner};
    use fd_sim::ProcessId;

    #[test]
    fn two_wheels_scenario_sweeps_in_parallel() {
        let params = TwParams::optimal(5, 2, 2, 1);
        assert_eq!(params.z, 1);
        let base = TwoWheelsScenario::spec(params)
            .gst(Time(400))
            .max_time(Time(40_000));
        let seq = Runner::sequential().sweep(&TwoWheelsScenario::default(), &base, 0..3);
        let par = Runner::with_threads(3).sweep(&TwoWheelsScenario::default(), &base, 0..3);
        for (a, b) in seq.iter().zip(&par) {
            assert!(a.check.ok, "seed {}: {}", a.seed(), a.check);
            assert_eq!(a.metrics.msgs_sent, b.metrics.msgs_sent);
        }
    }

    #[test]
    fn psi_scenario_feasible() {
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(0), Time(100))
            .build();
        let spec = ScenarioSpec::new(5, 2)
            .y(1)
            .z(2)
            .gst(Time(300))
            .seed(1)
            .max_time(Time(20_000))
            .crashes(CrashPlan::Explicit(fp));
        let rep = PsiOmegaScenario.run(&spec);
        assert!(rep.check.ok, "{}", rep.check);
    }

    #[test]
    fn addition_scenarios_both_substrates() {
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(2), Time(200))
            .build();
        let spec = ScenarioSpec::new(5, 2)
            .x(2)
            .y(1)
            .gst(Time(500))
            .seed(5)
            .max_time(Time(40_000))
            .crashes(CrashPlan::Explicit(fp.clone()));
        let mp = AdditionScenario {
            substrate: Substrate::MessagePassing,
            flavour: Flavour::Eventual,
        };
        assert!(mp.run(&spec).check.ok);

        let fp4 = FailurePattern::builder(4)
            .crash(ProcessId(3), Time(500))
            .build();
        let spec = ScenarioSpec::new(4, 1)
            .x(1)
            .y(1)
            .seed(6)
            .max_steps(300_000)
            .crashes(CrashPlan::Explicit(fp4));
        let shm = AdditionScenario {
            substrate: Substrate::SharedMemory,
            flavour: Flavour::Perpetual,
        };
        assert!(shm.run(&spec).check.ok);
    }

    #[test]
    fn two_wheels_tolerates_a_persistent_mild_drop_adversary() {
        // Unlike the one-shot round broadcasts of the agreement algorithm,
        // the wheels' tasks re-send while dissatisfied — so the built Ω_z
        // survives a *persistent* (unwindowed) mild drop adversary.
        use fd_sim::{MessageAdversary, MessageRule};
        let params = TwParams::optimal(5, 2, 2, 1);
        let base = TwoWheelsScenario::spec(params)
            .gst(Time(400))
            .max_time(Time(40_000))
            .seed(1);
        let sc = TwoWheelsScenario::default();
        let clean = sc.run(&base);
        let none = sc.run(&base.clone().adversary(MessageAdversary::None));
        assert_eq!(clean.fingerprint(), none.fingerprint());
        let armed = base.adversary(MessageAdversary::Rules(vec![MessageRule::drop(10)]));
        let rep = sc.run(&armed);
        assert!(rep.check.ok, "{}", rep.check);
        assert!(rep.slim().counter("sim.dropped") > 0);
        assert_eq!(rep.fingerprint(), sc.run(&armed).fingerprint());
    }

    /// Regression for the E12 cache-collision: scenario objects that share
    /// a `name()` but differ in out-of-spec configuration (the throttle)
    /// must not serve each other's cached runs — `cache_tag` keeps their
    /// entries apart, so the ablation's message counts stay honest.
    #[test]
    fn differently_configured_scenarios_never_share_cache_entries() {
        use fd_detectors::scenario::ReportCache;
        let throttled = TwoWheelsScenario { throttled: true };
        let unthrottled = TwoWheelsScenario { throttled: false };
        assert_eq!(throttled.name(), unthrottled.name());
        assert_ne!(throttled.cache_tag(), unthrottled.cache_tag());
        let cache = &ReportCache::new();
        let runner = fd_detectors::scenario::Runner::sequential().with_cache(cache);
        let spec = TwoWheelsScenario::spec(crate::two_wheels::TwParams::optimal(5, 2, 2, 0))
            .crashes(CrashPlan::Random {
                f: 1,
                by: fd_sim::Time(600),
            })
            .gst(Time(700))
            .max_time(Time(30_000));
        let moves = |scenario: &TwoWheelsScenario| {
            runner.sweep_fold(scenario, &spec, 0..4, 0u64, |acc, slim| {
                *acc += slim.counter("lower.x_move") + slim.counter("upper.l_move")
            })
        };
        let a = moves(&throttled);
        assert_eq!(cache.misses(), 4);
        let b = moves(&unthrottled);
        assert_eq!(
            cache.misses(),
            8,
            "the unthrottled variant must compute its own runs, not hit the throttled entries"
        );
        assert!(
            b > a,
            "paper-literal re-broadcast must send more moves than the throttled variant \
             ({b} vs {a}) — equality means the cache served the wrong variant"
        );
        // Each variant still hits its own entries on a warm pass.
        assert_eq!(moves(&throttled), a);
        assert_eq!(moves(&unthrottled), b);
        assert_eq!(cache.misses(), 8);
        assert_eq!(cache.hits(), 8);
    }
}
