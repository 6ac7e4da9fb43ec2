//! End-to-end pipeline: `◇S_x + ◇φ_y → Ω_z → z-set agreement`.
//!
//! This is the composition at the heart of the paper's Theorem 5 proof
//! ("combining such a transformation T and the algorithm A …"): each
//! process runs the two-wheels transformation (paper Figures 5+6) *and*
//! the Figure 3 set-agreement algorithm side by side; the agreement
//! algorithm reads its leader sets not from an oracle but from the live
//! output of the local two-wheels component.
//!
//! The result solves `z`-set agreement, `z = t + 2 − x − y`, in a system
//! equipped only with `◇S_x` and `◇φ_y` — no `Ω` oracle anywhere.

use fd_core::kset_omega::{KsetMsg, KsetOmega};
use fd_core::spec;
use fd_detectors::scenario::{
    default_proposals, run_to_decision, salt, Flavour, Scenario, ScenarioReport, ScenarioSpec,
};
use fd_sim::{forward_ops, Automaton, Ctx, Op, OracleSuite, ProcessId};
use fd_transforms::two_wheels::{TwMsg, TwParams, TwoWheels};

/// Combined message alphabet of the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipeMsg {
    /// A two-wheels message.
    Wheels(TwMsg),
    /// A set-agreement message.
    Kset(KsetMsg),
}

impl fd_sim::Corruptible for PipeMsg {
    /// Corruption reaches the embedded sub-alphabets (the wheels are
    /// adversary-transparent; the agreement estimates are bounded-mutable).
    fn corrupt(&mut self, bound: u64, rng: &mut fd_sim::SplitMix64) -> bool {
        match self {
            PipeMsg::Wheels(m) => m.corrupt(bound, rng),
            PipeMsg::Kset(m) => m.corrupt(bound, rng),
        }
    }
}

/// One process running the transformation and the agreement algorithm
/// stacked together.
#[derive(Clone, Debug)]
pub struct WheelsPlusKset {
    wheels: TwoWheels,
    kset: KsetOmega,
    /// Recycled op buffers of the two inner alphabets (empty between
    /// activations; see [`Ctx::reborrow_inner`]).
    wheels_ops: Vec<Op<TwMsg>>,
    kset_ops: Vec<Op<KsetMsg>>,
}

impl WheelsPlusKset {
    /// Creates the stacked process with its proposal.
    pub fn new(me: ProcessId, params: TwParams, proposal: u64) -> Self {
        WheelsPlusKset {
            wheels: TwoWheels::new(me, params),
            kset: KsetOmega::new(proposal).with_external_leaders(),
            wheels_ops: Vec::new(),
            kset_ops: Vec::new(),
        }
    }

    /// Whether the agreement layer decided.
    pub fn has_decided(&self) -> bool {
        self.kset.has_decided()
    }

    fn run_wheels<O: OracleSuite + ?Sized>(
        &mut self,
        ctx: &mut Ctx<'_, PipeMsg, O>,
        f: impl FnOnce(&mut TwoWheels, &mut Ctx<'_, TwMsg, O>),
    ) {
        let wheels = &mut self.wheels;
        ctx.reborrow_inner(&mut self.wheels_ops, |ictx| f(wheels, ictx));
        forward_ops(ctx, &mut self.wheels_ops, PipeMsg::Wheels);
        self.sync_leaders(ctx);
    }

    fn run_kset<O: OracleSuite + ?Sized>(
        &mut self,
        ctx: &mut Ctx<'_, PipeMsg, O>,
        f: impl FnOnce(&mut KsetOmega, &mut Ctx<'_, KsetMsg, O>),
    ) {
        self.sync_leaders(ctx);
        let kset = &mut self.kset;
        ctx.reborrow_inner(&mut self.kset_ops, |ictx| f(kset, ictx));
        forward_ops(ctx, &mut self.kset_ops, PipeMsg::Kset);
    }

    /// Feeds the wheels' live `trusted_i` into the agreement layer.
    fn sync_leaders<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, PipeMsg, O>) {
        self.kset.set_external_leaders(self.wheels.trusted(ctx));
    }
}

impl Automaton for WheelsPlusKset {
    type Msg = PipeMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, PipeMsg, O>) {
        self.run_wheels(ctx, |w, ictx| w.on_start(ictx));
        self.run_kset(ctx, |k, ictx| k.on_start(ictx));
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: PipeMsg,
        ctx: &mut Ctx<'_, PipeMsg, O>,
    ) {
        match msg {
            PipeMsg::Wheels(m) => self.run_wheels(ctx, |w, ictx| w.on_message(from, m, ictx)),
            PipeMsg::Kset(m) => self.run_kset(ctx, |k, ictx| k.on_message(from, m, ictx)),
        }
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: PipeMsg,
        ctx: &mut Ctx<'_, PipeMsg, O>,
    ) {
        match msg {
            PipeMsg::Wheels(m) => self.run_wheels(ctx, |w, ictx| w.on_rb_deliver(from, m, ictx)),
            PipeMsg::Kset(m) => self.run_kset(ctx, |k, ictx| k.on_rb_deliver(from, m, ictx)),
        }
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, PipeMsg, O>) {
        self.run_wheels(ctx, |w, ictx| w.on_step(ictx));
        self.run_kset(ctx, |k, ictx| k.on_step(ictx));
    }
}

/// The end-to-end pipeline as a [`Scenario`]: the two-wheels
/// transformation feeding the Figure 3 algorithm live, solving `z`-set
/// agreement (`z = t + 2 − x − y`, read from the spec) from `◇S_x + ◇φ_y`
/// alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineScenario;

impl PipelineScenario {
    /// The spec for a pipeline over `◇S_x + ◇φ_y`, with `z` (and the
    /// checked degree `k`) set to the optimal `t + 2 − x − y`.
    ///
    /// # Panics
    ///
    /// Panics if `x + y > t + 1` (no `z ≥ 1`).
    pub fn spec(n: usize, t: usize, x: usize, y: usize) -> ScenarioSpec {
        let params = TwParams::optimal(n, t, x, y);
        ScenarioSpec::new(n, t).x(x).y(y).kz(params.z)
    }
}

impl Scenario for PipelineScenario {
    fn name(&self) -> &'static str {
        "pipeline"
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
        let proposals = default_proposals(spec.n);
        let oracle = spec.sx_plus_phi(
            &fp,
            Flavour::Eventual,
            salt::PIPELINE_SX,
            salt::PIPELINE_PHI,
        );
        let trace = run_to_decision(
            spec,
            &fp,
            |p| WheelsPlusKset::new(p, params, proposals[p.0]),
            oracle,
        );
        let check = spec::kset_spec(&trace, &fp, spec.z, &proposals);
        ScenarioReport::new(self.name(), spec, fp, trace, check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::scenario::CrashPlan;
    use fd_sim::{FailurePattern, Time};

    #[test]
    fn pipeline_solves_consensus_from_sx_plus_phi() {
        // n = 5, t = 2, x = 2, y = 1 ⇒ z = 1: consensus out of two
        // detectors that each individually cannot solve it.
        for seed in 0..3 {
            let spec = PipelineScenario::spec(5, 2, 2, 1)
                .gst(Time(400))
                .seed(seed)
                .max_time(Time(120_000));
            let rep = PipelineScenario.run(&spec);
            assert!(rep.check.ok, "seed {seed}: {}", rep.check);
            assert_eq!(rep.spec.z, 1);
            assert_eq!(rep.metrics.decided_values.len(), 1);
        }
    }

    /// End of the chain: a cached pipeline sweep is summary-identical to a
    /// cold one without recomputing a run.
    #[test]
    fn pipeline_cache_rides_the_engine() {
        use fd_detectors::scenario::{ReportCache, Runner};
        let base = PipelineScenario::spec(5, 2, 2, 1)
            .gst(Time(400))
            .seed(1)
            .max_time(Time(120_000));
        let cache = &ReportCache::new();
        let runner = Runner::with_threads(2).with_cache(cache);
        let cold = runner.sweep_summary(&PipelineScenario, &base, 0..3);
        let warm = runner.sweep_summary(&PipelineScenario, &base, 0..3);
        assert_eq!(warm, cold);
        assert_eq!(cache.misses(), 3, "warm pipeline sweep recomputed a run");
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn pipeline_with_crashes() {
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(1), Time(200))
            .crash(ProcessId(4), Time(800))
            .build();
        let spec = PipelineScenario::spec(5, 2, 1, 1)
            .crashes(CrashPlan::Explicit(fp))
            .gst(Time(1_000))
            .seed(7)
            .max_time(Time(150_000));
        let rep = PipelineScenario.run(&spec);
        // x = 1, y = 1 ⇒ z = 2: 2-set agreement.
        assert!(rep.check.ok, "{}", rep.check);
        assert!(rep.metrics.decided_values.len() <= 2);
    }
}
