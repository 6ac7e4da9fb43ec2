//! The oracle half of a spec: the per-class constructors each scenario
//! builds its detectors with, and [`sample_oracle`] for auditing an oracle
//! on its own.

use super::spec::{salt, Flavour, ScenarioSpec};
use crate::{OmegaOracle, PhiOracle, SxOracle};
use fd_sim::{
    slot, FailurePattern, FdValue, OracleSuite, ProcessId, SuspectPlusQuery, Time, Trace,
};

impl ScenarioSpec {
    /// An `Ω_z` oracle over `fp`, seeded from this spec's seed and `salt`.
    ///
    /// Figure 3's scenarios pass [`salt::OMEGA`], the only salt in use;
    /// the parameter stays because the repo benchmark calls this with it.
    pub fn omega_oracle(&self, fp: &FailurePattern, salt: u64) -> OmegaOracle {
        OmegaOracle::new(fp.clone(), self.z, self.gst, self.seed ^ salt)
    }

    /// An `S_x`-style oracle over `fp` with scope parameter `scope_x`.
    pub fn sx_oracle(
        &self,
        fp: &FailurePattern,
        scope_x: usize,
        flavour: Flavour,
        salt: u64,
    ) -> SxOracle {
        SxOracle::new(
            fp.clone(),
            self.t,
            scope_x,
            flavour.scope(self.gst),
            self.seed ^ salt,
        )
    }

    /// A `φ_y`-style oracle over `fp`.
    pub fn phi_oracle(&self, fp: &FailurePattern, flavour: Flavour, salt: u64) -> PhiOracle {
        PhiOracle::new(
            fp.clone(),
            self.t,
            self.y,
            flavour.scope(self.gst),
            self.seed ^ salt,
        )
    }

    /// The `S_x + φ_y` bundle used by the two-wheels, the Figure 9
    /// addition, and the pipeline (each with its own salts).
    pub fn sx_plus_phi(
        &self,
        fp: &FailurePattern,
        flavour: Flavour,
        sx_salt: u64,
        phi_salt: u64,
    ) -> SuspectPlusQuery<SxOracle, PhiOracle> {
        SuspectPlusQuery {
            suspect: self.sx_oracle(fp, self.x, flavour, sx_salt),
            query: self.phi_oracle(fp, flavour, phi_salt),
        }
    }

    /// Runs `v` with the spec's one `Ω_z`,
    /// [`omega_oracle`](ScenarioSpec::omega_oracle)`(fp, salt::OMEGA)`.
    ///
    /// No scenario calls this: each builds its oracle directly. It stays,
    /// with [`OracleVisitor`], only because the repo benchmark's
    /// re-composed runs call it and its API allow-list names both; the
    /// benchmark's v2 (ROADMAP item 1) deletes them.
    pub fn with_oracle<V: OracleVisitor>(&self, fp: &FailurePattern, v: V) -> V::Out {
        v.visit(self.omega_oracle(fp, salt::OMEGA))
    }
}

/// A continuation over the spec's oracle, consumed by
/// [`ScenarioSpec::with_oracle`] (kept for the repo benchmark only).
pub trait OracleVisitor {
    /// The continuation's result.
    type Out;

    /// Runs the continuation with the oracle.
    fn visit<O: OracleSuite + 'static>(self, oracle: O) -> Self::Out;
}

/// Which oracle output [`sample_oracle`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampledSlot {
    /// Record `suspected_i`.
    Suspected,
    /// Record `trusted_i`.
    Trusted,
}

/// Samples a (possibly adapted) oracle's outputs over a time grid into a
/// trace, so the class checkers can audit the oracle itself — the engine
/// of the grid-reduction experiments.
pub fn sample_oracle<O: OracleSuite + ?Sized>(
    oracle: &mut O,
    fp: &FailurePattern,
    horizon: Time,
    step: u64,
    which: SampledSlot,
) -> Trace {
    let mut trace = Trace::new();
    let mut now = Time::ZERO;
    while now <= horizon {
        for i in (0..fp.n()).map(ProcessId) {
            if !fp.is_alive_at(i, now) {
                continue;
            }
            match which {
                SampledSlot::Suspected => {
                    let s = oracle.suspected(i, now);
                    trace.publish(i, slot::SUSPECTED, now, FdValue::Set(s));
                }
                SampledSlot::Trusted => {
                    let s = oracle.trusted(i, now);
                    trace.publish(i, slot::TRUSTED, now, FdValue::Set(s));
                }
            }
        }
        now += step.max(1);
    }
    trace.set_horizon(horizon);
    trace
}
