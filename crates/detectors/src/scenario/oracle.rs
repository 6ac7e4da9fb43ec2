//! The oracle half of a spec: the per-class constructors, the
//! [`ScenarioSpec::with_oracle`] dispatch that turns a runtime
//! [`OracleChoice`] into a concrete oracle type, and [`sample_oracle`] for
//! auditing an oracle on its own.

use super::spec::{salt, Flavour, OracleChoice, ScenarioSpec};
use crate::{OmegaOracle, PerfectOracle, PhiOracle, PsiOracle, SxOracle};
use fd_sim::{
    slot, FailurePattern, FdValue, OracleSuite, ProcessId, SuspectPlusQuery, Time, Trace,
};

impl ScenarioSpec {
    /// An `Ω_z` oracle over `fp`, seeded from this spec's seed and `salt`.
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

    /// Resolves the spec's [`OracleChoice`] to its concrete oracle type
    /// (with the canonical salt for each choice) and runs `v` with it.
    ///
    /// This is the only way a runtime oracle choice becomes an oracle:
    /// everything the visitor runs — typically a whole [`fd_sim::Sim`] —
    /// is monomorphized per oracle type, so detector reads inside the
    /// activation loop stay static calls, and there is no erased bundle
    /// to fall back to. [`OracleChoice::None`] resolves to
    /// [`fd_sim::NoOracle`]: the visit succeeds, but any detector access
    /// during the run panics — an algorithm for the pure asynchronous
    /// model must never consult a detector.
    pub fn with_oracle<V: OracleVisitor>(&self, fp: &FailurePattern, v: V) -> V::Out {
        match self.oracle {
            OracleChoice::None => v.visit(fd_sim::NoOracle),
            OracleChoice::Omega => v.visit(self.omega_oracle(fp, salt::OMEGA)),
            OracleChoice::Sx(f) => v.visit(self.sx_oracle(fp, self.x, f, salt::SX)),
            OracleChoice::Phi(f) => v.visit(self.phi_oracle(fp, f, salt::PHI)),
            OracleChoice::Psi => v.visit(PsiOracle::new(self.phi_oracle(
                fp,
                Flavour::Eventual,
                salt::PSI_PHI,
            ))),
            OracleChoice::SxPlusPhi(f) => {
                v.visit(self.sx_plus_phi(fp, f, salt::ADDITION_SX, salt::ADDITION_PHI))
            }
            OracleChoice::Perfect(f) => v.visit(PerfectOracle::new(
                fp.clone(),
                f.scope(self.gst),
                self.seed ^ salt::PERFECT,
            )),
        }
    }
}

/// One monomorphic continuation over a runtime-chosen oracle bundle,
/// consumed by [`ScenarioSpec::with_oracle`].
///
/// Implementors get called with the *concrete* oracle type named by the
/// spec's [`OracleChoice`], so a simulation started inside `visit` keeps
/// every oracle read statically dispatched end to end.
pub trait OracleVisitor {
    /// The continuation's result.
    type Out;

    /// Runs the continuation with the resolved oracle bundle.
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
