//! The interface through which algorithms consult failure detectors.
//!
//! A failure-detector class is a set of admissible output histories; an
//! *oracle* here is one concrete realization, computed from the run's
//! failure pattern (plus adversarial choices). Algorithms never see the
//! pattern itself — only these three primitives, matching the paper's three
//! interaction styles:
//!
//! * `suspected_i` (classes `S_x`, `◇S_x`, `P`, `◇P`),
//! * `trusted_i` (classes `Ω_z`),
//! * `query(X)` (classes `φ_y`, `◇φ_y`, `Ψ_y`).
//!
//! Concrete oracles live in the `fd-detectors` crate; the trait lives here
//! so the runtime can hand automata an oracle without a dependency cycle.

use crate::id::{PSet, ProcessId};
use crate::time::Time;

/// A bundle of failure-detector primitives available to a run.
///
/// Methods take `&mut self` because oracles lazily fix adversarial choices
/// and advance noise streams. A method not backed by any detector in the
/// bundle panics — calling it is a harness configuration bug, not a runtime
/// condition.
pub trait OracleSuite {
    /// The current `suspected_i` set of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if the bundle contains no suspicion-style detector.
    fn suspected(&mut self, p: ProcessId, now: Time) -> PSet {
        let _ = (p, now);
        panic!("this oracle bundle provides no suspected_i output");
    }

    /// The current `trusted_i` set of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if the bundle contains no leader-style detector.
    fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
        let _ = (p, now);
        panic!("this oracle bundle provides no trusted_i output");
    }

    /// Answers `query(x)` invoked by process `p` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the bundle contains no query-style detector.
    fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
        let _ = (p, x, now);
        panic!("this oracle bundle provides no query primitive");
    }
}

/// A borrowed bundle is a bundle, so a caller can lend its oracle to a run
/// and keep it afterwards.
///
/// There is no impl for a boxed trait object, on purpose. The activation
/// hot loop is generic end to end: `Sim<A, O>` threads its concrete
/// `O: OracleSuite` through [`crate::Ctx`] into every [`crate::Automaton`]
/// callback, so oracle reads compile to static calls. Callers that pick
/// the oracle at runtime (the scenario layer's `OracleChoice`) resolve it
/// to a concrete type once, at the spec boundary
/// (`ScenarioSpec::with_oracle` + `OracleVisitor` in `fd-detectors`), and
/// run the whole simulation inside that monomorphic continuation — the
/// stack has no erased-oracle path.
impl<O: OracleSuite + ?Sized> OracleSuite for &mut O {
    fn suspected(&mut self, p: ProcessId, now: Time) -> PSet {
        (**self).suspected(p, now)
    }

    fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
        (**self).trusted(p, now)
    }

    fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
        (**self).query(p, x, now)
    }
}

/// The empty bundle: a pure asynchronous system `AS_{n,t}[∅]`.
///
/// Any failure-detector access panics, which is exactly the contract: an
/// algorithm for the pure model must never consult a detector.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOracle;

impl OracleSuite for NoOracle {}

/// Combines a suspicion-style oracle and a query-style oracle into one
/// bundle, as required by the two-wheels construction (`◇S_x` and `◇φ_y`
/// side by side, paper §4).
#[derive(Clone, Debug)]
pub struct SuspectPlusQuery<S, Q> {
    /// The suspicion-style component (e.g. a `◇S_x` oracle).
    pub suspect: S,
    /// The query-style component (e.g. a `◇φ_y` oracle).
    pub query: Q,
}

impl<S: OracleSuite, Q: OracleSuite> OracleSuite for SuspectPlusQuery<S, Q> {
    fn suspected(&mut self, p: ProcessId, now: Time) -> PSet {
        self.suspect.suspected(p, now)
    }

    fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
        self.suspect.trusted(p, now)
    }

    fn query(&mut self, p: ProcessId, x: PSet, now: Time) -> bool {
        self.query.query(p, x, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedSusp(PSet);
    impl OracleSuite for FixedSusp {
        fn suspected(&mut self, _p: ProcessId, _now: Time) -> PSet {
            self.0
        }
    }

    struct AlwaysTrue;
    impl OracleSuite for AlwaysTrue {
        fn query(&mut self, _p: ProcessId, _x: PSet, _now: Time) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "no suspected_i")]
    fn no_oracle_panics() {
        NoOracle.suspected(ProcessId(0), Time::ZERO);
    }

    #[test]
    fn pair_routes_to_components() {
        let mut pair = SuspectPlusQuery {
            suspect: FixedSusp(PSet::singleton(ProcessId(2))),
            query: AlwaysTrue,
        };
        assert_eq!(
            pair.suspected(ProcessId(0), Time::ZERO),
            PSet::singleton(ProcessId(2))
        );
        assert!(pair.query(ProcessId(0), PSet::EMPTY, Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "no trusted_i")]
    fn pair_missing_leader_panics() {
        let mut pair = SuspectPlusQuery {
            suspect: FixedSusp(PSet::EMPTY),
            query: AlwaysTrue,
        };
        pair.trusted(ProcessId(0), Time::ZERO);
    }
}
