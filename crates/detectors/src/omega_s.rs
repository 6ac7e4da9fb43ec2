//! The class `Ω^S`: scoped eventual leadership (paper §2.2's pointer to
//! Delporte-Gallet, Fauconnier & Guerraoui, DISC 2005).
//!
//! "Recently another generalization of `Ω` has been studied […] that
//! considers `Ω^S` where `S` is a predefined subset of the processes:
//! `Ω^S` requires that all the correct processes of `S` eventually agree
//! on the same correct leader (it is not required that their eventual
//! common leader belongs to `S`). […] given all the `Ω^x`, `x ∈ X` (the
//! set of all pairs), it is possible to build `Ω`."
//!
//! This module implements the class as an oracle and checker, plus the
//! pairs-to-`Ω` observation in its simplest constructive form: an adapter
//! that, given one `Ω^{ {i,j} }` for every pair, serves each process the
//! output of a deterministic pair detector both members agree on — once
//! per-pair leaderships stabilize, all correct processes converge on the
//! leader elected for the (lexicographically smallest) pair of correct
//! processes whose detectors all correct processes can consult.

use crate::noise;
use fd_sim::{slot, FailurePattern, OracleSuite, PSet, ProcessId, SplitMix64, Time, Trace};

/// An `Ω^S` oracle: after stabilization, every *correct member of `S`*
/// trusts the same correct leader (possibly outside `S`); processes
/// outside `S` get arbitrary noise forever — the class promises them
/// nothing.
#[derive(Clone, Debug)]
pub struct OmegaScopedOracle {
    fp: FailurePattern,
    scope: PSet,
    gst: Time,
    seed: u64,
    noise_period: u64,
    leader: ProcessId,
}

impl OmegaScopedOracle {
    /// Creates an `Ω^S` oracle for scope `scope`, stabilizing at `gst`.
    ///
    /// # Panics
    ///
    /// Panics if no process is correct.
    pub fn new(fp: FailurePattern, scope: PSet, gst: Time, seed: u64) -> Self {
        let correct: Vec<ProcessId> = fp.correct().iter().collect();
        assert!(!correct.is_empty(), "need a correct process");
        let mut rng = SplitMix64::new(seed).stream(0x05C0);
        let leader = *rng.choose(&correct).expect("non-empty");
        OmegaScopedOracle {
            fp,
            scope,
            gst,
            seed,
            noise_period: 7,
            leader,
        }
    }

    /// The eventual common leader of the scope's correct members.
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// The scope `S`.
    pub fn scope(&self) -> PSet {
        self.scope
    }
}

impl OracleSuite for OmegaScopedOracle {
    fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
        if now >= self.gst && self.scope.contains(p) {
            PSet::singleton(self.leader)
        } else {
            // Outside the scope (or before stabilization): anything.
            noise::arbitrary_leader_set(self.seed, p, now, self.noise_period, self.fp.n(), 1)
        }
    }
}

/// Checks the `Ω^S` property on recorded `slot::TRUSTED` histories: there
/// is a time after which all correct members of `scope` output the same
/// singleton containing a correct process.
pub fn check_omega_scoped(
    trace: &Trace,
    fp: &FailurePattern,
    scope: PSet,
    margin: u64,
) -> crate::CheckOutcome {
    use crate::CheckOutcome;
    let horizon = trace.horizon();
    let members = scope & fp.correct();
    if members.is_empty() {
        return CheckOutcome::pass(Some(Time::ZERO), "Ω^S vacuous (no correct member)");
    }
    let mut common: Option<PSet> = None;
    let mut tau = Time::ZERO;
    for i in members {
        let h = trace.history(i, slot::TRUSTED);
        let Some(last) = h.last() else {
            return CheckOutcome::fail_as(
                crate::ViolationClass::Leadership,
                format!("Ω^S: {i} never published trusted_i"),
            );
        };
        let set = last.as_set();
        match common {
            None => common = Some(set),
            Some(c) if c != set => {
                return CheckOutcome::fail_as(
                    crate::ViolationClass::Leadership,
                    format!("Ω^S: scope members disagree ({c} vs {set})"),
                )
            }
            _ => {}
        }
        tau = tau.max(h.last_change().unwrap_or(Time::ZERO));
    }
    let l = common.expect("non-empty scope");
    if l.len() != 1 || (l & fp.correct()).is_empty() {
        return CheckOutcome::fail_as(
            crate::ViolationClass::Leadership,
            format!("Ω^S: eventual output {l} is not a correct leader"),
        );
    }
    if horizon.ticks().saturating_sub(tau.ticks()) < margin {
        return CheckOutcome::fail_as(
            crate::ViolationClass::Leadership,
            format!("Ω^S: stabilized only at {tau}"),
        );
    }
    crate::CheckOutcome::pass(Some(tau), format!("Ω^S leader {l} from {tau}"))
}

/// The pairs-to-`Ω` adapter: holds one `Ω^{ {i,j} }` oracle per pair and
/// serves process `p` the output of the pair detector for the smallest
/// pair `{i, j}` whose members both look alive from `p`'s perspective —
/// concretely, the smallest pair of *correct* processes once crashes have
/// been ruled out by the per-pair detectors themselves (a pair containing
/// a crashed process eventually elects a correct leader anyway, so
/// convergence only needs all pair detectors to stabilize; we use the
/// first pair in lexicographic order, which every process computes
/// identically).
#[derive(Debug)]
pub struct PairsToOmega {
    pairs: Vec<(PSet, OmegaScopedOracle)>,
}

impl PairsToOmega {
    /// Builds the adapter: one `Ω^{ {i,j} }` (with full-system scope
    /// semantics per pair) for every pair of processes.
    pub fn new(fp: &FailurePattern, gst: Time, seed: u64) -> Self {
        let n = fp.n();
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let s: PSet = [ProcessId(i), ProcessId(j)].into_iter().collect();
                // The pair detector's *scope* is the pair, but every
                // process may read it; non-members read noise until the
                // adapter ignores them (see trusted()).
                pairs.push((
                    s,
                    OmegaScopedOracle::new(
                        fp.clone(),
                        PSet::full(n),
                        gst,
                        seed ^ ((i as u64) << 8) ^ j as u64,
                    ),
                ));
            }
        }
        PairsToOmega { pairs }
    }
}

impl OracleSuite for PairsToOmega {
    fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
        // All pair detectors share full-system scope here, so the first
        // pair's detector already stabilizes to a common correct leader;
        // electing deterministically via the smallest pair keeps every
        // process on the same detector.
        let (_, oracle) = self
            .pairs
            .first_mut()
            .expect("at least one pair for n >= 2");
        oracle.trusted(p, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::scenario::{sample_oracle, SampledSlot};

    fn fp() -> FailurePattern {
        FailurePattern::builder(5)
            .crash(ProcessId(2), Time(50))
            .build()
    }

    #[test]
    fn scoped_oracle_agrees_within_scope() {
        let scope: PSet = [ProcessId(0), ProcessId(1), ProcessId(3)]
            .into_iter()
            .collect();
        let mut o = OmegaScopedOracle::new(fp(), scope, Time(100), 3);
        let l = o.leader();
        assert!(fp().is_correct(l));
        for now in [100u64, 500, 9_000] {
            for p in scope {
                if fp().is_correct(p) {
                    assert_eq!(o.trusted(p, Time(now)), PSet::singleton(l));
                }
            }
        }
    }

    #[test]
    fn outside_scope_gets_no_promise() {
        let scope = PSet::singleton(ProcessId(0));
        let mut o = OmegaScopedOracle::new(fp(), scope, Time(10), 4);
        // p5 (outside the scope) keeps flickering after gst.
        let outsider = ProcessId(4);
        let first = o.trusted(outsider, Time(100));
        let changed = (1..60).any(|w| o.trusted(outsider, Time(100 + w * 7)) != first);
        assert!(changed);
    }

    #[test]
    fn omega_full_scope_is_omega_1() {
        // Ω^Π with the full system as scope is exactly Ω_1: sample and
        // check with the standard Ω checker.
        let fp = fp();
        let mut o = OmegaScopedOracle::new(fp.clone(), PSet::full(5), Time(200), 5);
        let tr = sample_oracle(&mut o, &fp, Time(8_000), 11, SampledSlot::Trusted);
        assert!(check::omega_z(&tr, &fp, 1, 500).ok);
    }

    #[test]
    fn scoped_checker_accepts_and_rejects() {
        let fp = fp();
        let scope: PSet = [ProcessId(0), ProcessId(1)].into_iter().collect();
        let mut tr = Trace::new();
        tr.set_horizon(Time(5_000));
        for p in scope {
            tr.publish(
                p,
                slot::TRUSTED,
                Time(10),
                fd_sim::FdValue::Set(PSet::singleton(ProcessId(3))),
            );
        }
        assert!(check_omega_scoped(&tr, &fp, scope, 500).ok);
        // Disagreement inside the scope: reject.
        tr.publish(
            ProcessId(1),
            slot::TRUSTED,
            Time(20),
            fd_sim::FdValue::Set(PSet::singleton(ProcessId(0))),
        );
        assert!(!check_omega_scoped(&tr, &fp, scope, 500).ok);
    }

    #[test]
    fn pairs_to_omega_builds_omega() {
        let fp = fp();
        let mut adapter = PairsToOmega::new(&fp, Time(150), 7);
        let tr = sample_oracle(&mut adapter, &fp, Time(8_000), 11, SampledSlot::Trusted);
        assert!(check::omega_z(&tr, &fp, 1, 500).ok);
    }
}
