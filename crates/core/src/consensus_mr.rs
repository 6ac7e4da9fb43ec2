//! Baseline: the classic `◇S`-based consensus algorithm
//! (Mostéfaoui–Raynal, DISC 1999 — the paper's reference \[18\], of which
//! Figure 3 is the `Ω_k` descendant).
//!
//! Rotating-coordinator structure, `t < n/2`:
//!
//! * **Phase 1** of round `r`: the coordinator `c = p_{((r−1) mod n)+1}`
//!   broadcasts its estimate. Every process waits until it receives the
//!   coordinator's estimate **or** suspects the coordinator
//!   (`c ∈ suspected_i`), setting `aux_i` to the estimate or `⊥`.
//! * **Phase 2**: all-to-all exchange of `aux` values; wait for `n−t`.
//!   If all received values equal some `v ≠ ⊥`, reliably broadcast
//!   `DECISION(v)`; if any `v ≠ ⊥` arrived, adopt it as the new estimate.
//!
//! Quorum intersection (two majorities intersect) gives agreement; the
//! eventual weak accuracy of `◇S` gives termination: once some correct
//! coordinator is no longer suspected by anyone, its round decides.
//!
//! This baseline lets the benchmarks compare the paper's `Ω_k` algorithm
//! (at `k = 1`) against the prior consensus technology it generalizes.

use crate::rounds::{CoordSlab, EchoSlab, RoundWindow};
use fd_sim::{slot, Automaton, Ctx, FdValue, OracleSuite, ProcessId};

/// Message alphabet of the MR consensus algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MrMsg {
    /// The round coordinator's estimate.
    Coord {
        /// Round number.
        r: u32,
        /// The coordinator's estimate.
        est: u64,
    },
    /// Phase 2 echo (`None` = `⊥`).
    Echo {
        /// Round number.
        r: u32,
        /// The echoed `aux` value.
        aux: Option<u64>,
    },
    /// Reliable decision dissemination.
    Decision {
        /// The decided value.
        v: u64,
    },
}

impl fd_sim::Corruptible for MrMsg {
    /// Same corruption surface as the Figure 3 alphabet: estimates in
    /// flight move by at most the bound; decisions ride the (untouchable)
    /// reliable broadcast.
    fn corrupt(&mut self, bound: u64, rng: &mut fd_sim::SplitMix64) -> bool {
        match self {
            MrMsg::Coord { est, .. } => fd_sim::corrupt_u64(est, bound, rng),
            MrMsg::Echo { aux: Some(v), .. } => fd_sim::corrupt_u64(v, bound, rng),
            _ => false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    AwaitCoord,
    AwaitEchoes,
    Done,
}

/// One process of the MR `◇S` consensus baseline.
///
/// Round state uses the recycled bitset slabs of [`crate::rounds`] (see
/// [`crate::kset_omega::KsetOmega`] for the rationale);
/// `tests/slab_reference.rs` keeps the original `HashMap` implementation
/// as its differential reference.
#[derive(Clone, Debug)]
pub struct ConsensusMr {
    est: u64,
    r: u32,
    stage: Stage,
    coords: RoundWindow<CoordSlab>,
    echoes: RoundWindow<EchoSlab>,
    decided: bool,
}

impl ConsensusMr {
    /// Creates the process with its proposal.
    pub fn new(proposal: u64) -> Self {
        ConsensusMr {
            est: proposal,
            r: 0,
            stage: Stage::Done,
            coords: RoundWindow::new(),
            echoes: RoundWindow::new(),
            decided: false,
        }
    }

    /// Whether this process has decided.
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    fn coordinator(&self, n: usize) -> ProcessId {
        ProcessId(((self.r as usize).saturating_sub(1)) % n)
    }

    fn begin_round<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, MrMsg, O>) {
        self.r += 1;
        // Finished rounds are never read again: recycle their slabs.
        self.coords.retire_below(self.r);
        self.echoes.retire_below(self.r);
        ctx.publish(slot::ROUND, FdValue::Num(self.r as u64));
        self.stage = Stage::AwaitCoord;
        if self.coordinator(ctx.n()) == ctx.me() {
            ctx.broadcast(MrMsg::Coord {
                r: self.r,
                est: self.est,
            });
        }
    }

    fn try_advance<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, MrMsg, O>) {
        loop {
            match self.stage {
                Stage::Done => return,
                Stage::AwaitCoord => {
                    let c = self.coordinator(ctx.n());
                    // `suspected()` queries the oracle: keep it
                    // short-circuited behind the coordinator check exactly
                    // as before.
                    let aux = if let Some(est) = self.coords.get(self.r).and_then(CoordSlab::est) {
                        Some(est)
                    } else if ctx.suspected().contains(c) {
                        None
                    } else {
                        return; // keep waiting
                    };
                    self.stage = Stage::AwaitEchoes;
                    ctx.broadcast(MrMsg::Echo { r: self.r, aux });
                }
                Stage::AwaitEchoes => {
                    let quorum = ctx.n() - ctx.t();
                    let slab = self.echoes.entry(self.r, EchoSlab::default);
                    if slab.count() < quorum {
                        return;
                    }
                    let (first_val, all_non_bot) = (slab.first_val(), slab.all_non_bot());
                    if let Some(v) = first_val {
                        self.est = v;
                        if all_non_bot {
                            ctx.rb_broadcast(MrMsg::Decision { v });
                            self.stage = Stage::Done;
                            return;
                        }
                    }
                    self.begin_round(ctx);
                }
            }
        }
    }
}

impl Automaton for ConsensusMr {
    type Msg = MrMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, MrMsg, O>) {
        self.begin_round(ctx);
        self.try_advance(ctx);
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: MrMsg,
        ctx: &mut Ctx<'_, MrMsg, O>,
    ) {
        match msg {
            // Stale-round messages were write-only state in the reference
            // implementation; drop them so retired slabs stay retired.
            MrMsg::Coord { r, est } if r >= self.r => {
                self.coords.entry(r, CoordSlab::default).record(est);
            }
            MrMsg::Echo { r, aux } if r >= self.r => {
                self.echoes.entry(r, EchoSlab::default).insert(from, aux);
            }
            MrMsg::Coord { .. } | MrMsg::Echo { .. } => {}
            MrMsg::Decision { v } => self.on_rb_deliver(from, MrMsg::Decision { v }, ctx),
        }
        self.try_advance(ctx);
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        msg: MrMsg,
        ctx: &mut Ctx<'_, MrMsg, O>,
    ) {
        if let MrMsg::Decision { v } = msg {
            if !self.decided {
                self.decided = true;
                self.stage = Stage::Done;
                ctx.decide(v);
                ctx.halt();
            }
        }
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, MrMsg, O>) {
        // suspected_i is time-dependent: re-evaluate the phase 1 guard.
        self.try_advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::{Scope, SxOracle};
    use fd_sim::{FailurePattern, Sim, SimConfig, Time};

    fn run(n: usize, t: usize, gst: u64, seed: u64, fp: FailurePattern) -> fd_sim::Trace {
        // ◇S = ◇S_n.
        let oracle = SxOracle::new(fp.clone(), t, n, Scope::Eventual(Time(gst)), seed);
        let cfg = SimConfig::new(n, t).seed(seed).max_time(Time(100_000));
        let sim = Sim::new(
            cfg,
            fp.clone(),
            |p| ConsensusMr::new(10 + p.0 as u64),
            oracle,
        );
        let correct = fp.correct();
        sim.run_into_trace(move |tr| tr.deciders().is_superset(correct))
    }

    #[test]
    fn consensus_all_correct() {
        for seed in 0..5 {
            let tr = run(5, 2, 400, seed, FailurePattern::all_correct(5));
            assert_eq!(tr.deciders().len(), 5, "seed {seed}");
            assert_eq!(tr.decided_values().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn consensus_with_crashes() {
        for seed in 0..5 {
            let fp = FailurePattern::builder(5)
                .crash(ProcessId(0), Time(40))
                .crash(ProcessId(3), Time(90))
                .build();
            let tr = run(5, 2, 400, seed, fp.clone());
            assert!(tr.deciders().is_superset(fp.correct()), "seed {seed}");
            assert_eq!(tr.decided_values().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn validity_holds() {
        let tr = run(4, 1, 200, 9, FailurePattern::all_correct(4));
        for v in tr.decided_values() {
            assert!((10..14).contains(&v));
        }
    }
}
