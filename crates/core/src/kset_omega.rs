//! The `Ω_k`-based `k`-set agreement algorithm — **paper Figure 3**.
//!
//! This is the paper's §3 contribution: a round-based algorithm in which
//! processes use an underlying `Ω_z` failure detector (`z ≤ k`) to converge
//! on at most `k` distinct decisions, assuming `t < n/2`. Each round has two
//! phases:
//!
//! * **Phase 1** (lines 03–08): read `trusted_i` into `L_i`, broadcast
//!   `PHASE1(r, L_i, est_i)`, wait for `n−t` such messages *and* for either
//!   a message from a member of `L_i` or a change of `trusted_i`; adopt the
//!   estimate `v_L` of a majority-supported leader set `L` into `aux_i`, or
//!   `⊥` if no such value is visible.
//! * **Phase 2** (lines 10–14): broadcast `PHASE2(r, aux_i)`, wait for `n−t`
//!   of them; adopt any non-`⊥` value as the new estimate; if *no* `⊥` was
//!   received, reliably broadcast `DECISION(est_i)`.
//!
//! A process decides when it R-delivers a `DECISION` (task T2), which also
//! disseminates the value so every correct process decides (termination).
//!
//! Properties proved in the paper and checked mechanically here
//! (`crate::spec`): validity, at most `k` distinct decisions
//! (for `z ≤ k`), and termination. The algorithm is *oracle-efficient* and
//! *zero-degrading* (§3.2): with a perfect `Ω_k` and only initial crashes
//! it decides in a single round.

use crate::rounds::{Phase1Slab, Phase2Slab, RoundWindow};
use fd_sim::{
    slot, Automaton, Corruptible, Ctx, FdValue, OracleSuite, PSet, ProcessId, SplitMix64,
};

/// Message alphabet of the Figure 3 algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KsetMsg {
    /// `PHASE1(r_i, L_i, est_i)` — paper line 04.
    Phase1 {
        /// Round number.
        r: u32,
        /// The sender's leader set `L_i` at round start.
        leaders: PSet,
        /// The sender's current estimate.
        est: u64,
    },
    /// `PHASE2(r_i, aux_i)` — paper line 10; `None` encodes `⊥`.
    Phase2 {
        /// Round number.
        r: u32,
        /// The sender's `aux_i` (`None` = `⊥`).
        aux: Option<u64>,
    },
    /// `DECISION(est)` — paper line 14, reliably broadcast.
    Decision {
        /// The decided value.
        v: u64,
    },
}

impl Corruptible for KsetMsg {
    /// The message adversary may move the *estimates* in flight (bounded):
    /// `PHASE1.est` and any non-`⊥` `PHASE2.aux`. Leader sets and round
    /// numbers stay intact (structured corruption would make messages
    /// undecodable rather than wrong, which the drop rule already models),
    /// and `DECISION`s travel by reliable broadcast, which the adversary
    /// cannot touch.
    fn corrupt(&mut self, bound: u64, rng: &mut SplitMix64) -> bool {
        match self {
            KsetMsg::Phase1 { est, .. } => fd_sim::corrupt_u64(est, bound, rng),
            KsetMsg::Phase2 { aux: Some(v), .. } => fd_sim::corrupt_u64(v, bound, rng),
            _ => false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Before `on_start`: no round begun, `r_i = 0`.
    Unstarted,
    /// Lines 03–05: waiting for `n−t` PHASE1 messages of the round.
    Phase1,
    /// Line 06: the line 05 quorum holds; waiting for a message from a
    /// member of `L_i` or a change of `trusted_i`, so every activation
    /// re-reads the leader set.
    AwaitLeader,
    /// Line 11: waiting for `n−t` PHASE2 messages of the round.
    Phase2,
    /// Finished: sent the line-14 `DECISION`, or decided.
    Done,
}

/// Where the algorithm reads its leader sets from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LeaderInput {
    /// Read `trusted_i` from the run's oracle bundle (the normal mode).
    #[default]
    Oracle,
    /// Use an externally supplied set, updated by an enclosing automaton —
    /// this is how the algorithm is stacked on top of the two-wheels
    /// construction (see the `fd-grid` pipeline).
    External,
}

/// One process of the `Ω_k`-based `k`-set agreement algorithm (Figure 3).
///
/// Round state lives in the bitset slabs of [`crate::rounds`]: sender
/// dedup is a bit test, the `n−t` quorum counts and the line 13 value
/// choice are running aggregates, the line 07 majority is a running vote
/// settled by one recount when the Phase 1 guards pass, and slabs of
/// finished rounds are recycled — steady-state progress allocates
/// nothing, independent of `n`.
/// `tests/slab_reference.rs` retains the original `HashMap`-of-`Vec`
/// implementation (`KsetOmegaRef`) and pins both bit-identical.
///
/// A delivery the process would not record — a PHASE1 or PHASE2 for a
/// round whose phase it has left, anything once it has finished, a second
/// `DECISION` — is a no-op, and [`Automaton::ignores`] says so exactly:
/// the engine releases it like a delivery to a crashed recipient, without
/// cloning the payload or activating the process. The one exception is
/// line 06, where every activation re-reads `trusted_i`, so nothing is
/// ignored there. A recorded message re-checks the guards only if it can
/// open the one the process waits on: it completes the `n−t` quorum of
/// the current round's current phase, or the process is at line 06.
/// `tests/slab_reference.rs` pins runs with both shortcuts bit-identical
/// to the reference, which activates the process on every delivery, and
/// `tests/shortcut_counts.rs` counts what they skip.
///
/// # Examples
///
/// See [`crate::scenario::KsetScenario`] for the assembled experiment.
#[derive(Clone, Debug)]
pub struct KsetOmega {
    est: u64,
    r: u32,
    li: PSet,
    stage: Stage,
    aux: Option<u64>,
    p1: RoundWindow<Phase1Slab>,
    p2: RoundWindow<Phase2Slab>,
    decided: bool,
    leader_input: LeaderInput,
    external_leaders: PSet,
}

impl KsetOmega {
    /// Creates the process with its proposal `v_i`.
    pub fn new(proposal: u64) -> Self {
        KsetOmega {
            est: proposal,
            r: 0,
            li: PSet::EMPTY,
            stage: Stage::Unstarted,
            aux: None,
            p1: RoundWindow::new(),
            p2: RoundWindow::new(),
            decided: false,
            leader_input: LeaderInput::Oracle,
            external_leaders: PSet::EMPTY,
        }
    }

    /// Switches the leader source to [`LeaderInput::External`].
    pub fn with_external_leaders(mut self) -> Self {
        self.leader_input = LeaderInput::External;
        self
    }

    /// Updates the externally supplied leader set (external mode only).
    pub fn set_external_leaders(&mut self, l: PSet) {
        self.external_leaders = l;
    }

    /// Whether this process has decided.
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    /// The current round number (1-based once started).
    pub fn round(&self) -> u32 {
        self.r
    }

    /// Whether the process waits at line 06: the line 05 quorum of its
    /// round is in, and no member of `L_i` has been heard while
    /// `trusted_i` still equals `L_i`.
    pub fn awaits_leader(&self) -> bool {
        self.stage == Stage::AwaitLeader
    }

    /// Whether a guard can still read round `r`'s Phase-1 state: `r` is
    /// a later round, or the current one while the process is in its
    /// Phase 1. Before `on_start` `r_i = 0`, so every round is ahead.
    fn reads_phase1(&self, r: u32) -> bool {
        match self.stage {
            Stage::Unstarted | Stage::Phase1 | Stage::AwaitLeader => r >= self.r,
            Stage::Phase2 => r > self.r,
            Stage::Done => false,
        }
    }

    /// Whether a guard can still read round `r`'s Phase-2 state: `r` is
    /// not below the current round and the process has not finished.
    fn reads_phase2(&self, r: u32) -> bool {
        r >= self.r && self.stage != Stage::Done
    }

    /// The leader set the process reads now. It takes the two fields it
    /// reads, not `self`, so `try_advance` can call it while it holds the
    /// current round's slab.
    fn read_leaders<O: OracleSuite + ?Sized>(
        input: LeaderInput,
        external: PSet,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) -> PSet {
        match input {
            LeaderInput::Oracle => ctx.trusted(),
            LeaderInput::External => external,
        }
    }

    /// Lines 03–04: enter round `r+1` and broadcast `PHASE1`.
    fn begin_round<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.r += 1;
        // Rounds below the new current one are never read again: recycle
        // their slabs (messages for them are dropped on arrival too).
        self.p1.retire_below(self.r);
        self.p2.retire_below(self.r);
        ctx.publish(slot::ROUND, FdValue::Num(self.r as u64));
        self.li = Self::read_leaders(self.leader_input, self.external_leaders, ctx);
        self.stage = Stage::Phase1;
        ctx.broadcast(KsetMsg::Phase1 {
            r: self.r,
            leaders: self.li,
            est: self.est,
        });
    }

    /// Re-evaluates the `wait until` guards; makes all enabled transitions.
    fn try_advance<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        loop {
            match self.stage {
                Stage::Unstarted | Stage::Done => return,
                Stage::Phase1 | Stage::AwaitLeader => {
                    let (n, quorum) = (ctx.n(), ctx.n() - ctx.t());
                    let slab = self.p1.entry(self.r, || Phase1Slab::new(n));
                    // Line 05: n−t PHASE1(r) messages. Checked first: it
                    // rejects most calls, and line 06 costs set algebra.
                    if slab.count() < quorum {
                        return;
                    }
                    // Line 06: one from a member of L_i, or trusted_i moved.
                    // (`read_leaders` queries the oracle, so it must stay
                    // short-circuited: read only once line 05 holds and no
                    // member of L_i has been heard.)
                    if !slab.heard_from(self.li)
                        && Self::read_leaders(self.leader_input, self.external_leaders, ctx)
                            == self.li
                    {
                        self.stage = Stage::AwaitLeader;
                        return;
                    }
                    // Lines 07–08: aux_i := v_L if a majority agrees on one
                    // leader set L and some member of L supplied a value.
                    self.aux = slab.majority(n).and_then(|l| slab.min_member_est(l));
                    // Line 10: broadcast PHASE2.
                    self.stage = Stage::Phase2;
                    ctx.broadcast(KsetMsg::Phase2 {
                        r: self.r,
                        aux: self.aux,
                    });
                }
                Stage::Phase2 => {
                    let quorum = ctx.n() - ctx.t();
                    let slab = self.p2.entry(self.r, Phase2Slab::default);
                    // Line 11: n−t PHASE2(r) messages.
                    if slab.count() < quorum {
                        return;
                    }
                    let (min_val, all_non_bot) = (slab.min_val(), slab.all_non_bot());
                    // Line 13: adopt any non-⊥ value (deterministically the
                    // smallest, any choice is correct).
                    if let Some(v) = min_val {
                        self.est = v;
                    }
                    // Line 14: decide if no ⊥ was received.
                    if all_non_bot {
                        ctx.rb_broadcast(KsetMsg::Decision { v: self.est });
                        self.stage = Stage::Done;
                        return;
                    }
                    self.begin_round(ctx);
                }
            }
        }
    }
}

impl Automaton for KsetOmega {
    type Msg = KsetMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.begin_round(ctx);
        self.try_advance(ctx);
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: KsetMsg,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) {
        // Only what a guard can still read is recorded (the reference
        // implementation stored every message, write-only). A PHASE1 that
        // arrives after its round's Phase 1 ended, or anything after the
        // process finished, is dropped: on an n = 128, t = 63 run that is
        // nearly half of the PHASE1 deliveries. A recorded message opens a
        // guard only by completing the n−t quorum of the current round's
        // current phase (the count only grows, so it was short before).
        // Re-checking only then, rather than after every recorded message,
        // is worth about 5 % of `scale_n128`'s events_per_s: twenty
        // alternating 27 s pairs on a 2-vCPU host, median per-pair ratio
        // 1.048, faster in 17 of 20.
        let quorum = ctx.n() - ctx.t();
        let opens = match msg {
            KsetMsg::Phase1 { r, leaders, est } if self.reads_phase1(r) => {
                let n = ctx.n();
                let slab = self.p1.entry(r, || Phase1Slab::new(n));
                slab.insert(from, leaders, est);
                r == self.r && slab.count() >= quorum
            }
            KsetMsg::Phase2 { r, aux } if self.reads_phase2(r) => {
                let slab = self.p2.entry(r, Phase2Slab::default);
                slab.insert(from, aux);
                r == self.r && self.stage == Stage::Phase2 && slab.count() >= quorum
            }
            KsetMsg::Phase1 { .. } | KsetMsg::Phase2 { .. } => false,
            // Plain channels never carry decisions, but be permissive: a
            // composed wrapper may re-route them. Deciding finishes the
            // process, so no guard is left to check.
            KsetMsg::Decision { v } => {
                self.on_rb_deliver(from, KsetMsg::Decision { v }, ctx);
                false
            }
        };
        // Line 06 also opens when trusted_i moves, which any activation
        // must re-read.
        if opens || self.stage == Stage::AwaitLeader {
            self.try_advance(ctx);
        }
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        msg: KsetMsg,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) {
        // Task T2: on R-delivery of DECISION(v), return v.
        if let KsetMsg::Decision { v } = msg {
            if !self.decided {
                self.decided = true;
                self.stage = Stage::Done;
                ctx.decide(v);
                ctx.halt();
            }
        }
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        // trusted_i is time-dependent: the line 06 guard and the line 03
        // re-read both need periodic re-evaluation.
        self.try_advance(ctx);
    }

    /// Exactly the deliveries `on_message` would not record, outside line
    /// 06 (where the activation itself re-reads `trusted_i`), and a
    /// `DECISION` once the process has decided.
    fn ignores(&self, msg: &KsetMsg) -> bool {
        match *msg {
            KsetMsg::Phase1 { r, .. } => self.stage != Stage::AwaitLeader && !self.reads_phase1(r),
            KsetMsg::Phase2 { r, .. } => self.stage != Stage::AwaitLeader && !self.reads_phase2(r),
            KsetMsg::Decision { .. } => self.decided,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::OmegaOracle;
    use fd_sim::{FailurePattern, Sim, SimConfig, Time};

    fn run(n: usize, t: usize, z: usize, gst: u64, seed: u64) -> fd_sim::Trace {
        let fp = FailurePattern::all_correct(n);
        let oracle = OmegaOracle::new(fp.clone(), z, Time(gst), seed);
        let cfg = SimConfig::new(n, t).seed(seed).max_time(Time(60_000));
        let sim = Sim::new(
            cfg,
            fp.clone(),
            |p| KsetOmega::new(100 + p.0 as u64),
            oracle,
        );
        let correct = fp.correct();
        sim.run_into_trace(move |tr| tr.deciders().is_superset(correct))
    }

    #[test]
    fn consensus_with_omega_1() {
        let tr = run(5, 2, 1, 300, 1);
        assert_eq!(tr.deciders().len(), 5);
        assert_eq!(tr.decided_values().len(), 1);
    }

    #[test]
    fn two_set_agreement_with_omega_2() {
        for seed in 0..5 {
            let tr = run(5, 2, 2, 300, seed);
            assert_eq!(tr.deciders().len(), 5);
            assert!(
                tr.decided_values().len() <= 2,
                "decided {:?}",
                tr.decided_values()
            );
        }
    }

    #[test]
    fn validity_decided_values_are_proposals() {
        let tr = run(6, 2, 2, 200, 7);
        for v in tr.decided_values() {
            assert!((100..106).contains(&v));
        }
    }

    /// Drives process 0 of an `n = 3, t = 1` system (quorum 2) by hand,
    /// with the external leader set `{p0}` so no oracle is read.
    struct Harness {
        p: KsetOmega,
        oracle: fd_sim::NoOracle,
        trace: fd_sim::Trace,
    }

    impl Harness {
        fn new() -> Self {
            let mut p = KsetOmega::new(7).with_external_leaders();
            p.set_external_leaders(PSet::singleton(ProcessId(0)));
            Harness {
                p,
                oracle: fd_sim::NoOracle,
                trace: fd_sim::Trace::new(),
            }
        }

        fn ctx(&mut self) -> (&mut KsetOmega, Ctx<'_, KsetMsg, fd_sim::NoOracle>) {
            let ctx = Ctx::new(
                ProcessId(0),
                3,
                1,
                Time(1),
                &mut self.oracle,
                &mut self.trace,
            );
            (&mut self.p, ctx)
        }

        fn start(&mut self) {
            let (p, mut ctx) = self.ctx();
            p.on_start(&mut ctx);
        }

        fn deliver(&mut self, from: usize, msg: KsetMsg) {
            let (p, mut ctx) = self.ctx();
            p.on_message(ProcessId(from), msg, &mut ctx);
        }

        fn phase1(&mut self, from: usize, r: u32) {
            let leaders = PSet::singleton(ProcessId(0));
            self.deliver(from, KsetMsg::Phase1 { r, leaders, est: 7 });
        }

        fn phase1_count(&self, r: u32) -> Option<usize> {
            self.p.p1.get(r).map(Phase1Slab::count)
        }

        fn phase2_count(&self, r: u32) -> Option<usize> {
            self.p.p2.get(r).map(Phase2Slab::count)
        }
    }

    #[test]
    fn late_phase1_leaves_a_closed_round_untouched() {
        let mut h = Harness::new();
        h.start();
        h.phase1(0, 1);
        assert_eq!(h.p.stage, Stage::Phase1);
        h.phase1(1, 1);
        // Quorum and a leader heard: on to Phase 2 of round 1.
        assert_eq!(h.p.stage, Stage::Phase2);
        assert_eq!(h.phase1_count(1), Some(2));
        h.phase1(2, 1);
        assert_eq!(h.phase1_count(1), Some(2), "late PHASE1(1) recorded");
        // A PHASE1 for a later round is still ahead of the process.
        h.phase1(2, 2);
        assert_eq!(h.phase1_count(2), Some(1));
    }

    #[test]
    fn finished_process_records_nothing() {
        let mut h = Harness::new();
        h.start();
        h.phase1(0, 1);
        h.phase1(1, 1);
        h.deliver(0, KsetMsg::Phase2 { r: 1, aux: Some(7) });
        h.deliver(1, KsetMsg::Phase2 { r: 1, aux: Some(7) });
        // No ⊥ among n − t PHASE2s: line 14's DECISION went out.
        assert_eq!(h.p.stage, Stage::Done);
        assert!(!h.p.has_decided());
        h.deliver(2, KsetMsg::Phase2 { r: 1, aux: None });
        assert_eq!(h.phase2_count(1), Some(2), "PHASE2 recorded after DECISION");
        h.phase1(2, 2);
        h.deliver(2, KsetMsg::Phase2 { r: 2, aux: None });
        assert_eq!(h.phase1_count(2), None, "PHASE1 recorded after DECISION");
        assert_eq!(h.phase2_count(2), None, "PHASE2 recorded after DECISION");
        h.deliver(1, KsetMsg::Decision { v: 7 });
        assert!(h.p.has_decided());
        h.phase1(1, 3);
        assert_eq!(h.phase1_count(3), None, "PHASE1 recorded after deciding");
    }

    #[test]
    fn unstarted_process_records_both_phases() {
        let mut h = Harness::new();
        h.deliver(1, KsetMsg::Phase2 { r: 1, aux: Some(9) });
        h.phase1(1, 1);
        assert_eq!(h.p.round(), 0);
        assert_eq!(h.phase2_count(1), Some(1), "early PHASE2 dropped");
        assert_eq!(h.phase1_count(1), Some(1), "early PHASE1 dropped");
        h.start();
        h.phase1(0, 1);
        assert_eq!(h.p.stage, Stage::Phase2);
        h.deliver(0, KsetMsg::Phase2 { r: 1, aux: Some(7) });
        // The buffered PHASE2 counts toward the quorum: the process
        // adopts the smallest value heard and sends its DECISION.
        assert_eq!(h.p.stage, Stage::Done);
        assert_eq!(h.p.est, 7);
    }

    #[test]
    fn ignores_what_is_not_recorded_except_at_line_06() {
        let mut h = Harness::new();
        let p1 = |r| KsetMsg::Phase1 {
            r,
            leaders: PSet::singleton(ProcessId(0)),
            est: 7,
        };
        let p2 = |r| KsetMsg::Phase2 { r, aux: None };
        h.start();
        h.phase1(1, 1);
        assert!(!h.p.ignores(&p2(1)), "an early PHASE2 is recorded");
        // Quorum, but no word from the leader p0 and no change of L_i.
        h.phase1(2, 1);
        assert!(h.p.awaits_leader());
        h.phase1(0, 1);
        assert_eq!(h.p.stage, Stage::Phase2);
        assert!(h.p.ignores(&p1(1)), "a late PHASE1(1) in Phase 2");
        assert!(!h.p.ignores(&p1(2)));
        h.deliver(0, p2(1));
        h.deliver(1, p2(1));
        // A ⊥ among the PHASE2s: on to round 2.
        assert_eq!((h.p.round(), h.p.stage), (2, Stage::Phase1));
        assert!(h.p.ignores(&p1(1)) && h.p.ignores(&p2(1)));
        h.phase1(1, 2);
        h.phase1(2, 2);
        assert!(h.p.awaits_leader());
        // At line 06 every activation re-reads the leader set.
        assert!(!h.p.ignores(&p1(1)) && !h.p.ignores(&p2(1)));
        let decision = KsetMsg::Decision { v: 7 };
        assert!(!h.p.ignores(&decision));
        h.deliver(1, decision.clone());
        assert!(h.p.has_decided());
        assert!(h.p.ignores(&decision) && h.p.ignores(&p1(3)) && h.p.ignores(&p2(3)));
    }

    #[test]
    fn single_round_with_perfect_oracle_and_no_crash() {
        let fp = FailurePattern::all_correct(4);
        let oracle = OmegaOracle::perfect(fp.clone(), 1, 3);
        let cfg = SimConfig::new(4, 1).seed(3);
        let sim = Sim::new(cfg, fp.clone(), |p| KsetOmega::new(p.0 as u64), oracle);
        let correct = fp.correct();
        let trace = sim.run_into_trace(move |tr| tr.deciders().is_superset(correct));
        // Oracle efficiency: every process stays in round 1.
        for i in 0..4 {
            let h = trace.history(ProcessId(i), slot::ROUND);
            assert_eq!(h.last(), Some(FdValue::Num(1)), "{i} left round 1");
        }
    }
}
