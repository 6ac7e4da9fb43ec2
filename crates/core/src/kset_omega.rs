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
    slot, Automaton, Corruptible, Ctx, FdValue, OracleSuite, PSet, ProcessId, Quiet, SplitMix64,
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

/// The `wait until` guard of Figure 3 a process rests at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// Before `on_start`: no round begun, `r_i = 0`.
    Unstarted,
    /// Line 05 (PHASE1) or line 11 (PHASE2) of round `r`: `have` distinct
    /// senders are in, of the `need = n − t` the line waits for.
    Quorum {
        /// The paper line: 5 or 11.
        line: u8,
        /// The round.
        r: u32,
        /// Distinct senders recorded for the round and phase.
        have: usize,
        /// `n − t`.
        need: usize,
    },
    /// Line 06 of round `r`: line 05 holds; awaiting a member of `li` or a move of `trusted_i`.
    Leader {
        /// The round.
        r: u32,
        /// `L_i`, the leader set read at line 03.
        li: PSet,
    },
    /// Finished: sent line 14's `DECISION`, or decided.
    Done,
}

/// Which [`Wait`] the process is at, without its counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Unstarted,
    Phase1,
    AwaitLeader,
    Phase2,
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
/// dedup is a bit test, quorum counts and the line 13 value choice are
/// running aggregates, the line 07 majority is a running vote recounted
/// once when the Phase 1 guards pass, and finished rounds' slabs are
/// recycled, so steady-state progress allocates nothing.
///
/// The process rests at one [`Wait`] (`Quorum`: line 05 or 11; `Leader`:
/// line 06; `Done`: after line 14 or deciding). The guards, the quorum
/// test of a recorded delivery and [`KsetOmega::waiting_on`] read that one
/// value, the only place `n − t` is computed. The activation that
/// completes a quorum takes its line, so between activations a quorum
/// wait is short, and [`Automaton::settle`] handles every event that
/// cannot open the wait exactly, with no payload clone and no context.
/// `tests/slab_reference.rs` pins runs to the `HashMap`-of-`Vec`
/// reference, which activates on every event.
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

    /// The guard the process waits at, for `n` processes, `t` faulty.
    pub fn waiting_on(&self, n: usize, t: usize) -> Wait {
        self.waiting(n, t, |line| match line {
            5 => self.p1.get(self.r).map_or(0, Phase1Slab::count),
            _ => self.p2.get(self.r).map_or(0, Phase2Slab::count),
        })
    }

    /// The guard the process waits at. `have(line)` counts the current
    /// round's messages for line 05 or 11; only a quorum wait asks it, so
    /// `record` can pass the count of the slab it has just filled rather
    /// than look it up again. `need = n − t` is computed here alone.
    fn waiting(&self, n: usize, t: usize, have: impl FnOnce(u8) -> usize) -> Wait {
        let r = self.r;
        let line = match self.stage {
            Stage::Unstarted => return Wait::Unstarted,
            Stage::Phase1 => 5,
            Stage::AwaitLeader => return Wait::Leader { r, li: self.li },
            Stage::Phase2 => 11,
            Stage::Done => return Wait::Done,
        };
        Wait::Quorum {
            line,
            r,
            have: have(line),
            need: n - t,
        }
    }

    /// Whether a guard can still read `msg`: a PHASE1 or PHASE2 that
    /// [`Automaton::on_message`] would record, or a `DECISION` before the
    /// process has decided.
    pub fn reads(&self, msg: &KsetMsg) -> bool {
        match *msg {
            KsetMsg::Phase1 { r, .. } => self.reads_phase1(r),
            KsetMsg::Phase2 { r, .. } => self.reads_phase2(r),
            KsetMsg::Decision { .. } => !self.decided,
        }
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

    /// Records a PHASE1 or PHASE2 from `from` if a guard can still read it,
    /// and says whether it opens the current wait: the slab it went into
    /// is that wait's and now has `have == need` (the wait was short). Each
    /// arm asks with its own line, so the test compiles to compares, not a
    /// jump on the stage; `opens` takes the count first, ending the slab's borrow.
    ///
    /// The reference stored every message; a PHASE1 after its round's
    /// Phase 1, or anything once finished, is dropped here (nearly half of
    /// the PHASE1s at n = 128, t = 63). Re-checking the guards only when a
    /// wait opens is worth ~5 % of `scale_n128`'s events_per_s (twenty 27 s
    /// pairs on a 2-vCPU host: median ratio 1.048, faster in 17 of 20).
    fn record(&mut self, from: ProcessId, msg: &KsetMsg, n: usize, t: usize) -> bool {
        let opens = |count, p: &Self, line, r| {
            matches!(p.waiting(n, t, |_| count), Wait::Quorum { line: l, r: at, have, need }
                if (l, at) == (line, r) && have == need)
        };
        match *msg {
            KsetMsg::Phase1 { r, leaders, est } if self.reads_phase1(r) => {
                let slab = self.p1.entry(r, || Phase1Slab::new(n));
                slab.insert(from, leaders, est);
                opens(slab.count(), self, 5, r)
            }
            KsetMsg::Phase2 { r, aux } if self.reads_phase2(r) => {
                let slab = self.p2.entry(r, Phase2Slab::default);
                slab.insert(from, aux);
                opens(slab.count(), self, 11, r)
            }
            _ => false,
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

    /// Takes the line of every wait that is open, until one is not.
    fn try_advance<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        let n = ctx.n();
        loop {
            match self.waiting_on(n, ctx.t()) {
                Wait::Unstarted | Wait::Done => return,
                // Line 05 or 11: fewer than n−t messages of the round.
                Wait::Quorum { have, need, .. } if have < need => return,
                Wait::Quorum { line: 5, .. } | Wait::Leader { .. } => {
                    let slab = self.p1.entry(self.r, || Phase1Slab::new(n));
                    // Line 06: one from a member of L_i, or trusted_i moved
                    // (read last: it queries the oracle, and must not be
                    // read before line 05 holds or once L_i is heard).
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
                Wait::Quorum { .. } => {
                    let slab = self.p2.entry(self.r, Phase2Slab::default);
                    // Line 13: adopt any non-⊥ value (deterministically the
                    // smallest, any choice is correct).
                    if let Some(v) = slab.min_val() {
                        self.est = v;
                    }
                    // Line 14: decide if no ⊥ was received.
                    if slab.all_non_bot() {
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
        if matches!(msg, KsetMsg::Decision { .. }) {
            // Plain channels never carry decisions, but be permissive: a
            // composed wrapper may re-route them.
            self.on_rb_deliver(from, msg, ctx);
        } else if self.record(from, &msg, ctx.n(), ctx.t()) || self.stage == Stage::AwaitLeader {
            // Line 06 also opens when trusted_i moves, which any activation
            // must re-read.
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
        if let (KsetMsg::Decision { v }, false) = (msg, self.decided) {
            self.decided = true;
            self.stage = Stage::Done;
            ctx.decide(v);
            ctx.halt();
        }
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        // trusted_i is time-dependent: the line 06 guard and the line 03
        // re-read both need periodic re-evaluation.
        self.try_advance(ctx);
    }

    /// Exactly the events whose activation would change nothing but the
    /// slab a delivery is recorded in, by three rules on the [`Wait`].
    fn settle(&mut self, ev: Quiet<'_, KsetMsg>, n: usize, t: usize) -> bool {
        match ev {
            // Nothing at line 06: `on_step` and `on_message` re-read `trusted_i` there.
            _ if self.stage == Stage::AwaitLeader => false,
            // A step records nothing, so it never opens a quorum wait.
            Quiet::Step => self.stage != Stage::Unstarted,
            Quiet::Deliver {
                msg: KsetMsg::Decision { .. },
                ..
            } => self.decided,
            // `on_rb_deliver` drops all but a DECISION.
            Quiet::Deliver { rb: true, .. } => true,
            // A delivery opens a quorum wait only if, recorded, it completes
            // it. A slab insert keeps the first message per sender, so the
            // activation of one that opens it records it again as a no-op.
            Quiet::Deliver { from, msg, .. } => !self.record(from, msg, n, t),
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

        /// Offers `ev` to the hook, with this harness's `n` and `t`.
        fn settle(&mut self, ev: Quiet<'_, KsetMsg>) -> bool {
            self.p.settle(ev, 3, 1)
        }

        /// Offers a delivery of `msg` from `from` to the hook.
        fn settle_msg(&mut self, from: usize, msg: &KsetMsg, rb: bool) -> bool {
            let from = ProcessId(from);
            self.settle(Quiet::Deliver { from, msg, rb })
        }

        /// Runs `ev` through the callback the engine would activate, and
        /// returns the ops it emitted, formatted.
        fn activate(&mut self, ev: Quiet<'_, KsetMsg>) -> String {
            let (p, mut ctx) = self.ctx();
            match ev {
                Quiet::Step => p.on_step(&mut ctx),
                Quiet::Deliver { from, msg, rb } => match rb {
                    true => p.on_rb_deliver(from, msg.clone(), &mut ctx),
                    false => p.on_message(from, msg.clone(), &mut ctx),
                },
            }
            format!("{:?}", ctx.take_ops())
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

        /// The wait [`KsetOmega::waiting_on`] reports, as `{:?}` prints it.
        fn wait(&self) -> String {
            format!("{:?}", self.p.waiting_on(3, 1))
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
    fn settles_what_cannot_open_a_guard_except_at_line_06() {
        let mut h = Harness::new();
        let p1 = |r| KsetMsg::Phase1 {
            r,
            leaders: PSet::singleton(ProcessId(0)),
            est: 7,
        };
        let p2 = |r| KsetMsg::Phase2 { r, aux: None };
        let li = PSet::singleton(ProcessId(0));
        h.start();
        assert!(h.settle(Quiet::Step), "a step in Phase 1");
        h.phase1(1, 1);
        assert_eq!(h.wait(), "Quorum { line: 5, r: 1, have: 1, need: 2 }");
        assert!(h.settle_msg(1, &p2(1), false), "an early PHASE2");
        assert_eq!(h.phase2_count(1), Some(1), "an early PHASE2 is recorded");
        assert!(h.settle_msg(1, &p1(2), true), "an R-delivered PHASE1");
        assert_eq!(h.phase1_count(2), None, "an R-delivered PHASE1 is recorded");
        // p2's PHASE1 completes the quorum: recorded, but not settled.
        assert!(!h.settle_msg(2, &p1(1), false));
        assert_eq!(h.phase1_count(1), Some(2));
        // The activation the hook declined records it again, as a no-op.
        h.phase1(2, 1);
        assert_eq!(h.phase1_count(1), Some(2));
        // Quorum, but no word from the leader p0 and no change of L_i:
        // at line 06 every activation re-reads the leader set.
        assert_eq!(h.p.waiting_on(3, 1), Wait::Leader { r: 1, li });
        assert!(!h.settle(Quiet::Step));
        assert!(!h.settle_msg(1, &p1(1), false) && !h.settle_msg(1, &p2(1), false));
        assert!(!h.settle_msg(1, &p1(2), true), "R-delivered at line 06");
        h.phase1(0, 1);
        assert_eq!(h.wait(), "Quorum { line: 11, r: 1, have: 1, need: 2 }");
        assert!(h.settle(Quiet::Step), "a step in Phase 2");
        assert!(
            h.settle_msg(1, &p1(1), false),
            "a late PHASE1(1) in Phase 2"
        );
        // p0's PHASE2 completes the Phase 2 quorum.
        assert!(!h.settle_msg(0, &p2(1), false));
        h.deliver(0, p2(1));
        // A ⊥ among the PHASE2s: on to round 2.
        assert_eq!(h.wait(), "Quorum { line: 5, r: 2, have: 0, need: 2 }");
        assert!(h.settle_msg(1, &p1(1), false) && h.settle_msg(1, &p2(1), false));
        assert_eq!((h.phase1_count(1), h.phase2_count(1)), (None, None));
        h.phase1(1, 2);
        h.phase1(2, 2);
        assert_eq!(h.p.waiting_on(3, 1), Wait::Leader { r: 2, li });
        let decision = KsetMsg::Decision { v: 7 };
        assert!(!h.settle_msg(1, &decision, true));
        h.deliver(1, decision.clone());
        assert!(h.p.has_decided());
        assert_eq!(h.wait(), "Done");
        assert!(h.settle(Quiet::Step) && h.settle_msg(1, &decision, true));
        assert!(h.settle_msg(1, &p1(3), false) && h.settle_msg(1, &p2(3), false));
        assert_eq!((h.phase1_count(3), h.phase2_count(3)), (None, None));
    }

    /// An event of the exactness test: a step, a change of the external
    /// leader set, or a delivery `(from, msg, rb)`.
    enum Event {
        Step,
        Leaders(PSet),
        Deliver(usize, KsetMsg, bool),
    }

    /// One random event for process 0 of the harness: a step, a change of
    /// the external leader set, or a PHASE1, PHASE2 or (rarely) DECISION
    /// from any sender, for the round before, at or after `r`, on either
    /// channel. Senders repeat, leader sets often miss the senders heard,
    /// so quorums form at line 06 and wait there for a leader change, and
    /// PHASE2s mostly carry `⊥`, so rounds go on rather than end.
    fn random_event(rng: &mut SplitMix64, r: u32) -> Event {
        let set = |rng: &mut SplitMix64| -> PSet {
            let bits = rng.range(1, 7);
            (0..3)
                .filter(|i| bits >> i & 1 == 1)
                .map(ProcessId)
                .collect()
        };
        let round = |rng: &mut SplitMix64| (r + rng.range(0, 2) as u32).max(2) - 1;
        match rng.below(400) {
            0..=119 => Event::Step,
            120..=159 => Event::Leaders(set(rng)),
            kind => {
                let msg = match kind {
                    160..=279 => KsetMsg::Phase1 {
                        r: round(rng),
                        leaders: set(rng),
                        est: rng.range(1, 3),
                    },
                    280..=398 => KsetMsg::Phase2 {
                        r: round(rng),
                        aux: rng.chance(1, 4).then(|| rng.range(1, 3)),
                    },
                    _ => KsetMsg::Decision { v: rng.range(1, 3) },
                };
                Event::Deliver(rng.below(3) as usize, msg, rng.chance(1, 8))
            }
        }
    }

    /// The hook is exact: one process offered every event first (and
    /// activated only if the hook declines) and one that is activated on
    /// every event, as the reference is, stay equal in state, emitted ops
    /// and trace through random event sequences, and both rest at the same
    /// wait, never at a met quorum. The sequences must reach every stage a
    /// step can find, line 06 included.
    #[test]
    fn settle_is_exact_against_the_callbacks() {
        let (mut settled, mut declined) = (0, 0);
        let mut steps_in = std::collections::BTreeMap::new();
        let snap = |h: &Harness| format!("{:?}\n{:?}\n{}", h.p, h.trace, h.wait());
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let (mut hooked, mut plain) = (Harness::new(), Harness::new());
            hooked.start();
            plain.start();
            for step in 0..200 {
                let ev = random_event(&mut rng, plain.p.round());
                let ev = match &ev {
                    Event::Leaders(l) => {
                        hooked.p.set_external_leaders(*l);
                        plain.p.set_external_leaders(*l);
                        continue;
                    }
                    Event::Step => {
                        *steps_in.entry(format!("{:?}", plain.p.stage)).or_insert(0) += 1;
                        Quiet::Step
                    }
                    Event::Deliver(from, msg, rb) => Quiet::Deliver {
                        from: ProcessId(*from),
                        msg,
                        rb: *rb,
                    },
                };
                let hooked_ops = if hooked.settle(ev) {
                    settled += 1;
                    format!("{:?}", Vec::<fd_sim::Op<KsetMsg>>::new())
                } else {
                    declined += 1;
                    hooked.activate(ev)
                };
                let plain_ops = plain.activate(ev);
                let at = format!("seed {seed}, event {step}: {ev:?}");
                assert_eq!(hooked_ops, plain_ops, "{at}: ops");
                assert_eq!(snap(&hooked), snap(&plain), "{at}: state, trace, wait");
                if let Wait::Quorum { have, need, .. } = plain.p.waiting_on(3, 1) {
                    assert!(have < need, "{at}: rests at a met quorum");
                }
            }
        }
        assert!(
            settled > 0 && declined > 0,
            "{settled} settled, {declined} declined"
        );
        assert_eq!(steps_in.len(), 4, "steps by stage: {steps_in:?}");
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
