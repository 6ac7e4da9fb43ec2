//! The upper wheel — **paper Figure 6**.
//!
//! Second half of the two-wheels addition `◇S_x + ◇φ_y → Ω_z` (§4.2). The
//! upper wheel consumes the `◇φ_y` detector *and* the lower wheel's
//! `repr_i` outputs, and produces the `trusted_i` sets of the target `Ω_z`
//! detector.
//!
//! All processes scan the same cyclic sequence of pairs `(L, Y)` where `Y`
//! ranges over the `(t−y+1)`-subsets of `Π` and `L` over the `z`-subsets
//! of `Y` ([`crate::ring::NestedRing`]). Each process repeatedly:
//!
//! * broadcasts `INQUIRY` (task T3, line 02) and waits until it gets a
//!   `RESPONSE` from some member of `Y_i` **or** `query(Y_i)` turns true
//!   (line 03 — "all of `Y_i` crashed");
//! * if responses arrived but none of the reported representatives lies in
//!   `L_i`, it reliably broadcasts `L_MOVE(L_i, Y_i)` (lines 04–06), which
//!   every process buffers and consumes in ring order (task T4);
//! * answers inquiries with its current `repr_i` (task T5);
//! * serves `trusted_i` reads (task T6): if `query(Y_i)` — all of `Y_i`
//!   crashed — output the smallest `j ∉ Y_i` whose addition makes the query
//!   false (a live process); otherwise output `L_i`.
//!
//! Once the lower wheel has stabilized (Theorem 6) the configuration of
//! paper Figure 7 is reached and no process can justify another `L_MOVE`:
//! all correct processes converge on a common `L` of size `z` containing a
//! correct process (Theorem 7).

use crate::ring::NestedRing;
use fd_sim::{slot, Automaton, Ctx, FdValue, OracleSuite, PSet, ProcessId};
use std::collections::BTreeMap;

/// Message alphabet of the upper wheel.
///
/// `LMove` names its pair by [`PSet::bits`] masks — what the receiver
/// keys its `pending` buffer on — so the whole alphabet stays a few words
/// wide however large a [`PSet`] is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpperMsg {
    /// Task T3 line 02.
    Inquiry {
        /// The inquirer's wait-iteration number.
        seq: u64,
    },
    /// Task T5's answer, carrying the responder's current `repr_i`.
    Response {
        /// Echo of the inquiry's sequence number.
        seq: u64,
        /// The responder's current representative.
        repr: ProcessId,
    },
    /// `L_MOVE(L, Y)`: the sender saw responses from `Y` but none naming a
    /// member of `L`.
    LMove {
        /// The rejected candidate leader set, as a bitmask.
        l: u128,
        /// The outer set it was drawn from, as a bitmask.
        y: u128,
    },
}

// Inquiries, responses, and `L_MOVE`s carry ids, scopes, and sequence
// numbers; see `TwMsg` for why structured state stays adversary-transparent.
impl fd_sim::Corruptible for UpperMsg {}

/// One process of the upper wheel (Figure 6).
#[derive(Clone, Debug)]
pub struct UpperWheel {
    ring: NestedRing,
    /// Current pair `(L_i, Y_i)`.
    cur: (PSet, PSet),
    /// Buffered `L_MOVE`s for pairs other than the current one, by masks.
    pending: BTreeMap<(u128, u128), u32>,
    /// Buffered `L_MOVE`s for the current pair: what `drain` consumes.
    /// Kept out of `pending` so a step that received none does no lookup.
    here: u32,
    advances: u64,
    sent_for: Option<u64>,
    inquiry_seq: u64,
    awaiting: bool,
    /// `(sender, reported repr)` responses to the current inquiry.
    responses: Vec<(ProcessId, ProcessId)>,
    /// The lower wheel's current output, mirrored in by the composer.
    repr: ProcessId,
    /// Broadcast at most one `L_MOVE` per pair instance (default); see
    /// [`crate::lower_wheel::LowerWheel`] on the ablation.
    throttle: bool,
}

impl UpperWheel {
    /// Creates the component for process `me` in a system of `n`, with
    /// `|Y| = t − y + 1` and `|L| = z`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ z ≤ t−y+1 ≤ n`.
    pub fn new(me: ProcessId, n: usize, t: usize, y: usize, z: usize) -> Self {
        let outer = t - y + 1;
        let ring = NestedRing::new(n, outer, z);
        UpperWheel {
            ring,
            cur: ring.start(),
            pending: BTreeMap::new(),
            here: 0,
            advances: 0,
            sent_for: None,
            inquiry_seq: 0,
            awaiting: false,
            responses: Vec::new(),
            repr: me,
            throttle: true,
        }
    }

    /// Disables the one-broadcast-per-pair-instance throttle (ablation).
    pub fn unthrottled(mut self) -> Self {
        self.throttle = false;
        self
    }

    /// Mirrors in the lower wheel's current `repr_i` (composer duty).
    pub fn set_repr(&mut self, repr: ProcessId) {
        self.repr = repr;
    }

    /// The current pair `(L_i, Y_i)`.
    pub fn current(&self) -> (PSet, PSet) {
        self.cur
    }

    /// Total ring advances so far.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// The `L_MOVE` key of the current pair.
    fn key(&self) -> (u128, u128) {
        (self.cur.0.bits(), self.cur.1.bits())
    }

    /// Task T4 consumption rule: drain matching buffered `L_MOVE`s. Each
    /// one consumed advances the pair; the rest of its pair's count goes
    /// back to `pending`, and the next pair's count comes out of it.
    fn drain(&mut self) {
        while self.here > 0 {
            let left = self.here - 1;
            if left > 0 {
                self.pending.insert(self.key(), left);
            }
            self.cur = self.ring.next(self.cur);
            self.advances += 1;
            self.here = self.pending.remove(&self.key()).unwrap_or(0);
        }
    }

    /// Task T6: the `trusted_i` value served to the upper layer. A pure
    /// read (oracle queries only, no ops), so any alphabet's context does.
    pub fn trusted<M, O: OracleSuite + ?Sized>(&self, ctx: &mut Ctx<'_, M, O>) -> PSet {
        let (l, y) = self.cur;
        if ctx.query(y) {
            // All of Y_i crashed: return the smallest process whose
            // addition to Y_i makes the query false (hence alive), line 11.
            for j in (0..ctx.n()).map(ProcessId) {
                if !y.contains(j) && !ctx.query(y | PSet::singleton(j)) {
                    return PSet::singleton(j);
                }
            }
            // Unreachable with a well-formed φ_y (some process is alive),
            // but stay total.
            PSet::singleton(y.complement(ctx.n()).min().unwrap_or(ProcessId(0)))
        } else {
            l
        }
    }

    fn publish_trusted<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, UpperMsg, O>) {
        let t = self.trusted(ctx);
        ctx.publish(slot::TRUSTED, FdValue::Set(t));
    }

    /// Task T3's guard and body, re-evaluated on steps and responses.
    fn evaluate_wait<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, UpperMsg, O>) {
        if !self.awaiting {
            return;
        }
        let (l, y) = self.cur;
        let from_y = self.responses.iter().any(|&(from, _)| y.contains(from));
        if !from_y && !ctx.query(y) {
            return; // line 03: keep waiting
        }
        // Line 04: the representatives reported by members of Y_i — a set
        // that is non-empty iff `from_y`. Lines 05-06 ask only whether one
        // of them lies in L_i.
        let repr_in_l = self
            .responses
            .iter()
            .any(|&(from, repr)| y.contains(from) && l.contains(repr));
        if from_y && !repr_in_l && (!self.throttle || self.sent_for != Some(self.advances)) {
            self.sent_for = Some(self.advances);
            ctx.bump("upper.l_move");
            ctx.rb_broadcast(UpperMsg::LMove {
                l: l.bits(),
                y: y.bits(),
            });
        }
        self.awaiting = false;
    }

    /// One iteration of task T3.
    pub fn tick<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, UpperMsg, O>) {
        self.drain();
        self.evaluate_wait(ctx);
        if !self.awaiting {
            self.inquiry_seq += 1;
            self.responses.clear();
            self.awaiting = true;
            ctx.bump("upper.inquiry");
            ctx.broadcast(UpperMsg::Inquiry {
                seq: self.inquiry_seq,
            });
        }
        self.publish_trusted(ctx);
    }

    /// Message handler for all three message kinds.
    pub fn deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: UpperMsg,
        ctx: &mut Ctx<'_, UpperMsg, O>,
    ) {
        match msg {
            UpperMsg::Inquiry { seq } => {
                // Task T5: answer with the lower wheel's current repr.
                ctx.send(
                    from,
                    UpperMsg::Response {
                        seq,
                        repr: self.repr,
                    },
                );
            }
            UpperMsg::Response { seq, repr } => {
                if seq == self.inquiry_seq && self.awaiting {
                    self.responses.push((from, repr));
                    self.evaluate_wait(ctx);
                    self.publish_trusted(ctx);
                }
            }
            UpperMsg::LMove { l, y } => {
                if (l, y) == self.key() {
                    self.here += 1;
                } else {
                    *self.pending.entry((l, y)).or_insert(0) += 1;
                }
                self.drain();
                self.publish_trusted(ctx);
            }
        }
    }
}

impl Automaton for UpperWheel {
    type Msg = UpperMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, UpperMsg, O>) {
        self.publish_trusted(ctx);
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: UpperMsg,
        ctx: &mut Ctx<'_, UpperMsg, O>,
    ) {
        self.deliver(from, msg, ctx);
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, UpperMsg, O>) {
        self.tick(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detectors::{PhiOracle, Scope};
    use fd_sim::{FailurePattern, NoOracle, Time, Trace};

    fn ctx_fixture<R>(
        fp: &FailurePattern,
        t: usize,
        y: usize,
        now: Time,
        f: impl FnOnce(&mut Ctx<'_, UpperMsg, PhiOracle>) -> R,
    ) -> R {
        let mut oracle = PhiOracle::new(fp.clone(), t, y, Scope::Perpetual, 1);
        let mut trace = Trace::new();
        let mut ctx = Ctx::new(ProcessId(0), fp.n(), t, now, &mut oracle, &mut trace);
        f(&mut ctx)
    }

    #[test]
    fn trusted_is_l_while_y_alive() {
        let fp = FailurePattern::all_correct(5);
        let w = UpperWheel::new(ProcessId(0), 5, 2, 1, 2); // |Y| = 2, |L| = 2
        let (l, _y) = w.current();
        let out = ctx_fixture(&fp, 2, 1, Time(100), |ctx| w.trusted(ctx));
        assert_eq!(out, l);
    }

    #[test]
    fn trusted_falls_back_to_live_singleton_when_y_crashed() {
        // Y[1] = {p1, p2}; both crash. query(Y) becomes true, and T6 must
        // return the smallest process whose addition falsifies the query.
        let fp = FailurePattern::builder(5)
            .crash(ProcessId(0), Time(10))
            .crash(ProcessId(1), Time(10))
            .build();
        let w = UpperWheel::new(ProcessId(2), 5, 2, 1, 2); // |Y| = t−y+1 = 2
        let (_, y) = w.current();
        assert_eq!(y, PSet::from_bits(0b11));
        let out = ctx_fixture(&fp, 2, 1, Time(5_000), |ctx| w.trusted(ctx));
        assert_eq!(out, PSet::singleton(ProcessId(2)), "smallest live process");
    }

    #[test]
    fn inquiry_answered_with_repr() {
        let fp = FailurePattern::all_correct(3);
        let mut w = UpperWheel::new(ProcessId(0), 3, 1, 0, 1);
        w.set_repr(ProcessId(2));
        let mut oracle = NoOracle;
        let mut trace = Trace::new();
        let mut ctx = Ctx::new(ProcessId(0), 3, 1, Time(5), &mut oracle, &mut trace);
        w.deliver(ProcessId(1), UpperMsg::Inquiry { seq: 9 }, &mut ctx);
        let ops = ctx.take_ops();
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            fd_sim::Op::Send {
                to,
                msg: UpperMsg::Response { seq, repr },
            } => {
                assert_eq!(*to, ProcessId(1));
                assert_eq!(*seq, 9);
                assert_eq!(*repr, ProcessId(2));
            }
            other => panic!("unexpected op {other:?}"),
        }
        let _ = fp;
    }

    #[test]
    fn lmove_buffered_until_match_then_advances() {
        let fp = FailurePattern::all_correct(4);
        let mut w = UpperWheel::new(ProcessId(0), 4, 2, 1, 1); // |Y|=2, |L|=1
        let start = w.current();
        let next = {
            let ring = NestedRing::new(4, 2, 1);
            ring.next(start)
        };
        let mut oracle = PhiOracle::new(fp.clone(), 2, 1, Scope::Perpetual, 3);
        let mut trace = Trace::new();
        let mut ctx = Ctx::new(ProcessId(0), 4, 2, Time(5), &mut oracle, &mut trace);
        // A move for a *different* pair stays buffered.
        w.deliver(
            ProcessId(1),
            UpperMsg::LMove {
                l: next.0.bits(),
                y: next.1.bits(),
            },
            &mut ctx,
        );
        assert_eq!(w.current(), start);
        assert_eq!(w.advances(), 0);
        // A matching move advances — and then the buffered one matches too.
        w.deliver(
            ProcessId(1),
            UpperMsg::LMove {
                l: start.0.bits(),
                y: start.1.bits(),
            },
            &mut ctx,
        );
        assert_eq!(w.advances(), 2, "matching + previously-buffered move");
    }

    #[test]
    fn stale_responses_ignored() {
        let fp = FailurePattern::all_correct(3);
        let mut w = UpperWheel::new(ProcessId(0), 3, 1, 0, 1);
        let mut oracle = PhiOracle::new(fp.clone(), 1, 0, Scope::Perpetual, 4);
        let mut trace = Trace::new();
        let mut ctx = Ctx::new(ProcessId(0), 3, 1, Time(5), &mut oracle, &mut trace);
        // No inquiry outstanding: a response to seq 0 while inquiry_seq is 0
        // but awaiting = false must be dropped.
        w.deliver(
            ProcessId(1),
            UpperMsg::Response {
                seq: 0,
                repr: ProcessId(1),
            },
            &mut ctx,
        );
        assert!(w.responses.is_empty());
    }
}
