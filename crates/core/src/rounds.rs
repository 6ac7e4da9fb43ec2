//! Fixed-capacity round slabs: the allocation-free quorum automata that
//! back [`crate::kset_omega::KsetOmega`] and
//! [`crate::consensus_mr::ConsensusMr`] at large `n`.
//!
//! The original round state was `HashMap<u32, Vec<(ProcessId, …)>>` — one
//! heap-allocated vector per round per process, scanned linearly for
//! duplicate-sender checks and re-aggregated from scratch on every guard
//! re-evaluation. At n = 1024 that is O(n) allocation churn and O(n²)
//! scanning per round. The slabs invert the layout:
//!
//! * **sender tracking** is a [`PSet`] bitset plus a running count —
//!   duplicate detection is a word op and the quorum guard reads a `u32`;
//! * **aggregates** (`⊥` counts, running minima, first-wins values,
//!   leader-set tallies) are maintained incrementally at insert time, so
//!   the round guards read O(1) state instead of rescanning message lists;
//! * **storage** is recycled through [`RoundWindow`]: when a process
//!   enters round `r` it retires every slab below `r` into a pool, and
//!   future rounds draw from that pool — steady-state progress allocates
//!   nothing.
//!
//! Every aggregate is chosen to be *observationally identical* to the old
//! list scan (first-wins per sender, minimum over non-`⊥`, the unique
//! `2c > n` majority). The `vec-reference` feature keeps the original
//! HashMap automata alive in [`crate::reference`], and
//! `tests/slab_reference.rs` pins full scenario fingerprints of both
//! implementations against each other.

use fd_sim::{PSet, ProcessId};

/// A per-round state block that can be recycled by a [`RoundWindow`].
pub trait RoundSlab {
    /// Clears the slab back to its freshly-created state, retaining any
    /// heap capacity (buffers are reused, not freed).
    fn reset(&mut self);
}

/// A sliding window of per-round slabs with pooled recycling.
///
/// Rounds only move forward: the automaton reads the slab of its *current*
/// round, buffers slabs for *future* rounds (messages can arrive early),
/// and never looks at past rounds again. [`RoundWindow::retire_below`]
/// exploits that — retired slabs go to a free pool and are handed back out
/// by [`RoundWindow::entry`], so a long run touches a bounded set of
/// allocations no matter how many rounds it takes.
#[derive(Clone, Debug, Default)]
pub struct RoundWindow<S> {
    /// Live (round, slab) pairs — current and future rounds, unordered.
    active: Vec<(u32, S)>,
    /// Retired slabs awaiting reuse.
    pool: Vec<S>,
}

impl<S: RoundSlab> RoundWindow<S> {
    /// An empty window.
    pub fn new() -> Self {
        RoundWindow {
            active: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// The slab for round `r`, created (from the pool if possible, else by
    /// `make`) if absent.
    pub fn entry(&mut self, r: u32, make: impl FnOnce() -> S) -> &mut S {
        if let Some(i) = self.active.iter().position(|(rr, _)| *rr == r) {
            return &mut self.active[i].1;
        }
        let slab = self.pool.pop().unwrap_or_else(make);
        self.active.push((r, slab));
        &mut self.active.last_mut().expect("just pushed").1
    }

    /// The slab for round `r`, if one exists.
    pub fn get(&self, r: u32) -> Option<&S> {
        self.active.iter().find(|(rr, _)| *rr == r).map(|(_, s)| s)
    }

    /// Retires every slab for a round `< r` into the pool.
    pub fn retire_below(&mut self, r: u32) {
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].0 < r {
                let (_, mut s) = self.active.swap_remove(i);
                s.reset();
                self.pool.push(s);
            } else {
                i += 1;
            }
        }
    }

    /// Number of live (current + future) rounds.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether no round is live.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }
}

/// Round state for Figure 3 **Phase 1**: `PHASE1(r, L, est)` messages.
///
/// Replaces `Vec<(ProcessId, PSet, u64)>`. Estimates are stored in a
/// per-process array (first message from a sender wins, duplicates are
/// ignored — exactly the old linear dedup), leader sets are tallied as
/// they arrive, and the line 05–08 guards become counter reads and word ops.
#[derive(Clone, Debug)]
pub struct Phase1Slab {
    /// Who has been heard from this round.
    senders: PSet,
    /// `senders.len()`, kept running so the quorum guard is not a popcount.
    heard: u32,
    /// `ests[p]` = the estimate of sender `p`'s first message. Only indices
    /// in `senders` are meaningful; stale values from a recycled slab are
    /// never read.
    ests: Vec<u64>,
    /// Tally of distinct leader sets seen (insertion order, tiny in
    /// practice: correct processes under one oracle mostly agree).
    lsets: Vec<(PSet, u32)>,
}

impl Phase1Slab {
    /// A slab for an `n`-process run.
    pub fn new(n: usize) -> Self {
        Phase1Slab {
            senders: PSet::EMPTY,
            heard: 0,
            ests: vec![0; n],
            lsets: Vec::new(),
        }
    }

    /// Records `PHASE1(leaders, est)` from `from`; first message per
    /// sender wins.
    pub fn insert(&mut self, from: ProcessId, leaders: PSet, est: u64) {
        if !self.senders.insert(from) {
            return;
        }
        self.heard += 1;
        self.ests[from.0] = est;
        match self.lsets.iter_mut().find(|(l, _)| *l == leaders) {
            Some((_, c)) => *c += 1,
            None => self.lsets.push((leaders, 1)),
        }
    }

    /// Distinct senders heard this round (the line 05 quorum count).
    pub fn count(&self) -> usize {
        self.heard as usize
    }

    /// Whether any sender is a member of `li` (the line 06 guard).
    pub fn heard_from(&self, li: PSet) -> bool {
        !self.senders.is_disjoint(li)
    }

    /// The leader set reported by a strict majority of senders, if any.
    /// At most one set can satisfy `2c > n`, so the answer is unique.
    pub fn majority(&self, n: usize) -> Option<PSet> {
        self.lsets
            .iter()
            .find(|&&(_, c)| 2 * c as usize > n)
            .map(|&(l, _)| l)
    }

    /// The estimate of the smallest-id sender inside `l` (the line 07
    /// `v_L` choice: deterministic, matches the old
    /// `min_by_key(sender)` scan because estimates are first-wins).
    pub fn min_member_est(&self, l: PSet) -> Option<u64> {
        (self.senders & l).min().map(|p| self.ests[p.0])
    }
}

impl RoundSlab for Phase1Slab {
    fn reset(&mut self) {
        self.senders = PSet::EMPTY;
        self.heard = 0;
        self.lsets.clear();
        // `ests` is left dirty on purpose: only indices in `senders` are
        // ever read, and those are overwritten at insert time.
    }
}

/// Round state for Figure 3 **Phase 2**: `PHASE2(r, aux)` messages.
///
/// Replaces `Vec<(ProcessId, Option<u64>)>`. The line 13 adoption is a
/// running minimum over non-`⊥` values and the line 14 decision guard is
/// a `⊥` counter — no list, no rescan.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase2Slab {
    senders: PSet,
    /// `senders.len()`, kept running.
    heard: u32,
    /// How many senders reported `⊥`.
    bots: u32,
    /// Minimum non-`⊥` value seen.
    min_val: Option<u64>,
}

impl Phase2Slab {
    /// Records `PHASE2(aux)` from `from`; first message per sender wins.
    pub fn insert(&mut self, from: ProcessId, aux: Option<u64>) {
        if !self.senders.insert(from) {
            return;
        }
        self.heard += 1;
        match aux {
            None => self.bots += 1,
            Some(v) => {
                self.min_val = Some(match self.min_val {
                    Some(m) => m.min(v),
                    None => v,
                })
            }
        }
    }

    /// Distinct senders heard this round (the line 11 quorum count).
    pub fn count(&self) -> usize {
        self.heard as usize
    }

    /// The smallest non-`⊥` value received (line 13).
    pub fn min_val(&self) -> Option<u64> {
        self.min_val
    }

    /// Whether every received value was non-`⊥` (line 14).
    pub fn all_non_bot(&self) -> bool {
        self.bots == 0
    }
}

impl RoundSlab for Phase2Slab {
    fn reset(&mut self) {
        *self = Phase2Slab::default();
    }
}

/// Round state for the MR baseline's **coordinator estimate**: first
/// `COORD(r, est)` wins (the old `coords.entry(r).or_insert(est)`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordSlab {
    est: Option<u64>,
}

impl CoordSlab {
    /// Records the coordinator's estimate; the first one wins.
    pub fn record(&mut self, est: u64) {
        if self.est.is_none() {
            self.est = Some(est);
        }
    }

    /// The recorded estimate, if any.
    pub fn est(&self) -> Option<u64> {
        self.est
    }
}

impl RoundSlab for CoordSlab {
    fn reset(&mut self) {
        self.est = None;
    }
}

/// Round state for the MR baseline's **Phase 2 echoes**.
///
/// Replaces `Vec<(ProcessId, Option<u64>)>`. The baseline adopts the
/// *first* non-`⊥` echo in arrival order, so the aggregate is a
/// set-once value plus a `⊥` counter.
#[derive(Clone, Copy, Debug, Default)]
pub struct EchoSlab {
    senders: PSet,
    /// `senders.len()`, kept running.
    heard: u32,
    /// How many senders echoed `⊥`.
    bots: u32,
    /// The first non-`⊥` echo in arrival order.
    first_val: Option<u64>,
}

impl EchoSlab {
    /// Records `ECHO(aux)` from `from`; first message per sender wins.
    pub fn insert(&mut self, from: ProcessId, aux: Option<u64>) {
        if !self.senders.insert(from) {
            return;
        }
        self.heard += 1;
        match aux {
            None => self.bots += 1,
            Some(v) => {
                if self.first_val.is_none() {
                    self.first_val = Some(v);
                }
            }
        }
    }

    /// Distinct senders heard this round.
    pub fn count(&self) -> usize {
        self.heard as usize
    }

    /// The first non-`⊥` echo received, if any.
    pub fn first_val(&self) -> Option<u64> {
        self.first_val
    }

    /// Whether every echo was non-`⊥` (the decision guard).
    pub fn all_non_bot(&self) -> bool {
        self.bots == 0
    }
}

impl RoundSlab for EchoSlab {
    fn reset(&mut self) {
        *self = EchoSlab::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn window_recycles_retired_slabs() {
        let mut w: RoundWindow<Phase2Slab> = RoundWindow::new();
        w.entry(1, Phase2Slab::default).insert(pid(0), Some(7));
        w.entry(2, Phase2Slab::default).insert(pid(1), None);
        assert_eq!(w.len(), 2);
        w.retire_below(2);
        assert_eq!(w.len(), 1);
        // Round 3 reuses round 1's storage, reset.
        let s = w.entry(3, Phase2Slab::default);
        assert_eq!(s.count(), 0);
        assert_eq!(s.min_val(), None);
        assert!(s.all_non_bot());
        // Round 2's slab is untouched.
        assert_eq!(w.get(2).unwrap().count(), 1);
        assert!(w.get(1).is_none());
    }

    #[test]
    fn window_keeps_future_rounds() {
        let mut w: RoundWindow<CoordSlab> = RoundWindow::new();
        w.entry(5, CoordSlab::default).record(42);
        w.retire_below(3);
        assert_eq!(w.get(5).unwrap().est(), Some(42));
    }

    #[test]
    fn phase1_first_message_per_sender_wins() {
        let mut s = Phase1Slab::new(8);
        let l = PSet::from_bits(0b11);
        s.insert(pid(3), l, 30);
        s.insert(pid(3), l, 99); // duplicate: ignored
        s.insert(pid(1), l, 10);
        assert_eq!(s.count(), 2);
        assert_eq!(s.min_member_est(PSet::full(8)), Some(10));
        assert_eq!(s.min_member_est(PSet::from_bits(0b1000)), Some(30));
    }

    #[test]
    fn phase1_majority_is_unique_two_c_gt_n() {
        let mut s = Phase1Slab::new(5);
        let la = PSet::from_bits(0b1);
        let lb = PSet::from_bits(0b10);
        s.insert(pid(0), la, 1);
        s.insert(pid(1), la, 2);
        s.insert(pid(2), lb, 3);
        assert_eq!(s.majority(5), None, "2 of 5 is not a majority");
        s.insert(pid(3), la, 4);
        assert_eq!(s.majority(5), Some(la));
    }

    #[test]
    fn phase1_heard_from_is_membership_intersection() {
        let mut s = Phase1Slab::new(4);
        s.insert(pid(2), PSet::EMPTY, 5);
        assert!(s.heard_from(PSet::from_bits(0b100)));
        assert!(!s.heard_from(PSet::from_bits(0b011)));
    }

    #[test]
    fn phase2_tracks_min_and_bots() {
        let mut s = Phase2Slab::default();
        s.insert(pid(0), Some(9));
        s.insert(pid(1), Some(4));
        s.insert(pid(1), Some(1)); // duplicate: ignored
        assert_eq!(s.min_val(), Some(4));
        assert!(s.all_non_bot());
        s.insert(pid(2), None);
        assert!(!s.all_non_bot());
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn echo_keeps_first_non_bot_in_arrival_order() {
        let mut s = EchoSlab::default();
        s.insert(pid(4), None);
        s.insert(pid(2), Some(20));
        s.insert(pid(0), Some(10));
        assert_eq!(s.first_val(), Some(20), "arrival order, not sender order");
        assert!(!s.all_non_bot());
    }

    #[test]
    fn coord_first_record_wins() {
        let mut c = CoordSlab::default();
        assert_eq!(c.est(), None);
        c.record(8);
        c.record(9);
        assert_eq!(c.est(), Some(8));
    }
}
