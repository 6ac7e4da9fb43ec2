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
//! * **sender tracking** is a `⌈n/64⌉`-word bitset plus a running count —
//!   duplicate detection is a word op and the quorum guard reads a `u32`.
//!   No slab embeds a full-width [`PSet`]: [`Phase1Slab`]'s bitset is the
//!   head of its one record allocation, and [`Phase2Slab`] / [`EchoSlab`]
//!   grow theirs to the widest sender heard and keep it across recycling;
//! * **aggregates** (`⊥` counts, running minima, first-wins values, the
//!   leader-set majority vote) are maintained incrementally at insert
//!   time in O(1) per message, so the round guards read O(1) state instead
//!   of rescanning message lists. The one exception is deliberate: the
//!   Phase-1 majority is a Boyer–Moore vote plus a recount of the
//!   candidate when the round's guards pass (see [`Phase1Slab`]), because
//!   a tally of every distinct leader set is as long as the quorum
//!   whenever the oracle has not stabilized;
//! * **storage** is recycled through [`RoundWindow`]: when a process
//!   enters round `r` it resets every slab below `r` where it sits in the
//!   window's one vector, and future rounds take those over — steady-state
//!   progress allocates nothing and moves no slab.
//!
//! Every aggregate is chosen to be *observationally identical* to the old
//! list scan (first-wins per sender, minimum over non-`⊥`, the unique
//! `2c > n` majority). The original HashMap automata live on beside
//! `tests/slab_reference.rs`, which pins full scenario fingerprints of
//! both implementations against each other.

use fd_sim::{PSet, ProcessId};

/// A per-round state block that can be recycled by a [`RoundWindow`].
pub trait RoundSlab {
    /// Clears the slab back to its freshly-created state, retaining any
    /// heap capacity (buffers are reused, not freed).
    fn reset(&mut self);
}

/// A sliding window of per-round slabs, recycled in place.
///
/// Rounds only move forward: the automaton reads the slab of its *current*
/// round, buffers slabs for *future* rounds (messages can arrive early),
/// and never looks at past rounds again. [`RoundWindow::retire_below`]
/// exploits that — a retired slab is reset where it is and handed back out
/// by [`RoundWindow::entry`], so a long run touches a bounded set of
/// allocations no matter how many rounds it takes, and the window is one
/// vector whose capacity is the most rounds ever live at once: it grows
/// one slab at a time, never by doubling.
#[derive(Clone, Default)]
pub struct RoundWindow<S> {
    /// `(round, slab)` pairs, unordered. Round [`RETIRED`] marks a reset
    /// slab awaiting reuse; the others are live — current and future
    /// rounds.
    slabs: Vec<(u32, S)>,
    /// Where [`RoundWindow::entry`] last found or placed a slab. Only a
    /// hint: `entry` trusts it only if the round stored there is the one
    /// asked for, so retiring or reusing that slot cannot mislead it.
    ///
    /// It pays for its 8 bytes: with `entry` scanning only, `scale_n128`
    /// ran at 26.90M events/s [q1 26.44M, q3 28.42M] against 28.50M
    /// [27.32M, 28.69M] with the hint (−5.6 %, slower in 9 of 10
    /// alternating 27 s pairs of the repo benchmark, 2-vCPU host), below
    /// the hinted window's interquartile range; `grid_small` moved +1.7 %
    /// (faster in 3 of 10), inside it.
    last: usize,
}

/// Leaves out the lookup hint: two windows that differ only in it behave
/// alike, so a `{:?}` comparison of two automata compares their state.
impl<S: std::fmt::Debug> std::fmt::Debug for RoundWindow<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundWindow")
            .field("slabs", &self.slabs)
            .finish_non_exhaustive()
    }
}

/// The round number of a retired slab. Rounds start at 1.
const RETIRED: u32 = 0;

impl<S: RoundSlab> RoundWindow<S> {
    /// An empty window.
    pub fn new() -> Self {
        RoundWindow {
            slabs: Vec::new(),
            last: 0,
        }
    }

    /// The slab for round `r ≥ 1`, created (out of a retired one if
    /// possible, else by `make`) if absent.
    pub fn entry(&mut self, r: u32, make: impl FnOnce() -> S) -> &mut S {
        debug_assert_ne!(r, RETIRED, "rounds start at 1");
        // A process asks for the same round many times in a row — the
        // message's round, then its current one, mostly the same.
        let i = match self.slabs.get(self.last) {
            Some((rr, _)) if *rr == r => self.last,
            _ => self.find_or_place(r, make),
        };
        self.last = i;
        &mut self.slabs[i].1
    }

    /// The index of round `r`'s slab, after taking a retired slab (or a
    /// new one from `make`) for it if it has none.
    fn find_or_place(&mut self, r: u32, make: impl FnOnce() -> S) -> usize {
        let round_at = |slabs: &[(u32, S)], r| slabs.iter().position(|(rr, _)| *rr == r);
        // Once per message the round is there; once per round it is not.
        if let Some(i) = round_at(&self.slabs, r) {
            return i;
        }
        let i = round_at(&self.slabs, RETIRED).unwrap_or_else(|| {
            self.slabs.reserve_exact(1);
            self.slabs.push((RETIRED, make()));
            self.slabs.len() - 1
        });
        self.slabs[i].0 = r;
        i
    }

    /// The slab for round `r ≥ 1`, if one exists.
    pub fn get(&self, r: u32) -> Option<&S> {
        debug_assert_ne!(r, RETIRED, "rounds start at 1");
        self.slabs.iter().find(|(rr, _)| *rr == r).map(|(_, s)| s)
    }

    /// Retires every slab for a round `< r`: resets it for reuse.
    pub fn retire_below(&mut self, r: u32) {
        for (rr, slab) in &mut self.slabs {
            if *rr != RETIRED && *rr < r {
                slab.reset();
                *rr = RETIRED;
            }
        }
    }

    /// Number of live (current + future) rounds.
    pub fn len(&self) -> usize {
        self.slabs.iter().filter(|(rr, _)| *rr != RETIRED).count()
    }

    /// Whether no round is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Round state for Figure 3 **Phase 1**: `PHASE1(r, L, est)` messages.
///
/// Replaces `Vec<(ProcessId, PSet, u64)>`. Each sender's first message is
/// kept as one fixed-width record in a sender-indexed array (duplicates are
/// ignored — exactly the old linear dedup), and the line 05–06 guards are
/// counter reads and word ops.
///
/// An `Ω_z` output has at most `z ≤ k` members, so a record is two words,
/// `[est, ids]`, whatever `n` is: `ids` lists the leader set's members
/// ascending in four 16-bit lanes, `0xFFFF` filling the unused ones.
/// The encoding is canonical — one word per set — so word equality *is* set
/// equality. A set it cannot hold (a fifth member, or a member
/// `≥ 64·⌈n/64⌉`) re-lays the records out as `[est, l₀ … l₁₅]`, the full
/// [`PSet`] width, so the slab is exact for every set.
///
/// Line 07 needs *the* leader set reported by `2c > n` senders, not a
/// tally of every set seen — and before GST an `Ω_z` oracle may hand every
/// sender a different one, so a tally is as long as the quorum. The slab
/// keeps a Boyer–Moore vote instead: a candidate sender and a vote count,
/// updated with one compare per insert: against a copy of the candidate's
/// `ids` kept in the header while packed, against its row otherwise. A set
/// held by a strict majority of the senders heard is always the surviving
/// candidate, so [`Phase1Slab::majority`] only has to recount that one
/// row — once per process per round, and not at all when the votes
/// already settle it.
///
/// Who has been heard from is a bitset of the same `⌈n/64⌉` words, kept
/// at the head of the record allocation: the slab is one allocation of
/// `16·n + 8·⌈n/64⌉` bytes.
#[derive(Clone, Debug)]
pub struct Phase1Slab {
    /// `recs[..low]`: the senders heard from this round, word `w` holding
    /// identities `64w .. 64w + 63` as in a [`PSet`]. Then
    /// `recs[low + p·(1+w)..][..1+w]` = `[est, row]` of sender `p`'s first
    /// message, `w` being [`Phase1Slab::w`]. Only records of heard senders
    /// are meaningful; stale ones from a recycled slab are never read.
    recs: Vec<u64>,
    /// The number of senders heard, kept running so the quorum guard is not
    /// a popcount.
    heard: u32,
    /// `⌈n/64⌉`: the words of the sender bitset, and the low [`PSet`] words
    /// a packable leader set lives in.
    low: u32,
    /// Boyer–Moore candidate: the sender whose leader set is the candidate.
    /// Meaningful only while `votes > 0`.
    cand: u32,
    /// The candidate's packed `ids`, kept here so a packed insert compares
    /// without reading the candidate's record. Meaningful only while
    /// `votes > 0` and the records are packed.
    cand_ids: u64,
    /// Boyer–Moore votes: at least `votes` and at most
    /// `(heard + votes) / 2` senders reported the candidate's set, and at
    /// most `(heard − votes) / 2` reported any other one set.
    votes: u32,
    /// Whether records are `[est, ids]`: true until a set that does not
    /// pack has been seen, false (full-width rows) from then on.
    packed: bool,
}

/// Words in a full-width leader-set row.
const FULL: usize = fd_sim::MAX_PROCESSES / 64;

/// Members a packed `ids` word holds.
const LANES: u32 = 4;

/// The lane value that is no member: every identity is below it.
const EMPTY_LANE: u64 = 0xFFFF;

/// The packed form of `leaders`, or `None` if it has more than [`LANES`]
/// members or one outside its `low` low words.
///
/// The default x86-64 target has no `POPCNT`, so the member count is never
/// taken: the words above `low` are OR-folded (vectorised), and the members
/// are peeled off the low words one by one, giving up at the fifth.
#[inline]
fn pack(leaders: &PSet, low: usize) -> Option<u64> {
    let words = leaders.as_words();
    if words[low..].iter().fold(0, |any, &x| any | x) != 0 {
        return None;
    }
    let (mut ids, mut lanes) = (u64::MAX, 0);
    for (i, &word) in words[..low].iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            if lanes == LANES {
                return None;
            }
            let id = 64 * i as u64 + u64::from(rest.trailing_zeros());
            ids ^= (id ^ EMPTY_LANE) << (16 * lanes);
            lanes += 1;
            rest &= rest - 1;
        }
    }
    Some(ids)
}

/// The set a packed `ids` word stands for.
fn unpack(ids: u64) -> PSet {
    (0..LANES)
        .map(|lane| (ids >> (16 * lane)) & EMPTY_LANE)
        .take_while(|&id| id != EMPTY_LANE)
        .map(|id| ProcessId(id as usize))
        .collect()
}

/// Row equality as an inline loop: too short a compare to pay for the
/// `memcmp` call behind `==`.
#[inline]
fn same_words(a: &[u64], b: &[u64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

impl Phase1Slab {
    /// A slab for an `n`-process run.
    pub fn new(n: usize) -> Self {
        let low = n.div_ceil(64);
        Phase1Slab {
            recs: vec![0; low + 2 * n],
            heard: 0,
            low: low as u32,
            cand: 0,
            cand_ids: 0,
            votes: 0,
            packed: true,
        }
    }

    /// The sender bitset's words.
    #[inline]
    fn senders(&self) -> &[u64] {
        &self.recs[..self.low as usize]
    }

    /// The senders heard this round, as a set.
    fn sender_set(&self) -> PSet {
        PSet::from_words(self.senders())
    }

    /// Leader-set words per record.
    fn w(&self) -> usize {
        if self.packed {
            1
        } else {
            FULL
        }
    }

    /// Where sender `p`'s record starts in `recs`.
    fn at(&self, p: usize) -> usize {
        self.low as usize + p * (1 + self.w())
    }

    /// The leader-set words of sender `p`'s record.
    fn row(&self, p: usize) -> &[u64] {
        &self.recs[self.at(p) + 1..][..self.w()]
    }

    /// The leader set of sender `p`'s record.
    fn leaders(&self, p: usize) -> PSet {
        if self.packed {
            unpack(self.recs[self.at(p) + 1])
        } else {
            PSet::from_words(self.row(p))
        }
    }

    /// Records `PHASE1(leaders, est)` from `from`; first message per
    /// sender wins.
    pub fn insert(&mut self, from: ProcessId, leaders: PSet, est: u64) {
        let (word, bit) = (from.0 / 64, 1u64 << (from.0 % 64));
        debug_assert!(word < self.low as usize, "sender {from} outside Π");
        if self.recs[word] & bit != 0 {
            return;
        }
        let ids = self
            .packed
            .then(|| pack(&leaders, self.low as usize))
            .flatten();
        if self.packed && ids.is_none() {
            self.unpack_rows();
        }
        self.recs[word] |= bit;
        self.heard += 1;
        let at = self.at(from.0);
        self.recs[at] = est;
        let same = match ids {
            Some(ids) => {
                self.recs[at + 1] = ids;
                self.cand_ids == ids
            }
            None => {
                self.recs[at + 1..][..FULL].copy_from_slice(leaders.as_words());
                same_words(self.row(self.cand as usize), leaders.as_words())
            }
        };
        if self.votes == 0 {
            self.cand = from.0 as u32;
            if let Some(ids) = ids {
                self.cand_ids = ids;
            }
            self.votes = 1;
        } else if same {
            self.votes += 1;
        } else {
            self.votes -= 1;
        }
    }

    /// Re-lays the packed records out at the full [`PSet`] width. An `Ω_z`
    /// leader set has at most `z` members of `Π` in every run, so this is
    /// cold: it keeps a set that does not pack exact instead of truncating
    /// it.
    #[cold]
    fn unpack_rows(&mut self) {
        let low = self.low as usize;
        let n = (self.recs.len() - low) / 2;
        let mut recs = vec![0; low + n * (1 + FULL)];
        recs[..low].copy_from_slice(self.senders());
        for p in self.sender_set() {
            let (est, ids) = (self.recs[low + 2 * p.0], self.recs[low + 2 * p.0 + 1]);
            let rec = &mut recs[low + p.0 * (1 + FULL)..][..1 + FULL];
            rec[0] = est;
            rec[1..].copy_from_slice(unpack(ids).as_words());
        }
        self.recs = recs;
        self.packed = false;
    }

    /// Distinct senders heard this round (the line 05 quorum count).
    pub fn count(&self) -> usize {
        self.heard as usize
    }

    /// Whether any sender is a member of `li` (the line 06 guard).
    #[inline]
    pub fn heard_from(&self, li: PSet) -> bool {
        self.senders()
            .iter()
            .zip(li.as_words())
            .any(|(&s, &l)| s & l != 0)
    }

    /// The leader set reported by a strict majority (`2c > n`) of the `n`
    /// processes, if any. At most one set can satisfy `2c > n`, so the
    /// answer is unique.
    pub fn majority(&self, n: usize) -> Option<PSet> {
        let (heard, votes) = (self.heard as usize, self.votes as usize);
        debug_assert!(heard <= n, "more senders than processes");
        // `2c > n ≥ heard` makes the set a strict majority of the senders
        // heard, hence the vote's candidate; and the candidate's count is
        // at most `(heard + votes) / 2`.
        if heard + votes <= n {
            return None;
        }
        let cand = self.cand as usize;
        let l = self.row(cand);
        let c = if votes == heard {
            heard
        } else {
            self.sender_set()
                .iter()
                .filter(|p| same_words(self.row(p.0), l))
                .count()
        };
        (2 * c > n).then(|| self.leaders(cand))
    }

    /// The estimate of the smallest-id sender inside `l` (the line 07
    /// `v_L` choice: deterministic, matches the old
    /// `min_by_key(sender)` scan because estimates are first-wins).
    pub fn min_member_est(&self, l: PSet) -> Option<u64> {
        let (i, word) = self
            .senders()
            .iter()
            .zip(l.as_words())
            .map(|(&s, &l)| s & l)
            .enumerate()
            .find(|&(_, word)| word != 0)?;
        let p = 64 * i + word.trailing_zeros() as usize;
        Some(self.recs[self.at(p)])
    }
}

impl RoundSlab for Phase1Slab {
    fn reset(&mut self) {
        let low = self.low as usize;
        self.recs[..low].fill(0);
        self.heard = 0;
        self.votes = 0;
        // The records are left dirty on purpose: only records of heard
        // senders are ever read, and those are overwritten at insert time.
    }
}

/// A sender bitset of at most `⌈n/64⌉` words: grown exactly to the word of
/// the widest sender heard, zeroed (not freed) on recycling.
#[derive(Clone, Debug, Default)]
struct SenderRow(Vec<u64>);

impl SenderRow {
    /// Adds `p`; returns `true` if it was not already present.
    #[inline]
    fn insert(&mut self, p: ProcessId) -> bool {
        let (word, bit) = (p.0 / 64, 1u64 << (p.0 % 64));
        if word >= self.0.len() {
            self.grow(word + 1);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Widens the row to `words` words, allocating exactly those.
    #[cold]
    fn grow(&mut self, words: usize) {
        self.0.reserve_exact(words - self.0.len());
        self.0.resize(words, 0);
    }

    /// Empties the row, keeping its width.
    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// Round state for Figure 3 **Phase 2**: `PHASE2(r, aux)` messages.
///
/// Replaces `Vec<(ProcessId, Option<u64>)>`. The line 13 adoption is a
/// running minimum over non-`⊥` values and the line 14 decision guard is
/// a `⊥` counter — no list, no rescan.
#[derive(Clone, Debug, Default)]
pub struct Phase2Slab {
    senders: SenderRow,
    /// The number of senders heard, kept running.
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
        self.senders.clear();
        self.heard = 0;
        self.bots = 0;
        self.min_val = None;
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
#[derive(Clone, Debug, Default)]
pub struct EchoSlab {
    senders: SenderRow,
    /// The number of senders heard, kept running.
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
        self.senders.clear();
        self.heard = 0;
        self.bots = 0;
        self.first_val = None;
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

    /// A slab that is nothing but what was written to it since its last
    /// reset.
    #[derive(Debug, Default)]
    struct Marks(Vec<u64>);

    impl RoundSlab for Marks {
        fn reset(&mut self) {
            self.0.clear();
        }
    }

    /// Seeded `entry` / `get` / `retire_below` sequences against a
    /// `HashMap` of live rounds: a round's slab holds exactly what was
    /// written to it (so a recycled one came back reset, and no two rounds
    /// share one), `len` counts live rounds only, retired rounds are gone,
    /// and `make` runs only when every slab made so far is live — the
    /// window never holds more slabs than rounds were ever live at once.
    /// One move makes `entry`'s remembered index stale on purpose: it
    /// retires the slab the index points at, has that slot taken over by
    /// another round, and asks for both rounds.
    #[test]
    fn window_matches_a_map_model_and_reuses_before_it_makes() {
        use std::collections::HashMap;
        for seed in 0..16u64 {
            let mut rng = fd_sim::SplitMix64::new(0x3a7e).stream(seed);
            let mut w: RoundWindow<Marks> = RoundWindow::new();
            let mut model: HashMap<u32, Vec<u64>> = HashMap::new();
            let (mut cur, mut made, mut most_live) = (1u32, 0usize, 0usize);
            let mut stale_reuses = 0;
            for step in 0..2_000u64 {
                let r = cur + rng.below(4) as u32;
                match rng.below(6) {
                    0 => {
                        cur += rng.below(3) as u32;
                        w.retire_below(cur);
                        model.retain(|&r, _| r >= cur);
                    }
                    1 => assert_eq!(w.get(r).map(|s| &s.0), model.get(&r), "round {r}"),
                    2 if !model.contains_key(&r) => {
                        // Round r is placed, so `entry` remembers its slot,
                        // and retired. Then r and a round not yet live are
                        // asked for, in either order: `later` first takes
                        // the first retired slot — often r's old one — and
                        // r must come back fresh; r first must claim a
                        // slot, not just reuse the one it remembers.
                        w.entry(r, || {
                            made += 1;
                            Marks::default()
                        })
                        .0
                        .push(step);
                        model.insert(r, vec![step]);
                        most_live = most_live.max(model.len());
                        let hinted = w.last;
                        cur = r + 1;
                        w.retire_below(cur);
                        model.retain(|&r, _| r >= cur);
                        let later = (cur..).find(|q| !model.contains_key(q)).unwrap();
                        let order = if rng.below(2) == 0 {
                            [later, r]
                        } else {
                            [r, later]
                        };
                        for q in order {
                            let slab = w.entry(q, || {
                                made += 1;
                                Marks::default()
                            });
                            slab.0.push(step);
                            let marks = model.entry(q).or_default();
                            marks.push(step);
                            assert_eq!(slab.0, *marks, "seed {seed}: round {q} at step {step}");
                            most_live = most_live.max(model.len());
                            if q == later && order[0] == later && w.last == hinted {
                                stale_reuses += 1;
                            }
                        }
                        for q in [r, later] {
                            let got = w.get(q).map(|s| &s.0);
                            assert_eq!(got, model.get(&q), "seed {seed}: round {q}");
                        }
                        // r is below the current round again.
                        w.retire_below(cur);
                        model.retain(|&r, _| r >= cur);
                    }
                    _ => {
                        let live_before = model.len();
                        let slab = w.entry(r, || {
                            made += 1;
                            Marks::default()
                        });
                        slab.0.push(step);
                        let marks = model.entry(r).or_default();
                        marks.push(step);
                        assert_eq!(slab.0, *marks, "seed {seed}: round {r} at step {step}");
                        most_live = most_live.max(model.len());
                        assert_eq!(
                            made, most_live,
                            "seed {seed}: {live_before} rounds were live"
                        );
                    }
                }
                assert_eq!((w.len(), w.is_empty()), (model.len(), model.is_empty()));
                assert!((1..cur).rev().take(8).all(|r| w.get(r).is_none()));
            }
            assert!(most_live >= 4 && cur > 100, "seed {seed}: a weak draw");
            assert!(stale_reuses >= 10, "seed {seed}: {stale_reuses} reuses");
        }
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

    /// The naive Phase-1 aggregate the slab must be indistinguishable
    /// from: first-wins records in arrival order and a linear tally of
    /// every distinct leader set.
    #[derive(Default)]
    struct Tally {
        first: Vec<(ProcessId, PSet, u64)>,
        sets: Vec<(PSet, u32)>,
    }

    impl Tally {
        fn insert(&mut self, from: ProcessId, leaders: PSet, est: u64) {
            if self.first.iter().any(|&(p, ..)| p == from) {
                return;
            }
            self.first.push((from, leaders, est));
            match self.sets.iter_mut().find(|(l, _)| *l == leaders) {
                Some((_, c)) => *c += 1,
                None => self.sets.push((leaders, 1)),
            }
        }

        fn heard_from(&self, li: PSet) -> bool {
            self.first.iter().any(|&(p, ..)| li.contains(p))
        }

        fn majority(&self, n: usize) -> Option<PSet> {
            self.sets
                .iter()
                .find(|&&(_, c)| 2 * c as usize > n)
                .map(|&(l, _)| l)
        }

        fn min_member_est(&self, l: PSet) -> Option<u64> {
            self.first
                .iter()
                .filter(|&&(p, ..)| l.contains(p))
                .min_by_key(|&&(p, ..)| p)
                .map(|&(.., est)| est)
        }
    }

    /// The sizes of the model differential: 1, 1, 1, 2, 3 and 16 low words.
    const SIZES: [usize; 6] = [1, 5, 64, 65, 130, 1024];

    /// Every record of `slab` read back as a set, against the model's.
    fn assert_rows(slab: &Phase1Slab, tally: &Tally, at: &str) {
        for &(p, leaders, _) in &tally.first {
            assert_eq!(slab.leaders(p.0), leaders, "row of {p}, {at}");
        }
    }

    /// Feeds `msgs` to `slab` and to a fresh [`Tally`] in lockstep and
    /// compares every observable after every insert: the guards' inputs,
    /// the sender's stored row, and — whenever the layout changed, and at
    /// the end — every stored row.
    fn lockstep(n: usize, slab: &mut Phase1Slab, msgs: &[(usize, PSet)], what: &str) {
        let mut tally = Tally::default();
        for (i, &(from, leaders)) in msgs.iter().enumerate() {
            let est = 1000 + i as u64;
            let was_packed = slab.packed;
            slab.insert(pid(from), leaders, est);
            tally.insert(pid(from), leaders, est);
            let at = format!("{what}: n={n}, after insert {i} (from {from})");
            assert_eq!(slab.count(), tally.first.len(), "count, {at}");
            let majority = slab.majority(n);
            assert_eq!(majority, tally.majority(n), "majority, {at}");
            let probes = [
                leaders,
                majority.unwrap_or(PSet::EMPTY),
                PSet::singleton(pid(from)),
                PSet::singleton(pid((from + 1) % n)),
                PSet::full(n),
                PSet::full(n / 2),
            ];
            for l in probes {
                assert_eq!(slab.heard_from(l), tally.heard_from(l), "heard_from, {at}");
                assert_eq!(
                    slab.min_member_est(l),
                    tally.min_member_est(l),
                    "min_member_est, {at}"
                );
            }
            if slab.packed == was_packed {
                let (_, first, _) = tally.first.iter().find(|r| r.0 == pid(from)).unwrap();
                assert_eq!(slab.leaders(from), *first, "row of the sender, {at}");
            } else {
                assert_rows(slab, &tally, &at);
            }
        }
        assert_rows(slab, &tally, &format!("{what}: n={n}, at the end"));
    }

    /// `{p_i, p_{i+1}}` in `Π`: distinct for distinct `i` once `n ≥ 3`.
    fn pair(i: usize, n: usize) -> PSet {
        PSet::from_iter([pid(i % n), pid((i + 1) % n)])
    }

    #[test]
    fn phase1_model_shared_and_all_distinct_sets() {
        for n in SIZES {
            let shared: Vec<_> = (0..n).map(|p| (p, pair(n - 1, n))).collect();
            lockstep(n, &mut Phase1Slab::new(n), &shared, "one shared set");
            let distinct: Vec<_> = (0..n).rev().map(|p| (p, pair(p, n))).collect();
            lockstep(n, &mut Phase1Slab::new(n), &distinct, "all-distinct sets");
        }
    }

    /// `X₀ A X₁ A X₂ A …`: every `Xᵢ` takes the candidacy and loses it to
    /// the next `A`, so `A` becomes the candidate only in the tail — with
    /// `⌊n/2⌋ + 1` copies of `A` the majority appears at the last insert,
    /// with `⌊n/2⌋` (`2c == n` for even `n`) it just misses.
    #[test]
    fn phase1_model_majority_emerges_late_or_just_misses() {
        for n in SIZES {
            let a = pair(n - 1, n);
            for copies in [n / 2 + 1, n / 2] {
                let others = n - copies;
                let mut msgs = Vec::new();
                for i in 0..copies.max(others) {
                    if i < others {
                        msgs.push((msgs.len(), pair(i, n)));
                    }
                    if i < copies {
                        msgs.push((msgs.len(), a));
                    }
                }
                let mut slab = Phase1Slab::new(n);
                lockstep(n, &mut slab, &msgs, "A among distinct sets");
                // (At n = 1 the only pair is A itself.)
                if n >= 3 {
                    let expect = (2 * copies > n).then_some(a);
                    assert_eq!(slab.majority(n), expect, "n={n}, {copies} copies of A");
                }
            }
        }
    }

    /// `ids` as a set.
    fn set_of(ids: &[usize]) -> PSet {
        ids.iter().map(|&i| pid(i)).collect()
    }

    /// The packed word is canonical and exact at the lane boundary: up to
    /// four members pack and read back, a fifth does not, and neither does a
    /// member outside the low words.
    #[test]
    fn phase1_pack_is_canonical_up_to_four_members() {
        assert_eq!(pack(&PSet::EMPTY, 1), Some(u64::MAX));
        assert_eq!(pack(&set_of(&[0]), 1), Some(0xFFFF_FFFF_FFFF_0000));
        assert_eq!(pack(&set_of(&[3, 1]), 1), Some(0xFFFF_FFFF_0003_0001));
        let four = set_of(&[0, 63, 64, 1023]);
        assert_eq!(pack(&four, 16), Some(0x03FF_0040_003F_0000));
        assert_eq!(pack(&four, 15), None, "p1024 lives in word 15");
        assert_eq!(pack(&(four | PSet::singleton(pid(500))), 16), None);
        assert_eq!(pack(&PSet::singleton(pid(64)), 1), None);
        assert_eq!(
            pack(&PSet::singleton(pid(64)), 2),
            Some(0xFFFF_FFFF_FFFF_0040)
        );
        for l in [
            PSet::EMPTY,
            set_of(&[0]),
            set_of(&[3, 1]),
            set_of(&[9, 8, 7]),
            four,
        ] {
            assert_eq!(unpack(pack(&l, 16).unwrap()), l);
        }
    }

    /// Sets that agree on every lane but one — a different member, or a
    /// member against an empty lane — are different sets: spread evenly
    /// over the senders they form no majority, and `⌊n/2⌋ + 1` copies of
    /// any one of them arriving after the others do.
    #[test]
    fn phase1_model_sets_differing_in_one_lane() {
        let variants = [
            set_of(&[2, 4, 6, 8]),
            set_of(&[1, 4, 6, 8]),
            set_of(&[2, 3, 6, 8]),
            set_of(&[2, 4, 5, 8]),
            set_of(&[2, 4, 6, 7]),
            set_of(&[2, 4, 6]),
            set_of(&[2, 4]),
            set_of(&[2]),
            PSet::EMPTY,
        ];
        for n in SIZES {
            let even: Vec<_> = (0..n).map(|p| (p, variants[p % variants.len()])).collect();
            let mut slab = Phase1Slab::new(n);
            lockstep(n, &mut slab, &even, "one-lane variants, evenly");
            if n >= 3 {
                assert_eq!(slab.majority(n), None, "n={n}");
            }
            for (v, &a) in variants.iter().enumerate() {
                let others = n - (n / 2 + 1);
                let msgs: Vec<_> = (0..n)
                    .map(|p| match p < others {
                        true => (p, variants[(v + 1 + p % 8) % 9]),
                        false => (p, a),
                    })
                    .collect();
                let mut slab = Phase1Slab::new(n);
                lockstep(n, &mut slab, &msgs, "one-lane variants, one ahead");
                assert!(slab.packed, "no set has a fifth member");
                assert_eq!(slab.majority(n), Some(a), "n={n}, variant {v}");
            }
        }
    }

    /// `64·⌈n/64⌉`: the first identity outside a packable set's low words.
    fn low_bits(n: usize) -> usize {
        64 * n.div_ceil(64)
    }

    /// Sets of 0, 1, 2, 3 and 4 members that pack at size `n`, some sharing
    /// their low lanes, some with members `≥ n`.
    fn packable(n: usize) -> Vec<PSet> {
        let top = low_bits(n);
        vec![
            PSet::EMPTY,
            set_of(&[0]),
            pair(0, n),
            pair(n / 2, n),
            pair(0, n) | PSet::singleton(pid(top - 1)),
            set_of(&[0, 1, 2, 3]),
            (top - 4..top).map(pid).collect(),
        ]
    }

    /// Sets that force the full-width layout at size `n`: a fifth member,
    /// and — where the representation has room above the low words — a
    /// member `≥ 64·⌈n/64⌉`.
    fn unpackable(n: usize) -> Vec<PSet> {
        let top = low_bits(n);
        let mut sets = vec![set_of(&[0, 1, 2, 3, 4]), PSet::full(n.max(5))];
        if top < fd_sim::MAX_PROCESSES {
            sets.push(PSet::singleton(pid(top)));
            sets.push(pair(0, n) | PSet::singleton(pid(fd_sim::MAX_PROCESSES - 1)));
        }
        sets
    }

    /// A set that does not pack arrives mid-round, after packed records
    /// already exist: every one of them must come out of the re-layout as
    /// the exact same set, and the widened slab, recycled, must serve a
    /// later round of packable sets just as exactly.
    #[test]
    fn phase1_model_relayout_mid_round_keeps_packed_rows() {
        for n in SIZES {
            let narrow = packable(n);
            for trigger in unpackable(n) {
                let mut msgs: Vec<_> = (0..n).map(|p| (p, narrow[p % narrow.len()])).collect();
                msgs[n / 2].1 = trigger;
                msgs[n - 1].1 = trigger;
                let mut window: RoundWindow<Phase1Slab> = RoundWindow::new();
                let slab = window.entry(1, || Phase1Slab::new(n));
                lockstep(n, slab, &msgs, "re-layout mid-round");
                assert!(!slab.packed, "n={n}: {trigger} does not pack");
                window.retire_below(2);
                // `A B C C …` with a majority of the three-member C.
                let c = narrow[4];
                let mut msgs = vec![(0, narrow[2]), (1 % n, narrow[5])];
                msgs.extend((0..n).rev().take(n / 2 + 1).map(|p| (p, c)));
                let slab = window.entry(2, || unreachable!("round 1's slab is pooled"));
                lockstep(n, slab, &msgs, "packable round on a widened slab");
                assert!(!slab.packed, "the full-width layout is kept");
                if n >= 5 {
                    assert_eq!(slab.majority(n), Some(c), "n={n}");
                }
            }
        }
    }

    /// Seeded arrival orders with duplicate senders and leader sets drawn
    /// from a small pool (so majorities form and dissolve) of 0 to 5 and
    /// `n` members, including members `≥ n` and `≥ 64·⌈n/64⌉`; the sets
    /// that do not pack take the re-layout mid-round. Every slab is
    /// recycled through a [`RoundWindow`].
    #[test]
    fn phase1_model_seeded_duplicates_wide_members_and_recycling() {
        for n in SIZES {
            let mut rng = fd_sim::SplitMix64::new(0x51ab).stream(n as u64);
            let mut pool = packable(n);
            let narrow = pool.len();
            pool.extend(unpackable(n));
            let mut window: RoundWindow<Phase1Slab> = RoundWindow::new();
            for r in 1..=12u32 {
                // Odd rounds draw packable sets only, so a slab widened by
                // round r − 1 is also driven on those afterwards.
                let sets = if r % 2 == 1 {
                    &pool[..narrow]
                } else {
                    &pool[..]
                };
                let favourite = *rng.choose(sets).expect("non-empty pool");
                let msgs: Vec<_> = (0..rng.range(1, 2 * n as u64))
                    .map(|_| {
                        let leaders = if rng.chance(3, 5) {
                            favourite
                        } else {
                            *rng.choose(sets).expect("non-empty pool")
                        };
                        (rng.below(n as u64) as usize, leaders)
                    })
                    .collect();
                let slab = window.entry(r, || Phase1Slab::new(n));
                lockstep(n, slab, &msgs, &format!("seeded round {r}"));
                window.retire_below(r + 1);
            }
        }
    }

    /// A recycled slab whose previous round had a majority for `C` still
    /// holds `C` in the rows of senders not yet heard from this round; a
    /// recount that read them would report `C` again.
    #[test]
    fn phase1_model_recycled_slab_ignores_stale_rows() {
        for n in SIZES.into_iter().filter(|&n| n >= 5) {
            let (a, b, c) = (pair(0, n), pair(1, n), pair(2, n));
            let mut window: RoundWindow<Phase1Slab> = RoundWindow::new();
            let all_c: Vec<_> = (0..n).map(|p| (p, c)).collect();
            let slab = window.entry(1, || Phase1Slab::new(n));
            lockstep(n, slab, &all_c, "round with a majority");
            assert_eq!(slab.majority(n), Some(c));
            window.retire_below(2);
            // `A B C C …` with `⌊n/2⌋` copies of C: the votes call for a
            // recount, it must find `2c ≤ n`, and each of the `⌈n/2⌉ − 2`
            // senders not heard from still has a stale C row.
            let mut msgs = vec![(0, a), (1, b)];
            msgs.extend((2..2 + n / 2).map(|p| (p, c)));
            let slab = window.entry(2, || unreachable!("round 1's slab is pooled"));
            lockstep(n, slab, &msgs, "recycled round without one");
            assert_eq!(slab.majority(n), None);
        }
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

    /// A sender row widens to the word of the widest sender heard, exactly,
    /// tells duplicates apart across words, and is zeroed — not freed or
    /// narrowed — by recycling.
    #[test]
    fn sender_rows_grow_exactly_and_survive_recycling() {
        fn drive<S: RoundSlab + Default>(
            insert: impl Fn(&mut S, ProcessId),
            count: impl Fn(&S) -> usize,
            row: impl Fn(&S) -> &SenderRow,
        ) {
            let mut w: RoundWindow<S> = RoundWindow::new();
            let s = w.entry(1, S::default);
            let mut widths = Vec::new();
            for p in [0, 63, 64, 0, 1023, 64, 1023, 5] {
                insert(s, pid(p));
                widths.push((row(s).0.len(), row(s).0.capacity()));
            }
            assert_eq!(count(s), 5);
            let want = [1, 1, 2, 2, 16, 16, 16, 16];
            assert_eq!(widths, want.map(|w| (w, w)));
            w.retire_below(2);
            let s = w.entry(2, || unreachable!("round 1's slab is pooled"));
            assert_eq!((count(s), row(s).0.as_slice()), (0, &[0; 16][..]));
            for p in [1023, 1023, 7] {
                insert(s, pid(p));
            }
            assert_eq!((count(s), row(s).0.capacity()), (2, 16));
        }
        drive(
            |s: &mut Phase2Slab, p| s.insert(p, None),
            Phase2Slab::count,
            |s| &s.senders,
        );
        drive(
            |s: &mut EchoSlab, p| s.insert(p, None),
            EchoSlab::count,
            |s| &s.senders,
        );
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
