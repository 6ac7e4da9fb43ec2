//! The message arena: shared storage for in-flight message payloads.
//!
//! A broadcast to `n` recipients used to clone its payload `n` times at
//! routing time and carry one copy inside every queued event. The arena
//! inverts that layout: the payload is stored **once**, the queue carries a
//! [`Copy`] handle ([`MsgSlot`]) plus a reference count, and the payload is
//! only materialized per recipient when the delivery actually *fires*
//! ([`MsgArena::take`] clones while other references remain and moves the
//! payload out on the last one). Routing a broadcast storm is therefore
//! O(n) index writes instead of O(n) clones of `M`, queue nodes shrink to a
//! fixed size independent of `M`, and deliveries to crashed recipients
//! ([`MsgArena::release`]) never pay for a clone at all. Neither do
//! deliveries the recipient's automaton settles from the borrowed payload
//! (`Automaton::settle`): the engine releases them the same way.
//!
//! A clone happens in exactly two places: at a delivery the recipient
//! reads that is not the slot's last ([`MsgArena::take`]), and at routing
//! time when the message adversary corrupts one copy of a send — that
//! copy is cloned out of the shared slot (`MsgArena::get`), mutated and
//! staged in a slot of its own. Every other surviving copy, duplicates
//! included, shares the send's one slot; a dropped or severed copy costs
//! neither a clone nor a slot.
//!
//! Slots are recycled through a free list, so steady-state traffic — where
//! deliveries drain as fast as broadcasts stage them — allocates nothing
//! (the `alloc_per_broadcast` probe in `fd-bench` pins this at n = 128).
//! The slot vector grows by an eighth of itself (at least 64 slots), like
//! the event queue's page pool, not by doubling: its capacity stays
//! resident for the whole run.
//! Determinism is untouched: the arena draws no randomness and the handle
//! indirection never reorders events.

/// A handle to a payload stored in a [`MsgArena`].
///
/// Plain `Copy` data — this is what queued events carry instead of the
/// message body. A slot is only meaningful to the arena that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MsgSlot(u32);

impl MsgSlot {
    /// Fabricates a slot handle from a raw index, without an arena.
    ///
    /// For queue-level tests and benchmarks that exercise event ordering
    /// and never dereference the payload. Handing a fabricated slot to a
    /// real arena is a logic error.
    pub fn from_raw(index: u32) -> Self {
        MsgSlot(index)
    }

    /// The raw slot index (the inverse of [`MsgSlot::from_raw`]).
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug)]
struct Slot<M> {
    msg: Option<M>,
    /// Pending deliveries still pointing at this slot.
    refs: u32,
}

/// The fewest slots [`MsgArena`] adds when it runs out.
const MIN_GROWTH: usize = 64;

/// Reference-counted storage for the payloads of scheduled deliveries.
///
/// The simulator owns one arena per run; the network stages into it on
/// every route and the engine consumes from it on every delivery pop. See
/// the [module docs](self) for the layout rationale.
#[derive(Debug)]
pub struct MsgArena<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    live: usize,
}

impl<M> Default for MsgArena<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> MsgArena<M> {
    /// An empty arena.
    pub fn new() -> Self {
        MsgArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// An empty arena with room for `cap` concurrent payloads.
    pub fn with_capacity(cap: usize) -> Self {
        MsgArena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Stores `msg` with its delivery count not yet known — the one way a
    /// payload enters the arena. The routing paths stage the payload,
    /// emit one event per recipient (plus one per duplicate), and then
    /// [`MsgArena::commit`] the final count.
    pub fn stage(&mut self, msg: M) -> MsgSlot {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                debug_assert!(s.msg.is_none(), "free-list slot still holds a payload");
                s.msg = Some(msg);
                s.refs = 0;
                MsgSlot(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
                if self.slots.len() == self.slots.capacity() {
                    self.grow();
                }
                self.slots.push(Slot {
                    msg: Some(msg),
                    refs: 0,
                });
                MsgSlot(i)
            }
        }
    }

    /// Adds room for an eighth of the slots (at least [`MIN_GROWTH`]):
    /// whatever the arena grows to stays resident for the rest of the run,
    /// so it does not double.
    #[cold]
    fn grow(&mut self) {
        self.slots
            .reserve_exact((self.slots.len() / 8).max(MIN_GROWTH));
    }

    /// Sets the delivery count of a [`MsgArena::stage`]d slot. A count of
    /// zero (a send that reached nobody) frees the slot immediately.
    pub fn commit(&mut self, slot: MsgSlot, refs: u32) {
        let s = &mut self.slots[slot.0 as usize];
        debug_assert_eq!(s.refs, 0, "commit on an already-committed slot");
        if refs == 0 {
            s.msg = None;
            self.free.push(slot.0);
            self.live -= 1;
        } else {
            s.refs = refs;
        }
    }

    /// Consumes one delivery of `slot`'s payload: clones while other
    /// deliveries are still pending, moves the payload out (and recycles
    /// the slot) on the last one.
    pub fn take(&mut self, slot: MsgSlot) -> M
    where
        M: Clone,
    {
        let s = &mut self.slots[slot.0 as usize];
        debug_assert!(s.refs > 0, "take on a dead slot");
        s.refs -= 1;
        if s.refs == 0 {
            let msg = s.msg.take().expect("live slot without a payload");
            self.free.push(slot.0);
            self.live -= 1;
            msg
        } else {
            s.msg.as_ref().expect("live slot without a payload").clone()
        }
    }

    /// The payload stored in a live `slot`, borrowed — what the network
    /// clones when the message adversary corrupts one copy of a send, and
    /// what the engine offers the recipient to settle without a clone.
    pub(crate) fn get(&self, slot: MsgSlot) -> &M {
        self.slots[slot.0 as usize]
            .msg
            .as_ref()
            .expect("live slot without a payload")
    }

    /// Drops one delivery of `slot`'s payload without materializing it —
    /// the engine's path for deliveries to crashed recipients and for
    /// deliveries the recipient settles, which therefore never pay for a
    /// clone.
    pub fn release(&mut self, slot: MsgSlot) {
        let s = &mut self.slots[slot.0 as usize];
        debug_assert!(s.refs > 0, "release on a dead slot");
        s.refs -= 1;
        if s.refs == 0 {
            s.msg = None;
            self.free.push(slot.0);
            self.live -= 1;
        }
    }

    /// Number of payloads currently stored.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether no payloads are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever created (the arena's high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stages `msg` and commits `refs` deliveries in one go.
    fn put<M>(a: &mut MsgArena<M>, msg: M, refs: u32) -> MsgSlot {
        let s = a.stage(msg);
        a.commit(s, refs);
        s
    }

    #[test]
    fn take_clones_then_moves() {
        let mut a: MsgArena<String> = MsgArena::new();
        let s = put(&mut a, "hello".to_owned(), 3);
        assert_eq!(a.live(), 1);
        assert_eq!(a.take(s), "hello");
        assert_eq!(a.take(s), "hello");
        assert_eq!(a.live(), 1, "slot stays live until the last take");
        assert_eq!(a.take(s), "hello");
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_recycled() {
        let mut a: MsgArena<u64> = MsgArena::new();
        let s1 = put(&mut a, 1, 1);
        assert_eq!(a.take(s1), 1);
        let s2 = put(&mut a, 2, 1);
        assert_eq!(s1, s2, "freed slot must be reused");
        assert_eq!(a.capacity(), 1, "no new slot was created");
        assert_eq!(a.take(s2), 2);
    }

    #[test]
    fn release_skips_the_clone_and_frees() {
        let mut a: MsgArena<u64> = MsgArena::new();
        let s = put(&mut a, 7, 2);
        a.release(s);
        assert_eq!(a.live(), 1);
        assert_eq!(a.take(s), 7, "last consumer still gets the payload");
        assert!(a.is_empty());
    }

    #[test]
    fn stage_commit_zero_frees_immediately() {
        let mut a: MsgArena<u64> = MsgArena::new();
        let s = a.stage(9);
        assert_eq!(a.live(), 1);
        a.commit(s, 0);
        assert!(a.is_empty());
        // And the slot is back on the free list.
        let s2 = put(&mut a, 10, 1);
        assert_eq!(s, s2);
        assert_eq!(a.take(s2), 10);
    }

    /// A committed count is exactly the number of deliveries the slot
    /// serves — two for a duplicated unicast.
    #[test]
    fn stage_commit_counts_like_alloc() {
        let mut a: MsgArena<u64> = MsgArena::new();
        let s = a.stage(5);
        a.commit(s, 2);
        assert_eq!(a.take(s), 5);
        assert_eq!(a.live(), 1);
        assert_eq!(a.take(s), 5);
        assert!(a.is_empty());
    }

    /// Live payloads past the capacity add an eighth of the slots, at
    /// least [`MIN_GROWTH`], never a doubling.
    #[test]
    fn slots_grow_by_an_eighth_not_by_doubling() {
        let mut a: MsgArena<u64> = MsgArena::with_capacity(5);
        let mut caps = vec![a.slots.capacity()];
        for i in 0..2_000 {
            a.stage(i);
            caps.push(a.slots.capacity());
        }
        caps.dedup();
        assert_eq!(caps[..4], [5, 69, 133, 197]);
        assert!(caps
            .windows(2)
            .all(|w| w[1] - w[0] == (w[0] / 8).max(MIN_GROWTH)));
        assert!(*caps.last().unwrap() < 2_000 * 9 / 8 + MIN_GROWTH);
    }

    #[test]
    fn slot_raw_round_trip() {
        let s = MsgSlot::from_raw(42);
        assert_eq!(s.index(), 42);
    }
}
