//! The discrete-event core: the [`Scheduler`] contract and its one
//! implementation, [`EventQueue`] (a FIFO-per-tick timing wheel with a
//! fallback binary heap).
//!
//! The simulator's hot loop is `pop → activate → push*`. Events pop in
//! ascending `(at, seq)` order, where `seq` is the insertion sequence
//! number. That total order is part of the repository's reproducibility
//! contract (see `fd_detectors::scenario::salt`): every recorded trace
//! fingerprint is a statement about it, and `crates/sim/tests/props.rs`
//! checks [`EventQueue`] against a sorted-`Vec` model of the contract.
//!
//! Time is integer ticks and the engine pushes almost every event a
//! handful of ticks ahead of the one it just popped (1–10-tick delays,
//! 1–5-tick steps), so the key space is monotone and narrow. The queue
//! exploits that instead of comparing keys:
//!
//! * **The wheel.** A ring of `WHEEL_TICKS` buckets covers the window
//!   `[base, base + WHEEL_TICKS)`, one bucket per tick. Because `seq` is
//!   assigned in push order, *appending* to the bucket of tick `at` already
//!   is ascending `(at, seq)` order: `push` is an append, `pop` reads the
//!   bucket of `base` through a cursor, and neither compares anything.
//!   `base` only moves inside `pop`, forward past empty buckets.
//! * **The fallback heap.** Whatever does not fit the window — a far-future
//!   heal or silence release, `Time::INFINITY`, a push earlier than `base`,
//!   an identity too wide for a packed node, a `seq` more than `u32::MAX`
//!   past its page's first — goes to a small
//!   `BinaryHeap<Event>`. `pop` returns the smaller `(at, seq)` of the
//!   wheel's head and the heap's head, so nothing ever migrates between
//!   the two and arbitrary push times keep the contract. When the wheel is
//!   empty, `pop` re-bases the window onto the heap event it returns.
//! * **Memory.** Buckets own no buffer: a bucket is a chain of fixed-size
//!   *pages* drawn from one pool shared by every tick — a flat `Vec` of
//!   nodes in which page `p` is `nodes[p·PAGE..][..PAGE]`, a `next` link
//!   per page and a free list threaded through the same links. `push`
//!   writes after the bucket's last node, taking a free page when the tick
//!   is empty or its last page is full; `pop` hands a page back the moment
//!   its cursor leaves it. The pool grows by an eighth of itself (at least
//!   one page, `reserve_exact`, never by doubling) and only when every page
//!   is in a chain, so its capacity — resident for the whole run — is at
//!   most 9/8 of the most pages ever pending at once plus one page: live
//!   nodes plus one partial page per pending tick, not (pending ticks) ×
//!   (the largest burst any of them ever saw). Steady-state traffic
//!   allocates nothing. Wheel entries are packed 12-byte nodes, not 40-byte
//!   [`Event`]s: the tick is the bucket, and `seq` is a `u32` offset from
//!   the `u64` sequence number of its page's first node, kept per page
//!   beside the page's link.
//!
//! Events are plain [`Copy`] data: message payloads live in the
//! [`crate::arena::MsgArena`] and deliveries carry a [`MsgSlot`] handle, so
//! a queue node's size is fixed regardless of the protocol's message type.

use crate::arena::MsgSlot;
use crate::id::ProcessId;
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires. A crash is not an event: the engine
/// reads crashes from [`FailurePattern::is_alive_at`](crate::FailurePattern::is_alive_at).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Point-to-point delivery of the payload in `slot`, sent by `from`.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Arena handle of the payload.
        slot: MsgSlot,
    },
    /// Reliable-broadcast delivery of the payload in `slot`, R-broadcast by
    /// `from`.
    RbDeliver {
        /// Original broadcaster.
        from: ProcessId,
        /// Arena handle of the payload.
        slot: MsgSlot,
    },
    /// A local step of the process (drives `repeat forever` tasks and
    /// re-evaluates time-dependent guards).
    Step,
    /// A late-starting process joins the run (churn: a fresh process id
    /// beginning its `on_start` only now).
    Join,
}

/// A scheduled event targeting process `to` at time `at`.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// Deterministic tie-breaker (insertion order).
    pub seq: u64,
    /// Target process.
    pub to: ProcessId,
    /// What happens.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Sequence numbers break ties deterministically (FIFO insertion).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A not-yet-sequenced event staged for a [`Scheduler::push_batch`] call.
///
/// Broadcast routing stages all of a broadcast's deliveries into one
/// (caller-recycled) `Vec<Staged>` and hands them to the scheduler in a
/// single call. Staged events are `Copy`: the batch is passed by slice and
/// the caller clears and recycles the buffer.
#[derive(Clone, Copy, Debug)]
pub struct Staged {
    /// When the event fires.
    pub at: Time,
    /// Target process.
    pub to: ProcessId,
    /// What happens.
    pub kind: EventKind,
}

/// A time-ordered event queue with deterministic tie-breaking.
///
/// The contract every implementation must honour:
///
/// * [`Scheduler::push`] assigns the event the next insertion sequence
///   number (starting at 0);
/// * [`Scheduler::push_batch`] inserts the staged events in slice order, as
///   if each had been [`Scheduler::push`]ed individually — same sequence
///   numbers, same pending set — and exists only so implementations can
///   amortize per-insert bookkeeping over a broadcast;
/// * [`Scheduler::pop`] removes the pending event with the smallest
///   `(at, seq)` key — so two schedulers fed the same pushes pop the same
///   events in the same order, bit for bit.
pub trait Scheduler: std::fmt::Debug {
    /// Schedules `kind` for `to` at time `at`.
    fn push(&mut self, at: Time, to: ProcessId, kind: EventKind);

    /// Schedules every staged event, in slice order. Observationally
    /// identical to pushing one by one.
    fn push_batch(&mut self, batch: &[Staged]) {
        for s in batch {
            self.push(s.at, s.to, s.kind);
        }
    }

    /// Removes and returns the pending event with the smallest `(at, seq)`.
    fn pop(&mut self) -> Option<Event>;

    /// The time of the earliest pending event.
    fn peek_time(&self) -> Option<Time>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Ticks covered by the wheel's window; a power of two so the bucket of a
/// tick is a mask. Every delay the engine draws by default is far below it.
const WHEEL_TICKS: u64 = 64;

/// The ring index of tick `at`.
fn bucket_of(at: u64) -> usize {
    (at % WHEEL_TICKS) as usize
}

/// Low bits of [`Node::slot_tag`] that hold the kind's tag; the slot index
/// has the rest.
const TAG_BITS: u32 = 3;

const TAG_DELIVER: u32 = 0;
const TAG_RB_DELIVER: u32 = 1;
const TAG_STEP: u32 = 2;
const TAG_JOIN: u32 = 3;

/// A wheel entry: an [`Event`] minus its tick (the bucket holds that), with
/// `seq` stored as an offset from its page's first, the identities
/// narrowed to `u16` and the slot index to 29 bits beside the kind's tag.
#[derive(Clone, Copy, Debug, Default)]
struct Node {
    /// `seq` minus [`EventQueue::first_seq`] of the node's page.
    seq_off: u32,
    to: u16,
    from: u16,
    /// `slot.index() << TAG_BITS | tag`.
    slot_tag: u32,
}

impl Node {
    /// Packs the event, or `None` if an identity does not fit 16 bits or
    /// the slot index 29 (the caller then keeps it whole in the fallback
    /// heap).
    fn pack(seq_off: u32, to: ProcessId, kind: EventKind) -> Option<Node> {
        let (tag, from, slot) = match kind {
            EventKind::Deliver { from, slot } => (TAG_DELIVER, from.0, slot.index()),
            EventKind::RbDeliver { from, slot } => (TAG_RB_DELIVER, from.0, slot.index()),
            EventKind::Step => (TAG_STEP, 0, 0),
            EventKind::Join => (TAG_JOIN, 0, 0),
        };
        if slot >> (u32::BITS - TAG_BITS) != 0 {
            return None;
        }
        Some(Node {
            seq_off,
            to: u16::try_from(to.0).ok()?,
            from: u16::try_from(from).ok()?,
            slot_tag: slot << TAG_BITS | tag,
        })
    }

    /// The event, given its tick and its page's first `seq`.
    fn unpack(self, at: Time, first_seq: u64) -> Event {
        let from = ProcessId(usize::from(self.from));
        let slot = MsgSlot::from_raw(self.slot_tag >> TAG_BITS);
        let kind = match self.slot_tag & ((1 << TAG_BITS) - 1) {
            TAG_DELIVER => EventKind::Deliver { from, slot },
            TAG_RB_DELIVER => EventKind::RbDeliver { from, slot },
            TAG_STEP => EventKind::Step,
            tag => {
                debug_assert_eq!(tag, TAG_JOIN, "pack writes no other tag");
                EventKind::Join
            }
        };
        Event {
            at,
            seq: first_seq + u64::from(self.seq_off),
            to: ProcessId(usize::from(self.to)),
            kind,
        }
    }
}

/// Nodes per page of the pool: 1.5 KiB. Smaller pages waste less on the one
/// partial page each pending tick holds, larger ones chain less often;
/// ROADMAP item 2 has the readings this was chosen from. A power of two,
/// so that an empty bucket's `last` reads as "no room" (see [`Bucket`]).
const PAGE: usize = 128;
const _: () = assert!(PAGE.is_power_of_two());

/// The null page link: end of a chain, empty bucket, empty free list.
const NO_PAGE: u32 = u32::MAX;

/// The pending events of one tick, in push (= `seq`) order: a chain of
/// pool pages, every page full but (possibly) the last.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// First page of the chain, [`NO_PAGE`] when the tick has no pending
    /// event.
    head: u32,
    /// Pool index of the node written last, in the chain's last page.
    /// When it is the last slot of its page there is no room: the next push
    /// takes a fresh page. An empty bucket's is `u32::MAX`, which reads the
    /// same way (`PAGE` divides 2³²).
    last: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NO_PAGE,
    last: u32::MAX,
};

/// The scheduler every run uses: a timing wheel of per-tick FIFO buckets
/// over `[base, base + WHEEL_TICKS)`, plus a [`BinaryHeap`] for events
/// outside that window. See the [module docs](self).
#[derive(Debug)]
pub struct EventQueue {
    /// `ring[bucket_of(t)]` chains the pending events of tick `t`, for `t`
    /// in the window.
    ring: [Bucket; WHEEL_TICKS as usize],
    /// The page pool: page `p` is `nodes[p·PAGE..][..PAGE]`.
    nodes: Vec<Node>,
    /// `next[p]`: the page after `p` in its bucket's chain or in the free
    /// list, [`NO_PAGE`] at the end of either.
    next: Vec<u32>,
    /// `first_seq[p]`: the `seq` of the first node written to page `p` since
    /// it left the free list, which every [`Node::seq_off`] in it counts
    /// from. A push whose offset would not fit a `u32` takes the fallback
    /// heap instead.
    first_seq: Vec<u64>,
    /// First page of the free list.
    free: u32,
    /// First tick of the window. Every tick before it is empty in the ring.
    base: u64,
    /// Read position in the head page of `base`'s bucket; entries before
    /// it have popped.
    cursor: usize,
    /// Pending events in the ring.
    wheel_len: usize,
    /// Pending events that were outside the window when pushed.
    far: BinaryHeap<Event>,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            ring: [EMPTY_BUCKET; WHEEL_TICKS as usize],
            nodes: Vec::new(),
            next: Vec::new(),
            first_seq: Vec::new(),
            free: NO_PAGE,
            base: 0,
            cursor: 0,
            wheel_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Wheel nodes the queue holds memory for, pending or not: the page
    /// pool's capacity, which only ever grows (see the [module docs](self)
    /// for its bound).
    pub fn node_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// The first tick at or after `base` with a pending wheel event. Only
    /// meaningful (and only terminating within the window) when the wheel
    /// is non-empty.
    fn wheel_head_tick(&self) -> u64 {
        let mut tick = self.base;
        while self.ring[bucket_of(tick)].head == NO_PAGE {
            tick += 1;
        }
        tick
    }

    /// Takes a page off the free list, growing the pool first if the list
    /// is empty.
    #[inline]
    fn take_page(&mut self) -> u32 {
        if self.free == NO_PAGE {
            self.grow();
        }
        let page = self.free;
        self.free = std::mem::replace(&mut self.next[page as usize], NO_PAGE);
        page
    }

    /// Adds an eighth of the pool (at least one page) to it, all of it
    /// free: whatever the pool grows to stays resident for the rest of the
    /// run, so it does not double.
    #[cold]
    fn grow(&mut self) {
        let pages = self.next.len();
        let more = (pages / 8).max(1);
        self.nodes.reserve_exact(more * PAGE);
        self.nodes.resize((pages + more) * PAGE, Node::default());
        self.next.reserve_exact(more);
        self.first_seq.reserve_exact(more);
        for page in pages..pages + more {
            self.next.push(self.free);
            self.free = page as u32;
        }
        self.first_seq.resize(pages + more, 0);
    }

    /// Appends the event to tick `at`'s bucket, or returns `false` if its
    /// node does not pack.
    #[inline]
    fn push_wheel(&mut self, at: u64, seq: u64, to: ProcessId, kind: EventKind) -> bool {
        let Some(mut node) = Node::pack(0, to, kind) else {
            return false;
        };
        let tick = bucket_of(at);
        let Bucket { head, last } = self.ring[tick];
        let mut slot = last.wrapping_add(1);
        if (slot as usize).is_multiple_of(PAGE) {
            // A fresh page counts from this push.
            let page = self.take_page();
            if head == NO_PAGE {
                self.ring[tick].head = page;
            } else {
                self.next[last as usize / PAGE] = page;
            }
            self.first_seq[page as usize] = seq;
            slot = page * PAGE as u32;
        } else {
            // A partial one from its first node, if the offset fits.
            let Ok(off) = u32::try_from(seq - self.first_seq[last as usize / PAGE]) else {
                return false;
            };
            node.seq_off = off;
        }
        self.nodes[slot as usize] = node;
        self.ring[tick].last = slot;
        self.wheel_len += 1;
        true
    }

    /// Keeps the event whole in the fallback heap. Out of line: it is the
    /// rare case, and the inlined [`Scheduler::push`] stays small without it.
    #[cold]
    fn push_far(&mut self, event: Event) {
        self.far.push(event);
    }
}

// `push` is `#[inline]` so that the routing loops, which are instantiated
// in other crates, compile it in: its page-base arithmetic then costs
// nothing measurable per event. Inlining `pop` into the run loop measured
// slower, so it stays a call.
impl Scheduler for EventQueue {
    #[inline]
    fn push(&mut self, at: Time, to: ProcessId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // `checked_sub`, not `wrapping_sub`: once the window has re-based
        // onto `Time::INFINITY`, small ticks would wrap into it.
        let in_window = at.0.checked_sub(self.base).is_some_and(|d| d < WHEEL_TICKS);
        if !(in_window && self.push_wheel(at.0, seq, to, kind)) {
            self.push_far(Event { at, seq, to, kind });
        }
    }

    fn pop(&mut self) -> Option<Event> {
        if self.wheel_len == 0 {
            // With the ring empty any base is valid: follow the clock, so
            // the pushes this event causes land in the window again.
            let ev = self.far.pop()?;
            self.base = ev.at.0;
            return Some(ev);
        }
        self.base = self.wheel_head_tick();
        let bucket = &mut self.ring[bucket_of(self.base)];
        let page = bucket.head;
        let slot = page as usize * PAGE + self.cursor;
        let node = self.nodes[slot];
        let first_seq = self.first_seq[page as usize];
        if let Some(far) = self.far.peek() {
            let seq = first_seq + u64::from(node.seq_off);
            if (far.at.0, far.seq) < (self.base, seq) {
                return self.far.pop();
            }
        }
        self.cursor += 1;
        self.wheel_len -= 1;
        let drained = slot as u32 == bucket.last;
        if drained || self.cursor == PAGE {
            // The cursor leaves the page: back to the free list with it.
            self.cursor = 0;
            bucket.head = std::mem::replace(&mut self.next[page as usize], self.free);
            self.free = page;
            if drained {
                bucket.last = u32::MAX;
            }
        }
        Some(node.unpack(Time(self.base), first_seq))
    }

    fn peek_time(&self) -> Option<Time> {
        let wheel = (self.wheel_len > 0).then(|| Time(self.wheel_head_tick()));
        let far = self.far.peek().map(|e| e.at);
        wheel.into_iter().chain(far).min()
    }

    fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// A delivery kind whose payload lives nowhere: queue-level tests only
    /// exercise ordering, never dereference the slot.
    fn deliver(to: ProcessId, tag: u32) -> EventKind {
        EventKind::Deliver {
            from: to,
            slot: MsgSlot::from_raw(tag),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(5), ProcessId(0), EventKind::Step);
        q.push(Time(1), ProcessId(1), EventKind::Step);
        q.push(Time(3), ProcessId(2), EventKind::Join);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut q = EventQueue::new();
        q.push(Time(2), ProcessId(0), EventKind::Step);
        q.push(Time(2), ProcessId(1), EventKind::Step);
        assert_eq!(q.pop().unwrap().to, ProcessId(0));
        assert_eq!(q.pop().unwrap().to, ProcessId(1));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time(9), ProcessId(0), EventKind::Step);
        assert_eq!(q.peek_time(), Some(Time(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn sparse_far_future_events_pop() {
        let mut q = EventQueue::new();
        q.push(Time(1_000_000), ProcessId(0), EventKind::Step);
        q.push(Time(2), ProcessId(1), EventKind::Step);
        assert_eq!(q.pop().unwrap().at, Time(2));
        assert_eq!(q.pop().unwrap().at, Time(1_000_000));
        assert!(q.pop().is_none());
    }

    /// Degenerate batch contents: `Time::INFINITY` and repeated same-tick
    /// entries are sequenced in slice order like individual pushes.
    #[test]
    fn push_batch_handles_extreme_days() {
        let mut q = EventQueue::new();
        let batch: Vec<Staged> = [Time::INFINITY, Time(0), Time::INFINITY, Time(5)]
            .into_iter()
            .map(|at| Staged {
                at,
                to: ProcessId(0),
                kind: EventKind::Step,
            })
            .collect();
        q.push_batch(&batch);
        let popped: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at, e.seq))
            .collect();
        assert_eq!(
            popped,
            vec![
                (Time(0), 1),
                (Time(5), 3),
                (Time::INFINITY, 0),
                (Time::INFINITY, 2)
            ]
        );
    }

    /// The contract as a sorted map, driven beside the queue: every pop
    /// checks `len`, `peek_time` and the popped `(at, seq, to, kind)`, and
    /// every push and pop the page pool's invariants.
    struct Checked {
        q: EventQueue,
        model: BTreeMap<(Time, u64), Event>,
        /// Pending wheel events per ring bucket.
        pending: [usize; WHEEL_TICKS as usize],
        /// The most pool pages that were ever in chains at once.
        high_water: usize,
    }

    impl Default for Checked {
        fn default() -> Self {
            Checked {
                q: EventQueue::new(),
                model: BTreeMap::new(),
                pending: [0; WHEEL_TICKS as usize],
                high_water: 0,
            }
        }
    }

    /// Pool pages by where they are: `(in the buckets' chains, on the free
    /// list)`, each chain walked to its end.
    fn pages(q: &EventQueue) -> (usize, usize) {
        let chain = |mut page: u32| {
            let mut len = 0;
            while page != NO_PAGE {
                len += 1;
                page = q.next[page as usize];
            }
            len
        };
        let in_chains = q.ring.iter().map(|b| chain(b.head)).sum();
        (in_chains, chain(q.free))
    }

    impl Checked {
        fn push(&mut self, at: u64) {
            let (at, seq) = (Time(at), self.q.next_seq);
            let to = ProcessId(seq as usize % 5);
            let kind = deliver(to, seq as u32);
            let in_wheel = self.q.wheel_len;
            self.q.push(at, to, kind);
            self.pending[bucket_of(at.0)] += self.q.wheel_len - in_wheel;
            self.model.insert((at, seq), Event { at, seq, to, kind });
            self.assert_pool_invariants();
        }

        /// Pops one event and returns its `(tick, seq)`.
        fn pop(&mut self) -> (u64, u64) {
            assert_eq!(self.q.len(), self.model.len());
            let first = self.model.first_key_value().map(|(&(at, _), _)| at);
            assert_eq!(self.q.peek_time(), first);
            let in_wheel = self.q.wheel_len;
            let (got, (_, want)) = (self.q.pop().unwrap(), self.model.pop_first().unwrap());
            assert_eq!(
                (got.at, got.seq, got.to, got.kind),
                (want.at, want.seq, want.to, want.kind)
            );
            self.pending[bucket_of(got.at.0)] -= in_wheel - self.q.wheel_len;
            self.assert_pool_invariants();
            (got.at.0, got.seq)
        }

        fn drain(&mut self) -> Vec<(u64, u64)> {
            let popped = (0..self.model.len()).map(|_| self.pop()).collect();
            assert!(self.q.is_empty() && self.q.pop().is_none());
            assert_eq!(self.q.peek_time(), None);
            popped
        }

        /// * A tick's chain is exactly as long as its pending nodes need:
        ///   `⌈pending / PAGE⌉` pages, one more when what the cursor has
        ///   read of the head page makes the rest straddle another;
        /// * every page is in a chain or on the free list;
        /// * the pool holds at most 9/8 of the most pages ever in chains at
        ///   once, plus one page;
        /// * a chained page's base is the `seq` of its first node (offset
        ///   0), so it is ≤ every node's `seq` in it; the pending nodes of a
        ///   chain ascend from page to page, and no `seq` is one not yet
        ///   handed out.
        fn assert_pool_invariants(&mut self) {
            let q = &self.q;
            assert_eq!(self.pending.iter().sum::<usize>(), q.wheel_len);
            // Only the bucket being drained is read through the cursor.
            let draining = (0..WHEEL_TICKS)
                .map(|d| bucket_of(q.base.wrapping_add(d)))
                .find(|&b| self.pending[b] > 0);
            let mut want = 0;
            for (tick, &n) in self.pending.iter().enumerate() {
                let bucket = q.ring[tick];
                assert_eq!(n == 0, bucket.head == NO_PAGE, "tick {tick}");
                if n == 0 {
                    continue;
                }
                let read = if draining == Some(tick) { q.cursor } else { 0 };
                assert!(read < PAGE, "the cursor stayed on a page it had read");
                want += (read + n).div_ceil(PAGE);
                assert_eq!((read + n - 1) % PAGE, bucket.last as usize % PAGE);
                let (mut page, mut from, mut prev) = (bucket.head, read, None);
                while page != NO_PAGE {
                    let p = page as usize;
                    let to = match q.next[p] {
                        NO_PAGE => bucket.last as usize % PAGE + 1,
                        _ => PAGE,
                    };
                    let seq = |i: usize| q.first_seq[p] + u64::from(q.nodes[p * PAGE + i].seq_off);
                    assert_eq!(seq(0), q.first_seq[p], "tick {tick}: page {p}'s base");
                    assert!(prev < Some(seq(from)), "tick {tick}: page {p} out of order");
                    assert!(seq(from) <= seq(to - 1) && seq(to - 1) < q.next_seq);
                    (page, from, prev) = (q.next[p], 0, Some(seq(to - 1)));
                }
            }
            let (in_chains, free) = pages(q);
            assert_eq!(in_chains, want, "pages in chains");
            assert_eq!(in_chains + free, q.next.len(), "pages not lost");
            assert_eq!(q.nodes.len(), q.next.len() * PAGE);
            self.high_water = self.high_water.max(in_chains);
            assert!(
                q.node_capacity() <= (self.high_water * 9 / 8 + 1) * PAGE,
                "{} nodes of capacity for a high-water mark of {} pages",
                q.node_capacity(),
                self.high_water
            );
        }
    }

    /// The widest identity and slot index a [`Node`] holds.
    const MAX_ID: usize = u16::MAX as usize;
    const MAX_SLOT: u32 = (1 << (u32::BITS - TAG_BITS)) - 1;

    #[test]
    fn node_is_packed_and_round_trips_every_kind() {
        assert_eq!(std::mem::size_of::<Node>(), 12);
        assert_eq!(MAX_SLOT, (1 << 29) - 1);
        for (id, slot) in [(0, 0), (1023, 7), (MAX_ID, MAX_SLOT)] {
            let (from, slot) = (ProcessId(id), MsgSlot::from_raw(slot));
            for kind in [
                EventKind::Deliver { from, slot },
                EventKind::RbDeliver { from, slot },
                EventKind::Step,
                EventKind::Join,
            ] {
                for (first, off) in [(0, 9), (1 << 40, u32::MAX)] {
                    let e = Node::pack(off, from, kind).unwrap().unpack(Time(3), first);
                    let seq = first + u64::from(off);
                    assert_eq!((e.at, e.seq, e.to, e.kind), (Time(3), seq, from, kind));
                }
            }
        }
    }

    /// A target or sender past 16 bits, or a slot index past 29, cannot be
    /// packed: the event keeps its place in the order through the fallback
    /// heap, untruncated.
    #[test]
    fn unpackable_identity_takes_the_fallback_heap() {
        let wide = ProcessId(MAX_ID + 1);
        let rb_deliver = |from, slot| EventKind::RbDeliver {
            from,
            slot: MsgSlot::from_raw(slot),
        };
        let pushes = [
            (ProcessId(0), EventKind::Step),
            (wide, EventKind::Step),
            (ProcessId(1), deliver(wide, 0)),
            (ProcessId(1), rb_deliver(wide, 0)),
            (ProcessId(MAX_ID), deliver(ProcessId(MAX_ID), MAX_SLOT)),
            (ProcessId(2), deliver(ProcessId(2), MAX_SLOT + 1)),
            (ProcessId(3), rb_deliver(ProcessId(3), MAX_SLOT + 1)),
            (ProcessId(4), deliver(ProcessId(4), u32::MAX)),
            (ProcessId(5), EventKind::Step),
        ];
        let mut q = EventQueue::new();
        for (to, kind) in pushes {
            q.push(Time(1), to, kind);
        }
        assert_eq!((q.wheel_len, q.far.len()), (3, 6));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at, e.seq, e.to, e.kind))
            .collect();
        let pushed: Vec<_> = (0..)
            .zip(pushes)
            .map(|(seq, (to, kind))| (Time(1), seq, to, kind))
            .collect();
        assert_eq!(popped, pushed);
    }

    /// A `seq` more than `u32::MAX` past its page's first does not fit the
    /// page's 32-bit offsets: it takes the fallback heap, keeping its exact
    /// `seq` and its place in the order, while a push that opens a page
    /// counts from its own `seq` and stays in the wheel.
    #[test]
    fn seq_offset_overflow_takes_the_fallback_heap() {
        let (s, page) = (1u64 << 32, PAGE as u64);
        let mut c = Checked::default();
        c.push(1); // seq 0 opens tick 1's page
        c.q.next_seq = s;
        c.push(1); // 2³² past seq 0: fallback
        assert_eq!((c.q.wheel_len, c.q.far.len()), (1, 1));
        c.push(2); // opens tick 2's page at s + 1
        c.push(1); // fallback
        for _ in 0..page {
            c.push(3); // fills tick 3's first page, from s + 3
        }
        let t = c.q.next_seq + u64::from(u32::MAX);
        c.q.next_seq = t;
        c.push(3); // opens tick 3's next page at t
        c.push(3); // one past it
        c.push(2); // 2³² + 130 past tick 2's base: fallback
        assert_eq!((c.q.wheel_len, c.q.far.len()), (PAGE + 4, 3));
        let mut want = vec![(1, 0), (1, s), (1, s + 2), (2, s + 1), (2, t + 2)];
        want.extend((s + 3..s + 3 + page).map(|seq| (3, seq)));
        want.extend([(3, t), (3, t + 1)]);
        assert_eq!(c.drain(), want);
    }

    /// `base + W − 1` is the last tick of the window, `base + W` the first
    /// outside it; they share no bucket and pop in tick order.
    #[test]
    fn window_rollover_splits_wheel_and_fallback() {
        let mut c = Checked::default();
        c.push(0);
        assert_eq!(c.pop(), (0, 0));
        for at in [
            WHEEL_TICKS,
            WHEEL_TICKS - 1,
            WHEEL_TICKS,
            0,
            WHEEL_TICKS - 1,
        ] {
            c.push(at);
        }
        assert_eq!((c.q.wheel_len, c.q.far.len()), (3, 2));
        let w = WHEEL_TICKS;
        assert_eq!(
            c.drain(),
            vec![(0, 4), (w - 1, 2), (w - 1, 5), (w, 1), (w, 3)]
        );
    }

    /// A tick reached first through the fallback heap (pushed while it was
    /// beyond the window) and later by direct pushes (after `base` caught
    /// up) pops in `seq` order across the two structures.
    #[test]
    fn fallback_and_direct_pushes_on_one_tick_pop_in_seq_order() {
        let tick = WHEEL_TICKS + 10;
        let mut c = Checked::default();
        c.push(tick); // seq 0: beyond the window → fallback
        c.push(20); // seq 1
        assert_eq!(c.pop(), (20, 1)); // base = 20: `tick` is inside now
        c.push(tick); // seq 2: wheel
        c.push(tick); // seq 3: wheel
        assert_eq!((c.q.wheel_len, c.q.far.len()), (2, 1));
        c.push(tick + 1);
        assert_eq!(
            c.drain(),
            vec![(tick, 0), (tick, 2), (tick, 3), (tick + 1, 4)]
        );
    }

    /// A push earlier than the last popped tick still pops next.
    #[test]
    fn push_before_the_last_popped_tick_pops_first() {
        let mut c = Checked::default();
        c.push(30);
        c.push(31);
        assert_eq!(c.pop(), (30, 0));
        c.push(7);
        c.push(30); // same tick as the drained head bucket
        c.push(7);
        assert_eq!(c.drain(), vec![(7, 2), (7, 4), (30, 3), (31, 1)]);
    }

    /// `Time::INFINITY` sorts last, even after the window re-based onto it
    /// (`base = u64::MAX` must not overflow the window test).
    #[test]
    fn infinity_is_a_tick_like_any_other() {
        let mut c = Checked::default();
        c.push(u64::MAX);
        c.push(3);
        assert_eq!(c.drain(), vec![(3, 1), (u64::MAX, 0)]);
        assert_eq!(c.q.base, u64::MAX);
        c.push(u64::MAX); // in the (one-tick) window
        c.push(5); // before it
        c.push(u64::MAX);
        assert_eq!(c.drain(), vec![(5, 3), (u64::MAX, 2), (u64::MAX, 4)]);
    }

    /// Once the wheel has emptied, popping a fallback event moves the
    /// window onto it, so the pushes that follow go to the wheel again.
    #[test]
    fn rebases_onto_the_fallback_event_when_the_wheel_is_empty() {
        let mut c = Checked::default();
        c.push(2);
        c.push(5_000);
        assert_eq!(c.pop(), (2, 0));
        assert_eq!(c.pop(), (5_000, 1));
        assert_eq!(c.q.base, 5_000);
        for d in [3, 1, WHEEL_TICKS - 1, 1] {
            c.push(5_000 + d);
        }
        assert_eq!((c.q.wheel_len, c.q.far.len()), (4, 0));
        c.drain();
    }

    /// A drained tick hands its pages on: after many revolutions the pool
    /// is as large as the most ticks ever pending at once, every page of it
    /// is free, and an empty ring holds none.
    #[test]
    fn drained_buckets_are_recycled_across_revolutions() {
        let mut c = Checked::default();
        let mut now = 0;
        for _ in 0..4 * WHEEL_TICKS {
            for d in 1..=3 {
                c.push(now + d);
                c.push(now + d);
            }
            for _ in 0..6 {
                now = c.pop().0;
            }
        }
        c.drain();
        let pool = c.q.next.len();
        assert_eq!(pages(&c.q), (0, pool), "an empty ring holds no page");
        assert_eq!(pool, c.high_water, "a small pool grows a page at a time");
        assert!(
            (3..=4).contains(&pool),
            "{pool} pages for 3 to 4 pending ticks"
        );
    }

    /// A seeded push/pop storm, the order contract and the pool invariants
    /// checked after every operation: fan-outs of 1 to 4,096 (many pages
    /// per tick, and counts around the page size), delays 0 to 63 (delay 0
    /// pushes into the bucket being drained), pushes at the tick just
    /// popped (the bucket may just have emptied) and pushes beyond the
    /// window that interleave the fallback heap.
    #[test]
    fn pool_invariants_hold_under_a_seeded_storm() {
        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(seed ^ 0x9A6E);
            let mut c = Checked::default();
            let mut now = 0;
            for _ in 0..40 {
                let fan_out = match rng.below(4) {
                    0 => rng.range(1, 4),
                    1 => rng.range(PAGE as u64 - 2, PAGE as u64 + 3),
                    2 => rng.range(1, 600),
                    _ => rng.range(1, 4_097),
                };
                let delay = match rng.below(3) {
                    0 => 0,
                    _ => rng.below(WHEEL_TICKS),
                };
                for _ in 0..fan_out {
                    let far = rng.chance(1, 50);
                    c.push(now + if far { WHEEL_TICKS + delay } else { delay });
                }
                for _ in 0..rng.range(0, 2 * fan_out + 2).min(c.model.len() as u64) {
                    now = c.pop().0;
                    if rng.chance(1, 8) {
                        c.push(now);
                    }
                }
            }
            c.drain();
            assert_eq!(pages(&c.q).0, 0, "seed {seed}");
            assert!(c.high_water > 4_096 / PAGE, "seed {seed}: no deep tick");
        }
    }

    /// `push_batch` is observationally identical to pushing one by one —
    /// same sequence numbers, same pop stream — across random fan-outs
    /// interleaved with pops.
    #[test]
    fn push_batch_matches_individual_pushes() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed ^ 0xBA7C);
            let mut scalar = EventQueue::new();
            let mut batched = EventQueue::new();
            let mut staging: Vec<Staged> = Vec::new();
            let mut now = 0u64;
            for round in 0..300u32 {
                for _ in 0..rng.range(1, 33) {
                    let at = Time(now + rng.range(0, 12));
                    let to = ProcessId(rng.below(16) as usize);
                    let kind = deliver(to, round);
                    scalar.push(at, to, kind);
                    staging.push(Staged { at, to, kind });
                }
                batched.push_batch(&staging);
                staging.clear();
                // Drain a few to interleave pops with batches.
                for _ in 0..rng.range(0, 8) {
                    let Some(a) = scalar.pop() else { break };
                    now = a.at.0;
                    let b = batched.pop().unwrap();
                    assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to), "seed {seed}");
                }
            }
            while let Some(a) = scalar.pop() {
                let b = batched.pop().unwrap();
                assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to), "seed {seed}");
            }
            assert!(batched.is_empty(), "seed {seed}");
        }
    }
}
