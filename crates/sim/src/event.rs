//! The discrete-event core: the [`Scheduler`] contract and its one
//! implementation, [`EventQueue`] (a binary heap).
//!
//! The simulator's hot loop is `pop → activate → push*`. Events pop in
//! ascending `(at, seq)` order, where `seq` is the insertion sequence
//! number. That total order is part of the repository's reproducibility
//! contract (see `fd_detectors::scenario::salt`): every recorded trace
//! fingerprint is a statement about it, and `crates/sim/tests/props.rs`
//! checks [`EventQueue`] against a sorted-`Vec` model of the contract.
//!
//! Events are plain [`Copy`] data: message payloads live in the
//! [`crate::arena::MsgArena`] and deliveries carry a [`MsgSlot`] handle, so
//! a queue node's size is fixed regardless of the protocol's message type
//! and batch insertion is a `memcpy`-class operation.

use crate::arena::MsgSlot;
use crate::id::ProcessId;
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
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
    /// The process crashes.
    Crash,
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
/// single call, so the queue reserves once instead of once per recipient.
/// Staged events are `Copy`: the batch is passed by slice and the caller
/// clears and recycles the buffer.
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

/// The scheduler every run uses: a [`BinaryHeap`] ordered by `(at, seq)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl Scheduler for EventQueue {
    fn push(&mut self, at: Time, to: ProcessId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, to, kind });
    }

    fn push_batch(&mut self, batch: &[Staged]) {
        // One capacity check for the whole broadcast instead of one per
        // recipient; insertion order (and thus `seq`) is unchanged.
        self.heap.reserve(batch.len());
        for s in batch {
            self.push(s.at, s.to, s.kind);
        }
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

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
        q.push(Time(3), ProcessId(2), EventKind::Crash);
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
