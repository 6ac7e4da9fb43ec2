//! Run traces: everything a property checker or metric needs to observe.
//!
//! The paper's failure-detector classes are defined by properties of output
//! *histories* ("there is a time after which …"). Algorithms therefore
//! publish their observable outputs — suspicion sets, trusted sets,
//! representatives, decisions — into the [`Trace`], which deduplicates
//! consecutive identical values so histories stay compact step functions.
//!
//! The values of those step functions are round numbers, single processes,
//! booleans and small sets, so a [`History`] stores a change point in 24
//! bytes whatever its kind — time, tag, one word — and keeps only sets with
//! a member `≥ 64` out of line, in a per-history side table. The 144-byte
//! [`Sample`] (an [`FdValue`] holds a full-width [`PSet`]) is what readers
//! get, decoded on the fly by the [`Samples`] view.

use crate::id::{PSet, ProcessId};
use crate::time::Time;
use std::fmt;

/// Well-known output slots. A *slot* identifies one published variable of a
/// process (e.g. its `trusted_i` set); transformations building a failure
/// detector publish into the slot matching the class they claim to build.
pub mod slot {
    /// `suspected_i` — output of an (eventually) strong failure detector.
    pub const SUSPECTED: u32 = 0;
    /// `trusted_i` — output of an `Ω_z` failure detector.
    pub const TRUSTED: u32 = 1;
    /// `repr_i` — output of the lower-wheel component (paper Figure 5).
    pub const REPR: u32 = 2;
    /// Current round number of a round-based algorithm.
    pub const ROUND: u32 = 3;
    /// First user-defined slot.
    pub const USER: u32 = 16;
}

/// A published failure-detector output value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdValue {
    /// A set of processes (suspected / trusted sets).
    Set(PSet),
    /// A single process (e.g. `repr_i`).
    Proc(ProcessId),
    /// A boolean (e.g. a query answer).
    Flag(bool),
    /// An arbitrary numeric value (e.g. a round number).
    Num(u64),
}

impl FdValue {
    /// The contained set.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Set`.
    pub fn as_set(self) -> PSet {
        match self {
            FdValue::Set(s) => s,
            other => panic!("expected FdValue::Set, got {other:?}"),
        }
    }

    /// The contained process.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Proc`.
    pub fn as_proc(self) -> ProcessId {
        match self {
            FdValue::Proc(p) => p,
            other => panic!("expected FdValue::Proc, got {other:?}"),
        }
    }
}

impl fmt::Display for FdValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdValue::Set(s) => write!(f, "{s}"),
            FdValue::Proc(p) => write!(f, "{p}"),
            FdValue::Flag(b) => write!(f, "{b}"),
            FdValue::Num(v) => write!(f, "{v}"),
        }
    }
}

/// One change point of a published variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When the value started to hold.
    pub at: Time,
    /// The value.
    pub value: FdValue,
}

/// A decision event of an agreement algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// When the decision happened.
    pub at: Time,
    /// The deciding process.
    pub by: ProcessId,
    /// The decided value.
    pub value: u64,
}

/// A change point as a [`History`] stores it: 24 bytes, whatever the value.
///
/// A `Num`, `Proc` or `Flag` is its `word`; so is a set confined to
/// identities below 64 (its mask — every set of a run with `n ≤ 64`). Only a
/// wider set lives outside the record, in the history's side table, with
/// `word` its index there.
#[derive(Clone, Copy, Debug)]
struct Stored {
    at: Time,
    word: u64,
    tag: Tag,
}

/// What a [`Stored::word`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    Num,
    Proc,
    Flag,
    /// The mask of a set with no member `≥ 64`.
    Set,
    /// An index into [`History::wide`].
    WideSet,
}

/// The step-function history of one `(process, slot)` variable.
#[derive(Clone, Debug, Default)]
pub struct History {
    samples: Vec<Stored>,
    /// The sets of the [`Tag::WideSet`] samples, in sample order.
    wide: Vec<PSet>,
}

impl History {
    /// All change points, in time order.
    pub fn samples(&self) -> Samples<'_> {
        Samples {
            stored: &self.samples,
            wide: &self.wide,
        }
    }

    /// The value holding at time `at` (the last change at or before `at`).
    pub fn value_at(&self, at: Time) -> Option<FdValue> {
        match self.samples.partition_point(|s| s.at <= at) {
            0 => None,
            i => Some(self.samples().decode(self.samples[i - 1]).value),
        }
    }

    /// The final value of the history.
    pub fn last(&self) -> Option<FdValue> {
        self.samples().last().map(|s| s.value)
    }

    /// The time of the last change.
    pub fn last_change(&self) -> Option<Time> {
        self.samples.last().map(|s| s.at)
    }

    fn push(&mut self, at: Time, value: FdValue) {
        let last = self.samples.last();
        let (tag, word) = match value {
            FdValue::Num(v) => (Tag::Num, v),
            FdValue::Proc(p) => (Tag::Proc, p.0 as u64),
            FdValue::Flag(b) => (Tag::Flag, u64::from(b)),
            FdValue::Set(s) => match s.low_word() {
                Some(mask) => (Tag::Set, mask),
                None => {
                    // A fresh index equals no stored one: a wide set is
                    // compared by value, here.
                    if last
                        .is_some_and(|l| l.tag == Tag::WideSet && self.wide[l.word as usize] == s)
                    {
                        return;
                    }
                    self.wide.push(s);
                    (Tag::WideSet, self.wide.len() as u64 - 1)
                }
            },
        };
        if last.is_some_and(|l| l.tag == tag && l.word == word) {
            return;
        }
        self.samples.push(Stored { at, word, tag });
    }
}

/// The change points of a [`History`], in time order: a `Copy` view that
/// decodes each stored record into a [`Sample`] as it is read, usable like
/// the slice it replaces (`len`, `first`, `last`, `iter`, `for s in …`).
#[derive(Clone, Copy, Debug)]
pub struct Samples<'a> {
    stored: &'a [Stored],
    wide: &'a [PSet],
}

impl<'a> Samples<'a> {
    /// Number of change points.
    pub fn len(self) -> usize {
        self.stored.len()
    }

    /// Whether the variable was never published.
    pub fn is_empty(self) -> bool {
        self.stored.is_empty()
    }

    /// The earliest change point.
    pub fn first(self) -> Option<Sample> {
        self.stored.first().map(|&s| self.decode(s))
    }

    /// The latest change point.
    pub fn last(self) -> Option<Sample> {
        self.stored.last().map(|&s| self.decode(s))
    }

    /// The view itself: it is its own iterator.
    pub fn iter(self) -> Samples<'a> {
        self
    }

    fn decode(self, s: Stored) -> Sample {
        let value = match s.tag {
            Tag::Num => FdValue::Num(s.word),
            Tag::Proc => FdValue::Proc(ProcessId(s.word as usize)),
            Tag::Flag => FdValue::Flag(s.word != 0),
            Tag::Set => FdValue::Set(PSet::from_words(&[s.word])),
            Tag::WideSet => FdValue::Set(self.wide[s.word as usize]),
        };
        Sample { at: s.at, value }
    }
}

impl Iterator for Samples<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        let (&first, rest) = self.stored.split_first()?;
        self.stored = rest;
        Some(self.decode(first))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.stored.len(), Some(self.stored.len()))
    }
}

impl ExactSizeIterator for Samples<'_> {}

/// Everything recorded during one run.
///
/// Storage is struct-of-arrays and publish-optimized: all `(process, slot)`
/// histories live in two flat, parallel arenas (`slot_ids` / `hists`),
/// indexed by a per-process `[start, end)` offset table (`ranges`). The
/// arenas are *contiguous-ascending*: process `p`'s entries sit at
/// `ranges[p]`, sorted by slot, and `ranges[p].1 == ranges[p + 1].0`, so a
/// `publish` into an existing slot is one offset lookup plus a short
/// binary search over contiguous memory — no per-process `Vec` pointer to
/// chase — and in steady state (every slot already known, the common case
/// after the first few ticks of a run) allocates nothing. Opening a *new*
/// slot shifts the later ranges — rare by construction, since a run
/// publishes into a handful of slots, once each. Counters are an interned
/// `(&'static str, u64)` vector scanned linearly; while a run is live only
/// the automata bump it, and the engine's own counters
/// ([`crate::counter`]) are folded in once, when the run ends. The
/// observable API (and iteration order, matching the original `BTreeMap`
/// storage) is unchanged.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `ranges[p]` is the `[start, end)` window of process `p`'s entries
    /// in the arenas.
    ranges: Vec<(u32, u32)>,
    /// Slot ids, ascending within each process's range.
    slot_ids: Vec<u32>,
    /// Histories, parallel to `slot_ids`.
    hists: Vec<History>,
    decisions: Vec<Decision>,
    /// The processes in `decisions`, kept as a set so the per-event stop
    /// predicate does not rebuild it.
    decided: PSet,
    counters: Vec<(&'static str, u64)>,
    horizon: Time,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records that `(p, slot)` holds `value` from time `at` on.
    /// Consecutive duplicates are elided.
    pub fn publish(&mut self, p: ProcessId, slot: u32, at: Time, value: FdValue) {
        if self.ranges.len() <= p.0 {
            // New processes open empty at the arena's end — the tail range
            // ends there too, preserving contiguity.
            let end = self.slot_ids.len() as u32;
            self.ranges.resize(p.0 + 1, (end, end));
        }
        let (s, e) = self.ranges[p.0];
        let (s, e) = (s as usize, e as usize);
        match self.slot_ids[s..e].binary_search(&slot) {
            Ok(i) => self.hists[s + i].push(at, value),
            Err(i) => {
                self.slot_ids.insert(s + i, slot);
                self.hists.insert(s + i, History::default());
                self.ranges[p.0].1 += 1;
                for r in &mut self.ranges[p.0 + 1..] {
                    r.0 += 1;
                    r.1 += 1;
                }
                self.hists[s + i].push(at, value);
            }
        }
    }

    /// Records a decision.
    pub fn decide(&mut self, at: Time, by: ProcessId, value: u64) {
        self.decisions.push(Decision { at, by, value });
        self.decided.insert(by);
    }

    /// Increments a named counter.
    #[inline]
    pub fn bump(&mut self, name: &'static str, by: u64) {
        for (k, v) in self.counters.iter_mut() {
            // Pointer equality first: counter names are interned
            // `&'static str` literals, so an automaton's repeat bump
            // resolves without comparing bytes.
            if std::ptr::eq(*k, name) || *k == name {
                *v += by;
                return;
            }
        }
        self.counters.push((name, by));
    }

    /// Sets the horizon (the end time of the observation window).
    pub fn set_horizon(&mut self, at: Time) {
        self.horizon = self.horizon.max(at);
    }

    /// The end of the observation window.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// The history of `(p, slot)` (empty if never published).
    pub fn history(&self, p: ProcessId, slot: u32) -> &History {
        static EMPTY: History = History {
            samples: Vec::new(),
            wide: Vec::new(),
        };
        self.ranges
            .get(p.0)
            .and_then(|&(s, e)| {
                let (s, e) = (s as usize, e as usize);
                self.slot_ids[s..e]
                    .binary_search(&slot)
                    .ok()
                    .map(|i| &self.hists[s + i])
            })
            .unwrap_or(&EMPTY)
    }

    /// Iterates over all `(process, slot)` histories, ordered by process,
    /// then slot (the order the old `BTreeMap` storage produced).
    pub fn histories(&self) -> impl Iterator<Item = ((ProcessId, u32), &History)> {
        self.ranges
            .iter()
            .enumerate()
            .flat_map(move |(p, &(s, e))| {
                (s as usize..e as usize)
                    .map(move |i| ((ProcessId(p), self.slot_ids[i]), &self.hists[i]))
            })
    }

    /// All decisions in time order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// The decision of process `p`, if any.
    pub fn decision_of(&self, p: ProcessId) -> Option<Decision> {
        self.decisions.iter().find(|d| d.by == p).copied()
    }

    /// The set of processes that decided.
    pub fn deciders(&self) -> PSet {
        self.decided
    }

    /// The set of distinct decided values.
    pub fn decided_values(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.decisions.iter().map(|d| d.value).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A named counter's value (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut v = self.counters.clone();
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_consecutive() {
        let mut t = Trace::new();
        let p = ProcessId(0);
        t.publish(p, slot::TRUSTED, Time(1), FdValue::Num(7));
        t.publish(p, slot::TRUSTED, Time(2), FdValue::Num(7));
        t.publish(p, slot::TRUSTED, Time(3), FdValue::Num(8));
        assert_eq!(t.history(p, slot::TRUSTED).samples().len(), 2);
    }

    #[test]
    fn value_at_step_function() {
        let mut t = Trace::new();
        let p = ProcessId(1);
        t.publish(p, slot::REPR, Time(5), FdValue::Proc(ProcessId(2)));
        t.publish(p, slot::REPR, Time(9), FdValue::Proc(ProcessId(3)));
        let h = t.history(p, slot::REPR);
        assert_eq!(h.value_at(Time(4)), None);
        assert_eq!(h.value_at(Time(5)), Some(FdValue::Proc(ProcessId(2))));
        assert_eq!(h.value_at(Time(8)), Some(FdValue::Proc(ProcessId(2))));
        assert_eq!(h.value_at(Time(9)), Some(FdValue::Proc(ProcessId(3))));
        assert_eq!(h.last_change(), Some(Time(9)));
    }

    #[test]
    fn decisions_and_counters() {
        let mut t = Trace::new();
        t.decide(Time(4), ProcessId(0), 42);
        t.decide(Time(6), ProcessId(1), 42);
        t.decide(Time(7), ProcessId(2), 13);
        assert_eq!(t.decided_values(), vec![13, 42]);
        assert_eq!(t.deciders().len(), 3);
        assert_eq!(t.decision_of(ProcessId(1)).unwrap().value, 42);
        assert_eq!(t.decision_of(ProcessId(9)), None);
        t.bump("msgs", 2);
        t.bump("msgs", 3);
        assert_eq!(t.counter("msgs"), 5);
        assert_eq!(t.counter("absent"), 0);
    }

    #[test]
    fn empty_history_is_shared() {
        let t = Trace::new();
        assert!(t
            .history(ProcessId(3), slot::SUSPECTED)
            .samples()
            .is_empty());
    }

    #[test]
    fn histories_iterate_in_process_then_slot_order() {
        // Publishes arrive in scrambled (process, slot) order; iteration
        // must still be sorted, like the old BTreeMap storage.
        let mut t = Trace::new();
        t.publish(ProcessId(2), slot::USER, Time(1), FdValue::Num(1));
        t.publish(ProcessId(0), slot::ROUND, Time(1), FdValue::Num(2));
        t.publish(ProcessId(2), slot::SUSPECTED, Time(1), FdValue::Num(3));
        t.publish(ProcessId(0), slot::TRUSTED, Time(1), FdValue::Num(4));
        t.publish(ProcessId(1), slot::REPR, Time(1), FdValue::Num(5));
        let keys: Vec<(usize, u32)> = t.histories().map(|((p, s), _)| (p.0, s)).collect();
        assert_eq!(
            keys,
            vec![
                (0, slot::TRUSTED),
                (0, slot::ROUND),
                (1, slot::REPR),
                (2, slot::SUSPECTED),
                (2, slot::USER),
            ]
        );
        // A process that never published contributes nothing, even when a
        // higher id forced the dense vector to cover its index.
        let mut sparse = Trace::new();
        sparse.publish(ProcessId(3), slot::ROUND, Time(1), FdValue::Num(0));
        assert_eq!(sparse.histories().count(), 1);
    }

    /// Model check for the struct-of-arrays storage and the packed samples:
    /// interleaved publishes across processes and slots (repeatedly forcing
    /// new-slot inserts in the middle of the arenas) must match a naive
    /// `BTreeMap` of `Vec<Sample>` sample for sample, through
    /// `histories()`, `history()` and every `History` reader. The values
    /// are of all four kinds, drawn from a pool small enough that
    /// consecutive duplicates are common: numbers, processes and flags that
    /// share a word (`Num(0)`, `Proc(p_1)`, `Flag(false)`, the empty set),
    /// sets that fit the mask word (member 63 included) and sets that do
    /// not (members 64, 127, 1,023), so narrow and wide sets alternate and
    /// equal wide sets meet back to back.
    #[test]
    fn soa_storage_matches_a_map_model_under_interleaved_publishes() {
        use std::collections::BTreeMap;
        let set = |ids: &[usize]| FdValue::Set(ids.iter().map(|&i| ProcessId(i)).collect());
        let wide = |v: FdValue| matches!(v, FdValue::Set(s) if s.max() >= Some(ProcessId(64)));
        let pool = [
            FdValue::Num(0),
            FdValue::Num(1),
            FdValue::Num(u64::MAX),
            FdValue::Proc(ProcessId(0)),
            FdValue::Proc(ProcessId(1)),
            FdValue::Flag(false),
            FdValue::Flag(true),
            set(&[]),
            set(&[0]),
            set(&[0, 63]),
            set(&[64]),
            set(&[0, 64]),
            set(&[0, 63, 127]),
            set(&[1023]),
            set(&[0, 63, 1023]),
        ];
        let mut t = Trace::new();
        let mut model: BTreeMap<(usize, u32), Vec<Sample>> = BTreeMap::new();
        let (mut elided_wide, mut wide_after_narrow) = (0, 0);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for step in 0..6_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = (x % 7) as usize;
            let slot = ((x >> 8) % 6) as u32;
            // Half the draws stay among the sets, so wide sets repeat.
            let value = match (x >> 16) % 2 {
                0 => pool[(x >> 24) as usize % pool.len()],
                _ => pool[7 + (x >> 24) as usize % (pool.len() - 7)],
            };
            let at = Time(step);
            t.publish(ProcessId(p), slot, at, value);
            let h = model.entry((p, slot)).or_default();
            match h.last().map(|s| s.value) {
                Some(last) if last == value => elided_wide += usize::from(wide(value)),
                last => {
                    let narrow_set = matches!(last, Some(l @ FdValue::Set(_)) if !wide(l));
                    wide_after_narrow += usize::from(wide(value) && narrow_set);
                    h.push(Sample { at, value });
                }
            }
        }
        assert!(elided_wide > 50 && wide_after_narrow > 50, "a weak draw");
        let got: Vec<((usize, u32), Vec<Sample>)> = t
            .histories()
            .map(|((p, s), h)| ((p.0, s), h.samples().collect()))
            .collect();
        let want: Vec<((usize, u32), Vec<Sample>)> =
            model.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(got, want);
        for (&(p, slot), samples) in &model {
            let h = t.history(ProcessId(p), slot);
            let view = h.samples();
            assert_eq!(view.iter().collect::<Vec<_>>(), *samples);
            assert_eq!((view.len(), view.is_empty()), (samples.len(), false));
            assert_eq!(view.iter().len(), samples.len());
            assert_eq!(view.first(), samples.first().copied());
            assert_eq!(view.last(), samples.last().copied());
            assert_eq!(h.last(), samples.last().map(|s| s.value));
            assert_eq!(h.last_change(), samples.last().map(|s| s.at));
            // One side-table entry per stored wide sample: an elided
            // duplicate adds none.
            let stored_wide = samples.iter().filter(|s| wide(s.value)).count();
            assert_eq!(h.wide.len(), stored_wide, "side table of ({p}, {slot})");
            // `value_at` before, on and between the change points.
            if let Some(before) = samples[0].at.0.checked_sub(1) {
                assert_eq!(h.value_at(Time(before)), None);
            }
            for (i, s) in samples.iter().enumerate() {
                assert_eq!(h.value_at(s.at), Some(s.value));
                let next = samples.get(i + 1).map_or(Time::INFINITY, |n| n.at);
                if next.0 - s.at.0 > 1 {
                    assert_eq!(h.value_at(Time(next.0 - 1)), Some(s.value));
                }
            }
        }
        // Never-published pairs still read as empty.
        assert!(t.history(ProcessId(0), 77).samples().is_empty());
        assert!(t.history(ProcessId(50), 0).samples().is_empty());
        assert_eq!(t.history(ProcessId(50), 0).samples().first(), None);
    }

    /// What `publish` writes per change point, whatever the value's kind.
    #[test]
    fn a_stored_sample_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Stored>(), 24);
    }

    #[test]
    fn counters_sorted_and_interned() {
        let mut t = Trace::new();
        t.bump("z.last", 1);
        t.bump("a.first", 2);
        t.bump("z.last", 3);
        assert_eq!(t.counters(), vec![("a.first", 2), ("z.last", 4)]);
    }

    #[test]
    fn horizon_monotone() {
        let mut t = Trace::new();
        t.set_horizon(Time(5));
        t.set_horizon(Time(3));
        assert_eq!(t.horizon(), Time(5));
    }
}
