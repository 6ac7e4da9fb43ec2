//! Process identities and compact process sets.
//!
//! The paper considers a system `Π = {p_1, …, p_n}`. Internally processes are
//! numbered `0..n`; [`ProcessId::display_index`] recovers the paper's
//! 1-based identity when printing.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of `u64` words in a [`PSet`].
const WORDS: usize = 16;

/// Maximum number of processes supported by [`PSet`]'s fixed-width
/// (`16 × u64 = 1024`-bit) representation.
pub const MAX_PROCESSES: usize = WORDS * 64;

/// The identity of a process (`0`-based).
///
/// # Examples
///
/// ```
/// use fd_sim::ProcessId;
/// let p = ProcessId(3);
/// assert_eq!(p.display_index(), 4); // the paper's p_4
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The paper's 1-based index of this process.
    pub fn display_index(self) -> usize {
        self.0 + 1
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.display_index())
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.display_index())
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// A set of processes, represented as a fixed `[u64; 16]` bitmask (so
/// `n ≤ 1024`). Word `w` holds identities `64w .. 64w + 63`, low bit first —
/// the same layout as the historical `u128` mask extended upward, which is
/// what keeps [`PSet::bits`] and [`PSet::from_bits`] exact round-trips for
/// sets confined to the first 128 identities.
///
/// All set algebra is O(words). `PSet` is the lingua franca of the crate:
/// failure detector outputs (`suspected_i`, `trusted_i`), query arguments
/// (the sets `X` of `φ_y.query(X)`), quorums and scopes are all `PSet`s.
///
/// # Examples
///
/// ```
/// use fd_sim::{PSet, ProcessId};
/// let a = PSet::from_iter([0, 1, 2].map(ProcessId));
/// let b = PSet::from_iter([1, 2, 3].map(ProcessId));
/// assert_eq!((a & b).len(), 2);
/// assert_eq!((a | b).len(), 4);
/// assert!(a.contains(ProcessId(0)));
/// assert!(!(a - b).contains(ProcessId(1)));
/// ```
///
/// Sets of small systems populate word 0 only, so the kernels that read
/// every word ([`PSet::len`], `==`, [`PSet::is_empty`]) test the other
/// fifteen with an OR-fold before doing more: no fifteen popcounts (the
/// target has no `POPCNT`, so each is a dozen instructions) and no
/// `memcmp` call.
#[derive(Clone, Copy)]
pub struct PSet([u64; WORDS]);

impl PSet {
    /// The empty set.
    pub const EMPTY: PSet = PSet([0; WORDS]);

    /// Creates an empty set.
    pub fn new() -> Self {
        PSet::EMPTY
    }

    /// The full set `{p_1, …, p_n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 1024`.
    pub fn full(n: usize) -> Self {
        assert!(
            n <= MAX_PROCESSES,
            "PSet supports at most {MAX_PROCESSES} processes"
        );
        PSet(std::array::from_fn(|i| full_word(i, n)))
    }

    /// The singleton `{p}`.
    pub fn singleton(p: ProcessId) -> Self {
        assert!(
            p.0 < MAX_PROCESSES,
            "PSet supports at most {MAX_PROCESSES} processes"
        );
        let mut words = [0u64; WORDS];
        words[p.0 / 64] = 1u64 << (p.0 % 64);
        PSet(words)
    }

    /// Constructs a set from a raw `u128` bitmask (identities `0..128`; the
    /// historical representation, kept for the small-system callers that
    /// enumerate or store masks directly).
    pub fn from_bits(bits: u128) -> Self {
        let mut words = [0u64; WORDS];
        words[0] = bits as u64;
        words[1] = (bits >> 64) as u64;
        PSet(words)
    }

    /// The raw `u128` bitmask.
    ///
    /// # Panics
    ///
    /// Panics if the set has a member `≥ 128` (it no longer fits the
    /// historical mask); see [`PSet::words`] for the full-width view.
    pub fn bits(self) -> u128 {
        assert!(
            or_fold(&self.0[2..]) == 0,
            "PSet::bits: set has members ≥ 128; use words()"
        );
        (self.0[1] as u128) << 64 | self.0[0] as u128
    }

    /// The full-width word view (word `w` holds identities `64w..64w+63`,
    /// low bit first).
    pub fn words(self) -> [u64; WORDS] {
        self.0
    }

    /// The full-width word view, borrowed (same layout as [`PSet::words`]).
    #[inline]
    pub fn as_words(&self) -> &[u64; WORDS] {
        &self.0
    }

    /// The set whose low words are `low` and whose remaining words are
    /// zero: the inverse of truncating [`PSet::as_words`] to a prefix that
    /// holds every member.
    ///
    /// # Panics
    ///
    /// Panics if `low` is longer than the full width.
    #[inline]
    pub fn from_words(low: &[u64]) -> Self {
        let mut words = [0u64; WORDS];
        words[..low.len()].copy_from_slice(low);
        PSet(words)
    }

    /// Number of processes in the set. Words past the first are counted
    /// only if one of them is non-zero.
    #[inline]
    pub fn len(self) -> usize {
        let high = if self.below_64() {
            0
        } else {
            self.0[1..].iter().map(|w| w.count_ones()).sum()
        };
        (self.0[0].count_ones() + high) as usize
    }

    /// Word 0 — the mask of identities `0..64` — if the set has no member
    /// `≥ 64`.
    #[inline]
    pub(crate) fn low_word(&self) -> Option<u64> {
        self.below_64().then_some(self.0[0])
    }

    /// Whether no member is `≥ 64`. Word 1 is tested on its own and the
    /// rest folded from word 2 on (the `&&` keeps the compiler from
    /// merging them into one fold from word 1), so every vector load sits
    /// on the 16-byte boundaries a copied set was stored at: a load
    /// straddling two stores cannot be forwarded from them, and stalls.
    #[inline]
    fn below_64(&self) -> bool {
        self.0[1] == 0 && or_fold(&self.0[2..]) == 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        or_fold(&self.0) == 0
    }

    /// Whether `p` belongs to the set.
    #[inline]
    pub fn contains(self, p: ProcessId) -> bool {
        p.0 < MAX_PROCESSES && self.0[p.0 / 64] & (1u64 << (p.0 % 64)) != 0
    }

    /// Inserts `p`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `p.0 ≥ 1024`.
    #[inline]
    pub fn insert(&mut self, p: ProcessId) -> bool {
        assert!(
            p.0 < MAX_PROCESSES,
            "PSet supports at most {MAX_PROCESSES} processes"
        );
        let fresh = !self.contains(p);
        self.0[p.0 / 64] |= 1u64 << (p.0 % 64);
        fresh
    }

    /// Removes `p`; returns `true` if it was present. An identity no set
    /// can hold (`p.0 ≥ 1024`) is simply absent, as for [`PSet::contains`].
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let present = self.contains(p);
        if present {
            self.0[p.0 / 64] &= !(1u64 << (p.0 % 64));
        }
        present
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: PSet) -> bool {
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Whether `self ⊇ other`.
    #[inline]
    pub fn is_superset(self, other: PSet) -> bool {
        other.is_subset(self)
    }

    /// Whether the two sets are disjoint.
    #[inline]
    pub fn is_disjoint(self, other: PSet) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(&a, &b)| a & b == 0)
    }

    /// Whether the two sets are ordered by containment (either way).
    ///
    /// This is the `Ψ_y` well-formedness condition on query arguments:
    /// any two queried sets `X`, `X'` must satisfy `X ⊆ X'` or `X' ⊆ X`.
    pub fn comparable(self, other: PSet) -> bool {
        self.is_subset(other) || other.is_subset(self)
    }

    /// The smallest identity in the set, if any.
    #[inline]
    pub fn min(self) -> Option<ProcessId> {
        self.0
            .iter()
            .position(|&w| w != 0)
            .map(|i| ProcessId(i * 64 + self.0[i].trailing_zeros() as usize))
    }

    /// The largest identity in the set, if any.
    pub fn max(self) -> Option<ProcessId> {
        self.0
            .iter()
            .rposition(|&w| w != 0)
            .map(|i| ProcessId(i * 64 + 63 - self.0[i].leading_zeros() as usize))
    }

    /// Iterates over members in increasing identity order.
    pub fn iter(self) -> PSetIter {
        PSetIter {
            words: self.0,
            word: 0,
        }
    }

    /// The complement within `{p_1, …, p_n}`: `PSet::full(n) - self` in
    /// one pass over the words.
    ///
    /// # Panics
    ///
    /// Panics if `n > 1024`.
    #[inline]
    pub fn complement(self, n: usize) -> PSet {
        assert!(
            n <= MAX_PROCESSES,
            "PSet supports at most {MAX_PROCESSES} processes"
        );
        PSet(std::array::from_fn(|i| full_word(i, n) & !self.0[i]))
    }
}

/// Word `i` of `PSet::full(n)`: identities `64i..64i + 63` that are below
/// `n`.
#[inline]
fn full_word(i: usize, n: usize) -> u64 {
    match n.saturating_sub(64 * i) {
        0 => 0,
        m if m >= 64 => u64::MAX,
        m => (1u64 << m) - 1,
    }
}

/// The OR of `words`: zero iff every word is. A fold, not `all`, so it
/// vectorises and has no early exit to mispredict.
#[inline]
fn or_fold(words: &[u64]) -> u64 {
    words.iter().fold(0, |any, &w| any | w)
}

impl Default for PSet {
    fn default() -> Self {
        PSet::EMPTY
    }
}

/// Word 0 decides most inequalities; the others are compared as in
/// [`PSet::len`] — word 1, then one XOR-OR fold from word 2 on — rather
/// than by a `memcmp` call.
impl PartialEq for PSet {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.0, &other.0);
        a[0] == b[0]
            && a[1] == b[1]
            && a[2..]
                .iter()
                .zip(&b[2..])
                .fold(0, |diff, (x, y)| diff | (x ^ y))
                == 0
    }
}

impl Eq for PSet {}

/// Hashes exactly as `#[derive(Hash)]` on the word array did (the length
/// prefix, then the words), so every hashed map keeps its layout.
impl Hash for PSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// Numeric mask order: identical to the historical `u128` ordering for sets
/// confined to the first 128 identities (high identities are the most
/// significant), so every map iteration order keyed on `PSet` survives the
/// widened representation.
impl Ord for PSet {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..WORDS).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for PSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::ops::BitAnd for PSet {
    type Output = PSet;
    fn bitand(self, rhs: PSet) -> PSet {
        PSet(std::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }
}

impl std::ops::BitOr for PSet {
    type Output = PSet;
    fn bitor(self, rhs: PSet) -> PSet {
        PSet(std::array::from_fn(|i| self.0[i] | rhs.0[i]))
    }
}

impl std::ops::BitXor for PSet {
    type Output = PSet;
    fn bitxor(self, rhs: PSet) -> PSet {
        PSet(std::array::from_fn(|i| self.0[i] ^ rhs.0[i]))
    }
}

impl std::ops::Sub for PSet {
    type Output = PSet;
    fn sub(self, rhs: PSet) -> PSet {
        PSet(std::array::from_fn(|i| self.0[i] & !rhs.0[i]))
    }
}

impl std::ops::BitAndAssign for PSet {
    fn bitand_assign(&mut self, rhs: PSet) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a &= b;
        }
    }
}

impl std::ops::BitOrAssign for PSet {
    fn bitor_assign(&mut self, rhs: PSet) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a |= b;
        }
    }
}

impl std::ops::SubAssign for PSet {
    fn sub_assign(&mut self, rhs: PSet) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a &= !b;
        }
    }
}

impl FromIterator<ProcessId> for PSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = PSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<ProcessId> for PSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl IntoIterator for PSet {
    type Item = ProcessId;
    type IntoIter = PSetIter;
    fn into_iter(self) -> PSetIter {
        self.iter()
    }
}

/// Iterator over the members of a [`PSet`] in increasing identity order.
#[derive(Clone, Debug)]
pub struct PSetIter {
    words: [u64; WORDS],
    word: usize,
}

impl Iterator for PSetIter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        while self.word < WORDS {
            let w = self.words[self.word];
            if w == 0 {
                self.word += 1;
                continue;
            }
            let i = w.trailing_zeros() as usize;
            self.words[self.word] = w & (w - 1);
            return Some(ProcessId(self.word * 64 + i));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.words[self.word.min(WORDS - 1)..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for PSetIter {}

impl fmt::Debug for PSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, p) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for PSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(ids: &[usize]) -> PSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn empty_and_full() {
        assert!(PSet::EMPTY.is_empty());
        assert_eq!(PSet::full(5).len(), 5);
        assert_eq!(PSet::full(128).len(), 128);
        assert_eq!(PSet::full(1024).len(), 1024);
        assert_eq!(PSet::full(0), PSet::EMPTY);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = PSet::new();
        assert!(s.insert(ProcessId(3)));
        assert!(!s.insert(ProcessId(3)));
        assert!(s.contains(ProcessId(3)));
        assert!(s.remove(ProcessId(3)));
        assert!(!s.remove(ProcessId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn remove_out_of_range_is_absent_not_a_panic() {
        let mut s = PSet::full(5);
        assert!(!s.contains(ProcessId(5000)));
        assert!(!s.remove(ProcessId(5000)));
        assert!(!s.remove(ProcessId(MAX_PROCESSES)));
        assert_eq!(s, PSet::full(5));
    }

    #[test]
    #[should_panic(expected = "PSet supports at most 1024 processes")]
    fn insert_out_of_range_names_the_limit() {
        PSet::new().insert(ProcessId(MAX_PROCESSES));
    }

    #[test]
    fn set_algebra() {
        let a = ps(&[0, 1, 2]);
        let b = ps(&[2, 3]);
        assert_eq!(a & b, ps(&[2]));
        assert_eq!(a | b, ps(&[0, 1, 2, 3]));
        assert_eq!(a - b, ps(&[0, 1]));
        assert_eq!(a ^ b, ps(&[0, 1, 3]));
    }

    #[test]
    fn subset_relations() {
        let a = ps(&[1, 2]);
        let b = ps(&[0, 1, 2, 3]);
        assert!(a.is_subset(b));
        assert!(b.is_superset(a));
        assert!(a.comparable(b));
        assert!(!a.comparable(ps(&[2, 4])));
        assert!(a.is_disjoint(ps(&[0, 3])));
    }

    #[test]
    fn min_max_iter_order() {
        let s = ps(&[5, 1, 9]);
        assert_eq!(s.min(), Some(ProcessId(1)));
        assert_eq!(s.max(), Some(ProcessId(9)));
        let v: Vec<usize> = s.iter().map(|p| p.0).collect();
        assert_eq!(v, vec![1, 5, 9]);
        assert_eq!(PSet::EMPTY.min(), None);
        assert_eq!(PSet::EMPTY.max(), None);
    }

    #[test]
    fn complement() {
        let s = ps(&[0, 2]);
        assert_eq!(s.complement(4), ps(&[1, 3]));
        assert_eq!(PSet::EMPTY.complement(3), PSet::full(3));
    }

    #[test]
    fn display_one_based() {
        assert_eq!(format!("{}", ProcessId(0)), "p1");
        assert_eq!(format!("{}", ps(&[0, 2])), "{p1,p3}");
    }

    #[test]
    fn iterator_len() {
        let s = ps(&[3, 7, 11]);
        assert_eq!(s.iter().len(), 3);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn wide_members_past_128() {
        let mut s = PSet::new();
        assert!(s.insert(ProcessId(900)));
        assert!(s.insert(ProcessId(127)));
        assert!(s.contains(ProcessId(900)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.min(), Some(ProcessId(127)));
        assert_eq!(s.max(), Some(ProcessId(900)));
        assert_eq!(s.iter().map(|p| p.0).collect::<Vec<_>>(), vec![127, 900]);
        assert_eq!(s.words()[14], 1 << (900 % 64));
        assert!(s.remove(ProcessId(900)));
        let mut words = [0; WORDS];
        words[1] = 1 << 63;
        assert_eq!(s.words(), words);
        assert_eq!(s.complement(1024).len(), 1023);
    }

    #[test]
    fn bits_round_trip_small() {
        let m = 0xdead_beef_u128 | (1u128 << 127);
        assert_eq!(PSet::from_bits(m).bits(), m);
        assert_eq!(PSet::full(128).bits(), u128::MAX);
    }

    #[test]
    #[should_panic(expected = "members ≥ 128")]
    fn bits_panics_on_wide_sets() {
        let _ = PSet::singleton(ProcessId(128)).bits();
    }

    #[test]
    fn order_matches_numeric_mask_order() {
        // The map-iteration contract: for small sets, PSet's Ord is the
        // numeric order of the historical u128 mask.
        let masks = [0u128, 1, 2, 3, 0b1010, 1 << 70, (1 << 70) | 1, u128::MAX];
        for &a in &masks {
            for &b in &masks {
                assert_eq!(
                    PSet::from_bits(a).cmp(&PSet::from_bits(b)),
                    a.cmp(&b),
                    "order diverged on {a:#x} vs {b:#x}"
                );
            }
        }
        // High identities are most significant.
        assert!(PSet::singleton(ProcessId(200)) > PSet::full(128));
    }

    #[test]
    fn full_width_words_layout() {
        let w = PSet::singleton(ProcessId(130)).words();
        assert_eq!(w[2], 0b100);
        assert!(w.iter().enumerate().all(|(i, &x)| i == 2 || x == 0));
    }

    /// `len`, `==`, `is_empty` and `Hash` against a word-by-word model
    /// (the derived implementations they replace), at every width: a
    /// random set confined to `{0..width}`, the same set with one random
    /// member toggled, and with its highest possible member toggled, so
    /// for every width past 64 a pair differs only in a high word.
    #[test]
    fn kernels_match_a_word_by_word_model() {
        use crate::rng::SplitMix64;

        #[derive(Hash)]
        struct Derived([u64; WORDS]);
        /// Every byte a `Hash` impl feeds its hasher, in order.
        #[derive(Default)]
        struct Fed(Vec<u8>);
        impl Hasher for Fed {
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
            fn finish(&self) -> u64 {
                unreachable!("the fed bytes are compared, not a digest")
            }
        }
        fn hash_of(h: &impl Hash) -> Vec<u8> {
            let mut state = Fed::default();
            h.hash(&mut state);
            state.0
        }
        fn check(a: PSet, b: PSet) {
            let (wa, wb) = (a.words(), b.words());
            let len: u32 = wa.iter().map(|w| w.count_ones()).sum();
            assert_eq!(a.len(), len as usize, "{a}");
            assert_eq!(a.is_empty(), wa.iter().all(|&w| w == 0), "{a}");
            assert_eq!(a == b, (0..WORDS).all(|i| wa[i] == wb[i]), "{a} vs {b}");
            assert_eq!(hash_of(&a), hash_of(&Derived(wa)), "{a}");
        }
        let toggled = |mut s: PSet, p: usize| {
            if !s.remove(ProcessId(p)) {
                s.insert(ProcessId(p));
            }
            s
        };

        let mut rng = SplitMix64::new(0x9e7);
        for width in 1..=MAX_PROCESSES {
            let density = 1 + rng.below(8);
            let a: PSet = (0..width)
                .filter(|_| rng.chance(1, density))
                .map(ProcessId)
                .collect();
            let b = toggled(a, rng.below(width as u64) as usize);
            let top = toggled(a, width - 1);
            let full: PSet = (0..width).map(ProcessId).collect();
            assert_eq!(PSet::full(width).words(), full.words(), "width {width}");
            let rest: Vec<u64> = (0..WORDS).map(|i| full.0[i] & !a.0[i]).collect();
            assert_eq!(a.complement(width).words()[..], rest[..], "width {width}");
            for (x, y) in [(a, a), (a, b), (b, a), (a, top), (top, a), (a, PSet::EMPTY)] {
                check(x, y);
            }
        }

        // Members only in word 15, and the last identity, 1023.
        let last = PSet::singleton(ProcessId(MAX_PROCESSES - 1));
        assert_eq!(last.len(), 1);
        assert_ne!(last, PSet::EMPTY);
        for _ in 0..200 {
            let mut words = [0u64; WORDS];
            words[WORDS - 1] = rng.next_u64() | 1 << 63;
            let high = PSet::from_words(&words);
            words[WORDS - 1] ^= 1 << rng.below(64);
            let other = PSet::from_words(&words);
            let low = PSet::from_words(&[high.words()[WORDS - 1]]);
            for (x, y) in [
                (high, high),
                (high, other),
                (high, low),
                (high, last),
                (low, high),
            ] {
                check(x, y);
            }
        }
        check(PSet::full(MAX_PROCESSES), PSet::full(MAX_PROCESSES) - last);
    }

    #[test]
    fn from_words_inverts_a_covering_prefix() {
        let s = ps(&[0, 63, 64, 130]);
        assert_eq!(s.as_words(), &s.words());
        assert_eq!(PSet::from_words(&s.as_words()[..3]), s);
        assert_eq!(PSet::from_words(s.as_words()), s);
        assert_eq!(PSet::from_words(&[]), PSet::EMPTY);
    }
}
