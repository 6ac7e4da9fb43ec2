//! [`ReportCache`]: the content-addressed, sharded cache of completed runs
//! the [`Runner`](super::Runner)'s streaming sweeps consult, with the two
//! hooks a durable store needs.

use super::report::{Metrics, SlimReport};
use super::spec::ScenarioSpec;
use crate::check::{CheckOutcome, ViolationClass};
use fd_sim::{Fnv1a64, Time};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count of the [`ReportCache`] (a power of two; the shard index is
/// taken from the key hash's low bits).
pub const CACHE_SHARDS: usize = 16;

/// Default entry cap of a [`ReportCache`]. A cell costs its packed bytes
/// (about 100 for a k-set run, more for a long check detail) plus its
/// 32-byte hash-table slot and slack, 140–160 bytes in all on the
/// benchmark's grids, so the default bounds the cache near 160 MB.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// One shard's worth of cached runs, keyed `(spec salt, seed)` — what
/// [`ReportCache::hydrate`] takes, one map per shard.
///
/// Each cell is one exactly-sized byte block, packed from its
/// [`SlimReport`] on [`CellMap::insert`] and unpacked into a fresh one on
/// [`CellMap::get`]: one allocation per resident cell, where the report
/// itself would hold a 216-byte slot plus three heap blocks (detail,
/// decided values, counters). The layout, in order:
///
/// | field | encoding |
/// |---|---|
/// | `num_faulty` | varint |
/// | `check.ok` | one byte, 0 or 1 |
/// | `check.class` | one byte, its index in [`ViolationClass::ALL`] |
/// | `check.stabilized_at` | a tag byte (0 `None`, 1 `Some`), then the time as a varint |
/// | `msgs_sent`, `rb_sent`, `delivered`, `events`, `max_round` | varints |
/// | `decided_values` | a varint count, then the values as varints |
/// | `first_decision`, `last_decision` | tag byte, then varint |
/// | `scenario` | varint id into the shard's name table |
/// | `counters` | a varint count, then `(name id, value)` varint pairs |
/// | `check.detail` | the rest of the block, UTF-8 |
///
/// Varints are LEB128: 7 bits a byte, low bits first, so a `u64` takes
/// 1–10 bytes. The seed is not stored: it is the key's second half.
/// Scenario and counter names are ids into the shard's own name table, a
/// handful of `&'static str`s found by pointer first (every cell of a
/// scenario, computed or read back through the store's interner, names
/// the same strings), by content otherwise. The table only grows, so an
/// id stays valid for the shard's lifetime; a cell that changes shard is
/// repacked against its new shard's table.
#[derive(Debug, Default)]
pub struct CellMap {
    cells: HashMap<(u64, u64), Box<[u8]>>,
    names: Vec<&'static str>,
}

impl CellMap {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `additional` more cells.
    pub fn reserve(&mut self, additional: usize) {
        self.cells.reserve(additional);
    }

    /// Cells held.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the shard holds no cell.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The keys held, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.cells.keys().copied()
    }

    /// Packs `slim` and stores it under `key`, replacing any cell there:
    /// one allocation, of exactly the packed length. (The shard's name
    /// table grows the first time it meets a name, and each thread's
    /// packing buffer while it grows to the largest cell it has packed.)
    pub fn insert(&mut self, key: (u64, u64), slim: &SlimReport) {
        let packed = self.pack(slim);
        self.cells.insert(key, packed);
    }

    /// The cell under `key`, unpacked (its seed is `key.1`).
    pub fn get(&self, key: (u64, u64)) -> Option<SlimReport> {
        let packed = self.cells.get(&key)?;
        Some(self.unpack(packed, key.1))
    }

    /// Every cell, unpacked, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = ((u64, u64), SlimReport)> + '_ {
        self.cells
            .iter()
            .map(|(&key, packed)| (key, self.unpack(packed, key.1)))
    }

    /// The packed bytes of every cell: what the shard holds besides its
    /// hash table and name table.
    #[cfg(test)]
    pub(super) fn packed_bytes(&self) -> usize {
        self.cells.values().map(|packed| packed.len()).sum()
    }

    /// The id of `name` in this shard's name table, adding it if new.
    fn name_id(&mut self, name: &'static str) -> u64 {
        let found = self
            .names
            .iter()
            .position(|&known| std::ptr::eq(known, name))
            .or_else(|| self.names.iter().position(|&known| known == name));
        let id = found.unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        id as u64
    }

    fn pack(&mut self, slim: &SlimReport) -> Box<[u8]> {
        thread_local! {
            /// The buffer this thread packs cells in; each is then copied
            /// out at its exact length.
            static PACKING: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        PACKING.with_borrow_mut(|out| {
            let (check, m) = (&slim.check, &slim.metrics);
            out.clear();
            put_varint(out, slim.num_faulty as u64);
            out.push(check.ok as u8);
            out.push(check.class as u8);
            put_opt_time(out, check.stabilized_at);
            for v in [m.msgs_sent, m.rb_sent, m.delivered, m.events, m.max_round] {
                put_varint(out, v);
            }
            put_varint(out, m.decided_values.len() as u64);
            for &v in &m.decided_values {
                put_varint(out, v);
            }
            put_opt_time(out, m.first_decision);
            put_opt_time(out, m.last_decision);
            put_varint(out, self.name_id(slim.scenario));
            put_varint(out, slim.counters.len() as u64);
            for &(name, v) in &slim.counters {
                put_varint(out, self.name_id(name));
                put_varint(out, v);
            }
            out.extend_from_slice(check.detail.as_bytes());
            Box::from(&out[..])
        })
    }

    fn unpack(&self, packed: &[u8], seed: u64) -> SlimReport {
        let mut at = Unpacker { packed, at: 0 };
        let num_faulty = at.varint() as usize;
        let ok = at.byte() != 0;
        let class = ViolationClass::ALL[at.byte() as usize];
        let stabilized_at = at.opt_time();
        let msgs_sent = at.varint();
        let rb_sent = at.varint();
        let delivered = at.varint();
        let events = at.varint();
        let max_round = at.varint();
        let decided = at.varint() as usize;
        let mut decided_values = Vec::with_capacity(decided);
        decided_values.extend((0..decided).map(|_| at.varint()));
        let first_decision = at.opt_time();
        let last_decision = at.opt_time();
        let scenario = self.names[at.varint() as usize];
        let counted = at.varint() as usize;
        let mut counters = Vec::with_capacity(counted);
        counters.extend((0..counted).map(|_| (self.names[at.varint() as usize], at.varint())));
        let detail = std::str::from_utf8(&packed[at.at..])
            .expect("a packed detail is the UTF-8 it was packed from")
            .to_owned();
        SlimReport {
            scenario,
            seed,
            num_faulty,
            check: CheckOutcome {
                ok,
                stabilized_at,
                detail,
                class,
            },
            metrics: Metrics {
                msgs_sent,
                rb_sent,
                delivered,
                events,
                max_round,
                decided_values,
                first_decision,
                last_decision,
            },
            counters,
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_opt_time(out: &mut Vec<u8>, t: Option<Time>) {
    match t {
        Some(t) => {
            out.push(1);
            put_varint(out, t.0);
        }
        None => out.push(0),
    }
}

/// A read position in a packed cell. The bytes are the shard's own
/// packing, so a short read is a bug, and panics.
struct Unpacker<'a> {
    packed: &'a [u8],
    at: usize,
}

impl Unpacker<'_> {
    #[inline]
    fn byte(&mut self) -> u8 {
        let b = self.packed[self.at];
        self.at += 1;
        b
    }

    #[inline]
    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn opt_time(&mut self) -> Option<Time> {
        (self.byte() != 0).then(|| Time(self.varint()))
    }
}

/// A content-addressed cache of completed runs, keyed on
/// `(`[`ScenarioSpec::fingerprint`]` ⊕ scenario name, seed)` and storing
/// [`SlimReport`]s — the constant-size currency of streaming sweeps —
/// packed, one exactly-sized block per cell (see [`CellMap`]).
///
/// Runs are pure functions of `(scenario, spec, seed)` (the repository's
/// determinism contract), which is what makes caching sound: a hit returns
/// exactly the report a fresh run would produce, bit for bit, so cached
/// sweeps fold to bit-identical summaries while skipping the simulation
/// entirely. Overlapping experiment grids (E4/E10-style shared cells) and
/// repeated sweeps therefore compute each `(spec, seed)` cell once.
///
/// The map is sharded (`CACHE_SHARDS` mutexes, shard picked by key hash)
/// so parallel sweep workers rarely contend; hit/miss tallies are atomics
/// surfaced in each run directory's invocation log. Insertion stops (deterministically —
/// the cached *values* are pure, so skipping an insert can never change a
/// result) once the capacity is reached.
///
/// **When to bypass it**: anything measuring *throughput* (the repo
/// benchmark times uncached runners), and anything whose spec mutates state outside
/// the report — engine scenarios never do. Attach a cache explicitly via
/// [`Runner::with_cache`](super::Runner::with_cache); the default runner never caches.
///
/// # Durability hooks
///
/// The cache itself is process-local, but it exposes the two hooks a
/// durable store needs to make sweeps resumable across processes:
///
/// * [`ReportCache::hydrate`] takes already-computed cells (read back from
///   disk, partitioned by [`ReportCache::shard_of`]) without touching the
///   hit/miss tallies or the spill hook — subsequent sweeps then hit them
///   exactly as if this process had computed them. An empty shard adopts
///   its map whole, so the cells a store packed as it decoded them *are*
///   the cache's entries: no repacking, no re-hash;
/// * [`ReportCache::set_spill`] registers a callback invoked once per
///   *computed* insert (never for hits, never for hydrated cells) with the
///   cell's key and [`SlimReport`], so a store can persist fresh cells as
///   they are produced. The callback runs on the sweep worker that
///   computed the run, before the report is packed into its shard — keep it
///   cheap (hand off to a writer thread, which encodes the cell straight
///   into an open segment file; see `fd_bench::store`). It fires even when
///   the capacity cap skips the in-memory insert: durability must not
///   degrade when the process-local map fills.
pub struct ReportCache {
    shards: Vec<Mutex<CellMap>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Computed inserts skipped because the shard was at capacity (the
    /// cache never evicts; it stops admitting instead — deterministic, and
    /// sound because cached values are pure).
    capped: AtomicU64,
    /// Cells seeded from a durable store via [`ReportCache::hydrate`].
    hydrated: AtomicU64,
    spill: Mutex<Option<Arc<SpillFn>>>,
    per_shard_capacity: usize,
}

/// The durable-store callback type of [`ReportCache::set_spill`]: invoked
/// as `(spec_salt, seed, report)` once per computed cell.
pub type SpillFn = dyn Fn(u64, u64, &SlimReport) + Send + Sync;

impl std::fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportCache")
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("capped_inserts", &self.capped_inserts())
            .field("hydrated", &self.hydrated())
            .field("spill", &self.spill.lock().unwrap().is_some())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .finish()
    }
}

impl Default for ReportCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache capped at `capacity` entries (rounded up to a
    /// multiple of the shard count).
    pub fn with_capacity(capacity: usize) -> Self {
        ReportCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(CellMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capped: AtomicU64::new(0),
            hydrated: AtomicU64::new(0),
            spill: Mutex::new(None),
            per_shard_capacity: capacity.div_ceil(CACHE_SHARDS).max(1),
        }
    }

    /// The scenario-plus-spec half of a cache key: FNV-1a-64 of the
    /// scenario's [`Scenario::cache_tag`](super::Scenario::cache_tag)
    /// (which must cover any out-of-spec knobs), a `0xff` byte (never part
    /// of UTF-8 text, so no tag is a prefix of another's encoding), then the
    /// spec [fingerprint](ScenarioSpec::fingerprint) as 8 little-endian
    /// bytes. Public because it *is* the content-address contract — a
    /// durable store persisting cells under `(salt, seed)` keys (see
    /// `fd_bench::store`) must derive the salt exactly as the in-memory
    /// sweeps do, or hydrated cells would never be looked up. Like the
    /// fingerprint, it is a format: the same on every build, toolchain and
    /// platform.
    pub fn salt(tag: &str, spec: &ScenarioSpec) -> u64 {
        let mut h = Fnv1a64::new();
        h.write(tag.as_bytes());
        h.write(&[0xff]);
        h.write(&spec.fingerprint().to_le_bytes());
        h.finish()
    }

    /// The shard (`0..CACHE_SHARDS`) that holds `key`. Public so a durable
    /// store can decode its cells straight into per-shard maps that
    /// [`ReportCache::hydrate`] then adopts whole; `fd_bench::store` also
    /// names its on-disk segments by it.
    #[inline]
    pub fn shard_of(key: (u64, u64)) -> usize {
        // Mix both halves so sweeps (varying seeds) spread across shards.
        let mix = key.0 ^ key.1.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mix as usize) & (CACHE_SHARDS - 1)
    }

    #[inline]
    fn shard(&self, key: (u64, u64)) -> &Mutex<CellMap> {
        &self.shards[Self::shard_of(key)]
    }

    /// Looks up one run, unpacked; tallies a hit or a miss.
    pub(super) fn lookup(&self, key: (u64, u64)) -> Option<SlimReport> {
        let found = self.shard(key).lock().unwrap().get(key);
        match found {
            Some(slim) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slim)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores one computed run: hands the cell to the spill hook, if one is
    /// registered, then packs it into its shard (a no-op once the shard is
    /// at capacity, tallied in [`ReportCache::capped_inserts`]). The spill
    /// fires even for capped inserts, so a durable store keeps persisting
    /// after the process-local map fills. The report is only borrowed: the
    /// packed block is the cache's one allocation for the cell.
    pub(super) fn insert(&self, key: (u64, u64), slim: &SlimReport) {
        let spill = self.spill.lock().unwrap().clone();
        if let Some(spill) = spill {
            spill(key.0, key.1, slim);
        }
        let mut shard = self.shard(key).lock().unwrap();
        if shard.len() < self.per_shard_capacity {
            shard.insert(key, slim);
        } else {
            self.capped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seeds already-computed cells (read back from a durable store) under
    /// their standard `(spec salt, seed)` keys; `shards[i]` should hold the
    /// cells of shard `i` (see [`ReportCache::shard_of`]). Neither the
    /// hit/miss tallies nor the spill hook fire — the cells were not
    /// computed here and are already persisted. Returns how many cells were
    /// admitted.
    ///
    /// An empty shard that the map fits within the capacity cap adopts the
    /// map whole — moved, not repacked or re-hashed. Any other map (a shard
    /// already holding entries, one the cap would cut, one holding a key of
    /// another shard) is admitted cell by cell, each unpacked and repacked
    /// against the name table of its own shard, until that shard is at
    /// capacity; a skipped cell is tallied in
    /// [`ReportCache::capped_inserts`] and only costs a recompute later.
    pub fn hydrate(&self, shards: impl IntoIterator<Item = CellMap>) -> usize {
        let mut admitted = 0;
        for (i, cells) in shards.into_iter().enumerate() {
            let own = self.shards.get(i);
            if let Some(shard) = own.filter(|_| cells.keys().all(|key| Self::shard_of(key) == i)) {
                let mut shard = shard.lock().unwrap();
                if shard.is_empty() && cells.len() <= self.per_shard_capacity {
                    admitted += cells.len();
                    *shard = cells;
                    continue;
                }
            }
            for (key, slim) in cells.iter() {
                let mut shard = self.shard(key).lock().unwrap();
                if shard.len() < self.per_shard_capacity {
                    shard.insert(key, &slim);
                    admitted += 1;
                } else {
                    self.capped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.hydrated.fetch_add(admitted as u64, Ordering::Relaxed);
        admitted
    }

    /// Registers (or clears) the durable-store spill hook. See the type
    /// docs: the callback observes every *computed* cell, keyed exactly as
    /// the cache stores it.
    pub fn set_spill(&self, spill: Option<Arc<SpillFn>>) {
        *self.spill.lock().unwrap() = spill;
    }

    /// Completed-run lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a real run so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Inserts (computed or hydrated) skipped because the target shard was
    /// at capacity. The cache never evicts — it stops admitting — so this
    /// is the "eviction" observability counter: a nonzero value means the
    /// in-memory cache is full and store hydration is partially effective.
    pub fn capped_inserts(&self) -> u64 {
        self.capped.load(Ordering::Relaxed)
    }

    /// Cells admitted by [`ReportCache::hydrate`] so far.
    pub fn hydrated(&self) -> u64 {
        self.hydrated.load(Ordering::Relaxed)
    }

    /// Number of cached runs.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Drops every entry, frees the shard tables and zeroes the tallies
    /// (the spill hook, if any, stays registered). A cache that is cleared
    /// and then hydrated adopts a store's maps in place of its tables, so
    /// tables kept for reuse would only sit allocated beside those maps
    /// while the store decodes them.
    pub fn clear(&self) {
        for s in &self.shards {
            *s.lock().unwrap() = CellMap::new();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.capped.store(0, Ordering::Relaxed);
        self.hydrated.store(0, Ordering::Relaxed);
    }
}
