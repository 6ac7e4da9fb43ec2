//! Durable, content-addressed sweep store — the on-disk twin of
//! `fd_detectors::ReportCache`.
//!
//! A [`SweepStore`] owns a **run directory** and persists every computed
//! [`SlimReport`] cell under the exact key the in-memory cache uses:
//! `(salt, seed)` where `salt = ReportCache::salt(cache_tag, spec)` digests
//! the scenario name ⊕ [`ScenarioSpec::fingerprint`]. Because the key is
//! content-addressed, any later invocation that sweeps the same scenario
//! spec — same process or not, either event core — resumes from the
//! directory with pure cache hits and a bit-identical summary.
//!
//! ## Directory layout
//!
//! ```text
//! rundir/
//!   manifest.json               # format + engine version, registered specs,
//!                               # per-invocation bookkeeping
//!   shards/
//!     s03-g000001.jsonl         # cell segments: one canonical-JSON cell
//!     s03-g000002.jsonl         # per line, sharded as the cache is, ordered
//!     ...                       # by generation (last write wins)
//!   stale-0/                    # shards archived on a manifest mismatch
//! ```
//!
//! ## Cell codec
//!
//! A cell is one line of canonical JSON — keys sorted, no whitespace, so a
//! run directory stays `grep`-able and a cell has exactly one spelling.
//! Neither direction builds a [`json::Json`] tree: [`encode_cell`] writes the
//! line straight into one exactly-sized `String`, and [`decode_cell`] pulls
//! the fields straight off a [`json::Reader`] into the [`SlimReport`],
//! allocating only what the report owns (detail, decided values, counters),
//! the two lists once each at exactly their length. Opening a store
//! decodes every line into one reused scratch report instead, which
//! allocates only while its buffers grow. A resumed campaign decodes every
//! stored cell before it computes anything, so this path is the store's
//! recovery cost. What the decoder
//! accepts is wider than what the encoder writes — any key order, unknown
//! members, repeated keys (the last one decides): exactly what reading the
//! members off a parsed tree accepts, which a `#[cfg(test)]` tree codec
//! pins on a differential corpus.
//!
//! ## Crash safety and batching
//!
//! Cells are never written in place, and the store keeps none in memory.
//! A writer thread holds at most one open segment per shard: a temp file
//! (`.tmp-sNN`, a name the loader never reads) to which it appends each new
//! cell's line as the cell arrives. At `BATCH` (128) lines, on
//! [`SweepStore::flush`] and on close it **seals** the segment —
//! `sync_all`, then an atomic rename to its `sNN-gGGGGGG.jsonl` name — so a
//! segment is either fully visible or absent, never partial. A crash loses
//! at most the unsealed lines of each shard (those cells are simply
//! recomputed on resume, and the next open deletes the temp files they
//! sat in); it can never corrupt a sealed segment. The sweep's critical
//! path pays one clone and one channel send per computed cell — no I/O, no
//! fsync — and the thread starts with the first spilled cell: a session
//! that only resumes starts none.
//!
//! On open, the files in `shards/` that carry a segment's exact name are
//! replayed in generation order (last-wins per key); the store's own temp
//! names are deleted, and any other file there is not the store's and is
//! neither read, counted nor deleted. A line that does not decode —
//! truncated, garbled, or nested deep enough to be an attack on a
//! recursive parser — is one corrupt line: counted, dropped, its cell
//! recomputed. Multi-segment or corruption-scarred shards are compacted
//! back to a single clean segment, through the same append-and-seal writer.
//!
//! ## One resident copy, packed
//!
//! A cell is resident once, whether it was read back or computed, and as
//! one exactly-sized block of packed bytes ([`CellMap`]: varint fields,
//! names as ids into a per-shard table, the detail), not as a
//! [`SlimReport`] and its three heap blocks. The store shards by the
//! report cache's own shard function ([`ReportCache::shard_of`]), so open
//! decodes each line into the scratch report and packs it straight into
//! the map of the cache shard it belongs to — one allocation per cell —
//! and [`SweepStore::hydrate_into`] hands those maps over instead of
//! copying them: an empty cache shard adopts its map without repacking a
//! cell or re-hashing a key. A computed cell is packed into the cache from
//! the runner's borrow; the writer holds a clone only while it encodes its
//! line into the shard's open segment. The store keeps neither; the
//! writer deduplicates against its own set of the keys on disk, built at
//! open, so a cell already persisted is never written twice even after it
//! has moved into a cache.
//!
//! ## Mismatch semantics
//!
//! The manifest records the store format and the engine version that wrote
//! the directory. The cache salt is FNV-1a-64 of the scenario tag and the
//! spec fingerprint, itself FNV-1a-64 of the spec's canonical bytes, so a
//! key means the same thing on every build, toolchain and platform; only a
//! new format or engine version invalidates a directory. When the
//! manifest does not match this binary, [`SweepStore::open`] archives the
//! existing shards to a `stale-N/` subdirectory and starts clean: nothing
//! is hydrated, every cell is recomputed and rewritten. Never a panic,
//! never a wrong report — worst case is a cold sweep.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use fd_detectors::scenario::{
    CellMap, Metrics, ReportCache, ScenarioSpec, SlimReport, SpillFn, CACHE_SHARDS,
};
use fd_detectors::ViolationClass;
use fd_sim::Time;

use crate::json::{self, escape_into, Reader};

/// On-disk shard count: the cache's own. Segment `sNN` holds the cells of
/// cache shard `NN` ([`ReportCache::shard_of`]), so a loaded shard is a
/// cache shard's map, ready to be adopted whole. The shard is a storage
/// bucket, not part of the key.
pub const STORE_SHARDS: usize = CACHE_SHARDS;

/// Store format version; bumped on any layout, codec or key change.
/// v2: cells carry the machine-readable `class` of a failed check.
/// v3: salts are FNV-1a-64 of the canonical spec bytes, not `DefaultHasher`
/// digests.
pub const STORE_FORMAT: u64 = 3;

/// Lines a shard's open segment takes before the writer seals it. Small
/// enough that an interrupted sweep loses little; large enough that a
/// million-seed campaign writes thousands — not millions — of files.
const BATCH: usize = 128;

fn engine_version() -> String {
    // The package version alone. Builds share it on purpose: the salt is a
    // fixed hash of fixed bytes and the engine is the same in each, so any
    // build — debug or release, any toolchain — resumes another's
    // directory.
    format!("fd-bench {}", env!("CARGO_PKG_VERSION"))
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

/// Returns a `&'static str` equal to `s`, leaking at most once per distinct
/// string. `SlimReport` holds `&'static str` scenario and counter names;
/// cells read back from disk reconstruct them here. The leak is bounded by
/// the number of distinct scenario/counter names ever stored — a handful.
///
/// A run directory repeats that handful in every cell, so each thread keeps
/// the names it has seen in a small memo of its own and scans it first: a
/// load takes the pool's lock once per distinct name, not once per
/// occurrence. Names the memo has no room for go to the pool every time.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    thread_local! {
        static SEEN: RefCell<([&'static str; 16], usize)> = const { RefCell::new(([""; 16], 0)) };
    }
    SEEN.with_borrow_mut(|(names, len)| {
        if let Some(seen) = names[..*len].iter().find(|name| **name == s) {
            return *seen;
        }
        let mut pool = POOL
            .get_or_init(|| Mutex::new(HashSet::new()))
            .lock()
            .expect("no panic while the name pool is locked");
        let name = match pool.get(s) {
            Some(existing) => *existing,
            None => {
                let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
                pool.insert(leaked);
                leaked
            }
        };
        if let Some(slot) = names.get_mut(*len) {
            *slot = name;
            *len += 1;
        }
        name
    })
}

// ---------------------------------------------------------------------------
// Cell codec
// ---------------------------------------------------------------------------
//
//   {"class":…,"counters":[["name",n],…],"detail":…,"metrics":{"decided":[…],
//    "delivered":…,"events":…,"first_decision":…,"last_decision":…,
//    "max_round":…,"msgs_sent":…,"rb_sent":…},"num_faulty":…,"ok":…,"salt":…,
//    "scenario":…,"seed":…,"stabilized_at":…}

/// Bytes of a cell line that are not a value: braces, keys, separators and
/// the quotes around `class`, `detail` and `scenario`.
const CELL_LITERALS: usize = 225;

/// Decimal digits of `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

fn opt_time_len(t: Option<Time>) -> usize {
    t.map_or("null".len(), |t| digits(t.0))
}

fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

fn push_opt_time(out: &mut String, t: Option<Time>) {
    match t {
        Some(t) => push_u64(out, t.0),
        None => out.push_str("null"),
    }
}

/// Encodes one cell as a single canonical JSON line (no trailing newline).
pub fn encode_cell(salt: u64, seed: u64, slim: &SlimReport) -> String {
    let mut out = String::with_capacity(cell_len(salt, seed, slim));
    push_cell(&mut out, salt, seed, slim);
    out
}

/// The length of [`encode_cell`]'s line: exact unless `detail` or a name
/// needs escaping, so the line is allocated once.
fn cell_len(salt: u64, seed: u64, slim: &SlimReport) -> usize {
    let (check, m) = (&slim.check, &slim.metrics);
    CELL_LITERALS
        + check.class.name().len()
        + if check.ok { "true" } else { "false" }.len()
        + check.detail.len()
        + slim.scenario.len()
        + [salt, seed, slim.num_faulty as u64]
            .iter()
            .chain([m.msgs_sent, m.rb_sent, m.delivered, m.events, m.max_round].iter())
            .chain(m.decided_values.iter())
            .map(|&v| digits(v))
            .sum::<usize>()
        + [check.stabilized_at, m.first_decision, m.last_decision]
            .into_iter()
            .map(opt_time_len)
            .sum::<usize>()
        + m.decided_values.len().saturating_sub(1)
        + slim.counters.len().saturating_sub(1)
        + slim
            .counters
            .iter()
            .map(|&(name, v)| "[\"\",]".len() + name.len() + digits(v))
            .sum::<usize>()
}

/// Appends [`encode_cell`]'s line to `out`.
fn push_cell(out: &mut String, salt: u64, seed: u64, slim: &SlimReport) {
    let (check, m) = (&slim.check, &slim.metrics);
    out.push_str("{\"class\":\"");
    out.push_str(check.class.name());
    out.push_str("\",\"counters\":[");
    for (i, &(name, v)) in slim.counters.iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        escape_into(name, out);
        out.push(',');
        push_u64(out, v);
        out.push(']');
    }
    out.push_str("],\"detail\":");
    escape_into(&check.detail, out);
    out.push_str(",\"metrics\":{\"decided\":[");
    for (i, &v) in m.decided_values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, v);
    }
    out.push_str("],\"delivered\":");
    push_u64(out, m.delivered);
    out.push_str(",\"events\":");
    push_u64(out, m.events);
    out.push_str(",\"first_decision\":");
    push_opt_time(out, m.first_decision);
    out.push_str(",\"last_decision\":");
    push_opt_time(out, m.last_decision);
    out.push_str(",\"max_round\":");
    push_u64(out, m.max_round);
    out.push_str(",\"msgs_sent\":");
    push_u64(out, m.msgs_sent);
    out.push_str(",\"rb_sent\":");
    push_u64(out, m.rb_sent);
    out.push_str("},\"num_faulty\":");
    push_u64(out, slim.num_faulty as u64);
    out.push_str(",\"ok\":");
    out.push_str(if check.ok { "true" } else { "false" });
    out.push_str(",\"salt\":");
    push_u64(out, salt);
    out.push_str(",\"scenario\":");
    escape_into(slim.scenario, out);
    out.push_str(",\"seed\":");
    push_u64(out, seed);
    out.push_str(",\"stabilized_at\":");
    push_opt_time(out, check.stabilized_at);
    out.push('}');
}

/// Decodes one cell line. Any structural problem — bad JSON, missing field,
/// wrong type — is an `Err`; the store counts it as corrupt and recomputes.
pub fn decode_cell(line: &str) -> Result<((u64, u64), SlimReport), String> {
    let mut slim = SlimReport::default();
    let key = decode_cell_into(line, &mut slim)?;
    Ok((key, slim))
}

/// [`decode_cell`] into `slim`, refilling the detail, decided values and
/// counters it already owns: a load decodes every line of a run directory
/// into one scratch report, which allocates only while its buffers grow.
/// After an `Err`, `slim` holds whatever was read before it.
fn decode_cell_into(line: &str, slim: &mut SlimReport) -> Result<(u64, u64), String> {
    let (mut salt, mut seed, mut num_faulty, mut ok) = (None, None, None, None);
    let (mut scenario, mut class) = (None, None);
    // Whether the last occurrence of each member read into `slim`.
    let (mut detail, mut metrics, mut counters) = (false, false, false);
    let mut stabilized_at: OptTime = Some(None);
    // Scratch for strings with escapes; never allocated for the others.
    let buf = &mut String::new();
    let mut r = Reader::new(line);
    r.begin_obj()?;
    while let Some(key) = r.key(buf)? {
        match key {
            "salt" => salt = member(&mut r, buf, |r, _| r.u64())?,
            "seed" => seed = member(&mut r, buf, |r, _| r.u64())?,
            "num_faulty" => num_faulty = member(&mut r, buf, |r, _| r.u64())?,
            "ok" => ok = member(&mut r, buf, |r, _| r.bool())?,
            "stabilized_at" => stabilized_at = member(&mut r, buf, |r, _| r.opt_u64())?,
            "scenario" => scenario = member(&mut r, buf, |r, buf| Ok(intern(r.str(buf)?)))?,
            "detail" => {
                detail = member(&mut r, buf, |r, buf| {
                    let text = r.str(buf)?;
                    slim.check.detail.clear();
                    slim.check.detail.push_str(text);
                    Ok(())
                })?
                .is_some()
            }
            "class" => {
                class = member(&mut r, buf, |r, buf| {
                    ViolationClass::from_name(r.str(buf)?).ok_or_else(|| "bad class".into())
                })?
            }
            "metrics" => {
                metrics = member(&mut r, buf, |r, buf| {
                    decode_metrics(r, buf, &mut slim.metrics)
                })?
                .is_some()
            }
            "counters" => {
                counters = member(&mut r, buf, |r, buf| {
                    decode_counters(r, buf, &mut slim.counters)
                })?
                .is_some()
            }
            _ => r.skip(buf)?,
        }
    }
    r.end()?;
    let present = |read: bool, what: &str| {
        if read {
            Ok(())
        } else {
            Err(format!("missing/bad {what}"))
        }
    };
    let key = (
        salt.ok_or("missing/bad salt")?,
        seed.ok_or("missing/bad seed")?,
    );
    slim.scenario = scenario.ok_or("missing/bad scenario")?;
    slim.seed = key.1;
    slim.num_faulty = num_faulty.ok_or("missing/bad num_faulty")? as usize;
    slim.check.ok = ok.ok_or("missing/bad ok")?;
    slim.check.stabilized_at = opt_time(stabilized_at, "stabilized_at")?;
    present(detail, "detail")?;
    slim.check.class = class.ok_or("missing/bad class")?;
    present(metrics, "metrics")?;
    present(counters, "counters")?;
    Ok(key)
}

/// Reads one member's value with `read`. A value of another shape is
/// skipped (its syntax still checked) and reads as `None` — the member is
/// then as good as absent, unless a later duplicate of its key supplies it.
fn member<'a, T>(
    r: &mut Reader<'a>,
    buf: &mut String,
    read: impl FnOnce(&mut Reader<'a>, &mut String) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let start = *r;
    match read(r, buf) {
        Ok(value) => Ok(Some(value)),
        Err(_) => {
            *r = start;
            r.skip(buf)?;
            Ok(None)
        }
    }
}

/// A `null`-or-`u64` member: `Some(None)` while absent or `null`, `None`
/// once an occurrence had another shape.
type OptTime = Option<Option<u64>>;

fn opt_time(t: OptTime, what: &str) -> Result<Option<Time>, String> {
    Ok(t.ok_or_else(|| format!("bad {what}"))?.map(Time))
}

/// Elements a decoded list gathers on the stack before it allocates.
const LIST_ON_STACK: usize = 16;

/// Refills `list` with the elements `next` yields until it yields `None`.
/// Up to [`LIST_ON_STACK`] of them are gathered on the stack first, so a
/// list with room takes them without allocating and one without is
/// allocated once, at exactly their number; a longer list grows as a `Vec`
/// from there.
fn fill_list<T: Copy>(
    list: &mut Vec<T>,
    blank: T,
    mut next: impl FnMut() -> Result<Option<T>, String>,
) -> Result<(), String> {
    let mut head = [blank; LIST_ON_STACK];
    list.clear();
    for len in 0..LIST_ON_STACK {
        match next()? {
            Some(v) => head[len] = v,
            None => {
                list.reserve_exact(len);
                list.extend_from_slice(&head[..len]);
                return Ok(());
            }
        }
    }
    list.reserve_exact(LIST_ON_STACK);
    list.extend_from_slice(&head);
    while let Some(v) = next()? {
        list.push(v);
    }
    Ok(())
}

/// `[["name", n], …]`: each element an array of exactly a string and a `u64`.
fn decode_counters(
    r: &mut Reader,
    buf: &mut String,
    counters: &mut Vec<(&'static str, u64)>,
) -> Result<(), String> {
    r.begin_arr()?;
    fill_list(counters, ("", 0), || {
        if !r.more()? {
            return Ok(None);
        }
        r.begin_arr()?;
        if !r.more()? {
            return Err("bad counter".into());
        }
        let name = intern(r.str(buf)?);
        if !r.more()? {
            return Err("bad counter".into());
        }
        let counter = (name, r.u64()?);
        if r.more()? {
            return Err("bad counter".into());
        }
        Ok(Some(counter))
    })
}

/// The `metrics` object into `m`, refilling its decided values.
fn decode_metrics(r: &mut Reader, buf: &mut String, m: &mut Metrics) -> Result<(), String> {
    let (mut msgs_sent, mut rb_sent, mut delivered, mut events) = (None, None, None, None);
    let (mut max_round, mut decided) = (None, false);
    let (mut first_decision, mut last_decision): (OptTime, OptTime) = (Some(None), Some(None));
    r.begin_obj()?;
    while let Some(key) = r.key(buf)? {
        match key {
            "msgs_sent" => msgs_sent = member(r, buf, |r, _| r.u64())?,
            "rb_sent" => rb_sent = member(r, buf, |r, _| r.u64())?,
            "delivered" => delivered = member(r, buf, |r, _| r.u64())?,
            "events" => events = member(r, buf, |r, _| r.u64())?,
            "max_round" => max_round = member(r, buf, |r, _| r.u64())?,
            "first_decision" => first_decision = member(r, buf, |r, _| r.opt_u64())?,
            "last_decision" => last_decision = member(r, buf, |r, _| r.opt_u64())?,
            "decided" => {
                decided = member(r, buf, |r, _| {
                    r.begin_arr()?;
                    fill_list(&mut m.decided_values, 0, || {
                        r.more()?.then(|| r.u64()).transpose()
                    })
                })?
                .is_some()
            }
            _ => r.skip(buf)?,
        }
    }
    m.msgs_sent = msgs_sent.ok_or("missing/bad metrics.msgs_sent")?;
    m.rb_sent = rb_sent.ok_or("missing/bad metrics.rb_sent")?;
    m.delivered = delivered.ok_or("missing/bad metrics.delivered")?;
    m.events = events.ok_or("missing/bad metrics.events")?;
    m.max_round = max_round.ok_or("missing/bad metrics.max_round")?;
    if !decided {
        return Err("missing/bad metrics.decided".into());
    }
    m.first_decision = opt_time(first_decision, "first_decision")?;
    m.last_decision = opt_time(last_decision, "last_decision")?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One scenario spec registered in a run directory's manifest — enough to
/// map a cell salt back to a human label in `analyze`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecEntry {
    /// Human label (e.g. `"grid n=5 t=2 k=1 f=2"`).
    pub label: String,
    /// The scenario's `cache_tag()`.
    pub scenario: String,
    /// `ScenarioSpec::fingerprint()` of the registered spec.
    pub fingerprint: u64,
    /// The content-address salt cells of this spec are stored under.
    pub salt: u64,
}

/// Bookkeeping for one `--store` invocation, appended to the manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct InvocationRecord {
    /// Total runs requested.
    pub runs: u64,
    /// Runs served from cache (memory or hydrated store).
    pub hits: u64,
    /// Runs actually computed.
    pub misses: u64,
    /// Cells newly persisted by this invocation.
    pub wrote: u64,
    /// Wall time of the sweep portion, microseconds.
    pub wall_us: u64,
}

/// The run directory's metadata file.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    /// Store format version ([`STORE_FORMAT`] when written by this binary).
    pub format: u64,
    /// Engine that wrote the directory (see mismatch semantics).
    pub engine: String,
    /// Registered scenario specs, in registration order.
    pub specs: Vec<SpecEntry>,
    /// One record per `--store` invocation against this directory.
    pub invocations: Vec<InvocationRecord>,
}

impl Manifest {
    fn fresh() -> Manifest {
        Manifest {
            format: STORE_FORMAT,
            engine: engine_version(),
            specs: Vec::new(),
            invocations: Vec::new(),
        }
    }

    /// Whether a loaded manifest was written by this binary's codec.
    pub fn matches_engine(&self) -> bool {
        self.format == STORE_FORMAT && self.engine == engine_version()
    }

    /// The spec label registered for `salt`, if any.
    pub fn label_for_salt(&self, salt: u64) -> Option<&str> {
        self.specs
            .iter()
            .find(|s| s.salt == salt)
            .map(|s| s.label.as_str())
    }

    /// The manifest as one line of canonical JSON, written member by
    /// member (keys in ascending order) through a [`json::Writer`]: no tree
    /// of the document is built, so committing the manifest of a large
    /// campaign holds only its text.
    fn emit(&self) -> String {
        let mut out = String::new();
        let mut w = json::Writer::new(&mut out);
        w.begin_obj();
        w.key("engine");
        w.str(&self.engine);
        w.key("format");
        w.u64(self.format);
        w.key("invocations");
        w.begin_arr();
        for inv in &self.invocations {
            w.item();
            w.begin_obj();
            for (key, v) in [
                ("hits", inv.hits),
                ("misses", inv.misses),
                ("runs", inv.runs),
                ("wall_us", inv.wall_us),
                ("wrote", inv.wrote),
            ] {
                w.key(key);
                w.u64(v);
            }
            w.end_obj();
        }
        w.end_arr();
        w.key("specs");
        w.begin_arr();
        for spec in &self.specs {
            w.item();
            w.begin_obj();
            w.key("fingerprint");
            w.u64(spec.fingerprint);
            w.key("label");
            w.str(&spec.label);
            w.key("salt");
            w.u64(spec.salt);
            w.key("scenario");
            w.str(&spec.scenario);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        out
    }

    /// `format` and `engine` decide whether the directory is ours and must
    /// be there; a missing `specs` or `invocations` list reads as empty
    /// and a missing invocation tally as 0 (bookkeeping, not identity).
    fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let specs = doc
            .arr_at("specs")
            .unwrap_or(&[])
            .iter()
            .map(|s| {
                Ok(SpecEntry {
                    label: s.str_at("label")?.to_string(),
                    scenario: s.str_at("scenario")?.to_string(),
                    fingerprint: s.u64_at("fingerprint")?,
                    salt: s.u64_at("salt")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let invocations = doc
            .arr_at("invocations")
            .unwrap_or(&[])
            .iter()
            .map(|inv| InvocationRecord {
                runs: inv.u64_at("runs").unwrap_or(0),
                hits: inv.u64_at("hits").unwrap_or(0),
                misses: inv.u64_at("misses").unwrap_or(0),
                wrote: inv.u64_at("wrote").unwrap_or(0),
                wall_us: inv.u64_at("wall_us").unwrap_or(0),
            })
            .collect();
        Ok(Manifest {
            format: doc.u64_at("format")?,
            engine: doc.str_at("engine")?.to_string(),
            specs,
            invocations,
        })
    }
}

// ---------------------------------------------------------------------------
// Segment I/O
// ---------------------------------------------------------------------------

fn segment_name(shard: usize, generation: u64) -> String {
    format!("s{shard:02}-g{generation:06}.jsonl")
}

/// The inverse of [`segment_name`], and nothing more: `None` for every file
/// name this store would not itself have written.
fn segment_of(name: &str) -> Option<(usize, u64)> {
    let (shard, generation) = name
        .strip_prefix('s')?
        .strip_suffix(".jsonl")?
        .split_once("-g")?;
    let (shard, generation) = (shard.parse().ok()?, generation.parse().ok()?);
    (shard < STORE_SHARDS && segment_name(shard, generation) == name).then_some((shard, generation))
}

/// The temp name of `shard`'s open segment. Not a segment name, so the
/// loader never reads it; a killed writer leaves it behind, and the next
/// open deletes it.
fn temp_name(shard: usize) -> String {
    format!(".tmp-s{shard:02}")
}

/// Whether `name` is one of the store's own temp names ([`temp_name`]).
fn is_temp_name(name: &str) -> bool {
    name.starts_with(".tmp-s") && (0..STORE_SHARDS).any(|shard| temp_name(shard) == name)
}

/// A shard's open segment: its temp file, to which cells are appended one
/// line at a time, until [`Segment::seal`] makes it a segment.
#[derive(Debug)]
struct Segment {
    file: fs::File,
    lines: usize,
}

impl Segment {
    fn create(shards_dir: &Path, shard: usize) -> io::Result<Segment> {
        let file = fs::File::create(shards_dir.join(temp_name(shard)))?;
        Ok(Segment { file, lines: 0 })
    }

    /// Appends the cell under `key`, encoded through the caller's reused
    /// `line` buffer.
    fn append(&mut self, line: &mut String, key: (u64, u64), slim: &SlimReport) -> io::Result<()> {
        line.clear();
        push_cell(line, key.0, key.1, slim);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.lines += 1;
        Ok(())
    }

    /// `sync_all`, then the atomic rename to `shard`'s segment of
    /// `generation`: the segment is either fully visible or absent — never
    /// partial. Returns the lines it holds.
    fn seal(self, shards_dir: &Path, shard: usize, generation: u64) -> io::Result<usize> {
        let Segment { file, lines } = self;
        file.sync_all()?;
        drop(file);
        fs::rename(
            shards_dir.join(temp_name(shard)),
            shards_dir.join(segment_name(shard, generation)),
        )?;
        Ok(lines)
    }
}

/// Atomically replaces `path` with `contents` (temp + rename).
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

struct LoadedShards {
    /// Deduped cells, last write wins, one map per shard: `maps[s]` holds
    /// the cells [`ReportCache::shard_of`] puts in shard `s`, whichever
    /// segment they were read from.
    maps: Vec<CellMap>,
    /// Unreadable lines dropped during replay.
    corrupt: u64,
    /// The segments replayed, as `(shard, generation)` in replay order.
    /// Any other file in the directory is not the store's: never loaded,
    /// never counted, never deleted.
    segments: Vec<(usize, u64)>,
    /// Shards that should be compacted (multiple segments, or corruption).
    dirty_shards: Vec<usize>,
}

/// Replays every segment under `shards_dir` in generation order, decoding
/// each line into one scratch report and packing it straight into its
/// shard's map: one allocation per cell, its packed bytes.
fn load_shards(shards_dir: &Path) -> io::Result<LoadedShards> {
    let mut maps: Vec<CellMap> = (0..STORE_SHARDS).map(|_| CellMap::new()).collect();
    let mut scratch = SlimReport::default();
    let mut corrupt = 0u64;
    let mut segments_per_shard = [0u32; STORE_SHARDS];
    let mut corrupt_in_shard = [false; STORE_SHARDS];
    let mut segments: Vec<(usize, u64)> = Vec::new();
    if shards_dir.is_dir() {
        for entry in fs::read_dir(shards_dir)? {
            if let Some(segment) = entry?.file_name().to_str().and_then(segment_of) {
                segments.push(segment);
            }
        }
    }
    // Last-wins dedup only cares about order *within* a shard.
    segments.sort_unstable();
    for &(shard, generation) in &segments {
        segments_per_shard[shard] += 1;
        let text = fs::read_to_string(shards_dir.join(segment_name(shard, generation)))?;
        // Room for the segment's lines, but for no more cells than its
        // bytes could spell. A shard's one segment sizes its map exactly;
        // a shard of several grows once per segment, and is compacted.
        maps[shard].reserve(text.lines().count().min(text.len() / CELL_LITERALS));
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            match decode_cell_into(line, &mut scratch) {
                Ok(key) => maps[ReportCache::shard_of(key)].insert(key, &scratch),
                Err(_) => {
                    corrupt += 1;
                    corrupt_in_shard[shard] = true;
                }
            }
        }
    }
    let dirty_shards = (0..STORE_SHARDS)
        .filter(|&s| segments_per_shard[s] > 1 || corrupt_in_shard[s])
        .collect();
    Ok(LoadedShards {
        maps,
        corrupt,
        segments,
        dirty_shards,
    })
}

// ---------------------------------------------------------------------------
// Writer thread
// ---------------------------------------------------------------------------

enum Msg {
    Cell(u64, u64, SlimReport),
    Barrier(Sender<()>),
    Shutdown,
}

#[derive(Debug)]
struct Writer {
    shards_dir: PathBuf,
    /// The keys on disk at open, then every key this writer has appended.
    /// Its own set: the loaded cells themselves move into a cache.
    keys: HashSet<(u64, u64)>,
    /// Each shard's open segment, if it has one.
    open: Vec<Option<Segment>>,
    /// The one buffer every cell line is encoded in.
    line: String,
    generation: u64,
    wrote: Arc<AtomicU64>,
}

impl Writer {
    /// Moves the writer onto a thread of its own.
    fn start(self) -> WriterState {
        let (tx, rx) = mpsc::channel();
        match std::thread::Builder::new()
            .name("sweep-store-writer".into())
            .spawn(move || self.run(rx))
        {
            Ok(handle) => WriterState::Running(tx, handle),
            Err(e) => WriterState::Stopped(Some(e)),
        }
    }

    fn run(mut self, rx: mpsc::Receiver<Msg>) -> io::Result<()> {
        while let Ok(msg) = rx.recv() {
            match msg {
                Msg::Cell(salt, seed, slim) => {
                    let key = (salt, seed);
                    if !self.keys.insert(key) {
                        continue; // already on disk or appended
                    }
                    let shard = ReportCache::shard_of(key);
                    let segment = match &mut self.open[shard] {
                        Some(segment) => segment,
                        empty => empty.insert(Segment::create(&self.shards_dir, shard)?),
                    };
                    segment.append(&mut self.line, key, &slim)?;
                    if segment.lines >= BATCH {
                        self.seal(shard)?;
                    }
                }
                Msg::Barrier(ack) => {
                    self.seal_all()?;
                    let _ = ack.send(());
                }
                Msg::Shutdown => break,
            }
        }
        // Seal every open segment before the thread exits. mpsc is FIFO,
        // so everything sent before Shutdown has been received.
        self.seal_all()
    }

    fn seal_all(&mut self) -> io::Result<()> {
        (0..STORE_SHARDS).try_for_each(|shard| self.seal(shard))
    }

    /// Seals `shard`'s open segment, if it has one, as the next generation.
    fn seal(&mut self, shard: usize) -> io::Result<()> {
        if let Some(segment) = self.open[shard].take() {
            self.generation += 1;
            let lines = segment.seal(&self.shards_dir, shard, self.generation)?;
            self.wrote.fetch_add(lines as u64, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Where a store's writer is. The first spilled cell starts its thread, so
/// a store that only resumes never starts one.
#[derive(Debug)]
enum WriterState {
    /// No cell spilled yet.
    Idle(Writer),
    /// The writer thread, and the channel to it.
    Running(Sender<Msg>, JoinHandle<io::Result<()>>),
    /// Closed, or the thread could not be started (the error, which `close`
    /// reports): spilled cells are dropped.
    Stopped(Option<io::Error>),
}

impl WriterState {
    /// Sends `msg` to the writer thread, starting it if it is idle.
    fn send(&mut self, msg: Msg) {
        if let WriterState::Idle(_) = self {
            *self = match std::mem::replace(self, WriterState::Stopped(None)) {
                WriterState::Idle(writer) => writer.start(),
                state => state,
            };
        }
        if let WriterState::Running(tx, _) = self {
            let _ = tx.send(msg);
        }
    }
}

// ---------------------------------------------------------------------------
// SweepStore
// ---------------------------------------------------------------------------

/// Final accounting returned by [`SweepStore::close`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    /// Cells read back from the directory at open.
    pub loaded: usize,
    /// Corrupt lines dropped at open.
    pub corrupt: u64,
    /// Cells newly persisted during this store's lifetime.
    pub wrote: u64,
    /// Whether stale shards were archived on open (manifest mismatch).
    pub archived_stale: bool,
}

/// An open run directory: loaded cells, a manifest, and a writer that
/// persists new cells on a thread of its own, started by the first spilled
/// cell. See the module docs for the layout and durability contract.
#[derive(Debug)]
pub struct SweepStore {
    dir: PathBuf,
    /// The cells read back at open, one map per cache shard, until
    /// [`SweepStore::hydrate_into`] moves them into a cache.
    maps: Mutex<Vec<CellMap>>,
    /// Cells read back at open.
    loaded: usize,
    corrupt: u64,
    archived_stale: bool,
    manifest: Mutex<Manifest>,
    // label → index into `manifest.specs`, so re-registering a campaign's
    // specs against an already-populated manifest stays O(1) per spec
    // instead of a linear label scan (quadratic over large campaigns).
    spec_index: Mutex<HashMap<String, usize>>,
    writer: Arc<Mutex<WriterState>>,
    wrote: Arc<AtomicU64>,
}

impl SweepStore {
    /// Opens (creating if necessary) the run directory at `dir`, replaying
    /// existing segments into memory. On a manifest mismatch the existing
    /// shards are archived and the store starts empty — see module docs.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SweepStore> {
        let dir = dir.as_ref().to_path_buf();
        let shards_dir = dir.join("shards");
        fs::create_dir_all(&shards_dir)?;
        for entry in fs::read_dir(&shards_dir)? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(is_temp_name) {
                fs::remove_file(entry.path())?;
            }
        }

        let manifest_path = dir.join("manifest.json");
        let mut archived_stale = false;
        let mut manifest = match fs::read_to_string(&manifest_path) {
            Ok(text) => match Manifest::parse(&text) {
                Ok(m) if m.matches_engine() => m,
                // Unreadable or mismatched: both mean "not our cells".
                Ok(_) | Err(_) => {
                    archive_shards(&dir, &shards_dir)?;
                    archived_stale = true;
                    Manifest::fresh()
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // No manifest. If cells exist anyway (half-written run dir,
                // crashed before first close), treat them as stale too: the
                // salts cannot be trusted without a manifest.
                if shards_dir.read_dir()?.next().is_some() {
                    archive_shards(&dir, &shards_dir)?;
                    archived_stale = true;
                }
                Manifest::fresh()
            }
            Err(e) => return Err(e),
        };
        manifest.engine = engine_version();
        manifest.format = STORE_FORMAT;

        let loaded = load_shards(&shards_dir)?;
        let mut generation = loaded.segments.iter().map(|s| s.1).max().unwrap_or(0);

        // Compact: rewrite multi-segment or corruption-scarred shards as a
        // single clean segment, then delete the segments it replaces.
        let mut line = String::new();
        for &shard in &loaded.dirty_shards {
            generation += 1;
            if !loaded.maps[shard].is_empty() {
                let mut segment = Segment::create(&shards_dir, shard)?;
                for (key, slim) in loaded.maps[shard].iter() {
                    segment.append(&mut line, key, &slim)?;
                }
                segment.seal(&shards_dir, shard, generation)?;
            }
            for &(_, old) in loaded.segments.iter().filter(|s| s.0 == shard) {
                fs::remove_file(shards_dir.join(segment_name(shard, old)))?;
            }
        }

        let cells: usize = loaded.maps.iter().map(CellMap::len).sum();
        let mut keys = HashSet::with_capacity(cells);
        keys.extend(loaded.maps.iter().flat_map(CellMap::keys));
        let wrote = Arc::new(AtomicU64::new(0));
        let writer = Writer {
            shards_dir,
            keys,
            open: (0..STORE_SHARDS).map(|_| None).collect(),
            line: String::new(),
            generation,
            wrote: Arc::clone(&wrote),
        };

        let spec_index = manifest
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.label.clone(), i))
            .collect();
        Ok(SweepStore {
            dir,
            maps: Mutex::new(loaded.maps),
            loaded: cells,
            corrupt: loaded.corrupt,
            archived_stale,
            manifest: Mutex::new(manifest),
            spec_index: Mutex::new(spec_index),
            writer: Arc::new(Mutex::new(WriterState::Idle(writer))),
            wrote,
        })
    }

    /// The run directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cells read back from the directory at open.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Corrupt lines dropped at open.
    pub fn corrupt(&self) -> u64 {
        self.corrupt
    }

    /// Whether open archived stale shards (manifest mismatch).
    pub fn archived_stale(&self) -> bool {
        self.archived_stale
    }

    /// Cells sealed into segments so far by this store's writer.
    pub fn wrote(&self) -> u64 {
        self.wrote.load(Ordering::Relaxed)
    }

    /// Moves every loaded cell into `cache` ([`ReportCache::hydrate`]);
    /// returns how many were admitted. The store keeps no copy: a cleared
    /// cache adopts its per-shard maps whole, so a resumed cell is resident
    /// once, and a second call admits nothing ([`SweepStore::loaded`] still
    /// counts the cells read at open). Warm lookups then flow through the
    /// unchanged `Runner::with_cache` path — the store never sits on the
    /// sweep's read path.
    pub fn hydrate_into(&self, cache: &ReportCache) -> usize {
        let maps = std::mem::take(
            &mut *self
                .maps
                .lock()
                .expect("no panic while the loaded maps are locked"),
        );
        cache.hydrate(maps)
    }

    /// The spill hook to register on the cache
    /// (`cache.set_spill(Some(store.spill()))`): forwards every *computed*
    /// cell to the writer thread, which the first one starts. Cheap on the
    /// hot path (clone + channel send); deduplication against
    /// already-persisted cells happens on the writer side. Safe to leave
    /// registered after [`SweepStore::close`] — later cells are dropped.
    pub fn spill(&self) -> Arc<SpillFn> {
        let writer = Arc::clone(&self.writer);
        Arc::new(move |salt, seed, slim: &SlimReport| {
            let cell = Msg::Cell(salt, seed, slim.clone());
            writer
                .lock()
                .expect("no panic while the writer is locked")
                .send(cell);
        })
    }

    /// Registers a scenario spec in the manifest (replacing any previous
    /// entry with the same label), so `analyze` can map cell salts back to
    /// labels. Returns the content-address salt for the spec.
    pub fn register_spec(&self, label: &str, cache_tag: &str, spec: &ScenarioSpec) -> u64 {
        let salt = ReportCache::salt(cache_tag, spec);
        let entry = SpecEntry {
            label: label.to_string(),
            scenario: cache_tag.to_string(),
            fingerprint: spec.fingerprint(),
            salt,
        };
        let mut index = self.spec_index.lock().unwrap();
        let mut manifest = self.manifest.lock().unwrap();
        if let Some(&i) = index.get(&entry.label) {
            manifest.specs[i] = entry;
        } else {
            index.insert(entry.label.clone(), manifest.specs.len());
            manifest.specs.push(entry);
        }
        salt
    }

    /// Appends one invocation record to the manifest.
    pub fn record_invocation(&self, record: InvocationRecord) {
        self.manifest.lock().unwrap().invocations.push(record);
    }

    /// Writes the manifest now (atomically), without closing the store.
    ///
    /// A run directory is only trusted on open when a manifest is present
    /// — half-written shards without one are archived, not loaded. Long
    /// campaigns therefore commit the manifest right after registering
    /// their specs, *before* computing: a `SIGKILL` at any later point
    /// leaves a resumable directory in which every sealed segment loads,
    /// and only the cells of each shard's unsealed segment are recomputed.
    pub fn commit_manifest(&self) -> io::Result<()> {
        let manifest = self.manifest.lock().unwrap().emit();
        write_atomic(&self.dir.join("manifest.json"), &manifest)
    }

    /// Durability barrier: forces every cell spilled so far onto disk and
    /// waits for it. After this returns, [`SweepStore::wrote`] is exact —
    /// which is how invocation records report an accurate `wrote` count —
    /// and a crash loses nothing already computed. A store nothing was
    /// spilled to has nothing to flush.
    pub fn flush(&self) -> io::Result<u64> {
        let stopped = || io::Error::other("store writer stopped");
        let ack_rx = match &*self
            .writer
            .lock()
            .expect("no panic while the writer is locked")
        {
            WriterState::Idle(_) => return Ok(self.wrote()),
            WriterState::Running(tx, _) => {
                let (ack_tx, ack_rx) = mpsc::channel();
                tx.send(Msg::Barrier(ack_tx)).map_err(|_| stopped())?;
                ack_rx
            }
            WriterState::Stopped(_) => return Err(stopped()),
        };
        ack_rx.recv().map_err(|_| stopped())?;
        Ok(self.wrote())
    }

    /// Seals every open segment, stops the writer thread (if a spilled cell
    /// started one), and writes the manifest (atomically). The directory is
    /// complete and resumable once this returns.
    pub fn close(mut self) -> io::Result<StoreSummary> {
        self.shutdown()?;
        Ok(StoreSummary {
            loaded: self.loaded,
            corrupt: self.corrupt,
            wrote: self.wrote.load(Ordering::Relaxed),
            archived_stale: self.archived_stale,
        })
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let state = std::mem::replace(
            &mut *self
                .writer
                .lock()
                .expect("no panic while the writer is locked"),
            WriterState::Stopped(None),
        );
        match state {
            WriterState::Running(tx, handle) => {
                // Explicit sentinel: the spill closure shares the writer for
                // as long as its cache lives — which may be longer than this
                // store (a process-wide cache reused across stores) — so the
                // writer cannot rely on channel disconnect to stop.
                let _ = tx.send(Msg::Shutdown);
                handle
                    .join()
                    .map_err(|_| io::Error::other("store writer panicked"))??;
            }
            WriterState::Stopped(Some(e)) => return Err(e),
            WriterState::Idle(_) | WriterState::Stopped(None) => {}
        }
        let manifest = self.manifest.lock().unwrap().emit();
        write_atomic(&self.dir.join("manifest.json"), &manifest)
    }
}

impl Drop for SweepStore {
    fn drop(&mut self) {
        // Best-effort durability if the caller forgot (or panicked past)
        // `close()`; errors have nowhere to go here.
        let _ = self.shutdown();
    }
}

fn archive_shards(dir: &Path, shards_dir: &Path) -> io::Result<()> {
    for i in 0u32.. {
        let target = dir.join(format!("stale-{i}"));
        if !target.exists() {
            fs::rename(shards_dir, &target)?;
            break;
        }
    }
    fs::create_dir_all(shards_dir)
}

// ---------------------------------------------------------------------------
// StoreSession: what `--store DIR` means, for every bin
// ---------------------------------------------------------------------------

/// `--store DIR` as `sweep search` and `tables` both spell it: an
/// open run directory and the report cache it owns and hydrated, which
/// spills every newly computed cell back into it. The session prints
/// nothing — [`StoreSession::opened`] and [`StoreSession::close`] hand the
/// bin a status line for the channel of its choice (`tables` keeps stdout
/// for the tables).
#[derive(Debug)]
pub struct StoreSession {
    store: SweepStore,
    cache: ReportCache,
    hydrated: usize,
}

impl StoreSession {
    /// Opens (or creates) `dir`, lets `register` record the campaign's
    /// specs in its manifest, hydrates a fresh cache from the cells on disk
    /// and points the cache's spill hook at the directory.
    pub fn open(
        dir: impl AsRef<Path>,
        register: impl FnOnce(&SweepStore),
    ) -> io::Result<StoreSession> {
        let store = SweepStore::open(dir)?;
        register(&store);
        let cache = ReportCache::new();
        let hydrated = store.hydrate_into(&cache);
        cache.set_spill(Some(store.spill()));
        // Commit the manifest before computing anything: a killed campaign
        // then leaves a trusted, resumable run directory behind.
        store.commit_manifest()?;
        Ok(StoreSession {
            store,
            cache,
            hydrated,
        })
    }

    /// The cache this session hydrated; sweep through
    /// `runner.with_cache(session.cache())`.
    pub fn cache(&self) -> &ReportCache {
        &self.cache
    }

    /// One line on what the open found.
    pub fn opened(&self) -> String {
        format!(
            "store: opened {} — {} cell(s) on disk, {} hydrated, {} corrupt line(s){}",
            self.store.dir().display(),
            self.store.loaded(),
            self.hydrated,
            self.store.corrupt(),
            if self.store.archived_stale() {
                ", stale shards archived"
            } else {
                ""
            },
        )
    }

    /// Records this invocation of `runs` runs, flushes and closes the
    /// directory; `Ok` carries one line on what was written. With `resume`
    /// it is an `Err` unless every run (for `search`, shrink candidates
    /// included) was served from the directory.
    pub fn close(self, runs: u64, wall_us: u64, resume: bool) -> Result<String, String> {
        let StoreSession { store, cache, .. } = self;
        let wrote = store.flush().map_err(|e| format!("store flush: {e}"))?;
        let (hits, misses) = (cache.hits(), cache.misses());
        store.record_invocation(InvocationRecord {
            runs,
            hits,
            misses,
            wrote,
            wall_us,
        });
        let dir = store.dir().display().to_string();
        store.close().map_err(|e| format!("store close: {e}"))?;
        let mut line = format!(
            "store: closed {dir} — wrote {wrote} new cell(s), {hits} hits / {misses} misses \
             this run ({} hydrated, {} capped)",
            cache.hydrated(),
            cache.capped_inserts(),
        );
        if resume {
            let refused = if cache.hydrated() == 0 {
                Some("the store hydrated nothing (empty or mismatched run dir)")
            } else if misses != 0 {
                Some("cells were recomputed instead of served from the store")
            } else if hits != runs {
                Some("not every run was a hit")
            } else {
                None
            };
            if let Some(why) = refused {
                return Err(format!("{line}\n--resume: {why}"));
            }
            let _ = write!(
                line,
                "\nstore: resume verified — all {runs} runs served from the run directory"
            );
        }
        Ok(line)
    }
}

// ---------------------------------------------------------------------------
// Read-only loading (analyze)
// ---------------------------------------------------------------------------

/// A run directory loaded read-only — no writer thread, no compaction, no
/// archiving. What `analyze` consumes.
#[derive(Debug)]
pub struct RunDir {
    /// The directory path.
    pub dir: PathBuf,
    /// The parsed manifest (default/empty if missing or unreadable).
    pub manifest: Manifest,
    /// Deduped cells (last write wins), keyed `(salt, seed)`.
    pub cells: HashMap<(u64, u64), SlimReport>,
    /// Corrupt lines skipped.
    pub corrupt: u64,
}

/// Loads a run directory without mutating it. A path holding neither a
/// `manifest.json` nor a `shards/` directory is not a run directory:
/// [`io::ErrorKind::NotFound`], naming it.
pub fn load_run_dir(dir: impl AsRef<Path>) -> io::Result<RunDir> {
    let dir = dir.as_ref().to_path_buf();
    if !dir.join("manifest.json").is_file() && !dir.join("shards").is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "`{}` is not a run directory (no manifest.json, no shards/)",
                dir.display()
            ),
        ));
    }
    let manifest = fs::read_to_string(dir.join("manifest.json"))
        .ok()
        .and_then(|text| Manifest::parse(&text).ok())
        .unwrap_or_default();
    let loaded = load_shards(&dir.join("shards"))?;
    Ok(RunDir {
        dir,
        manifest,
        cells: loaded.maps.iter().flat_map(CellMap::iter).collect(),
        corrupt: loaded.corrupt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use fd_core::KsetScenario;
    use fd_detectors::scenario::{CrashPlan, Runner, Scenario};
    use fd_detectors::CheckOutcome;
    use fd_sim::SplitMix64;

    fn sample_slim(seed: u64) -> SlimReport {
        SlimReport {
            scenario: "store_probe",
            seed,
            num_faulty: 2,
            check: CheckOutcome {
                ok: !seed.is_multiple_of(3),
                stabilized_at: if seed.is_multiple_of(2) {
                    Some(Time(seed.wrapping_mul(7)))
                } else {
                    None
                },
                detail: format!("detail \"quoted\" \\ line\nπ #{seed}"),
                class: if seed.is_multiple_of(3) {
                    ViolationClass::ALL[(seed as usize / 3) % ViolationClass::ALL.len()]
                } else {
                    ViolationClass::None
                },
            },
            metrics: Metrics {
                msgs_sent: seed.wrapping_mul(11),
                rb_sent: seed,
                delivered: seed.wrapping_mul(13),
                events: u64::MAX - seed,
                max_round: 9,
                decided_values: vec![seed, 101],
                first_decision: Some(Time(3)),
                last_decision: None,
            },
            counters: vec![("decisions", seed), ("r1_echo", 2)],
        }
    }

    #[test]
    fn cell_codec_round_trips_exactly() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let slim = sample_slim(seed);
            let line = encode_cell(u64::MAX - 1, seed, &slim);
            let ((salt, got_seed), decoded) = decode_cell(&line).unwrap();
            assert_eq!(salt, u64::MAX - 1);
            assert_eq!(got_seed, seed);
            assert_eq!(decoded, slim);
            // Canonical: re-encoding the decoded cell is byte-identical.
            assert_eq!(encode_cell(salt, seed, &decoded), line);
        }
    }

    #[test]
    fn decode_rejects_malformed_cells() {
        let good = encode_cell(1, 2, &sample_slim(2));
        for bad in [
            "",
            "not json",
            "{}",
            "{\"salt\":1}",
            &good[..good.len() - 10], // truncated mid-write
            &good.replace("\"seed\":2", "\"seed\":\"x\""),
        ] {
            assert!(decode_cell(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn manifest_round_trips() {
        let mut m = Manifest::fresh();
        m.specs.push(SpecEntry {
            label: "grid n=5".into(),
            scenario: "mr:n5".into(),
            fingerprint: u64::MAX,
            salt: 12345,
        });
        m.invocations.push(InvocationRecord {
            runs: 300,
            hits: 0,
            misses: 300,
            wrote: 300,
            wall_us: 123_456,
        });
        let parsed = Manifest::parse(&m.emit()).unwrap();
        assert!(parsed.matches_engine());
        assert_eq!(parsed.specs, m.specs);
        assert_eq!(parsed.invocations, m.invocations);
        assert_eq!(parsed.label_for_salt(12345), Some("grid n=5"));
        assert_eq!(parsed.label_for_salt(1), None);
    }

    /// The streamed manifest is the tree emitter's, byte for byte: empty,
    /// with labels and tags that need escaping, and over many invocations.
    #[test]
    fn streamed_manifest_equals_the_tree_emitter() {
        let mut m = Manifest::fresh();
        assert_eq!(m.emit(), reference_emit(&m));
        let labels = [
            "grid n=5 t=2 k=1 f=2",
            "",
            "quoted \"label\" \\ slash/",
            "line\nbreak\r\ttab",
            "\u{0}\u{1}\u{1f}\u{7f}",
            "— π ≤ 𝔘 🦀",
        ];
        for (i, label) in labels.iter().enumerate() {
            m.specs.push(SpecEntry {
                label: label.to_string(),
                scenario: format!("tag \"{i}\"\n"),
                fingerprint: u64::MAX - i as u64,
                salt: i as u64,
            });
        }
        assert_eq!(m.emit(), reference_emit(&m));
        let mut rng = SplitMix64::new(0x3A_41F3);
        for i in 0..500u64 {
            m.invocations.push(InvocationRecord {
                runs: i,
                hits: rng.next_u64(),
                misses: rng.below(1000),
                wrote: if i % 2 == 0 { u64::MAX } else { 0 },
                wall_us: rng.next_u64() >> rng.below(64),
            });
        }
        m.engine = "engine \"x\" \\ 1.0".into();
        let streamed = m.emit();
        assert_eq!(streamed, reference_emit(&m));
        let parsed = Manifest::parse(&streamed).unwrap();
        assert_eq!((parsed.specs, parsed.invocations), (m.specs, m.invocations));
    }

    #[test]
    fn interned_names_are_pointer_stable() {
        let a = intern("some_counter");
        let b = intern("some_counter");
        assert!(std::ptr::eq(a, b));
        assert_eq!(intern("other"), "other");
        // More names than a thread's memo holds: the overflow is served by
        // the pool, and another thread gets the very same strings.
        let names: Vec<String> = (0..40).map(|i| format!("overflow_{i}")).collect();
        let here: Vec<&'static str> = names.iter().map(|n| intern(n)).collect();
        let again: Vec<&'static str> = names.iter().map(|n| intern(n)).collect();
        let there = std::thread::scope(|s| {
            s.spawn(|| names.iter().map(|n| intern(n)).collect::<Vec<_>>())
                .join()
                .unwrap()
        });
        for i in 0..names.len() {
            assert_eq!(here[i], names[i]);
            assert!(std::ptr::eq(here[i], again[i]) && std::ptr::eq(here[i], there[i]));
        }
    }

    /// A mistyped path is an error naming it, not an empty run; either a
    /// manifest or a shards directory alone still loads (a killed first
    /// invocation leaves just that).
    #[test]
    fn load_run_dir_rejects_a_path_that_is_no_run_directory() {
        let dir = std::env::temp_dir().join(format!("fd-store-typo-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for missing in [dir.clone(), dir.join("manifest.json")] {
            let err = load_run_dir(&missing).expect_err("no such run directory");
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
            assert!(err.to_string().contains(missing.to_str().unwrap()), "{err}");
        }
        // An existing directory that holds neither is no run directory either.
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            load_run_dir(&dir).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        fs::create_dir_all(dir.join("shards")).unwrap();
        assert!(load_run_dir(&dir).unwrap().cells.is_empty());
        fs::remove_dir_all(dir.join("shards")).unwrap();
        fs::write(dir.join("manifest.json"), "{}").unwrap();
        assert!(load_run_dir(&dir).unwrap().cells.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The files in `shards_dir`, by name, with their bytes.
    fn shard_files(shards_dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(shards_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| {
                (
                    p.file_name().unwrap().to_str().unwrap().to_owned(),
                    fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    /// A session that only resumes — open, hydrate, an all-hit sweep,
    /// close — starts no writer thread and writes nothing but the
    /// manifest; the first miss of a session starts the writer.
    #[test]
    fn a_resume_only_session_starts_no_writer() {
        let dir = std::env::temp_dir().join(format!("fd-store-lazy-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let spec = KsetScenario::spec(5, 2, 2).gst(Time(400));
        let running = |session: &StoreSession| {
            matches!(
                *session.store.writer.lock().unwrap(),
                WriterState::Running(..)
            )
        };
        let sweep = |session: &StoreSession, seeds| {
            Runner::sequential()
                .with_cache(session.cache())
                .sweep_summary(&KsetScenario, &spec, seeds)
        };

        let cold = StoreSession::open(&dir, |_| {}).unwrap();
        assert!(!running(&cold), "open starts no thread");
        let summary = sweep(&cold, 0..12);
        assert!(running(&cold));
        assert!(cold
            .close(12, 0, false)
            .unwrap()
            .contains("wrote 12 new cell(s)"));
        let (manifest, shards_dir) = (dir.join("manifest.json"), dir.join("shards"));
        let (manifest_before, shards_before) =
            (fs::read(&manifest).unwrap(), shard_files(&shards_dir));

        let warm = StoreSession::open(&dir, |_| {}).unwrap();
        assert_eq!(sweep(&warm, 0..12), summary);
        assert!(!running(&warm), "an all-hit sweep spills nothing");
        assert_eq!(warm.store.flush().unwrap(), 0);
        warm.close(12, 0, true).unwrap();
        assert_eq!(shard_files(&shards_dir), shards_before, "shards/ untouched");
        assert_ne!(
            fs::read(&manifest).unwrap(),
            manifest_before,
            "the invocation is recorded"
        );
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            2,
            "manifest.json and shards/ only"
        );

        let resumed = StoreSession::open(&dir, |_| {}).unwrap();
        sweep(&resumed, 0..12);
        assert!(!running(&resumed));
        sweep(&resumed, 12..13);
        assert!(running(&resumed), "the first miss starts the writer");
        assert!(resumed
            .close(13, 0, false)
            .unwrap()
            .contains("wrote 1 new cell(s)"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_names_parse_strictly() {
        for shard in 0..STORE_SHARDS {
            for generation in [0, 1, 42, 999_999, 1_000_000, u64::MAX] {
                let name = segment_name(shard, generation);
                assert_eq!(segment_of(&name), Some((shard, generation)), "{name}");
            }
        }
        for stray in [
            "",
            "s",
            "s.jsonl",
            "s1.jsonl",
            "s01.jsonl",
            "s01-g.jsonl",
            "s01-g1.jsonl",
            "s1-g000001.jsonl",
            "s001-g000001.jsonl",
            "sxx-gyyyyyy.jsonl",
            "s+1-g000001.jsonl",
            "s01-g+00001.jsonl",
            "s01-g0000001.jsonl",
            "s16-g000001.jsonl",
            "s99-g000001.jsonl",
            "s01-g000001.jsonl.tmp",
            ".tmp-s01-g000001",
            "t01-g000001.jsonl",
            "s01-h000001.jsonl",
            "s０１-g000001.jsonl",
            "sé-g000001.jsonl",
            "s01-g18446744073709551616.jsonl",
        ] {
            assert_eq!(segment_of(stray), None, "{stray:?} is not a segment name");
        }
        for shard in 0..STORE_SHARDS {
            assert!(is_temp_name(&temp_name(shard)));
            assert_eq!(segment_of(&temp_name(shard)), None);
        }
        for stray in [
            ".tmp-s",
            ".tmp-s1",
            ".tmp-s001",
            ".tmp-s+1",
            ".tmp-s16",
            ".tmp-s01-g000001",
            ".tmp-s01.jsonl",
            "tmp-s01",
            "manifest.tmp",
        ] {
            assert!(!is_temp_name(stray), "{stray:?} is not a temp name");
        }
    }

    /// The segment a key is written to, pinned to names the store's own
    /// former shard function (`mix % 16`) gave, before the store took the
    /// cache's (`mix & 15`): the on-disk layout did not move.
    #[test]
    fn segment_of_a_key_is_pinned() {
        let spec = KsetScenario::spec(5, 2, 2)
            .gst(Time(400))
            .crashes(CrashPlan::Random {
                f: 2,
                by: Time(500),
            });
        let salt = ReportCache::salt(&KsetScenario.cache_tag(), &spec);
        for (key, name) in [
            ((salt, 0), "s06-g000001.jsonl"),
            ((salt, 1), "s03-g000001.jsonl"),
            ((salt, 2), "s12-g000001.jsonl"),
            ((salt, 3), "s09-g000001.jsonl"),
            ((salt, 4), "s02-g000001.jsonl"),
            ((salt, 5), "s15-g000001.jsonl"),
            ((0, 0), "s00-g000001.jsonl"),
            ((1, 0), "s01-g000001.jsonl"),
            ((0, 1), "s05-g000001.jsonl"),
            ((u64::MAX, 7), "s12-g000001.jsonl"),
            ((0xDEAD_BEEF, 42), "s13-g000001.jsonl"),
            ((12345, 3), "s06-g000001.jsonl"),
        ] {
            assert_eq!(segment_name(ReportCache::shard_of(key), 1), name, "{key:?}");
        }
    }

    /// `decided` and `counters` decode at exactly their length up to the
    /// on-stack bound, and correctly past it.
    #[test]
    fn decoded_lists_are_exact_up_to_the_stack_bound() {
        for len in [
            0,
            1,
            LIST_ON_STACK - 1,
            LIST_ON_STACK,
            LIST_ON_STACK + 1,
            40,
        ] {
            let mut slim = sample_slim(len as u64);
            slim.metrics.decided_values = (0..len as u64).collect();
            slim.counters = (0..len as u64).map(|v| ("c", v)).collect();
            let (_, decoded) = decode_cell(&encode_cell(1, slim.seed, &slim)).unwrap();
            assert_eq!(decoded, slim, "{len} elements");
            if len <= LIST_ON_STACK {
                assert_eq!(decoded.metrics.decided_values.capacity(), len);
                assert_eq!(decoded.counters.capacity(), len);
            }
        }
    }

    /// The tree emitter the manifest was written with before it streamed,
    /// kept to pin the streaming one against, byte for byte.
    fn reference_emit(m: &Manifest) -> String {
        Json::obj([
            ("format", Json::num_u64(m.format)),
            ("engine", Json::str(&m.engine)),
            (
                "specs",
                Json::Arr(
                    m.specs
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("label", Json::str(&s.label)),
                                ("scenario", Json::str(&s.scenario)),
                                ("fingerprint", Json::num_u64(s.fingerprint)),
                                ("salt", Json::num_u64(s.salt)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "invocations",
                Json::Arr(
                    m.invocations
                        .iter()
                        .map(|inv| {
                            Json::obj([
                                ("runs", Json::num_u64(inv.runs)),
                                ("hits", Json::num_u64(inv.hits)),
                                ("misses", Json::num_u64(inv.misses)),
                                ("wrote", Json::num_u64(inv.wrote)),
                                ("wall_us", Json::num_u64(inv.wall_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .emit()
    }

    // -----------------------------------------------------------------
    // Reference codec: the `Json`-tree round trip the store shipped with
    // through PR 18, kept to pin the streaming codec against — byte for
    // byte on encode, verdict for verdict on decode.
    // -----------------------------------------------------------------

    fn reference_opt_time(t: Option<Time>) -> Json {
        match t {
            Some(t) => Json::num_u64(t.0),
            None => Json::Null,
        }
    }

    fn reference_decode_opt_time(v: Option<&Json>) -> Result<Option<Time>, String> {
        match v {
            None | Some(Json::Null) => Ok(None),
            Some(j) => j
                .as_u64()
                .map(|t| Some(Time(t)))
                .ok_or_else(|| "bad time".into()),
        }
    }

    fn reference_encode_cell(salt: u64, seed: u64, slim: &SlimReport) -> String {
        let m = &slim.metrics;
        Json::obj([
            ("salt", Json::num_u64(salt)),
            ("seed", Json::num_u64(seed)),
            ("scenario", Json::str(slim.scenario)),
            ("num_faulty", Json::num_u64(slim.num_faulty as u64)),
            ("ok", Json::Bool(slim.check.ok)),
            (
                "stabilized_at",
                reference_opt_time(slim.check.stabilized_at),
            ),
            ("detail", Json::str(&slim.check.detail)),
            ("class", Json::str(slim.check.class.name())),
            (
                "metrics",
                Json::obj([
                    ("msgs_sent", Json::num_u64(m.msgs_sent)),
                    ("rb_sent", Json::num_u64(m.rb_sent)),
                    ("delivered", Json::num_u64(m.delivered)),
                    ("events", Json::num_u64(m.events)),
                    ("max_round", Json::num_u64(m.max_round)),
                    (
                        "decided",
                        Json::Arr(m.decided_values.iter().map(|&v| Json::num_u64(v)).collect()),
                    ),
                    ("first_decision", reference_opt_time(m.first_decision)),
                    ("last_decision", reference_opt_time(m.last_decision)),
                ]),
            ),
            (
                "counters",
                Json::Arr(
                    slim.counters
                        .iter()
                        .map(|&(name, v)| Json::Arr(vec![Json::str(name), Json::num_u64(v)]))
                        .collect(),
                ),
            ),
        ])
        .emit()
    }

    fn reference_decode_cell(line: &str) -> Result<((u64, u64), SlimReport), String> {
        let doc = json::parse(line)?;
        let req_u64 = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing/bad {key}"))
        };
        let salt = req_u64("salt")?;
        let seed = req_u64("seed")?;
        let scenario = doc
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("missing scenario")?;
        let ok = doc.get("ok").and_then(Json::as_bool).ok_or("missing ok")?;
        let detail = doc
            .get("detail")
            .and_then(Json::as_str)
            .ok_or("missing detail")?;
        let class = doc
            .get("class")
            .and_then(Json::as_str)
            .and_then(ViolationClass::from_name)
            .ok_or("missing/bad class")?;
        let m = doc.get("metrics").ok_or("missing metrics")?;
        let m_u64 = |key: &str| -> Result<u64, String> {
            m.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing/bad metrics.{key}"))
        };
        let decided = m
            .get("decided")
            .and_then(Json::as_arr)
            .ok_or("missing decided")?
            .iter()
            .map(|v| v.as_u64().ok_or("bad decided value"))
            .collect::<Result<Vec<u64>, _>>()?;
        let counters = doc
            .get("counters")
            .and_then(Json::as_arr)
            .ok_or("missing counters")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("bad counter")?;
                let name = pair[0].as_str().ok_or("bad counter name")?;
                let v = pair[1].as_u64().ok_or("bad counter value")?;
                Ok::<(&'static str, u64), String>((intern(name), v))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let slim = SlimReport {
            scenario: intern(scenario),
            seed,
            num_faulty: req_u64("num_faulty")? as usize,
            check: CheckOutcome {
                ok,
                stabilized_at: reference_decode_opt_time(doc.get("stabilized_at"))?,
                detail: detail.to_string(),
                class,
            },
            metrics: Metrics {
                msgs_sent: m_u64("msgs_sent")?,
                rb_sent: m_u64("rb_sent")?,
                delivered: m_u64("delivered")?,
                events: m_u64("events")?,
                max_round: m_u64("max_round")?,
                decided_values: decided,
                first_decision: reference_decode_opt_time(m.get("first_decision"))?,
                last_decision: reference_decode_opt_time(m.get("last_decision"))?,
            },
            counters,
        };
        Ok(((salt, seed), slim))
    }

    // -----------------------------------------------------------------
    // Differential corpus
    // -----------------------------------------------------------------

    const EDGE_U64: [u64; 8] = [
        0,
        1,
        9,
        10,
        (1 << 53) + 1,
        u64::MAX - 1,
        u64::MAX,
        9_999_999_999_999_999_999,
    ];

    fn any_u64(rng: &mut SplitMix64) -> u64 {
        match rng.below(4) {
            0 => EDGE_U64[rng.below(EDGE_U64.len() as u64) as usize],
            1 => rng.below(10_000),
            // Every decimal length from 1 to 20 digits.
            _ => rng.next_u64() >> rng.below(64),
        }
    }

    fn any_time(rng: &mut SplitMix64) -> Option<Time> {
        rng.chance(2, 3).then(|| Time(any_u64(rng)))
    }

    /// Plain, quoted, escaped, control, non-BMP and `—π` text: empty, one
    /// to five pieces, or forty (at most 40 × 66 = 2,640 bytes).
    fn any_text(rng: &mut SplitMix64) -> String {
        const PIECES: [&str; 18] = [
            "validity; 1 distinct decisions ≤ k = 1; termination; decide-once",
            "p3 never decided",
            "\"",
            "\\",
            "\\\"",
            "/",
            "\n",
            "\r\t",
            "\u{8}\u{c}",
            "\u{0}\u{1}\u{1f}",
            "\u{7f}",
            " — π ",
            "≤",
            "𝔘𝕟𝕚",
            "🦀",
            "\u{fffd}\u{ffff}",
            "{\"k\":[1,2]}",
            " ",
        ];
        let pieces = match rng.below(8) {
            0 => 0,
            1 => 40,
            _ => rng.range(1, 6),
        };
        (0..pieces)
            .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
            .collect()
    }

    /// A random cell of class `i mod 11`; its lists are empty, short, or
    /// `long` elements.
    fn any_slim(rng: &mut SplitMix64, i: usize, long: u64) -> SlimReport {
        const SCENARIOS: [&str; 5] = [
            "kset_omega",
            "two_wheels(x=2,y=1)",
            "",
            "quoted \"name\" \\ — π",
            "tab\tname",
        ];
        const COUNTERS: [&str; 8] = [
            "sim.delivered",
            "sim.events",
            "sim.rb_sent",
            "sim.sent",
            "upper.l_move",
            "",
            "odd \"counter\"\n",
            "𝔘.x",
        ];
        let list = |rng: &mut SplitMix64| match rng.below(6) {
            0 => 0,
            1 => long,
            _ => rng.range(1, 9),
        };
        SlimReport {
            scenario: SCENARIOS[rng.below(SCENARIOS.len() as u64) as usize],
            seed: any_u64(rng),
            num_faulty: any_u64(rng) as usize,
            check: CheckOutcome {
                ok: rng.chance(1, 2),
                stabilized_at: any_time(rng),
                detail: any_text(rng),
                class: ViolationClass::ALL[i % ViolationClass::ALL.len()],
            },
            metrics: Metrics {
                msgs_sent: any_u64(rng),
                rb_sent: any_u64(rng),
                delivered: any_u64(rng),
                events: any_u64(rng),
                max_round: any_u64(rng),
                decided_values: (0..list(rng)).map(|_| any_u64(rng)).collect(),
                first_decision: any_time(rng),
                last_decision: any_time(rng),
            },
            counters: (0..list(rng))
                .map(|_| {
                    let name = COUNTERS[rng.below(COUNTERS.len() as u64) as usize];
                    (name, any_u64(rng))
                })
                .collect(),
        }
    }

    /// Runs both decoders over `line`; they must agree on the verdict and,
    /// when it is `Ok`, on the cell. Returns the cell.
    fn both_decode(line: &str) -> Option<((u64, u64), SlimReport)> {
        match (decode_cell(line), reference_decode_cell(line)) {
            (Ok(streamed), Ok(tree)) => {
                assert_eq!(streamed, tree, "decoders disagree on the value of {line:?}");
                Some(streamed)
            }
            (Err(_), Err(_)) => None,
            (streamed, tree) => panic!(
                "decoders disagree on {line:?}:\n  streaming: {streamed:?}\n  tree: {tree:?}"
            ),
        }
    }

    #[test]
    fn streaming_codec_equals_the_tree_codec_on_random_cells() {
        let mut rng = SplitMix64::new(0x19_C0DEC);
        let mut classes = HashSet::new();
        for i in 0..2_500 {
            let slim = any_slim(&mut rng, i, 150);
            let salt = any_u64(&mut rng);
            classes.insert(slim.check.class.name());
            let line = encode_cell(salt, slim.seed, &slim);
            assert_eq!(line, reference_encode_cell(salt, slim.seed, &slim));
            if !line.contains('\\') {
                assert_eq!(
                    line.len(),
                    line.capacity(),
                    "an escape-free line is sized exactly"
                );
            }
            assert_eq!(both_decode(&line), Some(((salt, slim.seed), slim)));
        }
        assert_eq!(classes.len(), ViolationClass::ALL.len());
    }

    /// Emits `doc` with its object members in a seeded random order and
    /// random whitespace around every token.
    fn emit_scrambled(doc: &Json, rng: &mut SplitMix64, out: &mut String) {
        fn gap(rng: &mut SplitMix64, out: &mut String) {
            for _ in 0..rng.below(3) {
                out.push(*rng.choose(&[' ', '\t', '\n', '\r']).unwrap());
            }
        }
        gap(rng, out);
        match doc {
            Json::Obj(members) => {
                let mut members: Vec<_> = members.iter().collect();
                rng.shuffle(&mut members);
                out.push('{');
                for (i, (key, value)) in members.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    gap(rng, out);
                    escape_into(key, out);
                    gap(rng, out);
                    out.push(':');
                    emit_scrambled(value, rng, out);
                }
                gap(rng, out);
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_scrambled(item, rng, out);
                }
                gap(rng, out);
                out.push(']');
            }
            scalar => out.push_str(&scalar.emit()),
        }
        gap(rng, out);
    }

    /// `text` as a JSON string in which every character is written the
    /// long way: `\uXXXX` (surrogate pairs past the BMP), or the short
    /// escapes the encoder never emits (`\/`, `\b`, `\f`).
    fn escape_the_long_way(text: &str, out: &mut String) {
        out.push('"');
        for c in text.chars() {
            match c {
                '/' => out.push_str("\\/"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        let _ = write!(out, "\\u{unit:04X}");
                    }
                }
            }
        }
        out.push('"');
    }

    #[test]
    fn streaming_decoder_equals_the_tree_decoder_on_mutated_lines() {
        let mut rng = SplitMix64::new(0x19_D1FF);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        let mut check = |line: &str| -> Option<((u64, u64), SlimReport)> {
            let cell = both_decode(line);
            *(if cell.is_some() {
                &mut accepted
            } else {
                &mut rejected
            }) += 1;
            cell
        };
        for i in 0..33 {
            let slim = any_slim(&mut rng, i, 12);
            let salt = any_u64(&mut rng);
            let cell = Some(((salt, slim.seed), slim.clone()));
            let line = encode_cell(salt, slim.seed, &slim);
            let doc = json::parse(&line).unwrap();

            // Truncation at every byte offset: no strict prefix of an
            // object is a document.
            for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                assert_eq!(check(&line[..cut]), None, "prefix of {cut} bytes");
            }

            // Single-byte flips, to each of the bytes the grammar cares
            // about (ASCII over ASCII keeps the line a `&str`).
            for at in (0..line.len()).filter(|&at| line.as_bytes()[at].is_ascii()) {
                let flip = *rng.choose(b"\"\\,:{}[]09-+.eEtnu x\t").unwrap();
                let mut bytes = line.clone().into_bytes();
                bytes[at] = flip;
                check(&String::from_utf8(bytes).unwrap());
            }

            // Permuted keys and inter-token whitespace: the same cell.
            for _ in 0..8 {
                let mut scrambled = String::new();
                emit_scrambled(&doc, &mut rng, &mut scrambled);
                assert_eq!(check(&scrambled), cell, "{scrambled:?}");
            }

            // The escapes the encoder never writes, in values and in keys.
            let mut long = String::from("{\"detail\":");
            escape_the_long_way(&slim.check.detail, &mut long);
            long.push_str(",\"scenario\":");
            escape_the_long_way(slim.scenario, &mut long);
            long.push(',');
            escape_the_long_way("salt", &mut long);
            let _ = write!(long, ":{salt},");
            let tail = line.replacen("{\"class\"", "\"class\"", 1);
            long.push_str(&tail);
            // (`detail`, `scenario` and `salt` now occur twice, the long
            // spelling first: the canonical one wins, and is equal anyway —
            // except past the BMP, where a `\u` pair reads as two U+FFFD.)
            assert_eq!(check(&long), cell, "{long:?}");
            let long_only = long.replacen(",\"detail\":", ",\"detail_\":", 1);
            if slim.check.detail.chars().all(|c| (c as u32) < 0x1_0000) {
                assert_eq!(check(&long_only), cell, "{long_only:?}");
            } else {
                let read = check(&long_only).expect("pairs of lone surrogates still read");
                assert!(read.1.check.detail.contains('\u{fffd}'));
            }

            // Duplicated keys: the last occurrence alone decides, whatever
            // an earlier one held.
            let body = &line[1..];
            for (earlier, still_ok) in [
                ("\"salt\":\"x\"", true),
                ("\"seed\":[1,2]", true),
                ("\"ok\":null", true),
                ("\"detail\":7", true),
                ("\"class\":\"no_such_class\"", true),
                ("\"stabilized_at\":\"never\"", true),
                ("\"metrics\":5", true),
                ("\"metrics\":{\"events\":\"x\"}", true),
                ("\"counters\":[[\"a\"]]", true),
                ("\"counters\":[[\"a\",1,2]]", true),
                ("\"counters\":[[1,\"a\"]]", true),
                ("\"counters\":{}", true),
                ("\"salt\":tru", false),
                ("\"metrics\":{\"events\":}", false),
            ] {
                let first = format!("{{{earlier},{body}");
                assert_eq!(
                    check(&first),
                    cell.clone().filter(|_| still_ok),
                    "{first:?}"
                );
                if still_ok {
                    let last = format!("{},{earlier}}}", &line[..line.len() - 1]);
                    assert_eq!(check(&last), None, "{last:?}");
                }
            }
            let later_salt = format!("{},\"salt\":{}}}", &line[..line.len() - 1], salt ^ 1);
            assert_eq!(check(&later_salt).map(|c| c.0), Some((salt ^ 1, slim.seed)));
            // … inside `metrics` too, and a repeated `metrics` replaces the
            // earlier one whole rather than merging with it.
            let inner = line.replacen("\"metrics\":{", "\"metrics\":{\"events\":\"x\",", 1);
            assert_eq!(check(&inner), cell, "{inner:?}");
            let partial = format!("{},\"metrics\":{{\"events\":1}}}}", &line[..line.len() - 1]);
            assert_eq!(check(&partial), None, "{partial:?}");

            // An unknown member — scalar, nested, malformed — at the top
            // level and inside `metrics`.
            for (unknown, well_formed) in [
                ("\"zz\":1", true),
                ("\"zz\":-1.5e+3", true),
                ("\"zz\":null", true),
                ("\"zz\":\"s\\n\\u00e9\"", true),
                ("\"zz\":{\"a\":[1,{\"b\":[]},\"]\"],\"salt\":0}", true),
                ("\"\":[[[[]]]]", true),
                ("\"zz\":[1,", false),
                ("\"zz\":[1,]", false),
                ("\"zz\":{\"a\"}", false),
                ("\"zz\":tru", false),
                ("\"zz\":nul", false),
                ("\"zz\":1x", false),
                ("\"zz\":\"\\q\"", false),
                ("\"zz\":\"\\u12\"", false),
                ("\"zz\"", false),
                ("zz:1", false),
            ] {
                let top = format!("{{{unknown},{body}");
                assert_eq!(check(&top), cell.clone().filter(|_| well_formed), "{top:?}");
                let nested =
                    line.replacen("\"metrics\":{", &format!("\"metrics\":{{{unknown},"), 1);
                assert_eq!(
                    check(&nested),
                    cell.clone().filter(|_| well_formed),
                    "{nested:?}"
                );
            }

            // Numbers in other spellings, wherever a `u64` is read. The
            // reader's number token is the tree parser's, so the two
            // decoders have no known disagreement: what is not RFC 8259
            // but was tolerated (`+5`, `007`) is tolerated by both.
            let spellings = [
                ("1.0", None),
                ("1e3", None),
                ("1E3", None),
                ("-1", None),
                ("-0", None),
                ("1.", None),
                (".5", None),
                ("18446744073709551616", None),
                ("99999999999999999999999", None),
                ("0x10", None),
                ("1 2", None),
                ("", None),
                ("+5", Some(5)),
                ("007", Some(7)),
                ("18446744073709551615", Some(u64::MAX)),
                (" 12 ", Some(12)),
            ];
            for (spelling, value) in spellings {
                let seeded = format!("{},\"seed\":{spelling}}}", &line[..line.len() - 1]);
                assert_eq!(check(&seeded).map(|c| c.0 .1), value, "{seeded:?}");
                for (member, close) in [
                    ("\"metrics\":{\"rb_sent\":", "}"),
                    ("\"metrics\":{\"decided\":[3,", "]}"),
                    ("\"metrics\":{\"last_decision\":", "}"),
                    ("\"counters\":[[\"c\",", "]]"),
                    ("\"stabilized_at\":", ""),
                ] {
                    let head = if member.starts_with("\"metrics") {
                        line.replacen("\"metrics\":{", member, 1)
                    } else {
                        format!("{},{member}", &line[..line.len() - 1])
                    };
                    // The member is cut short after the number, so only
                    // the verdict is comparable — and only when the
                    // shortened member is itself complete.
                    let cut = format!("{head}{spelling}{close}}}");
                    let read = check(&cut);
                    if !member.starts_with("\"metrics") {
                        assert_eq!(read.is_some(), value.is_some(), "{cut:?}");
                    }
                }
            }
        }
        assert!(
            accepted > 5_000 && rejected > 20_000,
            "{accepted} / {rejected}"
        );
    }

    /// A run directory written by the tree codec (PR 18 and before) is read
    /// by the streaming one as it stands: all hits, nothing corrupt, and
    /// not a byte of it rewritten. (The cell lines are unchanged since;
    /// format 3 changed only the salts they are keyed by.)
    #[test]
    fn run_dir_written_by_the_tree_codec_resumes_untouched() {
        assert_eq!(STORE_FORMAT, 3);
        let dir = std::env::temp_dir().join(format!("fd-store-format-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let shards_dir = dir.join("shards");
        fs::create_dir_all(&shards_dir).unwrap();

        let spec = KsetScenario::spec(5, 2, 2)
            .gst(Time(400))
            .crashes(CrashPlan::Random {
                f: 2,
                by: Time(500),
            });
        let sweep = |cache: &ReportCache| {
            Runner::sequential()
                .with_cache(cache)
                .sweep_summary(&KsetScenario, &spec, 0..40)
        };
        let cold = &ReportCache::new();
        let computed = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&computed);
        cold.set_spill(Some(Arc::new(move |salt, seed, slim: &SlimReport| {
            sink.lock().unwrap().push((salt, seed, slim.clone()));
        })));
        let cold_summary = sweep(cold);
        cold.set_spill(None);

        // One segment per non-empty shard, as a closed store leaves them.
        write_atomic(&dir.join("manifest.json"), &Manifest::fresh().emit()).unwrap();
        let computed = computed.lock().unwrap();
        let mut generation = 0;
        for shard in 0..STORE_SHARDS {
            let lines: String = computed
                .iter()
                .filter(|(salt, seed, _)| ReportCache::shard_of((*salt, *seed)) == shard)
                .map(|(salt, seed, slim)| reference_encode_cell(*salt, *seed, slim) + "\n")
                .collect();
            if !lines.is_empty() {
                generation += 1;
                fs::write(shards_dir.join(segment_name(shard, generation)), lines).unwrap();
            }
        }
        let written = shard_files(&shards_dir);

        let store = SweepStore::open(&dir).unwrap();
        assert!(!store.archived_stale());
        assert_eq!((store.loaded(), store.corrupt()), (40, 0));
        let warm = &ReportCache::new();
        assert_eq!(store.hydrate_into(warm), 40);
        assert_eq!(sweep(warm), cold_summary);
        assert_eq!((warm.hits(), warm.misses()), (40, 0));
        // A cell that is already on disk is not written a second time.
        let (salt, seed, slim) = &computed[0];
        store.spill()(*salt, *seed, slim);
        assert_eq!(store.close().unwrap().wrote, 0);
        assert_eq!(
            shard_files(&shards_dir),
            written,
            "open must not compact or rewrite a clean directory"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
