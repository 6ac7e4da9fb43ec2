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
//!     g000001.jsonl             # cell segments: one canonical-JSON cell per
//!     g000002.jsonl             # line, at most BATCH (128) lines each, of
//!     ...                       # any cache shard; replayed in generation
//!                               # order (last write wins)
//!   stale-0/                    # shards/ archived on a manifest mismatch
//! ```
//!
//! ## Cell codec
//!
//! A cell is one line of canonical JSON — keys sorted, no whitespace, so a
//! run directory stays `grep`-able and a cell has exactly one spelling.
//! Neither direction builds a [`json::Json`] tree: [`encode_cell`] writes the
//! line straight into one exactly-sized `String`, and [`decode_cell`] reads
//! that one spelling back into the [`SlimReport`] — each key a literal in
//! the encoder's order, each number a `u64` in plain decimal (no sign, no
//! leading zero), `null` only for the three optional times, and strings
//! with only the escapes [`escape_into`] writes. It allocates only what the
//! report owns (detail, decided values, counters), the two lists once each
//! at exactly their length. Opening a store decodes every line into one
//! reused scratch report instead, which allocates only while its buffers
//! grow. A resumed campaign decodes every stored cell before it computes
//! anything, so this path is the store's recovery cost.
//!
//! A line decodes if and only if [`encode_cell`] of its cell gives the line
//! back, byte for byte. That is safe because every line the store reads
//! was written by this encoder, and because anything else — reordered or
//! repeated keys, whitespace, an unknown member, `+5`, `007`, `\/` — is one
//! corrupt line, under the contract below: counted, dropped, recomputed and
//! compacted back to the encoder's spelling. No other spelling can reach a
//! report.
//!
//! ## Crash safety and batching
//!
//! Cells are never written in place, and the store keeps none in memory.
//! Its writer holds at most one open segment for the whole directory: a
//! temp file (`.tmp-segment`, a name the loader never reads) to which the
//! spill hook appends each new cell's line, whatever its cache shard, on
//! the sweep worker that computed it. At `BATCH` (128) lines, on
//! [`SweepStore::flush`] and on close the writer **seals** the segment —
//! `sync_all`, then an atomic rename to its `gGGGGGG.jsonl` name — so a
//! segment is either fully visible or absent, never partial. A kill loses
//! at most the open segment's lines, 127 cells (they are simply recomputed
//! on resume, and the next open deletes the temp file they sat in); it can
//! never corrupt a sealed segment. The parent directory is not synced
//! after a rename, so a power loss can also drop a sealed segment: its
//! cells then recompute too, and a report can never come out wrong. The
//! sweep pays one unsynced `write` per computed cell and one fsync per
//! `BATCH` cells; a session that only resumes opens no segment. The first
//! I/O error stops the writer: later cells are dropped, and `flush` and
//! `close` return it.
//!
//! On open, the files in `shards/` that carry a segment's exact name are
//! replayed in generation order (last-wins per key), so a directory of
//! `c` cells costs ⌈c/128⌉ file reads; the store's own temp name is
//! deleted, and any other file there is not the store's and is neither
//! read, counted nor deleted. A line that does not decode — truncated,
//! garbled, not UTF-8, or in any spelling but the encoder's — is one
//! corrupt line: counted, dropped, its cell recomputed. The store is
//! compacted only when something is wrong: when a line was dropped, or
//! superseded by a later line of the same key, open rewrites every cell
//! into fresh `BATCH`-line segments through the same append-and-seal
//! writer, and only then deletes the segments it replayed. A clean
//! directory is never rewritten, however many sessions wrote it.
//!
//! ## One resident copy, packed
//!
//! A cell is resident once, whether it was read back or computed, and as
//! one exactly-sized block of packed bytes ([`CellMap`]: varint fields,
//! names as ids into a per-shard table, the detail), not as a
//! [`SlimReport`] and its three heap blocks. Open decodes each line into
//! the scratch report and packs it against the table of the cache shard
//! its key belongs to ([`ReportCache::shard_of`]) — one allocation per
//! cell — and stages the block; once every segment is read, each shard's
//! map is sized once to its exact count and takes its blocks. So
//! [`SweepStore::hydrate_into`] hands those maps over instead of
//! copying them: an empty cache shard adopts its map without repacking a
//! cell or re-hashing a key. A computed cell is packed into the cache from
//! the runner's borrow, and the writer encodes its line from the same
//! borrow. The store keeps neither; the writer deduplicates against its own
//! set of the keys on disk, built at open, so a cell already persisted is
//! never written twice even after it has moved into a cache.
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
use std::str::Utf8Error;
use std::sync::{Arc, Mutex, OnceLock};

use fd_detectors::scenario::{
    CellMap, ReportCache, ScenarioSpec, SlimReport, SpillFn, CACHE_SHARDS,
};
use fd_detectors::ViolationClass;
use fd_sim::Time;

use crate::json::{self, escape_into};

/// Store format version; bumped on any layout, codec or key change.
/// v2: cells carry the machine-readable `class` of a failed check.
/// v3: salts are FNV-1a-64 of the canonical spec bytes, not `DefaultHasher`
/// digests.
/// v4: one segment stream per directory (`gGGGGGG.jsonl`, any shard's
/// cells), not one per cache shard (`sNN-gGGGGGG.jsonl`).
pub const STORE_FORMAT: u64 = 4;

/// Lines the open segment takes before the writer seals it. Small enough
/// that an interrupted sweep loses little; large enough that a
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

/// Decodes one cell line. A line decodes if and only if [`encode_cell`] of
/// its cell reproduces it byte for byte; anything else — bad JSON, a
/// missing, reordered, repeated or unknown member, another spelling of a
/// number or string — is an `Err`, which the store counts as corrupt and
/// recomputes.
pub fn decode_cell(line: &str) -> Result<((u64, u64), SlimReport), String> {
    let mut slim = SlimReport::default();
    let key = decode_cell_into(line, &mut slim)?;
    Ok((key, slim))
}

/// [`decode_cell`] into `slim`, refilling the detail, decided values and
/// counters it already owns: a load decodes every line of a run directory
/// into one scratch report, which allocates only while its buffers grow.
/// After an `Err`, `slim` holds whatever was read before it.
///
/// The line is read in [`push_cell`]'s order, each key a literal.
fn decode_cell_into(line: &str, slim: &mut SlimReport) -> Result<(u64, u64), String> {
    let c = &mut Cursor { line, at: 0 };
    // Scratch for strings with escapes; never allocated for the others.
    let buf = &mut String::new();
    c.lit("{\"class\":")?;
    slim.check.class = ViolationClass::from_name(c.str(buf)?).ok_or("bad class")?;
    c.lit(",\"counters\":[")?;
    fill_list(&mut slim.counters, ("", 0), || {
        if !c.more()? {
            return Ok(None);
        }
        c.lit("[")?;
        let name = intern(c.str(buf)?);
        c.lit(",")?;
        let counter = (name, c.u64()?);
        c.lit("]")?;
        Ok(Some(counter))
    })?;
    c.lit(",\"detail\":")?;
    let detail = c.str(buf)?;
    slim.check.detail.clear();
    slim.check.detail.push_str(detail);
    let m = &mut slim.metrics;
    c.lit(",\"metrics\":{\"decided\":[")?;
    fill_list(&mut m.decided_values, 0, || {
        c.more()?.then(|| c.u64()).transpose()
    })?;
    m.delivered = c.u64_at(",\"delivered\":")?;
    m.events = c.u64_at(",\"events\":")?;
    m.first_decision = c.opt_time_at(",\"first_decision\":")?;
    m.last_decision = c.opt_time_at(",\"last_decision\":")?;
    m.max_round = c.u64_at(",\"max_round\":")?;
    m.msgs_sent = c.u64_at(",\"msgs_sent\":")?;
    m.rb_sent = c.u64_at(",\"rb_sent\":")?;
    let num_faulty = c.u64_at("},\"num_faulty\":")?;
    slim.num_faulty = usize::try_from(num_faulty).map_err(|e| e.to_string())?;
    slim.check.ok = c.eat(",\"ok\":true");
    if !slim.check.ok {
        c.lit(",\"ok\":false")?;
    }
    let salt = c.u64_at(",\"salt\":")?;
    c.lit(",\"scenario\":")?;
    slim.scenario = intern(c.str(buf)?);
    slim.seed = c.u64_at(",\"seed\":")?;
    slim.check.stabilized_at = c.opt_time_at(",\"stabilized_at\":")?;
    c.lit("}")?;
    if c.at != line.len() {
        return Err(format!("trailing bytes at byte {}", c.at));
    }
    Ok((salt, slim.seed))
}

/// A read position in one cell line. Every method consumes exactly the
/// spelling [`push_cell`] writes, or returns an `Err`.
struct Cursor<'a> {
    line: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Consumes `lit` if the line continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let found = self.line.as_bytes()[self.at..].starts_with(lit.as_bytes());
        if found {
            self.at += lit.len();
        }
        found
    }

    /// Consumes `lit`, which the line must continue with.
    fn lit(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.at))
        }
    }

    /// A `u64` in its one decimal spelling: digits only, no leading zero.
    fn u64(&mut self) -> Result<u64, String> {
        let rest = &self.line.as_bytes()[self.at..];
        let digits = &rest[..rest.iter().take_while(|b| b.is_ascii_digit()).count()];
        let value = match digits {
            [] | [b'0', _, ..] => None,
            _ => digits.iter().try_fold(0u64, |v, &d| {
                v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
            }),
        };
        let value = value.ok_or_else(|| format!("not a u64 at byte {}", self.at))?;
        self.at += digits.len();
        Ok(value)
    }

    /// The member `key` (with the comma before it), a `u64`.
    fn u64_at(&mut self, key: &str) -> Result<u64, String> {
        self.lit(key)?;
        self.u64()
    }

    /// The member `key` (with the comma before it), `null` or a `u64`.
    fn opt_time_at(&mut self, key: &str) -> Result<Option<Time>, String> {
        self.lit(key)?;
        if self.eat("null") {
            Ok(None)
        } else {
            self.u64().map(|t| Some(Time(t)))
        }
    }

    /// Steps to a list's next element: past the comma before it (there is
    /// none right after the `[`), or past the `]` that ends the list.
    fn more(&mut self) -> Result<bool, String> {
        if self.eat("]") {
            return Ok(false);
        }
        if self.line.as_bytes()[self.at - 1] != b'[' {
            self.lit(",")?;
        }
        Ok(true)
    }

    /// A string in [`escape_into`]'s spelling: borrowed from the line when
    /// it has no escape, unescaped into `buf` (cleared first) otherwise.
    fn str<'b>(&mut self, buf: &'b mut String) -> Result<&'b str, String>
    where
        'a: 'b,
    {
        self.lit("\"")?;
        let (line, bytes) = (self.line, self.line.as_bytes());
        // `"` and `\` never occur inside a multi-byte UTF-8 sequence, so
        // every run below starts and ends on a character boundary.
        let (mut run, mut escaped) = (self.at, false);
        loop {
            match bytes.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let text = &line[run..self.at];
                    self.at += 1;
                    if !escaped {
                        return Ok(text);
                    }
                    buf.push_str(text);
                    return Ok(buf);
                }
                Some(b'\\') => {
                    if !escaped {
                        buf.clear();
                        escaped = true;
                    }
                    buf.push_str(&line[run..self.at]);
                    buf.push(self.escape()?);
                    run = self.at;
                }
                Some(0..=0x1f) => return Err(format!("raw control byte at byte {}", self.at)),
                Some(_) => self.at += 1,
            }
        }
    }

    /// One escape as [`escape_into`] writes it: `\"`, `\\`, `\n`, `\r`,
    /// `\t`, or `\u00xx` in lowercase hex for every other control character
    /// (so never `\u0009`, `\u000a` or `\u000d`).
    fn escape(&mut self) -> Result<char, String> {
        let (c, len) = match &self.line.as_bytes()[self.at..] {
            [_, b'"', ..] => ('"', 2),
            [_, b'\\', ..] => ('\\', 2),
            [_, b'n', ..] => ('\n', 2),
            [_, b'r', ..] => ('\r', 2),
            [_, b't', ..] => ('\t', 2),
            [_, b'u', b'0', b'0', hi @ b'0'..=b'1', lo @ (b'0'..=b'9' | b'a'..=b'f'), ..]
                if !matches!([*hi, *lo], [b'0', b'9' | b'a' | b'd']) =>
            {
                let lo = char::from(*lo).to_digit(16).unwrap_or_default() as u8;
                (char::from((*hi - b'0') << 4 | lo), 6)
            }
            _ => return Err(format!("bad escape at byte {}", self.at)),
        };
        self.at += len;
        Ok(c)
    }
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

fn segment_name(generation: u64) -> String {
    format!("g{generation:06}.jsonl")
}

/// The inverse of [`segment_name`], and nothing more: `None` for every file
/// name this store would not itself have written.
fn segment_of(name: &str) -> Option<u64> {
    let generation = name
        .strip_prefix('g')?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()?;
    (segment_name(generation) == name).then_some(generation)
}

/// The temp name of the open segment. Not a segment name, so the loader
/// never reads it; a killed writer leaves it behind, and the next open
/// deletes it.
const TEMP_NAME: &str = ".tmp-segment";

/// The open segment: its temp file, to which cells are appended one line
/// at a time, until [`Segment::seal`] makes it a segment.
#[derive(Debug)]
struct Segment {
    file: fs::File,
    lines: usize,
}

impl Segment {
    fn create(shards_dir: &Path) -> io::Result<Segment> {
        let file = fs::File::create(shards_dir.join(TEMP_NAME))?;
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

    /// `sync_all`, then the atomic rename to the segment of `generation`:
    /// the segment is either fully visible or absent — never partial.
    /// Returns the lines it holds.
    fn seal(self, shards_dir: &Path, generation: u64) -> io::Result<usize> {
        let Segment { file, lines } = self;
        file.sync_all()?;
        drop(file);
        fs::rename(
            shards_dir.join(TEMP_NAME),
            shards_dir.join(segment_name(generation)),
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
    /// Deduped cells, last write wins, one map per cache shard: `maps[s]`
    /// holds the cells [`ReportCache::shard_of`] puts in shard `s`,
    /// whichever segment they were read from.
    maps: Vec<CellMap>,
    /// Unreadable lines dropped during replay.
    corrupt: u64,
    /// Lines whose key a later line of the replay wrote again.
    superseded: u64,
    /// The generations of the segments replayed, in replay order. Any other
    /// file in the directory is not the store's: never loaded, never
    /// counted, never deleted.
    segments: Vec<u64>,
}

/// The generations of the segments in `shards_dir`, sorted into replay
/// order; every other entry of the directory goes to `other`.
fn list_segments(
    shards_dir: &Path,
    mut other: impl FnMut(&fs::DirEntry) -> io::Result<()>,
) -> io::Result<Vec<u64>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(shards_dir)? {
        let entry = entry?;
        match entry.file_name().to_str().and_then(segment_of) {
            Some(generation) => segments.push(generation),
            None => other(&entry)?,
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

/// The lines of a segment. Each is checked for UTF-8 on its own only when
/// the segment as a whole is not UTF-8, so one bad byte spoils its line,
/// not the segment.
fn segment_lines(bytes: &[u8]) -> impl Iterator<Item = Result<&str, Utf8Error>> + Clone {
    let (text, damaged) = match std::str::from_utf8(bytes) {
        Ok(text) => (Some(text.split('\n').map(Ok)), None),
        Err(_) => (
            None,
            Some(bytes.split(|&b| b == b'\n').map(std::str::from_utf8)),
        ),
    };
    text.into_iter()
        .flatten()
        .chain(damaged.into_iter().flatten())
}

/// Replays `segments` (from [`list_segments`]) in order, decoding each
/// line into one scratch report and packing it against the name table of
/// its cache shard's map: one allocation per cell, its packed bytes. The
/// blocks are staged in replay order, and each map, sized once to its
/// count, takes its own at the end. A line that is not UTF-8 or does not
/// decode is one corrupt line.
fn load_shards(shards_dir: &Path, segments: Vec<u64>) -> io::Result<LoadedShards> {
    let mut maps: Vec<CellMap> = (0..CACHE_SHARDS).map(|_| CellMap::new()).collect();
    let mut counts = [0usize; CACHE_SHARDS];
    let mut staged = Vec::new();
    let mut scratch = SlimReport::default();
    let mut corrupt = 0u64;
    for &generation in &segments {
        let bytes = fs::read(shards_dir.join(segment_name(generation)))?;
        let lines = segment_lines(&bytes).filter(|line| line != &Ok(""));
        // Room for the segment's lines, but for no more cells than its
        // bytes could spell.
        staged.reserve(lines.clone().count().min(bytes.len() / CELL_LITERALS));
        for line in lines {
            let line = line.map_err(|e| e.to_string());
            match line.and_then(|line| decode_cell_into(line, &mut scratch)) {
                Ok(key) => {
                    let shard = ReportCache::shard_of(key);
                    counts[shard] += 1;
                    staged.push((key, maps[shard].pack(&scratch)));
                }
                Err(_) => corrupt += 1,
            }
        }
    }
    for (map, &count) in maps.iter_mut().zip(&counts) {
        map.reserve(count);
    }
    let mut superseded = 0;
    for (key, packed) in staged {
        superseded += u64::from(maps[ReportCache::shard_of(key)].insert_packed(key, packed));
    }
    Ok(LoadedShards {
        maps,
        corrupt,
        superseded,
        segments,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Writer {
    shards_dir: PathBuf,
    /// The keys on disk at open, then every key this writer has appended.
    /// Its own set: the loaded cells themselves move into a cache.
    keys: HashSet<(u64, u64)>,
    /// The open segment, if there is one.
    open: Option<Segment>,
    /// The one buffer every cell line is encoded in.
    line: String,
    generation: u64,
    /// Cells sealed into segments so far.
    wrote: u64,
    /// The first I/O error. Once it is set, spilled cells are dropped.
    failed: Option<io::Error>,
}

impl Writer {
    /// Appends the cell under `key` to the open segment, unless it is
    /// already on disk or appended, or the writer has failed.
    fn spill(&mut self, key: (u64, u64), slim: &SlimReport) {
        if self.failed.is_none() && self.keys.insert(key) {
            self.failed = self.append(key, slim).err();
        }
    }

    fn append(&mut self, key: (u64, u64), slim: &SlimReport) -> io::Result<()> {
        let segment = match &mut self.open {
            Some(segment) => segment,
            empty => empty.insert(Segment::create(&self.shards_dir)?),
        };
        segment.append(&mut self.line, key, slim)?;
        if segment.lines >= BATCH {
            self.seal()?;
        }
        Ok(())
    }

    /// Seals the open segment; returns the cells sealed so far, or the
    /// writer's first I/O error.
    fn flush(&mut self) -> io::Result<u64> {
        if self.failed.is_none() {
            self.failed = self.seal().err();
        }
        match &self.failed {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(self.wrote),
        }
    }

    /// Seals the open segment, if there is one, as the next generation.
    fn seal(&mut self) -> io::Result<()> {
        if let Some(segment) = self.open.take() {
            self.generation += 1;
            self.wrote += segment.seal(&self.shards_dir, self.generation)? as u64;
        }
        Ok(())
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
/// appends each new cell on the thread that spills it. See the module docs
/// for the layout and durability contract.
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
    /// Shared with every spill hook; `None` once the store is closed, so
    /// later cells are dropped and a second shutdown does nothing.
    writer: Arc<Mutex<Option<Writer>>>,
}

impl SweepStore {
    /// Opens (creating if necessary) the run directory at `dir`, replaying
    /// existing segments into memory. On a manifest mismatch the existing
    /// shards are archived and the store starts empty — see module docs.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SweepStore> {
        let dir = dir.as_ref().to_path_buf();
        let shards_dir = dir.join("shards");
        fs::create_dir_all(&shards_dir)?;
        // One listing: the store's own temp name is deleted, and whether
        // anything else is there decides below whether cells without a
        // manifest are archived.
        let mut others = false;
        let mut segments = list_segments(&shards_dir, |entry| {
            if entry.file_name() == TEMP_NAME {
                fs::remove_file(entry.path())
            } else {
                others = true;
                Ok(())
            }
        })?;

        let manifest_path = dir.join("manifest.json");
        let mut archived_stale = false;
        let mut manifest = match fs::read(&manifest_path) {
            Ok(bytes) => match std::str::from_utf8(&bytes)
                .map_err(|e| e.to_string())
                .and_then(Manifest::parse)
            {
                Ok(m) if m.matches_engine() => m,
                // Unreadable or mismatched: both mean "not our cells".
                Ok(_) | Err(_) => {
                    archive_shards(&dir, &shards_dir)?;
                    archived_stale = true;
                    segments.clear();
                    Manifest::fresh()
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // No manifest. If cells exist anyway (half-written run dir,
                // crashed before first close), treat them as stale too: the
                // salts cannot be trusted without a manifest.
                if others || !segments.is_empty() {
                    archive_shards(&dir, &shards_dir)?;
                    archived_stale = true;
                    segments.clear();
                }
                Manifest::fresh()
            }
            Err(e) => return Err(e),
        };
        manifest.engine = engine_version();
        manifest.format = STORE_FORMAT;

        let loaded = load_shards(&shards_dir, segments)?;
        let cells: usize = loaded.maps.iter().map(CellMap::len).sum();
        let mut keys = HashSet::with_capacity(cells);
        keys.extend(loaded.maps.iter().flat_map(CellMap::keys));
        let mut writer = Writer {
            shards_dir,
            keys,
            open: None,
            line: String::new(),
            generation: loaded.segments.last().copied().unwrap_or(0),
            wrote: 0,
            failed: None,
        };

        // Compact only a store with a dropped or superseded line: every
        // cell into fresh segments, then the replayed ones deleted. The
        // cells were on disk already, so `wrote` does not count them.
        if loaded.corrupt + loaded.superseded > 0 {
            for (key, slim) in loaded.maps.iter().flat_map(CellMap::iter) {
                writer.append(key, &slim)?;
            }
            writer.seal()?;
            writer.wrote = 0;
            for &old in &loaded.segments {
                fs::remove_file(writer.shards_dir.join(segment_name(old)))?;
            }
        }

        Ok(SweepStore {
            dir,
            maps: Mutex::new(loaded.maps),
            loaded: cells,
            corrupt: loaded.corrupt,
            archived_stale,
            manifest: Mutex::new(manifest),
            writer: Arc::new(Mutex::new(Some(writer))),
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
    /// (`cache.set_spill(Some(store.spill()))`): appends every *computed*
    /// cell not yet on disk to the open segment, on the calling
    /// thread, under the writer's lock. Safe to leave registered after
    /// [`SweepStore::close`] — later cells are dropped.
    pub fn spill(&self) -> Arc<SpillFn> {
        let writer = Arc::clone(&self.writer);
        Arc::new(move |salt, seed, slim: &SlimReport| {
            if let Some(writer) = writer.lock().unwrap().as_mut() {
                writer.spill((salt, seed), slim);
            }
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
        let mut manifest = self.manifest.lock().unwrap();
        match manifest.specs.iter().position(|s| s.label == label) {
            Some(i) => manifest.specs[i] = entry,
            None => manifest.specs.push(entry),
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
    /// and only the cells of the unsealed segment are recomputed.
    pub fn commit_manifest(&self) -> io::Result<()> {
        let manifest = self.manifest.lock().unwrap().emit();
        write_atomic(&self.dir.join("manifest.json"), &manifest)
    }

    /// Durability barrier: seals the open segment, so a crash loses
    /// nothing already computed. Returns the cells this store has sealed so
    /// far — which is how invocation records report an accurate `wrote`
    /// count — or the writer's first I/O error.
    pub fn flush(&self) -> io::Result<u64> {
        let mut writer = self.writer.lock().unwrap();
        writer.as_mut().map_or(Ok(0), Writer::flush)
    }

    /// Seals the open segment and writes the manifest (atomically). The
    /// directory is complete and resumable once this returns.
    pub fn close(self) -> io::Result<StoreSummary> {
        let wrote = self.shutdown()?;
        Ok(StoreSummary {
            loaded: self.loaded,
            corrupt: self.corrupt,
            wrote,
            archived_stale: self.archived_stale,
        })
    }

    /// Takes the writer, seals its segment and writes the manifest;
    /// returns the cells sealed. A closed store has nothing left to do.
    fn shutdown(&self) -> io::Result<u64> {
        let Some(mut writer) = self.writer.lock().unwrap().take() else {
            return Ok(0);
        };
        let wrote = writer.flush()?;
        self.commit_manifest()?;
        Ok(wrote)
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

/// A run directory loaded read-only — no writer, no compaction, no
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
/// [`io::ErrorKind::NotFound`], naming it. A manifest written by another
/// store format or engine is [`io::ErrorKind::InvalidData`], naming both:
/// this binary cannot read that directory's segments.
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
        .and_then(|text| Manifest::parse(&text).ok());
    let manifest = match manifest {
        Some(m) if !m.matches_engine() => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "`{}` was written by store format {} ({}); this binary reads format {} ({})",
                    dir.display(),
                    m.format,
                    m.engine,
                    STORE_FORMAT,
                    engine_version(),
                ),
            ))
        }
        m => m.unwrap_or_default(),
    };
    let shards_dir = dir.join("shards");
    let segments = if shards_dir.is_dir() {
        list_segments(&shards_dir, |_| Ok(()))?
    } else {
        Vec::new()
    };
    let loaded = load_shards(&shards_dir, segments)?;
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
    use fd_detectors::scenario::{CrashPlan, Metrics, Runner};
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

    /// A directory another store format wrote is refused, naming both
    /// formats, not read as one that holds no cell (its segments may carry
    /// names this binary does not recognise).
    #[test]
    fn load_run_dir_refuses_another_formats_directory() {
        let dir = std::env::temp_dir().join(format!("fd-store-v3-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let store = SweepStore::open(&dir).unwrap();
        let spill = store.spill();
        for seed in 0..3 {
            spill(7, seed, &sample_slim(seed));
        }
        store.close().unwrap();
        assert_eq!(load_run_dir(&dir).unwrap().cells.len(), 3);

        let manifest = dir.join("manifest.json");
        let mut older = Manifest::parse(&fs::read_to_string(&manifest).unwrap()).unwrap();
        older.format = STORE_FORMAT - 1;
        write_atomic(&manifest, &older.emit()).unwrap();
        let err = load_run_dir(&dir).expect_err("a format-3 directory");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let text = err.to_string();
        for part in [
            format!("format {}", STORE_FORMAT - 1),
            format!("format {STORE_FORMAT}"),
            engine_version(),
        ] {
            assert!(text.contains(&part), "{text:?} names {part:?}");
        }
        fs::remove_dir_all(&dir).ok();
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
    /// close — opens no segment and writes nothing but the manifest; the
    /// first miss of a session opens one.
    #[test]
    fn a_resume_only_session_opens_no_segment() {
        let dir = std::env::temp_dir().join(format!("fd-store-lazy-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let spec = KsetScenario::spec(5, 2, 2).gst(Time(400));
        let (manifest, shards_dir) = (dir.join("manifest.json"), dir.join("shards"));
        let open_segments = || {
            let names = shard_files(&shards_dir).into_iter().map(|(name, _)| name);
            names.filter(|name| name == TEMP_NAME).count()
        };
        let sweep = |session: &StoreSession, seeds| {
            Runner::sequential()
                .with_cache(session.cache())
                .sweep_summary(&KsetScenario, &spec, seeds)
        };

        let cold = StoreSession::open(&dir, |_| {}).unwrap();
        assert_eq!(open_segments(), 0, "open opens no segment");
        let summary = sweep(&cold, 0..12);
        assert!(open_segments() > 0);
        assert!(cold
            .close(12, 0, false)
            .unwrap()
            .contains("wrote 12 new cell(s)"));
        let (manifest_before, shards_before) =
            (fs::read(&manifest).unwrap(), shard_files(&shards_dir));

        let warm = StoreSession::open(&dir, |_| {}).unwrap();
        assert_eq!(sweep(&warm, 0..12), summary);
        assert_eq!(open_segments(), 0, "an all-hit sweep spills nothing");
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
        assert_eq!(open_segments(), 0);
        sweep(&resumed, 12..13);
        assert_eq!(open_segments(), 1, "the first miss opens a segment");
        assert!(resumed
            .close(13, 0, false)
            .unwrap()
            .contains("wrote 1 new cell(s)"));
        fs::remove_dir_all(&dir).ok();
    }

    /// Closing writes the manifest once: the `Drop` that follows a
    /// shutdown finds the writer gone and leaves the directory alone.
    #[test]
    fn a_closed_store_is_not_shut_down_again_on_drop() {
        let dir = std::env::temp_dir().join(format!("fd-store-close-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let store = SweepStore::open(&dir).unwrap();
        store.shutdown().unwrap();
        fs::write(dir.join("manifest.json"), "sentinel").unwrap();
        drop(store);
        assert_eq!(fs::read(dir.join("manifest.json")).unwrap(), b"sentinel");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_names_parse_strictly() {
        for generation in [0, 1, 42, 999_999, 1_000_000, u64::MAX] {
            let name = segment_name(generation);
            assert_eq!(segment_of(&name), Some(generation), "{name}");
        }
        for stray in [
            "",
            "g",
            "g.jsonl",
            "g1.jsonl",
            "g00001.jsonl",
            "g0000001.jsonl",
            "g+00001.jsonl",
            "g-00001.jsonl",
            "gyyyyyy.jsonl",
            "g００００01.jsonl",
            "g000001.json",
            "g000001.jsonl.tmp",
            "G000001.jsonl",
            "h000001.jsonl",
            "s01-g000001.jsonl",
            "s.jsonl",
            "g18446744073709551616.jsonl",
            TEMP_NAME,
            ".tmp-g000001",
        ] {
            assert_eq!(segment_of(stray), None, "{stray:?} is not a segment name");
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
    // Reference encoder: the `Json`-tree encoder the store first shipped
    // with, kept to pin the streaming one against, byte for byte.
    // The decoder needs no reference: a line decodes only if it re-encodes
    // to itself.
    // -----------------------------------------------------------------

    fn reference_opt_time(t: Option<Time>) -> Json {
        match t {
            Some(t) => Json::num_u64(t.0),
            None => Json::Null,
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

    // -----------------------------------------------------------------
    // Random and mutated cells
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

    /// Decodes `line`, which must either be an `Err` or re-encode to
    /// exactly `line`. Returns the cell.
    fn decode_exactly(line: &str) -> Option<((u64, u64), SlimReport)> {
        let (key, slim) = decode_cell(line).ok()?;
        assert_eq!(
            encode_cell(key.0, key.1, &slim),
            line,
            "{line:?} is not its cell's spelling"
        );
        Some((key, slim))
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
            assert_eq!(decode_exactly(&line), Some(((salt, slim.seed), slim)));
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
    fn a_mutated_line_decodes_only_if_it_reencodes_to_itself() {
        let mut rng = SplitMix64::new(0x19_D1FF);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        let mut check = |line: &str| -> Option<((u64, u64), SlimReport)> {
            let cell = decode_exactly(line);
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
            assert_eq!(check(&line), cell);

            // Truncation at every byte offset: no strict prefix of a line
            // is a line.
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

            // Permuted keys and inter-token whitespace: the same cell, in
            // another spelling.
            for _ in 0..8 {
                let mut scrambled = String::new();
                emit_scrambled(&doc, &mut rng, &mut scrambled);
                assert_eq!(check(&scrambled), None, "{scrambled:?}");
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
            assert_eq!(check(&long), None, "{long:?}");
            let long_only = long.replacen(",\"detail\":", ",\"detail_\":", 1);
            assert_eq!(check(&long_only), None, "{long_only:?}");

            // Duplicated keys, first or last, whatever the other occurrence
            // holds.
            let body = &line[1..];
            for earlier in [
                "\"salt\":\"x\"",
                "\"seed\":[1,2]",
                "\"ok\":null",
                "\"detail\":7",
                "\"class\":\"no_such_class\"",
                "\"stabilized_at\":\"never\"",
                "\"metrics\":5",
                "\"metrics\":{\"events\":\"x\"}",
                "\"counters\":[[\"a\"]]",
                "\"counters\":[[\"a\",1,2]]",
                "\"counters\":[[1,\"a\"]]",
                "\"counters\":{}",
                "\"salt\":tru",
                "\"metrics\":{\"events\":}",
            ] {
                let first = format!("{{{earlier},{body}");
                assert_eq!(check(&first), None, "{first:?}");
                let last = format!("{},{earlier}}}", &line[..line.len() - 1]);
                assert_eq!(check(&last), None, "{last:?}");
            }
            let later_salt = format!("{},\"salt\":{}}}", &line[..line.len() - 1], salt ^ 1);
            assert_eq!(check(&later_salt), None, "{later_salt:?}");
            // … inside `metrics` too, and as a second `metrics`.
            let inner = line.replacen("\"metrics\":{", "\"metrics\":{\"events\":\"x\",", 1);
            assert_eq!(check(&inner), None, "{inner:?}");
            let partial = format!("{},\"metrics\":{{\"events\":1}}}}", &line[..line.len() - 1]);
            assert_eq!(check(&partial), None, "{partial:?}");

            // An unknown member — scalar, nested, malformed — at the top
            // level and inside `metrics`.
            for unknown in [
                "\"zz\":1",
                "\"zz\":-1.5e+3",
                "\"zz\":null",
                "\"zz\":\"s\\n\\u00e9\"",
                "\"zz\":{\"a\":[1,{\"b\":[]},\"]\"],\"salt\":0}",
                "\"\":[[[[]]]]",
                "\"zz\":[1,",
                "\"zz\":[1,]",
                "\"zz\":{\"a\"}",
                "\"zz\":tru",
                "\"zz\":nul",
                "\"zz\":1x",
                "\"zz\":\"\\q\"",
                "\"zz\":\"\\u12\"",
                "\"zz\"",
                "zz:1",
            ] {
                let top = format!("{{{unknown},{body}");
                assert_eq!(check(&top), None, "{top:?}");
                let nested =
                    line.replacen("\"metrics\":{", &format!("\"metrics\":{{{unknown},"), 1);
                assert_eq!(check(&nested), None, "{nested:?}");
            }

            // Numbers in other spellings, in place of each number of the
            // line, and as a list element: only the one decimal spelling
            // of a `u64` reads.
            let spellings = [
                ("1.0", false),
                ("1e3", false),
                ("1E3", false),
                ("-1", false),
                ("-0", false),
                ("1.", false),
                (".5", false),
                ("18446744073709551616", false),
                ("99999999999999999999999", false),
                ("0x10", false),
                ("1 2", false),
                ("", false),
                ("+5", false),
                ("007", false),
                ("00", false),
                (" 12 ", false),
                ("0", true),
                ("10", true),
                ("18446744073709551615", true),
            ];
            let mut listed = slim.clone();
            listed.metrics.decided_values = vec![3, 0];
            listed.counters = vec![("c", 0)];
            let listed = encode_cell(salt, slim.seed, &listed);
            for (spelling, canonical) in spellings {
                for key in [
                    "salt",
                    "seed",
                    "num_faulty",
                    "delivered",
                    "events",
                    "max_round",
                    "msgs_sent",
                    "rb_sent",
                    "first_decision",
                    "last_decision",
                    "stabilized_at",
                ] {
                    let at = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
                    let end = at + line[at..].find([',', '}']).unwrap();
                    let respelled = format!("{}{spelling}{}", &line[..at], &line[end..]);
                    assert_eq!(check(&respelled).is_some(), canonical, "{respelled:?}");
                }
                for (was, now) in [
                    ("\"decided\":[3,0]", format!("\"decided\":[3,{spelling}]")),
                    (
                        "\"counters\":[[\"c\",0]]",
                        format!("\"counters\":[[\"c\",{spelling}]]"),
                    ),
                ] {
                    let respelled = listed.replacen(was, &now, 1);
                    assert_eq!(check(&respelled).is_some(), canonical, "{respelled:?}");
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
    /// format 3 changed only the salts they are keyed by, and format 4
    /// only the segments' names.)
    #[test]
    fn run_dir_written_by_the_tree_codec_resumes_untouched() {
        assert_eq!(STORE_FORMAT, 4);
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

        // One segment of 40 lines, as a closed store leaves them.
        write_atomic(&dir.join("manifest.json"), &Manifest::fresh().emit()).unwrap();
        let computed = computed.lock().unwrap();
        let lines: String = computed
            .iter()
            .map(|(salt, seed, slim)| reference_encode_cell(*salt, *seed, slim) + "\n")
            .collect();
        fs::write(shards_dir.join("g000001.jsonl"), lines).unwrap();
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
