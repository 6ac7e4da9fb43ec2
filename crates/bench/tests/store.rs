//! End-to-end durability tests for the sweep store: each test plays a
//! sequence of "process lifetimes" against one run directory — every
//! session opens the directory fresh, hydrates a brand-new
//! [`ReportCache`], sweeps, and closes — and asserts the cross-process
//! resume contract: warm passes are all hits and bit-identical, partial
//! cold sweeps recompute only the missing cells, and on-disk damage
//! (corrupted cell lines, tampered or garbled manifests) degrades to
//! recomputation, never to a panic or a wrong report.

use fd_bench::{load_run_dir, StoreSession, SweepStore};
use fd_core::KsetScenario;
use fd_detectors::scenario::{
    CrashPlan, ReportCache, Runner, Scenario, ScenarioSpec, SlimReport, SweepSummary,
};
use fd_sim::Time;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch run directory per call, pre-cleaned.
fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fd-store-it-{}-{}-{name}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The single crashy cell every session sweeps (seeds vary per session).
fn cell_spec() -> ScenarioSpec {
    KsetScenario::spec(5, 2, 2)
        .gst(Time(400))
        .crashes(CrashPlan::Random {
            f: 2,
            by: Time(500),
        })
}

/// Everything one "process lifetime" observed, for assertions.
struct Session {
    summary: SweepSummary,
    hits: u64,
    misses: u64,
    hydrated: usize,
    loaded: usize,
    corrupt: u64,
    archived_stale: bool,
    wrote: u64,
}

/// One process lifetime: open `dir`, hydrate a fresh cache, sweep `seeds`
/// with the spill hook persisting every computed cell, flush, close.
fn sweep_session(dir: &Path, seeds: Range<u64>) -> Session {
    let store = SweepStore::open(dir).expect("open run dir");
    let spec = cell_spec();
    store.register_spec("n5_t2_k2_f2", &KsetScenario.cache_tag(), &spec);
    // Each session deliberately starts from a cold cache.
    let cache = &ReportCache::new();
    let loaded = store.loaded();
    let corrupt = store.corrupt();
    let archived_stale = store.archived_stale();
    let hydrated = store.hydrate_into(cache);
    cache.set_spill(Some(store.spill()));
    let runner = Runner::sequential().with_cache(cache);
    let summary = runner.sweep_summary(&KsetScenario, &spec, seeds);
    store.flush().expect("flush");
    let closed = store.close().expect("close");
    Session {
        summary,
        hits: cache.hits(),
        misses: cache.misses(),
        hydrated,
        loaded,
        corrupt,
        archived_stale,
        wrote: closed.wrote,
    }
}

/// A `SIGKILL`ed campaign — no `close()`, no `Drop` — must stay
/// resumable when the manifest was committed up front: every flushed
/// segment loads on reopen instead of being archived as untrusted, and
/// only the cells the kill lost are recomputed.
#[test]
fn early_manifest_commit_survives_a_kill() {
    let dir = scratch("kill");
    {
        let store = SweepStore::open(&dir).expect("open run dir");
        let spec = cell_spec();
        store.register_spec("n5_t2_k2_f2", &KsetScenario.cache_tag(), &spec);
        store.commit_manifest().expect("commit manifest");
        let cache = &ReportCache::new();
        cache.set_spill(Some(store.spill()));
        let runner = Runner::sequential().with_cache(cache);
        let _ = runner.sweep_summary(&KsetScenario, &spec, 0..6);
        store.flush().expect("flush");
        cache.set_spill(None);
        // Simulate the kill: the store is neither closed nor dropped, so
        // the manifest written at close time never lands.
        std::mem::forget(store);
    }
    let resumed = sweep_session(&dir, 0..9);
    assert!(
        !resumed.archived_stale,
        "killed run dir must not be archived"
    );
    assert_eq!(resumed.loaded, 6, "flushed cells must load after a kill");
    assert_eq!(resumed.hydrated, 6);
    assert_eq!(resumed.hits, 6, "surviving cells must be served");
    assert_eq!(resumed.misses, 3, "only the lost seeds recompute");
}

/// The names in `dir`'s `shards/` that start with `.tmp-`, sorted.
fn temps(dir: &Path) -> Vec<String> {
    let mut found: Vec<String> = fs::read_dir(dir.join("shards"))
        .expect("read shards dir")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|name| name.starts_with(".tmp-"))
        .collect();
    found.sort();
    found
}

/// A writer killed before it sealed leaves its one open segment behind
/// under its temp name. The next open deletes that and nothing else: no
/// temp line loads, and exactly the cells it held recompute.
#[test]
fn a_killed_writers_open_segments_are_deleted_and_recomputed() {
    let dir = scratch("killed-writer");
    let cold = sweep_session(&dir, 0..8);
    assert_eq!(cold.wrote, 8);
    // Temp-like names that are not the store's own are strays: kept. The
    // per-shard temp names of format 3 (`.tmp-sNN`) are among them.
    let strays = [
        ".tmp-s01",
        ".tmp-s15",
        ".tmp-s01-g000001",
        ".tmp-s16",
        ".tmp-s1",
        ".tmp-s01.jsonl",
        ".tmp-segment.jsonl",
        ".tmp-segment1",
    ];
    for name in strays {
        fs::write(dir.join("shards").join(name), "not a cell\n").expect("write stray");
    }
    {
        let store = SweepStore::open(&dir).expect("open run dir");
        let cache = &ReportCache::new();
        assert_eq!(store.hydrate_into(cache), 8);
        cache.set_spill(Some(store.spill()));
        let runner = Runner::sequential().with_cache(cache);
        let _ = runner.sweep_summary(&KsetScenario, &cell_spec(), 0..16);
        cache.set_spill(None);
        // The sweep has appended all eight new cells to the segment it has
        // not sealed; kill the writer now: no flush, no close.
        let open: Vec<String> = temps(&dir)
            .into_iter()
            .filter(|name| !strays.contains(&name.as_str()))
            .collect();
        assert_eq!(open, [".tmp-segment"], "one open segment for every shard");
        let text = fs::read_to_string(dir.join("shards").join(&open[0])).unwrap();
        assert_eq!(text.lines().count(), 8, "every new cell sits in it");
        std::mem::forget(store);
    }

    let store = SweepStore::open(&dir).expect("reopen run dir");
    assert_eq!(
        (store.loaded(), store.corrupt()),
        (8, 0),
        "no temp line loads"
    );
    let mut kept = strays.map(String::from).to_vec();
    kept.sort();
    assert_eq!(temps(&dir), kept, "the open segments are gone");
    store.close().expect("close");

    let resumed = sweep_session(&dir, 0..16);
    assert_eq!(
        (resumed.hits, resumed.misses),
        (8, 8),
        "only the lost cells recompute"
    );
    assert_eq!(resumed.wrote, 8);
    let warm = sweep_session(&dir, 0..16);
    assert_eq!((warm.hits, warm.misses, warm.wrote), (16, 0, 0));
    assert_eq!(warm.summary, resumed.summary);
    for name in strays {
        let kept = fs::read_to_string(dir.join("shards").join(name)).expect("stray still there");
        assert_eq!(kept, "not a cell\n", "{name} must be left as it was");
    }
}

#[test]
fn cross_process_resume_is_all_hits_and_bit_identical() {
    let dir = scratch("resume");
    let cold = sweep_session(&dir, 0..16);
    assert_eq!(cold.loaded, 0);
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.misses, 16);
    assert_eq!(cold.wrote, 16, "every computed cell must persist");

    let warm = sweep_session(&dir, 0..16);
    assert_eq!(warm.loaded, 16);
    assert_eq!(warm.hydrated, 16);
    assert_eq!(warm.hits, 16, "resume must be all hits");
    assert_eq!(warm.misses, 0, "resume must recompute nothing");
    assert_eq!(warm.wrote, 0, "nothing new to persist on resume");
    assert_eq!(
        cold.summary, warm.summary,
        "warm summary diverged from cold"
    );
}

#[test]
fn interrupted_cold_sweep_recomputes_only_missing_cells() {
    // Session one "crashes" after 4 of 12 seeds; the resumed session
    // must serve those 4 from disk and compute exactly the other 8.
    let dir = scratch("partial");
    let partial = sweep_session(&dir, 0..4);
    assert_eq!(partial.wrote, 4);

    let resumed = sweep_session(&dir, 0..12);
    assert_eq!(resumed.hydrated, 4);
    assert_eq!(resumed.hits, 4, "persisted prefix must be served");
    assert_eq!(resumed.misses, 8, "only missing seeds recompute");
    assert_eq!(resumed.wrote, 8, "recomputed cells must persist too");

    let warm = sweep_session(&dir, 0..12);
    assert_eq!(warm.hits, 12);
    assert_eq!(warm.misses, 0);
    assert_eq!(warm.summary, resumed.summary);

    // The stitched-together sweep is bit-identical to one that never
    // stopped: runs are pure in (scenario, spec, seed).
    let oneshot = sweep_session(&scratch("partial-oneshot"), 0..12);
    assert_eq!(oneshot.summary, resumed.summary);
}

#[test]
fn corrupted_cell_line_is_dropped_recomputed_and_rewritten() {
    let dir = scratch("corrupt");
    let cold = sweep_session(&dir, 0..8);
    assert_eq!(cold.wrote, 8);

    // Garble the first line of one segment — one cell's record.
    let shards = dir.join("shards");
    let segment = fs::read_dir(&shards)
        .expect("read shards dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .expect("at least one segment on disk");
    let text = fs::read_to_string(&segment).expect("read segment");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[0] = "{\"salt\": \"truncated mid-write";
    fs::write(&segment, lines.join("\n") + "\n").expect("rewrite segment");

    let warm = sweep_session(&dir, 0..8);
    assert_eq!(warm.corrupt, 1, "the garbled line must be counted");
    assert_eq!(warm.loaded, 7, "the other cells must survive");
    assert_eq!(warm.hits, 7);
    assert_eq!(warm.misses, 1, "exactly the lost cell recomputes");
    assert_eq!(warm.wrote, 1, "…and is written back");
    assert_eq!(
        cold.summary, warm.summary,
        "corruption must never change a report"
    );

    // The recompute healed the directory: a third session is clean.
    let healed = sweep_session(&dir, 0..8);
    assert_eq!(healed.corrupt, 0);
    assert_eq!(healed.loaded, 8);
    assert_eq!(healed.hits, 8);
    assert_eq!(healed.misses, 0);
    assert_eq!(healed.summary, cold.summary);
}

#[test]
fn manifest_engine_mismatch_archives_shards_and_recomputes() {
    let dir = scratch("mismatch");
    let cold = sweep_session(&dir, 0..6);
    assert_eq!(cold.wrote, 6);

    // Pretend a different engine wrote the directory: the salts can no
    // longer be trusted, so open must archive and start clean.
    let manifest = dir.join("manifest.json");
    let text = fs::read_to_string(&manifest).expect("read manifest");
    let tampered = text.replace("fd-bench", "fd-bench-from-the-future");
    assert_ne!(text, tampered, "engine string must appear in manifest");
    fs::write(&manifest, tampered).expect("tamper manifest");

    let warm = sweep_session(&dir, 0..6);
    assert!(warm.archived_stale, "mismatch must archive, not panic");
    assert_eq!(warm.loaded, 0);
    assert_eq!(warm.hydrated, 0);
    assert_eq!(warm.hits, 0);
    assert_eq!(warm.misses, 6, "everything recomputes under a fresh key");
    assert_eq!(warm.wrote, 6);
    assert_eq!(cold.summary, warm.summary);
    assert!(
        dir.join("stale-0").is_dir(),
        "archived shards must be preserved, not deleted"
    );

    let healed = sweep_session(&dir, 0..6);
    assert!(!healed.archived_stale);
    assert_eq!(healed.loaded, 6);
    assert_eq!(healed.hits, 6);
    assert_eq!(healed.misses, 0);
}

#[test]
fn garbled_manifest_never_panics() {
    let dir = scratch("garbled");
    let cold = sweep_session(&dir, 0..3);
    fs::write(dir.join("manifest.json"), "{ not json !!").expect("garble");

    let warm = sweep_session(&dir, 0..3);
    assert!(warm.archived_stale);
    assert_eq!(warm.loaded, 0);
    assert_eq!(warm.misses, 3);
    assert_eq!(warm.summary, cold.summary);
}

/// The segments of `dir`, sorted by name.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(dir.join("shards"))
        .expect("read shards dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    found.sort();
    found
}

/// Files in `shards/` that are not segment names — an editor's backup, a
/// half-typed `touch`, another tool's output — are not the store's: open
/// must neither index into their names (it used to panic on `s.jsonl`),
/// nor book them as shard 0 and compact it, nor delete them.
#[test]
fn stray_files_in_shards_are_ignored_and_kept() {
    let dir = scratch("strays");
    let cold = sweep_session(&dir, 0..12);
    assert_eq!(cold.wrote, 12);
    let before = segments(&dir);

    let strays = [
        "s.jsonl",
        "s1.jsonl",
        "sxx-gyyyyyy.jsonl",
        "s99-g000001.jsonl",
        "sé-g000001.jsonl",
    ];
    for name in strays {
        fs::write(dir.join("shards").join(name), "not a cell\n").expect("write stray");
    }

    let warm = sweep_session(&dir, 0..12);
    assert!(!warm.archived_stale);
    assert_eq!(warm.corrupt, 0, "stray files must not be read at all");
    assert_eq!(warm.loaded, 12);
    assert_eq!(warm.hits, 12, "every real cell must still hit");
    assert_eq!(warm.misses, 0);
    assert_eq!(warm.wrote, 0);
    assert_eq!(warm.summary, cold.summary);
    for name in strays {
        let kept = fs::read_to_string(dir.join("shards").join(name)).expect("stray still there");
        assert_eq!(kept, "not a cell\n", "{name} must be left as it was");
    }
    let after: Vec<PathBuf> = segments(&dir)
        .into_iter()
        .filter(|p| !strays.iter().any(|s| p.ends_with(s)))
        .collect();
    assert_eq!(after, before, "no stray may trigger a compaction");
}

/// The segments of `dir` with their bytes, sorted by name.
fn segment_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let read = |p: PathBuf| {
        let bytes = fs::read(&p).expect("read segment");
        (p, bytes)
    };
    segments(dir).into_iter().map(read).collect()
}

/// Two sessions that each wrote and closed leave a clean directory: the
/// next open replays it as it stands — every segment's name and bytes
/// unchanged — loads all 32 cells and writes nothing.
#[test]
fn a_clean_run_directory_is_never_rewritten_on_open() {
    let dir = scratch("clean");
    assert_eq!(sweep_session(&dir, 0..16).wrote, 16);
    assert_eq!(sweep_session(&dir, 16..32).wrote, 16);
    let before = segment_files(&dir);

    let untouched = || {
        let after = segment_files(&dir);
        let names = |files: &[(PathBuf, Vec<u8>)]| -> Vec<PathBuf> {
            files.iter().map(|f| f.0.clone()).collect()
        };
        assert_eq!(names(&after), names(&before), "no segment renamed");
        assert!(after == before, "no segment rewritten");
    };
    let store = SweepStore::open(&dir).expect("open run dir");
    assert_eq!((store.loaded(), store.corrupt()), (32, 0));
    untouched();
    assert_eq!(before.len(), 2, "one segment per session");
    assert_eq!(store.close().expect("close").wrote, 0);
    let third = sweep_session(&dir, 0..32);
    assert_eq!((third.loaded, third.corrupt, third.wrote), (32, 0, 0));
    assert_eq!((third.hits, third.misses), (32, 0));
    untouched();
}

/// The writer seals every 128 lines, whichever shards the cells belong to:
/// a 300-cell session leaves three segments, of 128, 128 and 44 lines. A
/// writer killed mid-sweep leaves exactly one open segment, of fewer than
/// 128 lines, and only its cells recompute.
#[test]
fn segments_are_sealed_every_128_lines() {
    let dir = scratch("batches");
    assert_eq!(sweep_session(&dir, 0..300).wrote, 300);
    let lines = |p: &Path| fs::read_to_string(p).expect("read").lines().count();
    let sizes: Vec<usize> = segments(&dir).iter().map(|p| lines(p)).collect();
    assert_eq!(sizes, [128, 128, 44]);
    {
        let store = SweepStore::open(&dir).expect("open run dir");
        let cache = &ReportCache::new();
        assert_eq!(store.hydrate_into(cache), 300);
        cache.set_spill(Some(store.spill()));
        let runner = Runner::sequential().with_cache(cache);
        let _ = runner.sweep_summary(&KsetScenario, &cell_spec(), 0..500);
        cache.set_spill(None);
        // SIGKILL: no flush, no close, no drop.
        std::mem::forget(store);
    }
    assert_eq!(temps(&dir), [".tmp-segment"]);
    let open = lines(&dir.join("shards").join(".tmp-segment"));
    assert!(open < 128, "{open} lines in the open segment");
    assert_eq!(
        open,
        200 - 128,
        "the 200 new cells: one sealed segment and the rest"
    );
    assert_eq!(segments(&dir).len(), 4);
    let resumed = sweep_session(&dir, 0..500);
    assert_eq!(
        (resumed.loaded, resumed.misses, resumed.wrote),
        (428, 72, 72)
    );
    assert!(temps(&dir).is_empty());
}

/// A megabyte of `[` on one line used to overflow the parser's stack and
/// abort the process; it is one corrupt line like any other.
#[test]
fn deeply_nested_garbage_line_is_dropped_and_compacted_away() {
    let dir = scratch("nested");
    let cold = sweep_session(&dir, 0..8);
    assert_eq!(cold.wrote, 8);

    let before = segments(&dir);
    let scarred = &before[0];
    let mut text = fs::read_to_string(scarred).expect("read segment");
    text.push_str(&"[".repeat(1 << 20));
    text.push('\n');
    fs::write(scarred, text).expect("scar segment");

    let warm = sweep_session(&dir, 0..8);
    assert_eq!(warm.corrupt, 1, "the garbage line must be counted");
    assert_eq!(warm.loaded, 8, "every cell must survive");
    assert_eq!(warm.hits, 8);
    assert_eq!(warm.misses, 0);
    assert_eq!(warm.summary, cold.summary);
    let after = segments(&dir);
    assert!(
        !after.contains(scarred),
        "the scarred store must be compacted"
    );
    assert_eq!(after.len(), before.len());
    assert!(after
        .iter()
        .all(|p| fs::metadata(p).unwrap().len() < 1 << 20));

    let healed = sweep_session(&dir, 0..8);
    assert_eq!(healed.corrupt, 0);
    assert_eq!(healed.hits, 8);
}

/// The whole experiment suite through `--store`, as `tables` runs it: a
/// cold pass into a fresh run directory, then a new "process" — the
/// directory reopened into a fresh cache — whose swept experiments are all
/// hits and whose tables are the cold pass's, byte for byte.
#[test]
fn experiment_suite_resumes_from_a_store_session() {
    let dir = scratch("tables");
    let pass = |resume: bool| {
        let session = StoreSession::open(&dir, |_| {}).expect("open run dir");
        let cache = session.cache();
        let rendered: String = fd_bench::all(true, Runner::parallel().with_cache(cache))
            .iter()
            .map(|table| format!("{table}\n"))
            .collect();
        let (hits, misses) = (cache.hits(), cache.misses());
        (
            rendered,
            hits,
            misses,
            session.close(hits + misses, 0, resume),
        )
    };
    let (cold, _, cold_misses, closed) = pass(false);
    assert!(cold_misses > 0, "a fresh directory serves nothing");
    closed.expect("cold close");
    let (warm, warm_hits, warm_misses, closed) = pass(true);
    assert_eq!(warm_misses, 0, "the reopened directory serves every cell");
    assert!(warm_hits >= cold_misses, "every cold cell is a warm hit");
    let line = closed.expect("`--resume` contract: all hits, none recomputed");
    assert!(line.contains("wrote 0 new cell(s)"), "{line}");
    assert_eq!(warm, cold, "resumed tables diverged from the cold ones");
}

/// Every report of `seeds` a sweep through `cache` folds, in seed order.
fn swept_reports(cache: &ReportCache, seeds: Range<u64>) -> Vec<SlimReport> {
    Runner::sequential().with_cache(cache).sweep_fold(
        &KsetScenario,
        &cell_spec(),
        seeds,
        Vec::new(),
        |reports, slim| reports.push(slim),
    )
}

/// The cells of `dir` as a read-only load decodes them, in seed order.
fn decoded(dir: &Path) -> Vec<SlimReport> {
    let salt = ReportCache::salt(&KsetScenario.cache_tag(), &cell_spec());
    let mut cells = load_run_dir(dir).expect("load run dir").cells;
    (0..cells.len() as u64)
        .map(|seed| cells.remove(&(salt, seed)).expect("every seed on disk"))
        .collect()
}

/// `hydrate_into` moves the loaded cells: the first call admits them all,
/// every one then hits with the report its line decodes to, and a second
/// call — into the same cache or another — has nothing left to admit,
/// while `loaded` still counts what was on disk.
#[test]
fn hydrate_into_moves_every_cell_once() {
    let dir = scratch("move");
    assert_eq!(sweep_session(&dir, 0..16).wrote, 16);
    let store = SweepStore::open(&dir).expect("open run dir");
    let cache = &ReportCache::new();
    assert_eq!(store.hydrate_into(cache), 16);
    assert_eq!(store.hydrate_into(cache), 0);
    assert_eq!(store.hydrate_into(&ReportCache::new()), 0);
    assert_eq!(
        (store.loaded(), cache.hydrated(), cache.entries()),
        (16, 16, 16)
    );
    assert_eq!(swept_reports(cache, 0..16), decoded(&dir));
    assert_eq!((cache.hits(), cache.misses()), (16, 0));
    assert_eq!(store.close().expect("close").loaded, 16);
}

/// A cache that already holds entries, or whose cap is below the cells on
/// disk, takes the cells one at a time: every loaded cell is either
/// admitted or tallied as capped, and exactly the admitted ones hit.
#[test]
fn hydrate_into_a_busy_or_capped_cache_accounts_for_every_cell() {
    let dir = scratch("busy");
    let cold = sweep_session(&dir, 0..40);

    let busy = &ReportCache::new();
    swept_reports(busy, 100..110);
    let store = SweepStore::open(&dir).expect("open run dir");
    assert_eq!(store.hydrate_into(busy), 40);
    assert_eq!((busy.capped_inserts(), busy.entries()), (0, 50));
    let before = busy.hits();
    assert_eq!(swept_reports(busy, 0..40), decoded(&dir));
    assert_eq!((busy.hits() - before, busy.misses()), (40, 10));
    store.close().expect("close");

    // One entry per shard: at most 16 of the 40 cells fit.
    let capped = &ReportCache::with_capacity(1);
    let store = SweepStore::open(&dir).expect("open run dir");
    let admitted = store.hydrate_into(capped);
    assert!(admitted <= 16, "the cap must cut some cells");
    assert_eq!(
        admitted as u64 + capped.capped_inserts(),
        store.loaded() as u64
    );
    assert_eq!(capped.hydrated(), admitted as u64);
    let summary =
        Runner::sequential()
            .with_cache(capped)
            .sweep_summary(&KsetScenario, &cell_spec(), 0..40);
    assert_eq!(summary, cold.summary);
    assert_eq!(
        capped.hits(),
        admitted as u64,
        "exactly the admitted cells hit"
    );
    store.close().expect("close");
}

/// A writer whose first segment cannot be created keeps the error: the
/// sweep runs on, later cells are dropped, `flush` and `close` return it,
/// and the lost cells recompute on the next open.
#[test]
fn a_failed_writer_reports_its_error_and_its_cells_recompute() {
    let dir = scratch("failed-writer");
    let store = SweepStore::open(&dir).expect("open run dir");
    fs::remove_dir_all(dir.join("shards")).expect("remove shards/");
    let cache = &ReportCache::new();
    cache.set_spill(Some(store.spill()));
    let runner = Runner::sequential().with_cache(cache);
    let cold = runner.sweep_summary(&KsetScenario, &cell_spec(), 0..4);
    cache.set_spill(None);
    assert_eq!(cache.misses(), 4);
    assert!(store.flush().is_err(), "flush returns the error");
    assert!(store.close().is_err(), "close returns it too");

    let resumed = sweep_session(&dir, 0..4);
    assert_eq!((resumed.loaded, resumed.hits, resumed.misses), (0, 0, 4));
    assert_eq!((resumed.wrote, resumed.summary), (4, cold));
}

/// The writer dedups against the keys on disk at open, not against the
/// cells: once the reports have moved into a cache, spilling one of them
/// again still writes nothing.
#[test]
fn spilling_a_resumed_cell_writes_nothing() {
    let dir = scratch("respill");
    sweep_session(&dir, 0..8);
    let salt = ReportCache::salt(&KsetScenario.cache_tag(), &cell_spec());
    let store = SweepStore::open(&dir).expect("open run dir");
    let cache = &ReportCache::new();
    assert_eq!(store.hydrate_into(cache), 8);
    let spill = store.spill();
    for (seed, slim) in decoded(&dir).iter().enumerate() {
        spill(salt, seed as u64, slim);
    }
    assert_eq!(store.flush().expect("flush"), 0);
    assert_eq!(store.close().expect("close").wrote, 0);
}

/// Sweeps 24 cells, one segment; rewrites its first line with `scar`;
/// resumes. The scarred line must be one corrupt line: its cell alone
/// recomputes, and open compacts the whole store — the 23 surviving cells
/// into ⌈23/128⌉ = 1 new segment, every old segment deleted — while the
/// recomputed cell is sealed at close in a segment of its own. Together
/// the two hold exactly the lines the clean close wrote.
fn resume_one_scarred_line(name: &str, scar: impl Fn(&mut Vec<u8>)) -> (PathBuf, SweepSummary) {
    let dir = scratch(name);
    let cold = sweep_session(&dir, 0..24);
    let before = segments(&dir);
    assert_eq!(before.len(), 1, "24 cells are one segment");
    let scarred = &before[0];
    let clean = fs::read(scarred).expect("read segment");
    let end = clean
        .iter()
        .position(|&b| b == b'\n')
        .expect("a whole line");
    let mut line = clean[..end].to_vec();
    scar(&mut line);
    fs::write(scarred, [&line[..], &clean[end..]].concat()).expect("scar a line");
    assert_eq!(load_run_dir(&dir).expect("load run dir").corrupt, 1);

    let warm = sweep_session(&dir, 0..24);
    assert_eq!(warm.corrupt, 1, "the scarred line must be counted");
    let counts = (warm.loaded, warm.hits, warm.misses, warm.wrote);
    assert_eq!(counts, (23, 23, 1, 1), "exactly its cell recomputes");
    assert_eq!(warm.summary, cold.summary);
    let after = segments(&dir);
    assert!(!after.contains(scarred), "every old segment is deleted");
    let lines = |p: &PathBuf| -> Vec<String> {
        let text = fs::read_to_string(p).expect("a healed segment is UTF-8");
        text.lines().map(String::from).collect()
    };
    let sizes: Vec<usize> = after.iter().map(|p| lines(p).len()).collect();
    assert_eq!(sizes, [23, 1], "the survivors, then the recomputed cell");
    let mut healed: Vec<String> = after.iter().flat_map(lines).collect();
    let clean = String::from_utf8(clean).expect("a clean segment is UTF-8");
    let mut clean: Vec<&str> = clean.lines().collect();
    healed.sort();
    clean.sort();
    assert_eq!(healed, clean, "the store holds the encoder's lines again");
    (dir, cold.summary)
}

/// One byte that is not UTF-8 spoils one line, not the run directory; in
/// the manifest, it spoils the manifest, which is then archived.
#[test]
fn a_non_utf8_byte_is_one_corrupt_line() {
    let (dir, summary) = resume_one_scarred_line("non-utf8", |line| line[10] = 0xFF);
    let manifest = dir.join("manifest.json");
    let mut bytes = fs::read(&manifest).expect("read manifest");
    bytes[2] = 0xFF;
    fs::write(&manifest, bytes).expect("scar manifest");
    let restarted = sweep_session(&dir, 0..24);
    assert!(restarted.archived_stale);
    assert_eq!((restarted.loaded, restarted.misses), (0, 24));
    assert_eq!(restarted.summary, summary);
}

/// A line in another spelling of the same JSON — a space after each comma
/// — is not the encoder's line: one corrupt line, rewritten canonically.
#[test]
fn a_respelled_line_is_recomputed_and_rewritten_canonically() {
    resume_one_scarred_line("respelled", |line| {
        let respelled = String::from_utf8_lossy(line).replace(",\"", ", \"");
        *line = respelled.into_bytes();
    });
}
