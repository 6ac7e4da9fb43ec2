//! In-memory spans for the traced run.
//!
//! A span is `{name, start, end, parent, run_id}`: one call into one layer
//! of the program, recorded by the benchmark around the call (the program
//! itself carries no spans). Spans of one scenario run share a `run_id`.
//! They are kept in a preallocated vector and written out as JSON lines
//! when the run ends. A layer's **self time** is its span's duration minus
//! the part of that interval its child spans cover, so the self times of a
//! tree sum to the root's duration exactly.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `crate.module.what`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The scenario run this span belongs to.
    pub run_id: u32,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    recs: Vec<Span>,
    open: Vec<u32>,
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Σ durations.
    pub total_ns: u64,
    /// Σ self times.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder with room for `capacity` spans (recording more still
    /// works; it just reallocates inside a timed region).
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans {
            t0: Instant::now(),
            recs: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, run_id: u32) -> SpanId {
        let id = self.recs.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        // Read the clock last, so the recorder's own work lands in the
        // parent's self time, not in the new span.
        let start_ns = self.now();
        self.recs.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            run_id,
        });
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.recs[id.0 as usize].end_ns = end_ns;
    }

    /// Every span recorded so far, in opening order.
    pub fn records(&self) -> &[Span] {
        &self.recs
    }

    /// Forgets every span, keeping the buffer (and the clock origin).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.recs.clear();
    }

    /// Self time of every span, indexed like [`Spans::records`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.recs.len()];
        for s in &self.recs {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.recs
            .iter()
            .zip(&children)
            .map(|(s, kids)| self_time((s.start_ns, s.end_ns), kids))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.recs.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.recs.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run_id
            )?;
        }
        out.flush()
    }
}

/// `span`'s duration minus the part of it that `children` cover. Children
/// may overlap each other and may stick out of the parent; both are
/// clipped, so the result never goes negative.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in kids {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
            reach = b;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_siblings_and_ignores_grandchildren() {
        // Parent 0..100 with sibling children 10..30 and 50..90.
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 90)]), 40);
        // No children: all self.
        assert_eq!(self_time((5, 25), &[]), 20);
        // Children covering everything.
        assert_eq!(self_time((0, 10), &[(0, 4), (4, 10)]), 0);
    }

    #[test]
    fn self_time_merges_overlap_and_clips_to_the_parent() {
        // Overlapping children count their union (10..40), once.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        // A child sticking out of the parent is clipped; one fully
        // outside covers nothing; one nested in another adds nothing.
        assert_eq!(self_time((10, 20), &[(0, 12), (18, 30), (40, 50)]), 6);
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn recorded_tree_nests_and_self_times_sum_to_the_root() {
        let mut sp = Spans::with_capacity(8);
        let root = sp.enter("root", 0);
        let a = sp.enter("a", 1);
        let a1 = sp.enter("a.inner", 1);
        sp.exit(a1);
        sp.exit(a);
        let b = sp.enter("b", 2);
        sp.exit(b);
        sp.exit(root);
        let recs = sp.records();
        assert_eq!(recs[0].parent, NO_PARENT);
        assert_eq!((recs[1].parent, recs[2].parent, recs[3].parent), (0, 1, 0));
        assert_eq!((recs[1].run_id, recs[3].run_id), (1, 2));
        for s in recs {
            assert!(s.end_ns >= s.start_ns);
        }
        let selfs = sp.self_times();
        let root_dur = recs[0].end_ns - recs[0].start_ns;
        assert_eq!(selfs.iter().sum::<u64>(), root_dur);
        // The grandchild is subtracted from `a`, not from the root.
        assert_eq!(
            selfs[0],
            root_dur - (recs[1].end_ns - recs[1].start_ns) - (recs[3].end_ns - recs[3].start_ns)
        );
        let totals = sp.totals();
        assert_eq!(totals["a"].count, 1);
        assert_eq!(totals["a"].self_ns, selfs[1]);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_harness_bug() {
        let mut sp = Spans::with_capacity(2);
        let outer = sp.enter("outer", 0);
        let _inner = sp.enter("inner", 0);
        sp.exit(outer);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut sp = Spans::with_capacity(2);
        let root = sp.enter("root", 7);
        let kid = sp.enter("kid", 7);
        sp.exit(kid);
        sp.exit(root);
        let out = crate::expected::benchmark_dir().join("out");
        std::fs::create_dir_all(&out).unwrap();
        let path = out.join(format!("test-spans-{}.jsonl", std::process::id()));
        sp.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let kid = fd_bench::json::parse(lines[1]).unwrap();
        assert_eq!(kid.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(kid.get("run_id").and_then(|p| p.as_u64()), Some(7));
        assert_eq!(
            fd_bench::json::parse(lines[0]).unwrap().get("parent"),
            Some(&fd_bench::json::Json::Null)
        );
    }
}
