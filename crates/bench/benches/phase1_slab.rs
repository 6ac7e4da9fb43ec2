//! `Phase1Slab` in isolation, driven the way `KsetOmega` drives it: per
//! round, `n` `PHASE1` inserts through a `RoundWindow` with the line 05/06
//! guards re-read after each, the line 07 value choice once, and the slab
//! retired. Two shapes of leader sets:
//!
//! * **stable** — every sender reports the same set (what a stabilized
//!   `Ω_z` gives, and the shape the repo benchmark's replay measures);
//! * **anarchy** — every sender reports a different two-member set (what
//!   an `Ω_z` oracle may do before GST, and where the large-`n` runs spend
//!   most of their rounds).
//!
//! Each iteration is ~`OPS` inserts, so median / `OPS` is the cost of one
//! insert + guards.

use fd_bench::Suite;
use fd_core::{Phase1Slab, RoundWindow};
use fd_sim::{PSet, ProcessId};
use std::hint::black_box;

const OPS: usize = 200_000;

fn rounds(n: usize, sets: &[PSet]) -> u64 {
    let mut window: RoundWindow<Phase1Slab> = RoundWindow::new();
    let li = sets[0];
    let mut acc = 0u64;
    for r in 1..=(OPS / n) as u32 {
        for (from, &leaders) in sets.iter().enumerate() {
            let slab = window.entry(r, || Phase1Slab::new(n));
            slab.insert(ProcessId(from), black_box(leaders), 100 + from as u64);
            black_box((slab.count(), slab.heard_from(li)));
        }
        let slab = window.get(r).expect("entry made above");
        let aux = slab.majority(n).and_then(|l| slab.min_member_est(l));
        acc = acc.wrapping_add(aux.unwrap_or(1));
        window.retire_below(r + 1);
    }
    acc
}

fn main() {
    let mut suite = Suite::new("phase1_slab");
    for n in [9usize, 128, 512] {
        let stable = vec![PSet::full(2); n];
        let anarchy: Vec<PSet> = (0..n)
            .map(|i| PSet::from_iter([ProcessId(i), ProcessId((i + 1) % n)]))
            .collect();
        let per_iter = OPS / n * n;
        suite.bench(&format!("stable_n{n}/{per_iter}_inserts"), || {
            rounds(n, &stable)
        });
        suite.bench(&format!("anarchy_n{n}/{per_iter}_inserts"), || {
            rounds(n, &anarchy)
        });
    }
}
