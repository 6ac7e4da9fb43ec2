//! The counting allocator is exact for a sequential run: two passes over
//! one batch read byte-identical peaks and equal call counts.
//!
//! This test has a test binary to itself on purpose. The tallies are
//! process-wide, and libtest runs the tests of one binary on parallel
//! threads; alone in its binary, nothing else allocates while it measures.

use fd_benchmark::alloc::{reset_peak, stats, Counting};
use fd_benchmark::workloads::{batch, grid_small, run_batch, Cell, Tally, Workload};
use fd_detectors::scenario::Runner;

#[global_allocator]
static ALLOC: Counting = Counting;

/// One pass: (tallies, peak above the starting live size, allocator calls,
/// bytes still live afterwards).
fn pass(cells: &[Cell]) -> (Vec<Tally>, usize, u64, usize) {
    reset_peak();
    let before = stats();
    let tallies = run_batch(Runner::sequential(), cells);
    let after = stats();
    (
        tallies,
        after.peak - before.live,
        after.calls - before.calls,
        after.live - before.live,
    )
}

#[test]
fn two_passes_over_one_batch_read_identical_peaks_and_call_counts() {
    // A slice of every sequential workload shape: small crashy k-set
    // cells, and each transformation once.
    let mut cells = grid_small(0..6);
    for mut cell in batch(Workload::TransformsHorizon, 0) {
        cell.seeds = cell.seeds.start..cell.seeds.start + 1;
        cells.push(cell);
    }
    // The first pass pays for one-time lazies; it is not compared.
    let first = pass(&cells);
    let (a, b) = (pass(&cells), pass(&cells));
    assert_eq!(a, b, "a sequential batch must allocate identically twice");
    assert_eq!(a.0, first.0, "and compute identically");
    let (_, peak, calls, left) = a;
    assert!(
        calls > 1_000,
        "the allocator is not counting ({calls} calls)"
    );
    assert!(peak > left, "a run's peak is above what the tallies retain");
    // Nothing but the returned tallies outlives a pass.
    assert_eq!(left, cells.len() * std::mem::size_of::<Tally>());
}
