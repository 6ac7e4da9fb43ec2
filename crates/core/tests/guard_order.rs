//! The Figure 3 line 06 oracle read is observationally pinned.
//!
//! `KsetOmega::try_advance` reads `trusted_i` only once the line 05 quorum
//! holds and no member of `L_i` has been heard — the read must stay
//! short-circuited behind both. A recording wrapper around [`OmegaOracle`]
//! folds the `(process, time)` of every `trusted` read of a run into a
//! length and an FNV-1a hash; the pinned values were recorded before the
//! guards were reordered to check the count first, so any evaluation order
//! that reads the oracle earlier, later, or more often fails here.

use fd_core::KsetOmega;
use fd_detectors::OmegaOracle;
use fd_sim::{FailurePattern, OracleSuite, PSet, ProcessId, Sim, SimConfig, Time};

struct Recording {
    inner: OmegaOracle,
    reads: u64,
    hash: u64,
}

impl OracleSuite for Recording {
    fn trusted(&mut self, p: ProcessId, now: Time) -> PSet {
        self.reads += 1;
        for byte in (p.0 as u64)
            .to_le_bytes()
            .into_iter()
            .chain(now.ticks().to_le_bytes())
        {
            self.hash = (self.hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self.inner.trusted(p, now)
    }
}

/// Runs Figure 3 under a recorded `Ω_z` until every correct process has
/// decided (or the horizon) and returns `(reads, hash)`.
fn trusted_reads(fp: FailurePattern, t: usize, z: usize, gst: u64, horizon: u64) -> (u64, u64) {
    let seed = 7;
    let mut oracle = Recording {
        inner: OmegaOracle::new(fp.clone(), z, Time(gst), seed),
        reads: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    };
    let cfg = SimConfig::new(fp.n(), t).seed(seed).max_time(Time(horizon));
    let correct = fp.correct();
    let sim = Sim::new(cfg, fp, |p| KsetOmega::new(100 + p.0 as u64), &mut oracle);
    sim.run_into_trace(move |tr| tr.deciders().is_superset(correct));
    (oracle.reads, oracle.hash)
}

#[test]
fn trusted_read_sequence_is_unchanged() {
    let crashes = FailurePattern::builder(5)
        .crash(ProcessId(1), Time(50))
        .crash(ProcessId(3), Time(200))
        .build();
    assert_eq!(
        trusted_reads(crashes, 2, 2, 400, 30_000),
        (153, 0x99d7_3b75_15bd_9d3c),
        "n = 5, gst 400, two crashes"
    );
    // GST beyond the horizon: every read is an anarchy-period read.
    assert_eq!(
        trusted_reads(FailurePattern::all_correct(9), 4, 2, 1_000_000, 2_000),
        (2483, 0x6790_9ee3_eb0c_f45b),
        "n = 9, never stabilizes"
    );
    assert_eq!(
        trusted_reads(FailurePattern::all_correct(33), 16, 3, 300, 30_000),
        (1763, 0x82da_fa5b_bbf6_dc7e),
        "n = 33, gst 300"
    );
}
