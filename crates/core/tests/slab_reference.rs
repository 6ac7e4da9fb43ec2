//! Differential suite: the bitset-slab round automata are bit-identical
//! to the retained `HashMap`-of-`Vec` reference implementations.
//!
//! [`KsetOmega`]/[`ConsensusMr`] (slabs, `fd_core::rounds`) and
//! [`KsetOmegaRef`]/[`ConsensusMrRef`] (the `reference` module beside this
//! file, the pre-slab code verbatim) run through the *full* scenario
//! engine — materialized failure patterns, oracles, delay sampling,
//! message adversary, decision checking — and must produce equal
//! [`ScenarioReport::fingerprint`]s: same event counts, same messages,
//! same decisions, same counters, same history samples. The grid spans
//! process counts up to the n = 128 tier and one past it (n = 130, three
//! words of identities), sequential and 4-thread runners, and armed/unarmed
//! adversaries.
//!
//! The reference also activates the process on every event and re-checks
//! its guards after each one, so the same rows pin [`KsetOmega`]'s
//! `settle` hook: a step that cannot open a guard is settled without an
//! activation, a delivery it would not record is released unread, and a
//! recorded one re-checks the guards only if it can open one. Two rows
//! keep processes stepping for long with short quorums, where most steps
//! are settled: a partition that lasts past the horizon, and churn without
//! catch-up. `tests/shortcut_counts.rs` counts what the hook skips.

// Verbatim pre-slab code: the accessors the differential never calls
// (external leader inputs, `has_decided`, `round`) stay for fidelity.
#[allow(dead_code)]
mod reference;

use fd_core::{ConsensusScenario, KsetScenario};
use fd_detectors::scenario::{CrashPlan, Runner, Scenario, ScenarioReport, ScenarioSpec};
use fd_sim::{MessageAdversary, MessageRule, PSet, ProcessId, Time, TopologySchedule};
use reference::{ConsensusReferenceScenario, KsetReferenceScenario};

/// The conventional spec at size `n`: `k = z = 2`, `t` maximal (`< n/2`).
fn base(n: usize) -> ScenarioSpec {
    let t = (n - 1) / 2;
    ScenarioSpec::new(n, t)
        .kz(2)
        .gst(Time(400))
        .max_time(Time(30_000))
}

/// A long pre-GST period: `Ω_z`'s noise keeps processes waiting at line
/// 06, where [`KsetOmega`] settles nothing and every activation re-reads
/// `trusted_i`. `tests/shortcut_counts.rs` checks that these specs
/// reach line 06.
fn long_noise(n: usize) -> ScenarioSpec {
    let gst = if n >= 128 { 1_500 } else { 4_000 };
    base(n).gst(Time(gst)).max_time(Time(60_000)).seed(1)
}

/// The standard armed adversary of the engine tests: early drops,
/// duplicates and bounded corruption, all windowed before GST so runs
/// still terminate.
fn armed() -> MessageAdversary {
    MessageAdversary::Rules(vec![
        MessageRule::drop(10).window(Time::ZERO, Time(400)),
        MessageRule::duplicate(10).window(Time::ZERO, Time(400)),
        MessageRule::corrupt(5, 3).window(Time::ZERO, Time(400)),
    ])
}

/// Runs `spec` under both implementations, checks the fingerprints are
/// equal, and returns the production report.
fn assert_identical(
    prod: &dyn Scenario,
    reference: &dyn Scenario,
    spec: &ScenarioSpec,
    what: &str,
) -> ScenarioReport {
    let p = prod.run(spec);
    let r = reference.run(spec);
    assert_eq!(
        p.fingerprint(),
        r.fingerprint(),
        "{what}: slab diverged from vec reference (n={} seed={})",
        spec.n,
        spec.seed
    );
    // The differential is only meaningful if the runs go somewhere.
    assert!(p.metrics.msgs_sent > 0, "{what}: empty run");
    p
}

/// Tentpole differential: n ∈ {5, 9, 33, 128, 130} × adversary off/on, full
/// scenario fingerprints. `Phase1Slab` packs a leader set out of its
/// `⌈n/64⌉` low words; 130 adds a width (3) that is neither a `u64`, a
/// `u128` nor the full `PSet`.
#[test]
fn kset_slab_matches_reference_across_n_queues_adversary() {
    for n in [5usize, 9, 33, 128, 130] {
        let seeds = if n >= 128 { 1 } else { 2 };
        for adv in [false, true] {
            for seed in 0..seeds {
                let mut spec = base(n).seed(seed);
                if adv {
                    spec = spec.adversary(armed());
                }
                assert_identical(
                    &KsetScenario,
                    &KsetReferenceScenario,
                    &spec,
                    &format!("kset adv={adv}"),
                );
            }
        }
    }
}

/// Crash-heavy runs: `f = t` random crashes before GST at n ∈ {5, 9, 33, 128},
/// adversary off and on. Rounds that begin before the crashes still see
/// PHASE1s arrive after their Phase 1 closed (about a third of the PHASE1
/// deliveries of each run), which the slab automaton drops and the
/// reference records. Once the crashes leave exactly `n − t` senders, a
/// drop before GST starves the quorum, so the armed runs end undecided at
/// the horizon; their fingerprints must agree all the same. (Deliveries
/// after a process finished occur in the failure-free grid above.)
#[test]
fn kset_slab_matches_reference_under_t_crashes_before_gst() {
    for n in [5usize, 9, 33, 128] {
        for adv in [false, true] {
            let t = (n - 1) / 2;
            let mut spec = base(n).seed(3).crashes(CrashPlan::Random {
                f: t,
                by: Time(400),
            });
            if adv {
                spec = spec.adversary(armed());
            }
            assert_identical(
                &KsetScenario,
                &KsetReferenceScenario,
                &spec,
                &format!("kset f=t adv={adv}"),
            );
        }
    }
}

/// Line 06 held open by leader noise before GST, at n ∈ {5, 9, 33, 128}.
#[test]
fn kset_slab_matches_reference_under_long_leader_noise() {
    for n in [5usize, 9, 33, 128] {
        assert_identical(
            &KsetScenario,
            &KsetReferenceScenario,
            &long_noise(n),
            "kset long leader noise",
        );
    }
}

/// Late-majority rounds: in each of these runs some process's Phase-1
/// slab hears the majority leader set only after a first sender that
/// reported a different one (the round straddles GST, or buffers early
/// messages), so the Boyer–Moore candidacy has to change hands before
/// line 07 reads it. The grid above has no such round; these specs were
/// found by running a slab with the vote decrement dropped, which diverges
/// from the reference on every one of them.
#[test]
fn kset_slab_matches_reference_on_late_majority_rounds() {
    for (n, gst, seed) in [(5, 400, 5), (5, 10, 11), (7, 400, 26), (9, 10, 17)] {
        let spec = base(n).gst(Time(gst)).seed(seed);
        assert_identical(
            &KsetScenario,
            &KsetReferenceScenario,
            &spec,
            &format!("kset late majority gst={gst}"),
        );
    }
}

/// Quorums starved to the horizon: three islands, none as large as the
/// `n − t` quorum, cut apart from time zero until after the horizon.
/// Every process completes no round, so nearly every step meets a short
/// quorum, and plain messages across islands are cut.
#[test]
fn kset_slab_matches_reference_under_a_partition_past_the_horizon() {
    for n in [5usize, 9, 33] {
        let third = n.div_ceil(3);
        let islands = (0..n)
            .step_by(third)
            .map(|lo| (lo..n.min(lo + third)).map(ProcessId).collect::<PSet>())
            .collect();
        let spec = base(n).topology(TopologySchedule::partition_until(islands, Time(40_000)));
        let p = assert_identical(
            &KsetScenario,
            &KsetReferenceScenario,
            &spec,
            "kset partition past the horizon",
        );
        assert!(
            p.trace.deciders().is_empty() && p.trace.horizon() == spec.max_time,
            "n = {n}: the partition did not starve the quorums"
        );
    }
}

/// Churn without catch-up, the bare Figure 3 algorithm the churn
/// scenarios run when catch-up is off: `t` processes crash by time 300
/// and fresh ids join 400 ticks after each crash, starting at round 1
/// with no way to learn the rounds they missed.
#[test]
fn kset_slab_matches_reference_under_churn_without_catch_up() {
    for n in [5usize, 9, 33] {
        let spec = base(n).seed(2).crashes(CrashPlan::Churn {
            crash_by: Time(300),
            rejoin_after: 400,
        });
        assert!(!spec.catch_up);
        assert_identical(
            &KsetScenario,
            &KsetReferenceScenario,
            &spec,
            "kset churn without catch-up",
        );
    }
}

/// The MR `◇S` baseline gets the same treatment (its echo adoption is
/// arrival-order-sensitive, the subtlest of the slab aggregates).
#[test]
fn consensus_slab_matches_reference() {
    for n in [5usize, 33] {
        for adv in [false, true] {
            for seed in 0..2 {
                let mut spec = base(n).seed(seed);
                if adv {
                    spec = spec.adversary(armed());
                }
                assert_identical(
                    &ConsensusScenario,
                    &ConsensusReferenceScenario,
                    &spec,
                    &format!("consensus adv={adv}"),
                );
            }
        }
    }
}

/// Runner dimension: sweeps of both implementations agree seed-for-seed
/// under the sequential (1-thread) and the 4-thread runner alike.
#[test]
fn kset_slab_matches_reference_under_1_and_4_thread_runners() {
    let spec = base(33).adversary(armed());
    for runner in [Runner::with_threads(1), Runner::with_threads(4)] {
        let prod = runner.sweep(&KsetScenario, &spec, 0..4);
        let reference = runner.sweep(&KsetReferenceScenario, &spec, 0..4);
        assert_eq!(prod.len(), reference.len());
        for (p, r) in prod.iter().zip(reference.iter()) {
            assert_eq!(
                p.fingerprint(),
                r.fingerprint(),
                "seed {}: slab diverged from vec reference under runner",
                p.spec.seed
            );
        }
    }
}
