//! The experiment suite: one function per paper artifact (E1–E12), then
//! Figure 3 under a message adversary (E13), partition heal time against
//! the termination horizon (E14), and events vs `n` (E15).
//!
//! Every function is deterministic in its seed range and returns a
//! [`Table`]; the `tables` binary prints them all, and its two renderings
//! are the goldens `tests/golden/tables_{quick,full}.md`.
//!
//! Every swept experiment is driven by the unified scenario engine: a
//! [`ScenarioSpec`] names the configuration, the [`Runner`] the caller
//! hands in streams it seed by seed (in parallel — results are identical to
//! a sequential run), and `Runner::sweep_summary` / `Runner::sweep_fold`
//! condense each run into a [`SweepSummary`] cell the moment it finishes,
//! so no experiment retains per-run traces. When the runner carries a
//! [`ReportCache`](fd_detectors::scenario::ReportCache) with a store
//! session behind it (`tables --store`), every swept cell persists as it
//! lands and a rerun resumes those cells from disk.
//!
//! A witness search (E2, E3, E6, E9) is `Runner::sweep_find`: seeds in
//! order, one cached cell each, up to the first run showing the violation.
//! These rows stay outside the runner, and recompute on every invocation,
//! because what they read is not in a slim report (what a cell stores):
//!
//! * E1 audits oracles and adapters directly — no automaton runs;
//! * E2's Theorem 8 row compares the histories of two traces;
//! * E11 reads per-instance decision times from the trace;
//! * E13's no-catch-up churn row and every row of E14 read decider sets.

use crate::table::Table;
use fd_core::{ConsensusScenario, KsetScenario, LowerBoundScenario};
use fd_detectors::scenario::{
    sample_oracle, CrashPlan, Flavour, MessageAdversary, MessageRule, Runner, SampledSlot,
    Scenario, ScenarioReport, ScenarioSpec, SlimReport, SweepSummary,
};
use fd_detectors::{check, OmegaOracle, PerfectOracle, PhiOracle, Scope, SxOracle, ViolationClass};
use fd_grid::pipeline::PipelineScenario;
use fd_grid::ChurnKsetScenario;
use fd_sim::counter::{DROPPED, DUPLICATED, EVENTS, PARTITIONED, SENT};
use fd_sim::{
    FailurePattern, OracleSuite, PSet, ProcessId, SplitMix64, Time, TopologySchedule, Trace,
};
use fd_transforms::witness::{self, AdditionBoundaryScenario};
use fd_transforms::{
    AdditionScenario, OmegaToDiamondS, PToPhi, PhiToP, PsiOmegaScenario, Substrate, TwParams,
    TwoWheelsScenario, WeakenPhi,
};

/// How many seeds per configuration (trimmed in `quick` mode).
pub fn seeds(quick: bool) -> u64 {
    if quick {
        5
    } else {
        20
    }
}

fn random_fp(n: usize, t: usize, seed: u64, horizon: Time) -> FailurePattern {
    CrashPlan::Anarchic { by: horizon }.materialize(n, t, seed)
}

/// A failing run's cell of a witness row: its seed and check, or the
/// unexpected miss.
fn violation(found: Option<SlimReport>) -> String {
    match found {
        Some(slim) => format!("violation at seed {}: {}", slim.seed, slim.check),
        None => "no violation found (unexpected)".into(),
    }
}

/// Theorem 7's witness: the two wheels one line below `at`'s bound, at
/// `z − 1` (`x + y + z = t + 1` for optimal `at`), failure-free, GST 400,
/// horizon 25000. Some seed fails the `Ω_z` check.
fn wheels_below_bound(at: TwParams) -> ScenarioSpec {
    TwoWheelsScenario::spec(TwParams { z: at.z - 1, ..at })
        .gst(Time(400))
        .max_time(Time(25_000))
}

/// The witness predicate of a boundary search: the run fails its check.
fn fails(slim: &SlimReport) -> bool {
    !slim.check.ok
}

/// **E1 — Figure 1 grid, bold arrows.** Every structural reduction's output
/// is sampled over adversarial runs and checked against the target class.
pub fn e1_grid_reductions(quick: bool) -> Table {
    const N: usize = 6;
    const T: usize = 2; // resilience bound
    const HORIZON: Time = Time(8_000);
    const GST: Time = Time(1_000);
    fn sample<O: OracleSuite>(mut oracle: O, fp: &FailurePattern, which: SampledSlot) -> Trace {
        sample_oracle(&mut oracle, fp, HORIZON, 13, which)
    }
    /// One bold arrow: its label, the mechanism realising it, and the audit
    /// of one adversarial run — build the source-class oracle (under its
    /// adapter, if the arrow has one) over `fp` from `seed`, and check what
    /// it outputs against the target class.
    type Arrow = (&'static str, &'static str, fn(&FailurePattern, u64) -> bool);
    let arrows: &[Arrow] = &[
        // The identity arrows are checked by verifying the stronger
        // oracle's samples against the weaker class.
        ("S_3 → S_2, S_3 → ◇S_3", "identity", |fp, seed| {
            let o = SxOracle::new(fp.clone(), T, 3, Scope::Perpetual, seed);
            let tr = sample(o, fp, SampledSlot::Suspected);
            check::s_x(&tr, fp, 2, 500, 0).ok && check::diamond_s_x(&tr, fp, 3, 500).ok
        }),
        ("◇S_3 → ◇S_2", "identity", |fp, seed| {
            let o = SxOracle::new(fp.clone(), T, 3, Scope::Eventual(GST), seed);
            check::diamond_s_x(&sample(o, fp, SampledSlot::Suspected), fp, 2, 500).ok
        }),
        ("Ω_2 → Ω_3", "identity", |fp, seed| {
            let o = OmegaOracle::new(fp.clone(), 2, GST, seed);
            check::omega_z(&sample(o, fp, SampledSlot::Trusted), fp, 3, 500).ok
        }),
        ("φ_2 → φ_1", "WeakenPhi adapter", |fp, seed| {
            let inner = PhiOracle::new(fp.clone(), T, 2, Scope::Perpetual, seed);
            let mut weak = WeakenPhi::new(inner, T, 1);
            check::audit_phi(&mut weak, fp, T, 1, Time::ZERO, HORIZON).ok
        }),
        ("Ω_1 → ◇S", "suspect Π \\ trusted", |fp, seed| {
            let ds = OmegaToDiamondS::new(OmegaOracle::new(fp.clone(), 1, GST, seed), N);
            check::diamond_s_x(&sample(ds, fp, SampledSlot::Suspected), fp, N, 500).ok
        }),
        ("φ_t → P", "singleton queries", |fp, seed| {
            let inner = PhiOracle::new(fp.clone(), T, T, Scope::Perpetual, seed);
            let p = PhiToP::new(inner, N);
            check::perfect_p(&sample(p, fp, SampledSlot::Suspected), fp, 500).ok
        }),
        ("P → φ_t", "X ⊆ suspected", |fp, seed| {
            let inner = PerfectOracle::new(fp.clone(), Scope::Perpetual, seed);
            let mut phi = PToPhi::new(inner, T);
            check::audit_phi(&mut phi, fp, T, T, Time::ZERO, HORIZON).ok
        }),
    ];
    let mut t = Table::new(
        "E1 — Figure 1 grid, reductions (bold arrows)",
        &["arrow", "mechanism", "runs", "pass"],
    );
    let runs = seeds(quick);
    for &(arrow, mechanism, audit) in arrows {
        let pass = (0..runs)
            .filter(|&seed| audit(&random_fp(N, T, seed, Time(2_000)), seed))
            .count();
        t.row(vec![
            arrow.into(),
            mechanism.into(),
            runs.to_string(),
            pass.to_string(),
        ]);
    }
    t.note("paper claim: every bold arrow of Figure 1 is a valid reduction — expect pass = runs");
    t
}

/// **E2 — Figure 1 grid, dotted arrows (Theorems 8–11).** Executable
/// irreducibility witnesses.
pub fn e2_irreducibility(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E2 — irreducibility witnesses (dotted arrows, Thms 8–11)",
        &["witness", "construction", "result"],
    );
    let runs = seeds(quick);

    let mut fired = 0;
    for seed in 0..runs {
        let w = witness::theorem8(5, 2, 1, seed);
        if w.tau1.is_some() && w.prefix_identical && w.safety_violated {
            fired += 1;
        }
    }
    t.row(vec![
        "S_x ↛ ◇φ_y (Thm 8)".into(),
        "indistinguishable runs R/R″ (E crashed vs E silent)".into(),
        format!("{fired}/{runs} runs: liveness-forced answer violates safety in R″"),
    ]);

    let psi = witness::psi_boundary_spec(5, 2, 1);
    let psi = r.sweep_find(&PsiOmegaScenario, &psi, 1..2, fails);
    t.row(vec![
        "Ψ_y → Ω_z needs y+z ≥ t+1 (Thm 12 tight)".into(),
        "crash the (z+1)-th chain member at y+z = t".into(),
        match psi {
            Some(slim) => format!("Ω_z check: {}", slim.check),
            None => "no violation found (unexpected)".into(),
        },
    ]);

    let tw = wheels_below_bound(TwParams::optimal(5, 2, 1, 1)); // x+y+z = t+1
    let tw = r.sweep_find(&TwoWheelsScenario::default(), &tw, 0..runs * 3, fails);
    t.row(vec![
        "◇S_x + ◇φ_y → Ω_z needs x+y+z ≥ t+2 (Thm 7 tight)".into(),
        "two wheels at x+y+z = t+1".into(),
        violation(tw),
    ]);

    let add = witness::addition_boundary_spec(5, 2, 1, 1);
    let add = r.sweep_find(&AdditionBoundaryScenario, &add, 0..runs * 4, fails);
    t.row(vec![
        "φ_y + S_x → S needs x+y > t (Thm 13 tight)".into(),
        "scope loses all members but the pivot; survivors slander".into(),
        violation(add),
    ]);
    t.note("paper claim: the dotted arrows of Figure 1 are impossibilities; each row exhibits the proof's failing run");
    t
}

/// **E3 — Figure 2 / Theorem 7: the additivity boundary.** Sweep `(x, y)`;
/// at `z = t+2−x−y` the construction must pass, at `z−1` it must fail for
/// some run.
pub fn e3_additivity_boundary(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E3 — additivity boundary: ◇S_x + ◇φ_y → Ω_z iff x+y+z ≥ t+2 (Figure 2, Thm 7)",
        &["n", "t", "x", "y", "z=t+2−x−y", "pass@z", "fail found @z−1"],
    );
    let n = 5;
    let tt = 2;
    let runs = seeds(quick);
    for x in 1..=3usize {
        for y in 0..=2usize {
            if x + y > tt + 1 {
                continue;
            }
            let params = TwParams::optimal(n, tt, x, y);
            if params.z > tt - y + 1 {
                continue; // inner ring larger than outer: not constructible
            }
            let base = TwoWheelsScenario::spec(params)
                .crashes(CrashPlan::Anarchic { by: Time(1_500) })
                .gst(Time(900))
                .max_time(Time(40_000));
            let summary = r.sweep_summary(&TwoWheelsScenario::default(), &base, 0..runs);
            let below = if params.z >= 2 {
                let spec = wheels_below_bound(params);
                let found = r.sweep_find(&TwoWheelsScenario::default(), &spec, 0..runs * 3, fails);
                found.map_or("no".into(), |slim| format!("yes (seed {})", slim.seed))
            } else {
                "n/a (z−1 = 0)".into()
            };
            t.row(vec![
                n.to_string(),
                tt.to_string(),
                x.to_string(),
                y.to_string(),
                params.z.to_string(),
                summary.pass_cell(),
                below,
            ]);
        }
    }
    t.note("paper claim: additions exactly on the x+y+z = t+2 line succeed; one line below they cannot");
    t
}

/// **E4 — Figure 3 / Theorems 2–4: Ω_k-based k-set agreement.**
pub fn e4_kset(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E4 — Ω_k-based k-set agreement (Figure 3): spec checks and costs",
        &[
            "n",
            "t",
            "k",
            "crashes",
            "runs",
            "spec pass",
            "max rounds",
            "avg msgs",
            "avg t_dec",
        ],
    );
    let runs = seeds(quick);
    for &(n, tt) in &[(5usize, 2usize), (7, 3), (9, 4)] {
        for k in 1..=tt {
            for &f in &[0usize, tt] {
                let base = KsetScenario::spec(n, tt, k)
                    .crashes(CrashPlan::Random { f, by: Time(500) })
                    .gst(Time(400));
                let summary = r.sweep_summary(&KsetScenario, &base, 0..runs);
                t.row(vec![
                    n.to_string(),
                    tt.to_string(),
                    k.to_string(),
                    f.to_string(),
                    runs.to_string(),
                    summary.pass_cell(),
                    summary.max_round.to_string(),
                    summary.avg_msgs().to_string(),
                    summary
                        .avg_decision_time()
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "-".into()),
                ]);
            }
        }
    }
    t.note("paper claims: validity, ≤ k distinct decisions, termination (Thms 2–4), for any z ≤ k and t < n/2");
    t
}

/// **E5 — §3.2: oracle efficiency and zero degradation.**
pub fn e5_zero_degradation(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E5 — oracle efficiency & zero degradation (§3.2)",
        &["scenario", "runs", "decided in round 1"],
    );
    let runs = seeds(quick) * 2;
    let rows: &[(&str, ScenarioSpec)] = &[
        (
            "perfect Ω_1, no crashes (oracle efficiency)",
            KsetScenario::spec(6, 2, 1).gst(Time::ZERO),
        ),
        (
            "perfect Ω_1, 2 initial crashes (zero degradation)",
            KsetScenario::spec(6, 2, 1)
                .gst(Time::ZERO)
                .crashes(CrashPlan::Initial { f: 2 }),
        ),
        (
            "adversarial ◇-oracle, mid-run crashes (contrast)",
            KsetScenario::spec(6, 2, 1)
                .gst(Time(600))
                .crashes(CrashPlan::Random {
                    f: 2,
                    by: Time(400),
                }),
        ),
    ];
    for (label, base) in rows {
        let one_round = r.sweep_fold(&KsetScenario, base, 0..runs, 0u64, |acc, slim| {
            *acc += (slim.check.ok && slim.metrics.max_round == 1) as u64;
        });
        t.row(vec![
            (*label).into(),
            runs.to_string(),
            format!("{one_round}/{runs}"),
        ]);
    }
    t.note("paper claim: with a perfect oracle the algorithm decides in one round (two steps), even with initial crashes; only anarchy/mid-run crashes cost extra rounds");
    t
}

/// **E6 — Theorem 5: lower bounds `z ≤ k` and `t < n/2`.**
pub fn e6_lower_bounds(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E6 — Theorem 5 lower bounds for k-set agreement with Ω_z",
        &["bound", "witness run", "result"],
    );
    let budget = seeds(quick) * 6;
    let spec = LowerBoundScenario::z_violation(5, 2, 1);
    let found = r.sweep_find(&LowerBoundScenario, &spec, 0..budget, |slim| {
        slim.metrics.decided_values.len() > 1
    });
    t.row(match found {
        Some(slim) => vec![
            "z ≤ k necessary".into(),
            format!("Ω_2 feeding 1-set agreement, seed {}", slim.seed),
            format!(
                "agreement broken: decided {:?} (validity still {})",
                slim.metrics.decided_values,
                // The k-set check tries validity first.
                if slim.check.class == ViolationClass::Validity {
                    "broken"
                } else {
                    "holds"
                }
            ),
        ],
        None => vec![
            "z ≤ k necessary".into(),
            format!("Ω_2 feeding 1-set agreement ({budget} seeds)"),
            "no violation found (unexpected)".into(),
        ],
    });
    let spec = LowerBoundScenario::partition(4, 2);
    let slim = r
        .sweep_find(&LowerBoundScenario, &spec, 0..1, |_| true)
        .expect("a one-seed sweep yields one report");
    t.row(vec![
        "t < n/2 necessary".into(),
        "n = 4, t = 2, two silent halves".into(),
        format!(
            // Zero exactly when nobody decided.
            "decided values: {} — termination {}",
            slim.metrics.decided_values.len(),
            if slim.check.ok {
                "held (unexpected)"
            } else {
                "starved, as predicted"
            }
        ),
    ]);
    t
}

/// **E7 — Figures 4–7: wheel convergence and quiescence.**
pub fn e7_wheels(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E7 — two-wheels behaviour (Figures 4–7): convergence and quiescence",
        &[
            "x",
            "y",
            "z",
            "runs",
            "Ω_z pass",
            "avg stabilize t",
            "avg X_MOVE",
            "avg L_MOVE",
            "avg inquiries",
        ],
    );
    let n = 5;
    let tt = 2;
    let runs = seeds(quick);
    for &(x, y) in &[(1usize, 1usize), (2, 0), (2, 1), (3, 0), (1, 2), (3, 1)] {
        if x + y > tt + 1 {
            continue;
        }
        let params = TwParams::optimal(n, tt, x, y);
        if params.z > tt - y + 1 {
            continue;
        }
        let base = TwoWheelsScenario::spec(params)
            .crashes(CrashPlan::Anarchic { by: Time(1_000) })
            .gst(Time(800))
            .max_time(Time(40_000));
        // One streamed pass: summary, stabilization, and wheel counters
        // fold together, so no report (or its trace) is retained.
        let (summary, stab, xm, lm, inq) = r.sweep_fold(
            &TwoWheelsScenario::default(),
            &base,
            0..runs,
            (SweepSummary::default(), 0u64, 0u64, 0u64, 0u64),
            |(summary, stab, xm, lm, inq), slim| {
                *stab += slim.check.stabilized_at.unwrap_or(Time::ZERO).ticks();
                *xm += slim.counter("lower.x_move");
                *lm += slim.counter("upper.l_move");
                *inq += slim.counter("upper.inquiry");
                summary.absorb(&slim);
            },
        );
        t.row(vec![
            x.to_string(),
            y.to_string(),
            params.z.to_string(),
            runs.to_string(),
            summary.pass_cell(),
            (stab / runs).to_string(),
            (xm / runs).to_string(),
            (lm / runs).to_string(),
            (inq / runs).to_string(),
        ]);
    }
    t.note("paper claims: finitely many X_MOVE/L_MOVE (lower wheel quiescent, Cor. 1); inquiries continue forever (§4.2 remark); wheels converge");
    t
}

/// **E8 — Figure 8 / Theorem 12: Ψ_y → Ω_z at and below the bound.**
pub fn e8_psi(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E8 — Ψ_y → Ω_z (Figure 8): y + z ≥ t + 1 is tight (Thm 12)",
        &["n", "t", "y", "z", "y+z", "runs", "Ω_z pass"],
    );
    let n = 5;
    let tt = 2;
    let runs = seeds(quick);
    for &(y, z) in &[(1usize, 2usize), (2, 1), (1, 1), (2, 2)] {
        let crashes = if y + z <= tt {
            // Below the bound: use the witness pattern that elects a
            // crashed process.
            CrashPlan::Explicit(
                FailurePattern::builder(n)
                    .crash(fd_sim::ProcessId(z), Time(50))
                    .build(),
            )
        } else {
            CrashPlan::Anarchic { by: Time(800) }
        };
        let base = ScenarioSpec::new(n, tt)
            .y(y)
            .z(z)
            .crashes(crashes)
            .gst(Time(600))
            .max_time(Time(20_000));
        let summary = r.sweep_summary(&fd_transforms::PsiOmegaScenario, &base, 0..runs);
        t.row(vec![
            n.to_string(),
            tt.to_string(),
            y.to_string(),
            z.to_string(),
            (y + z).to_string(),
            runs.to_string(),
            summary.pass_cell(),
        ]);
    }
    t.note("paper claim: pass = runs exactly when y + z ≥ t + 1 = 3; the y+z = 2 row must fail");
    t
}

/// **E9 — Figure 9 / Theorem 13: φ_y + S_x → S at and below the bound,
/// shared-memory and message-passing.**
pub fn e9_addition(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E9 — φ_y + S_x → S (Figure 9): x + y > t is tight (Thm 13)",
        &["substrate", "flavour", "x", "y", "x+y", "runs", "S/◇S pass"],
    );
    let n = 5;
    let tt = 2;
    let runs = seeds(quick);
    for &(x, y) in &[(2usize, 1usize), (1, 2), (2, 2)] {
        let base = ScenarioSpec::new(n, tt)
            .x(x)
            .y(y)
            .crashes(CrashPlan::Anarchic { by: Time(800) })
            .gst(Time(700))
            .max_time(Time(40_000));
        let scenario = AdditionScenario {
            substrate: Substrate::MessagePassing,
            flavour: Flavour::Eventual,
        };
        let summary = r.sweep_summary(&scenario, &base, 0..runs);
        t.row(vec![
            "message passing".into(),
            "◇ (eventual)".into(),
            x.to_string(),
            y.to_string(),
            (x + y).to_string(),
            runs.to_string(),
            summary.pass_cell(),
        ]);
    }
    // Shared memory, perpetual flavour.
    let shm_runs = seeds(quick).min(8);
    let base = ScenarioSpec::new(n, tt)
        .x(2)
        .y(1)
        .crashes(CrashPlan::Explicit(
            FailurePattern::builder(n)
                .crash(fd_sim::ProcessId(4), Time(300))
                .build(),
        ))
        .max_steps(400_000);
    let scenario = AdditionScenario {
        substrate: Substrate::SharedMemory,
        flavour: Flavour::Perpetual,
    };
    let summary = r.sweep_summary(&scenario, &base, 0..shm_runs);
    t.row(vec![
        "shared memory (SWMR)".into(),
        "perpetual".into(),
        "2".into(),
        "1".into(),
        "3".into(),
        shm_runs.to_string(),
        summary.pass_cell(),
    ]);
    // Boundary.
    let boundary = witness::addition_boundary_spec(n, tt, 1, 1);
    let found = r.sweep_find(&AdditionBoundaryScenario, &boundary, 0..runs * 4, fails);
    t.row(vec![
        "message passing".into(),
        "boundary x+y = t".into(),
        "1".into(),
        "1".into(),
        "2".into(),
        format!("≤{}", runs * 4),
        match found {
            Some(slim) => format!("violation found (seed {}) — as predicted", slim.seed),
            None => "no violation (unexpected)".into(),
        },
    ]);
    t
}

/// **E10 — baselines: Figure 3 at k=1 vs MR ◇S consensus vs the full
/// pipeline (◇S_x + ◇φ_y → Ω_1 → consensus).**
pub fn e10_baselines(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E10 — consensus baselines: rounds / messages / decision time",
        &[
            "algorithm",
            "oracle",
            "runs",
            "pass",
            "avg rounds",
            "avg msgs",
            "avg t_dec",
        ],
    );
    let n = 5;
    let tt = 2;
    let runs = seeds(quick);
    let crashy = KsetScenario::spec(n, tt, 1)
        .gst(Time(400))
        .crashes(CrashPlan::Random {
            f: 1,
            by: Time(300),
        });
    for (label, oracle, sc) in [
        (
            "Figure 3 (k = 1)",
            "Ω_1 (gst 400)",
            &KsetScenario as &dyn Scenario,
        ),
        ("MR quorum consensus", "◇S (gst 400)", &ConsensusScenario),
    ] {
        let summary = r.sweep_summary(sc, &crashy, 0..runs);
        t.row(vec![
            label.into(),
            oracle.into(),
            runs.to_string(),
            summary.pass_cell(),
            summary.avg_rounds().to_string(),
            summary.avg_msgs().to_string(),
            summary
                .avg_decision_time()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    // Full pipeline.
    let base = PipelineScenario::spec(n, tt, 2, 1)
        .gst(Time(400))
        .max_time(Time(150_000));
    let summary = r.sweep_summary(&PipelineScenario, &base, 0..runs);
    t.row(vec![
        "pipeline (wheels + Figure 3)".into(),
        "◇S_2 + ◇φ_1 only".into(),
        runs.to_string(),
        summary.pass_cell(),
        "-".into(),
        summary.avg_msgs().to_string(),
        summary
            .avg_decision_time()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into()),
    ]);
    t.note("shape expected: the oracle-fed algorithms decide fast; the pipeline pays the wheels' message overhead (inquiry/response traffic) but needs no Ω oracle");
    t
}

/// **E11 — repeated set agreement (extension of §3.2).** Zero degradation
/// made longitudinal: `m` successive instances with crashes during
/// instance 0; with a perfect `Ω_1` every later instance is as fast as a
/// failure-free one.
pub fn e11_repeated(quick: bool) -> Table {
    let mut t = Table::new(
        "E11 — repeated set agreement: per-instance decision latency (zero degradation, §3.2 extension)",
        &["oracle", "crashes", "runs", "spec pass", "per-instance latency (avg ticks)"],
    );
    let n = 5;
    let tt = 2;
    let m = 4u32;
    let runs = seeds(quick).min(8);
    for &(gst, f, label) in &[
        (0u64, 0usize, "perfect Ω_1 / none"),
        (0, 2, "perfect Ω_1 / 2 during inst 0"),
        (400, 2, "◇-oracle gst 400 / 2 during inst 0"),
    ] {
        let mut pass = 0;
        let mut latency = vec![0u64; m as usize];
        for seed in 0..runs {
            let fp = if f == 0 {
                FailurePattern::all_correct(n)
            } else {
                let mut rng = SplitMix64::new(seed).stream(0xE11);
                FailurePattern::random(n, f, Time(80), &mut rng)
            };
            let oracle = fd_detectors::OmegaOracle::new(fp.clone(), 1, Time(gst), seed ^ 0xE11);
            let spec = ScenarioSpec::new(n, tt)
                .kz(1)
                .seed(seed)
                .max_time(Time(600_000));
            let rep = fd_core::run_repeated_spec(&spec, m, fp, oracle);
            pass += rep.check.ok as u64;
            let mut prev = Time::ZERO;
            for (i, lat) in latency.iter_mut().enumerate() {
                let last = last_correct_decision(&rep, i as u32);
                *lat += last.ticks().saturating_sub(prev.ticks());
                prev = last;
            }
        }
        let lat: Vec<String> = latency.iter().map(|l| (l / runs).to_string()).collect();
        t.row(vec![
            label.into(),
            f.to_string(),
            runs.to_string(),
            format!("{pass}/{runs}"),
            lat.join(" → "),
        ]);
    }
    t.note("claim (paper §3.2, extended): with a perfect oracle, instances after the crash-absorbing one are as fast as failure-free ones");
    t
}

/// When the last correct process decided instance `inst` of a repeated
/// run (`Time::ZERO` if none did).
fn last_correct_decision(rep: &ScenarioReport, inst: u32) -> Time {
    fd_core::instance_decisions(rep.trace.decisions(), rep.fp.n(), inst)
        .iter()
        .filter(|d| rep.fp.is_correct(d.by))
        .map(|d| d.at)
        .max()
        .unwrap_or(Time::ZERO)
}

/// **E12 — ablation: the wheels' broadcast throttle.** Both variants are
/// correct; the throttle (one X_MOVE/L_MOVE per pair instance) is what
/// keeps message counts near the information-theoretic minimum.
pub fn e12_throttle_ablation(quick: bool, r: Runner) -> Table {
    let mut t = Table::new(
        "E12 — ablation: one-broadcast-per-pair-instance throttle in the wheels",
        &["variant", "runs", "Ω_z pass", "avg X_MOVE", "avg L_MOVE"],
    );
    let params = TwParams::optimal(5, 2, 2, 0); // z = 2, ◇S_2 alone
    let runs = seeds(quick).min(8);
    for &(throttled, label) in &[
        (true, "throttled (default)"),
        (false, "paper-literal re-broadcast"),
    ] {
        let base = TwoWheelsScenario::spec(params)
            .crashes(CrashPlan::Random {
                f: 1,
                by: Time(600),
            })
            .gst(Time(700))
            .max_time(Time(30_000));
        let (summary, xm, lm) = r.sweep_fold(
            &TwoWheelsScenario { throttled },
            &base,
            0..runs,
            (SweepSummary::default(), 0u64, 0u64),
            |(summary, xm, lm), slim| {
                *xm += slim.counter("lower.x_move");
                *lm += slim.counter("upper.l_move");
                summary.absorb(&slim);
            },
        );
        t.row(vec![
            label.into(),
            runs.to_string(),
            summary.pass_cell(),
            (xm / runs).to_string(),
            (lm / runs).to_string(),
        ]);
    }
    t.note("both variants satisfy Ω_z (the consumption rule is multiset-based); the throttle cuts move-broadcast traffic");
    t
}

/// Seeds per cell of E13 and E14, one shape in both modes.
const LEG_SEEDS: u64 = 2;

fn verdict(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "FAILS"
    }
}

/// The churn probe E13 and E14 attack: six processes, one early crash (so
/// the quorum keeps slack) and process 5 joining late, at tick 600.
fn churn_probe_spec() -> ScenarioSpec {
    let fp = FailurePattern::builder(6)
        .crash(ProcessId(1), Time(100))
        .join(ProcessId(5), Time(600))
        .build();
    ChurnKsetScenario::spec(6, 2, 1)
        .gst(Time(300))
        .max_time(Time(60_000))
        .crashes(CrashPlan::Explicit(fp))
}

/// A row of E13 or E14: `label`, runs, passes, then each counter in
/// `counters` summed over `slims`.
fn leg_row(label: &str, slims: &[SlimReport], counters: &[&str]) -> Vec<String> {
    let passes = slims.iter().filter(|slim| slim.check.ok).count();
    let mut row = vec![
        label.into(),
        slims.len().to_string(),
        format!("{passes}/{}", slims.len()),
    ];
    let sum = |c: &&str| slims.iter().map(|slim| slim.counter(c)).sum::<u64>();
    row.extend(counters.iter().map(|c| sum(c).to_string()));
    row
}

/// The slim views of full reports, for a row built from both.
fn slims(reps: &[ScenarioReport]) -> Vec<SlimReport> {
    reps.iter().map(ScenarioReport::slim).collect()
}

/// The seeds of the runs in `reps` that satisfy `pred`, comma-separated.
fn seeds_where(reps: &[ScenarioReport], pred: impl Fn(&ScenarioReport) -> bool) -> String {
    let seeds: Vec<String> = reps
        .iter()
        .filter(|rep| pred(rep))
        .map(|rep| rep.seed().to_string())
        .collect();
    seeds.join(", ")
}

/// **E13 — message adversary: Figure 3 under loss, and churn catch-up.**
/// The failure-free `k = 2` ladder up to `n = 65` under pre-GST drops and
/// duplicates (a degradation curve: uniform drops are outside Figure 3's
/// liveness tolerance), then the churn probe under a drop window closing
/// at the join: live with catch-up, safety-only without.
pub fn e13_adversary(r: Runner) -> Table {
    let (gst, pct) = (Time(400), 10);
    let adv = MessageAdversary::Rules(vec![
        MessageRule::drop(pct).window(Time::ZERO, gst),
        MessageRule::duplicate(pct).window(Time::ZERO, gst),
    ]);
    let mut t = Table::new(
        format!(
            "E13 — message adversary: Figure 3 (k = 2) under {} before GST, and churn catch-up",
            adv.describe()
        ),
        &[
            "cell",
            "runs",
            "pass",
            "events",
            "msgs",
            "dropped",
            "duplicated",
        ],
    );
    let row = |label: &str, slims: &[SlimReport]| {
        leg_row(label, slims, &[EVENTS, SENT, DROPPED, DUPLICATED])
    };
    let cells = |sc: &dyn Scenario, spec: &ScenarioSpec| {
        r.sweep_fold(sc, spec, 0..LEG_SEEDS, vec![], Vec::push)
    };
    let mut all = Vec::new();
    for (n, tt) in [(5, 2), (9, 4), (17, 8), (33, 16), (65, 32)] {
        // Failure-free: crashes would eat the quorum slack that lets the
        // window's permanent losses be absorbed at all.
        let spec = KsetScenario::spec(n, tt, 2)
            .gst(gst)
            .adversary(adv.clone())
            .crashes(CrashPlan::None);
        let cell = cells(&KsetScenario, &spec);
        t.row(row(&format!("adv_n{n}_t{tt}_k2_f0"), &cell));
        all.extend(cell);
    }
    t.row(row("all adv cells", &all));
    // Quorum slack (one crash < t) + a drop window closing at the join:
    // the configuration whose liveness the catch-up layer restores (see
    // fd_grid::churn for the boundary discussion).
    let churn = churn_probe_spec().adversary(MessageAdversary::Rules(vec![
        MessageRule::drop(pct).window(Time::ZERO, Time(600)),
        MessageRule::duplicate(pct).window(Time::ZERO, Time(1_200)),
    ]));
    let live = cells(&ChurnKsetScenario, &churn);
    t.row(row("churn n6, catch-up", &live));
    // Full reports: the finding below reads the joiner's decision.
    let bare = r.sweep(&ChurnKsetScenario, &churn.catch_up(false), 0..LEG_SEEDS);
    t.row(row("churn n6, no catch-up", &slims(&bare)));
    // On some seeds every decision lands after the join and the joiner
    // decides via the (exempt) reliable broadcast anyway; at least one
    // seed must witness the genuinely stuck joiner.
    let stuck = seeds_where(&bare, |rep| !rep.trace.deciders().contains(ProcessId(5)));
    let safety_only = bare
        .iter()
        .all(|rep| rep.check.ok && rep.check.detail.contains("liveness not claimed"));
    t.note(format!(
        "finding: churn + catch-up passes the liveness envelope under the adversary — {}",
        verdict(live.iter().all(|slim| slim.check.ok))
    ));
    t.note(format!(
        "finding: without catch-up every churn run is scored safety-only and the joiner stays \
         undecided at seed(s) [{stuck}] — {}",
        verdict(safety_only && !stuck.is_empty())
    ));
    t.note("the adv cells' pass rate is a degradation curve: uniform drops are outside Figure 3's liveness tolerance by design");
    t
}

/// **E14 — partition heal time vs the termination horizon.** A
/// `{0..3} | {4}` cut on `n = 5, t = 2, k = 2` heals from two decades below
/// the horizon (`max_time = 100_000`) to twice past it. The cut process can
/// only decide through the heal-delayed `DECISION` reliable broadcast, so
/// pass ⇔ Ω leader in the mainland ∧ heal before the horizon: the
/// past-horizon cell must fail, and its seeds with `n − 1` deciders are
/// negative witnesses. Last, a joiner comes up inside a partition and
/// catch-up must carry it across the heal.
pub fn e14_heal_time(r: Runner) -> Table {
    let n = 5usize;
    let horizon = Time(100_000);
    let spec_at = |heal: u64| {
        let islands = vec![
            (0..n - 1).map(ProcessId).collect(),
            PSet::singleton(ProcessId(n - 1)),
        ];
        KsetScenario::spec(n, 2, 2)
            .gst(Time(400))
            .max_time(horizon)
            .topology(TopologySchedule::partition_until(islands, Time(heal)))
    };
    let mut t = Table::new(
        format!(
            "E14 — heal time vs the horizon: Figure 3 (n = {n}, k = 2) with {{0..{}}} | {{{}}} \
             cut until the heal, max_time {}",
            n - 2,
            n - 1,
            horizon.ticks()
        ),
        &[
            "cell",
            "runs",
            "pass",
            "events",
            "severed",
            "min deciders",
            "negative witnesses",
        ],
    );
    let deciders = |rep: &ScenarioReport| rep.trace.deciders().len();
    let row = |label: &str, reps: &[ScenarioReport], witnesses: String| {
        let mut row = leg_row(label, &slims(reps), &[EVENTS, PARTITIONED]);
        row.push(reps.iter().map(deciders).min().unwrap_or(0).to_string());
        row.push(witnesses);
        row
    };
    let mut all = Vec::new();
    let mut passes = Vec::new();
    for heal in [200, 2_000, 20_000, 200_000] {
        let reps = r.sweep(&KsetScenario, &spec_at(heal), 0..LEG_SEEDS);
        let witnesses = if heal > horizon.ticks() {
            seeds_where(&reps, |rep| !rep.check.ok && deciders(rep) == n - 1)
        } else {
            "-".into()
        };
        t.row(row(&format!("heal {heal}"), &reps, witnesses));
        passes.push(reps.iter().filter(|rep| rep.check.ok).count());
        all.extend(reps);
    }
    t.row(row("all heal cells", &all, "-".into()));
    // The joiner comes up *inside* the partition; catch-up's retry loop
    // must carry it across the heal.
    let islands = vec![
        (0..5).map(ProcessId).collect(),
        PSet::singleton(ProcessId(5)),
    ];
    let churn =
        churn_probe_spec().topology(TopologySchedule::partition_until(islands, Time(1_200)));
    let reps = r.sweep(&ChurnKsetScenario, &churn, 0..LEG_SEEDS);
    t.row(row("churn n6, joiner cut until 1200", &reps, "-".into()));
    let churn_live = reps.iter().all(|rep| {
        rep.check.ok
            && rep.trace.deciders().contains(ProcessId(5))
            && rep.trace.counter(PARTITIONED) > 0
    });
    t.note(format!(
        "schedule at heal 200: {}; a negative witness is a past-horizon seed with the {} \
         mainland processes deciding alone",
        spec_at(200).topology.describe(),
        n - 1
    ));
    t.note(format!(
        "finding: the diagram flips — the earliest heal passes, the past-horizon heal never does — {}",
        verdict(passes[0] > 0 && passes[3] == 0)
    ));
    t.note(format!(
        "finding: churn + catch-up decides the joiner through a partition that spans its join — {}",
        verdict(churn_live)
    ));
    t
}

/// **E15 — events vs `n`.** One failure-free Figure 3 run (`k = 2`,
/// maximal `t`) per `n`: up to 64 in quick mode, 256, 512 and 1024
/// ([`fd_sim::MAX_PROCESSES`]) in full mode. The spec check still applies,
/// so a silent wrong answer at `n = 1024` shows as a failed pass.
pub fn e15_scaling(quick: bool, r: Runner) -> Table {
    let ns: &[usize] = if quick {
        &[16, 32, 64]
    } else {
        &[256, 512, 1024]
    };
    events_vs_n(ns, r)
}

/// E15 at the sizes in `ns`.
///
/// # Panics
///
/// Panics if any `n` exceeds [`fd_sim::MAX_PROCESSES`].
fn events_vs_n(ns: &[usize], r: Runner) -> Table {
    let mut t = Table::new(
        "E15 — events vs n: Figure 3 (k = 2, t = (n−1)/2), failure-free, GST 100, one seed per n",
        &["n", "t", "runs", "pass", "events", "msgs"],
    );
    for &n in ns {
        assert!(
            n <= fd_sim::MAX_PROCESSES,
            "scaling point n={n} exceeds MAX_PROCESSES={}",
            fd_sim::MAX_PROCESSES
        );
        let tt = (n - 1) / 2;
        // A short GST: every pre-GST tick buys another O(n²)-message
        // round of churn — at n = 1024 the standard gst = 400 alone is
        // tens of millions of events before the oracle lets anyone decide.
        let spec = KsetScenario::spec(n, tt, 2).gst(Time(100));
        let summary = r.sweep_summary(&KsetScenario, &spec, 0..1);
        t.row(vec![
            n.to_string(),
            tt.to_string(),
            summary.runs.to_string(),
            summary.pass_cell(),
            summary.total_events.to_string(),
            summary.total_msgs.to_string(),
        ]);
    }
    t.note("expect pass = runs at every n; events grow about 4× per doubling of n — every round is O(n²) messages");
    t
}

/// Runs every experiment; all but E1 and E11 through `runner`.
pub fn all(quick: bool, runner: Runner) -> Vec<Table> {
    vec![
        e1_grid_reductions(quick),
        e2_irreducibility(quick, runner),
        e3_additivity_boundary(quick, runner),
        e4_kset(quick, runner),
        e5_zero_degradation(quick, runner),
        e6_lower_bounds(quick, runner),
        e7_wheels(quick, runner),
        e8_psi(quick, runner),
        e9_addition(quick, runner),
        e10_baselines(quick, runner),
        e11_repeated(quick),
        e12_throttle_ablation(quick, runner),
        e13_adversary(runner),
        e14_heal_time(runner),
        e15_scaling(quick, runner),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_e5_all_single_round() {
        let t = e5_zero_degradation(true, Runner::parallel());
        // Perfect-oracle rows decide in round 1 in every run.
        assert!(t.rows[0][2].starts_with(&format!("{}", seeds(true) * 2)));
        assert!(t.rows[1][2].starts_with(&format!("{}", seeds(true) * 2)));
    }

    #[test]
    fn e3_witness_cells_are_the_same_at_every_thread_count_and_cached() {
        use fd_detectors::scenario::ReportCache;
        use std::sync::{Arc, Mutex};
        // The table, the tallies and the stored keys of one cold E3 on a
        // fresh cache; a second E3 on the same cache must compute nothing.
        let e3 = |threads: usize| {
            let cache = ReportCache::new();
            let stored: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
            let sink = Arc::clone(&stored);
            cache.set_spill(Some(Arc::new(move |salt, seed, _slim| {
                sink.lock().unwrap().push((salt, seed));
            })));
            let r = Runner::with_threads(threads).with_cache(&cache);
            let table = e3_additivity_boundary(true, r).to_string();
            let mut keys = stored.lock().unwrap().clone();
            keys.sort_unstable();
            let cold = (table, cache.hits(), cache.misses(), keys);
            assert_eq!(e3_additivity_boundary(true, r).to_string(), cold.0);
            assert_eq!(cache.misses(), cold.2, "threads={threads}: warm E3 missed");
            cold
        };
        let sequential = e3(1);
        // Six swept rows of 5 seeds, and the three witness searches that
        // each stop at seed 0.
        assert_eq!((sequential.1, sequential.2), (0, 6 * 5 + 3));
        assert_eq!(e3(4), sequential, "threads=4");
    }

    #[test]
    fn quick_e8_boundary_row_fails() {
        let t = e8_psi(true, Runner::parallel());
        // Row with y+z = 2 (y=1, z=1) must have 0 passes.
        let row = t.rows.iter().find(|r| r[4] == "2").unwrap();
        assert!(row[6].starts_with("0/"), "boundary row passed: {row:?}");
    }

    /// The row of `t` labelled `label`.
    fn row<'t>(t: &'t Table, label: &str) -> &'t [String] {
        t.rows.iter().find(|r| r[0] == label).expect(label)
    }

    fn count(cell: &str) -> u64 {
        cell.parse().expect(cell)
    }

    #[test]
    fn adversary_leg_gates_hold() {
        let t = e13_adversary(Runner::parallel());
        assert!(t.title.contains("drop10+dup10"), "{}", t.title);
        // Churn + catch-up live, bare churn safety-only.
        for finding in &t.notes[..2] {
            assert!(finding.ends_with("— holds"), "{finding}");
        }
        let total = row(&t, "all adv cells");
        assert!(count(&total[5]) > 0, "drop rules never fired");
        assert!(count(&total[6]) > 0, "dup rules never fired");
        let last = t.rows.iter().rfind(|r| r[0].starts_with("adv_"));
        assert_eq!(last.unwrap()[0], "adv_n65_t32_k2_f0");
    }

    #[test]
    fn topology_leg_gates_hold_and_the_diagram_flips() {
        let t = e14_heal_time(Runner::parallel());
        // The diagram flips, the partition-during-join does not wedge.
        for finding in &t.notes[1..] {
            assert!(finding.ends_with("— holds"), "{finding}");
        }
        assert!(count(&row(&t, "all heal cells")[4]) > 0, "nothing severed");
        assert_eq!(t.rows[0][0], "heal 200");
        let last = row(&t, "heal 200000");
        assert!(last[2].starts_with("0/"), "past-horizon heal must fail");
        assert_eq!(last[5], "4", "mainland decides alone");
        // Seed 0's Ω leader sits in the mainland, so the past-horizon cell
        // records it as an honest negative witness: liveness rejected with
        // the four mainland deciders in safe agreement. Every
        // mainland-leader seed at that heal qualifies, in seed order.
        let witnesses: Vec<u64> = last[6].split(", ").map(count).collect();
        assert_eq!(witnesses.first(), Some(&0));
        assert!(witnesses.windows(2).all(|w| w[0] < w[1]), "{witnesses:?}");
    }

    #[test]
    fn e13_to_e15_render_identically_at_every_thread_count() {
        let render = |r: Runner| {
            [e13_adversary(r), e14_heal_time(r), e15_scaling(true, r)].map(|t| t.to_string())
        };
        let sequential = render(Runner::sequential());
        for threads in [2, 4] {
            assert_eq!(
                sequential,
                render(Runner::with_threads(threads)),
                "{threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PROCESSES")]
    fn scaling_curve_rejects_oversized_n() {
        events_vs_n(&[fd_sim::MAX_PROCESSES + 1], Runner::sequential());
    }
}
