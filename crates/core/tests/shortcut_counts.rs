//! What Figure 3's shortcuts skip, counted and pinned.
//!
//! The engine offers [`KsetOmega`] every step and delivery before it
//! builds an activation ([`Automaton::settle`]). A delivery the process
//! would not record is released without cloning the payload; one it
//! records is recorded from the borrowed payload, and only one that can
//! open the guard the process waits on goes on to an activation that
//! re-checks the guards. A step is settled wherever the guards cannot
//! open without a delivery. `tests/slab_reference.rs` pins runs with these
//! shortcuts bit-identical to the pre-slab reference, which activates the
//! process and re-checks its guards on every event; this file counts what
//! the shortcuts skip.
//!
//! [`Counted`] is the production automaton behind a wrapper that counts,
//! asked through the same `settle` call the engine makes; its runs must
//! equal [`KsetScenario`]'s. The counts go through the wrapper, not a
//! trace counter, because a new counter key would move every fingerprint.
//! One test checks that the reference's long-noise rows reach line 06,
//! the one place nothing is settled; the other pins the counts for the
//! repo benchmark's `scale_n128` cell and one `grid_small` cell.

use fd_core::{spec, KsetMsg, KsetOmega, KsetScenario, Wait};
use fd_detectors::scenario::{
    default_proposals, run_to_decision, salt, CrashPlan, Scenario, ScenarioReport, ScenarioSpec,
};
use fd_sim::{counter, forward_ops, Automaton, Ctx, Op, OracleSuite, ProcessId, Quiet, Time};
use std::cell::Cell;
use std::rc::Rc;

/// What the shortcuts skipped in one run, summed over its processes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    /// Deliveries to a live process: the engine offers `settle` each one.
    delivered: u64,
    /// Deliveries settled unrecorded, released unread: what the process
    /// would not record, outside line 06.
    ignored: u64,
    /// Recorded PHASE1/PHASE2 deliveries that did not re-check the guards:
    /// the process was not at line 06 before, and the delivery neither
    /// emitted an op nor brought it there. (A delivery that re-checks
    /// them completes a quorum, which always does one of the two.) The
    /// hook settles these after recording them.
    skipped: u64,
    /// Deliveries that found the process at line 06.
    at_line_06: u64,
    /// Steps of a live, running process: the engine offers `settle` each.
    steps: u64,
    /// Steps `settle` handled without an activation.
    settled_steps: u64,
}

/// The production automaton, counting into a tally its run shares.
struct Counted {
    inner: KsetOmega,
    ops: Vec<Op<KsetMsg>>,
    counts: Rc<Cell<Counts>>,
}

impl Counted {
    fn count(&self, f: impl FnOnce(&mut Counts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }
}

impl Automaton for Counted {
    type Msg = KsetMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.inner.on_start(ctx);
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: KsetMsg,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) {
        let guarded = !matches!(msg, KsetMsg::Decision { .. });
        let (n, t) = (ctx.n(), ctx.t());
        let at_06 = |p: &KsetOmega| matches!(p.waiting_on(n, t), Wait::Leader { .. });
        let was_at_06 = at_06(&self.inner);
        let Counted { inner, ops, .. } = self;
        ctx.reborrow_inner(ops, |c| inner.on_message(from, msg, c));
        let rechecked = was_at_06 || !ops.is_empty() || at_06(inner);
        forward_ops(ctx, ops, |m| m);
        if guarded && !rechecked {
            self.count(|c| c.skipped += 1);
        }
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: KsetMsg,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) {
        self.inner.on_rb_deliver(from, msg, ctx);
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.inner.on_step(ctx);
    }

    fn settle(&mut self, ev: Quiet<'_, KsetMsg>, n: usize, t: usize) -> bool {
        let at_06 = matches!(self.inner.waiting_on(n, t), Wait::Leader { .. });
        let reads = match ev {
            Quiet::Deliver { msg, .. } => self.inner.reads(msg),
            Quiet::Step => true,
        };
        let settled = self.inner.settle(ev, n, t);
        match ev {
            Quiet::Step => self.count(|c| {
                c.steps += 1;
                c.settled_steps += u64::from(settled);
            }),
            Quiet::Deliver { msg, rb, .. } => {
                let ignored = !at_06 && !reads;
                let guarded = !rb && !matches!(msg, KsetMsg::Decision { .. });
                self.count(|c| {
                    c.delivered += 1;
                    c.ignored += u64::from(ignored);
                    c.at_line_06 += u64::from(at_06);
                    c.skipped += u64::from(settled && guarded && !ignored);
                });
            }
        }
        settled
    }
}

/// Runs `make`'s automaton exactly as [`KsetScenario`] runs
/// [`KsetOmega`]: same oracle wiring, same stop rule, same check and
/// report name, so the fingerprints compare.
fn run_as_kset<A: Automaton>(spec: &ScenarioSpec, make: impl Fn(u64) -> A) -> ScenarioReport {
    let fp = spec.materialize();
    let proposals = default_proposals(spec.n);
    let oracle = spec.omega_oracle(&fp, salt::OMEGA);
    let trace = run_to_decision(spec, &fp, |p| make(proposals[p.0]), oracle);
    let check = spec::kset_spec(&trace, &fp, spec.k, &proposals);
    ScenarioReport::new("kset_omega", spec, fp, trace, check)
}

/// The production run, counted, after checking that it equals the run
/// of [`KsetScenario`] itself.
fn counted(spec: &ScenarioSpec) -> Counts {
    let counts = Rc::new(Cell::new(Counts::default()));
    let report = run_as_kset(spec, |v| Counted {
        inner: KsetOmega::new(v),
        ops: Vec::new(),
        counts: Rc::clone(&counts),
    });
    assert_eq!(
        report.fingerprint(),
        KsetScenario.run(spec).fingerprint(),
        "the counting wrapper moved the run (n={} seed={})",
        spec.n,
        spec.seed
    );
    let c = counts.get();
    assert_eq!(c.delivered, report.trace.counter(counter::DELIVERED));
    c
}

/// The spec of `tests/slab_reference.rs`'s long-noise rows: `k = z = 2`,
/// `t` maximal, a pre-GST period long enough for `Ω_z`'s noise to keep
/// processes at line 06.
fn long_noise(n: usize) -> ScenarioSpec {
    let gst = if n >= 128 { 1_500 } else { 4_000 };
    ScenarioSpec::new(n, (n - 1) / 2)
        .kz(2)
        .gst(Time(gst))
        .max_time(Time(60_000))
        .seed(1)
}

/// The reference's long-noise rows test the line 06 exception only if a
/// delivery finds line 06 pending, and the shortcuts only if something is
/// ignored and something recorded skips the re-check.
#[test]
fn long_leader_noise_reaches_line_06() {
    for n in [5, 9, 33, 128] {
        let c = counted(&long_noise(n));
        assert!(
            c.at_line_06 > 0,
            "n = {n}: no delivery found line 06 pending"
        );
        assert!(c.ignored > 0, "n = {n}: nothing ignored");
        assert!(c.skipped > 0, "n = {n}: every recorded delivery re-checked");
        assert!(c.settled_steps > 0, "n = {n}: no step settled");
    }
}

/// The counted work of the shortcuts, pinned: the repo benchmark's
/// `scale_n128` cell (failure-free, n = 128, t = 63, k = 2, GST 100) at
/// run seeds 0 and 1, and `grid_small`'s `n9_t4_k2_f4` cell at its 25
/// run seeds. Each triple is (delivered, ignored, skipped), each pair
/// (steps, settled steps).
#[test]
fn shortcut_counts_are_pinned() {
    let tally = |spec: ScenarioSpec, seeds: std::ops::Range<u64>| {
        seeds.fold(((0, 0, 0), (0, 0)), |((d, i, s), (st, ss)), seed| {
            let c = counted(&spec.clone().seed(seed));
            (
                (d + c.delivered, i + c.ignored, s + c.skipped),
                (st + c.steps, ss + c.settled_steps),
            )
        })
    };
    let scale = KsetScenario::spec(128, 63, 2).gst(Time(100));
    assert_eq!(
        tally(scale.clone(), 0..1),
        ((354_843, 166_459, 178_341), (5_376, 5_231)),
        "scale_n128 seed 0"
    );
    assert_eq!(
        tally(scale, 1..2),
        ((322_515, 153_283, 162_897), (4_767, 4_701)),
        "scale_n128 seed 1"
    );
    let grid = KsetScenario::spec(9, 4, 2)
        .gst(Time(400))
        .crashes(CrashPlan::Random {
            f: 4,
            by: Time(500),
        });
    assert_eq!(
        tally(grid, 0..25),
        ((88_505, 29_695, 46_338), (25_472, 25_202)),
        "grid_small n9_t4_k2_f4"
    );
}
