//! The engine's own counters (`fd_sim::counter`) as a finished trace lists
//! them: written once when the run ends, each only if non-zero. The pinned
//! lists were recorded while the engine still bumped every counter per
//! event, so each also pins that no key is added, lost or listed at zero.

use fd_sim::{
    counter, Automaton, Ctx, FailurePattern, MessageAdversary, MessageRule, NoOracle, OracleSuite,
    PSet, ProcessId, Sim, SimConfig, Time, TopologySchedule, Trace,
};

/// Broadcasts its id at start, then for its first `rounds` steps sends its
/// step count to its right-hand neighbour; R-broadcasts once, on its
/// second step. Never decides, never halts.
struct Gossip {
    steps: u64,
    rounds: u64,
}

impl Automaton for Gossip {
    type Msg = u64;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u64, O>) {
        ctx.broadcast(ctx.me().0 as u64);
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        _msg: u64,
        _ctx: &mut Ctx<'_, u64, O>,
    ) {
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u64, O>) {
        self.steps += 1;
        if self.steps <= self.rounds {
            let next = ProcessId((ctx.me().0 + 1) % ctx.n());
            ctx.send(next, self.steps);
        }
        if self.steps == 2 {
            ctx.rb_broadcast(ctx.me().0 as u64);
        }
    }
}

/// Takes steps and publishes nothing: a run that never sends.
struct Idle;

impl Automaton for Idle {
    type Msg = ();
    fn on_start<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, (), O>) {}
    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        _msg: (),
        _ctx: &mut Ctx<'_, (), O>,
    ) {
    }
    fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, (), O>) {}
}

fn gossip(cfg: SimConfig, fp: FailurePattern) -> Trace {
    let sim = Sim::new(
        cfg,
        fp,
        |_| Gossip {
            steps: 0,
            rounds: 6,
        },
        NoOracle,
    );
    sim.run_into_trace(|_| false)
}

#[test]
fn a_run_that_never_sends_lists_only_its_events() {
    let cfg = SimConfig::new(4, 1).seed(3).max_time(Time(200));
    let sim = Sim::new(cfg, FailurePattern::all_correct(4), |_| Idle, NoOracle);
    let trace = sim.run_into_trace(|_| false);
    let events = trace.counter(counter::EVENTS);
    assert!(events > 100, "four processes stepping for 200 ticks");
    assert_eq!(trace.counters(), vec![(counter::EVENTS, events)]);
}

#[test]
fn the_stop_predicate_sees_no_engine_counter() {
    // The engine's counts are folded in after the loop: every trace the
    // predicate is shown lists no counter at all.
    let cfg = SimConfig::new(5, 1).seed(7);
    let sim = Sim::new(
        cfg,
        FailurePattern::all_correct(5),
        |_| Gossip {
            steps: 0,
            rounds: 6,
        },
        NoOracle,
    );
    let mut seen = 0u64;
    let trace = sim.run_into_trace(|tr| {
        seen += 1;
        assert!(tr.counters().is_empty(), "{:?}", tr.counters());
        false
    });
    assert_eq!(trace.counter(counter::EVENTS), seen);
    assert!(trace.counter(counter::SENT) > 0);
}

#[test]
fn a_clean_run_lists_the_recorded_counters() {
    let trace = gossip(
        SimConfig::new(5, 1).seed(11),
        FailurePattern::all_correct(5),
    );
    assert_eq!(
        trace.counters(),
        vec![
            (counter::DELIVERED, 80),
            (counter::EVENTS, 83_238),
            (counter::RB_SENT, 5),
            (counter::SENT, 55),
        ]
    );
}

#[test]
fn a_dropping_run_lists_the_recorded_counters_and_conserves_sends() {
    let adv = MessageAdversary::Rules(vec![MessageRule::drop(30)]);
    let cfg = SimConfig::new(5, 1).seed(11).adversary(adv);
    let trace = gossip(cfg, FailurePattern::all_correct(5));
    assert_eq!(
        trace.counters(),
        vec![
            (counter::DELIVERED, 60),
            (counter::DROPPED, 20),
            (counter::EVENTS, 83_218),
            (counter::RB_SENT, 5),
            (counter::SENT, 55),
        ]
    );
    // Every plain copy is delivered or dropped; the R-broadcasts are
    // exempt and reach all five processes.
    let rb = 5 * trace.counter(counter::RB_SENT);
    assert_eq!(
        trace.counter(counter::DELIVERED) - rb + trace.counter(counter::DROPPED),
        trace.counter(counter::SENT)
    );
}

#[test]
fn a_duplicating_run_lists_the_recorded_counters_and_conserves_sends() {
    let adv = MessageAdversary::Rules(vec![MessageRule::duplicate(50)]);
    let cfg = SimConfig::new(5, 1).seed(12).adversary(adv);
    let trace = gossip(cfg, FailurePattern::all_correct(5));
    assert_eq!(
        trace.counters(),
        vec![
            (counter::DELIVERED, 103),
            (counter::DUPLICATED, 23),
            (counter::EVENTS, 83_454),
            (counter::RB_SENT, 5),
            (counter::SENT, 55),
        ]
    );
    let rb = 5 * trace.counter(counter::RB_SENT);
    assert_eq!(
        trace.counter(counter::DELIVERED) - rb,
        trace.counter(counter::SENT) + trace.counter(counter::DUPLICATED)
    );
}

#[test]
fn an_attacked_partitioned_run_lists_the_recorded_counters() {
    // Every effect at once: drop, duplicate and corrupt on the plain
    // channels, a partition until t = 40, and a crash.
    let adv = MessageAdversary::Rules(vec![
        MessageRule::drop(20),
        MessageRule::duplicate(30),
        MessageRule::corrupt(40, 3),
    ]);
    let islands = vec![
        PSet::from_iter([0, 1, 2].map(ProcessId)),
        PSet::from_iter([3, 4, 5].map(ProcessId)),
    ];
    let cfg = SimConfig::new(6, 1)
        .seed(13)
        .adversary(adv)
        .topology(TopologySchedule::partition_until(islands, Time(40)));
    let fp = FailurePattern::builder(6)
        .crash(ProcessId(4), Time(25))
        .build();
    let trace = gossip(cfg, fp);
    assert_eq!(
        trace.counters(),
        vec![
            (counter::CORRUPTED, 14),
            (counter::DELIVERED, 77),
            (counter::DROPPED, 6),
            (counter::DUPLICATED, 9),
            (counter::EVENTS, 83_320),
            (counter::PARTITIONED, 30),
            (counter::RB_SENT, 6),
            (counter::SENT, 72),
        ]
    );
}
