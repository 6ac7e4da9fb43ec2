//! The event queue in isolation, in the "hold" shape the engine gives it:
//! a standing backlog where every pop schedules one event a few ticks
//! ahead. Two depths — ~81 pending (an n = 9 round) and ~16k (an n = 128
//! round) — run entirely inside the timing wheel; the far-horizon mix
//! sends one push in twenty 200–900 ticks out, through the fallback heap
//! and the re-merge on pop. Each iteration is `OPS` pop+push pairs, so
//! median / `OPS` is the cost of one pair.

use fd_bench::Suite;
use fd_sim::{EventKind, EventQueue, MsgSlot, ProcessId, Scheduler, SplitMix64, Time};

const OPS: u64 = 200_000;

fn hold(depth: u64, far_one_in: u64) -> u64 {
    let mut rng = SplitMix64::new(depth ^ far_one_in);
    let mut q = EventQueue::new();
    let push = |q: &mut EventQueue, rng: &mut SplitMix64, now: u64, i: u64| {
        let ahead = if far_one_in != 0 && rng.chance(1, far_one_in) {
            rng.range(200, 900)
        } else {
            rng.range(1, 10)
        };
        let to = ProcessId((i % 128) as usize);
        let kind = EventKind::Deliver {
            from: to,
            slot: MsgSlot::from_raw(i as u32),
        };
        q.push(Time(now + ahead), to, kind);
    };
    for i in 0..depth {
        push(&mut q, &mut rng, 0, i);
    }
    let mut acc = 0u64;
    for i in 0..OPS {
        let e = q.pop().expect("a held queue never drains");
        acc = acc.wrapping_add(e.at.ticks()).wrapping_add(e.seq);
        push(&mut q, &mut rng, e.at.ticks(), i);
    }
    assert_eq!(q.len() as u64, depth);
    acc
}

fn main() {
    let mut suite = Suite::new("event_queue");
    suite.bench("hold_depth_81/200k_pairs", || hold(81, 0));
    suite.bench("hold_depth_16k/200k_pairs", || hold(16_384, 0));
    suite.bench("hold_depth_16k_far_1_in_20/200k_pairs", || hold(16_384, 20));
}
