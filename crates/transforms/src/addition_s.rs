//! The simple addition `φ_y + S_x → S` (and `◇φ_y + ◇S_x → ◇S`) —
//! **paper Figure 9, Theorem 13** (appendix B).
//!
//! Valid whenever `x + y > t`. The paper expresses the algorithm in the
//! shared-memory model "to show the versatility of the approach" and notes
//! it translates to message passing without any extra requirement on `t`;
//! we implement **both**:
//!
//! * [`AdditionShm`] — the literal Figure 9 on SWMR atomic registers
//!   `alive[1..n]` / `suspect[1..n]`, one register operation per step (the
//!   paper relies on scans being non-atomic);
//! * [`AdditionMp`] — the message-passing port (heartbeats carrying the
//!   local `suspected_i`).
//!
//! Per process, task T1 forever increments `alive[i]` and re-publishes
//! `suspect[i] := suspected_i`; task T2 repeatedly scans `alive`, computes
//! the set `live` of processes that progressed since the previous scan,
//! and asks the `φ_y` oracle whether the complement `X = Π ∖ live` has
//! fully crashed; once `query(X)` confirms it, the new output is
//!
//! ```text
//! SUSPECTED_i := ( ⋂_{j ∈ live} suspect[j] ) \ live.
//! ```
//!
//! Intuition: the `φ_y` detector validates that every process missing from
//! the scan really crashed, and the intersection preserves the `S_x`
//! accuracy pivot — together they upgrade the scope-`x` accuracy to the
//! full-scope accuracy of `S` whenever `x + y > t`.

use fd_sim::{slot, Automaton, Ctx, FdValue, OracleSuite, PSet, ProcessId, ShmCtx, ShmProcess};

/// Register indices used by the shared-memory variant.
pub mod reg {
    /// `alive[i]`: a counter `p_i` increments forever.
    pub const ALIVE: u32 = 0;
    /// `suspect[i]`: the bitset of `p_i`'s current `suspected_i`.
    pub const SUSPECT: u32 = 1;
}

/// Program counter of task T2's scan loop.
#[derive(Clone, Debug, PartialEq, Eq)]
enum T2Pc {
    /// Reading `alive[j]`.
    ReadAlive(usize),
    /// `alive` scan complete: consult the oracle.
    Query,
    /// Reading `suspect[j]` for the members of `live` (by position).
    ReadSuspect(usize),
}

/// One process of the shared-memory Figure 9 algorithm.
#[derive(Clone, Debug)]
pub struct AdditionShm {
    n: usize,
    /// Alternates T1 and T2 micro-steps.
    toggle: bool,
    /// T1: next write is `alive` (true) or `suspect` (false).
    t1_alive_next: bool,
    alive_count: u128,
    // T2 state.
    pc: T2Pc,
    new: Vec<u128>,
    prev: Vec<u128>,
    live: PSet,
    live_members: Vec<ProcessId>,
    inter: PSet,
}

impl AdditionShm {
    /// Creates the process for a system of `n`.
    pub fn new(n: usize) -> Self {
        AdditionShm {
            n,
            toggle: false,
            t1_alive_next: true,
            alive_count: 0,
            pc: T2Pc::ReadAlive(0),
            new: vec![0; n],
            prev: vec![0; n],
            live: PSet::EMPTY,
            live_members: Vec::new(),
            inter: PSet::EMPTY,
        }
    }

    /// Task T1, one micro-step (line 01).
    fn t1_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut ShmCtx<'_, O>) {
        if self.t1_alive_next {
            self.alive_count += 1;
            let c = self.alive_count;
            ctx.write(reg::ALIVE, c);
        } else {
            let s = ctx.suspected();
            ctx.write(reg::SUSPECT, s.bits());
        }
        self.t1_alive_next = !self.t1_alive_next;
    }

    /// Task T2, one micro-step (lines 03–09).
    fn t2_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut ShmCtx<'_, O>) {
        match self.pc {
            T2Pc::ReadAlive(j) => {
                self.new[j] = ctx.read(ProcessId(j), reg::ALIVE);
                if j + 1 < self.n {
                    self.pc = T2Pc::ReadAlive(j + 1);
                } else {
                    // Line 04: live = processes that progressed.
                    self.live = (0..self.n)
                        .map(ProcessId)
                        .filter(|p| self.new[p.0] > self.prev[p.0])
                        .collect();
                    self.pc = T2Pc::Query;
                }
            }
            T2Pc::Query => {
                // Lines 05–06: X = Π \ live; retry the scan until the
                // oracle confirms every member of X has crashed.
                let x = self.live.complement(self.n);
                if ctx.query(x) {
                    // Line 07.
                    self.prev.copy_from_slice(&self.new);
                    self.live_members.clear();
                    self.live_members.extend(self.live.iter());
                    self.inter = PSet::full(self.n);
                    self.pc = T2Pc::ReadSuspect(0);
                } else {
                    self.pc = T2Pc::ReadAlive(0);
                }
            }
            T2Pc::ReadSuspect(idx) => {
                if idx < self.live_members.len() {
                    let j = self.live_members[idx];
                    let sj = PSet::from_bits(ctx.read(j, reg::SUSPECT));
                    self.inter &= sj;
                    self.pc = T2Pc::ReadSuspect(idx + 1);
                } else {
                    // Line 09: SUSPECTED = (⋂ suspect[j]) \ live.
                    let out = self.inter - self.live;
                    ctx.publish(slot::SUSPECTED, FdValue::Set(out));
                    ctx.bump("addition.scan");
                    self.pc = T2Pc::ReadAlive(0);
                }
            }
        }
    }
}

impl ShmProcess for AdditionShm {
    fn step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut ShmCtx<'_, O>) {
        self.toggle = !self.toggle;
        if self.toggle {
            self.t1_step(ctx);
        } else {
            self.t2_step(ctx);
        }
    }
}

/// Heartbeat message of the message-passing port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// The sender's ever-increasing counter (plays `alive[i]`).
    pub count: u64,
    /// The sender's current `suspected_i` (plays `suspect[i]`).
    pub suspected: PSet,
}

impl fd_sim::Corruptible for Heartbeat {
    /// The adversary may nudge the alive-counter by at most the bound —
    /// a stale- or future-looking heartbeat, the classic failure-detector
    /// stressor. The suspicion set stays intact (structured state).
    fn corrupt(&mut self, bound: u64, rng: &mut fd_sim::SplitMix64) -> bool {
        fd_sim::corrupt_u64(&mut self.count, bound, rng)
    }
}

/// One process of the message-passing port of Figure 9.
#[derive(Clone, Debug)]
pub struct AdditionMp {
    n: usize,
    count: u64,
    latest_count: Vec<u64>,
    latest_suspect: Vec<PSet>,
    prev: Vec<u64>,
}

impl AdditionMp {
    /// Creates the process for a system of `n`.
    pub fn new(n: usize) -> Self {
        AdditionMp {
            n,
            count: 0,
            latest_count: vec![0; n],
            latest_suspect: vec![PSet::EMPTY; n],
            prev: vec![0; n],
        }
    }

    fn scan<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Heartbeat, O>) {
        let mut live = PSet::EMPTY;
        for (j, (count, prev)) in self.latest_count.iter().zip(&self.prev).enumerate() {
            if count > prev {
                live.insert(ProcessId(j));
            }
        }
        let x = live.complement(self.n);
        if ctx.query(x) {
            self.prev.copy_from_slice(&self.latest_count);
            let mut inter = PSet::full(self.n);
            for j in live {
                inter &= self.latest_suspect[j.0];
            }
            ctx.publish(slot::SUSPECTED, FdValue::Set(inter - live));
            ctx.bump("addition.scan");
        }
    }
}

impl Automaton for AdditionMp {
    type Msg = Heartbeat;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Heartbeat, O>) {
        ctx.publish(slot::SUSPECTED, FdValue::Set(PSet::EMPTY));
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: Heartbeat,
        ctx: &mut Ctx<'_, Heartbeat, O>,
    ) {
        // Non-FIFO channels: only newer heartbeats count.
        if msg.count > self.latest_count[from.0] {
            self.latest_count[from.0] = msg.count;
            self.latest_suspect[from.0] = msg.suspected;
        }
        self.scan(ctx);
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, Heartbeat, O>) {
        // Task T1: heartbeat with the current suspicion set.
        self.count += 1;
        let suspected = ctx.suspected();
        ctx.broadcast(Heartbeat {
            count: self.count,
            suspected,
        });
        // Task T2.
        self.scan(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_pc_machine_shape() {
        let a = AdditionShm::new(3);
        assert_eq!(a.pc, T2Pc::ReadAlive(0));
        assert_eq!(a.new.len(), 3);
    }

    #[test]
    fn mp_ignores_stale_heartbeats() {
        let mut a = AdditionMp::new(2);
        a.latest_count[1] = 5;
        // Direct state check: the guard in on_message is `msg.count >
        // latest`; emulate it here.
        assert!(3 <= a.latest_count[1]);
    }
}
