//! Shared-memory substrate: single-writer/multi-reader atomic registers.
//!
//! The paper's Figure 9 algorithm is expressed in the shared-memory model
//! ("to show the versatility of the approach"): arrays `alive[1..n]` and
//! `suspect[1..n]` of SWMR atomic registers. This module provides that
//! model: a register memory plus an adversarially scheduled engine in which
//! each process performs **at most one** shared-memory operation per step,
//! so scans of the array are genuinely non-atomic — the paper explicitly
//! relies on this ("the reading of the whole array is not atomic").

use crate::failure::FailurePattern;
use crate::id::{PSet, ProcessId};
use crate::oracle::OracleSuite;
use crate::rng::SplitMix64;
use crate::time::Time;
use crate::trace::{FdValue, Trace};
use std::collections::BTreeMap;

/// A register address: register `reg` owned (written) by `owner`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegAddr {
    /// The single writer of the register.
    pub owner: ProcessId,
    /// Register index within the owner's registers.
    pub reg: u32,
}

/// The shared memory: a map of SWMR registers holding `u128` words
/// (a [`PSet`] fits via its bit representation; counters fit trivially).
#[derive(Clone, Debug, Default)]
pub struct SharedMem {
    words: BTreeMap<RegAddr, u128>,
}

impl SharedMem {
    /// A fresh memory; every register initially holds 0.
    pub fn new() -> Self {
        SharedMem::default()
    }

    fn read(&self, addr: RegAddr) -> u128 {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    fn write(&mut self, addr: RegAddr, value: u128) {
        self.words.insert(addr, value);
    }
}

/// Context of one shared-memory step. Permits at most one register
/// operation, enforcing atomic-register granularity.
///
/// Like the message-passing [`crate::Ctx`], the oracle is a generic
/// parameter (defaulting to `dyn OracleSuite` for erased harness code), so
/// a concrete bundle's `suspected`/`query` reads are static calls in the
/// scheduling loop.
pub struct ShmCtx<'a, O: OracleSuite + ?Sized = dyn OracleSuite + 'a> {
    me: ProcessId,
    n: usize,
    t: usize,
    now: Time,
    mem: &'a mut SharedMem,
    oracle: &'a mut O,
    trace: &'a mut Trace,
    ops_used: u32,
    halted: bool,
}

impl<O: OracleSuite + ?Sized> std::fmt::Debug for ShmCtx<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmCtx")
            .field("me", &self.me)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<'a, O: OracleSuite + ?Sized> ShmCtx<'a, O> {
    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Total number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resilience bound `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Current time.
    pub fn now(&self) -> Time {
        self.now
    }

    fn charge(&mut self) {
        assert!(
            self.ops_used == 0,
            "atomic-register model: one shared-memory operation per step"
        );
        self.ops_used = 1;
    }

    /// Atomically reads register `reg` of `owner`.
    ///
    /// # Panics
    ///
    /// Panics if a register operation was already performed this step.
    pub fn read(&mut self, owner: ProcessId, reg: u32) -> u128 {
        self.charge();
        self.mem.read(RegAddr { owner, reg })
    }

    /// Atomically writes this process's own register `reg` (single-writer).
    ///
    /// # Panics
    ///
    /// Panics if a register operation was already performed this step.
    pub fn write(&mut self, reg: u32, value: u128) {
        self.charge();
        self.mem.write(
            RegAddr {
                owner: self.me,
                reg,
            },
            value,
        );
    }

    /// Reads `suspected_i` from the underlying failure detector
    /// (not a shared-memory operation).
    pub fn suspected(&mut self) -> PSet {
        self.oracle.suspected(self.me, self.now)
    }

    /// Invokes `query(x)` on the underlying failure detector
    /// (not a shared-memory operation).
    pub fn query(&mut self, x: PSet) -> bool {
        self.oracle.query(self.me, x, self.now)
    }

    /// Publishes an observable output value.
    pub fn publish(&mut self, slot: u32, value: FdValue) {
        self.trace.publish(self.me, slot, self.now, value);
    }

    /// Increments a named metric counter.
    pub fn bump(&mut self, name: &'static str) {
        self.trace.bump(name, 1);
    }

    /// Stops scheduling this process.
    pub fn halt(&mut self) {
        self.halted = true;
    }
}

/// A shared-memory process: an explicit program-counter state machine that
/// performs one register operation per `step`.
///
/// `step` is generic over the oracle bundle for the same reason
/// [`crate::Automaton`]'s callbacks are: [`run_shm`] instantiates it with
/// the run's concrete oracle so detector reads are static calls.
pub trait ShmProcess {
    /// Executes one step.
    fn step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut ShmCtx<'_, O>);
}

/// Configuration of a shared-memory run.
#[derive(Clone, Debug)]
pub struct ShmConfig {
    /// Number of processes.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Root seed.
    pub seed: u64,
    /// Total number of scheduled steps.
    pub max_steps: u64,
}

/// Maximum time advance between consecutive scheduled steps: each gap is a
/// uniform `1..=MAX_GAP` ticks.
const MAX_GAP: u64 = 3;

impl ShmConfig {
    /// Defaults: 200 000 steps (gaps between steps are 1–3 ticks).
    pub fn new(n: usize, t: usize) -> Self {
        assert!(n >= 2 && t < n);
        ShmConfig {
            n,
            t,
            seed: 0,
            max_steps: 200_000,
        }
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Runs shared-memory processes under a random (hence fair with probability
/// one) adversarial schedule and returns the recorded trace.
pub fn run_shm<P: ShmProcess, O: OracleSuite + ?Sized>(
    cfg: &ShmConfig,
    fp: &FailurePattern,
    mut make: impl FnMut(ProcessId) -> P,
    oracle: &mut O,
) -> Trace {
    assert_eq!(fp.n(), cfg.n, "failure pattern size mismatch");
    let mut procs: Vec<P> = (0..cfg.n).map(|i| make(ProcessId(i))).collect();
    let mut halted = vec![false; cfg.n];
    let mut mem = SharedMem::new();
    let mut trace = Trace::new();
    let mut rng = SplitMix64::new(cfg.seed).stream(0x5888);
    let mut now = Time::ZERO;
    let mut live: Vec<usize> = Vec::with_capacity(cfg.n);

    for _ in 0..cfg.max_steps {
        now += rng.range(1, MAX_GAP);
        // Schedulable processes: alive now and not halted.
        live.clear();
        live.extend((0..cfg.n).filter(|&i| fp.is_alive_at(ProcessId(i), now) && !halted[i]));
        let Some(&i) = rng.choose(&live) else { break };
        let mut ctx = ShmCtx {
            me: ProcessId(i),
            n: cfg.n,
            t: cfg.t,
            now,
            mem: &mut mem,
            oracle: &mut *oracle,
            trace: &mut trace,
            ops_used: 0,
            halted: false,
        };
        procs[i].step(&mut ctx);
        if ctx.halted {
            halted[i] = true;
        }
    }
    trace.set_horizon(now);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NoOracle;
    use crate::trace::slot;

    /// Writer bumps a counter register; readers publish the largest value
    /// they have seen from the writer.
    enum Role {
        Writer { count: u128 },
        Reader { best: u128 },
    }

    impl ShmProcess for Role {
        fn step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut ShmCtx<'_, O>) {
            match self {
                Role::Writer { count } => {
                    *count += 1;
                    let c = *count;
                    ctx.write(0, c);
                }
                Role::Reader { best } => {
                    let v = ctx.read(ProcessId(0), 0);
                    if v > *best {
                        *best = v;
                        ctx.publish(slot::USER, FdValue::Num(v as u64));
                    }
                }
            }
        }
    }

    fn mk(p: ProcessId) -> Role {
        if p == ProcessId(0) {
            Role::Writer { count: 0 }
        } else {
            Role::Reader { best: 0 }
        }
    }

    #[test]
    fn readers_observe_writer_progress() {
        let cfg = ShmConfig::new(3, 1).seed(42);
        let fp = FailurePattern::all_correct(3);
        let mut oracle = NoOracle;
        let trace = run_shm(&cfg, &fp, mk, &mut oracle);
        for i in 1..3 {
            let last = trace.history(ProcessId(i), slot::USER).last().unwrap();
            assert!(matches!(last, FdValue::Num(v) if v > 100));
        }
    }

    #[test]
    fn crashed_process_stops_stepping() {
        let cfg = ShmConfig::new(3, 1).seed(43);
        let fp = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(50))
            .build();
        let mut oracle = NoOracle;
        let trace = run_shm(&cfg, &fp, mk, &mut oracle);
        // The writer stops early, so readers plateau at a small value.
        for i in 1..3 {
            let last = trace.history(ProcessId(i), slot::USER).last().unwrap();
            assert!(matches!(last, FdValue::Num(v) if v < 100));
        }
    }

    struct TwoOps;
    impl ShmProcess for TwoOps {
        fn step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut ShmCtx<'_, O>) {
            ctx.write(0, 1);
            ctx.write(1, 2); // must panic: one op per step
        }
    }

    #[test]
    #[should_panic(expected = "one shared-memory operation")]
    fn second_op_in_step_panics() {
        let cfg = ShmConfig {
            max_steps: 1,
            ..ShmConfig::new(2, 0)
        };
        let fp = FailurePattern::all_correct(2);
        let mut oracle = NoOracle;
        let _ = run_shm(&cfg, &fp, |_| TwoOps, &mut oracle);
    }

    #[test]
    fn registers_default_to_zero() {
        let mem = SharedMem::new();
        assert_eq!(
            mem.read(RegAddr {
                owner: ProcessId(0),
                reg: 7
            }),
            0
        );
    }
}
