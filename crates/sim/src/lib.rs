//! # fd-sim — a deterministic asynchronous distributed-system simulator
//!
//! The substrate for reproducing *"Irreducibility and Additivity of Set
//! Agreement-oriented Failure Detector Classes"* (Mostéfaoui, Rajsbaum,
//! Raynal, Travers; PODC 2006). It implements the paper's computation model
//! (§2) exactly:
//!
//! * `n` processes that may crash (at most `t` per run), described by a
//!   [`FailurePattern`];
//! * reliable, asynchronous, non-FIFO channels with adversarially chosen
//!   finite delays ([`network`]);
//! * a reliable-broadcast abstraction with validity / integrity /
//!   termination, both axiomatic (built into the engine) and constructive
//!   ([`echo`]);
//! * failure detectors accessed only through the [`OracleSuite`] interface;
//! * a shared-memory variant with SWMR atomic registers ([`shm`]) for the
//!   paper's Figure 9.
//!
//! Algorithms are written as [`Automaton`] state machines and executed by
//! [`Sim`], which records a [`Trace`] — the raw material for the
//! property checkers in the `fd-detectors` crate.
//!
//! Everything is deterministic in a single `u64` seed. Digests that are
//! written down (spec fingerprints, store keys, report digests) use the
//! owned hash in [`fnv`], never `std`'s unspecified `DefaultHasher`.
//!
//! ## Quick example
//!
//! ```
//! use fd_sim::*;
//!
//! /// Every process broadcasts its id; decides the smallest id it hears
//! /// from n - t processes.
//! struct MinId { heard: Vec<u64>, decided: bool }
//! impl Automaton for MinId {
//!     type Msg = u64;
//!     fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, u64, O>) {
//!         ctx.broadcast(ctx.me().0 as u64);
//!     }
//!     fn on_message<O: OracleSuite + ?Sized>(
//!         &mut self,
//!         _from: ProcessId,
//!         msg: u64,
//!         ctx: &mut Ctx<'_, u64, O>,
//!     ) {
//!         self.heard.push(msg);
//!         if !self.decided && self.heard.len() >= ctx.n() - ctx.t() {
//!             self.decided = true;
//!             ctx.decide(*self.heard.iter().min().unwrap());
//!         }
//!     }
//!     fn on_step<O: OracleSuite + ?Sized>(&mut self, _ctx: &mut Ctx<'_, u64, O>) {}
//! }
//!
//! let cfg = SimConfig::new(5, 1).seed(1);
//! let fp = FailurePattern::all_correct(5);
//! let sim = Sim::new(cfg, fp, |_| MinId { heard: vec![], decided: false }, NoOracle);
//! let trace = sim.run_into_trace(|_| false);
//! assert_eq!(trace.deciders().len(), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod arena;
pub mod automaton;
pub mod echo;
pub mod event;
pub mod failure;
pub mod fnv;
pub mod id;
pub mod network;
pub mod oracle;
pub mod rng;
pub mod runtime;
pub mod shm;
pub mod time;
pub mod trace;

pub use adversary::{
    corrupt_u64, Corruptible, LinkFate, LinkOverride, MessageAdversary, MessageRule, RouteEffects,
    RuleAction, TopologyEpoch, TopologySchedule,
};
pub use arena::{MsgArena, MsgSlot};
pub use automaton::{forward_ops, Automaton, Ctx, Op, Quiet};
pub use echo::{EchoMsg, EchoRb};
pub use event::{Event, EventKind, EventQueue, Scheduler, Staged};
pub use failure::{CrashSchedule, FailurePattern, FailurePatternBuilder};
pub use fnv::{fnv1a64, Fnv1a64};
pub use id::{PSet, PSetIter, ProcessId, MAX_PROCESSES};
pub use network::{DelayModel, DelayRule, Network};
pub use oracle::{NoOracle, OracleSuite, SuspectPlusQuery};
pub use rng::SplitMix64;
pub use runtime::{counter, Sim, SimConfig};
pub use shm::{run_shm, RegAddr, SharedMem, ShmConfig, ShmCtx, ShmProcess};
pub use time::Time;
pub use trace::{slot, Decision, FdValue, History, Sample, Samples, Trace};
