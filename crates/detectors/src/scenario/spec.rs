//! The spec half of the engine: [`ScenarioSpec`] and its builder,
//! [`CrashPlan`] materialization and the [`salt`] constants every consumer
//! of randomness is keyed by. The spec's encoding and its
//! [fingerprint](ScenarioSpec::fingerprint) are in `codec`.

use crate::Scope;
use fd_sim::{
    DelayModel, DelayRule, FailurePattern, MessageAdversary, ShmConfig, SimConfig, SplitMix64,
    Time, TopologySchedule,
};

/// Seed-mixing constants, one per oracle role, so that the detectors of a
/// bundle draw from independent streams of the run's root seed.
///
/// # The reproducibility contract
///
/// Every recorded number in this repository (the table goldens, the
/// checked-in witnesses; see "Determinism" in README.md) is a function
/// of `(spec, seed)` alone. That holds only because each consumer of
/// randomness derives its stream as `root_seed` mixed with a fixed salt
/// below, and draws from it in a fixed order. Consequently:
///
/// * **changing a salt value** re-keys that consumer's stream and silently
///   changes every recorded number of the affected scenarios;
/// * **changing the number or order of RNG draws** (e.g. sampling the crash
///   time before the crash victim, or adding a draw in a loop) shifts all
///   subsequent draws of that stream and has the same effect.
///
/// Neither is ever a compatible change: treat salts and draw order as part
/// of the on-disk format, and regenerate all recorded artifacts when one
/// must move.
pub mod salt {
    /// `Ω_z` oracle of the Figure 3 algorithm.
    pub const OMEGA: u64 = 0x0A11;
    /// `◇S` oracle of the MR consensus baseline.
    pub const DIAMOND_S: u64 = 0x0511;
    /// Standalone `S_x` bundle built via `OracleChoice::Sx`.
    pub const SX: u64 = 0x5c0e;
    /// Standalone `φ_y` bundle built via `OracleChoice::Phi`.
    pub const PHI: u64 = 0x0f1e;
    /// `◇S_x` component of the two-wheels bundle.
    pub const WHEELS_SX: u64 = 0x5e5e;
    /// `◇φ_y` component of the two-wheels bundle.
    pub const WHEELS_PHI: u64 = 0x9191;
    /// `φ_y` inside the `Ψ_y` oracle.
    pub const PSI_PHI: u64 = 0x8888;
    /// `S_x` component of the Figure 9 addition bundle.
    pub const ADDITION_SX: u64 = 0x1f1f;
    /// `φ_y` component of the Figure 9 addition bundle.
    pub const ADDITION_PHI: u64 = 0x2e2e;
    /// `◇S_x` component of the end-to-end pipeline bundle.
    pub const PIPELINE_SX: u64 = 0xAA55;
    /// `◇φ_y` component of the end-to-end pipeline bundle.
    pub const PIPELINE_PHI: u64 = 0x55AA;
    /// Perfect-detector oracle.
    pub const PERFECT: u64 = 0x9e37;
    /// Crash-plan materialization stream.
    pub const CRASHES: u64 = 0xC4A5;
    /// Anarchic crash-plan stream (random crash count).
    pub const ANARCHY: u64 = 0xFA11;
    /// Churn crash-plan stream (crash + fresh-id rejoin).
    pub const CHURN: u64 = 0x0C4B;
    /// Message-adversary stream (drop / duplicate / corrupt decisions and
    /// duplicate-copy delays). The runtime derives it in `fd_sim` as
    /// `root.stream(0xADE5)`; the constant is mirrored here because it is
    /// part of the same contract: with [`super::MessageAdversary::None`]
    /// the stream is never drawn from, which is what makes the empty
    /// adversary bit-identical to the pre-adversary simulator.
    pub const ADVERSARY: u64 = 0xADE5;
    /// Topology-schedule stream (override-latency draws and post-heal
    /// release jitter). The runtime derives it in `fd_sim` as
    /// `root.stream(0x7090)`; mirrored here for the same reason as
    /// [`ADVERSARY`]: with [`super::TopologySchedule::None`] the stream is
    /// never drawn from, which is what keeps the empty schedule
    /// bit-identical to the pre-topology simulator.
    pub const TOPOLOGY: u64 = 0x7090;
}

/// How crashes are injected into a run.
#[derive(Clone, Debug)]
pub enum CrashPlan {
    /// Failure-free run.
    None,
    /// `f` random processes crash at random times up to `by`.
    Random {
        /// Number of crashes.
        f: usize,
        /// Latest crash time.
        by: Time,
    },
    /// `f` random processes crash before the run starts (the premise of the
    /// paper's zero-degradation property).
    Initial {
        /// Number of crashes.
        f: usize,
    },
    /// A random number of crashes in `0..=t` at random times up to `by` —
    /// the "anything the model permits" plan used by grid sweeps.
    Anarchic {
        /// Latest crash time.
        by: Time,
    },
    /// Churn: `t` processes crash at random times up to `crash_by`, and
    /// for each crash a distinct fresh process id joins the run
    /// `rejoin_after` ticks later — crash followed by simulated recovery
    /// under a new identity (the crash-stop model has no true recovery).
    /// Requires `2t ≤ n` so every crasher has a fresh id to hand over to.
    Churn {
        /// Latest crash time.
        crash_by: Time,
        /// Ticks between each crash and its fresh id joining.
        rejoin_after: u64,
    },
    /// An explicit pattern.
    Explicit(FailurePattern),
}

impl CrashPlan {
    /// Materializes the plan into a pattern for `n` processes under
    /// resilience bound `t`, deterministically in `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the plan steps outside the model's envelope: a
    /// [`CrashPlan::Random`] or [`CrashPlan::Initial`] with `f > t`, or any
    /// randomized plan with `t ≥ n`. [`CrashPlan::Explicit`] patterns are
    /// exempt — witness and negative scenarios deliberately hand-craft
    /// patterns at (or past) the boundary.
    pub fn materialize(&self, n: usize, t: usize, seed: u64) -> FailurePattern {
        match self {
            CrashPlan::None => FailurePattern::all_correct(n),
            CrashPlan::Random { f, by } => {
                self.validate(n, t, *f);
                let mut rng = SplitMix64::new(seed).stream(salt::CRASHES);
                FailurePattern::random(n, *f, *by, &mut rng)
            }
            CrashPlan::Initial { f } => {
                self.validate(n, t, *f);
                let mut rng = SplitMix64::new(seed).stream(salt::CRASHES);
                FailurePattern::random_initial(n, *f, &mut rng)
            }
            CrashPlan::Anarchic { by } => {
                self.validate(n, t, 0);
                let mut rng = SplitMix64::new(seed).stream(salt::ANARCHY);
                let f = rng.below(t as u64 + 1) as usize;
                FailurePattern::random(n, f, *by, &mut rng)
            }
            CrashPlan::Churn {
                crash_by,
                rejoin_after,
            } => {
                self.validate(n, t, t);
                assert!(
                    2 * t <= n,
                    "crash plan {self:?} invalid for n={n}, t={t}: churn needs 2t ≤ n \
                     (t crashers + t fresh joiners)"
                );
                let mut rng = SplitMix64::new(seed).stream(salt::CHURN);
                FailurePattern::churn(n, t, *crash_by, *rejoin_after, &mut rng)
            }
            CrashPlan::Explicit(fp) => fp.clone(),
        }
    }

    /// Rejects specs whose crash count can exceed what the model promises,
    /// *before* the failure would surface as an opaque panic deep inside
    /// index sampling.
    fn validate(&self, n: usize, t: usize, f: usize) {
        assert!(
            t < n,
            "crash plan {self:?} invalid for n={n}, t={t}: resilience bound must satisfy t < n"
        );
        assert!(
            f <= t,
            "crash plan {self:?} invalid for n={n}, t={t}: f={f} crashes exceed the bound t"
        );
    }
}

/// Whether a detector's properties hold from the start or only eventually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavour {
    /// Properties hold over the whole run.
    Perpetual,
    /// Properties hold from the spec's `gst` on.
    Eventual,
}

impl Flavour {
    /// The corresponding oracle scope for stabilization time `gst`.
    pub fn scope(self, gst: Time) -> Scope {
        match self {
            Flavour::Perpetual => Scope::Perpetual,
            Flavour::Eventual => Scope::Eventual(gst),
        }
    }
}

/// Which failure-detector bundle a scenario consults, built from the grid
/// parameters of the spec (`x` for `S_x`, `y` for `φ_y`, `z` for `Ω_z`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleChoice {
    /// No detector: the pure asynchronous model `AS_{n,t}[∅]`.
    None,
    /// `Ω_z` (eventual multiple leadership), stabilizing at `gst`.
    Omega,
    /// `S_x` / `◇S_x` (limited-scope accuracy).
    Sx(Flavour),
    /// `φ_y` / `◇φ_y` (query detectors).
    Phi(Flavour),
    /// `Ψ_y` (strict query detector), eventual at `gst`.
    Psi,
    /// The `S_x` + `φ_y` bundle used by the additions.
    SxPlusPhi(Flavour),
    /// `P` / `◇P` (the perfect detector).
    Perfect(Flavour),
}

/// Full description of one run (or of a family of runs differing only in
/// seed): system size, grid parameters, oracle choice, crash plan, delay
/// adversary, stabilization time, seed, and horizons.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// System size.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Scope parameter `x` of `S_x` / `◇S_x`.
    pub x: usize,
    /// Query parameter `y` of `φ_y` / `Ψ_y`.
    pub y: usize,
    /// Leader parameter `z` of `Ω_z`.
    pub z: usize,
    /// Agreement degree `k` checked against the run.
    pub k: usize,
    /// The failure-detector bundle consulted by the scenario.
    pub oracle: OracleChoice,
    /// Crash injection.
    pub crashes: CrashPlan,
    /// Base message-delay distribution.
    pub delay: DelayModel,
    /// Targeted delay-adversary rules.
    pub rules: Vec<DelayRule>,
    /// Oracle stabilization time.
    pub gst: Time,
    /// Root seed; every random choice of the run derives from it.
    pub seed: u64,
    /// Message-passing horizon.
    pub max_time: Time,
    /// Shared-memory horizon (scheduler steps).
    pub max_steps: u64,
    /// The message adversary attacking the plain channels (drop /
    /// duplicate / bounded corruption; [`MessageAdversary::None`] is
    /// bit-identical to the pre-adversary engine).
    pub adversary: MessageAdversary,
    /// The structural topology schedule — partitions, heals, asymmetric
    /// links ([`TopologySchedule::None`] is bit-identical to the
    /// pre-topology engine; severed reliable-broadcast messages are
    /// delayed until the heal, never lost).
    pub topology: TopologySchedule,
    /// Whether churn-aware scenarios run their catch-up layer (rebroadcast
    /// / state transfer for late joiners), upgrading churn guarantees from
    /// safety-only to liveness. Scenarios without a catch-up variant
    /// ignore it.
    pub catch_up: bool,
}

impl ScenarioSpec {
    /// A sensible default spec: `k = x = y = z = 1`, an `Ω_z` oracle
    /// stabilizing at 300, no crashes, default delays.
    pub fn new(n: usize, t: usize) -> Self {
        ScenarioSpec {
            n,
            t,
            x: 1,
            y: 1,
            z: 1,
            k: 1,
            oracle: OracleChoice::Omega,
            crashes: CrashPlan::None,
            delay: DelayModel::default(),
            rules: Vec::new(),
            gst: Time(300),
            seed: 0,
            max_time: Time(100_000),
            max_steps: 200_000,
            adversary: MessageAdversary::None,
            topology: TopologySchedule::None,
            catch_up: false,
        }
    }

    /// Sets `x` (builder style).
    pub fn x(mut self, x: usize) -> Self {
        self.x = x;
        self
    }

    /// Sets `y` (builder style).
    pub fn y(mut self, y: usize) -> Self {
        self.y = y;
        self
    }

    /// Sets `z` (builder style).
    pub fn z(mut self, z: usize) -> Self {
        self.z = z;
        self
    }

    /// Sets `k` (builder style).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets `k` and `z` together (the common `k = z` case).
    pub fn kz(mut self, kz: usize) -> Self {
        self.k = kz;
        self.z = kz;
        self
    }

    /// Sets the oracle choice (builder style).
    pub fn oracle(mut self, oracle: OracleChoice) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the crash plan (builder style).
    pub fn crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = crashes;
        self
    }

    /// Sets the delay model (builder style).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Adds a targeted delay-adversary rule (builder style).
    pub fn rule(mut self, rule: DelayRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Sets the oracle stabilization time (builder style).
    pub fn gst(mut self, gst: Time) -> Self {
        self.gst = gst;
        self
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the message-passing horizon (builder style).
    pub fn max_time(mut self, max_time: Time) -> Self {
        self.max_time = max_time;
        self
    }

    /// Sets the shared-memory horizon (builder style).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the message adversary (builder style).
    pub fn adversary(mut self, adversary: MessageAdversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the topology schedule (builder style).
    pub fn topology(mut self, topology: TopologySchedule) -> Self {
        self.topology = topology;
        self
    }

    /// Enables or disables the churn catch-up layer (builder style).
    pub fn catch_up(mut self, catch_up: bool) -> Self {
        self.catch_up = catch_up;
        self
    }

    /// A copy of this spec with a different seed (the sweep primitive).
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut s = self.clone();
        s.seed = seed;
        s
    }

    /// Materializes the crash plan for this spec.
    pub fn materialize(&self) -> FailurePattern {
        self.crashes.materialize(self.n, self.t, self.seed)
    }

    /// The message-passing simulator configuration for this spec.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            max_time: self.max_time,
            delay: self.delay.clone(),
            rules: self.rules.clone(),
            adversary: self.adversary.clone(),
            topology: self.topology.clone(),
            ..SimConfig::new(self.n, self.t)
        }
    }

    /// The shared-memory scheduler configuration for this spec.
    pub fn shm_config(&self) -> ShmConfig {
        ShmConfig {
            max_steps: self.max_steps,
            ..ShmConfig::new(self.n, self.t).seed(self.seed)
        }
    }
}
