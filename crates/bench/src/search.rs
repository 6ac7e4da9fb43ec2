//! Adversary search engine with witness shrinking.
//!
//! The sweep store (PR 8) made million-seed campaigns durable; this module
//! points that machinery *at the fault space itself*. A deterministic,
//! seeded generator samples [`ScenarioSpec`]s across the full adversary
//! surface — message drop/duplicate/corrupt grids, crash plans including
//! churn, delay models and targeted delay rules, topology partitions, GST,
//! and the `(n, t, k)` shape — and every sampled cell runs through the
//! streaming [`Runner`] (cache-aware, so a resumed campaign never
//! re-executes a computed cell).
//!
//! Outcomes fall into three classes (see [`classify`]):
//!
//! * **pass** — the checker accepted the run;
//! * **liveness refusal** — the checker refused termination, completeness,
//!   accuracy, or leadership. Under drops, partitions that never heal, or
//!   horizons shorter than the decision time, refusing to decide is the
//!   *honest* outcome — the paper's algorithms trade liveness, never
//!   safety;
//! * **checker violation** — a safety property broke (validity, agreement,
//!   decide-once, …). The only specs *expected* to produce these carry a
//!   corruption rule ([`expects_safety_violation`]): the algorithms have
//!   no payload authentication, so a corrupting channel can forge foreign
//!   estimates. A violation on any other spec is a genuine bug and is
//!   surfaced separately.
//!
//! Every expected violation enters the [`shrink`]er, one walk over the
//! spec's canonical encoding ([`ScenarioSpec::to_json`]) that knows no
//! spec field: drop an array element, reset a top-level member to its
//! default, or bisect a number down, each candidate decoded by
//! [`ScenarioSpec::from_json`] and re-run through the checker, iterated to
//! a fixed point. A spec member is shrinkable as soon as the codec
//! encodes it. The local minimum is emitted as a canonical
//! [`MinimalWitness`]: spec description, fingerprint, seed, violated
//! predicate, events-to-violation, and the shrink trail — serialized as
//! canonical JSON (sorted keys) so two runs of the same search are
//! bit-identical regardless of thread count.

use crate::json::Json;
use fd_core::KsetScenario;
use fd_detectors::scenario::{CrashPlan, Runner, ScenarioSpec, SlimReport};
use fd_detectors::{CheckOutcome, Scenario, ViolationClass};
use fd_grid::ChurnKsetScenario;
use fd_sim::{
    DelayModel, DelayRule, MessageAdversary, MessageRule, PSet, ProcessId, RuleAction, SplitMix64,
    Time, TopologySchedule, MAX_PROCESSES,
};
use std::collections::BTreeSet;

/// Schema tag stamped into every emitted witness document.
pub const WITNESS_SCHEMA: &str = "fd-minimal-witness/1";

/// Schema tag stamped into the top-level search report document.
pub const SEARCH_SCHEMA: &str = "fd-search-report/1";

/// Stream label separating the generator's draws from every other
/// consumer of the search seed.
const SEARCH_STREAM: u64 = 0x5EA2_0C11;

// ---------------------------------------------------------------------------
// Outcome classification
// ---------------------------------------------------------------------------

/// What one `(spec, seed)` cell did, viewed through the violation class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunClass {
    /// The checker accepted the run.
    Pass,
    /// The checker refused a liveness property (termination, completeness,
    /// accuracy, leadership) — the honest outcome under message loss,
    /// unhealed partitions, or too-short horizons.
    LivenessRefusal,
    /// A safety property broke. Never acceptable unless the spec carries
    /// a corruption rule (see [`expects_safety_violation`]).
    Violation,
}

/// Classifies a check outcome by its machine-readable violation class.
pub fn classify(check: &CheckOutcome) -> RunClass {
    if check.ok {
        RunClass::Pass
    } else if check.class.is_safety() {
        RunClass::Violation
    } else {
        RunClass::LivenessRefusal
    }
}

/// Whether a spec is *expected* to be able to break safety: only payload
/// corruption can — the algorithms carry no authentication, so a
/// corrupting channel forges estimates. Drops, duplicates, delays,
/// partitions, and crashes within the resilience bound must never break
/// a safety property; a [`RunClass::Violation`] on a spec where this
/// returns `false` is a genuine checker or algorithm bug.
pub fn expects_safety_violation(spec: &ScenarioSpec) -> bool {
    spec.adversary
        .rules()
        .iter()
        .any(|r| r.pct > 0 && matches!(r.action, RuleAction::Corrupt { bound } if bound > 0))
}

/// The scenario a spec runs under: churn plans use the churn-aware
/// scenario (plain k-set agreement has no notion of joiners), everything
/// else the paper's Figure 3 algorithm.
pub fn scenario_for(spec: &ScenarioSpec) -> &'static dyn Scenario {
    if matches!(spec.crashes, CrashPlan::Churn { .. }) {
        &ChurnKsetScenario
    } else {
        &KsetScenario
    }
}

/// One line summarizing a spec for labels and witness descriptions:
/// [`ScenarioSpec::describe`], under the name the benchmark package uses.
pub fn describe_spec(spec: &ScenarioSpec) -> String {
    spec.describe()
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// Search campaign parameters. Everything the campaign does is a pure
/// function of this configuration — same config, same witnesses,
/// bit-identically, at any thread count.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Root seed of the spec generator (not of the runs — each spec is
    /// swept over `0..seeds_per_spec` run seeds).
    pub search_seed: u64,
    /// Number of *sampled* specs, on top of the fixed probe specs.
    pub budget: u64,
    /// Run seeds swept per spec.
    pub seeds_per_spec: u64,
    /// Cap on witnesses shrunk and emitted (further violations are still
    /// counted).
    pub max_witnesses: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            search_seed: 0,
            budget: 32,
            seeds_per_spec: 4,
            max_witnesses: 3,
        }
    }
}

/// The fixed probe specs emitted before any sampling: known checker
/// violations seeded into every campaign, so even a `--budget 0` run
/// exercises the find → shrink → emit pipeline end to end.
pub fn probe_specs() -> Vec<ScenarioSpec> {
    // Bounded corruption on every link: forges foreign estimates, breaking
    // validity (seed 0) and agreement (seed 1) — the known negative
    // witness from the adversary test suite.
    vec![ScenarioSpec::new(5, 2)
        .kz(1)
        .adversary(MessageAdversary::from_rules(vec![MessageRule::corrupt(
            40, 7,
        )]))
        .max_time(Time(60_000))]
}

/// The deterministic spec stream of a campaign: probes first, then
/// `cfg.budget` sampled specs drawn from `cfg.search_seed`.
pub fn generate(cfg: &SearchConfig) -> Vec<ScenarioSpec> {
    let mut specs = probe_specs();
    let mut rng = SplitMix64::new(cfg.search_seed).stream(SEARCH_STREAM);
    for _ in 0..cfg.budget {
        specs.push(sample_spec(&mut rng));
    }
    specs
}

/// Draws one spec across the full adversary surface. Every combination
/// emitted is valid by construction (`t < n`, crash counts within the
/// bound, churn only when `2t ≤ n`), so `materialize` never panics.
fn sample_spec(rng: &mut SplitMix64) -> ScenarioSpec {
    const SHAPES: [(usize, usize, usize); 7] = [
        (4, 1, 1),
        (5, 2, 1),
        (5, 2, 2),
        (6, 2, 2),
        (7, 3, 2),
        (8, 3, 1),
        (8, 3, 3),
    ];
    let (n, t, k) = SHAPES[rng.below(SHAPES.len() as u64) as usize];
    let max_time = 2_000 + rng.below(5) * 1_000;
    let gst = 100 + rng.below(4) * 100;
    let mut spec = ScenarioSpec::new(n, t)
        .kz(k)
        .gst(Time(gst))
        .max_time(Time(max_time));

    spec = spec.delay(match rng.below(4) {
        0 => DelayModel::default(),
        1 => DelayModel::Fixed(1 + rng.below(8)),
        2 => {
            let lo = 1 + rng.below(5);
            DelayModel::Uniform {
                lo,
                hi: lo + 1 + rng.below(20),
            }
        }
        _ => DelayModel::Spiky {
            lo: 1,
            hi: 10,
            spike_pct: (5 + rng.below(30)) as u8,
            factor: 2 + rng.below(20),
        },
    });

    spec = spec.crashes(match rng.below(5) {
        0 => CrashPlan::None,
        1 => CrashPlan::Random {
            f: rng.below(t as u64 + 1) as usize,
            by: Time(1 + rng.below(max_time / 2)),
        },
        2 => CrashPlan::Initial {
            f: rng.below(t as u64 + 1) as usize,
        },
        3 => CrashPlan::Anarchic {
            by: Time(1 + rng.below(max_time)),
        },
        4 if 2 * t <= n => CrashPlan::Churn {
            crash_by: Time(1 + rng.below(max_time / 2)),
            rejoin_after: 1 + rng.below(500),
        },
        _ => CrashPlan::None,
    });

    let mut rules = Vec::new();
    for _ in 0..rng.below(3) {
        let mut rule = match rng.below(3) {
            0 => MessageRule::drop((5 + rng.below(61)) as u8),
            1 => MessageRule::duplicate((5 + rng.below(61)) as u8),
            _ => MessageRule::corrupt((5 + rng.below(46)) as u8, 1 + rng.below(8)),
        };
        if rng.chance(1, 2) {
            let a = rng.below(max_time);
            let b = a + 1 + rng.below(max_time - a);
            rule = rule.window(Time(a), Time(b));
        }
        if rng.chance(1, 4) {
            let mut from = PSet::new();
            for p in 0..n {
                if rng.chance(1, 2) {
                    from.insert(ProcessId(p));
                }
            }
            if from.is_empty() {
                from = PSet::full(n);
            }
            rule = rule.links(from, PSet::full(MAX_PROCESSES));
        }
        rules.push(rule);
    }
    spec = spec.adversary(MessageAdversary::from_rules(rules));

    if rng.chance(1, 4) {
        spec = spec.rule(DelayRule::silence_until(
            PSet::full(n),
            PSet::full(n),
            Time(1 + rng.below(gst)),
        ));
    }

    if rng.chance(1, 3) {
        let cut = 1 + rng.below(n as u64 - 1) as usize;
        let mut a = PSet::new();
        let mut b = PSet::new();
        for p in 0..n {
            if p < cut {
                a.insert(ProcessId(p));
            } else {
                b.insert(ProcessId(p));
            }
        }
        let heal = Time(1 + rng.below(2 * max_time));
        spec = spec.topology(TopologySchedule::partition_until(vec![a, b], heal));
    }

    if matches!(spec.crashes, CrashPlan::Churn { .. }) && rng.chance(1, 2) {
        spec = spec.catch_up(true);
    }
    spec
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// One accepted shrink step: the move that fired, what it changed, and the
/// spec it produced (still violating — the soundness tests replay each
/// trail spec through the checker).
#[derive(Clone, Debug)]
pub struct ShrinkStep {
    /// The move: `drop` (one array element), `reset` (one top-level member
    /// back to its [`ScenarioSpec::new`] value) or `lower` (one number).
    pub pass: &'static str,
    /// The encoding path and its old and new value, e.g.
    /// `adversary[0].pct 40 -> 22`.
    pub description: String,
    /// The spec after the step (re-verified to still violate).
    pub spec: ScenarioSpec,
}

/// Result of shrinking one witness to a local minimum.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The locally minimal spec (no single move can shrink it further).
    pub spec: ScenarioSpec,
    /// Every accepted step, in order; replaying any trail spec reproduces
    /// the violation.
    pub trail: Vec<ShrinkStep>,
    /// Checker executions spent (cache lookups included).
    pub runs: u64,
}

/// One hop from the root of a spec document to a node.
#[derive(Clone, Copy)]
enum Seg<'d> {
    Key(&'d str),
    Index(usize),
}

/// The size the shrinker decreases: array elements anywhere in the
/// document, then the sum of its numbers plus its `true` flags, compared
/// lexicographically. Every accepted step lowers it, so shrinking ends.
fn size(doc: &Json) -> (u64, u128) {
    let add = |(a, b): (u64, u128), (c, d)| (a + c, b + d);
    match doc {
        Json::Arr(items) => items.iter().map(size).fold((items.len() as u64, 0), add),
        Json::Obj(members) => members.values().map(size).fold((0, 0), add),
        Json::Num(_) => (0, doc.as_u64().map_or(0, u128::from)),
        Json::Bool(flag) => (0, u128::from(*flag)),
        Json::Null | Json::Str(_) => (0, 0),
    }
}

/// Every array element and every number of `doc` below `path`, in
/// canonical order (pre-order, object keys ascending).
fn sites<'d>(
    doc: &'d Json,
    path: &mut Vec<Seg<'d>>,
    elements: &mut Vec<Vec<Seg<'d>>>,
    numbers: &mut Vec<(Vec<Seg<'d>>, u64)>,
) {
    let mut visit = |seg, child, path: &mut Vec<Seg<'d>>| {
        path.push(seg);
        if matches!(seg, Seg::Index(_)) {
            elements.push(path.clone());
        }
        sites(child, path, elements, numbers);
        path.pop();
    };
    match doc {
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                visit(Seg::Index(i), item, path);
            }
        }
        Json::Obj(members) => {
            for (key, member) in members {
                visit(Seg::Key(key), member, path);
            }
        }
        _ => {
            if let Some(v) = doc.as_u64() {
                numbers.push((path.clone(), v));
            }
        }
    }
}

/// The node at `path` in `doc`.
fn node_mut<'j>(doc: &'j mut Json, path: &[Seg<'_>]) -> &'j mut Json {
    path.iter().fold(doc, |node, seg| match (node, *seg) {
        (Json::Obj(members), Seg::Key(key)) => {
            members.get_mut(key).expect("a path of the document")
        }
        (Json::Arr(items), Seg::Index(i)) => &mut items[i],
        _ => unreachable!("a path of the document"),
    })
}

/// `adversary[0].pct` for the path `adversary`, 0, `pct`.
fn render(path: &[Seg<'_>]) -> String {
    let mut out = String::new();
    for seg in path {
        match seg {
            Seg::Key(key) if out.is_empty() => out.push_str(key),
            Seg::Key(key) => out.push_str(&format!(".{key}")),
            Seg::Index(i) => out.push_str(&format!("[{i}]")),
        }
    }
    out
}

struct Shrinker<'a> {
    runner: &'a Runner<'a>,
    seed: u64,
    class: ViolationClass,
    runs: u64,
    /// [`size`] of the current minimum.
    size: (u64, u128),
}

/// Shrinks `start` (known to violate `class` at `seed`) to a local minimum
/// by walking its canonical encoding ([`ScenarioSpec::to_json`]), delta
/// debugging style. Each round tries, in this order and each in canonical
/// key order:
///
/// * **drop** one array element anywhere in the document;
/// * **reset** one top-level member to its `ScenarioSpec::new(n, t)` value;
/// * **lower** one number, bisecting `[0, v]`. A number is skipped when
///   setting it to 0 leaves the run's [`SlimReport`] unchanged: the member
///   does not shape this scenario (`max_steps` and `y` under Figure 3).
///
/// Every candidate is decoded by [`ScenarioSpec::from_json`] (a decode
/// error does not violate). A candidate is accepted when it is strictly
/// smaller in (array elements, sum of numbers plus `true` flags), compared
/// lexicographically, and still violates the *same* class at the same
/// seed; the round then restarts from the new minimum, until none is
/// accepted. Fully sequential and deterministic — the trail and the
/// minimum depend only on `(start, seed, class)`.
pub fn shrink(
    runner: &Runner,
    start: &ScenarioSpec,
    seed: u64,
    class: ViolationClass,
) -> ShrinkOutcome {
    let mut sh = Shrinker {
        runner,
        seed,
        class,
        runs: 0,
        size: size(&start.to_json()),
    };
    let mut current = start.clone();
    let mut trail = Vec::new();
    while let Some(step) = sh.step(&current) {
        current = step.spec.clone();
        sh.size = size(&current.to_json());
        trail.push(step);
    }
    ShrinkOutcome {
        spec: current,
        trail,
        runs: sh.runs,
    }
}

impl Shrinker<'_> {
    fn run(&mut self, spec: &ScenarioSpec) -> SlimReport {
        self.runs += 1;
        // One cached cell, so shrink candidates hit the sweep store on
        // resumed campaigns.
        let seeds = self.seed..self.seed + 1;
        self.runner
            .sweep_find(scenario_for(spec), spec, seeds, |_| true)
            .expect("a one-seed sweep yields one report")
    }

    fn violates(&self, slim: &SlimReport) -> bool {
        !slim.check.ok && slim.check.class == self.class
    }

    /// The spec `doc` decodes to, if it is strictly smaller than the
    /// current minimum and still violates.
    fn accept(&mut self, doc: &Json) -> Option<ScenarioSpec> {
        let spec = ScenarioSpec::from_json(doc).ok()?;
        if size(&spec.to_json()) >= self.size {
            return None;
        }
        let slim = self.run(&spec);
        self.violates(&slim).then_some(spec)
    }

    /// The first accepted move from `spec`, if any.
    fn step(&mut self, spec: &ScenarioSpec) -> Option<ShrinkStep> {
        let doc = spec.to_json();
        let (mut elements, mut numbers) = (Vec::new(), Vec::new());
        sites(&doc, &mut Vec::new(), &mut elements, &mut numbers);
        let found = |pass, description, spec| {
            Some(ShrinkStep {
                pass,
                description,
                spec,
            })
        };

        for path in &elements {
            let (Seg::Index(i), parent) = path.split_last().expect("an element path") else {
                unreachable!("an element path ends at an index");
            };
            let mut cand = doc.clone();
            if let Json::Arr(items) = node_mut(&mut cand, parent) {
                items.remove(*i);
            }
            if let Some(next) = self.accept(&cand) {
                return found("drop", format!("{} removed", render(path)), next);
            }
        }

        let defaults = ScenarioSpec::new(spec.n, spec.t).to_json();
        let (Json::Obj(ours), Json::Obj(defaults)) = (&doc, &defaults) else {
            unreachable!("a spec encodes as an object");
        };
        for (key, value) in ours {
            let default = &defaults[key];
            if value == default {
                continue;
            }
            let mut cand = doc.clone();
            *node_mut(&mut cand, &[Seg::Key(key)]) = default.clone();
            if let Some(next) = self.accept(&cand) {
                let description = format!("{key} {} -> {}", value.emit(), default.emit());
                return found("reset", description, next);
            }
        }

        let here = self.run(spec);
        for &(ref path, v) in &numbers {
            let with = |x| {
                let mut cand = doc.clone();
                *node_mut(&mut cand, path) = Json::num_u64(x);
                cand
            };
            // An inert member would shrink to 0 and tell the reader nothing.
            let inert = |sh: &mut Self| match ScenarioSpec::from_json(&with(0)) {
                Ok(zero) => sh.run(&zero) == here,
                Err(_) => false,
            };
            if v == 0 || inert(self) {
                continue;
            }
            let min = self.bisect_down(v, |sh, x| sh.accept(&with(x)).is_some());
            if min < v {
                let next = ScenarioSpec::from_json(&with(min)).expect("accepted above");
                return found("lower", format!("{} {v} -> {min}", render(path)), next);
            }
        }
        None
    }

    /// Least `v` in `[0, hi]` with `still(v)`, assuming `still(hi)`
    /// (delta-debugging style: the predicate need not be monotone — the
    /// result is then just a deterministic local choice).
    fn bisect_down(&mut self, mut hi: u64, mut still: impl FnMut(&mut Self, u64) -> bool) -> u64 {
        let mut lo = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if still(self, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        hi
    }
}

// ---------------------------------------------------------------------------
// Witness JSON codec
// ---------------------------------------------------------------------------

/// One `{pass, description}` record of the shrink trail as persisted in
/// the witness document (the full trail with intermediate specs stays
/// in-memory on [`ShrinkOutcome`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShrinkStepRecord {
    /// The move: `drop`, `reset` or `lower` (see [`ShrinkStep::pass`]).
    pub pass: String,
    /// What the move changed (see [`ShrinkStep::description`]).
    pub description: String,
}

/// A minimal reproducer: the locally minimal spec, the run seed, the
/// violated predicate, and how it was reached. Serializes to canonical
/// JSON (sorted keys, exact u64 tokens) — two campaigns producing the
/// same witness emit byte-identical documents.
#[derive(Clone, Debug)]
pub struct MinimalWitness {
    /// Scenario the spec runs under (`kset_omega` or `kset_churn`).
    pub scenario: String,
    /// One-line spec description.
    pub description: String,
    /// `ScenarioSpec::fingerprint()` of the minimal spec.
    pub fingerprint: u64,
    /// Run seed reproducing the violation.
    pub seed: u64,
    /// The violated predicate.
    pub class: ViolationClass,
    /// The checker's account of the violation.
    pub detail: String,
    /// Simulator events to the violation (size of the reproducer).
    pub events: u64,
    /// The shrink trail that reached the minimum.
    pub shrink_steps: Vec<ShrinkStepRecord>,
    /// The minimal spec itself.
    pub spec: ScenarioSpec,
}

impl MinimalWitness {
    /// Canonical JSON document for this witness.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(WITNESS_SCHEMA)),
            ("scenario", Json::str(self.scenario.clone())),
            ("description", Json::str(self.description.clone())),
            ("fingerprint", Json::num_u64(self.fingerprint)),
            ("seed", Json::num_u64(self.seed)),
            ("class", Json::str(self.class.name())),
            ("detail", Json::str(self.detail.clone())),
            ("events", Json::num_u64(self.events)),
            (
                "shrink_steps",
                Json::Arr(
                    self.shrink_steps
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("pass", Json::str(s.pass.clone())),
                                ("description", Json::str(s.description.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spec", self.spec.to_json()),
        ])
    }

    /// Parses a witness document (inverse of [`MinimalWitness::to_json`]).
    /// A document whose spec steps outside what the engine's constructors
    /// accept is an `Err` naming the field, never a panic at replay.
    pub fn from_json(doc: &Json) -> Result<MinimalWitness, String> {
        let schema = doc.str_at("schema")?;
        if schema != WITNESS_SCHEMA {
            return Err(format!("unknown schema {schema:?}"));
        }
        let class_name = doc.str_at("class")?;
        let class = ViolationClass::from_name(class_name)
            .ok_or_else(|| format!("unknown class {class_name:?}"))?;
        let shrink_steps = doc.decode_each_at("shrink_steps", |step| {
            Ok(ShrinkStepRecord {
                pass: step.str_at("pass")?.to_string(),
                description: step.str_at("description")?.to_string(),
            })
        })?;
        Ok(MinimalWitness {
            scenario: doc.str_at("scenario")?.to_string(),
            description: doc.str_at("description")?.to_string(),
            fingerprint: doc.u64_at("fingerprint")?,
            seed: doc.u64_at("seed")?,
            class,
            detail: doc.str_at("detail")?.to_string(),
            events: doc.u64_at("events")?,
            shrink_steps,
            spec: doc.decode_at("spec", ScenarioSpec::from_json)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Campaign tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Specs examined (probes + sampled).
    pub specs: u64,
    /// Total checker executions, cache lookups included (top-level sweep
    /// cells plus every shrink candidate and final witness re-run).
    pub runs: u64,
    /// Cells the checker accepted.
    pub passes: u64,
    /// Honest liveness refusals.
    pub refusals: u64,
    /// Safety violations observed (before dedup).
    pub violations: u64,
    /// Checker executions spent inside shrinkers.
    pub shrink_runs: u64,
}

/// A safety violation on a spec that [`expects_safety_violation`] rules
/// out — a genuine bug surfaced by the search, never shrunk away.
#[derive(Clone, Debug)]
pub struct UnexpectedViolation {
    /// One-line description of the offending spec.
    pub description: String,
    /// Fingerprint of the offending spec.
    pub fingerprint: u64,
    /// Run seed that violated.
    pub seed: u64,
    /// The violated predicate.
    pub class: ViolationClass,
    /// The checker's account.
    pub detail: String,
}

impl UnexpectedViolation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("description", Json::str(self.description.clone())),
            ("fingerprint", Json::num_u64(self.fingerprint)),
            ("seed", Json::num_u64(self.seed)),
            ("class", Json::str(self.class.name())),
            ("detail", Json::str(self.detail.clone())),
        ])
    }
}

/// Everything a campaign produced. [`SearchReport::to_json_string`] is
/// canonical: a re-run of the same config emits identical bytes.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// The configuration that drove the campaign.
    pub config: SearchConfig,
    /// Campaign tallies.
    pub stats: SearchStats,
    /// Shrunk, deduplicated witnesses (capped at `config.max_witnesses`).
    pub witnesses: Vec<MinimalWitness>,
    /// Shrink outcomes parallel to `witnesses` (full trails with
    /// intermediate specs, for soundness checks; not serialized).
    pub shrinks: Vec<ShrinkOutcome>,
    /// Safety violations on specs that must not produce any.
    pub unexpected: Vec<UnexpectedViolation>,
}

impl SearchReport {
    /// Canonical JSON document for the campaign.
    pub fn to_json_string(&self) -> String {
        Json::obj([
            ("schema", Json::str(SEARCH_SCHEMA)),
            ("search_seed", Json::num_u64(self.config.search_seed)),
            ("budget", Json::num_u64(self.config.budget)),
            ("seeds_per_spec", Json::num_u64(self.config.seeds_per_spec)),
            (
                "stats",
                Json::obj([
                    ("specs", Json::num_u64(self.stats.specs)),
                    ("runs", Json::num_u64(self.stats.runs)),
                    ("passes", Json::num_u64(self.stats.passes)),
                    ("refusals", Json::num_u64(self.stats.refusals)),
                    ("violations", Json::num_u64(self.stats.violations)),
                    ("shrink_runs", Json::num_u64(self.stats.shrink_runs)),
                ]),
            ),
            (
                "witnesses",
                Json::Arr(self.witnesses.iter().map(|w| w.to_json()).collect()),
            ),
            (
                "unexpected",
                Json::Arr(self.unexpected.iter().map(|u| u.to_json()).collect()),
            ),
        ])
        .emit()
    }
}

/// Runs a campaign: generate → sweep → classify → shrink → emit.
///
/// Specs are examined in generation order and shrinkers run sequentially,
/// so the report depends only on `cfg` — the runner's thread count and
/// cache change wall-clock, never output. Attach a hydrated
/// [`fd_detectors::ReportCache`] (spilling to a [`crate::SweepStore`])
/// and a killed campaign resumes without re-executing a single cell —
/// shrink candidates included.
pub fn run_search(runner: &Runner, cfg: &SearchConfig) -> SearchReport {
    let specs = generate(cfg);
    let mut stats = SearchStats::default();
    let mut witnesses: Vec<MinimalWitness> = Vec::new();
    let mut shrinks: Vec<ShrinkOutcome> = Vec::new();
    let mut unexpected: Vec<UnexpectedViolation> = Vec::new();
    // Dedup twice: per (starting spec, class) before the expensive shrink,
    // and per (minimal fingerprint, class) before emitting.
    let mut seen_start: BTreeSet<(u64, &'static str)> = BTreeSet::new();
    let mut seen_minimal: BTreeSet<(u64, &'static str)> = BTreeSet::new();

    for spec in &specs {
        stats.specs += 1;
        let slims = runner.sweep_fold(
            scenario_for(spec),
            spec,
            0..cfg.seeds_per_spec,
            Vec::new(),
            |acc: &mut Vec<SlimReport>, slim| acc.push(slim),
        );
        stats.runs += slims.len() as u64;
        for slim in slims {
            match classify(&slim.check) {
                RunClass::Pass => stats.passes += 1,
                RunClass::LivenessRefusal => stats.refusals += 1,
                RunClass::Violation => {
                    stats.violations += 1;
                    if !expects_safety_violation(spec) {
                        unexpected.push(UnexpectedViolation {
                            description: spec.describe(),
                            fingerprint: spec.fingerprint(),
                            seed: slim.seed,
                            class: slim.check.class,
                            detail: slim.check.detail.clone(),
                        });
                        continue;
                    }
                    if witnesses.len() >= cfg.max_witnesses
                        || !seen_start.insert((spec.fingerprint(), slim.check.class.name()))
                    {
                        continue;
                    }
                    let outcome = shrink(runner, spec, slim.seed, slim.check.class);
                    stats.shrink_runs += outcome.runs;
                    stats.runs += outcome.runs;
                    let sc = scenario_for(&outcome.spec);
                    let fin = runner
                        .sweep_find(sc, &outcome.spec, slim.seed..slim.seed + 1, |_| true)
                        .expect("a one-seed sweep yields one report");
                    stats.runs += 1;
                    if !seen_minimal.insert((outcome.spec.fingerprint(), fin.check.class.name())) {
                        continue;
                    }
                    witnesses.push(MinimalWitness {
                        scenario: sc.name().to_string(),
                        description: outcome.spec.describe(),
                        fingerprint: outcome.spec.fingerprint(),
                        seed: slim.seed,
                        class: fin.check.class,
                        detail: fin.check.detail.clone(),
                        events: fin.metrics.events,
                        shrink_steps: outcome
                            .trail
                            .iter()
                            .map(|s| ShrinkStepRecord {
                                pass: s.pass.to_string(),
                                description: s.description.clone(),
                            })
                            .collect(),
                        spec: outcome.spec.clone(),
                    });
                    shrinks.push(outcome);
                }
            }
        }
    }

    SearchReport {
        config: *cfg,
        stats,
        witnesses,
        shrinks,
        unexpected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_follows_the_safety_split() {
        assert_eq!(classify(&CheckOutcome::pass(None, "ok")), RunClass::Pass);
        for class in ViolationClass::ALL {
            if class == ViolationClass::None {
                continue;
            }
            let got = classify(&CheckOutcome::fail_as(class, "x"));
            let want = if class.is_safety() {
                RunClass::Violation
            } else {
                RunClass::LivenessRefusal
            };
            assert_eq!(got, want, "class {class:?}");
        }
    }

    #[test]
    fn generator_is_deterministic_and_always_valid() {
        let cfg = SearchConfig {
            search_seed: 42,
            budget: 64,
            ..SearchConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len() as u64, cfg.budget + probe_specs().len() as u64);
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.fingerprint(), sb.fingerprint());
            // Every sampled spec must materialize without panicking.
            let _ = sa.with_seed(7).materialize();
        }
        // A different search seed moves the sampled region.
        let c = generate(&SearchConfig {
            search_seed: 43,
            budget: 64,
            ..SearchConfig::default()
        });
        assert!(
            a.iter()
                .zip(&c)
                .skip(probe_specs().len())
                .any(|(x, y)| x.fingerprint() != y.fingerprint()),
            "different search seeds must sample different specs"
        );
    }

    #[test]
    fn expectation_predicate_keys_on_live_corruption() {
        let base = ScenarioSpec::new(5, 2);
        assert!(!expects_safety_violation(&base));
        let drops = base
            .clone()
            .adversary(MessageAdversary::from_rules(vec![MessageRule::drop(60)]));
        assert!(!expects_safety_violation(&drops));
        let dead_corrupt =
            base.clone()
                .adversary(MessageAdversary::from_rules(vec![MessageRule::corrupt(
                    0, 7,
                )]));
        assert!(!expects_safety_violation(&dead_corrupt));
        let corrupt = base.adversary(MessageAdversary::from_rules(vec![MessageRule::corrupt(
            40, 7,
        )]));
        assert!(expects_safety_violation(&corrupt));
    }

    #[test]
    fn churn_specs_dispatch_to_the_churn_scenario() {
        let churn = ScenarioSpec::new(6, 2).crashes(CrashPlan::Churn {
            crash_by: Time(500),
            rejoin_after: 100,
        });
        assert_eq!(scenario_for(&churn).name(), "kset_churn");
        assert_eq!(scenario_for(&ScenarioSpec::new(5, 2)).name(), "kset_omega");
    }
}
