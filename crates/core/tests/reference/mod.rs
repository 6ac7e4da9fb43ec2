//! The pre-slab round automata, kept verbatim as a differential reference.
//!
//! [`KsetOmegaRef`] and [`ConsensusMrRef`] are the `HashMap<u32, Vec<…>>`
//! implementations that [`fd_core::KsetOmega`] and
//! [`fd_core::ConsensusMr`] replaced with the bitset slabs of
//! [`fd_core::rounds`]. They are *not* dead code: `slab_reference.rs`
//! (this module's only user) runs both implementations through the full
//! scenario engine and pins their scenario fingerprints bit-for-bit equal
//! across process counts, thread counts and message adversaries. Any
//! divergence introduced into the slab automata fails that suite.
//!
//! Built from `fd_core`'s public items only, so it lives with the test
//! and no library build carries it.

use fd_core::spec;
use fd_detectors::scenario::{
    churn_envelope, default_proposals, run_to_decision, salt, ChurnGuarantee, CrashPlan, Flavour,
    Scenario, ScenarioReport, ScenarioSpec,
};
use fd_sim::{
    slot, Automaton, Corruptible, Ctx, FdValue, OracleSuite, PSet, ProcessId, SplitMix64,
};
use std::collections::HashMap;

use fd_core::consensus_mr::MrMsg;
use fd_core::kset_omega::{KsetMsg, LeaderInput};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KStage {
    Phase1,
    Phase2,
    Done,
}

/// The original Figure 3 process: per-round `Vec` message lists in a
/// `HashMap`, re-scanned on every guard evaluation. Semantics of record.
#[derive(Clone, Debug)]
pub struct KsetOmegaRef {
    est: u64,
    r: u32,
    li: PSet,
    stage: KStage,
    aux: Option<u64>,
    p1: HashMap<u32, Vec<(ProcessId, PSet, u64)>>,
    p2: HashMap<u32, Vec<(ProcessId, Option<u64>)>>,
    decided: bool,
    leader_input: LeaderInput,
    external_leaders: PSet,
}

impl KsetOmegaRef {
    /// Creates the process with its proposal `v_i`.
    pub fn new(proposal: u64) -> Self {
        KsetOmegaRef {
            est: proposal,
            r: 0,
            li: PSet::EMPTY,
            stage: KStage::Done, // set properly in on_start
            aux: None,
            p1: HashMap::new(),
            p2: HashMap::new(),
            decided: false,
            leader_input: LeaderInput::Oracle,
            external_leaders: PSet::EMPTY,
        }
    }

    /// Switches the leader source to [`LeaderInput::External`].
    pub fn with_external_leaders(mut self) -> Self {
        self.leader_input = LeaderInput::External;
        self
    }

    /// Updates the externally supplied leader set (external mode only).
    pub fn set_external_leaders(&mut self, l: PSet) {
        self.external_leaders = l;
    }

    /// Whether this process has decided.
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    /// The current round number (1-based once started).
    pub fn round(&self) -> u32 {
        self.r
    }

    fn read_leaders<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) -> PSet {
        match self.leader_input {
            LeaderInput::Oracle => ctx.trusted(),
            LeaderInput::External => self.external_leaders,
        }
    }

    fn begin_round<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.r += 1;
        ctx.publish(slot::ROUND, FdValue::Num(self.r as u64));
        self.li = self.read_leaders(ctx);
        self.stage = KStage::Phase1;
        ctx.broadcast(KsetMsg::Phase1 {
            r: self.r,
            leaders: self.li,
            est: self.est,
        });
    }

    fn try_advance<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        loop {
            match self.stage {
                KStage::Done => return,
                KStage::Phase1 => {
                    let quorum = ctx.n() - ctx.t();
                    let msgs = self.p1.entry(self.r).or_default();
                    if msgs.len() < quorum {
                        return;
                    }
                    let li = self.li;
                    let from_leader = msgs.iter().any(|(from, _, _)| li.contains(*from));
                    if !from_leader && self.read_leaders(ctx) == li {
                        return;
                    }
                    let msgs = &self.p1[&self.r];
                    let mut counts: HashMap<PSet, usize> = HashMap::new();
                    for (_, l, _) in msgs {
                        *counts.entry(*l).or_insert(0) += 1;
                    }
                    let majority = counts
                        .iter()
                        .find(|&(_, &c)| 2 * c > ctx.n())
                        .map(|(&l, _)| l);
                    self.aux = majority.and_then(|l| {
                        msgs.iter()
                            .filter(|(from, _, _)| l.contains(*from))
                            .min_by_key(|(from, _, _)| *from)
                            .map(|&(_, _, v)| v)
                    });
                    self.stage = KStage::Phase2;
                    ctx.broadcast(KsetMsg::Phase2 {
                        r: self.r,
                        aux: self.aux,
                    });
                }
                KStage::Phase2 => {
                    let quorum = ctx.n() - ctx.t();
                    let msgs = self.p2.entry(self.r).or_default();
                    if msgs.len() < quorum {
                        return;
                    }
                    let rec: Vec<Option<u64>> = msgs.iter().map(|&(_, a)| a).collect();
                    if let Some(v) = rec.iter().flatten().min() {
                        self.est = *v;
                    }
                    if rec.iter().all(|a| a.is_some()) {
                        ctx.rb_broadcast(KsetMsg::Decision { v: self.est });
                        self.stage = KStage::Done;
                        return;
                    }
                    self.begin_round(ctx);
                }
            }
        }
    }
}

impl Automaton for KsetOmegaRef {
    type Msg = KsetMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.begin_round(ctx);
        self.try_advance(ctx);
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: KsetMsg,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) {
        match msg {
            KsetMsg::Phase1 { r, leaders, est } => {
                let v = self.p1.entry(r).or_default();
                if !v.iter().any(|(f, _, _)| *f == from) {
                    v.push((from, leaders, est));
                }
            }
            KsetMsg::Phase2 { r, aux } => {
                let v = self.p2.entry(r).or_default();
                if !v.iter().any(|(f, _)| *f == from) {
                    v.push((from, aux));
                }
            }
            KsetMsg::Decision { v } => self.on_rb_deliver(from, KsetMsg::Decision { v }, ctx),
        }
        self.try_advance(ctx);
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        msg: KsetMsg,
        ctx: &mut Ctx<'_, KsetMsg, O>,
    ) {
        if let KsetMsg::Decision { v } = msg {
            if !self.decided {
                self.decided = true;
                self.stage = KStage::Done;
                ctx.decide(v);
                ctx.halt();
            }
        }
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, KsetMsg, O>) {
        self.try_advance(ctx);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MStage {
    AwaitCoord,
    AwaitEchoes,
    Done,
}

/// The original MR `◇S` consensus process (HashMap round state).
#[derive(Clone, Debug)]
pub struct ConsensusMrRef {
    est: u64,
    r: u32,
    stage: MStage,
    coords: HashMap<u32, u64>,
    echoes: HashMap<u32, Vec<(ProcessId, Option<u64>)>>,
    decided: bool,
}

impl ConsensusMrRef {
    /// Creates the process with its proposal.
    pub fn new(proposal: u64) -> Self {
        ConsensusMrRef {
            est: proposal,
            r: 0,
            stage: MStage::Done,
            coords: HashMap::new(),
            echoes: HashMap::new(),
            decided: false,
        }
    }

    /// Whether this process has decided.
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    fn coordinator(&self, n: usize) -> ProcessId {
        ProcessId(((self.r as usize).saturating_sub(1)) % n)
    }

    fn begin_round<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, MrMsg, O>) {
        self.r += 1;
        ctx.publish(slot::ROUND, FdValue::Num(self.r as u64));
        self.stage = MStage::AwaitCoord;
        if self.coordinator(ctx.n()) == ctx.me() {
            ctx.broadcast(MrMsg::Coord {
                r: self.r,
                est: self.est,
            });
        }
    }

    fn try_advance<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, MrMsg, O>) {
        loop {
            match self.stage {
                MStage::Done => return,
                MStage::AwaitCoord => {
                    let c = self.coordinator(ctx.n());
                    let aux = if let Some(&est) = self.coords.get(&self.r) {
                        Some(est)
                    } else if ctx.suspected().contains(c) {
                        None
                    } else {
                        return; // keep waiting
                    };
                    self.stage = MStage::AwaitEchoes;
                    ctx.broadcast(MrMsg::Echo { r: self.r, aux });
                }
                MStage::AwaitEchoes => {
                    let quorum = ctx.n() - ctx.t();
                    let msgs = self.echoes.entry(self.r).or_default();
                    if msgs.len() < quorum {
                        return;
                    }
                    let values: Vec<Option<u64>> = msgs.iter().map(|&(_, a)| a).collect();
                    let non_bot: Vec<u64> = values.iter().flatten().copied().collect();
                    if let Some(&v) = non_bot.first() {
                        self.est = v;
                        if non_bot.len() == values.len() {
                            ctx.rb_broadcast(MrMsg::Decision { v });
                            self.stage = MStage::Done;
                            return;
                        }
                    }
                    self.begin_round(ctx);
                }
            }
        }
    }
}

impl Automaton for ConsensusMrRef {
    type Msg = MrMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, MrMsg, O>) {
        self.begin_round(ctx);
        self.try_advance(ctx);
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: MrMsg,
        ctx: &mut Ctx<'_, MrMsg, O>,
    ) {
        match msg {
            MrMsg::Coord { r, est } => {
                self.coords.entry(r).or_insert(est);
            }
            MrMsg::Echo { r, aux } => {
                let v = self.echoes.entry(r).or_default();
                if !v.iter().any(|(f, _)| *f == from) {
                    v.push((from, aux));
                }
            }
            MrMsg::Decision { v } => self.on_rb_deliver(from, MrMsg::Decision { v }, ctx),
        }
        self.try_advance(ctx);
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        _from: ProcessId,
        msg: MrMsg,
        ctx: &mut Ctx<'_, MrMsg, O>,
    ) {
        if let MrMsg::Decision { v } = msg {
            if !self.decided {
                self.decided = true;
                self.stage = MStage::Done;
                ctx.decide(v);
                ctx.halt();
            }
        }
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, MrMsg, O>) {
        self.try_advance(ctx);
    }
}

// Corruptible is implemented on the *message* types, which the reference
// automata share with the production ones — the adversary surface is
// identical by construction. These assertions keep that true.
const _: fn(&mut KsetMsg, u64, &mut SplitMix64) -> bool = <KsetMsg as Corruptible>::corrupt;
const _: fn(&mut MrMsg, u64, &mut SplitMix64) -> bool = <MrMsg as Corruptible>::corrupt;

/// [`fd_core::KsetScenario`], but running [`KsetOmegaRef`] — same
/// name, same oracle wiring, same check, so its [`ScenarioReport`]
/// fingerprint is directly comparable to the production scenario's.
#[derive(Clone, Copy, Debug, Default)]
pub struct KsetReferenceScenario;

impl Scenario for KsetReferenceScenario {
    fn name(&self) -> &'static str {
        "kset_omega"
    }

    fn cache_tag(&self) -> String {
        // Never share a cache entry with the production scenario.
        "kset_omega_vec_reference".to_owned()
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let proposals = default_proposals(spec.n);
        let oracle = spec.omega_oracle(&fp, salt::OMEGA);
        let trace = run_to_decision(spec, &fp, |p| KsetOmegaRef::new(proposals[p.0]), oracle);
        let check = if matches!(spec.crashes, CrashPlan::Churn { .. }) {
            churn_envelope(&trace, &fp, spec.k, &proposals, ChurnGuarantee::SafetyOnly)
        } else {
            spec::kset_spec(&trace, &fp, spec.k, &proposals)
        };
        ScenarioReport::new(self.name(), spec, fp, trace, check)
    }
}

/// [`fd_core::ConsensusScenario`], but running [`ConsensusMrRef`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsensusReferenceScenario;

impl Scenario for ConsensusReferenceScenario {
    fn name(&self) -> &'static str {
        "consensus_mr"
    }

    fn cache_tag(&self) -> String {
        "consensus_mr_vec_reference".to_owned()
    }

    fn run(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let fp = spec.materialize();
        let proposals = default_proposals(spec.n);
        let oracle = spec.sx_oracle(&fp, spec.n, Flavour::Eventual, salt::DIAMOND_S);
        let trace = run_to_decision(spec, &fp, |p| ConsensusMrRef::new(proposals[p.0]), oracle);
        let check = spec::kset_spec(&trace, &fp, 1, &proposals);
        ScenarioReport::new(self.name(), spec, fp, trace, check)
    }
}
