//! The one encoding of a [`ScenarioSpec`]: canonical JSON, and everything
//! derived from it.
//!
//! [`ScenarioSpec::canonical`] is compact JSON with every object's keys in
//! ascending order and every number an exact `u64` token, so a spec has
//! exactly one spelling. The rest are views of those bytes:
//!
//! * [`ScenarioSpec::fingerprint`] is FNV-1a-64 ([`fd_sim::Fnv1a64`]) of
//!   them — a format, equal on every build, toolchain and platform;
//! * [`ScenarioSpec::to_json`] is their tree, which witness files embed,
//!   and [`ScenarioSpec::from_json`] its range-checked inverse;
//! * [`ScenarioSpec::describe`] renders the members that differ from
//!   [`ScenarioSpec::new`]'s defaults as one line.
//!
//! One encoder writes them all, through a [`Writer`] into a `String` or
//! straight into the hasher, so adding a spec field touches this file and
//! nowhere else: the encoder destructures the spec exhaustively, so a new
//! field fails to compile here until it is encoded or named as excluded.
//!
//! Two specs that run identically may share an encoding: an empty
//! `MessageAdversary::Rules` list encodes as `MessageAdversary::None` and
//! an empty `TopologySchedule::Epochs` list as `TopologySchedule::None`,
//! as `from_rules` / `from_epochs` normalize them.

use super::spec::{CrashPlan, Flavour, OracleChoice, ScenarioSpec};
use crate::json::{self, Json, Writer};
use fd_sim::{
    DelayModel, DelayRule, FailurePattern, Fnv1a64, LinkOverride, MessageAdversary, MessageRule,
    PSet, ProcessId, RuleAction, Time, TopologyEpoch, TopologySchedule, MAX_PROCESSES,
};
use std::fmt;

impl ScenarioSpec {
    /// The canonical encoding: compact JSON of every run-shaping field,
    /// keys sorted. Excluded by design: `seed` (a spec names a family of
    /// runs; the seed picks one).
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.encode(&mut Writer::new(&mut out));
        out
    }

    /// A stable 64-bit content digest of every run-shaping knob of this
    /// spec *except* the seed — the spec half of a
    /// [`ReportCache`](super::ReportCache) key (the seed is the other
    /// half, so one fingerprint covers a whole sweep).
    ///
    /// It is FNV-1a-64 of [`ScenarioSpec::canonical`], streamed into the
    /// hasher without building the text: a format, the same on every
    /// build, toolchain and platform.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a64::new();
        self.encode(&mut Writer::new(&mut h));
        h.finish()
    }

    /// The canonical encoding as a [`Json`] tree (what witness files
    /// embed).
    pub fn to_json(&self) -> Json {
        json::parse(&self.canonical()).expect("the canonical encoding is JSON")
    }

    /// One line naming `n`, `t` and every member of the canonical encoding
    /// that differs from [`ScenarioSpec::new`]`(n, t)`, as `key=value`
    /// with the value in compact JSON — for labels and witness
    /// descriptions.
    pub fn describe(&self) -> String {
        let (Json::Obj(ours), Json::Obj(defaults)) =
            (self.to_json(), ScenarioSpec::new(self.n, self.t).to_json())
        else {
            unreachable!("a spec encodes as an object");
        };
        let mut line = format!("n={} t={}", self.n, self.t);
        for (key, value) in &ours {
            if defaults.get(key) != Some(value) {
                line.push_str(&format!(" {key}={}", value.emit()));
            }
        }
        line
    }

    /// Parses a spec document (inverse of [`ScenarioSpec::to_json`]); the
    /// decoded spec fingerprints identically to the encoded one.
    ///
    /// The document is outside input, so every parameter is held to what
    /// the constructors it will reach assert — `SimConfig::new` (`2 ≤ n`,
    /// `t < n`), `PSet` (`n ≤ MAX_PROCESSES`), `SxOracle` (`1 ≤ x ≤ n`),
    /// `PhiOracle` (`y ≤ t`), `OmegaOracle` (`1 ≤ z ≤ n`),
    /// `CrashPlan::materialize` — and percentages to `0..=100`: an
    /// out-of-range value is an `Err` naming the field, where an `as` cast
    /// would have wrapped it (`"pct": 300` → 44) or the engine would have
    /// panicked mid-replay.
    pub fn from_json(doc: &Json) -> Result<ScenarioSpec, String> {
        let n = bounded_at(
            doc,
            "n",
            2..=MAX_PROCESSES as u64,
            "the engine's process range",
        )?;
        let t = bounded_at(
            doc,
            "t",
            0..=n as u64 - 1,
            "the resilience bound needs t < n",
        )?;
        let mut spec = ScenarioSpec::new(n, t);
        spec.x = bounded_at(doc, "x", 1..=n as u64, "the scope of S_x")?;
        spec.y = bounded_at(doc, "y", 0..=t as u64, "φ_y needs y ≤ t")?;
        spec.z = bounded_at(doc, "z", 1..=n as u64, "the leader sets of Ω_z")?;
        spec.k = bounded_at(doc, "k", 1..=n as u64, "k-set agreement")?;
        spec.oracle = oracle_from_tag(doc.str_at("oracle")?)?;
        spec.crashes = doc.decode_at("crashes", |c| crashes_from_json(c, n, t))?;
        spec.delay = doc.decode_at("delay", delay_from_json)?;
        spec.rules = doc.decode_each_at("delay_rules", delay_rule_from_json)?;
        spec.gst = Time(doc.u64_at("gst")?);
        spec.max_time = Time(doc.u64_at("max_time")?);
        spec.max_steps = doc.u64_at("max_steps")?;
        spec.adversary =
            MessageAdversary::from_rules(doc.decode_each_at("adversary", message_rule_from_json)?);
        spec.topology =
            TopologySchedule::from_epochs(doc.decode_each_at("topology", epoch_from_json)?);
        spec.catch_up = doc.bool_at("catch_up")?;
        Ok(spec)
    }

    /// The encoder behind every view: members in ascending key order.
    fn encode<W: fmt::Write>(&self, w: &mut Writer<'_, W>) {
        // Exhaustive destructure, no `..` rest pattern: adding a field to
        // `ScenarioSpec` must fail to compile here until the author
        // decides whether it shapes runs (encode it) or is deliberately
        // excluded like the seed — a silent omission would hand one
        // spec's cached reports to another.
        let ScenarioSpec {
            n,
            t,
            x,
            y,
            z,
            k,
            oracle,
            crashes,
            delay,
            rules,
            gst,
            seed: _, // the cache key's other half
            max_time,
            max_steps,
            adversary,
            topology,
            catch_up,
        } = self;
        let count = |w: &mut Writer<'_, W>, key, v: usize| {
            w.key(key);
            w.u64(v as u64);
        };
        w.begin_obj();
        w.key("adversary");
        w.begin_arr();
        for rule in adversary.rules() {
            w.item();
            message_rule(w, rule);
        }
        w.end_arr();
        w.key("catch_up");
        w.bool(*catch_up);
        w.key("crashes");
        crash_plan(w, crashes);
        w.key("delay");
        delay_model(w, delay);
        w.key("delay_rules");
        w.begin_arr();
        for rule in rules {
            w.item();
            delay_rule(w, rule);
        }
        w.end_arr();
        w.key("gst");
        w.u64(gst.0);
        count(w, "k", *k);
        w.key("max_steps");
        w.u64(*max_steps);
        w.key("max_time");
        w.u64(max_time.0);
        count(w, "n", *n);
        w.key("oracle");
        w.str(oracle_tag(*oracle));
        count(w, "t", *t);
        w.key("topology");
        w.begin_arr();
        for ep in topology.epochs() {
            w.item();
            epoch(w, ep);
        }
        w.end_arr();
        count(w, "x", *x);
        count(w, "y", *y);
        count(w, "z", *z);
        w.end_obj();
    }
}

// ---------------------------------------------------------------------------
// Encoders (members in ascending key order)
// ---------------------------------------------------------------------------

fn pset<W: fmt::Write>(w: &mut Writer<'_, W>, set: PSet) {
    // Only the full universe has every bit set.
    if set.len() == MAX_PROCESSES {
        w.str("all");
    } else {
        w.begin_arr();
        for p in set.iter() {
            w.item();
            w.u64(p.0 as u64);
        }
        w.end_arr();
    }
}

fn oracle_tag(oracle: OracleChoice) -> &'static str {
    match oracle {
        OracleChoice::None => "none",
        OracleChoice::Omega => "omega",
        OracleChoice::Sx(Flavour::Perpetual) => "sx:perpetual",
        OracleChoice::Sx(Flavour::Eventual) => "sx:eventual",
        OracleChoice::Phi(Flavour::Perpetual) => "phi:perpetual",
        OracleChoice::Phi(Flavour::Eventual) => "phi:eventual",
        OracleChoice::Psi => "psi",
        OracleChoice::SxPlusPhi(Flavour::Perpetual) => "sx_plus_phi:perpetual",
        OracleChoice::SxPlusPhi(Flavour::Eventual) => "sx_plus_phi:eventual",
        OracleChoice::Perfect(Flavour::Perpetual) => "perfect:perpetual",
        OracleChoice::Perfect(Flavour::Eventual) => "perfect:eventual",
    }
}

fn crash_plan<W: fmt::Write>(w: &mut Writer<'_, W>, crashes: &CrashPlan) {
    let kind = |w: &mut Writer<'_, W>, kind| {
        w.key("kind");
        w.str(kind);
    };
    w.begin_obj();
    match crashes {
        CrashPlan::None => kind(w, "none"),
        CrashPlan::Random { f, by } => {
            w.key("by");
            w.u64(by.0);
            w.key("f");
            w.u64(*f as u64);
            kind(w, "random");
        }
        CrashPlan::Initial { f } => {
            w.key("f");
            w.u64(*f as u64);
            kind(w, "initial");
        }
        CrashPlan::Anarchic { by } => {
            w.key("by");
            w.u64(by.0);
            kind(w, "anarchic");
        }
        CrashPlan::Churn {
            crash_by,
            rejoin_after,
        } => {
            w.key("crash_by");
            w.u64(crash_by.0);
            kind(w, "churn");
            w.key("rejoin_after");
            w.u64(*rejoin_after);
        }
        // By content: one crash tick (or `null`) and one start tick per
        // process.
        CrashPlan::Explicit(fp) => {
            let procs = || (0..fp.n()).map(ProcessId);
            w.key("crash_at");
            w.begin_arr();
            for p in procs() {
                w.item();
                match fp.crash_time(p) {
                    Some(at) => w.u64(at.0),
                    None => w.null(),
                }
            }
            w.end_arr();
            kind(w, "explicit");
            w.key("start_at");
            w.begin_arr();
            for p in procs() {
                w.item();
                w.u64(fp.start_time(p).0);
            }
            w.end_arr();
        }
    }
    w.end_obj();
}

fn delay_model<W: fmt::Write>(w: &mut Writer<'_, W>, delay: &DelayModel) {
    w.begin_obj();
    match *delay {
        DelayModel::Fixed(d) => {
            w.key("d");
            w.u64(d);
            w.key("kind");
            w.str("fixed");
        }
        DelayModel::Uniform { lo, hi } => {
            w.key("hi");
            w.u64(hi);
            w.key("kind");
            w.str("uniform");
            w.key("lo");
            w.u64(lo);
        }
        DelayModel::Spiky {
            lo,
            hi,
            spike_pct,
            factor,
        } => {
            w.key("factor");
            w.u64(factor);
            w.key("hi");
            w.u64(hi);
            w.key("kind");
            w.str("spiky");
            w.key("lo");
            w.u64(lo);
            w.key("spike_pct");
            w.u64(spike_pct as u64);
        }
    }
    w.end_obj();
}

fn delay_rule<W: fmt::Write>(w: &mut Writer<'_, W>, rule: &DelayRule) {
    w.begin_obj();
    w.key("active_from");
    w.u64(rule.active_from.0);
    w.key("active_to");
    w.u64(rule.active_to.0);
    w.key("deliver_not_before");
    w.u64(rule.deliver_not_before.0);
    w.key("from");
    pset(w, rule.from);
    w.key("to");
    pset(w, rule.to);
    w.end_obj();
}

fn message_rule<W: fmt::Write>(w: &mut Writer<'_, W>, rule: &MessageRule) {
    w.begin_obj();
    w.key("action");
    w.str(match rule.action {
        RuleAction::Drop => "drop",
        RuleAction::Duplicate => "duplicate",
        RuleAction::Corrupt { .. } => "corrupt",
    });
    w.key("active_from");
    w.u64(rule.active_from.0);
    w.key("active_to");
    w.u64(rule.active_to.0);
    if let RuleAction::Corrupt { bound } = rule.action {
        w.key("bound");
        w.u64(bound);
    }
    w.key("from");
    pset(w, rule.from);
    w.key("pct");
    w.u64(rule.pct as u64);
    w.key("to");
    pset(w, rule.to);
    w.end_obj();
}

fn epoch<W: fmt::Write>(w: &mut Writer<'_, W>, ep: &TopologyEpoch) {
    w.begin_obj();
    w.key("from");
    w.u64(ep.from.0);
    w.key("islands");
    w.begin_arr();
    for island in &ep.islands {
        w.item();
        pset(w, *island);
    }
    w.end_arr();
    w.key("overrides");
    w.begin_arr();
    for o in &ep.overrides {
        w.item();
        w.begin_obj();
        w.key("from");
        pset(w, o.from);
        w.key("latency");
        match o.latency {
            None => w.null(),
            Some((lo, hi)) => {
                w.begin_arr();
                w.item();
                w.u64(lo);
                w.item();
                w.u64(hi);
                w.end_arr();
            }
        }
        w.key("to");
        pset(w, o.to);
        w.end_obj();
    }
    w.end_arr();
    w.key("until");
    w.u64(ep.until.0);
    w.end_obj();
}

// ---------------------------------------------------------------------------
// Decoders
// ---------------------------------------------------------------------------

/// The member `key` as a count that must lie in `range`; `why` says who
/// requires it. Spec documents are outside input: a value the engine's
/// constructors would assert on fails the load here, by name.
fn bounded_at(
    doc: &Json,
    key: &str,
    range: std::ops::RangeInclusive<u64>,
    why: &str,
) -> Result<usize, String> {
    let v = doc.u64_at(key)?;
    if range.contains(&v) {
        // The callers' ranges end at `MAX_PROCESSES` or 100.
        Ok(v as usize)
    } else {
        let (lo, hi) = range.into_inner();
        Err(format!("`{key}` is {v}, outside {lo}..={hi} ({why})"))
    }
}

/// The member `key` as a percentage.
fn pct_at(doc: &Json, key: &str) -> Result<u8, String> {
    bounded_at(doc, key, 0..=100, "a percentage").map(|pct| pct as u8)
}

fn pset_from_json(doc: &Json) -> Result<PSet, String> {
    if doc.as_str() == Some("all") {
        return Ok(PSet::full(MAX_PROCESSES));
    }
    let ids = doc.as_arr().ok_or("not \"all\" or an id array")?;
    let mut set = PSet::new();
    for id in ids {
        match id.as_u64() {
            Some(id) if id < MAX_PROCESSES as u64 => set.insert(ProcessId(id as usize)),
            Some(id) => return Err(format!("id {id} out of range")),
            None => return Err("non-numeric id".into()),
        };
    }
    Ok(set)
}

fn oracle_from_tag(tag: &str) -> Result<OracleChoice, String> {
    Ok(match tag {
        "none" => OracleChoice::None,
        "omega" => OracleChoice::Omega,
        "sx:perpetual" => OracleChoice::Sx(Flavour::Perpetual),
        "sx:eventual" => OracleChoice::Sx(Flavour::Eventual),
        "phi:perpetual" => OracleChoice::Phi(Flavour::Perpetual),
        "phi:eventual" => OracleChoice::Phi(Flavour::Eventual),
        "psi" => OracleChoice::Psi,
        "sx_plus_phi:perpetual" => OracleChoice::SxPlusPhi(Flavour::Perpetual),
        "sx_plus_phi:eventual" => OracleChoice::SxPlusPhi(Flavour::Eventual),
        "perfect:perpetual" => OracleChoice::Perfect(Flavour::Perpetual),
        "perfect:eventual" => OracleChoice::Perfect(Flavour::Eventual),
        other => return Err(format!("unknown oracle {other:?}")),
    })
}

/// `t` bounds the crash count of the randomized plans and `n` the churn
/// plan, exactly as `CrashPlan::materialize` asserts; an explicit pattern
/// must cover the spec's `n` processes and crash at most `t` of them, as
/// `Sim::new` asserts.
fn crashes_from_json(doc: &Json, n: usize, t: usize) -> Result<CrashPlan, String> {
    let f_at = |key| bounded_at(doc, key, 0..=t as u64, "crashes exceed the bound t");
    Ok(match doc.str_at("kind")? {
        "none" => CrashPlan::None,
        "random" => CrashPlan::Random {
            f: f_at("f")?,
            by: Time(doc.u64_at("by")?),
        },
        "initial" => CrashPlan::Initial { f: f_at("f")? },
        "anarchic" => CrashPlan::Anarchic {
            by: Time(doc.u64_at("by")?),
        },
        "churn" if 2 * t > n => {
            return Err(format!(
                "`kind` is churn, which needs 2t ≤ n (t = {t}, n = {n})"
            ))
        }
        "churn" => CrashPlan::Churn {
            crash_by: Time(doc.u64_at("crash_by")?),
            rejoin_after: doc.u64_at("rejoin_after")?,
        },
        "explicit" => {
            // `u64::MAX` is `Time::INFINITY`, the end of the clock: a crash
            // there never happens, and a never-crashing process is `null`.
            let crash_at = doc.decode_each_at("crash_at", |at| match at {
                Json::Null => Ok(None),
                at => match at.as_u64() {
                    Some(u64::MAX) => Err("a crash at the end of the clock never happens".into()),
                    at => at.map(Some).ok_or("not a tick or null".into()),
                },
            })?;
            let start_at = doc.decode_each_at("start_at", |at| {
                at.as_u64().ok_or_else(|| "not a tick".to_string())
            })?;
            if crash_at.len() != n || start_at.len() != n {
                return Err(format!(
                    "an explicit pattern needs one `crash_at` and one `start_at` per \
                     process (n = {n}), got {} and {}",
                    crash_at.len(),
                    start_at.len()
                ));
            }
            let mut fp = FailurePattern::builder(n);
            for (p, (crash, start)) in crash_at.into_iter().zip(start_at).enumerate() {
                fp = fp.join(ProcessId(p), Time(start));
                if let Some(at) = crash {
                    fp = fp.crash(ProcessId(p), Time(at));
                }
            }
            let fp = fp.build();
            if fp.num_faulty() > t {
                return Err(format!(
                    "an explicit pattern crashes {} processes, past the bound t = {t}",
                    fp.num_faulty()
                ));
            }
            CrashPlan::Explicit(fp)
        }
        other => return Err(format!("unknown kind {other:?}")),
    })
}

fn delay_from_json(doc: &Json) -> Result<DelayModel, String> {
    Ok(match doc.str_at("kind")? {
        "fixed" => DelayModel::Fixed(doc.u64_at("d")?),
        "uniform" => DelayModel::Uniform {
            lo: doc.u64_at("lo")?,
            hi: doc.u64_at("hi")?,
        },
        "spiky" => DelayModel::Spiky {
            lo: doc.u64_at("lo")?,
            hi: doc.u64_at("hi")?,
            spike_pct: pct_at(doc, "spike_pct")?,
            factor: doc.u64_at("factor")?,
        },
        other => return Err(format!("unknown kind {other:?}")),
    })
}

fn delay_rule_from_json(doc: &Json) -> Result<DelayRule, String> {
    Ok(DelayRule {
        from: doc.decode_at("from", pset_from_json)?,
        to: doc.decode_at("to", pset_from_json)?,
        active_from: Time(doc.u64_at("active_from")?),
        active_to: Time(doc.u64_at("active_to")?),
        deliver_not_before: Time(doc.u64_at("deliver_not_before")?),
    })
}

fn message_rule_from_json(doc: &Json) -> Result<MessageRule, String> {
    let action = match doc.str_at("action")? {
        "drop" => RuleAction::Drop,
        "duplicate" => RuleAction::Duplicate,
        "corrupt" => RuleAction::Corrupt {
            bound: doc.u64_at("bound")?,
        },
        other => return Err(format!("unknown action {other:?}")),
    };
    Ok(MessageRule {
        action,
        pct: pct_at(doc, "pct")?,
        from: doc.decode_at("from", pset_from_json)?,
        to: doc.decode_at("to", pset_from_json)?,
        active_from: Time(doc.u64_at("active_from")?),
        active_to: Time(doc.u64_at("active_to")?),
    })
}

fn epoch_from_json(doc: &Json) -> Result<TopologyEpoch, String> {
    let mut ep = TopologyEpoch::new(Time(doc.u64_at("from")?), Time(doc.u64_at("until")?));
    ep.islands = doc.decode_each_at("islands", pset_from_json)?;
    ep.overrides = doc.decode_each_at("overrides", |o| {
        let latency = match o.at("latency")? {
            Json::Null => None,
            Json::Arr(pair) => match pair.as_slice() {
                [lo, hi] => Some((
                    lo.as_u64().ok_or("latency lo is not a u64")?,
                    hi.as_u64().ok_or("latency hi is not a u64")?,
                )),
                _ => return Err("`latency` is not a pair".into()),
            },
            _ => return Err("`latency` is not null or a pair".into()),
        };
        Ok(LinkOverride {
            from: o.decode_at("from", pset_from_json)?,
            to: o.decode_at("to", pset_from_json)?,
            latency,
        })
    })?;
    Ok(ep)
}
