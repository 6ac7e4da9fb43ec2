//! The composed two-wheels transformation `◇S_x + ◇φ_y → Ω_z` —
//! **paper Figures 5 + 6, Theorems 6 & 7**.
//!
//! This is the paper's additivity result: given one failure detector of
//! class `◇S_x` and one of class `◇φ_y`, the two gear-wheels build a
//! failure detector of class `Ω_z` — and this is possible **iff**
//! `x + y + z ≥ t + 2` (Theorem 7; the benchmarks sweep the boundary).
//!
//! Special cases (handled by the same code, no special-casing needed):
//!
//! * `y = 0` (`◇φ_0` gives no information): `◇S_x → Ω_z` iff
//!   `x + z ≥ t + 2` (Corollary 6; the paper's §4.3 notes `query(Y_i)` is
//!   then constantly false, which is exactly what a `φ_0` oracle returns
//!   for `|Y| = t+1 > t`);
//! * `x = 1` (`◇S_1` gives no information): `◇φ_y → Ω_z` iff
//!   `y + z ≥ t + 1` (Corollary 5).

use crate::lower_wheel::{LowerMsg, LowerWheel};
use crate::upper_wheel::{UpperMsg, UpperWheel};
use fd_sim::{forward_ops, Automaton, Ctx, Op, OracleSuite, PSet, ProcessId};

/// Combined message alphabet of the two wheels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwMsg {
    /// A lower-wheel message.
    Lower(LowerMsg),
    /// An upper-wheel message.
    Upper(UpperMsg),
}

impl fd_sim::Corruptible for TwMsg {
    /// Wheel messages carry process ids, scopes, and sequence numbers —
    /// structured state whose mutation models an undecodable message, which
    /// the drop rule already covers. The alphabet is adversary-transparent.
    fn corrupt(&mut self, _bound: u64, _rng: &mut fd_sim::SplitMix64) -> bool {
        false
    }
}

/// Parameters of a two-wheels instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwParams {
    /// System size.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Scope of the `◇S_x` input.
    pub x: usize,
    /// Parameter of the `◇φ_y` input.
    pub y: usize,
    /// Target `Ω_z` size.
    pub z: usize,
}

impl TwParams {
    /// The optimal target: `z = t + 2 − x − y` (paper Figure 2).
    ///
    /// # Panics
    ///
    /// Panics if the parameters leave no valid `z ≥ 1`.
    pub fn optimal(n: usize, t: usize, x: usize, y: usize) -> Self {
        assert!(t + 2 > x + y, "x + y too large: no z >= 1 exists");
        let z = t + 2 - x - y;
        TwParams { n, t, x, y, z }
    }

    /// Whether the additivity bound `x + y + z ≥ t + 2` holds.
    pub fn feasible(&self) -> bool {
        self.x + self.y + self.z >= self.t + 2
    }
}

/// One process running both wheels (the full transformation).
///
/// The oracle bundle must provide `suspected` (the `◇S_x` input, consumed
/// by the lower wheel) and `query` (the `◇φ_y` input, consumed by the
/// upper wheel) — see [`fd_sim::SuspectPlusQuery`].
///
/// The built `Ω_z` output is the `slot::TRUSTED` history each process
/// publishes; `fd_detectors::check::omega_z` verifies it.
#[derive(Clone, Debug)]
pub struct TwoWheels {
    lower: LowerWheel,
    upper: UpperWheel,
    /// Recycled op buffers of the two inner alphabets (empty between
    /// activations; see [`Ctx::reborrow_inner`]).
    lower_ops: Vec<Op<LowerMsg>>,
    upper_ops: Vec<Op<UpperMsg>>,
    params: TwParams,
}

impl TwoWheels {
    /// Creates the process for `me`.
    ///
    /// # Panics
    ///
    /// Panics if the ring sizes are impossible (`z > t−y+1`, `x > n`, …).
    /// Note that *infeasible but well-formed* parameter combinations
    /// (violating only `x+y+z ≥ t+2`) are accepted — running them is how
    /// the lower-bound experiments exhibit failures.
    pub fn new(me: ProcessId, p: TwParams) -> Self {
        assert!(p.y <= p.t, "need y <= t");
        TwoWheels {
            lower: LowerWheel::new(me, p.n, p.x),
            upper: UpperWheel::new(me, p.n, p.t, p.y, p.z),
            lower_ops: Vec::new(),
            upper_ops: Vec::new(),
            params: p,
        }
    }

    /// Disables both wheels' broadcast throttles — the paper's literal
    /// re-broadcast-while-dissatisfied behaviour (ablation bench).
    pub fn unthrottled(mut self) -> Self {
        self.lower = self.lower.unthrottled();
        self.upper = self.upper.unthrottled();
        self
    }

    /// The parameters of this instance.
    pub fn params(&self) -> TwParams {
        self.params
    }

    /// The lower wheel (post-run inspection).
    pub fn lower(&self) -> &LowerWheel {
        &self.lower
    }

    /// The upper wheel (post-run inspection).
    pub fn upper(&self) -> &UpperWheel {
        &self.upper
    }

    /// The current built `trusted_i` (task T6 of Figure 6).
    pub fn trusted<M, O: OracleSuite + ?Sized>(&self, ctx: &mut Ctx<'_, M, O>) -> PSet {
        self.upper.trusted(ctx)
    }

    fn run_lower<O: OracleSuite + ?Sized>(
        &mut self,
        ctx: &mut Ctx<'_, TwMsg, O>,
        f: impl FnOnce(&mut LowerWheel, &mut Ctx<'_, LowerMsg, O>),
    ) {
        let lower = &mut self.lower;
        ctx.reborrow_inner(&mut self.lower_ops, |ictx| f(lower, ictx));
        forward_ops(ctx, &mut self.lower_ops, TwMsg::Lower);
        // Keep the upper wheel's view of repr_i current (task T5 input).
        self.upper.set_repr(self.lower.repr());
    }

    fn run_upper<O: OracleSuite + ?Sized>(
        &mut self,
        ctx: &mut Ctx<'_, TwMsg, O>,
        f: impl FnOnce(&mut UpperWheel, &mut Ctx<'_, UpperMsg, O>),
    ) {
        let upper = &mut self.upper;
        ctx.reborrow_inner(&mut self.upper_ops, |ictx| f(upper, ictx));
        forward_ops(ctx, &mut self.upper_ops, TwMsg::Upper);
    }
}

impl Automaton for TwoWheels {
    type Msg = TwMsg;

    fn on_start<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, TwMsg, O>) {
        self.run_lower(ctx, |w, ictx| w.on_start(ictx));
        self.run_upper(ctx, |w, ictx| w.on_start(ictx));
    }

    fn on_message<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: TwMsg,
        ctx: &mut Ctx<'_, TwMsg, O>,
    ) {
        match msg {
            TwMsg::Lower(m) => self.run_lower(ctx, |w, ictx| w.on_message(from, m, ictx)),
            TwMsg::Upper(m) => self.run_upper(ctx, |w, ictx| w.deliver(from, m, ictx)),
        }
    }

    fn on_rb_deliver<O: OracleSuite + ?Sized>(
        &mut self,
        from: ProcessId,
        msg: TwMsg,
        ctx: &mut Ctx<'_, TwMsg, O>,
    ) {
        // X_MOVE and L_MOVE arrive via reliable broadcast; the wheels'
        // handlers are shared with plain delivery.
        self.on_message(from, msg, ctx);
    }

    fn on_step<O: OracleSuite + ?Sized>(&mut self, ctx: &mut Ctx<'_, TwMsg, O>) {
        self.run_lower(ctx, |w, ictx| w.tick(ictx));
        self.run_upper(ctx, |w, ictx| w.tick(ictx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_messages_fit_a_cache_line() {
        // Every delivery moves its message several times (arena, op
        // buffers, the by-value handler argument); sets travel as the
        // masks the receiver keys on, not as fixed-width `PSet`s.
        assert!(std::mem::size_of::<TwMsg>() <= 64);
    }
}
