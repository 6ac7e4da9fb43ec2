//! The benchmark's own spec generator for the `campaign_store` workload.
//!
//! It covers the surface `sweep search` fuzzes — the seven `(n, t, k)`
//! shapes, drop / duplicate / bounded-corrupt rules with windows and link
//! scopes, four delay models, every crash plan including churn with and
//! without catch-up, full-silence delay rules, two-island partitions with
//! heals — but shares no code with `fd_bench::search::generate`, and draws
//! from its own SplitMix ([`Mix`]), not `fd_sim::SplitMix64`: the program
//! under test only ever receives the finished [`ScenarioSpec`]s, so a
//! change to the program's generator or RNG cannot move the benchmark's
//! inputs.
//!
//! The sample is **stratified**: the *structure* of spec `i` (shape, crash
//! plan, delay model, which adversary rules, silence, partition) is a
//! fixed function of `i`, and `--seed` draws only the *numbers* (horizons,
//! percentages, windows, cuts). Every seed therefore measures the same
//! mix of armed / unarmed, churn / crash-stop and decide-early /
//! run-to-horizon work. The numbers still matter — a spec whose drop rule
//! starves its runs idles to the horizon on cheap step events, one whose
//! rule is mild decides early on expensive deliveries — so the campaign is
//! many specs of few seeds (192 × 4, `sweep search`'s seeds per spec) and
//! not few of many: at 48 × 16 two seeds' `events_per_s` differed by up to
//! 20 %, reproducibly.

use fd_detectors::scenario::{CrashPlan, ScenarioSpec};
use fd_sim::{
    DelayModel, DelayRule, MessageAdversary, MessageRule, PSet, ProcessId, Time, TopologySchedule,
};

/// Specs per campaign.
pub const CAMPAIGN_SPECS: usize = 192;

/// SplitMix64 (Steele, Lea & Flood), the benchmark's private copy.
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Mix(seed)
    }

    /// The next 64 bits.
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw() % n
    }
}

const SHAPES: [(usize, usize, usize); 7] = [
    (4, 1, 1),
    (5, 2, 1),
    (5, 2, 2),
    (6, 2, 2),
    (7, 3, 2),
    (8, 3, 1),
    (8, 3, 3),
];

/// The campaign for `seed`: [`CAMPAIGN_SPECS`] specs, a pure function of
/// the seed. Every spec is valid by construction (`t < n`, crash counts
/// within `t`, `2t ≤ n` for every shape so churn always has fresh ids).
pub fn campaign_specs(seed: u64) -> Vec<ScenarioSpec> {
    (0..CAMPAIGN_SPECS).map(|i| spec_at(seed, i)).collect()
}

fn spec_at(seed: u64, i: usize) -> ScenarioSpec {
    // One independent stream per spec, so the structure table below can be
    // reordered without re-rolling the other specs' numbers.
    let mut rng = Mix::new(seed ^ (i as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let (n, t, k) = SHAPES[i % SHAPES.len()];
    let max_time = 2_000 + rng.below(5) * 1_000;
    let gst = 100 + rng.below(4) * 100;
    let mut spec = ScenarioSpec::new(n, t)
        .kz(k)
        .gst(Time(gst))
        .max_time(Time(max_time));

    spec = spec.delay(match (i / 3) % 4 {
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

    let churn = CrashPlan::Churn {
        crash_by: Time(1 + rng.below(max_time / 2)),
        rejoin_after: 1 + rng.below(500),
    };
    spec = match i % 6 {
        0 => spec.crashes(CrashPlan::None),
        1 => spec.crashes(CrashPlan::Random {
            f: rng.below(t as u64 + 1) as usize,
            by: Time(1 + rng.below(max_time / 2)),
        }),
        2 => spec.crashes(CrashPlan::Initial {
            f: rng.below(t as u64 + 1) as usize,
        }),
        3 => spec.crashes(CrashPlan::Anarchic {
            by: Time(1 + rng.below(max_time)),
        }),
        4 => spec.crashes(churn).catch_up(true),
        _ => spec.crashes(churn),
    };

    // Which rules spec i carries; windows on every other rule and a link
    // scope on every third armed spec.
    let drop = |rng: &mut Mix| MessageRule::drop((5 + rng.below(61)) as u8);
    let dup = |rng: &mut Mix| MessageRule::duplicate((5 + rng.below(61)) as u8);
    let corrupt = |rng: &mut Mix| MessageRule::corrupt((5 + rng.below(46)) as u8, 1 + rng.below(8));
    let mut rules = match i % 8 {
        1 => vec![drop(&mut rng)],
        2 => vec![dup(&mut rng)],
        3 => vec![corrupt(&mut rng)],
        5 => vec![drop(&mut rng), dup(&mut rng)],
        6 => vec![corrupt(&mut rng), drop(&mut rng)],
        7 => vec![dup(&mut rng), corrupt(&mut rng)],
        _ => Vec::new(),
    };
    for (r, rule) in rules.iter_mut().enumerate() {
        if (i + r).is_multiple_of(2) {
            let a = rng.below(max_time);
            let b = a + 1 + rng.below(max_time - a);
            *rule = rule.clone().window(Time(a), Time(b));
        }
        if i.is_multiple_of(3) {
            let mut from = PSet::new();
            for p in 0..n {
                if rng.below(2) == 0 {
                    from.insert(ProcessId(p));
                }
            }
            if from.is_empty() {
                from = PSet::full(n);
            }
            *rule = rule.clone().links(from, PSet::full(n));
        }
    }
    spec = spec.adversary(MessageAdversary::from_rules(rules));

    if i % 4 == 1 {
        spec = spec.rule(DelayRule::silence_until(
            PSet::full(n),
            PSet::full(n),
            Time(1 + rng.below(gst)),
        ));
    }

    if i % 3 == 2 {
        let cut = 1 + rng.below(n as u64 - 1) as usize;
        let a: PSet = (0..cut).map(ProcessId).collect();
        let b: PSet = (cut..n).map(ProcessId).collect();
        let heal = Time(1 + rng.below(2 * max_time));
        spec = spec.topology(TopologySchedule::partition_until(vec![a, b], heal));
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_bench::describe_spec;

    fn described(seed: u64) -> Vec<String> {
        campaign_specs(seed).iter().map(describe_spec).collect()
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        assert_eq!(described(0), described(0));
        assert_eq!(described(7), described(7));
        assert_ne!(described(0), described(1));
        assert_eq!(described(0).len(), CAMPAIGN_SPECS);
    }

    #[test]
    fn structure_is_fixed_and_numbers_move_with_the_seed() {
        let (a, b) = (campaign_specs(3), campaign_specs(4));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.n, x.t, x.k), (y.n, y.t, y.k));
            assert_eq!(x.adversary.rules().len(), y.adversary.rules().len());
            assert_eq!(x.topology.is_none(), y.topology.is_none());
            assert_eq!(x.catch_up, y.catch_up);
            assert_eq!(
                std::mem::discriminant(&x.crashes),
                std::mem::discriminant(&y.crashes)
            );
        }
    }

    #[test]
    fn private_splitmix_matches_the_published_constants() {
        // First outputs of SplitMix64 seeded with 0 (reference vectors
        // from the public-domain C implementation).
        let mut m = Mix::new(0);
        assert_eq!(m.draw(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(m.draw(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn the_surface_is_covered() {
        let specs = campaign_specs(0);
        let count = |f: &dyn Fn(&ScenarioSpec) -> bool| specs.iter().filter(|s| f(s)).count();
        assert!(count(&|s| !s.adversary.is_none()) >= 24, "armed specs");
        assert!(count(&|s| matches!(s.crashes, CrashPlan::Churn { .. })) >= 12);
        assert!(count(&|s| s.catch_up) >= 6);
        assert!(count(&|s| !s.topology.is_none()) >= 12);
        assert!(count(&|s| !s.rules.is_empty()) >= 8);
        assert!(count(&|s| matches!(s.delay, DelayModel::Spiky { .. })) >= 8);
    }
}
