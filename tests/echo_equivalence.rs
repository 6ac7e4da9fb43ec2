//! The reliable-broadcast abstraction is *built*, not assumed: this test
//! runs the same agreement algorithm under (a) the engine's axiomatic
//! reliable broadcast and (b) the constructive echo-relay implementation
//! (`fd_sim::EchoRb`), and checks that both satisfy the full k-set
//! agreement specification across seeds and crash patterns.

use fd_grid::fd_core::kset_omega::KsetOmega;
use fd_grid::fd_core::spec;
use fd_grid::fd_detectors::OmegaOracle;
use fd_grid::fd_sim::{EchoRb, FailurePattern, Sim, SimConfig, Time};
use fd_grid::ProcessId;

fn fp(n: usize, seed: u64) -> FailurePattern {
    match seed % 3 {
        0 => FailurePattern::all_correct(n),
        1 => FailurePattern::builder(n)
            .crash(ProcessId(0), Time(50))
            .build(),
        _ => FailurePattern::builder(n)
            .crash(ProcessId(2), Time(150))
            .crash(ProcessId(4), Time(400))
            .build(),
    }
}

#[test]
fn axiomatic_rb_satisfies_spec() {
    for seed in 0..6 {
        let n = 5;
        let fp = fp(n, seed);
        let oracle = OmegaOracle::new(fp.clone(), 1, Time(300), seed);
        let cfg = SimConfig::new(n, 2).seed(seed).max_time(Time(80_000));
        let sim = Sim::new(cfg, fp.clone(), |p| KsetOmega::new(p.0 as u64), oracle);
        let correct = fp.correct();
        let trace = sim.run_into_trace(move |tr| tr.deciders().is_superset(correct));
        let proposals: Vec<u64> = (0..n as u64).collect();
        let out = spec::kset_spec(&trace, &fp, 1, &proposals);
        assert!(out.ok, "seed {seed}: {out}");
    }
}

#[test]
fn echo_rb_satisfies_same_spec() {
    for seed in 0..6 {
        let n = 5;
        let fp = fp(n, seed);
        let oracle = OmegaOracle::new(fp.clone(), 1, Time(300), seed);
        let cfg = SimConfig::new(n, 2).seed(seed).max_time(Time(80_000));
        let sim = Sim::new(
            cfg,
            fp.clone(),
            |p| EchoRb::new(KsetOmega::new(p.0 as u64)),
            oracle,
        );
        let correct = fp.correct();
        let trace = sim.run_into_trace(move |tr| tr.deciders().is_superset(correct));
        let proposals: Vec<u64> = (0..n as u64).collect();
        let out = spec::kset_spec(&trace, &fp, 1, &proposals);
        assert!(out.ok, "seed {seed} (echo): {out}");
    }
}

#[test]
fn echo_rb_works_for_two_set_agreement() {
    for seed in 0..4 {
        let n = 6;
        let fp = FailurePattern::builder(n)
            .crash(ProcessId(1), Time(100))
            .build();
        let oracle = OmegaOracle::new(fp.clone(), 2, Time(300), seed);
        let cfg = SimConfig::new(n, 2).seed(seed).max_time(Time(80_000));
        let sim = Sim::new(
            cfg,
            fp.clone(),
            |p| EchoRb::new(KsetOmega::new(p.0 as u64)),
            oracle,
        );
        let correct = fp.correct();
        let trace = sim.run_into_trace(move |tr| tr.deciders().is_superset(correct));
        let proposals: Vec<u64> = (0..n as u64).collect();
        let out = spec::kset_spec(&trace, &fp, 2, &proposals);
        assert!(out.ok, "seed {seed}: {out}");
    }
}
