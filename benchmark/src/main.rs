//! `fd-benchmark`: see the crate docs of `fd_benchmark` and `README.md`.

use fd_benchmark::workloads::Workload;
use fd_benchmark::{expected, timed, traced};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: fd_benchmark::alloc::Counting = fd_benchmark::alloc::Counting;

const USAGE: &str = "usage: fd-benchmark --workload <grid_small|scale_n128|transforms_horizon|\
campaign_store> [--seed <u64>] [--seconds <n>] [--trace <0|1>]\n       fd-benchmark --record";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--record"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(args) = parse(args)? else {
        let path = expected::expected_path();
        expected::record(&path)?;
        println!("recorded {}", path.display());
        return Ok(());
    };
    let out_dir = expected::benchmark_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    println!(
        "fd-benchmark workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let (outcome, lines) = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &out_dir)?
    } else {
        let run = timed::run(args.workload, args.seed, args.seconds)?;
        let samples = out_dir.join(format!("{}.samples.csv", args.workload.name()));
        run.write_samples(&samples)
            .map_err(|e| format!("{}: {e}", samples.display()))?;
        run.outcome()
    };
    for line in lines {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fd-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
