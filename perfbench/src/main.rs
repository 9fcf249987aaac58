//! One workload run of the repository benchmark.
//!
//! `perfbench <discover|campaign|service> --seed N --seconds S
//! [--setup-only] [--trace-out PATH]` sets the workload up once (timed),
//! runs it for `S` seconds, checks its outputs, and prints one JSON object
//! of raw samples and per-layer counters on its last stdout line. With
//! `--setup-only` it stops after the set-up: set-up is timed cold, once
//! per process, as a user's process pays it, so `run.py` takes the fastest
//! of several processes. `run.py` aggregates the samples into the
//! benchmark's metrics; see `BENCHMARK.json`.
//!
//! The program is driven only through its public entry points
//! (`AchillesSession`, `sweep_report`, `Fleetd`, `install_audit`) and
//! read only through the stats those entry points return. With
//! `--trace-out`, tracing is on for the measured window and the Chrome
//! trace is written to PATH; the benchmark's own spans wrap each call
//! into the program, with the span category naming the layer called.

mod campaign;
mod discover;
mod out;
mod service;
mod stream;

use std::time::Instant;

use out::Output;

/// Worker threads per workload: the reference host has 2 cores, and one
/// workload runs per process.
pub const WORKERS: usize = 2;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    /// Time the set-up and stop.
    pub setup_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <discover|campaign|service> --seed N --seconds S \
         [--setup-only] [--trace-out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = argv.first().cloned() else {
        usage()
    };
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let parse = |flag: &str| value(flag).unwrap_or_else(|| usage());
    let args = Args {
        seed: parse("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: parse("--seconds").parse().unwrap_or_else(|_| usage()),
        setup_only: argv.iter().any(|a| a == "--setup-only"),
    };
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    let trace_out = value("--trace-out");

    let started = Instant::now();
    let tracing = trace_out.is_some();
    let output: Output = match workload.as_str() {
        "discover" => discover::run(&args, tracing),
        "campaign" => campaign::run(&args, tracing),
        "service" => service::run(&args, tracing),
        _ => usage(),
    };
    if let Some(path) = trace_out {
        achilles_obs::set_tracing(false);
        achilles_obs::write_chrome_trace(std::path::Path::new(&path))
            .unwrap_or_else(|e| panic!("write trace {path}: {e}"));
    }
    eprintln!(
        "perfbench {workload}: {:.1}s total",
        started.elapsed().as_secs_f64()
    );
    println!("{}", output.to_json(&workload));
}
