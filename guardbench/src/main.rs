//! The guarded-decision benchmark. See README.md in this directory.
//!
//! ```sh
//! cargo run --release --offline --manifest-path guardbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process on an `osa-runtime` pool of
//! width 1. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics of the traced run; either way the last line of
//! standard output is one JSON object. The exit code is 0 when every
//! output check passed, 1 when one failed, 2 on a usage error.

mod fleet;
mod outcome;
mod report;
mod scalar;
mod setup;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use osa_bench::counting_alloc::CountingAlloc;
use osa_core::ServePrecision;

use fleet::{FleetSpec, Guard};
use report::Report;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The workloads of `BENCHMARK.json`, in the order `--workload all`
/// runs them.
const WORKLOADS: [&str; 2] = ["fleet_us_transient", "scalar_guarded_eval"];

/// Workloads that run on request only. They are left out of
/// `BENCHMARK.json` so the two above get runs long enough to be steady
/// within its time limit (see README.md).
const EXTRA_WORKLOADS: [&str; 2] = ["fleet_uv_steady", "fleet_uv_steady_int8"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = WORKLOADS.iter().chain(&EXTRA_WORKLOADS);
    if args.workload != "all" && !known.clone().any(|w| *w == args.workload) {
        let names: Vec<&str> = known.copied().collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(args)
}

fn fleet_spec(workload: &str) -> Option<FleetSpec> {
    let (guard, precision) = match workload {
        "fleet_uv_steady" => (Guard::ValueSteady, ServePrecision::F32),
        "fleet_uv_steady_int8" => (Guard::ValueSteady, ServePrecision::Int8),
        "fleet_us_transient" => (Guard::NoveltyTransient, ServePrecision::F32),
        _ => return None,
    };
    Some(FleetSpec { guard, precision })
}

/// Where the traced run writes its spans.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.tsv"))
}

fn run_one(args: &Args) -> Report {
    let w = args.workload.as_str();
    // Width 1: the pool runs inline, so every phase of a round blocks
    // every session's decision and the timings carry no lane noise.
    let pool = osa_runtime::ThreadPool::new(1);
    osa_runtime::with_pool(&pool, || match (fleet_spec(w), args.trace) {
        (Some(spec), false) => fleet::run(&spec, args.seed, args.seconds),
        (Some(spec), true) => {
            fleet::run_traced(&spec, args.seed, args.seconds, &spans_path(w, args.seed))
        }
        (None, false) => scalar::run(args.seed, args.seconds),
        (None, true) => scalar::run_traced(args.seed, args.seconds, &spans_path(w, args.seed)),
    })
}

/// `--workload all`: each workload in its own process, so set-up time
/// and peak resident set stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("guardbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = run_one(&args);
    report.print(&args.workload);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
