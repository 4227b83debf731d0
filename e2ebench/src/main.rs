//! Paper-scale benchmark for LogiRec: training and evaluation, open-loop
//! serving, and signups beside reads, at ciao-paper scale (5,180 users,
//! 8,836 items, d=32, f64).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload train-ciao|serve-ciao|signup-ciao --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with `--trace 1`
//! it replays the workload's calls into each layer under spans and reports
//! per-layer metrics instead. Human-readable progress goes to stdout; the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed correctness check exits with code 1.

mod loadgen;
mod serve;
mod trace;
mod train;
mod util;

use std::process::ExitCode;

use util::{Config, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} needs a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// The workloads, in the order a traced run replays the others.
const WORKLOADS: [&str; 3] = ["train-ciao", "serve-ciao", "signup-ciao"];

fn run_workload(
    cfg: &Config,
    name: &str,
    seed: u64,
    s: f64,
    traced: bool,
) -> Result<Outcome, String> {
    match name {
        "train-ciao" => train::run(cfg, seed, s, traced),
        "serve-ciao" => serve::run_serve(cfg, seed, s, traced),
        "signup-ciao" => serve::run_signup(cfg, seed, s, traced),
        other => Err(format!(
            "unknown workload {other:?} (train-ciao, serve-ciao, signup-ciao)"
        )),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = Config::load()?;
    let (seed, s, traced) = (args.seed, args.seconds, args.trace);
    println!(
        "workload {} (seed {seed}, {s}s, trace {})",
        args.workload,
        u8::from(traced)
    );
    let mut out = run_workload(&cfg, &args.workload, seed, s, traced)?;
    if traced {
        // Every traced run reports every layer: after the named workload's
        // replay, the other workloads' layers are replayed on a short
        // schedule. Where two replays report the same metric, the named
        // workload's figure is kept.
        let side_s = cfg.f64("trace_side_seconds")?;
        for other in WORKLOADS.into_iter().filter(|w| *w != args.workload) {
            println!("side replay of {other} (seed {seed}, {side_s}s)");
            out.absorb(run_workload(&cfg, other, seed, side_s, true)?);
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            let ok = out.correct();
            println!(
                "  diagnostic failed_ratio = {} ratio ({} failed of {} attempted)",
                out.failed as f64 / out.attempted.max(1) as f64,
                out.failed,
                out.attempted
            );
            println!("{}", out.to_json());
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
