//! `carve-simbench`: end-to-end simulator throughput on three workloads,
//! with per-layer timings taken from outside each crate.
//!
//! ```text
//! carve-simbench --workload <paper-grid|scale-64|observed-grid>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! carve-simbench --write-expected <workload>
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path simbench/Cargo.toml -- <args>`.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--write-expected`
//! regenerates a workload's committed default-seed journal. See README.md
//! beside this file for what each workload and metric is for.

mod contract;
mod expected;
mod measured;
mod outcome;
mod replay;
mod run;
mod spans;
mod stats;
mod traced;
mod workload;

use std::process::{Command, ExitCode};

use carve_system::{EngineMode, NullTraceSink};

use crate::expected::Expected;
use crate::stats::result_json;
use crate::workload::{Workload, DEFAULT_SEED, NAMES};

/// Environment variables that would change what the simulator does or
/// prints behind the benchmark's back.
const FORBIDDEN_ENV: [&str; 6] = [
    "CARVE_STEP",
    "CARVE_SANITIZE",
    "CARVE_TELEMETRY_INTERVAL",
    "CARVE_TRACE_TAIL",
    "CARVE_TRACE_PROGRESS",
    "CARVE_TRACE_KERNELS",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
}

fn usage() -> String {
    format!(
        "usage: carve-simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         carve-simbench --write-expected <workload>",
        NAMES.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut write_expected = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--write-expected" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
                write_expected |= flag == "--write-expected";
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        write_expected,
    })
}

/// First line of a command's stdout, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then_some(())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// What a result is tied to: code, seed and host.
fn provenance(seed: u64) -> String {
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!("commit={commit} seed={seed} nproc={nproc} cpu={cpu:?} rustc={rustc:?}")
}

/// Simulates every point at the default seed, observers off, and writes
/// the workload's expected journal.
fn write_expected(w: Workload) -> Result<(), String> {
    let points = w.points(DEFAULT_SEED);
    let profiles = run::set_up(&points).map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for p in &points {
        let (r, _) = run::simulate(p, &profiles, EngineMode::EventSkip, &mut NullTraceSink);
        let r = r.map_err(|e| format!("{}: {e}", p.key()))?;
        expected::check(p, &r, None)?;
        results.push(r);
    }
    let path = expected::path(w.name());
    std::fs::write(&path, Expected::render(w.name(), &results))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} ({} points)", path.display(), results.len());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("carve-simbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(v) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("carve-simbench: refusing to run with {v} set; unset it first");
        return ExitCode::from(2);
    }
    if args.write_expected {
        return match write_expected(args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("carve-simbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    println!("provenance: {}", provenance(args.seed));
    let w = args.workload;
    let outcome = if args.trace {
        traced::traced(w, args.seed, args.seconds)
    } else {
        measured::measured(w, args.seed, args.seconds)
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("carve-simbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = contract::check(&out.metrics, args.trace) {
        out.errors.push(e);
    }
    for note in &out.notes {
        println!("{}: {note}", w.name());
    }
    for m in out.metrics.iter() {
        println!("{}: {} = {:?} {}", w.name(), m.name, m.value, m.unit);
    }
    for e in &out.errors {
        println!("{}: FAILED {e}", w.name());
    }
    println!(
        "{}",
        result_json(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
