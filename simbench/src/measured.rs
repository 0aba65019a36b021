//! The measured run (`--trace 0`): end-to-end metrics only, nothing
//! traced.
//!
//! Closed loop, one caller, one simulation thread: set-up is repeated and
//! its median reported; then passes over the workload's points run back
//! to back while another pass still fits the run's seconds (at least
//! one pass).
//!
//! Throughput takes each point's fastest pass. On a shared host the same
//! point's time swings by a fifth from second to second with other
//! tenants' load; the fastest of several passes is what the code itself
//! costs, and repeats from run to run far better than a median does.

use std::time::{Duration, Instant};

use carve_system::{EngineMode, NullTraceSink};

use crate::expected::Expected;
use crate::outcome::Outcome;
use crate::run::{check_observed, peak_rss_mib, set_up, simulate, simulate_observed};
use crate::stats::{fits_another, median, percentile};
use crate::workload::{Workload, DEFAULT_SEED};

/// Set-up repetitions: at least this many...
const SETUP_MIN_REPS: usize = 5;
/// ...until this much time is spent...
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// ...and never more than this many.
const SETUP_MAX_REPS: usize = 200;

pub fn measured(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let points = w.points(seed);
    let expected = match seed {
        DEFAULT_SEED => Some(Expected::load(w.name())?),
        _ => None,
    };
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let began = Instant::now();
    let profiles = loop {
        let t = Instant::now();
        let profiles = set_up(&points).map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let n = setup_s.len();
        if n >= SETUP_MAX_REPS || (n >= SETUP_MIN_REPS && began.elapsed() >= SETUP_BUDGET) {
            break profiles;
        }
    };

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut lines: Vec<Option<String>> = vec![None; points.len()];
    let mut work = vec![(0u64, 0u64); points.len()];
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || fits_another(started.elapsed().as_secs_f64(), passes, seconds) {
        for (i, p) in points.iter().enumerate() {
            let (res, secs) = if w.observed() {
                simulate_observed(p, &profiles)
            } else {
                simulate(p, &profiles, EngineMode::EventSkip, &mut NullTraceSink)
            };
            let exp = if passes == 0 { expected.as_ref() } else { None };
            let Some(r) = out.record(p, res, exp) else {
                continue;
            };
            if w.observed() {
                if let Err(e) = check_observed(p, &r) {
                    out.mismatch(e);
                    continue;
                }
            }
            let line = r.encode_journal_line();
            match &lines[i] {
                Some(first) if *first != line => {
                    out.mismatch(format!("{}: pass {passes} differs from pass 0", p.key()));
                    continue;
                }
                Some(_) => {}
                None => lines[i] = Some(line),
            }
            times[i].push(secs);
            work[i] = (r.instructions, r.cycles);
        }
        passes += 1;
    }

    if w.observed() {
        // Observers must not move results: each point's observer-off line
        // equals its observed line. Untimed.
        for (i, p) in points.iter().enumerate() {
            let (res, _) = simulate(p, &profiles, EngineMode::EventSkip, &mut NullTraceSink);
            if let Some(r) = out.record(p, res, None) {
                if lines[i].as_deref() != Some(r.encode_journal_line().as_str()) {
                    out.mismatch(format!(
                        "{}: observed line differs from observer-off",
                        p.key()
                    ));
                }
            }
        }
    }

    let mut host_s = 0.0;
    let (mut instrs, mut cycles) = (0u64, 0u64);
    for (t, (i, c)) in times.iter().zip(&work) {
        if let Some(m) = t.iter().copied().reduce(f64::min) {
            host_s += m;
            instrs += i;
            cycles += c;
        }
    }
    let samples: Vec<f64> = times.iter().flatten().copied().collect();
    let p50 = percentile(&samples, 0.5);
    if p50.is_none() {
        out.errors.push(format!(
            "{} point samples are too few for a median with ten beyond it",
            samples.len()
        ));
    }
    out.notes.push(format!(
        "{} points x {passes} passes = {} samples in {:.2} s; set-up repeated {} times",
        points.len(),
        samples.len(),
        started.elapsed().as_secs_f64(),
        setup_s.len()
    ));
    match percentile(&samples, 0.9) {
        Some(p90) => out.notes.push(format!(
            "point_p90_s = {p90:?} s over {} samples",
            samples.len()
        )),
        None => out.notes.push(format!(
            "point_p90_s not reported: {} samples leave fewer than ten beyond it",
            samples.len()
        )),
    }

    let m = &mut out.metrics;
    m.push("sim_minstr_per_s", instrs as f64 / host_s / 1e6, "Minstr/s");
    m.push("sim_mcyc_per_s", cycles as f64 / host_s / 1e6, "Mcyc/s");
    m.push("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
    m.push("point_p50_s", p50.unwrap_or(f64::NAN), "s");
    m.push("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB");
    Ok(out)
}
