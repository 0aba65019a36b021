//! Calls into `carve-system` and `carve-runtime`: set-up (sharing profiles
//! and config validation), one simulation, and the checks that apply to
//! the observation path.

use std::collections::BTreeMap;
use std::time::Instant;

use carve_system::{
    profile_workload, try_run_observed, EngineMode, JsonTraceSink, SharingProfile, SimError,
    SimResult, TraceSink,
};

use crate::workload::{needs_profile, observed_config, validate_all, Point};

/// Sharing profiles of a point set, keyed by workload name.
pub type Profiles = BTreeMap<&'static str, SharingProfile>;

/// The set-up every point set pays before its first simulation: one
/// sharing profile per spec that a profiled design runs, and validation
/// of every configuration.
pub fn set_up(points: &[Point]) -> Result<Profiles, SimError> {
    let mut profiles = Profiles::new();
    for p in points {
        if needs_profile(p.sim.design) && !profiles.contains_key(p.spec.name) {
            let n = p.sim.design.num_gpus(&p.sim.cfg);
            profiles.insert(p.spec.name, profile_workload(&p.spec, &p.sim.cfg, n));
        }
    }
    validate_all(points)?;
    Ok(profiles)
}

/// One timed simulation: host seconds from the call to its return.
pub fn simulate(
    p: &Point,
    profiles: &Profiles,
    mode: EngineMode,
    sink: &mut dyn TraceSink,
) -> (Result<SimResult, SimError>, f64) {
    let started = Instant::now();
    let r = try_run_observed(&p.spec, &p.sim, profiles.get(p.spec.name), mode, sink);
    (r, started.elapsed().as_secs_f64())
}

/// One timed simulation through the observation path: cycle profiler,
/// interval telemetry and a JSON trace sink whose Chrome trace is
/// rendered before the clock stops.
pub fn simulate_observed(p: &Point, profiles: &Profiles) -> (Result<SimResult, SimError>, f64) {
    let obs = Point {
        spec: p.spec.clone(),
        sim: observed_config(&p.sim),
    };
    let started = Instant::now();
    let mut sink = JsonTraceSink::new();
    let r = try_run_observed(
        &obs.spec,
        &obs.sim,
        profiles.get(p.spec.name),
        EngineMode::EventSkip,
        &mut sink,
    );
    let mut rendered = Vec::new();
    sink.write_chrome_json(&mut rendered)
        .expect("writing to memory cannot fail");
    std::hint::black_box(rendered);
    (r, started.elapsed().as_secs_f64())
}

/// The observation path's own invariants: a cycle profile and a timeline
/// are present, and per GPU the stall categories sum to cycles × SMs.
pub fn check_observed(p: &Point, r: &SimResult) -> Result<(), String> {
    let key = p.key();
    let prof = r
        .profile
        .as_ref()
        .ok_or_else(|| format!("{key}: observed run has no cycle profile"))?;
    if r.timeline.is_none() {
        return Err(format!("{key}: observed run has no timeline"));
    }
    let want = r.cycles * prof.sms_per_gpu as u64;
    for (g, cats) in prof.gpus.iter().enumerate() {
        let got: u64 = cats.iter().sum();
        if got != want {
            return Err(format!(
                "{key}: GPU {g} stall categories sum to {got}, not cycles × SMs = {want}"
            ));
        }
    }
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
