//! The traced run (`--trace 1`): per-layer metrics, all taken from
//! outside the crates.
//!
//! 1. `runtime`: sharing-profile construction, timed per spec.
//! 2. Rounds over the points while another round still fits the run's
//!    seconds (at least one). In each round every point runs back to
//!    back untraced, traced by a [`HostStampSink`] (split into build,
//!    kernel, boundary and self spans), on the stepping engine, and
//!    through the observation path. Interleaving keeps host drift out of
//!    the ratios; each point's time per variant is its median over
//!    rounds. Every variant's journal line must equal the untraced one.
//! 3. Reference runs of Ideal, NUMA-GPU and CARVE-HWC for every spec that
//!    lacks them, for the model's performance-vs-ideal outputs.
//! 4. Component replays ([`crate::replay`]).

use std::time::Instant;

use carve_system::{
    profile_workload, try_run_observed, Design, EngineMode, NullTraceSink, SimError, SimResult,
    StallCat, NUM_STALL_CATS,
};
use sim_core::geomean;

use crate::expected::Expected;
use crate::outcome::Outcome;
use crate::replay::{replay, Load};
use crate::run::{check_observed, set_up, simulate, simulate_observed, Profiles};
use crate::spans::{split, HostStampSink, RunSpans};
use crate::stats::{fits_another, median};
use crate::workload::{pinned_config, Point, Workload, DEFAULT_SEED};

/// Repetitions of the profile-construction timing; the median is kept.
const PROFILE_REPS: usize = 3;

/// One point on the event-skip engine with host-stamped engine events.
fn simulate_traced(
    p: &Point,
    profiles: &Profiles,
) -> (Result<SimResult, SimError>, HostStampSink, f64) {
    let mut sink = HostStampSink::new();
    let r = try_run_observed(
        &p.spec,
        &p.sim,
        profiles.get(p.spec.name),
        EngineMode::EventSkip,
        &mut sink,
    );
    let run = sink.now();
    (r, sink, run)
}

/// Sums `f` over results, as `f64`.
fn sum(results: &[&SimResult], f: impl Fn(&SimResult) -> u64) -> f64 {
    results.iter().map(|r| f(r)).sum::<u64>() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// Host seconds of one variant, per point, per round.
type PerPoint = Vec<Vec<f64>>;

/// Sum over points of each point's median over rounds.
fn sum_of_medians(t: &PerPoint) -> f64 {
    t.iter().filter_map(|v| median(v)).sum()
}

pub fn traced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let points = w.points(seed);
    let expected = match seed {
        DEFAULT_SEED => Some(Expected::load(w.name())?),
        _ => None,
    };
    let mut out = Outcome::default();
    let profiles = set_up(&points).map_err(|e| format!("set-up failed: {e}"))?;
    let cfg = w.machine();
    let specs = w.specs(seed);

    // 1. runtime: one sharing profile per spec.
    let mut profile_s = Vec::new();
    for _ in 0..PROFILE_REPS {
        let t = Instant::now();
        for spec in &specs {
            std::hint::black_box(profile_workload(spec, &cfg, cfg.num_gpus));
        }
        profile_s.push(t.elapsed().as_secs_f64());
    }

    // 2. interleaved rounds.
    let n = points.len();
    let mut untraced: PerPoint = vec![Vec::new(); n];
    let (mut traced, mut step, mut observed) =
        (untraced.clone(), untraced.clone(), untraced.clone());
    let mut spans: Vec<Vec<RunSpans>> = vec![Vec::new(); n];
    let mut base: Vec<Option<SimResult>> = vec![None; n];
    let mut stalls = [0u64; NUM_STALL_CATS];
    let started = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || fits_another(started.elapsed().as_secs_f64(), rounds, seconds) {
        for (i, p) in points.iter().enumerate() {
            let (res, secs) = simulate(p, &profiles, EngineMode::EventSkip, &mut NullTraceSink);
            let exp = if rounds == 0 { expected.as_ref() } else { None };
            let Some(r) = out.record(p, res, exp) else {
                continue;
            };
            let line = r.encode_journal_line();
            if let Some(b) = &base[i] {
                if b.encode_journal_line() != line {
                    out.mismatch(format!("{}: round {rounds} differs from round 0", p.key()));
                }
            }
            untraced[i].push(secs);
            base[i].get_or_insert(r);

            let (res, sink, secs) = simulate_traced(p, &profiles);
            if let Some(r) = out.record(p, res, None) {
                traced[i].push(secs);
                if r.encode_journal_line() != line {
                    out.mismatch(format!("{}: traced line differs from untraced", p.key()));
                }
                match split(&sink.stamps, secs, p.spec.shape.kernels) {
                    Some(s) => spans[i].push(s),
                    None => out.mismatch(format!("{}: kernel spans incomplete", p.key())),
                }
            }
            let (res, secs) = simulate(p, &profiles, EngineMode::Step, &mut NullTraceSink);
            if let Some(r) = out.record(p, res, None) {
                step[i].push(secs);
                if r.encode_journal_line() != line {
                    out.mismatch(format!("{}: Step line differs from EventSkip", p.key()));
                }
            }
            let (res, secs) = simulate_observed(p, &profiles);
            if let Some(r) = out.record(p, res, None) {
                observed[i].push(secs);
                if r.encode_journal_line() != line {
                    out.mismatch(format!(
                        "{}: observed line differs from observer-off",
                        p.key()
                    ));
                }
                match check_observed(p, &r) {
                    Ok(()) if rounds == 0 => {
                        let totals = r.profile.as_ref().expect("checked").totals();
                        for (t, v) in stalls.iter_mut().zip(totals) {
                            *t += v;
                        }
                    }
                    Ok(()) => {}
                    Err(e) => out.mismatch(e),
                }
            }
        }
        rounds += 1;
    }

    // 3. references for the model outputs.
    let ok: Vec<&SimResult> = base.iter().flatten().collect();
    let refs: Vec<Point> = specs
        .iter()
        .flat_map(|spec| {
            [Design::Ideal, Design::NumaGpu, Design::CarveHwc]
                .into_iter()
                .filter(|&d| !ok.iter().any(|r| r.workload == spec.name && r.design == d))
                .map(|d| Point {
                    spec: spec.clone(),
                    sim: pinned_config(d, cfg.clone()),
                })
        })
        .collect();
    let ref_profiles = set_up(&refs).map_err(|e| format!("reference set-up failed: {e}"))?;
    let mut model: Vec<SimResult> = ok.iter().map(|r| (*r).clone()).collect();
    for p in &refs {
        let (res, _) = simulate(p, &ref_profiles, EngineMode::EventSkip, &mut NullTraceSink);
        model.extend(out.record(p, res, None));
    }
    let vs_ideal = |design: Design| {
        geomean(model.iter().filter(|r| r.design == design).filter_map(|r| {
            let ideal = model
                .iter()
                .find(|i| i.workload == r.workload && i.design == Design::Ideal)?;
            r.try_performance_vs(ideal)
        }))
    };

    // Per-layer metrics. Span sums take each point's median over rounds.
    let span_sum = |f: &dyn Fn(&RunSpans) -> f64| -> f64 {
        spans
            .iter()
            .filter_map(|s| median(&s.iter().map(f).collect::<Vec<_>>()))
            .sum()
    };
    let run_s = span_sum(&|s| s.run);
    let kernels: Vec<f64> = spans
        .iter()
        .flatten()
        .flat_map(|s| s.kernels.clone())
        .collect();
    let boundaries: Vec<f64> = spans
        .iter()
        .flatten()
        .flat_map(|s| s.boundaries.clone())
        .collect();
    let gpu_cycles = sum(&ok, |r| r.cycles) * cfg.num_gpus as f64;
    let untraced_s = sum_of_medians(&untraced);
    let m = &mut out.metrics;
    m.push("system.run_s", run_s, "s");
    m.push("system.build_s", span_sum(&|s| s.build), "s");
    m.push(
        "system.kernel_s",
        span_sum(&|s| s.kernels.iter().sum()),
        "s",
    );
    m.push(
        "system.boundary_s",
        span_sum(&|s| s.boundaries.iter().sum()),
        "s",
    );
    m.push("system.self_s", span_sum(&RunSpans::self_time), "s");
    m.push(
        "system.kernel_ms_p50",
        median(&kernels).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    m.push(
        "system.boundary_ms",
        median(&boundaries).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    m.push(
        "system.ns_per_gpu_cycle",
        ratio(run_s * 1e9, gpu_cycles),
        "ns",
    );
    m.push(
        "system.skip_vs_step",
        ratio(sum_of_medians(&step), untraced_s),
        "ratio",
    );
    m.push(
        "system.observer_overhead",
        ratio(sum_of_medians(&observed), untraced_s),
        "ratio",
    );
    m.push(
        "system.tracing_overhead",
        ratio(sum_of_medians(&traced), untraced_s),
        "ratio",
    );
    m.push(
        "runtime.profile_s",
        median(&profile_s).unwrap_or(f64::NAN),
        "s",
    );
    let hits = |h: f64, miss: f64| ratio(h, h + miss);
    m.push(
        "cache.l1_hit_rate",
        hits(sum(&ok, |r| r.l1_hits), sum(&ok, |r| r.l1_misses)),
        "share",
    );
    m.push(
        "cache.l2_hit_rate",
        hits(sum(&ok, |r| r.l2_hits), sum(&ok, |r| r.l2_misses)),
        "share",
    );
    m.push(
        "dram.row_hit_rate",
        hits(
            sum(&ok, |r| r.dram.row_hits),
            sum(&ok, |r| r.dram.row_misses),
        ),
        "share",
    );
    m.push("noc.link_bytes", sum(&ok, |r| r.link_bytes), "B");
    m.push(
        "noc.remote_fraction",
        hits(
            sum(&ok, |r| r.remote_serviced),
            sum(&ok, |r| r.local_serviced),
        ),
        "share",
    );
    let carve: Vec<&SimResult> = ok
        .iter()
        .copied()
        .filter(|r| r.design == Design::CarveHwc)
        .collect();
    m.push(
        "carve.rdc_hit_rate",
        hits(sum(&carve, |r| r.rdc.hits), sum(&carve, |r| r.rdc.misses)),
        "share",
    );
    m.push("carve.broadcasts", sum(&carve, |r| r.broadcasts), "count");
    m.push("model.sim_cycles", sum(&ok, |r| r.cycles), "cycles");
    m.push(
        "model.carve_hwc_vs_ideal",
        vs_ideal(Design::CarveHwc),
        "ratio",
    );
    m.push("model.numa_vs_ideal", vs_ideal(Design::NumaGpu), "ratio");
    let all: u64 = stalls.iter().sum();
    for cat in StallCat::ALL {
        m.push(
            format!("profile.{}_share", cat.label()),
            ratio(stalls[cat.index()] as f64, all as f64),
            "share",
        );
    }

    // 6. component replays, paced to this workload's simulated load.
    let load = Load {
        dram_per_gpu_cycle: ratio(sum(&ok, |r| r.dram.reads + r.dram.writes), gpu_cycles),
        link_bytes_per_cycle: ratio(sum(&ok, |r| r.link_bytes), sum(&ok, |r| r.cycles)),
    };
    replay(&specs, &cfg, load, m);

    out.notes.push(format!(
        "{rounds} rounds over {n} points ({} kernel and {} boundary spans); {} reference runs",
        kernels.len(),
        boundaries.len(),
        refs.len()
    ));
    Ok(out)
}
