//! Step == EventSkip at scale, and the engine's deterministic work
//! counters.
//!
//! The golden fixtures pin both engines on the 4-GPU all-to-all machine
//! only. The wake calendar earns most of its skips on large machines and
//! routed fabrics, so these tests replay quick specs on 16- and 64-GPU
//! topologies (plus one faulted run) under the event-skip engine and the
//! stepping oracle, and require byte-identical journal lines. Every run
//! carries the cycle profiler and interval telemetry, and their output
//! must match byte for byte as well: the profiler reclassifies only the
//! GPUs a tick changed, while stepping marks every GPU changed on every
//! tick, so the stepping run is the full-reclassification oracle.

use carve_system::{
    try_run_with_profile_mode, workloads, Design, EngineMode, FaultPlan, ScaledConfig, SimConfig,
    SimResult, TopologySpec,
};
use carve_trace::WorkloadSpec;

/// A narrow machine (2 SMs of 8 warps per GPU) so step-by-1 runs of 64
/// GPUs stay fast in debug builds.
fn narrow_cfg(gpus: usize, topology: TopologySpec) -> ScaledConfig {
    ScaledConfig {
        sms_per_gpu: 2,
        warps_per_sm: 8,
        num_gpus: gpus,
        topology,
        ..ScaledConfig::default()
    }
}

/// A short spec with `ctas` CTAs, so every GPU of the machine gets work.
fn quick_spec(name: &str, ctas: usize) -> WorkloadSpec {
    let mut spec = workloads::by_name(name).expect("known workload");
    spec.shape.kernels = spec.shape.kernels.min(2);
    spec.shape.ctas = ctas;
    spec.shape.instrs_per_warp = spec.shape.instrs_per_warp.min(24);
    spec
}

fn sim_of(design: Design, cfg: ScaledConfig) -> SimConfig {
    let mut sim = SimConfig::with_cfg(design, cfg);
    sim.telemetry_interval = Some(0);
    sim.sanitize = Some(true);
    sim
}

fn run(spec: &WorkloadSpec, sim: &SimConfig, mode: EngineMode) -> SimResult {
    try_run_with_profile_mode(spec, sim, None, mode).unwrap_or_else(|e| {
        panic!(
            "{} on {} under {mode:?}: {e}",
            spec.name,
            sim.design.label()
        )
    })
}

/// Interval of the telemetry and stacked-stall rows: short, so the runs
/// cross many boundaries.
const OBSERVE_INTERVAL: u64 = 500;

/// Runs both engines with the profiler and telemetry on and requires
/// identical journal, profile, stall-row and timeline bytes.
fn assert_engines_agree(spec: &WorkloadSpec, sim: &SimConfig) -> (SimResult, SimResult) {
    let mut sim = sim.clone();
    sim.cycle_profile = true;
    sim.telemetry_interval = Some(OBSERVE_INTERVAL);
    let skip = run(spec, &sim, EngineMode::EventSkip);
    let step = run(spec, &sim, EngineMode::Step);
    let what = format!(
        "{} on {} over {:?}",
        spec.name,
        sim.design.label(),
        sim.cfg.topology
    );
    assert_eq!(
        skip.encode_journal_line(),
        step.encode_journal_line(),
        "{what}: engines diverged"
    );
    let (ps, pt) = (
        skip.profile.as_ref().expect("profiled"),
        step.profile.as_ref().expect("profiled"),
    );
    assert_eq!(
        ps.encode_compact(),
        pt.encode_compact(),
        "{what}: profiles diverged"
    );
    let rows = |r: &SimResult| -> Vec<String> {
        let p = r.profile.as_ref().expect("profiled");
        p.intervals.iter().map(|row| row.csv_line()).collect()
    };
    assert_eq!(rows(&skip), rows(&step), "{what}: stall rows diverged");
    assert!(!ps.intervals.is_empty(), "{what}: no stall rows");
    let csv = |r: &SimResult| r.timeline.as_ref().expect("sampled").to_csv_string();
    assert_eq!(csv(&skip), csv(&step), "{what}: timelines diverged");
    assert!(skip.completed);
    (skip, step)
}

#[test]
fn engines_agree_on_64_gpu_hier4() {
    let spec = quick_spec("XSBench", 64);
    let cfg = narrow_cfg(64, TopologySpec::Hierarchical { pod_size: 4 });
    for design in [Design::NumaGpu, Design::CarveHwc] {
        assert_engines_agree(&spec, &sim_of(design, cfg.clone()));
    }
}

#[test]
fn engines_agree_on_16_gpu_switch_and_ring() {
    let cfg_of = |topology| narrow_cfg(16, topology);
    for topology in [TopologySpec::Switch, TopologySpec::Ring] {
        for (name, design) in [("Lulesh", Design::CarveHwc), ("SSSP", Design::CarveSwc)] {
            let spec = quick_spec(name, 32);
            assert_engines_agree(&spec, &sim_of(design, cfg_of(topology)));
        }
    }
}

#[test]
fn engines_agree_on_faulted_16_gpu_hier4() {
    // A link outage (re-routing on the multi-hop fabric), DRAM transient
    // retries, duplicated packets and a bounded freeze: every calendar
    // wake path that is not driven by the datapath itself.
    let spec = quick_spec("Lulesh", 32);
    let mut sim = sim_of(
        Design::CarveHwc,
        narrow_cfg(16, TopologySpec::Hierarchical { pod_size: 4 }),
    );
    // Duplicates are a deliberate conservation breach the sanitizer
    // reports; this test is about the engines, so it runs unsanitized.
    sim.sanitize = Some(false);
    sim.fault_plan = Some(
        FaultPlan::parse(
            "outage@400:e3,dramfault@500:g5n4,dup@600:n2,freeze@800+150,outage@900:e20",
        )
        .expect("valid plan"),
    );
    let (skip, step) = assert_engines_agree(&spec, &sim);
    let (rs, rt) = (skip.recovery.expect("armed"), step.recovery.expect("armed"));
    assert_eq!(rs, rt, "recovery accounting diverged between engines");
    assert_eq!(rs.outages, 2);
    assert!(rs.reroutes > 0, "outages must rewrite routes");
    assert!(rs.dram_retries > 0, "transients must force retransmission");
    assert_eq!(rs.frozen_cycles, 150);
    assert!(rs.duplicated_packets > 0);
}

/// Upper bound on links drained per draining tick on the 64-GPU hier4
/// fabric. The arrival heap visits only those links, where a scan would
/// walk all 688 directed edges. This run measures 1.45.
const LINKS_PER_DRAIN_BOUND: f64 = 4.0;

#[test]
fn work_counters_repeat_exactly_and_skip_most_visits_at_64_gpus() {
    let spec = quick_spec("XSBench", 64);
    let mut sim = sim_of(
        Design::CarveHwc,
        narrow_cfg(64, TopologySpec::Hierarchical { pod_size: 4 }),
    );
    sim.sanitize = Some(false);
    let a = run(&spec, &sim, EngineMode::EventSkip);
    let b = run(&spec, &sim, EngineMode::EventSkip);
    let (wa, wb) = (a.work.expect("counted"), b.work.expect("counted"));
    assert_eq!(wa, wb, "work counters must be deterministic");
    assert!(wa.ticks > 0 && wa.ticks <= a.cycles + 1);
    assert_eq!(wa.core_visits + wa.core_skips, 64 * wa.ticks);
    assert_eq!(wa.dram_visits + wa.dram_skips, 64 * wa.ticks);
    assert!(
        wa.skip_share() > 0.8,
        "calendar skipped only {:.1}% of visits: {wa:?}",
        100.0 * wa.skip_share()
    );
    // The arrival heap drains only the links with a message due: a small
    // fraction of the fabric's 688 edges on each draining tick.
    assert!(wa.net_drains > 0 && wa.net_drains <= wa.ticks, "{wa:?}");
    let per_drain = wa.link_drains as f64 / wa.net_drains as f64;
    assert!(
        per_drain < LINKS_PER_DRAIN_BOUND,
        "{per_drain:.2} links drained per draining tick: {wa:?}"
    );
    // The stepping oracle visits everything, every cycle, and drains the
    // same links on the same cycles.
    let step = run(&spec, &sim, EngineMode::Step).work.expect("counted");
    assert_eq!(step.core_skips + step.dram_skips, 0);
    assert!(step.ticks > wa.ticks && step.ticks <= a.cycles + 1);
    assert_eq!(step.core_visits, 64 * step.ticks);
    assert_eq!(
        (step.net_drains, step.link_drains),
        (wa.net_drains, wa.link_drains)
    );
}
