//! The benchmark's workloads: which points each one simulates, at what
//! size, on which machine, and how the seed argument reaches the specs.
//!
//! Sizes are cut so that one pass over a workload's points fits a
//! measured run many times over; the cut keeps every kernel, CTA and warp
//! of the paper's specs (so sharing structure, kernel boundaries and
//! per-SM occupancy are unchanged) and shortens only each warp's
//! instruction stream. Many short passes matter on a shared host: a
//! point's time swings by a fifth with other tenants' memory traffic, and
//! its fastest pass is only steady when there are many passes to pick
//! from.

use carve::WritePolicy;
use carve_system::{workloads, Design, ScaledConfig, SimConfig, TopologySpec};
use carve_trace::WorkloadSpec;
use sim_core::{SimError, DEFAULT_WATCHDOG_CYCLES};

/// The seed that leaves every paper spec untouched; results at this seed
/// are compared byte for byte with the committed expected journals.
pub const DEFAULT_SEED: u64 = 0;

/// Telemetry interval of the observed path, the `carve-sim trace` default.
const OBSERVED_INTERVAL: u64 = 5_000;

/// The five fig02 design columns.
const FIG02_DESIGNS: [Design; 5] = [
    Design::Ideal,
    Design::NumaGpu,
    Design::NumaGpuMigrate,
    Design::NumaGpuRepl,
    Design::CarveHwc,
];

/// The two designs of the scale-out and observed workloads.
const PAIR_DESIGNS: [Design; 2] = [Design::NumaGpu, Design::CarveHwc];

/// The workloads of the observed path: the budget campaign's culprits
/// (HPGMG, MiniAMR) and controls (Euler, AlexNet).
const OBSERVED_WORKLOADS: [&str; 4] = ["HPGMG", "MiniAMR", "Euler", "AlexNet"];

/// Names accepted by `--workload`, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 3] = ["paper-grid", "scale-64", "observed-grid"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The fig02 grid on the paper's 4-GPU all-to-all machine.
    PaperGrid,
    /// XSBench on 64 GPUs over hierarchical pods of four.
    Scale64,
    /// Four workloads on the 4-GPU machine with every observer on.
    ObservedGrid,
}

/// One simulation of a workload: a spec on a fully pinned configuration.
#[derive(Debug, Clone)]
pub struct Point {
    pub spec: WorkloadSpec,
    pub sim: SimConfig,
}

impl Point {
    /// The key that names this point in the expected journal.
    pub fn key(&self) -> String {
        format!("{}\t{}", self.spec.name, self.sim.design.label())
    }
}

/// Mixes the benchmark seed into a spec's own seed. The default seed maps
/// every spec seed to itself; any other seed moves every address stream.
pub fn mix_seed(spec_seed: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        return spec_seed;
    }
    // splitmix64 finaliser: nearby seeds give unrelated streams.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    spec_seed ^ z ^ (z >> 31)
}

/// Every `SimConfig` knob set explicitly, so no run defers to a `CARVE_*`
/// environment variable. Values equal `SimConfig::new`'s with the
/// environment empty.
pub fn pinned_config(design: Design, cfg: ScaledConfig) -> SimConfig {
    SimConfig {
        cfg,
        design,
        rdc_bytes: None,
        spill_fraction: 0.0,
        hit_predictor: false,
        rdc_write_policy: WritePolicy::WriteThrough,
        gpu_vi_broadcast_always: false,
        directory_coherence: false,
        rdc_caches_sysmem: false,
        max_cycles: 80_000_000,
        kernel_launch_cycles: 400,
        watchdog_cycles: Some(DEFAULT_WATCHDOG_CYCLES),
        telemetry_interval: Some(0),
        sanitize: Some(false),
        cycle_profile: false,
        fault_plan: None,
        stall_inject_at: None,
    }
}

/// `sim` with the observation path on: cycle profiler and interval
/// telemetry (the caller supplies the trace sink).
pub fn observed_config(sim: &SimConfig) -> SimConfig {
    SimConfig {
        cycle_profile: true,
        telemetry_interval: Some(OBSERVED_INTERVAL),
        ..sim.clone()
    }
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "paper-grid" => Some(Workload::PaperGrid),
            "scale-64" => Some(Workload::Scale64),
            "observed-grid" => Some(Workload::ObservedGrid),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::Scale64 => "scale-64",
            Workload::ObservedGrid => "observed-grid",
        }
    }

    /// Whether the measured runs go through the observation path.
    pub fn observed(self) -> bool {
        self == Workload::ObservedGrid
    }

    /// The machine every point of this workload runs on.
    pub fn machine(self) -> ScaledConfig {
        let mut cfg = ScaledConfig::default();
        if self == Workload::Scale64 {
            cfg.num_gpus = 64;
            cfg.topology = TopologySpec::Hierarchical { pod_size: 4 };
        }
        cfg
    }

    /// Divisor applied to each warp's instruction count. At 64 GPUs one
    /// tick costs about four times a 4-GPU tick, hence the deeper cut.
    fn instr_divisor(self) -> usize {
        match self {
            Workload::PaperGrid | Workload::ObservedGrid => 16,
            Workload::Scale64 => 32,
        }
    }

    /// The sized specs, with `seed` mixed into each.
    pub fn specs(self, seed: u64) -> Vec<WorkloadSpec> {
        let names: Vec<&str> = match self {
            Workload::PaperGrid => workloads::names(),
            Workload::Scale64 => vec!["XSBench"],
            Workload::ObservedGrid => OBSERVED_WORKLOADS.to_vec(),
        };
        names
            .into_iter()
            .map(|n| {
                let mut spec = workloads::by_name(n).expect("a Table II workload");
                spec.shape.instrs_per_warp =
                    (spec.shape.instrs_per_warp / self.instr_divisor()).max(1);
                spec.seed = mix_seed(spec.seed, seed);
                spec
            })
            .collect()
    }

    /// The designs simulated for the `i`-th spec. The paper grid runs a
    /// diagonal of fig02: spec `i` with design `i mod 5`, so all 20
    /// workloads and each of the five designs (four times) are covered in
    /// a fifth of the full grid's time.
    fn designs(self, i: usize) -> Vec<Design> {
        match self {
            Workload::PaperGrid => vec![FIG02_DESIGNS[i % FIG02_DESIGNS.len()]],
            Workload::Scale64 | Workload::ObservedGrid => PAIR_DESIGNS.to_vec(),
        }
    }

    /// The measured points, spec-major (each spec's designs together).
    pub fn points(self, seed: u64) -> Vec<Point> {
        let cfg = self.machine();
        let mut out = Vec::new();
        for (i, spec) in self.specs(seed).into_iter().enumerate() {
            for design in self.designs(i) {
                out.push(Point {
                    spec: spec.clone(),
                    sim: pinned_config(design, cfg.clone()),
                });
            }
        }
        out
    }
}

/// Whether a run of `design` consumes a sharing profile (replication,
/// the ideal bound and CARVE-HWC's watch set do).
pub fn needs_profile(design: Design) -> bool {
    matches!(
        design,
        Design::NumaGpuRepl | Design::Ideal | Design::CarveHwc
    )
}

/// Validates every point's configuration, the set-up step `try_run`
/// performs before building a machine.
pub fn validate_all(points: &[Point]) -> Result<(), SimError> {
    points.iter().try_for_each(|p| p.sim.validate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_leaves_specs_untouched() {
        for w in NAMES.map(|n| Workload::from_name(n).expect("known")) {
            for spec in w.specs(DEFAULT_SEED) {
                let paper = workloads::by_name(spec.name).expect("known");
                assert_eq!(spec.seed, paper.seed);
                assert_eq!(spec.regions, paper.regions);
                assert_eq!(spec.shape.kernels, paper.shape.kernels);
                assert_eq!(spec.shape.ctas, paper.shape.ctas);
            }
        }
    }

    #[test]
    fn other_seeds_move_every_spec_seed_distinctly() {
        let paper: Vec<u64> = workloads::all().iter().map(|s| s.seed).collect();
        let a: Vec<u64> = Workload::PaperGrid
            .specs(1)
            .iter()
            .map(|s| s.seed)
            .collect();
        let b: Vec<u64> = Workload::PaperGrid
            .specs(2)
            .iter()
            .map(|s| s.seed)
            .collect();
        for ((p, a), b) in paper.iter().zip(&a).zip(&b) {
            assert_ne!(p, a);
            assert_ne!(a, b);
        }
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }

    #[test]
    fn pinned_config_matches_the_library_defaults() {
        let pinned = pinned_config(Design::CarveHwc, ScaledConfig::default());
        let lib = SimConfig::new(Design::CarveHwc);
        assert_eq!(pinned.max_cycles, lib.max_cycles);
        assert_eq!(pinned.kernel_launch_cycles, lib.kernel_launch_cycles);
        assert_eq!(pinned.rdc_write_policy, lib.rdc_write_policy);
        assert_eq!(pinned.cfg, lib.cfg);
    }

    #[test]
    fn point_sets_have_the_documented_shape() {
        let grid = Workload::PaperGrid.points(0);
        assert_eq!(grid.len(), 20);
        for d in FIG02_DESIGNS {
            assert_eq!(grid.iter().filter(|p| p.sim.design == d).count(), 4);
        }
        assert_eq!(Workload::Scale64.points(0).len(), 2);
        assert_eq!(Workload::ObservedGrid.points(0).len(), 8);
        for p in Workload::Scale64.points(0) {
            assert_eq!(p.sim.cfg.num_gpus, 64);
        }
        validate_all(&Workload::Scale64.points(0)).expect("valid 64-GPU machine");
    }
}
