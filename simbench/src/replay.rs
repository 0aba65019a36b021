//! Component replays: each workload's own memory-op stream, GPU count and
//! topology driven through one crate's public API at a time, timed from
//! outside. They show which layer's per-operation cost moved when an
//! end-to-end number moves.

use std::hint::black_box;
use std::time::{Duration, Instant};

use carve::{Directory, Imst};
use carve_cache::mshr::{MshrAllocate, MshrFile};
use carve_cache::sram::{AccessKind, SetAssocCache};
use carve_dram::{DramConfig, DramModel};
use carve_gpu::Tlb;
use carve_noc::{msg, LinkNetwork, NodeId, Topology};
use carve_runtime::page_table::{PageTable, PlacementPolicy};
use carve_runtime::{gpu_of_cta, AccessOutcome};
use carve_trace::{Op, WorkloadSpec};
use sim_core::{Cycle, ScaledConfig};

use crate::stats::{median, Metrics};

/// A replay repeats at least this many times...
const MIN_REPS: usize = 3;
/// ...and until this much time is spent; its median rep is reported.
const MIN_TIME: Duration = Duration::from_millis(60);
/// Memory ops fed to the DRAM replay and messages fed to the NoC replay.
const TIMED_QUEUE_OPS: usize = 20_000;
/// Tick cap of the DRAM and NoC replays, and the idle-DRAM tick count.
const MAX_TICKS: u64 = 400_000;

/// One warp memory operation with the GPU its CTA runs on.
#[derive(Debug, Clone, Copy)]
pub struct MemOp {
    pub gpu: usize,
    pub va: u64,
    pub write: bool,
}

/// Simulated load the replays are paced to, measured by the workload's
/// own runs.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// DRAM accesses per GPU per cycle.
    pub dram_per_gpu_cycle: f64,
    /// Inter-GPU link bytes per cycle, machine-wide.
    pub link_bytes_per_cycle: f64,
}

/// Runs `rep` (which returns the time of its measured part) until both
/// limits are met; returns the median rep in nanoseconds.
fn median_ns(mut rep: impl FnMut() -> Duration) -> f64 {
    let began = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || began.elapsed() < MIN_TIME {
        reps.push(rep().as_secs_f64() * 1e9);
    }
    median(&reps).expect("at least one rep")
}

/// [`median_ns`] per operation, for a rep of `ops` operations.
fn ns_per_op(ops: u64, rep: impl FnMut() -> Duration) -> f64 {
    median_ns(rep) / ops.max(1) as f64
}

/// Drains every warp's instruction stream (`carve-trace`), timing the
/// drain, and keeps each spec's memory ops in issue order.
fn drain(specs: &[WorkloadSpec], cfg: &ScaledConfig, m: &mut Metrics) -> Vec<Vec<MemOp>> {
    let n = cfg.num_gpus;
    let collect = |keep: bool| {
        let mut ops = 0u64;
        let mut streams = Vec::new();
        for spec in specs {
            let mut mem = Vec::new();
            let s = spec.shape;
            for kernel in 0..s.kernels {
                for cta in 0..s.ctas {
                    let gpu = gpu_of_cta(cta, s.ctas, n);
                    for warp in 0..s.warps_per_cta {
                        let mut gen = spec.warp_gen(cfg, kernel, cta, warp);
                        while let Some(op) = gen.next_op() {
                            ops += 1;
                            let (va, write) = match black_box(op) {
                                Op::Compute(_) => continue,
                                Op::Load(va) => (va, false),
                                Op::Store(va) => (va, true),
                            };
                            if keep {
                                mem.push(MemOp { gpu, va, write });
                            }
                        }
                    }
                }
            }
            streams.push(mem);
        }
        (ops, streams)
    };
    let (ops, streams) = collect(true);
    let ns = ns_per_op(ops, || {
        let t = Instant::now();
        black_box(collect(false));
        t.elapsed()
    });
    m.push("trace.gen_ns_per_op", ns, "ns");
    m.push("trace.ops", ops as f64, "count");
    streams
}

/// Replays every stream through a fresh page table under `policy`.
fn page_table_pass(
    streams: &[Vec<MemOp>],
    cfg: &ScaledConfig,
    policy: PlacementPolicy,
    mut each: impl FnMut(&MemOp, AccessOutcome),
) -> Duration {
    let mut spent = Duration::ZERO;
    for stream in streams {
        let mut pt = PageTable::new(cfg.num_gpus, cfg.page_size, policy);
        let t = Instant::now();
        for (i, op) in stream.iter().enumerate() {
            each(op, pt.access(op.gpu, op.va, op.write, Cycle(i as u64)));
        }
        spent += t.elapsed();
    }
    spent
}

/// Runs every replay and reports ns/op and op counts per layer.
pub fn replay(specs: &[WorkloadSpec], cfg: &ScaledConfig, load: Load, m: &mut Metrics) {
    let streams = drain(specs, cfg, m);
    let ops: usize = streams.iter().map(Vec::len).sum();
    let n = cfg.num_gpus;
    let line = cfg.line_size;

    // runtime: first-touch placement, then reactive migration.
    let first_touch = PlacementPolicy::default();
    let migrate = carve_system::Design::NumaGpuMigrate.placement_policy();
    let ft = ns_per_op(ops as u64, || {
        page_table_pass(&streams, cfg, first_touch, |_, o| {
            black_box(o);
        })
    });
    let mg = ns_per_op(ops as u64, || {
        page_table_pass(&streams, cfg, migrate, |_, o| {
            black_box(o);
        })
    });
    m.push("runtime.page_table_ns", ft, "ns");
    m.push("runtime.page_table_migrate_ns", mg, "ns");
    m.push("runtime.page_table_ops", ops as f64, "count");

    // Each access's home under first touch: the request's destination.
    let mut homed: Vec<(MemOp, NodeId)> = Vec::with_capacity(ops);
    page_table_pass(&streams, cfg, first_touch, |op, o| {
        homed.push((*op, o.home))
    });

    // gpu: the per-GPU L2 TLB on every access's page.
    let tlb = ns_per_op(ops as u64, || {
        let mut tlbs: Vec<Tlb> = (0..n).map(|_| Tlb::new(cfg.l2_tlb_entries)).collect();
        let t = Instant::now();
        for (op, _) in &homed {
            black_box(tlbs[op.gpu].lookup(op.va / cfg.page_size));
        }
        t.elapsed()
    });
    m.push("gpu.tlb_ns", tlb, "ns");
    m.push("gpu.tlb_ops", ops as f64, "count");

    // cache: the per-GPU L2 array (probe, fill on miss) and its MSHR file
    // with a bounded window of fills in flight.
    let sram = ns_per_op(ops as u64, || {
        let mut l2s: Vec<SetAssocCache> = (0..n)
            .map(|_| SetAssocCache::new(cfg.l2_bytes_per_gpu, cfg.l2_ways, line))
            .collect();
        let t = Instant::now();
        for (op, home) in &homed {
            let kind = if op.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let c = &mut l2s[op.gpu];
            if !c.probe(op.va, kind) {
                black_box(c.fill(op.va, *home != NodeId::Gpu(op.gpu)));
            }
        }
        t.elapsed()
    });
    let mshrs = cfg.l2_mshrs_per_bank * cfg.l2_banks;
    let mshr = ns_per_op(ops as u64, || {
        let mut files: Vec<(MshrFile<u32>, std::collections::VecDeque<u64>)> = (0..n)
            .map(|_| (MshrFile::new(mshrs, 32), Default::default()))
            .collect();
        let t = Instant::now();
        for (i, (op, _)) in homed.iter().enumerate() {
            let (file, inflight) = &mut files[op.gpu];
            let addr = op.va / line * line;
            loop {
                match file.allocate(addr, i as u32) {
                    MshrAllocate::Primary => inflight.push_back(addr),
                    MshrAllocate::Secondary => {}
                    MshrAllocate::Full => {
                        let oldest = inflight.pop_front().expect("a full file has fills");
                        black_box(file.complete(oldest));
                        continue;
                    }
                }
                break;
            }
            if inflight.len() * 2 > mshrs {
                let oldest = inflight.pop_front().expect("non-empty");
                black_box(file.complete(oldest));
            }
        }
        t.elapsed()
    });
    m.push("cache.sram_ns", sram, "ns");
    m.push("cache.sram_ops", ops as f64, "count");
    m.push("cache.mshr_ns", mshr, "ns");
    m.push("cache.mshr_ops", ops as f64, "count");

    // dram: one GPU's DRAM fed at the simulated per-GPU access rate, and
    // the same model ticking with nothing queued.
    let dcfg = DramConfig::from_scaled(cfg);
    let dram_ops: Vec<&MemOp> = homed
        .iter()
        .map(|(op, _)| op)
        .take(TIMED_QUEUE_OPS)
        .collect();
    let mut loaded_ticks = 0u64;
    let loaded = {
        let rate = load.dram_per_gpu_cycle;
        let ns = median_ns(|| {
            let mut dram = DramModel::new(dcfg.clone());
            let mut done = Vec::new();
            let (mut next, mut credit, mut now) = (0usize, 0.0f64, 0u64);
            let t = Instant::now();
            while (next < dram_ops.len() || !dram.is_idle()) && now < MAX_TICKS {
                credit += rate;
                while credit >= 1.0 && next < dram_ops.len() {
                    let op = dram_ops[next];
                    let token = next as u64 + 1;
                    let queued = if op.write {
                        dram.try_enqueue_write(token, op.va, Cycle(now))
                    } else {
                        dram.try_enqueue_read(token, op.va, Cycle(now))
                    };
                    if queued.is_err() {
                        break;
                    }
                    next += 1;
                    credit -= 1.0;
                }
                dram.tick_into(Cycle(now), &mut done);
                black_box(&done);
                done.clear();
                now += 1;
            }
            loaded_ticks = now;
            t.elapsed()
        });
        ns / loaded_ticks.max(1) as f64
    };
    let idle = ns_per_op(MAX_TICKS, || {
        let mut dram = DramModel::new(dcfg.clone());
        let mut done = Vec::new();
        let t = Instant::now();
        for now in 0..MAX_TICKS {
            dram.tick_into(Cycle(now), &mut done);
        }
        black_box(&done);
        t.elapsed()
    });
    m.push("dram.tick_ns_loaded", loaded, "ns");
    m.push("dram.loaded_ticks", loaded_ticks as f64, "count");
    m.push("dram.tick_ns_idle", idle, "ns");
    m.push("dram.idle_ticks", MAX_TICKS as f64, "count");

    // noc: the workload's fabric carrying each remote access's data
    // response (home to requester) at the simulated link load.
    let flows: Vec<(NodeId, NodeId)> = homed
        .iter()
        .filter(|(op, home)| *home != NodeId::Gpu(op.gpu))
        .map(|(op, home)| (*home, NodeId::Gpu(op.gpu)))
        .take(TIMED_QUEUE_OPS)
        .collect();
    let topo = || {
        Topology::build(
            cfg.topology,
            n,
            cfg.link_bytes_per_cycle,
            cfg.link_latency,
            cfg.cpu_link_bytes_per_cycle,
            cfg.cpu_link_latency,
        )
        .and_then(LinkNetwork::from_topology)
        .expect("the workload's validated topology")
    };
    let mut noc_ticks = 0u64;
    let noc = {
        let rate = load.link_bytes_per_cycle / msg::RESP_DATA_BYTES as f64;
        let ns = median_ns(|| {
            let mut net = topo();
            let mut out = Vec::new();
            let (mut next, mut credit, mut now) = (0usize, 0.0f64, 0u64);
            let t = Instant::now();
            while (next < flows.len() || !net.is_idle()) && now < MAX_TICKS {
                credit += rate;
                while credit >= 1.0 && next < flows.len() {
                    let (src, dst) = flows[next];
                    net.send(src, dst, next as u64 + 1, msg::RESP_DATA_BYTES, Cycle(now));
                    next += 1;
                    credit -= 1.0;
                }
                net.tick_into(Cycle(now), &mut out);
                black_box(&out);
                out.clear();
                now += 1;
            }
            noc_ticks = now;
            t.elapsed()
        });
        ns / noc_ticks.max(1) as f64
    };
    m.push("noc.tick_ns", noc, "ns");
    m.push("noc.ticks", noc_ticks as f64, "count");

    // carve: each access at its home's IMST, and a sharer directory
    // recording remote reads and invalidating on writes.
    let imst = ns_per_op(ops as u64, || {
        let mut imsts: Vec<Imst> = (0..n).map(|g| Imst::new(g as u64)).collect();
        let t = Instant::now();
        for (op, home) in &homed {
            if let NodeId::Gpu(h) = *home {
                black_box(imsts[h].on_access(op.va / line * line, h == op.gpu, op.write));
            }
        }
        t.elapsed()
    });
    let directory = ns_per_op(ops as u64, || {
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new()).collect();
        let t = Instant::now();
        for (op, home) in &homed {
            if let NodeId::Gpu(h) = *home {
                let addr = op.va / line * line;
                if op.write {
                    black_box(dirs[h].on_write(addr, op.gpu));
                } else if h != op.gpu {
                    dirs[h].record_sharer(addr, op.gpu);
                }
            }
        }
        t.elapsed()
    });
    m.push("carve.imst_ns", imst, "ns");
    m.push("carve.directory_ns", directory, "ns");
    m.push("carve.replay_ops", ops as f64, "count");
}
