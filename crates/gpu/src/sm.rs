//! Streaming Multiprocessor model.
//!
//! Each SM holds a fixed number of warp slots, filled CTA-by-CTA from a
//! pending queue. Every cycle the SM issues at most one warp instruction
//! from a ready warp (round-robin): compute runs simply occupy the warp for
//! their length; loads translate (TLB latency), probe the per-SM
//! write-through L1 and either complete locally or escalate to the L2;
//! stores are posted write-throughs that do not block the warp. Latency is
//! hidden exactly the way real GPUs hide it — by switching among many
//! resident warps.

use std::collections::VecDeque;

use carve_cache::sram::{AccessKind, SetAssocCache};
use carve_noc::NodeId;
use carve_trace::{Op, WarpGen, WorkloadSpec};
use sim_core::{Cycle, ScaledConfig};

use crate::tlb::Tlb;
use crate::types::{ReqSource, Translator};

/// Geometry and latency parameters of one SM.
#[derive(Debug, Clone, PartialEq)]
pub struct SmParams {
    /// Warp slots (max resident warps).
    pub warps: usize,
    /// Warps per CTA (CTAs are placed whole).
    pub warps_per_cta: usize,
    /// L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Cache line size in bytes.
    pub line_size: u64,
    /// Page size in bytes (for TLB indexing).
    pub page_size: u64,
    /// Latency of an L1 hit in cycles.
    pub l1_hit_latency: u64,
    /// Wake-up delay after an L2/memory fill reaches the SM.
    pub l1_fill_latency: u64,
    /// L1 TLB entries.
    pub l1_tlb_entries: usize,
    /// Added latency when the L1 TLB misses but the shared L2 TLB hits.
    pub l2_tlb_latency: u64,
    /// Added latency of a full page walk.
    pub walk_latency: u64,
}

impl SmParams {
    /// Derives SM parameters from the system configuration.
    pub fn from_config(cfg: &ScaledConfig) -> SmParams {
        SmParams {
            warps: cfg.warps_per_sm,
            warps_per_cta: 4,
            l1_bytes: cfg.l1_bytes_per_sm,
            l1_ways: cfg.l1_ways,
            line_size: cfg.line_size,
            page_size: cfg.page_size,
            l1_hit_latency: cfg.l1_hit_latency,
            l1_fill_latency: 10,
            l1_tlb_entries: cfg.l1_tlb_entries,
            l2_tlb_latency: 20,
            walk_latency: cfg.walk_latency,
        }
    }
}

/// A request escalated from the SM to an L2 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Req {
    /// Line-aligned address.
    pub line_addr: u64,
    /// Whether this is a (posted) store.
    pub is_store: bool,
    /// Home node resolved at translation time.
    pub home: NodeId,
    /// Originating warp or external token.
    pub source: ReqSource,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Vacant,
    Ready,
    Blocked(u64),
    WaitingMem,
}

impl Phase {
    /// The earliest cycle this phase lets the warp issue on its own:
    /// `Ready` is 0, `Blocked(t)` is `t`, and a vacant or memory-parked
    /// slot never issues without outside input (`u64::MAX`).
    #[inline]
    fn wake(self) -> u64 {
        match self {
            Phase::Ready => 0,
            Phase::Blocked(t) => t,
            Phase::Vacant | Phase::WaitingMem => u64::MAX,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ReplayStage {
    /// Translation done; L1 not yet probed (TLB/migration delay elapsed).
    PreL1,
    /// L1 probed and missed; the L2 queue rejected the request.
    PostL1,
}

#[derive(Debug, Clone, Copy)]
struct Replay {
    va: u64,
    is_store: bool,
    home: NodeId,
    stage: ReplayStage,
}

#[derive(Debug)]
struct Slot {
    gen: Option<WarpGen>,
    phase: Phase,
    replay: Option<Replay>,
}

/// Per-SM activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp instructions retired (compute + memory).
    pub instructions: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Issue attempts replayed due to downstream back-pressure.
    pub replays: u64,
}

/// Cached result of the event-minimum scan (see [`Sm::event_min`]).
#[derive(Debug, Clone, Copy)]
enum EventCache {
    /// Slots or the CTA queue changed since the last scan.
    Dirty,
    /// `min` over every slot's contribution: `Ready` and a fillable CTA
    /// queue contribute 0, `Blocked(t)` contributes `t`; `None` when no
    /// slot can ever act without outside input.
    Clean(Option<u64>),
}

/// One Streaming Multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: usize,
    params: SmParams,
    l1: SetAssocCache,
    tlb: Tlb,
    slots: Vec<Slot>,
    /// `slots[i].phase.wake()`, kept dense beside `slots` by
    /// [`Sm::set_phase`]: the event-minimum scan and the round-robin pick
    /// read these 8-byte words instead of striding over the ~170-byte
    /// slots.
    wake: Vec<u64>,
    pending: VecDeque<(usize, usize)>,
    rr: usize,
    stats: SmStats,
    // EQUIVALENCE: `event_cache` memoizes the slot scan for the horizon
    // query only; it never feeds `step`. Every mutation that can change
    // when a slot next acts (enqueue, fill, issue, completion, fail_l2,
    // invalidate) marks it `Dirty` in the same call, so a cached horizon
    // always equals the fresh scan a stepping engine would do, and
    // retirement order — hence every stat and journal byte — is identical
    // under both engines (golden tests pin this).
    /// Interior-mutable so [`Sm::next_event`] (`&self`, called every tick
    /// by the event-horizon engine) can reuse one scan across the many
    /// ticks where this SM's state does not change.
    event_cache: std::cell::Cell<EventCache>,
    /// Non-vacant slot count, so the per-tick [`Sm::is_idle`] checks cost
    /// O(1) instead of a slot scan.
    occupied: usize,
    /// `WaitingMem` slot count, kept by [`Sm::set_phase`] so the
    /// profiler's per-tick [`Sm::warps_waiting_mem`] is O(1).
    waiting_mem: usize,
}

impl Sm {
    /// Creates SM `id` with the given parameters.
    pub fn new(id: usize, params: SmParams) -> Sm {
        let slots = (0..params.warps)
            .map(|_| Slot {
                gen: None,
                phase: Phase::Vacant,
                replay: None,
            })
            .collect();
        Sm {
            id,
            l1: SetAssocCache::new(params.l1_bytes, params.l1_ways, params.line_size),
            tlb: Tlb::new(params.l1_tlb_entries),
            slots,
            wake: vec![u64::MAX; params.warps],
            pending: VecDeque::new(),
            rr: 0,
            params,
            stats: SmStats::default(),
            event_cache: std::cell::Cell::new(EventCache::Dirty),
            occupied: 0,
            waiting_mem: 0,
        }
    }

    /// Moves warp `idx` to `phase`. Every phase change goes through here,
    /// so `waiting_mem` always equals the `WaitingMem` slot count and
    /// `wake[idx]` always equals the slot's `phase.wake()`.
    #[inline]
    fn set_phase(&mut self, idx: usize, phase: Phase) {
        debug_assert!(
            phase != Phase::Blocked(u64::MAX),
            "a block until u64::MAX would read as never waking"
        );
        let slot = &mut self.slots[idx];
        self.waiting_mem -= usize::from(slot.phase == Phase::WaitingMem);
        self.waiting_mem += usize::from(phase == Phase::WaitingMem);
        slot.phase = phase;
        self.wake[idx] = phase.wake();
    }

    /// Queues a CTA of the given kernel for execution on this SM.
    pub fn enqueue_cta(&mut self, kernel: usize, cta: usize) {
        self.pending.push_back((kernel, cta));
        self.event_cache.set(EventCache::Dirty);
    }

    /// The cached event minimum: the earliest absolute cycle at which this
    /// SM can act on its own, with "immediately" represented as 0 (the
    /// caller clamps to `now + 1`). Recomputed only after a mutation.
    fn event_min(&self) -> Option<u64> {
        if let EventCache::Clean(m) = self.event_cache.get() {
            return m;
        }
        debug_assert!(
            self.slots
                .iter()
                .zip(&self.wake)
                .all(|(s, &w)| w == s.phase.wake()),
            "wake array drifted from the slot phases"
        );
        let mut min = self.wake.iter().copied().min().filter(|&m| m != u64::MAX);
        if !self.pending.is_empty() && self.slots.len() - self.occupied >= self.params.warps_per_cta
        {
            min = Some(0);
        }
        self.event_cache.set(EventCache::Clean(min));
        min
    }

    fn try_fill_slots(&mut self, spec: &WorkloadSpec, cfg: &ScaledConfig) {
        loop {
            let vacant = self.slots.len() - self.occupied;
            if vacant < self.params.warps_per_cta || self.pending.is_empty() {
                return;
            }
            // audit:allow(tick-path-panics) guarded by the is_empty check two lines up
            let (kernel, cta) = self.pending.pop_front().expect("checked non-empty");
            let mut warp = 0;
            for idx in 0..self.slots.len() {
                if warp == self.params.warps_per_cta {
                    break;
                }
                if self.slots[idx].phase == Phase::Vacant {
                    self.slots[idx].gen = Some(spec.warp_gen(cfg, kernel, cta, warp));
                    self.slots[idx].replay = None;
                    self.set_phase(idx, Phase::Ready);
                    warp += 1;
                }
            }
            self.occupied += warp;
        }
    }

    /// Advances the SM one cycle, possibly escalating one request to L2.
    ///
    /// The caller must deliver the returned request to an L2 bank queue; if
    /// the queue rejects it, call [`Sm::fail_l2`] to restore the warp.
    pub fn step<T: Translator>(
        &mut self,
        now: Cycle,
        gpu: usize,
        spec: &WorkloadSpec,
        cfg: &ScaledConfig,
        xl: &mut T,
        l2_tlb: &mut Tlb,
    ) -> Option<L2Req> {
        // Fast path: nothing can act at `now` — no ready warp, no
        // expired block, no fillable CTA. The full body below would be a
        // pure no-op (it only reads state), so skipping it is
        // bit-identical; most SMs sit here on any given tick.
        match self.event_min() {
            Some(m) if m <= now.0 => {}
            _ => return None,
        }
        self.event_cache.set(EventCache::Dirty);
        self.try_fill_slots(spec, cfg);
        // Round-robin pick of a ready warp, waking lazily: a warp whose
        // block has expired is indistinguishable from `Ready` to every
        // observer (the event horizon clamps expired times to the floor),
        // so only the picked warp's phase is rewritten — one pass over the
        // dense `wake` words instead of a wake pass plus a pick pass.
        let n = self.slots.len();
        let idx = (self.rr..n)
            .chain(0..self.rr)
            .find(|&i| self.wake[i] <= now.0)?;
        if self.wake[idx] != 0 {
            self.set_phase(idx, Phase::Ready);
        }
        self.rr = (idx + 1) % n;

        // Replayed op first.
        if let Some(replay) = self.slots[idx].replay.take() {
            return match replay.stage {
                ReplayStage::PreL1 => {
                    self.l1_access(idx, replay.va, replay.is_store, replay.home, now)
                }
                ReplayStage::PostL1 => {
                    // Re-emit the previously rejected L2 request.
                    let line = replay.va; // already line-aligned
                    if replay.is_store {
                        self.set_phase(idx, Phase::Ready);
                        Some(L2Req {
                            line_addr: line,
                            is_store: true,
                            home: replay.home,
                            source: ReqSource::Store {
                                sm: self.id,
                                warp: idx,
                            },
                        })
                    } else {
                        self.set_phase(idx, Phase::WaitingMem);
                        Some(L2Req {
                            line_addr: line,
                            is_store: false,
                            home: replay.home,
                            source: ReqSource::Warp {
                                sm: self.id,
                                warp: idx,
                            },
                        })
                    }
                }
            };
        }

        // Fresh instruction.
        let op = {
            let gen = self.slots[idx]
                .gen
                .as_mut()
                // audit:allow(tick-path-panics) Ready phase implies a live generator; breaking that is a slot-machine bug, not a run error
                .expect("ready warp has a stream");
            gen.next_op()
        };
        match op {
            None => {
                self.slots[idx].gen = None;
                self.set_phase(idx, Phase::Vacant);
                self.occupied -= 1;
                None
            }
            Some(Op::Compute(k)) => {
                self.stats.instructions += k as u64;
                // 1 IPC issue: the warp occupies its slot for k cycles.
                self.set_phase(idx, Phase::Blocked(now.0 + k as u64));
                None
            }
            Some(Op::Load(va)) | Some(Op::Store(va)) => {
                let is_store = matches!(op, Some(Op::Store(_)));
                self.stats.instructions += 1;
                let page = va / self.params.page_size;
                let penalty = if self.tlb.lookup(page) {
                    0
                } else if l2_tlb.lookup(page) {
                    self.params.l2_tlb_latency
                } else {
                    self.params.walk_latency
                };
                let out = xl.translate(gpu, va, is_store, now);
                let mut ready_at = now.0 + penalty;
                if let Some(b) = out.blocked_until {
                    ready_at = ready_at.max(b.0);
                }
                let line = va - (va % self.params.line_size);
                if ready_at > now.0 {
                    self.set_phase(idx, Phase::Blocked(ready_at));
                    self.slots[idx].replay = Some(Replay {
                        va: line,
                        is_store,
                        home: out.home,
                        stage: ReplayStage::PreL1,
                    });
                    return None;
                }
                self.l1_access(idx, line, is_store, out.home, now)
            }
        }
    }

    fn l1_access(
        &mut self,
        idx: usize,
        line: u64,
        is_store: bool,
        home: NodeId,
        now: Cycle,
    ) -> Option<L2Req> {
        let hit = self.l1.probe(line, AccessKind::Read);
        if is_store {
            // Write-through, no-allocate, posted: the warp keeps running.
            self.stats.stores += 1;
            self.set_phase(idx, Phase::Ready);
            return Some(L2Req {
                line_addr: line,
                is_store: true,
                home,
                source: ReqSource::Store {
                    sm: self.id,
                    warp: idx,
                },
            });
        }
        self.stats.loads += 1;
        if hit {
            self.set_phase(idx, Phase::Blocked(now.0 + self.params.l1_hit_latency));
            None
        } else {
            self.set_phase(idx, Phase::WaitingMem);
            Some(L2Req {
                line_addr: line,
                is_store: false,
                home,
                source: ReqSource::Warp {
                    sm: self.id,
                    warp: idx,
                },
            })
        }
    }

    /// Restores the warp behind a rejected L2 request so it retries.
    ///
    /// # Panics
    ///
    /// Panics if the request did not originate from this SM.
    pub fn fail_l2(&mut self, req: L2Req) {
        let warp = match req.source {
            ReqSource::Warp { sm, warp } | ReqSource::Store { sm, warp } => {
                assert_eq!(sm, self.id, "request belongs to another SM");
                warp
            }
            // audit:allow(tick-path-panics) documented caller-contract panic (see the doc comment above)
            ReqSource::External { .. } => panic!("external requests do not replay via SMs"),
        };
        self.stats.replays += 1;
        self.slots[warp].replay = Some(Replay {
            va: req.line_addr,
            is_store: req.is_store,
            home: req.home,
            stage: ReplayStage::PostL1,
        });
        self.set_phase(warp, Phase::Ready);
        self.event_cache.set(EventCache::Dirty);
    }

    /// Wakes a memory-blocked warp at `at` (its data has been filled).
    pub fn wake_warp(&mut self, warp: usize, at: Cycle) {
        debug_assert_eq!(self.slots[warp].phase, Phase::WaitingMem);
        self.set_phase(warp, Phase::Blocked(at.0));
        self.event_cache.set(EventCache::Dirty);
    }

    /// Installs a line in the L1 (L2/memory fill on the return path).
    pub fn fill_l1(&mut self, line_addr: u64, remote: bool) {
        // Write-through L1: evictions are always clean.
        let _ = self.l1.fill(line_addr, remote);
    }

    /// Invalidates the entire L1 (software coherence at kernel boundary).
    pub fn invalidate_l1(&mut self) -> usize {
        self.l1.invalidate_all()
    }

    /// Invalidates one line if present (hardware-coherence probe).
    pub fn invalidate_line(&mut self, line_addr: u64) -> bool {
        self.l1.invalidate(line_addr).is_some()
    }

    /// TLB shootdown for a migrated page.
    pub fn shootdown(&mut self, page: u64) {
        self.tlb.shootdown(page);
    }

    /// Occupied (non-vacant) warp slots.
    pub fn active_warps(&self) -> usize {
        self.occupied
    }

    /// Warps parked waiting for a memory response.
    pub fn warps_waiting_mem(&self) -> usize {
        debug_assert_eq!(
            self.waiting_mem,
            self.slots
                .iter()
                .filter(|s| s.phase == Phase::WaitingMem)
                .count(),
            "waiting_mem counter drifted from the slot scan"
        );
        self.waiting_mem
    }

    /// CTAs queued but not yet resident.
    pub fn pending_ctas(&self) -> usize {
        self.pending.len()
    }

    /// No resident or pending work. Warps waiting on memory keep the SM
    /// non-idle until their fills arrive.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.occupied == 0
    }

    /// Earliest future cycle this SM could issue or change state on its
    /// own (see [`sim_core::NextEvent`]). `None` when every warp is vacant
    /// or waiting on a memory fill — only outside input can wake it then.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // `min(t_i.max(floor)) == min(t_i).max(floor)`, so the cached
        // minimum reproduces the slot scan exactly for any `now`.
        self.event_min().map(|m| Cycle(m.max(now.0 + 1)))
    }

    /// Activity counters.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// L1 hit count.
    pub fn l1_hits(&self) -> u64 {
        self.l1.hits()
    }

    /// L1 miss count.
    pub fn l1_misses(&self) -> u64 {
        self.l1.misses()
    }

    /// This SM's index within its GPU.
    pub fn id(&self) -> usize {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TranslationOutcome;
    use carve_trace::workloads;

    struct LocalXl;
    impl Translator for LocalXl {
        fn translate(&mut self, gpu: usize, _va: u64, _w: bool, _now: Cycle) -> TranslationOutcome {
            TranslationOutcome {
                home: NodeId::Gpu(gpu),
                blocked_until: None,
            }
        }
    }

    fn setup() -> (Sm, Tlb, WorkloadSpec, ScaledConfig) {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("stream-triad").unwrap();
        let mut sm = Sm::new(0, SmParams::from_config(&cfg));
        sm.enqueue_cta(0, 0);
        (sm, Tlb::new(512), spec, cfg)
    }

    #[test]
    fn sm_issues_and_escalates_misses() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        let mut reqs = 0;
        for c in 0..20_000u64 {
            if sm
                .step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb)
                .is_some()
            {
                reqs += 1;
            }
        }
        assert!(reqs > 0, "no requests escaped the SM");
        assert!(sm.stats().instructions > 0);
    }

    #[test]
    fn warp_blocks_on_load_until_woken() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        // Run until a load miss escapes.
        let mut pending: Option<L2Req> = None;
        let mut cycle = 0u64;
        while pending.is_none() && cycle < 100_000 {
            if let Some(r) = sm.step(Cycle(cycle), 0, &spec, &cfg, &mut xl, &mut l2_tlb) {
                if !r.is_store {
                    pending = Some(r);
                }
            }
            cycle += 1;
        }
        let req = pending.expect("expected a load miss");
        let ReqSource::Warp { warp, .. } = req.source else {
            panic!("load source must be a warp")
        };
        sm.fill_l1(req.line_addr, false);
        sm.wake_warp(warp, Cycle(cycle + 5));
        // After wakeup the warp issues again eventually.
        let before = sm.stats().instructions;
        for c in cycle..cycle + 5000 {
            sm.step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb);
        }
        assert!(sm.stats().instructions > before);
    }

    #[test]
    fn fail_l2_replays_the_same_line() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        let mut first: Option<L2Req> = None;
        let mut cycle = 0u64;
        while first.is_none() && cycle < 100_000 {
            first = sm.step(Cycle(cycle), 0, &spec, &cfg, &mut xl, &mut l2_tlb);
            cycle += 1;
        }
        let req = first.expect("expected a request");
        sm.fail_l2(req);
        // The next issue from *that warp* re-emits the same line (other
        // warps may issue their own requests in between).
        let source_warp = |s: ReqSource| match s {
            ReqSource::Warp { warp, .. } | ReqSource::Store { warp, .. } => warp,
            ReqSource::External { .. } => usize::MAX,
        };
        let want = source_warp(req.source);
        let mut again = None;
        for c in cycle..cycle + 1000 {
            if let Some(r) = sm.step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb) {
                if source_warp(r.source) == want {
                    again = Some(r);
                    break;
                }
            }
        }
        let r2 = again.expect("replay never re-issued");
        assert_eq!(r2.line_addr, req.line_addr);
        assert_eq!(r2.is_store, req.is_store);
        assert_eq!(sm.stats().replays, 1);
    }

    fn assert_wake_mirrors_phases(sm: &Sm) {
        for (i, slot) in sm.slots.iter().enumerate() {
            assert_eq!(
                sm.wake[i],
                slot.phase.wake(),
                "slot {i} in {:?}",
                slot.phase
            );
        }
    }

    #[test]
    fn waiting_mem_counter_tracks_the_slot_scan() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        let check = |sm: &Sm| {
            let scanned = sm
                .slots
                .iter()
                .filter(|s| s.phase == Phase::WaitingMem)
                .count();
            assert_eq!(sm.warps_waiting_mem(), scanned);
            assert_wake_mirrors_phases(sm);
        };
        let is_load_of = |r: &L2Req, w: Option<usize>| match r.source {
            ReqSource::Warp { warp, .. } => w.is_none_or(|w| w == warp),
            _ => false,
        };
        let mut cycle = 0u64;
        let mut issue_until = |sm: &mut Sm, w: Option<usize>| loop {
            assert!(cycle < 100_000, "no load miss escaped");
            let r = sm.step(Cycle(cycle), 0, &spec, &cfg, &mut xl, &mut l2_tlb);
            check(sm);
            cycle += 1;
            if let Some(r) = r.filter(|r| is_load_of(r, w)) {
                return (r, cycle);
            }
        };
        // A load miss parks its warp in WaitingMem.
        let (req, _) = issue_until(&mut sm, None);
        let ReqSource::Warp { warp, .. } = req.source else {
            unreachable!("filtered to warp loads")
        };
        let parked = sm.warps_waiting_mem();
        assert!(parked >= 1);
        // The L2 rejects it: the warp leaves WaitingMem to replay.
        sm.fail_l2(req);
        check(&sm);
        assert_eq!(sm.warps_waiting_mem(), parked - 1);
        // The replay re-emits the miss and parks the warp again.
        let (again, at) = issue_until(&mut sm, Some(warp));
        assert_eq!(again.line_addr, req.line_addr);
        assert_eq!(sm.slots[warp].phase, Phase::WaitingMem);
        // The fill wakes it.
        sm.wake_warp(warp, Cycle(at + 5));
        check(&sm);
        assert_eq!(sm.slots[warp].phase, Phase::Blocked(at + 5));
    }

    #[test]
    fn wake_array_mirrors_phases_through_retirement() {
        // Bitcoin's warps are compute-heavy with a few loads, so one CTA
        // run to idle passes every phase edge: CTA fill (Vacant → Ready),
        // compute issue (Blocked), lazy wake on pick, load miss
        // (WaitingMem), fill wake, and retirement back to Vacant.
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("Bitcoin").unwrap();
        let mut sm = Sm::new(0, SmParams::from_config(&cfg));
        assert_wake_mirrors_phases(&sm);
        sm.enqueue_cta(0, 0);
        let mut l2_tlb = Tlb::new(512);
        let mut xl = LocalXl;
        let mut waiting: Vec<(usize, u64)> = Vec::new();
        let mut seen = [false; 4];
        let mut c = 0u64;
        while !sm.is_idle() && c < 3_000_000 {
            if let Some(req) = sm.step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb) {
                if let ReqSource::Warp { warp, .. } = req.source {
                    waiting.push((warp, c + 50));
                }
            }
            for slot in &sm.slots {
                seen[match slot.phase {
                    Phase::Vacant => 0,
                    Phase::Ready => 1,
                    Phase::Blocked(_) => 2,
                    Phase::WaitingMem => 3,
                }] = true;
            }
            assert_wake_mirrors_phases(&sm);
            waiting.retain(|&(warp, at)| {
                if at <= c {
                    sm.wake_warp(warp, Cycle(at));
                    false
                } else {
                    true
                }
            });
            assert_wake_mirrors_phases(&sm);
            c += 1;
        }
        assert!(sm.is_idle(), "SM failed to drain");
        assert_eq!(seen, [true; 4], "every phase was visited");
        assert!(
            sm.wake.iter().all(|&w| w == u64::MAX),
            "retired slots never wake"
        );
        assert_eq!(sm.next_event(Cycle(c)), None);
    }

    #[test]
    fn sm_drains_to_idle_when_memory_always_hits() {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("Bitcoin").unwrap();
        let mut sm = Sm::new(0, SmParams::from_config(&cfg));
        sm.enqueue_cta(0, 0);
        let mut l2_tlb = Tlb::new(512);
        let mut xl = LocalXl;
        let mut waiting: Vec<(usize, u64)> = Vec::new();
        let mut c = 0u64;
        while !sm.is_idle() && c < 3_000_000 {
            if let Some(req) = sm.step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb) {
                if let ReqSource::Warp { warp, .. } = req.source {
                    sm.fill_l1(req.line_addr, false);
                    waiting.push((warp, c + 50));
                }
            }
            waiting.retain(|&(warp, at)| {
                if at <= c {
                    sm.wake_warp(warp, Cycle(at));
                    false
                } else {
                    true
                }
            });
            c += 1;
        }
        assert!(sm.is_idle(), "SM failed to drain");
        // One CTA of Bitcoin: 4 warps x 500 instrs.
        let expected = spec.shape.warps_per_cta as u64 * spec.shape.instrs_per_warp as u64;
        assert_eq!(sm.stats().instructions, expected);
    }

    #[test]
    fn cta_fills_whole_warp_groups() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        sm.step(Cycle(0), 0, &spec, &cfg, &mut xl, &mut l2_tlb);
        assert!(!sm.is_idle());
    }
}
