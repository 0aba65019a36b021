//! HBM-style DRAM model for the `carve-mgpu` simulator.
//!
//! Models the paper's per-GPU memory system (Section III): multiple
//! channels, 16 banks per channel with open-page row buffers, 128-entry
//! read/write queues per channel, FR-FCFS scheduling that prioritizes reads,
//! batched write drains triggered by a high-watermark, and a line-interleaved
//! ("minimalist"-style) address mapping that spreads consecutive cache lines
//! across channels.
//!
//! Two models are provided:
//!
//! * [`DramModel`] — the detailed channel/bank/row timing model used by all
//!   headline experiments.
//! * [`FlatMemory`] — a flat bandwidth-latency alternative used by the
//!   memory-model ablation bench (and by anyone who wants a faster, less
//!   detailed simulation).
//!
//! # Example
//!
//! ```
//! use carve_dram::{DramConfig, DramModel};
//! use sim_core::Cycle;
//!
//! let mut dram = DramModel::new(DramConfig::default());
//! dram.try_enqueue_read(1, 0x1000, Cycle(0)).unwrap();
//! let mut done = Vec::new();
//! for c in 0..10_000u64 {
//!     done.extend(dram.tick(Cycle(c)));
//!     if !done.is_empty() { break; }
//! }
//! assert_eq!(done[0].token, 1);
//! ```

#![warn(missing_docs)]

use sim_core::event::{earliest, NextEvent};
use sim_core::{BoundedQueue, Cycle, DramChannelProfile, ScaledConfig};

/// Geometry and timing of one GPU's DRAM subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Data-bus bandwidth per channel in bytes/cycle.
    pub bytes_per_cycle: f64,
    /// Row activate latency (tRCD).
    pub t_rcd: u64,
    /// Precharge latency (tRP).
    pub t_rp: u64,
    /// Column access latency (tCL).
    pub t_cl: u64,
    /// Fixed controller/PHY pipeline latency added to every access.
    pub fixed_latency: u64,
    /// Read and write queue depth per channel.
    pub queue_depth: usize,
    /// Write-queue occupancy that starts a drain batch.
    pub drain_high: usize,
    /// Write-queue occupancy that ends a drain batch.
    pub drain_low: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Cache line (transfer) size in bytes.
    pub line_size: u64,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig::from_scaled(&ScaledConfig::default())
    }
}

impl DramConfig {
    /// Extracts the DRAM parameters from a system configuration.
    pub fn from_scaled(cfg: &ScaledConfig) -> DramConfig {
        DramConfig {
            channels: cfg.dram_channels,
            banks_per_channel: cfg.dram_banks_per_channel,
            bytes_per_cycle: cfg.dram_channel_bytes_per_cycle,
            t_rcd: cfg.dram_t_rcd,
            t_rp: cfg.dram_t_rp,
            t_cl: cfg.dram_t_cl,
            fixed_latency: cfg.dram_fixed_latency,
            queue_depth: cfg.dram_queue_depth,
            drain_high: cfg.dram_write_drain_high,
            drain_low: cfg.dram_write_drain_low,
            row_bytes: cfg.dram_row_bytes,
            line_size: cfg.line_size,
        }
    }

    /// Aggregate bandwidth across channels in bytes/cycle.
    pub fn total_bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle * self.channels as f64
    }
}

/// A finished DRAM access, reported by [`DramModel::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Caller-supplied token identifying the request.
    pub token: u64,
    /// Cycle at which data is available (read) or committed (write).
    pub at: Cycle,
    /// Whether this was a write.
    pub is_write: bool,
}

/// A queued access, decoded once at enqueue (see [`DramModel::decode`]).
#[derive(Debug, Clone, Copy)]
struct DramRequest {
    token: u64,
    /// Bank in the low [`Channel::bank_bits`] bits, row above them
    /// (see [`unpack`]).
    loc: u64,
    arrival: Cycle,
}

// Every channel preallocates `2 × queue_depth` of these, for every
// channel of every GPU: a wider request costs resident memory at scale.
const _: () = assert!(std::mem::size_of::<DramRequest>() == 24);

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    /// Width of the bank field of [`DramRequest::loc`].
    bank_bits: u32,
    read_q: BoundedQueue<DramRequest>,
    write_q: BoundedQueue<DramRequest>,
    in_service: Vec<(Completion, u64)>, // (completion, finish cycle)
    // EQUIVALENCE: the `min_finish` / `issue_floor` caches below only ever
    // *under*-approximate the next interesting cycle, and every mutation
    // that could create earlier work (enqueue, issue, completion drain)
    // re-tightens them in the same call. A skipped tick therefore observes
    // exactly the state a stepped tick would have: the delivery scan and
    // FR-FCFS scan are elided only on ticks where a full scan would have
    // found nothing, so completions, bank timings and stats are
    // bit-identical between the event-skip and step engines (proved by
    // `next_event_reproduces_stepped_completions` and the golden tests).
    /// Earliest in-service finish cycle (`u64::MAX` when none): lets the
    /// per-tick delivery scan and the event horizon skip the list
    /// entirely until something is actually due.
    min_finish: u64,
    /// Underestimate of the earliest cycle an issue can succeed
    /// (`u64::MAX` when both queues are empty): `max(bus ready, min bank
    /// ready over queued requests)`, kept exact at every mutation so the
    /// FR-FCFS scan is skipped on the many ticks where it would find
    /// nothing.
    issue_floor: u64,
    bus_free_at: f64,
    draining: bool,
    // EQUIVALENCE: the write-drain hysteresis is a function of the
    // write-queue length, and between two of a channel's ticks that length
    // changes only through enqueues (issue is the only pop, and it runs
    // inside the tick). A caller that skips a channel's not-due ticks
    // would skip the hysteresis steps a stepping engine runs on them; all
    // of those see the same length, and the step is idempotent on a
    // constant input, so one evaluation stands for all of them — provided
    // it happens before the length moves. Hence: every tick evaluates,
    // and the first enqueue of a cycle the channel has not yet evaluated
    // evaluates once with the pre-enqueue length before pushing. That is
    // the value the stepping engine's tick of this cycle would have seen,
    // because ticks precede enqueues within a system cycle. Under
    // stepping, every tick has already evaluated before the cycle's
    // enqueues, so the enqueue-side step never fires and nothing changes.
    /// First cycle whose hysteresis step has not run yet.
    hyst_next: u64,
    /// Occupancy accounting for the cycle-accounting profiler: bank-time
    /// spent on row-hit vs row-miss accesses and serialized bus time.
    /// Always-on plain additions at the issue site (no journal impact —
    /// these never feed `DramStats`).
    row_hit_cycles: u64,
    row_miss_cycles: u64,
    bus_cycles: f64,
}

/// Splits a [`DramRequest::loc`] into its bank and row.
#[inline]
fn unpack(loc: u64, bank_bits: u32) -> (usize, u64) {
    ((loc & ((1 << bank_bits) - 1)) as usize, loc >> bank_bits)
}

impl Channel {
    /// Recomputes [`Channel::issue_floor`] from scratch (both queues).
    fn recompute_issue_floor(&mut self) {
        if self.read_q.is_empty() && self.write_q.is_empty() {
            self.issue_floor = u64::MAX;
            return;
        }
        let bus_ready = (self.bus_free_at - 1.0).ceil().max(0.0) as u64;
        let min_bank_ready = self
            .read_q
            .iter()
            .chain(self.write_q.iter())
            .map(|req| self.banks[unpack(req.loc, self.bank_bits).0].ready_at)
            .min()
            .unwrap_or(0);
        self.issue_floor = bus_ready.max(min_bank_ready);
    }

    /// One write-drain hysteresis step on the current write-queue length,
    /// recorded as this cycle's.
    fn step_hysteresis(&mut self, cfg: &DramConfig, now: Cycle) {
        if self.write_q.len() >= cfg.drain_high {
            self.draining = true;
        } else if self.write_q.len() <= cfg.drain_low {
            self.draining = false;
        }
        self.hyst_next = now.0 + 1;
    }

    /// Runs this cycle's hysteresis step ahead of an enqueue, unless the
    /// channel's tick already ran it (see `hyst_next`).
    fn settle_before_enqueue(&mut self, cfg: &DramConfig, now: Cycle) {
        if self.hyst_next <= now.0 {
            self.step_hysteresis(cfg, now);
        }
    }

    /// Lowers [`Channel::issue_floor`] for one newly queued request.
    fn note_enqueue(&mut self, loc: u64) {
        let bus_ready = (self.bus_free_at - 1.0).ceil().max(0.0) as u64;
        let bank_ready = self.banks[unpack(loc, self.bank_bits).0].ready_at;
        self.issue_floor = self.issue_floor.min(bus_ready.max(bank_ready));
    }
}

/// Per-GPU DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that needed activate (and possibly precharge).
    pub row_misses: u64,
    /// Total bytes moved over the data buses.
    pub bytes_transferred: u64,
    /// Enqueue attempts rejected because a queue was full.
    pub queue_rejections: u64,
}

impl DramStats {
    /// Row-buffer hit rate over all serviced accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Shadow checker for DRAM timing legality, used by the protocol
/// sanitizer (`CARVE_SANITIZE=1`).
///
/// It keeps its *own* copy of per-channel bus occupancy and per-bank
/// ready/open-row state, updated only from issued accesses, and checks
/// every new issue against that shadow: the data bus must not overlap a
/// previous burst, a bank must not be re-accessed inside its busy window
/// (the tRP/tRCD/tRC recovery modelled by `ready_at`), a claimed row hit
/// must match the shadow's open row, and the completion must respect the
/// CAS-latency floor. Because the shadow is maintained independently of
/// the model's own `Bank`/`Channel` state, a future refactor that forgets
/// to update either side trips a violation instead of silently bending
/// timing. Only the first violation is kept.
#[derive(Debug, Default)]
pub struct TimingAudit {
    channels: Vec<AuditChannel>,
    violation: Option<String>,
}

#[derive(Debug, Default, Clone)]
struct AuditChannel {
    bus_busy_until: f64,
    banks: Vec<AuditBank>,
}

#[derive(Debug, Default, Clone, Copy)]
struct AuditBank {
    ready_at: u64,
    open_row: Option<u64>,
}

/// Slack for comparing the model's f64 bus arithmetic against the shadow.
const AUDIT_EPS: f64 = 1e-6;

impl TimingAudit {
    /// Creates an empty audit; channel/bank shadows grow on first use.
    pub fn new() -> TimingAudit {
        TimingAudit::default()
    }

    fn bank(&mut self, channel: usize, bank: usize) -> &mut AuditBank {
        if self.channels.len() <= channel {
            self.channels.resize(channel + 1, AuditChannel::default());
        }
        let ch = &mut self.channels[channel];
        if ch.banks.len() <= bank {
            ch.banks.resize(bank + 1, AuditBank::default());
        }
        &mut ch.banks[bank]
    }

    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
    }

    /// Validates one issued access against the shadow state, then rolls
    /// the shadow forward. Arguments mirror the model's issue math:
    /// `start` is the bus start time, `burst` the bus occupancy,
    /// `bank_ready` the cycle the bank recovers, `finish` the completion
    /// cycle, `row_hit` whether the model charged open-row timing.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_issue(
        &mut self,
        channel: usize,
        bank: usize,
        row: u64,
        start: f64,
        burst: f64,
        bank_ready: u64,
        finish: u64,
        row_hit: bool,
        t_cl: u64,
    ) {
        if self.violation.is_some() {
            return;
        }
        let shadow_bus = self
            .channels
            .get(channel)
            .map(|c| c.bus_busy_until)
            .unwrap_or(0.0);
        if start + AUDIT_EPS < shadow_bus {
            self.fail(format!(
                "dram channel {channel}: burst starts at {start} while the data bus \
                 is busy until {shadow_bus} (overlapping serialization)"
            ));
            return;
        }
        let b = *self.bank(channel, bank);
        if start + AUDIT_EPS < b.ready_at as f64 {
            self.fail(format!(
                "dram channel {channel} bank {bank}: access starts at {start} inside \
                 the bank's recovery window (ready at {})",
                b.ready_at
            ));
            return;
        }
        if row_hit && b.open_row != Some(row) {
            self.fail(format!(
                "dram channel {channel} bank {bank}: row-hit timing charged for row \
                 {row} but the shadow open row is {:?}",
                b.open_row
            ));
            return;
        }
        if (finish as f64) + AUDIT_EPS < start + t_cl as f64 {
            self.fail(format!(
                "dram channel {channel} bank {bank}: completion at {finish} beats the \
                 CAS-latency floor (start {start} + tCL {t_cl})"
            ));
            return;
        }
        let bank_state = self.bank(channel, bank);
        bank_state.ready_at = bank_ready;
        bank_state.open_row = Some(row);
        self.channels[channel].bus_busy_until = start + burst;
    }

    /// The first violation found, if any.
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }
}

/// Detailed multi-channel DRAM timing model.
#[derive(Debug)]
pub struct DramModel {
    cfg: DramConfig,
    channels: Vec<Channel>,
    stats: DramStats,
    /// Timing-legality shadow checker; `None` (the default) costs one
    /// pointer check per issued access.
    audit: Option<Box<TimingAudit>>,
    /// Armed transient faults (fault injection): each one forces the next
    /// read completion to fail at delivery and retransmit after a full
    /// re-access penalty. Zero in fault-free runs.
    pending_transients: u32,
    /// Read completions retransmitted after an injected transient fault.
    transient_retries: u64,
}

impl DramModel {
    /// Creates the DRAM subsystem described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration (no channels/banks, zero
    /// bandwidth, a line smaller than 2 bytes, or drain watermarks out of
    /// order).
    pub fn new(cfg: DramConfig) -> DramModel {
        assert!(cfg.channels > 0 && cfg.banks_per_channel > 0);
        assert!(cfg.bytes_per_cycle > 0.0);
        // `decode` packs (row, bank) into one word. With lines of at least
        // two bytes a row index is below `2^63 / banks`, so shifting it by
        // `ceil(log2(banks))` bits (a factor below `2 × banks`) stays below
        // `2^64`: the packing is exact for every address.
        assert!(cfg.line_size >= 2, "line size must be at least 2 bytes");
        assert!(cfg.drain_low < cfg.drain_high && cfg.drain_high <= cfg.queue_depth);
        let bank_bits = cfg.banks_per_channel.next_power_of_two().trailing_zeros();
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); cfg.banks_per_channel],
                bank_bits,
                read_q: BoundedQueue::new(cfg.queue_depth),
                write_q: BoundedQueue::new(cfg.queue_depth),
                in_service: Vec::new(),
                min_finish: u64::MAX,
                issue_floor: u64::MAX,
                bus_free_at: 0.0,
                draining: false,
                hyst_next: 0,
                row_hit_cycles: 0,
                row_miss_cycles: 0,
                bus_cycles: 0.0,
            })
            .collect();
        DramModel {
            cfg,
            channels,
            stats: DramStats::default(),
            audit: None,
            pending_transients: 0,
            transient_retries: 0,
        }
    }

    /// Arms `n` transient faults (fault injection): each forces one read
    /// completion, at the moment it would deliver, to retransmit after a
    /// full re-access penalty (precharge + activate + CAS + burst +
    /// controller pipeline). Bounded by construction — a faulted read
    /// retries once per armed fault and then delivers.
    pub fn inject_transient_faults(&mut self, n: u32) {
        self.pending_transients = self.pending_transients.saturating_add(n);
    }

    /// Read completions retransmitted after an injected transient fault.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// Enables (or disables) the [`TimingAudit`] shadow checker. Enabling
    /// mid-run starts the shadow from an empty state, which is safe: the
    /// shadow only ever *under*-approximates bus/bank occupancy, so it can
    /// miss violations in already-in-flight work but never invent one.
    pub fn set_timing_audit(&mut self, enabled: bool) {
        self.audit = enabled.then(|| Box::new(TimingAudit::new()));
    }

    /// The first timing violation the audit found, if auditing is on.
    pub fn timing_violation(&self) -> Option<&str> {
        self.audit.as_ref().and_then(|a| a.violation())
    }

    #[inline]
    fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_size) % self.cfg.channels as u64) as usize
    }

    /// The line-interleaved address map, evaluated once per request: lines
    /// rotate across channels, then fill a row's worth of lines, then
    /// rotate across banks. Returns the channel and the packed bank/row
    /// word every later scan reads (see [`unpack`]).
    fn decode(&self, addr: u64) -> (usize, u64) {
        let cfg = &self.cfg;
        let ch = self.channel_of(addr);
        let nb = cfg.banks_per_channel as u64;
        let lines_per_row = (cfg.row_bytes / cfg.line_size).max(1);
        let row_line = addr / cfg.line_size / cfg.channels as u64 / lines_per_row;
        let bank_bits = self.channels[ch].bank_bits;
        (ch, ((row_line / nb) << bank_bits) | (row_line % nb))
    }

    /// Enqueues a read. On a full queue the request is rejected and the
    /// caller must retry (back-pressure).
    pub fn try_enqueue_read(&mut self, token: u64, addr: u64, now: Cycle) -> Result<(), u64> {
        let (ch, loc) = self.decode(addr);
        let req = DramRequest {
            token,
            loc,
            arrival: now,
        };
        match self.channels[ch].read_q.try_push(req) {
            Ok(()) => {
                self.channels[ch].note_enqueue(loc);
                Ok(())
            }
            Err(r) => {
                self.stats.queue_rejections += 1;
                Err(r.token)
            }
        }
    }

    /// Enqueues a write (posted; the completion is for stats/ordering).
    pub fn try_enqueue_write(&mut self, token: u64, addr: u64, now: Cycle) -> Result<(), u64> {
        let (ch, loc) = self.decode(addr);
        let req = DramRequest {
            token,
            loc,
            arrival: now,
        };
        // Only the write queue feeds the hysteresis: settle this cycle's
        // step before the length can move.
        self.channels[ch].settle_before_enqueue(&self.cfg, now);
        match self.channels[ch].write_q.try_push(req) {
            Ok(()) => {
                self.channels[ch].note_enqueue(loc);
                Ok(())
            }
            Err(r) => {
                self.stats.queue_rejections += 1;
                Err(r.token)
            }
        }
    }

    /// Whether the read queue owning `addr` has space.
    pub fn can_accept_read(&self, addr: u64) -> bool {
        !self.channels[self.channel_of(addr)].read_q.is_full()
    }

    /// Whether the write queue owning `addr` has space.
    pub fn can_accept_write(&self, addr: u64) -> bool {
        !self.channels[self.channel_of(addr)].write_q.is_full()
    }

    /// Advances every channel one cycle and returns completions due at or
    /// before `now`.
    pub fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Advances every channel one cycle, appending completions due at or
    /// before `now` to `done` (allocation-free variant of
    /// [`DramModel::tick`]; `done` is NOT cleared).
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<Completion>) {
        let cfg = &self.cfg;
        for (ci, ch) in self.channels.iter_mut().enumerate() {
            // 1. Deliver finished accesses (skip the scan until something
            // is due).
            if ch.min_finish <= now.0 {
                let mut i = 0;
                let mut min = u64::MAX;
                while i < ch.in_service.len() {
                    if ch.in_service[i].1 <= now.0 {
                        let (comp, _) = ch.in_service.swap_remove(i);
                        if !comp.is_write && self.pending_transients != 0 {
                            // Injected transient fault: the data failed at
                            // delivery; retransmit after a full re-access
                            // penalty. Strictly future, so the event
                            // horizon and both engines see it identically.
                            self.pending_transients -= 1;
                            self.transient_retries += 1;
                            let burst = (cfg.line_size as f64 / cfg.bytes_per_cycle).ceil() as u64;
                            let penalty =
                                (cfg.t_rp + cfg.t_rcd + cfg.t_cl + burst + cfg.fixed_latency)
                                    .max(1);
                            let refinish = now.0 + penalty;
                            ch.in_service.push((
                                Completion {
                                    token: comp.token,
                                    at: Cycle(refinish),
                                    is_write: false,
                                },
                                refinish,
                            ));
                            min = min.min(refinish);
                            continue;
                        }
                        done.push(comp);
                    } else {
                        min = min.min(ch.in_service[i].1);
                        i += 1;
                    }
                }
                ch.min_finish = min;
            }
            // 2. Write-drain hysteresis.
            ch.step_hysteresis(cfg, now);
            // 3. Issue while the data bus has room this cycle. Skipped
            // outright while `issue_floor` (an underestimate of the
            // earliest successful issue) is in the future: the scan below
            // is read-only when nothing can issue, so this is exact.
            if now.0 < ch.issue_floor {
                continue;
            }
            while ch.bus_free_at <= now.0 as f64 + 1.0 {
                // FR-FCFS with read priority: prefer row-hit reads, then
                // oldest read; during a drain (or when no reads) serve
                // writes the same way.
                let serve_writes = ch.draining || ch.read_q.is_empty();
                let (queue, is_write) = if serve_writes && !ch.write_q.is_empty() {
                    (&mut ch.write_q, true)
                } else if !ch.read_q.is_empty() {
                    (&mut ch.read_q, false)
                } else {
                    break;
                };
                // Find a row-hit request on a ready bank; else oldest on a
                // ready bank; else give up this cycle.
                let pick = {
                    let banks = &ch.banks;
                    let mut hit_idx: Option<usize> = None;
                    let mut ready_idx: Option<usize> = None;
                    for (i, req) in queue.iter().enumerate() {
                        let (b, row) = unpack(req.loc, ch.bank_bits);
                        if banks[b].ready_at <= now.0 {
                            if banks[b].open_row == Some(row) {
                                hit_idx = Some(i);
                                break;
                            }
                            if ready_idx.is_none() {
                                ready_idx = Some(i);
                            }
                        }
                    }
                    hit_idx.or(ready_idx)
                };
                let Some(idx) = pick else { break };
                let req = queue
                    .remove(idx)
                    // audit:allow(tick-path-panics) idx was computed from this queue two lines up; a miss is memory corruption, not a recoverable SimError
                    .expect("picked index must exist");
                // Timing.
                let (bank_idx, row) = unpack(req.loc, ch.bank_bits);
                let bank = &mut ch.banks[bank_idx];
                let start = (now.0 as f64).max(ch.bus_free_at).max(bank.ready_at as f64);
                let row_hit = bank.open_row == Some(row);
                let access_lat = match bank.open_row {
                    Some(r) if r == row => {
                        self.stats.row_hits += 1;
                        cfg.t_cl
                    }
                    Some(_) => {
                        self.stats.row_misses += 1;
                        cfg.t_rp + cfg.t_rcd + cfg.t_cl
                    }
                    None => {
                        self.stats.row_misses += 1;
                        cfg.t_rcd + cfg.t_cl
                    }
                };
                let burst = cfg.line_size as f64 / cfg.bytes_per_cycle;
                // The bank is occupied for the DRAM timing only; the fixed
                // controller/PHY pipeline latency delays the *completion*
                // without blocking the bank.
                let bank_ready = start + access_lat as f64 + burst;
                let finish = bank_ready + cfg.fixed_latency as f64;
                bank.open_row = Some(row);
                bank.ready_at = bank_ready as u64;
                ch.bus_free_at = start + burst;
                if row_hit {
                    ch.row_hit_cycles += access_lat;
                } else {
                    ch.row_miss_cycles += access_lat;
                }
                ch.bus_cycles += burst;
                self.stats.bytes_transferred += cfg.line_size;
                if is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
                let finish = finish.ceil() as u64;
                if let Some(audit) = self.audit.as_deref_mut() {
                    audit.observe_issue(
                        ci,
                        bank_idx,
                        row,
                        start,
                        burst,
                        bank_ready as u64,
                        finish,
                        row_hit,
                        cfg.t_cl,
                    );
                }
                ch.in_service.push((
                    Completion {
                        token: req.token,
                        at: Cycle(finish),
                        is_write,
                    },
                    finish,
                ));
                ch.min_finish = ch.min_finish.min(finish);
                let _ = req.arrival; // latency accounting happens at the caller
            }
            ch.recompute_issue_floor();
        }
    }

    /// Whether any queue or bank still has work in flight.
    pub fn is_idle(&self) -> bool {
        self.channels
            .iter()
            .all(|c| c.read_q.is_empty() && c.write_q.is_empty() && c.in_service.is_empty())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Per-channel occupancy breakdowns for the cycle-accounting profiler.
    /// The caller owns the GPU index ([`DramChannelProfile::gpu`] is left
    /// 0 here); row-hit/row-miss are bank-time (banks overlap, so their
    /// sum can exceed wall-clock), bus is serialized channel time, and
    /// refresh is always 0 because refresh is not modeled.
    pub fn channel_profiles(&self) -> Vec<DramChannelProfile> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, ch)| DramChannelProfile {
                gpu: 0,
                channel: i,
                row_hit_cycles: ch.row_hit_cycles,
                row_miss_cycles: ch.row_miss_cycles,
                bus_cycles: ch.bus_cycles,
                refresh_cycles: 0,
            })
            .collect()
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// One diagnostic line per channel with queued or in-service work:
    /// queue depths, drain state, and the oldest queued request's arrival
    /// cycle. Empty when the subsystem is idle.
    pub fn occupancy_report(&self) -> Vec<String> {
        self.snapshot().occupancy_report()
    }

    /// Point-in-time occupancy of every channel. Read-only; the single
    /// source behind [`DramModel::occupancy_report`] and the telemetry
    /// sampler.
    pub fn snapshot(&self) -> DramSnapshot {
        DramSnapshot {
            channels: self
                .channels
                .iter()
                .map(|ch| ChannelSnapshot {
                    read_q: ch.read_q.len(),
                    write_q: ch.write_q.len(),
                    in_service: ch.in_service.len(),
                    draining: ch.draining,
                    oldest_arrival: ch
                        .read_q
                        .iter()
                        .chain(ch.write_q.iter())
                        .map(|r| r.arrival.0)
                        .min(),
                })
                .collect(),
        }
    }
}

/// Point-in-time occupancy of one DRAM channel (see [`DramSnapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// Queued reads.
    pub read_q: usize,
    /// Queued writes.
    pub write_q: usize,
    /// Requests past arbitration, waiting on bank/bus timing.
    pub in_service: usize,
    /// Whether the channel is in a write-drain batch.
    pub draining: bool,
    /// Arrival cycle of the oldest queued request, if any.
    pub oldest_arrival: Option<u64>,
}

impl ChannelSnapshot {
    /// Whether the channel has any queued or in-service work.
    pub fn is_busy(&self) -> bool {
        self.read_q > 0 || self.write_q > 0 || self.in_service > 0
    }
}

/// Point-in-time occupancy snapshot of a whole DRAM subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramSnapshot {
    /// Per-channel occupancy, in channel order.
    pub channels: Vec<ChannelSnapshot>,
}

impl DramSnapshot {
    /// Human-readable lines naming every busy channel (empty when idle).
    /// Used verbatim in watchdog stall reports.
    pub fn occupancy_report(&self) -> Vec<String> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, ch)| ch.is_busy())
            .map(|(i, ch)| {
                format!(
                    "channel {}: read_q={} write_q={} in_service={} draining={}{}",
                    i,
                    ch.read_q,
                    ch.write_q,
                    ch.in_service,
                    ch.draining,
                    ch.oldest_arrival
                        .map_or(String::new(), |a| format!(" oldest_arrival={a}")),
                )
            })
            .collect()
    }
}

impl NextEvent for DramModel {
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.0 + 1;
        let mut horizon: Option<Cycle> = None;
        for ch in &self.channels {
            // The floor is the lowest possible horizon; stop scanning.
            if horizon == Some(Cycle(floor)) {
                return horizon;
            }
            // Deliveries: earliest in-service finish (cached).
            if ch.min_finish != u64::MAX {
                horizon = earliest(horizon, Some(Cycle(ch.min_finish.max(floor))));
            }
            // Issues: the bus must have room (`bus_free_at <= t + 1`) and
            // some queued request's bank must be ready. `issue_floor`
            // caches exactly that (an underestimate — the scheduler may be
            // serving the other queue — which is safe: the engine just
            // performs a no-op tick there).
            if ch.issue_floor != u64::MAX {
                horizon = earliest(horizon, Some(Cycle(ch.issue_floor.max(floor))));
            }
        }
        horizon
    }
}

/// Flat bandwidth-latency memory model (ablation alternative).
///
/// Every access completes after `latency` plus queueing delay imposed by an
/// aggregate bytes/cycle budget. No banks, rows or scheduling.
#[derive(Debug)]
pub struct FlatMemory {
    latency: u64,
    bytes_per_cycle: f64,
    line_size: u64,
    next_slot: f64,
    in_service: Vec<(Completion, u64)>,
    stats: DramStats,
    pending_transients: u32,
    transient_retries: u64,
}

impl FlatMemory {
    /// Creates a flat model with fixed `latency` and aggregate bandwidth.
    pub fn new(latency: u64, bytes_per_cycle: f64, line_size: u64) -> FlatMemory {
        assert!(bytes_per_cycle > 0.0 && line_size > 0);
        FlatMemory {
            latency,
            bytes_per_cycle,
            line_size,
            next_slot: 0.0,
            in_service: Vec::new(),
            stats: DramStats::default(),
            pending_transients: 0,
            transient_retries: 0,
        }
    }

    /// Arms `n` transient faults: each forces one read completion to
    /// retransmit after a full latency + burst penalty (the flat-model
    /// analogue of [`DramModel::inject_transient_faults`]).
    pub fn inject_transient_faults(&mut self, n: u32) {
        self.pending_transients = self.pending_transients.saturating_add(n);
    }

    /// Read completions retransmitted after an injected transient fault.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// Enqueues an access; flat model never rejects.
    pub fn enqueue(&mut self, token: u64, is_write: bool, now: Cycle) {
        let start = (now.0 as f64).max(self.next_slot);
        let burst = self.line_size as f64 / self.bytes_per_cycle;
        self.next_slot = start + burst;
        let finish = (start + self.latency as f64 + burst).ceil() as u64;
        self.stats.bytes_transferred += self.line_size;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.in_service.push((
            Completion {
                token,
                at: Cycle(finish),
                is_write,
            },
            finish,
        ));
    }

    /// Returns completions due at or before `now`.
    pub fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Appends completions due at or before `now` to `done`
    /// (allocation-free variant of [`FlatMemory::tick`]).
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<Completion>) {
        let mut i = 0;
        while i < self.in_service.len() {
            if self.in_service[i].1 <= now.0 {
                let (comp, _) = self.in_service.swap_remove(i);
                if !comp.is_write && self.pending_transients != 0 {
                    // Injected transient fault: retransmit strictly in
                    // the future (see DramModel::tick_into).
                    self.pending_transients -= 1;
                    self.transient_retries += 1;
                    let burst = (self.line_size as f64 / self.bytes_per_cycle).ceil() as u64;
                    let refinish = now.0 + (self.latency + burst).max(1);
                    self.in_service.push((
                        Completion {
                            token: comp.token,
                            at: Cycle(refinish),
                            is_write: false,
                        },
                        refinish,
                    ));
                    continue;
                }
                done.push(comp);
            } else {
                i += 1;
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Whether nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_service.is_empty()
    }

    /// Accesses currently in service.
    pub fn in_flight(&self) -> usize {
        self.in_service.len()
    }
}

impl NextEvent for FlatMemory {
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.in_service
            .iter()
            .map(|&(_, finish)| finish.max(now.0 + 1))
            .min()
            .map(Cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DramConfig {
        DramConfig {
            channels: 2,
            banks_per_channel: 4,
            bytes_per_cycle: 16.0,
            t_rcd: 14,
            t_rp: 14,
            t_cl: 14,
            fixed_latency: 0,
            queue_depth: 8,
            drain_high: 6,
            drain_low: 2,
            row_bytes: 2048,
            line_size: 128,
        }
    }

    fn run_until_done(dram: &mut DramModel, limit: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        for c in 0..limit {
            out.extend(dram.tick(Cycle(c)));
            if dram.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn decode_packs_bank_and_row_exactly() {
        use sim_core::rng::Stream;
        let mut rng = Stream::from_seed(3);
        // Power-of-two and odd bank counts, tiny and huge rows, the
        // smallest line `new` accepts.
        for (channels, banks, row_bytes, line_size) in [
            (8, 16, 2048, 128),
            (3, 5, 1024, 64),
            (1, 1, 2, 2),
            (7, 17, 64, 128),
            (1, 3, 2, 2),
        ] {
            let dram = DramModel::new(DramConfig {
                channels,
                banks_per_channel: banks,
                row_bytes,
                line_size,
                ..small_cfg()
            });
            let edges = [0, 1, u64::MAX, u64::MAX - line_size, 1 << 63];
            let addrs = edges.into_iter().chain((0..2000).map(|_| rng.next_u64()));
            for addr in addrs {
                let rl = addr / line_size / channels as u64 / (row_bytes / line_size).max(1);
                let (ch, loc) = dram.decode(addr);
                assert_eq!(ch, dram.channel_of(addr));
                let want = ((rl % banks as u64) as usize, rl / banks as u64);
                assert_eq!(unpack(loc, dram.channels[ch].bank_bits), want, "{addr:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn one_byte_lines_are_rejected() {
        let _ = DramModel::new(DramConfig {
            line_size: 1,
            ..small_cfg()
        });
    }

    #[test]
    fn timing_audit_passes_a_legal_sequence() {
        let mut a = TimingAudit::new();
        // Closed bank: activate + CAS, burst of 8 cycles on the bus.
        a.observe_issue(0, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        // Row hit on the now-open row, after the bus frees.
        a.observe_issue(0, 0, 5, 36.0, 8.0, 58, 58, true, 14);
        // A different channel has its own bus: overlapping is fine.
        a.observe_issue(1, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        assert_eq!(a.violation(), None);
    }

    #[test]
    fn timing_audit_catches_bus_overlap() {
        let mut a = TimingAudit::new();
        a.observe_issue(0, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        // Second burst starts while the first still owns the data bus.
        a.observe_issue(0, 1, 9, 4.0, 8.0, 40, 40, false, 14);
        let v = a.violation().expect("violation latched");
        assert!(v.contains("bus"), "names the bus: {v}");
    }

    #[test]
    fn timing_audit_catches_bank_recovery_breach() {
        let mut a = TimingAudit::new();
        a.observe_issue(0, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        // Same bank re-issued at cycle 10 < ready_at 36 (bus is free by
        // claiming a start after the burst but inside recovery).
        a.observe_issue(0, 0, 5, 10.0, 8.0, 60, 60, true, 14);
        let v = a.violation().expect("violation latched");
        assert!(v.contains("recovery"), "names the window: {v}");
    }

    #[test]
    fn timing_audit_catches_false_row_hit() {
        let mut a = TimingAudit::new();
        a.observe_issue(0, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        // Row-hit timing charged for a different row than the open one.
        a.observe_issue(0, 0, 6, 40.0, 8.0, 62, 62, true, 14);
        let v = a.violation().expect("violation latched");
        assert!(v.contains("row"), "names the row: {v}");
    }

    #[test]
    fn timing_audit_catches_cas_floor_breach() {
        let mut a = TimingAudit::new();
        // Completion before start + tCL is physically impossible.
        a.observe_issue(0, 0, 5, 0.0, 8.0, 10, 10, false, 14);
        let v = a.violation().expect("violation latched");
        assert!(v.contains("CAS"), "names the floor: {v}");
    }

    #[test]
    fn timing_audit_keeps_first_violation() {
        let mut a = TimingAudit::new();
        a.observe_issue(0, 0, 5, 0.0, 8.0, 10, 10, false, 14); // CAS breach
        a.observe_issue(0, 0, 6, 0.0, 8.0, 36, 36, true, 14); // would be row breach
        assert!(a.violation().unwrap().contains("CAS"));
    }

    #[test]
    fn audited_model_runs_clean_and_costs_nothing_when_off() {
        let mut plain = DramModel::new(small_cfg());
        let mut audited = DramModel::new(small_cfg());
        audited.set_timing_audit(true);
        for (i, addr) in (0..32u64).map(|i| (i, i * 128)).collect::<Vec<_>>() {
            plain.try_enqueue_read(i, addr, Cycle(0)).ok();
            audited.try_enqueue_read(i, addr, Cycle(0)).ok();
        }
        let a = run_until_done(&mut plain, 10_000);
        let b = run_until_done(&mut audited, 10_000);
        assert_eq!(audited.timing_violation(), None);
        // The audit is read-only: completions are bit-identical.
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.token, x.at, x.is_write), (y.token, y.at, y.is_write));
        }
    }

    #[test]
    fn single_read_completes_with_activate_latency() {
        let mut dram = DramModel::new(small_cfg());
        dram.try_enqueue_read(7, 0, Cycle(0)).unwrap();
        let done = run_until_done(&mut dram, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 7);
        assert!(!done[0].is_write);
        // tRCD + tCL + burst(128/16=8) = 36
        assert_eq!(done[0].at, Cycle(36));
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let cfg = small_cfg();
        let mut dram = DramModel::new(cfg);
        // Two lines in the same row (consecutive lines on channel 0:
        // addresses 0 and 256 with 2 channels).
        dram.try_enqueue_read(1, 0, Cycle(0)).unwrap();
        dram.try_enqueue_read(2, 256, Cycle(0)).unwrap();
        let done = run_until_done(&mut dram, 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(dram.stats().row_hits, 1);
        assert_eq!(dram.stats().row_misses, 1);
    }

    #[test]
    fn channel_interleaving_spreads_lines() {
        let dram = DramModel::new(small_cfg());
        assert_ne!(dram.channel_of(0), dram.channel_of(128));
        assert_eq!(dram.channel_of(0), dram.channel_of(256));
    }

    #[test]
    fn queue_depth_is_enforced() {
        let mut dram = DramModel::new(small_cfg());
        for i in 0..8 {
            // all map to channel 0
            dram.try_enqueue_read(i, i * 256, Cycle(0)).unwrap();
        }
        assert!(dram.try_enqueue_read(99, 9 * 256, Cycle(0)).is_err());
        assert!(dram.can_accept_read(128)); // other channel still open
        assert_eq!(dram.stats().queue_rejections, 1);
    }

    #[test]
    fn reads_prioritized_over_writes_until_drain() {
        let mut dram = DramModel::new(small_cfg());
        for i in 0..4 {
            dram.try_enqueue_write(100 + i, i * 256, Cycle(0)).unwrap();
        }
        dram.try_enqueue_read(1, 0x10000, Cycle(0)).unwrap();
        let done = run_until_done(&mut dram, 5000);
        let first_read_pos = done.iter().position(|c| !c.is_write).unwrap();
        // The read finishes before at least the later writes despite
        // arriving last (write queue below drain_high, reads priority).
        assert!(first_read_pos < done.len() - 1);
        assert_eq!(done.len(), 5);
    }

    #[test]
    fn write_drain_kicks_in_at_high_watermark() {
        let mut dram = DramModel::new(small_cfg());
        for i in 0..6 {
            dram.try_enqueue_write(i, i * 256, Cycle(0)).unwrap();
        }
        let done = run_until_done(&mut dram, 5000);
        assert_eq!(done.len(), 6);
        assert_eq!(dram.stats().writes, 6);
    }

    #[test]
    fn bandwidth_bounds_throughput() {
        let cfg = small_cfg(); // 2ch x 16 B/cyc = 32 B/cyc aggregate
        let mut dram = DramModel::new(cfg);
        // Saturate: 64 sequential lines.
        let mut issued = 0u64;
        let mut completed = 0usize;
        let mut last = 0u64;
        for c in 0..100_000u64 {
            while issued < 64 {
                if dram
                    .try_enqueue_read(issued, issued * 128, Cycle(c))
                    .is_ok()
                {
                    issued += 1;
                } else {
                    break;
                }
            }
            let done = dram.tick(Cycle(c));
            completed += done.len();
            if completed == 64 {
                last = c;
                break;
            }
        }
        assert_eq!(completed, 64);
        // 64 lines * 128B = 8KB at 32 B/cyc = 256 cycles minimum.
        assert!(last >= 256, "finished unrealistically fast: {last}");
        assert!(last < 1000, "took unreasonably long: {last}");
    }

    #[test]
    fn flat_memory_latency_and_order() {
        let mut m = FlatMemory::new(100, 16.0, 128);
        m.enqueue(1, false, Cycle(0));
        m.enqueue(2, false, Cycle(0));
        let mut done = Vec::new();
        for c in 0..500u64 {
            done.extend(m.tick(Cycle(c)));
        }
        assert_eq!(done.len(), 2);
        // First: 100 + 8 = 108; second starts at bus slot 8: 8+100+8=116.
        assert_eq!(done[0].at, Cycle(108));
        assert_eq!(done[1].at, Cycle(116));
        assert!(m.is_idle());
    }

    #[test]
    #[should_panic]
    fn bad_drain_watermarks_panic() {
        let mut cfg = small_cfg();
        cfg.drain_low = cfg.drain_high;
        let _ = DramModel::new(cfg);
    }

    /// Drives `dram` with the event-skipping discipline and returns every
    /// (cycle, token) completion.
    fn run_skipping(dram: &mut DramModel, limit: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut now = 0u64;
        while now < limit {
            for c in dram.tick(Cycle(now)) {
                out.push((now, c.token));
            }
            match dram.next_event(Cycle(now)) {
                Some(next) => now = next.0,
                None => break,
            }
        }
        out
    }

    #[test]
    fn next_event_reproduces_stepped_completions() {
        let mk = || {
            let mut dram = DramModel::new(small_cfg());
            // A mix of row hits, misses, both channels, and writes.
            for (i, addr) in [0u64, 256, 128, 0x10000, 384, 0x20080]
                .into_iter()
                .enumerate()
            {
                dram.try_enqueue_read(i as u64, addr, Cycle(0)).unwrap();
            }
            dram.try_enqueue_write(100, 512, Cycle(0)).unwrap();
            dram
        };
        let mut stepped = mk();
        let mut by_step = Vec::new();
        for c in 0..5000u64 {
            for done in stepped.tick(Cycle(c)) {
                by_step.push((c, done.token));
            }
        }
        let mut skipped = mk();
        let by_skip = run_skipping(&mut skipped, 5000);
        assert_eq!(by_skip, by_step);
        assert_eq!(skipped.stats(), stepped.stats());
        assert!(skipped.is_idle());
    }

    #[test]
    fn next_event_is_none_when_idle_and_future_otherwise() {
        let mut dram = DramModel::new(small_cfg());
        assert_eq!(dram.next_event(Cycle(0)), None);
        dram.try_enqueue_read(1, 0, Cycle(0)).unwrap();
        let ev = dram.next_event(Cycle(0)).expect("queued work has an event");
        assert!(ev.0 >= 1);
    }

    #[test]
    fn flat_memory_next_event_matches_completion() {
        let mut m = FlatMemory::new(100, 16.0, 128);
        assert_eq!(m.next_event(Cycle(0)), None);
        m.enqueue(1, false, Cycle(0));
        let ev = m.next_event(Cycle(0)).unwrap();
        assert!(m.tick(Cycle(ev.0 - 1)).is_empty());
        assert_eq!(m.tick(ev).len(), 1);
    }

    #[test]
    fn occupancy_report_names_busy_channels_only() {
        let mut dram = DramModel::new(small_cfg());
        assert!(dram.occupancy_report().is_empty());
        dram.try_enqueue_read(1, 0, Cycle(5)).unwrap(); // channel 0
        dram.try_enqueue_write(2, 0, Cycle(7)).unwrap();
        let report = dram.occupancy_report();
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("channel 0"));
        assert!(report[0].contains("read_q=1"));
        assert!(report[0].contains("write_q=1"));
        assert!(report[0].contains("oldest_arrival=5"));
        run_until_done(&mut dram, 5000);
        assert!(dram.occupancy_report().is_empty());
    }

    #[test]
    fn transient_fault_delays_one_read_by_a_full_reaccess() {
        let mut dram = DramModel::new(small_cfg());
        dram.inject_transient_faults(1);
        dram.try_enqueue_read(7, 0, Cycle(0)).unwrap();
        let done = run_until_done(&mut dram, 5000);
        assert_eq!(done.len(), 1, "bounded: the retry still delivers");
        assert_eq!(done[0].token, 7);
        // Clean finish would be 36 (tRCD+tCL+burst); the retransmission
        // adds tRP+tRCD+tCL+burst = 14+14+14+8 = 50 on top.
        assert_eq!(done[0].at, Cycle(86));
        assert_eq!(dram.transient_retries(), 1);
        // Subsequent reads are unaffected once the fault is consumed.
        dram.try_enqueue_read(8, 0x40000, Cycle(1000)).unwrap();
        let done = run_until_done(&mut dram, 5000);
        assert_eq!(done.len(), 1);
        assert_eq!(dram.transient_retries(), 1);
    }

    #[test]
    fn transient_fault_skips_writes_and_keeps_event_horizon_exact() {
        let mut dram = DramModel::new(small_cfg());
        dram.inject_transient_faults(1);
        dram.try_enqueue_write(1, 0, Cycle(0)).unwrap();
        dram.try_enqueue_read(2, 0x10000, Cycle(0)).unwrap();
        // Event-skip discipline must see the retried completion too.
        let by_skip = run_skipping(&mut dram, 10_000);
        assert_eq!(by_skip.len(), 2);
        assert_eq!(dram.transient_retries(), 1, "only the read was faulted");
        assert!(dram.is_idle());
        // Stepping reproduces the same (cycle, token) stream.
        let mut stepped = DramModel::new(small_cfg());
        stepped.inject_transient_faults(1);
        stepped.try_enqueue_write(1, 0, Cycle(0)).unwrap();
        stepped.try_enqueue_read(2, 0x10000, Cycle(0)).unwrap();
        let mut by_step = Vec::new();
        for c in 0..10_000u64 {
            for done in stepped.tick(Cycle(c)) {
                by_step.push((c, done.token));
            }
        }
        assert_eq!(by_skip, by_step);
    }

    #[test]
    fn lazy_hysteresis_matches_stepping_when_enqueues_land_between_ticks() {
        // A caller that ticks the model only when it is due (its horizon
        // reached, or something was enqueued the cycle before) must see
        // the same completions, at the same cycles, as one that ticks it
        // every cycle. The hard case: a write drain empties the write
        // queue down to `drain_low` while the one busy bank keeps the
        // model asleep, then a late write arrives. Stepping ends the drain
        // on the first sleeping cycle, so the queued reads go first; a
        // model that lost that hysteresis step would keep draining.
        // Sweeping the late write's cycle covers every point of the sleep.
        let cfg = small_cfg();
        // Channel 0, bank 0, row `k`: every access conflicts.
        let addr = |k: u64| k * 128 * 2 * 16 * 4;
        let run = |late: u64, lazy: bool| {
            let mut dram = DramModel::new(cfg.clone());
            for k in 1..=cfg.drain_high as u64 {
                dram.try_enqueue_write(k, addr(k), Cycle(0)).unwrap();
            }
            dram.try_enqueue_read(100, addr(20), Cycle(0)).unwrap();
            dram.try_enqueue_read(101, addr(21), Cycle(0)).unwrap();
            let mut wake = 0u64;
            let mut out = Vec::new();
            for c in 0..2_000u64 {
                if !lazy || wake <= c {
                    for done in dram.tick(Cycle(c)) {
                        out.push((c, done.token));
                    }
                    wake = dram.next_event(Cycle(c)).map_or(u64::MAX, |n| n.0);
                }
                if c == late {
                    dram.try_enqueue_write(200, addr(30), Cycle(c)).unwrap();
                    wake = c + 1;
                }
            }
            (out, dram.stats())
        };
        let mut orders = std::collections::HashSet::new();
        for late in 1..400 {
            let stepped = run(late, false);
            assert_eq!(stepped.0.len(), 9, "late write at {late}");
            assert_eq!(run(late, true), stepped, "late write at {late}");
            orders.insert(stepped.0.iter().map(|&(_, t)| t).collect::<Vec<_>>());
        }
        // The sweep really straddles the drain's end: the late write is
        // served before the reads for some cycles and after for others.
        assert!(orders.len() > 1, "{orders:?}");
    }

    #[test]
    fn flat_memory_transient_fault_retries_reads() {
        let mut m = FlatMemory::new(100, 16.0, 128);
        m.inject_transient_faults(1);
        m.enqueue(1, false, Cycle(0));
        let mut done = Vec::new();
        for c in 0..1000u64 {
            done.extend(m.tick(Cycle(c)));
        }
        // Clean: 108. Faulted at delivery, retransmit = +100+8.
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, Cycle(216));
        assert_eq!(m.transient_retries(), 1);
    }

    #[test]
    fn stats_row_hit_rate() {
        let mut s = DramStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        s.row_hits = 3;
        s.row_misses = 1;
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
