//! The system-level wake calendar (DESIGN.md §3).
//!
//! Every GPU core and DRAM has one slot holding its cached
//! [`NextEvent`] horizon: the earliest cycle at which ticking it could do
//! anything. A tick visits only the components whose slot is due, and the
//! event-skip engine's next cycle is a min over the slots instead of a
//! fold over every component's horizon.
//!
//! A slot value of 0 doubles as "on this tick's dirty list": the
//! component was ticked or mutated this tick and gets a fresh horizon
//! when the tick ends. Touching sets it, so a component mutated before
//! its phase is visited in that same phase, exactly as under stepping.
//! The stepping engine pins every slot at 0 and never reschedules, so
//! every phase visits every component and no horizon is ever consulted:
//! it stays an oracle independent of the calendar.
//!
//! The cores on a tick's dirty list are the only cores whose state that
//! tick changed, so [`WakeCalendar::reschedule`] keeps the list for the
//! cycle profiler, which re-derives stall classes for those GPUs only.
//! Under stepping the list is every core, every tick.

use carve_dram::{DramModel, FlatMemory};
use carve_gpu::GpuCore;
use sim_core::event::NextEvent;
use sim_core::Cycle;

/// Deterministic work counters of one run: how many ticks the engine
/// executed, how many core and DRAM visits the calendar executed or
/// skipped, and how much link draining the network did. Exact and
/// host-independent, so two runs of one point agree on them to the unit.
/// Under [`crate::EngineMode::Step`] nothing is ever skipped; the drain
/// counts are the same under both engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// System ticks executed (frozen cycles and skipped cycles excluded).
    pub ticks: u64,
    /// GPU-core ticks executed.
    pub core_visits: u64,
    /// GPU-core ticks skipped because the core was not due.
    pub core_skips: u64,
    /// DRAM ticks executed.
    pub dram_visits: u64,
    /// DRAM ticks skipped because the DRAM was not due.
    pub dram_skips: u64,
    /// Ticks on which the network drained at least one link.
    pub net_drains: u64,
    /// Links drained, summed over those ticks.
    pub link_drains: u64,
}

impl WorkCounters {
    /// Share of core and DRAM visits the calendar skipped (0 when nothing
    /// was ticked).
    pub fn skip_share(&self) -> f64 {
        let skipped = self.core_skips + self.dram_skips;
        let total = skipped + self.core_visits + self.dram_visits;
        if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        }
    }

    /// One-line rendering for the `carve-sim` stderr summary.
    pub fn summary(&self) -> String {
        format!(
            "work: ticks={} core={}/{} dram={}/{} skipped={:.1}% \
             net_drains={} link_drains={}",
            self.ticks,
            self.core_visits,
            self.core_visits + self.core_skips,
            self.dram_visits,
            self.dram_visits + self.dram_skips,
            100.0 * self.skip_share(),
            self.net_drains,
            self.link_drains
        )
    }
}

/// Cached horizons of the per-GPU components plus CPU memory.
pub(crate) struct WakeCalendar {
    /// Per-GPU core wake cycle (`u64::MAX`: passive until touched).
    pub(crate) core: Vec<u64>,
    /// Per-GPU DRAM wake cycle.
    pub(crate) dram: Vec<u64>,
    /// CPU memory wake cycle.
    pub(crate) cpu: u64,
    core_dirty: Vec<usize>,
    /// The last completed tick's core dirty list (see
    /// [`WakeCalendar::ticked_cores`]); every core under stepping.
    ticked: Vec<usize>,
    dram_dirty: Vec<usize>,
    /// The stepping oracle: slots pinned at 0, never rescheduled.
    step: bool,
    pub(crate) work: WorkCounters,
}

/// A component's horizon as a slot value.
#[inline]
fn slot(horizon: Option<Cycle>) -> u64 {
    horizon.map_or(u64::MAX, |c| c.0)
}

impl WakeCalendar {
    /// A calendar with every component due at the first tick.
    pub(crate) fn new(num_gpus: usize, step: bool) -> WakeCalendar {
        let all = || {
            if step {
                Vec::new()
            } else {
                (0..num_gpus).collect()
            }
        };
        WakeCalendar {
            core: vec![0; num_gpus],
            dram: vec![0; num_gpus],
            cpu: 0,
            core_dirty: all(),
            ticked: (0..num_gpus).collect(),
            dram_dirty: all(),
            step,
            work: WorkCounters::default(),
        }
    }

    /// Marks core `g` as mutated (or about to tick): due now, rescheduled
    /// when the tick ends.
    #[inline]
    pub(crate) fn touch_core(&mut self, g: usize) {
        if self.core[g] != 0 {
            self.core[g] = 0;
            self.core_dirty.push(g);
        }
    }

    /// [`WakeCalendar::touch_core`] for DRAM `g`.
    #[inline]
    pub(crate) fn touch_dram(&mut self, g: usize) {
        if self.dram[g] != 0 {
            self.dram[g] = 0;
            self.dram_dirty.push(g);
        }
    }

    /// Marks CPU memory as mutated (or about to tick).
    #[inline]
    pub(crate) fn touch_cpu(&mut self) {
        self.cpu = 0;
    }

    /// Gives every component ticked or touched during the tick at `now` its
    /// fresh horizon. A no-op under stepping.
    pub(crate) fn reschedule(
        &mut self,
        now: Cycle,
        cores: &[GpuCore],
        drams: &[DramModel],
        cpu_mem: &FlatMemory,
    ) {
        if self.step {
            return;
        }
        std::mem::swap(&mut self.ticked, &mut self.core_dirty);
        self.core_dirty.clear();
        for &g in &self.ticked {
            self.core[g] = slot(cores[g].next_event(now));
        }
        for g in self.dram_dirty.drain(..) {
            self.dram[g] = slot(drams[g].next_event(now));
        }
        if self.cpu == 0 {
            self.cpu = slot(cpu_mem.next_event(now));
        }
    }

    /// The last completed tick's core dirty list: every core ticked or
    /// touched since the tick before it ended. No other core's state
    /// changed in that time.
    pub(crate) fn ticked_cores(&self) -> &[usize] {
        &self.ticked
    }

    /// The earliest cached horizon (`u64::MAX` when every component is
    /// passive). May lie at or below the current cycle while a freeze
    /// suppresses ticks; the caller clamps.
    pub(crate) fn earliest(&self) -> u64 {
        let cores = self.core.iter().copied().min().unwrap_or(u64::MAX);
        let drams = self.dram.iter().copied().min().unwrap_or(u64::MAX);
        cores.min(drams).min(self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_dedups_and_step_never_lists() {
        let mut cal = WakeCalendar::new(4, false);
        cal.core_dirty.clear();
        cal.core = vec![10, 20, u64::MAX, 5];
        cal.touch_core(2);
        cal.touch_core(2);
        assert_eq!(cal.core_dirty, vec![2]);
        assert_eq!(cal.core[2], 0);
        assert_eq!(cal.earliest(), 0);
        let mut step = WakeCalendar::new(4, true);
        step.touch_core(1);
        step.touch_dram(3);
        assert!(step.core_dirty.is_empty() && step.dram_dirty.is_empty());
        assert_eq!(step.ticked_cores(), [0, 1, 2, 3], "every core, every tick");
        assert!(step.core.iter().chain(&step.dram).all(|&w| w == 0));
    }

    #[test]
    fn work_summary_reports_skip_share() {
        let w = WorkCounters {
            ticks: 10,
            core_visits: 10,
            core_skips: 30,
            dram_visits: 0,
            dram_skips: 40,
            net_drains: 3,
            link_drains: 7,
        };
        assert!((w.skip_share() - 70.0 / 80.0).abs() < 1e-12);
        assert_eq!(
            w.summary(),
            "work: ticks=10 core=10/40 dram=0/40 skipped=87.5% net_drains=3 link_drains=7"
        );
        assert_eq!(WorkCounters::default().skip_share(), 0.0);
    }
}
