//! In-flight system transactions and the per-GPU wait census over them.
//!
//! [`PendingTable`] wraps the token slab so its only two mutators that
//! create or retire a flow, [`PendingTable::insert`] and
//! [`PendingTable::remove`], also keep a per-GPU count of the flows each
//! GPU's warps are waiting on, by kind. The cycle profiler reads the
//! counts as [`GpuWaitFlags`] instead of walking the slab every tick
//! (DESIGN.md §14). The one in-place rewrite,
//! [`PendingTable::set_phase`], changes only a flow's phase, never its
//! GPU or cause, so it cannot move a count.

use sim_core::fast::Slab;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemotePhase {
    Go,
    AtHome,
    Return,
}

/// Why a remote read crossed the fabric — carried on the pending entry
/// purely so the cycle-accounting profiler can attribute the resulting
/// warp stall (remote-link vs rdc-miss vs epoch-flush vs
/// coherence-invalidate). Never consulted by protocol logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemoteCause {
    /// Plain remote-home read (no RDC in the design, or predictor bypass
    /// without an attributable miss kind).
    Plain,
    /// Launched after an RDC capacity/conflict miss (or a mispredicted
    /// probe bypass).
    RdcMiss,
    /// Launched after the RDC copy went stale at a software-coherence
    /// epoch flush.
    Epoch,
    /// Re-fetch of a line dropped by a hardware-coherence invalidation.
    Inval,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Pending {
    /// Local DRAM read feeding a core miss.
    LocalRead { gpu: usize, tag: u64 },
    /// Local DRAM read probing the RDC for a remote line.
    RdcProbe {
        gpu: usize,
        tag: u64,
        line: u64,
        home: usize,
    },
    /// Remote read flow: requester → home → (L2/DRAM) → requester.
    RemoteRead {
        requester: usize,
        tag: u64,
        line: u64,
        home: usize,
        phase: RemotePhase,
        cause: RemoteCause,
    },
    /// System-memory read flow over the CPU links.
    CpuRead {
        gpu: usize,
        tag: u64,
        phase: RemotePhase,
    },
    /// Remote write-through arriving at its home node.
    WriteArrive {
        home: usize,
        line: u64,
        writer: usize,
    },
    /// Hardware-coherence invalidate probe in flight.
    Invalidate { target: usize, line: u64 },
}

// Census columns: what a GPU's memory-stalled warps can be waiting on.
const EPOCH: usize = 0;
const INVAL: usize = 1;
const RDC: usize = 2;
const REMOTE: usize = 3;
const LOCAL: usize = 4;
const NUM_WAITS: usize = 5;
const WAIT_NAMES: [&str; NUM_WAITS] = ["epoch", "inval", "rdc", "remote", "local"];

impl Pending {
    /// The GPU whose warps wait on this flow and the census column it
    /// counts in; `None` for posted writes and invalidates, which no warp
    /// waits on.
    fn wait(&self) -> Option<(usize, usize)> {
        match *self {
            Pending::LocalRead { gpu, .. } => Some((gpu, LOCAL)),
            Pending::RdcProbe { gpu, .. } => Some((gpu, RDC)),
            Pending::RemoteRead {
                requester, cause, ..
            } => Some((
                requester,
                match cause {
                    RemoteCause::Plain => REMOTE,
                    RemoteCause::RdcMiss => RDC,
                    RemoteCause::Epoch => EPOCH,
                    RemoteCause::Inval => INVAL,
                },
            )),
            Pending::CpuRead { gpu, .. } => Some((gpu, REMOTE)),
            Pending::WriteArrive { .. } | Pending::Invalidate { .. } => None,
        }
    }
}

/// Per-GPU summary of what in-flight protocol traffic is waiting on: a
/// flag is set while at least one flow of its kind is in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct GpuWaitFlags {
    pub(crate) epoch: bool,
    pub(crate) inval: bool,
    pub(crate) rdc: bool,
    pub(crate) remote: bool,
    pub(crate) local: bool,
}

/// Per-GPU count of in-flight flows per wait kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WaitCensus {
    counts: Vec<[u32; NUM_WAITS]>,
}

impl WaitCensus {
    pub(crate) fn new(num_gpus: usize) -> WaitCensus {
        WaitCensus {
            counts: vec![[0; NUM_WAITS]; num_gpus],
        }
    }

    /// Counts `p` in.
    #[inline]
    pub(crate) fn add(&mut self, p: &Pending) {
        if let Some((g, w)) = p.wait() {
            self.counts[g][w] += 1;
        }
    }

    /// Counts `p` out.
    #[inline]
    fn sub(&mut self, p: &Pending) {
        if let Some((g, w)) = p.wait() {
            self.counts[g][w] -= 1;
        }
    }

    fn flags(&self, g: usize) -> GpuWaitFlags {
        let c = &self.counts[g];
        GpuWaitFlags {
            epoch: c[EPOCH] > 0,
            inval: c[INVAL] > 0,
            rdc: c[RDC] > 0,
            remote: c[REMOTE] > 0,
            local: c[LOCAL] > 0,
        }
    }

    /// The first (GPU, kind) whose count differs from `other`'s, as
    /// `"gpu G KIND: A vs B"`.
    pub(crate) fn first_difference(&self, other: &WaitCensus) -> Option<String> {
        self.counts
            .iter()
            .zip(&other.counts)
            .enumerate()
            .find_map(|(g, (a, b))| {
                (0..NUM_WAITS)
                    .find(|&w| a[w] != b[w])
                    .map(|w| format!("gpu {g} {}: {} vs {}", WAIT_NAMES[w], a[w], b[w]))
            })
    }
}

/// The in-flight transaction table: the token slab plus the wait census
/// its mutators keep in step. The slab token *is* the wire token carried
/// by DRAM/NoC/CPU-memory models, so lookups on completion are a direct
/// slot index (no hashing). Tokens are unique and strictly increasing in
/// allocation order — the `delayed` heap's tiebreak relies on that — and
/// fire-and-forget payloads draw ordered tokens from the same sequence
/// via [`PendingTable::untracked_token`].
pub(crate) struct PendingTable {
    slab: Slab<Pending>,
    census: WaitCensus,
}

impl PendingTable {
    pub(crate) fn new(num_gpus: usize) -> PendingTable {
        PendingTable {
            slab: Slab::new(),
            census: WaitCensus::new(num_gpus),
        }
    }

    /// Stores `p`, returning its token.
    #[inline]
    pub(crate) fn insert(&mut self, p: Pending) -> u64 {
        self.census.add(&p);
        self.slab.insert(p)
    }

    /// Retires the flow behind `token`, if it is still live.
    #[inline]
    pub(crate) fn remove(&mut self, token: u64) -> Option<Pending> {
        let p = self.slab.remove(token)?;
        self.census.sub(&p);
        Some(p)
    }

    /// Advances the remote or CPU read flow behind `token` to `phase`
    /// (a no-op for any other live or dead token).
    #[inline]
    pub(crate) fn set_phase(&mut self, token: u64, to: RemotePhase) {
        if let Some(Pending::RemoteRead { phase, .. } | Pending::CpuRead { phase, .. }) =
            self.slab.get_mut(token)
        {
            *phase = to;
        }
    }

    /// Mints a unique, ordered token with no backing entry.
    #[inline]
    pub(crate) fn untracked_token(&mut self) -> u64 {
        self.slab.untracked_token()
    }

    #[inline]
    pub(crate) fn get(&self, token: u64) -> Option<&Pending> {
        self.slab.get(token)
    }

    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Read-only view of the slab (the sanitizer's token walk).
    pub(crate) fn slab(&self) -> &Slab<Pending> {
        &self.slab
    }

    /// The maintained census.
    pub(crate) fn census(&self) -> &WaitCensus {
        &self.census
    }

    /// GPU `g`'s wait flags, read off the census.
    #[inline]
    pub(crate) fn wait_flags(&self, g: usize) -> GpuWaitFlags {
        self.census.flags(g)
    }

    /// Skews GPU `g`'s local-read count without touching the slab: the
    /// seeded drift the sanitizer's `wait-census` recount must catch.
    #[cfg(test)]
    pub(crate) fn skew_census(&mut self, g: usize) {
        self.census.counts[g][LOCAL] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_follows_insert_remove_and_ignores_phase() {
        let mut t = PendingTable::new(2);
        let a = t.insert(Pending::RemoteRead {
            requester: 1,
            tag: 0,
            line: 0,
            home: 0,
            phase: RemotePhase::Go,
            cause: RemoteCause::Epoch,
        });
        let b = t.insert(Pending::LocalRead { gpu: 1, tag: 1 });
        t.insert(Pending::Invalidate { target: 0, line: 0 });
        assert_eq!(t.wait_flags(0), GpuWaitFlags::default());
        let both = GpuWaitFlags {
            epoch: true,
            local: true,
            ..GpuWaitFlags::default()
        };
        assert_eq!(t.wait_flags(1), both);
        t.set_phase(a, RemotePhase::Return);
        assert!(matches!(
            t.get(a),
            Some(Pending::RemoteRead {
                phase: RemotePhase::Return,
                ..
            })
        ));
        assert_eq!(t.wait_flags(1), both);
        t.remove(a);
        assert!(t.remove(a).is_none(), "a dead token retires nothing");
        assert_eq!(
            t.wait_flags(1),
            GpuWaitFlags {
                local: true,
                ..GpuWaitFlags::default()
            }
        );
        t.remove(b);
        assert_eq!(t.wait_flags(1), GpuWaitFlags::default());
        let mut recount = WaitCensus::new(2);
        t.slab().for_each(|_, p| recount.add(p));
        assert_eq!(&recount, t.census());
        t.skew_census(0);
        assert_eq!(
            t.census().first_difference(&recount).as_deref(),
            Some("gpu 0 local: 1 vs 0")
        );
    }
}
