//! Host-time spans of one simulation, taken from outside the engine.
//!
//! [`HostStampSink`] is a `TraceSink` that stamps each engine event with
//! the host clock. From the stamps of the per-GPU `kernel k` begin events
//! and the `kernel k` / `drain k` end events that close each kernel, one
//! run splits into build (call to the first `kernel 0` begin), kernels,
//! boundaries (one kernel's last end to the next kernel's first begin)
//! and the self time left over (result aggregation after the last
//! kernel).

use std::time::Instant;

use carve_system::{TraceEvent, TracePhase, TraceSink};

/// One engine event with the host time it arrived at, in seconds after
/// the sink was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub at: f64,
    pub name: String,
    pub phase: TracePhase,
}

/// A trace sink that keeps every event's name and phase, stamped with the
/// host clock. Create it immediately before the run call.
pub struct HostStampSink {
    t0: Instant,
    pub stamps: Vec<Stamp>,
}

impl HostStampSink {
    pub fn new() -> HostStampSink {
        HostStampSink {
            t0: Instant::now(),
            stamps: Vec::new(),
        }
    }

    /// Seconds since the sink was created.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

impl TraceSink for HostStampSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        let at = self.now();
        self.stamps.push(Stamp {
            at,
            name: event.name,
            phase: event.phase,
        });
    }
}

/// Host seconds of one run split by phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpans {
    pub run: f64,
    pub build: f64,
    pub kernels: Vec<f64>,
    pub boundaries: Vec<f64>,
}

impl RunSpans {
    /// The run's self time: what its child spans do not cover.
    pub fn self_time(&self) -> f64 {
        self.run
            - self.build
            - self.kernels.iter().sum::<f64>()
            - self.boundaries.iter().sum::<f64>()
    }
}

fn kernel_index(name: &str) -> Option<usize> {
    name.strip_prefix("kernel ")
        .or_else(|| name.strip_prefix("drain "))?
        .parse()
        .ok()
}

/// Splits a run of `run` seconds into spans from its stamps. Returns
/// `None` when a kernel lacks its begin or end events.
pub fn split(stamps: &[Stamp], run: f64, kernels: usize) -> Option<RunSpans> {
    let mut begin = vec![None; kernels];
    let mut end = vec![None; kernels];
    for s in stamps {
        let Some(k) = kernel_index(&s.name).filter(|&k| k < kernels) else {
            continue;
        };
        match s.phase {
            TracePhase::Begin if s.name.starts_with("kernel ") => {
                begin[k].get_or_insert(s.at);
            }
            TracePhase::End => end[k] = Some(s.at),
            _ => {}
        }
    }
    let begin: Vec<f64> = begin.into_iter().collect::<Option<_>>()?;
    let end: Vec<f64> = end.into_iter().collect::<Option<_>>()?;
    Some(RunSpans {
        run,
        build: *begin.first()?,
        kernels: begin.iter().zip(&end).map(|(b, e)| e - b).collect(),
        boundaries: end.iter().zip(&begin[1..]).map(|(e, b)| b - e).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(at: f64, name: &str, phase: TracePhase) -> Stamp {
        Stamp {
            at,
            name: name.into(),
            phase,
        }
    }

    #[test]
    fn split_assigns_every_interval_once() {
        use TracePhase::*;
        let stamps = [
            stamp(1.0, "kernel 0", Begin),
            stamp(1.1, "kernel 0", Begin),
            stamp(3.0, "kernel 0", End),
            stamp(3.5, "drain 0", Begin),
            stamp(4.0, "drain 0", End),
            stamp(4.5, "kernel boundary", Instant),
            stamp(5.0, "kernel 1", Begin),
            stamp(8.0, "kernel 1", End),
        ];
        let s = split(&stamps, 9.0, 2).expect("complete spans");
        assert_eq!(s.build, 1.0);
        assert_eq!(s.kernels, vec![3.0, 3.0]);
        assert_eq!(s.boundaries, vec![1.0]);
        assert!((s.self_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_refuses_an_unclosed_kernel() {
        let stamps = [stamp(1.0, "kernel 0", TracePhase::Begin)];
        assert_eq!(split(&stamps, 2.0, 1), None);
    }
}
