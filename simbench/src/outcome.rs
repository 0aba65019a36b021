//! Bookkeeping shared by both run kinds: attempted and failed points,
//! the reasons for failures, and the metrics to print.

use carve_system::{SimError, SimResult};

use crate::expected::{check, Expected};
use crate::stats::Metrics;
use crate::workload::Point;

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Simulations started.
    pub attempted: u64,
    /// Simulations that returned a `SimError` or failed a check.
    pub failed: u64,
    /// Why each failure happened (and any other broken check).
    pub errors: Vec<String>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one simulation and checks it against its point (and the
    /// expected journal, when given). Returns the result only when every
    /// check passed.
    pub fn record(
        &mut self,
        p: &Point,
        res: Result<SimResult, SimError>,
        expected: Option<&Expected>,
    ) -> Option<SimResult> {
        self.attempted += 1;
        let checked = res
            .map_err(|e| format!("{}: {e}", p.key()))
            .and_then(|r| check(p, &r, expected).map(|()| r));
        match checked {
            Ok(r) => Some(r),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    /// Records a broken check that is not tied to one simulation's result
    /// (for example two runs of one point that disagree).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}
