//! Pluggable pacing for the event executor.
//!
//! The executor's event heap fixes *what* happens and in *which
//! order*; the clock only decides how long the caller waits between
//! delivery batches, so results are bit-identical under any pacing.
//! [`VirtualClock`], the one the workspace runs on, never waits.

/// Pacing policy of the event executor (see the module docs).
pub trait Clock {
    /// Called once per delivery batch with the batch's virtual due
    /// time (milliseconds since the run started, non-decreasing).
    /// Returns when the batch may be delivered.
    fn wait_until(&mut self, virtual_ms: f64);
}

/// Deterministic simulation pacing: never waits, so a run covering
/// hours of simulated protocol time finishes as fast as the machine
/// can drain the heap.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualClock;

impl Clock for VirtualClock {
    fn wait_until(&mut self, _virtual_ms: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn virtual_clock_never_waits() {
        let mut clock = VirtualClock;
        let start = Instant::now();
        for t in 0..1000 {
            clock.wait_until(t as f64 * 1e6);
        }
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
