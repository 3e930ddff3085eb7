//! RNG-free metrics: log-bucketed histograms and per-kind counters.
//!
//! Determinism discipline: every accumulator holds only *integer*
//! state — bucket counts, event counts, and a running sum in the same
//! quantized 1/1024-ms units the buckets use — plus min/max. Events
//! reach a set in the executor's one delivery order (it emits on its
//! single scheduling thread), so a set is a pure function of the event
//! stream, and the integer state keeps it free of float-summation
//! order effects.

use crate::event::{TraceEvent, TraceKind, KIND_COUNT};

/// Number of log buckets: sub-millisecond up through ~2⁵³ ms.
pub const BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram over milliseconds.
///
/// Bucketing is integer-exact: a value `v` ms lands in bucket
/// `bit_length(⌊v·1024⌋)` (0 for `v < 1/1024`), i.e. bucket `b > 0`
/// covers `[2^(b-1), 2^b) / 1024` ms. No RNG, no platform-dependent
/// transcendentals — reproducible everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    n: u64,
    /// Sum in quantized 1/1024-ms units (integer, so order-exact).
    sum_q: u128,
    min_ms: f64,
    max_ms: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            n: 0,
            sum_q: 0,
            min_ms: f64::INFINITY,
            max_ms: f64::NEG_INFINITY,
        }
    }
}

/// Quantizes `v_ms` to 1/1024-ms units, saturating absurd values.
fn quantize(v_ms: f64) -> u64 {
    let q = v_ms.max(0.0) * 1024.0;
    if q >= u64::MAX as f64 {
        u64::MAX
    } else {
        q as u64
    }
}

/// Index of the log bucket covering `v_ms`.
fn bucket_of(v_ms: f64) -> usize {
    ((u64::BITS - quantize(v_ms).leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// Records one sample (negative values clamp to 0).
    pub fn record(&mut self, v_ms: f64) {
        self.counts[bucket_of(v_ms)] += 1;
        self.n += 1;
        self.sum_q += quantize(v_ms) as u128;
        self.min_ms = self.min_ms.min(v_ms);
        self.max_ms = self.max_ms.max(v_ms);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the recorded samples at 1/1024-ms resolution (0 when
    /// empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sum_q as f64 / 1024.0) / self.n as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min_ms
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max_ms
        }
    }

    /// Bucket upper bound in ms (the quantile estimate's resolution).
    fn bucket_upper_ms(b: usize) -> f64 {
        if b == 0 {
            1.0 / 1024.0
        } else {
            (1u128 << b) as f64 / 1024.0
        }
    }

    /// Estimated `q`-quantile (`0 < q <= 1`): the upper bound of the
    /// bucket where the cumulative count crosses `⌈q·n⌉`. Within a
    /// factor of 2 of the true value by construction, and exactly
    /// reproducible. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Histogram::bucket_upper_ms(b).min(self.max_ms.max(0.0));
            }
        }
        self.max()
    }
}

/// Per-kind counters plus the latency histograms the tentpole names:
/// frame flight times, exchange durations, detector latencies, and
/// per-round phase timings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricSet {
    counts: [u64; KIND_COUNT],
    /// Frame flight times (ingested from `FrameScheduled.detail`).
    pub frame_latency_ms: Histogram,
    /// Exchange propose→commit/abort durations (paired by
    /// [`MetricSet::from_events`]; streaming ingest cannot pair).
    pub exchange_ms: Histogram,
    /// True-positive detection latencies (`DetectorSuspect.detail`).
    pub detector_ms: Histogram,
    /// Per-round phase durations (`RoundEnd.detail`).
    pub round_ms: Histogram,
}

impl MetricSet {
    /// Folds one event into the counters and the directly ingestible
    /// histograms.
    pub fn ingest(&mut self, ev: &TraceEvent) {
        self.counts[ev.kind as usize] += 1;
        match ev.kind {
            TraceKind::FrameScheduled => self.frame_latency_ms.record(ev.detail),
            TraceKind::RoundEnd => self.round_ms.record(ev.detail),
            TraceKind::DetectorSuspect if ev.detail > 0.0 => self.detector_ms.record(ev.detail),
            _ => {}
        }
    }

    /// Builds the full set from a recorded event stream, including the
    /// exchange-duration histogram (propose → commit/abort paired by
    /// `(node, round)` in stream order).
    pub fn from_events(events: &[TraceEvent]) -> MetricSet {
        let mut set = MetricSet::default();
        let mut open: Vec<(u32, u64, f64)> = Vec::new();
        for ev in events {
            set.ingest(ev);
            match ev.kind {
                TraceKind::ExchangePropose => open.push((ev.node, ev.round, ev.at_ms)),
                TraceKind::ExchangeCommit | TraceKind::ExchangeAbort => {
                    if let Some(i) = open
                        .iter()
                        .position(|&(n, r, _)| n == ev.node && r == ev.round)
                    {
                        let (_, _, t0) = open.swap_remove(i);
                        set.exchange_ms.record(ev.at_ms - t0);
                    }
                }
                _ => {}
            }
        }
        set
    }

    /// Count of events of `kind`.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total events folded in.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Flattens to the record-facing summary.
    pub fn summary(&self) -> ObsSummary {
        ObsSummary {
            events: self.total(),
            frames: self.count(TraceKind::FrameDelivered),
            dropped: self.count(TraceKind::FrameDropped),
            held: self.count(TraceKind::FrameHeld),
            frame_p50_ms: self.frame_latency_ms.quantile(0.50),
            frame_p99_ms: self.frame_latency_ms.quantile(0.99),
        }
    }
}

/// The `obs_*` record field group: what a traced run appends to its
/// [`RunRecord`](https://docs.rs) shape. All zeros (and omitted from
/// records) when the scenario ran with `trace=off`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObsSummary {
    /// Total trace events the run emitted.
    pub events: u64,
    /// Frames delivered.
    pub frames: u64,
    /// Frames dropped (faults, dead destinations).
    pub dropped: u64,
    /// Frames held past their base link time by the fault script.
    pub held: u64,
    /// Median frame flight time (log-bucket estimate, ms).
    pub frame_p50_ms: f64,
    /// p99 frame flight time (log-bucket estimate, ms).
    pub frame_p99_ms: f64,
}

impl ObsSummary {
    /// `true` when the run was untraced — the record omits the
    /// `obs_*` group entirely (shape-stability rule).
    pub fn is_quiet(&self) -> bool {
        self.events == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_PEER;

    fn ev(kind: TraceKind, at: f64, node: u32, round: u64, detail: f64) -> TraceEvent {
        TraceEvent {
            kind,
            at_ms: at,
            node,
            peer: NO_PEER,
            round,
            tag: 0,
            detail,
        }
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(0.0005), 0); // < 1/1024 ms
        assert_eq!(bucket_of(1.0), 11); // 1024 = 2^10 → bit length 11
        assert_eq!(bucket_of(2.0), 12);
        assert_eq!(bucket_of(1e300), BUCKETS - 1);
        assert_eq!(bucket_of(-3.0), 0);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 50.0, 400.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile(0.5);
        // Bucket upper bound of the median sample (3.0 → (2,4]).
        assert!((3.0..=4.0).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99);
        assert!((400.0..=512.0).contains(&p99), "{p99}");
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 400.0);
        assert!((h.mean() - 91.2).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn from_events_pairs_exchanges() {
        let events = vec![
            ev(TraceKind::ExchangePropose, 10.0, 3, 1, 0.0),
            ev(TraceKind::ExchangePropose, 11.0, 4, 1, 0.0),
            ev(TraceKind::ExchangeCommit, 25.0, 3, 1, 0.0),
            ev(TraceKind::ExchangeAbort, 40.0, 4, 1, 0.0),
            // Unmatched commit: ignored, not a panic.
            ev(TraceKind::ExchangeCommit, 50.0, 9, 2, 0.0),
        ];
        let set = MetricSet::from_events(&events);
        assert_eq!(set.exchange_ms.count(), 2);
        assert_eq!(set.exchange_ms.min(), 15.0);
        assert_eq!(set.exchange_ms.max(), 29.0);
        assert_eq!(set.count(TraceKind::ExchangeCommit), 2);
    }

    #[test]
    fn summary_flattens() {
        let mut set = MetricSet::default();
        set.ingest(&ev(TraceKind::FrameScheduled, 0.0, 1, 0, 12.0));
        set.ingest(&ev(TraceKind::FrameDelivered, 12.0, 1, 0, 0.0));
        set.ingest(&ev(TraceKind::FrameDropped, 13.0, 2, 0, 1.0));
        let s = set.summary();
        assert_eq!(s.events, 3);
        assert_eq!(s.frames, 1);
        assert_eq!(s.dropped, 1);
        assert!(!s.is_quiet());
        assert!(ObsSummary::default().is_quiet());
    }
}
