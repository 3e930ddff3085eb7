//! A trace sink that belongs to the benchmark: it stamps the host
//! clock at every round boundary the executor announces, counts every
//! event kind, and keeps the first few events for the trace-plane
//! probes. The executor is not instrumented; it already calls whatever
//! `TraceSink` it is given.

use std::time::Instant;

use dlb_obs::{TraceEvent, TraceKind, TraceSink, KIND_COUNT};

#[derive(Debug, Default)]
pub struct StampSink {
    counts: [u64; KIND_COUNT],
    begins: Vec<Instant>,
    ends: Vec<Instant>,
    /// The first `keep` events, verbatim.
    kept: Vec<TraceEvent>,
    keep: usize,
}

impl TraceSink for StampSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.counts[ev.kind as usize] += 1;
        if self.kept.len() < self.keep {
            self.kept.push(*ev);
        }
        match ev.kind {
            TraceKind::RoundBegin => self.begins.push(Instant::now()),
            TraceKind::RoundEnd => self.ends.push(Instant::now()),
            _ => {}
        }
    }
}

impl StampSink {
    /// A sink that also keeps the first `keep` events it sees.
    pub fn keeping(keep: usize) -> Self {
        Self {
            kept: Vec::with_capacity(keep),
            keep,
            ..Default::default()
        }
    }

    pub fn kept(&self) -> &[TraceEvent] {
        &self.kept
    }

    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts[kind as usize]
    }

    /// The host-clock interval of every round, in order. Fails unless
    /// every `RoundBegin` was closed by its `RoundEnd` before the next
    /// round began and the stamps never run backwards — anything else
    /// means the intervals are not rounds.
    pub fn rounds(&self) -> Result<Vec<(Instant, Instant)>, String> {
        if self.begins.len() != self.ends.len() {
            return Err(format!(
                "{} RoundBegin but {} RoundEnd",
                self.begins.len(),
                self.ends.len()
            ));
        }
        let pairs: Vec<(Instant, Instant)> = self
            .begins
            .iter()
            .copied()
            .zip(self.ends.iter().copied())
            .collect();
        for (i, &(begin, end)) in pairs.iter().enumerate() {
            if end < begin {
                return Err(format!("round {i} ends before it begins"));
            }
            if pairs.get(i + 1).is_some_and(|&(next, _)| next < end) {
                return Err(format!("round {} begins before round {i} ends", i + 1));
            }
        }
        Ok(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(sink: &mut StampSink, kind: TraceKind) {
        sink.emit(&TraceEvent::mark(kind, 0.0, 0));
    }

    #[test]
    fn every_begin_is_closed_and_stamps_are_monotone() {
        let mut sink = StampSink::default();
        for _ in 0..4 {
            mark(&mut sink, TraceKind::RoundBegin);
            mark(&mut sink, TraceKind::FrameDelivered);
            mark(&mut sink, TraceKind::FrameDelivered);
            mark(&mut sink, TraceKind::RoundEnd);
        }
        let rounds = sink.rounds().unwrap();
        assert_eq!(rounds.len(), 4);
        for pair in rounds.windows(2) {
            assert!(pair[0].0 <= pair[0].1 && pair[0].1 <= pair[1].0);
        }
        assert_eq!(sink.count(TraceKind::FrameDelivered), 8);
        assert_eq!(sink.count(TraceKind::RoundBegin), 4);
    }

    #[test]
    fn only_the_first_events_are_kept() {
        let mut sink = StampSink::keeping(3);
        for _ in 0..5 {
            mark(&mut sink, TraceKind::FrameDelivered);
        }
        assert_eq!(sink.kept().len(), 3);
        assert_eq!(sink.count(TraceKind::FrameDelivered), 5);
        assert!(StampSink::default().kept().is_empty());
    }

    #[test]
    fn an_unclosed_round_is_an_error() {
        let mut sink = StampSink::default();
        mark(&mut sink, TraceKind::RoundBegin);
        mark(&mut sink, TraceKind::RoundEnd);
        mark(&mut sink, TraceKind::RoundBegin);
        assert!(sink
            .rounds()
            .unwrap_err()
            .contains("2 RoundBegin but 1 RoundEnd"));
    }

    #[test]
    fn a_round_that_begins_inside_another_is_an_error() {
        let mut sink = StampSink::default();
        mark(&mut sink, TraceKind::RoundBegin);
        mark(&mut sink, TraceKind::RoundBegin);
        std::thread::sleep(std::time::Duration::from_millis(1));
        mark(&mut sink, TraceKind::RoundEnd);
        mark(&mut sink, TraceKind::RoundEnd);
        assert!(sink.rounds().unwrap_err().contains("begins before"));
    }

    #[test]
    fn the_real_executor_pairs_its_rounds() {
        use dlb_core::Instance;
        use dlb_faults::FaultScript;
        use dlb_requestsim::StreamScript;
        use dlb_runtime::{run_cluster_events_observed, ClusterOptions, VirtualClock};

        let instance = Instance::homogeneous(12, 1.0, 20.0, 50.0);
        let mut sink = StampSink::default();
        let report = run_cluster_events_observed(
            &instance,
            &ClusterOptions {
                max_rounds: 5,
                quiescent_rounds: 5,
                ..Default::default()
            },
            |_, _| 10.0,
            &FaultScript::empty(12),
            &StreamScript::empty(),
            &mut VirtualClock,
            &mut sink,
        );
        let rounds = sink.rounds().unwrap();
        assert!(rounds.len() >= report.rounds);
        assert!(sink.count(TraceKind::FrameDelivered) > 0);
    }
}
