//! Bit-exact frame-log replay: re-derive a recorded run and prove it.
//!
//! A frame log (`trace=frames:FILE`) is not a tape that gets played
//! back — it is a *claim*. The header stores the scenario text, the
//! body stores every trace event the recorded run emitted, and the
//! trailer stores the run's outcomes (`event_hash`, final cost, round
//! and exchange counts, virtual time). Replay re-parses the header,
//! reruns the event executor from the spec's seed with a [`MemorySink`]
//! attached, and encodes the recorded header, the replayed events and
//! the replayed outcomes as a log of its own. The replay is exact when
//! that encoding equals the log's bytes: the codec writes every field,
//! each `f64` by its bits, and re-encodes any log it decodes to the
//! same bytes.
//!
//! Because the executor is deterministic on the virtual clock — one
//! seed, one event order, regardless of `DLB_THREADS` — a divergence
//! means exactly one of two things: the log was recorded by a
//! different build of the protocol, or the log bytes were altered.
//! Either way [`ReplayReport::divergence`] names the first point of
//! disagreement instead of a bare boolean.

use dlb_obs::{FrameLog, MemorySink, TraceEvent, Trailer};

use crate::runner::{run_protocol_events, trailer};
use crate::spec::{AlgoSpec, ScenarioSpec, SpecError, TraceSpec};

/// The outcome of replaying one frame log.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The scenario parsed back from the log header (its canonical
    /// text form; `trace=` is always absent — recording strips it).
    pub spec: ScenarioSpec,
    /// The recorded trailer: the outcomes the log claims.
    pub recorded: Trailer,
    /// The event hash the replayed run produced.
    pub replayed_hash: u64,
    /// The number of trace events the replayed run emitted.
    pub replayed_events: usize,
    /// `None` when the replay reproduced the log bit-exactly; else a
    /// description of the *first* disagreement found.
    pub divergence: Option<String>,
}

impl ReplayReport {
    /// Whether the replay reproduced the recorded run bit-exactly.
    pub fn is_exact(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Names the first disagreement between two logs that share a header
/// but encode differently: the first event whose bits differ (printed
/// as `Debug`, which keeps every digit), else the event count, else
/// the trailer.
fn first_divergence(recorded: &FrameLog, replayed: &FrameLog) -> String {
    let key = |e: &TraceEvent| {
        let bits = [e.at_ms, e.detail].map(f64::to_bits);
        (e.kind, e.node, e.peer, e.round, e.tag, bits)
    };
    let (rec, rep) = (&recorded.events, &replayed.events);
    for (i, (a, b)) in rec.iter().zip(rep).enumerate() {
        if key(a) != key(b) {
            return format!("event {i}: recorded {a:?} vs replayed {b:?}");
        }
    }
    if rec.len() != rep.len() {
        return format!(
            "event count: recorded {} vs replayed {} (streams agree up to the shorter)",
            rec.len(),
            rep.len()
        );
    }
    let (a, b) = (recorded.trailer, replayed.trailer);
    format!("trailer: recorded {a:?} vs replayed {b:?}")
}

/// Replays the encoded frame log in `bytes` and reports whether the
/// rerun reproduces it bit-exactly.
///
/// # Errors
/// [`SpecError`] when the bytes are not a well-formed frame log, the
/// header does not parse as a scenario, or the header names a
/// scenario the event executor cannot run (recording enforces
/// `algo=protocol` and strips `trace=`, so either means the log did
/// not come from `trace=frames:`).
pub fn replay_frame_log(bytes: &[u8]) -> Result<ReplayReport, SpecError> {
    let log = FrameLog::decode(bytes)
        .map_err(|e| SpecError(format!("frame log does not decode: {e}")))?;
    let spec = ScenarioSpec::parse(&log.spec)?;
    if spec.algo != AlgoSpec::Protocol || spec.trace != TraceSpec::Off {
        return Err(SpecError(format!(
            "frame-log header must name a plain event-executor scenario \
             (algo=protocol, no trace=), got '{spec}'"
        )));
    }
    let instance = spec.build_instance();
    let mut sink = MemorySink::default();
    let report = run_protocol_events(&spec, &instance, &mut sink);
    let replayed = FrameLog {
        spec: log.spec.clone(),
        events: sink.events,
        trailer: trailer(&report),
    };
    let divergence = (replayed.encode() != bytes).then(|| first_divergence(&log, &replayed));
    Ok(ReplayReport {
        spec,
        recorded: log.trailer,
        replayed_hash: report.event_hash,
        replayed_events: replayed.events.len(),
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_obs::TraceKind;

    /// Records a small scenario in memory (no filesystem) and replays
    /// the encoded bytes: the rerun must match bit-exactly.
    fn record(spec_text: &str) -> Vec<u8> {
        let spec = ScenarioSpec::parse(spec_text).expect("spec parses");
        let instance = spec.build_instance();
        let mut sink = MemorySink::default();
        let report = run_protocol_events(&spec, &instance, &mut sink);
        FrameLog {
            spec: spec.to_string(),
            events: sink.events,
            trailer: trailer(&report),
        }
        .encode()
    }

    #[test]
    fn replay_is_bit_exact() {
        let bytes = record("algo=protocol net=pl m=16 seed=3");
        let report = replay_frame_log(&bytes).expect("replays");
        assert!(report.is_exact(), "diverged: {:?}", report.divergence);
        assert_eq!(report.replayed_hash, report.recorded.event_hash);
        assert!(report.replayed_events > 0);
    }

    #[test]
    fn replay_is_bit_exact_under_faults_and_adaptive_detection() {
        let bytes =
            record("algo=protocol net=pl m=16 seed=3 faults=crash:0.1@500ms detect=adaptive");
        let report = replay_frame_log(&bytes).expect("replays");
        assert!(report.is_exact(), "diverged: {:?}", report.divergence);
    }

    /// Every frame log written while the `runtime=` key existed says
    /// `runtime=events` in its header; such a log must keep replaying
    /// bit-exactly now that the canonical form no longer prints it.
    #[test]
    fn a_header_that_still_says_runtime_events_replays_bit_exactly() {
        let bytes = record("algo=protocol net=pl m=16 seed=3");
        let mut log = FrameLog::decode(&bytes).expect("decodes");
        assert_eq!(log.spec, "algo=protocol net=pl m=16 seed=3");
        log.spec = "algo=protocol net=pl m=16 seed=3 runtime=events".into();
        let report = replay_frame_log(&log.encode()).expect("replays");
        assert!(report.is_exact(), "diverged: {:?}", report.divergence);
        assert!(!report.spec.to_string().contains("runtime="));
    }

    #[test]
    fn a_tampered_log_names_the_first_divergence() {
        let spec = ScenarioSpec::parse("algo=protocol net=pl m=16 seed=3").unwrap();
        let instance = spec.build_instance();
        let mut sink = MemorySink::default();
        let report = run_protocol_events(&spec, &instance, &mut sink);
        let mut events = sink.events;
        // Flip one delivered frame's round number: the stream check
        // must catch it and name the index.
        let idx = events
            .iter()
            .position(|e| e.kind == TraceKind::FrameDelivered)
            .expect("some frame was delivered");
        events[idx].round += 1;
        let bytes = FrameLog {
            spec: spec.to_string(),
            events,
            trailer: trailer(&report),
        }
        .encode();
        let replayed = replay_frame_log(&bytes).expect("still decodes");
        let divergence = replayed.divergence.expect("tampering is caught");
        assert!(
            divergence.starts_with(&format!("event {idx}")),
            "unexpected divergence: {divergence}"
        );
    }

    /// Records the m = 16 scenario, lets `tamper` edit the decoded log,
    /// and returns the divergence its replay names.
    fn tampered_divergence(tamper: impl FnOnce(&mut FrameLog)) -> String {
        let bytes = record("algo=protocol net=pl m=16 seed=3");
        let mut log = FrameLog::decode(&bytes).expect("decodes");
        tamper(&mut log);
        let replayed = replay_frame_log(&log.encode()).expect("still decodes");
        replayed.divergence.expect("tampering is caught")
    }

    #[test]
    fn a_one_bit_change_of_the_recorded_virtual_time_is_caught() {
        let divergence = tampered_divergence(|log| {
            log.trailer.virtual_ms = f64::from_bits(log.trailer.virtual_ms.to_bits() ^ 1);
        });
        assert!(
            divergence.contains("virtual_ms"),
            "unexpected divergence: {divergence}"
        );
    }

    /// `-0.0 == 0.0` as `f64`s: only a comparison of bits sees this.
    #[test]
    fn a_detail_of_minus_zero_for_zero_is_caught() {
        let mut idx = 0;
        let divergence = tampered_divergence(|log| {
            idx = log
                .events
                .iter()
                .position(|e| e.detail.to_bits() == 0)
                .expect("some event has detail 0.0");
            log.events[idx].detail = -0.0;
        });
        assert!(
            divergence.starts_with(&format!("event {idx}")),
            "unexpected divergence: {divergence}"
        );
    }

    #[test]
    fn a_dropped_last_event_is_caught_as_a_count_mismatch() {
        let divergence = tampered_divergence(|log| {
            log.events.pop().expect("the run emitted events");
        });
        assert!(
            divergence.starts_with("event count"),
            "unexpected divergence: {divergence}"
        );
    }

    #[test]
    fn a_traced_header_is_rejected() {
        let bytes = FrameLog {
            spec: "algo=protocol net=pl m=16 seed=3 trace=summary".into(),
            events: Vec::new(),
            trailer: Trailer::default(),
        }
        .encode();
        let err = replay_frame_log(&bytes).expect_err("traced header is circular");
        assert!(err.to_string().contains("no trace="), "got: {err}");
    }

    #[test]
    fn garbage_bytes_are_rejected_not_panicked_on() {
        let err = replay_frame_log(b"not a frame log").expect_err("rejects");
        assert!(err.to_string().contains("does not decode"), "got: {err}");
    }
}
