//! Bit-exact frame-log replay: re-derive a recorded run and prove it.
//!
//! A frame log (`trace=frames:FILE`) is not a tape that gets played
//! back — it is a *claim*. The header stores the scenario text, the
//! body stores every trace event the recorded run emitted, and the
//! trailer stores the run's outcomes (`event_hash`, final cost, round
//! and exchange counts, virtual time). Replay re-parses the header,
//! rebuilds the instance from the spec's seed, reruns the full event
//! executor with a [`MemorySink`] attached, and
//! compares *everything*: the event stream byte for byte, the event
//! hash, and the trailer outcomes bit for bit (`f64` via `to_bits`).
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

/// Field-by-field comparison of one recorded vs replayed event; keyed
/// comparisons (`to_bits` for the `f64`s) so "same number printed
/// differently" can never mask a real divergence.
fn event_divergence(i: usize, rec: &TraceEvent, rep: &TraceEvent) -> Option<String> {
    if rec.kind != rep.kind {
        return Some(format!(
            "event {i}: recorded {} vs replayed {}",
            rec.kind.label(),
            rep.kind.label()
        ));
    }
    if rec.at_ms.to_bits() != rep.at_ms.to_bits() {
        return Some(format!(
            "event {i} ({}): recorded at {} ms vs replayed at {} ms",
            rec.kind.label(),
            rec.at_ms,
            rep.at_ms
        ));
    }
    if (rec.node, rec.peer, rec.round, rec.tag) != (rep.node, rep.peer, rep.round, rep.tag) {
        return Some(format!(
            "event {i} ({}): recorded {} vs replayed {}",
            rec.kind.label(),
            rec,
            rep
        ));
    }
    if rec.detail.to_bits() != rep.detail.to_bits() {
        return Some(format!(
            "event {i} ({}): recorded detail {} vs replayed {}",
            rec.kind.label(),
            rec.detail,
            rep.detail
        ));
    }
    None
}

/// First disagreement between the recorded log and the replayed run,
/// checked in evidence order: the event streams (count, then each
/// event), the event hash, then the trailer outcomes.
fn find_divergence(
    log: &FrameLog,
    replayed: &[TraceEvent],
    replayed_hash: u64,
    replayed_trailer: &Trailer,
) -> Option<String> {
    for (i, (rec, rep)) in log.events.iter().zip(replayed.iter()).enumerate() {
        if let Some(d) = event_divergence(i, rec, rep) {
            return Some(d);
        }
    }
    if log.events.len() != replayed.len() {
        return Some(format!(
            "event count: recorded {} vs replayed {} (streams agree up to the shorter)",
            log.events.len(),
            replayed.len()
        ));
    }
    let rec = &log.trailer;
    if rec.event_hash != replayed_hash {
        return Some(format!(
            "event_hash: recorded {:#018x} vs replayed {replayed_hash:#018x}",
            rec.event_hash
        ));
    }
    if rec.final_cost.to_bits() != replayed_trailer.final_cost.to_bits() {
        return Some(format!(
            "final_cost: recorded {} vs replayed {}",
            rec.final_cost, replayed_trailer.final_cost
        ));
    }
    if rec.rounds != replayed_trailer.rounds {
        return Some(format!(
            "rounds: recorded {} vs replayed {}",
            rec.rounds, replayed_trailer.rounds
        ));
    }
    if rec.exchanges != replayed_trailer.exchanges {
        return Some(format!(
            "exchanges: recorded {} vs replayed {}",
            rec.exchanges, replayed_trailer.exchanges
        ));
    }
    if rec.virtual_ms.to_bits() != replayed_trailer.virtual_ms.to_bits() {
        return Some(format!(
            "virtual_ms: recorded {} vs replayed {}",
            rec.virtual_ms, replayed_trailer.virtual_ms
        ));
    }
    None
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
    let divergence = find_divergence(&log, &sink.events, report.event_hash, &trailer(&report));
    Ok(ReplayReport {
        spec,
        recorded: log.trailer,
        replayed_hash: report.event_hash,
        replayed_events: sink.events.len(),
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
