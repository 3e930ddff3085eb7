//! Chrome trace-event JSON export (`chrome://tracing`, Perfetto).
//!
//! Maps the virtual timeline onto the trace-event format: protocol
//! rounds become complete-event spans (`ph:"X"`) on the coordinator
//! track, frames become flow arrows (`ph:"s"`/`"f"`) from source to
//! destination track, and drops / detector verdicts / stream traffic
//! become instant events (`ph:"i"`). Timestamps are virtual
//! microseconds (`ts = at_ms · 1000`), so the viewer's ruler reads in
//! simulated time.

use crate::event::{tag_label, TraceKind, NODE_COORD};
use crate::framelog::FrameLog;
use crate::json_string;

/// Track id for a node (coordinator gets track 0, node `n` track
/// `n + 1`).
fn tid(node: u32) -> u64 {
    if node == NODE_COORD {
        0
    } else {
        node as u64 + 1
    }
}

fn push_event(out: &mut Vec<String>, body: String) {
    out.push(format!("{{{body}}}"));
}

/// Renders the log as one Chrome trace-event JSON document.
pub fn render(log: &FrameLog) -> String {
    let mut evs: Vec<String> = Vec::new();
    push_event(
        &mut evs,
        format!(
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":{}}}",
            json_string(&log.spec)
        ),
    );
    push_event(
        &mut evs,
        "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"coordinator\"}"
            .to_string(),
    );
    let mut open_round: Option<(u64, f64)> = None;
    let mut flow_id: u64 = 0;
    for ev in &log.events {
        let ts = ev.at_ms * 1000.0;
        match ev.kind {
            TraceKind::RoundBegin => open_round = Some((ev.round, ts)),
            TraceKind::RoundEnd => {
                let (round, t0) = open_round.take().unwrap_or((ev.round, ts));
                push_event(
                    &mut evs,
                    format!(
                        "\"name\":\"round {round}\",\"cat\":\"round\",\"ph\":\"X\",\
                         \"ts\":{t0},\"dur\":{},\"pid\":0,\"tid\":0",
                        ts - t0
                    ),
                );
            }
            TraceKind::FrameScheduled => {
                flow_id += 1;
                let name = tag_label(ev.tag);
                push_event(
                    &mut evs,
                    format!(
                        "\"name\":\"{name}\",\"cat\":\"frame\",\"ph\":\"s\",\"id\":{flow_id},\
                         \"ts\":{ts},\"pid\":0,\"tid\":{}",
                        tid(ev.peer)
                    ),
                );
                push_event(
                    &mut evs,
                    format!(
                        "\"name\":\"{name}\",\"cat\":\"frame\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{flow_id},\"ts\":{},\"pid\":0,\"tid\":{}",
                        ts + ev.detail * 1000.0,
                        tid(ev.node)
                    ),
                );
            }
            TraceKind::FrameDropped
            | TraceKind::DetectorSuspect
            | TraceKind::DetectorExclude
            | TraceKind::DetectorRejoin
            | TraceKind::ExchangeAbort
            | TraceKind::StreamArrival
            | TraceKind::StreamDeparture
            | TraceKind::StreamDrop => {
                push_event(
                    &mut evs,
                    format!(
                        "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{ts},\"pid\":0,\"tid\":{}",
                        ev.kind.label(),
                        ev.kind.family(),
                        tid(ev.node)
                    ),
                );
            }
            // Deliveries are witnessed by the flow arrow's `f` end;
            // the remaining kinds stay table-only.
            _ => {}
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        evs.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, NO_PEER};
    use crate::framelog::Trailer;

    fn log_with(events: Vec<TraceEvent>) -> FrameLog {
        FrameLog {
            spec: "algo=protocol m=4 runtime=events".into(),
            events,
            trailer: Trailer {
                event_hash: 1,
                final_cost: 2.0,
                rounds: 1,
                exchanges: 0,
                virtual_ms: 30.0,
            },
        }
    }

    #[test]
    fn rounds_become_spans_and_frames_become_flows() {
        let json = render(&log_with(vec![
            TraceEvent {
                kind: TraceKind::RoundBegin,
                at_ms: 0.0,
                node: NODE_COORD,
                peer: NO_PEER,
                round: 1,
                tag: 0,
                detail: 0.0,
            },
            TraceEvent {
                kind: TraceKind::FrameScheduled,
                at_ms: 1.0,
                node: 2,
                peer: NODE_COORD,
                round: 1,
                tag: 1,
                detail: 10.5,
            },
            TraceEvent {
                kind: TraceKind::RoundEnd,
                at_ms: 30.0,
                node: NODE_COORD,
                peer: NO_PEER,
                round: 1,
                tag: 0,
                detail: 30.0,
            },
        ]));
        assert!(json.contains("\"name\":\"round 1\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":30000"), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        // The flow lands on the destination's track at ts+flight.
        assert!(json.contains("\"ts\":11500,\"pid\":0,\"tid\":3"), "{json}");
        // Valid JSON per the bench-report parser's value grammar: at
        // minimum it must be non-empty and brace-balanced.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn drops_become_instants() {
        let json = render(&log_with(vec![TraceEvent {
            kind: TraceKind::FrameDropped,
            at_ms: 5.0,
            node: 1,
            peer: 0,
            round: 2,
            tag: 5,
            detail: 1.0,
        }]));
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("frame_dropped"), "{json}");
    }
}
