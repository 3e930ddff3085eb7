//! Property-based tests: the frame-log codec round-trips and refuses
//! every truncation.

#![cfg(test)]

use proptest::prelude::*;

use crate::event::{TraceEvent, TraceKind, KIND_COUNT};
use crate::framelog::{FrameLog, Trailer};

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        0..KIND_COUNT as u8,
        0.0f64..1e9,
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u8>(),
        0.0f64..1e9,
    )
        .prop_map(|(kind, at_ms, node, peer, round, tag, detail)| TraceEvent {
            kind: TraceKind::from_u8(kind).expect("in range"),
            at_ms,
            node,
            peer,
            round,
            tag,
            detail,
        })
}

fn arb_log() -> impl Strategy<Value = FrameLog> {
    let arb_spec = proptest::collection::vec(0u8..27, 0..80).prop_map(|v| {
        v.into_iter()
            .map(|b| if b == 26 { ' ' } else { (b'a' + b) as char })
            .collect::<String>()
    });
    (
        arb_spec,
        proptest::collection::vec(arb_event(), 0..48),
        any::<u64>(),
        0.0f64..1e12,
        any::<u64>(),
        any::<u64>(),
        0.0f64..1e9,
    )
        .prop_map(
            |(spec, events, event_hash, final_cost, rounds, exchanges, virtual_ms)| FrameLog {
                spec,
                events,
                trailer: Trailer {
                    event_hash,
                    final_cost,
                    rounds,
                    exchanges,
                    virtual_ms,
                },
            },
        )
}

proptest! {
    /// Every log round-trips exactly through the binary codec.
    #[test]
    fn framelog_round_trips(log in arb_log()) {
        let bytes = log.encode();
        prop_assert_eq!(FrameLog::decode(&bytes).expect("decodes"), log);
    }

    /// No truncated prefix of a valid log may decode, and none may
    /// panic (the trailer magic plus fixed event size make every cut
    /// detectable).
    #[test]
    fn framelog_truncation_is_always_rejected(log in arb_log()) {
        let bytes = log.encode();
        for cut in 0..bytes.len() {
            prop_assert!(FrameLog::decode(&bytes[..cut]).is_err(), "cut {} decoded", cut);
        }
    }
}
