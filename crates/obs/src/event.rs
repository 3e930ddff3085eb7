//! The trace-event vocabulary: one flat, codec-friendly record per
//! observable occurrence, stamped in **virtual milliseconds**.
//!
//! Every event is a fixed-width tuple (`kind`, `at_ms`, `node`,
//! `peer`, `round`, `tag`, `detail`) rather than a deep enum: the
//! executor emits them on its single-threaded classification path, the
//! frame log encodes them in 34 bytes flat, and replay compares them
//! field-for-field — a shape with no heap payloads keeps all three
//! cheap. Kind-specific meaning of `detail` is documented on each
//! [`TraceKind`] variant.

use std::fmt;

/// Sentinel node id naming the coordinator (mirrors the executor's
/// `Dest::Coordinator` → `u64::MAX` hashing convention).
pub const NODE_COORD: u32 = u32::MAX;

/// Sentinel for "no peer" (events with a single participant).
pub const NO_PEER: u32 = u32::MAX - 1;

/// `detail` reason code on [`TraceKind::FrameDropped`]: the
/// destination was down when the frame landed.
pub const DROP_DEST_DOWN: f64 = 1.0;
/// `detail` reason code on [`TraceKind::FrameDropped`]: the source was
/// down at emission time, so its outbound batch never left.
pub const DROP_SRC_DOWN: f64 = 3.0;

/// What happened. Discriminants are the wire encoding (frame-log
/// format v1) — append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A frame entered the fabric. `node` = destination, `peer` =
    /// source, `tag` = frame tag, `detail` = total flight time in ms
    /// (delivery is due at `at_ms + detail`), which is also what the
    /// frame-latency histogram ingests.
    FrameScheduled = 0,
    /// A frame left the heap and reached an alive destination.
    /// `detail` = 0.
    FrameDelivered = 1,
    /// A frame left the heap but was discarded. `detail` = one of the
    /// `DROP_*` reason codes. A lossy link never drops: it delays the
    /// frame through retransmission ([`TraceKind::FrameHeld`]), so code
    /// 2 is unused.
    FrameDropped = 2,
    /// The fault script delayed a frame beyond its base link time.
    /// `node`/`peer`/`tag` as scheduled; `detail` = extra ms.
    FrameHeld = 3,
    /// A timer fired. `tag` = the executor's timer tag (16 deadline,
    /// 17 exchange RTO, 18 stream arrival, 19 stream departure).
    TimerFired = 4,
    /// The coordinator opened a round (`round`); `node` =
    /// [`NODE_COORD`].
    RoundBegin = 5,
    /// The coordinator closed a round; `detail` = phase duration ms.
    RoundEnd = 6,
    /// A node's exchange proposal reached its partner. `node` =
    /// proposer, `peer` = partner.
    ExchangePropose = 7,
    /// An exchange committed (`Commit` landed). `node` = committer,
    /// `peer` = partner when known.
    ExchangeCommit = 8,
    /// An exchange aborted (RTO rollback under in-protocol detection).
    /// `node` = the side that timed out.
    ExchangeAbort = 9,
    /// The failure detector suspected `node`; `detail` = detection
    /// latency ms when the suspicion is a true positive (0 otherwise).
    DetectorSuspect = 10,
    /// The coordinator excluded `node` from round `round`.
    DetectorExclude = 11,
    /// A wrongly suspected (or recovered) node rejoined.
    DetectorRejoin = 12,
    /// A gossip delta exchange: `node` = receiver, `peer` = sender,
    /// `detail` = payload bytes.
    GossipDelta = 13,
    /// A gossip full-shard fallback exchange; fields as
    /// [`TraceKind::GossipDelta`].
    GossipFull = 14,
    /// A streamed request arrived at organization `node`.
    StreamArrival = 15,
    /// A streamed request departed (was served); `node` = home
    /// organization, `detail` = sojourn ms when known.
    StreamDeparture = 16,
    /// A streamed request was dropped (unroutable: every host of its
    /// organization's load was down). `detail` = requests dropped.
    StreamDrop = 17,
}

/// Number of [`TraceKind`] variants (per-kind counter array size).
pub const KIND_COUNT: usize = 18;

impl TraceKind {
    /// All variants, in discriminant order.
    pub const ALL: [TraceKind; KIND_COUNT] = [
        TraceKind::FrameScheduled,
        TraceKind::FrameDelivered,
        TraceKind::FrameDropped,
        TraceKind::FrameHeld,
        TraceKind::TimerFired,
        TraceKind::RoundBegin,
        TraceKind::RoundEnd,
        TraceKind::ExchangePropose,
        TraceKind::ExchangeCommit,
        TraceKind::ExchangeAbort,
        TraceKind::DetectorSuspect,
        TraceKind::DetectorExclude,
        TraceKind::DetectorRejoin,
        TraceKind::GossipDelta,
        TraceKind::GossipFull,
        TraceKind::StreamArrival,
        TraceKind::StreamDeparture,
        TraceKind::StreamDrop,
    ];

    /// Decodes a wire discriminant.
    pub fn from_u8(v: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(v as usize).copied()
    }

    /// Stable lower-case label (CLI filter vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::FrameScheduled => "frame_scheduled",
            TraceKind::FrameDelivered => "frame_delivered",
            TraceKind::FrameDropped => "frame_dropped",
            TraceKind::FrameHeld => "frame_held",
            TraceKind::TimerFired => "timer",
            TraceKind::RoundBegin => "round_begin",
            TraceKind::RoundEnd => "round_end",
            TraceKind::ExchangePropose => "exchange_propose",
            TraceKind::ExchangeCommit => "exchange_commit",
            TraceKind::ExchangeAbort => "exchange_abort",
            TraceKind::DetectorSuspect => "detector_suspect",
            TraceKind::DetectorExclude => "detector_exclude",
            TraceKind::DetectorRejoin => "detector_rejoin",
            TraceKind::GossipDelta => "gossip_delta",
            TraceKind::GossipFull => "gossip_full",
            TraceKind::StreamArrival => "stream_arrival",
            TraceKind::StreamDeparture => "stream_departure",
            TraceKind::StreamDrop => "stream_drop",
        }
    }

    /// Event family (coarse CLI filter): `frame`, `timer`, `round`,
    /// `exchange`, `detector`, `gossip`, or `stream`.
    pub fn family(&self) -> &'static str {
        match self {
            TraceKind::FrameScheduled
            | TraceKind::FrameDelivered
            | TraceKind::FrameDropped
            | TraceKind::FrameHeld => "frame",
            TraceKind::TimerFired => "timer",
            TraceKind::RoundBegin | TraceKind::RoundEnd => "round",
            TraceKind::ExchangePropose | TraceKind::ExchangeCommit | TraceKind::ExchangeAbort => {
                "exchange"
            }
            TraceKind::DetectorSuspect | TraceKind::DetectorExclude | TraceKind::DetectorRejoin => {
                "detector"
            }
            TraceKind::GossipDelta | TraceKind::GossipFull => "gossip",
            TraceKind::StreamArrival | TraceKind::StreamDeparture | TraceKind::StreamDrop => {
                "stream"
            }
        }
    }
}

/// Human label for a frame or timer `tag` (the executor's hashing
/// vocabulary: frame tags 1–9 from the wire codec, timer tags 16–19).
pub fn tag_label(tag: u8) -> &'static str {
    match tag {
        0 => "-",
        1 => "RoundStart",
        2 => "Propose",
        3 => "Accept",
        4 => "Busy",
        5 => "Commit",
        6 => "Report",
        7 => "Shutdown",
        8 => "FinalLedger",
        9 => "CommitAck",
        16 => "Deadline",
        17 => "ExchangeRto",
        18 => "Arrival",
        19 => "Departure",
        _ => "?",
    }
}

/// One observable occurrence on the virtual clock. Field semantics are
/// kind-specific — see [`TraceKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// Virtual time of the occurrence, in milliseconds.
    pub at_ms: f64,
    /// Primary participant (destination for frames; [`NODE_COORD`]
    /// names the coordinator).
    pub node: u32,
    /// Secondary participant (source for frames; [`NO_PEER`] when
    /// absent).
    pub peer: u32,
    /// Protocol round the event belongs to (0 when not applicable).
    pub round: u64,
    /// Frame tag (1–9) or timer tag (16–19); 0 when not applicable.
    pub tag: u8,
    /// Kind-specific scalar (latency ms, extra delay ms, bytes, drop
    /// reason…).
    pub detail: f64,
}

impl TraceEvent {
    /// Builds an event with no peer, round, tag, or detail — the
    /// common shape for stream/round markers.
    pub fn mark(kind: TraceKind, at_ms: f64, node: u32) -> Self {
        TraceEvent {
            kind,
            at_ms,
            node,
            peer: NO_PEER,
            round: 0,
            tag: 0,
            detail: 0.0,
        }
    }

    /// Pretty node label (`coord` for the coordinator sentinel).
    pub fn node_label(id: u32) -> String {
        match id {
            NODE_COORD => "coord".to_string(),
            NO_PEER => "-".to_string(),
            n => n.to_string(),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12.3}ms {:<17} node={} peer={} round={} tag={} detail={}",
            self.at_ms,
            self.kind.label(),
            TraceEvent::node_label(self.node),
            TraceEvent::node_label(self.peer),
            self.round,
            tag_label(self.tag),
            self.detail,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_their_discriminants() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(*k as u8, i as u8);
            assert_eq!(TraceKind::from_u8(i as u8), Some(*k));
        }
        assert_eq!(TraceKind::from_u8(KIND_COUNT as u8), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut seen: Vec<&str> = Vec::new();
        for k in TraceKind::ALL {
            assert!(!seen.contains(&k.label()), "duplicate {}", k.label());
            seen.push(k.label());
        }
    }

    #[test]
    fn display_is_compact() {
        let ev = TraceEvent {
            kind: TraceKind::FrameDelivered,
            at_ms: 12.5,
            node: 3,
            peer: NODE_COORD,
            round: 2,
            tag: 1,
            detail: 0.0,
        };
        let s = ev.to_string();
        assert!(s.contains("frame_delivered"), "{s}");
        assert!(s.contains("peer=coord"), "{s}");
        assert!(s.contains("tag=RoundStart"), "{s}");
    }
}
