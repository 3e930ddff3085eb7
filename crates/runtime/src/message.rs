//! The wire protocol of the message-passing runtime.
//!
//! Every payload that crosses a channel is first serialized into a
//! length-delimited little-endian frame (via `bytes`), exactly as it
//! would be on a TCP connection between two organizations. Encoding a
//! ledger costs 12 bytes per entry, so even a full exchange between two
//! heavily shared servers in a 5000-organization system is a frame of
//! ~60 kB — small next to the request payloads the system actually
//! relays.
//!
//! The protocol has two planes:
//!
//! * **control plane** (coordinator ↔ node): [`Frame::RoundStart`],
//!   [`Frame::Report`], [`Frame::Shutdown`], [`Frame::FinalLedger`] —
//!   the coordinator stands in for the gossip layer (it redistributes
//!   the load vector each round) and detects termination;
//! * **data plane** (node ↔ node): [`Frame::Propose`],
//!   [`Frame::Accept`], [`Frame::Busy`], [`Frame::Commit`] — the
//!   pairwise exchange of Algorithm 1, executed on real serialized
//!   ledgers.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dlb_core::SparseVec;
use std::sync::Arc;

/// How a node's initiator role ended this round (carried by
/// [`Frame::Report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOutcome {
    /// The node saw no partner worth proposing to.
    NoProposal,
    /// The chosen partner was already locked in another exchange.
    Lost,
    /// The exchange completed (reported by the initiator).
    Exchanged,
    /// The node yielded its initiator role in a proposal collision and
    /// took part as the acceptor; the initiator separately reports the
    /// exchange itself.
    Accepted,
    /// The node timed out waiting on its exchange partner mid-protocol
    /// and rolled the tentative transfer back locally. Only emitted
    /// under in-protocol failure detection (`detect != oracle`), where
    /// exchanges carry their own retransmission timeout.
    Aborted,
}

impl RoundOutcome {
    fn to_u8(self) -> u8 {
        match self {
            RoundOutcome::NoProposal => 0,
            RoundOutcome::Lost => 1,
            RoundOutcome::Exchanged => 2,
            RoundOutcome::Accepted => 3,
            RoundOutcome::Aborted => 4,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(RoundOutcome::NoProposal),
            1 => Some(RoundOutcome::Lost),
            2 => Some(RoundOutcome::Exchanged),
            3 => Some(RoundOutcome::Accepted),
            4 => Some(RoundOutcome::Aborted),
            _ => None,
        }
    }
}

/// A protocol message. `from` fields are node indices; ledgers travel
/// as `(owner, requests)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Coordinator → node: a new round begins. Carries the round number
    /// and the freshest load vector (the coordinator plays the role of
    /// a converged gossip layer; `dlb-gossip` shows the decentralized
    /// equivalent).
    RoundStart {
        /// Round number (0-based).
        round: u64,
        /// Load of every server, by index. One `Arc` per round
        /// (epoch): the coordinator builds the vector once and every
        /// per-node frame shares it instead of carrying one of `m`
        /// copies.
        loads: Arc<Vec<f64>>,
        /// Servers excluded this round (failed / crashed), sorted
        /// ascending by id.
        excluded: Vec<u32>,
        /// Load-vector epoch: advances only when the gossiped view
        /// (loads or exclusions) changed since the previous round.
        /// Nodes running `SelectPolicy::TopK` rebuild their candidate
        /// merge iff this advances; stays 0 under exact selection.
        epoch: u64,
        /// The epoch's gossiped hot set (most over-/under-loaded live
        /// nodes), sorted ascending by id; empty under exact
        /// selection. One `Arc` per epoch, shared like `loads`.
        hot: Arc<Vec<u32>>,
    },
    /// Node → node: "let us run Algorithm 1 on our pair".
    Propose {
        /// Proposing node.
        from: u32,
        /// Round the proposal belongs to.
        round: u64,
    },
    /// Node → node: acceptance, carrying the acceptor's full ledger so
    /// the initiator can run Algorithm 1 exactly.
    Accept {
        /// Accepting node.
        from: u32,
        /// Round of the matching proposal.
        round: u64,
        /// The acceptor's ledger: who owns how many of its requests.
        ledger: Vec<(u32, f64)>,
    },
    /// Node → node: the contacted node is already in an exchange (or
    /// itself awaiting an answer) this round.
    Busy {
        /// Rejecting node.
        from: u32,
        /// Round of the rejected proposal.
        round: u64,
    },
    /// Node → node: the initiator's result of Algorithm 1 — the
    /// acceptor's new ledger after the optimal pairwise transfer.
    Commit {
        /// Initiating node.
        from: u32,
        /// Round of the exchange.
        round: u64,
        /// The acceptor's new ledger.
        ledger: Vec<(u32, f64)>,
    },
    /// Node → coordinator: the node's initiator role resolved. Carries
    /// the node's current load and local cost term
    /// `Σ_k r_kj (l_j/2s_j + c_kj)` — summing these over all nodes
    /// reproduces the exact `ΣC` — plus the partner's values when an
    /// exchange happened, so the coordinator can refresh its view
    /// without waiting for acceptors.
    Report {
        /// Reporting node.
        from: u32,
        /// Round being reported.
        round: u64,
        /// How the initiator role ended.
        outcome: RoundOutcome,
        /// Reporting node's load after the round.
        load: f64,
        /// Reporting node's local `ΣC` contribution.
        local_cost: f64,
        /// `(partner, partner_load, partner_local_cost, moved)` for
        /// [`RoundOutcome::Exchanged`].
        exchange: Option<(u32, f64, f64, f64)>,
    },
    /// Node → node: the acceptor installed the committed ledger. Only
    /// sent under in-protocol failure detection, where the initiator
    /// applies its own half of the transfer on this acknowledgement
    /// instead of at [`Frame::Commit`] time — so a partner that dies
    /// mid-exchange leaves *nothing* half-applied on either side.
    CommitAck {
        /// Acknowledging (acceptor) node.
        from: u32,
        /// Round of the exchange.
        round: u64,
    },
    /// Coordinator → node: stop after sending back the final ledger.
    Shutdown,
    /// Node → coordinator: the node's final ledger.
    FinalLedger {
        /// Reporting node.
        from: u32,
        /// Final ledger of the node's server.
        ledger: Vec<(u32, f64)>,
    },
}

const TAG_ROUND_START: u8 = 1;
const TAG_PROPOSE: u8 = 2;
const TAG_ACCEPT: u8 = 3;
const TAG_BUSY: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_REPORT: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_FINAL_LEDGER: u8 = 8;
const TAG_COMMIT_ACK: u8 = 9;

fn put_ledger(buf: &mut BytesMut, ledger: &[(u32, f64)]) {
    buf.put_u32_le(ledger.len() as u32);
    for &(owner, amount) in ledger {
        buf.put_u32_le(owner);
        buf.put_f64_le(amount);
    }
}

fn get_ledger(buf: &mut Bytes) -> Option<Vec<(u32, f64)>> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 12 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let owner = buf.get_u32_le();
        let amount = buf.get_f64_le();
        out.push((owner, amount));
    }
    Some(out)
}

impl Frame {
    /// Serializes the frame into a standalone byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        match self {
            Frame::RoundStart {
                round,
                loads,
                excluded,
                epoch,
                hot,
            } => {
                buf.put_u8(TAG_ROUND_START);
                buf.put_u64_le(*round);
                buf.put_u32_le(loads.len() as u32);
                for &l in loads.iter() {
                    buf.put_f64_le(l);
                }
                buf.put_u32_le(excluded.len() as u32);
                for &x in excluded {
                    buf.put_u32_le(x);
                }
                buf.put_u64_le(*epoch);
                buf.put_u32_le(hot.len() as u32);
                for &x in hot.iter() {
                    buf.put_u32_le(x);
                }
            }
            Frame::Propose { from, round } => {
                buf.put_u8(TAG_PROPOSE);
                buf.put_u32_le(*from);
                buf.put_u64_le(*round);
            }
            Frame::Accept {
                from,
                round,
                ledger,
            } => {
                buf.put_u8(TAG_ACCEPT);
                buf.put_u32_le(*from);
                buf.put_u64_le(*round);
                put_ledger(&mut buf, ledger);
            }
            Frame::Busy { from, round } => {
                buf.put_u8(TAG_BUSY);
                buf.put_u32_le(*from);
                buf.put_u64_le(*round);
            }
            Frame::Commit {
                from,
                round,
                ledger,
            } => {
                buf.put_u8(TAG_COMMIT);
                buf.put_u32_le(*from);
                buf.put_u64_le(*round);
                put_ledger(&mut buf, ledger);
            }
            Frame::Report {
                from,
                round,
                outcome,
                load,
                local_cost,
                exchange,
            } => {
                buf.put_u8(TAG_REPORT);
                buf.put_u32_le(*from);
                buf.put_u64_le(*round);
                buf.put_u8(outcome.to_u8());
                buf.put_f64_le(*load);
                buf.put_f64_le(*local_cost);
                match exchange {
                    Some((partner, partner_load, partner_cost, moved)) => {
                        buf.put_u8(1);
                        buf.put_u32_le(*partner);
                        buf.put_f64_le(*partner_load);
                        buf.put_f64_le(*partner_cost);
                        buf.put_f64_le(*moved);
                    }
                    None => buf.put_u8(0),
                }
            }
            Frame::CommitAck { from, round } => {
                buf.put_u8(TAG_COMMIT_ACK);
                buf.put_u32_le(*from);
                buf.put_u64_le(*round);
            }
            Frame::Shutdown => {
                buf.put_u8(TAG_SHUTDOWN);
            }
            Frame::FinalLedger { from, ledger } => {
                buf.put_u8(TAG_FINAL_LEDGER);
                buf.put_u32_le(*from);
                put_ledger(&mut buf, ledger);
            }
        }
        buf.freeze()
    }

    /// Decodes a frame produced by [`Frame::encode`]. Returns `None` on
    /// malformed input.
    pub fn decode(mut buf: Bytes) -> Option<Frame> {
        if buf.remaining() < 1 {
            return None;
        }
        let tag = buf.get_u8();
        match tag {
            TAG_ROUND_START => {
                if buf.remaining() < 12 {
                    return None;
                }
                let round = buf.get_u64_le();
                let n = buf.get_u32_le() as usize;
                if buf.remaining() < n * 8 + 4 {
                    return None;
                }
                let loads = Arc::new((0..n).map(|_| buf.get_f64_le()).collect());
                let k = buf.get_u32_le() as usize;
                if buf.remaining() < k * 4 + 12 {
                    return None;
                }
                let excluded = (0..k).map(|_| buf.get_u32_le()).collect();
                let epoch = buf.get_u64_le();
                let h = buf.get_u32_le() as usize;
                if buf.remaining() < h * 4 {
                    return None;
                }
                let hot = Arc::new((0..h).map(|_| buf.get_u32_le()).collect());
                Some(Frame::RoundStart {
                    round,
                    loads,
                    excluded,
                    epoch,
                    hot,
                })
            }
            TAG_PROPOSE => {
                if buf.remaining() < 12 {
                    return None;
                }
                Some(Frame::Propose {
                    from: buf.get_u32_le(),
                    round: buf.get_u64_le(),
                })
            }
            TAG_ACCEPT => {
                if buf.remaining() < 12 {
                    return None;
                }
                let from = buf.get_u32_le();
                let round = buf.get_u64_le();
                let ledger = get_ledger(&mut buf)?;
                Some(Frame::Accept {
                    from,
                    round,
                    ledger,
                })
            }
            TAG_BUSY => {
                if buf.remaining() < 12 {
                    return None;
                }
                Some(Frame::Busy {
                    from: buf.get_u32_le(),
                    round: buf.get_u64_le(),
                })
            }
            TAG_COMMIT => {
                if buf.remaining() < 12 {
                    return None;
                }
                let from = buf.get_u32_le();
                let round = buf.get_u64_le();
                let ledger = get_ledger(&mut buf)?;
                Some(Frame::Commit {
                    from,
                    round,
                    ledger,
                })
            }
            TAG_REPORT => {
                if buf.remaining() < 29 {
                    return None;
                }
                let from = buf.get_u32_le();
                let round = buf.get_u64_le();
                let outcome = RoundOutcome::from_u8(buf.get_u8())?;
                let load = buf.get_f64_le();
                let local_cost = buf.get_f64_le();
                let has_exchange = buf.get_u8();
                let exchange = match has_exchange {
                    0 => None,
                    1 => {
                        if buf.remaining() < 28 {
                            return None;
                        }
                        Some((
                            buf.get_u32_le(),
                            buf.get_f64_le(),
                            buf.get_f64_le(),
                            buf.get_f64_le(),
                        ))
                    }
                    _ => return None,
                };
                Some(Frame::Report {
                    from,
                    round,
                    outcome,
                    load,
                    local_cost,
                    exchange,
                })
            }
            TAG_COMMIT_ACK => {
                if buf.remaining() < 12 {
                    return None;
                }
                Some(Frame::CommitAck {
                    from: buf.get_u32_le(),
                    round: buf.get_u64_le(),
                })
            }
            TAG_SHUTDOWN => Some(Frame::Shutdown),
            TAG_FINAL_LEDGER => {
                if buf.remaining() < 4 {
                    return None;
                }
                let from = buf.get_u32_le();
                let ledger = get_ledger(&mut buf)?;
                Some(Frame::FinalLedger { from, ledger })
            }
            _ => None,
        }
    }
}

/// Converts a [`SparseVec`] ledger into its wire representation.
pub fn ledger_to_wire(ledger: &SparseVec) -> Vec<(u32, f64)> {
    ledger.iter().collect()
}

/// Rebuilds a [`SparseVec`] from wire entries.
pub fn wire_to_ledger(entries: &[(u32, f64)]) -> SparseVec {
    let mut v = SparseVec::with_capacity(entries.len());
    for &(owner, amount) in entries {
        v.set(owner, amount);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let decoded = Frame::decode(bytes).expect("decodes");
        assert_eq!(frame, decoded);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Frame::RoundStart {
            round: 7,
            loads: Arc::new(vec![1.0, 2.5, 0.0]),
            excluded: vec![2],
            epoch: 0,
            hot: Arc::new(vec![]),
        });
        roundtrip(Frame::RoundStart {
            round: 8,
            loads: Arc::new(vec![4.0, 0.0, 9.5]),
            excluded: vec![],
            epoch: 3,
            hot: Arc::new(vec![0, 2]),
        });
        roundtrip(Frame::Propose { from: 3, round: 9 });
        roundtrip(Frame::Accept {
            from: 1,
            round: 2,
            ledger: vec![(0, 10.0), (5, 2.25)],
        });
        roundtrip(Frame::Busy { from: 4, round: 2 });
        roundtrip(Frame::Commit {
            from: 0,
            round: 3,
            ledger: vec![],
        });
        roundtrip(Frame::Report {
            from: 2,
            round: 1,
            outcome: RoundOutcome::Exchanged,
            load: 42.0,
            local_cost: 99.5,
            exchange: Some((5, 17.0, 3.25, 12.5)),
        });
        roundtrip(Frame::Report {
            from: 2,
            round: 1,
            outcome: RoundOutcome::NoProposal,
            load: 42.0,
            local_cost: 0.0,
            exchange: None,
        });
        roundtrip(Frame::Report {
            from: 9,
            round: 4,
            outcome: RoundOutcome::Accepted,
            load: 7.0,
            local_cost: 1.25,
            exchange: None,
        });
        roundtrip(Frame::Report {
            from: 3,
            round: 6,
            outcome: RoundOutcome::Aborted,
            load: 11.0,
            local_cost: 2.5,
            exchange: None,
        });
        roundtrip(Frame::CommitAck { from: 5, round: 3 });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::FinalLedger {
            from: 6,
            ledger: vec![(6, 100.0)],
        });
    }

    #[test]
    fn decode_rejects_commit_ack_truncation() {
        let frame = Frame::CommitAck { from: 5, round: 3 };
        let bytes = frame.encode();
        for cut in 1..bytes.len() {
            let truncated = bytes.slice(0..cut);
            if let Some(decoded) = Frame::decode(truncated) {
                assert_ne!(decoded, frame);
            }
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let frame = Frame::Accept {
            from: 1,
            round: 2,
            ledger: vec![(0, 10.0), (5, 2.25)],
        };
        let bytes = frame.encode();
        for cut in 1..bytes.len() {
            let truncated = bytes.slice(0..cut);
            // Must never panic; shorter prefixes must either fail or
            // decode to a *different*, self-consistent frame (they
            // cannot equal the original).
            if let Some(decoded) = Frame::decode(truncated) {
                assert_ne!(decoded, frame);
            }
        }
    }

    #[test]
    fn decode_rejects_round_start_truncation() {
        let frame = Frame::RoundStart {
            round: 5,
            loads: Arc::new(vec![1.0, 2.0]),
            excluded: vec![1],
            epoch: 9,
            hot: Arc::new(vec![0, 1, 7]),
        };
        let bytes = frame.encode();
        for cut in 1..bytes.len() {
            let truncated = bytes.slice(0..cut);
            if let Some(decoded) = Frame::decode(truncated) {
                assert_ne!(decoded, frame);
            }
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let buf = Bytes::from_static(&[200, 0, 0, 0]);
        assert_eq!(Frame::decode(buf), None);
    }

    #[test]
    fn ledger_wire_roundtrip() {
        let mut ledger = SparseVec::new();
        ledger.set(3, 5.5);
        ledger.set(100, 1.0);
        let wire = ledger_to_wire(&ledger);
        let back = wire_to_ledger(&wire);
        assert_eq!(ledger, back);
    }
}
