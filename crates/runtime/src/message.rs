//! The wire protocol of the message-passing runtime.
//!
//! [`Frame`] is the protocol's message vocabulary: what two
//! organizations would put on a TCP connection between them. The
//! executor hosts every node in one process, so frames are never
//! serialized: the ledger-free node-to-node frames (`Propose`, `Busy`,
//! `CommitAck`) ride its event heap as plain values, every other frame
//! as a shared `Arc<Frame>` — but for the final ledger. A node answers
//! the `Shutdown` with the value `FinalLedger { from }` alone: it stops
//! once it has sent it, so the executor moves its ledger out of the
//! machine table when the run ends instead of copying it into a frame,
//! and the coordinator only counts the replies. The public
//! [`NodeMachine::handle`](crate::NodeMachine::handle) fills the entries
//! in after handling its frame. Ledgers that cross mid-run keep their
//! wire shape — `(owner, requests)` pairs, 12 bytes per entry on a real
//! link, so even a full exchange between two heavily shared servers in
//! a 5000-organization system would be a frame of ~60 kB, small next to
//! the request payloads the system actually relays.
//!
//! The protocol has two planes:
//!
//! * **control plane** (coordinator ↔ node): [`Frame::RoundStart`],
//!   [`Frame::Report`], [`Frame::Shutdown`], [`Frame::FinalLedger`] —
//!   the coordinator stands in for the gossip layer (it redistributes
//!   the load vector each round) and detects termination. It only
//!   broadcasts, one shared `RoundStart` or `Shutdown` for every node it
//!   reaches; a node sends only to one peer or to the coordinator;
//! * **data plane** (node ↔ node): [`Frame::Propose`],
//!   [`Frame::Accept`], [`Frame::Busy`], [`Frame::Commit`] — the
//!   pairwise exchange of Algorithm 1, executed on the ledgers the
//!   frames carry.

use dlb_core::SparseVec;
use std::borrow::Cow;
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

/// A protocol message. `from` fields are node indices; ledgers travel
/// as `(owner, requests)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Coordinator → node: a new round begins. Carries the round number
    /// and the freshest load vector (the coordinator plays the role of
    /// a converged gossip layer; `dlb-gossip` shows the decentralized
    /// equivalent).
    ///
    /// The per-block load summaries that let `select=exact` skip peers
    /// are the round's, not the node's, and belong here; but the perf
    /// ledger (`benchmark/`) builds against this variant as it is, so
    /// until its pinned API thaws (ROADMAP item 6) they travel beside
    /// the frame: the coordinator computes them once per round and the
    /// executor lends them to every node it drains.
    RoundStart {
        /// Round number (1-based).
        round: u64,
        /// Load of every server, by index. One `Arc` per round: the
        /// coordinator builds the vector once and every per-node frame
        /// shares it instead of carrying one of `m` copies.
        loads: Arc<Vec<f64>>,
        /// Servers excluded this round (failed / crashed), sorted
        /// ascending by id.
        excluded: Vec<u32>,
        /// Unread, and always 0: kept only because the perf ledger
        /// builds this variant; it goes at the thaw (ROADMAP item 6).
        epoch: u64,
        /// The round's gossiped hot set (most over-/under-loaded live
        /// nodes), sorted ascending by id; empty under exact
        /// selection. One `Arc` per round, shared like `loads`.
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
    /// Node → coordinator: the node's final ledger. The executor's
    /// nodes send it without entries (see the module docs).
    FinalLedger {
        /// Reporting node.
        from: u32,
        /// Final ledger of the node's server.
        ledger: Vec<(u32, f64)>,
    },
}

/// Which frame a [`Payload::Signal`] is. The discriminants are the
/// frames' hash and trace tags (the executor's `frame_identity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SignalKind {
    Propose = 2,
    Busy = 4,
    FinalLedger = 8,
    CommitAck = 9,
}

/// What one delivery carries: a [`Frame::Propose`], [`Frame::Busy`],
/// [`Frame::CommitAck`] or a ledger-free [`Frame::FinalLedger`] as the
/// value `(kind, from, round)` — nothing to allocate, share or chase (a
/// final ledger's round is 0) — and any other frame shared.
pub(crate) enum Payload {
    Signal(SignalKind, u32, u64),
    Frame(Arc<Frame>),
}

impl Payload {
    /// The carried frame: built on the stack for a signal, borrowed
    /// otherwise. A final-ledger signal is the frame with no entries.
    pub fn frame(&self) -> Cow<'_, Frame> {
        Cow::Owned(match *self {
            Self::Signal(SignalKind::Propose, from, round) => Frame::Propose { from, round },
            Self::Signal(SignalKind::Busy, from, round) => Frame::Busy { from, round },
            Self::Signal(SignalKind::FinalLedger, from, _) => Frame::FinalLedger {
                from,
                ledger: Vec::new(),
            },
            Self::Signal(SignalKind::CommitAck, from, round) => Frame::CommitAck { from, round },
            Self::Frame(ref frame) => return Cow::Borrowed(frame),
        })
    }
}

/// Converts a [`SparseVec`] ledger into its wire representation.
pub(crate) fn ledger_to_wire(ledger: &SparseVec) -> Vec<(u32, f64)> {
    ledger.iter().collect()
}

/// Rebuilds a [`SparseVec`] from wire entries.
pub(crate) fn wire_to_ledger(entries: &[(u32, f64)]) -> SparseVec {
    let mut v = SparseVec::with_capacity(entries.len());
    for &(owner, amount) in entries {
        v.set(owner, amount);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

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
