//! The wire protocol of the message-passing runtime.
//!
//! [`Frame`] is the protocol's message vocabulary: what two
//! organizations would put on a TCP connection between them. The
//! executor hosts every node in one process, so frames travel as
//! shared `Arc<Frame>` values on its event heap and are never
//! serialized; ledgers still cross in their wire shape —
//! `(owner, requests)` pairs, 12 bytes per entry on a real link, so
//! even a full exchange between two heavily shared servers in a
//! 5000-organization system would be a frame of ~60 kB, small next to
//! the request payloads the system actually relays.
//!
//! The protocol has two planes:
//!
//! * **control plane** (coordinator ↔ node): [`Frame::RoundStart`],
//!   [`Frame::Report`], [`Frame::Shutdown`], [`Frame::FinalLedger`] —
//!   the coordinator stands in for the gossip layer (it redistributes
//!   the load vector each round) and detects termination;
//! * **data plane** (node ↔ node): [`Frame::Propose`],
//!   [`Frame::Accept`], [`Frame::Busy`], [`Frame::Commit`] — the
//!   pairwise exchange of Algorithm 1, executed on the ledgers the
//!   frames carry.

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
    /// until its pinned API thaws (ROADMAP item 2) the executor keeps
    /// them in a memo keyed by the identity of `loads`, one computation
    /// per round.
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
