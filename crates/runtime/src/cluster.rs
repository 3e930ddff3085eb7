//! What a cluster run is configured with and what it reports:
//! [`ClusterOptions`] in, [`ClusterReport`] out, plus the per-plane
//! summaries the report carries.
//!
//! Round/termination logic lives in the executor's
//! `CoordinatorMachine`, the per-node protocol in
//! [`NodeMachine`](crate::machine::NodeMachine), and the event executor
//! ([`crate::executor`]) drives both.
//!
//! The coordinator plays two roles the paper assumes as substrates:
//! the converged *gossip layer* (it rebroadcasts the load vector at
//! every round start — `dlb-gossip` shows the decentralized version of
//! this plumbing) and the *termination detector* (it stops once no
//! request volume has moved for a configurable number of rounds).
//!
//! The per-round `ΣC` history is reconstructed exactly from the nodes'
//! local cost terms: each report carries
//! `Σ_k r_kj (l_j/2s_j + c_kj)`, and these sum to the system objective
//! — the coordinator never needs to see a ledger until shutdown.

use dlb_core::Assignment;

use crate::machine::NodeConfig;

/// How the coordinator learns that a node has crashed.
///
/// The baseline [`DetectMode::Oracle`] is the fault script as liveness
/// oracle: the coordinator reads which nodes are down from it at each
/// round start (ground truth, zero detection latency) — the
/// idealized-failure regime the golden event hashes pin. The other two
/// modes move detection *into the protocol* and hand the coordinator no
/// script: it arms a per-round report deadline and suspects any node
/// whose report has not arrived when it fires; exchanges get their own
/// retransmission timeout so a proposer whose partner dies
/// mid-exchange aborts and rolls back locally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DetectMode {
    /// Ground-truth liveness from the fault script (the default).
    #[default]
    Oracle,
    /// Fixed per-round report deadline, in virtual milliseconds after
    /// the round start. Aggressive values trade detection latency for
    /// false positives (wrongly suspected stragglers, which later
    /// rejoin through the probation path).
    Timeout(f64),
    /// Phi-accrual-style adaptive deadline: a per-node running
    /// mean/variance over observed report latencies (Welford, pure
    /// f64, no RNG) sets each node's bound at `μ + 4σ + 1 ms`; nodes
    /// with fewer than three observations fall back to the global
    /// estimator, which itself boots at
    /// [`ADAPTIVE_BOOTSTRAP_MS`](crate::machine::ADAPTIVE_BOOTSTRAP_MS).
    /// Deterministic across repeats and `DLB_THREADS`.
    Adaptive,
}

/// What the in-protocol failure detector did during a run (all zeros
/// under [`DetectMode::Oracle`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectorSummary {
    /// Nodes suspected after missing a report deadline (a node
    /// re-suspected in a later round counts again).
    pub suspicions: u32,
    /// Suspicions that turned out wrong: the node was alive and its
    /// late report triggered the probation/rejoin handshake.
    pub false_positives: u32,
    /// Mean virtual time from a node's physical crash to its
    /// suspicion, over true-positive detections (`0` when none).
    pub detection_latency_ms: f64,
    /// Total virtual time wrongly-suspected nodes spent excluded
    /// before rejoining.
    pub rejoin_ms: f64,
    /// Exchanges a node aborted and rolled back after its partner went
    /// silent mid-exchange.
    pub aborted_exchanges: u32,
}

impl DetectorSummary {
    /// Whether the detector has nothing to report.
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

/// What the open-system request stream experienced during a run (all
/// zeros for closed-batch runs). Latencies are
/// virtual milliseconds; the percentile fields are computed over the
/// sojourns of every served request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamSummary {
    /// Requests routed to a live server and served.
    pub served: u64,
    /// Requests dropped because their chosen server was physically
    /// down at arrival time.
    pub dropped: u64,
    /// Median request sojourn (network delay + expected wait), ms.
    pub p50_ms: f64,
    /// 99th-percentile request sojourn, ms.
    pub p99_ms: f64,
    /// Virtual time the cluster spent imbalanced while requests
    /// flowed: stretches where the worst live server's normalized load
    /// `l_j/s_j` exceeded twice the live mean.
    pub imbalance_ms: f64,
}

impl StreamSummary {
    /// Whether no stream ran (the closed-batch summary).
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

/// Cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOptions {
    /// Maximum number of rounds to run.
    pub max_rounds: usize,
    /// Stop after this many consecutive rounds in which the moved
    /// request volume stays below [`ClusterOptions::quiescent_volume`].
    /// `m − 1` quiet rounds certify pairwise optimality of the final
    /// state (see the audit rotation); the default is a cheaper
    /// heuristic that the integration tests show suffices in practice.
    pub quiescent_rounds: usize,
    /// Moved volume below which a round counts as quiet.
    pub quiescent_volume: f64,
    /// Per-node protocol configuration.
    pub node: NodeConfig,
    /// How crashed nodes are detected (see [`DetectMode`]).
    pub detect: DetectMode,
    /// Exchange retransmission timeout (virtual ms) under in-protocol
    /// detection: how long a node waits for its partner's next
    /// data-plane frame before aborting the exchange and rolling back.
    /// Must exceed the worst-case frame round trip (including fault
    /// retransmissions and partition holds) or live exchanges tear;
    /// the scenario layer derives a safe bound from the fault plan.
    /// Ignored under [`DetectMode::Oracle`].
    pub exchange_rto_ms: f64,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            max_rounds: 300,
            quiescent_rounds: 3,
            quiescent_volume: 1e-9,
            node: NodeConfig::default(),
            detect: DetectMode::Oracle,
            exchange_rto_ms: 10_000.0,
        }
    }
}

impl ClusterOptions {
    /// Options that run until the audit rotation certifies pairwise
    /// optimality: `m − 1` consecutive quiet rounds.
    pub fn certified(m: usize) -> Self {
        Self {
            quiescent_rounds: m.saturating_sub(1).max(1),
            max_rounds: 20 * m + 100,
            ..Default::default()
        }
    }
}

/// Result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The final assignment assembled from the nodes' ledgers.
    pub assignment: Assignment,
    /// `ΣC` of the final assignment.
    pub final_cost: f64,
    /// Exact `ΣC` after every round (index 0 = initial assignment).
    pub history: Vec<f64>,
    /// Rounds actually executed.
    pub rounds: usize,
    /// Total exchanges across all rounds (including zero-volume audit
    /// exchanges).
    pub exchanges: usize,
    /// Total request volume moved across all rounds.
    pub moved: f64,
    /// Proposals that lost to a busy partner.
    pub lost_proposals: usize,
    /// Whether the run ended by quiescence (`true`) or by the round
    /// budget (`false`).
    pub quiescent: bool,
    /// Simulated protocol time in ms under the run's link delays.
    pub virtual_ms: f64,
    /// Fingerprint of the delivered event order. Bit-identical across
    /// repeats and `DLB_THREADS` values — the determinism suite's
    /// witness.
    pub event_hash: u64,
    /// What the fault script injected during the run (all zeros for
    /// fault-free runs).
    pub faults: dlb_faults::FaultSummary,
    /// What the in-protocol failure detector did (all zeros under
    /// [`DetectMode::Oracle`]).
    pub detector: DetectorSummary,
    /// What the open-system request stream experienced (all zeros for
    /// closed-batch runs).
    pub stream: StreamSummary,
}
