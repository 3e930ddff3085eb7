//! Poll-style protocol state machines.
//!
//! The protocol logic of the runtime lives here, factored out of any
//! particular concurrency substrate: a [`NodeMachine`] is one
//! organization's half of the §IV message-passing protocol, and a
//! `CoordinatorMachine` is the round/termination driver (the stand-in
//! for the converged gossip layer). Both are *pure* state machines that
//! never block, sleep, or touch a channel, and each emits one kind of
//! output: a node's `handle` consumes one inbound [`Frame`] and appends
//! what it sends — to one peer or to the coordinator — to a
//! caller-supplied buffer, and every coordinator call returns the one
//! broadcast it makes, if any. The **event executor**
//! ([`crate::executor`]) drives thousands of them from one
//! deterministic virtual-time event heap in a single process; anything
//! else that can move frames between inboxes (a socket pump, a test
//! shuttling a handful of frames by hand) can host the same machines
//! unchanged, and can only differ in *when* frames arrive, never in how
//! they are answered.
//!
//! # Node protocol
//!
//! Per round each node plays two roles at once:
//!
//! * **initiator** — ranks partners by the closed-form score of
//!   [`dlb_distributed::mine::partner_score`] (computable from purely
//!   local knowledge: the gossiped load vector and the node's own
//!   latency column, the paper's §IV input model), evaluated a block
//!   of peers at a time by its bit-identical batch form
//!   [`dlb_distributed::mine::partner_scores`]; proposes to the
//!   best-scoring candidate and, on acceptance, runs Algorithm 1 on
//!   the two real ledgers;
//! * **acceptor** — answers a proposal with its serialized ledger when
//!   it is not already committed to an exchange, and installs the
//!   committed result.
//!
//! The pairing discipline matches the analytic engine's `pair_once`
//! semantics: at most one *completed* exchange per node per round. A
//! node whose own proposal is rejected stays available as an acceptor
//! for the rest of the round, exactly like a free server in the engine.
//!
//! **Audit probing.** The closed-form score sees only loads, so it is
//! blind to *relabelings* — states where loads are balanced but
//! requests sit on needlessly distant servers. When no partner clears
//! the score floor, the node instead probes one peer in a
//! deterministic rotation; the probe runs full Algorithm 1 on
//! the real ledgers, so every pair is re-examined at least once every
//! `m − 1` quiet rounds and the quiescent state is genuinely pairwise
//! optimal (Lemma 2) — which, by convexity, is the global optimum.
//!
//! A **proposal collision** (both endpoints of a pair propose to each
//! other in the same round) is broken by index: the lower-id node
//! yields its initiator role and answers as an acceptor; the higher-id
//! node ignores the incoming proposal, because the yielding side's
//! acceptance is already on the wire.
//!
//! **Report discipline**: every node sends exactly one
//! [`Frame::Report`] per round — `NoProposal` straight after
//! `RoundStart`, `Exchanged`/`Lost` when its proposal resolves, or
//! `Accepted` after a collision-yield commit. A node that accepts a
//! foreign proposal *after* reporting does not report again; the
//! initiator's `Exchanged` report already carries the node's new load
//! and cost term.
//!
//! **Deferral.** A node has at most one exchange leg open at a time
//! (its `Leg`). A commit for the previous round may still be in
//! flight when the next `RoundStart` (or even the `Shutdown`) arrives
//! — the initiator reports to the coordinator before its `Commit`
//! reaches the acceptor, and control frames travel free while the
//! `Commit` pays a real link delay. The machine keeps the control frame
//! in its backlog, beside the stream deltas that also wait behind the
//! leg, and settles both the moment the leg closes: the deltas first,
//! then the control frame. So no exchange is ever torn, and a deferred
//! `Shutdown`'s final ledger includes the deltas.

use dlb_core::cost::total_cost;
use dlb_core::{Assignment, Instance, LatencyMatrix, SparseVec};
use dlb_distributed::mine::{partner_scores, Candidates, SCORE_BLOCK};
use dlb_distributed::transfer::calc_best_transfer;
use dlb_faults::FaultScript;
use dlb_topology::{k_nearest_row, k_nearest_wheel};
use std::iter::{from_fn, once, zip};
use std::ops::Range;
use std::sync::Arc;

use crate::cluster::{ClusterOptions, ClusterReport, DetectMode, DetectorSummary};
use crate::message::{ledger_to_wire, wire_to_ledger, Frame, Payload, RoundOutcome, SignalKind};

/// Where a node's outbound frame is headed. The coordinator only
/// broadcasts, so it names no destination (see `CoordinatorMachine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// A peer organization's inbox.
    Node(u32),
    /// The coordinator's control-plane inbox.
    Coordinator,
}

/// One outbound frame of the public [`NodeMachine::handle`], shared. The
/// executor's node drains emit the crate's 24-byte `Sent` instead, which
/// holds a ledger-free frame by value.
#[derive(Debug, Clone)]
pub struct Outbound {
    /// Destination inbox.
    pub to: Dest,
    /// The frame to deliver.
    pub frame: Arc<Frame>,
}

/// An [`Outbound`] as the executor carries it: `Propose`, `Busy`,
/// `CommitAck` and the ledger-free `FinalLedger` travel by value, every
/// other frame shared.
pub(crate) struct Sent {
    pub to: Dest,
    pub payload: Payload,
}

impl Sent {
    fn shared(to: Dest, frame: Frame) -> Self {
        let payload = Payload::Frame(Arc::new(frame));
        Self { to, payload }
    }
}

/// Partner-selection policy: which peers a node scores at each round
/// start — the runtime port of the analytic engine's `PartnerSelection`
/// axis (`dlb_distributed::mine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectPolicy {
    /// The best of every live peer — the literal §IV choice, made by a
    /// scan that skips the peers that cannot win (see `score_best`).
    #[default]
    Exact,
    /// Score only a candidate slate: the `k` delay-nearest peers (from
    /// the node's own latency column, the §IV local-knowledge input)
    /// merged with the coordinator's gossiped *hot set* of the most
    /// over- and under-loaded live nodes, which the coordinator builds
    /// every round. A round start scores the hot set plus one lane: the
    /// nearest peer that won the node's last round start, whose score
    /// is all that can differ when neither the node's own load nor any
    /// of its `k` nearest moved (load or skip list) since. When one did,
    /// it scores the hot set plus the `k` nearest. On a finite
    /// homogeneous net the `k` nearest are the wheel `i+1..=i+k (mod m)`,
    /// two id ranges, and a node stores only its winner's id; on any
    /// other net it also keeps its `k` nearest, built on its first round
    /// start. With `k ≥ m − 1` this is exactly [`SelectPolicy::Exact`]
    /// (pinned by tests).
    TopK(u32),
}

/// Static per-node configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeConfig {
    /// Partner-selection policy (see [`SelectPolicy`]).
    pub select: SelectPolicy,
    /// Run exchanges in two phases: the initiator applies its half of
    /// the transfer only when the acceptor's [`Frame::CommitAck`]
    /// proves the other half was installed. Required under in-protocol
    /// failure detection ([`DetectMode`] other than oracle), where a
    /// partner can die mid-exchange: whichever side times out rolls
    /// back having applied *nothing*, so conservation is exact without
    /// the driver special-casing dead destinations. Off by default —
    /// oracle runs keep the single-phase wire schedule the golden
    /// event hashes pin.
    pub two_phase: bool,
}

/// Which open leg an exchange retransmission timeout guards. Under
/// in-protocol detection the executor arms one RTO per data-plane frame
/// that dies at a dead host and delivers it to the waiting machine; a
/// timer whose leg already closed is a no-op
/// ([`NodeMachine::rto_pending`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RtoKind {
    /// `Leg::Proposed`: the initiator awaits `Accept`/`Busy`.
    Answer,
    /// `Leg::Accepted`: the acceptor awaits the `Commit`.
    CommitWait,
    /// `Leg::Committed`: the initiator awaits the `CommitAck`.
    Ack,
}

/// The initiator's half of a two-phase exchange, held back until the
/// acceptor's `CommitAck` proves the other half was installed.
#[derive(Debug)]
struct PendingExchange {
    ledger: SparseVec,
    /// What the `Exchanged` report will say: `(partner, its load, its
    /// local cost, volume moved)`.
    exchange: (u32, f64, f64, f64),
}

/// A node's one exchange of the round — the §IV "at most one pairwise
/// exchange per node per round" as a type. `Proposed`, `Accepted` and
/// `Committed` are *open*: the ledger is promised to a peer, so control
/// frames and stream deltas wait behind them.
#[derive(Debug)]
enum Leg {
    /// No exchange open; may propose and accept.
    Free,
    /// Proposed to the given peer; awaiting its `Accept` or `Busy`.
    Proposed(u32),
    /// Accepted the given initiator's proposal; its `Commit` is in
    /// flight.
    Accepted(u32),
    /// Two-phase initiator: committed, its own half held back until the
    /// acceptor's `CommitAck`.
    Committed(Box<PendingExchange>),
    /// Done for the round (an exchange completed or rolled back after
    /// its commit, or the node is excluded): rejects further proposals.
    Locked,
}

/// Minimum closed-form score below which a node does not propose on
/// score grounds (same role as the engine's `min_improvement` floor).
const SCORE_FLOOR: f64 = 1e-9;

/// `NodeMachine::static_best` when there is no winner to keep: node
/// ids are below `u32::MAX`.
const UNSCANNED: u32 = u32::MAX;

/// The node's local contribution to `ΣC`:
/// `Σ_k r_k,id · (l_id / 2 s_id + c_k,id)`.
fn local_cost(id: u32, instance: &Instance, ledger: &SparseVec) -> f64 {
    let load = ledger.sum();
    let congestion_per_request = load / (2.0 * instance.speed(id as usize));
    // Folded from `0.0`: `Iterator::sum` starts at `-0.0`, which an
    // empty ledger would return as is and records would print as `-0`.
    ledger.iter().fold(0.0, |cost, (k, r)| {
        cost + r * (congestion_per_request + instance.c(k as usize, id as usize))
    })
}

/// The one tie rule of every round-start scan: whether peer `j`,
/// scoring `s`, displaces `best`. The higher score wins, the lower id on
/// a tie. A NaN on either side fails both comparisons and displaces, so
/// on an ascending id stream this is the keep-first fold of the exact
/// scan; a tame lane never scores NaN.
fn keep(best: Option<(u32, f64)>, j: u32, s: f64) -> bool {
    !best.is_some_and(|(bj, b)| s < b || (s == b && j >= bj))
}

/// The peer of `best`, if its score is above [`SCORE_FLOOR`].
fn pick(best: Option<(u32, f64)>) -> Option<u32> {
    best.filter(|&(_, s)| s > SCORE_FLOOR).map(|(j, _)| j)
}

/// The ids `0..m` not in the sorted `skip`, ascending.
fn live_ids(m: usize, skip: &[u32]) -> impl Iterator<Item = u32> + '_ {
    (0..m as u32).filter(|j| skip.binary_search(j).is_err())
}

/// The largest load and speed, and the inverse of the smallest speed,
/// of a *tame* lane: the range in which [`score_best`]'s margin
/// argument holds (no product of the score can overflow, and the
/// absolute error of gradual underflow stays below [`BOUND_SLACK`]).
const TAME: f64 = 1e38;

/// Relative rounding margin of the score bound, `1 + 2⁻⁴⁸`: 32 units of
/// round-off `u`, where the argument in [`score_best`] needs 14.
const BOUND_MARGIN: f64 = 1.0 + 16.0 * f64::EPSILON;

/// Absolute slack of the score bound: far above the `≈ 2⁻⁹⁴⁰` that
/// subnormal rounding can add to a tame lane's score, far below
/// [`SCORE_FLOOR`].
const BOUND_SLACK: f64 = 1e-250;

/// What the score bound needs of a block of peers (or of one peer):
/// the extremes of `r = l/s` and the largest speed, under the gossiped
/// loads of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BlockSummary {
    min_r: f64,
    max_r: f64,
    max_s: f64,
    /// Every lane has `0 ≤ l ≤ TAME` and `1/TAME ≤ s ≤ TAME` (NaN and
    /// `±∞` fail). A round with a wild lane is scanned unbounded.
    tame: bool,
}

impl BlockSummary {
    /// The summary of the one peer with load `l` and speed `s`.
    fn lane(l: f64, s: f64) -> Self {
        let r = l / s; // the kernel's `l_j/s_j`, bit for bit
        Self {
            min_r: r,
            max_r: r,
            max_s: s,
            tame: (0.0..=TAME).contains(&l) && (TAME.recip()..=TAME).contains(&s),
        }
    }

    fn join(self, other: Self) -> Self {
        Self {
            min_r: self.min_r.min(other.min_r),
            max_r: self.max_r.max(other.max_r),
            max_s: self.max_s.max(other.max_s),
            tame: self.tame & other.tame,
        }
    }

    /// Node `i`'s push gap `(r_i − min r) − c_lo` to this block and its
    /// pull gap `(max r − r_i) − c_lo`, where `me` is `i`'s own
    /// [`Self::lane`] and `c_lo` is at most every latency between them.
    fn gaps(&self, me: &Self, c_lo: f64) -> (f64, f64) {
        let r = me.max_r;
        ((r - self.min_r) - c_lo, (self.max_r - r) - c_lo)
    }

    /// At least `partner_score(i, j)` for every peer `j` of this block
    /// (see [`Self::gaps`]) when both are tame. See [`score_best`].
    fn bound(&self, me: &Self, c_lo: f64) -> f64 {
        let (push, pull) = self.gaps(me, c_lo);
        gap_bound(push.max(pull), me.max_s, self.max_s)
    }
}

/// `gap₊² · g(s) · BOUND_MARGIN + BOUND_SLACK`, with node `i`'s
/// `g(s) = 1/(2(1/s_i + 1/s))`. Every operation is monotone on these
/// signs, so the float result never falls as `gap` or `s` rises.
fn gap_bound(gap: f64, s_i: f64, s: f64) -> f64 {
    let gap = gap.max(0.0);
    let g = 0.5 / (s_i.recip() + s.recip());
    gap * gap * g * BOUND_MARGIN + BOUND_SLACK
}

/// A round's *lent view*: what the coordinator derives once a round from
/// its `RoundStart`'s `loads` and `excluded`, and the executor lends to
/// every node it drains. A node uses it only for a `RoundStart` carrying
/// the very same `loads` `Arc`.
///
/// Under [`SelectPolicy::Exact`] it holds the scan inputs of
/// [`score_best`]: the live peers by `(l_j/s_j, j)`, one [`BlockSummary`]
/// per [`SCORE_BLOCK`] of that order, the largest live speed, and whether
/// every live lane is tame. Under [`SelectPolicy::TopK`] those stay empty
/// and it holds the round's skip list and `changed`, what lets a node keep
/// its nearest-peer winner across rounds (see `NodeMachine::static_best`).
#[derive(Debug, Default)]
pub(crate) struct RoundBlocks {
    loads: Arc<Vec<f64>>,
    order: Vec<u32>,
    blocks: Vec<BlockSummary>,
    max_s: f64,
    tame: bool,
    /// Under [`SelectPolicy::TopK`]: the round's sorted skip list.
    skip: Vec<u32>,
    /// Under [`SelectPolicy::TopK`] from round 2 on: exactly the ids,
    /// ascending, whose broadcast load differs bit-wise from the previous
    /// `RoundStart`'s, or that entered or left its skip list. `None` in
    /// round 1, which has no previous round, and under
    /// [`SelectPolicy::Exact`].
    changed: Option<Vec<u32>>,
}

impl RoundBlocks {
    /// The [`SelectPolicy::Exact`] view.
    fn new(speeds: &[f64], loads: Arc<Vec<f64>>, excluded: &[u32]) -> Self {
        let lane = |j: u32| BlockSummary::lane(loads[j as usize], speeds[j as usize]);
        let mut order: Vec<u32> = live_ids(loads.len(), excluded).collect();
        order.sort_unstable_by(|&a, &b| lane(a).min_r.total_cmp(&lane(b).min_r).then(a.cmp(&b)));
        let summary = |ids: &[u32]| ids.iter().map(|&j| lane(j)).reduce(BlockSummary::join);
        let blocks: Vec<BlockSummary> = order.chunks(SCORE_BLOCK).flat_map(summary).collect();
        let max_s = blocks.iter().fold(0.0, |s, b| b.max_s.max(s));
        let tame = blocks.iter().all(|b| b.tame);
        Self {
            loads,
            order,
            blocks,
            max_s,
            tame,
            ..Default::default()
        }
    }

    /// The ids, ascending, whose load bits or skip status differ between
    /// this view and a broadcast of `loads` with the sorted skip list `skip`.
    fn moved(&self, loads: &[f64], skip: &[u32]) -> Vec<u32> {
        let (mut was, mut is) = (self.skip.iter().peekable(), skip.iter().peekable());
        let ids = zip(&*self.loads, loads).zip(0..);
        let moved = ids.filter_map(|((a, b), j)| {
            let flipped = was.next_if_eq(&&j).is_some() != is.next_if_eq(&&j).is_some();
            (flipped || a.to_bits() != b.to_bits()).then_some(j)
        });
        moved.collect()
    }
}

/// Node `id`'s best peer in the ascending id stream `ids`, `id` and the
/// sorted `excluded` left out: [`fold`]'s winner, if above
/// [`SCORE_FLOOR`].
fn scan(
    id: u32,
    excluded: &[u32],
    ids: impl Iterator<Item = u32>,
    score: impl FnMut(Candidates<'_>, &mut [f64]),
) -> Option<u32> {
    pick(fold(id, excluded, ids, score).0)
}

/// Node `id`'s peers in the ascending id stream `ids`, `id` and the
/// sorted `excluded` left out, folded through [`keep`]; and whether one
/// of them scored NaN. The ids go into a stack block of [`SCORE_BLOCK`]
/// as they stream, and each full block (and the last, ragged one) is
/// scored as a list: nothing outlives the call. `id` and `excluded` are
/// skipped after scoring, by one merge cursor for the whole scan;
/// filtering the stream before it is gathered cost more than the lanes
/// it saved.
fn fold(
    id: u32,
    mut excluded: &[u32],
    mut ids: impl Iterator<Item = u32>,
    mut score: impl FnMut(Candidates<'_>, &mut [f64]),
) -> (Option<(u32, f64)>, bool) {
    debug_assert!(excluded.windows(2).all(|w| w[0] < w[1]), "excluded sorted");
    let (mut block, mut scores) = ([0; SCORE_BLOCK], [0.0; SCORE_BLOCK]);
    let (mut best, mut wild) = (None, false);
    loop {
        let n = zip(&mut block, &mut ids).map(|(at, j)| *at = j).count();
        if n == 0 {
            return (best, wild);
        }
        let (block, scores) = (&block[..n], &mut scores[..n]);
        score(Candidates::List(block), scores);
        for (&j, &s) in zip(block, &*scores) {
            while excluded.first().is_some_and(|&e| e < j) {
                excluded = &excluded[1..];
            }
            if j != id && excluded.first() != Some(&j) {
                wild |= s.is_nan();
                if keep(best, j, s) {
                    best = Some((j, s));
                }
            }
        }
    }
}

/// The load-order walk of [`score_best`] for the tame node `me`: inwards
/// from both ends, the end with the larger *side bound* (its push term at
/// the low end, its pull term at the high end, at the round's largest
/// speed) first, until both are below the floor `max(best, SCORE_FLOOR)`.
/// A block is scored only if its [`BlockSummary::bound`] reaches the
/// floor. Peers are folded through [`keep`].
fn walk_best(
    me: &BlockSummary,
    c_lo: f64,
    round: &RoundBlocks,
    mut score: impl FnMut(Candidates<'_>, &mut [f64]),
) -> Option<u32> {
    let side = |k: usize, low: bool| {
        let (push, pull) = round.blocks[k].gaps(me, c_lo);
        gap_bound(if low { push } else { pull }, me.max_s, round.max_s)
    };
    let mut scores = [0.0; SCORE_BLOCK];
    let mut best: Option<(u32, f64)> = None;
    let mut rest = 0..round.blocks.len();
    while !rest.is_empty() {
        let floor = best.map_or(SCORE_FLOOR, |(_, b)| b.max(SCORE_FLOOR));
        let (low, high) = (side(rest.start, true), side(rest.end - 1, false));
        if low.max(high) < floor {
            break; // and so is every block between the two ends
        }
        let k = match low >= high {
            true => rest.next(),
            false => rest.next_back(),
        };
        let k = k.expect("a block is left");
        if round.blocks[k].bound(me, c_lo) < floor {
            continue;
        }
        let from = k * SCORE_BLOCK;
        let ids = &round.order[from..round.order.len().min(from + SCORE_BLOCK)];
        let scores = &mut scores[..ids.len()];
        score(Candidates::List(ids), scores);
        for (&j, &s) in zip(ids, &*scores) {
            if keep(best, j, s) {
                best = Some((j, s));
            }
        }
    }
    pick(best)
}

/// Node `id`'s best partner by the batch kernel on the gossiped `loads`,
/// all a node knows locally: under `select=exact`, the inner loop of a
/// round. With `round` — the lent [`RoundBlocks`] of these `loads` and
/// `excluded` — and every live lane tame, [`walk_best`] walks the peers
/// in load order; otherwise [`scan`] scores every peer in id order,
/// without bounds. Both fold the peers through [`keep`], so both return
/// the lowest id of the highest score, if above [`SCORE_FLOOR`].
///
/// **The bound** (derived in `dlb_distributed::mine`'s module doc): for
/// node `i` and a block `B`, every score is at most
/// `max((r_i − c_lo − min_B r)₊, (max_B r − r_i − c_lo)₊)² · g(max_B s)`
/// with `g(s) = s_i s / (2(s_i + s))` — push and pull — where `c_lo` is
/// the homogeneous latency, or 0 for a dense row.
///
/// **The margin.** The kernel's gain is `x·A − (x·x)·B` at some
/// `0 ≤ x ≤ l_f`, with `A = fl(fl(r_f − r_t) − c)` and
/// `B = fl(1/2s_f) + fl(1/2s_t)`. Rounding is monotone, so the bound's
/// push and pull, which run the same two subtractions on the block's
/// extremes and `c_lo ≤ c`, are at least `A` exactly: the cancellation
/// in `r_f − r_t − c` costs nothing. What is left is relative: on tame
/// lanes (see [`TAME`]) nothing overflows, `B ≥ b(1−u)²` for the exact
/// `b = 1/2s_f + 1/2s_t`, and the float gain is at most
/// `(1+u)³/(1−u)⁴ · A²/(4b)` plus the subnormal error that
/// [`BOUND_SLACK`] covers (`u = 2⁻⁵³`). `1/(4b)` is `g(s_j)` and `g`
/// rises with `s`, so `max_B s` bounds every lane. [`gap_bound`]
/// computes `g` as `0.5/(1/s_i + 1/s)`, which loses at most
/// `(1−u)/(1+u)²`, and its three products `(1−u)³`. [`BOUND_MARGIN`]
/// covers the product, `(1+u)⁵/(1−u)⁸ < 1 + 14u`. The `Δ ≤ l_f` cap and
/// the `stays` zero only pick `x`, and `0 ≤` the bound.
///
/// **The side stop.** Written with reciprocals, one rounding more than
/// `s_i s/(2(s_i + s))`, the float `g` cannot fall as `s` rises (a
/// quotient of two rising roundings can), so [`gap_bound`] is monotone.
/// In load order a block past the low end has a push gap no larger than
/// the low end's, one before the high end a pull gap no larger than the
/// high end's, and `max s` at most the round's. So an unvisited block's
/// bound is at most the larger side bound at the stop, below the floor,
/// which only rises: none of its lanes can win or tie.
///
/// **Why 32-peer blocks, larger side first.** Lanes scored in 12 rounds
/// at seed 1 on `exact_m5000` (homog m = 5000), `net=pl` and `net=euclid`
/// m = 2000: 40.8 M, 41.6 M and 40.0 M by the id-order skip this walk
/// replaced, 1.38 M, 8.76 M and 6.21 M by the walk; 2.00 M, 9.39 M and
/// 6.83 M taking the ends in turn. 16-peer blocks score 0.90 M, 8.39 M and
/// 5.84 M and ran `exact_m5000` at 0.95× the time (inside the noise),
/// 64-peer ones 2.24 M, 9.31 M and 6.69 M at 1.17×. [`SCORE_BLOCK`] also
/// sizes the kernel's gather block and the top-k scan, so 32 stays.
fn score_best(
    id: u32,
    instance: &Instance,
    loads: &[f64],
    round: Option<&RoundBlocks>,
    excluded: &[u32],
) -> Option<u32> {
    let i = id as usize;
    let score = |block: Candidates<'_>, out: &mut [f64]| {
        partner_scores(instance, loads, i, block, out);
    };
    let me = BlockSummary::lane(loads[i], instance.speed(i));
    match round {
        Some(round) if round.tame && me.tame => {
            let c_lo = instance.latency().homogeneous_value().unwrap_or(0.0);
            walk_best(&me, c_lo, round, score)
        }
        _ => scan(id, excluded, 0..instance.len() as u32, score),
    }
}

/// Deterministic audit rotation: visits every live peer once per
/// `m − 1` rounds, allocation-free. The rotation index is the candidate,
/// and each removed id (`excluded ∪ {id}`, walked in ascending order) at
/// or below it bumps it by one, which makes it the index-th live peer.
/// `excluded` must be sorted ascending.
fn audit_target(id: u32, m: usize, round: u64, excluded: &[u32]) -> Option<u32> {
    debug_assert!(excluded.windows(2).all(|w| w[0] < w[1]), "excluded sorted");
    let (at, own) = match excluded.binary_search(&id) {
        Ok(at) => (at, None),
        Err(at) => (at, Some(id)),
    };
    let count = m.checked_sub(excluded.len() + usize::from(own.is_some()));
    let count = count.filter(|&n| n > 0)? as u64;
    let (below, above) = excluded.split_at(at);
    let removed = below
        .iter()
        .copied()
        .chain(own)
        .chain(above.iter().copied());
    Some(removed.fold((round % count) as u32, |c, r| c + u32::from(r <= c)))
}

/// Node `id`'s [`SelectPolicy::TopK`] candidates for one round: its `k`
/// delay-nearest peers (its [`Nearest`]) `∪ hot − {id}` (`hot`, the
/// round's gossiped hot set, ascending), streamed in ascending id order,
/// each once. Exclusions are *not* baked in: the scan skips them.
fn slate<'a>(
    id: u32,
    lat: &LatencyMatrix,
    k: u32,
    nearest: &'a mut Option<Box<[u32]>>,
    hot: &'a [u32],
) -> impl Iterator<Item = u32> + 'a {
    let mut base = Nearest::new(lat, id, k, nearest).ids().peekable();
    let mut hot = hot.iter().copied().peekable();
    from_fn(move || loop {
        let next = match (base.peek(), hot.peek()) {
            (Some(&x), Some(&y)) => x.min(y),
            (x, y) => *x.or(y)?,
        };
        base.next_if_eq(&next);
        hot.next_if_eq(&next);
        if next != id {
            return Some(next);
        }
    })
}

/// A node's *static* [`SelectPolicy::TopK`] set, its `k` delay-nearest
/// peers, ascending: on a finite homogeneous net [`k_nearest_wheel`]'s two
/// id ranges, stored nowhere; on any other the node's `nearest`, which
/// keeps [`k_nearest_row`] from the first round on.
struct Nearest<'a> {
    wheel: [Range<u32>; 2],
    row: &'a [u32],
}

impl<'a> Nearest<'a> {
    fn new(lat: &LatencyMatrix, id: u32, k: u32, nearest: &'a mut Option<Box<[u32]>>) -> Self {
        let (i, k) = (id as usize, k as usize);
        let wheel = k_nearest_wheel(lat, i, k).unwrap_or_else(|| {
            nearest.get_or_insert_with(|| k_nearest_row(lat, i, k).into());
            [0..0, 0..0]
        });
        let row = nearest.as_deref().unwrap_or_default();
        Self { wheel, row }
    }

    /// The peers in ascending id order.
    fn ids(&self) -> impl Iterator<Item = u32> + 'a {
        let [wrapped, ahead] = self.wheel.clone();
        wrapped.chain(ahead).chain(self.row.iter().copied())
    }

    /// Whether one of the ascending `ids` is among the peers.
    fn meets(&self, ids: &[u32]) -> bool {
        let within = |r: &Range<u32>| {
            let at = ids.partition_point(|&j| j < r.start);
            ids.get(at).is_some_and(|&j| j < r.end)
        };
        self.wheel.iter().any(within) || self.row.iter().any(|j| ids.binary_search(j).is_ok())
    }
}

/// A node's ledger with its *standing report values*: the load and
/// the term of `ΣC` every [`Frame::Report`] carries, two folds over the
/// whole ledger. At m = 100 000 a round sends 100 000 reports about
/// ledgers of which some ten changed, so the pair is kept, and dropped
/// by every write. The fields are private to this module and
/// `replace`/`set` the only writers: a new write site cannot forget.
/// The same fold over the same entries: bit-identical to recomputing.
mod books {
    use super::local_cost;
    use dlb_core::{Instance, SparseVec};

    #[derive(Debug, Default)]
    pub(super) struct Books {
        ledger: SparseVec,
        /// `[load, local cost]` of `ledger`; `None` since the last write.
        standing: Option<[f64; 2]>,
    }

    impl Books {
        pub(super) fn ledger(&self) -> &SparseVec {
            &self.ledger
        }

        pub(super) fn into_ledger(self) -> SparseVec {
            self.ledger
        }

        pub(super) fn replace(&mut self, ledger: SparseVec) {
            self.ledger = ledger;
            self.standing = None;
        }

        pub(super) fn set(&mut self, org: u32, value: f64) {
            self.ledger.set(org, value);
            self.standing = None;
        }

        /// The `[load, local cost]` node `id` reports about this ledger.
        pub(super) fn standing(&mut self, id: u32, instance: &Instance) -> [f64; 2] {
            let fold = |ledger: &SparseVec| [ledger.sum(), local_cost(id, instance, ledger)];
            let standing = *self.standing.get_or_insert_with(|| fold(&self.ledger));
            // Debug builds recompute behind every report, so every suite
            // that runs the protocol checks the values it sent.
            debug_assert_eq!(
                standing.map(f64::to_bits),
                fold(&self.ledger).map(f64::to_bits),
                "node {id}: standing report values outlived a ledger write"
            );
            standing
        }
    }
}
use books::Books;

/// One organization's protocol state machine (see the module docs).
///
/// At m = 100 000 nearly every delivery is the first touch of a cold
/// machine, so the layout is deliberate (`repr(C)` keeps the declared
/// order): the words every `Propose`/`Busy` delivery reads lead, and
/// state that exists only while a two-phase exchange is pending, or
/// while a control frame, stream deltas or early proposals wait, sits
/// boxed. 128 bytes, by test.
#[derive(Debug)]
#[repr(C)]
pub struct NodeMachine {
    id: u32,
    /// Whether this round's report has been filed.
    reported: bool,
    /// Whether the final ledger has been sent (machine finished).
    done: bool,
    /// This round's exchange (after the two flags: `id` alone would
    /// leave 4 bytes of padding before it).
    leg: Leg,
    /// 0 = "no round joined yet"; real rounds are 1-based (see the
    /// coordinator). A proposal overtaking our first RoundStart thus
    /// satisfies `r > round` and waits in the early queue instead of
    /// being served with boot state and corrupting the report count.
    round: u64,
    books: Books,
    instance: Arc<Instance>,
    /// The `k` delay-nearest peers under [`SelectPolicy::TopK`] on a net
    /// without a finite homogeneous wheel, from the first round start on
    /// (see [`Nearest`]); `None` otherwise.
    nearest: Option<Box<[u32]>>,
    config: NodeConfig,
    /// Under [`SelectPolicy::TopK`]: the best peer of the node's static
    /// set ([`Nearest`]) at its last round start, if it scanned one and
    /// kept a winner, else [`UNSCANNED`]. It fills the 4 bytes after
    /// `config`. See [`Self::topk_best`].
    static_best: u32,
    /// What waits: allocated on first use, dropped when empty.
    backlog: Option<Box<Backlog>>,
}

/// What waits on a [`NodeMachine`] behind an open [`Leg`] or an
/// unreached round.
#[derive(Debug, Default)]
struct Backlog {
    /// The `RoundStart`/`Shutdown` that arrived while a leg was open
    /// (the module doc's "Deferral"); a newer one replaces it.
    control: Option<Frame>,
    /// Streaming load deltas `(org, amount)` buffered while an
    /// exchange is open — the ledger is promised to a peer then and
    /// may be wholesale replaced by its Commit, which would silently
    /// drop a directly-applied deposit. Drained the moment the
    /// exchange resolves. Positive amounts deposit, negative withdraw.
    deltas: Vec<(u32, f64)>,
    /// Proposals from a round we have not reached yet, in arrival
    /// order.
    early: Vec<(u32, u64)>,
}

impl NodeMachine {
    /// The machine for node `id`, starting from the all-local ledger:
    /// its own load at home, kept sparse (a zero load is no entry, not
    /// an explicit zero).
    pub fn local(id: u32, instance: Arc<Instance>, config: NodeConfig) -> Self {
        let mut books = Books::default();
        let own = instance.own_load(id as usize);
        if own > 0.0 {
            // Exact size: `Vec`'s four-slot minimum is a 2.5× larger
            // chunk, once per node.
            let mut ledger = SparseVec::with_capacity(1);
            ledger.set(id, own);
            books.replace(ledger);
        }
        Self {
            id,
            reported: false,
            done: false,
            leg: Leg::Free,
            round: 0,
            books,
            instance,
            nearest: None,
            config,
            static_best: UNSCANNED,
            backlog: None,
        }
    }

    /// Whether the machine has sent its final ledger and stopped.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The machine's current request ledger. Fault-aware drivers read
    /// this to freeze a crashed node's state into the final assignment
    /// (its requests stay where they were when it went down).
    pub fn ledger(&self) -> &SparseVec {
        self.books.ledger()
    }

    /// The ledger, moved out: the executor's final assignment, once the
    /// machine has answered the `Shutdown` or the run ended with it down.
    pub(crate) fn into_ledger(self) -> SparseVec {
        self.books.into_ledger()
    }

    /// Streaming arrival: `amount` units of organization `org`'s work
    /// land on this server between protocol frames. Applied to the
    /// ledger immediately when no exchange is open; otherwise buffered
    /// until the exchange resolves (the in-flight Commit may replace
    /// the ledger wholesale, which would drop a direct write). Returns
    /// `false` — the request is refused — once the final ledger has
    /// been sent: a late mutation could never reach the coordinator.
    pub fn deposit(&mut self, org: u32, amount: f64) -> bool {
        if self.done {
            return false;
        }
        if self.exchange_open() {
            self.backlog
                .get_or_insert_default()
                .deltas
                .push((org, amount));
        } else {
            self.apply_stream_delta(org, amount);
        }
        true
    }

    /// Streaming departure: up to `amount` units of `org`'s work leave
    /// this server (clamped at what the ledger actually holds once
    /// applied). Buffered under an open exchange like [`Self::deposit`].
    pub fn withdraw(&mut self, org: u32, amount: f64) {
        self.deposit(org, -amount);
    }

    /// Applies one signed streaming delta to the ledger, clamping
    /// withdrawals at the available volume (a request that finished on
    /// another replica after a rebalance moved the entry away).
    fn apply_stream_delta(&mut self, org: u32, amount: f64) {
        let next = (self.ledger().get(org) + amount).max(0.0);
        self.books.set(org, next);
    }

    /// Drops the backlog once nothing waits in it.
    fn trim_backlog(&mut self) {
        self.backlog
            .take_if(|b| b.control.is_none() && b.deltas.is_empty() && b.early.is_empty());
    }

    /// Once no leg is open, releases what waited behind the last one:
    /// the stream deltas in arrival order, then the control frame,
    /// handled as [`Self::handle_in`] would. Every handler has closed
    /// its leg and filed its report by the time this runs.
    fn settle(&mut self, blocks: Option<&RoundBlocks>, out: &mut Vec<Sent>) {
        if self.exchange_open() {
            return;
        }
        let Some(backlog) = self.backlog.as_mut() else {
            return;
        };
        let (deltas, control) = (std::mem::take(&mut backlog.deltas), backlog.control.take());
        self.trim_backlog();
        for (org, amount) in deltas {
            self.apply_stream_delta(org, amount);
        }
        if let Some(frame) = control {
            self.handle_in(&frame, blocks, out);
        }
    }

    /// A frame of this node's that travels as a value: a `Propose`,
    /// `Busy`, `CommitAck` or the ledger-free `FinalLedger`.
    fn signal(&self, to: Dest, kind: SignalKind, round: u64) -> Sent {
        let payload = Payload::Signal(kind, self.id, round);
        Sent { to, payload }
    }

    /// Turns down `from`'s proposal for round `round`.
    fn nack(&self, from: u32, round: u64, out: &mut Vec<Sent>) {
        out.push(self.signal(Dest::Node(from), SignalKind::Busy, round));
    }

    /// Consumes one inbound frame, appending any outbound frames to
    /// `out` in send order. A `FinalLedger` carries the ledger as it
    /// stands once the frame is handled: the node stopped when it sent
    /// it, after settling whatever waited behind its last leg.
    pub fn handle(&mut self, frame: &Frame, out: &mut Vec<Outbound>) {
        let mut sent = Vec::new();
        self.handle_in(frame, None, &mut sent);
        out.extend(sent.into_iter().map(|Sent { to, payload }| {
            let frame = match payload {
                Payload::Frame(frame) => frame,
                Payload::Signal(SignalKind::FinalLedger, from, _) => {
                    let ledger = ledger_to_wire(self.ledger());
                    Arc::new(Frame::FinalLedger { from, ledger })
                }
                signal => Arc::new(signal.frame().into_owned()),
            };
            Outbound { to, frame }
        }));
    }

    /// [`Self::handle`], with the coordinator's view of the round in
    /// flight, its [`RoundBlocks`]: a `RoundStart` whose `loads` are
    /// theirs scans with them, any other computes its own. The public
    /// `handle` lends none, so it never reuses a top-k winner. A
    /// `FinalLedger` leaves as a ledger-free signal: the executor moves
    /// the stopped machine's ledger out when the run ends.
    pub(crate) fn handle_in(
        &mut self,
        frame: &Frame,
        blocks: Option<&RoundBlocks>,
        out: &mut Vec<Sent>,
    ) {
        if self.done {
            // Our final ledger is sent: the run's answer is the ledger
            // as it stands, so nothing may mutate it. A straggling
            // proposer (possible under in-protocol detection, where
            // rounds end on a deadline) gets a NACK so its own round
            // can close; every other late frame is stale by
            // construction and ignored.
            if let Frame::Propose { from, round } = frame {
                self.nack(*from, *round, out);
            }
            return;
        }
        match frame {
            Frame::Shutdown | Frame::RoundStart { .. } if self.exchange_open() => {
                // A frame of the open leg is still in flight (the
                // initiator reports to the coordinator before our
                // Commit arrives); its ledger must make it into the
                // next round or the final answer, or requests would be
                // torn in half. The frame waits until the leg closes.
                self.backlog.get_or_insert_default().control = Some(frame.clone());
            }
            Frame::Shutdown => {
                // The ledger stays here, frozen (see the module docs).
                out.push(self.signal(Dest::Coordinator, SignalKind::FinalLedger, 0));
                self.done = true;
            }
            Frame::RoundStart {
                round,
                loads,
                excluded,
                hot,
                ..
            } => self.start_round(*round, loads, blocks, excluded, hot, out),
            Frame::Propose { from, round } => self.on_propose(*from, *round, out),
            Frame::Accept {
                from,
                round,
                ledger,
            } => self.on_accept(*from, *round, ledger, out),
            Frame::Busy { from, round } => self.on_busy(*from, *round, out),
            Frame::Commit {
                from,
                round,
                ledger,
            } => self.on_commit(*from, *round, ledger, out),
            Frame::CommitAck { from, round } => self.on_commit_ack(*from, *round, out),
            Frame::Report { .. } | Frame::FinalLedger { .. } => {
                // Control-plane frames never reach node inboxes.
                debug_assert!(false, "node {} received a coordinator frame", self.id);
            }
        }
        self.settle(blocks, out);
    }

    /// Is a leg of an exchange still open? Control frames
    /// (RoundStart, Shutdown) must wait behind an open exchange: our
    /// ledger may still change, and a torn exchange loses requests.
    /// This fires under the oracle too: an acceptor that already
    /// reported `NoProposal` or `Lost` can still accept, and its
    /// initiator reports `Exchanged` on the `Accept`, so the round ends
    /// and the next `RoundStart`, travelling free, overtakes the
    /// `Commit` still on its link (the module doc's "Deferral";
    /// `node_defers_round_start_past_inflight_commit`). Under
    /// in-protocol detection the coordinator's deadline can also end a
    /// round over a busy node.
    fn exchange_open(&self) -> bool {
        !matches!(self.leg, Leg::Free | Leg::Locked)
    }

    /// Files this round's report.
    fn report(
        &mut self,
        outcome: RoundOutcome,
        exchange: Option<(u32, f64, f64, f64)>,
        out: &mut Vec<Sent>,
    ) {
        self.reported = true;
        let [load, local_cost] = self.books.standing(self.id, &self.instance);
        let report = Frame::Report {
            from: self.id,
            round: self.round,
            outcome,
            load,
            local_cost,
            exchange,
        };
        out.push(Sent::shared(Dest::Coordinator, report));
    }

    fn start_round(
        &mut self,
        round: u64,
        loads: &Arc<Vec<f64>>,
        blocks: Option<&RoundBlocks>,
        excluded: &[u32],
        hot: &[u32],
        out: &mut Vec<Sent>,
    ) {
        let previous = std::mem::replace(&mut self.round, round);
        let last_best = std::mem::replace(&mut self.static_best, UNSCANNED);
        self.leg = Leg::Free;
        self.reported = false;
        let lent = blocks.filter(|lent| Arc::ptr_eq(&lent.loads, loads));
        if excluded.binary_search(&self.id).is_ok() {
            self.leg = Leg::Locked; // takes no part this round
            self.report(RoundOutcome::NoProposal, None, out);
        } else {
            let scored = match self.config.select {
                SelectPolicy::Exact => score_best(self.id, &self.instance, loads, lent, excluded),
                SelectPolicy::TopK(k) => {
                    // What moved since the round the winner was kept in.
                    let moved = lent.and_then(|lent| lent.changed.as_deref());
                    let kept = moved
                        .filter(|_| last_best != UNSCANNED && previous + 1 == round)
                        .map(|moved| (last_best, moved));
                    self.topk_best(k, loads, excluded, hot, kept)
                }
            };
            let target =
                scored.or_else(|| audit_target(self.id, self.instance.len(), round, excluded));
            match target {
                Some(j) => {
                    self.leg = Leg::Proposed(j);
                    out.push(self.signal(Dest::Node(j), SignalKind::Propose, round));
                }
                None => {
                    self.report(RoundOutcome::NoProposal, None, out);
                }
            }
        }
        // Serve proposals that arrived before our RoundStart; one for a
        // round still ahead goes back in line.
        let early = self.backlog.as_mut().map(|b| std::mem::take(&mut b.early));
        for (from, round) in early.into_iter().flatten() {
            self.on_propose(from, round, out);
        }
        self.trim_backlog();
    }

    /// The node's [`SelectPolicy::TopK`] partner on the gossiped `loads`:
    /// the best of its static set ([`Nearest`]) and the best of the
    /// round's `hot` set, each folded through [`keep`], combined by
    /// `keep` and [`pick`]. `kept` is the static winner of the previous
    /// round, with the round's `changed` ids (see [`RoundBlocks`]): if
    /// neither the node nor one of its static peers is among them, every
    /// static lane scores what it scored then, so the winner is the same
    /// and only its lane is rescored. Otherwise the whole static set is.
    /// The winner is kept in `static_best` for the next round.
    ///
    /// Without NaN `keep` is a total order, so the split form picks what
    /// one fold over the merged [`slate`] picks. With a NaN it depends on
    /// the order, so a round in which a lane scores NaN takes the merged
    /// scan and keeps nothing.
    fn topk_best(
        &mut self,
        k: u32,
        loads: &[f64],
        excluded: &[u32],
        hot: &[u32],
        kept: Option<(u32, &[u32])>,
    ) -> Option<u32> {
        let (id, instance) = (self.id, &*self.instance);
        let score = |block: Candidates<'_>, out: &mut [f64]| {
            partner_scores(instance, loads, id as usize, block, out);
        };
        let near = Nearest::new(instance.latency(), id, k, &mut self.nearest);
        let kept =
            kept.filter(|(_, moved)| moved.binary_search(&id).is_err() && !near.meets(moved));
        let (near_best, near_wild) = match kept {
            Some((j, _)) => fold(id, excluded, once(j), score),
            None => fold(id, excluded, near.ids(), score),
        };
        let (hot_best, hot_wild) = fold(id, excluded, hot.iter().copied(), score);
        if near_wild || hot_wild {
            let slate = slate(id, instance.latency(), k, &mut self.nearest, hot);
            return scan(id, excluded, slate, score);
        }
        self.static_best = near_best.map_or(UNSCANNED, |(j, _)| j);
        match hot_best {
            Some((j, s)) if keep(near_best, j, s) => pick(hot_best),
            _ => pick(near_best),
        }
    }

    fn on_propose(&mut self, from: u32, r: u64, out: &mut Vec<Sent>) {
        if r > self.round {
            // Proposer is ahead of us; answer after our RoundStart
            // arrives.
            self.backlog.get_or_insert_default().early.push((from, r));
            return;
        }
        if r < self.round {
            // Defensive: by the report discipline a proposal cannot
            // outlive its round, but a NACK is always safe.
            self.nack(from, r, out);
            return;
        }
        match self.leg {
            // Free (never proposed, or proposal already resolved
            // without an exchange), or a collision with our own
            // proposal to the same peer where we are the lower id:
            // yield the initiator role, if any, and become the acceptor.
            Leg::Free => {}
            Leg::Proposed(j) if j == from && self.id < from => {}
            // The collision's higher id: ignore — the peer yields, and
            // its Accept is already on the wire.
            Leg::Proposed(j) if j == from => return,
            // Waiting on a different peer (our ledger cannot be
            // promised to two exchanges at once), or done for the round.
            _ => return self.nack(from, r, out),
        }
        self.leg = Leg::Accepted(from);
        let accept = Frame::Accept {
            from: self.id,
            round: r,
            ledger: ledger_to_wire(self.ledger()),
        };
        out.push(Sent::shared(Dest::Node(from), accept));
    }

    /// Whether this round's open leg is a proposal to `peer`.
    fn proposed_to(&self, peer: u32, r: u64) -> bool {
        r == self.round && matches!(self.leg, Leg::Proposed(j) if j == peer)
    }

    fn on_accept(&mut self, from: u32, r: u64, their_wire: &[(u32, f64)], out: &mut Vec<Sent>) {
        if !self.proposed_to(from, r) {
            return; // stale acceptance; ignore
        }
        let theirs = wire_to_ledger(their_wire);
        let outcome = calc_best_transfer(
            &self.instance,
            self.ledger(),
            &theirs,
            self.id as usize,
            from as usize,
            0.0,
        );
        let partner_ledger = outcome.ledger_j;
        let partner_load = partner_ledger.sum();
        let partner_cost = local_cost(from, &self.instance, &partner_ledger);
        let commit = Frame::Commit {
            from: self.id,
            round: r,
            ledger: ledger_to_wire(&partner_ledger),
        };
        out.push(Sent::shared(Dest::Node(from), commit));
        let ledger = outcome.ledger_i;
        let exchange = (from, partner_load, partner_cost, outcome.moved);
        if self.config.two_phase {
            // Hold our half back until the acceptor's CommitAck: if it
            // died before installing, the Ack RTO rolls us back with
            // nothing half-applied on either side.
            self.leg = Leg::Committed(Box::new(PendingExchange { ledger, exchange }));
        } else {
            self.leg = Leg::Locked;
            self.books.replace(ledger);
            self.report(RoundOutcome::Exchanged, Some(exchange), out);
        }
    }

    fn on_busy(&mut self, from: u32, r: u64, out: &mut Vec<Sent>) {
        if !self.proposed_to(from, r) {
            return;
        }
        // Free again: we may still serve someone else's proposal this
        // round.
        self.leg = Leg::Free;
        self.report(RoundOutcome::Lost, None, out);
    }

    fn on_commit(&mut self, from: u32, r: u64, new_wire: &[(u32, f64)], out: &mut Vec<Sent>) {
        if r != self.round || !matches!(self.leg, Leg::Accepted(j) if j == from) {
            return;
        }
        self.books.replace(wire_to_ledger(new_wire));
        self.leg = Leg::Locked;
        if self.config.two_phase {
            // Install-then-ack is atomic from the driver's view: the
            // initiator applies its half only on this ack.
            out.push(self.signal(Dest::Node(from), SignalKind::CommitAck, r));
        }
        if !self.reported {
            // Collision-yield path: our initiator role ended in an
            // acceptance; close the round's report.
            self.report(RoundOutcome::Accepted, None, out);
        }
    }

    fn on_commit_ack(&mut self, from: u32, r: u64, out: &mut Vec<Sent>) {
        match std::mem::replace(&mut self.leg, Leg::Locked) {
            Leg::Committed(p) if r == self.round && p.exchange.0 == from => {
                self.books.replace(p.ledger);
                self.report(RoundOutcome::Exchanged, Some(p.exchange), out);
            }
            leg => self.leg = leg, // stale ack; ignore
        }
    }

    /// Would an `(round, kind)` retransmission timeout still fire?
    ///
    /// The executor calls this when a timer pops to discard stale
    /// entries — a timer whose leg already closed was logically
    /// cancelled and must not advance virtual time.
    pub(crate) fn rto_pending(&self, r: u64, kind: RtoKind) -> bool {
        !self.done
            && r == self.round
            && matches!(
                (kind, &self.leg),
                (RtoKind::Answer, Leg::Proposed(_))
                    | (RtoKind::CommitWait, Leg::Accepted(_))
                    | (RtoKind::Ack, Leg::Committed(_))
            )
    }

    /// An exchange retransmission timeout fired. The driver arms one
    /// per data-plane frame it schedules under in-protocol detection;
    /// `kind` says which leg the timer guarded. A timer whose leg
    /// already closed — or that belongs to an earlier round — is a
    /// no-op. When the leg is still open the partner is gone: the
    /// machine rolls the exchange back locally (nothing of a two-phase
    /// transfer has been applied yet, so rollback is dropping state)
    /// and closes its round report with [`RoundOutcome::Aborted`]. A
    /// `RoundStart` that waited behind the leg scans with `blocks` as
    /// in [`Self::handle_in`].
    pub(crate) fn on_rto_in(
        &mut self,
        r: u64,
        kind: RtoKind,
        blocks: Option<&RoundBlocks>,
        out: &mut Vec<Sent>,
    ) {
        if !self.rto_pending(r, kind) {
            return;
        }
        self.leg = match kind {
            // Our Propose was never answered; free the initiator role.
            // We stay available as an acceptor.
            RtoKind::Answer => Leg::Free,
            // We accepted but the initiator's Commit never came;
            // nothing was installed, so freeing the leg is the whole
            // rollback.
            RtoKind::CommitWait => Leg::Free,
            // Our Commit was never acknowledged; the acceptor died
            // before installing, so dropping the held-back half undoes
            // the exchange exactly.
            RtoKind::Ack => Leg::Locked,
        };
        if !self.reported {
            self.report(RoundOutcome::Aborted, None, out);
        }
        self.settle(blocks, out);
    }
}

/// Report-deadline bound used by [`DetectMode::Adaptive`] before the
/// global latency estimator has three samples (virtual ms). Generous
/// on purpose: the first rounds calibrate the estimator, and a too-low
/// boot value would mass-suspect the whole cluster before any latency
/// has been observed.
pub const ADAPTIVE_BOOTSTRAP_MS: f64 = 10_000.0;

/// One entry of the coordinator's suspect list.
#[derive(Debug, Clone, Copy)]
struct Suspect {
    node: u32,
    /// Virtual time the deadline fired on this node.
    at_ms: f64,
    /// Start time of the round whose missing report triggered the
    /// suspicion — the baseline for the late report's latency sample.
    round_start_ms: f64,
}

/// Welford accumulators `(count, mean, M2)` over report latencies —
/// pure f64 arithmetic in arrival order, which the executor makes
/// deterministic across repeats and `DLB_THREADS`.
fn welford_feed(acc: &mut (u64, f64, f64), x: f64) {
    acc.0 += 1;
    let d = x - acc.1;
    acc.1 += d / acc.0 as f64;
    acc.2 += d * (x - acc.1);
}

/// The phi-accrual-style bound `μ + 4σ + 1 ms` once the accumulator
/// has three samples; `None` before that.
fn welford_bound(acc: &(u64, f64, f64)) -> Option<f64> {
    if acc.0 < 3 {
        return None;
    }
    let var = (acc.2 / (acc.0 - 1) as f64).max(0.0);
    Some(acc.1 + 4.0 * var.sqrt() + 1.0)
}

/// Which stage of its life the coordinator is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Driving rounds, counting reports.
    Rounds,
    /// Held open and the last round moved nothing: round-driving
    /// frames would spin at one virtual instant, so the coordinator
    /// waits for the driver to [`CoordinatorMachine::kick`] it on
    /// stream activity. The round number stays that of the ended
    /// round, whose report deadline is now stale.
    Parked,
    /// Shutdown broadcast sent; counting final-ledger replies.
    Collecting,
    /// Every node answered, or the rest never will
    /// ([`CoordinatorMachine::close`]);
    /// [`CoordinatorMachine::into_report`] may be called.
    Done,
}

/// The round/termination driver of a cluster run (see the module
/// docs). One per run.
#[derive(Debug)]
pub(crate) struct CoordinatorMachine<'a> {
    instance: Arc<Instance>,
    /// The liveness oracle: the run's fault script under
    /// [`DetectMode::Oracle`], `None` when it is empty or detection is
    /// in-protocol.
    script: Option<&'a FaultScript>,
    options: ClusterOptions,
    phase: Phase,
    round: u64,
    /// The last reported load of every node.
    loads: Vec<f64>,
    local_costs: Vec<f64>,
    history: Vec<f64>,
    exchanges: usize,
    moved: f64,
    lost: usize,
    quiet: usize,
    quiescent: bool,
    reports: usize,
    /// Reports expected this round: every node not down at the round
    /// start.
    expected: usize,
    /// The oracle's down set latched at the current round's start.
    /// Frozen for the round, so every live node's causal chains
    /// complete.
    down: Vec<u32>,
    seen: Vec<bool>,
    round_moved: f64,
    /// The current round's lent view: the broadcast `loads` with its
    /// live peers' load-order blocks, or with the ids that moved.
    round_blocks: Option<RoundBlocks>,
    /// Final-ledger replies counted so far. A node sends one at most:
    /// it stops once it has.
    collected: usize,
    /// Virtual time the current round's `RoundStart` went out.
    round_started_at: f64,
    /// In-protocol detection: currently suspected nodes, sorted by id.
    /// Always empty under [`DetectMode::Oracle`].
    suspects: Vec<Suspect>,
    /// Per-node Welford accumulators over report latencies
    /// ([`DetectMode::Adaptive`] only).
    node_lat: Vec<(u64, f64, f64)>,
    /// Global Welford accumulator — the fallback bound for nodes with
    /// fewer than three samples.
    global_lat: (u64, f64, f64),
    /// Running detector counters. `detection_latency_ms` stays `0`
    /// here: only the driver knows physical crash times, so it fills
    /// that field in after the run.
    detector: DetectorSummary,
    /// Forensic log of every report (debug builds): used to diagnose
    /// protocol violations with full context.
    report_log: Vec<(u64, u32, RoundOutcome)>,
    /// Streaming drivers set this while requests are still arriving:
    /// quiescence must not shut the cluster down (the load landscape
    /// keeps shifting). A quiet round *parks* instead — see
    /// [`Self::kick`] — and `max_rounds` is deferred until the hold is
    /// released (the finite stream bounds the run in the meantime).
    hold_open: bool,
}

impl<'a> CoordinatorMachine<'a> {
    /// Creates the coordinator for a cluster over `instance`, reading
    /// who is down from `script` at each round start under the oracle.
    ///
    /// # Panics
    /// Panics when the instance is empty.
    pub fn new(instance: Arc<Instance>, options: &ClusterOptions, script: &'a FaultScript) -> Self {
        let m = instance.len();
        assert!(m >= 1, "cluster needs at least one node");
        let loads = instance.own_loads().to_vec();
        // Initial local costs: all requests at home, no latency.
        let local_costs: Vec<f64> = (0..m)
            .map(|j| {
                let l = instance.own_load(j);
                l * l / (2.0 * instance.speed(j))
            })
            .collect();
        // `ΣC` of the all-local assignment: its per-server costs, summed
        // as `total_cost` and `end_round` sum them.
        let initial_cost = local_costs.iter().sum();
        let oracle = matches!(options.detect, DetectMode::Oracle);
        Self {
            instance,
            script: (oracle && !script.is_empty()).then_some(script),
            options: options.clone(),
            phase: Phase::Rounds,
            round: 0,
            loads,
            local_costs,
            history: vec![initial_cost],
            exchanges: 0,
            moved: 0.0,
            lost: 0,
            quiet: 0,
            quiescent: false,
            reports: 0,
            expected: m,
            down: Vec::new(),
            seen: vec![false; m],
            round_moved: 0.0,
            round_blocks: None,
            collected: 0,
            round_started_at: 0.0,
            suspects: Vec::new(),
            node_lat: vec![(0, 0.0, 0.0); m],
            global_lat: (0, 0.0, 0.0),
            detector: DetectorSummary::default(),
            report_log: Vec::new(),
            hold_open: false,
        }
    }

    fn in_protocol_detect(&self) -> bool {
        !matches!(self.options.detect, DetectMode::Oracle)
    }

    /// Index of `node` in the sorted suspect list, if suspected.
    fn suspect_index(&self, node: u32) -> Option<usize> {
        self.suspects.binary_search_by_key(&node, |s| s.node).ok()
    }

    /// Number of organizations in the cluster.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// Whether the final ledgers are in: every node answered the
    /// shutdown, or the collection was closed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Ends a collection the remaining nodes can no longer answer: the
    /// driver ran out of events, so they are down and their ledgers
    /// stay where they are. A no-op unless collecting.
    pub fn close(&mut self) {
        if self.phase == Phase::Collecting {
            self.phase = Phase::Done;
        }
    }

    /// The current (1-based) round number.
    pub fn round_number(&self) -> u64 {
        self.round
    }

    /// The down set latched at the current round's start (what the
    /// driver must gate data-plane deliveries on).
    pub fn down_now(&self) -> &[u32] {
        &self.down
    }

    /// While held open, quiescence does not end the run: a streaming
    /// driver keeps the protocol rebalancing as long as requests are
    /// still arriving or in flight, then releases the hold to let the
    /// normal quiet-round shutdown (and `max_rounds` stop) fire. After
    /// releasing, call [`Self::kick`] so a parked coordinator resumes.
    /// Returns whether the hold was on.
    pub fn set_hold(&mut self, hold: bool) -> bool {
        std::mem::replace(&mut self.hold_open, hold)
    }

    /// Resumes rounds at virtual time `now` after a park (no-op
    /// otherwise). A streaming driver calls this whenever stream
    /// activity lands: parked means the landscape was flat at the last
    /// round's end, and an arrival or departure has just deformed it.
    /// The coordinator keeps no clock: the resumed round is timed from
    /// the caller's `now`, so its report latencies exclude the park.
    /// Returns the resumed round's `RoundStart`.
    pub fn kick(&mut self, now: f64) -> Option<Arc<Frame>> {
        if self.phase != Phase::Parked {
            return None;
        }
        self.phase = Phase::Rounds;
        self.round += 1;
        Some(self.begin_round(now))
    }

    /// Kicks off round 1 at virtual time 0. Rounds are 1-based on the
    /// wire: nodes boot with `round == 0` meaning "no round joined
    /// yet", so a proposal that overtakes the recipient's own
    /// RoundStart is correctly classified as early and queued instead
    /// of being served with boot state. Returns round 1's `RoundStart`.
    pub fn start(&mut self) -> Arc<Frame> {
        debug_assert_eq!(self.round, 0, "start called twice");
        self.round = 1;
        self.begin_round(0.0)
    }

    /// Opens the current round and returns its `RoundStart` broadcast.
    fn begin_round(&mut self, now: f64) -> Arc<Frame> {
        self.reports = 0;
        self.round_moved = 0.0;
        self.seen.iter_mut().for_each(|s| *s = false);
        self.round_started_at = now;
        // Latch the liveness oracle for the round: crashed nodes get no
        // RoundStart, owe no report, and are announced as excluded so
        // no live node proposes to (or audits) them. Under in-protocol
        // detection there is no oracle (`down` stays empty) and the
        // suspect list plays the same role.
        if let Some(script) = self.script {
            self.down = script.down_at(now);
        }
        let mut skip = self.down.clone();
        skip.extend(self.suspects.iter().map(|s| s.node));
        skip.sort_unstable();
        self.expected = self.len() - skip.len();
        // The round's lent view, derived once from what every node
        // receives. The last one goes before the new broadcast is
        // allocated; under top-k the new `changed` is the diff against it.
        let topk = matches!(self.options.node.select, SelectPolicy::TopK(_));
        let last = self.round_blocks.take().filter(|_| topk);
        let changed = last.map(|last| last.moved(&self.loads, &skip));
        let loads = Arc::new(self.loads.clone());
        let (view, hot) = match self.options.node.select {
            SelectPolicy::Exact => {
                let view = RoundBlocks::new(self.instance.speeds(), Arc::clone(&loads), &skip);
                (view, Vec::new())
            }
            SelectPolicy::TopK(k) => {
                let view = RoundBlocks {
                    loads: Arc::clone(&loads),
                    skip: skip.clone(),
                    changed,
                    ..Default::default()
                };
                (view, self.build_hot(&skip, k))
            }
        };
        self.round_blocks = Some(view);
        Arc::new(Frame::RoundStart {
            round: self.round,
            loads,
            excluded: skip,
            epoch: 0,
            hot: Arc::new(hot),
        })
    }

    /// The current round's lent view, its [`RoundBlocks`]; `None` before
    /// round 1.
    pub(crate) fn round_blocks(&self) -> Option<&RoundBlocks> {
        self.round_blocks.as_ref()
    }

    /// A round's hot set: the `max(⌊k/2⌋, 1)` most under-loaded and as
    /// many most over-loaded live nodes by normalized load `l_j / s_j` —
    /// the peers *every* node may profitably trade with regardless of
    /// delay, grafted onto each node's delay-nearest candidates. Pure
    /// function of (loads, excluded): ties break by id, output sorted
    /// ascending, so the set is identical for every thread count.
    fn build_hot(&self, excluded: &[u32], k: u32) -> Vec<u32> {
        let h = (k as usize / 2).max(1);
        let mut live: Vec<u32> = live_ids(self.len(), excluded).collect();
        if live.len() <= 2 * h {
            return live;
        }
        let key = |j: u32| self.loads[j as usize] / self.instance.speed(j as usize);
        let by_key = |a: &u32, b: &u32| key(*a).total_cmp(&key(*b)).then(a.cmp(b));
        // Lowest h …
        live.select_nth_unstable_by(h - 1, by_key);
        let mut hot: Vec<u32> = live[..h].to_vec();
        // … and highest h of the remainder.
        let rest = &mut live[h..];
        let split = rest.len() - h;
        rest.select_nth_unstable_by(split, by_key);
        hot.extend_from_slice(&rest[split..]);
        hot.sort_unstable();
        hot
    }

    /// Starts the final-ledger collection and returns the `Shutdown`
    /// broadcast, which reaches every node not in the latched down set.
    /// That set is *empty* under in-protocol detection, so all `m`
    /// nodes get it there — suspected ones included, whose replies
    /// the coordinator still counts on if they are alive.
    fn shutdown(&mut self) -> Arc<Frame> {
        self.phase = Phase::Collecting;
        Arc::new(Frame::Shutdown)
    }

    /// Who the broadcast of `frame` reaches, ascending, and how many:
    /// every node outside its skip list — a `RoundStart`'s `excluded`,
    /// or for a `Shutdown` the down set latched at the last round
    /// start, which no round changes once it is sent.
    pub(crate) fn audience<'s>(
        &'s self,
        frame: &'s Frame,
    ) -> (usize, impl Iterator<Item = u32> + 's) {
        let skip = match frame {
            Frame::RoundStart { excluded, .. } => excluded,
            _ => &self.down,
        };
        (self.len() - skip.len(), live_ids(self.len(), skip))
    }

    /// Consumes one control-plane frame that arrived at virtual time
    /// `now` and returns the broadcast it triggers, if any: the next
    /// `RoundStart` or the `Shutdown` once its round ends. Time belongs
    /// to the caller: `now` is the latency-sample source and rejoin
    /// timestamp of in-protocol detection, and the start time of any
    /// round this frame begins.
    pub fn handle(&mut self, frame: &Frame, now: f64) -> Option<Arc<Frame>> {
        match (self.phase, frame) {
            (
                Phase::Rounds | Phase::Parked | Phase::Collecting,
                Frame::Report {
                    from,
                    round: r,
                    outcome,
                    load,
                    local_cost,
                    exchange,
                },
            ) => {
                if self.in_protocol_detect() {
                    if let Some(idx) = self.suspect_index(*from) {
                        // A suspected node spoke: the suspicion was
                        // wrong. Probation/rejoin instead of the normal
                        // round accounting — during collection too,
                        // since the detector must own up to it.
                        self.rejoin(idx, *outcome, *load, *local_cost, *exchange, now);
                        return None;
                    }
                }
                // Any other report after the round ended is dropped.
                if self.phase != Phase::Rounds {
                    return None;
                }
                if matches!(self.options.detect, DetectMode::Adaptive) {
                    let lat = now - self.round_started_at;
                    welford_feed(&mut self.node_lat[*from as usize], lat);
                    welford_feed(&mut self.global_lat, lat);
                }
                if cfg!(debug_assertions) {
                    self.report_log.push((*r, *from, *outcome));
                    if *r != self.round || self.seen[*from as usize] {
                        panic!(
                            "protocol violation: node {from} sent {outcome:?} for round {r} \
                             during round {} (seen={}); log: {:?}",
                            self.round, self.seen[*from as usize], self.report_log
                        );
                    }
                }
                self.seen[*from as usize] = true;
                self.reports += 1;
                self.account(*from, *outcome, *load, *local_cost, *exchange);
                self.lost += usize::from(matches!(outcome, RoundOutcome::Lost));
                if self.reports == self.expected {
                    return self.end_round(now);
                }
            }
            (Phase::Collecting, Frame::FinalLedger { .. }) => {
                self.collected += 1;
                if self.collected == self.len() {
                    self.phase = Phase::Done;
                }
            }
            (_, other) => {
                debug_assert!(
                    matches!(other, Frame::FinalLedger { .. }),
                    "unexpected coordinator frame {other:?} in {:?}",
                    self.phase
                );
            }
        }
        None
    }

    /// Applies one report to the coordinator's books: the reporter's
    /// load and local cost, the partner's after an `Exchanged`, and
    /// the `Aborted` count. `Lost` is the live path's to count — a
    /// rejoining node's report does not.
    fn account(
        &mut self,
        from: u32,
        outcome: RoundOutcome,
        load: f64,
        local_cost: f64,
        exchange: Option<(u32, f64, f64, f64)>,
    ) {
        self.loads[from as usize] = load;
        self.local_costs[from as usize] = local_cost;
        match outcome {
            RoundOutcome::Exchanged => {
                let (partner, partner_load, partner_cost, volume) =
                    exchange.expect("exchange data present");
                self.loads[partner as usize] = partner_load;
                self.local_costs[partner as usize] = partner_cost;
                self.exchanges += 1;
                self.moved += volume;
                self.round_moved += volume;
            }
            // The node rolled back an exchange whose partner went
            // silent (in-protocol detection only).
            RoundOutcome::Aborted => self.detector.aborted_exchanges += 1,
            // Accepted = collision-yield acceptor; the initiator's
            // Exchanged report carries the exchange itself.
            RoundOutcome::Lost | RoundOutcome::Accepted | RoundOutcome::NoProposal => {}
        }
    }

    /// The probation/rejoin handshake: a report from a suspected node
    /// proves it alive. The node leaves the suspect list (so the next
    /// `RoundStart` re-includes it — that broadcast *is* the resync:
    /// fresh round number, fresh load view; its frozen ledger was
    /// never touched, so load conservation is exact through wrongful
    /// exclusion and re-admission), and the coordinator adopts the
    /// report's load view so the rejoin round starts from truth.
    fn rejoin(
        &mut self,
        idx: usize,
        outcome: RoundOutcome,
        load: f64,
        local_cost: f64,
        exchange: Option<(u32, f64, f64, f64)>,
        now: f64,
    ) {
        let s = self.suspects.remove(idx);
        self.detector.false_positives += 1;
        self.detector.rejoin_ms += now - s.at_ms;
        self.account(s.node, outcome, load, local_cost, exchange);
        if matches!(self.options.detect, DetectMode::Adaptive) {
            // The late report is exactly the sample the estimator was
            // missing: feeding it teaches the detector this node's
            // true latency, which is how adaptive stops re-suspecting
            // a persistent straggler.
            let lat = now - s.round_start_ms;
            welford_feed(&mut self.node_lat[s.node as usize], lat);
            welford_feed(&mut self.global_lat, lat);
        }
    }

    /// The report deadline for the round that just started, or `None`
    /// under [`DetectMode::Oracle`] (no deadline) or once rounds are
    /// over. Drivers call this after every round advance and schedule
    /// [`Self::on_deadline`] at the returned instant; one that pops
    /// when [`Self::awaits_reports`] no longer holds is stale.
    pub fn arm_deadline(&self, now: f64) -> Option<f64> {
        if self.phase != Phase::Rounds {
            return None;
        }
        match self.options.detect {
            DetectMode::Oracle => None,
            DetectMode::Timeout(ms) => Some(now + ms),
            DetectMode::Adaptive => {
                let global = welford_bound(&self.global_lat).unwrap_or(ADAPTIVE_BOOTSTRAP_MS);
                let mut worst = f64::NEG_INFINITY;
                for j in 0..self.len() as u32 {
                    if self.suspect_index(j).is_some() {
                        continue; // owes no report this round
                    }
                    worst = worst.max(welford_bound(&self.node_lat[j as usize]).unwrap_or(global));
                }
                // All nodes suspected: keep a heartbeat so the round
                // still ends and the run can reach its budget.
                Some(now + if worst.is_finite() { worst } else { global })
            }
        }
    }

    /// Whether `round` is still waiting for reports: it is the current
    /// round and has not ended (neither parked nor shut down). A report
    /// deadline for any other round is stale.
    pub fn awaits_reports(&self, round: u64) -> bool {
        self.phase == Phase::Rounds && round == self.round
    }

    /// The report deadline fired at virtual time `now`, the caller's
    /// clock: the suspicion timestamp and the start time of any round
    /// this begins. A stale timer (see [`Self::awaits_reports`]: an
    /// earlier round, or a round already ended, parked included) is a
    /// no-op. Otherwise every node that owed a report and stayed silent
    /// becomes *suspected* — excluded from the next `RoundStart` — and
    /// the round ends on the reports that made it; the broadcast that
    /// follows is returned.
    pub fn on_deadline(&mut self, round: u64, now: f64) -> Option<Arc<Frame>> {
        if !self.awaits_reports(round) {
            return None;
        }
        debug_assert!(self.in_protocol_detect(), "deadline armed under oracle");
        let round_start_ms = self.round_started_at;
        for j in 0..self.len() as u32 {
            if !self.seen[j as usize] && self.suspect_index(j).is_none() {
                let pos = self.suspects.partition_point(|s| s.node < j);
                self.suspects.insert(
                    pos,
                    Suspect {
                        node: j,
                        at_ms: now,
                        round_start_ms,
                    },
                );
                self.detector.suspicions += 1;
            }
        }
        self.end_round(now)
    }

    /// Currently suspected nodes, ascending. Drivers diff this across
    /// interactions to attribute detection latency (they know the
    /// physical crash times; the coordinator does not).
    pub fn suspects_now(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.suspects.iter().map(|s| s.node)
    }

    /// Closes the current round and returns what follows it: the next
    /// `RoundStart`, the `Shutdown`, or nothing when the round parks.
    fn end_round(&mut self, now: f64) -> Option<Arc<Frame>> {
        self.history.push(self.local_costs.iter().sum());
        if self.hold_open {
            // Streaming: a quiet round is a pause, not convergence —
            // but chaining straight into the next round would spin at
            // one virtual instant (control frames travel free). Park
            // until stream activity kicks us.
            self.quiet = 0;
            if self.round_moved <= self.options.quiescent_volume {
                self.phase = Phase::Parked;
                return None;
            }
            self.round += 1;
            return Some(self.begin_round(now));
        }
        if self.round_moved <= self.options.quiescent_volume {
            self.quiet += 1;
            if self.quiet >= self.options.quiescent_rounds {
                self.quiescent = true;
                return Some(self.shutdown());
            }
        } else {
            self.quiet = 0;
        }
        if self.round >= self.options.max_rounds as u64 {
            return Some(self.shutdown());
        }
        self.round += 1;
        Some(self.begin_round(now))
    }

    /// Assembles the final [`ClusterReport`] once [`Self::is_done`],
    /// over the driver's final `ledgers`, one per node: each as the
    /// node sent its final ledger, or as it stood when the collection
    /// closed over it.
    ///
    /// # Panics
    /// Panics when called before the collection ended.
    pub fn into_report(self, ledgers: Vec<SparseVec>) -> ClusterReport {
        assert!(
            self.phase == Phase::Done,
            "into_report called before all final ledgers arrived"
        );
        assert_eq!(ledgers.len(), self.len(), "one final ledger per node");
        let assignment = Assignment::from_ledgers(ledgers);
        let final_cost = total_cost(&self.instance, &assignment);
        ClusterReport {
            assignment,
            final_cost,
            rounds: self.history.len() - 1,
            history: self.history,
            exchanges: self.exchanges,
            moved: self.moved,
            lost_proposals: self.lost,
            quiescent: self.quiescent,
            virtual_ms: 0.0,
            event_hash: 0,
            faults: dlb_faults::FaultSummary::default(),
            detector: self.detector,
            stream: crate::cluster::StreamSummary::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::rngutil::rng_for;
    use dlb_core::LatencyMatrix;
    use dlb_distributed::mine::partner_score;
    use rand::Rng;

    #[test]
    fn choose_target_prefers_imbalanced_peer() {
        let instance = Instance::homogeneous(3, 1.0, 1.0, 0.0);
        // Node 0 idle; node 1 heavily loaded; node 2 idle.
        let loads = vec![0.0, 300.0, 0.0];
        assert_eq!(choose_target(0, &instance, &loads, &[]), Some(1));
        assert_eq!(choose_target(2, &instance, &loads, &[]), Some(1));
    }

    #[test]
    fn choose_target_respects_exclusions() {
        let instance = Instance::homogeneous(3, 1.0, 1.0, 0.0);
        let loads = vec![0.0, 300.0, 100.0];
        assert_eq!(choose_target(0, &instance, &loads, &[1]), Some(2));
    }

    #[test]
    fn choose_target_none_when_balanced() {
        let instance = Instance::homogeneous(4, 1.0, 10.0, 0.0);
        let loads = vec![50.0; 4];
        assert_eq!(choose_target(0, &instance, &loads, &[]), None);
    }

    #[test]
    fn audit_rotation_covers_all_peers() {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..3u64 {
            seen.insert(audit_target(1, 4, round, &[]).unwrap());
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn audit_rotation_skips_excluded_and_handles_empty() {
        for round in 0..10u64 {
            let t = audit_target(0, 3, round, &[2]).unwrap();
            assert_eq!(t, 1);
        }
        assert_eq!(audit_target(0, 1, 0, &[]), None);
    }

    #[test]
    fn audit_gap_walk_matches_materialized_rotation() {
        for m in [1usize, 2, 5, 9] {
            for id in 0..m as u32 {
                for excluded in [vec![], vec![0], vec![1, 3], vec![0, 1, 2, 3]] {
                    let excluded: Vec<u32> =
                        excluded.into_iter().filter(|&e| (e as usize) < m).collect();
                    let naive: Vec<u32> = (0..m as u32)
                        .filter(|&j| j != id && !excluded.contains(&j))
                        .collect();
                    for round in 0..12u64 {
                        let want = if naive.is_empty() {
                            None
                        } else {
                            Some(naive[round as usize % naive.len()])
                        };
                        assert_eq!(
                            audit_target(id, m, round, &excluded),
                            want,
                            "m={m} id={id} excluded={excluded:?} round={round}"
                        );
                    }
                }
            }
        }
    }

    /// The audit rotation against the materialized one, at every scale.
    mod audit_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `excluded` sparse, dense or every peer, holding `id` or
            /// not, and `round` anywhere in `u64`.
            #[test]
            fn prop_audit_target_is_the_materialized_rotation(
                m in 1usize..=300,
                seed in any::<u64>(),
                round in any::<u64>(),
            ) {
                let mut rng = rng_for(seed, 47);
                let id = rng.gen_range(0..m) as u32;
                let one_in = [1, 2, 10, 100][rng.gen_range(0..4usize)];
                let with_id = rng.gen_range(0..2) == 0;
                let excluded: Vec<u32> = (0..m as u32)
                    .filter(|&j| if j == id { with_id } else { rng.gen_range(0..one_in) == 0 })
                    .collect();
                let live: Vec<u32> = (0..m as u32)
                    .filter(|&j| j != id && !excluded.contains(&j))
                    .collect();
                let want = match live.len() as u64 {
                    0 => None,
                    n => Some(live[(round % n) as usize]),
                };
                prop_assert_eq!(audit_target(id, m, round, &excluded), want);
            }
        }
    }

    /// Node `id`'s [`slate`] as a list, with `nearest` kept across calls.
    fn streamed(
        id: u32,
        lat: &LatencyMatrix,
        k: u32,
        nearest: &mut Option<Box<[u32]>>,
        hot: &[u32],
    ) -> Vec<u32> {
        slate(id, lat, k, nearest, hot).collect()
    }

    #[test]
    fn slate_merges_the_rounds_hot_set() {
        let lat = LatencyMatrix::homogeneous(10, 1.0);
        let mut nearest = None;
        // Homogeneous → base is the wheel successors of 3: {4,5,6,7}.
        assert_eq!(
            streamed(3, &lat, 4, &mut nearest, &[0, 3, 9]),
            vec![0, 4, 5, 6, 7, 9],
            "hot merged, self dropped"
        );
        // The next round: the same wheel with the new hot set.
        assert_eq!(
            streamed(3, &lat, 4, &mut nearest, &[1, 5]),
            vec![1, 4, 5, 6, 7]
        );
        // Past the wrap: successors of 8 are {9,0,1}.
        assert_eq!(
            streamed(8, &lat, 3, &mut nearest, &[5, 8]),
            vec![0, 1, 5, 9]
        );
        assert!(nearest.is_none(), "the wheel is stored nowhere");
        // A dense row: the nearest of 3 on a line are {2,4}, built on the
        // first round and kept.
        let line = (0..36usize)
            .map(|n| (n / 6).abs_diff(n % 6) as f64)
            .collect();
        let line = LatencyMatrix::from_rows(6, line);
        assert_eq!(streamed(3, &line, 2, &mut nearest, &[0, 3]), vec![0, 2, 4]);
        assert_eq!(nearest.as_deref(), Some(&[2, 4][..]));
        assert_eq!(streamed(3, &line, 2, &mut nearest, &[4, 5]), vec![2, 4, 5]);
    }

    /// The `select=exact` scan with the round's blocks lent: the peers
    /// walked in load order, the blocks that cannot win skipped.
    fn choose_target(id: u32, instance: &Instance, loads: &[f64], excluded: &[u32]) -> Option<u32> {
        let round = RoundBlocks::new(instance.speeds(), Arc::new(loads.to_vec()), excluded);
        score_best(id, instance, loads, Some(&round), excluded)
    }

    /// The scan as it was before the batch kernel: one scalar
    /// `partner_score` per peer, exclusions by lookup.
    fn scalar_scan(id: u32, instance: &Instance, loads: &[f64], excluded: &[u32]) -> Option<u32> {
        let mut best: Option<(u32, f64)> = None;
        for j in (0..instance.len() as u32).filter(|j| *j != id && !excluded.contains(j)) {
            let score = partner_score(instance, loads, id as usize, j as usize);
            match best {
                Some((_, b)) if score <= b => {}
                _ => best = Some((j, score)),
            }
        }
        best.filter(|&(_, s)| s > SCORE_FLOOR).map(|(j, _)| j)
    }

    /// The `select=topk:K` scan of node `id` under the round's `hot` set.
    fn topk_scan(
        id: u32,
        instance: &Instance,
        loads: &[f64],
        excluded: &[u32],
        k: u32,
        hot: &[u32],
    ) -> Option<u32> {
        let mut nearest = None;
        let slate = slate(id, instance.latency(), k, &mut nearest, hot);
        scan(id, excluded, slate, |block, out| {
            partner_scores(instance, loads, id as usize, block, out);
        })
    }

    #[test]
    fn topk_with_saturating_k_matches_exact_scan() {
        let instance = Instance::homogeneous(6, 1.0, 1.0, 0.0);
        for loads in [
            vec![0.0, 300.0, 0.0, 10.0, 5.0, 80.0],
            vec![50.0; 6],
            vec![9.0, 0.0, 0.0, 0.0, 0.0, 900.0],
        ] {
            for excluded in [vec![], vec![1], vec![1, 5]] {
                let want = scalar_scan(0, &instance, &loads, &excluded);
                assert_eq!(
                    topk_scan(0, &instance, &loads, &excluded, 5, &[]),
                    want,
                    "loads={loads:?} excluded={excluded:?}"
                );
                assert_eq!(choose_target(0, &instance, &loads, &excluded), want);
            }
        }
    }

    #[test]
    fn blocked_scans_match_the_scalar_scan_across_block_boundaries() {
        // Dense asymmetric latency, non-uniform speeds, three score
        // blocks with a ragged tail. The peers on the block boundaries
        // are by far the most attractive, so every exclusion list
        // below moves the winner across a boundary.
        const B: u32 = SCORE_BLOCK as u32;
        let m = 2 * SCORE_BLOCK + 5;
        let last = m as u32 - 1;
        let mut rng = rng_for(7, 3);
        let mut data: Vec<f64> = (0..m * m).map(|_| rng.gen_range(0.5..30.0)).collect();
        for i in 0..m {
            data[i * m + i] = 0.0;
        }
        let dense = Instance::new(
            (0..m).map(|_| rng.gen_range(0.5..4.0)).collect(),
            vec![0.0; m],
            LatencyMatrix::from_rows(m, data),
        );
        let small: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..40.0)).collect();
        let mut ranked = small.clone();
        for (rank, &j) in [0, B - 1, B, last].iter().enumerate() {
            ranked[j as usize] = 5000.0 + 500.0 * rank as f64;
        }
        // On a homogeneous network equal loads are equal scores: the
        // boundary peers tie, so keep-first decides between blocks.
        let homog = Instance::homogeneous(m, 1.0, 2.0, 0.0);
        let mut tied = small.clone();
        for j in [B - 1, B, last] {
            tied[j as usize] = 5000.0;
        }
        // A NaN load makes both directions' gains NaN, so those peers
        // score NaN, in both blocks.
        let mut nan = tied.clone();
        for j in [1, B - 2, B + 1] {
            nan[j as usize] = f64::NAN;
        }
        assert!(partner_score(&homog, &nan, 0, 1).is_nan());
        let mut winners = std::collections::BTreeSet::new();
        for (instance, loads) in [(&dense, &ranked), (&homog, &tied), (&homog, &nan)] {
            for id in [0, 1, B - 1, B, B + 1, last] {
                let lat = instance.latency();
                let every = streamed(id, lat, last, &mut None, &[]).len();
                assert_eq!(every, m - 1, "saturating k: every peer");
                for excluded in [
                    vec![],
                    vec![0],
                    vec![last],
                    vec![B - 1, B],
                    vec![0, B - 1, B, last],
                    vec![0, 1, B - 2, B - 1, B, B + 1, last - 1, last],
                    (0..last).collect(),
                ] {
                    for with_self in [false, true] {
                        let mut excluded = excluded.clone();
                        if with_self && !excluded.contains(&id) {
                            excluded.push(id);
                            excluded.sort_unstable();
                        }
                        let want = scalar_scan(id, instance, loads, &excluded);
                        winners.extend(want);
                        assert_eq!(
                            choose_target(id, instance, loads, &excluded),
                            want,
                            "exact id={id} excluded={excluded:?}"
                        );
                        assert_eq!(
                            topk_scan(id, instance, loads, &excluded, last, &[]),
                            want,
                            "topk id={id} excluded={excluded:?}"
                        );
                    }
                }
            }
        }
        assert!(
            winners.len() >= 5,
            "exclusions moved the winner: {winners:?}"
        );
    }

    /// The id-stream scan's merge walk against keep-first by lookup, on
    /// score blocks no instance produces: ties, `±0.0`, `−∞` and NaN, with
    /// excluded ids before, inside and after each block.
    mod scan_proptests {
        use super::*;
        use proptest::prelude::*;

        /// Keep-first over `range` minus `id` and `excluded`, by lookup.
        fn keep_first(
            id: u32,
            range: std::ops::Range<usize>,
            scores: &[f64],
            excluded: &[u32],
        ) -> Option<u32> {
            let mut best: Option<(u32, f64)> = None;
            for j in range
                .map(|j| j as u32)
                .filter(|j| *j != id && !excluded.contains(j))
            {
                let score = scores[j as usize];
                match best {
                    Some((_, b)) if score <= b => {}
                    _ => best = Some((j, score)),
                }
            }
            best.filter(|&(_, s)| s > SCORE_FLOOR).map(|(j, _)| j)
        }

        proptest! {
            // Cheap cases, and 162 combinations of the per-case knobs.
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn prop_scan_matches_the_scalar_fold(
                m in 1usize..3 * SCORE_BLOCK + 9,
                seed in any::<u64>(),
            ) {
                let mut rng = rng_for(seed, 41);
                // Per case: where the scan starts, how often a lane is
                // NaN (never, rarely, often), how many score levels
                // there are (few levels tie at the top of every block),
                // how often an id is excluded, and whether any score is
                // positive at all.
                let start = [0, rng.gen_range(0..m)][rng.gen_range(0..2usize)];
                let nan_one_in = [0, 700, 25][rng.gen_range(0..3usize)];
                let levels = [3, 16, 1 << 20][rng.gen_range(0..3usize)];
                let excluded_one_in = [0, 300, 15][rng.gen_range(0..3usize)];
                let sign = [1.0, -1.0][rng.gen_range(0..2usize)];
                let mut scores: Vec<f64> = (0..m)
                    .map(|_| match rng.gen_range(0..8) {
                        _ if nan_one_in > 0 && rng.gen_range(0..nan_one_in) == 0 => f64::NAN,
                        0 => 0.0,
                        1 => -0.0,
                        2 => f64::NEG_INFINITY,
                        3 => sign * SCORE_FLOOR / 2.0,
                        _ => sign * (1 + rng.gen_range(0..levels)) as f64 / 4.0,
                    })
                    .collect();
                // A NaN on a block's last lane hands the next block a
                // NaN best.
                let first_end = start + SCORE_BLOCK - 1;
                if first_end < m && rng.gen_range(0..3) == 0 {
                    scores[first_end] = f64::NAN;
                }
                let id = rng.gen_range(0..m) as u32;
                scores[id as usize] = 0.0; // what the kernel scores `id`
                let with_self = rng.gen_range(0..4) == 0;
                let excluded: Vec<u32> = (0..m as u32)
                    .filter(|&j| {
                        (with_self && j == id)
                            | (excluded_one_in > 0 && rng.gen_range(0..excluded_one_in) == 0)
                    })
                    .collect();
                let got = scan(id, &excluded, start as u32..m as u32, |block, out| {
                    let Candidates::List(ids) = block else { unreachable!("a List scan") };
                    for (out, &j) in zip(out, ids) {
                        *out = scores[j as usize];
                    }
                });
                prop_assert_eq!(got, keep_first(id, start..m, &scores, &excluded));
            }
        }
    }

    /// The streamed slate against the stored candidate index it replaced.
    mod slate_proptests {
        use super::*;
        use proptest::prelude::*;

        /// The index a top-k node used to store and rebuild every round:
        /// its `k` nearest written out (the wheel by its own formula, not
        /// [`k_nearest_wheel`]'s) merged with `hot`, minus `id`.
        fn stored_index(id: u32, lat: &LatencyMatrix, k: u32, hot: &[u32]) -> Vec<u32> {
            let (i, k, m) = (id as usize, k as usize, lat.len());
            let base = match lat.homogeneous_value() {
                Some(c) if c.is_finite() => {
                    let mut ids: Vec<u32> =
                        (1..=k.min(m - 1)).map(|d| ((i + d) % m) as u32).collect();
                    ids.sort_unstable();
                    ids
                }
                _ => k_nearest_row(lat, i, k),
            };
            let mut merged = Vec::with_capacity(base.len() + hot.len());
            let (mut a, mut b) = (0usize, 0usize);
            loop {
                let next = match (base.get(a).copied(), hot.get(b).copied()) {
                    (Some(x), Some(y)) => {
                        if x <= y {
                            a += 1;
                            if x == y {
                                b += 1;
                            }
                            x
                        } else {
                            b += 1;
                            y
                        }
                    }
                    (Some(x), None) => {
                        a += 1;
                        x
                    }
                    (None, Some(y)) => {
                        b += 1;
                        y
                    }
                    (None, None) => break,
                };
                if next != id {
                    merged.push(next);
                }
            }
            merged
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Two rounds of one node, the second on the kept `nearest`:
            /// finite and `∞` homogeneous nets and dense rows with ties
            /// and unreachable peers, `k` up to `m + 2`, and a hot set
            /// that may hold `id` and overlap the nearest.
            #[test]
            fn prop_slate_is_the_stored_index(
                m in 1usize..=300,
                seed in any::<u64>(),
            ) {
                let mut rng = rng_for(seed, 43);
                let id = rng.gen_range(0..m) as u32;
                let k = rng.gen_range(1..=m as u32 + 2);
                let lat = match rng.gen_range(0..3) {
                    0 => LatencyMatrix::homogeneous(m, 20.0),
                    1 => LatencyMatrix::homogeneous(m, f64::INFINITY),
                    _ => {
                        let mut data: Vec<f64> = (0..m * m)
                            .map(|_| match rng.gen_range(0..8) {
                                0 => f64::INFINITY,
                                level => level as f64,
                            })
                            .collect();
                        for i in 0..m {
                            data[i * m + i] = 0.0;
                        }
                        LatencyMatrix::from_rows(m, data)
                    }
                };
                let mut nearest = None;
                for _ in 0..2 {
                    let one_in = [1, 3, 40][rng.gen_range(0..3usize)];
                    let with_id = rng.gen_range(0..2) == 0;
                    let hot: Vec<u32> = (0..m as u32)
                        .filter(|&j| (with_id && j == id) || rng.gen_range(0..one_in) == 0)
                        .collect();
                    let want = stored_index(id, &lat, k, &hot);
                    prop_assert_eq!(streamed(id, &lat, k, &mut nearest, &hot), want);
                }
            }
        }
    }

    /// The `loads` of the one `RoundStart` in `broadcasts`.
    fn broadcast_loads(broadcasts: &[Arc<Frame>]) -> Arc<Vec<f64>> {
        match broadcasts {
            [frame] => match &**frame {
                Frame::RoundStart { loads, .. } => Arc::clone(loads),
                other => panic!("expected a RoundStart, got {other:?}"),
            },
            other => panic!("expected one broadcast, got {other:?}"),
        }
    }

    #[test]
    fn coordinator_derives_the_rounds_blocks_from_its_broadcast() {
        let mut rng = rng_for(5, 11);
        let speeds: Vec<f64> = (0..70).map(|_| rng.gen_range(0.5..4.0)).collect();
        let own: Vec<f64> = (0..70).map(|_| rng.gen_range(0.0..90.0)).collect();
        let latency = LatencyMatrix::homogeneous(70, 2.0);
        let instance = Arc::new(Instance::new(speeds, own, latency));
        let options = ClusterOptions::default();
        assert_eq!(options.node.select, SelectPolicy::Exact);
        let plan: dlb_faults::FaultPlan = "crash:0.03@0ms".parse().unwrap();
        let script = plan.compile(5, 70);
        let down = script.down_at(0.0);
        assert_eq!(down.len(), 2, "premise: two nodes down from the start");
        let mut coordinator = CoordinatorMachine::new(Arc::clone(&instance), &options, &script);
        let loads = broadcast_loads(&[coordinator.start()]);
        let round = coordinator
            .round_blocks()
            .expect("exact selection scans blocks");
        assert!(
            Arc::ptr_eq(&round.loads, &loads),
            "the broadcast's very Arc"
        );
        // The live peers by `(l/s, id)`, the crashed ones left out.
        let r = |j: u32| loads[j as usize] / instance.speed(j as usize);
        let mut order: Vec<u32> = (0..70).filter(|j| !down.contains(j)).collect();
        order.sort_by(|&a, &b| r(a).total_cmp(&r(b)).then(a.cmp(&b)));
        assert_eq!(round.order, order);
        let lane = |&j: &u32| BlockSummary::lane(loads[j as usize], instance.speed(j as usize));
        let join = |ids: &[u32]| ids.iter().map(lane).reduce(BlockSummary::join).unwrap();
        let blocks: Vec<BlockSummary> = order.chunks(SCORE_BLOCK).map(join).collect();
        assert_eq!(round.blocks, blocks);
        assert_eq!(round.blocks.len(), 3, "two full blocks and a tail");
        let all = join(&order);
        assert_eq!((round.max_s, round.tame), (all.max_s, true));

        // Under top-k the view lends, from round 2 on, every id whose
        // broadcast load moved or that entered or left the skip list.
        let mut topk = options.clone();
        topk.node.select = SelectPolicy::TopK(4);
        let plan: dlb_faults::FaultPlan = "crash:0.03@0ms..10ms".parse().unwrap();
        let script = plan.compile(5, 70);
        let down = script.down_at(0.0);
        assert!(
            !down.is_empty() && script.down_at(20.0).is_empty(),
            "premise: they recover"
        );
        let mut coordinator = CoordinatorMachine::new(instance, &topk, &script);
        let loads = broadcast_loads(&[coordinator.start()]);
        let view = coordinator.round_blocks().expect("top-k lends a view");
        assert!(Arc::ptr_eq(&view.loads, &loads) && view.order.is_empty());
        assert_eq!(view.changed, None, "round 1 has no previous round");
        // Round 1's reports: `a` reports a new load; `b`'s exchange moves
        // `c`, whose own report then puts its old load back.
        let live: Vec<u32> = (0..70).filter(|j| !down.contains(j)).collect();
        let [a, b, c] = [live[0], live[1], live[2]];
        let mut out = Vec::new();
        for &j in &live {
            let l = loads[j as usize];
            let (outcome, load, exchange) = match j {
                _ if j == a => (RoundOutcome::NoProposal, l + 1.0, None),
                _ if j == b => {
                    let moved = (c, loads[c as usize] + 2.0, 0.0, 2.0);
                    (RoundOutcome::Exchanged, l - 2.0, Some(moved))
                }
                _ => (RoundOutcome::NoProposal, l, None),
            };
            let report = Frame::Report {
                from: j,
                round: 1,
                outcome,
                load,
                local_cost: 0.0,
                exchange,
            };
            out.extend(coordinator.handle(&report, 20.0));
        }
        let loads = broadcast_loads(&out);
        let view = coordinator.round_blocks().expect("a view every round");
        assert!(Arc::ptr_eq(&view.loads, &loads));
        let mut changed = [vec![a, b], down].concat();
        changed.sort_unstable();
        assert_eq!(view.changed, Some(changed), "`c` is back, so not listed");
    }

    /// A `RoundStart` replayed under a later round (in-protocol
    /// detection) is lent that round's blocks; it must scan as if it
    /// had none, as `handle` does.
    #[test]
    fn round_start_ignores_another_rounds_blocks() {
        let mut rng = rng_for(9, 13);
        let m = 3 * SCORE_BLOCK + 7;
        let speeds: Vec<f64> = (0..m).map(|_| rng.gen_range(0.5..4.0)).collect();
        let latency = LatencyMatrix::homogeneous(m, 1.0);
        let instance = Arc::new(Instance::new(speeds, vec![0.0; m], latency));
        let ids = [0, 5, SCORE_BLOCK as u32, m as u32 - 1];
        let mut ours: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..200.0)).collect();
        for &id in &ids {
            ours[id as usize] = 0.0;
        }
        let ours = Arc::new(ours);
        // A flat view bounds an idle node's every block below the floor.
        let flat = Arc::new(vec![0.0; m]);
        let other = RoundBlocks::new(instance.speeds(), flat, &[]);
        let start = Frame::RoundStart {
            round: 1,
            loads: Arc::clone(&ours),
            excluded: vec![],
            epoch: 0,
            hot: Arc::new(vec![]),
        };
        for id in ids {
            let misled = score_best(id, &instance, &ours, Some(&other), &[]);
            assert_eq!(misled, None, "node {id}: the flat bounds stop both sides");
            let config = NodeConfig::default();
            let mut lent = NodeMachine::local(id, Arc::clone(&instance), config);
            let mut out: Vec<Sent> = Vec::new();
            lent.handle_in(&start, Some(&other), &mut out);
            let mut alone = NodeMachine::local(id, Arc::clone(&instance), config);
            drive(&mut alone, start.clone());
            let want = choose_target(id, &instance, &ours, &[]);
            assert!(want.is_some(), "node {id} has a partner");
            assert_eq!(proposed(&alone), want, "node {id}");
            assert_eq!(proposed(&lent), want, "node {id}");
        }
    }

    /// A top-k population driven round by round by a real coordinator
    /// fed forged reports: a few loads move each round (now and then to
    /// NaN, or back to the value they had), an exchange moves a partner's
    /// load that the partner's own report then puts back, silent nodes
    /// become suspects and leave the skip list when they speak again, and
    /// some nodes miss a round start or take it late, under the next
    /// round's lent view. Every proposal must be the merged scan over the
    /// node's slate, or the audit rotation's pick, and every lent
    /// `changed` must name each id whose broadcast load or skip status
    /// moved since the last round start.
    mod topk_round_proptests {
        use super::*;
        use proptest::prelude::*;

        /// Whom node `id` proposes to on `start`: the best of its whole
        /// slate in one merged scan, else the audit rotation's peer.
        fn merged_pick(id: u32, instance: &Instance, k: u32, start: &Frame) -> Option<u32> {
            let Frame::RoundStart {
                round,
                loads,
                excluded,
                hot,
                ..
            } = start
            else {
                panic!("expected a RoundStart, got {start:?}");
            };
            let mut nearest = None;
            let slate = slate(id, instance.latency(), k, &mut nearest, hot);
            let scored = scan(id, excluded, slate, |block, out| {
                partner_scores(instance, loads, id as usize, block, out);
            });
            scored.or_else(|| audit_target(id, instance.len(), *round, excluded))
        }

        /// An instance on a homogeneous wheel or on dense rows with
        /// ties and unreachable peers.
        fn population(m: usize, rng: &mut impl Rng) -> Instance {
            let latency = match rng.gen_range(0..3) {
                0 => LatencyMatrix::homogeneous(m, 2.0),
                _ => {
                    let mut data: Vec<f64> = (0..m * m)
                        .map(|_| match rng.gen_range(0..10) {
                            0 => f64::INFINITY,
                            1 => 5.0,
                            _ => rng.gen_range(0.0..60.0),
                        })
                        .collect();
                    for i in 0..m {
                        data[i * m + i] = 0.0;
                    }
                    LatencyMatrix::from_rows(m, data)
                }
            };
            let speeds = (0..m).map(|_| rng.gen_range(0.5..4.0)).collect();
            let own = (0..m).map(|_| rng.gen_range(0.0..120.0)).collect();
            Instance::new(speeds, own, latency)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn prop_topk_picks_are_the_merged_slate_scan(
                m in 2usize..=40,
                seed in any::<u64>(),
            ) {
                let mut rng = rng_for(seed, 53);
                let instance = Arc::new(population(m, &mut rng));
                let k = rng.gen_range(1..=6u32);
                let options = ClusterOptions {
                    max_rounds: usize::MAX,
                    quiescent_rounds: usize::MAX,
                    detect: DetectMode::Timeout(50.0),
                    node: NodeConfig {
                        select: SelectPolicy::TopK(k),
                        two_phase: false,
                    },
                    ..ClusterOptions::default()
                };
                let script = FaultScript::empty(m);
                let mut coordinator = CoordinatorMachine::new(Arc::clone(&instance), &options, &script);
                let local = |id| NodeMachine::local(id, Arc::clone(&instance), options.node);
                let mut nodes: Vec<NodeMachine> = (0..m as u32).map(local).collect();
                // Each node's true load, and the round start it missed.
                let mut loads = instance.own_loads().to_vec();
                let mut missed: Vec<Option<Arc<Frame>>> = vec![None; m];
                // The last round start's broadcast loads and skip status.
                let mut last: Option<(Arc<Vec<f64>>, Vec<bool>)> = None;
                let mut out = vec![coordinator.start()];
                for round in 1..=rng.gen_range(8..18u64) {
                    prop_assert_eq!(coordinator.round_number(), round);
                    let start = match out.as_slice() {
                        [frame] => Arc::clone(frame),
                        other => panic!("one broadcast, got {other:?}"),
                    };
                    out.clear();
                    let to: Vec<u32> = coordinator.audience(&start).1.collect();
                    let view = coordinator.round_blocks();
                    let lent = view.expect("top-k lends a view every round");
                    let skipped: Vec<bool> =
                        (0..m as u32).map(|j| to.binary_search(&j).is_err()).collect();
                    match &last {
                        None => prop_assert!(lent.changed.is_none(), "round 1 lists nothing"),
                        Some((was, was_skipped)) => {
                            let changed = lent.changed.as_deref().expect("a list from round 2 on");
                            for j in 0..m {
                                let moved = was[j].to_bits() != lent.loads[j].to_bits()
                                    || was_skipped[j] != skipped[j];
                                let listed = changed.binary_search(&(j as u32)).is_ok();
                                prop_assert!(!moved || listed, "{} unlisted in round {}", j, round);
                            }
                        }
                    }
                    last = Some((Arc::clone(&lent.loads), skipped));
                    let mut sent: Vec<Sent> = Vec::new();
                    for &j in &to {
                        let node = &mut nodes[j as usize];
                        let late = missed[j as usize].take().filter(|_| rng.gen_range(0..2) == 0);
                        let mut current = None;
                        if rng.gen_range(0..6) == 0 {
                            missed[j as usize] = Some(Arc::clone(&start));
                        } else {
                            current = Some(Arc::clone(&start));
                        }
                        for frame in late.into_iter().chain(current) {
                            node.handle_in(&frame, view, &mut sent);
                            let want = merged_pick(j, &instance, k, &frame);
                            prop_assert_eq!(proposed(node), want, "node {} in round {}", j, round);
                            if let (Some(peer), Frame::RoundStart { round, .. }) = (want, &*frame) {
                                let busy = Frame::Busy { from: peer, round: *round };
                                node.handle_in(&busy, view, &mut sent);
                            }
                        }
                    }
                    // A few loads move; some to NaN, some to what they were.
                    for _ in 0..rng.gen_range(0..4) {
                        let j = rng.gen_range(0..m);
                        loads[j] = match rng.gen_range(0..12) {
                            0 => f64::NAN,
                            1 => loads[j],
                            _ => rng.gen_range(0.0..150.0),
                        };
                    }
                    let now = round as f64 * 100.0;
                    let report = |from: u32, exchange: Option<(u32, f64, f64, f64)>| Frame::Report {
                        from,
                        round,
                        outcome: match exchange {
                            Some(_) => RoundOutcome::Exchanged,
                            None => RoundOutcome::NoProposal,
                        },
                        load: loads[from as usize],
                        local_cost: 0.0,
                        exchange,
                    };
                    let suspects: Vec<u32> = coordinator.suspects_now().collect();
                    for s in suspects {
                        if rng.gen_range(0..3) == 0 {
                            out.extend(coordinator.handle(&report(s, None), now));
                        }
                    }
                    // Now and then `a`'s exchange moves `b`'s load, and
                    // `b`'s own report, later in the round, puts it back.
                    let forged = (to.len() >= 2 && rng.gen_range(0..2) == 0).then(|| {
                        let a = rng.gen_range(0..to.len() - 1);
                        (to[a], to[rng.gen_range(a + 1..to.len())])
                    });
                    for &j in &to {
                        match forged {
                            Some((a, b)) if j == a => {
                                let moved = Some((b, -1.0, 0.0, 1.0));
                                out.extend(coordinator.handle(&report(j, moved), now));
                            }
                            Some((_, b)) if j == b => {
                                out.extend(coordinator.handle(&report(j, None), now));
                            }
                            _ if rng.gen_range(0..3 * m) != 0 => {
                                out.extend(coordinator.handle(&report(j, None), now));
                            }
                            _ => {}
                        }
                    }
                    // Ends the round on the silent nodes, if any.
                    out.extend(coordinator.on_deadline(round, now + 50.0));
                }
            }
        }
    }

    /// The score bound against the scores it bounds, on the inputs the
    /// margin argument is about: every load and speed scale from `1e-6`
    /// to `1e9`, equal speeds, zero loads, peers at `r_i ± c` to the ulp,
    /// NaN and `±∞` loads, `c ∈ {0, ∞}` and dense rows with zeros.
    mod bound_proptests {
        use super::*;
        use proptest::prelude::*;

        /// One case: an instance, the gossiped loads, the scanning node
        /// and a sorted exclusion list.
        fn bound_case(m: usize, seed: u64) -> (Instance, Vec<f64>, u32, Vec<u32>) {
            fn pick(rng: &mut impl Rng, options: &[f64]) -> f64 {
                options[rng.gen_range(0..options.len())]
            }
            let mut rng = rng_for(seed, 43);
            let scale = pick(&mut rng, &[1e-6, 1e-3, 1.0, 1e3, 1e9]);
            let s0 = scale * rng.gen_range(0.5..4.0);
            let equal_speeds = rng.gen_range(0..3) == 0;
            let speeds: Vec<f64> = (0..m)
                .map(|_| match equal_speeds {
                    true => s0,
                    false => scale * rng.gen_range(0.1..8.0),
                })
                .collect();
            let c = pick(
                &mut rng,
                &[0.0, f64::INFINITY, 1.0, 0.5 * scale, 30.0 * scale],
            );
            let latency = match rng.gen_range(0..3) {
                0 => LatencyMatrix::homogeneous(m, c),
                _ => {
                    let mut data = vec![0.0; m * m];
                    for (k, entry) in data.iter_mut().enumerate() {
                        *entry = match rng.gen_range(0..8) {
                            _ if k % (m + 1) == 0 => 0.0,
                            0 | 1 => 0.0,
                            2 => f64::INFINITY,
                            _ => rng.gen_range(0.0..40.0),
                        };
                    }
                    LatencyMatrix::from_rows(m, data)
                }
            };
            let instance = Instance::new(speeds, vec![0.0; m], latency);
            let id = rng.gen_range(0..m);
            let r_id: f64 = rng.gen_range(0.0..300.0);
            let wild_one_in = pick(&mut rng, &[0.0, 150.0, 12.0]) as u32;
            let tie = instance.latency().homogeneous_value().unwrap_or(0.0);
            let mut loads: Vec<f64> = (0..m)
                .map(|j| {
                    let s = instance.speed(j);
                    if wild_one_in > 0 && rng.gen_range(0..wild_one_in) == 0 {
                        return pick(&mut rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
                    }
                    match rng.gen_range(0..8) {
                        0 => 0.0,
                        1 => -0.0,
                        // A peer at `r_i ± c`, nudged by an ulp or not.
                        2 | 3 => {
                            let r = r_id + pick(&mut rng, &[-tie, tie, 0.0]);
                            let l = (r * s).max(0.0);
                            match rng.gen_range(0..3) {
                                0 => l.next_up(),
                                1 => l.next_down().max(0.0),
                                _ => l,
                            }
                        }
                        _ => s * rng.gen_range(0.0..600.0),
                    }
                })
                .collect();
            loads[id] = instance.speed(id) * r_id;
            let excluded_one_in = pick(&mut rng, &[0.0, 40.0, 4.0]) as u32;
            let with_self = rng.gen_range(0..4) == 0;
            let excluded = (0..m as u32)
                .filter(|&j| {
                    (with_self && j as usize == id)
                        | (excluded_one_in > 0 && rng.gen_range(0..excluded_one_in) == 0)
                })
                .collect();
            (instance, loads, id as u32, excluded)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn sorted_walk_picks_the_full_scans_partner(
                m in 1usize..=300,
                seed in any::<u64>(),
            ) {
                let (instance, loads, id, excluded) = bound_case(m, seed);
                let round = RoundBlocks::new(instance.speeds(), Arc::new(loads.clone()), &excluded);
                let scan = |round| score_best(id, &instance, &loads, round, &excluded);
                prop_assert_eq!(scan(Some(&round)), scan(None));
            }

            #[test]
            fn block_bound_is_at_least_every_lanes_score(
                m in 1usize..=300,
                seed in any::<u64>(),
            ) {
                let (instance, loads, _, excluded) = bound_case(m, seed);
                let round = RoundBlocks::new(instance.speeds(), Arc::new(loads.clone()), &excluded);
                let c_lo = instance.latency().homogeneous_value().unwrap_or(0.0);
                let mut scores = [0.0; SCORE_BLOCK];
                for i in 0..m {
                    let me = BlockSummary::lane(loads[i], instance.speed(i));
                    for (ids, block) in round.order.chunks(SCORE_BLOCK).zip(&round.blocks) {
                        let scores = &mut scores[..ids.len()];
                        partner_scores(&instance, &loads, i, Candidates::List(ids), scores);
                        let bound = block.bound(&me, c_lo);
                        for (j, &score) in ids.iter().zip(scores.iter()) {
                            prop_assert!(
                                !(block.tame & me.tame) || score <= bound,
                                "i={i} j={j}: score {score:e} above the bound {bound:e}"
                            );
                        }
                    }
                }
            }

            /// What the walk's early stop rests on: for cursors stopped at
            /// blocks `lo ≤ hi`, every block between them is bounded by
            /// the larger of the low side's push bound at `lo` and the
            /// high side's pull bound at `hi`.
            #[test]
            fn side_bounds_cover_every_block_between_the_cursors(
                m in 1usize..=300,
                seed in any::<u64>(),
            ) {
                let (instance, loads, id, excluded) = bound_case(m, seed);
                let round = RoundBlocks::new(instance.speeds(), Arc::new(loads.clone()), &excluded);
                let me = BlockSummary::lane(loads[id as usize], instance.speed(id as usize));
                prop_assume!(round.tame && me.tame, "a wild lane: the walk is not taken");
                let c_lo = instance.latency().homogeneous_value().unwrap_or(0.0);
                let side = |k: usize, low: bool| {
                    let (push, pull) = round.blocks[k].gaps(&me, c_lo);
                    gap_bound(if low { push } else { pull }, me.max_s, round.max_s)
                };
                let n = round.blocks.len();
                for k in 0..n {
                    let bound = round.blocks[k].bound(&me, c_lo);
                    let low = (0..=k).map(|lo| side(lo, true)).fold(f64::INFINITY, f64::min);
                    let high = (k..n).map(|hi| side(hi, false)).fold(f64::INFINITY, f64::min);
                    prop_assert!(
                        bound <= low.max(high),
                        "block {k}: bound {bound:e} above both sides {low:e}, {high:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn local_cost_matches_definition() {
        let instance = Instance::homogeneous(2, 2.0, 5.0, 0.0);
        let mut ledger = SparseVec::new();
        ledger.set(0, 6.0); // own requests: no latency
        ledger.set(1, 4.0); // foreign: latency 5
                            // load 10, speed 2 → congestion/request 2.5
                            // cost = 6·2.5 + 4·(2.5 + 5) = 15 + 30 = 45
        let c = local_cost(0, &instance, &ledger);
        assert!((c - 45.0).abs() < 1e-12, "got {c}");
        // An empty ledger costs plain zero, not the `-0.0` an empty
        // `Iterator::sum` yields (it would print as `-0` in records).
        let idle = local_cost(0, &instance, &SparseVec::new());
        assert_eq!(idle.to_bits(), 0.0f64.to_bits(), "got {idle:?}");
    }

    /// Whom `machine` has an open proposal to, if anyone.
    fn proposed(machine: &NodeMachine) -> Option<u32> {
        match machine.leg {
            Leg::Proposed(j) => Some(j),
            _ => None,
        }
    }

    fn drive(machine: &mut NodeMachine, frame: Frame) -> Vec<Outbound> {
        let mut out = Vec::new();
        machine.handle(&frame, &mut out);
        out
    }

    #[test]
    fn node_defers_shutdown_past_inflight_commit() {
        // Node 1 accepts a proposal (AwaitingCommit), then Shutdown
        // overtakes the Commit: the final ledger must reflect the
        // committed exchange, not the pre-exchange state, plus the
        // stream delta that waited behind the leg with the Shutdown.
        let instance = Arc::new(Instance::homogeneous(2, 1.0, 1.0, 0.0));
        let mut machine = NodeMachine::local(1, Arc::clone(&instance), NodeConfig::default());
        // Round 1 with balanced loads: no proposal on score grounds;
        // audit targets peer 0 (a Propose goes out).
        let out = drive(
            &mut machine,
            Frame::RoundStart {
                round: 1,
                loads: Arc::new(vec![0.0, 0.0]),
                excluded: vec![],
                epoch: 0,
                hot: Arc::new(vec![]),
            },
        );
        assert!(matches!(*out[0].frame, Frame::Propose { .. }));
        // Peer 0's own proposal collides; node 1 (higher id) keeps its
        // initiator role and ignores it... so instead simulate the
        // acceptor path directly: peer 0 answers Busy, then proposes.
        let out = drive(&mut machine, Frame::Busy { from: 0, round: 1 });
        assert!(matches!(
            *out[0].frame,
            Frame::Report {
                outcome: RoundOutcome::Lost,
                ..
            }
        ));
        let out = drive(&mut machine, Frame::Propose { from: 0, round: 1 });
        assert!(matches!(*out[0].frame, Frame::Accept { .. }));
        // Shutdown races ahead of the commit: nothing may go out yet.
        let out = drive(&mut machine, Frame::Shutdown);
        assert!(out.is_empty(), "shutdown must wait for the commit");
        assert!(!machine.is_done());
        assert!(
            machine.deposit(1, 2.0),
            "a deposit under the open leg waits"
        );
        // The commit lands: the machine installs the new ledger, files
        // no second report (already reported Lost), applies the delta
        // and completes the deferred shutdown with the *committed*
        // ledger plus the delta.
        let committed = vec![(0u32, 7.5f64)];
        let out = drive(
            &mut machine,
            Frame::Commit {
                from: 0,
                round: 1,
                ledger: committed.clone(),
            },
        );
        assert!(machine.is_done());
        assert_eq!(out.len(), 1);
        match &*out[0].frame {
            Frame::FinalLedger { from, ledger } => {
                assert_eq!(*from, 1);
                assert_eq!(*ledger, [committed[0], (1, 2.0)]);
            }
            other => panic!("expected FinalLedger, got {other:?}"),
        }
    }

    #[test]
    fn node_defers_round_start_past_inflight_commit() {
        let instance = Arc::new(Instance::homogeneous(3, 1.0, 1.0, 0.0));
        let mut machine = NodeMachine::local(2, Arc::clone(&instance), NodeConfig::default());
        drive(
            &mut machine,
            Frame::RoundStart {
                round: 1,
                loads: Arc::new(vec![0.0, 0.0, 0.0]),
                excluded: vec![],
                epoch: 0,
                hot: Arc::new(vec![]),
            },
        );
        // The audit rotation targets peer 1 in round 1; its Busy frees
        // the initiator role, then peer 0's proposal is accepted.
        drive(&mut machine, Frame::Busy { from: 1, round: 1 });
        let out = drive(&mut machine, Frame::Propose { from: 0, round: 1 });
        assert!(matches!(*out[0].frame, Frame::Accept { .. }));
        // Round 2 starts while the commit is still in flight.
        let out = drive(
            &mut machine,
            Frame::RoundStart {
                round: 2,
                loads: Arc::new(vec![1.0, 1.0, 1.0]),
                excluded: vec![],
                epoch: 0,
                hot: Arc::new(vec![]),
            },
        );
        assert!(out.is_empty(), "round start must wait for the commit");
        // The commit lands; the machine then joins round 2 and acts in
        // it (balanced loads → audit probe goes out).
        let out = drive(
            &mut machine,
            Frame::Commit {
                from: 0,
                round: 1,
                ledger: vec![(2, 1.0)],
            },
        );
        let rounds: Vec<u64> = out
            .iter()
            .filter_map(|o| match &*o.frame {
                Frame::Propose { round, .. } | Frame::Report { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert!(
            rounds.contains(&2),
            "machine must join round 2 after the commit: {out:?}"
        );
    }

    /// `(load, local cost)` bits of the one `Report` in `out`.
    fn reported(out: &[Outbound]) -> (u64, u64) {
        let mut reports = out.iter().filter_map(|o| match &*o.frame {
            Frame::Report {
                load, local_cost, ..
            } => Some((load.to_bits(), local_cost.to_bits())),
            _ => None,
        });
        let report = reports.next().expect("a report went out");
        assert!(reports.next().is_none(), "one report per call");
        report
    }

    /// Starts `round` on a balanced view, so the audit rotation picks
    /// the partner; returns whom the machine proposed to.
    fn start_balanced_round(machine: &mut NodeMachine, round: u64) -> u32 {
        let start = Frame::RoundStart {
            round,
            loads: Arc::new(vec![0.0; 3]),
            excluded: vec![],
            epoch: 0,
            hot: Arc::new(vec![]),
        };
        match (drive(machine, start).as_slice(), proposed(machine)) {
            ([only], Some(peer)) if matches!(*only.frame, Frame::Propose { .. }) => peer,
            (out, _) => panic!("expected one Propose, got {out:?}"),
        }
    }

    /// Every `Report` must carry what a fresh fold over the ledger *at
    /// that moment* returns, whichever of the five write sites changed
    /// it since the last one (debug builds assert the same inside
    /// `Books`; this holds in release too).
    #[test]
    fn reports_follow_the_ledger_through_every_write() {
        let loads = vec![10.0, 0.0, 0.0];
        let latency = LatencyMatrix::homogeneous(3, 1.0);
        let instance = Arc::new(Instance::new(vec![1.0; 3], loads, latency));
        let fresh = |ledger: &SparseVec| {
            let cost = local_cost(0, &instance, ledger);
            (ledger.sum().to_bits(), cost.to_bits())
        };
        let two_phase = NodeConfig {
            two_phase: true,
            ..NodeConfig::default()
        };
        let mut machine = NodeMachine::local(0, Arc::clone(&instance), two_phase);

        // Round 1 files a report about the boot ledger (`local`'s write).
        let peer = start_balanced_round(&mut machine, 1);
        let out = drive(
            &mut machine,
            Frame::Busy {
                from: peer,
                round: 1,
            },
        );
        assert_eq!(reported(&out), fresh(machine.ledger()));

        // Round 2, two-phase initiator. Stream deltas under the open
        // exchange wait behind it; the CommitAck installs our half
        // (`on_commit_ack`) and reports it *before* they land.
        let peer = start_balanced_round(&mut machine, 2);
        assert!(machine.deposit(0, 2.0));
        machine.withdraw(0, 1.0);
        let accept = Frame::Accept {
            from: peer,
            round: 2,
            ledger: vec![],
        };
        drive(&mut machine, accept);
        assert!(machine.deposit(2, 0.5));
        let Leg::Committed(pending) = &machine.leg else {
            panic!("our half is held back, got {:?}", machine.leg);
        };
        let half = pending.ledger.clone();
        assert_ne!(fresh(&half), fresh(machine.ledger()), "load moved");
        let out = drive(
            &mut machine,
            Frame::CommitAck {
                from: peer,
                round: 2,
            },
        );
        assert_eq!(reported(&out), fresh(&half));
        assert_ne!(fresh(machine.ledger()), fresh(&half), "the deltas landed");

        // Round 3 reports the deltas (`apply_stream_delta`), then takes
        // a Commit as acceptor (`on_commit`) without reporting again…
        let peer = start_balanced_round(&mut machine, 3);
        let out = drive(
            &mut machine,
            Frame::Busy {
                from: peer,
                round: 3,
            },
        );
        assert_eq!(reported(&out), fresh(machine.ledger()));
        drive(&mut machine, Frame::Propose { from: 2, round: 3 });
        let commit = Frame::Commit {
            from: 2,
            round: 3,
            ledger: vec![(0, 4.0), (2, 1.5)],
        };
        assert!(matches!(
            *drive(&mut machine, commit)[0].frame,
            Frame::CommitAck { .. }
        ));

        // …so round 4's is the first about the committed ledger: an
        // Ack timeout rolls the exchange back having applied nothing,
        // and the `Aborted` report precedes the delta buffered behind it.
        let peer = start_balanced_round(&mut machine, 4);
        let accept = Frame::Accept {
            from: peer,
            round: 4,
            ledger: vec![(peer, 20.0)],
        };
        drive(&mut machine, accept);
        assert!(machine.deposit(1, 3.0));
        let before = machine.ledger().clone();
        assert_eq!(
            fresh(&before),
            fresh(&wire_to_ledger(&[(0, 4.0), (2, 1.5)]))
        );
        let mut sent = Vec::new();
        machine.on_rto_in(4, RtoKind::Ack, None, &mut sent);
        let shared = |s: &Sent| Arc::new(s.payload.frame().into_owned());
        let out: Vec<_> = sent
            .iter()
            .map(|s| Outbound {
                to: s.to,
                frame: shared(s),
            })
            .collect();
        assert_eq!(reported(&out), fresh(&before));
        assert_eq!(machine.ledger().get(1), 3.0);

        // Round 5, collision: the lower id yields, and the Commit it
        // then takes is reported (`Accepted`) in the same call.
        let peer = start_balanced_round(&mut machine, 5);
        let propose = Frame::Propose {
            from: peer,
            round: 5,
        };
        assert!(matches!(
            *drive(&mut machine, propose)[0].frame,
            Frame::Accept { .. }
        ));
        let commit = Frame::Commit {
            from: peer,
            round: 5,
            ledger: vec![(1, 0.25)],
        };
        let out = drive(&mut machine, commit);
        assert_eq!(reported(&out), fresh(&wire_to_ledger(&[(1, 0.25)])));

        // Single-phase `on_accept` installs and reports in one call.
        let mut machine = NodeMachine::local(0, Arc::clone(&instance), NodeConfig::default());
        let peer = start_balanced_round(&mut machine, 1);
        let out = drive(
            &mut machine,
            Frame::Busy {
                from: peer,
                round: 1,
            },
        );
        let boot = reported(&out);
        let peer = start_balanced_round(&mut machine, 2);
        let accept = Frame::Accept {
            from: peer,
            round: 2,
            ledger: vec![],
        };
        let out = drive(&mut machine, accept);
        assert_eq!(reported(&out), fresh(machine.ledger()));
        assert_ne!(reported(&out), boot, "load moved");
    }

    /// Stream deltas and proposals a round ahead wait in one box, which
    /// goes once both are served: the deltas in arrival order when the
    /// exchange resolves, the proposals in arrival order at the round
    /// start, one for a later round back in line.
    #[test]
    fn the_backlog_replays_in_arrival_order_then_goes() {
        let instance = Arc::new(Instance::homogeneous(3, 1.0, 1.0, 10.0));
        let mut machine = NodeMachine::local(0, instance, NodeConfig::default());
        let peer = start_balanced_round(&mut machine, 1);
        assert_eq!(peer, 2);
        // Under the open exchange: a withdrawal that clamps, then a
        // deposit (the other order would leave nothing).
        machine.withdraw(1, 5.0);
        assert!(machine.deposit(1, 2.0));
        for (from, round) in [(2, 3), (1, 2), (2, 2)] {
            assert!(drive(&mut machine, Frame::Propose { from, round }).is_empty());
        }
        drive(&mut machine, Frame::Busy { from: 2, round: 1 });
        assert_eq!(machine.ledger().get(1), 2.0);
        assert!(machine.backlog.is_some(), "the proposals still wait");

        let start = |round| Frame::RoundStart {
            round,
            loads: Arc::new(vec![0.0; 3]),
            excluded: vec![],
            epoch: 0,
            hot: Arc::new(vec![]),
        };
        let sent = |out: Vec<Outbound>| -> Vec<(u8, Dest)> {
            let tag = |frame: &Frame| match frame {
                Frame::Propose { .. } => 2,
                Frame::Accept { .. } => 3,
                Frame::Busy { .. } => 4,
                Frame::Report { .. } => 6,
                other => panic!("unexpected {other:?}"),
            };
            out.iter().map(|o| (tag(&o.frame), o.to)).collect()
        };
        // Round 2 proposes to 1, yields to 1's proposal, turns 2 down;
        // 2's round-3 proposal waits on.
        let out = sent(drive(&mut machine, start(2)));
        let expect = [(2, Dest::Node(1)), (3, Dest::Node(1)), (4, Dest::Node(2))];
        assert_eq!(out, expect);
        assert!(
            drive(&mut machine, start(3)).is_empty(),
            "behind the commit"
        );
        let commit = Frame::Commit {
            from: 1,
            round: 2,
            ledger: vec![(0, 10.0)],
        };
        let out = sent(drive(&mut machine, commit));
        let expect = [
            (6, Dest::Coordinator),
            (2, Dest::Node(2)),
            (3, Dest::Node(2)),
        ];
        assert_eq!(out, expect);
        assert!(machine.backlog.is_none(), "nothing waits");
    }

    /// The public `handle` and the executor's `handle_in` send the same
    /// frames, the signals compared as their frames, through every leg
    /// of two two-phase rounds: propose, nack, commit and ack as
    /// initiator; lost, accept and ack as acceptor; then the final
    /// ledger, which `handle_in` sends without entries and `handle`
    /// fills with the ledger the other machine holds.
    #[test]
    fn handle_and_the_executor_path_emit_the_same_frames() {
        let instance = Arc::new(Instance::homogeneous(3, 1.0, 1.0, 10.0));
        let config = NodeConfig {
            two_phase: true,
            ..NodeConfig::default()
        };
        let mut public = NodeMachine::local(0, Arc::clone(&instance), config);
        let mut inner = NodeMachine::local(0, instance, config);
        let mut step = |frame: Frame| -> Vec<(Dest, Frame)> {
            let shared = |o: Outbound| (o.to, Frame::clone(&o.frame));
            let mut out = Vec::new();
            public.handle(&frame, &mut out);
            let mut sent: Vec<Sent> = Vec::new();
            inner.handle_in(&frame, None, &mut sent);
            let via_handle: Vec<_> = out.into_iter().map(shared).collect();
            let as_frame = |s: Sent| match s.payload.frame().into_owned() {
                Frame::FinalLedger { from, ledger } => {
                    assert!(ledger.is_empty(), "the executor's reply has no entries");
                    let ledger = ledger_to_wire(inner.ledger());
                    (s.to, Frame::FinalLedger { from, ledger })
                }
                frame => (s.to, frame),
            };
            let via_sent: Vec<_> = sent.into_iter().map(as_frame).collect();
            assert_eq!(via_handle, via_sent, "on {frame:?}");
            via_handle
        };
        let start = |round| Frame::RoundStart {
            round,
            loads: Arc::new(vec![10.0; 3]),
            excluded: vec![],
            epoch: 0,
            hot: Arc::new(vec![]),
        };
        let proposal = |out: &[(Dest, Frame)], round| match out {
            [(Dest::Node(peer), Frame::Propose { from: 0, round: r })] if *r == round => *peer,
            other => panic!("expected one Propose, got {other:?}"),
        };
        let is_report = |out: &[(Dest, Frame)], outcome| matches!(out, [(Dest::Coordinator, Frame::Report { outcome: o, .. })] if *o == outcome);

        let peer = proposal(&step(start(1)), 1);
        let other = 3 - peer;
        let nack = step(Frame::Propose {
            from: other,
            round: 1,
        });
        let busy = Frame::Busy { from: 0, round: 1 };
        assert_eq!(nack, [(Dest::Node(other), busy)]);
        let ledger = vec![(peer, 30.0)];
        let out = step(Frame::Accept {
            from: peer,
            round: 1,
            ledger,
        });
        assert!(matches!(out.as_slice(), [(Dest::Node(p), Frame::Commit { .. })] if *p == peer));
        let ack = Frame::CommitAck {
            from: peer,
            round: 1,
        };
        assert!(is_report(&step(ack), RoundOutcome::Exchanged));

        let peer = proposal(&step(start(2)), 2);
        let other = 3 - peer;
        let busy = Frame::Busy {
            from: peer,
            round: 2,
        };
        assert!(is_report(&step(busy), RoundOutcome::Lost));
        let out = step(Frame::Propose {
            from: other,
            round: 2,
        });
        assert!(matches!(out.as_slice(), [(Dest::Node(p), Frame::Accept { .. })] if *p == other));
        let commit = Frame::Commit {
            from: other,
            round: 2,
            ledger: vec![(0, 5.0)],
        };
        let ack = Frame::CommitAck { from: 0, round: 2 };
        assert_eq!(step(commit), [(Dest::Node(other), ack)]);
        let last = step(Frame::Shutdown);
        let ledger = vec![(0, 5.0)];
        assert_eq!(
            last,
            [(Dest::Coordinator, Frame::FinalLedger { from: 0, ledger })]
        );
    }

    /// A field added to the machine shows up here, not in `peak_rss_mb`:
    /// the table holds one per node (12.8 MB at m = 100 000).
    #[test]
    fn node_machine_fits_128_bytes() {
        assert!(
            std::mem::size_of::<NodeMachine>() <= 128,
            "NodeMachine grew to {} bytes",
            std::mem::size_of::<NodeMachine>()
        );
    }

    /// A stream holds the coordinator open and a quiet round parks it
    /// without moving the round number: that round's report deadline,
    /// still queued, must not end it a second time. The next round's
    /// deadline still ends the next round.
    #[test]
    fn a_parked_coordinator_ignores_the_finished_rounds_deadline() {
        let instance = Arc::new(Instance::homogeneous(3, 1.0, 1.0, 5.0));
        let options = ClusterOptions {
            detect: DetectMode::Timeout(30.0),
            ..ClusterOptions::default()
        };
        let script = FaultScript::empty(instance.len());
        let mut coordinator = CoordinatorMachine::new(instance, &options, &script);
        coordinator.set_hold(true);
        coordinator.start();
        let report = |from, round| Frame::Report {
            from,
            round,
            outcome: RoundOutcome::NoProposal,
            load: 5.0,
            local_cost: 12.5,
            exchange: None,
        };
        for from in 0..3 {
            let next = coordinator.handle(&report(from, 1), 10.0);
            assert!(next.is_none(), "a quiet round under a hold parks");
        }
        let state =
            |c: &CoordinatorMachine| (c.history.len() - 1, c.history.len(), c.suspects.len());
        let parked = state(&coordinator);
        assert_eq!(parked, (1, 2, 0), "every report in, nothing moved");

        let late = coordinator.on_deadline(1, 30.0);
        assert!(late.is_none(), "the parked round's deadline sent {late:?}");
        assert_eq!(state(&coordinator), parked, "the parked round ended twice");

        assert!(coordinator.kick(35.0).is_some());
        assert_eq!(coordinator.round_number(), 2);
        coordinator.handle(&report(0, 2), 40.0);
        coordinator.on_deadline(2, 60.0);
        assert_eq!(
            state(&coordinator),
            (2, 3, 2),
            "nodes 1 and 2 stayed silent"
        );
    }

    /// The coordinator keeps no clock: a round resumed by `kick` is
    /// timed from the kick, so the adaptive detector's latency samples
    /// never count a park. Every report arrives 5 ms after its round
    /// began, so the next deadline is `μ + 4σ + 1 = 6` ms out.
    #[test]
    fn a_kicked_round_is_timed_from_its_kick() {
        let instance = Arc::new(Instance::homogeneous(2, 1.0, 1.0, 5.0));
        let options = ClusterOptions {
            detect: DetectMode::Adaptive,
            ..ClusterOptions::default()
        };
        let script = FaultScript::empty(instance.len());
        let mut coordinator = CoordinatorMachine::new(instance, &options, &script);
        coordinator.set_hold(true);
        coordinator.start();
        for (round, began) in [(1, 0.0), (2, 1000.0), (3, 2000.0)] {
            coordinator.kick(began);
            assert_eq!(coordinator.round_number(), round);
            for from in 0..2 {
                let report = Frame::Report {
                    from,
                    round,
                    outcome: RoundOutcome::NoProposal,
                    load: 5.0,
                    local_cost: 12.5,
                    exchange: None,
                };
                coordinator.handle(&report, began + 5.0);
            }
        }
        coordinator.kick(3000.0);
        assert_eq!(coordinator.arm_deadline(3000.0), Some(3006.0));
    }

    #[test]
    fn coordinator_runs_a_trivial_single_node_cluster() {
        let instance = Arc::new(Instance::homogeneous(1, 1.0, 0.0, 50.0));
        let script = FaultScript::empty(1);
        let options = ClusterOptions::default();
        let mut coordinator = CoordinatorMachine::new(instance.clone(), &options, &script);
        let mut node = NodeMachine::local(0, instance, NodeConfig::default());
        let mut broadcasts = vec![coordinator.start()];
        // Shuttle frames between the two machines until done.
        let mut guard = 0;
        while !coordinator.is_done() {
            guard += 1;
            assert!(guard < 100, "did not terminate");
            let mut out = Vec::new();
            for frame in broadcasts.drain(..) {
                node.handle(&frame, &mut out);
            }
            for o in out {
                assert_eq!(o.to, Dest::Coordinator, "a lone node only reports");
                broadcasts.extend(coordinator.handle(&o.frame, 0.0));
            }
        }
        let report = coordinator.into_report(vec![node.into_ledger()]);
        assert_eq!(report.exchanges, 0);
        assert!(report.quiescent);
        assert_eq!(report.assignment.load(0), 50.0);
    }
}
