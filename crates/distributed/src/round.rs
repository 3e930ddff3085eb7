//! Batched propose/match/apply rounds, and the pairing rule and install
//! step both engine rounds share.
//!
//! The paper's §VI-B iteration visits servers one at a time, each
//! server's Algorithm-2 partner scan on the caller's thread. This
//! module turns the whole iteration into three data-parallel phases,
//! the model used by the distributed selfish load-balancing literature
//! (concurrent pairwise rebalancing rounds, cf. Berenbrink et al.) and
//! by gradient-descent-style balancers that update every server against
//! a shared load snapshot (Balseiro et al.):
//!
//! 1. **Propose** — every active server computes its Algorithm-2
//!    partner choice against the *round-start* assignment. The round
//!    order is cut into one contiguous run per worker, and each run
//!    goes to [`dlb_par::par_map_shards`], the workspace's one spawn
//!    site, with its own partner scratch. This is the engines' one
//!    level of fan-out: each server's scan runs whole on the worker that
//!    drew its run, so the machine is never oversubscribed.
//! 2. **Match** — proposals are resolved into a conflict-free set of
//!    pairwise exchanges by greedy matching in the round's shuffled
//!    priority order: the first proposer (in order) whose partner is
//!    still free wins the pair; both endpoints then leave the round.
//!    A greedy maximal matching *is* a 1-round colouring of the
//!    proposal graph.
//! 3. **Apply** — the matched exchanges are installed directly from
//!    the propose phase's [`TransferOutcome`]s. No recomputation is
//!    needed: proposals were evaluated against the round-start ledgers,
//!    and matched pairs own disjoint ledgers, so the outcome computed
//!    at propose time is exactly the outcome the apply phase would
//!    recompute (debug builds assert this). A pairwise exchange only
//!    reads and writes the two ledgers of its own pair (see
//!    [`dlb_core::cost::server_cost`]), which is what makes both the
//!    concurrent propose evaluation and the reuse sound.
//!
//! The match phase's pair-once rule is `Pairing` and its install step
//! `RoundOutcome::install`; the sequential sweep under `pair_once` uses
//! the same two, so the engine writes each once.
//!
//! Every phase is deterministic given the round order, so batched
//! fixpoints are thread-count invariant — covered by
//! `tests/parallel_determinism.rs`.
//!
//! Batched rounds stay because they are not uniformly worse (ROADMAP
//! F8): at m = 2000 on `net=euclid` they reach 1.0289 / 1.0276 M after
//! 12 / 30 iterations in 2.2 s, where sequential pruned reaches 1.0574 /
//! 1.0533 M in 4.0 s. The benchmark's gated `engine_gossip_pl_m500`
//! workload runs batched too.

use dlb_core::{Assignment, Instance};

use crate::mine::{choose_partner, PartnerScratch, PartnerSelection};
use crate::transfer::{calc_best_transfer, TransferOutcome};

/// How the engine executes one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundMode {
    /// §VI-B as written: servers act one at a time in the round order,
    /// each seeing the loads left behind by its predecessors.
    #[default]
    Sequential,
    /// Propose/match/apply: every server proposes against the
    /// round-start snapshot, proposals are matched conflict-free, and
    /// the matched exchanges execute concurrently. Implies the
    /// `pair_once` semantics (the matching is one-exchange-per-server
    /// by construction).
    Batched,
}

/// The exchanges and bookkeeping of one engine round, either mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundOutcome {
    /// Total request volume moved.
    pub moved: f64,
    /// Number of pairwise exchanges executed.
    pub exchanges: usize,
    /// Exact change of `ΣC` (≤ 0 up to rounding): the negated sum of
    /// the applied exchanges' improvements, which the engine adds to
    /// the last `ΣC` of its history.
    pub cost_delta: f64,
}

impl RoundOutcome {
    /// Tallies the exchange `out` of the pair `(i, j)`, then writes its
    /// two ledgers into `a`.
    pub(crate) fn install(&mut self, a: &mut Assignment, i: usize, j: usize, out: TransferOutcome) {
        self.moved += out.moved;
        self.cost_delta -= out.improvement;
        self.exchanges += 1;
        a.replace_ledger(i, out.ledger_i);
        a.replace_ledger(j, out.ledger_j);
    }
}

/// The pair-once rule: an exchange occupies both endpoints for the rest
/// of the round, and a server outside the reachability mask is never
/// free. A server whose chosen partner is taken waits for the next round
/// rather than settle for a worse free one (which would churn requests
/// near the fixpoint).
pub(crate) struct Pairing {
    free: Vec<bool>,
}

impl Pairing {
    /// Every server free, or exactly the servers `active` marks.
    pub(crate) fn new(m: usize, active: Option<&[bool]>) -> Self {
        let free = active.map_or_else(|| vec![true; m], <[bool]>::to_vec);
        Self { free }
    }

    /// Whether server `i` may still exchange this round.
    pub(crate) fn is_free(&self, i: usize) -> bool {
        self.free[i]
    }

    /// Occupies both `i` and `j` if both are free, else neither.
    pub(crate) fn take(&mut self, i: usize, j: usize) -> bool {
        let paired = self.free[i] && self.free[j];
        if paired {
            self.free[i] = false;
            self.free[j] = false;
        }
        paired
    }
}

/// Where the pruned pre-scoring gets its load vector from. Exact
/// Algorithm-1 evaluation always runs on the live ledgers; this only
/// governs candidate *ranking* (see `mine::partner_score`).
#[derive(Debug, Clone, Copy)]
pub enum ScoreView<'a> {
    /// Live round-start loads (perfect information).
    Live,
    /// One view per server — gossip: each server ranks on whatever its
    /// own gossip view currently believes.
    PerServer(&'a [Vec<f64>]),
}

impl ScoreView<'_> {
    /// The score-load override server `id` should rank with (`None` =
    /// live loads).
    pub fn for_server(&self, id: usize) -> Option<&[f64]> {
        match self {
            ScoreView::Live => None,
            ScoreView::PerServer(views) => Some(views[id].as_slice()),
        }
    }
}

/// One server's resolved Algorithm-2 choice: the partner it wants to
/// exchange with and the full [`TransferOutcome`] of that exchange,
/// computed against the round-start ledgers. Carrying the outcome lets
/// the apply phase install matched exchanges without re-running
/// Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// The chosen partner.
    pub partner: usize,
    /// The exchange Algorithm 1 would perform on the pair.
    pub outcome: TransferOutcome,
}

/// Phase 1: every server in `order` computes its Algorithm-2 partner
/// choice against the current (round-start) assignment. Returns one
/// `Option<Proposal>` per `order` entry, in order. `order` is cut into
/// contiguous runs for [`dlb_par::par_map_shards`]: one per worker
/// ([`dlb_par::run_len`]) when `parallel` is set, a single inline run
/// otherwise. Each run owns one [`PartnerScratch`], and each choice
/// runs whole on one thread either way, so the result is the same.
/// `score` is where each server's pruned pre-scoring reads loads from:
/// a per-server gossip view or the live round-start loads.
#[allow(clippy::too_many_arguments)]
pub fn propose(
    instance: &Instance,
    a: &Assignment,
    order: &[usize],
    selection: PartnerSelection,
    min_improvement: f64,
    parallel: bool,
    active: Option<&[bool]>,
    granularity: f64,
    score: ScoreView<'_>,
) -> Vec<Option<Proposal>> {
    let run = if parallel {
        dlb_par::run_len(order.len())
    } else {
        order.len().max(1)
    };
    let runs = order.chunks(run).collect();
    dlb_par::par_map_shards(runs, |_, ids| {
        let mut scratch = PartnerScratch::default();
        ids.iter()
            .map(|&id| {
                choose_partner(
                    instance,
                    a,
                    id,
                    selection,
                    min_improvement,
                    active,
                    granularity,
                    score.for_server(id),
                    &mut scratch,
                )
                .map(|(partner, outcome)| Proposal { partner, outcome })
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Phase 2: greedy conflict-free matching in priority order.
///
/// `order[p]` proposed `proposals[p]`; walking proposals in priority
/// order, a proposal is accepted when `Pairing` can take both
/// endpoints — the sequential sweep's `pair_once` rule. Returns the
/// accepted proposals' positions in `order`.
pub fn match_proposals(
    m: usize,
    order: &[usize],
    proposals: &[Option<Proposal>],
    active: Option<&[bool]>,
) -> Vec<usize> {
    debug_assert_eq!(order.len(), proposals.len());
    let mut pairing = Pairing::new(m, active);
    (0..order.len())
        .filter(|&p| {
            proposals[p]
                .as_ref()
                .is_some_and(|q| pairing.take(order[p], q.partner))
        })
        .collect()
}

/// Phase 3: install the accepted exchanges.
///
/// Each accepted proposal already carries the [`TransferOutcome`] its
/// propose-phase evaluation computed from the round-start ledgers;
/// matched pairs are disjoint, so that is exactly the state the
/// exchange applies to and the outcome is *reused* instead of being
/// recomputed (debug builds re-run Algorithm 1 and assert the reused
/// outcome matches). Each exchange's `improvement` is the exact `ΣC`
/// reduction of its pair, so their negated sum is the round's exact
/// cost delta.
pub fn apply_matches(
    instance: &Instance,
    a: &mut Assignment,
    order: &[usize],
    mut proposals: Vec<Option<Proposal>>,
    accepted: &[usize],
    granularity: f64,
) -> RoundOutcome {
    let mut round = RoundOutcome::default();
    for &p in accepted {
        let proposal = proposals[p]
            .take()
            .expect("accepted positions index real proposals");
        let (i, j) = (order[p], proposal.partner);
        debug_assert_eq!(
            calc_best_transfer(instance, a.ledger(i), a.ledger(j), i, j, granularity),
            proposal.outcome,
            "propose-phase outcome for pair ({i}, {j}) does not match a fresh round-start \
             recomputation"
        );
        round.install(a, i, j, proposal.outcome);
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::cost::total_cost;
    use dlb_core::rngutil::rng_for;
    use dlb_core::LatencyMatrix;
    use rand::Rng;

    fn random_instance(m: usize, seed: u64) -> Instance {
        let mut rng = rng_for(seed, 0x20BD);
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, rng.gen_range(0.5..15.0));
                }
            }
        }
        lat.metric_close();
        Instance::new(
            (0..m).map(|_| rng.gen_range(1.0..4.0)).collect(),
            (0..m).map(|_| rng.gen_range(0.0..80.0)).collect(),
            lat,
        )
    }

    /// One batched round as the engine runs it: propose, match, apply.
    fn batched_round(
        instance: &Instance,
        a: &mut Assignment,
        order: &[usize],
        selection: PartnerSelection,
        parallel: bool,
    ) -> RoundOutcome {
        let score = ScoreView::Live;
        let proposals = propose(
            instance, a, order, selection, 1e-9, parallel, None, 0.0, score,
        );
        let accepted = match_proposals(instance.len(), order, &proposals, None);
        apply_matches(instance, a, order, proposals, &accepted, 0.0)
    }

    #[test]
    fn pairing_takes_both_endpoints_or_neither() {
        let mut active = vec![true; 5];
        active[4] = false;
        let mut pairing = Pairing::new(5, Some(&active));
        assert!(!pairing.is_free(4), "a masked server is never free");
        assert!(!pairing.take(0, 4), "a masked partner cannot be taken");
        assert!(pairing.is_free(0), "a failed take leaves both endpoints");
        assert!(pairing.take(0, 1));
        assert!(!pairing.is_free(0) && !pairing.is_free(1));
        assert!(
            !pairing.take(0, 2) && !pairing.take(3, 1),
            "each endpoint pairs once"
        );
        assert!(pairing.is_free(2) && pairing.is_free(3));
        assert!(pairing.take(2, 3));
        assert!(
            Pairing::new(3, None).take(0, 2),
            "no mask: every server is free"
        );
    }

    /// A placeholder proposal for matching-only tests (the match phase
    /// never reads the outcome).
    fn prop(partner: usize) -> Option<Proposal> {
        Some(Proposal {
            partner,
            outcome: TransferOutcome {
                ledger_i: dlb_core::SparseVec::new(),
                ledger_j: dlb_core::SparseVec::new(),
                improvement: 1.0,
                moved: 0.0,
            },
        })
    }

    #[test]
    fn matching_is_conflict_free_and_priority_ordered() {
        // Server 0 and 2 both propose to 1; only the first in priority
        // order may win, and 3's self-contained proposal survives.
        let order = vec![0, 2, 3];
        let proposals = vec![prop(1), prop(1), prop(4)];
        let accepted = match_proposals(5, &order, &proposals, None);
        assert_eq!(accepted, vec![0, 2], "positions of (0→1) and (3→4)");
    }

    #[test]
    fn matching_respects_reachability_mask() {
        let order = vec![0, 2];
        let proposals = vec![prop(1), prop(3)];
        let mut active = vec![true; 4];
        active[3] = false;
        let accepted = match_proposals(4, &order, &proposals, Some(&active));
        assert_eq!(accepted, vec![0], "partner 3 is unreachable");
    }

    #[test]
    fn batched_round_reduces_cost_by_its_reported_delta() {
        let instance = random_instance(24, 3);
        let mut a = Assignment::local(&instance);
        let order: Vec<usize> = (0..24).collect();
        let before = total_cost(&instance, &a);
        let outcome = batched_round(&instance, &mut a, &order, PartnerSelection::Exact, false);
        let after = total_cost(&instance, &a);
        assert!(outcome.exchanges > 0, "imbalanced instance must exchange");
        assert!(outcome.cost_delta < 0.0);
        assert!(
            (after - before - outcome.cost_delta).abs() < 1e-6 * before.max(1.0),
            "reported delta {} vs actual {}",
            outcome.cost_delta,
            after - before
        );
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn batched_round_parallel_matches_sequential_bitwise() {
        let instance = random_instance(64, 4);
        let order: Vec<usize> = (0..64).rev().collect();
        let mut a_seq = Assignment::local(&instance);
        let mut a_par = Assignment::local(&instance);
        let selection = PartnerSelection::Pruned { top_k: 6 };
        let seq = batched_round(&instance, &mut a_seq, &order, selection, false);
        let par = batched_round(&instance, &mut a_par, &order, selection, true);
        assert_eq!(seq, par);
        assert_eq!(a_seq, a_par, "batched round must be execution-invariant");
    }

    #[test]
    fn propose_cuts_into_runs_without_changing_a_proposal() {
        // Around the sequential cutoff and across several workers' runs;
        // the empty order must not cut runs of length zero.
        let instance = random_instance(257, 5);
        let a = Assignment::local(&instance);
        let shuffled: Vec<usize> = (0..257).map(|i| (i * 101) % 257).collect();
        for len in [0, 1, 31, 32, 33, 257] {
            let order = &shuffled[..len];
            let [one_run, per_worker] = [false, true].map(|parallel| {
                propose(
                    &instance,
                    &a,
                    order,
                    PartnerSelection::Pruned { top_k: 6 },
                    1e-9,
                    parallel,
                    None,
                    0.0,
                    ScoreView::Live,
                )
            });
            assert_eq!(one_run.len(), len);
            assert_eq!(one_run, per_worker, "order of {len} servers");
        }
    }

    #[test]
    fn per_server_score_views_route_to_each_proposer() {
        // Every server's proposal must be the one it makes when ranking
        // on its own view alone — the plumbing may not mix views up.
        let instance = random_instance(40, 9);
        let a = Assignment::local(&instance);
        let order: Vec<usize> = (0..40).collect();
        let views: Vec<Vec<f64>> = (0..40)
            .map(|i| a.loads().iter().map(|l| l * 1.5 + i as f64).collect())
            .collect();
        let selection = PartnerSelection::Pruned { top_k: 4 };
        let proposals = propose(
            &instance,
            &a,
            &order,
            selection,
            1e-9,
            false,
            None,
            0.0,
            ScoreView::PerServer(&views),
        );
        let mut scratch = PartnerScratch::default();
        for (&id, proposal) in order.iter().zip(&proposals) {
            let alone = choose_partner(
                &instance,
                &a,
                id,
                selection,
                1e-9,
                None,
                0.0,
                Some(&views[id]),
                &mut scratch,
            );
            let alone = alone.map(|(partner, outcome)| Proposal { partner, outcome });
            assert_eq!(*proposal, alone, "server {id}");
        }
        assert_eq!(ScoreView::Live.for_server(7), None);
        assert_eq!(
            ScoreView::PerServer(&views).for_server(7),
            Some(views[7].as_slice())
        );
    }

    #[test]
    fn each_server_exchanges_at_most_once() {
        let instance = random_instance(30, 7);
        let mut a = Assignment::local(&instance);
        let order: Vec<usize> = (0..30).collect();
        let proposals = propose(
            &instance,
            &a,
            &order,
            PartnerSelection::Exact,
            1e-9,
            false,
            None,
            0.0,
            ScoreView::Live,
        );
        let accepted = match_proposals(30, &order, &proposals, None);
        let mut seen = [false; 30];
        for &p in &accepted {
            let i = order[p];
            let j = proposals[p].as_ref().unwrap().partner;
            assert!(!seen[i] && !seen[j], "server matched twice");
            seen[i] = true;
            seen[j] = true;
        }
        let n_accepted = accepted.len();
        let outcome = apply_matches(&instance, &mut a, &order, proposals, &accepted, 0.0);
        assert_eq!(outcome.exchanges, n_accepted);
        assert!(outcome.exchanges <= 15, "⌊m/2⌋ pairings at most");
    }
}
