//! The distributed-algorithm iteration engine.
//!
//! One *iteration* follows §VI-B: every server, in a fresh random order,
//! executes Algorithm 2 (the MinE step). The engine records the full
//! `ΣC` history, which the experiment harnesses use to reproduce
//! Tables I/II and Figure 2, and supports:
//!
//! * exact or pruned partner selection (see [`crate::mine`]),
//! * two round execution models ([`RoundMode`]):
//!   [`RoundMode::Sequential`] visits servers one at a time exactly as
//!   §VI-B prescribes, while [`RoundMode::Batched`] executes the same
//!   iteration as three data-parallel phases — *propose* (every server
//!   picks its Algorithm-2 partner against the round-start snapshot,
//!   outer-parallel over servers), *match* (greedy conflict-free
//!   pairing in the shuffled priority order), *apply* (the matched,
//!   ledger-disjoint exchanges execute concurrently) — see
//!   [`crate::round`]. Both modes pair each server at most once per
//!   iteration by the same rule and install an exchange the same way
//!   (the sequential sweep drops the rule when `pair_once` is off),
//! * periodic negative-cycle removal (paper Appendix; the ablation
//!   bench reproduces the paper's finding that it does not change the
//!   iteration counts),
//! * stale load views: via [`Engine::attach_gossip_feed`], per-server
//!   views served by the delta-gossip control plane
//!   ([`crate::feed::GossipFeed`]), with bytes-on-the-wire metered per
//!   run.
//!
//! `ΣC` is maintained *incrementally*: every applied exchange reports
//! its exact pair-cost reduction, and the engine pushes the last
//! history entry plus that delta instead of re-walking all `m` ledgers
//! each iteration (an `O(m·nnz)` scan that dominated small-iteration
//! runs). A fresh [`total_cost`] replaces the sum every
//! [`COST_RESYNC_EVERY`] iterations, after cycle removal and after
//! [`Engine::update_loads`]; debug builds check each iteration in
//! between against a full recompute to 1e-6 relative.

use dlb_core::cost::total_cost;
use dlb_core::rngutil::rng_for;
use dlb_core::{Assignment, Instance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::cycles::remove_negative_cycles;
use crate::feed::GossipFeed;
use crate::mine::{choose_partner, PartnerScratch, PartnerSelection};
use crate::round::{
    apply_matches, match_proposals, propose, Pairing, RoundMode, RoundOutcome, ScoreView,
};
use dlb_gossip::GossipTraffic;

/// Iterations between full `ΣC` recomputes that squash the drift the
/// accumulated exchange deltas build up. Exchanges are individually
/// exact to ~1e-15 relative, so even hour-long runs stay far inside
/// the debug check's 1e-6 between resyncs.
pub const COST_RESYNC_EVERY: usize = 64;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// Partner-selection policy. The default switches to pruned mode
    /// above [`EngineOptions::exact_threshold`] servers.
    pub selection: Option<PartnerSelection>,
    /// Network size above which the default policy uses pruning.
    pub exact_threshold: usize,
    /// Candidates evaluated exactly in pruned mode.
    pub pruned_top_k: usize,
    /// Absolute improvement below which an exchange is skipped,
    /// relative to the initial cost (scaled internally).
    pub min_improvement_rel: f64,
    /// RNG seed for the iteration order, which is shuffled every
    /// iteration (the paper's setting).
    pub seed: u64,
    /// Cut the batched round's propose phase into one run of servers per
    /// worker for `dlb_par::par_map_shards`, the one spawn site (`false`:
    /// a single inline run). [`RoundMode::Sequential`] ignores it and
    /// runs on the caller's thread.
    pub parallel: bool,
    /// Remove negative relay cycles every `n` iterations (Appendix);
    /// `None` disables removal (the paper's default — experiments showed
    /// the cycles are rare and harmless).
    pub cycle_removal_every: Option<usize>,
    /// Transfer quantum: per-owner exchanges move multiples of this
    /// amount (`0.0` = continuous). The paper's load is made of unit
    /// requests, so the Table I/II measurement protocol uses `1.0`;
    /// the fractional relaxation (`0.0`) is what the solvers optimize.
    pub granularity: f64,
    /// Restrict every server to at most one exchange per iteration (as
    /// initiator *or* partner). This is the paper's iteration
    /// semantics: a pairwise exchange occupies both endpoints for the
    /// round, so a peak load spreads by doubling — `≈log₂ m` iterations
    /// in Tables I/II. Setting it to `false` lets later servers in the
    /// same round pair with already-busy servers (an eager variant that
    /// converges in fewer, more expensive rounds; kept for the
    /// ablation bench).
    pub pair_once: bool,
    /// Round execution model: the sequential §VI-B sweep, or the
    /// batched propose/match/apply round (see [`crate::round`]).
    /// Batched mode implies `pair_once` semantics — the match phase is
    /// one-exchange-per-server by construction.
    pub round_mode: RoundMode,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            selection: None,
            exact_threshold: 400,
            pruned_top_k: 8,
            min_improvement_rel: 1e-12,
            seed: 0,
            parallel: true,
            cycle_removal_every: None,
            granularity: 0.0,
            pair_once: true,
            round_mode: RoundMode::Sequential,
        }
    }
}

/// Statistics of one engine iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration index (1-based).
    pub iteration: usize,
    /// `ΣC` after the iteration.
    pub cost: f64,
    /// Total request volume moved during the iteration.
    pub moved: f64,
    /// Number of servers that performed an exchange.
    pub exchanges: usize,
}

/// Report of [`Engine::run_to_convergence`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Final `ΣC`.
    pub final_cost: f64,
    /// Whether the stall criterion was met within the budget.
    pub converged: bool,
}

/// The distributed load-balancing engine.
#[derive(Debug, Clone)]
pub struct Engine {
    instance: Instance,
    assignment: Assignment,
    options: EngineOptions,
    rng: StdRng,
    history: Vec<f64>,
    iteration: usize,
    cost_scale: f64,
    /// When attached, per-server score views come from this
    /// delta-gossip network; otherwise scoring reads live loads.
    feed: Option<GossipFeed>,
    /// Iterations since `ΣC` was last recomputed from scratch.
    since_resync: usize,
    scratch: PartnerScratch,
}

impl Engine {
    /// Creates an engine starting from the all-local assignment.
    pub fn new(instance: Instance, options: EngineOptions) -> Self {
        let assignment = Assignment::local(&instance);
        let initial_cost = total_cost(&instance, &assignment);
        let rng = rng_for(options.seed, 0xD157);
        Self {
            instance,
            assignment,
            options,
            rng,
            history: vec![initial_cost],
            iteration: 0,
            cost_scale: initial_cost.abs().max(1.0),
            feed: None,
            since_resync: 0,
            scratch: PartnerScratch::default(),
        }
    }

    /// Attaches a real gossip control plane: from the next iteration
    /// on, each server's pruned pre-scoring ranks candidates on the
    /// load vector *its own* delta-gossip node currently believes
    /// ([`GossipFeed`]) instead of the live loads. The feed is seeded
    /// from the engine's seed and the current loads; `period_ms` is the
    /// gossip exchange period on the instance's latency topology.
    ///
    /// Only candidate ranking is affected — the exact Algorithm-1
    /// evaluation always runs on live ledgers, so
    /// [`PartnerSelection::Exact`] ignores the feed entirely. Pair it
    /// with a pruned selection to make staleness observable.
    pub fn attach_gossip_feed(&mut self, period_ms: f64) {
        self.feed = Some(GossipFeed::new(
            self.assignment.loads(),
            period_ms,
            self.options.seed,
        ));
    }

    /// Wire traffic generated by the attached gossip feed, if any.
    pub fn gossip_traffic(&self) -> Option<GossipTraffic> {
        self.feed.as_ref().map(|f| f.traffic())
    }

    /// The problem instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The current assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// `ΣC` after each iteration; `history()[0]` is the initial cost.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Current `ΣC`.
    pub fn current_cost(&self) -> f64 {
        *self.history.last().expect("history is never empty")
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.iteration
    }

    fn selection(&self) -> PartnerSelection {
        match self.options.selection {
            Some(s) => s,
            None => {
                if self.instance.len() <= self.options.exact_threshold {
                    PartnerSelection::Exact
                } else {
                    PartnerSelection::Pruned {
                        top_k: self.options.pruned_top_k,
                    }
                }
            }
        }
    }

    /// Runs one iteration: every server executes Algorithm 2 in a
    /// (fresh) random order.
    pub fn run_iteration(&mut self) -> IterationStats {
        self.run_iteration_masked(None)
    }

    /// Runs one iteration with a reachability mask: servers with
    /// `active[j] == false` neither initiate nor receive exchanges this
    /// round (transient failures / network partitions). Pairwise
    /// exchanges keep the reachable subsystem making progress — the
    /// paper's §IV robustness argument, exercised by the failure tests.
    pub fn run_iteration_masked(&mut self, active: Option<&[bool]>) -> IterationStats {
        let m = self.instance.len();
        if let Some(mask) = active {
            assert_eq!(mask.len(), m, "mask must cover every server");
        }
        let mut order: Vec<usize> = match active {
            Some(mask) => (0..m).filter(|&i| mask[i]).collect(),
            None => (0..m).collect(),
        };
        order.shuffle(&mut self.rng);
        if let Some(feed) = self.feed.as_mut() {
            // Real gossip: publish current loads and let the protocol
            // run its ⌈log2 m⌉ periods before this iteration scores.
            feed.step(self.instance.latency(), self.assignment.loads());
        }
        let selection = self.selection();
        let min_improvement = self.options.min_improvement_rel * self.cost_scale;
        let granularity = self.options.granularity;
        let round = match self.options.round_mode {
            RoundMode::Sequential => {
                self.sequential_round(&order, active, selection, min_improvement)
            }
            RoundMode::Batched => {
                let score = match self.feed.as_ref() {
                    Some(feed) => ScoreView::PerServer(feed.views()),
                    None => ScoreView::Live,
                };
                let proposals = propose(
                    &self.instance,
                    &self.assignment,
                    &order,
                    selection,
                    min_improvement,
                    self.options.parallel,
                    active,
                    granularity,
                    score,
                );
                let accepted = match_proposals(m, &order, &proposals, active);
                let a = &mut self.assignment;
                apply_matches(&self.instance, a, &order, proposals, &accepted, granularity)
            }
        };
        self.iteration += 1;
        // Cycle removal rewrites ledgers wholesale; its cost change is
        // not delta-tracked, so force a resync whenever it runs.
        let removal = self
            .options
            .cycle_removal_every
            .is_some_and(|every| every > 0 && self.iteration.is_multiple_of(every));
        if removal {
            let _ = remove_negative_cycles(&self.instance, &mut self.assignment);
        }
        self.assignment.refresh_loads();
        self.since_resync += 1;
        let cost = if removal || self.since_resync >= COST_RESYNC_EVERY {
            self.since_resync = 0;
            total_cost(&self.instance, &self.assignment)
        } else {
            let cost = self.current_cost() + round.cost_delta;
            // Debug builds check the accumulated sum against a fresh
            // recompute; release builds skip the walk.
            if cfg!(debug_assertions) {
                let exact = total_cost(&self.instance, &self.assignment);
                assert!(
                    !exact.is_finite() || (cost - exact).abs() <= 1e-6 * exact.abs().max(1.0),
                    "incremental ΣC drifted: accumulated {cost} vs exact {exact}"
                );
            }
            cost
        };
        self.history.push(cost);
        IterationStats {
            iteration: self.iteration,
            cost,
            moved: round.moved,
            exchanges: round.exchanges,
        }
    }

    /// The §VI-B sweep: servers act one at a time in `order`, each
    /// seeing the loads its predecessors left behind. Under `pair_once`
    /// an exchange occupies both endpoints for the round ([`Pairing`],
    /// the batched match phase's rule); without it, later servers may
    /// pair with already-busy ones.
    fn sequential_round(
        &mut self,
        order: &[usize],
        active: Option<&[bool]>,
        selection: PartnerSelection,
        min_improvement: f64,
    ) -> RoundOutcome {
        let mut round = RoundOutcome::default();
        let mut pairing = self
            .options
            .pair_once
            .then(|| Pairing::new(self.instance.len(), active));
        for &id in order {
            if pairing.as_ref().is_some_and(|p| !p.is_free(id)) {
                continue;
            }
            // Pruned pre-scoring ranks candidates by this server's
            // gossip view when a feed is attached; exact evaluation
            // stays live.
            let score_loads = self.feed.as_ref().map(|feed| feed.view(id));
            let choice = choose_partner(
                &self.instance,
                &self.assignment,
                id,
                selection,
                min_improvement,
                active,
                self.options.granularity,
                score_loads,
                &mut self.scratch,
            );
            // Algorithm 1 already ran on the very ledgers the exchange
            // applies to: install its outcome, do not recompute it.
            if let Some((j, outcome)) = choice {
                if pairing.as_mut().is_none_or(|p| p.take(id, j)) {
                    round.install(&mut self.assignment, id, j, outcome);
                }
            }
        }
        round
    }

    /// Runs until the relative per-iteration improvement stays below
    /// `stall_tol` for `patience` consecutive iterations (or the budget
    /// runs out). This is how the experiments approximate the optimum.
    pub fn run_to_convergence(
        &mut self,
        stall_tol: f64,
        patience: usize,
        max_iters: usize,
    ) -> ConvergenceReport {
        let mut calm = 0usize;
        let mut iters = 0usize;
        while iters < max_iters {
            let before = self.current_cost();
            let stats = self.run_iteration();
            iters += 1;
            let rel_drop = if before > 0.0 {
                (before - stats.cost) / before
            } else {
                0.0
            };
            if rel_drop <= stall_tol {
                calm += 1;
                if calm >= patience {
                    return ConvergenceReport {
                        iterations: iters,
                        final_cost: stats.cost,
                        converged: true,
                    };
                }
            } else {
                calm = 0;
            }
        }
        ConvergenceReport {
            iterations: iters,
            final_cost: self.current_cost(),
            converged: false,
        }
    }

    /// Replaces the instance's loads and resets the engine for a new
    /// balancing epoch while keeping the current assignment as the
    /// starting point — the "dynamically changing loads" scenario from
    /// the paper's introduction. New load is injected locally at each
    /// owner (`n_i^{new} − n_i^{old}` added to / removed from server
    /// `i`'s own ledger; removals are clamped at what the owner still
    /// runs locally, with the remainder pulled back from remote
    /// servers).
    pub fn update_loads(&mut self, new_loads: Vec<f64>) {
        let m = self.instance.len();
        assert_eq!(new_loads.len(), m);
        for k in 0..m {
            let old = self.instance.own_load(k);
            let new = new_loads[k];
            let mut delta = new - old;
            if delta > 0.0 {
                // New requests appear at their owner.
                let cur = self.assignment.ledger(k).get(k as u32);
                let mut ledger = self.assignment.take_ledger(k);
                ledger.set(k as u32, cur + delta);
                self.assignment.replace_ledger(k, ledger);
            } else if delta < 0.0 {
                // Requests complete: drain locally first, then remotely.
                let local = self.assignment.requests(k, k);
                let take_local = local.min(-delta);
                if take_local > 0.0 {
                    let mut ledger = self.assignment.take_ledger(k);
                    ledger.add(k as u32, -take_local);
                    self.assignment.replace_ledger(k, ledger);
                    delta += take_local;
                }
                if delta < -1e-12 {
                    for j in 0..m {
                        if j == k {
                            continue;
                        }
                        let there = self.assignment.requests(k, j);
                        let take = there.min(-delta);
                        if take > 0.0 {
                            let mut ledger = self.assignment.take_ledger(j);
                            ledger.add(k as u32, -take);
                            self.assignment.replace_ledger(j, ledger);
                            delta += take;
                            if delta >= -1e-12 {
                                break;
                            }
                        }
                    }
                }
            }
        }
        self.instance.set_own_loads(new_loads);
        self.assignment.refresh_loads();
        let cost = total_cost(&self.instance, &self.assignment);
        self.since_resync = 0;
        self.history.push(cost);
        self.cost_scale = cost.abs().max(1.0);
    }
}

/// First index of the `ΣC` `history` within `rel_err` of `optimum`
/// (`None` when never reached) — the Tables I/II measurement. Index 0
/// means the initial assignment already qualifies.
pub fn iterations_to_reach(history: &[f64], optimum: f64, rel_err: f64) -> Option<usize> {
    let target = optimum * (1.0 + rel_err);
    history.iter().position(|&c| c <= target + 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::rngutil::rng_for;
    use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
    use dlb_core::LatencyMatrix;
    use dlb_solver::solve_bcd;
    use rand::Rng;

    fn spec(avg: f64, loads: LoadDistribution) -> WorkloadSpec {
        WorkloadSpec {
            loads,
            avg_load: avg,
            speeds: SpeedDistribution::paper_uniform(),
        }
    }

    fn seq_opts(seed: u64) -> EngineOptions {
        EngineOptions {
            seed,
            parallel: false,
            ..Default::default()
        }
    }

    #[test]
    fn cost_decreases_monotonically() {
        let mut rng = rng_for(5, 0);
        let instance = spec(50.0, LoadDistribution::Exponential)
            .sample(LatencyMatrix::homogeneous(20, 20.0), &mut rng);
        let mut engine = Engine::new(instance, seq_opts(1));
        for _ in 0..6 {
            engine.run_iteration();
        }
        let h = engine.history();
        for w in h.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-6 * w[0].max(1.0),
                "history not monotone: {h:?}"
            );
        }
        engine
            .assignment()
            .check_invariants(engine.instance())
            .unwrap();
    }

    #[test]
    fn converges_to_solver_optimum() {
        for seed in 0..3 {
            let mut rng = rng_for(seed, 1);
            let instance = spec(30.0, LoadDistribution::Uniform)
                .sample(LatencyMatrix::homogeneous(10, 20.0), &mut rng);
            let mut engine = Engine::new(instance.clone(), seq_opts(seed));
            let report = engine.run_to_convergence(1e-10, 2, 100);
            assert!(report.converged, "seed {seed} did not converge");
            let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
            assert!(
                report.final_cost <= bcd.objective * (1.0 + 5e-3),
                "seed {seed}: engine {} vs solver {}",
                report.final_cost,
                bcd.objective
            );
        }
    }

    #[test]
    fn peak_load_spreads_out() {
        let mut instance = Instance::homogeneous(12, 1.0, 2.0, 0.0);
        let mut loads = vec![0.0; 12];
        loads[0] = 1200.0;
        instance.set_own_loads(loads);
        let mut engine = Engine::new(instance, seq_opts(3));
        engine.run_to_convergence(1e-10, 2, 60);
        // Every server should end up with a meaningful share.
        for j in 0..12 {
            assert!(
                engine.assignment().load(j) > 50.0,
                "server {j} got {}",
                engine.assignment().load(j)
            );
        }
    }

    #[test]
    fn convergence_within_a_dozen_iterations_table_scale() {
        // Matches the paper's headline: ≤ ~11 iterations to 0.1 %.
        let mut rng = rng_for(11, 2);
        let instance = spec(50.0, LoadDistribution::Exponential)
            .sample(LatencyMatrix::homogeneous(50, 20.0), &mut rng);
        let mut engine = Engine::new(instance, seq_opts(7));
        let report = engine.run_to_convergence(1e-12, 2, 100);
        let opt = report.final_cost;
        let iters = iterations_to_reach(engine.history(), opt, 0.001)
            .expect("must reach 0.1% of its own fixpoint");
        assert!(iters <= 15, "took {iters} iterations");
    }

    #[test]
    fn pruned_mode_converges_too() {
        let mut rng = rng_for(21, 3);
        let instance = spec(100.0, LoadDistribution::Peak)
            .sample(LatencyMatrix::homogeneous(40, 20.0), &mut rng);
        let exact = {
            let mut e = Engine::new(instance.clone(), seq_opts(1));
            e.run_to_convergence(1e-10, 2, 80).final_cost
        };
        let pruned = {
            let mut opts = seq_opts(1);
            opts.selection = Some(PartnerSelection::Pruned { top_k: 6 });
            let mut e = Engine::new(instance, opts);
            e.run_to_convergence(1e-10, 2, 80).final_cost
        };
        assert!(
            pruned <= exact * 1.02,
            "pruned {pruned} much worse than exact {exact}"
        );
    }

    #[test]
    fn cycle_removal_does_not_change_fixpoint_quality() {
        let mut rng = rng_for(31, 4);
        let instance = spec(40.0, LoadDistribution::Exponential)
            .sample(LatencyMatrix::homogeneous(15, 20.0), &mut rng);
        let plain = {
            let mut e = Engine::new(instance.clone(), seq_opts(2));
            e.run_to_convergence(1e-10, 2, 60).final_cost
        };
        let with_removal = {
            let mut opts = seq_opts(2);
            opts.cycle_removal_every = Some(2);
            let mut e = Engine::new(instance, opts);
            e.run_to_convergence(1e-10, 2, 60).final_cost
        };
        assert!(
            (plain - with_removal).abs() <= 1e-3 * plain.max(1.0),
            "plain {plain} vs removal {with_removal}"
        );
    }

    #[test]
    fn gossip_fed_scoring_still_converges() {
        // The stale views come from the delta-gossip control plane:
        // each server ranks candidates on what its own gossip node
        // believes, and the fixpoint stays within 5 % of the optimum.
        let mut rng = rng_for(41, 5);
        let instance = spec(60.0, LoadDistribution::Uniform)
            .sample(LatencyMatrix::homogeneous(30, 20.0), &mut rng);
        let mut opts = seq_opts(3);
        opts.selection = Some(PartnerSelection::Pruned { top_k: 6 });
        let mut engine = Engine::new(instance.clone(), opts);
        engine.attach_gossip_feed(100.0);
        let report = engine.run_to_convergence(1e-10, 2, 120);
        let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
        assert!(
            report.final_cost <= bcd.objective * 1.05,
            "gossip-fed {} vs opt {}",
            report.final_cost,
            bcd.objective
        );
        let traffic = engine.gossip_traffic().expect("feed attached");
        assert!(traffic.frames > 0 && traffic.bytes > 0, "{traffic:?}");
    }

    #[test]
    fn gossip_fed_runs_are_deterministic_and_cloneable() {
        let mut rng = rng_for(43, 5);
        let instance = spec(50.0, LoadDistribution::Exponential)
            .sample(LatencyMatrix::homogeneous(24, 16.0), &mut rng);
        let mut opts = seq_opts(8);
        opts.selection = Some(PartnerSelection::Pruned { top_k: 5 });
        let run = |instance: Instance| {
            let mut e = Engine::new(instance, opts);
            e.attach_gossip_feed(50.0);
            e.run_iteration();
            // Engine: Clone must capture the feed mid-flight.
            let mut forked = e.clone();
            let a = e.run_to_convergence(1e-10, 2, 60);
            let b = forked.run_to_convergence(1e-10, 2, 60);
            assert_eq!(a, b, "clone diverged from original");
            (a, e.gossip_traffic())
        };
        assert_eq!(run(instance.clone()), run(instance));
    }

    #[test]
    fn update_loads_preserves_invariants_and_rebalances() {
        let mut rng = rng_for(51, 6);
        let instance = spec(50.0, LoadDistribution::Uniform)
            .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        let mut engine = Engine::new(instance, seq_opts(4));
        engine.run_to_convergence(1e-10, 2, 50);
        // Shift demand: double some orgs, empty others.
        let mut new_loads: Vec<f64> = Vec::new();
        for k in 0..12 {
            let old = engine.instance().own_load(k);
            new_loads.push(if k % 2 == 0 { old * 2.0 } else { 0.0 });
        }
        engine.update_loads(new_loads.clone());
        engine
            .assignment()
            .check_invariants(engine.instance())
            .unwrap();
        let cost_after_shift = engine.current_cost();
        let report = engine.run_to_convergence(1e-10, 2, 50);
        assert!(report.final_cost <= cost_after_shift + 1e-9);
    }

    #[test]
    fn pair_once_peak_spreads_by_doubling() {
        // Peak workload on a homogeneous network: with the paper's
        // one-exchange-per-server rounds, the number of loaded servers
        // can at most double per iteration, so reaching a balanced
        // state takes ≈log₂(m) iterations (Tables I/II, "peak" rows).
        let m = 64;
        let mut instance = Instance::homogeneous(m, 1.0, 0.0, 20.0);
        let mut loads = vec![0.0; m];
        loads[0] = 100_000.0;
        instance.set_own_loads(loads);
        let mut engine = Engine::new(instance, seq_opts(9));
        let report = engine.run_to_convergence(1e-12, 2, 60);
        let opt = report.final_cost;
        let iters = iterations_to_reach(engine.history(), opt, 0.001).unwrap();
        // log2(64) = 6; allow the stall tail but demand the doubling
        // shape: strictly more than 3, no more than ~2·log2(m).
        assert!(
            (4..=13).contains(&iters),
            "peak spread took {iters} iterations, expected ≈log2(64)=6"
        );
    }

    #[test]
    fn eager_mode_converges_faster_than_pair_once() {
        let m = 32;
        let mut instance = Instance::homogeneous(m, 1.0, 0.0, 20.0);
        let mut loads = vec![0.0; m];
        loads[0] = 50_000.0;
        instance.set_own_loads(loads.clone());
        let paired = {
            let mut e = Engine::new(instance.clone(), seq_opts(2));
            let r = e.run_to_convergence(1e-12, 2, 60);
            iterations_to_reach(e.history(), r.final_cost, 0.001).unwrap()
        };
        let eager = {
            let mut opts = seq_opts(2);
            opts.pair_once = false;
            let mut e = Engine::new(instance, opts);
            let r = e.run_to_convergence(1e-12, 2, 60);
            iterations_to_reach(e.history(), r.final_cost, 0.001).unwrap()
        };
        assert!(
            eager <= paired,
            "eager {eager} should need no more iterations than paired {paired}"
        );
        assert!(
            eager <= 3,
            "eager mode should flatten a peak almost at once"
        );
    }

    #[test]
    fn pair_once_exchanges_bounded_by_half_m() {
        let mut rng = rng_for(77, 9);
        let instance = spec(50.0, LoadDistribution::Exponential)
            .sample(LatencyMatrix::homogeneous(21, 20.0), &mut rng);
        let mut engine = Engine::new(instance, seq_opts(5));
        let stats = engine.run_iteration();
        assert!(
            stats.exchanges <= 21 / 2,
            "{} exchanges exceed ⌊m/2⌋ pairings",
            stats.exchanges
        );
    }

    #[test]
    fn a_peak_pairs_once_in_the_first_iteration_of_either_mode() {
        // Every server's best partner is the one loaded server, which
        // the first exchange occupies: one exchange in the first
        // iteration under either mode's pair-once rule, and the eager
        // sweep lets nearly every server take its turn with the peak.
        let m = 16;
        let mut instance = Instance::homogeneous(m, 1.0, 20.0, 0.0);
        let mut loads = vec![0.0; m];
        loads[0] = 10_000.0;
        instance.set_own_loads(loads);
        for seed in 1..=3 {
            let first = |round_mode, pair_once| {
                let opts = EngineOptions {
                    round_mode,
                    pair_once,
                    ..seq_opts(seed)
                };
                Engine::new(instance.clone(), opts)
                    .run_iteration()
                    .exchanges
            };
            assert_eq!(first(RoundMode::Sequential, true), 1, "seed {seed}");
            assert_eq!(first(RoundMode::Batched, true), 1, "seed {seed}");
            let eager = first(RoundMode::Sequential, false);
            assert!(eager > m / 2, "seed {seed}: eager sweep made {eager}");
        }
    }

    #[test]
    fn masked_iterations_pair_each_active_server_at_most_once() {
        for seed in 0..4 {
            let mut rng = rng_for(seed, 11);
            let m = 24;
            let mut lat = LatencyMatrix::zero(m);
            for i in 0..m {
                for j in 0..m {
                    if i != j {
                        lat.set(i, j, rng.gen_range(1.0..40.0));
                    }
                }
            }
            lat.metric_close();
            let instance = spec(60.0, LoadDistribution::Exponential).sample(lat, &mut rng);
            for round_mode in [RoundMode::Sequential, RoundMode::Batched] {
                let opts = EngineOptions {
                    round_mode,
                    ..seq_opts(seed)
                };
                let mut engine = Engine::new(instance.clone(), opts);
                for _ in 0..6 {
                    let active: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.7)).collect();
                    let n_active = active.iter().filter(|&&up| up).count();
                    let stats = engine.run_iteration_masked(Some(&active));
                    assert!(
                        stats.exchanges <= n_active / 2,
                        "seed {seed} {round_mode:?}: {} exchanges among {n_active} active",
                        stats.exchanges
                    );
                }
            }
        }
    }

    #[test]
    fn unit_granularity_stalls_at_discrete_fixpoint() {
        // With whole-request transfers the engine must terminate
        // quickly once no single request is worth moving, and its
        // fixpoint must price within a hair of the continuous one
        // (the discrete gap per pair is O(1) requests).
        let mut rng = rng_for(91, 10);
        let m = 30;
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, rng.gen_range(5.0..80.0));
                }
            }
        }
        lat.metric_close();
        let mut instance = spec(200.0, LoadDistribution::Exponential).sample(lat, &mut rng);
        // Integer initial loads: the discrete model's precondition.
        let rounded: Vec<f64> = instance.own_loads().iter().map(|l| l.round()).collect();
        instance.set_own_loads(rounded);
        let continuous = {
            let mut e = Engine::new(instance.clone(), seq_opts(4));
            e.run_to_convergence(1e-12, 3, 200).final_cost
        };
        let mut opts = seq_opts(4);
        opts.granularity = 1.0;
        let mut e = Engine::new(instance.clone(), opts);
        // 1e-6 relative stall: the discrete engine keeps finding
        // single-request improvements worth ~1e-8 of ΣC for a long
        // while; they are irrelevant at any precision the evaluation
        // measures.
        // The evaluation protocol's oracle: stall at 1e-6 relative
        // within a 60-iteration budget (§VI-A approximates the optimum
        // with the algorithm itself). The measured metric is the first
        // iteration within 0.1 % of that oracle; the residual tail of
        // one-request shuffles collectively worth < 0.1 % can grind on
        // far longer and is irrelevant to every reported number.
        let report = e.run_to_convergence(1e-6, 3, 60);
        let to_01pct = iterations_to_reach(e.history(), report.final_cost, 0.001)
            .expect("fixpoint is in its own history");
        // Heavily loaded (l_av = 200) dense random metric: the slowest
        // regime we measure (see EXPERIMENTS.md on the high-load WAN
        // tail); still a bounded multiple of the paper's counts.
        assert!(
            to_01pct <= 30,
            "discrete engine took {to_01pct} iterations to 0.1%"
        );
        assert!(
            report.final_cost <= continuous * 1.005,
            "discrete {} vs continuous {}",
            report.final_cost,
            continuous
        );
        // Integrality: integer initial loads stay integer.
        for j in 0..30 {
            for (_, r) in e.assignment().ledger(j).iter() {
                assert!((r - r.round()).abs() < 1e-9, "fractional ledger {r}");
            }
        }
    }

    #[test]
    fn iterations_to_reach_semantics() {
        let mut rng = rng_for(61, 7);
        let instance = spec(20.0, LoadDistribution::Exponential)
            .sample(LatencyMatrix::homogeneous(15, 20.0), &mut rng);
        let mut engine = Engine::new(instance, seq_opts(5));
        let report = engine.run_to_convergence(1e-12, 2, 80);
        let hits_exact = iterations_to_reach(engine.history(), report.final_cost, 0.0);
        assert!(hits_exact.is_some());
        let hits_loose = iterations_to_reach(engine.history(), report.final_cost, 0.02).unwrap();
        assert!(hits_loose <= hits_exact.unwrap());
    }

    #[test]
    fn heterogeneous_latency_network() {
        let mut rng = rng_for(71, 8);
        let m = 16;
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, rng.gen_range(1.0..60.0));
                }
            }
        }
        lat.metric_close();
        let instance = spec(50.0, LoadDistribution::Exponential).sample(lat, &mut rng);
        let mut engine = Engine::new(instance.clone(), seq_opts(6));
        let report = engine.run_to_convergence(1e-10, 2, 100);
        let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
        assert!(
            report.final_cost <= bcd.objective * (1.0 + 1e-2),
            "engine {} vs solver {}",
            report.final_cost,
            bcd.objective
        );
    }
}
