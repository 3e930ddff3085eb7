//! Algorithm 2: the Min-Error (MinE) step.
//!
//! Server `id` evaluates `impr(id, j)` — the exact `ΣC` reduction of
//! running Algorithm 1 with partner `j` — and exchanges with the best
//! partner. Evaluating all `m−1` partners exactly costs
//! `O(m · nnz log nnz)` per server, which is what the paper's Algorithm 2
//! prescribes; for very large networks (Figure 2 runs up to 5000
//! servers) this module also provides a *pruned* mode that pre-scores
//! partners with a closed-form bound and evaluates only the top `K`
//! candidates exactly. At table scale (`m ≤ 300`) the two modes pick
//! identical partners in virtually every step (property-tested).
//!
//! # The closed-form score, twice
//!
//! Per-pair scoring exists in exactly two places. [`partner_score`] is
//! the scalar *reference*: one pair, written the way the formula reads.
//! [`partner_scores`] is the *batch kernel* every scan runs — the
//! pruned pre-ranking here, and the message-passing runtime's
//! `select=exact` / `select=topk:K` round-start scans. The kernel
//! performs the reference's floating-point operations on the same
//! operands in the same order, so the two agree **bit for bit**
//! (unit- and property-tested, in release builds too), and every
//! frozen event hash and record downstream is the same whichever one
//! ran. What the kernel changes is only what IEEE arithmetic lets it
//! change for free: work that does not depend on `j` is hoisted,
//! commutative twins are computed once, the latency representation is
//! resolved once per call, and the reference's early returns become
//! selects so the loop has no data-dependent branch and vectorises.
//! It also divides out only the one transfer `Δ` that can be positive,
//! leaving three divisions per pair of the reference's ten; where a NaN
//! voids that argument, the reference scores the call instead.
//!
//! # A bound on the score, per block of peers
//!
//! The runtime's `select=exact` scan (`dlb_runtime`'s `score_best`)
//! sorts the round's live peers by `r = l/s`, cuts that order into
//! blocks of [`SCORE_BLOCK`], and scores only the blocks whose bound can
//! beat the best score so far. The bound follows from the score's
//! shape. Moving `x` from `f` to `t` at latency `c` gains
//!
//! ```text
//! q(x) = x (r_f − r_t − c) − x² (1/2s_f + 1/2s_t),
//! ```
//!
//! a concave quadratic, whose maximum over `x` is
//! `(r_f − r_t − c)₊² · s_f s_t / (2(s_f + s_t))`. The score is `q` at one
//! `x` — the optimal `Δ*` capped at `l_f`, or `0` where nothing moves —
//! so it is at most that maximum. For node `i` and a block `B` of peers
//! `j`, `r_i − r_j ≤ r_i − min_B r` (push, `i` sends) and
//! `r_j − r_i ≤ max_B r − r_i` (pull, `i` receives), every latency is at
//! least `c_lo` (the homogeneous value, or 0 for a dense row: latencies
//! are never negative), and `g(s) = s_i s / (2(s_i + s))` rises with `s`,
//! so every score of the block is at most
//!
//! ```text
//! max((r_i − c_lo − min_B r)₊, (max_B r − r_i − c_lo)₊)² · g(max_B s).
//! ```
//!
//! Along the load order the push term only falls and the pull term only
//! rises. So the scan walks inwards from both ends and stops a side at
//! its first block whose *side bound* — that side's term alone, with the
//! round's largest speed for `max_B s` — cannot beat the best: it bounds
//! every block between the two ends. The order and the summaries depend
//! only on the round's loads, speeds and exclusions, so one pass per
//! round serves every node. That the *float* bounds stay at or above
//! every *float* score is `score_best`'s margin argument; it leans on the
//! batch kernel computing `r_j` as `l_j / s_j` and the slope as
//! `(r_f − r_t) − c`, the groupings [`partner_score`] fixes.

use std::ops::Range;

use dlb_core::{Assignment, Instance};

use crate::transfer::{calc_best_transfer, TransferOutcome};

/// Closed-form partner score: the gain of moving one optimal
/// *homogeneous blob* between the servers, using the pair latency
/// `c_ij` as the representative transfer cost:
///
/// ```text
/// Δ* = (s_j l_i − s_i l_j − s_i s_j c) / (s_i + s_j)   (per direction)
/// gain = Δ*² (s_i + s_j) / (2 s_i s_j)
/// ```
///
/// This is exact when all requests on the loaded server belong to its
/// own organization (true for the peak workload) and an upper-envelope
/// heuristic otherwise. Used only to *rank* candidates.
///
/// This is the scalar reference of [`partner_scores`], which must
/// return the same bits. Floating-point addition and multiplication
/// are commutative but not associative, and a division is not a
/// multiplication by the reciprocal, so the batch form may swap the
/// operands of one `+` or `*` (`s_f + s_t`, `s_f · s_t`,
/// `1/2s_f + 1/2s_t` are the same value in both directions) but must
/// keep every grouping written here: `(s_t l_f − s_f l_t) − (s_f s_t) c`,
/// then `/ (s_f + s_t)`; `(l_f/s_f − l_t/s_t) − c`; `(Δ·Δ) · inv`;
/// `Δ·(…) − (Δ·Δ)·inv` as a multiply and a subtract, never fused. The
/// two early returns test `c` and the *uncapped* `Δ`, and a NaN `Δ`
/// passes the `<= 0` test — a select must do the same.
pub fn partner_score(instance: &Instance, loads: &[f64], i: usize, j: usize) -> f64 {
    if i == j {
        return 0.0;
    }
    let si = instance.speed(i);
    let sj = instance.speed(j);
    let li = loads[i];
    let lj = loads[j];
    let gain = |from: usize, to: usize, lf: f64, lt: f64, sf: f64, st: f64| -> f64 {
        let c = instance.c(from, to);
        if !c.is_finite() {
            return 0.0;
        }
        let delta = ((st * lf - sf * lt) - sf * st * c) / (sf + st);
        if delta <= 0.0 {
            return 0.0;
        }
        let delta = delta.min(lf);
        // Exact quadratic gain of moving `delta` at latency `c`:
        // f(0)−f(Δ) = Δ(l_f/s_f − Δ(1/2s_f+1/2s_t) − l_t/s_t − c) + ...
        let inv = 1.0 / (2.0 * sf) + 1.0 / (2.0 * st);
        delta * (lf / sf - lt / st - c) - delta * delta * inv
    };
    gain(i, j, li, lj, si, sj).max(gain(j, i, lj, li, sj, si))
}

/// The partners one [`partner_scores`] call ranks.
#[derive(Debug, Clone)]
pub enum Candidates<'a> {
    /// The contiguous ids `start..end`: speeds, loads and the latency
    /// row are read in place as slices (the engine's pre-rank).
    Range(Range<usize>),
    /// An arbitrary id list (every block the runtime's round-start scans
    /// score: a load-order block, or one gathered from an id stream): one
    /// indexed read per lane, the same branch-free arithmetic.
    List(&'a [u32]),
}

impl Candidates<'_> {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        match self {
            Self::Range(range) => range.len(),
            Self::List(ids) => ids.len(),
        }
    }

    /// Returns `true` when there is nothing to score.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lane count of the stack block [`partner_scores`] gathers a latency
/// column into, and the block size its callers scan by when they keep
/// the scores on the stack too: the runtime's round-start scan, which
/// bounds the scores of each block of this many peers in load order and
/// skips the blocks that cannot win (see the module doc).
pub const SCORE_BLOCK: usize = 32;

/// Batch form of [`partner_score`]: `out[k]` receives the bits of
/// `partner_score(instance, loads, i, j_k)` for the `k`-th candidate
/// `j_k` (so `0.0` where `j_k == i`). Allocates nothing.
///
/// Of the reference's ten divisions per pair, `l_i/s_i` and `1/2s_i`
/// are hoisted, `l_j/s_j` and `1/2s_j` are shared by the directions,
/// and one `Δ` is divided out, which leaves three. The numerators
/// `n_ij = (s_j l_i − s_i l_j) − s_i s_j c_ij` and
/// `n_ji = (s_i l_j − s_j l_i) − s_i s_j c_ji` are never both positive:
/// `c ≥ 0`, the brackets are exact negations (`fl(a − b) = −fl(b − a)`)
/// and rounding is monotone, so `n_ij > 0` forces `n_ji < 0`. A
/// non-positive numerator means `Δ <= 0`, where the reference returns
/// `0.0`: the kernel scores the direction `n_ij > 0` picks and puts that
/// literal on the other side of the `max`. A NaN numerator (`∞ − ∞`,
/// `∞ · 0`) or an infinite `s_i + s_j` (`−∞/∞` is a NaN `Δ`) voids the
/// argument; the call then rescores every lane with the reference. The
/// `!c.is_finite()` and `Δ <= 0` early returns are selects. See
/// [`partner_score`] for which groupings are load-bearing.
///
/// # Panics
/// Panics when `out.len() != candidates.len()` or an id is out of range.
pub fn partner_scores(
    instance: &Instance,
    loads: &[f64],
    i: usize,
    candidates: Candidates<'_>,
    out: &mut [f64],
) {
    assert_eq!(out.len(), candidates.len(), "one score slot per candidate");
    // A list that is one ascending run of ids is that range, whose
    // lanes are read in place rather than gathered one by one (the
    // runtime's id-order scan over `0..m` hands over such blocks). A
    // block of any other shape fails the length compare or the walk.
    let candidates = match candidates {
        Candidates::List(ids @ &[first, .., last])
            if (last as usize).wrapping_sub(first as usize) == ids.len() - 1
                && ids.windows(2).all(|w| w[0] + 1 == w[1]) =>
        {
            Candidates::Range(first as usize..last as usize + 1)
        }
        other => other,
    };
    let speeds = instance.speeds();
    let latency = instance.latency();
    let (si, li) = (speeds[i], loads[i]);
    // The representation is resolved here, once: row `c_i·` of a dense
    // table, or (`None`) the compact storage's constant.
    let row = latency.row(i);
    let uniform = || latency.homogeneous_value().expect("no row: homogeneous");
    let mut exact = true;
    match &candidates {
        Candidates::Range(range) => {
            // `[..n]`: the lanes are visibly as long as `out`, so the
            // loop carries no bounds check and vectorises.
            let n = out.len();
            let (sj, lj) = (&speeds[range.clone()][..n], &loads[range.clone()][..n]);
            if let Some(row) = row {
                // `c_ji` is column `i` of a row-major table — a strided
                // read per pair however it is written — so it is
                // gathered into a lane block ahead of the arithmetic.
                let mut cji = [0.0; SCORE_BLOCK];
                let cij = &row[range.clone()][..n];
                for (block, out) in out.chunks_mut(SCORE_BLOCK).enumerate() {
                    let first = block * SCORE_BLOCK;
                    for (k, c) in cji[..out.len()].iter_mut().enumerate() {
                        *c = latency.get(range.start + first + k, i);
                    }
                    let lane = |k: usize| [sj[first + k], lj[first + k], cij[first + k], cji[k]];
                    exact &= score_lanes(si, li, lane, out);
                }
            } else {
                let c = uniform();
                exact = score_lanes(si, li, |k| [sj[k], lj[k], c, c], out);
            }
            if range.contains(&i) {
                out[i - range.start] = 0.0; // the reference's `i == j` case
            }
        }
        Candidates::List(ids) => {
            if let Some(row) = row {
                let lane = |k: usize| {
                    let j = ids[k] as usize;
                    [speeds[j], loads[j], row[j], latency.get(j, i)]
                };
                exact = score_lanes(si, li, lane, out);
            } else {
                let c = uniform();
                let lane = |k: usize| [speeds[ids[k] as usize], loads[ids[k] as usize], c, c];
                exact = score_lanes(si, li, lane, out);
            }
            for (score, _) in out.iter_mut().zip(*ids).filter(|(_, &j)| j as usize == i) {
                *score = 0.0; // the reference's `i == j` case
            }
        }
    }
    if !exact {
        for (k, score) in out.iter_mut().enumerate() {
            let j = match &candidates {
                Candidates::Range(range) => range.start + k,
                Candidates::List(ids) => ids[k] as usize,
            };
            *score = partner_score(instance, loads, i, j);
        }
    }
}

/// The arithmetic loop of [`partner_scores`]: `lane(k)` is candidate
/// `k`'s `(s_j, l_j, c_ij, c_ji)`. Inlined into each caller, so a lane
/// is slice reads and constants inside a loop body with no
/// data-dependent branch. Returns `false` when a lane voided the
/// one-direction rule, and the caller must rescore with the reference.
#[inline(always)]
fn score_lanes(si: f64, li: f64, lane: impl Fn(usize) -> [f64; 4], out: &mut [f64]) -> bool {
    let li_per_si = li / si;
    let half_inv_si = 1.0 / (2.0 * si);
    let mut unordered = false;
    for (k, score) in out.iter_mut().enumerate() {
        let [sj, lj, cij, cji] = lane(k);
        let lj_per_sj = lj / sj;
        let inv = half_inv_si + 1.0 / (2.0 * sj);
        let (sum, product) = (si + sj, si * sj);
        let (push, pull) = (sj * li, si * lj);
        let (n_ij, n_ji) = ((push - pull) - product * cij, (pull - push) - product * cji);
        unordered |= n_ij.is_nan() | n_ji.is_nan() | (sum == f64::INFINITY);
        // The reference's `gain` for the one direction that can move:
        // `lf` the sender's load, `slope` = l_f/s_f − l_t/s_t.
        let forward = n_ij > 0.0;
        let (n, lf, c, slope) = if forward {
            (n_ij, li, cij, li_per_si - lj_per_sj)
        } else {
            (n_ji, lj, cji, lj_per_sj - li_per_si)
        };
        let delta = n / sum;
        let moved = delta.min(lf);
        let gain = moved * (slope - c) - moved * moved * inv;
        let stays = !c.is_finite() | (delta <= 0.0);
        let gain = if stays { 0.0 } else { gain };
        let (i_to_j, j_to_i) = if forward { (gain, 0.0) } else { (0.0, gain) };
        *score = i_to_j.max(j_to_i);
    }
    !unordered
}

/// Partner-selection policy for the MinE step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartnerSelection {
    /// Evaluate `impr` exactly against every other server (Algorithm 2
    /// as written).
    Exact,
    /// Pre-rank partners with [`partner_score`] and evaluate `impr`
    /// exactly only for the `top_k` best-ranked candidates.
    Pruned {
        /// Number of candidates to evaluate exactly.
        top_k: usize,
    },
}

/// Reusable per-caller buffers for [`choose_partner`].
///
/// One MinE step needs a candidate list, a score lane and a ranking
/// table; at Figure-2 scale the engine runs millions of steps, so the
/// engine (and each propose-phase run of servers) keeps one
/// `PartnerScratch` alive and reuses the buffers instead of allocating
/// three fresh `Vec`s per server per iteration.
#[derive(Debug, Clone, Default)]
pub struct PartnerScratch {
    candidates: Vec<usize>,
    scores: Vec<f64>,
    scored: Vec<(usize, f64)>,
}

/// The `keep` best reachable ids of `scores` (id `j` scores
/// `scores[j]`) into `kept`, by score descending (`total_cmp`), then id
/// ascending: the order of a stable descending sort of the id-ordered
/// list, so the ranking matches the sequential pass bit for bit. One
/// pass keeps `kept` sorted and at most `keep` long; ids arrive
/// ascending, so a score tying the worst kept one ranks after it and is
/// dropped. A NaN score cannot panic: at worst it wastes a slot, and
/// the exact improvement pass rejects it.
fn keep_best(
    scores: &[f64],
    keep: usize,
    reachable: impl Fn(usize) -> bool,
    kept: &mut Vec<(usize, f64)>,
) {
    kept.clear();
    for (j, &score) in scores.iter().enumerate() {
        if !reachable(j) {
            continue;
        }
        if kept.len() == keep {
            if kept[keep - 1].1.total_cmp(&score).is_ge() {
                continue;
            }
            kept.pop();
        }
        let at = kept.partition_point(|&(_, s)| s.total_cmp(&score).is_ge());
        kept.insert(at, (j, score));
    }
}

/// Computes the MinE partner choice without applying it:
/// `argmax_j impr(id, j)` over the reachable candidates
/// (`active[j] == false` marks server `j` as failed/partitioned this
/// round), exactly as Algorithm 2 prescribes, into caller-provided
/// scratch buffers. Returns `None` when no partner strictly improves
/// `ΣC`. Improvements are evaluated with the same quantized
/// Algorithm 1 (`granularity`) that the exchange will apply, so a
/// positive choice always corresponds to a real move.
///
/// `score_loads` optionally overrides the load vector used by the
/// pruned mode's closed-form *pre-scoring* (the engine passes the
/// server's gossip view here when a feed is attached). The exact
/// Algorithm-1 evaluation of the surviving candidates always runs on
/// the live ledgers, so a positive choice still corresponds to a real
/// improving exchange — staleness can only misrank candidates, exactly
/// like a real dissemination layer.
///
/// Algorithm 2's evaluation already runs Algorithm 1 against every
/// candidate, so the chosen partner's post-exchange ledgers exist the
/// moment the argmax is known; returning the full [`TransferOutcome`]
/// lets callers (the engine's sequential sweep and the batched round's
/// apply phase) install the exchange without recomputing it.
#[allow(clippy::too_many_arguments)]
pub fn choose_partner(
    instance: &Instance,
    a: &Assignment,
    id: usize,
    selection: PartnerSelection,
    min_improvement: f64,
    active: Option<&[bool]>,
    granularity: f64,
    score_loads: Option<&[f64]>,
    scratch: &mut PartnerScratch,
) -> Option<(usize, TransferOutcome)> {
    let m = instance.len();
    if m < 2 {
        return None;
    }
    let PartnerScratch {
        candidates,
        scores,
        scored,
    } = scratch;
    let reachable = |j: usize| j != id && active.is_none_or(|mask| mask[j]);
    candidates.clear();
    match selection {
        PartnerSelection::Exact => candidates.extend((0..m).filter(|&j| reachable(j))),
        PartnerSelection::Pruned { top_k } => {
            // Pre-scoring is the hot loop of the pruned large-network
            // mode: every server scores all m−1 partners, so one engine
            // iteration at Figure 2's m = 5000 performs ~25M closed-form
            // evaluations — one batch-kernel call over every id,
            // unreachable ones included (a pure function; they are
            // dropped below).
            let loads = score_loads.unwrap_or_else(|| a.loads());
            scores.resize(m, 0.0); // every slot is overwritten
            partner_scores(instance, loads, id, Candidates::Range(0..m), scores);
            keep_best(scores, top_k.max(1), reachable, scored);
            candidates.extend(scored.iter().map(|&(j, _)| j));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    // Exact Algorithm-1 evaluation of the surviving candidates — the
    // dominant cost in Exact mode (m−1 ledger merges per server). The
    // keep-first arg-max holds the best outcome as it goes, so the
    // winning exchange's ledgers are never computed twice. NaN
    // improvements are rejected up front — a NaN reaching the argmax
    // `match` would overwrite a finite best (NaN fails every
    // comparison) and silently skip a genuinely improving exchange.
    // For finite values the early threshold filter is equivalent to
    // filtering the argmax at the end.
    let mut best: Option<(usize, TransferOutcome)> = None;
    for &j in candidates.iter() {
        let out = calc_best_transfer(instance, a.ledger(id), a.ledger(j), id, j, granularity);
        if out.improvement.is_nan() || out.improvement <= min_improvement {
            continue;
        }
        match &best {
            Some((_, b)) if out.improvement <= b.improvement => {}
            _ => best = Some((j, out)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::cost::total_cost;
    use dlb_core::rngutil::rng_for;
    use dlb_core::LatencyMatrix;
    use rand::Rng;

    fn random_instance(m: usize, seed: u64) -> Instance {
        let mut rng = rng_for(seed, 13);
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, rng.gen_range(0.5..12.0));
                }
            }
        }
        Instance::new(
            (0..m).map(|_| rng.gen_range(1.0..5.0)).collect(),
            (0..m).map(|_| rng.gen_range(0.0..50.0)).collect(),
            lat,
        )
    }

    /// [`choose_partner`]'s `(partner, improvement)`, continuous
    /// (`granularity = 0`).
    #[allow(clippy::too_many_arguments)]
    fn choice(
        instance: &Instance,
        a: &Assignment,
        id: usize,
        selection: PartnerSelection,
        min_improvement: f64,
        active: Option<&[bool]>,
        score_loads: Option<&[f64]>,
        scratch: &mut PartnerScratch,
    ) -> Option<(usize, f64)> {
        choose_partner(
            instance,
            a,
            id,
            selection,
            min_improvement,
            active,
            0.0,
            score_loads,
            scratch,
        )
        .map(|(j, outcome)| (j, outcome.improvement))
    }

    /// Algorithm 2 for server `id` with the winning exchange installed
    /// in `a`: the partner and the improvement, or `None` when no
    /// partner improves `ΣC` by more than `1e-9`.
    fn step(
        instance: &Instance,
        a: &mut Assignment,
        id: usize,
        selection: PartnerSelection,
    ) -> Option<(usize, f64)> {
        let mut scratch = PartnerScratch::default();
        let (j, outcome) = choose_partner(
            instance,
            a,
            id,
            selection,
            1e-9,
            None,
            0.0,
            None,
            &mut scratch,
        )?;
        let improvement = outcome.improvement;
        a.replace_ledger(id, outcome.ledger_i);
        a.replace_ledger(j, outcome.ledger_j);
        Some((j, improvement))
    }

    /// Which latency representation a kernel case runs on.
    #[derive(Debug, Clone, Copy)]
    enum Net {
        Homogeneous,
        Dense,
        /// Dense with a fifth of the entries `INFINITY` (§II's
        /// "may not relay" pairs), asymmetrically.
        DenseWithHoles,
    }

    /// A kernel test case: non-uniform speeds, loads that are `0.0`
    /// or `-0.0` (what an empty ledger's `sum()` reports) a third of
    /// the time, asymmetric latencies.
    fn kernel_case(m: usize, net: Net, seed: u64) -> (Instance, Vec<f64>) {
        let mut rng = rng_for(seed, 29);
        let latency = match net {
            Net::Homogeneous => LatencyMatrix::homogeneous(m, rng.gen_range(0.0..30.0)),
            Net::Dense | Net::DenseWithHoles => {
                let mut data = vec![0.0; m * m];
                for i in 0..m {
                    for j in (0..m).filter(|&j| j != i) {
                        data[i * m + j] = match net {
                            Net::DenseWithHoles if rng.gen_range(0..5) == 0 => f64::INFINITY,
                            _ => rng.gen_range(0.0..40.0),
                        };
                    }
                }
                LatencyMatrix::from_rows(m, data)
            }
        };
        let speeds = (0..m).map(|_| rng.gen_range(0.2..6.0)).collect();
        let loads = (0..m)
            .map(|_| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(0.0..400.0),
            })
            .collect();
        (Instance::new(speeds, vec![0.0; m], latency), loads)
    }

    /// Asserts the batch kernel returns the reference's bits for every
    /// listed candidate (`i` itself included: both say `0.0`).
    fn assert_kernel_matches(instance: &Instance, loads: &[f64], i: usize, c: Candidates<'_>) {
        let ids: Vec<usize> = match &c {
            Candidates::Range(range) => range.clone().collect(),
            Candidates::List(ids) => ids.iter().map(|&j| j as usize).collect(),
        };
        let mut out = vec![f64::NAN; ids.len()];
        partner_scores(instance, loads, i, c.clone(), &mut out);
        for (j, got) in ids.into_iter().zip(out) {
            let want = partner_score(instance, loads, i, j);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "i={i} j={j} {c:?}: kernel {got:e} vs reference {want:e}"
            );
        }
    }

    /// Contiguous spans and gathered lists, with `i` inside and
    /// outside them, for one `(instance, loads)`.
    fn assert_kernel_matches_everywhere(instance: &Instance, loads: &[f64], seed: u64) {
        let m = instance.len();
        let mut rng = rng_for(seed, 31);
        for i in [0, m / 2, m - 1] {
            assert_kernel_matches(instance, loads, i, Candidates::Range(0..m));
            let (a, b) = (rng.gen_range(0..=m), rng.gen_range(0..=m));
            assert_kernel_matches(instance, loads, i, Candidates::Range(a.min(b)..a.max(b)));
            assert_kernel_matches(instance, loads, i, Candidates::Range(i + 1..m));
            let all: Vec<u32> = (0..m as u32).rev().collect();
            assert_kernel_matches(instance, loads, i, Candidates::List(&all));
            let some: Vec<u32> = (0..m as u32).filter(|_| rng.gen_range(0..3) == 0).collect();
            assert_kernel_matches(instance, loads, i, Candidates::List(&some));
            let others: Vec<u32> = (0..m as u32).filter(|&j| j as usize != i).collect();
            assert_kernel_matches(instance, loads, i, Candidates::List(&others));
        }
    }

    #[test]
    fn batch_kernel_is_bit_identical_to_the_scalar_reference() {
        // Sizes on both sides of the lane-block boundary, so every
        // chunked path sees a full block, a ragged tail and a lone lane.
        let sizes = [
            1,
            2,
            7,
            SCORE_BLOCK - 1,
            SCORE_BLOCK + 1,
            2 * SCORE_BLOCK + 37,
        ];
        for (case, &m) in sizes.iter().enumerate() {
            for net in [Net::Homogeneous, Net::Dense, Net::DenseWithHoles] {
                let (instance, loads) = kernel_case(m, net, case as u64);
                assert_kernel_matches_everywhere(&instance, &loads, case as u64);
            }
        }
    }

    #[test]
    fn batch_kernel_matches_on_degenerate_inputs() {
        // Every early return of the reference at once: an infinite
        // homogeneous latency, all-zero loads, equal loads.
        let blocked = Instance::homogeneous(5, 2.0, f64::INFINITY, 0.0);
        assert_kernel_matches_everywhere(&blocked, &[9.0, 0.0, 3.0, 0.0, 50.0], 0);
        let idle = Instance::homogeneous(5, 2.0, 1.0, 0.0);
        assert_kernel_matches_everywhere(&idle, &[0.0, -0.0, 0.0, 0.0, -0.0], 1);
        assert_kernel_matches_everywhere(&idle, &[7.0; 5], 2);
        // s·l overflows, so Δ is NaN: it must pass the `<= 0` test and
        // be capped to the sender's load exactly like the reference's.
        assert_kernel_matches_everywhere(&idle, &[1e308, 3.0, 1e308, 0.0, 9e307], 3);
        let dense = |speeds: &[f64], data: Vec<f64>| {
            Instance::new(
                speeds.to_vec(),
                vec![0.0; 5],
                LatencyMatrix::from_rows(5, data),
            )
        };
        let off_diagonal =
            |c: f64| -> Vec<f64> { (0..25).map(|k| if k % 6 == 0 { 0.0 } else { c }).collect() };
        // push = pull = ∞: both numerators are `∞ − ∞`, the call goes
        // to the reference, whose two directions both run.
        let mixed = dense(
            &[2.0, 3.0, 0.5, 4.0, 1.0],
            (0..25).map(|k| (k % 6) as f64).collect(),
        );
        assert_kernel_matches_everywhere(&mixed, &[1e308, 1e308, 7.0, 0.0, 8e307], 4);
        // s_i·s_j = ∞ against a dense `c = 0`: `∞ · 0` is a NaN
        // numerator while the reference's forward gain is positive.
        let huge = dense(&[1e200, 3e200, 2e200, 1.0, 5e199], vec![0.0; 25]);
        assert_kernel_matches_everywhere(&huge, &[100.0, 0.0, 40.0, 7.0, -0.0], 5);
        // s_i + s_j = ∞ with loads below 1, so `s·l` stays finite: both
        // numerators are −∞, and the reference's `−∞/∞` is a NaN Δ that
        // it does not zero.
        let vast = dense(&[1e308, 1.5e308, 9e307, 1.7e308, 1e308], off_diagonal(1.0));
        assert_kernel_matches_everywhere(&vast, &[0.5, 0.0, 0.9, 0.25, 0.75], 6);
        // A hole in one direction only (c_04 = ∞, c_40 = 2) with node 4
        // the sender: n_ji > 0 on the far side of the hole.
        let mut holed = off_diagonal(2.0);
        holed[4] = f64::INFINITY;
        let holed = dense(&[1.0, 2.0, 1.5, 3.0, 1.0], holed);
        assert_kernel_matches_everywhere(&holed, &[1.0, 0.0, 9.0, 4.0, 60.0], 7);
        // Equal products (push − pull = 0.0, as `[7.0; 5]` above) on a
        // free network: both numerators are zero.
        let speeds = [1.0, 2.0, 4.0, 0.5, 8.0];
        let loads = speeds.map(|s| 3.0 * s);
        assert_kernel_matches_everywhere(&dense(&speeds, vec![0.0; 25]), &loads, 8);
        let mut out = [];
        partner_scores(&idle, &[7.0; 5], 3, Candidates::Range(2..2), &mut out);
        partner_scores(&idle, &[7.0; 5], 3, Candidates::List(&[]), &mut out);
    }

    #[test]
    #[should_panic(expected = "one score slot per candidate")]
    fn batch_kernel_refuses_a_short_output() {
        let instance = Instance::homogeneous(4, 1.0, 1.0, 0.0);
        partner_scores(
            &instance,
            &[1.0; 4],
            0,
            Candidates::Range(0..4),
            &mut [0.0; 3],
        );
    }

    #[test]
    fn pruned_selection_keeps_the_stable_sorts_candidates() {
        // The top-k selection must keep exactly what a stable
        // descending sort of the id-ordered score list kept, ties
        // (equal loads ⇒ equal scores) and the reachability mask
        // included: with `min_improvement = −∞` every surviving
        // candidate is evaluated, so the choice is the best of
        // precisely that prefix.
        for seed in 0..6u64 {
            let m = 40;
            let mut instance = random_instance(m, seed);
            let mut rng = rng_for(seed, 37);
            let tiers = [0.0, 10.0, 10.0, 80.0, 300.0];
            instance.set_own_loads((0..m).map(|_| tiers[rng.gen_range(0..5usize)]).collect());
            let a = Assignment::local(&instance);
            let active: Vec<bool> = (0..m).map(|j| j % 7 != 3).collect();
            for id in [0, 5, 39] {
                for top_k in [1, 3, 8, 38, 39, 100] {
                    let mut ranked: Vec<(usize, f64)> = (0..m)
                        .filter(|&j| j != id && active[j])
                        .map(|j| (j, partner_score(&instance, a.loads(), id, j)))
                        .collect();
                    ranked.sort_by(|x, y| y.1.total_cmp(&x.1));
                    let want = ranked
                        .iter()
                        .take(top_k)
                        .map(|&(j, _)| {
                            let out = calc_best_transfer(
                                &instance,
                                a.ledger(id),
                                a.ledger(j),
                                id,
                                j,
                                0.0,
                            );
                            (j, out.improvement)
                        })
                        .fold(None, |best: Option<(usize, f64)>, (j, v)| match best {
                            Some((_, b)) if v <= b => best,
                            _ => Some((j, v)),
                        });
                    let got = choice(
                        &instance,
                        &a,
                        id,
                        PartnerSelection::Pruned { top_k },
                        f64::NEG_INFINITY,
                        Some(&active),
                        None,
                        &mut PartnerScratch::default(),
                    );
                    assert_eq!(got, want, "seed {seed} id {id} top_k {top_k}");
                }
            }
        }
    }

    #[test]
    fn picks_the_globally_best_partner() {
        let instance = random_instance(8, 1);
        let a = Assignment::local(&instance);
        // exhaustively find argmax impr(0, j)
        let mut best_j = 1;
        let mut best = f64::NEG_INFINITY;
        for j in 1..8 {
            let v = calc_best_transfer(&instance, a.ledger(0), a.ledger(j), 0, j, 0.0).improvement;
            if v > best {
                best = v;
                best_j = j;
            }
        }
        let out = step(&instance, &mut a.clone(), 0, PartnerSelection::Exact);
        if best > 1e-9 {
            let (j, improvement) = out.expect("an improving partner");
            assert_eq!(j, best_j);
            assert!((improvement - best).abs() < 1e-9);
        } else {
            assert_eq!(out, None);
        }
    }

    #[test]
    fn step_reduces_total_cost() {
        let instance = random_instance(10, 2);
        let mut a = Assignment::local(&instance);
        let before = total_cost(&instance, &a);
        let out = step(&instance, &mut a, 0, PartnerSelection::Exact);
        let improvement = out.map_or(0.0, |(_, improvement)| improvement);
        let after = total_cost(&instance, &a);
        assert!(
            (before - after - improvement).abs() < 1e-6 * before.max(1.0),
            "claimed {improvement} actual {}",
            before - after
        );
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn no_step_at_optimum() {
        // Perfectly balanced homogeneous system: nothing to do.
        let instance = Instance::homogeneous(4, 1.0, 10.0, 20.0);
        let mut a = Assignment::local(&instance);
        let before = a.clone();
        assert_eq!(step(&instance, &mut a, 0, PartnerSelection::Exact), None);
        assert_eq!(a, before, "nothing moved");
    }

    #[test]
    fn pruned_matches_exact_on_peak_workload() {
        // One hot server: the pruned score is exact there, so pruned and
        // exact must pick the same partner.
        for seed in 0..5 {
            let mut instance = random_instance(20, seed);
            let mut loads = vec![0.0; 20];
            loads[3] = 1000.0;
            instance.set_own_loads(loads);
            let a = Assignment::local(&instance);
            let exact = step(&instance, &mut a.clone(), 3, PartnerSelection::Exact);
            let pruned = PartnerSelection::Pruned { top_k: 4 };
            let pruned = step(&instance, &mut a.clone(), 3, pruned);
            let partner = |out: Option<(usize, f64)>| out.map(|(j, _)| j);
            assert_eq!(partner(exact), partner(pruned), "seed {seed}");
        }
    }

    #[test]
    fn pruned_improvement_close_to_exact_generally() {
        let instance = random_instance(24, 9);
        let a = Assignment::local(&instance);
        let gain = |selection| {
            let out = step(&instance, &mut a.clone(), 0, selection);
            out.map_or(0.0, |(_, improvement)| improvement)
        };
        let exact = gain(PartnerSelection::Exact);
        let pruned = gain(PartnerSelection::Pruned { top_k: 8 });
        // The pruned step must achieve at least half the exact gain
        // (in practice it is nearly always identical).
        assert!(pruned >= 0.5 * exact - 1e-9);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let instance = random_instance(40, 6);
        let a = Assignment::local(&instance);
        let mut scratch = PartnerScratch::default();
        for id in 0..10 {
            for selection in [
                PartnerSelection::Exact,
                PartnerSelection::Pruned { top_k: 5 },
            ] {
                let mut fresh = PartnerScratch::default();
                let fresh = choice(&instance, &a, id, selection, 1e-9, None, None, &mut fresh);
                let reused = choice(&instance, &a, id, selection, 1e-9, None, None, &mut scratch);
                assert_eq!(fresh, reused, "id {id} {selection:?}");
            }
        }
    }

    #[test]
    fn stale_score_loads_change_pruned_ranking_only() {
        // Live loads say server 1 is idle; the stale snapshot says
        // server 2 is. With top_k = 1 the snapshot decides which single
        // candidate gets an exact evaluation, so the chosen partner
        // must follow it — the gossip-staleness emulation the engine
        // relies on.
        let mut instance = Instance::homogeneous(3, 1.0, 0.0, 5.0);
        instance.set_own_loads(vec![100.0, 0.0, 50.0]);
        let a = Assignment::local(&instance);
        let stale = vec![100.0, 50.0, 0.0];
        let selection = PartnerSelection::Pruned { top_k: 1 };
        let mut scratch = PartnerScratch::default();
        let live_choice = choice(&instance, &a, 0, selection, 1e-9, None, None, &mut scratch);
        let stale_choice = choice(
            &instance,
            &a,
            0,
            selection,
            1e-9,
            None,
            Some(&stale),
            &mut scratch,
        );
        assert_eq!(live_choice.map(|(j, _)| j), Some(1));
        assert_eq!(stale_choice.map(|(j, _)| j), Some(2));
    }

    #[test]
    fn partner_score_is_zero_for_balanced_pairs() {
        let instance = Instance::homogeneous(3, 1.0, 5.0, 10.0);
        let loads = vec![10.0, 10.0, 10.0];
        assert_eq!(partner_score(&instance, &loads, 0, 1), 0.0);
    }

    #[test]
    fn partner_score_positive_for_imbalanced_pairs() {
        let instance = Instance::homogeneous(3, 1.0, 1.0, 10.0);
        let loads = vec![30.0, 0.0, 10.0];
        assert!(partner_score(&instance, &loads, 0, 1) > 0.0);
        // symmetric: evaluating from the idle side sees the same gain
        assert!(
            (partner_score(&instance, &loads, 0, 1) - partner_score(&instance, &loads, 1, 0)).abs()
                < 1e-12
        );
    }

    /// The pre-rank `keep_best` replaced: every reachable `(j, score)`
    /// collected, an O(m) selection of the `keep` best under the rank
    /// order (score descending by `total_cmp`, then id ascending), then
    /// a sort of the kept prefix.
    fn keep_best_by_selection(
        scores: &[f64],
        keep: usize,
        reachable: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = (0..scores.len())
            .filter(|&j| reachable(j))
            .map(|j| (j, scores[j]))
            .collect();
        let rank = |x: &(usize, f64), y: &(usize, f64)| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0));
        if keep < scored.len() {
            scored.select_nth_unstable_by(keep, rank);
            scored.truncate(keep);
        }
        scored.sort_unstable_by(rank);
        scored
    }

    /// The bit-equality property over random shapes; the fixed grid
    /// above is its deterministic twin.
    mod kernel_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_batch_kernel_is_bit_identical(
                m in 1usize..200,
                net in prop_oneof![
                    Just(Net::Homogeneous),
                    Just(Net::Dense),
                    Just(Net::DenseWithHoles)
                ],
                seed in any::<u64>(),
            ) {
                let (instance, loads) = kernel_case(m, net, seed);
                assert_kernel_matches_everywhere(&instance, &loads, seed);
            }

            /// A list that is one ascending run of ids scores exactly
            /// as that range, `i` inside the run or not; the same ids
            /// with one pair swapped are no run and still score in list
            /// order, lane for lane with the reference.
            #[test]
            fn prop_a_contiguous_list_scores_as_its_range(
                m in 2usize..150,
                net in prop_oneof![
                    Just(Net::Homogeneous),
                    Just(Net::Dense),
                    Just(Net::DenseWithHoles)
                ],
                seed in any::<u64>(),
            ) {
                let (instance, loads) = kernel_case(m, net, seed);
                let mut rng = rng_for(seed, 37);
                let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
                let run = a.min(b)..a.max(b) + 1;
                let i = rng.gen_range(0..m);
                let scores = |c: Candidates<'_>| {
                    let mut out = vec![f64::NAN; c.len()];
                    partner_scores(&instance, &loads, i, c, &mut out);
                    out.iter().map(|s| s.to_bits()).collect::<Vec<u64>>()
                };
                let mut ids: Vec<u32> = run.clone().map(|j| j as u32).collect();
                prop_assert_eq!(
                    scores(Candidates::List(&ids)),
                    scores(Candidates::Range(run))
                );
                if ids.len() > 1 {
                    let k = rng.gen_range(1..ids.len());
                    ids.swap(k - 1, k);
                    assert_kernel_matches(&instance, &loads, i, Candidates::List(&ids));
                }
            }

            /// The streaming pre-rank keeps the selection's candidates
            /// in the selection's order, element for element, on scores
            /// drawn from a few values (so ties are common) mixed with
            /// ±0, ±∞ and NaNs of both signs, under a random mask.
            #[test]
            fn prop_streaming_top_k_matches_the_selection(
                m in 1usize..90,
                seed in any::<u64>(),
            ) {
                let mut rng = rng_for(seed, 31);
                let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
                let scores: Vec<f64> = (0..m)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => special[rng.gen_range(0..special.len())],
                        _ => f64::from(rng.gen_range(-4..4)) * 0.5,
                    })
                    .collect();
                let active: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.8)).collect();
                let id = rng.gen_range(0..m);
                let keep = rng.gen_range(1..=m + 2);
                let reachable = |j: usize| j != id && active[j];
                let mut kept = vec![(m, 1.0)]; // stale contents are cleared
                keep_best(&scores, keep, reachable, &mut kept);
                let bits = |list: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    list.iter().map(|&(j, s)| (j, s.to_bits())).collect()
                };
                prop_assert_eq!(
                    bits(&kept),
                    bits(&keep_best_by_selection(&scores, keep, reachable))
                );
            }
        }
    }
}
