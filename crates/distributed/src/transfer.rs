//! Algorithm 1: the optimal pairwise exchange (`calcBestTransfer`).
//!
//! Given two servers `i` and `j`, the algorithm pools every request
//! currently assigned to either, then re-splits the pool: owners are
//! visited in ascending `c_kj − c_ki` (how much server `j` is
//! network-preferable for owner `k`), and each owner `k` moves
//!
//! ```text
//! Δr = clamp( (s_j l_i − s_i l_j − s_i s_j (c_kj − c_ki)) / (s_i + s_j),
//!             0, r_ki )
//! ```
//!
//! requests from `i` to `j` (Lemma 1). After the pass no exchange
//! between `i` and `j` can improve `ΣC` (Lemma 2) — a property-tested
//! invariant.

use dlb_core::sparse::SparseVec;
use dlb_core::Instance;

/// Result of running Algorithm 1 on a pair of servers.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferOutcome {
    /// New ledger of the first server.
    pub ledger_i: SparseVec,
    /// New ledger of the second server.
    pub ledger_j: SparseVec,
    /// Reduction in `ΣC` achieved by the exchange (≥ 0 up to rounding).
    pub improvement: f64,
    /// Total volume of requests that changed servers.
    pub moved: f64,
}

/// Cost contributed by a pair of servers: their congestion terms plus
/// the communication cost of every request they host. Exchanges between
/// `i` and `j` change only this quantity, so improvements can be
/// computed without touching the rest of the system.
pub fn pair_cost(
    instance: &Instance,
    ledger_i: &SparseVec,
    ledger_j: &SparseVec,
    i: usize,
    j: usize,
) -> f64 {
    let li = ledger_i.sum();
    let lj = ledger_j.sum();
    let mut cost = li * li / (2.0 * instance.speed(i)) + lj * lj / (2.0 * instance.speed(j));
    for (k, r) in ledger_i.iter() {
        let c = instance.c(k as usize, i);
        if c > 0.0 {
            cost += c * r;
        }
    }
    for (k, r) in ledger_j.iter() {
        let c = instance.c(k as usize, j);
        if c > 0.0 {
            cost += c * r;
        }
    }
    cost
}

/// Runs Algorithm 1 on the ledgers of servers `i` and `j` (without
/// touching the enclosing [`Assignment`](dlb_core::Assignment)) under
/// a transfer quantum: every per-owner transfer is a multiple of
/// `granularity` (the better of the two neighbouring multiples of
/// Lemma 1's continuous optimum, by the exact pair cost).
/// `granularity = 0` gives the continuous algorithm.
///
/// The paper's load consists of *unit requests* — the fractional model
/// is its relaxation (§II, §VII) — so the evaluation protocol uses
/// `granularity = 1.0`: the algorithm stops when no whole request is
/// worth moving, exactly as a discrete simulation would.
pub fn calc_best_transfer(
    instance: &Instance,
    ledger_i: &SparseVec,
    ledger_j: &SparseVec,
    i: usize,
    j: usize,
    granularity: f64,
) -> TransferOutcome {
    debug_assert_ne!(i, j, "pairwise exchange needs two distinct servers");
    debug_assert!(granularity >= 0.0, "granularity must be non-negative");
    let before = pair_cost(instance, ledger_i, ledger_j, i, j);
    let si = instance.speed(i);
    let sj = instance.speed(j);

    // First loop of Algorithm 1: pool everything on i.
    let mut pool = ledger_i.clone();
    let mut other = ledger_j.clone();
    pool.merge_from(&mut other);
    let mut li = pool.sum();
    let mut lj = 0.0;

    // Sort owners by ascending c_kj − c_ki; owners that cannot run on j
    // (infinite c_kj) are excluded entirely.
    let mut owners: Vec<(u32, f64)> = pool
        .iter()
        .map(|(k, _)| {
            let ckj = instance.c(k as usize, j);
            let cki = instance.c(k as usize, i);
            let diff = if !ckj.is_finite() {
                f64::INFINITY // never move to j
            } else if !cki.is_finite() {
                f64::NEG_INFINITY // must escape i
            } else {
                ckj - cki
            };
            (k, diff)
        })
        .collect();
    owners.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("latency diffs comparable"));

    let mut new_j = SparseVec::with_capacity(owners.len());
    for (k, diff) in owners {
        if diff == f64::INFINITY {
            break; // everything after is also forbidden on j
        }
        let rki = pool.get(k);
        if rki <= 0.0 {
            continue;
        }
        let delta = if diff == f64::NEG_INFINITY {
            rki
        } else {
            let raw = ((sj * li - si * lj) - si * sj * diff) / (si + sj);
            let continuous = raw.min(rki).max(0.0);
            if granularity > 0.0 {
                // Best multiple of the quantum around the continuous
                // optimum, by the exact pair-cost restriction
                // f(Δ) = (l_i−Δ)²/2s_i + (l_j+Δ)²/2s_j + Δ·diff
                // (convex, so only the two neighbours can win; moving
                // the whole r_ki stays allowed so full owner returns
                // survive quantization).
                let f = |d: f64| {
                    let a = li - d;
                    let b = lj + d;
                    a * a / (2.0 * si) + b * b / (2.0 * sj) + d * diff
                };
                let lo = (continuous / granularity).floor() * granularity;
                let hi = (lo + granularity).min(rki);
                if f(hi) < f(lo) {
                    hi
                } else {
                    lo
                }
            } else {
                continuous
            }
        };
        if delta > 0.0 {
            pool.add(k, -delta);
            new_j.add(k, delta);
            li -= delta;
            lj += delta;
        }
    }

    let after = pair_cost(instance, &pool, &new_j, i, j);
    // Moved volume relative to the *original* placement.
    let mut moved = 0.0;
    for (k, r_new) in new_j.iter() {
        let r_old = ledger_j.get(k);
        moved += (r_new - r_old).abs();
    }
    for (k, r_old) in ledger_j.iter() {
        if new_j.get(k) == 0.0 {
            moved += r_old;
        }
    }

    TransferOutcome {
        ledger_i: pool,
        ledger_j: new_j,
        improvement: before - after,
        moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::cost::total_cost;
    use dlb_core::rngutil::rng_for;
    use dlb_core::{Assignment, LatencyMatrix};
    use proptest::prelude::*;
    use rand::Rng;

    /// Runs Algorithm 1 on servers `i` and `j` of `assignment` and
    /// installs the result; returns `(improvement, moved)`.
    fn apply_best_transfer(
        instance: &Instance,
        assignment: &mut Assignment,
        i: usize,
        j: usize,
    ) -> (f64, f64) {
        let outcome = calc_best_transfer(
            instance,
            assignment.ledger(i),
            assignment.ledger(j),
            i,
            j,
            0.0,
        );
        assignment.replace_ledger(i, outcome.ledger_i);
        assignment.replace_ledger(j, outcome.ledger_j);
        (outcome.improvement, outcome.moved)
    }

    fn two_server_instance(c: f64, s0: f64, s1: f64, n0: f64, n1: f64) -> Instance {
        Instance::new(vec![s0, s1], vec![n0, n1], LatencyMatrix::homogeneous(2, c))
    }

    #[test]
    fn balances_two_equal_servers() {
        let instance = two_server_instance(0.0, 1.0, 1.0, 10.0, 0.0);
        let mut a = Assignment::local(&instance);
        let (improvement, moved) = apply_best_transfer(&instance, &mut a, 0, 1);
        assert!((a.load(0) - 5.0).abs() < 1e-9);
        assert!((a.load(1) - 5.0).abs() < 1e-9);
        // cost drops from 50 to 25 + 25/... l²/2: 100/2=50 → 2·(25/2)=25.
        assert!((improvement - 25.0).abs() < 1e-9);
        assert!((moved - 5.0).abs() < 1e-9);
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn latency_reduces_transfer_lemma1() {
        // Lemma 1 with s=1: Δ = (l_i − l_j − c)/2.
        let c = 4.0;
        let instance = two_server_instance(c, 1.0, 1.0, 10.0, 0.0);
        let mut a = Assignment::local(&instance);
        apply_best_transfer(&instance, &mut a, 0, 1);
        assert!((a.requests(0, 1) - 3.0).abs() < 1e-9, "expected Δ = 3");
    }

    #[test]
    fn no_transfer_when_latency_dominates() {
        let instance = two_server_instance(100.0, 1.0, 1.0, 10.0, 0.0);
        let mut a = Assignment::local(&instance);
        let (improvement, moved) = apply_best_transfer(&instance, &mut a, 0, 1);
        assert_eq!(moved, 0.0);
        assert!(improvement.abs() < 1e-9);
        assert_eq!(a.requests(0, 0), 10.0);
    }

    #[test]
    fn speed_weighted_balance() {
        // s = (1, 3), c = 0: optimum puts 1/4 on server 0.
        let instance = two_server_instance(0.0, 1.0, 3.0, 12.0, 0.0);
        let mut a = Assignment::local(&instance);
        apply_best_transfer(&instance, &mut a, 0, 1);
        assert!((a.load(0) - 3.0).abs() < 1e-9);
        assert!((a.load(1) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn requests_return_to_owner_when_profitable() {
        // Org 0's requests parked on server 1; zero latency; server 0
        // idle and fast: Algorithm 1 must pull work back.
        let instance = two_server_instance(0.0, 2.0, 1.0, 9.0, 0.0);
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 1, 9.0);
        assert_eq!(a.load(0), 0.0);
        let (improvement, _) = apply_best_transfer(&instance, &mut a, 0, 1);
        assert!(improvement > 0.0);
        assert!((a.load(0) - 6.0).abs() < 1e-9, "load0 = {}", a.load(0));
        assert!((a.load(1) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn owner_sort_prefers_network_close_requests() {
        // Three orgs; server 2's requests are cheap to move to server 1,
        // org 0's are expensive. After balancing 0↔1, the moved mass
        // should preferentially be org 2's.
        let mut lat = LatencyMatrix::zero(3);
        lat.set(0, 1, 10.0);
        lat.set(1, 0, 10.0);
        lat.set(2, 0, 5.0);
        lat.set(0, 2, 5.0);
        lat.set(2, 1, 0.5);
        lat.set(1, 2, 0.5);
        let instance = Instance::new(vec![1.0; 3], vec![8.0, 0.0, 4.0], lat);
        let mut a = Assignment::local(&instance);
        // Park org 2's requests on server 0 first (e.g. earlier round).
        a.move_requests(2, 2, 0, 4.0);
        let before = total_cost(&instance, &a);
        apply_best_transfer(&instance, &mut a, 0, 1);
        let after = total_cost(&instance, &a);
        assert!(after < before);
        // org 2's requests should move to server 1 before org 0's do.
        assert!(a.requests(2, 1) > 0.0);
        assert!(a.requests(2, 1) >= a.requests(0, 1) - 1e-9);
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn forbidden_destination_is_respected() {
        let mut lat = LatencyMatrix::homogeneous(2, 1.0);
        lat.set(0, 1, f64::INFINITY); // org 0 may not run on server 1
        let instance = Instance::new(vec![1.0, 1.0], vec![10.0, 0.0], lat);
        let mut a = Assignment::local(&instance);
        let (_, moved) = apply_best_transfer(&instance, &mut a, 0, 1);
        assert_eq!(moved, 0.0, "all mass belongs to org 0 and must stay");
        assert_eq!(a.requests(0, 0), 10.0);
    }

    #[test]
    fn improvement_matches_global_cost_change() {
        let mut rng = rng_for(77, 0);
        for _ in 0..20 {
            let m = 4;
            let mut lat = LatencyMatrix::zero(m);
            for i in 0..m {
                for j in 0..m {
                    if i != j {
                        lat.set(i, j, rng.gen_range(0.0..8.0));
                    }
                }
            }
            let instance = Instance::new(
                (0..m).map(|_| rng.gen_range(1.0..4.0)).collect(),
                (0..m).map(|_| rng.gen_range(0.0..30.0)).collect(),
                lat,
            );
            let mut a = Assignment::local(&instance);
            // Random pre-shuffling moves.
            for _ in 0..6 {
                let k = rng.gen_range(0..m);
                let from = rng.gen_range(0..m);
                let to = rng.gen_range(0..m);
                let amt = a.requests(k, from) * rng.gen::<f64>();
                if from != to && amt > 0.0 {
                    a.move_requests(k, from, to, amt);
                }
            }
            let before = total_cost(&instance, &a);
            let (improvement, _) = apply_best_transfer(&instance, &mut a, 0, 1);
            let after = total_cost(&instance, &a);
            assert!(
                ((before - after) - improvement).abs() < 1e-6 * before.max(1.0),
                "improvement {improvement} vs actual {}",
                before - after
            );
            assert!(improvement >= -1e-9, "Algorithm 1 must never hurt");
            a.check_invariants(&instance).unwrap();
        }
    }

    #[test]
    fn quantized_transfer_moves_whole_requests() {
        // Δ* = (10 − 0 − 3)/2 = 3.5 continuous; quantized must pick 3
        // or 4, whichever prices better. f(3) = 49/2+9/2+9 = 38,
        // f(4) = 36/2+16/2+12 = 38 — tie; either is fine, but it must
        // be integral.
        let instance = two_server_instance(3.0, 1.0, 1.0, 10.0, 0.0);
        let out = calc_best_transfer(
            &instance,
            &{
                let mut v = SparseVec::new();
                v.set(0, 10.0);
                v
            },
            &SparseVec::new(),
            0,
            1,
            1.0,
        );
        let moved = out.ledger_j.get(0);
        assert!(
            (moved - 3.0).abs() < 1e-12 || (moved - 4.0).abs() < 1e-12,
            "moved {moved} is not a neighbouring integer of 3.5"
        );
        assert!(out.improvement > 0.0);
    }

    #[test]
    fn quantized_never_worse_than_no_move() {
        // When the continuous optimum is below half a request, the
        // quantized exchange must stay put rather than overshoot.
        let instance = two_server_instance(9.4, 1.0, 1.0, 10.0, 0.0);
        // Δ* = (10 − 9.4)/2 = 0.3 → f(0) vs f(1): f(0) = 50,
        // f(1) = 81/2 + 1/2 + 9.4 = 50.4 → stay.
        let mut a = Assignment::local(&instance);
        let before = total_cost(&instance, &a);
        let out = calc_best_transfer(&instance, a.ledger(0), a.ledger(1), 0, 1, 1.0);
        a.replace_ledger(0, out.ledger_i);
        a.replace_ledger(1, out.ledger_j);
        let after = total_cost(&instance, &a);
        assert!(after <= before + 1e-9);
        assert_eq!(a.requests(0, 1), 0.0, "must not move a whole request");
    }

    proptest! {
        /// With unit granularity and integer inputs, ledgers stay
        /// integral and the exchange never increases the cost.
        #[test]
        fn prop_quantized_integrality(
            n0 in 0u32..60, n1 in 0u32..60,
            s0 in 1u32..4, s1 in 1u32..4,
            c in 0u32..12,
        ) {
            let instance = two_server_instance(
                c as f64, s0 as f64, s1 as f64, n0 as f64, n1 as f64,
            );
            let mut a = Assignment::local(&instance);
            let before = total_cost(&instance, &a);
            let out = calc_best_transfer(&instance, a.ledger(0), a.ledger(1), 0, 1, 1.0);
            a.replace_ledger(0, out.ledger_i);
            a.replace_ledger(1, out.ledger_j);
            let after = total_cost(&instance, &a);
            prop_assert!(after <= before + 1e-9 * before.max(1.0));
            for srv in 0..2 {
                for (_, r) in a.ledger(srv).iter() {
                    prop_assert!(
                        (r - r.round()).abs() < 1e-9,
                        "non-integral ledger entry {r}"
                    );
                }
            }
            prop_assert!(a.check_invariants(&instance).is_ok());
        }
    }

    proptest! {
        /// Lemma 2: after Algorithm 1 no single-owner move between the
        /// pair improves the cost.
        #[test]
        fn prop_pairwise_optimality(
            n in prop::collection::vec(0.0f64..30.0, 3),
            s in prop::collection::vec(0.5f64..4.0, 3),
            c01 in 0.0f64..6.0, c02 in 0.0f64..6.0, c12 in 0.0f64..6.0,
            park in 0.0f64..1.0,
        ) {
            let mut lat = LatencyMatrix::zero(3);
            lat.set(0, 1, c01); lat.set(1, 0, c01);
            lat.set(0, 2, c02); lat.set(2, 0, c02);
            lat.set(1, 2, c12); lat.set(2, 1, c12);
            let instance = Instance::new(s, n.clone(), lat);
            let mut a = Assignment::local(&instance);
            // Park some of org 2's requests on server 0.
            let amt = n[2] * park;
            if amt > 0.0 {
                a.move_requests(2, 2, 0, amt);
            }
            apply_best_transfer(&instance, &mut a, 0, 1);
            let base = total_cost(&instance, &a);
            // Try moving epsilons of every owner in both directions.
            for k in 0..3 {
                for (from, to) in [(0usize, 1usize), (1, 0)] {
                    let have = a.requests(k, from);
                    for eps_frac in [1e-3, 0.05, 0.5, 1.0] {
                        let delta = have * eps_frac;
                        if delta <= 0.0 { continue; }
                        let mut trial = a.clone();
                        trial.move_requests(k, from, to, delta);
                        let cost = total_cost(&instance, &trial);
                        prop_assert!(
                            cost >= base - 1e-7 * base.max(1.0),
                            "moving {delta} of org {k} {from}->{to} improves: {base} -> {cost}"
                        );
                    }
                }
            }
        }

        /// The exchange never loses mass and never increases ΣC.
        #[test]
        fn prop_transfer_sound(
            n0 in 0.0f64..40.0, n1 in 0.0f64..40.0,
            s0 in 0.5f64..4.0, s1 in 0.5f64..4.0,
            c in 0.0f64..10.0,
        ) {
            let instance = two_server_instance(c, s0, s1, n0, n1);
            let mut a = Assignment::local(&instance);
            let before = total_cost(&instance, &a);
            let (improvement, _) = apply_best_transfer(&instance, &mut a, 0, 1);
            let after = total_cost(&instance, &a);
            prop_assert!(improvement >= -1e-9);
            prop_assert!(after <= before + 1e-9 * before.max(1.0));
            prop_assert!(a.check_invariants(&instance).is_ok());
        }
    }
}
