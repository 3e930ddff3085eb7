//! Multiple-subset-sum rounding of fractional prescriptions.
//!
//! After solving the fractional problem, organization `i` must send a
//! *subset* `S_i(j)` of its actual tasks to each server `j` so that
//! `Σ_{k ∈ S_i(j)} p_i(k) ≈ ρ_ij n_i`. Minimizing the total deviation is
//! the multiple subset sum problem with different knapsack capacities —
//! NP-complete, but well approximated by a greedy largest-first pass
//! (deviation per server bounded by the largest task) followed by
//! single-move / swap local search.

/// Assigns tasks (by size) to servers given per-server target volumes.
/// Returns `assignment[k] = j` (task `k` goes to server `j`).
///
/// # Panics
/// Panics when `targets` is empty while tasks exist.
pub fn round_tasks(sizes: &[f64], targets: &[f64]) -> Vec<usize> {
    if sizes.is_empty() {
        return Vec::new();
    }
    assert!(!targets.is_empty(), "no servers to assign tasks to");
    let m = targets.len();
    let mut remaining: Vec<f64> = targets.to_vec();
    // Greedy: largest task first, to the server with the largest
    // remaining deficit.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].partial_cmp(&sizes[a]).expect("sizes comparable"));
    let mut assignment = vec![0usize; sizes.len()];
    for &k in &order {
        let mut best = 0usize;
        for j in 1..m {
            if remaining[j] > remaining[best] {
                best = j;
            }
        }
        assignment[k] = best;
        remaining[best] -= sizes[k];
    }
    local_search(sizes, targets, &mut assignment, 50);
    assignment
}

/// Total rounding error `Σ_j |Σ_{k ∈ S(j)} p_k − target_j|`
/// (the paper's `Σ err(S_i(j))`).
pub fn rounding_error(sizes: &[f64], targets: &[f64], assignment: &[usize]) -> f64 {
    let mut volumes = vec![0.0; targets.len()];
    for (k, &j) in assignment.iter().enumerate() {
        volumes[j] += sizes[k];
    }
    volumes
        .iter()
        .zip(targets.iter())
        .map(|(v, t)| (v - t).abs())
        .sum()
}

/// Hill-climbing polish: single-task moves and pairwise swaps accepted
/// while they reduce the rounding error.
fn local_search(sizes: &[f64], targets: &[f64], assignment: &mut [usize], max_passes: usize) {
    let m = targets.len();
    let mut volumes = vec![0.0; m];
    for (k, &j) in assignment.iter().enumerate() {
        volumes[j] += sizes[k];
    }
    let err_pair = |va: f64, ta: f64, vb: f64, tb: f64| (va - ta).abs() + (vb - tb).abs();
    for _ in 0..max_passes {
        let mut improved = false;
        // Single moves.
        for k in 0..sizes.len() {
            let from = assignment[k];
            for to in 0..m {
                if to == from {
                    continue;
                }
                let before = err_pair(volumes[from], targets[from], volumes[to], targets[to]);
                let after = err_pair(
                    volumes[from] - sizes[k],
                    targets[from],
                    volumes[to] + sizes[k],
                    targets[to],
                );
                if after + 1e-12 < before {
                    volumes[from] -= sizes[k];
                    volumes[to] += sizes[k];
                    assignment[k] = to;
                    improved = true;
                }
            }
        }
        // Pairwise swaps.
        for a in 0..sizes.len() {
            for b in (a + 1)..sizes.len() {
                let (ja, jb) = (assignment[a], assignment[b]);
                if ja == jb {
                    continue;
                }
                let before = err_pair(volumes[ja], targets[ja], volumes[jb], targets[jb]);
                let delta = sizes[b] - sizes[a];
                let after = err_pair(
                    volumes[ja] + delta,
                    targets[ja],
                    volumes[jb] - delta,
                    targets[jb],
                );
                if after + 1e-12 < before {
                    volumes[ja] += delta;
                    volumes[jb] -= delta;
                    assignment.swap(a, b);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_split_has_zero_error() {
        let sizes = vec![2.0, 3.0, 5.0];
        let targets = vec![5.0, 5.0];
        let a = round_tasks(&sizes, &targets);
        assert_eq!(rounding_error(&sizes, &targets, &a), 0.0);
    }

    #[test]
    fn single_server_takes_everything() {
        let sizes = vec![1.0, 2.0, 3.0];
        let a = round_tasks(&sizes, &[6.0]);
        assert!(a.iter().all(|&j| j == 0));
        assert_eq!(rounding_error(&sizes, &[6.0], &a), 0.0);
    }

    #[test]
    fn empty_tasks() {
        assert!(round_tasks(&[], &[1.0, 2.0]).is_empty());
    }

    #[test]
    fn error_bounded_by_max_task_per_server() {
        let sizes: Vec<f64> = (1..=30).map(|i| (i % 7 + 1) as f64).collect();
        let total: f64 = sizes.iter().sum();
        let targets = vec![total * 0.5, total * 0.3, total * 0.2];
        let a = round_tasks(&sizes, &targets);
        let err = rounding_error(&sizes, &targets, &a);
        let p_max = sizes.iter().copied().fold(0.0, f64::max);
        assert!(
            err <= targets.len() as f64 * p_max,
            "err {err} above m·p_max bound"
        );
    }

    #[test]
    fn unbalanced_targets_respected() {
        let sizes = vec![1.0; 100];
        let targets = vec![80.0, 20.0];
        let a = round_tasks(&sizes, &targets);
        let to_first = a.iter().filter(|&&j| j == 0).count();
        assert_eq!(to_first, 80);
        assert_eq!(rounding_error(&sizes, &targets, &a), 0.0);
    }

    proptest! {
        #[test]
        fn prop_every_task_assigned_and_error_bounded(
            sizes in prop::collection::vec(0.1f64..5.0, 1..40),
            weights in prop::collection::vec(0.05f64..1.0, 2..5),
        ) {
            let total: f64 = sizes.iter().sum();
            let wsum: f64 = weights.iter().sum();
            let targets: Vec<f64> = weights.iter().map(|w| w / wsum * total).collect();
            let a = round_tasks(&sizes, &targets);
            prop_assert_eq!(a.len(), sizes.len());
            prop_assert!(a.iter().all(|&j| j < targets.len()));
            let err = rounding_error(&sizes, &targets, &a);
            let p_max = sizes.iter().copied().fold(0.0f64, f64::max);
            // Greedy + local search keeps the error within m·p_max
            // (comfortably; usually much tighter).
            prop_assert!(err <= targets.len() as f64 * p_max + 1e-9,
                "err {err} vs bound {}", targets.len() as f64 * p_max);
        }

        #[test]
        fn prop_unit_tasks_round_near_perfectly(
            count in 10usize..120,
            w0 in 0.1f64..0.9,
        ) {
            let sizes = vec![1.0; count];
            let total = count as f64;
            let targets = vec![total * w0, total * (1.0 - w0)];
            let a = round_tasks(&sizes, &targets);
            let err = rounding_error(&sizes, &targets, &a);
            // Unit tasks can match any split to within one task total.
            prop_assert!(err <= 1.0 + 1e-9, "err {err}");
        }
    }
}
