//! Exact KKT water-filling for single-row quadratic programs.
//!
//! Every row subproblem of the centralized solvers is
//!
//! ```text
//! minimize   Σ_j  a_j x_j + x_j² / (2 s_j)
//! subject to Σ_j x_j = n,   0 ≤ x_j (≤ cap_j)
//! ```
//!
//! — BCD's block step and a selfish best response (§V) as written, and
//! PGD's Euclidean projection of a row `v` with `a = −v` at unit speeds.
//! The KKT conditions give `x_j = s_j (λ − a_j)₊` (clamped at `cap_j` in
//! the capped variant) for a water level `λ` fixed by the budget: found
//! exactly by a breakpoint sweep in `O(m log m)` when uncapped, by
//! bisection on `λ` when capped.

/// Solves `min Σ a_j x_j + x_j²/(2 s_j)` s.t. `Σ x_j = n`, `x ≥ 0`.
///
/// Entries with `a_j = +∞` (forbidden servers) never receive mass.
///
/// ```
/// use dlb_solver::waterfill::waterfill;
/// // Two servers, equal base cost, speeds 1 and 3: the water level
/// // splits the 8 units proportionally to speed.
/// let x = waterfill(&[1.0, 1.0], &[1.0, 3.0], 8.0);
/// assert!((x[0] - 2.0).abs() < 1e-9);
/// assert!((x[1] - 6.0).abs() < 1e-9);
/// ```
///
/// # Panics
/// Panics when `n < 0`, when dimensions disagree, or when every `a_j`
/// is infinite while `n > 0`.
pub fn waterfill(a: &[f64], s: &[f64], n: f64) -> Vec<f64> {
    assert_eq!(a.len(), s.len());
    assert!(n >= 0.0, "budget must be non-negative");
    if n == 0.0 || a.is_empty() {
        return vec![0.0; a.len()];
    }
    let lambda = water_level(a, s, n);
    let mut x: Vec<f64> = (a.iter().zip(s))
        .map(|(&aj, &sj)| if aj < lambda { sj * (lambda - aj) } else { 0.0 })
        .collect();
    // Exact budget polish (guards against rounding drift).
    let total: f64 = x.iter().sum();
    if total > 0.0 {
        let fix = n / total;
        x.iter_mut().for_each(|v| *v *= fix);
    }
    x
}

/// The water level `λ` of [`waterfill`]'s problem: the breakpoints
/// `a_j` swept in ascending order until the water stops at or below the
/// next one. Equal speeds sort the bare costs, in any tie order (tied
/// costs add the same sums); unequal ones a stable index permutation.
fn water_level(a: &[f64], s: &[f64], n: f64) -> f64 {
    let by_cost = |p: &f64, q: &f64| p.partial_cmp(q).expect("costs must not be NaN");
    if s.iter().all(|&sj| sj == s[0]) {
        let mut sorted = a.to_vec();
        sorted.sort_unstable_by(by_cost);
        sweep(sorted.into_iter().map(|aj| (aj, s[0])), n)
    } else {
        let mut order: Vec<usize> = (0..a.len()).collect();
        order.sort_by(|&p, &q| by_cost(&a[p], &a[q]));
        sweep(order.into_iter().map(|j| (a[j], s[j])), n)
    }
}

fn sweep(breakpoints: impl Iterator<Item = (f64, f64)>, n: f64) -> f64 {
    let mut breakpoints = breakpoints.peekable();
    let (mut s_sum, mut sa_sum) = (0.0, 0.0);
    loop {
        let (aj, sj) = breakpoints.next().expect("a non-empty row");
        assert!(
            aj.is_finite(),
            "all servers forbidden but budget is positive"
        );
        s_sum += sj;
        sa_sum += sj * aj;
        let level = (n + sa_sum) / s_sum;
        // Done unless the water spills over the next breakpoint.
        if !matches!(breakpoints.peek(), Some(&(next, _)) if level > next) {
            return level;
        }
    }
}

/// Capped variant: additionally enforces `x_j ≤ caps[j]`.
///
/// # Panics
/// Panics when `Σ caps < n` (infeasible).
pub fn waterfill_capped(a: &[f64], s: &[f64], caps: &[f64], n: f64) -> Vec<f64> {
    assert_eq!(a.len(), s.len());
    assert_eq!(a.len(), caps.len());
    assert!(n >= 0.0);
    let m = a.len();
    let mut x = vec![0.0; m];
    if n == 0.0 || m == 0 {
        return x;
    }
    let cap_total: f64 = caps
        .iter()
        .zip(a.iter())
        .map(|(&u, &ai)| if ai.is_finite() { u } else { 0.0 })
        .sum();
    assert!(
        cap_total >= n - 1e-9,
        "infeasible: usable caps sum to {cap_total} < budget {n}"
    );
    let amount = |lambda: f64| -> f64 {
        (0..m)
            .map(|j| {
                if a[j].is_finite() {
                    (s[j] * (lambda - a[j])).clamp(0.0, caps[j])
                } else {
                    0.0
                }
            })
            .sum()
    };
    let mut lo = a
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(f64::INFINITY, f64::min);
    let mut hi = (0..m)
        .filter(|&j| a[j].is_finite() && s[j] > 0.0)
        .map(|j| a[j] + caps[j] / s[j])
        .fold(lo, f64::max)
        + 1.0;
    while amount(hi) < n {
        hi += (hi - lo).abs().max(1.0);
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if amount(mid) < n {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-15 * (1.0 + hi.abs()) {
            break;
        }
    }
    let lambda = hi;
    for j in 0..m {
        if a[j].is_finite() {
            x[j] = (s[j] * (lambda - a[j])).clamp(0.0, caps[j]);
        }
    }
    // Polish to the exact budget within the caps.
    let mut residual = n - x.iter().sum::<f64>();
    if residual.abs() > 1e-12 * n.max(1.0) {
        for j in 0..m {
            if !a[j].is_finite() {
                continue;
            }
            if residual > 0.0 {
                let add = (caps[j] - x[j]).min(residual);
                x[j] += add;
                residual -= add;
            } else {
                let take = x[j].min(-residual);
                x[j] -= take;
                residual += take;
            }
            if residual.abs() <= 1e-15 * n.max(1.0) {
                break;
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The objective `Σ a_j x_j + x_j²/(2 s_j)` the solvers minimise.
    fn waterfill_objective(a: &[f64], s: &[f64], x: &[f64]) -> f64 {
        (0..x.len())
            .map(|j| a[j] * x[j] + x[j] * x[j] / (2.0 * s[j]))
            .sum()
    }

    #[test]
    fn single_server_takes_all() {
        let x = waterfill(&[3.0], &[2.0], 7.0);
        assert_eq!(x, vec![7.0]);
    }

    #[test]
    fn equal_costs_split_by_speed() {
        let x = waterfill(&[1.0, 1.0], &[1.0, 3.0], 8.0);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn expensive_server_excluded_at_low_budget() {
        // a = [0, 100]: for small n the water never reaches level 100.
        let x = waterfill(&[0.0, 100.0], &[1.0, 1.0], 5.0);
        assert!((x[0] - 5.0).abs() < 1e-9);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn expensive_server_included_at_high_budget() {
        let x = waterfill(&[0.0, 100.0], &[1.0, 1.0], 300.0);
        assert!(x[1] > 0.0);
        // KKT: a_0 + x_0/s_0 == a_1 + x_1/s_1
        assert!(((x[0]) - (100.0 + x[1])).abs() < 1e-6);
    }

    #[test]
    fn infinite_cost_server_gets_nothing() {
        let x = waterfill(&[1.0, f64::INFINITY, 2.0], &[1.0, 1.0, 1.0], 10.0);
        assert_eq!(x[1], 0.0);
        assert!((x.iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capped_hits_cap_then_spills() {
        let x = waterfill_capped(&[0.0, 10.0], &[1.0, 1.0], &[3.0, 100.0], 8.0);
        assert!((x[0] - 3.0).abs() < 1e-9, "{x:?}");
        assert!((x[1] - 5.0).abs() < 1e-9, "{x:?}");
        // PGD's projection of v = [10, 10, 0] onto the capped simplex of
        // budget 3: a = −v at unit speeds.
        let x = waterfill_capped(&[-10.0, -10.0, 0.0], &[1.0; 3], &[1.0, 1.0, 5.0], 3.0);
        assert!(x.iter().all(|xj| (xj - 1.0).abs() < 1e-9), "{x:?}");
    }

    #[test]
    fn capped_equals_uncapped_with_loose_caps() {
        // The second row is a projection: negative costs, unit speeds.
        let cases: [(&[f64], &[f64], f64); 2] = [
            (&[1.0, 4.0, 2.0], &[1.0, 2.0, 3.0], 11.0),
            (&[-0.3, 0.2, -0.9, -0.4], &[1.0; 4], 1.0),
        ];
        for (a, s, n) in cases {
            let free = waterfill(a, s, n);
            let capped = waterfill_capped(a, s, &vec![100.0; a.len()], n);
            for (u, v) in free.iter().zip(capped.iter()) {
                assert!((u - v).abs() < 1e-7, "{free:?} vs {capped:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn capped_rejects_infeasible() {
        waterfill_capped(&[0.0], &[1.0], &[1.0], 2.0);
    }

    #[test]
    fn zero_budget() {
        assert_eq!(waterfill(&[1.0, 2.0], &[1.0, 1.0], 0.0), vec![0.0, 0.0]);
    }

    proptest! {
        /// PGD's projection (`a = −v`, unit speeds) leaves a feasible row
        /// where it is: projecting twice is projecting once.
        #[test]
        fn prop_projection_is_idempotent(
            v in prop::collection::vec(-3.0f64..3.0, 1..8),
            n in 0.1f64..20.0,
        ) {
            let unit = vec![1.0; v.len()];
            let negate = |x: &[f64]| x.iter().map(|xj| -xj).collect::<Vec<f64>>();
            let x = waterfill(&negate(&v), &unit, n);
            let y = waterfill(&negate(&x), &unit, n);
            for (p, q) in x.iter().zip(&y) {
                prop_assert!((p - q).abs() < 1e-9 * n.max(1.0), "{x:?} vs {y:?}");
            }
        }

        /// KKT optimality: all active servers share one marginal cost,
        /// and no inactive server has a smaller marginal cost.
        /// Equal speeds take the sweep's value-sorted branch.
        #[test]
        fn prop_waterfill_satisfies_kkt(
            a in prop::collection::vec(-20.0f64..20.0, 2..10),
            s_raw in prop::collection::vec(0.5f64..5.0, 2..10),
            equal in any::<bool>(),
            n in 0.5f64..100.0,
        ) {
            let m = a.len().min(s_raw.len());
            let a = &a[..m];
            let s = if equal { &vec![s_raw[0]; m] } else { &s_raw[..m] };
            let x = waterfill(a, s, n);
            let total: f64 = x.iter().sum();
            prop_assert!((total - n).abs() < 1e-7 * n.max(1.0));
            let marginal: Vec<f64> = (0..m).map(|j| a[j] + x[j] / s[j]).collect();
            let active_level = (0..m)
                .filter(|&j| x[j] > 1e-9)
                .map(|j| marginal[j])
                .fold(f64::NEG_INFINITY, f64::max);
            for j in 0..m {
                if x[j] > 1e-9 {
                    prop_assert!((marginal[j] - active_level).abs() < 1e-5,
                        "active marginals differ: {marginal:?}");
                } else {
                    prop_assert!(a[j] >= active_level - 1e-5,
                        "inactive server {j} should have been used");
                }
            }
        }

        /// The exact solver beats (or ties) any random feasible point.
        /// At unit speeds the objective is `½‖x + a‖²` less a constant,
        /// so PGD's projection of `−a` is the nearest feasible point.
        #[test]
        fn prop_waterfill_beats_random_feasible(
            a in prop::collection::vec(-10.0f64..10.0, 3),
            s_raw in prop::collection::vec(0.5f64..4.0, 3),
            unit in any::<bool>(),
            w in prop::collection::vec(0.01f64..1.0, 3),
            n in 1.0f64..50.0,
        ) {
            let s = if unit { vec![1.0; 3] } else { s_raw };
            let x = waterfill(&a, &s, n);
            let opt = waterfill_objective(&a, &s, &x);
            let wsum: f64 = w.iter().sum();
            let y: Vec<f64> = w.iter().map(|v| v / wsum * n).collect();
            let other = waterfill_objective(&a, &s, &y);
            prop_assert!(opt <= other + 1e-6 * other.abs().max(1.0));
        }

        /// Capped solution stays feasible and beats random feasible
        /// points, at unit speeds (PGD's capped projection) too.
        #[test]
        fn prop_capped_optimal(
            a in prop::collection::vec(-10.0f64..10.0, 3),
            s_raw in prop::collection::vec(0.5f64..4.0, 3),
            unit in any::<bool>(),
            caps in prop::collection::vec(1.0f64..20.0, 3),
            frac in 0.1f64..0.95,
        ) {
            let s = if unit { vec![1.0; 3] } else { s_raw };
            let cap_total: f64 = caps.iter().sum();
            let n = cap_total * frac;
            let x = waterfill_capped(&a, &s, &caps, n);
            let total: f64 = x.iter().sum();
            prop_assert!((total - n).abs() < 1e-6 * n.max(1.0));
            for j in 0..3 {
                prop_assert!(x[j] >= -1e-9 && x[j] <= caps[j] + 1e-9);
            }
            // Compare against the capped projections of a few points.
            let opt = waterfill_objective(&a, &s, &x);
            for split in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]] {
                let y = waterfill_capped(&split.map(|v: f64| -v), &[1.0; 3], &caps, n);
                let other = waterfill_objective(&a, &s, &y);
                prop_assert!(opt <= other + 1e-6 * other.abs().max(1.0),
                    "waterfill {opt} worse than feasible {other}");
            }
        }
    }
}
