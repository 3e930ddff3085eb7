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
//! the Euclidean projection of a row `v` with `a = −v` at unit speeds,
//! under the §VII R-replication caps when there are any. The KKT
//! conditions give `x_j = s_j (λ − a_j)` clamped to `[0, cap_j]` for a
//! water level `λ` fixed by the budget, found exactly by one breakpoint
//! sweep in `O(m log m)`, capped or not.

/// Solves `min Σ a_j x_j + x_j²/(2 s_j)` s.t. `Σ x_j = n`,
/// `0 ≤ x_j ≤ caps[j]` (no upper bound when `caps` is `None`).
///
/// Entries with `a_j = +∞` (forbidden servers) never receive mass. A
/// capped result never exceeds a cap.
///
/// ```
/// use dlb_solver::waterfill::waterfill;
/// // Two servers, equal base cost, speeds 1 and 3: the water level
/// // splits the 8 units proportionally to speed…
/// let x = waterfill(&[1.0, 1.0], &[1.0, 3.0], None, 8.0);
/// assert!((x[0] - 2.0).abs() < 1e-9);
/// assert!((x[1] - 6.0).abs() < 1e-9);
/// // …unless a cap stops the faster one.
/// let x = waterfill(&[1.0, 1.0], &[1.0, 3.0], Some(&[8.0, 5.0]), 8.0);
/// assert_eq!(x[1], 5.0);
/// assert!((x[0] - 3.0).abs() < 1e-9);
/// ```
///
/// # Panics
/// Panics when `n < 0`, when dimensions disagree, when every `a_j` is
/// infinite while `n > 0`, or when the caps of the finite entries sum to
/// less than `n` (infeasible).
pub fn waterfill(a: &[f64], s: &[f64], caps: Option<&[f64]>, n: f64) -> Vec<f64> {
    assert_eq!(a.len(), s.len());
    assert!(n >= 0.0, "budget must be non-negative");
    if n == 0.0 || a.is_empty() {
        return vec![0.0; a.len()];
    }
    if let Some(caps) = caps {
        assert_eq!(a.len(), caps.len());
        let usable: f64 = (0..a.len())
            .filter(|&j| a[j].is_finite())
            .map(|j| caps[j])
            .sum();
        assert!(
            usable >= n - 1e-9,
            "infeasible: usable caps sum to {usable} < budget {n}"
        );
    }
    let cap = |j: usize| caps.map_or(f64::INFINITY, |c| c[j]);
    let lambda = water_level(a, s, caps, n);
    let mut x: Vec<f64> = (0..a.len())
        .map(|j| {
            if a[j] < lambda {
                (s[j] * (lambda - a[j])).min(cap(j))
            } else {
                0.0
            }
        })
        .collect();
    // Exact budget polish (guards against rounding drift), on the
    // entries below their cap only.
    let (mut full, mut free) = (0.0, 0.0);
    for (j, &xj) in x.iter().enumerate() {
        if xj < cap(j) {
            free += xj;
        } else {
            full += xj;
        }
    }
    if free > 0.0 {
        let fix = ((n - full) / free).max(0.0);
        for (j, xj) in x.iter_mut().enumerate() {
            if *xj < cap(j) {
                *xj = (*xj * fix).min(cap(j));
            }
        }
    }
    x
}

/// The water level `λ` of [`waterfill`]'s problem. Entry `j` enters
/// the water at `a_j` and, when capped, fills at `a_j + cap_j/s_j`;
/// both kinds of breakpoint are swept in ascending order. Equal speeds
/// sort the bare costs, in any tie order (tied costs add the same
/// sums); unequal ones a stable index permutation.
fn water_level(a: &[f64], s: &[f64], caps: Option<&[f64]>, n: f64) -> f64 {
    let by_cost = |p: &f64, q: &f64| p.partial_cmp(q).expect("costs must not be NaN");
    // `(a_j + cap_j/s_j, a_j, s_j, cap_j)` of every usable entry.
    let mut fills: Vec<(f64, f64, f64, f64)> = caps.map_or_else(Vec::new, |caps| {
        (0..a.len())
            .filter(|&j| a[j].is_finite())
            .map(|j| (a[j] + caps[j] / s[j], a[j], s[j], caps[j]))
            .collect()
    });
    fills.sort_by(|p, q| by_cost(&p.0, &q.0));
    if s.iter().all(|&sj| sj == s[0]) {
        let mut sorted = a.to_vec();
        sorted.sort_unstable_by(by_cost);
        sweep(sorted.into_iter().map(|aj| (aj, s[0])), &fills, n)
    } else {
        let mut order: Vec<usize> = (0..a.len()).collect();
        order.sort_by(|&p, &q| by_cost(&a[p], &a[q]));
        sweep(order.into_iter().map(|j| (a[j], s[j])), &fills, n)
    }
}

/// Walks the entering breakpoints `(a_j, s_j)` and the filling ones
/// (entering first on ties) until the water stops at or below the next
/// breakpoint. Between two breakpoints the budget fixes
/// `λ = (n − Σ_full cap + Σ_active s·a) / Σ_active s`.
fn sweep(
    entering: impl Iterator<Item = (f64, f64)>,
    fills: &[(f64, f64, f64, f64)],
    n: f64,
) -> f64 {
    let mut entering = entering.peekable();
    let mut fills = fills.iter().peekable();
    let (mut s_sum, mut sa_sum, mut full, mut active) = (0.0, 0.0, 0.0, 0usize);
    loop {
        let enter_at = entering.peek().map_or(f64::INFINITY, |e| e.0);
        if let Some(&(_, aj, sj, cap)) = fills.next_if(|f| f.0 < enter_at) {
            s_sum -= sj;
            sa_sum -= sj * aj;
            full += cap;
            active -= 1;
            if active == 0 {
                (s_sum, sa_sum) = (0.0, 0.0);
            }
        } else {
            let (aj, sj) = entering.next().expect("a non-empty row");
            assert!(
                aj.is_finite(),
                "all servers forbidden but budget is positive"
            );
            s_sum += sj;
            sa_sum += sj * aj;
            active += 1;
        }
        let next = (entering.peek().map_or(f64::INFINITY, |e| e.0))
            .min(fills.peek().map_or(f64::INFINITY, |f| f.0));
        let level = if active == 0 {
            // Every entry that entered is full: the water rises on to
            // the next breakpoint. Past the last one the caps sum to `n`
            // (up to rounding) and `λ = ∞` leaves every entry full.
            f64::INFINITY
        } else {
            (n - full + sa_sum) / s_sum
        };
        // Done unless the water spills over the next breakpoint.
        if level > next {
            continue;
        }
        return level;
    }
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
        let x = waterfill(&[3.0], &[2.0], None, 7.0);
        assert_eq!(x, vec![7.0]);
    }

    #[test]
    fn equal_costs_split_by_speed() {
        let x = waterfill(&[1.0, 1.0], &[1.0, 3.0], None, 8.0);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn expensive_server_excluded_at_low_budget() {
        // a = [0, 100]: for small n the water never reaches level 100.
        let x = waterfill(&[0.0, 100.0], &[1.0, 1.0], None, 5.0);
        assert!((x[0] - 5.0).abs() < 1e-9);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn expensive_server_included_at_high_budget() {
        let x = waterfill(&[0.0, 100.0], &[1.0, 1.0], None, 300.0);
        assert!(x[1] > 0.0);
        // KKT: a_0 + x_0/s_0 == a_1 + x_1/s_1
        assert!(((x[0]) - (100.0 + x[1])).abs() < 1e-6);
    }

    #[test]
    fn infinite_cost_server_gets_nothing() {
        let x = waterfill(&[1.0, f64::INFINITY, 2.0], &[1.0, 1.0, 1.0], None, 10.0);
        assert_eq!(x[1], 0.0);
        assert!((x.iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capped_hits_cap_then_spills() {
        let x = waterfill(&[0.0, 10.0], &[1.0, 1.0], Some(&[3.0, 100.0]), 8.0);
        assert!((x[0] - 3.0).abs() < 1e-9, "{x:?}");
        assert!((x[1] - 5.0).abs() < 1e-9, "{x:?}");
        // The projection of v = [10, 10, 0] onto the capped simplex of
        // budget 3: a = −v at unit speeds.
        let x = waterfill(&[-10.0, -10.0, 0.0], &[1.0; 3], Some(&[1.0, 1.0, 5.0]), 3.0);
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
            let free = waterfill(a, s, None, n);
            let capped = waterfill(a, s, Some(&vec![100.0; a.len()]), n);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&free), bits(&capped), "{free:?} vs {capped:?}");
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn capped_rejects_infeasible() {
        waterfill(&[0.0], &[1.0], Some(&[1.0]), 2.0);
    }

    /// `R = m`: every cap is `n/m`, so the caps sum to `n` only up to
    /// rounding. The row fills every entry to its cap, never above it.
    #[test]
    fn caps_summing_to_the_budget_fill_every_entry() {
        for m in 1..=13 {
            for n in [1.0, 0.7, 123.4, 1e-3, 3.0e5] {
                let caps = vec![n / m as f64; m];
                let a: Vec<f64> = (0..m).map(|j| (j as f64 * 0.37).sin()).collect();
                let s: Vec<f64> = (0..m).map(|j| 1.0 + (j % 3) as f64).collect();
                for speeds in [&vec![1.0; m], &s] {
                    let x = waterfill(&a, speeds, Some(&caps), n);
                    assert!(x.iter().zip(&caps).all(|(xj, cj)| 0.0 <= *xj && xj <= cj));
                    let total: f64 = x.iter().sum();
                    assert!(
                        (total - n).abs() <= 1e-12 * n.max(1.0),
                        "m={m} n={n}: {x:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_budget() {
        assert_eq!(
            waterfill(&[1.0, 2.0], &[1.0, 1.0], None, 0.0),
            vec![0.0, 0.0]
        );
    }

    proptest! {
        /// The projection (`a = −v`, unit speeds) leaves a feasible row
        /// where it is: projecting twice is projecting once.
        #[test]
        fn prop_projection_is_idempotent(
            v in prop::collection::vec(-3.0f64..3.0, 1..8),
            n in 0.1f64..20.0,
        ) {
            let unit = vec![1.0; v.len()];
            let negate = |x: &[f64]| x.iter().map(|xj| -xj).collect::<Vec<f64>>();
            let x = waterfill(&negate(&v), &unit, None, n);
            let y = waterfill(&negate(&x), &unit, None, n);
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
            let x = waterfill(a, s, None, n);
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
        /// so the projection of `−a` is the nearest feasible point.
        #[test]
        fn prop_waterfill_beats_random_feasible(
            a in prop::collection::vec(-10.0f64..10.0, 3),
            s_raw in prop::collection::vec(0.5f64..4.0, 3),
            unit in any::<bool>(),
            w in prop::collection::vec(0.01f64..1.0, 3),
            n in 1.0f64..50.0,
        ) {
            let s = if unit { vec![1.0; 3] } else { s_raw };
            let x = waterfill(&a, &s, None, n);
            let opt = waterfill_objective(&a, &s, &x);
            let wsum: f64 = w.iter().sum();
            let y: Vec<f64> = w.iter().map(|v| v / wsum * n).collect();
            let other = waterfill_objective(&a, &s, &y);
            prop_assert!(opt <= other + 1e-6 * other.abs().max(1.0));
        }

        /// Capped solution stays feasible and beats random feasible
        /// points, at unit speeds (the capped projection) too.
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
            let x = waterfill(&a, &s, Some(&caps), n);
            let total: f64 = x.iter().sum();
            prop_assert!((total - n).abs() <= 1e-12 * n.max(1.0));
            for j in 0..3 {
                prop_assert!(x[j] >= 0.0 && x[j] <= caps[j]);
            }
            // Compare against the capped projections of a few points.
            let opt = waterfill_objective(&a, &s, &x);
            for split in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]] {
                let y = waterfill(&split.map(|v: f64| -v), &[1.0; 3], Some(&caps), n);
                let other = waterfill_objective(&a, &s, &y);
                prop_assert!(opt <= other + 1e-6 * other.abs().max(1.0),
                    "waterfill {opt} worse than feasible {other}");
            }
        }

        /// Capped KKT optimality: entries strictly inside their bounds
        /// share one marginal cost `λ`, full ones sit at or below it and
        /// empty ones at or above it; the caps and the budget hold
        /// exactly. Some caps are zero, some entries forbidden.
        #[test]
        fn prop_capped_satisfies_kkt(
            a in prop::collection::vec(-20.0f64..20.0, 2..12),
            s_raw in prop::collection::vec(0.5f64..5.0, 2..12),
            caps_raw in prop::collection::vec(0.0f64..10.0, 2..12),
            equal in any::<bool>(),
            forbid in any::<bool>(),
            frac in 0.05f64..1.0,
        ) {
            let m = a.len().min(s_raw.len()).min(caps_raw.len());
            let mut a = a[..m].to_vec();
            if forbid {
                a[0] = f64::INFINITY;
            }
            let s = if equal { vec![s_raw[0]; m] } else { s_raw[..m].to_vec() };
            let caps: Vec<f64> =
                caps_raw[..m].iter().map(|&c| if c < 1.0 { 0.0 } else { c }).collect();
            let usable: f64 = (0..m).filter(|&j| a[j].is_finite()).map(|j| caps[j]).sum();
            prop_assume!(usable > 0.0);
            let n = usable * frac;
            let x = waterfill(&a, &s, Some(&caps), n);
            let total: f64 = x.iter().sum();
            prop_assert!((total - n).abs() <= 1e-12 * n.max(1.0), "{x:?}");
            let scale = 1e-6 * (1.0 + a.iter().filter(|v| v.is_finite()).fold(0.0f64, |m, v| m.max(v.abs())));
            let marginal: Vec<f64> = (0..m).map(|j| a[j] + x[j] / s[j]).collect();
            let inside: Vec<usize> =
                (0..m).filter(|&j| x[j] > 1e-9 && x[j] < caps[j] - 1e-9).collect();
            for j in 0..m {
                prop_assert!(x[j] >= 0.0 && x[j] <= caps[j], "{x:?} over {caps:?}");
                if !a[j].is_finite() {
                    prop_assert_eq!(x[j], 0.0);
                }
            }
            if let Some(&first) = inside.first() {
                let level = marginal[first];
                for j in 0..m {
                    if inside.contains(&j) {
                        prop_assert!((marginal[j] - level).abs() < scale, "{marginal:?}");
                    } else if x[j] <= 1e-9 && caps[j] > 1e-9 {
                        prop_assert!(a[j] >= level - scale, "entry {j} left empty: {x:?}");
                    } else if x[j] >= caps[j] - 1e-9 && caps[j] > 1e-9 {
                        prop_assert!(marginal[j] <= level + scale, "entry {j} overfull: {x:?}");
                    }
                }
            }
        }
    }
}
