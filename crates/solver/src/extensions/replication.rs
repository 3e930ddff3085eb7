//! R-replication: placing R copies of each task at distinct servers.
//!
//! The cap `ρ_ij ≤ 1/R` is enforced on the fractional solution by the
//! solver itself: `solve_bcd` with caps `n_i/R` solves every row
//! exactly on the capped simplex, so its rows need no clean-up. Then
//! `π_j = R·ρ_ij` is a valid inclusion-probability vector
//! (`0 ≤ π_j ≤ 1`, `Σ_j π_j = R`). Madow's systematic sampling draws
//! exactly `R` *distinct* servers whose inclusion marginals are exactly
//! `π` — so the expected number of copies of each task placed on server
//! `j` is `R·ρ_ij`, matching the paper's §VII interpretation.

use rand::Rng;

/// Draws `r` distinct servers for one task given the task owner's
/// fraction row `rho` (must satisfy `ρ_j ≤ 1/r` and `Σ ρ_j = 1`, both
/// up to `1e-6`).
///
/// # Panics
/// Panics when the fraction row violates the cap or does not sum to 1.
pub fn place_replicas<R: Rng + ?Sized>(rho: &[f64], r: usize, rng: &mut R) -> Vec<usize> {
    assert!(r >= 1, "need at least one replica");
    assert!(r <= rho.len(), "more replicas than servers");
    let sum: f64 = rho.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "fractions must sum to 1 (got {sum})"
    );
    let cap = 1.0 / r as f64 + 1e-9;
    for (j, &f) in rho.iter().enumerate() {
        assert!(f >= -1e-12, "negative fraction at {j}");
        assert!(
            f <= cap,
            "fraction ρ_{j} = {f} violates the 1/R = {} cap",
            1.0 / r as f64
        );
    }
    // Madow systematic sampling on π = R·ρ.
    let u: f64 = rng.gen::<f64>();
    let mut picks = Vec::with_capacity(r);
    let mut cumulative = 0.0;
    let mut next_point = u; // points u, u+1, ..., u+R-1
    for (j, &f) in rho.iter().enumerate() {
        let pi = f * r as f64;
        let upper = cumulative + pi;
        while next_point < upper - 1e-15 && picks.len() < r {
            picks.push(j);
            next_point += 1.0;
        }
        cumulative = upper;
    }
    // Numerical tail: if rounding starved the last pick(s), take the
    // largest-π unpicked servers.
    while picks.len() < r {
        let missing = (0..rho.len())
            .filter(|j| !picks.contains(j))
            .max_by(|&a, &b| rho[a].partial_cmp(&rho[b]).expect("comparable"))
            .expect("enough servers for r replicas");
        picks.push(missing);
    }
    debug_assert_eq!(picks.len(), r);
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waterfill::waterfill;
    use dlb_core::rngutil::rng_for;

    /// The nearest row to `rho` with every fraction at most `1/r`: the
    /// capped water-filling projection (`a = −ρ`, unit speeds).
    fn capped(rho: &[f64], r: usize) -> Vec<f64> {
        let cost: Vec<f64> = rho.iter().map(|f| -f).collect();
        let caps = vec![1.0 / r as f64; rho.len()];
        waterfill(&cost, &vec![1.0; rho.len()], Some(&caps), 1.0)
    }

    #[test]
    fn picks_exactly_r_distinct() {
        let mut rng = rng_for(1, 0);
        let rho = vec![0.25; 4];
        for r in 1..=4 {
            let rho_r = capped(&rho, r);
            let picks = place_replicas(&rho_r, r, &mut rng);
            assert_eq!(picks.len(), r);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), r, "picks must be distinct: {picks:?}");
        }
    }

    #[test]
    fn marginals_match_r_rho() {
        let mut rng = rng_for(2, 0);
        let rho = vec![0.4, 0.3, 0.2, 0.1];
        let r = 2;
        let trials = 40_000;
        let mut counts = [0usize; 4];
        for _ in 0..trials {
            for j in place_replicas(&rho, r, &mut rng) {
                counts[j] += 1;
            }
        }
        for j in 0..4 {
            let empirical = counts[j] as f64 / trials as f64;
            let expected = rho[j] * r as f64;
            assert!(
                (empirical - expected).abs() < 0.02,
                "server {j}: {empirical} vs {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn rejects_cap_violation() {
        let mut rng = rng_for(3, 0);
        // ρ_0 = 0.8 > 1/2
        place_replicas(&[0.8, 0.1, 0.1], 2, &mut rng);
    }

    #[test]
    fn r_equals_one_is_plain_sampling() {
        let mut rng = rng_for(4, 0);
        let rho = vec![0.7, 0.3];
        let mut count0 = 0;
        for _ in 0..20_000 {
            if place_replicas(&rho, 1, &mut rng)[0] == 0 {
                count0 += 1;
            }
        }
        let p = count0 as f64 / 20_000.0;
        assert!((p - 0.7).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn capped_projection_is_a_replica_distribution() {
        let rho = capped(&[0.9, 0.05, 0.03, 0.02], 2);
        let sum: f64 = rho.iter().sum();
        assert!((sum - 1.0).abs() <= 1e-12);
        assert!(rho.iter().all(|&f| (0.0..=0.5).contains(&f)), "{rho:?}");
        let picks = place_replicas(&rho, 2, &mut rng_for(5, 0));
        assert_ne!(picks[0], picks[1]);
    }

    #[test]
    fn capped_projection_keeps_a_feasible_row() {
        let rho = vec![0.3, 0.3, 0.4];
        for (a, b) in capped(&rho, 2).iter().zip(&rho) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
