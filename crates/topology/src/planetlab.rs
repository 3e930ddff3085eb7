//! A synthetic PlanetLab-like latency generator.
//!
//! The paper's heterogeneous experiments use RTT measurements between
//! PlanetLab nodes from the iPlane dataset (footnote 2), with missing
//! pairs completed by shortest-path distances (footnote 3). The dataset
//! is not redistributable, so this module synthesizes matrices with the
//! same qualitative statistics:
//!
//! * nodes concentrated in geographic *sites* (universities/ISPs),
//!   producing a bimodal latency distribution — a few ms within a site,
//!   tens to hundreds of ms across sites;
//! * multiplicative per-pair jitter and mild asymmetry (real RTT matrices
//!   are not exactly symmetric);
//! * a fixed fraction of *missing measurements*, which are then
//!   filled in by the same Floyd-Warshall completion the paper applied.

use dlb_core::rngutil::rng_for;
use dlb_core::LatencyMatrix;
use rand::Rng;

/// Number of geographic sites the servers cluster into: `⌈0.85·m⌉`.
/// PlanetLab deployments host one or two nodes per institution, so in
/// a random sample of `m` nodes almost every node sits at its own site
/// and only a small minority shares a LAN with another sampled node.
/// (A small fixed count instead yields densely co-located clusters
/// whose near-free intra-site relaying has no real-world counterpart
/// and visibly distorts the convergence and selfishness experiments.)
fn site_count(m: usize) -> usize {
    ((m as f64 * 0.85).ceil() as usize).max(1)
}

/// Side of the square (in one-way ms) the site centers occupy; 150 ms
/// spans roughly a continental/intercontinental mix.
const WORLD_SIDE_MS: f64 = 150.0;
/// Standard deviation of a node's offset from its site center (ms).
const SITE_SPREAD_MS: f64 = 2.0;
/// Minimum latency between distinct nodes of the same site (ms).
const LOCAL_FLOOR_MS: f64 = 0.5;
/// Multiplicative jitter: each pair's latency is scaled by
/// `1 + U(-JITTER, +JITTER)`.
const JITTER: f64 = 0.15;
/// Extra per-direction asymmetry: each direction additionally scaled
/// by `1 + U(0, ASYMMETRY)`.
const ASYMMETRY: f64 = 0.05;
/// Fraction of pairs whose measurement is "missing" and must be
/// recovered through shortest paths.
const MISSING_FRACTION: f64 = 0.2;

/// Generates an `m × m` latency matrix. The result is complete (every
/// pair finite) and metric-closed, matching the preprocessing the
/// paper applied to the iPlane data.
pub fn generate(m: usize, seed: u64) -> LatencyMatrix {
    let sites = site_count(m);
    let mut rng = rng_for(seed, 0x91A7);

    // Site centers.
    let centers: Vec<(f64, f64)> = (0..sites)
        .map(|_| {
            (
                rng.gen_range(0.0..=WORLD_SIDE_MS),
                rng.gen_range(0.0..=WORLD_SIDE_MS),
            )
        })
        .collect();
    // Node placement: round-robin over sites keeps sites non-empty.
    let points: Vec<(f64, f64)> = (0..m)
        .map(|i| {
            let c = centers[i % sites];
            let dx = rng.gen_range(-1.0..=1.0) * SITE_SPREAD_MS;
            let dy = rng.gen_range(-1.0..=1.0) * SITE_SPREAD_MS;
            (c.0 + dx, c.1 + dy)
        })
        .collect();

    let mut rows = vec![0.0; m * m];
    for i in 0..m {
        for j in (i + 1)..m {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            let d = (dx * dx + dy * dy).sqrt().max(LOCAL_FLOOR_MS);
            let jit = 1.0 + rng.gen_range(-JITTER..=JITTER);
            let base = d * jit;
            let fwd = base * (1.0 + rng.gen_range(0.0..=ASYMMETRY));
            let bwd = base * (1.0 + rng.gen_range(0.0..=ASYMMETRY));
            rows[i * m + j] = fwd;
            rows[j * m + i] = bwd;
        }
    }

    // Knock out measurements, then recover them with shortest paths
    // (paper footnote 3). A random Hamiltonian cycle is kept intact so
    // the measurement graph stays connected.
    let mut order: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut protected = vec![false; m * m];
    for w in 0..m {
        let a = order[w];
        let b = order[(w + 1) % m];
        if a != b {
            protected[a * m + b] = true;
            protected[b * m + a] = true;
        }
    }
    for i in 0..m {
        for j in 0..m {
            if i != j && !protected[i * m + j] && rng.gen::<f64>() < MISSING_FRACTION {
                rows[i * m + j] = f64::INFINITY;
            }
        }
    }
    if m < 2 {
        return LatencyMatrix::zero(m); // no pair: the compact zero matrix
    }
    let mut lat = LatencyMatrix::from_rows(m, rows);
    lat.metric_close();
    debug_assert!(lat.is_complete());
    lat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_complete_metric_matrix() {
        let lat = generate(40, 11);
        assert!(lat.is_complete());
        assert!(lat.is_metric(1e-9));
        for i in 0..40 {
            assert_eq!(lat.get(i, i), 0.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(25, 5), generate(25, 5));
        assert_ne!(generate(25, 5), generate(25, 6));
    }

    #[test]
    fn latencies_are_heterogeneous_and_ms_scale() {
        let lat = generate(60, 3);
        let mean = lat.mean_latency();
        let max = lat.max_latency();
        assert!(mean > 5.0, "mean {mean} too small for a world-scale matrix");
        assert!(max < 1000.0, "max {max} unrealistically large");
        // heterogeneity: max should clearly exceed the mean
        assert!(
            max > 2.0 * mean,
            "matrix looks homogeneous: mean={mean} max={max}"
        );
    }

    #[test]
    fn same_site_pairs_are_fast() {
        // Round-robin placement puts i and i + sites at one site: at
        // m = 100 that is 15 pairs among 85 sites. A knocked-out
        // direction is recovered through another site, so judge the
        // median, not every pair.
        let m = 100;
        let sites = site_count(m);
        let lat = generate(m, 9);
        let mut same_site = Vec::new();
        for i in 0..m {
            for j in 0..m {
                if i != j && i % sites == j % sites {
                    same_site.push(lat.get(i, j));
                }
            }
        }
        assert_eq!(same_site.len(), 2 * (m - sites));
        same_site.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = same_site[same_site.len() / 2];
        assert!(
            median < 10.0,
            "same-site median latency {median} should be small"
        );
    }

    #[test]
    fn auto_sites_keeps_pairs_distant() {
        // With the default auto site count, the typical pair must be
        // WAN-distant: the median latency should be tens of ms, unlike
        // a densely co-located cluster.
        let lat = generate(50, 7);
        let mut vals = Vec::new();
        for i in 0..50 {
            for j in 0..50 {
                if i != j {
                    vals.push(lat.get(i, j));
                }
            }
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        assert!(
            median > 20.0,
            "median latency {median} too small — nodes too clustered"
        );
    }

    #[test]
    fn asymmetry_is_mild_but_present() {
        // A handful of pairs may become strongly asymmetric when one
        // direction's measurement is knocked out and recovered via a
        // detour (the same artifact real iPlane completion shows), so we
        // check the *median* ratio, not the max.
        let lat = generate(30, 17);
        let mut ratios = Vec::new();
        let mut any_asymmetric = false;
        for i in 0..30 {
            for j in 0..30 {
                if i < j {
                    let a = lat.get(i, j);
                    let b = lat.get(j, i);
                    ratios.push(a.max(b) / a.min(b));
                    if (a - b).abs() > 1e-9 {
                        any_asymmetric = true;
                    }
                }
            }
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        assert!(median < 1.2, "median asymmetry ratio {median} too strong");
        assert!(any_asymmetric, "expected some asymmetry");
    }
}
