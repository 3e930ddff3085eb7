//! Trust-restricted relay graphs.
//!
//! The paper notes (§II) that setting some latencies to infinity
//! restricts each organization to relaying only to a trusted subset of
//! servers. This module derives such restrictions from an existing
//! latency matrix.

use dlb_core::LatencyMatrix;

/// Keeps, for every organization, only the `k` lowest-latency outgoing
/// links (plus the self-loop); all other entries become infinite.
///
/// The result models a trust/neighborhood relation such as CoralCDN's
/// constrained-RTT clustering. Note the outcome is generally asymmetric
/// even for symmetric inputs.
pub fn restrict_to_k_nearest(lat: &LatencyMatrix, k: usize) -> LatencyMatrix {
    let m = lat.len();
    let mut out = LatencyMatrix::zero(m);
    let mut order: Vec<usize> = Vec::with_capacity(m);
    for i in 0..m {
        order.clear();
        order.extend((0..m).filter(|&j| j != i));
        order.sort_by(|&a, &b| {
            lat.get(i, a)
                .partial_cmp(&lat.get(i, b))
                .expect("latencies are not NaN")
        });
        for (rank, &j) in order.iter().enumerate() {
            let v = if rank < k {
                lat.get(i, j)
            } else {
                f64::INFINITY
            };
            out.set(i, j, v);
        }
    }
    out
}

/// Applies an explicit allow-list: `allowed[i]` are the servers
/// organization `i` may relay to (itself is always allowed).
pub fn restrict_to_neighbors(lat: &LatencyMatrix, allowed: &[Vec<usize>]) -> LatencyMatrix {
    let m = lat.len();
    assert_eq!(allowed.len(), m, "one allow-list per organization");
    let mut out = LatencyMatrix::zero(m);
    for i in 0..m {
        for j in 0..m {
            if i == j {
                continue;
            }
            let v = if allowed[i].contains(&j) {
                lat.get(i, j)
            } else {
                f64::INFINITY
            };
            out.set(i, j, v);
        }
    }
    out
}

/// Number of finite outgoing links of organization `i` (excluding the
/// self-loop).
pub fn out_degree(lat: &LatencyMatrix, i: usize) -> usize {
    (0..lat.len())
        .filter(|&j| j != i && lat.get(i, j).is_finite())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean;

    #[test]
    fn k_nearest_keeps_exactly_k() {
        let lat = euclidean::generate(12, 3);
        let r = restrict_to_k_nearest(&lat, 4);
        for i in 0..12 {
            assert_eq!(out_degree(&r, i), 4);
        }
    }

    #[test]
    fn k_nearest_keeps_the_nearest() {
        let lat = euclidean::generate(10, 5);
        let r = restrict_to_k_nearest(&lat, 3);
        for i in 0..10 {
            let mut kept: Vec<f64> = (0..10)
                .filter(|&j| j != i && r.get(i, j).is_finite())
                .map(|j| lat.get(i, j))
                .collect();
            let mut dropped: Vec<f64> = (0..10)
                .filter(|&j| j != i && !r.get(i, j).is_finite())
                .map(|j| lat.get(i, j))
                .collect();
            kept.sort_by(|a, b| a.partial_cmp(b).unwrap());
            dropped.sort_by(|a, b| a.partial_cmp(b).unwrap());
            if let (Some(&worst_kept), Some(&best_dropped)) = (kept.last(), dropped.first()) {
                assert!(worst_kept <= best_dropped + 1e-12);
            }
        }
    }

    #[test]
    fn k_larger_than_m_keeps_all() {
        let lat = euclidean::generate(5, 1);
        let r = restrict_to_k_nearest(&lat, 50);
        assert!(r.is_complete());
    }

    #[test]
    fn explicit_neighbors() {
        let lat = LatencyMatrix::homogeneous(3, 10.0);
        let r = restrict_to_neighbors(&lat, &[vec![1], vec![0, 2], vec![]]);
        assert_eq!(r.get(0, 1), 10.0);
        assert!(r.get(0, 2).is_infinite());
        assert_eq!(r.get(1, 0), 10.0);
        assert_eq!(r.get(1, 2), 10.0);
        assert!(r.get(2, 0).is_infinite());
        assert!(r.get(2, 1).is_infinite());
        assert_eq!(r.get(2, 2), 0.0);
    }
}
