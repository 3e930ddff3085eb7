//! Nearest-k candidate queries over a latency matrix.
//!
//! The §IV protocol's per-node partner scan is O(m); at 100k nodes the
//! runtime instead restricts each node to its `k` nearest peers by
//! network delay (plus a gossiped hot set — see `dlb-runtime`). This
//! module answers the static half of that question: *which `k` peers
//! are delay-closest to node `i`?*
//!
//! Results are deterministic: ties break toward the smaller node id,
//! and the returned list is sorted ascending by id, so downstream
//! merges are order-independent regardless of thread count.

use dlb_core::LatencyMatrix;
use std::ops::Range;

/// The `k` delay-nearest peers of node `i` (excluding `i` itself and
/// unreachable peers with infinite latency), as a list of node ids
/// **sorted ascending by id**. Returns fewer than `k` ids when fewer
/// reachable peers exist. Ties on latency break toward the smaller id.
///
/// On a finite homogeneous matrix the list is [`k_nearest_wheel`]'s.
pub fn k_nearest_row(lat: &LatencyMatrix, i: usize, k: usize) -> Vec<u32> {
    let m = lat.len();
    assert!(i < m, "node {i} out of range for {m} nodes");
    if let Some([wrapped, ahead]) = k_nearest_wheel(lat, i, k) {
        return wrapped.chain(ahead).collect();
    }
    if k == 0 || m <= 1 {
        return Vec::new();
    }
    let k = k.min(m - 1);
    let mut ranked: Vec<(f64, u32)> = (0..m)
        .filter(|&j| j != i)
        .map(|j| (lat.get(i, j), j as u32))
        .filter(|(c, _)| c.is_finite())
        .collect();
    if ranked.len() > k {
        ranked.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        ranked.truncate(k);
    }
    let mut ids: Vec<u32> = ranked.into_iter().map(|(_, j)| j).collect();
    ids.sort_unstable();
    ids
}

/// The homogeneous fast path of [`k_nearest_row`], or `None` unless every
/// latency of `lat` is one finite value. Every peer is then equidistant,
/// so the tie-break alone would always pick ids `0..k` — a degenerate
/// star around the low ids. Instead node `i` takes its `k` *wheel
/// successors* `i+1, …, i+k (mod m)`: equally valid under the metric,
/// and spreading candidate edges evenly so every node appears in ~k
/// candidate sets. They are returned as two ascending id ranges, the
/// wrapped one (`0..=i+k−m`, empty unless the wheel wraps) first, so a
/// caller can walk them in id order without storing them.
pub fn k_nearest_wheel(lat: &LatencyMatrix, i: usize, k: usize) -> Option<[Range<u32>; 2]> {
    let m = lat.len();
    assert!(i < m, "node {i} out of range for {m} nodes");
    lat.homogeneous_value().filter(|c| c.is_finite())?;
    let end = i + 1 + k.min(m.saturating_sub(1));
    let wrapped = end.saturating_sub(m) as u32;
    Some([0..wrapped, (i + 1) as u32..end.min(m) as u32])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_matrix(m: usize) -> LatencyMatrix {
        // Nodes on a line: c_ij = |i - j| * 10.
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, (i as f64 - j as f64).abs() * 10.0);
                }
            }
        }
        lat
    }

    #[test]
    fn picks_metric_neighbors_on_a_line() {
        let lat = line_matrix(7);
        assert_eq!(k_nearest_row(&lat, 3, 2), vec![2, 4]);
        assert_eq!(k_nearest_row(&lat, 0, 3), vec![1, 2, 3]);
        assert_eq!(k_nearest_row(&lat, 6, 2), vec![4, 5]);
    }

    #[test]
    fn homogeneous_wheel_spreads_candidates() {
        let lat = LatencyMatrix::homogeneous(6, 20.0);
        assert_eq!(k_nearest_row(&lat, 0, 2), vec![1, 2]);
        assert_eq!(k_nearest_row(&lat, 4, 3), vec![0, 1, 5]);
        // wraps: successors of 5 are 0,1
        assert_eq!(k_nearest_row(&lat, 5, 2), vec![0, 1]);
    }

    #[test]
    fn wheel_is_two_ascending_ranges() {
        let lat = LatencyMatrix::homogeneous(6, 20.0);
        assert_eq!(k_nearest_wheel(&lat, 1, 3), Some([0..0, 2..5]));
        assert_eq!(k_nearest_wheel(&lat, 4, 3), Some([0..2, 5..6]));
        assert_eq!(k_nearest_wheel(&lat, 5, 9), Some([0..5, 6..6]));
        assert_eq!(k_nearest_wheel(&lat, 2, 0), Some([0..0, 3..3]));
        let single = LatencyMatrix::homogeneous(1, 20.0);
        assert_eq!(k_nearest_wheel(&single, 0, 5), Some([0..0, 1..1]));
        let unreachable = LatencyMatrix::homogeneous(6, f64::INFINITY);
        assert_eq!(k_nearest_wheel(&unreachable, 0, 2), None);
        assert!(k_nearest_row(&unreachable, 0, 2).is_empty());
        assert_eq!(k_nearest_wheel(&line_matrix(6), 0, 2), None);
    }

    #[test]
    fn k_saturates_and_zero_is_empty() {
        let lat = line_matrix(4);
        assert_eq!(k_nearest_row(&lat, 1, 99), vec![0, 2, 3]);
        assert!(k_nearest_row(&lat, 1, 0).is_empty());
        let single = LatencyMatrix::zero(1);
        assert!(k_nearest_row(&single, 0, 5).is_empty());
    }

    #[test]
    fn skips_unreachable_peers() {
        let mut lat = line_matrix(4);
        lat.set(1, 0, f64::INFINITY);
        assert_eq!(k_nearest_row(&lat, 1, 3), vec![2, 3]);
    }

    #[test]
    fn latency_ties_break_toward_small_id() {
        let mut lat = LatencyMatrix::zero(5);
        for j in 1..5 {
            lat.set(0, j, 10.0); // all equidistant from 0 (dense, not homog)
        }
        lat.set(3, 0, 1.0); // make matrix non-uniform overall
        assert_eq!(k_nearest_row(&lat, 0, 2), vec![1, 2]);
    }
}
