//! Bellman–Ford negative-cycle detection: whether the error graph of
//! Proposition 1 has a negative cycle
//! ([`crate::error_graph::ErrorGraph::has_negative_cycle`]).

use crate::flow::FLOW_EPS;

/// A weighted directed edge of the graph [`has_negative_cycle`] reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedEdge {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Edge weight (may be negative).
    pub weight: f64,
}

/// Returns `true` when the graph contains a negative-weight cycle
/// (reachable from anywhere). A cycle through a `−∞` edge `u → v` is
/// one exactly when `u` is reachable from `v` (over edges below `+∞`;
/// `+∞` and `NaN` edges never relax). For the other edges every node
/// starts at distance 0, each of `n` passes relaxes them in order (by
/// more than [`FLOW_EPS`]), and a cycle exists exactly when the `n`-th
/// pass still relaxes an edge.
pub fn has_negative_cycle(n: usize, edges: &[WeightedEdge]) -> bool {
    let (unbounded, finite): (Vec<&WeightedEdge>, Vec<_>) =
        edges.iter().partition(|e| e.weight == f64::NEG_INFINITY);
    if unbounded.iter().any(|e| reaches(n, edges, e.to, e.from)) {
        return true;
    }
    let mut dist = vec![0.0f64; n];
    n > 0
        && (0..n).all(|_| {
            let mut relaxed = false;
            for e in &finite {
                if dist[e.from] + e.weight < dist[e.to] - FLOW_EPS {
                    dist[e.to] = dist[e.from] + e.weight;
                    relaxed = true;
                }
            }
            relaxed
        })
}

/// Whether `to` is reachable from `from` over edges below `+∞`.
fn reaches(n: usize, edges: &[WeightedEdge], from: usize, to: usize) -> bool {
    let mut seen = vec![false; n];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(u) = stack.pop() {
        if u == to {
            return true;
        }
        for e in edges {
            if e.from == u && e.weight < f64::INFINITY && !seen[e.to] {
                seen[e.to] = true;
                stack.push(e.to);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(from: usize, to: usize, weight: f64) -> WeightedEdge {
        WeightedEdge { from, to, weight }
    }

    #[test]
    fn handles_negative_edges_without_cycle() {
        let edges = vec![e(0, 1, 5.0), e(1, 2, -3.0), e(0, 2, 4.0)];
        assert!(!has_negative_cycle(3, &edges));
    }

    #[test]
    fn detects_negative_cycle() {
        let edges = vec![e(0, 1, 1.0), e(1, 2, -2.0), e(2, 1, 1.0)];
        assert!(has_negative_cycle(3, &edges));
    }

    #[test]
    fn no_false_positives_on_zero_cycle() {
        let edges = vec![e(0, 1, 1.0), e(1, 0, -1.0)];
        assert!(!has_negative_cycle(2, &edges));
    }

    #[test]
    fn a_cycle_within_flow_eps_of_zero_is_not_negative() {
        let edges = vec![e(0, 1, 1.0), e(1, 0, -1.0 - 1e-12)];
        assert!(!has_negative_cycle(2, &edges));
    }

    #[test]
    fn a_minus_infinity_self_loop_is_negative_whatever_the_node_count() {
        for n in 1..=3 {
            assert!(
                has_negative_cycle(n, &[e(0, 0, f64::NEG_INFINITY)]),
                "n={n}"
            );
        }
    }

    #[test]
    fn a_cycle_through_a_minus_infinity_edge_is_negative() {
        let edges = vec![e(0, 1, f64::NEG_INFINITY), e(1, 0, 1.0)];
        assert!(has_negative_cycle(2, &edges));
        // Not a cycle: nothing leads back from 1 to 0, or only over
        // a `+∞` edge, which never relaxes.
        assert!(!has_negative_cycle(2, &[e(0, 1, f64::NEG_INFINITY)]));
        let edges = vec![e(0, 1, f64::NEG_INFINITY), e(1, 0, f64::INFINITY)];
        assert!(!has_negative_cycle(2, &edges));
    }

    #[test]
    fn a_cycle_unreachable_from_node_0_counts() {
        let edges = vec![e(1, 2, -2.0), e(2, 1, 1.0)];
        assert!(has_negative_cycle(3, &edges));
    }
}
