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
/// (reachable from anywhere): every node starts at distance 0, each of
/// `n` passes relaxes the edges in order (from a finite distance only,
/// by more than [`FLOW_EPS`]), and a cycle exists exactly when the
/// `n`-th pass still relaxes an edge.
pub fn has_negative_cycle(n: usize, edges: &[WeightedEdge]) -> bool {
    let mut dist = vec![0.0f64; n];
    n > 0
        && (0..n).all(|_| {
            let mut relaxed = false;
            for e in edges {
                if dist[e.from].is_finite() && dist[e.from] + e.weight < dist[e.to] - FLOW_EPS {
                    dist[e.to] = dist[e.from] + e.weight;
                    relaxed = true;
                }
            }
            relaxed
        })
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
    fn a_cycle_unreachable_from_node_0_counts() {
        let edges = vec![e(1, 2, -2.0), e(2, 1, 1.0)];
        assert!(has_negative_cycle(3, &edges));
    }
}
