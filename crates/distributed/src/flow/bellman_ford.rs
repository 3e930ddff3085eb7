//! Bellman-Ford shortest paths and negative-cycle detection.
//!
//! Used in two places: as the generic shortest-path engine for
//! min-cost-flow (initial potentials, cycle cancelling) and directly by
//! `dlb-distributed` to analyze the *error graph* of Proposition 1.

use crate::flow::FLOW_EPS;

/// A plain weighted directed edge for the standalone graph algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedEdge {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Edge weight (may be negative).
    pub weight: f64,
}

/// Result of a Bellman-Ford run.
#[derive(Debug, Clone)]
pub struct BellmanFordResult {
    /// Tentative distances from the source (`f64::INFINITY` when
    /// unreachable).
    pub dist: Vec<f64>,
    /// Predecessor edge index per node.
    pub pred: Vec<Option<usize>>,
    /// A negative cycle (as a node sequence, first == last) when one is
    /// reachable from the source set.
    pub negative_cycle: Option<Vec<usize>>,
}

/// Runs Bellman-Ford from a virtual super-source connected to all
/// `sources` with zero weight. Detects any negative cycle reachable
/// from the sources.
pub fn bellman_ford(n: usize, edges: &[WeightedEdge], sources: &[usize]) -> BellmanFordResult {
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    for &s in sources {
        dist[s] = 0.0;
    }
    let mut updated_node = None;
    for round in 0..n {
        updated_node = None;
        for (ei, e) in edges.iter().enumerate() {
            if dist[e.from].is_finite() && dist[e.from] + e.weight < dist[e.to] - FLOW_EPS {
                dist[e.to] = dist[e.from] + e.weight;
                pred[e.to] = Some(ei);
                updated_node = Some(e.to);
            }
        }
        if updated_node.is_none() {
            break;
        }
        // An update in round n-1 (0-indexed) implies a negative cycle.
        let _ = round;
    }
    let negative_cycle = updated_node.map(|start| extract_cycle(n, edges, &pred, start));
    BellmanFordResult {
        dist,
        pred,
        negative_cycle,
    }
}

/// Walks predecessors back `n` steps to land inside a cycle, then
/// extracts it (first node repeated at the end).
fn extract_cycle(
    n: usize,
    edges: &[WeightedEdge],
    pred: &[Option<usize>],
    start: usize,
) -> Vec<usize> {
    let mut v = start;
    for _ in 0..n {
        v = edges[pred[v].expect("updated node must have a predecessor")].from;
    }
    let mut cycle = vec![v];
    let mut u = edges[pred[v].expect("cycle node has predecessor")].from;
    while u != v {
        cycle.push(u);
        u = edges[pred[u].expect("cycle node has predecessor")].from;
    }
    cycle.push(v);
    cycle.reverse();
    cycle
}

/// Returns `true` when the graph contains a negative-weight cycle
/// (reachable from anywhere).
pub fn has_negative_cycle(n: usize, edges: &[WeightedEdge]) -> bool {
    let all: Vec<usize> = (0..n).collect();
    bellman_ford(n, edges, &all).negative_cycle.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(from: usize, to: usize, weight: f64) -> WeightedEdge {
        WeightedEdge { from, to, weight }
    }

    /// Total weight of a node cycle (first == last), over the lightest
    /// edge of each hop.
    fn cycle_weight(edges: &[WeightedEdge], cycle: &[usize]) -> f64 {
        let hop = |pair: &[usize]| {
            let parallel = edges.iter().filter(|e| [e.from, e.to] == pair);
            parallel.map(|e| e.weight).fold(f64::INFINITY, f64::min)
        };
        cycle.windows(2).map(hop).sum()
    }

    #[test]
    fn shortest_paths_simple() {
        let edges = vec![e(0, 1, 4.0), e(0, 2, 1.0), e(2, 1, 2.0), e(1, 3, 1.0)];
        let r = bellman_ford(4, &edges, &[0]);
        assert_eq!(r.dist, vec![0.0, 3.0, 1.0, 4.0]);
        assert!(r.negative_cycle.is_none());
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let edges = vec![e(0, 1, 1.0)];
        let r = bellman_ford(3, &edges, &[0]);
        assert!(r.dist[2].is_infinite());
    }

    #[test]
    fn handles_negative_edges_without_cycle() {
        let edges = vec![e(0, 1, 5.0), e(1, 2, -3.0), e(0, 2, 4.0)];
        let r = bellman_ford(3, &edges, &[0]);
        assert_eq!(r.dist[2], 2.0);
        assert!(r.negative_cycle.is_none());
    }

    #[test]
    fn detects_negative_cycle() {
        let edges = vec![e(0, 1, 1.0), e(1, 2, -2.0), e(2, 1, 1.0)];
        let r = bellman_ford(3, &edges, &[0]);
        let cycle = r.negative_cycle.expect("cycle expected");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
        let w = cycle_weight(&edges, &cycle);
        assert!(w < 0.0, "cycle weight {w} should be negative");
    }

    #[test]
    fn no_false_positives_on_zero_cycle() {
        let edges = vec![e(0, 1, 1.0), e(1, 0, -1.0)];
        assert!(!has_negative_cycle(2, &edges));
    }

    #[test]
    fn multi_source() {
        let edges = vec![e(0, 2, 10.0), e(1, 2, 1.0)];
        let r = bellman_ford(3, &edges, &[0, 1]);
        assert_eq!(r.dist[2], 1.0);
    }

    #[test]
    fn negative_cycle_not_reachable_from_source() {
        let edges = vec![e(1, 2, -2.0), e(2, 1, 1.0)];
        let r = bellman_ford(3, &edges, &[0]);
        assert!(r.negative_cycle.is_none());
        assert!(has_negative_cycle(3, &edges));
    }
}
