//! Successive shortest paths min-cost max-flow with Johnson potentials.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::flow::graph::FlowNetwork;
use crate::flow::FLOW_EPS;

/// Outcome of a min-cost max-flow computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Total flow shipped from source to sink.
    pub flow: f64,
    /// Total cost `Σ flow(e)·cost(e)` of the final flow.
    pub cost: f64,
    /// Number of augmenting iterations performed.
    pub iterations: usize,
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes a minimum-cost maximum flow from `s` to `t`, shipping at
/// most `limit` units (use `f64::INFINITY` for the true max flow).
///
/// Requires all *initial* residual edges to have non-negative reduced
/// cost under zero potentials — i.e. no negative-cost forward edges.
/// (All graphs built by this workspace satisfy this; a general graph
/// would need negative-cycle cancelling afterwards.)
///
/// # Panics
/// Panics when a negative-cost forward edge is present.
pub fn min_cost_max_flow(g: &mut FlowNetwork, s: usize, t: usize, limit: f64) -> FlowResult {
    let n = g.len();
    for i in (0..g.edges.len()).step_by(2) {
        assert!(
            g.edges[i].cost >= 0.0 || g.edges[i].cap <= FLOW_EPS,
            "min_cost_max_flow requires non-negative forward costs"
        );
    }
    let mut potential = vec![0.0f64; n];
    let mut total_flow = 0.0;
    let mut iterations = 0usize;

    let mut dist = vec![f64::INFINITY; n];
    let mut pred_edge: Vec<Option<usize>> = vec![None; n];

    while total_flow < limit - FLOW_EPS {
        // Dijkstra on reduced costs.
        dist.iter_mut().for_each(|d| *d = f64::INFINITY);
        pred_edge.iter_mut().for_each(|p| *p = None);
        dist[s] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem { dist: 0.0, node: s });
        while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
            if d > dist[u] + FLOW_EPS {
                continue;
            }
            for &eid in &g.adj[u] {
                let e = &g.edges[eid as usize];
                if e.cap <= FLOW_EPS {
                    continue;
                }
                let v = e.to as usize;
                let reduced = e.cost + potential[u] - potential[v];
                debug_assert!(
                    reduced >= -1e-6,
                    "negative reduced cost {reduced}; potentials inconsistent"
                );
                let nd = d + reduced.max(0.0);
                if nd < dist[v] - FLOW_EPS {
                    dist[v] = nd;
                    pred_edge[v] = Some(eid as usize);
                    heap.push(HeapItem { dist: nd, node: v });
                }
            }
        }
        if !dist[t].is_finite() {
            break; // sink unreachable: max flow reached
        }
        // Update potentials.
        for v in 0..n {
            if dist[v].is_finite() {
                potential[v] += dist[v];
            }
        }
        // Find bottleneck along the augmenting path.
        let mut bottleneck = limit - total_flow;
        let mut v = t;
        while let Some(eid) = pred_edge[v] {
            bottleneck = bottleneck.min(g.edges[eid].cap);
            v = g.edges[eid ^ 1].to as usize;
        }
        if bottleneck <= FLOW_EPS {
            break;
        }
        // Push.
        let mut v = t;
        while let Some(eid) = pred_edge[v] {
            g.push(eid, bottleneck);
            v = g.edges[eid ^ 1].to as usize;
        }
        total_flow += bottleneck;
        iterations += 1;
    }

    FlowResult {
        flow: total_flow,
        cost: g.total_cost(),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut g = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 4.0, 3.0);
        let r = min_cost_max_flow(&mut g, 0, 1, f64::INFINITY);
        assert_eq!(r.flow, 4.0);
        assert_eq!(r.cost, 12.0);
        assert_eq!(g.flow(e), 4.0);
    }

    #[test]
    fn prefers_cheap_path() {
        // Two parallel 0→1 paths: direct cost 5, via 2 cost 1+1=2.
        let mut g = FlowNetwork::new(3);
        let direct = g.add_edge(0, 1, 10.0, 5.0);
        let a = g.add_edge(0, 2, 3.0, 1.0);
        let b = g.add_edge(2, 1, 3.0, 1.0);
        let r = min_cost_max_flow(&mut g, 0, 1, 5.0);
        assert_eq!(r.flow, 5.0);
        // 3 units via cheap path (cost 6), 2 direct (cost 10).
        assert_eq!(g.flow(a), 3.0);
        assert_eq!(g.flow(b), 3.0);
        assert_eq!(g.flow(direct), 2.0);
        assert!((r.cost - 16.0).abs() < 1e-9);
    }

    #[test]
    fn respects_limit() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, 100.0, 1.0);
        let r = min_cost_max_flow(&mut g, 0, 1, 7.5);
        assert_eq!(r.flow, 7.5);
        assert!((r.cost - 7.5).abs() < 1e-9);
    }

    #[test]
    fn max_flow_value_on_classic_graph() {
        // CLRS-style example with min cut 23.
        let mut g = FlowNetwork::new(6);
        g.add_edge(0, 1, 16.0, 0.0);
        g.add_edge(0, 2, 13.0, 0.0);
        g.add_edge(1, 2, 10.0, 0.0);
        g.add_edge(2, 1, 4.0, 0.0);
        g.add_edge(1, 3, 12.0, 0.0);
        g.add_edge(3, 2, 9.0, 0.0);
        g.add_edge(2, 4, 14.0, 0.0);
        g.add_edge(4, 3, 7.0, 0.0);
        g.add_edge(3, 5, 20.0, 0.0);
        g.add_edge(4, 5, 4.0, 0.0);
        let r = min_cost_max_flow(&mut g, 0, 5, f64::INFINITY);
        assert!((r.flow - 23.0).abs() < 1e-9);
        g.check_conservation(&[0, 5]).unwrap();
    }

    #[test]
    fn min_cost_assignment_like_graph() {
        // Bipartite: 2 sources, 2 sinks via a transport layer.
        // Supplies: s→a (2 units), s→b (2). Demands: x→t (2), y→t (2).
        // Costs: a→x 1, a→y 10, b→x 10, b→y 1: optimum routes straight.
        let (s, a, b, x, y, t) = (0, 1, 2, 3, 4, 5);
        let mut g = FlowNetwork::new(6);
        g.add_edge(s, a, 2.0, 0.0);
        g.add_edge(s, b, 2.0, 0.0);
        let ax = g.add_edge(a, x, f64::INFINITY, 1.0);
        let ay = g.add_edge(a, y, f64::INFINITY, 10.0);
        let bx = g.add_edge(b, x, f64::INFINITY, 10.0);
        let by = g.add_edge(b, y, f64::INFINITY, 1.0);
        g.add_edge(x, t, 2.0, 0.0);
        g.add_edge(y, t, 2.0, 0.0);
        let r = min_cost_max_flow(&mut g, s, t, f64::INFINITY);
        assert!((r.flow - 4.0).abs() < 1e-9);
        assert!((r.cost - 4.0).abs() < 1e-9);
        assert_eq!(g.flow(ax), 2.0);
        assert_eq!(g.flow(by), 2.0);
        assert_eq!(g.flow(ay), 0.0);
        assert_eq!(g.flow(bx), 0.0);
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 5.0, 1.0);
        let r = min_cost_max_flow(&mut g, 0, 2, f64::INFINITY);
        assert_eq!(r.flow, 0.0);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn fractional_capacities() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 0.75, 2.0);
        g.add_edge(1, 2, 0.5, 1.0);
        let r = min_cost_max_flow(&mut g, 0, 2, f64::INFINITY);
        assert!((r.flow - 0.5).abs() < 1e-9);
        assert!((r.cost - 1.5).abs() < 1e-9);
    }
}
