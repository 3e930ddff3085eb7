#![cfg(test)]
//! Negative-cycle cancelling on residual graphs.
//!
//! Given *any* feasible flow, repeatedly finding a negative-cost cycle
//! in the residual graph and saturating it yields a minimum-cost flow of
//! the same value (Klein's algorithm). The paper's Appendix uses exactly
//! this idea: a "negative cycle" of relayed requests can be dismantled
//! without changing any server's load, strictly reducing communication
//! time.
//!
//! Nothing in the product calls it — the Appendix reduction runs on
//! [`ssp`](super::ssp) — so it is compiled for tests only, as the
//! independent algorithm the flow tests judge `ssp` by.

use crate::flow::graph::FlowNetwork;
use crate::flow::FLOW_EPS;

/// Result of a cycle-cancelling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CancelResult {
    /// Number of cycles cancelled.
    pub cycles_cancelled: usize,
    /// Total cost reduction achieved (non-negative).
    pub cost_reduction: f64,
}

/// Cancels negative-cost residual cycles until none remain (up to
/// `max_cycles` as a safety valve; the fractional problems here converge
/// in far fewer).
pub fn cancel_negative_cycles(g: &mut FlowNetwork, max_cycles: usize) -> CancelResult {
    let before = g.total_cost();
    let mut cancelled = 0usize;
    while cancelled < max_cycles {
        match find_negative_cycle(g) {
            Some(cycle_edges) => {
                let bottleneck = cycle_edges
                    .iter()
                    .map(|&e| g.edges[e].cap)
                    .fold(f64::INFINITY, f64::min);
                if bottleneck <= FLOW_EPS {
                    break;
                }
                for &e in &cycle_edges {
                    g.push(e, bottleneck);
                }
                cancelled += 1;
            }
            None => break,
        }
    }
    CancelResult {
        cycles_cancelled: cancelled,
        cost_reduction: before - g.total_cost(),
    }
}

/// Finds a negative-cost cycle in the residual graph and returns the
/// residual-edge indices along it, or `None`.
pub fn find_negative_cycle(g: &FlowNetwork) -> Option<Vec<usize>> {
    let n = g.len();
    // Bellman-Ford over residual edges from a virtual source attached to
    // every node (dist 0 everywhere).
    let mut dist = vec![0.0f64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut last_updated = None;
    for _round in 0..n {
        last_updated = None;
        for (eid, e) in g.edges.iter().enumerate() {
            if e.cap <= FLOW_EPS {
                continue;
            }
            let u = g.edges[eid ^ 1].to as usize;
            let v = e.to as usize;
            if dist[u] + e.cost < dist[v] - FLOW_EPS {
                dist[v] = dist[u] + e.cost;
                pred[v] = Some(eid);
                last_updated = Some(v);
            }
        }
        last_updated?;
    }
    let start = last_updated?;
    // Walk back n steps to guarantee we are on the cycle.
    let mut v = start;
    for _ in 0..n {
        let eid = pred[v]?;
        v = g.edges[eid ^ 1].to as usize;
    }
    // Extract edge ids around the cycle.
    let mut edges = Vec::new();
    let cycle_node = v;
    loop {
        let eid = pred[v].expect("cycle nodes have predecessors");
        edges.push(eid);
        v = g.edges[eid ^ 1].to as usize;
        if v == cycle_node {
            break;
        }
    }
    edges.reverse();
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a triangle with a deliberately suboptimal feasible flow:
    /// 1 unit shipped 0→1→2 (cost 10 each) while a direct 0→2 edge of
    /// cost 1 sits idle. The residual graph then contains the negative
    /// cycle 0→2 (cost 1), 2→1 reverse (-10), 1→0 reverse (-10).
    fn suboptimal_triangle() -> (
        FlowNetwork,
        crate::flow::EdgeId,
        crate::flow::EdgeId,
        crate::flow::EdgeId,
    ) {
        let mut g = FlowNetwork::new(3);
        let e01 = g.add_edge(0, 1, 1.0, 10.0);
        let e12 = g.add_edge(1, 2, 1.0, 10.0);
        let e02 = g.add_edge(0, 2, 1.0, 1.0);
        g.push(e01.0, 1.0);
        g.push(e12.0, 1.0);
        (g, e01, e12, e02)
    }

    #[test]
    fn finds_and_cancels_cycle() {
        let (mut g, e01, e12, e02) = suboptimal_triangle();
        assert_eq!(g.total_cost(), 20.0);
        assert!(find_negative_cycle(&g).is_some());
        let r = cancel_negative_cycles(&mut g, 100);
        assert_eq!(r.cycles_cancelled, 1);
        assert!((r.cost_reduction - 19.0).abs() < 1e-9);
        assert_eq!(g.flow(e01), 0.0);
        assert_eq!(g.flow(e12), 0.0);
        assert_eq!(g.flow(e02), 1.0);
        assert!(find_negative_cycle(&g).is_none());
    }

    #[test]
    fn optimal_flow_has_no_negative_cycle() {
        let mut g = FlowNetwork::new(3);
        let e = g.add_edge(0, 2, 1.0, 1.0);
        g.add_edge(0, 1, 1.0, 10.0);
        g.add_edge(1, 2, 1.0, 10.0);
        g.push(e.0, 1.0);
        assert!(find_negative_cycle(&g).is_none());
        let r = cancel_negative_cycles(&mut g, 10);
        assert_eq!(r.cycles_cancelled, 0);
        assert_eq!(r.cost_reduction, 0.0);
    }

    #[test]
    fn cancelling_preserves_node_balance() {
        let (mut g, ..) = suboptimal_triangle();
        let before: Vec<f64> = (0..3).map(|u| g.net_outflow(u)).collect();
        cancel_negative_cycles(&mut g, 100);
        let after: Vec<f64> = (0..3).map(|u| g.net_outflow(u)).collect();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() < 1e-9, "node balance changed: {b} -> {a}");
        }
    }

    #[test]
    fn agrees_with_ssp_on_random_instances() {
        use crate::flow::ssp::min_cost_max_flow;
        // Build a small layered graph; route max flow greedily (expensive
        // first), then cancel cycles; cost must match SSP from scratch.
        let build = || {
            let mut g = FlowNetwork::new(4);
            let edges = vec![
                g.add_edge(0, 1, 2.0, 4.0),
                g.add_edge(0, 2, 2.0, 1.0),
                g.add_edge(1, 3, 2.0, 1.0),
                g.add_edge(2, 3, 2.0, 2.0),
                g.add_edge(1, 2, 2.0, 1.0),
            ];
            (g, edges)
        };
        // Suboptimal feasible flow: 2 units via 0→1→3, 2 via 0→2→3.
        let (mut g1, e1) = build();
        g1.push(e1[0].0, 2.0);
        g1.push(e1[2].0, 2.0);
        g1.push(e1[1].0, 2.0);
        g1.push(e1[3].0, 2.0);
        cancel_negative_cycles(&mut g1, 100);

        let (mut g2, _) = build();
        let r2 = min_cost_max_flow(&mut g2, 0, 3, 4.0);
        assert!((r2.flow - 4.0).abs() < 1e-9);
        assert!(
            (g1.total_cost() - r2.cost).abs() < 1e-6,
            "cycle-cancel {} vs ssp {}",
            g1.total_cost(),
            r2.cost
        );
    }
}
