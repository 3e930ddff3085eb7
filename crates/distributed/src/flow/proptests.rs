//! Cross-algorithm property tests for the flow substrate.
//!
//! The strongest correctness signal available without an external LP
//! solver: two independent algorithms — successive shortest paths from
//! scratch, and greedy max-flow followed by negative-cycle cancelling —
//! must agree on the minimum cost of random transport instances.

#![cfg(test)]

use proptest::prelude::*;

use crate::flow::cycle_cancel::{cancel_negative_cycles, find_negative_cycle};
use crate::flow::graph::FlowNetwork;
use crate::flow::ssp::min_cost_max_flow;

/// A random bipartite transport instance: `n` supply nodes, `n` demand
/// nodes, full transport layer with the given costs.
fn build_transport(
    n: usize,
    supplies: &[f64],
    demands: &[f64],
    costs: &[f64],
) -> (FlowNetwork, usize, usize) {
    let s = 2 * n;
    let t = 2 * n + 1;
    let mut g = FlowNetwork::new(2 * n + 2);
    for i in 0..n {
        g.add_edge(s, i, supplies[i], 0.0);
        g.add_edge(n + i, t, demands[i], 0.0);
    }
    for i in 0..n {
        for j in 0..n {
            g.add_edge(i, n + j, f64::INFINITY, costs[i * n + j]);
        }
    }
    (g, s, t)
}

/// Ships everything greedily (arbitrary routing) to obtain *some*
/// maximal feasible flow, deliberately ignoring costs.
fn greedy_max_flow(g: &mut FlowNetwork, s: usize, t: usize) {
    // Zero-cost SSP view: temporarily treat costs as zero by running a
    // plain augmenting loop over the residual graph (BFS).
    loop {
        let n = g.len();
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        let mut seen = vec![false; n];
        seen[s] = true;
        while let Some(u) = queue.pop_front() {
            for &eid in &g.adj[u] {
                let e = &g.edges[eid as usize];
                let v = e.to as usize;
                if !seen[v] && e.cap > crate::flow::FLOW_EPS {
                    seen[v] = true;
                    pred[v] = Some(eid as usize);
                    queue.push_back(v);
                }
            }
        }
        if !seen[t] {
            break;
        }
        let mut bottleneck = f64::INFINITY;
        let mut v = t;
        while let Some(eid) = pred[v] {
            bottleneck = bottleneck.min(g.edges[eid].cap);
            v = g.edges[eid ^ 1].to as usize;
        }
        let mut v = t;
        while let Some(eid) = pred[v] {
            g.push(eid, bottleneck);
            v = g.edges[eid ^ 1].to as usize;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SSP-from-scratch and greedy-then-cancel agree on min cost.
    #[test]
    fn ssp_equals_greedy_plus_cycle_cancel(
        supplies in prop::collection::vec(0.5f64..5.0, 3),
        demands_raw in prop::collection::vec(0.5f64..5.0, 3),
        costs in prop::collection::vec(0.0f64..20.0, 9),
    ) {
        let n = 3;
        // Make total demand equal total supply so max flow saturates.
        let supply_total: f64 = supplies.iter().sum();
        let demand_total: f64 = demands_raw.iter().sum();
        let demands: Vec<f64> =
            demands_raw.iter().map(|d| d * supply_total / demand_total).collect();

        let (mut g1, s, t) = build_transport(n, &supplies, &demands, &costs);
        let r1 = min_cost_max_flow(&mut g1, s, t, f64::INFINITY);

        let (mut g2, s2, t2) = build_transport(n, &supplies, &demands, &costs);
        greedy_max_flow(&mut g2, s2, t2);
        cancel_negative_cycles(&mut g2, 10_000);
        let cost2 = g2.total_cost();

        prop_assert!((r1.flow - supply_total).abs() < 1e-6,
            "ssp must saturate: {} vs {supply_total}", r1.flow);
        prop_assert!((r1.cost - cost2).abs() < 1e-6 * r1.cost.abs().max(1.0),
            "ssp cost {} vs cancel cost {cost2}", r1.cost);
        // After cancelling, no negative cycle can remain.
        prop_assert!(find_negative_cycle(&g2).is_none());
    }

    /// SSP flows always satisfy conservation and capacity limits.
    #[test]
    fn ssp_flows_are_feasible(
        supplies in prop::collection::vec(0.1f64..4.0, 4),
        demands in prop::collection::vec(0.1f64..4.0, 4),
        costs in prop::collection::vec(0.0f64..10.0, 16),
    ) {
        let n = 4;
        let (mut g, s, t) = build_transport(n, &supplies, &demands, &costs);
        let r = min_cost_max_flow(&mut g, s, t, f64::INFINITY);
        let expected: f64 = supplies.iter().sum::<f64>()
            .min(demands.iter().sum::<f64>());
        prop_assert!((r.flow - expected).abs() < 1e-6,
            "max flow {} vs min(supply, demand) {expected}", r.flow);
        prop_assert!(g.check_conservation(&[s, t]).is_ok());
    }
}
