//! Negative-cycle removal via min-cost max-flow (paper Appendix).
//!
//! The reduction: for every server `i` create a *front* node `i_f`
//! (supply `out(ρ,i)` — the requests organization `i` relays away) and a
//! *back* node `i_b` (demand `in(ρ,i)` — the foreign requests server `i`
//! hosts). Edges `i_f → j_b` (`i ≠ j`) carry cost `c_ij` and infinite
//! capacity. A minimum-cost maximum flow re-decides *which* organization's
//! requests each server hosts, preserving every server's load and every
//! organization's outflow while minimizing total communication cost —
//! exactly what dismantling all negative relay cycles achieves.

use crate::flow::ssp::min_cost_max_flow;
use crate::flow::FlowNetwork;
use dlb_core::sparse::SparseVec;
use dlb_core::{Assignment, Instance};

/// Statistics of a negative-cycle-removal pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleRemovalStats {
    /// Total relayed volume that was re-routed (admissible upper bound:
    /// all relayed requests are re-decided).
    pub relayed_volume: f64,
    /// Communication cost before the pass.
    pub comm_before: f64,
    /// Communication cost after the pass.
    pub comm_after: f64,
}

/// Rewrites the assignment's *foreign* placements so that total
/// communication cost is minimal given the current server loads and
/// per-organization outflows. Self-executed requests (`r_ii`) are
/// untouched. Returns the achieved reduction.
pub fn remove_negative_cycles(
    instance: &Instance,
    assignment: &mut Assignment,
) -> CycleRemovalStats {
    let m = instance.len();
    let comm_before = dlb_core::cost::communication_cost(instance, assignment);

    // Supplies and demands.
    let out: Vec<f64> = (0..m).map(|i| assignment.relayed_out(i)).collect();
    let inn: Vec<f64> = (0..m).map(|i| assignment.hosted_foreign(i)).collect();
    let relayed_volume: f64 = out.iter().sum();
    if relayed_volume <= 1e-12 {
        return CycleRemovalStats {
            relayed_volume: 0.0,
            comm_before,
            comm_after: comm_before,
        };
    }

    // Node layout: 0..m fronts, m..2m backs, 2m source, 2m+1 sink.
    let source = 2 * m;
    let sink = 2 * m + 1;
    let mut g = FlowNetwork::new(2 * m + 2);
    for i in 0..m {
        if out[i] > 0.0 {
            g.add_edge(source, i, out[i], 0.0);
        }
        if inn[i] > 0.0 {
            g.add_edge(m + i, sink, inn[i], 0.0);
        }
    }
    let mut transport = Vec::new();
    for i in 0..m {
        if out[i] <= 0.0 {
            continue;
        }
        for j in 0..m {
            if inn[j] <= 0.0 {
                continue;
            }
            // The paper's reduction uses only i ≠ j edges; we also add
            // the zero-cost self-edge i_f → i_b, which lets previously
            // relayed requests return to their owner. This is still
            // load-preserving (server i hosts the returning volume in
            // place of the foreign volume it gives up) and can only
            // reduce communication further — it is what dismantling a
            // *pure* relay cycle requires.
            let c = instance.c(i, j);
            if c.is_finite() {
                transport.push((i, j, g.add_edge(i, m + j, f64::INFINITY, c)));
            }
        }
    }
    let result = min_cost_max_flow(&mut g, source, sink, f64::INFINITY);
    debug_assert!(
        (result.flow - relayed_volume).abs() < 1e-6 * relayed_volume.max(1.0),
        "flow {} must saturate relayed volume {relayed_volume}",
        result.flow
    );

    // Rebuild the foreign part of every ledger from the flow.
    let mut new_ledgers: Vec<SparseVec> = (0..m)
        .map(|j| {
            let own = assignment.requests(j, j);
            let mut ledger = SparseVec::new();
            if own > 0.0 {
                ledger.set(j as u32, own);
            }
            ledger
        })
        .collect();
    for (i, j, edge) in transport {
        let f = g.flow(edge);
        if f > 0.0 {
            new_ledgers[j].add(i as u32, f);
        }
    }
    for (j, ledger) in new_ledgers.into_iter().enumerate() {
        assignment.replace_ledger(j, ledger);
    }
    let comm_after = dlb_core::cost::communication_cost(instance, assignment);
    CycleRemovalStats {
        relayed_volume,
        comm_before,
        comm_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::cost::total_cost;
    use dlb_core::LatencyMatrix;

    /// Builds a 3-server instance with a deliberate relay cycle:
    /// org 0 runs on server 1, org 1 on server 2, org 2 on server 0.
    fn cyclic_state() -> (Instance, Assignment) {
        let instance = Instance::new(
            vec![1.0; 3],
            vec![10.0; 3],
            LatencyMatrix::homogeneous(3, 5.0),
        );
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 1, 4.0);
        a.move_requests(1, 1, 2, 4.0);
        a.move_requests(2, 2, 0, 4.0);
        (instance, a)
    }

    #[test]
    fn dismantles_pure_cycle() {
        let (instance, mut a) = cyclic_state();
        let loads_before: Vec<f64> = a.loads().to_vec();
        let stats = remove_negative_cycles(&instance, &mut a);
        // The homogeneous cycle is pure waste: everything returns home.
        assert_eq!(stats.comm_after, 0.0, "stats: {stats:?}");
        assert!(stats.comm_before > 0.0);
        for j in 0..3 {
            assert!((a.load(j) - loads_before[j]).abs() < 1e-9, "load changed");
            assert!((a.requests(j, j) - 10.0).abs() < 1e-9);
        }
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn preserves_owner_totals() {
        let (instance, mut a) = cyclic_state();
        remove_negative_cycles(&instance, &mut a);
        for k in 0..3 {
            assert!((a.owner_total(k) - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn never_increases_communication_cost() {
        let instance = Instance::new(
            vec![1.0, 2.0, 1.5, 1.0],
            vec![20.0, 5.0, 0.0, 8.0],
            LatencyMatrix::homogeneous(4, 3.0),
        );
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 2, 10.0);
        a.move_requests(3, 3, 1, 4.0);
        a.move_requests(1, 1, 0, 2.0);
        let before = dlb_core::cost::communication_cost(&instance, &a);
        let stats = remove_negative_cycles(&instance, &mut a);
        assert!(stats.comm_after <= before + 1e-9);
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn swap_to_cheaper_hosting() {
        // Heterogeneous latencies: org 0 hosted far away while org 1 is
        // hosted at 0's cheap neighbor — swapping reduces cost.
        let mut lat = LatencyMatrix::zero(4);
        // c(0,1) cheap, c(0,2) expensive; c(3,2) cheap, c(3,1) expensive.
        let pairs = [
            (0, 1, 1.0),
            (0, 2, 50.0),
            (0, 3, 30.0),
            (1, 2, 20.0),
            (1, 3, 50.0),
            (2, 3, 1.0),
        ];
        for &(i, j, c) in &pairs {
            lat.set(i, j, c);
            lat.set(j, i, c);
        }
        let instance = Instance::new(vec![1.0; 4], vec![10.0, 0.0, 0.0, 10.0], lat);
        let mut a = Assignment::local(&instance);
        // Mis-routed: org 0 → server 2 (cost 50), org 3 → server 1 (50).
        a.move_requests(0, 0, 2, 5.0);
        a.move_requests(3, 3, 1, 5.0);
        assert_eq!(dlb_core::cost::communication_cost(&instance, &a), 500.0);
        let stats = remove_negative_cycles(&instance, &mut a);
        // Optimal: org 0 → server 1 (1), org 3 → server 2 (1): cost 10.
        assert!((stats.comm_after - 10.0).abs() < 1e-6, "{stats:?}");
        assert!((a.requests(0, 1) - 5.0).abs() < 1e-9);
        assert!((a.requests(3, 2) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn total_cost_never_increases() {
        let (instance, mut a) = cyclic_state();
        let before = total_cost(&instance, &a);
        remove_negative_cycles(&instance, &mut a);
        let after = total_cost(&instance, &a);
        assert!(after <= before + 1e-9);
    }

    #[test]
    fn noop_on_local_assignment() {
        let instance = Instance::homogeneous(5, 1.0, 10.0, 20.0);
        let mut a = Assignment::local(&instance);
        let stats = remove_negative_cycles(&instance, &mut a);
        assert_eq!(stats.relayed_volume, 0.0);
        assert_eq!(stats.comm_before, stats.comm_after);
    }
}
