//! Residual flow-network representation.

use crate::flow::FLOW_EPS;

/// Identifier of a directed edge added with
/// [`FlowNetwork::add_edge`]; use it to query flow after solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub(crate) to: u32,
    /// Remaining residual capacity.
    pub(crate) cap: f64,
    pub(crate) cost: f64,
}

/// A directed flow network with `f64` capacities and per-unit costs,
/// stored as a residual graph: every call to [`FlowNetwork::add_edge`]
/// creates a forward edge and its zero-capacity reverse companion.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    n: usize,
    pub(crate) edges: Vec<Edge>,
    pub(crate) adj: Vec<Vec<u32>>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when the network has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds a directed edge `u → v` with the given capacity and per-unit
    /// cost; returns its id.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, negative/NaN capacity, or NaN
    /// cost. (Negative *costs* are allowed; infinite capacity is allowed.)
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64, cost: f64) -> EdgeId {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert!(cap >= 0.0, "capacity must be non-negative");
        assert!(!cost.is_nan(), "cost must not be NaN");
        let id = self.edges.len();
        self.edges.push(Edge {
            to: v as u32,
            cap,
            cost,
        });
        self.edges.push(Edge {
            to: u as u32,
            cap: 0.0,
            cost: -cost,
        });
        self.adj[u].push(id as u32);
        self.adj[v].push(id as u32 + 1);
        EdgeId(id)
    }

    /// Flow currently pushed through edge `e` (forward direction).
    pub fn flow(&self, e: EdgeId) -> f64 {
        // Residual capacity of the reverse edge equals the flow.
        let f = self.edges[e.0 + 1].cap;
        if f.abs() < FLOW_EPS {
            0.0
        } else {
            f
        }
    }

    /// Total cost of the current flow, `Σ flow(e) · cost(e)`.
    pub fn total_cost(&self) -> f64 {
        (0..self.edges.len())
            .step_by(2)
            .map(|i| self.flow(EdgeId(i)) * self.edges[i].cost)
            .sum()
    }

    /// Net flow out of node `u` (outgoing minus incoming); zero for
    /// interior nodes of a feasible flow.
    pub fn net_outflow(&self, u: usize) -> f64 {
        let mut net = 0.0;
        for &eid in &self.adj[u] {
            let e = eid as usize;
            if e.is_multiple_of(2) {
                net += self.flow(EdgeId(e));
            } else {
                net -= self.flow(EdgeId(e - 1));
            }
        }
        net
    }

    /// Pushes `amount` along residual edge index `eid` (internal).
    pub(crate) fn push(&mut self, eid: usize, amount: f64) {
        self.edges[eid].cap -= amount;
        self.edges[eid ^ 1].cap += amount;
    }

    /// Verifies conservation at every node except `sources`/`sinks`;
    /// returns the first violation.
    pub fn check_conservation(&self, exempt: &[usize]) -> Result<(), String> {
        for u in 0..self.n {
            if exempt.contains(&u) {
                continue;
            }
            let net = self.net_outflow(u);
            if net.abs() > 1e-6 {
                return Err(format!("node {u} has net outflow {net}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_bookkeeping() {
        let mut g = FlowNetwork::new(3);
        let e = g.add_edge(0, 1, 5.0, 2.0);
        assert_eq!(g.edges.len(), 2, "one forward edge and its residual twin");
        assert_eq!(g.flow(e), 0.0);
        assert_eq!(g.edges[e.0].cap, 5.0);
        assert_eq!(g.total_cost(), 0.0);
    }

    #[test]
    fn push_moves_flow() {
        let mut g = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 5.0, 3.0);
        g.push(0, 2.0);
        assert_eq!(g.flow(e), 2.0);
        assert_eq!(g.edges[e.0].cap, 3.0);
        assert_eq!(g.total_cost(), 6.0);
        assert_eq!(g.net_outflow(0), 2.0);
        assert_eq!(g.net_outflow(1), -2.0);
    }

    #[test]
    fn conservation_check() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 5.0, 0.0);
        g.add_edge(1, 2, 5.0, 0.0);
        g.push(0, 3.0);
        g.push(2, 3.0);
        assert!(g.check_conservation(&[0, 2]).is_ok());
        assert!(g.check_conservation(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoint() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 5, 1.0, 0.0);
    }
}
