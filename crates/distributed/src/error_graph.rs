//! The error graph of Proposition 1.
//!
//! Given the current solution `ρ'` and a target solution `ρ`, the error
//! graph has an edge `i → j` for every transfer of requests from server
//! `i` to server `j` needed to turn `ρ'` into `ρ`. A *negative cycle* is
//! a cyclic sequence of such transfers whose net communication cost is
//! negative — i.e. servers essentially relaying requests to one another
//! for nothing. Proposition 1's distance bound applies only when the
//! error graph has no negative cycle, which is what
//! [`crate::cycles::remove_negative_cycles`] establishes.

use crate::flow::bellman_ford::{self, WeightedEdge};
use dlb_core::{Assignment, Instance};

/// One transfer in the decomposition of `ρ − ρ'`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// Organization whose requests move.
    pub owner: usize,
    /// Server the requests leave.
    pub from: usize,
    /// Server the requests join.
    pub to: usize,
    /// Request volume.
    pub amount: f64,
    /// Communication-cost change per unit (`c_{owner,to} − c_{owner,from}`).
    pub weight: f64,
}

/// The error graph between two assignments.
#[derive(Debug, Clone)]
pub struct ErrorGraph {
    /// Number of servers.
    pub m: usize,
    /// The underlying transfer decomposition.
    pub moves: Vec<Move>,
}

impl ErrorGraph {
    /// Builds the error graph by decomposing, per organization, the
    /// difference between `current` and `target` into surplus→deficit
    /// transfers (a greedy transportation plan).
    pub fn build(instance: &Instance, current: &Assignment, target: &Assignment) -> Self {
        let m = instance.len();
        assert_eq!(current.len(), m);
        assert_eq!(target.len(), m);
        let mut moves = Vec::new();
        for k in 0..m {
            // Per-server surplus (current − target) of org k's requests.
            let mut surplus: Vec<(usize, f64)> = Vec::new();
            let mut deficit: Vec<(usize, f64)> = Vec::new();
            for j in 0..m {
                let d = current.requests(k, j) - target.requests(k, j);
                if d > 1e-12 {
                    surplus.push((j, d));
                } else if d < -1e-12 {
                    deficit.push((j, -d));
                }
            }
            let mut si = 0;
            let mut di = 0;
            while si < surplus.len() && di < deficit.len() {
                let amount = surplus[si].1.min(deficit[di].1);
                let from = surplus[si].0;
                let to = deficit[di].0;
                moves.push(Move {
                    owner: k,
                    from,
                    to,
                    amount,
                    weight: instance.c(k, to) - instance.c(k, from),
                });
                surplus[si].1 -= amount;
                deficit[di].1 -= amount;
                if surplus[si].1 <= 1e-12 {
                    si += 1;
                }
                if deficit[di].1 <= 1e-12 {
                    di += 1;
                }
            }
        }
        Self { m, moves }
    }

    /// Edges for cycle analysis: one weighted edge per move
    /// (`from → to`, weight = per-unit communication change).
    pub fn edges(&self) -> Vec<WeightedEdge> {
        self.moves
            .iter()
            .map(|mv| WeightedEdge {
                from: mv.from,
                to: mv.to,
                weight: mv.weight,
            })
            .collect()
    }

    /// Returns `true` when the error graph contains a cycle of
    /// transfers with negative total communication cost.
    pub fn has_negative_cycle(&self) -> bool {
        bellman_ford::has_negative_cycle(self.m, &self.edges())
    }
}

/// Manhattan distance `Σ_{kj} |r_kj − r'_kj|` between two assignments
/// (in requests, matching Proposition 1's `‖ρ − ρ'‖₁`).
pub fn manhattan_distance(a: &Assignment, b: &Assignment) -> f64 {
    assert_eq!(a.len(), b.len());
    let m = a.len();
    let mut dist = 0.0;
    for j in 0..m {
        // Union of owners on both ledgers.
        for (k, r) in a.ledger(j).iter() {
            dist += (r - b.ledger(j).get(k)).abs();
        }
        for (k, r) in b.ledger(j).iter() {
            if a.ledger(j).get(k) == 0.0 {
                dist += r.abs();
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::remove_negative_cycles;
    use dlb_core::LatencyMatrix;

    fn instance3(c: f64) -> Instance {
        Instance::new(
            vec![1.0; 3],
            vec![10.0; 3],
            LatencyMatrix::homogeneous(3, c),
        )
    }

    #[test]
    fn empty_graph_between_identical_states() {
        let instance = instance3(5.0);
        let a = Assignment::local(&instance);
        let g = ErrorGraph::build(&instance, &a, &a);
        assert!(g.moves.is_empty());
        assert!(!g.has_negative_cycle());
        assert_eq!(manhattan_distance(&a, &a), 0.0);
    }

    #[test]
    fn relay_cycle_shows_up_as_negative_cycle() {
        let instance = instance3(5.0);
        let mut current = Assignment::local(&instance);
        current.move_requests(0, 0, 1, 4.0);
        current.move_requests(1, 1, 2, 4.0);
        current.move_requests(2, 2, 0, 4.0);
        let target = Assignment::local(&instance);
        let g = ErrorGraph::build(&instance, &current, &target);
        // Undoing the cycle: each move returns requests home (weight −c),
        // forming a cycle of total weight −3c < 0.
        assert!(g.has_negative_cycle());
        let volume: f64 = g.moves.iter().map(|mv| mv.amount).sum();
        assert!((volume - 12.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_removal_clears_negative_cycles() {
        let instance = instance3(5.0);
        let mut current = Assignment::local(&instance);
        current.move_requests(0, 0, 1, 4.0);
        current.move_requests(1, 1, 2, 4.0);
        current.move_requests(2, 2, 0, 4.0);
        remove_negative_cycles(&instance, &mut current);
        let target = Assignment::local(&instance);
        let g = ErrorGraph::build(&instance, &current, &target);
        assert!(
            !g.has_negative_cycle(),
            "after removal the error graph must be cycle-free: {:?}",
            g.moves
        );
    }

    #[test]
    fn simple_imbalance_has_no_negative_cycle() {
        let instance = instance3(2.0);
        let mut current = Assignment::local(&instance);
        // target: balanced transfer 0 → 1
        let mut target = Assignment::local(&instance);
        target.move_requests(0, 0, 1, 3.0);
        let g = ErrorGraph::build(&instance, &current, &target);
        assert_eq!(g.moves.len(), 1);
        assert!(!g.has_negative_cycle());
        assert!((manhattan_distance(&current, &target) - 6.0).abs() < 1e-9);
        // moving in the current state should match the move list
        current.move_requests(0, 0, 1, 3.0);
        assert_eq!(manhattan_distance(&current, &target), 0.0);
    }

    #[test]
    fn weights_reflect_owner_latency() {
        let mut lat = LatencyMatrix::zero(3);
        lat.set(0, 1, 7.0);
        lat.set(1, 0, 3.0);
        lat.set(0, 2, 2.0);
        lat.set(2, 0, 2.0);
        lat.set(1, 2, 1.0);
        lat.set(2, 1, 1.0);
        let instance = Instance::new(vec![1.0; 3], vec![10.0; 3], lat);
        let current = Assignment::local(&instance);
        let mut target = Assignment::local(&instance);
        target.move_requests(0, 0, 1, 5.0);
        let g = ErrorGraph::build(&instance, &current, &target);
        assert_eq!(g.moves.len(), 1);
        let mv = g.moves[0];
        assert_eq!(mv.owner, 0);
        assert_eq!((mv.from, mv.to), (0, 1));
        assert_eq!(mv.weight, 7.0); // c(0,1) − c(0,0)
    }
}
