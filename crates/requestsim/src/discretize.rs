//! Rounding fractional assignments to whole requests.

use dlb_core::{Assignment, Instance};

/// A concrete placement of whole requests: `placements[k][j]` is the
/// integer number of org `k`'s requests executed on server `j`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteAssignment {
    /// Integer request counts, row-major by owner.
    pub counts: Vec<Vec<u64>>,
}

impl DiscreteAssignment {
    /// Total requests of organization `k`.
    pub fn owner_total(&self, k: usize) -> u64 {
        self.counts[k].iter().sum()
    }

    /// Load (request count) of server `j`.
    pub fn load(&self, j: usize) -> u64 {
        self.counts.iter().map(|row| row[j]).sum()
    }
}

/// Rounds a fractional assignment to integers with the
/// largest-remainder method, preserving each organization's (rounded)
/// total exactly.
pub fn discretize(instance: &Instance, a: &Assignment) -> DiscreteAssignment {
    let m = instance.len();
    let mut counts = vec![vec![0u64; m]; m];
    for k in 0..m {
        let row = a.owner_row(k);
        let target = instance.own_load(k).round() as u64;
        let mut floors: Vec<u64> = row.iter().map(|&r| r.floor() as u64).collect();
        let mut assigned: u64 = floors.iter().sum();
        // Distribute the remainder by largest fractional part.
        let mut remainders: Vec<(usize, f64)> = row
            .iter()
            .enumerate()
            .map(|(j, &r)| (j, r - r.floor()))
            .collect();
        remainders.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("no NaN"));
        let mut idx = 0;
        while assigned < target && idx < remainders.len() {
            floors[remainders[idx].0] += 1;
            assigned += 1;
            idx += 1;
        }
        // Degenerate case (all remainders used up): pile on the owner's
        // own entry `k` — keeps totals exact.
        while assigned < target {
            floors[k] += 1;
            assigned += 1;
        }
        // Over-assignment can only stem from pre-rounded inputs; trim
        // one request at a time from the highest-index positive entry.
        while assigned > target {
            if let Some(j) = (0..m).rev().find(|&j| floors[j] > 0) {
                floors[j] -= 1;
                assigned -= 1;
            } else {
                break;
            }
        }
        counts[k] = floors;
    }
    DiscreteAssignment { counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::LatencyMatrix;

    fn inst(loads: Vec<f64>) -> Instance {
        let m = loads.len();
        Instance::new(vec![1.0; m], loads, LatencyMatrix::homogeneous(m, 1.0))
    }

    #[test]
    fn integral_assignment_is_unchanged() {
        let instance = inst(vec![5.0, 3.0]);
        let a = Assignment::local(&instance);
        let d = discretize(&instance, &a);
        assert_eq!(d.counts[0], vec![5, 0]);
        assert_eq!(d.counts[1], vec![0, 3]);
    }

    #[test]
    fn fractional_rows_preserve_totals() {
        let instance = inst(vec![10.0, 7.0, 3.0]);
        let rho = vec![
            0.333, 0.333, 0.334, //
            0.5, 0.25, 0.25, //
            0.1, 0.1, 0.8,
        ];
        let a = Assignment::from_fractions(&instance, &rho);
        let d = discretize(&instance, &a);
        assert_eq!(d.owner_total(0), 10);
        assert_eq!(d.owner_total(1), 7);
        assert_eq!(d.owner_total(2), 3);
    }

    #[test]
    fn rounding_error_is_bounded_by_one_per_entry() {
        let instance = inst(vec![100.0, 50.0]);
        let rho = vec![0.63, 0.37, 0.41, 0.59];
        let a = Assignment::from_fractions(&instance, &rho);
        let d = discretize(&instance, &a);
        for k in 0..2 {
            for j in 0..2 {
                let frac = a.requests(k, j);
                let int = d.counts[k][j] as f64;
                assert!(
                    (frac - int).abs() <= 1.0 + 1e-9,
                    "entry ({k},{j}): {frac} vs {int}"
                );
            }
        }
    }

    #[test]
    fn loads_close_to_fractional_loads() {
        let instance = inst(vec![40.0, 40.0, 40.0]);
        let rho = vec![
            0.4, 0.3, 0.3, //
            0.3, 0.4, 0.3, //
            0.3, 0.3, 0.4,
        ];
        let a = Assignment::from_fractions(&instance, &rho);
        let d = discretize(&instance, &a);
        for j in 0..3 {
            assert!((d.load(j) as f64 - a.load(j)).abs() <= 3.0);
        }
    }
}
