//! Request assignments: who executes whose requests.
//!
//! An [`Assignment`] stores, for every *server* `j`, a sparse ledger of
//! `r_{k→j}` — the number of requests owned by organization `k` that are
//! executed on `j`. This matches the state kept by the paper's
//! distributed algorithm ("each organization `i` keeps for each server
//! `k` the information about the number of requests that were relayed to
//! `i` by `k`") and is equivalent to the relay-fraction matrix `ρ`
//! through `r_{kj} = n_k ρ_{kj}`.

use crate::instance::Instance;
use crate::sparse::SparseVec;
use crate::INVARIANT_TOL;

/// A (fractional) assignment of every organization's requests to servers.
///
/// Invariants maintained by all mutating operations:
/// * every ledger value is non-negative,
/// * `Σ_j r_{kj} = n_k` for every organization `k` (conservation),
/// * the cached per-server loads equal the ledger column sums.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    m: usize,
    /// `ledgers[j]` maps owner `k` to the requests of `k` running on `j`.
    ledgers: Vec<SparseVec>,
    /// Cached loads: `loads[j] = Σ_k ledgers[j][k]`.
    loads: Vec<f64>,
}

impl Assignment {
    /// The identity assignment: every organization executes all of its
    /// own requests locally (`ρ = I`). This is the paper's starting
    /// state for both the distributed algorithm and best-response
    /// dynamics.
    pub fn local(instance: &Instance) -> Self {
        let m = instance.len();
        let mut ledgers = Vec::with_capacity(m);
        let mut loads = Vec::with_capacity(m);
        for i in 0..m {
            let n = instance.own_load(i);
            let mut ledger = SparseVec::new();
            if n > 0.0 {
                ledger.set(i as u32, n);
            }
            ledgers.push(ledger);
            loads.push(n);
        }
        Self { m, ledgers, loads }
    }

    /// The assignment running `ledgers[j]` on server `j`, each load the
    /// ledger's sum (as [`Self::replace_ledger`] stores it).
    pub fn from_ledgers(ledgers: Vec<SparseVec>) -> Self {
        let loads = ledgers.iter().map(SparseVec::sum).collect();
        Self {
            m: ledgers.len(),
            ledgers,
            loads,
        }
    }

    /// Builds an assignment from a dense row-major fraction matrix
    /// `ρ` (`rho[k * m + j]` = fraction of org `k`'s load sent to `j`).
    ///
    /// # Panics
    /// Panics when a row of `ρ` for an organization with positive load
    /// does not sum to 1 (within [`INVARIANT_TOL`]) or contains negative
    /// entries.
    pub fn from_fractions(instance: &Instance, rho: &[f64]) -> Self {
        let m = instance.len();
        assert_eq!(rho.len(), m * m, "fraction matrix must be m*m");
        let mut a = Self {
            m,
            ledgers: vec![SparseVec::new(); m],
            loads: vec![0.0; m],
        };
        for k in 0..m {
            let n = instance.own_load(k);
            let row = &rho[k * m..(k + 1) * m];
            let sum: f64 = row.iter().sum();
            if n > 0.0 {
                assert!(
                    (sum - 1.0).abs() <= INVARIANT_TOL * m as f64,
                    "fraction row {k} sums to {sum}, expected 1"
                );
            }
            for (j, &f) in row.iter().enumerate() {
                assert!(f >= -INVARIANT_TOL, "fraction ({k},{j}) is negative: {f}");
                let r = f.max(0.0) * n;
                if r > 0.0 {
                    a.ledgers[j].add(k as u32, r);
                    a.loads[j] += r;
                }
            }
        }
        a
    }

    /// Converts back to a dense row-major fraction matrix `ρ`.
    /// Organizations with zero load get the identity row.
    pub fn to_fractions(&self, instance: &Instance) -> Vec<f64> {
        let m = self.m;
        let mut rho = vec![0.0; m * m];
        for (j, ledger) in self.ledgers.iter().enumerate() {
            for (k, r) in ledger.iter() {
                let n = instance.own_load(k as usize);
                if n > 0.0 {
                    rho[k as usize * m + j] += r / n;
                }
            }
        }
        for k in 0..m {
            if instance.own_load(k) == 0.0 {
                rho[k * m + k] = 1.0;
            }
        }
        rho
    }

    /// Number of servers.
    #[inline]
    pub fn len(&self) -> usize {
        self.m
    }

    /// Returns `true` for the empty assignment.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Requests of organization `k` executing on server `j`.
    #[inline]
    pub fn requests(&self, k: usize, j: usize) -> f64 {
        self.ledgers[j].get(k as u32)
    }

    /// Current load of server `j` (`l_j`).
    #[inline]
    pub fn load(&self, j: usize) -> f64 {
        self.loads[j]
    }

    /// All server loads.
    #[inline]
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// The ledger of server `j`: `(owner, requests)` pairs sorted by
    /// owner.
    #[inline]
    pub fn ledger(&self, j: usize) -> &SparseVec {
        &self.ledgers[j]
    }

    /// Moves `amount` requests owned by `k` from server `from` to server
    /// `to`, keeping loads in sync.
    ///
    /// # Panics
    /// Panics (in debug builds) when `amount` exceeds what `k` has on
    /// `from` by more than the invariant tolerance.
    pub fn move_requests(&mut self, k: usize, from: usize, to: usize, amount: f64) {
        if amount == 0.0 || from == to {
            return;
        }
        debug_assert!(amount > 0.0, "move amount must be positive");
        let have = self.ledgers[from].get(k as u32);
        debug_assert!(
            amount <= have + INVARIANT_TOL,
            "moving {amount} of org {k} from {from} but only {have} present"
        );
        let moved = amount.min(have);
        self.ledgers[from].add(k as u32, -moved);
        self.ledgers[to].add(k as u32, moved);
        self.loads[from] -= moved;
        self.loads[to] += moved;
    }

    /// Overwrites the ledger of server `j` and patches the cached load.
    /// Used by the pairwise-exchange kernel, which rebuilds two ledgers
    /// at a time.
    pub fn replace_ledger(&mut self, j: usize, ledger: SparseVec) {
        self.loads[j] = ledger.sum();
        self.ledgers[j] = ledger;
    }

    /// Takes the ledger of server `j`, leaving it empty with zero load.
    pub fn take_ledger(&mut self, j: usize) -> SparseVec {
        self.loads[j] = 0.0;
        std::mem::take(&mut self.ledgers[j])
    }

    /// Total requests of organization `k` over all servers
    /// (`Σ_j r_{kj}`); equals `n_k` for a valid assignment.
    pub fn owner_total(&self, k: usize) -> f64 {
        self.ledgers.iter().map(|l| l.get(k as u32)).sum()
    }

    /// The full row of organization `k`: requests on every server.
    pub fn owner_row(&self, k: usize) -> Vec<f64> {
        (0..self.m).map(|j| self.ledgers[j].get(k as u32)).collect()
    }

    /// Replaces organization `k`'s entire row (used by best-response
    /// dynamics). `row[j]` is the amount `k` runs on server `j`.
    pub fn set_owner_row(&mut self, k: usize, row: &[f64]) {
        assert_eq!(row.len(), self.m);
        for (j, &r) in row.iter().enumerate() {
            assert!(r >= -INVARIANT_TOL, "row entry ({k},{j}) negative: {r}");
            let old = self.ledgers[j].get(k as u32);
            let new = r.max(0.0);
            if old != new {
                self.ledgers[j].set(k as u32, new);
                self.loads[j] += new - old;
            }
        }
    }

    /// Amount of requests relayed *away* by organization `i`
    /// (`out(ρ, i) = Σ_{j≠i} r_{ij}` in the paper's Appendix).
    pub fn relayed_out(&self, i: usize) -> f64 {
        let mut out = 0.0;
        for (j, ledger) in self.ledgers.iter().enumerate() {
            if j != i {
                out += ledger.get(i as u32);
            }
        }
        out
    }

    /// Amount of foreign requests hosted by server `i`
    /// (`in(ρ, i) = Σ_{j≠i} r_{ji}`).
    pub fn hosted_foreign(&self, i: usize) -> f64 {
        self.ledgers[i]
            .iter()
            .filter(|&(k, _)| k as usize != i)
            .map(|(_, r)| r)
            .sum()
    }

    /// Verifies all invariants against an instance; returns a
    /// description of the first violation, if any.
    pub fn check_invariants(&self, instance: &Instance) -> Result<(), String> {
        if instance.len() != self.m {
            return Err(format!(
                "dimension mismatch: assignment {} vs instance {}",
                self.m,
                instance.len()
            ));
        }
        let scale = instance.total_load().max(1.0);
        for (j, ledger) in self.ledgers.iter().enumerate() {
            let mut sum = 0.0;
            for (k, r) in ledger.iter() {
                if r < 0.0 {
                    return Err(format!("negative requests r[{k}][{j}] = {r}"));
                }
                sum += r;
            }
            if (sum - self.loads[j]).abs() > INVARIANT_TOL * scale {
                return Err(format!(
                    "cached load of server {j} is {} but ledger sums to {sum}",
                    self.loads[j]
                ));
            }
        }
        for k in 0..self.m {
            let total = self.owner_total(k);
            let n = instance.own_load(k);
            if (total - n).abs() > INVARIANT_TOL * scale {
                return Err(format!(
                    "org {k} has {total} requests assigned but owns {n}"
                ));
            }
        }
        Ok(())
    }

    /// Recomputes cached loads from ledgers, discarding accumulated
    /// floating-point drift. Long-running engines call this
    /// periodically.
    pub fn refresh_loads(&mut self) {
        for j in 0..self.m {
            self.loads[j] = self.ledgers[j].sum();
        }
    }

    /// Number of non-zero `r_{kj}` entries (a sparsity diagnostic).
    pub fn nnz(&self) -> usize {
        self.ledgers.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyMatrix;
    use proptest::prelude::*;

    fn inst(m: usize) -> Instance {
        Instance::new(
            (0..m).map(|i| 1.0 + i as f64).collect(),
            (0..m).map(|i| 10.0 * (i + 1) as f64).collect(),
            LatencyMatrix::homogeneous(m, 5.0),
        )
    }

    #[test]
    fn local_assignment_matches_loads() {
        let instance = inst(4);
        let a = Assignment::local(&instance);
        for i in 0..4 {
            assert_eq!(a.load(i), instance.own_load(i));
            assert_eq!(a.requests(i, i), instance.own_load(i));
        }
        a.check_invariants(&instance).unwrap();
        assert_eq!(a.nnz(), 4);
    }

    #[test]
    fn from_ledgers_of_the_local_ledgers_is_local() {
        let mut instance = inst(4);
        instance.set_own_loads(vec![3.0, 0.0, 7.5, 1e-3]);
        let local = Assignment::local(&instance);
        let ledgers = (0..4).map(|j| local.ledger(j).clone()).collect();
        // `==` compares the cached loads too.
        assert_eq!(Assignment::from_ledgers(ledgers), local);
    }

    #[test]
    fn move_requests_conserves() {
        let instance = inst(3);
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 2, 4.0);
        assert_eq!(a.requests(0, 0), 6.0);
        assert_eq!(a.requests(0, 2), 4.0);
        assert_eq!(a.load(0), 6.0);
        assert_eq!(a.load(2), 34.0);
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn move_zero_or_self_is_noop() {
        let instance = inst(2);
        let mut a = Assignment::local(&instance);
        let before = a.clone();
        a.move_requests(0, 0, 1, 0.0);
        a.move_requests(0, 0, 0, 5.0);
        assert_eq!(a, before);
    }

    #[test]
    fn fraction_roundtrip() {
        let instance = inst(3);
        let rho = vec![
            0.5, 0.25, 0.25, //
            0.0, 1.0, 0.0, //
            0.1, 0.2, 0.7,
        ];
        let a = Assignment::from_fractions(&instance, &rho);
        a.check_invariants(&instance).unwrap();
        let back = a.to_fractions(&instance);
        for (x, y) in rho.iter().zip(back.iter()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_load_org_gets_identity_fraction_row() {
        let instance = Instance::new(vec![1.0, 1.0], vec![0.0, 8.0], LatencyMatrix::zero(2));
        let a = Assignment::local(&instance);
        let rho = a.to_fractions(&instance);
        assert_eq!(rho, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn from_fractions_rejects_bad_row() {
        let instance = inst(2);
        Assignment::from_fractions(&instance, &[0.5, 0.4, 0.0, 1.0]);
    }

    #[test]
    fn set_owner_row_updates_loads() {
        let instance = inst(2);
        let mut a = Assignment::local(&instance);
        a.set_owner_row(0, &[2.0, 8.0]);
        assert_eq!(a.load(0), 2.0);
        assert_eq!(a.load(1), 28.0);
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn relayed_out_and_hosted_foreign() {
        let instance = inst(2);
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 1, 3.0);
        assert_eq!(a.relayed_out(0), 3.0);
        assert_eq!(a.relayed_out(1), 0.0);
        assert_eq!(a.hosted_foreign(1), 3.0);
        assert_eq!(a.hosted_foreign(0), 0.0);
    }

    #[test]
    fn take_and_replace_ledger() {
        let instance = inst(2);
        let mut a = Assignment::local(&instance);
        let ledger = a.take_ledger(0);
        assert_eq!(a.load(0), 0.0);
        assert_eq!(ledger.sum(), 10.0);
        a.replace_ledger(0, ledger);
        assert_eq!(a.load(0), 10.0);
        a.check_invariants(&instance).unwrap();
    }

    proptest! {
        #[test]
        fn prop_moves_preserve_invariants(
            moves in prop::collection::vec((0usize..4, 0usize..4, 0usize..4, 0.0f64..5.0), 0..60)
        ) {
            let instance = inst(4);
            let mut a = Assignment::local(&instance);
            for (k, from, to, amount) in moves {
                let available = a.requests(k, from);
                let amt = amount.min(available);
                if amt > 0.0 {
                    a.move_requests(k, from, to, amt);
                }
            }
            prop_assert!(a.check_invariants(&instance).is_ok());
        }

        #[test]
        fn prop_fraction_roundtrip(rows in prop::collection::vec(
            prop::collection::vec(0.01f64..1.0, 4), 4
        )) {
            let instance = inst(4);
            let m = 4;
            let mut rho = vec![0.0; m * m];
            for (k, row) in rows.iter().enumerate() {
                let s: f64 = row.iter().sum();
                for (j, &v) in row.iter().enumerate() {
                    rho[k * m + j] = v / s;
                }
            }
            let a = Assignment::from_fractions(&instance, &rho);
            prop_assert!(a.check_invariants(&instance).is_ok());
            let back = a.to_fractions(&instance);
            for (x, y) in rho.iter().zip(back.iter()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }
}
