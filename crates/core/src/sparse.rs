//! A small sorted sparse vector used for per-server request ledgers.
//!
//! The distributed algorithm keeps, for every server `j`, the amount of
//! requests each organization `k` has relayed to `j`. In realistic runs
//! (and especially under the paper's *peak* load distribution) most
//! organizations relay to only a handful of servers, so a sorted
//! `(key, value)` vector is both compact and cache-friendly.

/// A sparse vector of non-negative `f64` values indexed by `u32` keys,
/// stored sorted by key. Zero (and sub-epsilon) entries are removed
/// eagerly so that iteration only visits meaningful entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    entries: Vec<(u32, f64)>,
}

/// Values with absolute magnitude below this are treated as zero and
/// dropped from the ledger. This is far below one request and well above
/// `f64` rounding noise for the magnitudes the model uses.
pub const SPARSE_EPS: f64 = 1e-12;

impl SparseVec {
    /// Creates an empty sparse vector.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sparse vector with room for `cap` entries.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of explicitly stored (non-zero) entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no non-zero entry is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the value at `key` (zero when absent).
    #[inline]
    pub fn get(&self, key: u32) -> f64 {
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Sets the value at `key`, removing the entry when `value` is
    /// (numerically) zero.
    pub fn set(&mut self, key: u32, value: f64) {
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(pos) => {
                if value.abs() <= SPARSE_EPS {
                    self.entries.remove(pos);
                } else {
                    self.entries[pos].1 = value;
                }
            }
            Err(pos) => {
                if value.abs() > SPARSE_EPS {
                    self.entries.insert(pos, (key, value));
                }
            }
        }
    }

    /// Adds `delta` to the value at `key` and returns the new value.
    pub fn add(&mut self, key: u32, delta: f64) -> f64 {
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(pos) => {
                let v = self.entries[pos].1 + delta;
                if v.abs() <= SPARSE_EPS {
                    self.entries.remove(pos);
                    0.0
                } else {
                    self.entries[pos].1 = v;
                    v
                }
            }
            Err(pos) => {
                if delta.abs() > SPARSE_EPS {
                    self.entries.insert(pos, (key, delta));
                    delta
                } else {
                    0.0
                }
            }
        }
    }

    /// Sum of all stored values.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// Iterates over `(key, value)` pairs in increasing key order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Removes all entries and returns them (sorted by key).
    #[inline]
    pub fn drain(&mut self) -> Vec<(u32, f64)> {
        std::mem::take(&mut self.entries)
    }

    /// Merges every entry of `other` into `self` (adding values),
    /// consuming `other`'s entries.
    pub fn merge_from(&mut self, other: &mut SparseVec) {
        if self.entries.is_empty() {
            std::mem::swap(&mut self.entries, &mut other.entries);
            return;
        }
        for (k, v) in other.drain() {
            self.add(k, v);
        }
    }
}

impl FromIterator<(u32, f64)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        let mut v = SparseVec::new();
        for (k, val) in iter {
            v.add(k, val);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = SparseVec::new();
        v.set(3, 1.5);
        v.set(1, 2.5);
        v.set(7, 0.5);
        assert_eq!(v.get(3), 1.5);
        assert_eq!(v.get(1), 2.5);
        assert_eq!(v.get(7), 0.5);
        assert_eq!(v.get(2), 0.0);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn set_zero_removes() {
        let mut v = SparseVec::new();
        v.set(4, 2.0);
        assert_eq!(v.len(), 1);
        v.set(4, 0.0);
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
    }

    #[test]
    fn add_accumulates_and_cancels() {
        let mut v = SparseVec::new();
        v.add(9, 3.0);
        v.add(9, 2.0);
        assert_eq!(v.get(9), 5.0);
        v.add(9, -5.0);
        assert_eq!(v.get(9), 0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut v = SparseVec::new();
        for k in [5u32, 1, 9, 3] {
            v.set(k, k as f64);
        }
        let keys: Vec<u32> = v.iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn merge_from_adds_values() {
        let mut a: SparseVec = [(1, 1.0), (2, 2.0)].into_iter().collect();
        let mut b: SparseVec = [(2, 3.0), (4, 4.0)].into_iter().collect();
        a.merge_from(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.get(1), 1.0);
        assert_eq!(a.get(2), 5.0);
        assert_eq!(a.get(4), 4.0);
    }

    #[test]
    fn merge_into_empty_is_swap() {
        let mut a = SparseVec::new();
        let mut b: SparseVec = [(2, 3.0)].into_iter().collect();
        a.merge_from(&mut b);
        assert_eq!(a.get(2), 3.0);
        assert!(b.is_empty());
    }

    #[test]
    fn sum_counts_everything() {
        let v: SparseVec = [(0, 1.0), (10, 2.0), (20, 3.5)].into_iter().collect();
        assert_eq!(v.sum(), 6.5);
    }

    #[test]
    fn sub_epsilon_set_is_never_stored() {
        let mut v = SparseVec::new();
        v.set(5, SPARSE_EPS / 2.0);
        assert!(v.is_empty(), "sub-epsilon set must not create an entry");
        v.set(5, -SPARSE_EPS);
        assert!(v.is_empty(), "entries at ±SPARSE_EPS are treated as zero");
        // Just above the threshold is stored.
        v.set(5, SPARSE_EPS * 2.0);
        assert_eq!(v.len(), 1);
        // And overwriting with a sub-epsilon value evicts it again.
        v.set(5, SPARSE_EPS / 10.0);
        assert!(v.is_empty());
        assert_eq!(v.get(5), 0.0);
    }

    #[test]
    fn sub_epsilon_add_cancellation_evicts() {
        let mut v = SparseVec::new();
        v.add(3, 1.0);
        // Drive the value into the epsilon band without hitting zero
        // exactly: the entry must still be evicted.
        let new = v.add(3, -1.0 + SPARSE_EPS / 3.0);
        assert_eq!(new, 0.0, "add reports the post-eviction value");
        assert!(v.is_empty());
        // A sub-epsilon delta on an absent key creates nothing.
        assert_eq!(v.add(8, SPARSE_EPS / 2.0), 0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn merge_of_disjoint_keys_is_union() {
        let mut a: SparseVec = [(1, 1.0), (5, 5.0)].into_iter().collect();
        let mut b: SparseVec = [(0, 0.5), (3, 3.0), (9, 9.0)].into_iter().collect();
        a.merge_from(&mut b);
        assert!(b.is_empty(), "merge consumes the source");
        assert_eq!(a.len(), 5);
        let entries: Vec<(u32, f64)> = a.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0.5), (1, 1.0), (3, 3.0), (5, 5.0), (9, 9.0)],
            "union stays key-sorted"
        );
        assert_eq!(a.sum(), 18.5);
    }

    #[test]
    fn merge_cancelling_values_evicts_keys() {
        let mut a: SparseVec = [(2, 2.0), (4, 4.0)].into_iter().collect();
        let mut b: SparseVec = [(2, -2.0), (4, 1.0)].into_iter().collect();
        a.merge_from(&mut b);
        assert_eq!(a.get(2), 0.0, "exact cancellation evicts the key");
        assert_eq!(a.get(4), 5.0);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn with_capacity_invariants() {
        let v = SparseVec::with_capacity(16);
        // Capacity is an allocation hint only: the vector is born empty
        // and behaves exactly like `new()`.
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.sum(), 0.0);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v, SparseVec::new(), "capacity does not affect equality");
        // Zero capacity is valid and usable.
        let mut z = SparseVec::with_capacity(0);
        z.set(7, 1.0);
        assert_eq!(z.get(7), 1.0);
        // Growing past the reserved capacity keeps all invariants.
        let mut w = SparseVec::with_capacity(2);
        for k in 0..50u32 {
            w.set(k, f64::from(k) + 1.0);
        }
        assert_eq!(w.len(), 50);
        let keys: Vec<u32> = w.iter().map(|e| e.0).collect();
        assert!(keys.windows(2).all(|p| p[0] < p[1]), "keys stay sorted");
    }

    #[test]
    fn drain_empties_and_returns_sorted() {
        let mut v: SparseVec = [(9, 9.0), (1, 1.0), (4, 4.0)].into_iter().collect();
        let drained = v.drain();
        assert!(v.is_empty());
        assert_eq!(drained, vec![(1, 1.0), (4, 4.0), (9, 9.0)]);
    }

    proptest! {
        #[test]
        fn prop_matches_dense_model(ops in prop::collection::vec((0u32..32, -10.0f64..10.0), 0..200)) {
            let mut sparse = SparseVec::new();
            let mut dense = [0.0f64; 32];
            for (k, d) in ops {
                sparse.add(k, d);
                dense[k as usize] += d;
                // the sparse structure snaps tiny values to zero;
                // mirror that in the dense model
                if dense[k as usize].abs() <= SPARSE_EPS {
                    dense[k as usize] = 0.0;
                    // re-read to keep both in sync (sparse removed it)
                    prop_assert_eq!(sparse.get(k), 0.0);
                }
            }
            for k in 0..32u32 {
                prop_assert!((sparse.get(k) - dense[k as usize]).abs() < 1e-9);
            }
            // keys sorted
            let keys: Vec<u32> = sparse.iter().map(|e| e.0).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            prop_assert_eq!(keys, sorted);
        }
    }
}
