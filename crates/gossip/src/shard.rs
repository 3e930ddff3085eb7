//! Contiguous sharding of the origin space for delta gossip.
//!
//! [`DeltaGossip`](crate::DeltaGossip) splits the `m` origins into
//! fixed contiguous shards so each node can keep one version-summary
//! word per shard and each frame can carry one shard's full contents as
//! its anti-entropy fallback. The shard size is the knob that trades
//! fallback-frame size (smaller shards → smaller frames) against
//! summary size and worst-case repair time (more shards → longer
//! rotation); [`ShardMap::auto`] picks a size that keeps the fallback a
//! small fraction of the full view at production scale while not
//! degenerating to one-origin shards on tiny test systems.

/// Maps origins `0..m` onto contiguous fixed-size shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    m: usize,
    shard_size: usize,
}

impl ShardMap {
    /// Largest shard [`auto`](Self::auto) will pick; 256 entries ≈ 5 kB
    /// encoded, a UDP-friendly fallback even at m = 100 000.
    pub const MAX_AUTO_SHARD: usize = 256;

    /// Smallest shard [`auto`](Self::auto) will pick, so tiny systems
    /// don't fragment into per-origin shards.
    pub const MIN_AUTO_SHARD: usize = 32;

    /// Picks a shard size for `m` origins: roughly m/8 (so even small
    /// systems rotate through several shards), clamped to
    /// [[`MIN_AUTO_SHARD`](Self::MIN_AUTO_SHARD),
    /// [`MAX_AUTO_SHARD`](Self::MAX_AUTO_SHARD)].
    pub fn auto(m: usize) -> Self {
        let target = m.div_ceil(8);
        let shard_size = target.clamp(Self::MIN_AUTO_SHARD, Self::MAX_AUTO_SHARD);
        ShardMap { m, shard_size }
    }

    /// Number of shards (at least 1 even for an empty system, so the
    /// rotation `tick % count` is always well defined).
    pub fn count(&self) -> usize {
        self.m.div_ceil(self.shard_size).max(1)
    }

    /// Which shard an origin belongs to.
    pub fn shard_of(&self, origin: usize) -> usize {
        debug_assert!(origin < self.m, "origin {origin} out of range {}", self.m);
        origin / self.shard_size
    }

    /// The origin range a shard covers.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        let lo = shard * self.shard_size;
        let hi = (lo + self.shard_size).min(self.m);
        debug_assert!(lo < hi || self.m == 0, "shard {shard} out of range");
        lo..hi
    }
}

/// Explicit shard sizes, for tests that want a layout `auto` does not
/// pick.
#[cfg(test)]
impl ShardMap {
    pub(crate) fn with_shard_size(m: usize, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard size must be positive");
        ShardMap { m, shard_size }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_partition_the_origin_space() {
        for m in [1, 31, 32, 33, 100, 255, 256, 257, 5000] {
            let map = ShardMap::auto(m);
            let mut seen = vec![false; m];
            for s in 0..map.count() {
                for o in map.range(s) {
                    assert!(!seen[o], "origin {o} covered twice (m={m})");
                    seen[o] = true;
                    assert_eq!(map.shard_of(o), s, "m={m} origin={o}");
                }
            }
            assert!(seen.iter().all(|&b| b), "m={m}: some origin uncovered");
        }
    }

    #[test]
    fn auto_sizing_hits_the_production_target() {
        // At m=5000 the fallback shard must be a small fraction of the
        // full view — this ratio is what buys the ≥10× bandwidth win.
        let map = ShardMap::auto(5000);
        assert_eq!(map.shard_size, 256);
        assert!(map.count() >= 15, "only {} shards", map.count());
        // Small systems still rotate through several shards…
        assert!(ShardMap::auto(100).count() >= 3);
        // …but never fragment below the minimum shard size.
        assert_eq!(ShardMap::auto(8).count(), 1);
    }

    #[test]
    fn explicit_shard_size_is_respected() {
        let map = ShardMap::with_shard_size(10, 4);
        assert_eq!(map.count(), 3);
        assert_eq!(map.range(2), 8..10);
        assert_eq!(map.shard_of(9), 2);
    }
}
