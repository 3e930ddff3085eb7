//! The gossip feed: real dissemination behind the engine's scoring.
//!
//! The paper (§IV) assumes loads "can be disseminated by a gossiping
//! algorithm" running roughly O(log m) times faster than the balancer,
//! so every server scores partners on *almost* fresh views.
//!
//! [`GossipFeed`] runs that algorithm. It wraps a
//! [`dlb_gossip::DeltaGossip`] network — the sharded, delta-encoded
//! control plane — on the engine's instance topology: one gossip node
//! per server, link delays of half the pairwise latency (`c_ij / 2`,
//! the one-way trip of the cost model's round trip). Each engine
//! iteration, [`GossipFeed::step`] publishes every server's changed
//! load into the protocol and advances the virtual gossip clock by
//! `⌈log2 m⌉` periods — the paper's speed ratio — and the pruned
//! pre-scoring ([`ScoreView::PerServer`](crate::round::ScoreView)) then
//! reads each node's believed load vector. Views are served by
//! reference straight from the network's own storage
//! ([`DeltaGossip::loads`]): the network only moves inside `step`, so
//! what [`GossipFeed::views`] lends out is the state as of the last
//! step without a second m×m copy. They are therefore genuinely
//! per-server, genuinely stale (a load published this iteration reaches
//! most nodes a fraction of an iteration later), and every byte that
//! moved is metered in [`GossipTraffic`].
//!
//! The network starts [warm](dlb_gossip::DeltaGossip::warm): the paper
//! model assumes an initial dissemination round ran before balancing
//! starts, so iteration 0 scores on exact loads and staleness only
//! appears once loads start moving.

use dlb_core::LatencyMatrix;
use dlb_gossip::{DeltaGossip, DeltaGossipConfig, GossipTraffic};

/// Drives a [`DeltaGossip`] network in lockstep with the engine's
/// iterations and serves per-server load views (see the module docs).
#[derive(Debug, Clone)]
pub struct GossipFeed {
    net: DeltaGossip,
    period_ms: f64,
    /// Gossip periods advanced per engine iteration: `⌈log2 m⌉`, the
    /// paper's gossip-vs-balancer speed ratio.
    periods_per_iter: u32,
    /// Last load each server published, so unchanged loads don't churn
    /// versions (and bandwidth) for nothing.
    published: Vec<f64>,
}

impl GossipFeed {
    /// A feed over `loads.len()` servers, gossiping every `period_ms`
    /// virtual ms. Deterministic per `seed`.
    pub fn new(loads: &[f64], period_ms: f64, seed: u64) -> Self {
        assert!(
            period_ms.is_finite() && period_ms > 0.0,
            "gossip period must be positive, got {period_ms}"
        );
        let m = loads.len();
        let net = DeltaGossip::warm(loads, seed, DeltaGossipConfig { period_ms });
        let periods_per_iter = (usize::BITS - m.max(2).saturating_sub(1).leading_zeros()).max(1);
        Self {
            net,
            period_ms,
            periods_per_iter,
            published: loads.to_vec(),
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.published.len()
    }

    /// Returns `true` for an empty system.
    pub fn is_empty(&self) -> bool {
        self.published.is_empty()
    }

    /// One engine iteration's worth of gossip: publish every changed
    /// load, advance `⌈log2 m⌉` periods with one-way link delays of
    /// `latency(i, j) / 2`.
    pub fn step(&mut self, latency: &LatencyMatrix, loads: &[f64]) {
        assert_eq!(loads.len(), self.len(), "feed built for a different size");
        for (i, (&load, published)) in loads.iter().zip(self.published.iter_mut()).enumerate() {
            if load != *published {
                self.net.publish(i, load);
                *published = load;
            }
        }
        let until = self.net.now_ms() + self.period_ms * f64::from(self.periods_per_iter);
        self.net.advance(until, |i, j| latency.get(i, j) / 2.0);
    }

    /// The load vector as server `id`'s gossip node currently believes
    /// it (as of the last [`step`](Self::step)).
    pub fn view(&self, id: usize) -> &[f64] {
        &self.net.loads()[id]
    }

    /// All per-server views, indexed by server.
    pub fn views(&self) -> &[Vec<f64>] {
        self.net.loads()
    }

    /// Wire traffic the feed's protocol has generated so far.
    pub fn traffic(&self) -> GossipTraffic {
        self.net.traffic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_latency(m: usize, ms: f64) -> LatencyMatrix {
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, ms);
                }
            }
        }
        lat
    }

    #[test]
    fn starts_exact_and_tracks_changes_with_lag() {
        let m = 40;
        let loads: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let mut feed = GossipFeed::new(&loads, 100.0, 7);
        for i in 0..m {
            assert_eq!(feed.view(i), &loads[..], "warm start must be exact");
        }
        // One server's load changes; after a step most nodes know, and
        // after a few steps everyone does.
        let mut new_loads = loads.clone();
        new_loads[3] = 999.0;
        feed.step(&uniform_latency(m, 20.0), &new_loads);
        let aware = (0..m).filter(|&i| feed.view(i)[3] == 999.0).count();
        assert!(aware > 0, "gossip must have started spreading");
        for _ in 0..6 {
            feed.step(&uniform_latency(m, 20.0), &new_loads);
        }
        for i in 0..m {
            assert_eq!(feed.view(i)[3], 999.0, "node {i} never caught up");
        }
        assert!(feed.traffic().bytes > 0);
    }

    #[test]
    fn unchanged_loads_publish_nothing() {
        let loads: Vec<f64> = (0..24).map(|i| (i % 5) as f64).collect();
        let mut feed = GossipFeed::new(&loads, 100.0, 1);
        feed.step(&uniform_latency(24, 10.0), &loads);
        let t = feed.traffic();
        assert_eq!(t.delta_entries, 0, "no publish ⇒ nothing hot: {t:?}");
        assert!(!feed.is_empty());
        assert_eq!(feed.len(), 24);
    }

    #[test]
    fn traffic_and_views_are_pinned_on_a_moving_96_server_instance() {
        // Literals recorded on the commit before the fused frame
        // builder, the borrowed parse and the hot bitset landed: none
        // of them may move a byte count or a believed load. m = 96
        // gives three shards and a two-word hot bitset.
        let m = 96;
        let mut loads: Vec<f64> = (0..m)
            .map(|i| ((i * 37) % 23) as f64 + 0.5 * i as f64)
            .collect();
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, 4.0 + ((i * 7 + j * 13) % 41) as f64);
                }
            }
        }
        let mut feed = GossipFeed::new(&loads, 100.0, 17);
        for step in 0..12 {
            for (k, load) in loads.iter_mut().enumerate() {
                if (k + step) % 3 == 0 {
                    *load += ((k * 5 + step * 11) % 7) as f64 - 2.5;
                }
            }
            feed.step(&lat, &loads);
        }
        let mut fold = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over every view's bits
        for view in feed.views() {
            for load in view {
                fold = (fold ^ load.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            feed.traffic(),
            GossipTraffic {
                frames: 16224,
                bytes: 25159580,
                exchanges: 8064,
                delta_entries: 706363,
                full_entries: 519168,
            }
        );
        assert_eq!(fold, 4337646411443794725);
    }

    #[test]
    fn steps_are_deterministic_per_seed() {
        let loads: Vec<f64> = (0..30).map(|i| i as f64 * 1.5).collect();
        let lat = uniform_latency(30, 15.0);
        let run = |seed| {
            let mut feed = GossipFeed::new(&loads, 50.0, seed);
            let mut loads = loads.clone();
            for step in 0..10 {
                loads[step * 2] += 7.0;
                feed.step(&lat, &loads);
            }
            (feed.traffic(), feed.views().to_vec())
        };
        let (traffic, views) = run(3);
        assert_eq!((traffic, views), run(3), "same seed must replay exactly");
        assert!(!traffic.is_quiet());
    }
}
