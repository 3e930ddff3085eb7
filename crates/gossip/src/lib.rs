//! # dlb-gossip — gossip dissemination substrate
//!
//! The distributed algorithm assumes every server knows the current
//! loads of all other servers and notes that "the loads can be
//! disseminated by a gossiping algorithm" with logarithmic convergence
//! (§IV). This crate simulates that layer:
//!
//! * [`push_pull`] — epidemic push-pull dissemination of versioned load
//!   vectors: each round every node exchanges its view with one random
//!   peer, keeping the freshest entry per server. Full dissemination
//!   takes `O(log m)` rounds, which the tests verify empirically.
//! * [`events`] — the same push-pull exchanges as *scheduled events*
//!   on a virtual-time heap with per-link delivery delays, so
//!   dissemination is measured in simulated milliseconds rather than
//!   synchronous rounds (the `dlb-runtime` event-executor pattern).
//! * [`delta`] — the bandwidth-frugal variant: views are sharded
//!   ([`shard`]) and frames carry only recently-changed entries plus
//!   one rotating full shard as anti-entropy fallback, cutting
//!   steady-state traffic from O(m) to O(changed) per frame. This is
//!   the layer the engine's `GossipFeed` drives its stale scoring from.
//! * [`push_sum`] — the push-sum averaging protocol (Kempe et al.) used
//!   to estimate the average system load `l_av` (the quantity the
//!   Theorem 1 bounds need).
//! * [`wire`] — compact message encoding on `bytes`: full-view frames
//!   (~100 kB at m = 5000 — the bandwidth bill the delta layer exists
//!   to cut) and sharded delta frames, both property-tested, with
//!   consume-from-buffer decoders for concatenated frame streams and a
//!   borrowed in-place parser ([`wire::DeltaFrameRef`]) for the delta
//!   layer's hot path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod events;
#[cfg(all(test, feature = "proptests"))]
mod proptests;
pub mod push_pull;
pub mod push_sum;
pub mod shard;
pub mod wire;

pub use delta::{DeltaGossip, DeltaGossipConfig, GossipTraffic};
pub use events::{EventGossip, EventGossipConfig, EventGossipStats};
pub use push_pull::{GossipNetwork, GossipStats};
pub use push_sum::PushSumNetwork;
pub use shard::ShardMap;
