//! # dlb-gossip — the load-dissemination layer
//!
//! The distributed algorithm assumes every server knows the current
//! loads of all other servers and notes that "the loads can be
//! disseminated by a gossiping algorithm" with logarithmic convergence
//! (§IV). This crate is that layer — one implementation, one codec:
//!
//! * [`delta`] — [`DeltaGossip`]: versioned push-pull exchanges as
//!   scheduled events on a persistent virtual-time heap with per-link
//!   delivery delays. Each period every node exchanges frames with one
//!   random peer and keeps the freshest entry per server; a cold start
//!   disseminates fully in `O(log m)` periods, which the tests verify
//!   empirically. Views are sharded ([`shard`]) and frames carry only
//!   recently-changed entries plus one rotating full shard as
//!   anti-entropy fallback, so steady-state traffic is O(changed) per
//!   frame, not O(m). "Recently" is a rumor window fixed by `m`
//!   (`2·⌈log2(m+1)⌉ + 2` of a node's own periods); the exchange period
//!   ([`DeltaGossipConfig::period_ms`]) is the one setting. This is the
//!   layer the engine's `GossipFeed` drives its stale scoring from.
//! * [`wire`] — the delta frame and its compact encoding. Between
//!   simulated nodes a frame's entries travel in a shared arena, never
//!   as bytes; the encoding defines what the bandwidth meter charges (and is its
//!   test oracle) and is what the ledger's wire probe times.
//!   [`wire::view_bytes`] prices the full m-entry view (~100 kB at
//!   m = 5000) the bandwidth tables use as their baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod shard;
pub mod wire;

pub use delta::{DeltaGossip, DeltaGossipConfig, GossipTraffic};
pub use shard::ShardMap;

#[cfg(test)]
mod proptests;
