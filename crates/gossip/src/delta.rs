//! Delta-encoded sharded gossip: the bandwidth-frugal control plane.
//!
//! Textbook push-pull gossip ships a node's **full** m-entry view on
//! every exchange — at m = 5000 that is ~100 kB per frame
//! ([`crate::wire::view_bytes`]), the bandwidth bill the ROADMAP calls
//! out. [`DeltaGossip`] runs the same versioned keep-freshest merge, as
//! scheduled events on a virtual-time heap with per-link delivery
//! delays, but encodes only what it has to send
//! ([`crate::wire::DeltaFrame`]):
//!
//! - **Hot set (rumor mongering).** Every entry a node heard within the
//!   last `hot_ticks` of its own periods (the rumor window, a function
//!   of `m` alone) is "hot" and rides along in the frame's `changed`
//!   list. A fresh publish therefore spreads epidemically in O(log m)
//!   periods, exactly like full-view push-pull — but the frame carries
//!   only the entries that recently moved.
//! - **Rotating shard fallback (anti-entropy).** Each frame also
//!   carries the *complete* contents of one shard
//!   ([`crate::ShardMap`]), rotating through the shards with the
//!   sender's tick. Replies pick the shard whose per-shard version
//!   summary (`since`, carried in the request) lags the responder's
//!   view the most. The fallback guarantees convergence even when a
//!   rumor dies out or a summary comparison is uninformative: a missed
//!   delta costs *time* (until the rotation covers the shard), never
//!   correctness — the same loss philosophy as the fault layer.
//!
//! Steady-state traffic per frame is O(hot entries + one shard) instead
//! of O(m): at m = 5000 with 256-entry shards that is a ~17× cut,
//! measured end-to-end in `BENCH_gossip.json` (every frame really is
//! encoded to bytes and parsed back, and [`GossipTraffic`] counts the
//! encoded bytes).
//!
//! **The frame path** is sized so a frame costs what its entries cost:
//! the sender writes header, summary, hot entries and the fallback
//! shard straight into one scratch buffer the network reuses (each
//! entry list's count is patched in after its walk), and an exact-size
//! copy of those bytes is the event payload — a growable per-frame
//! buffer would carry its slack capacity on every frame in flight. On
//! delivery the payload is validated and walked in place through
//! [`crate::wire::DeltaFrameRef`] and merged entry by entry, so
//! receiving allocates nothing. [`crate::wire::encode_delta`] and
//! [`crate::wire::decode_delta`] are no longer on this path; they
//! remain as the public owned codec of the same byte layout and as the
//! oracle: in this crate's test builds every frame built is compared
//! with `encode_delta` over a scan-and-assemble reference frame, and
//! the borrowed parser is property-tested against `decode_delta`.
//!
//! **The hot set is a bitset.** Each node keeps `hot`, one bit per
//! origin, with the invariant *bit o set ⇔ `heard[o] != NEVER` and
//! `tick − heard[o] < hot_ticks`*. A bit goes up wherever `heard` is
//! written (a merge that accepts an entry, a publish, a cold start's
//! own entry). The predicate can only turn false when `tick` grows,
//! which happens in exactly one place — the end of the node's own
//! initiation period — so that is the one place expired bits are
//! cleared. A frame then walks the set bits, in ascending origin order
//! like the scan it replaces, in O(hot + shard) instead of O(m), for
//! m/64 words per node.
//!
//! The heap is persistent: [`DeltaGossip::advance`] drains events up
//! to a virtual instant and returns, so an external driver —
//! the engine's `GossipFeed` — can interleave publishes and partial
//! advances with its own iteration clock. Everything is deterministic
//! per seed: peers come from a seeded RNG and the heap orders
//! deliveries by `(due, seq)`.

use std::sync::Arc;

use dlb_core::events::{EventHeap, Scheduled};
use dlb_core::rngutil::rng_for;
use dlb_obs::{NullSink, TraceEvent, TraceKind, TraceSink};
use rand::rngs::StdRng;
use rand::Rng;

use crate::shard::ShardMap;
use crate::wire::{self, DeltaFrameRef, WireEntry};

/// Timing of [`DeltaGossip`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaGossipConfig {
    /// Virtual ms between one node's successive exchange initiations.
    pub period_ms: f64,
}

impl Default for DeltaGossipConfig {
    fn default() -> Self {
        Self { period_ms: 100.0 }
    }
}

/// How many of a node's own ticks an entry stays "hot" (rides in the
/// `changed` list) after being heard: `2·⌈log2(m+1)⌉ + 2`, enough for a
/// rumor to spread w.h.p. before it cools.
fn hot_ticks(m: usize) -> u32 {
    2 * (usize::BITS - m.max(1).leading_zeros()) + 2
}

/// Wire-traffic counters for a delta-gossip network, accumulated over
/// its whole life (snapshot and subtract to meter an interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GossipTraffic {
    /// Frames put on the wire (requests + replies, even ones still in
    /// flight).
    pub frames: u64,
    /// Encoded bytes of those frames.
    pub bytes: u64,
    /// Completed push-pull exchanges (reply delivered and merged).
    pub exchanges: u64,
    /// Hot-set (`changed`) entries shipped.
    pub delta_entries: u64,
    /// Fallback-shard (`full`) entries shipped.
    pub full_entries: u64,
}

impl GossipTraffic {
    /// `true` when nothing was ever put on the wire — used to keep
    /// records of gossip-free runs byte-identical.
    pub fn is_quiet(&self) -> bool {
        self.frames == 0
    }

    /// Counter-wise difference since an earlier snapshot.
    pub fn since(&self, earlier: &GossipTraffic) -> GossipTraffic {
        GossipTraffic {
            frames: self.frames - earlier.frames,
            bytes: self.bytes - earlier.bytes,
            exchanges: self.exchanges - earlier.exchanges,
            delta_entries: self.delta_entries - earlier.delta_entries,
            full_entries: self.full_entries - earlier.full_entries,
        }
    }
}

#[derive(Debug, Clone)]
struct NodeState {
    /// `versions[origin]` — how fresh this node's belief about `origin`
    /// is (the believed load itself lives in [`DeltaGossip::loads`]).
    versions: Vec<u64>,
    /// Own tick at which each entry last changed; [`NEVER`] = cold.
    heard: Vec<u32>,
    /// Bit `origin` set ⇔ [`is_hot`](Self::is_hot): the hot set as a
    /// bitset, so a frame walks the hot entries and not all `m`.
    hot: Vec<u64>,
    /// Per-shard sum of held versions — the monotone summary shipped as
    /// a delta frame's `since` watermark.
    vsum: Vec<u64>,
    /// Completed initiation periods.
    tick: u32,
}

/// `heard` sentinel for entries that never changed (version 0, or
/// warm-started ancient history): never hot.
const NEVER: u32 = u32::MAX;

impl NodeState {
    /// The hot predicate, from `heard` alone: the entry changed within
    /// the last `hot_ticks` of this node's own periods.
    fn is_hot(&self, origin: usize, hot_ticks: u32) -> bool {
        let heard = self.heard[origin];
        heard != NEVER && self.tick.saturating_sub(heard) < hot_ticks
    }

    /// Records that `origin`'s entry changed now. `heard == tick`
    /// satisfies the predicate for any `hot_ticks >= 1`, so the bit
    /// goes up with it.
    fn mark_heard(&mut self, origin: usize) {
        self.heard[origin] = self.tick;
        self.hot[origin / 64] |= 1 << (origin % 64);
    }

    /// Completes an initiation period. Between writes to `heard` the
    /// predicate depends on `tick` alone and `tick` only moves here, so
    /// this is the one place a hot entry can cool: drop those bits.
    fn end_period(&mut self, hot_ticks: u32) {
        self.tick += 1;
        for w in 0..self.hot.len() {
            for bit in SetBits(self.hot[w]) {
                if !self.is_hot(w * 64 + bit, hot_ticks) {
                    self.hot[w] &= !(1 << bit);
                }
            }
        }
    }
}

/// Positions of the set bits of one word, ascending.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

#[derive(Debug, Clone)]
enum What {
    /// A node initiates its periodic exchange.
    Tick { node: u32 },
    /// An encoded delta frame arrives at `to`; it merges and replies.
    Request {
        from: u32,
        to: u32,
        frame: Arc<[u8]>,
    },
    /// The encoded reply frame arrives back at the initiator.
    Reply {
        from: u32,
        to: u32,
        frame: Arc<[u8]>,
    },
}

/// A sharded delta-gossip network on a persistent virtual-time heap
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct DeltaGossip {
    shards: ShardMap,
    nodes: Vec<NodeState>,
    /// `loads[node][origin]` — the load `node` believes `origin` has.
    /// Kept apart from the versions so callers can borrow every view
    /// as plain load vectors ([`loads`](Self::loads)).
    loads: Vec<Vec<f64>>,
    /// Per origin: the globally freshest version.
    newest: Vec<u64>,
    /// Per origin: how many nodes hold the freshest version.
    fresh: Vec<usize>,
    /// Stale `(node, origin)` pairs; `0` ⇔ fully disseminated.
    deficit: usize,
    /// Virtual instant dissemination last completed (sticky until the
    /// next staleness-creating publish).
    completed_at: Option<f64>,
    now: f64,
    period_ms: f64,
    hot_ticks: u32,
    heap: EventHeap<What>,
    rng: StdRng,
    traffic: GossipTraffic,
    /// The frame under construction; reused by every
    /// [`build_frame`](Self::build_frame) so only the exact-size
    /// payload copy is allocated per frame.
    scratch: Vec<u8>,
}

impl DeltaGossip {
    /// A cold-started network: each node initially knows only its own
    /// load (version 1).
    pub fn new(loads: &[f64], seed: u64, config: DeltaGossipConfig) -> Self {
        let m = loads.len();
        let mut net = Self::bare(loads, seed, config, false);
        net.deficit = m * m.saturating_sub(1);
        net.completed_at = if net.deficit == 0 { Some(0.0) } else { None };
        net.debug_check();
        net
    }

    /// A warm-started network: every node already holds every entry at
    /// version 1 (as after an initial dissemination round), all cold.
    /// This is the steady-state starting point the engine feed uses —
    /// the balancer's paper model assumes dissemination ran before
    /// balancing starts.
    pub fn warm(loads: &[f64], seed: u64, config: DeltaGossipConfig) -> Self {
        let mut net = Self::bare(loads, seed, config, true);
        net.completed_at = Some(0.0);
        net.debug_check();
        net
    }

    fn bare(loads: &[f64], seed: u64, config: DeltaGossipConfig, warm: bool) -> Self {
        let m = loads.len();
        let shards = ShardMap::auto(m);
        let known = |node: usize, origin: usize| warm || node == origin;
        let views: Vec<Vec<f64>> = (0..m)
            .map(|node| {
                (0..m)
                    .map(|origin| {
                        if known(node, origin) {
                            loads[origin]
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let nodes: Vec<NodeState> = (0..m)
            .map(|node| {
                let versions: Vec<u64> = (0..m).map(|o| u64::from(known(node, o))).collect();
                let mut vsum = vec![0u64; shards.count()];
                for (origin, version) in versions.iter().enumerate() {
                    vsum[shards.shard_of(origin)] += version;
                }
                let mut state = NodeState {
                    versions,
                    heard: vec![NEVER; m],
                    hot: vec![0; m.div_ceil(64)],
                    vsum,
                    tick: 0,
                };
                // A cold start's own entry is "just published"; a warm
                // start is all ancient history.
                if !warm {
                    state.mark_heard(node);
                }
                state
            })
            .collect();
        let mut heap = EventHeap::new();
        if m >= 2 {
            for node in 0..m as u32 {
                heap.push(0.0, What::Tick { node });
            }
        }
        Self {
            shards,
            nodes,
            loads: views,
            newest: vec![1; m],
            fresh: vec![if warm { m } else { 1 }; m],
            deficit: 0,
            completed_at: Some(0.0),
            now: 0.0,
            period_ms: config.period_ms,
            hot_ticks: hot_ticks(m),
            heap,
            rng: rng_for(seed, 0xDE17A),
            traffic: GossipTraffic::default(),
            scratch: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for the empty network.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The shard layout in use.
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> f64 {
        self.now
    }

    /// Wire-traffic counters accumulated so far.
    pub fn traffic(&self) -> GossipTraffic {
        self.traffic
    }

    /// Virtual instant at which the last full dissemination completed,
    /// if currently complete.
    pub fn completed_at(&self) -> Option<f64> {
        self.completed_at
    }

    /// Returns `true` when every node holds the globally freshest
    /// version of every origin's entry (O(1) counter check).
    pub fn fully_disseminated(&self) -> bool {
        self.deficit == 0
    }

    /// A node publishes a new local load (bumps its version; the entry
    /// becomes hot and starts spreading on subsequent exchanges).
    pub fn publish(&mut self, node: usize, load: f64) {
        let shard = self.shards.shard_of(node);
        let state = &mut self.nodes[node];
        let v = state.versions[node] + 1;
        state.versions[node] = v;
        self.loads[node][node] = load;
        state.mark_heard(node);
        state.vsum[shard] += 1;
        self.deficit += self.fresh[node] - 1;
        self.newest[node] = v;
        self.fresh[node] = 1;
        if self.deficit > 0 {
            self.completed_at = None;
        }
        self.debug_check();
    }

    /// Every node's believed load vector, indexed by node: the
    /// network's own storage, borrowed.
    pub fn loads(&self) -> &[Vec<f64>] {
        &self.loads
    }

    /// The load vector as node `node` currently believes it.
    pub fn view(&self, node: usize) -> Vec<f64> {
        self.loads[node].clone()
    }

    /// Copies node `node`'s believed load vector into `out` without
    /// allocating.
    pub fn view_into(&self, node: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.loads[node]);
    }

    /// Drains scheduled events up to virtual time `until_ms`
    /// (inclusive) and parks the clock there. `delays(i, j)` is the
    /// one-way delivery delay in virtual ms. The heap persists, so
    /// callers can interleave [`publish`](Self::publish) with repeated
    /// advances.
    pub fn advance<D: Fn(usize, usize) -> f64>(&mut self, until_ms: f64, delays: D) {
        self.advance_observed(until_ms, delays, &mut NullSink);
    }

    /// [`advance`](Self::advance) with a [`TraceSink`] observing frame
    /// deliveries: every merged frame emits a `gossip_delta` event when
    /// its hot set is non-empty and a `gossip_full` event when its
    /// fallback shard is, stamped with receiver/sender and the shard
    /// index. A [`NullSink`] run is bit-identical to the untraced path.
    pub fn advance_observed<D: Fn(usize, usize) -> f64, T: TraceSink>(
        &mut self,
        until_ms: f64,
        delays: D,
        tracer: &mut T,
    ) {
        assert!(
            until_ms >= self.now,
            "virtual time cannot run backwards ({} < {})",
            until_ms,
            self.now
        );
        while let Some(due) = self.heap.peek_due() {
            if due > until_ms {
                break;
            }
            let event = self.heap.pop().expect("peeked");
            self.now = event.due;
            self.handle(event, &delays, tracer);
        }
        self.now = until_ms;
    }

    /// Drains events until full dissemination or `max_ms` more virtual
    /// time elapses. Returns `(complete, virtual_ms)` where
    /// `virtual_ms` is the exact completion instant (or the deadline).
    pub fn run_until_complete<D: Fn(usize, usize) -> f64>(
        &mut self,
        max_ms: f64,
        delays: D,
    ) -> (bool, f64) {
        self.run_until_complete_observed(max_ms, delays, &mut NullSink)
    }

    /// [`run_until_complete`](Self::run_until_complete) with a
    /// [`TraceSink`] observing frame deliveries (see
    /// [`advance_observed`](Self::advance_observed)).
    pub fn run_until_complete_observed<D: Fn(usize, usize) -> f64, T: TraceSink>(
        &mut self,
        max_ms: f64,
        delays: D,
        tracer: &mut T,
    ) -> (bool, f64) {
        let deadline = self.now + max_ms;
        while self.completed_at.is_none() {
            match self.heap.peek_due() {
                Some(due) if due <= deadline => {
                    let event = self.heap.pop().expect("peeked");
                    self.now = event.due;
                    self.handle(event, &delays, tracer);
                }
                _ => {
                    self.now = deadline;
                    return (false, deadline);
                }
            }
        }
        let t = self.completed_at.expect("loop exit condition");
        self.now = self.now.max(t);
        (true, t)
    }

    /// Emits the dissemination events for a frame merged at `node` from
    /// `peer`: `gossip_delta` when the hot set rode along, `gossip_full`
    /// when the fallback shard did, `detail` carrying the entry count
    /// and `round` the shard index.
    fn trace_frame<T: TraceSink>(
        tracer: &mut T,
        now: f64,
        node: u32,
        peer: u32,
        frame: &DeltaFrameRef<'_>,
    ) {
        if !tracer.enabled() {
            return;
        }
        for (kind, entries) in [
            (TraceKind::GossipDelta, frame.changed().len()),
            (TraceKind::GossipFull, frame.full().len()),
        ] {
            if entries > 0 {
                tracer.emit(&TraceEvent {
                    kind,
                    at_ms: now,
                    node,
                    peer,
                    round: u64::from(frame.shard()),
                    tag: 0,
                    detail: entries as f64,
                });
            }
        }
    }

    fn handle<D: Fn(usize, usize) -> f64, T: TraceSink>(
        &mut self,
        event: Scheduled<What>,
        delays: &D,
        tracer: &mut T,
    ) {
        let now = event.due;
        let m = self.len();
        match event.item {
            What::Tick { node } => {
                let n = node as usize;
                let mut peer = self.rng.gen_range(0..m - 1) as u32;
                if peer >= node {
                    peer += 1;
                }
                let fallback = (self.nodes[n].tick as usize) % self.shards.count();
                let frame = self.build_frame(n, fallback);
                self.nodes[n].end_period(self.hot_ticks);
                self.heap.push(
                    now + delays(n, peer as usize),
                    What::Request {
                        from: node,
                        to: peer,
                        frame,
                    },
                );
                self.heap.push(now + self.period_ms, What::Tick { node });
            }
            What::Request { from, to, frame } => {
                let decoded = DeltaFrameRef::parse(&frame).expect("internally produced frame");
                let t = to as usize;
                Self::trace_frame(tracer, now, to, from, &decoded);
                self.merge_frame(t, &decoded, now);
                // Reply with whatever shard the requester's summary
                // says it lags most on; when nothing lags, fall back to
                // the responder's own rotation so anti-entropy keeps
                // sweeping.
                let mut fallback = (self.nodes[t].tick as usize) % self.shards.count();
                let mut best = 0u64;
                let mut theirs = decoded.since();
                for (s, &mine) in self.nodes[t].vsum.iter().enumerate() {
                    let gap = mine.saturating_sub(theirs.next().unwrap_or(0));
                    if gap > best {
                        best = gap;
                        fallback = s;
                    }
                }
                let reply = self.build_frame(t, fallback);
                self.heap.push(
                    now + delays(t, from as usize),
                    What::Reply {
                        from: to,
                        to: from,
                        frame: reply,
                    },
                );
            }
            What::Reply { from, to, frame } => {
                let decoded = DeltaFrameRef::parse(&frame).expect("internally produced frame");
                Self::trace_frame(tracer, now, to, from, &decoded);
                self.merge_frame(to as usize, &decoded, now);
                self.traffic.exchanges += 1;
            }
        }
    }

    /// Writes node `n`'s frame — its hot set plus the complete known
    /// contents of `fallback` — straight into the scratch buffer in the
    /// [`encode_delta`](wire::encode_delta) layout, meters the
    /// traffic counters and returns an exact-size copy as the event
    /// payload.
    fn build_frame(&mut self, n: usize, fallback: usize) -> Arc<[u8]> {
        #[cfg(test)]
        let before = self.traffic;
        let (state, loads) = (&self.nodes[n], &self.loads[n]);
        let in_fallback = self.shards.range(fallback);
        let known = |origin: &usize| state.versions[*origin] > 0;
        let entry = |origin: usize| WireEntry {
            origin: origin as u32,
            version: state.versions[origin],
            load: loads[origin],
        };
        // Set bits in ascending origin order, as a scan over 0..m
        // would visit them.
        let hot = (state.hot.iter().enumerate())
            .flat_map(|(w, &word)| SetBits(word).map(move |bit| w * 64 + bit))
            .filter(|o| !in_fallback.contains(o));

        let scratch = &mut self.scratch;
        scratch.clear();
        wire::put_delta_header(scratch, fallback as u32, &state.vsum);
        let changed = wire::put_entries(scratch, hot.filter(known).map(entry));
        let full = wire::put_entries(scratch, in_fallback.clone().filter(known).map(entry));

        self.traffic.frames += 1;
        self.traffic.bytes += scratch.len() as u64;
        self.traffic.delta_entries += u64::from(changed);
        self.traffic.full_entries += u64::from(full);
        let payload = Arc::from(scratch.as_slice());
        #[cfg(test)]
        self.assert_matches_reference(n, fallback, &payload, &before);
        payload
    }

    /// Keep-freshest merge of a delivered frame into `node`'s view,
    /// maintaining the freshness counters and shard summaries.
    fn merge_frame(&mut self, node: usize, frame: &DeltaFrameRef<'_>, now: f64) {
        let m = self.len();
        let (state, loads) = (&mut self.nodes[node], &mut self.loads[node]);
        for e in frame.changed().chain(frame.full()) {
            let origin = e.origin as usize;
            if origin >= m {
                continue; // hostile frame; internally never happens
            }
            let mine = state.versions[origin];
            if e.version > mine {
                debug_assert!(e.version <= self.newest[origin]);
                state.versions[origin] = e.version;
                loads[origin] = e.load;
                state.mark_heard(origin);
                state.vsum[self.shards.shard_of(origin)] += e.version - mine;
                if e.version == self.newest[origin] {
                    self.fresh[origin] += 1;
                    self.deficit -= 1;
                    if self.deficit == 0 && self.completed_at.is_none() {
                        self.completed_at = Some(now);
                    }
                }
            }
        }
        self.debug_check();
    }

    /// Debug-only ground truth for the incremental counters. The full
    /// rescan is O(m²) per merge, so it only runs on test-sized
    /// networks — the counters it validates are size-independent.
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            let m = self.len();
            if m > 64 {
                return;
            }
            let mut stale = 0;
            for origin in 0..m {
                let newest = self
                    .nodes
                    .iter()
                    .map(|s| s.versions[origin])
                    .max()
                    .unwrap_or(0);
                debug_assert_eq!(newest, self.newest[origin], "newest[{origin}] drifted");
                stale += self
                    .nodes
                    .iter()
                    .filter(|s| s.versions[origin] != newest)
                    .count();
            }
            debug_assert_eq!(stale, self.deficit, "deficit counter drifted");
            for (n, state) in self.nodes.iter().enumerate() {
                for s in 0..self.shards.count() {
                    let truth: u64 = self.shards.range(s).map(|o| state.versions[o]).sum();
                    debug_assert_eq!(truth, state.vsum[s], "vsum[{s}] drifted at node {n}");
                }
                for origin in 0..m {
                    debug_assert_eq!(
                        state.hot[origin / 64] >> (origin % 64) & 1 == 1,
                        state.is_hot(origin, self.hot_ticks),
                        "hot bit {origin} drifted from `heard` at node {n}"
                    );
                }
            }
        }
    }
}

/// The scan-and-assemble frame builder [`DeltaGossip::build_frame`]
/// replaced, kept as its oracle: in this crate's test builds every
/// frame the network puts on the wire is compared against it.
#[cfg(test)]
impl DeltaGossip {
    /// Node `n`'s frame assembled the slow way: an m-wide scan applying
    /// the hot predicate to `heard`, owned entry lists, a cloned
    /// summary.
    fn reference_frame(&self, n: usize, fallback: usize) -> wire::DeltaFrame {
        let state = &self.nodes[n];
        let in_fallback = self.shards.range(fallback);
        let entry = |origin: usize| WireEntry {
            origin: origin as u32,
            version: state.versions[origin],
            load: self.loads[n][origin],
        };
        let known = |o: &usize| state.versions[*o] > 0;
        wire::DeltaFrame {
            shard: fallback as u32,
            since: state.vsum.clone(),
            changed: (0..self.len())
                .filter(|o| {
                    known(o) && state.is_hot(*o, self.hot_ticks) && !in_fallback.contains(o)
                })
                .map(entry)
                .collect(),
            full: in_fallback.clone().filter(known).map(entry).collect(),
        }
    }

    /// Byte equality with the reference codec over the reference
    /// frame, and the same traffic metered since `before`.
    fn assert_matches_reference(
        &self,
        n: usize,
        fallback: usize,
        payload: &Arc<[u8]>,
        before: &GossipTraffic,
    ) {
        let reference = self.reference_frame(n, fallback);
        assert_eq!(
            payload,
            &wire::encode_delta(&reference),
            "node {n} (tick {}) built a different frame for shard {fallback}",
            self.nodes[n].tick
        );
        assert_eq!(
            self.traffic.since(before),
            GossipTraffic {
                frames: 1,
                bytes: reference.encoded_len() as u64,
                exchanges: 0,
                delta_entries: reference.changed.len() as u64,
                full_entries: reference.full.len() as u64,
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeltaGossipConfig {
        DeltaGossipConfig::default()
    }

    #[test]
    fn cold_start_disseminates_fully() {
        let loads: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut net = DeltaGossip::new(&loads, 7, cfg());
        assert!(!net.fully_disseminated());
        let (complete, t) = net.run_until_complete(60_000.0, |_, _| 10.0);
        assert!(complete, "did not disseminate");
        assert!(t > 0.0 && t < 40.0 * 100.0, "completed at {t} ms");
        for node in 0..50 {
            assert_eq!(net.view(node), loads, "node {node} view wrong");
        }
        let traffic = net.traffic();
        assert!(traffic.frames > 0 && traffic.bytes > 0 && traffic.exchanges > 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let loads: Vec<f64> = (0..32).map(|i| (i * i) as f64).collect();
        let run = |seed| {
            let mut net = DeltaGossip::new(&loads, seed, cfg());
            let out =
                net.run_until_complete(60_000.0, |i, j| 1.0 + ((i * 31 + j * 17) % 13) as f64);
            (out, net.traffic(), net.view(5))
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0, "seed must matter");
    }

    #[test]
    fn clones_replay_identically() {
        // The engine feed relies on Engine: Clone cloning the whole
        // network mid-flight (heap, RNG, counters and all).
        let loads: Vec<f64> = (0..24).map(|i| (i % 7) as f64).collect();
        let mut a = DeltaGossip::new(&loads, 9, cfg());
        a.advance(350.0, |_, _| 5.0);
        let mut b = a.clone();
        a.publish(3, 99.0);
        b.publish(3, 99.0);
        a.advance(5_000.0, |_, _| 5.0);
        b.advance(5_000.0, |_, _| 5.0);
        assert_eq!(a.traffic(), b.traffic());
        for node in 0..24 {
            assert_eq!(a.view(node), b.view(node));
        }
    }

    #[test]
    fn warm_start_is_complete_and_quiet_until_published() {
        let loads: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut net = DeltaGossip::warm(&loads, 3, cfg());
        assert!(net.fully_disseminated());
        assert_eq!(net.completed_at(), Some(0.0));
        for node in 0..40 {
            assert_eq!(net.view(node), loads);
        }
        net.publish(17, 1000.0);
        assert!(!net.fully_disseminated());
        let (complete, t) = net.run_until_complete(60_000.0, |_, _| 5.0);
        assert!(complete);
        assert!(t > 0.0);
        for node in 0..40 {
            assert_eq!(net.view(node)[17], 1000.0, "node {node} stale");
        }
    }

    #[test]
    fn delta_views_match_full_view_gossip_views() {
        // Protocol-level delta∘apply ≡ full view: shipping hot sets
        // and rotating shards must leave every node holding what
        // full-view push-pull would — the exact load vector.
        let loads: Vec<f64> = (0..48).map(|i| (i * 3 % 11) as f64).collect();
        let mut delta = DeltaGossip::new(&loads, 21, cfg());
        let (complete, _) = delta.run_until_complete(60_000.0, |_, _| 4.0);
        assert!(complete);
        for node in 0..48 {
            assert_eq!(delta.view(node), loads, "node {node} differs");
        }
    }

    #[test]
    fn convergence_is_logarithmic() {
        // Push-pull completes in O(log m) periods w.h.p.: a cold start
        // stays under a small multiple of ⌈log2 m⌉ initiation periods,
        // and 16× the nodes costs nowhere near 16× the periods.
        let config = cfg();
        let periods = |m: usize| {
            let loads: Vec<f64> = (0..m).map(|i| i as f64).collect();
            let mut net = DeltaGossip::new(&loads, 11, config);
            let (complete, t) = net.run_until_complete(60_000.0, |_, _| 10.0);
            assert!(complete, "m={m} did not disseminate");
            let periods = (t / config.period_ms).ceil() as u32;
            let budget = 3 * (m as f64).log2().ceil() as u32;
            assert!(periods <= budget, "m={m}: {periods} periods > {budget}");
            periods
        };
        let [small, _, large] = [16, 64, 256].map(periods);
        assert!(
            large < 4 * small,
            "16× the nodes: {small} → {large} periods"
        );
    }

    #[test]
    fn completion_instant_tracks_link_delay_and_the_deadline() {
        // Two nodes, both tick at t = 0: the two requests landing at
        // the one-way delay already disseminate everything, so that —
        // not a reply's round trip — is the completion instant.
        let mut pair = DeltaGossip::new(&[1.0, 2.0], 1, cfg());
        assert_eq!(pair.run_until_complete(10_000.0, |_, _| 7.0), (true, 7.0));

        let loads: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let finish = |delay: f64| {
            let mut net = DeltaGossip::new(&loads, 9, cfg());
            net.run_until_complete(60_000.0, |_, _| delay)
        };
        let ((fast_done, fast), (slow_done, slow)) = (finish(1.0), finish(400.0));
        assert!(fast_done && slow_done);
        assert!(slow > fast, "slow {slow} ms vs fast {fast} ms");
        // Links slower than the horizon: nothing is ever delivered, so
        // the run parks at the deadline and says so.
        let mut cut = DeltaGossip::new(&loads, 9, cfg());
        assert_eq!(cut.run_until_complete(500.0, |_, _| 1e9), (false, 500.0));
        assert_eq!(cut.now_ms(), 500.0);
        assert!(!cut.fully_disseminated());
    }

    #[test]
    fn interleaved_publishes_and_advances_converge() {
        let loads: Vec<f64> = (0..36).map(|i| i as f64).collect();
        let mut net = DeltaGossip::warm(&loads, 5, cfg());
        let delays = |i: usize, j: usize| 1.0 + ((i + 2 * j) % 7) as f64;
        for step in 0..30u32 {
            if step % 3 == 0 {
                let node = (step as usize * 7) % 36;
                net.publish(node, 500.0 + step as f64);
            }
            let until = net.now_ms() + 100.0;
            net.advance(until, delays);
        }
        let (complete, _) = net.run_until_complete(60_000.0, delays);
        assert!(complete);
        let reference = net.view(0);
        for node in 1..36 {
            assert_eq!(net.view(node), reference, "node {node} diverged");
        }
    }

    #[test]
    fn steady_state_frames_are_much_smaller_than_full_views() {
        // Once everything is cold, a frame is one shard + summaries —
        // nowhere near the m-entry full view. This is the bandwidth
        // property the bench quantifies at m=5000.
        let m = 512;
        let loads: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let mut net = DeltaGossip::warm(&loads, 1, cfg());
        let before = net.traffic();
        net.advance(1_000.0, |_, _| 1.0);
        let t = net.traffic().since(&before);
        assert!(t.frames > 0);
        let per_frame = t.bytes as f64 / t.frames as f64;
        let full_view = wire::view_bytes(m) as f64;
        assert!(
            per_frame * 4.0 < full_view,
            "steady frame {per_frame} B vs full view {full_view} B"
        );
        assert_eq!(t.delta_entries, 0, "cold network must ship no rumors");
    }

    #[test]
    fn traced_runs_observe_deltas_and_shards_without_perturbing_the_protocol() {
        use dlb_obs::MemorySink;
        // m = 100 so ShardMap::auto yields several shards — with a
        // single shard every entry rides in `full` and no delta can
        // ever ship.
        let loads: Vec<f64> = (0..100).map(|i| (i * 5 % 13) as f64).collect();
        let delays = |i: usize, j: usize| 2.0 + ((i + 3 * j) % 5) as f64;

        let mut traced = DeltaGossip::new(&loads, 11, cfg());
        let mut sink = MemorySink::default();
        let out_traced = traced.run_until_complete_observed(60_000.0, delays, &mut sink);

        let mut plain = DeltaGossip::new(&loads, 11, cfg());
        let out_plain = plain.run_until_complete(60_000.0, delays);

        // Observation is passive: same completion instant, traffic, and
        // views whether or not a sink is attached.
        assert_eq!(out_traced, out_plain);
        assert_eq!(traced.traffic(), plain.traffic());
        for node in 0..100 {
            assert_eq!(traced.view(node), plain.view(node));
        }

        // A cold start spreads by rumor and shard alike, and every
        // frame merge is on the record.
        let deltas = sink
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::GossipDelta)
            .count();
        let fulls = sink
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::GossipFull)
            .count();
        assert!(deltas > 0, "cold start must ship rumors");
        assert!(fulls > 0, "anti-entropy shards must ride along");
        for e in &sink.events {
            assert!(e.detail >= 1.0, "events carry entry counts");
            assert!((e.node as usize) < 100 && (e.peer as usize) < 100);
            assert!((e.round as usize) < traced.shards().count());
        }
    }

    #[test]
    fn every_frame_of_a_churny_run_equals_the_reference_builders() {
        // In test builds `build_frame` hands every frame it puts on
        // the wire to `assert_matches_reference`: same bytes as
        // `encode_delta(&reference_frame(..))`, same traffic metered.
        // This drives it hard: cold and warm starts, publishes landing
        // mid-period between partial advances, then a quiet half that
        // runs past the rumor window so every rumor cools, at sizes
        // whose bitsets span 1, 2, 3 and 9 words over 2, 4, 5 and 8
        // shards.
        let delays = |i: usize, j: usize| 1.0 + ((i * 3 + j * 7) % 11) as f64;
        for m in [50usize, 100, 130, 520] {
            for warm in [false, true] {
                let loads: Vec<f64> = (0..m).map(|i| (i * 7 % 31) as f64).collect();
                let mut net = if warm {
                    DeltaGossip::warm(&loads, m as u64, cfg())
                } else {
                    DeltaGossip::new(&loads, m as u64, cfg())
                };
                // Every (node, fallback) pair in the current state,
                // including shards the rotation did not pick.
                let every_frame = |net: &mut DeltaGossip| {
                    for n in 0..m {
                        for fallback in 0..net.shards().count() {
                            net.build_frame(n, fallback);
                        }
                    }
                };
                for step in 0..5 {
                    for k in 0..m / 5 {
                        net.publish((step * 13 + k * 7) % m, (step * m + k) as f64);
                    }
                    net.advance(net.now_ms() + 130.0, delays);
                }
                let t = net.traffic();
                assert!(
                    t.frames > 10 * m as u64 && t.delta_entries > 0 && t.full_entries > 0,
                    "m={m} warm={warm}: {t:?}"
                );
                every_frame(&mut net);
                let hot = |net: &DeltaGossip| {
                    (net.nodes.iter().flat_map(|s| &s.hot))
                        .map(|w| w.count_ones())
                        .sum::<u32>()
                };
                assert!(hot(&net) > 0, "m={m} warm={warm}: churn left no rumor");
                // Quiet: dissemination completes, then the window
                // passes without a fresh `heard`, so every bit clears
                // in `end_period` while frames keep flowing.
                let (complete, _) = net.run_until_complete(60_000.0, delays);
                assert!(complete);
                let window = f64::from(hot_ticks(m) + 1) * cfg().period_ms;
                while net.now_ms() < net.completed_at().unwrap() + window {
                    net.advance(net.now_ms() + 130.0, delays);
                }
                assert_eq!(hot(&net), 0, "m={m} warm={warm}: rumors never cooled");
                every_frame(&mut net);
            }
        }
    }

    #[test]
    fn trivial_networks_are_complete_and_silent() {
        let mut single = DeltaGossip::new(&[9.0], 1, cfg());
        assert!(single.fully_disseminated());
        let (complete, t) = single.run_until_complete(1_000.0, |_, _| 1.0);
        assert!(complete);
        assert_eq!(t, 0.0);
        assert!(single.traffic().is_quiet());
        assert!(!single.is_empty());
        assert_eq!(single.len(), 1);
    }
}
