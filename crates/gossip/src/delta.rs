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
//! measured end-to-end in `BENCH_gossip.json` ([`GossipTraffic`] meters
//! each frame at its encoded size).
//!
//! **The frame path: metered whole, shipped trimmed.** The network is
//! simulated in one process, so a frame is never serialized. A node's
//! `versions` only grow (a merge or a publish raises them), so an entry
//! the receiver already holds at its version when the frame is sent is
//! a no-op whenever the frame lands. [`GossipTraffic`] and the trace's
//! `gossip_delta`/`gossip_full` counts meter the frame described above,
//! whole, at its encoded size; the frame handed to the receiver carries
//! the same summary — a request's only: a reply's is never read, so it
//! ships empty — and, in the same order, only the entries it holds at
//! an older version, so views, versions, hot sets and counters end as
//! if the whole frame had shipped. Building a frame costs what it
//! ships plus m/64 words, not what it meters: the metered lengths are
//! counts kept on the side, and the shipped entries come from the
//! receiver's stale set (below). The codec is the meter's oracle: in
//! this crate's test builds every frame's metered traffic is checked
//! against [`crate::wire::encode_delta`] of a scan-and-assemble
//! reference frame, and the shipped payload, read back, against that
//! frame cut to what the receiver lacks.
//!
//! **Frames in flight share one arena.** A frame does not travel as a
//! [`crate::wire::DeltaFrame`] value: its shipped entries (`changed`,
//! then `full`) and a request's summary are appended to one arena the
//! network owns, and the heap event carries eight `u32`s — the shard,
//! the arena span, where the entries and the summary start, the two
//! shipped lengths and the two metered ones. A delivery merges straight
//! from the arena and frees the span. Frames land out of send order, so
//! a free only marks its span; the arena's live front advances past
//! marked spans, and the prefix before it is cut once it is more than
//! half a buffer. A frame allocates nothing of its own (the buffers
//! grow only with the window), and the arena holds at most twice the
//! payload from the oldest frame in flight on.
//!
//! **Hot and stale sets are bitsets.** Each node keeps `hot`, one bit
//! per origin, with the invariant *bit o set ⇔ `heard[o] != NEVER` and
//! `tick − heard[o] < hot_ticks`*. A bit goes up wherever `heard` is
//! written (a merge that accepts an entry, a publish, a cold start's
//! own entry). The predicate can only turn false when `tick` grows,
//! which happens in exactly one place — the end of the node's own
//! initiation period — so that is the one place expired bits are
//! cleared. Each of those writes first sets the version to at least 1,
//! so a hot entry is known, and the metered `changed` length is the
//! popcount of the hot bits outside the fallback shard; the metered
//! `full` length is a per-shard count of known origins, bumped when a
//! merge takes a version up from 0. The network also keeps one *stale*
//! set per node, *bit o set ⇔ `versions[o] < newest[o]`*: a publish
//! sets its origin's bit in every other node, a merge that reaches
//! `newest` clears it, and the popcount over all nodes is the
//! dissemination deficit. Inside it sits the *lagging* set, *bit o set
//! ⇔ `versions[o] + 1 < newest[o]`*: a publish copies its origin's
//! stale bit there before setting it, and a merge that reaches
//! `newest − 1` clears it. An entry the receiver holds older than the
//! sender (`lacks[o] < versions[o] ≤ newest[o]`) is stale there, and
//! where the sender is stale too, lagging there. So a frame's
//! candidates are the receiver's stale bits where the sender is fresh
//! or the receiver lags — of the hot bits outside the shard and of the
//! shard — and it keeps those whose entry the receiver lacks, in
//! ascending origin order like the scan it replaces.
//!
//! The heap is persistent: [`DeltaGossip::advance`] drains events up
//! to a virtual instant and returns, so an external driver —
//! the engine's `GossipFeed` — can interleave publishes and partial
//! advances with its own iteration clock. Everything is deterministic
//! per seed: peers come from a seeded RNG and the heap orders
//! deliveries by `(due, seq)`.

use dlb_core::events::{EventHeap, Scheduled};
use dlb_core::rngutil::rng_for;
use dlb_obs::{NullSink, TraceEvent, TraceKind, TraceSink};
use rand::rngs::StdRng;
use rand::Rng;

use crate::shard::ShardMap;
use crate::wire::{self, WireEntry};

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
    /// Encoded bytes of those frames, each metered whole (see the
    /// module docs: the payload handed over may be shorter).
    pub bytes: u64,
    /// Completed push-pull exchanges (reply delivered and merged).
    pub exchanges: u64,
    /// Hot-set (`changed`) entries of those frames.
    pub delta_entries: u64,
    /// Fallback-shard (`full`) entries of those frames.
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
    /// bitset, counted for the metered `changed` length and walked for
    /// the shipped one.
    hot: Vec<u64>,
    /// Per-shard sum of held versions — the monotone summary shipped as
    /// a delta frame's `since` watermark.
    vsum: Vec<u64>,
    /// Per-shard count of known origins (`versions[o] > 0`): the
    /// metered length of a frame's fallback shard.
    known: Vec<u32>,
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

/// The bits of word `w` whose origins lie in `range`.
fn word_mask(w: usize, range: &std::ops::Range<usize>) -> u64 {
    // The bits at and above `b` of the word, for `b` in 0..=64.
    let from = |b: usize| {
        let b = b.clamp(w * 64, w * 64 + 64) - w * 64;
        u64::MAX.checked_shl(b as u32).unwrap_or(0)
    };
    from(range.start) & !from(range.end)
}

#[derive(Debug, Clone)]
enum What {
    /// A node initiates its periodic exchange.
    Tick { node: u32 },
    /// A delta frame arrives at `to`; it merges and replies.
    Request { from: u32, to: u32, frame: Frame },
    /// The reply frame arrives back at the initiator.
    Reply { from: u32, to: u32, frame: Frame },
}

/// A frame in flight: where its payload sits in the [`Arena`] (see the
/// module docs).
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The fallback shard.
    shard: u32,
    /// The arena span holding the payload; delivery frees it.
    span: u32,
    /// Arena position of the first shipped entry: `changed` entries
    /// from the hot set, then `full` entries from the fallback shard.
    start: u32,
    changed: u32,
    full: u32,
    /// Arena position of a request's summary, one sum per shard (a
    /// reply ships none).
    since: u32,
    /// The metered `changed` and `full` entry counts, for the trace.
    entries: [u32; 2],
}

/// The payloads of every frame in flight, in send order: one buffer of
/// entries, one of request summaries, and per frame a [`Span`] of each.
/// Positions are logical `u32`s (wrapping), so a frame on the heap
/// keeps naming its payload while the delivered prefix is cut away.
#[derive(Debug, Clone, Default)]
struct Arena {
    entries: Vec<WireEntry>,
    sums: Vec<u64>,
    spans: Vec<Span>,
    /// Logical positions of `spans[0]`, `entries[0]` and `sums[0]`.
    base: Pos,
    /// The first undelivered span and its first entry and sum.
    front: Pos,
}

/// A span id and an entry and a summary position, all logical.
#[derive(Debug, Clone, Copy, Default)]
struct Pos {
    span: u32,
    entry: u32,
    sum: u32,
}

impl Pos {
    /// How far `self` lies past `base`, in spans, entries and sums.
    fn past(self, base: Pos) -> [usize; 3] {
        let (at, base) = (
            [self.span, self.entry, self.sum],
            [base.span, base.entry, base.sum],
        );
        std::array::from_fn(|i| at[i].wrapping_sub(base[i]) as usize)
    }
}

/// One frame's share of the arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    entries: u32,
    sums: u32,
    /// Not yet delivered.
    live: bool,
}

impl Arena {
    /// Where the next span goes: its id and its first entry and sum.
    fn tail(&self) -> Pos {
        let end = |base: u32, len: usize| base.wrapping_add(len as u32);
        Pos {
            span: end(self.base.span, self.spans.len()),
            entry: end(self.base.entry, self.entries.len()),
            sum: end(self.base.sum, self.sums.len()),
        }
    }

    /// Holds what was appended to `entries` and `sums` since `tail`
    /// returned `at` as one live span, `at.span`.
    fn seal(&mut self, at: Pos) {
        let [_, entries, sums] = self.tail().past(at).map(|n| n as u32);
        self.spans.push(Span {
            entries,
            sums,
            live: true,
        });
    }

    /// `len` entries from logical position `start`.
    fn entries(&self, start: u32, len: u32) -> &[WireEntry] {
        &self.entries[start.wrapping_sub(self.base.entry) as usize..][..len as usize]
    }

    /// `len` summary words from logical position `at`.
    fn sums(&self, at: u32, len: usize) -> &[u64] {
        &self.sums[at.wrapping_sub(self.base.sum) as usize..][..len]
    }

    /// Marks `span` delivered (frames land out of send order), advances
    /// the front past delivered spans and, once the prefix before it is
    /// more than half of a buffer, cuts that prefix from all three.
    fn free(&mut self, span: u32) {
        self.spans[span.wrapping_sub(self.base.span) as usize].live = false;
        let front = &mut self.front;
        while let Some(s) = self.spans.get(front.past(self.base)[0]).filter(|s| !s.live) {
            front.span = front.span.wrapping_add(1);
            front.entry = front.entry.wrapping_add(s.entries);
            front.sum = front.sum.wrapping_add(s.sums);
        }
        let [spans, entries, sums] = front.past(self.base);
        if 2 * spans > self.spans.len()
            || 2 * entries > self.entries.len()
            || 2 * sums > self.sums.len()
        {
            self.spans.drain(..spans);
            self.entries.drain(..entries);
            self.sums.drain(..sums);
            self.base = *front;
        }
    }

    /// The arena's laws: the held spans tile the buffers in send order,
    /// every one before the front delivered, up to the front's
    /// positions; the front span is undelivered, or nothing is held; and
    /// each buffer is at most twice its window (from the front on).
    #[cfg(any(test, debug_assertions))]
    fn check_invariants(&self) {
        let [dead, ..] = self.front.past(self.base);
        assert!(dead <= self.spans.len(), "the front is past the tail");
        let (before, window) = self.spans.split_at(dead);
        assert!(
            before.iter().all(|s| !s.live),
            "a live span before the front"
        );
        let total = |spans: &[Span]| {
            (spans.iter()).fold([0, 0], |[e, s], span| {
                [e + span.entries as usize, s + span.sums as usize]
            })
        };
        let ([dead_entries, dead_sums], [entries, sums]) = (total(before), total(window));
        assert_eq!(
            self.front.past(self.base),
            [dead, dead_entries, dead_sums],
            "the front"
        );
        let held = [self.entries.len(), self.sums.len()];
        assert_eq!(held, [dead_entries + entries, dead_sums + sums], "held");
        let live = window.first().map_or(self.spans.is_empty(), |s| s.live);
        assert!(live, "the front span was delivered");
        let buffers = [self.spans.len(), held[0], held[1]];
        for (len, window) in buffers.into_iter().zip([window.len(), entries, sums]) {
            assert!(
                len <= 2 * window,
                "a buffer of {len} for a window of {window}"
            );
        }
    }
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
    /// Node-major stale sets, `⌈m/64⌉` words per node: bit `o` of node
    /// `n` set ⇔ `versions_n[o] < newest[o]`. A frame to `n` ships only
    /// entries from its set bits.
    stale: Vec<u64>,
    /// The stale sets' subsets of entries two or more versions behind:
    /// bit `o` of node `n` set ⇔ `versions_n[o] + 1 < newest[o]`.
    lagging: Vec<u64>,
    /// Stale `(node, origin)` pairs, the stale sets' popcount; `0` ⇔
    /// fully disseminated.
    deficit: usize,
    /// Virtual instant dissemination last completed (sticky until the
    /// next staleness-creating publish).
    completed_at: Option<f64>,
    now: f64,
    period_ms: f64,
    hot_ticks: u32,
    heap: EventHeap<What>,
    /// The payloads of the frames on `heap`.
    arena: Arena,
    rng: StdRng,
    traffic: GossipTraffic,
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
                let mut counts = vec![0u32; shards.count()];
                for (origin, &version) in versions.iter().enumerate() {
                    vsum[shards.shard_of(origin)] += version;
                    counts[shards.shard_of(origin)] += u32::from(version > 0);
                }
                let mut state = NodeState {
                    versions,
                    heard: vec![NEVER; m],
                    hot: vec![0; m.div_ceil(64)],
                    vsum,
                    known: counts,
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
        // A cold node lacks every origin but its own; a warm one none.
        let words = m.div_ceil(64);
        let mut stale = vec![if warm { 0 } else { !0 }; m * words];
        if !warm {
            for node in 0..m {
                let row = &mut stale[node * words..][..words];
                row[words - 1] = word_mask(words - 1, &(0..m));
                row[node / 64] &= !(1 << (node % 64));
            }
        }
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
            stale,
            lagging: vec![0; m * words],
            deficit: 0,
            completed_at: Some(0.0),
            now: 0.0,
            period_ms: config.period_ms,
            hot_ticks: hot_ticks(m),
            heap,
            arena: Arena::default(),
            rng: rng_for(seed, 0xDE17A),
            traffic: GossipTraffic::default(),
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

    /// Current virtual time.
    pub fn now_ms(&self) -> f64 {
        self.now
    }

    /// Wire-traffic counters accumulated so far.
    pub fn traffic(&self) -> GossipTraffic {
        self.traffic
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
        // Every other node now lacks `node`'s entry, and the ones that
        // lacked it already are two versions behind.
        let (words, bit) = (self.len().div_ceil(64), 1 << (node % 64));
        for other in (0..self.len()).filter(|&other| other != node) {
            let w = other * words + node / 64;
            self.deficit += usize::from(self.stale[w] & bit == 0);
            self.lagging[w] |= self.stale[w] & bit;
            self.stale[w] |= bit;
        }
        self.newest[node] = v;
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

    /// Emits the dissemination events for `frame` merged at `node` from
    /// `peer`: `gossip_delta` when its metered hot set was non-empty,
    /// `gossip_full` when its fallback shard was, `detail` carrying
    /// that entry count and `round` the shard index.
    fn trace_frame<T: TraceSink>(tracer: &mut T, now: f64, node: u32, peer: u32, frame: &Frame) {
        if !tracer.enabled() {
            return;
        }
        for (kind, entries) in [TraceKind::GossipDelta, TraceKind::GossipFull]
            .into_iter()
            .zip(frame.entries)
        {
            if entries > 0 {
                tracer.emit(&TraceEvent {
                    kind,
                    at_ms: now,
                    node,
                    peer,
                    round: u64::from(frame.shard),
                    tag: 0,
                    detail: f64::from(entries),
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
                let frame = self.build_frame(n, fallback, peer as usize, true);
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
                let t = to as usize;
                Self::trace_frame(tracer, now, to, from, &frame);
                self.merge_frame(t, &frame, now);
                // Reply with whatever shard the requester's summary
                // says it lags most on; when nothing lags, fall back to
                // the responder's own rotation so anti-entropy keeps
                // sweeping.
                let mut fallback = (self.nodes[t].tick as usize) % self.shards.count();
                let mut best = 0u64;
                let summary = self.arena.sums(frame.since, self.shards.count());
                for (s, (&mine, &theirs)) in self.nodes[t].vsum.iter().zip(summary).enumerate() {
                    let gap = mine.saturating_sub(theirs);
                    if gap > best {
                        best = gap;
                        fallback = s;
                    }
                }
                self.arena.free(frame.span);
                let reply = self.build_frame(t, fallback, from as usize, false);
                self.heap.push(
                    now + delays(t, from as usize),
                    What::Reply {
                        from: to,
                        to: from,
                        frame: reply,
                    },
                );
                self.debug_check();
            }
            What::Reply { from, to, frame } => {
                Self::trace_frame(tracer, now, to, from, &frame);
                self.merge_frame(to as usize, &frame, now);
                self.arena.free(frame.span);
                self.traffic.exchanges += 1;
                self.debug_check();
            }
        }
    }

    /// Builds node `n`'s frame to `to`: its hot set plus the complete
    /// known contents of `fallback`, metered whole into the traffic
    /// counters, shipping only the entries `to` holds older, and the
    /// shard summary only in a `request`, into one new arena span (see
    /// the module docs).
    fn build_frame(&mut self, n: usize, fallback: usize, to: usize, request: bool) -> Frame {
        #[cfg(test)]
        let before = self.traffic;
        let (state, loads) = (&self.nodes[n], &self.loads[n]);
        let lacks = &self.nodes[to].versions;
        let (words, in_fallback) = (state.hot.len(), self.shards.range(fallback));
        // Only what `to` is stale at can ship: all of it where `n` is
        // fresh, and where `n` is stale too, only what `to` is two or
        // more versions behind at (`to` < `n` < newest).
        let candidates = |w: usize| {
            let (sender, receiver) = (n * words + w, to * words + w);
            self.stale[receiver] & (!self.stale[sender] | self.lagging[receiver])
        };
        // The set bits come out in ascending origin order, as a scan
        // over 0..m would.
        let ships = |w: usize, bits: u64| {
            SetBits(bits & candidates(w))
                .map(move |bit| w * 64 + bit)
                .filter(|&o| lacks[o] < state.versions[o])
                .map(|o| WireEntry {
                    origin: o as u32,
                    version: state.versions[o],
                    load: loads[o],
                })
        };
        let arena = &mut self.arena;
        let (at, first) = (arena.tail(), arena.entries.len());
        let mut hot_known = 0;
        for (w, &hot) in state.hot.iter().enumerate() {
            let outside = hot & !word_mask(w, &in_fallback);
            hot_known += outside.count_ones();
            arena.entries.extend(ships(w, outside));
        }
        let changed = arena.entries.len() - first;
        for w in in_fallback.start / 64..in_fallback.end.div_ceil(64) {
            arena.entries.extend(ships(w, word_mask(w, &in_fallback)));
        }
        let full = arena.entries.len() - first - changed;
        if request {
            arena.sums.extend_from_slice(&state.vsum);
        }
        arena.seal(at);
        let shard_known = state.known[fallback];

        let lists = wire::view_bytes(hot_known as usize) + wire::view_bytes(shard_known as usize);
        self.traffic.frames += 1;
        self.traffic.bytes += (8 + 8 * self.shards.count() + lists) as u64;
        self.traffic.delta_entries += u64::from(hot_known);
        self.traffic.full_entries += u64::from(shard_known);
        let frame = Frame {
            shard: fallback as u32,
            span: at.span,
            start: at.entry,
            changed: changed as u32,
            full: full as u32,
            since: at.sum,
            entries: [hot_known, shard_known],
        };
        #[cfg(test)]
        self.assert_matches_reference(n, fallback, to, request, &frame, &before);
        frame
    }

    /// Keep-freshest merge of a delivered frame's entries into
    /// `node`'s view, maintaining the freshness counters and shard
    /// summaries.
    fn merge_frame(&mut self, node: usize, frame: &Frame, now: f64) {
        let (state, loads) = (&mut self.nodes[node], &mut self.loads[node]);
        let words = state.hot.len();
        let stale = &mut self.stale[node * words..][..words];
        let lagging = &mut self.lagging[node * words..][..words];
        for e in self.arena.entries(frame.start, frame.changed + frame.full) {
            let origin = e.origin as usize;
            let mine = state.versions[origin];
            if e.version > mine {
                debug_assert!(e.version <= self.newest[origin]);
                state.versions[origin] = e.version;
                loads[origin] = e.load;
                state.mark_heard(origin);
                let shard = self.shards.shard_of(origin);
                state.vsum[shard] += e.version - mine;
                state.known[shard] += u32::from(mine == 0);
                let bit = 1 << (origin % 64);
                if e.version + 1 >= self.newest[origin] {
                    lagging[origin / 64] &= !bit;
                }
                if e.version == self.newest[origin] {
                    stale[origin / 64] &= !bit;
                    self.deficit -= 1;
                    if self.deficit == 0 && self.completed_at.is_none() {
                        self.completed_at = Some(now);
                    }
                }
            }
        }
    }

    /// Debug-only `check_invariants` after every delivery and publish.
    /// The rescan is O(m²), so it only runs on test-sized networks — the
    /// laws it checks are size-independent, and tests check them at
    /// larger sizes and in release builds.
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        if self.len() <= 64 {
            self.check_invariants();
        }
    }

    /// Ground truth for every incremental counter and set, by rescan:
    /// `newest`; the stale sets (bit ⇔ `versions < newest`), `deficit`
    /// (their popcount) and the lagging sets (bit ⇔ `versions + 1 <
    /// newest`); `vsum` and `known` per shard; the hot bits (⇔ the
    /// predicate on `heard`, and only on known entries); the arena's
    /// laws, and one live span per frame on the heap (each node keeps
    /// one `Tick` there, the rest are frames).
    #[cfg(any(test, debug_assertions))]
    fn check_invariants(&self) {
        let m = self.len();
        let words = m.div_ceil(64);
        let bit = |set: &[u64], o: usize| set[o / 64] >> (o % 64) & 1 == 1;
        for origin in 0..m {
            let newest = self.nodes.iter().map(|s| s.versions[origin]).max();
            assert_eq!(newest, Some(self.newest[origin]), "newest[{origin}]");
        }
        let popcount: u32 = self.stale.iter().map(|w| w.count_ones()).sum();
        assert_eq!(popcount as usize, self.deficit, "deficit vs stale bits");
        for (n, state) in self.nodes.iter().enumerate() {
            for s in 0..self.shards.count() {
                let range = self.shards.range(s);
                let truth: u64 = range.clone().map(|o| state.versions[o]).sum();
                assert_eq!(truth, state.vsum[s], "vsum[{s}] at node {n}");
                let known = range.filter(|&o| state.versions[o] > 0).count();
                assert_eq!(known, state.known[s] as usize, "known[{s}] at node {n}");
            }
            let stale = &self.stale[n * words..][..words];
            let lagging = &self.lagging[n * words..][..words];
            for o in 0..m {
                let (v, newest) = (state.versions[o], self.newest[o]);
                assert_eq!(bit(stale, o), v < newest, "stale {o} at {n}");
                assert_eq!(bit(lagging, o), v + 1 < newest, "lagging {o} at {n}");
                let hot = bit(&state.hot, o);
                let truth = state.is_hot(o, self.hot_ticks);
                assert_eq!(hot, truth, "hot bit {o} vs `heard` at node {n}");
                assert!(!hot || v > 0, "unknown {o} hot at node {n}");
            }
        }
        self.arena.check_invariants();
        let ticks = if m >= 2 { m } else { 0 };
        let live = self.arena.spans.iter().filter(|s| s.live).count();
        assert_eq!(
            live,
            self.heap.len() - ticks,
            "live spans vs frames in flight"
        );
    }
}

#[cfg(test)]
impl Arena {
    fn span(&self, span: u32) -> &Span {
        &self.spans[span.wrapping_sub(self.base.span) as usize]
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

    /// A frame's payload, read back from the arena as the wire frame it
    /// stands for.
    fn shipped(&self, frame: &Frame) -> wire::DeltaFrame {
        let entries = self.arena.entries(frame.start, frame.changed + frame.full);
        let (changed, full) = entries.split_at(frame.changed as usize);
        let sums = self.arena.span(frame.span).sums as usize;
        wire::DeltaFrame {
            shard: frame.shard,
            since: self.arena.sums(frame.since, sums).to_vec(),
            changed: changed.to_vec(),
            full: full.to_vec(),
        }
    }

    /// The metered frame is the reference frame: the same traffic
    /// metered since `before` as `encode_delta` of it weighs, and the
    /// same entry counts carried for the trace. The shipped frame is
    /// the reference frame cut to the entries `to` holds older, in
    /// reference order, and to no summary unless it is a `request`.
    fn assert_matches_reference(
        &self,
        n: usize,
        fallback: usize,
        to: usize,
        request: bool,
        frame: &Frame,
        before: &GossipTraffic,
    ) {
        let reference = self.reference_frame(n, fallback);
        let count = |entries: &[WireEntry]| entries.len() as u64;
        assert_eq!(
            self.traffic.since(before),
            GossipTraffic {
                frames: 1,
                bytes: wire::encode_delta(&reference).len() as u64,
                exchanges: 0,
                delta_entries: count(&reference.changed),
                full_entries: count(&reference.full),
            },
            "node {n} (tick {}) metered a different frame for shard {fallback}",
            self.nodes[n].tick
        );
        assert_eq!(
            frame.entries.map(u64::from),
            [count(&reference.changed), count(&reference.full)]
        );
        let lacking = |entries: Vec<WireEntry>| {
            let lacks = &self.nodes[to].versions;
            (entries.into_iter())
                .filter(|e| lacks[e.origin as usize] < e.version)
                .collect()
        };
        let shipped = wire::DeltaFrame {
            changed: lacking(reference.changed),
            full: lacking(reference.full),
            since: if request { reference.since } else { Vec::new() },
            ..reference
        };
        assert_eq!(
            self.shipped(frame),
            shipped,
            "node {n} (tick {}) shipped a different frame to {to} for shard {fallback}",
            self.nodes[n].tick
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
        assert!(net.deficit > 0);
        let (complete, t) = net.run_until_complete(60_000.0, |_, _| 10.0);
        assert!(complete, "did not disseminate");
        assert!(t > 0.0 && t < 40.0 * 100.0, "completed at {t} ms");
        for node in 0..50 {
            assert_eq!(net.loads()[node], loads, "node {node} view wrong");
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
            (out, net.traffic(), net.loads()[5].clone())
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
            assert_eq!(a.loads()[node], b.loads()[node]);
        }
    }

    #[test]
    fn warm_start_is_complete_and_quiet_until_published() {
        let loads: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut net = DeltaGossip::warm(&loads, 3, cfg());
        assert_eq!(net.deficit, 0);
        assert_eq!(net.completed_at, Some(0.0));
        for node in 0..40 {
            assert_eq!(net.loads()[node], loads);
        }
        net.publish(17, 1000.0);
        assert!(net.deficit > 0);
        let (complete, t) = net.run_until_complete(60_000.0, |_, _| 5.0);
        assert!(complete);
        assert!(t > 0.0);
        for node in 0..40 {
            assert_eq!(net.loads()[node][17], 1000.0, "node {node} stale");
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
            assert_eq!(delta.loads()[node], loads, "node {node} differs");
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
        assert!(cut.deficit > 0);
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
        let reference = net.loads()[0].clone();
        for node in 1..36 {
            assert_eq!(net.loads()[node], reference, "node {node} diverged");
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
            assert_eq!(traced.loads()[node], plain.loads()[node]);
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
            assert!((e.round as usize) < traced.shards.count());
        }
    }

    #[test]
    fn a_traced_cold_start_is_pinned() {
        // Every `gossip_delta`/`gossip_full` event of an m = 100 cold
        // start (kind, instant, receiver, sender, shard and entry
        // count) and the completion instant, folded into one FNV-1a-64:
        // a frame path that meters, ships or merges one entry
        // differently moves a detail, an instant or the finish.
        use dlb_obs::MemorySink;
        let loads: Vec<f64> = (0..100).map(|i| (i * 5 % 13) as f64).collect();
        let delays = |i: usize, j: usize| 2.0 + ((i + 3 * j) % 5) as f64;
        let mut net = DeltaGossip::new(&loads, 11, cfg());
        let mut sink = MemorySink::default();
        let (complete, at) = net.run_until_complete_observed(60_000.0, delays, &mut sink);
        assert!(complete);
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for e in &sink.events {
            assert!(matches!(
                e.kind,
                TraceKind::GossipDelta | TraceKind::GossipFull
            ));
            fold(&[e.kind as u8]);
            fold(&e.at_ms.to_bits().to_le_bytes());
            fold(&e.node.to_le_bytes());
            fold(&e.peer.to_le_bytes());
            fold(&e.round.to_le_bytes());
            fold(&e.detail.to_bits().to_le_bytes());
        }
        fold(&at.to_bits().to_le_bytes());
        assert_eq!(
            (sink.events.len(), at, hash),
            (2353, 605.0, 0xa2a5_b4c9_7d9b_4ea8)
        );
    }

    #[test]
    fn every_frame_of_a_churny_run_equals_the_reference_builders() {
        // In test builds `build_frame` hands every frame it puts on
        // the wire to `assert_matches_reference`: the traffic metered
        // is that of `encode_delta(&reference_frame(..))`, and the
        // frame shipped is that frame cut to what the receiver lacks.
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
                // including shards the rotation did not pick, sent to
                // the next node and to one seeded random peer.
                let mut peers = rng_for(m as u64, 0xF4A3E);
                let mut every_frame = |net: &mut DeltaGossip| {
                    net.check_invariants();
                    for n in 0..m {
                        for fallback in 0..net.shards.count() {
                            let peer = (n + peers.gen_range(1..m)) % m;
                            // A request to the next node, a reply to the peer.
                            for (to, request) in [((n + 1) % m, true), (peer, false)] {
                                let frame = net.build_frame(n, fallback, to, request);
                                net.arena.free(frame.span);
                            }
                        }
                    }
                };
                for step in 0..5 {
                    for k in 0..m / 5 {
                        net.publish((step * 13 + k * 7) % m, (step * m + k) as f64);
                    }
                    net.advance(net.now_ms() + 130.0, delays);
                    net.check_invariants();
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
                while net.now_ms() < net.completed_at.unwrap() + window {
                    net.advance(net.now_ms() + 130.0, delays);
                    net.check_invariants();
                }
                assert_eq!(hot(&net), 0, "m={m} warm={warm}: rumors never cooled");
                every_frame(&mut net);
            }
        }
    }

    #[test]
    fn a_feed_run_on_96_servers_keeps_the_stale_sets_and_known_counts_exact() {
        // The engine feed's pinned m = 96 run (dlb-distributed's
        // `traffic_and_views_are_pinned_on_a_moving_96_server_instance`)
        // replayed on the bare network: warm start, every changed load
        // published, then ⌈log2 96⌉ = 7 periods at half the latency.
        // Past `debug_check`'s m ≤ 64 cut, and in release builds, the
        // stale sets, `known` counts and hot bits are rescanned after
        // every step; every frame is checked against the reference
        // builders as always.
        let m = 96;
        let mut loads: Vec<f64> = (0..m)
            .map(|i| ((i * 37) % 23) as f64 + 0.5 * i as f64)
            .collect();
        let delays = |i: usize, j: usize| {
            let latency = if i == j {
                0.0
            } else {
                4.0 + ((i * 7 + j * 13) % 41) as f64
            };
            latency / 2.0
        };
        let mut net = DeltaGossip::warm(&loads, 17, cfg());
        for step in 0..12 {
            for (k, load) in loads.iter_mut().enumerate() {
                if (k + step) % 3 == 0 {
                    *load += ((k * 5 + step * 11) % 7) as f64 - 2.5;
                }
            }
            for (i, &load) in loads.iter().enumerate() {
                if load != net.loads()[i][i] {
                    net.publish(i, load);
                }
            }
            net.advance(net.now_ms() + 700.0, delays);
            net.check_invariants();
        }
        // The feed pin's traffic: this is the run it meters.
        assert_eq!(
            net.traffic(),
            GossipTraffic {
                frames: 16224,
                bytes: 25159580,
                exchanges: 8064,
                delta_entries: 706363,
                full_entries: 519168,
            }
        );
    }

    #[test]
    fn a_frame_to_an_up_to_date_peer_ships_nothing_but_is_metered_whole() {
        // One publish on a warm network, disseminated: every node is
        // fresh at every origin while the rumor is still hot at the
        // publisher. Its reply to any peer carries the rumor, a whole
        // shard and the shard summary on the meter, and nothing in the
        // payload.
        let m = 100;
        let loads: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let mut net = DeltaGossip::warm(&loads, 4, cfg());
        net.publish(7, 70.5);
        assert!(net.run_until_complete(60_000.0, |_, _| 3.0).0);
        let fallback = net.shards.count() - 1;
        assert!(!net.shards.range(fallback).contains(&7));
        let before = net.traffic();
        let frame = net.build_frame(7, fallback, 40, false);
        let shipped = net.shipped(&frame);
        assert!(shipped.changed.is_empty() && shipped.full.is_empty());
        assert!(shipped.since.is_empty());
        let reference = net.reference_frame(7, fallback);
        assert_eq!(reference.changed.len(), 1, "the rumor is metered");
        assert_eq!(frame.entries, [1, net.shards.range(fallback).len() as u32]);
        let metered = net.traffic().since(&before);
        assert_eq!(metered.bytes, wire::encode_delta(&reference).len() as u64);
    }

    /// A heap entry is due + seq + a 44-byte `What`: a frame in flight
    /// is eight `u32`s naming its payload in the arena. The heap moves
    /// whole entries on every push, pop and sort of its far tier, so a
    /// variant that carries a payload inline (three `Vec`s make 120
    /// bytes) shows up here.
    #[test]
    fn a_heap_entry_is_at_most_64_bytes() {
        assert!(std::mem::size_of::<Scheduled<What>>() <= 64);
    }

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Each live span's position and what was written there.
    type Written = BTreeMap<u32, (Pos, Vec<WireEntry>, Vec<u64>)>;

    /// Frees the `pick`-th live span (modulo their count).
    fn free_one(arena: &mut Arena, model: &mut Written, pick: usize) {
        let span = *model.keys().nth(pick % model.len()).expect("a live span");
        arena.free(span);
        model.remove(&span);
    }

    /// The arena's laws hold, every live span reads back exactly its
    /// payload, and no other span is live.
    fn check_readback(arena: &Arena, model: &Written) {
        arena.check_invariants();
        for (&span, (at, entries, sums)) in model {
            assert!(arena.span(span).live, "span {span} freed");
            assert_eq!(arena.entries(at.entry, entries.len() as u32), &entries[..]);
            assert_eq!(arena.sums(at.sum, sums.len()), &sums[..]);
        }
        let live = arena.spans.iter().filter(|s| s.live).count();
        assert_eq!(live, model.len(), "live spans");
    }

    proptest! {
        /// The arena alone against a map from live span to what was
        /// written there: random appends (up to 8 entries, a summary or
        /// none) and frees of random live spans, so spans are freed out
        /// of send order, from a start near `u32::MAX` too so positions
        /// wrap. After every step each live span reads back exactly its
        /// payload, the arena holds as many live spans as the model and
        /// its laws hold; freeing what is left empties it.
        #[test]
        fn prop_the_arena_reads_back_every_live_span(
            start in prop_oneof![Just(0u32), Just(u32::MAX - 50), any::<u32>()],
            ops in prop::collection::vec((any::<bool>(), 0u32..9, any::<bool>(), any::<usize>()), 0..120),
            last in prop::collection::vec(any::<usize>(), 120),
        ) {
            let at = Pos { span: start, entry: start.wrapping_mul(3), sum: start.wrapping_mul(7) };
            let mut arena = Arena { base: at, front: at, ..Arena::default() };
            let mut model = Written::new();
            for (k, (append, entries, summary, pick)) in ops.into_iter().enumerate() {
                if append || model.is_empty() {
                    let at = arena.tail();
                    let entries: Vec<WireEntry> = (0..entries)
                        .map(|origin| WireEntry { origin, version: k as u64, load: at.entry as f64 })
                        .collect();
                    let sums = if summary { vec![k as u64, u64::from(at.sum)] } else { Vec::new() };
                    arena.entries.extend_from_slice(&entries);
                    arena.sums.extend_from_slice(&sums);
                    arena.seal(at);
                    model.insert(at.span, (at, entries, sums));
                } else {
                    free_one(&mut arena, &mut model, pick);
                }
                check_readback(&arena, &model);
            }
            for pick in last.into_iter().take(model.len()) {
                free_one(&mut arena, &mut model, pick);
                check_readback(&arena, &model);
            }
            prop_assert!(arena.spans.is_empty() && arena.entries.is_empty() && arena.sums.is_empty());
        }
    }

    #[test]
    fn trivial_networks_are_complete_and_silent() {
        let mut single = DeltaGossip::new(&[9.0], 1, cfg());
        assert_eq!(single.deficit, 0);
        let (complete, t) = single.run_until_complete(1_000.0, |_, _| 1.0);
        assert!(complete);
        assert_eq!(t, 0.0);
        assert!(single.traffic().is_quiet());
        assert!(!single.is_empty());
        assert_eq!(single.len(), 1);
    }
}
