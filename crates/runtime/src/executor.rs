//! The event-driven executor: Figure-2-scale clusters in one process.
//!
//! The executor drives every [`NodeMachine`] plus the
//! [`CoordinatorMachine`] from a single deterministic event heap
//! ([`dlb_core::events::EventHeap`], shared with the scheduled-gossip
//! simulation in `dlb-gossip`). One iteration of its loop:
//!
//! 1. **Pop a delivery batch** — all events due at the earliest
//!    virtual time, classified in `(due, seq)` order onto one batch
//!    list of `(node, item)` deliveries (the heap serves control frames
//!    from its same-instant lane and each *wave* of jittered data-plane
//!    frames from a run it sorted once); virtual time jumps to the
//!    batch's instant. Per-link jitter keeps almost every batch to a
//!    single delivery or the coordinator; only broadcasts are wide.
//! 2. **Drain the touched machines where they stand** — the list is
//!    grouped by node (nodes in first-delivery order, each node's items
//!    in classification order; a single delivery or an ascending
//!    broadcast already is). A batch below `SHARD_THRESHOLD` nodes
//!    drains *in place* on this thread, node by node through one
//!    reusable outbound buffer; a wider one by *lending* the table: the
//!    machines are cut into one contiguous id range per `dlb-par`
//!    thread ([`dlb_par::par_map_shards`], one scoped spawn per batch),
//!    whatever the delivery order, and each worker drains its range's
//!    groups into one flat buffer with a length per node. Machines
//!    touch only node-local state — nothing of the heap or the fabric —
//!    so both forms are race-free, and nothing is ever moved out of the
//!    table.
//! 3. **Schedule the replies** — per source in first-delivery order on
//!    either path (a worker's lengths cut its buffer back into the
//!    spans the in-place drain would have produced), so sequence
//!    numbers, fault-script draws and trace order are bit-identical for
//!    every `DLB_THREADS` value. Data-plane frames pay the caller's
//!    per-link delay (`dlb-netsim`'s `LinkDelayModel` in the scenario
//!    layer); control-plane frames (coordinator ↔ node) travel free,
//!    through the heap's same-instant lane — the coordinator stands in
//!    for the converged gossip substrate, which has no single location.
//! 4. **Give the coordinator its turn** — the batch's reports and
//!    deadlines, then whatever follows a round boundary.
//!
//! Everything that is not protocol lives in three *planes* — liveness
//! (failure detection included), request stream, round trace: plain
//! structs that own their state and are called from fixed points of
//! that loop, each inert when its input is empty (no fault script
//! under oracle detection, no stream, a disabled sink). No plane keeps
//! a copy of the coordinator's state: each reads the round number and
//! [`CoordinatorMachine::awaits_reports`] after the coordinator's
//! turn, and the coordinator keeps no clock — every call hands it the
//! batch's virtual time. A round's trace phase runs from its
//! `RoundBegin` to the `RoundEnd` stamped the moment the coordinator
//! stops awaiting its reports: the next round began, the round
//! parked, or the run shut down.
//!
//! Determinism is the point: the heap orders events by `(virtual due
//! time, sequence number)`, both pure functions of the inputs, so the
//! same instance + options + delay function reproduces the same event
//! order, final ledgers, and cost history bit for bit — across repeats
//! *and* across worker counts. The running
//! [`ClusterReport::event_hash`] fingerprints the delivered sequence
//! so tests can assert exactly that. Virtual time doubles as a
//! measurement: `ClusterReport::virtual_ms` is the simulated span of
//! the protocol under the given link delays — the quantity the
//! paper's deployment would observe.
//!
//! # Fault injection
//!
//! A compiled [`FaultScript`] (`dlb-faults`) is consulted at two
//! deterministic points. *Scheduling* a data-plane frame,
//! [`FaultScript::reliable_link`] composes partition holds, delay
//! spikes, and loss-retransmission timeouts into extra one-way delay:
//! the §IV exchange moves request ownership, so its frames ride a
//! reliable transport — loss makes them *late*, never torn.
//! *Delivering* a frame, a destination that is down takes nothing but
//! the one frame that completes an already-decided exchange (see
//! `Liveness`), and emits nothing.
//!
//! Crash instants are **latched at round boundaries**: a node that
//! crashes at `t` drops out of the first round starting at or after
//! `t` — the coordinator (whose liveness oracle the executor feeds
//! from the script) stops scheduling it, announces it in the round's
//! `excluded` set, and stops expecting its report, so every round's
//! causal chains complete among the nodes that entered it. A
//! recovered node rejoins at the next round start. At shutdown, down
//! nodes reply nothing; once in-flight traffic drains, the executor
//! freezes their ledgers into the final assignment (their requests
//! stay where they were when the node went down), so conservation
//! holds exactly even under churn.
//!
//! The script is pure and every consultation happens on the
//! single-threaded scheduling path, so fault trajectories — the
//! [`FaultSummary`] accounting included — are as bit-reproducible as
//! fault-free runs. An empty script takes none of these paths.
//!
//! # Request streams
//!
//! A compiled [`StreamScript`]'s arrivals ride the same heap as the
//! protocol frames, so the cluster rebalances *while* requests flow
//! instead of converging over a frozen snapshot (see `Stream`).
//! While requests are arriving or in flight the coordinator is *held
//! open*: quiet rounds park instead of quiescing
//! ([`CoordinatorMachine::kick`]) and every stream event resumes a
//! parked coordinator; once the stream drains, the normal quiescence
//! shutdown fires. A parked round's report deadline dies at pop like
//! any cancelled timer. An empty script pushes nothing.

// `clippy.toml` caps every function of this module at 120 lines.
#![warn(clippy::too_many_lines)]

use std::sync::Arc;

use dlb_core::events::{EventHeap, Scheduled};
use dlb_core::Instance;
use dlb_faults::{FaultScript, FaultSummary};
use dlb_obs::event::{DROP_DEST_DOWN, DROP_SRC_DOWN};
use dlb_obs::{NullSink, TraceEvent, TraceKind, TraceSink, NODE_COORD, NO_PEER};
use dlb_par::{num_threads, par_map_shards, SEQUENTIAL_CUTOFF};
use dlb_requestsim::stream::{Arrival, StreamScript};

use crate::cluster::{ClusterOptions, ClusterReport, DetectMode, StreamSummary};
use crate::machine::{CoordinatorMachine, Dest, NodeConfig, NodeMachine, Outbound, RtoKind};
use crate::message::{ledger_to_wire, Frame};

/// One-way delay of control-plane frames (coordinator ↔ node), in
/// virtual ms. Zero: the coordinator models the already-converged
/// gossip layer, not a physical host (see the module docs).
const CONTROL_DELAY_MS: f64 = 0.0;

/// A batch touching fewer nodes than this is not worth a scoped spawn
/// and is drained in place; results are identical on either side.
const SHARD_THRESHOLD: usize = SEQUENTIAL_CUTOFF;

/// Hash and trace tags of the non-frame events, disjoint from the
/// frame tags of [`frame_identity`].
const TAG_DEADLINE: u8 = 16;
const TAG_RTO: u8 = 17;
const TAG_ARRIVAL: u8 = 18;
const TAG_DEPARTURE: u8 = 19;

/// What travels on the heap. Timers are only pushed under in-protocol
/// detection and stream events only under a non-empty stream, so
/// oracle closed-batch event sequences (and their hashes) are
/// byte-for-byte what they were before either existed.
enum Event {
    /// A frame headed for an inbox.
    Frame(Dest, Arc<Frame>),
    /// The coordinator's report deadline for the given round.
    Deadline(u64),
    /// An exchange retransmission timer: (node, round, guarded wait).
    Rto(u32, u64, RtoKind),
    /// A streamed request entering the system: index into the
    /// [`StreamScript`]'s arrival schedule.
    Arrival(u32),
    /// A streamed request finishing service — its unit of load leaves
    /// the cluster: `(org, server it was served on, arrival idx)`.
    Departure(u32, u32, u32),
}

/// What a delivery on the batch list hands its node.
enum Inbox {
    Frame(Arc<Frame>),
    Rto(u64, RtoKind),
}

/// What lands in the coordinator's per-batch queue.
enum CoordItem {
    Frame(Arc<Frame>),
    Deadline(u64),
}

/// FNV-1a-style mixing of one word into the event-order fingerprint.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// A frame's hashing identity: `(tag, from, round)`. The tags are the
/// append-only vocabulary shared by the event hash, the trace events,
/// and [`dlb_obs::tag_label`] — one extraction point so the fingerprint
/// and the trace can never disagree about what a frame *was*.
fn frame_identity(frame: &Frame) -> (u8, u32, u64) {
    match frame {
        Frame::RoundStart { round, .. } => (1u8, 0, *round),
        Frame::Propose { from, round } => (2, *from, *round),
        Frame::Accept { from, round, .. } => (3, *from, *round),
        Frame::Busy { from, round } => (4, *from, *round),
        Frame::Commit { from, round, .. } => (5, *from, *round),
        Frame::Report { from, round, .. } => (6, *from, *round),
        Frame::Shutdown => (7, 0, 0),
        Frame::FinalLedger { from, .. } => (8, *from, 0),
        Frame::CommitAck { from, round } => (9, *from, *round),
    }
}

/// The trace-facing sender of a frame: coordinator-originated tags
/// (RoundStart, Shutdown) hash `from = 0` but *mean* the coordinator.
fn frame_peer(tag: u8, from: u32) -> u32 {
    if tag == 1 || tag == 7 {
        NODE_COORD
    } else {
        from
    }
}

/// The trace-facing id of an inbox.
fn dest_id(dest: Dest) -> u32 {
    match dest {
        Dest::Node(j) => j,
        Dest::Coordinator => NODE_COORD,
    }
}

/// Folds an event's identity (due time, destination, frame shape) into
/// the running fingerprint. Ledger payloads are deliberately excluded:
/// the determinism tests compare final ledgers directly, and the hash
/// only needs to witness the *order* of deliveries.
fn hash_event(mut h: u64, due: f64, dest: Dest, frame: &Frame) -> u64 {
    h = mix(h, due.to_bits());
    h = mix(
        h,
        match dest {
            Dest::Node(j) => j as u64,
            Dest::Coordinator => u64::MAX,
        },
    );
    let (tag, from, round) = frame_identity(frame);
    h = mix(h, tag as u64);
    h = mix(h, from as u64);
    mix(h, round)
}

/// Folds a fired timer or stream event into the fingerprint.
fn hash_timer(mut h: u64, due: f64, tag: u8, node: u64, round: u64) -> u64 {
    h = mix(h, due.to_bits());
    h = mix(h, node);
    h = mix(h, tag as u64);
    mix(h, round)
}

/// The simulated network: the shared event heap plus the delay model
/// and fault script every scheduled frame passes through, and the
/// trace sink every hook of the run reports to.
struct Fabric<'a, D, T> {
    heap: EventHeap<Event>,
    /// Virtual time of the batch in flight.
    now: f64,
    delays: D,
    script: &'a FaultScript,
    summary: FaultSummary,
    tracer: &'a mut T,
}

impl<D, T: TraceSink> Fabric<'_, D, T> {
    /// The observability plane's one emission point. Every hook sits on
    /// the single-threaded scheduling/classification path, emits in
    /// deterministic `(due, seq)` order, and never feeds back into
    /// protocol state, so the trace is as bit-reproducible as the run.
    /// With [`NullSink`] `enabled()` is a monomorphized constant
    /// `false`: the call compiles down to nothing and the run is
    /// byte-identical to an unobserved one.
    #[inline]
    fn trace(&mut self, kind: TraceKind, node: u32, peer: u32, round: u64, tag: u8, detail: f64) {
        if self.tracer.enabled() {
            self.tracer.emit(&TraceEvent {
                kind,
                at_ms: self.now,
                node,
                peer,
                round,
                tag,
                detail,
            });
        }
    }

    /// [`Self::trace`] for an event that *is* a frame at `node`'s
    /// door: peer, round and tag come from the frame itself.
    #[inline]
    fn trace_frame(&mut self, kind: TraceKind, node: u32, frame: &Frame, detail: f64) {
        if self.tracer.enabled() {
            let (tag, from, round) = frame_identity(frame);
            self.trace(kind, node, frame_peer(tag, from), round, tag, detail);
        }
    }
}

impl<D: Fn(usize, usize) -> f64, T: TraceSink> Fabric<'_, D, T> {
    /// Schedules a machine's emissions. `src` is `None` for the
    /// coordinator.
    fn schedule(&mut self, src: Option<usize>, out: impl Iterator<Item = Outbound>) {
        let now = self.now;
        for o in out {
            let mut held = 0.0f64;
            let delay = match (src, o.to) {
                (Some(i), Dest::Node(j)) => {
                    let d = (self.delays)(i, j as usize);
                    debug_assert!(
                        d.is_finite() && d >= 0.0,
                        "delay({i}, {j}) = {d} must be finite and non-negative"
                    );
                    if self.script.is_empty() {
                        d
                    } else {
                        // A straggler's outbound frames crawl: the slow
                        // multiplier scales the base delay before the
                        // loss/partition composition on top of it.
                        let base = d * self.script.slow_factor(i, now);
                        // The seq this push will receive keys the
                        // per-frame loss decisions.
                        let seq = self.heap.next_seq();
                        let fault = self.script.reliable_link(now, i, j as usize, seq, base);
                        let extra = (base - d) + fault.extra_ms;
                        if extra > 0.0 {
                            self.summary.delayed_frames += 1;
                            self.summary.extra_delay_ms += extra;
                            held = extra;
                        }
                        d + extra
                    }
                }
                _ => CONTROL_DELAY_MS,
            };
            if self.tracer.enabled() {
                let (tag, _, round) = frame_identity(&o.frame);
                let (node, peer) = (dest_id(o.to), src.map_or(NODE_COORD, |i| i as u32));
                if held > 0.0 {
                    self.trace(TraceKind::FrameHeld, node, peer, round, tag, held);
                }
                self.trace(TraceKind::FrameScheduled, node, peer, round, tag, delay);
            }
            self.heap.push(now + delay, Event::Frame(o.to, o.frame));
        }
    }

    /// The one tail of both drain paths: what node `src` emitted this
    /// batch goes on the wire — unless it is down. A crashed node sends
    /// nothing (it only ever hears the one frame species that still
    /// reaches it).
    fn send(&mut self, src: usize, down: bool, out: impl ExactSizeIterator<Item = Outbound>) {
        if !down {
            return self.schedule(Some(src), out);
        }
        self.summary.dropped_frames += out.len() as u64;
        for (to, frame) in out.map(|o| (dest_id(o.to), o.frame)) {
            self.trace_frame(TraceKind::FrameDropped, to, &frame, DROP_SRC_DOWN);
        }
    }
}

/// The node table plus the batch list, reused across iterations: every
/// delivery of the batch in flight as `(node, item)`, in
/// classification order — deterministic, since events pop in
/// `(due, seq)` order. Machines live in the table for the whole run;
/// a broadcast batch borrows disjoint id ranges of it, nothing moves.
/// The machines keep no round data between batches: each drain lends
/// them the coordinator's [`RoundBlocks`](crate::machine::RoundBlocks).
struct Nodes {
    machines: Vec<NodeMachine>,
    batch: Vec<(u32, Inbox)>,
}

impl Nodes {
    fn new(instance: &Arc<Instance>, config: NodeConfig) -> Self {
        let local = |id| NodeMachine::local(id as u32, Arc::clone(instance), config);
        Self {
            machines: (0..instance.len()).map(local).collect(),
            batch: Vec::new(),
        }
    }
}

/// Groups a batch list by node: nodes in first-delivery order, each
/// node's items in classification order. A list in ascending id order
/// (one delivery, a broadcast) is grouped already.
fn group_by_node(batch: &mut [(u32, Inbox)]) {
    if batch.is_sorted_by_key(|&(j, _)| j) {
        return;
    }
    // Each node's first position, by node.
    let mut first: Vec<(u32, usize)> = batch.iter().map(|&(j, _)| j).zip(0..).collect();
    first.sort_unstable();
    first.dedup_by_key(|&mut (j, _)| j);
    batch.sort_by_cached_key(|&(j, _)| first[first.partition_point(|&(n, _)| n < j)].1);
}

/// The liveness plane: which nodes currently take no deliveries, and
/// where that knowledge comes from. Under the oracle the gate is the
/// coordinator's round-latched down set, which this plane feeds from
/// the script; under in-protocol detection it is raw physics — the
/// script's down set the instant it changes, latched at nothing
/// (nobody tells the protocol, which is the point). Detection is the
/// plane's other half: it arms each round's report deadline and every
/// exchange's abort timer, and measures detection latency — a hook
/// invisible to the protocol.
struct Liveness<'a> {
    script: &'a FaultScript,
    /// `false` for the empty script: every gate is then open.
    faulty: bool,
    /// Exchange retransmission timeout under in-protocol detection;
    /// `None` is the oracle, which pushes no timers at all.
    rto: Option<f64>,
    down: Vec<bool>,
    /// The script's down set only changes at its crash/recovery
    /// instants; the cached phase makes the refresh O(1) per batch
    /// instead of an O(m) rebuild. Starts at no phase at all, so time
    /// zero is the first crossing.
    down_phase: Option<u8>,
    /// The coordinator's round last followed: relatched under the
    /// oracle, armed with a report deadline under detection.
    round: u64,
    /// The suspect set last seen, sorted; always empty under the oracle.
    suspects: Vec<u32>,
    true_positives: u32,
    latency_sum_ms: f64,
}

impl<'a> Liveness<'a> {
    fn new(script: &'a FaultScript, rto: Option<f64>) -> Self {
        Self {
            script,
            faulty: !script.is_empty(),
            rto,
            down: vec![false; script.len()],
            down_phase: None,
            round: 0,
            suspects: Vec::new(),
            true_positives: 0,
            latency_sum_ms: 0.0,
        }
    }

    /// Whether the script's down set changed since the last call.
    fn crossed(&mut self, now: f64) -> bool {
        let phase = Some(self.script.down_phase(now));
        phase != std::mem::replace(&mut self.down_phase, phase)
    }

    /// Rebuilds the delivery gate from a sorted id list, counting the
    /// transitions the run actually experienced: a crash (or recovery)
    /// the gate never saw — its round never started, the run ended
    /// first — is not an event of this run.
    fn relatch(&mut self, ids: &[u32], summary: &mut FaultSummary) {
        let mut idx = 0usize;
        for (j, flag) in self.down.iter_mut().enumerate() {
            let now_down = ids.get(idx).is_some_and(|&d| d as usize == j);
            if now_down {
                idx += 1;
            }
            match (*flag, now_down) {
                (false, true) => summary.crashes += 1,
                (true, false) => summary.recoveries += 1,
                _ => {}
            }
            *flag = now_down;
        }
    }

    /// Virtual time moved: in-protocol detection follows the script's
    /// down set the instant it changes, not at round boundaries.
    fn advance(&mut self, now: f64, summary: &mut FaultSummary) {
        if self.faulty && self.rto.is_some() && self.crossed(now) {
            self.relatch(&self.script.down_at(now), summary);
        }
    }

    /// Tells the oracle who is down by `now`; the coordinator latches
    /// it at its next round start.
    fn feed_oracle(&mut self, now: f64, coordinator: &mut CoordinatorMachine) {
        if self.faulty && self.rto.is_none() && self.crossed(now) {
            coordinator.set_down(self.script.down_at(now));
        }
    }

    /// The coordinator had its turn (or is about to have its first). A
    /// fresh round relatches the gate under a faulty oracle, or arms
    /// the round's report deadline under detection (the previous
    /// round's timer, if still queued, dies at pop time). Detection
    /// then diffs the suspect set against the one last seen.
    fn follow<D, T: TraceSink>(
        &mut self,
        coordinator: &CoordinatorMachine,
        fabric: &mut Fabric<'_, D, T>,
    ) {
        let (now, round) = (fabric.now, coordinator.round_number());
        if round != std::mem::replace(&mut self.round, round) {
            if self.faulty && self.rto.is_none() {
                self.relatch(coordinator.down_now(), &mut fabric.summary);
            }
            // `None` under the oracle, which arms no deadlines.
            if let Some(due) = coordinator.arm_deadline(now) {
                fabric.heap.push(due, Event::Deadline(round));
            }
        }
        // Compared in place: a list is built only when it changed.
        if self.rto.is_none() || coordinator.suspects_now().eq(self.suspects.iter().copied()) {
            return;
        }
        // Over the union of both sorted lists, ascending: ids only in
        // the new list are fresh suspicions, ids only in `prev` rejoined
        // (probation readmission or recovery).
        let prev = std::mem::replace(&mut self.suspects, coordinator.suspects_now().collect());
        let mut ids = [prev.as_slice(), &self.suspects].concat();
        ids.sort_unstable();
        ids.dedup();
        for s in ids {
            match (prev.binary_search(&s), self.suspects.binary_search(&s)) {
                (Err(_), Ok(_)) => {
                    // Newly suspected while the script says it is down:
                    // a true positive, and its detection latency runs
                    // from the scripted crash instant.
                    let mut latency = 0.0f64;
                    if self.script.node_down(s as usize, now) {
                        latency = now - self.script.crash_time(s as usize);
                        self.true_positives += 1;
                        self.latency_sum_ms += latency;
                    }
                    fabric.trace(TraceKind::DetectorSuspect, s, NODE_COORD, round, 0, latency);
                }
                (Ok(_), Err(_)) => {
                    fabric.trace(TraceKind::DetectorRejoin, s, NODE_COORD, round, 0, 0.0);
                }
                _ => {}
            }
        }
    }

    #[inline]
    fn is_down(&self, j: usize) -> bool {
        self.faulty && self.down[j]
    }

    /// The delivery gate. At a dead destination one frame species per
    /// mode still lands — the instant the exchange became *decided*.
    /// Oracle: the Commit (the initiator applied on Accept).
    /// Detection: the CommitAck (the acceptor installed on Commit; the
    /// dead initiator applies its held-back half exactly as a recovery
    /// log would, so its frozen ledger matches the partner's installed
    /// one). Everything else is dropped.
    #[inline]
    fn blocks(&self, dest: u32, frame: &Frame) -> bool {
        self.is_down(dest as usize)
            && !match frame {
                Frame::Commit { .. } => self.rto.is_none(),
                Frame::CommitAck { .. } => self.rto.is_some(),
                _ => false,
            }
    }

    /// A data-plane frame just vanished into a dead host. Under
    /// in-protocol detection the sender is now waiting on an answer
    /// that can never come: arm its retransmission timeout so the
    /// machine aborts the exchange after `exchange_rto_ms` of silence.
    ///
    /// Arming at the *drop* instead of blindly at every send keeps the
    /// abort exact — a timer only exists when the wait is provably
    /// unresolvable — which is the behavior of a correctly provisioned
    /// real-world RTO (one that exceeds the worst-case round trip, so
    /// it never tears an exchange both parties are still driving).
    fn arm_abort<D, T>(&self, frame: &Frame, fabric: &mut Fabric<'_, D, T>) {
        let Some(rto_ms) = self.rto else { return };
        let (waiter, round, kind) = match *frame {
            // Our proposal died with the acceptor; nobody will answer.
            Frame::Propose { from, round } => (from, round, RtoKind::Answer),
            // Our acceptance died with the initiator; no Commit comes.
            Frame::Accept { from, round, .. } => (from, round, RtoKind::CommitWait),
            // Our Commit died with the acceptor; nothing was installed
            // and no ack comes — the held-back half must be dropped.
            Frame::Commit { from, round, .. } => (from, round, RtoKind::Ack),
            _ => return,
        };
        let due = fabric.now + rto_ms;
        fabric.heap.push(due, Event::Rto(waiter, round, kind));
    }
}

/// The stream plane: the open-system request stream. Each arrival is
/// routed to a live server, deposits one unit of load there — buffered
/// by the node machine while an exchange is open, so no transfer is
/// ever torn — and departs after its modeled sojourn
/// (`c_ij + l_j/2s_j + 1/s_j`), withdrawing the unit from wherever
/// rebalancing moved it. Arrivals routed to a crashed (or
/// already-finished) server count as dropped.
struct Stream<'a> {
    script: &'a StreamScript,
    /// Whether the batch being classified carried stream events.
    dirty: bool,
    /// Departures still on the heap.
    outstanding: u64,
    /// Served/dropped counts and the imbalance integral so far; the
    /// percentiles are filled from `sojourns` at the end.
    tally: StreamSummary,
    sojourns: Vec<f64>,
    was_imbalanced: bool,
    last_sample_ms: f64,
    /// Per-request scratch of [`Self::fill_hosts`]: the live hosts of
    /// one organization's work, as `(amount, id)`.
    hosts: Vec<(f64, usize)>,
}

impl<'a> Stream<'a> {
    /// The whole arrival schedule goes on the heap up front — it is
    /// pure data, already time-sorted — and the coordinator is held
    /// open until the stream drains.
    fn new(
        script: &'a StreamScript,
        heap: &mut EventHeap<Event>,
        coordinator: &mut CoordinatorMachine,
    ) -> Self {
        for (idx, a) in script.arrivals().iter().enumerate() {
            heap.push(a.at_ms, Event::Arrival(idx as u32));
        }
        coordinator.set_hold(!script.is_empty());
        Self {
            script,
            dirty: false,
            outstanding: 0,
            tally: StreamSummary::default(),
            sojourns: Vec::new(),
            was_imbalanced: false,
            last_sample_ms: 0.0,
            hosts: Vec::new(),
        }
    }

    /// Fills `hosts` with the live servers carrying a positive amount
    /// of `org`'s work, as `(amount, id)` in id order.
    fn fill_hosts(&mut self, org: u32, machines: &[NodeMachine], liveness: &Liveness) {
        let live = machines
            .iter()
            .enumerate()
            .filter(|&(j, machine)| !(liveness.is_down(j) || machine.is_done()))
            .map(|(j, machine)| (machine.ledger().get(org), j))
            .filter(|&(w, _)| w > 0.0);
        self.hosts.clear();
        self.hosts.extend(live);
    }

    /// The live server an arrival lands on: in proportion to how much
    /// of its organization's work each live server hosts — the relay
    /// fractions ρ_i· of the live, mid-rebalance assignment.
    fn route(
        &mut self,
        a: &Arrival,
        machines: &[NodeMachine],
        liveness: &Liveness,
    ) -> Option<usize> {
        self.fill_hosts(a.org, machines, liveness);
        let total: f64 = self.hosts.iter().map(|&(w, _)| w).sum();
        if total <= 0.0 {
            // Nobody hosts this organization yet (its own load was
            // zero): serve at home if the home server is alive.
            let home = a.org as usize;
            let alive = !(liveness.is_down(home) || machines[home].is_done());
            return alive.then_some(home);
        }
        // Inverse CDF over the hosting weights with the arrival's
        // pre-drawn uniform; the last host absorbs any float slack.
        let mut acc = 0.0f64;
        let mut pick = None;
        for &(w, j) in &self.hosts {
            acc += w;
            pick = Some(j);
            if a.route * total <= acc {
                break;
            }
        }
        pick
    }

    /// Arrival `idx` enters the system.
    fn arrive<D: Fn(usize, usize) -> f64, T: TraceSink>(
        &mut self,
        idx: u32,
        machines: &mut [NodeMachine],
        liveness: &Liveness,
        instance: &Instance,
        fabric: &mut Fabric<'_, D, T>,
    ) {
        self.dirty = true;
        let a = self.script.arrivals()[idx as usize];
        let target = self.route(&a, machines, liveness);
        let peer = target.map_or(NO_PEER, |j| j as u32);
        let served = target.and_then(|j| {
            let machine = &mut machines[j];
            let backlog = machine.ledger().sum().max(0.0);
            let s = instance.speed(j);
            // Expected wait under random order plus own service — the
            // model's per-request price, §II.
            let wait = backlog / (2.0 * s) + 1.0 / s;
            machine.deposit(a.org, 1.0).then_some((j, wait))
        });
        let Some((j, wait)) = served else {
            self.tally.dropped += 1;
            fabric.trace(TraceKind::StreamDrop, a.org, peer, 0, TAG_ARRIVAL, 1.0);
            return;
        };
        self.tally.served += 1;
        self.outstanding += 1;
        self.sojourns
            .push((fabric.delays)(a.org as usize, j) + wait);
        fabric.trace(TraceKind::StreamArrival, a.org, peer, 0, TAG_ARRIVAL, wait);
        let departure = Event::Departure(a.org, j as u32, idx);
        fabric.heap.push(fabric.now + wait, departure);
    }

    /// A served request finishes: its unit of load leaves the cluster.
    /// The unit may have been rebalanced since it arrived, so it is
    /// drained from the live hosts carrying the most of this
    /// organization's work. A shortfall stays frozen on whatever
    /// crashed server still holds it.
    fn depart<D, T: TraceSink>(
        &mut self,
        (org, server, idx): (u32, u32, u32),
        machines: &mut [NodeMachine],
        liveness: &Liveness,
        fabric: &mut Fabric<'_, D, T>,
    ) {
        self.dirty = true;
        self.outstanding -= 1;
        if fabric.tracer.enabled() {
            let sojourn = fabric.now - self.script.arrivals()[idx as usize].at_ms;
            fabric.trace(
                TraceKind::StreamDeparture,
                org,
                server,
                0,
                TAG_DEPARTURE,
                sojourn,
            );
        }
        self.fill_hosts(org, machines, liveness);
        self.hosts
            .sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
        let mut remaining = 1.0;
        for &(w, j) in &self.hosts {
            if remaining <= 0.0 {
                break;
            }
            let take = w.min(remaining);
            machines[j].withdraw(org, take);
            remaining -= take;
        }
    }

    /// If the batch just classified carried stream events, advances
    /// the piecewise time-in-imbalance integral — closes the interval
    /// opened at the previous sample under its observation, then
    /// observes the live landscape anew — and says so. "Imbalanced"
    /// means the worst live utilization `l_j / s_j` exceeds twice the
    /// live mean.
    fn sample(
        &mut self,
        now: f64,
        machines: &[NodeMachine],
        liveness: &Liveness,
        instance: &Instance,
    ) -> bool {
        if !std::mem::take(&mut self.dirty) {
            return false;
        }
        if self.was_imbalanced {
            self.tally.imbalance_ms += now - self.last_sample_ms;
        }
        self.last_sample_ms = now;
        let (mut max_util, mut sum_util, mut live) = (0.0f64, 0.0f64, 0u32);
        for (j, machine) in machines.iter().enumerate() {
            if liveness.is_down(j) || machine.is_done() {
                continue;
            }
            let util = machine.ledger().sum() / instance.speed(j);
            max_util = max_util.max(util);
            sum_util += util;
            live += 1;
        }
        self.was_imbalanced =
            live > 0 && sum_util > 0.0 && max_util > 2.0 * (sum_util / live as f64);
        true
    }

    /// Whether every arrival has entered and every served request has
    /// departed.
    fn drained(&self, now: f64) -> bool {
        let last_arrival_ms = self.script.arrivals().last().map_or(0.0, |a| a.at_ms);
        self.outstanding == 0 && now >= last_arrival_ms
    }

    /// The run ended at `now`: `None` when no stream drove it.
    fn summary(mut self, now: f64) -> Option<StreamSummary> {
        if self.script.is_empty() {
            return None;
        }
        if self.was_imbalanced {
            self.tally.imbalance_ms += now - self.last_sample_ms;
        }
        self.sojourns.sort_by(|x, y| x.total_cmp(y));
        let pct = |q: f64| match self.sojourns.len() {
            0 => 0.0,
            n => self.sojourns[((n as f64 * q) as usize).min(n - 1)],
        };
        Some(StreamSummary {
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            ..self.tally
        })
    }
}

/// The round-trace plane: round phases as the observer sees them. A
/// round is open while the coordinator awaits its reports and closes
/// the moment that stops holding — the next round began, the round
/// parked, or the run shut down — so its `RoundEnd` counts neither a
/// park nor the final-ledger collection. Untouched under a disabled
/// sink.
#[derive(Default)]
struct RoundTrace {
    /// The round being observed and the instant it began.
    open: Option<(u64, f64)>,
    /// Dedups the per-round exclusion announcement, which every
    /// RoundStart frame carries.
    excl_round: u64,
}

impl RoundTrace {
    /// `frame` passed node `j`'s delivery gate. Exchange lifecycle
    /// markers ride the frames that decide them.
    fn delivered<D, T: TraceSink>(&mut self, fabric: &mut Fabric<'_, D, T>, j: u32, frame: &Frame) {
        if !fabric.tracer.enabled() {
            return;
        }
        fabric.trace_frame(TraceKind::FrameDelivered, j, frame, 0.0);
        let tag = frame_identity(frame).0;
        match frame {
            Frame::Propose { from, round } => {
                fabric.trace(TraceKind::ExchangePropose, *from, j, *round, tag, 0.0);
            }
            Frame::Commit { from, round, .. } => {
                fabric.trace(TraceKind::ExchangeCommit, *from, j, *round, tag, 0.0);
            }
            Frame::RoundStart {
                round, excluded, ..
            } if *round != self.excl_round => {
                self.excl_round = *round;
                for &e in excluded {
                    fabric.trace(TraceKind::DetectorExclude, e, NODE_COORD, *round, tag, 0.0);
                }
            }
            _ => {}
        }
    }

    /// The coordinator had its turn: close the observed round once
    /// it awaits no more reports, and open the current one if it does.
    fn follow<D, T: TraceSink>(
        &mut self,
        fabric: &mut Fabric<'_, D, T>,
        coordinator: &CoordinatorMachine,
    ) {
        if !fabric.tracer.enabled() {
            return;
        }
        if let Some((round, started_at)) = self.open {
            if coordinator.awaits_reports(round) {
                return;
            }
            self.open = None;
            let took = fabric.now - started_at;
            fabric.trace(TraceKind::RoundEnd, NODE_COORD, NO_PEER, round, 0, took);
        }
        let round = coordinator.round_number();
        if coordinator.awaits_reports(round) {
            self.open = Some((round, fabric.now));
            fabric.trace(TraceKind::RoundBegin, NODE_COORD, NO_PEER, round, 0, 0.0);
        }
    }
}

/// Everything a run carries from one delivery batch to the next: the
/// machines, the fabric they talk through, the event-order hash, the
/// batch scratch, and one value per plane.
struct Run<'a, D, T> {
    instance: Arc<Instance>,
    coordinator: CoordinatorMachine,
    nodes: Nodes,
    fabric: Fabric<'a, D, T>,
    liveness: Liveness<'a>,
    stream: Stream<'a>,
    rounds: RoundTrace,
    hash: u64,
    /// The coordinator's queue for the batch in flight.
    coord_inbox: Vec<CoordItem>,
    /// Scratch for the emissions of whichever machine is running on
    /// this thread: the coordinator, or a node drained in place.
    out: Vec<Outbound>,
}

impl<'a, D: Fn(usize, usize) -> f64, T: TraceSink> Run<'a, D, T> {
    /// Builds the machines and planes and puts round 1 on the heap.
    fn start(
        instance: &Instance,
        options: &ClusterOptions,
        delays: D,
        script: &'a FaultScript,
        stream: &'a StreamScript,
        tracer: &'a mut T,
    ) -> Self {
        let instance = Arc::new(instance.clone());
        let oracle = matches!(options.detect, DetectMode::Oracle);
        let rto = (!oracle).then_some(options.exchange_rto_ms);
        // In-protocol detection requires two-phase exchanges: an
        // aborting initiator may only roll back state it has not
        // applied yet, so the transfer must be held until the
        // acceptor's CommitAck.
        let mut node_config = options.node;
        node_config.two_phase |= !oracle;
        let mut coordinator = CoordinatorMachine::new(Arc::clone(&instance), options);
        let mut heap = EventHeap::new();
        let mut run = Self {
            nodes: Nodes::new(&instance, node_config),
            instance,
            liveness: Liveness::new(script, rto),
            stream: Stream::new(stream, &mut heap, &mut coordinator),
            rounds: RoundTrace::default(),
            coordinator,
            fabric: Fabric {
                heap,
                now: 0.0,
                delays,
                script,
                summary: FaultSummary::default(),
                tracer,
            },
            hash: 0xCBF2_9CE4_8422_2325, // FNV offset basis
            coord_inbox: Vec::new(),
            out: Vec::new(),
        };
        // Round 1 latches whoever is down from the very start, and its
        // RoundBegin precedes its frames in the trace.
        run.liveness.feed_oracle(0.0, &mut run.coordinator);
        run.coordinator.start(&mut run.out);
        run.liveness.advance(0.0, &mut run.fabric.summary);
        run.rounds.follow(&mut run.fabric, &run.coordinator);
        run.fabric.schedule(None, run.out.drain(..));
        run.follow_round();
        run
    }

    /// Pops the next live event, silently discarding timers whose wait
    /// already resolved (a cancelled timer never fires — it neither
    /// advances virtual time nor enters the hash). Machine state at pop
    /// time is deterministic, so the discard decisions are too.
    fn pop_live(&mut self) -> Option<Scheduled<Event>> {
        loop {
            let event = self.fabric.heap.pop()?;
            let stale = match event.item {
                Event::Frame(..) | Event::Arrival(..) | Event::Departure(..) => false,
                Event::Deadline(round) => !self.coordinator.awaits_reports(round),
                Event::Rto(j, round, kind) => {
                    !self.nodes.machines[j as usize].rto_pending(round, kind)
                }
            };
            if !stale {
                return Some(event);
            }
        }
    }

    /// The heap ran dry. Returns `true` when the run goes on: a
    /// coordinator still held open by the stream was released and
    /// resumed (defensive — the heap cannot normally dry up while
    /// arrivals or departures are pending). Otherwise the ledgers of
    /// nodes the shutdown could not reach — those that sent no final
    /// ledger — are frozen into the final answer. Under the oracle
    /// that is exactly the latched down set: it gets no `Shutdown` and
    /// sends nothing, and every other node answers.
    fn resume_or_freeze(&mut self) -> bool {
        if self.coordinator.set_hold(false) {
            self.coordinator.kick(self.fabric.now, &mut self.out);
            if !self.out.is_empty() {
                self.fabric.schedule(None, self.out.drain(..));
                return true;
            }
        }
        if self.coordinator.is_collecting() {
            let now = self.fabric.now;
            for j in self.coordinator.missing_ledgers() {
                let ledger = ledger_to_wire(self.nodes.machines[j as usize].ledger());
                let frame = Frame::FinalLedger { from: j, ledger };
                self.coordinator.handle(&frame, now, &mut self.out);
                self.fabric.schedule(None, self.out.drain(..));
            }
        }
        false
    }

    /// Classifies the whole same-instant batch starting at `first`, in
    /// `(due, seq)` order: every event enters the hash, then lands on
    /// the batch list, on the coordinator's queue, or in the stream plane —
    /// or dies at the liveness gate.
    fn classify(&mut self, first: Scheduled<Event>) {
        let Self {
            nodes,
            fabric,
            liveness,
            hash,
            ..
        } = self;
        let now = first.due;
        let mut next = Some(first);
        while let Some(event) = next {
            match event.item {
                Event::Frame(dest, frame) => {
                    *hash = hash_event(*hash, now, dest, &frame);
                    match dest {
                        // Dropped at a dead host; under detection that
                        // arms the sender's abort timeout.
                        Dest::Node(j) if liveness.blocks(j, &frame) => {
                            fabric.summary.dropped_frames += 1;
                            fabric.trace_frame(TraceKind::FrameDropped, j, &frame, DROP_DEST_DOWN);
                            liveness.arm_abort(&frame, fabric);
                        }
                        Dest::Node(j) => {
                            self.rounds.delivered(fabric, j, &frame);
                            nodes.batch.push((j, Inbox::Frame(frame)));
                        }
                        Dest::Coordinator => {
                            fabric.trace_frame(TraceKind::FrameDelivered, NODE_COORD, &frame, 0.0);
                            self.coord_inbox.push(CoordItem::Frame(frame));
                        }
                    }
                }
                Event::Deadline(round) => {
                    *hash = hash_timer(*hash, now, TAG_DEADLINE, u64::MAX, round);
                    fabric.trace(
                        TraceKind::TimerFired,
                        NODE_COORD,
                        NO_PEER,
                        round,
                        TAG_DEADLINE,
                        0.0,
                    );
                    self.coord_inbox.push(CoordItem::Deadline(round));
                }
                Event::Rto(j, round, kind) => {
                    *hash = hash_timer(*hash, now, TAG_RTO, j as u64, round);
                    fabric.trace(TraceKind::TimerFired, j, NO_PEER, round, TAG_RTO, 0.0);
                    // A dead node's timer fires into the void; if it
                    // recovers later still mid-exchange, the drain
                    // freeze recovers its ledger. Stale timers died at
                    // pop, so a live RTO reaching its machine aborts
                    // the exchange.
                    if !liveness.is_down(j as usize) {
                        fabric.trace(TraceKind::ExchangeAbort, j, NO_PEER, round, TAG_RTO, 0.0);
                        nodes.batch.push((j, Inbox::Rto(round, kind)));
                    }
                }
                Event::Arrival(idx) => {
                    *hash = hash_timer(*hash, now, TAG_ARRIVAL, idx as u64, 0);
                    let (machines, instance) = (&mut nodes.machines, &self.instance);
                    self.stream
                        .arrive(idx, machines, liveness, instance, fabric);
                }
                Event::Departure(org, server, idx) => {
                    *hash = hash_timer(*hash, now, TAG_DEPARTURE, server as u64, idx as u64);
                    let event = (org, server, idx);
                    self.stream
                        .depart(event, &mut nodes.machines, liveness, fabric);
                }
            }
            next = match fabric.heap.peek_due() {
                Some(due) if due == now => fabric.heap.pop(),
                _ => None,
            };
        }
    }

    /// After a batch that carried stream events: fresh stream activity
    /// deformed the landscape, so resume a parked coordinator —
    /// latching any crash phase the oracle would otherwise only see on
    /// its control-plane path — and let go of it once the stream has
    /// fully drained.
    fn stream_turn(&mut self) {
        let now = self.fabric.now;
        let (machines, liveness) = (&self.nodes.machines, &self.liveness);
        if !self.stream.sample(now, machines, liveness, &self.instance) {
            return;
        }
        self.liveness.feed_oracle(now, &mut self.coordinator);
        self.coordinator.kick(now, &mut self.out);
        self.fabric.schedule(None, self.out.drain(..));
        if self.stream.drained(now) {
            self.coordinator.set_hold(false);
        }
    }

    /// Steps 2 and 3 of the loop: groups the batch list by node, drains
    /// each node's deliveries, in place or sharded by id range, and
    /// schedules what each emitted source by source in first-delivery
    /// order.
    fn drain_nodes(&mut self) {
        let (fabric, liveness, out) = (&mut self.fabric, &self.liveness, &mut self.out);
        let blocks = self.coordinator.round_blocks();
        let Nodes { machines, batch } = &mut self.nodes;
        group_by_node(batch);
        let deliver =
            |machine: &mut NodeMachine, items: &[(u32, Inbox)], out: &mut Vec<Outbound>| {
                for (_, item) in items {
                    match item {
                        Inbox::Frame(frame) => machine.handle_in(frame, blocks, out),
                        Inbox::Rto(round, kind) => machine.on_rto_in(*round, *kind, blocks, out),
                    }
                }
            };
        let groups = || {
            batch
                .chunk_by(|a, b| a.0 == b.0)
                .map(|g| (g[0].0 as usize, g))
        };
        if groups().nth(SHARD_THRESHOLD - 1).is_none() {
            for (j, items) in groups() {
                deliver(&mut machines[j], items, out);
                fabric.send(j, liveness.is_down(j), out.drain(..));
            }
        } else {
            let chunk = machines.len().div_ceil(num_threads());
            let shards: Vec<_> = machines.chunks_mut(chunk).collect();
            let drained = par_map_shards(shards, |w, machines| {
                let (mut flat, mut lens) = (Vec::new(), Vec::new());
                let ids = w * chunk..w * chunk + machines.len();
                for (j, items) in groups().filter(|(j, _)| ids.contains(j)) {
                    let before = flat.len();
                    deliver(&mut machines[j - ids.start], items, &mut flat);
                    lens.push(flat.len() - before);
                }
                (flat, lens)
            });
            let mut drained: Vec<_> = drained
                .into_iter()
                .map(|(flat, lens)| (flat.into_iter(), lens.into_iter()))
                .collect();
            for (j, _) in groups() {
                let (flat, lens) = &mut drained[j / chunk];
                let len = lens.next().expect("one span per touched node");
                fabric.send(j, liveness.is_down(j), flat.by_ref().take(len));
            }
        }
        batch.clear();
    }

    /// Hands the coordinator the batch's reports and deadlines.
    fn coordinator_turn(&mut self) {
        let now = self.fabric.now;
        if !self.coord_inbox.is_empty() {
            // Before any report can close the round: a round beginning
            // now latches the crashes due by now.
            self.liveness.feed_oracle(now, &mut self.coordinator);
        }
        for item in self.coord_inbox.drain(..) {
            match item {
                CoordItem::Frame(frame) => self.coordinator.handle(&frame, now, &mut self.out),
                CoordItem::Deadline(round) => {
                    self.coordinator.on_deadline(round, now, &mut self.out)
                }
            }
            self.fabric.schedule(None, self.out.drain(..));
        }
        self.follow_round();
    }

    /// Lets every plane that follows round boundaries catch up with
    /// the coordinator.
    fn follow_round(&mut self) {
        self.rounds.follow(&mut self.fabric, &self.coordinator);
        self.liveness.follow(&self.coordinator, &mut self.fabric);
    }

    /// Only a finished coordinator gets here, and the turn that shut
    /// it down already closed its last round's trace phase.
    fn finish(self) -> ClusterReport {
        let now = self.fabric.now;
        let mut report = self.coordinator.into_report();
        report.virtual_ms = now;
        report.event_hash = self.hash;
        report.faults = self.fabric.summary;
        let hits = self.liveness.true_positives;
        if hits > 0 {
            report.detector.detection_latency_ms = self.liveness.latency_sum_ms / hits as f64;
        }
        if let Some(stream) = self.stream.summary(now) {
            report.stream = stream;
        }
        report
    }
}

/// The executor's pacing: it never waits, so a run covering hours of
/// simulated protocol time finishes as fast as the machine can drain
/// the heap, and results depend on the event heap alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualClock;

/// Runs the full message-passing protocol for `instance` to completion
/// in deterministic virtual time: no faults, no request stream, nobody
/// observing — the convenience form of
/// [`run_cluster_events_observed`]. `delays(i, j)` is the one-way
/// delivery latency in ms from node `i` to node `j` (must be finite
/// and non-negative; control-plane frames travel free).
pub fn run_cluster_events<D: Fn(usize, usize) -> f64>(
    instance: &Instance,
    options: &ClusterOptions,
    delays: D,
) -> ClusterReport {
    let (script, stream) = (FaultScript::empty(instance.len()), StreamScript::empty());
    let (clock, tracer) = (&mut VirtualClock, &mut NullSink);
    run_cluster_events_observed(instance, options, delays, &script, &stream, clock, tracer)
}

/// The executor's general entry: runs the protocol under a fault
/// `script` and a live request `stream` (see the [module docs](self)
/// for both), on the [`VirtualClock`] and observed by `tracer`.
/// [`FaultScript::empty`], [`StreamScript::empty`] and [`NullSink`] are
/// the respective "none": each leaves the event stream, hash, and
/// report byte-identical to a run without that input.
///
/// # Panics
/// Panics when `script` or `stream` was compiled for a different
/// cluster size.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_events_observed<D, T>(
    instance: &Instance,
    options: &ClusterOptions,
    delays: D,
    script: &FaultScript,
    stream: &StreamScript,
    _clock: &mut VirtualClock,
    tracer: &mut T,
) -> ClusterReport
where
    D: Fn(usize, usize) -> f64,
    T: TraceSink,
{
    let m = instance.len();
    assert_eq!(
        script.len(),
        m,
        "fault script compiled for a different cluster size"
    );
    assert!(
        stream.arrivals().iter().all(|a| (a.org as usize) < m),
        "stream compiled for a different cluster size"
    );
    let mut run = Run::start(instance, options, delays, script, stream, tracer);
    loop {
        let Some(first) = run.pop_live() else {
            if run.resume_or_freeze() {
                continue;
            }
            break;
        };
        run.fabric.now = first.due;
        run.liveness.advance(first.due, &mut run.fabric.summary);
        run.classify(first);
        run.stream_turn();
        run.drain_nodes();
        run.coordinator_turn();
        if run.coordinator.is_done() {
            break;
        }
    }
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::rngutil::rng_for;
    use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
    use dlb_core::LatencyMatrix;
    use dlb_distributed::{Engine, EngineOptions};
    use dlb_faults::FaultPlan;
    use dlb_requestsim::stream::ArrivalPlan;

    fn faults(text: &str) -> FaultPlan {
        text.parse().unwrap()
    }

    fn arrivals(text: &str) -> ArrivalPlan {
        text.parse().unwrap()
    }

    /// The general entry on the virtual clock with nobody observing:
    /// what every faulted or streamed test below runs.
    fn simulate(
        instance: &Instance,
        options: &ClusterOptions,
        delays: impl Fn(usize, usize) -> f64,
        script: &FaultScript,
        stream: &StreamScript,
    ) -> ClusterReport {
        run_cluster_events_observed(
            instance,
            options,
            delays,
            script,
            stream,
            &mut VirtualClock,
            &mut NullSink,
        )
    }

    /// Half the instance's RTT as the one-way delay — the simplest
    /// honest delay model for tests that already carry a latency
    /// matrix.
    fn half_rtt(instance: &Instance) -> impl Fn(usize, usize) -> f64 + '_ {
        |i, j| instance.c(i, j) / 2.0
    }

    #[test]
    fn two_nodes_split_a_peak() {
        let mut instance = Instance::homogeneous(2, 1.0, 1.0, 0.0);
        instance.set_own_loads(vec![1000.0, 0.0]);
        let report = run_cluster_events(&instance, &ClusterOptions::default(), half_rtt(&instance));
        report.assignment.check_invariants(&instance).unwrap();
        // Lemma 1: optimal transfer is (l_0 − l_1 − c·s)/2 = 499.5.
        assert!((report.assignment.load(0) - 500.5).abs() < 1e-6);
        assert!((report.assignment.load(1) - 499.5).abs() < 1e-6);
        assert!(report.quiescent);
        assert!(report.virtual_ms > 0.0, "data frames paid link delay");
        assert!(report.faults.is_quiet(), "no script, no fault events");
    }

    #[test]
    fn matches_engine_fixpoint() {
        let mut rng = rng_for(3, 0xC1);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 80.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        let report = run_cluster_events(
            &instance,
            &ClusterOptions::certified(12),
            half_rtt(&instance),
        );
        report.assignment.check_invariants(&instance).unwrap();
        let mut engine = Engine::new(
            instance.clone(),
            EngineOptions {
                parallel: false,
                ..Default::default()
            },
        );
        let opt = engine.run_to_convergence(1e-12, 3, 300).final_cost;
        assert!(
            report.final_cost <= opt * 1.02,
            "events {} vs engine fixpoint {opt}",
            report.final_cost
        );
    }

    #[test]
    fn conservation_under_heavy_traffic() {
        let mut rng = rng_for(17, 0xC2);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Uniform,
            avg_load: 120.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(40, 5.0), &mut rng);
        let report = run_cluster_events(&instance, &ClusterOptions::default(), half_rtt(&instance));
        report.assignment.check_invariants(&instance).unwrap();
        for k in 0..40 {
            let total = report.assignment.owner_total(k);
            assert!(
                (total - instance.own_load(k)).abs() < 1e-6,
                "owner {k}: {total} != {}",
                instance.own_load(k)
            );
        }
    }

    #[test]
    fn history_is_exact_and_decreasing() {
        let mut rng = rng_for(5, 0xC3);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 60.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(8, 10.0), &mut rng);
        let report = run_cluster_events(&instance, &ClusterOptions::default(), half_rtt(&instance));
        let last = *report.history.last().unwrap();
        assert!(
            (last - report.final_cost).abs() <= 1e-6 * report.final_cost.max(1.0),
            "reported {last} vs exact {}",
            report.final_cost
        );
        for w in report.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9 * w[0].max(1.0), "cost rose");
        }
    }

    /// The paper's hardest shape: all load on one server spreads by
    /// doubling, so the round count stays logarithmic-ish in `m`.
    #[test]
    fn peak_spreads_in_logarithmic_rounds() {
        let m = 16;
        let mut instance = Instance::homogeneous(m, 1.0, 0.0, 20.0);
        let mut loads = vec![0.0; m];
        loads[0] = 16_000.0;
        instance.set_own_loads(loads);
        let report = run_cluster_events(&instance, &ClusterOptions::default(), half_rtt(&instance));
        report.assignment.check_invariants(&instance).unwrap();
        for j in 0..m {
            let l = report.assignment.load(j);
            assert!((l - 1000.0).abs() < 150.0, "server {j} ended with load {l}");
        }
        assert!(report.quiescent, "should reach quiescence");
        assert!(
            (4..=60).contains(&report.rounds),
            "{} rounds",
            report.rounds
        );
    }

    /// Two servers host each other's requests with equal loads: the
    /// load-based score sees nothing, only an audit probe running
    /// Algorithm 1 can untangle it. A run cannot start from a crossed
    /// state (nodes start all-local), so this checks the primitive the
    /// audit exchange runs: on the crossed ledgers it returns
    /// everything home.
    #[test]
    fn audit_discovers_relabelings() {
        use dlb_core::cost::total_cost;
        use dlb_core::{Assignment, SparseVec};
        use dlb_distributed::transfer::calc_best_transfer;
        let mut instance = Instance::homogeneous(2, 1.0, 50.0, 0.0);
        instance.set_own_loads(vec![100.0, 100.0]);
        let mut crossed = Assignment::local(&instance);
        let mut l0 = SparseVec::new();
        l0.set(1, 100.0);
        let mut l1 = SparseVec::new();
        l1.set(0, 100.0);
        crossed.replace_ledger(0, l0);
        crossed.replace_ledger(1, l1);
        crossed.refresh_loads();
        let crossed_cost = total_cost(&instance, &crossed);
        let out = calc_best_transfer(&instance, crossed.ledger(0), crossed.ledger(1), 0, 1, 0.0);
        assert_eq!(out.ledger_i.get(0), 100.0, "own requests return home");
        assert_eq!(out.ledger_j.get(1), 100.0);
        let mut fixed = crossed.clone();
        fixed.replace_ledger(0, out.ledger_i);
        fixed.replace_ledger(1, out.ledger_j);
        fixed.refresh_loads();
        assert!(total_cost(&instance, &fixed) < crossed_cost * 0.6);
    }

    #[test]
    fn failed_nodes_take_no_part() {
        let mut instance = Instance::homogeneous(6, 1.0, 1.0, 0.0);
        instance.set_own_loads(vec![600.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Down from the first round; seed 4 spares the loaded node 0.
        let script = faults(&format!("crash:{}@0ms", 2.0 / 6.0)).compile(4, 6);
        assert_eq!(script.down_at(0.0), [4, 5]);
        let report = simulate(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            &script,
            &StreamScript::empty(),
        );
        report.assignment.check_invariants(&instance).unwrap();
        assert_eq!(report.assignment.load(4), 0.0);
        assert_eq!(report.assignment.load(5), 0.0);
        for j in 0..4 {
            assert!(report.assignment.load(j) > 100.0);
        }
    }

    #[test]
    fn single_node_cluster_is_trivial() {
        let instance = Instance::homogeneous(1, 1.0, 0.0, 50.0);
        let report = run_cluster_events(&instance, &ClusterOptions::default(), |_, _| 1.0);
        assert_eq!(report.exchanges, 0);
        assert!(report.quiescent);
        assert_eq!(report.assignment.load(0), 50.0);
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let mut rng = rng_for(9, 0xD1);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 70.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(16, 15.0), &mut rng);
        let a = run_cluster_events(&instance, &ClusterOptions::default(), half_rtt(&instance));
        let b = run_cluster_events(&instance, &ClusterOptions::default(), half_rtt(&instance));
        assert_eq!(a.event_hash, b.event_hash);
        assert_eq!(a.history, b.history);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert_eq!(a.assignment.loads(), b.assignment.loads());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.exchanges, b.exchanges);
    }

    #[test]
    fn virtual_time_scales_with_link_delay() {
        let mut instance = Instance::homogeneous(4, 1.0, 1.0, 0.0);
        instance.set_own_loads(vec![400.0, 0.0, 0.0, 0.0]);
        let slow = run_cluster_events(&instance, &ClusterOptions::default(), |_, _| 50.0);
        let fast = run_cluster_events(&instance, &ClusterOptions::default(), |_, _| 5.0);
        assert!(
            slow.virtual_ms > fast.virtual_ms,
            "slow {} vs fast {}",
            slow.virtual_ms,
            fast.virtual_ms
        );
        // Same protocol, different pacing: identical outcome.
        assert_eq!(slow.history, fast.history);
        assert_eq!(slow.assignment.loads(), fast.assignment.loads());
    }

    /// A heap entry is due + seq + a 24-byte event; m = 100 000 keeps
    /// 100 000 of them queued twice over (far tier and run). A variant
    /// that widens `Event` shows up here, not in `peak_rss_mb`.
    #[test]
    fn a_heap_entry_is_40_bytes() {
        assert_eq!(std::mem::size_of::<Scheduled<Event>>(), 40);
    }

    /// One crashed node: the survivors keep balancing, the victim's
    /// ledger freezes, and conservation holds exactly.
    #[test]
    fn crash_freezes_the_victim_and_survivors_converge() {
        let mut instance = Instance::homogeneous(8, 1.0, 0.0, 0.0);
        instance.set_own_loads(vec![800.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let script = faults("crash:0.25@30ms").compile(5, 8);
        let victims = script.down_at(1e12);
        assert_eq!(victims.len(), 2);
        let report = simulate(
            &instance,
            &ClusterOptions::default(),
            |_, _| 5.0,
            &script,
            &StreamScript::empty(),
        );
        report.assignment.check_invariants(&instance).unwrap();
        for k in 0..8 {
            let total = report.assignment.owner_total(k);
            assert!(
                (total - instance.own_load(k)).abs() < 1e-6,
                "owner {k}: {total} != {}",
                instance.own_load(k)
            );
        }
        assert!(report.quiescent, "survivors must still quiesce");
        assert_eq!(report.faults.crashes, 2);
        assert_eq!(report.faults.recoveries, 0);
        // Crash latching works at round boundaries, so a pure crash
        // produces no in-flight drops: nothing is ever *sent* to a
        // node the round already knows is dead.
        // Survivors carry real load; the peak got spread among them.
        let live_loaded = (0..8u32)
            .filter(|j| !victims.contains(j))
            .filter(|&j| report.assignment.load(j as usize) > 50.0)
            .count();
        assert!(live_loaded >= 4, "survivors share the peak");
    }

    /// Loss and delay spikes stretch virtual time but cannot tear an
    /// exchange: the run still reaches a conservation-clean fixpoint.
    #[test]
    fn loss_and_spikes_delay_but_do_not_tear() {
        let mut rng = rng_for(23, 0xC4);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 90.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        let clean = run_cluster_events(&instance, &ClusterOptions::default(), half_rtt(&instance));
        let script = faults("loss:0.15,spike:5x@0ms..2000ms").compile(4, 12);
        let faulted = simulate(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            &script,
            &StreamScript::empty(),
        );
        faulted.assignment.check_invariants(&instance).unwrap();
        assert!(
            faulted.virtual_ms > clean.virtual_ms,
            "faults must cost time: {} vs {}",
            faulted.virtual_ms,
            clean.virtual_ms
        );
        assert!(faulted.faults.delayed_frames > 0);
        assert!(faulted.faults.extra_delay_ms > 0.0);
        assert_eq!(faulted.faults.crashes, 0);
        assert!(faulted.quiescent);
    }

    /// A partition holds crossing frames until it heals; the run
    /// completes afterwards with clean conservation.
    #[test]
    fn partition_heals_and_the_run_completes() {
        let mut rng = rng_for(41, 0xC6);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 100.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(10, 10.0), &mut rng);
        let script = faults("part:10ms..400ms").compile(6, 10);
        let report = simulate(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            &script,
            &StreamScript::empty(),
        );
        report.assignment.check_invariants(&instance).unwrap();
        assert!(report.quiescent);
        assert!(
            report.virtual_ms > 400.0,
            "crossing traffic waits for the heal: {}",
            report.virtual_ms
        );
    }

    /// Recovery: nodes that crash and come back rejoin the rounds and
    /// end up carrying load again.
    #[test]
    fn recovered_nodes_rejoin() {
        let mut rng = rng_for(48, 0xC7);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 100.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(8, 10.0), &mut rng);
        let script = faults("crash:0.5@20ms..120ms").compile(2, 8);
        let report = simulate(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            &script,
            &StreamScript::empty(),
        );
        report.assignment.check_invariants(&instance).unwrap();
        assert!(report.quiescent);
        assert_eq!(report.faults.crashes, 4);
        assert_eq!(report.faults.recoveries, 4);
        // After recovery every node is a balancing citizen again:
        // every server ends up carrying real load.
        let loaded = (0..8).filter(|&j| report.assignment.load(j) > 10.0).count();
        assert!(loaded >= 7, "recovered nodes take load: {loaded}");
    }

    /// Exact per-owner conservation: every request ends up on exactly
    /// one server, aborted or not.
    fn assert_conserved(report: &ClusterReport, instance: &Instance) {
        report.assignment.check_invariants(instance).unwrap();
        for k in 0..instance.len() {
            let total = report.assignment.owner_total(k);
            assert!(
                (total - instance.own_load(k)).abs() < 1e-6,
                "owner {k}: {total} != {}",
                instance.own_load(k)
            );
        }
    }

    /// In-protocol timeout detection: nobody feeds the oracle (the
    /// coordinator asserts if anyone tries), yet scripted crashes are
    /// suspected from pure silence, survivors converge, and
    /// conservation holds exactly.
    #[test]
    fn timeout_detection_finds_crashes_from_silence() {
        let mut instance = Instance::homogeneous(8, 1.0, 0.0, 0.0);
        instance.set_own_loads(vec![800.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let script = faults("crash:0.25@30ms").compile(5, 8);
        assert_eq!(script.down_at(1e12).len(), 2);
        let options = ClusterOptions {
            detect: DetectMode::Timeout(250.0),
            exchange_rto_ms: 400.0,
            ..Default::default()
        };
        let report = simulate(
            &instance,
            &options,
            |_, _| 5.0,
            &script,
            &StreamScript::empty(),
        );
        assert_conserved(&report, &instance);
        assert!(report.quiescent, "survivors must still quiesce");
        assert!(
            report.detector.suspicions >= 2,
            "both crashes suspected: {:?}",
            report.detector
        );
        assert!(
            report.detector.detection_latency_ms > 0.0
                && report.detector.detection_latency_ms <= 300.0,
            "silence noticed within a deadline: {:?}",
            report.detector
        );
        assert_eq!(report.faults.crashes, 2);
    }

    /// A straggler is slow, not dead: an over-aggressive fixed timeout
    /// wrongly suspects it, the probation path readmits it, its
    /// exclusion time is recorded, and not a single unit of load is
    /// lost across the wrongful exclusion.
    #[test]
    fn wrongly_suspected_straggler_rejoins_with_exact_conservation() {
        let mut rng = rng_for(84, 0xD5);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 90.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        // A healthy exchange chain is ~4 link hops (40 ms); the 60 ms
        // deadline clears it, but a straggler's 5× outbound legs
        // overrun it — suspected, yet very much alive.
        let script = faults("slow:0.25@5x").compile(9, 12);
        assert!(script.straggler_count() > 0);
        let options = ClusterOptions {
            detect: DetectMode::Timeout(60.0),
            // Generous exchange RTO: partners must wait stragglers
            // out, only the coordinator gets impatient.
            exchange_rto_ms: 20_000.0,
            ..Default::default()
        };
        let report = simulate(
            &instance,
            &options,
            |_, _| 10.0,
            &script,
            &StreamScript::empty(),
        );
        assert_conserved(&report, &instance);
        assert!(report.quiescent);
        assert!(
            report.detector.false_positives > 0,
            "the tight timeout must fire on a straggler: {:?}",
            report.detector
        );
        assert!(report.detector.rejoin_ms > 0.0);
        assert!(report.detector.suspicions >= report.detector.false_positives);
        assert_eq!(report.faults.crashes, 0, "nobody actually died");
    }

    /// Adaptive detection learns the stragglers' latency instead of
    /// suspecting them forever: same workload and script as the tight
    /// fixed timeout, strictly fewer false positives.
    #[test]
    fn adaptive_detection_tolerates_stragglers() {
        let mut rng = rng_for(84, 0xD5);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 90.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        let script = faults("slow:0.25@5x").compile(9, 12);
        let run = |detect: DetectMode| {
            let options = ClusterOptions {
                detect,
                exchange_rto_ms: 20_000.0,
                ..Default::default()
            };
            simulate(
                &instance,
                &options,
                |_, _| 10.0,
                &script,
                &StreamScript::empty(),
            )
        };
        let fixed = run(DetectMode::Timeout(60.0));
        let adaptive = run(DetectMode::Adaptive);
        assert_conserved(&adaptive, &instance);
        assert!(adaptive.quiescent);
        assert!(
            adaptive.detector.false_positives < fixed.detector.false_positives,
            "adaptive {:?} must beat fixed {:?} on false positives",
            adaptive.detector,
            fixed.detector
        );
    }

    /// Crashes and stragglers together, adaptive detection: the dead
    /// are detected, the slow survive, conservation is exact — the
    /// acceptance-drill scenario at test scale.
    #[test]
    fn adaptive_detection_under_crash_and_slow() {
        let mut rng = rng_for(77, 0xD7);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 90.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 10.0), &mut rng);
        let script = faults("crash:0.2@120ms,slow:0.2@4x").compile(13, 12);
        let options = ClusterOptions {
            detect: DetectMode::Adaptive,
            exchange_rto_ms: 2_000.0,
            ..Default::default()
        };
        let report = simulate(
            &instance,
            &options,
            half_rtt(&instance),
            &script,
            &StreamScript::empty(),
        );
        assert_conserved(&report, &instance);
        assert!(report.quiescent);
        assert!(report.detector.suspicions > 0);
        assert!(report.faults.crashes > 0);
    }

    /// One detect-mode run, twice: every observable — event hash,
    /// history, detector counters — is bit-identical. The worker-count
    /// sweep lives in the scenario determinism tests; this pins the
    /// single-process replay.
    #[test]
    fn detect_runs_are_bit_identical_across_repeats() {
        let mut rng = rng_for(51, 0xD9);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 70.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(10, 10.0), &mut rng);
        let script = faults("crash:0.2@80ms,slow:0.3@8x").compile(3, 10);
        let options = ClusterOptions {
            detect: DetectMode::Adaptive,
            exchange_rto_ms: 1_500.0,
            ..Default::default()
        };
        let a = simulate(
            &instance,
            &options,
            half_rtt(&instance),
            &script,
            &StreamScript::empty(),
        );
        let b = simulate(
            &instance,
            &options,
            half_rtt(&instance),
            &script,
            &StreamScript::empty(),
        );
        assert_eq!(a.event_hash, b.event_hash);
        assert_eq!(a.history, b.history);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert_eq!(a.assignment.loads(), b.assignment.loads());
        assert_eq!(a.detector, b.detector);
        assert_eq!(a.faults, b.faults);
    }

    /// A live Poisson stream is served end to end: every arrival is
    /// either served or dropped, latency percentiles are finite, and
    /// the run outlives the last arrival before quiescing.
    #[test]
    fn streamed_arrivals_are_served_with_finite_latency() {
        let mut rng = rng_for(7, 0xE2);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 60.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(8, 8.0), &mut rng);
        let stream = arrivals("poisson:300").compile(3, 1_000.0, instance.own_loads());
        assert!(!stream.is_empty());
        let report = simulate(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            &FaultScript::empty(8),
            &stream,
        );
        let s = report.stream;
        assert_eq!(s.served + s.dropped, stream.len() as u64);
        assert!(s.served > 0, "no faults: requests get served: {s:?}");
        assert_eq!(s.dropped, 0, "no faults: nothing drops: {s:?}");
        assert!(s.p50_ms.is_finite() && s.p50_ms > 0.0, "{s:?}");
        assert!(s.p99_ms.is_finite() && s.p99_ms >= s.p50_ms, "{s:?}");
        assert!(s.imbalance_ms.is_finite() && s.imbalance_ms >= 0.0);
        let last = stream.arrivals().last().unwrap().at_ms;
        assert!(
            report.virtual_ms >= last,
            "run must outlive the stream: {} < {last}",
            report.virtual_ms
        );
        assert!(report.quiescent, "hold released, protocol quiesced");
    }

    /// Streamed runs replay bit-identically: same schedule, same
    /// summary, same event hash.
    #[test]
    fn streamed_runs_are_bit_identical() {
        let mut rng = rng_for(19, 0xE3);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Uniform,
            avg_load: 50.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(6, 10.0), &mut rng);
        let stream =
            arrivals("poisson:150,burst:300@200ms..400ms").compile(11, 800.0, instance.own_loads());
        let run = || {
            simulate(
                &instance,
                &ClusterOptions::default(),
                half_rtt(&instance),
                &FaultScript::empty(6),
                &stream,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.event_hash, b.event_hash);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.history, b.history);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert_eq!(a.assignment.loads(), b.assignment.loads());
    }

    /// A crash mid-stream: arrivals whose organization's work is
    /// frozen on the dead server are counted as dropped, the rest keep
    /// being served, and the run still terminates.
    #[test]
    fn crash_mid_stream_drops_the_victims_requests() {
        // Homogeneous loads: no exchanges move work, so each org is
        // hosted exactly at home and a crash strands its stream.
        let instance = Instance::homogeneous(8, 1.0, 0.0, 50.0);
        let script = faults("crash:0.25@100ms").compile(5, 8);
        assert_eq!(script.down_at(1e12).len(), 2);
        let stream = arrivals("poisson:200").compile(9, 600.0, instance.own_loads());
        let report = simulate(
            &instance,
            &ClusterOptions::default(),
            |_, _| 5.0,
            &script,
            &stream,
        );
        let s = report.stream;
        assert_eq!(s.served + s.dropped, stream.len() as u64);
        assert!(s.served > 0, "survivors keep serving: {s:?}");
        assert!(s.dropped > 0, "victims' requests strand: {s:?}");
        assert_eq!(report.faults.crashes, 2);
    }

    /// A stream compiled for a larger cluster names organizations this
    /// one does not have: refused up front, in release builds too,
    /// instead of indexing past the machine table mid-run.
    #[test]
    #[should_panic(expected = "stream compiled for a different cluster size")]
    fn stream_for_a_larger_cluster_is_refused() {
        let instance = Instance::homogeneous(4, 1.0, 0.0, 50.0);
        let stream = arrivals("poisson:200").compile(9, 600.0, &[50.0; 8]);
        assert!(stream.arrivals().iter().any(|a| a.org >= 4));
        simulate(
            &instance,
            &ClusterOptions::default(),
            |_, _| 5.0,
            &FaultScript::empty(4),
            &stream,
        );
    }

    /// Two-phase exchanges under the oracle-free happy path reach the
    /// same fixpoint as the classic single-phase protocol — the extra
    /// ack round-trip costs time, not quality.
    #[test]
    fn two_phase_reaches_the_single_phase_fixpoint() {
        let mut rng = rng_for(62, 0xDA);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 80.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(9, 12.0), &mut rng);
        let classic =
            run_cluster_events(&instance, &ClusterOptions::default(), half_rtt(&instance));
        let detect = run_cluster_events(
            &instance,
            &ClusterOptions {
                detect: DetectMode::Timeout(5_000.0),
                ..Default::default()
            },
            half_rtt(&instance),
        );
        assert_conserved(&detect, &instance);
        assert!(detect.quiescent);
        let err: f64 = (detect.final_cost - classic.final_cost).abs();
        assert!(
            err < 1e-6 * classic.final_cost.max(1.0),
            "two-phase fixpoint drifted: {} vs {}",
            detect.final_cost,
            classic.final_cost
        );
        assert!(
            detect.virtual_ms > classic.virtual_ms,
            "the ack leg costs virtual time"
        );
    }
}
