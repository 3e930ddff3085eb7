//! The compiled, per-run fault script.
//!
//! [`FaultScript`] is what a simulation actually consults: the
//! [`FaultPlan`]'s fractions and windows resolved against one `(seed,
//! m)` pair into concrete victims, partition sides, and per-frame
//! decisions. Every method is a *pure function* — the script holds no
//! RNG stream and no counters, so consulting it from any number of
//! worker threads, in any order, yields the same answers. All sampled
//! decisions go through SplitMix64 over `(seed, salt, inputs)`, the
//! same stateless-hash technique `dlb_netsim::LinkDelayModel` uses for
//! its per-link jitter.

use dlb_core::rngutil::{derive_seed, unit_f64};

use crate::plan::FaultPlan;

/// Retransmission timeout of the reliable-transport loss model, in
/// virtual ms: each lost attempt of a reliable frame adds this much
/// delay (a TCP-flavored RTO; see [`FaultScript::reliable_link`]).
pub const RETRANSMIT_MS: f64 = 200.0;

/// Retransmission attempts are capped here so a pathological loss
/// probability cannot push a frame past every horizon.
pub const MAX_RETRANSMITS: u32 = 12;

/// Stream salts: distinct SplitMix64 domains per decision family.
const SALT_CRASH: u64 = 0xC4A5_11D0;
const SALT_SIDE: u64 = 0x51DE_0B1F;
const SALT_LOSS: u64 = 0x10D5_50FF;
const SALT_SLOW: u64 = 0x5107_AC3E;

/// What the fault layer did to one reliable data-plane frame (the
/// executor's summary accounting).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkOutcome {
    /// Extra one-way delay injected on top of the base link delay, ms.
    pub extra_ms: f64,
    /// Lost attempts recovered by retransmission.
    pub retransmits: u32,
    /// Whether a partition held the frame until it healed.
    pub held_by_partition: bool,
}

/// Counters a simulation accumulates while consulting a script — the
/// fault-event summary a `RunRecord` carries. All counting happens in
/// the single-threaded scheduling path of the executor, so the summary
/// is as deterministic as the event order itself.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSummary {
    /// Nodes that crashed during the run.
    pub crashes: u32,
    /// Nodes that recovered during the run.
    pub recoveries: u32,
    /// Frames dropped outright (dead destination, or lossy/partitioned
    /// idempotent traffic).
    pub dropped_frames: u64,
    /// Frames that arrived late because of loss retransmissions, delay
    /// spikes, or partition holds.
    pub delayed_frames: u64,
    /// Total extra virtual delay injected across all delayed frames,
    /// ms.
    pub extra_delay_ms: f64,
}

impl FaultSummary {
    /// Whether nothing was injected (the no-faults summary).
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

/// SplitMix64: stateless, well-mixed 64-bit hash — the canonical
/// finalizer lives in `dlb_core::rngutil`; stream 0 is the plain mix.
fn splitmix(x: u64) -> u64 {
    derive_seed(x, 0)
}

/// `frac · m` of the nodes `0..m`, rounded to the nearest count and at
/// most `cap`, drawn without replacement: a partial Fisher–Yates over
/// `0..m` driven by the stateless hash stream `salted` (the seed
/// xor'ed with a primitive's salt), whose first slots are the victims.
fn victims(salted: u64, frac: f64, m: usize, cap: usize) -> Vec<usize> {
    let k = ((frac * m as f64).round() as usize).min(cap);
    let mut order: Vec<usize> = (0..m).collect();
    for i in 0..k {
        let r = splitmix(salted ^ (i as u64).wrapping_mul(0x9E37)) as usize;
        order.swap(i, i + r % (m - i));
    }
    order.truncate(k);
    order
}

/// A [`FaultPlan`] compiled for one run (see the [module docs](self)
/// and [`FaultPlan::compile`]). A per-node table exists only under the
/// primitive that reads it, so the empty script holds none at any `m`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScript {
    seed: u64,
    plan: FaultPlan,
    /// Number of nodes the script was compiled for.
    m: usize,
    /// Per node under a crash primitive: the instant it goes down
    /// (`f64::INFINITY` = never); empty otherwise.
    crash_at: Vec<f64>,
    /// Per node under a crash primitive: the instant it comes back
    /// (`f64::INFINITY` = never); empty otherwise.
    recover_at: Vec<f64>,
    /// Per node under a partition primitive: its side; empty otherwise.
    side: Vec<bool>,
    /// Per node under a slow primitive: whether it is a straggler;
    /// empty otherwise.
    straggler: Vec<bool>,
}

impl FaultScript {
    /// Compiles `plan` for a run over `m` nodes under `seed` (see
    /// [`FaultPlan::compile`]).
    pub fn compile(plan: &FaultPlan, seed: u64, m: usize) -> Self {
        let (mut crash_at, mut recover_at) = (Vec::new(), Vec::new());
        if let Some(c) = &plan.crash {
            (crash_at, recover_at) = (vec![f64::INFINITY; m], vec![f64::INFINITY; m]);
            // Always leave at least one survivor: a fully-dead cluster
            // has no convergence to measure.
            for victim in victims(seed ^ SALT_CRASH, c.frac, m, m.saturating_sub(1)) {
                crash_at[victim] = c.at_ms;
                recover_at[victim] = c.recover_ms.unwrap_or(f64::INFINITY);
            }
        }
        let mut side = Vec::new();
        if plan.partition.is_some() {
            let sides = (0..m).map(|i| splitmix(seed ^ SALT_SIDE ^ i as u64) & 1 == 1);
            side = sides.collect();
        }
        let mut straggler = Vec::new();
        if let Some(s) = &plan.slow {
            straggler = vec![false; m];
            // On its own salt stream: slow and crashed sets are
            // independent.
            for victim in victims(seed ^ SALT_SLOW, s.frac, m, m) {
                straggler[victim] = true;
            }
        }
        Self {
            seed,
            plan: *plan,
            m,
            crash_at,
            recover_at,
            side,
            straggler,
        }
    }

    /// The empty script for `m` nodes: every query answers "no fault".
    /// [`FaultScript::is_empty`] distinguishes it so hosts can skip
    /// fault bookkeeping entirely and stay byte-identical with their
    /// pre-fault behavior.
    pub fn empty(m: usize) -> Self {
        Self::compile(&FaultPlan::default(), 0, m)
    }

    /// Whether the script injects nothing.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Number of nodes the script was compiled for.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether `node` is down (crashed, not yet recovered) at virtual
    /// time `t`.
    pub fn node_down(&self, node: usize, t: f64) -> bool {
        self.plan.crash.is_some() && self.crash_at[node] <= t && t < self.recover_at[node]
    }

    /// The sorted list of nodes down at virtual time `t`.
    pub fn down_at(&self, t: f64) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&j| self.node_down(j as usize, t))
            .collect()
    }

    /// The instant `node` crashes (`f64::INFINITY` = never). This is a
    /// *measurement* hook — detection-latency accounting diffs a
    /// detector's suspicion instant against it — never a protocol
    /// input: an oracle-free run must not consult it to decide
    /// anything.
    pub fn crash_time(&self, node: usize) -> f64 {
        match self.plan.crash {
            Some(_) => self.crash_at[node],
            None => f64::INFINITY,
        }
    }

    /// Outbound delay multiplier for frames sent by `src` at time `t`:
    /// the slow primitive's factor while `src` straggles, `1.0`
    /// otherwise.
    pub fn slow_factor(&self, src: usize, t: f64) -> f64 {
        match &self.plan.slow {
            Some(s) if self.straggler[src] && s.window.is_none_or(|(a, b)| (a..b).contains(&t)) => {
                s.factor
            }
            _ => 1.0,
        }
    }

    /// Nodes the slow primitive turned into stragglers.
    pub fn straggler_count(&self) -> u32 {
        self.straggler.iter().filter(|&&b| b).count() as u32
    }

    /// Which liveness phase `t` falls in: `0` before the crash
    /// instant, `1` while the victims are down, `2` after recovery
    /// (`0` when the plan has no crash primitive). [`Self::down_at`]
    /// is constant within a phase, so a driver that polls it per
    /// delivery batch can cache the set and refresh only on a phase
    /// change — O(1) instead of O(m) per batch.
    pub fn down_phase(&self, t: f64) -> u8 {
        match &self.plan.crash {
            None => 0,
            Some(c) if t < c.at_ms => 0,
            Some(c) if c.recover_ms.is_none_or(|r| t < r) => 1,
            Some(_) => 2,
        }
    }

    /// Whether retransmission attempt `attempt` of frame `seq` at time
    /// `t` is lost.
    fn loss_attempt_fails(&self, t: f64, seq: u64, attempt: u32) -> bool {
        let Some(l) = &self.plan.loss else {
            return false;
        };
        if let Some((from, to)) = l.window {
            if !(from..to).contains(&t) {
                return false;
            }
        }
        unit_f64(splitmix(
            self.seed ^ SALT_LOSS ^ seq.rotate_left(17) ^ u64::from(attempt) << 48,
        )) < l.prob
    }

    /// Extra delay a spike window adds to a frame sent at `t` with
    /// base one-way delay `base_ms`.
    pub fn spike_extra(&self, t: f64, base_ms: f64) -> f64 {
        match &self.plan.spike {
            Some(s) if (s.from_ms..s.to_ms).contains(&t) => base_ms * (s.factor - 1.0),
            _ => 0.0,
        }
    }

    /// Whether `src → dst` crosses the partition cut while the
    /// partition window is active at time `t` (the reliable transport
    /// holds such frames until the window heals).
    pub fn crossing_blocked(&self, t: f64, src: usize, dst: usize) -> bool {
        match &self.plan.partition {
            Some(p) => (p.from_ms..p.to_ms).contains(&t) && self.side[src] != self.side[dst],
            None => false,
        }
    }

    /// The instant the partition heals (`0.0` when there is none) —
    /// where held frames resume.
    fn partition_heal_ms(&self) -> f64 {
        self.plan.partition.map_or(0.0, |p| p.to_ms)
    }

    /// The reliable-transport composition for one data-plane frame of
    /// the protocol executor: frame `seq` is sent from `src` to `dst`
    /// at time `now` with base one-way delay `base_ms`, and **always
    /// arrives** (crashed destinations are the executor's concern) —
    /// faults only make it late:
    ///
    /// 1. a partition holds the send until the window heals,
    /// 2. a spike window multiplies the link delay of the (possibly
    ///    deferred) send,
    /// 3. each lost attempt adds one [`RETRANSMIT_MS`] timeout
    ///    (independent per-attempt decisions, capped), with every
    ///    retry judged against the loss window at the instant it
    ///    actually happens — a windowed loss stops killing attempts
    ///    once the retries land past the window's end.
    ///
    /// The returned [`LinkOutcome::extra_ms`] is everything beyond
    /// `base_ms`; deliver at `now + base_ms + extra_ms`.
    pub fn reliable_link(
        &self,
        now: f64,
        src: usize,
        dst: usize,
        seq: u64,
        base_ms: f64,
    ) -> LinkOutcome {
        let mut outcome = LinkOutcome::default();
        let mut send = now;
        if self.crossing_blocked(now, src, dst) {
            outcome.held_by_partition = true;
            send = self.partition_heal_ms();
        }
        let mut extra = (send - now) + self.spike_extra(send, base_ms);
        // Attempt k happens k timeouts after the (possibly deferred)
        // send; the loss window applies at that instant.
        while outcome.retransmits < MAX_RETRANSMITS
            && self.loss_attempt_fails(
                send + f64::from(outcome.retransmits) * RETRANSMIT_MS,
                seq,
                outcome.retransmits,
            )
        {
            outcome.retransmits += 1;
            extra += RETRANSMIT_MS;
        }
        outcome.extra_ms = extra;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults(text: &str) -> FaultPlan {
        text.parse().unwrap()
    }

    #[test]
    fn empty_script_answers_no_fault() {
        let s = FaultScript::empty(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 10);
        assert!(s.down_at(1e9).is_empty());
        assert!(!s.loss_attempt_fails(5.0, 3, 0));
        assert_eq!(s.spike_extra(5.0, 10.0), 0.0);
        assert!(!s.crossing_blocked(5.0, 0, 1));
        assert_eq!(s.reliable_link(5.0, 0, 1, 3, 10.0), LinkOutcome::default());
        assert!(FaultSummary::default().is_quiet());
    }

    /// The empty script keeps no per-node table at any `m`, and a plan
    /// keeps only the tables its primitives read; every query still
    /// answers for every node.
    #[test]
    fn a_script_keeps_only_the_tables_its_primitives_read() {
        let m = 100_000;
        let tables = |s: &FaultScript| {
            let lens = [s.crash_at.len(), s.recover_at.len()];
            [lens[0], lens[1], s.side.len(), s.straggler.len()]
        };
        let empty = FaultScript::empty(m);
        assert_eq!((empty.len(), tables(&empty)), (m, [0; 4]));
        let last = m - 1;
        assert!(!empty.node_down(last, 1e9));
        assert_eq!(empty.crash_time(last), f64::INFINITY);
        assert_eq!(
            (empty.slow_factor(last, 5.0), empty.straggler_count()),
            (1.0, 0)
        );
        let lossy = faults("loss:0.5").compile(3, m);
        assert_eq!(tables(&lossy), [0; 4]);
        let crash = faults("crash:0.1@5ms,part:0ms..9ms").compile(3, m);
        assert_eq!(tables(&crash), [m, m, m, 0]);
        assert_eq!(crash.down_at(6.0).len(), m / 10);
        let slow = faults("slow:0.2@3x").compile(3, m);
        assert_eq!(
            (tables(&slow), slow.straggler_count()),
            ([0, 0, 0, m], 20_000)
        );
    }

    #[test]
    fn crash_windows_honour_instants_and_fractions() {
        let plan = faults("crash:0.3@100ms..400ms");
        let s = plan.compile(9, 20);
        assert!(s.down_at(0.0).is_empty());
        assert_eq!(s.down_at(100.0).len(), 6);
        assert_eq!(s.down_at(399.9).len(), 6);
        assert!(s.down_at(400.0).is_empty(), "recovery is exclusive");
        // Victims are a pure function of the seed.
        assert_eq!(s.down_at(200.0), plan.compile(9, 20).down_at(200.0));
        assert_ne!(s.down_at(200.0), plan.compile(10, 20).down_at(200.0));
        // down_at is sorted.
        let down = s.down_at(200.0);
        let mut sorted = down.clone();
        sorted.sort_unstable();
        assert_eq!(down, sorted);
    }

    #[test]
    fn at_least_one_node_survives() {
        let s = faults("crash:1@0ms").compile(3, 8);
        assert_eq!(s.down_at(0.0).len(), 7);
        let single = faults("crash:1@0ms").compile(3, 1);
        assert!(single.down_at(0.0).is_empty());
    }

    #[test]
    fn loss_rate_tracks_probability_and_window() {
        let s = faults("loss:0.3").compile(4, 10);
        let hits = (0..20_000)
            .filter(|&q| s.loss_attempt_fails(1.0, q, 0))
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "empirical loss rate {rate}");
        let windowed = faults("loss:0.9@100ms..200ms").compile(4, 10);
        assert!(!windowed.loss_attempt_fails(99.0, 7, 0));
        assert!(!windowed.loss_attempt_fails(200.0, 7, 0));
        let in_window = (0..1_000)
            .filter(|&q| windowed.loss_attempt_fails(150.0, q, 0))
            .count();
        assert!(in_window > 800, "windowed loss active inside the window");
    }

    #[test]
    fn spikes_multiply_delay_inside_the_window() {
        let s = faults("spike:4x@100ms..200ms").compile(1, 4);
        assert_eq!(s.spike_extra(150.0, 10.0), 30.0);
        assert_eq!(s.spike_extra(99.9, 10.0), 0.0);
        assert_eq!(s.spike_extra(200.0, 10.0), 0.0);
    }

    #[test]
    fn partition_blocks_crossing_pairs_only() {
        let s = faults("part:100ms..200ms").compile(11, 32);
        let sides: Vec<bool> = (0..32).map(|i| s.crossing_blocked(150.0, 0, i)).collect();
        // A bipartition splits the cluster into two non-trivial halves
        // (astronomically unlikely to be one-sided at m=32).
        assert!(sides.iter().any(|&b| b));
        assert!(sides.iter().any(|&b| !b));
        assert!(!s.crossing_blocked(150.0, 0, 0), "self links never cross");
        // Outside the window nothing is blocked.
        assert!((0..32).all(|i| !s.crossing_blocked(99.0, 0, i)));
    }

    #[test]
    fn reliable_link_composes_hold_spike_and_retransmits() {
        let plan = faults("loss:0.5,spike:3x@0ms..1000ms,part:0ms..500ms");
        let s = plan.compile(21, 16);
        // Find a crossing pair.
        let dst = (1..16)
            .find(|&j| s.crossing_blocked(100.0, 0, j))
            .expect("some pair crosses");
        let o = s.reliable_link(100.0, 0, dst, 42, 10.0);
        assert!(o.held_by_partition);
        // Held to 500ms (+400), spiked ×3 at the deferred send (+20),
        // plus any retransmits.
        let floor = 400.0 + 20.0;
        assert!(
            (o.extra_ms - floor - f64::from(o.retransmits) * RETRANSMIT_MS).abs() < 1e-9,
            "extra {} retransmits {}",
            o.extra_ms,
            o.retransmits
        );
        // Same inputs, same outcome — across clones too.
        assert_eq!(o, s.clone().reliable_link(100.0, 0, dst, 42, 10.0));
        // A non-crossing frame outside every window is untouched.
        let calm = s.reliable_link(2_000.0, 0, dst, 7, 10.0);
        assert_eq!(calm, LinkOutcome::default());
    }

    #[test]
    fn windowed_loss_spares_retries_past_the_window() {
        // Near-certain loss confined to [0, 100): a frame sent at t=50
        // loses its first attempt inside the window, but the retry at
        // t=250 is already past it — so the extra delay is bounded by
        // one timeout, never the full retransmission cap.
        let s = faults("loss:0.99@0ms..100ms").compile(2, 4);
        for seq in 0..200 {
            let o = s.reliable_link(50.0, 0, 1, seq, 10.0);
            assert!(
                o.retransmits <= 1,
                "seq {seq}: retries past the window must survive ({o:?})"
            );
        }
        // And a frame sent after the window is never touched.
        assert_eq!(
            s.reliable_link(100.0, 0, 1, 7, 10.0),
            LinkOutcome::default()
        );
    }

    #[test]
    fn stragglers_multiply_outbound_delay() {
        let plan = faults("slow:0.25@4x");
        let s = plan.compile(13, 20);
        assert_eq!(s.straggler_count(), 5);
        let factors: Vec<f64> = (0..20).map(|i| s.slow_factor(i, 100.0)).collect();
        assert_eq!(factors.iter().filter(|&&f| f == 4.0).count(), 5);
        assert_eq!(factors.iter().filter(|&&f| f == 1.0).count(), 15);
        // Victims are a pure function of the seed; stragglers stay up.
        let again: Vec<f64> = (0..20)
            .map(|i| plan.compile(13, 20).slow_factor(i, 100.0))
            .collect();
        assert_eq!(factors, again);
        assert!(s.down_at(1e9).is_empty());
        // A windowed slow stops at the window's end.
        let windowed = faults("slow:1@3x@100ms..200ms").compile(13, 4);
        assert_eq!(windowed.straggler_count(), 4);
        assert_eq!(windowed.slow_factor(0, 99.9), 1.0);
        assert_eq!(windowed.slow_factor(0, 100.0), 3.0);
        assert_eq!(windowed.slow_factor(0, 200.0), 1.0);
        // crash_time is a pure accessor.
        let churn = faults("crash:0.5@300ms").compile(5, 8);
        for j in 0..8 {
            let t = churn.crash_time(j);
            assert!(t == 300.0 || t == f64::INFINITY);
            assert_eq!(t.is_finite(), churn.node_down(j, 300.0));
        }
    }

    #[test]
    fn retransmit_count_is_capped() {
        let s = faults("loss:0.999").compile(2, 4);
        // Parse forbids prob >= 1, but even near-certain loss must
        // terminate.
        let o = s.reliable_link(0.0, 0, 1, 9, 10.0);
        assert!(o.retransmits <= 12);
        assert!(o.extra_ms.is_finite());
    }
}
