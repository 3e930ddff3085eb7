//! The shared virtual-time event heap.
//!
//! Both deterministic simulations in this workspace — the protocol
//! executor in `dlb-runtime` and the scheduled-gossip run in
//! `dlb-gossip` — drive their state machines from the same primitive:
//! a min-heap of future deliveries ordered by **(due time, sequence
//! number)**. The due time is virtual milliseconds; the sequence
//! number is the scheduling order and breaks same-instant ties, so the
//! delivered order is a pure function of the pushes — which is the
//! whole determinism story.
//!
//! Events wait in one of three tiers and `pop` takes the least of the
//! three fronts. The tier never changes the order events come out in
//! (the tests replay random push patterns against a plain binary
//! heap), only what that costs.
//!
//! **The same-instant lane.** Over half the executor's frames are
//! scheduled *for the instant being delivered*: its control plane
//! travels at zero delay. A push whose due time equals that of the
//! last event popped from the other tiers is appended to a FIFO lane —
//! this test comes first, wherever the horizon stands. The lane only
//! holds events of one due time (its instant moves only while it is
//! empty) in push, hence `seq`, order, so its front is its minimum.
//!
//! **The far tier.** The rest pays a jittered link delay and comes in
//! *waves*: a broadcast's 100 000 `Propose` replies are all due one
//! link delay from now, and each `Busy` is pushed while its `Propose`
//! pops, due later than every `Propose` still queued. Sifting a wave
//! through a binary heap costs seventeen cache-missing levels per push
//! and pop; sorting it once is one pdqsort over sequential memory. So
//! the heap keeps a **horizon**, the key of the latest event sorted so
//! far. A push *above* it is appended to `far`, unsorted; sequence
//! numbers only grow, so a push at the horizon's own instant is above
//! it. Only when `run` and the binary heap are both empty does `pop`
//! or `peek_due` sort `far` into the next `run` and move the horizon
//! to its latest key.
//!
//! This is exact: everything in `far` is above the horizon, everything
//! in `run` or the binary heap at or below it, so while those hold
//! anything nothing in `far` can be next. Only the lane is not bounded
//! by the horizon: its instant can be the horizon's, with `far` holding
//! an *older* event of that instant. But such a lane event
//! `(due_h, seq > seq_h)` can only be the minimum once `run` and the
//! heap have drained — which is when `far` is sorted in.
//!
//! **The middle tier.** Any other push goes to a binary heap, as every
//! push once did. It stays because that can be most of a run: a
//! streamed scenario pushes its whole arrival schedule up front, so
//! every later frame lands *inside* the first run's span, where
//! inserting into a sorted `Vec` would be O(n). A tier on the one
//! path, not a second queue to choose: `dlb-gossip` shares all three.
//!
//! ```
//! use dlb_core::events::EventHeap;
//!
//! let mut heap: EventHeap<&str> = EventHeap::new();
//! heap.push(5.0, "later");
//! heap.push(1.0, "first");
//! heap.push(1.0, "second"); // same instant: scheduling order wins
//! let order: Vec<&str> = std::iter::from_fn(|| heap.pop().map(|e| e.item)).collect();
//! assert_eq!(order, ["first", "second", "later"]);
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled delivery popped from an [`EventHeap`].
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// Virtual delivery time in ms.
    pub due: f64,
    /// Scheduling order; unique per heap, breaks same-instant ties.
    pub seq: u64,
    /// The scheduled payload.
    pub item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        // Sequence numbers are unique per heap, so they identify the
        // event; payloads never need comparing.
        self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_key((other.due, other.seq))
    }
}

impl<T> Scheduled<T> {
    /// The module's one ordering rule, against a bare `(due, seq)`.
    fn cmp_key(&self, (due, seq): (f64, u64)) -> Ordering {
        // Due times are finite by the push assert, so total_cmp agrees
        // with the numeric order.
        self.due.total_cmp(&due).then_with(|| self.seq.cmp(&seq))
    }
}

/// A deterministic virtual-time event heap: pops in `(due, seq)` order.
///
/// `T` does not need any ordering of its own — ties are broken by the
/// sequence number alone, so two events are never compared by payload.
#[derive(Debug, Clone)]
pub struct EventHeap<T> {
    /// Middle tier: at or below the horizon, pushed after the sort.
    heap: BinaryHeap<Reverse<Scheduled<T>>>,
    /// Events due at `lane_due`, in `seq` order.
    lane: VecDeque<Scheduled<T>>,
    /// Bits of the lane's instant: the due time of the last event
    /// popped from `heap` or `run` while the lane was empty. Starts at
    /// a NaN no finite push can equal.
    lane_due: u64,
    /// Far tier: above the horizon, in push order.
    far: Vec<Scheduled<T>>,
    /// The last sort of `far`, descending: the earliest event is last.
    run: Vec<Scheduled<T>>,
    /// `(due, seq)` of the latest event sorted so far; starts below
    /// every finite push.
    horizon: (f64, u64),
    next_seq: u64,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Clone, Copy)]
enum Tier {
    Lane,
    Heap,
    Run,
}

// `push`, `pop` and `peek_due` are `#[inline]`: the executor's loop is
// generic, so it is compiled in whichever crate names its sink, and
// without the hint these inline into it only when they happen to share
// its codegen unit (worth ±9 % of `topk_m100k`'s wall time).
impl<T> EventHeap<T> {
    /// Creates an empty heap with sequence numbers starting at 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_due: f64::NAN.to_bits(),
            far: Vec::new(),
            run: Vec::new(),
            horizon: (f64::NEG_INFINITY, 0),
            next_seq: 0,
        }
    }

    /// Schedules `item` for virtual time `due`, returning the sequence
    /// number it was assigned.
    ///
    /// # Panics
    /// Debug-panics on a non-finite due time (it would poison the heap
    /// order).
    #[inline]
    pub fn push(&mut self, due: f64, item: T) -> u64 {
        self.push_n(due, 1, item)
    }

    /// Schedules `item` for virtual time `due` in the place of `n`
    /// consecutive pushes: it takes the first of their `n` sequence
    /// numbers and the other `n − 1` are never handed out, so it pops
    /// exactly where the first of those pushes would have, with nothing
    /// between it and where the last would have, and every later push
    /// gets the sequence number it would have had. The executor's
    /// broadcasts ride the heap this way: one event, `n` deliveries.
    ///
    /// # Panics
    /// Debug-panics on a non-finite due time, or when `n` is zero.
    #[inline]
    pub fn push_n(&mut self, due: f64, n: u64, item: T) -> u64 {
        debug_assert!(due.is_finite(), "event due time {due} must be finite");
        debug_assert!(n > 0, "an event takes at least one sequence number");
        let seq = self.next_seq;
        self.next_seq += n;
        let event = Scheduled { due, seq, item };
        // Bitwise, like the `total_cmp` order: -0.0 is not 0.0's lane.
        if due.to_bits() == self.lane_due {
            self.lane.push_back(event);
        } else if event.cmp_key(self.horizon).is_gt() {
            self.far.push(event);
        } else {
            self.heap.push(Reverse(event));
        }
        seq
    }

    /// Sorts the far tier in once nothing at or below the horizon is
    /// left outside the lane. `pop` and `peek_due` start with this.
    fn refill(&mut self) {
        if self.run.is_empty() && self.heap.is_empty() && !self.far.is_empty() {
            self.far.sort_unstable_by(|a, b| b.cmp(a));
            std::mem::swap(&mut self.far, &mut self.run);
            self.horizon = (self.run[0].due, self.run[0].seq);
        }
    }

    /// The next event in `(due, seq)` order and the tier it waits in.
    fn earliest(&self) -> Option<(Tier, &Scheduled<T>)> {
        let fronts = [
            (Tier::Lane, self.lane.front()),
            (Tier::Heap, self.heap.peek().map(|Reverse(event)| event)),
            (Tier::Run, self.run.last()),
        ];
        let fronts = fronts.into_iter().filter_map(|(tier, e)| Some((tier, e?)));
        fronts.min_by(|a, b| a.1.cmp(b.1))
    }

    /// Removes and returns the earliest event (`(due, seq)` order).
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        self.refill();
        let event = match self.earliest()?.0 {
            Tier::Lane => return self.lane.pop_front(),
            Tier::Heap => self.heap.pop().map(|Reverse(event)| event),
            Tier::Run => self.run.pop(),
        }?;
        if self.lane.is_empty() {
            self.lane_due = event.due.to_bits();
        }
        Some(event)
    }

    /// The due time of the next event, if any (`&mut`: see `refill`).
    #[inline]
    pub fn peek_due(&mut self) -> Option<f64> {
        self.refill();
        self.earliest().map(|(_, event)| event.due)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len() + self.far.len() + self.run.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence number the next push will receive (also the count of
    /// sequence numbers ever handed out or reserved by
    /// [`Self::push_n`]).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngutil::rng_for;
    use proptest::prelude::*;
    use rand::Rng;

    /// `total_cmp`'s integer key: orders due times exactly like
    /// [`Scheduled`]'s `Ord`, -0.0 before 0.0 included.
    fn due_key(due: f64) -> i64 {
        let bits = due.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }

    /// The tier invariants of the module docs, checked from inside.
    fn assert_tiers(heap: &EventHeap<u64>) {
        assert!(heap.run.windows(2).all(|w| w[0] > w[1]), "run descends");
        assert!(heap.lane.iter().all(|e| e.due.to_bits() == heap.lane_due));
        assert!(heap
            .lane
            .iter()
            .zip(heap.lane.iter().skip(1))
            .all(|(a, b)| a.seq < b.seq));
        let mut below = heap.run.iter().chain(heap.heap.iter().map(|Reverse(e)| e));
        assert!(below.all(|e| e.cmp_key(heap.horizon).is_le()));
        assert!(heap.far.iter().all(|e| e.cmp_key(heap.horizon).is_gt()));
    }

    /// An [`EventHeap`] and the model it must agree with: a plain
    /// binary heap of `(due key, seq)` pairs, one per push — `n` for a
    /// [`EventHeap::push_n`], whose event stands for them all.
    #[derive(Default)]
    struct Pair {
        heap: EventHeap<u64>,
        model: BinaryHeap<Reverse<(i64, u64)>>,
        /// First seq → `n` of every pending `push_n` with `n > 1`.
        spans: std::collections::HashMap<u64, u64>,
        /// Model entries no heap event stands first for: `Σ (n − 1)`.
        reserved: usize,
        last_popped: f64,
        last_pushed: f64,
    }

    impl Pair {
        fn push(&mut self, due: f64, n: u64) {
            self.last_pushed = due;
            let before = self.heap.next_seq();
            let seq = self.heap.push_n(due, n, before);
            assert_eq!((seq, self.heap.next_seq()), (before, before + n));
            for s in seq..seq + n {
                self.model.push(Reverse((due_key(due), s)));
            }
            if n > 1 {
                self.spans.insert(seq, n);
                self.reserved += n as usize - 1;
            }
        }

        /// Pops one event: the model pops the push it stands first for,
        /// then each push it reserved, with nothing in between.
        fn pop(&mut self) {
            let got = self.heap.pop().map(|e| {
                assert_eq!(e.seq, e.item, "payload travels with its event");
                self.last_popped = e.due;
                (due_key(e.due), e.seq)
            });
            assert_eq!(got, self.model.pop().map(|Reverse(e)| e));
            let Some((key, seq)) = got else { return };
            let n = self.spans.remove(&seq).unwrap_or(1);
            for s in seq + 1..seq + n {
                assert_eq!(self.model.pop(), Some(Reverse((key, s))), "span of {seq}");
                self.reserved -= 1;
            }
        }

        /// Every observable, and the tiers behind them.
        fn check(&mut self) {
            assert_eq!(self.heap.len(), self.model.len() - self.reserved);
            assert_eq!(self.heap.is_empty(), self.model.is_empty());
            // A clone must answer alike without the original having
            // been made to sort its far tier first.
            let peeked = self.heap.clone().peek_due();
            assert_eq!(peeked.map(due_key), self.model.peek().map(|Reverse(e)| e.0));
            assert_tiers(&self.heap);
            assert_eq!(self.heap.peek_due().map(due_key), peeked.map(due_key));
            assert_tiers(&self.heap);
        }
    }

    /// Replays `ops` on a [`Pair`], comparing every observable after
    /// every step. `op` picks push (0–3), a `push_n` of 1–4 (4), pop
    /// (5–6), a pop-free step (7) or a burst (8–9); `pick` draws the
    /// pushed due time relative to the last popped one: the same instant
    /// (the lane's case), earlier — a push into the past —, later, the
    /// previous push's again, or its negation (so -0.0 meets 0.0). A
    /// burst is a wave:
    /// 2–17 pushes scattered over a span ahead of the last pop, then
    /// pops until the far tier has been sorted in (or nothing is
    /// left) and up to three more, so runs start, drain and meet
    /// every other kind of push.
    fn check_against_model(ops: &[(u8, u8)]) {
        let mut pair = Pair::default();
        for &(op, pick) in ops {
            let step = f64::from(pick / 5) * 0.5;
            let due = match pick % 5 {
                0 => pair.last_popped,
                1 => pair.last_popped - step,
                2 => pair.last_popped + step,
                3 => pair.last_pushed,
                _ => -pair.last_popped,
            };
            match op % 10 {
                0..=3 => pair.push(due, 1),
                4 => pair.push(due, 1 + u64::from(op / 10 % 4)),
                5..=6 => pair.pop(),
                7 => {}
                _ => {
                    let k = u32::from(pick % 16) + 2;
                    for i in 0..k {
                        pair.push(pair.last_popped + step + f64::from(i * 7 % k) * 0.25, 1);
                        pair.check();
                    }
                    let horizon = pair.heap.horizon;
                    while pair.heap.horizon == horizon && !pair.heap.is_empty() {
                        pair.pop();
                        pair.check();
                    }
                    for _ in 0..pick % 4 {
                        pair.pop();
                    }
                }
            }
            pair.check();
        }
        // Whatever is left drains in model order too.
        while !pair.model.is_empty() {
            pair.pop();
        }
        assert!(pair.heap.pop().is_none());
    }

    #[test]
    fn any_push_pattern_pops_in_due_then_seq_order() {
        for case in 0..200 {
            let mut rng = rng_for(0xE7E2, case);
            let ops: Vec<(u8, u8)> = (0..400).map(|_| (rng.gen(), rng.gen())).collect();
            check_against_model(&ops);
        }
    }

    proptest! {
        #[test]
        fn prop_matches_binary_heap_model(
            ops in prop::collection::vec((any::<u8>(), any::<u8>()), 0..600)
        ) {
            check_against_model(&ops);
        }
    }

    #[test]
    fn same_instant_pushes_keep_their_place_behind_the_heap() {
        // Three events at t=1 sit in the heap; popping the first opens
        // the lane at t=1. Lane pushes must still pop *after* the two
        // older same-instant heap entries, and a push into the past
        // must overtake all of them.
        let mut heap = EventHeap::new();
        for item in ['a', 'b', 'c'] {
            heap.push(1.0, item);
        }
        heap.push(2.0, 'z');
        assert_eq!(heap.pop().unwrap().item, 'a');
        heap.push(1.0, 'd');
        heap.push(0.5, 'p');
        heap.push(1.0, 'e');
        assert_eq!(heap.len(), 6);
        assert_eq!(heap.peek_due(), Some(0.5));
        assert_eq!(drain(&mut heap), "pbcdez");
    }

    /// Drains `heap`, returning the payloads in pop order.
    fn drain(heap: &mut EventHeap<char>) -> String {
        std::iter::from_fn(|| heap.pop().map(|e| e.item)).collect()
    }

    /// Pops `n` events, returning the payloads in pop order.
    fn drain_n(heap: &mut EventHeap<char>, n: usize) -> String {
        (0..n).map(|_| heap.pop().unwrap().item).collect()
    }

    /// A heap whose first refill has run: `a b c` due at 1, 2, 3 sit in
    /// the run, the horizon is `c`'s key `(3.0, 2)`.
    fn heap_with_a_live_run() -> EventHeap<char> {
        let mut heap = EventHeap::new();
        for (due, item) in [(2.0, 'b'), (1.0, 'a'), (3.0, 'c')] {
            heap.push(due, item);
        }
        assert_eq!((heap.far.len(), heap.run.len()), (3, 0), "no horizon yet");
        assert_eq!(heap.peek_due(), Some(1.0));
        assert_eq!((heap.far.len(), heap.run.len()), (0, 3));
        heap
    }

    #[test]
    fn pushes_around_a_live_run_keep_their_place() {
        let mut heap = heap_with_a_live_run();
        // The horizon's instant, but a later seq: above the horizon,
        // so it waits in the far tier — behind `c`, ahead of `z`.
        heap.push(9.0, 'z');
        heap.push(3.0, 'd');
        assert_eq!(heap.far.len(), 2);
        // Inside the run's span and into the past: the middle tier.
        heap.push(2.5, 'm');
        heap.push(2.0, 'n');
        heap.push(0.5, 'p');
        assert_eq!(heap.heap.len(), 3);
        assert_eq!(heap.len(), 8);
        assert_eq!(drain(&mut heap), "pabnmcdz");
    }

    #[test]
    fn the_far_tier_waits_until_nothing_is_below_the_horizon() {
        let mut heap = heap_with_a_live_run();
        heap.push(9.0, 'z');
        assert_eq!(drain_n(&mut heap, 3), "abc");
        // The run is spent, but a push into the past lands below the
        // horizon: the heap is not empty, so looking must not sort the
        // far tier in (and move the horizon) yet.
        heap.push(0.5, 'p');
        assert_eq!(heap.peek_due(), Some(0.5));
        assert_eq!((heap.heap.len(), heap.run.len(), heap.far.len()), (1, 0, 1));
        assert_eq!(heap.horizon, (3.0, 2));
        assert_eq!(drain(&mut heap), "pz");
        assert_eq!(heap.horizon, (9.0, 3));
    }

    #[test]
    fn negative_zero_is_below_a_zero_horizon() {
        let mut heap = EventHeap::new();
        heap.push(0.0, 'a');
        heap.push(0.0, 'b');
        assert_eq!(heap.peek_due(), Some(0.0));
        // -0.0 == 0.0 numerically, but the order is `total_cmp`'s: it
        // is neither the horizon's instant nor above it, and pops first.
        heap.push(-0.0, 'n');
        assert_eq!((heap.heap.len(), heap.far.len()), (1, 0));
        assert_eq!(heap.pop().unwrap().item, 'n');
        // Popped with the lane empty, so the lane now sits at -0.0 and
        // a 0.0 push is still not lane traffic.
        heap.push(0.0, 'c');
        assert!(heap.lane.is_empty());
        assert_eq!(drain(&mut heap), "abc");
    }

    #[test]
    fn a_lane_at_the_horizons_instant_waits_for_older_far_events() {
        let mut heap = heap_with_a_live_run();
        heap.push(3.0, 'd'); // far: same instant as the horizon, older than the lane's
        heap.push(4.0, 'z');
        assert_eq!(drain_n(&mut heap, 3), "abc");
        // `c` left the run with the lane empty: the lane opens at 3.0.
        heap.push(3.0, 'e');
        assert_eq!((heap.lane.len(), heap.far.len()), (1, 2));
        // The lane's front is not next: run and heap are empty, so the
        // far tier is sorted in first and `d` overtakes `e`.
        assert_eq!(heap.peek_due(), Some(3.0));
        assert_eq!(drain(&mut heap), "dez");
    }

    #[test]
    fn a_clone_taken_mid_run_drains_identically() {
        let mut heap = heap_with_a_live_run();
        heap.push(2.5, 'm'); // heap
        heap.push(7.0, 'y'); // far
        assert_eq!(heap.pop().unwrap().item, 'a');
        heap.push(1.0, 'l'); // lane
        let mut copy = heap.clone();
        for twin in [&mut heap, &mut copy] {
            twin.push(6.0, 'x');
            assert_eq!(twin.next_seq(), 7);
            assert_eq!(drain(twin), "lbmcxy");
        }
    }

    #[test]
    fn pops_in_due_then_seq_order() {
        let mut heap = EventHeap::new();
        heap.push(3.0, 'c');
        heap.push(1.0, 'a');
        heap.push(1.0, 'b');
        heap.push(0.5, 'z');
        let order: Vec<(f64, u64, char)> =
            std::iter::from_fn(|| heap.pop().map(|e| (e.due, e.seq, e.item))).collect();
        assert_eq!(
            order,
            vec![(0.5, 3, 'z'), (1.0, 1, 'a'), (1.0, 2, 'b'), (3.0, 0, 'c')]
        );
    }

    #[test]
    fn seq_numbers_are_dense_and_reported() {
        let mut heap = EventHeap::new();
        assert_eq!(heap.next_seq(), 0);
        assert_eq!(heap.push(1.0, ()), 0);
        assert_eq!(heap.push(1.0, ()), 1);
        assert_eq!(heap.next_seq(), 2);
        assert_eq!(heap.len(), 2);
        assert!(!heap.is_empty());
    }

    #[test]
    fn push_n_reserves_its_sequence_numbers() {
        let mut heap = EventHeap::new();
        heap.push(1.0, 'a');
        assert_eq!(heap.push_n(1.0, 3, 'b'), 1);
        assert_eq!(heap.push(1.0, 'c'), 4, "two seqs were skipped");
        assert_eq!(heap.push(0.5, 'z'), 5);
        assert_eq!((heap.len(), heap.next_seq()), (4, 6));
        assert_eq!(drain(&mut heap), "zabc");
    }

    #[test]
    fn peek_due_matches_pop() {
        let mut heap = EventHeap::new();
        assert_eq!(heap.peek_due(), None);
        heap.push(7.5, 1);
        heap.push(2.5, 2);
        assert_eq!(heap.peek_due(), Some(2.5));
        assert_eq!(heap.pop().unwrap().item, 2);
        assert_eq!(heap.peek_due(), Some(7.5));
    }

    #[test]
    fn payloads_never_need_ord() {
        // f64 payloads are not Eq/Ord; the heap must still order them.
        let mut heap: EventHeap<f64> = EventHeap::new();
        heap.push(2.0, f64::NAN);
        heap.push(1.0, 0.5);
        assert_eq!(heap.pop().unwrap().item, 0.5);
        assert!(heap.pop().unwrap().item.is_nan());
    }
}
