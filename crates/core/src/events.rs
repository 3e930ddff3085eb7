//! The shared virtual-time event heap.
//!
//! Both deterministic simulations in this workspace — the protocol
//! executor in `dlb-runtime` and the scheduled-gossip run in
//! `dlb-gossip` — drive their state machines from the same primitive:
//! a min-heap of future deliveries ordered by **(due time, sequence
//! number)**. The due time is virtual milliseconds; the sequence
//! number is the scheduling order and breaks same-instant ties, so the
//! delivered order is a pure function of the pushes — which is the
//! whole determinism story. This module hoists that heap out of the
//! two simulations (they previously each carried a private copy with
//! its own `Ord` impl) so one tie-break rule serves every simulation,
//! including the fault scripts in `dlb-faults` that reschedule delayed
//! frames through it.
//!
//! # The same-instant lane
//!
//! Much of the executor's traffic is scheduled *for the instant being
//! delivered*: its control plane travels at zero delay (every
//! `RoundStart`/`Shutdown` broadcast, every `Report` and `FinalLedger`
//! — over half the frames of an m = 100 000 run). A push whose due
//! time equals that of the last event popped from the binary heap skips
//! the heap and is appended to a FIFO lane; `pop` takes whichever of
//! lane front and heap top is smaller under `(due, seq)`. This is exact
//! for *any* push pattern, not just the friendly one: the lane only
//! ever holds events of one due time (its instant moves only while it
//! is empty) in push — hence `seq` — order, so its front is its
//! minimum and the smaller of the two fronts is the global minimum. A
//! push at any other time, earlier ones included, goes to the heap as
//! before. Lane traffic costs a queue append instead of two
//! `O(log n)` sifts through a heap hundreds of thousands deep; the
//! gossip simulation, whose frames and timers are always due later,
//! pays one comparison per operation and is otherwise untouched.
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
        // Due times are finite by the push assert, so total_cmp agrees
        // with the numeric order.
        self.due
            .total_cmp(&other.due)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A deterministic virtual-time event heap: pops in `(due, seq)` order.
///
/// `T` does not need any ordering of its own — ties are broken by the
/// sequence number alone, so two events are never compared by payload.
#[derive(Debug, Clone)]
pub struct EventHeap<T> {
    heap: BinaryHeap<Reverse<Scheduled<T>>>,
    /// Events due at `lane_due`, in `seq` order (see the module docs).
    lane: VecDeque<Scheduled<T>>,
    /// Bits of the lane's instant: the due time of the last event
    /// popped from `heap` while the lane was empty. Starts at a NaN no
    /// finite push can equal.
    lane_due: u64,
    next_seq: u64,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventHeap<T> {
    /// Creates an empty heap with sequence numbers starting at 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_due: f64::NAN.to_bits(),
            next_seq: 0,
        }
    }

    /// Schedules `item` for virtual time `due`, returning the sequence
    /// number it was assigned.
    ///
    /// # Panics
    /// Debug-panics on a non-finite due time (it would poison the heap
    /// order).
    pub fn push(&mut self, due: f64, item: T) -> u64 {
        debug_assert!(due.is_finite(), "event due time {due} must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Scheduled { due, seq, item };
        // Bitwise, like the `total_cmp` order: -0.0 is not 0.0's lane.
        if due.to_bits() == self.lane_due {
            self.lane.push_back(event);
        } else {
            self.heap.push(Reverse(event));
        }
        seq
    }

    /// Whether the next event in `(due, seq)` order is the lane's front.
    fn lane_is_next(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(Reverse(heap))) => lane < heap,
            (lane, _) => lane.is_some(),
        }
    }

    /// Removes and returns the earliest event (`(due, seq)` order).
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.lane_is_next() {
            return self.lane.pop_front();
        }
        let Reverse(event) = self.heap.pop()?;
        if self.lane.is_empty() {
            self.lane_due = event.due.to_bits();
        }
        Some(event)
    }

    /// The due time of the next event, if any.
    pub fn peek_due(&self) -> Option<f64> {
        if self.lane_is_next() {
            self.lane.front().map(|e| e.due)
        } else {
            self.heap.peek().map(|Reverse(e)| e.due)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Sequence number the next push will receive (also the count of
    /// events ever scheduled).
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

    /// Replays `ops` on an [`EventHeap`] and on a plain binary heap of
    /// `(due key, seq)` pairs, comparing every observable after every
    /// step. `op` picks push (0–4), pop (5–6) or a pop-free step (7);
    /// `pick` draws the pushed due time relative to the last popped
    /// one: the same instant (the lane's case), earlier — a push into
    /// the past —, later, the previous push's again, or its negation
    /// (so -0.0 meets 0.0).
    fn check_against_model(ops: &[(u8, u8)]) {
        let mut heap: EventHeap<u64> = EventHeap::new();
        let mut model: BinaryHeap<Reverse<(i64, u64)>> = BinaryHeap::new();
        let (mut last_popped, mut last_pushed) = (0.0f64, 0.0f64);
        for &(op, pick) in ops {
            if op % 8 < 5 {
                let step = f64::from(pick / 5) * 0.5;
                let due = match pick % 5 {
                    0 => last_popped,
                    1 => last_popped - step,
                    2 => last_popped + step,
                    3 => last_pushed,
                    _ => -last_popped,
                };
                last_pushed = due;
                let seq = heap.push(due, heap.next_seq());
                model.push(Reverse((due_key(due), seq)));
            } else if op % 8 < 7 {
                let got = heap.pop().map(|e| {
                    assert_eq!(e.seq, e.item, "payload travels with its event");
                    last_popped = e.due;
                    (due_key(e.due), e.seq)
                });
                assert_eq!(got, model.pop().map(|Reverse(e)| e));
            }
            assert_eq!(heap.len(), model.len());
            assert_eq!(heap.is_empty(), model.is_empty());
            assert_eq!(
                heap.peek_due().map(due_key),
                model.peek().map(|Reverse(e)| e.0)
            );
        }
        // Whatever is left drains in model order too.
        while let Some(Reverse(expected)) = model.pop() {
            let e = heap.pop().expect("model still holds events");
            assert_eq!((due_key(e.due), e.seq), expected);
        }
        assert!(heap.pop().is_none());
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
        let order: String = std::iter::from_fn(|| heap.pop().map(|e| e.item)).collect();
        assert_eq!(order, "pbcdez");
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
