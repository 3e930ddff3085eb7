//! Sharded metric accumulation must be `DLB_THREADS`-invariant: folding
//! one event stream into per-worker [`MetricSet`] shards on
//! `dlb_par::num_threads()` scoped threads and merging them produces a
//! bit-identical result for every thread count — and for the
//! sequential fold.
//!
//! This is the end-to-end check behind the merge-law property tests in
//! `src/proptests.rs`: [`fold_in_completion_order`] pushes worker results in
//! **completion order**, so the test exercises real merge-order
//! nondeterminism, which only commutative+associative integer state
//! survives bit-for-bit.
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests.

use dlb_obs::{Histogram, MetricSet, TraceEvent, TraceKind, KIND_COUNT};
use std::sync::Mutex;

/// Both tests mutate the process-wide `DLB_THREADS` variable; they must
/// not interleave within this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A deterministic synthetic event, derived arithmetically from its
/// index (no RNG: the stream itself must be identical on every path).
fn synth(i: usize) -> TraceEvent {
    TraceEvent {
        kind: TraceKind::from_u8((i % KIND_COUNT) as u8).expect("in range"),
        at_ms: i as f64 * 0.37,
        node: (i % 97) as u32,
        peer: ((i * 7) % 97) as u32,
        round: (i / 97) as u64,
        tag: (i % 5) as u8,
        detail: ((i * i) % 1009) as f64 * 0.25,
    }
}

const N: usize = 20_000;

/// Folds `0..N` in one contiguous chunk per worker, each starting from
/// `identity()`, and combines the chunk results in the order the
/// workers happened to finish.
fn fold_in_completion_order<T: Send>(
    identity: impl Fn() -> T + Sync,
    fold: impl Fn(T, usize) -> T + Sync,
    combine: impl Fn(T, T) -> T,
) -> T {
    let chunk = N.div_ceil(dlb_par::num_threads());
    let finished = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for lo in (0..N).step_by(chunk) {
            let (identity, fold, finished) = (&identity, &fold, &finished);
            scope.spawn(move || {
                let acc = (lo..(lo + chunk).min(N)).fold(identity(), fold);
                finished.lock().expect("no worker panicked").push(acc);
            });
        }
    });
    let finished = finished.into_inner().expect("no worker panicked");
    finished.into_iter().fold(identity(), combine)
}

fn sharded_fold() -> MetricSet {
    fold_in_completion_order(
        MetricSet::default,
        |mut acc, i| {
            acc.ingest(&synth(i));
            acc
        },
        |mut a, b| {
            a.merge(&b);
            a
        },
    )
}

#[test]
fn sharded_metric_folds_are_thread_count_invariant() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut reference = MetricSet::default();
    for i in 0..N {
        reference.ingest(&synth(i));
    }
    assert_eq!(reference.total(), N as u64);
    assert!(
        reference.frame_latency_ms.count() > 0,
        "stream must be non-trivial"
    );

    std::env::set_var("DLB_THREADS", "1");
    let one = sharded_fold();
    std::env::set_var("DLB_THREADS", "4");
    let four = sharded_fold();
    std::env::remove_var("DLB_THREADS");
    let default = sharded_fold();

    assert_eq!(
        one, reference,
        "DLB_THREADS=1 diverged from the sequential fold"
    );
    assert_eq!(
        four, reference,
        "DLB_THREADS=4 diverged from the sequential fold"
    );
    assert_eq!(default, reference, "default thread count diverged");
}

#[test]
fn sharded_histograms_are_thread_count_invariant() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sample = |i: usize| ((i * 31 + 7) % 4099) as f64 * 0.125;
    let fold = || {
        fold_in_completion_order(
            Histogram::default,
            |mut h, i| {
                h.record(sample(i));
                h
            },
            |mut a, b| {
                a.merge(&b);
                a
            },
        )
    };
    let mut reference = Histogram::default();
    for i in 0..N {
        reference.record(sample(i));
    }

    std::env::set_var("DLB_THREADS", "1");
    let one = fold();
    std::env::set_var("DLB_THREADS", "4");
    let four = fold();
    std::env::remove_var("DLB_THREADS");
    let default = fold();

    for (label, h) in [("1", &one), ("4", &four), ("default", &default)] {
        assert_eq!(h, &reference, "DLB_THREADS={label} diverged");
        // The quantities records surface are equal *because* the state
        // is — spot-check the derived views too.
        assert_eq!(h.quantile(0.5).to_bits(), reference.quantile(0.5).to_bits());
        assert_eq!(h.mean().to_bits(), reference.mean().to_bits());
    }
}
