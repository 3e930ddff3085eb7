//! # dlb-par — minimal data-parallel utilities
//!
//! [`par_map_shards`] is the one place in the workspace that spawns
//! threads: it runs a closure over *caller-cut* shards, one scoped
//! thread per shard, and returns the results in shard order. `rayon`
//! is outside the approved dependency set, and the workspace's two
//! fan-outs need nothing more:
//! - the batched engine's propose phase cuts the round's servers into
//!   one contiguous run per worker ([`run_len`]), and each run owns the
//!   partner scratch its servers' scans reuse;
//! - the event executor in `dlb-runtime` lends each worker a disjoint
//!   `&mut` id range of its machine table for one broadcast batch,
//!   without moving a machine.
//!
//! [`par_map_slice`], [`with_pool`] and [`WorkerPool`] are a few lines
//! each over [`par_map_shards`], and no workspace code calls them: the
//! perf ledger's `layers` binary still times them
//! (`par.map_slice_dispatch_us`, `par.map_mut_dispatch_us`), and they
//! go when it stops (ROADMAP item 6).
//!
//! Fan-out is one level deep. The propose map and the executor's shard
//! drain are this crate's only callers in the workspace, and neither
//! runs inside the other, so no worker ever opens a second fan-out.
//! Nothing here guards against nesting: a map called from a worker
//! would spawn its own [`num_threads`] workers.
//!
//! Every function runs inline for a single shard or a single available
//! thread and returns results in input order, so what it computes never
//! depends on the worker count. A panic in a worker reaches the caller
//! with the worker's own payload.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::panic::resume_unwind;

/// Below this many items the maps run as one inline run: thread spawn
/// cost would dominate.
pub const SEQUENTIAL_CUTOFF: usize = 32;

/// Returns the number of worker threads to use: the available
/// parallelism, overridable with the `DLB_THREADS` environment variable
/// (values `0`/`1` force sequential execution).
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("DLB_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The length of the contiguous runs a fan-out cuts `n` items into: one
/// run per [`num_threads`] worker, or a single run of everything below
/// [`SEQUENTIAL_CUTOFF`] items or with one thread. Never zero, so
/// `chunks` may take it for an empty input too.
pub fn run_len(n: usize) -> usize {
    let threads = num_threads();
    if n < SEQUENTIAL_CUTOFF || threads <= 1 {
        n.max(1)
    } else {
        n.div_ceil(threads)
    }
}

/// Parallel map over a slice, preserving order: one [`par_map_shards`]
/// shard per [`run_len`] run.
pub fn par_map_slice<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let runs = items.chunks(run_len(items.len())).collect();
    par_map_shards(runs, |_, run| run.iter().map(&f).collect::<Vec<T>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Runs `f` over caller-made shards, one scoped thread per shard, and
/// returns the results in shard order. `f` gets the shard's index and
/// the shard by value — typically a run of a slice, or a tuple of
/// disjoint `&mut` sub-slices cut with `chunks_mut`, which is how the
/// event executor lends each worker a contiguous id range of its
/// machine table for one broadcast batch.
///
/// There is no item-count cutoff: the caller decided the batch is worth
/// a spawn when it cut more than one shard (cut [`num_threads`] of
/// them, or at [`run_len`]). A single shard or one available thread
/// runs every shard inline on the calling thread, in order. Each shard
/// is handled exactly once and the output order is the input order, so
/// what a caller assembles from the results cannot depend on where they
/// were computed. A panicking worker's payload is re-raised here.
pub fn par_map_shards<S, T, F>(shards: Vec<S>, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, S) -> T + Sync,
{
    if shards.len() <= 1 || num_threads() <= 1 {
        return shards
            .into_iter()
            .enumerate()
            .map(|(w, shard)| f(w, shard))
            .collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(w, shard)| {
                let f = &f;
                scope.spawn(move || f(w, shard))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    })
}

/// The batch-map shape the perf ledger times: [`with_pool`] lends one
/// to its body, and every [`WorkerPool::map_mut`] batch is one
/// [`par_map_shards`] call over the batch's [`run_len`] runs, so its
/// workers live for one batch. Nothing in the workspace calls it.
pub struct WorkerPool<'a, I, T, F> {
    handler: &'a F,
    batch: PhantomData<fn(Vec<I>) -> Vec<T>>,
}

impl<I, T, F> WorkerPool<'_, I, T, F>
where
    I: Send,
    T: Send,
    F: Fn(&mut I) -> T + Sync,
{
    /// Applies the pool's handler to every item in place and returns
    /// `(items, results)`, both in the original submission order.
    pub fn map_mut(&mut self, mut items: Vec<I>) -> (Vec<I>, Vec<T>) {
        let (handler, run) = (self.handler, run_len(items.len()));
        let runs = items.chunks_mut(run).collect();
        let out = par_map_shards(runs, |_, run| {
            run.iter_mut().map(handler).collect::<Vec<T>>()
        });
        (items, out.into_iter().flatten().collect())
    }
}

/// Runs `body` with a [`WorkerPool`] whose batches apply `handler`.
pub fn with_pool<I, T, F, B, R>(handler: F, body: B) -> R
where
    I: Send,
    T: Send,
    F: Fn(&mut I) -> T + Sync,
    B: for<'a> FnOnce(&mut WorkerPool<'a, I, T, F>) -> R,
{
    body(&mut WorkerPool {
        handler: &handler,
        batch: PhantomData,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn map_slice_small_and_large() {
        // small (one inline run)
        let v = par_map_slice(&[0usize, 1, 2, 3, 4], |&i| i * i);
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
        // large (one run per worker)
        let n = 10_000;
        let items: Vec<usize> = (0..n).collect();
        let v = par_map_slice(&items, |&i| i as u64 * 2);
        assert_eq!(v.len(), n);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 * 2);
        }
    }

    #[test]
    fn map_slice_preserves_order() {
        let items: Vec<i64> = (0..5000).collect();
        let doubled = par_map_slice(&items, |&x| x * 2);
        assert_eq!(doubled[4999], 9998);
        assert_eq!(doubled[0], 0);
    }

    #[test]
    fn map_shards_lends_disjoint_ranges_and_keeps_shard_order() {
        // Two parallel tables cut into the same id ranges, each
        // worker lent the same range of both.
        let mut values: Vec<u64> = (0..1000).collect();
        let mut tags = vec![0usize; 1000];
        for chunk in [1000usize, 334, 250, 7] {
            let shards: Vec<_> = values
                .chunks_mut(chunk)
                .zip(tags.chunks_mut(chunk))
                .collect();
            let sums = par_map_shards(shards, |w, (vs, ts)| {
                ts.fill(w);
                vs.iter_mut().for_each(|v| *v += 1);
                vs.iter().sum::<u64>()
            });
            assert_eq!(sums.len(), 1000usize.div_ceil(chunk));
            assert_eq!(sums.iter().sum::<u64>(), values.iter().sum::<u64>());
            assert!(tags.iter().enumerate().all(|(i, &w)| w == i / chunk));
        }
        assert!(values.iter().enumerate().all(|(i, &v)| v == i as u64 + 4));
        let none: Vec<u8> = par_map_shards(Vec::<u8>::new(), |_, s| s);
        assert!(none.is_empty());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn map_empty() {
        let v: Vec<u8> = par_map_slice(&[] as &[u8], |_| 0u8);
        assert!(v.is_empty());
    }

    #[test]
    fn pool_matches_sequential_map() {
        let items: Vec<i64> = (0..5000).collect();
        let (back, out) = with_pool(
            |x: &mut i64| {
                *x += 1;
                *x * 3
            },
            |pool| pool.map_mut(items.clone()),
        );
        for (i, (&x, &o)) in back.iter().zip(out.iter()).enumerate() {
            assert_eq!(x, i as i64 + 1);
            assert_eq!(o, (i as i64 + 1) * 3);
        }
    }

    #[test]
    fn pool_batches_come_back_in_submission_order() {
        // Many small-ish batches through one pool; every batch must come
        // back in submission order with the right results.
        let (sums, lens) = with_pool(
            |x: &mut u64| {
                *x = x.wrapping_mul(2);
                *x
            },
            |pool| {
                let mut sums = Vec::new();
                let mut lens = Vec::new();
                for batch in 0..50u64 {
                    let items: Vec<u64> = (0..(SEQUENTIAL_CUTOFF as u64 * 4 + batch)).collect();
                    let (back, out) = pool.map_mut(items);
                    assert!(back.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
                    sums.push(out.iter().sum::<u64>());
                    lens.push(back.len());
                }
                (sums, lens)
            },
        );
        for (batch, (&s, &l)) in sums.iter().zip(lens.iter()).enumerate() {
            let n = SEQUENTIAL_CUTOFF as u64 * 4 + batch as u64;
            assert_eq!(l as u64, n);
            assert_eq!(s, n * (n - 1)); // Σ 2i for i in 0..n
        }
    }

    #[test]
    fn pool_small_batches_run_inline() {
        let (back, out) = with_pool(|x: &mut u8| *x + 1, |pool| pool.map_mut(vec![1u8, 2, 3]));
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(out, vec![2, 3, 4]);
        let (back, out) = with_pool(|x: &mut u8| *x, |pool| pool.map_mut(Vec::new()));
        assert!(back.is_empty() && out.is_empty());
    }

    #[test]
    fn worker_panics_reach_the_caller_with_their_payload() {
        // Whatever the worker count (inline, or on a spawned thread
        // under DLB_THREADS > 1), the caller must see the panic the
        // handler raised — not a hang, and not a generic message.
        let payload_of = |run: &dyn Fn()| -> String {
            let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
            payload
                .downcast_ref::<String>()
                .expect("the handler's own formatted payload")
                .clone()
        };
        let n = 4 * SEQUENTIAL_CUTOFF;
        let pool = payload_of(&|| {
            with_pool(
                |x: &mut usize| {
                    assert!(*x != n - 1, "pool item {x}");
                    *x
                },
                |pool| {
                    pool.map_mut((0..n).collect());
                },
            )
        });
        assert_eq!(pool, format!("pool item {}", n - 1));
        let items: Vec<usize> = (0..n).collect();
        let slice = payload_of(&|| {
            par_map_slice(&items, |&x| {
                assert!(x != n - 1, "slice item {x}");
                x
            });
        });
        assert_eq!(slice, format!("slice item {}", n - 1));
        let shards = payload_of(&|| {
            par_map_shards(vec![0usize, 1, 2, 3], |w, s| {
                assert!(s != 3, "shard {w}");
                s
            });
        });
        assert_eq!(shards, "shard 3");
    }
}
