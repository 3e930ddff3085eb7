//! # dlb-par — minimal data-parallel utilities
//!
//! The batched engine's propose phase needs one parallel primitive: an
//! order-preserving parallel map over servers. `rayon` is outside the
//! approved dependency set, so this crate provides it on top of
//! `std::thread::scope` with static chunking, a good fit for that
//! regular, CPU-bound work (one whole Algorithm-2 partner scan per
//! server).
//!
//! The event executor in `dlb-runtime` needs a second shape:
//! [`par_map_shards`] runs a closure over *caller-cut* shards — disjoint
//! `&mut` id ranges of several parallel tables at once — so a broadcast
//! batch borrows the machine table in place instead of moving machines
//! through a pool. It replaced the executor's use of the persistent
//! [`with_pool`] / [`WorkerPool`], which now have **no caller in the
//! workspace**; they stay only because the perf ledger's `layers`
//! binary still times them (`par.map_mut_dispatch_us`), and go when it
//! does (ROADMAP item 5).
//!
//! Fan-out is one level deep. The propose map and the executor's shard
//! drain are this crate's only callers in the workspace, and neither
//! runs inside the other, so no worker ever opens a second fan-out.
//! Nothing here guards against nesting: a map called from a worker
//! would spawn its own [`num_threads`] workers.
//!
//! All functions degrade gracefully to sequential execution for small
//! inputs or single-core machines and return results in input order,
//! so what they compute never depends on the worker count. A panic in
//! a worker reaches the caller: [`par_map_shards`] and [`with_pool`]
//! re-raise the worker's own payload, [`par_map_indexed`] panics once
//! its scope has joined.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Below this many items the parallel helpers run sequentially: thread
/// spawn cost would dominate.
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

/// Applies `f` to every index in `0..n` and collects the results in
/// index order. `f` must be `Sync` because it is shared across workers.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = num_threads();
    if n < SEQUENTIAL_CUTOFF || threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut slices: Vec<&mut [Option<T>]> = Vec::with_capacity(threads);
    {
        let mut rest: &mut [Option<T>] = &mut out;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            slices.push(head);
            rest = tail;
        }
    }
    std::thread::scope(|scope| {
        for (t, slice) in slices.into_iter().enumerate() {
            let f = &f;
            scope.spawn(move || {
                let base = t * chunk;
                for (off, slot) in slice.iter_mut().enumerate() {
                    *slot = Some(f(base + off));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("all slots filled"))
        .collect()
}

/// Parallel map over a slice, preserving order.
pub fn par_map_slice<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Runs `f` over caller-made shards, one scoped thread per shard, and
/// returns the results in shard order. `f` gets the shard's index and
/// the shard by value — typically a tuple of disjoint `&mut` sub-slices
/// cut with `chunks_mut`, which is how the event executor lends each
/// worker a contiguous id range of its machine table and run queues for
/// one broadcast batch, without moving a machine.
///
/// Unlike the maps above there is no item-count cutoff: the caller
/// decided the batch is worth a spawn when it cut more than one shard
/// (cut [`num_threads`] of them). A single shard or one available
/// thread runs every shard inline on the calling thread, in order. Each
/// shard is handled exactly once and the output order is the input
/// order, so what a caller assembles from the results cannot depend on
/// where they were computed.
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

type ChunkResult<I, T> = std::thread::Result<(usize, Vec<I>, Vec<T>)>;

/// A persistent fan-out pool: `num_threads()` workers spawned **once**
/// and fed owned work batches over channels, instead of a fresh
/// `std::thread::scope` (thread spawn + join) per parallel call.
///
/// The per-call maps above pay one spawn/join cycle per invocation,
/// which is fine for a handful of large calls but dominates when a
/// driver issues thousands of small batches. [`with_pool`] hoists the
/// spawn out of the loop; [`WorkerPool::map_mut`] then costs only a
/// channel round-trip per batch, and each worker keeps its thread (and
/// any thread-local scratch) alive across batches. The price is that
/// items travel *by value* — into a chunk, over a channel, and back —
/// which is what made the event executor leave it for
/// [`par_map_shards`] (see the crate docs; nothing in the workspace
/// calls the pool any more).
///
/// Items are chunked statically in submission order, chunks are reassembled by index, so
/// results are bit-identical for every `DLB_THREADS` value (including
/// the sequential paths).
pub struct WorkerPool<'a, I, T, F> {
    handler: &'a F,
    /// One job lane per worker; empty when the pool runs sequentially.
    jobs: Vec<Sender<(usize, Vec<I>)>>,
    /// Shared return lane: `(chunk index, items back, results)`, or
    /// the payload of the handler's panic on that chunk.
    results: Receiver<ChunkResult<I, T>>,
}

impl<I, T, F> WorkerPool<'_, I, T, F>
where
    I: Send,
    T: Send,
    F: Fn(&mut I) -> T + Sync,
{
    /// Applies the pool's handler to every item in place and returns
    /// `(items, results)`, both in the original submission order.
    /// Small batches (and sequential pools) run inline on the calling
    /// thread — same [`SEQUENTIAL_CUTOFF`], same results. A handler
    /// panic on a worker is re-raised here with its own payload, as it
    /// would be inline.
    pub fn map_mut(&mut self, mut items: Vec<I>) -> (Vec<I>, Vec<T>) {
        let n = items.len();
        if self.jobs.is_empty() || n < SEQUENTIAL_CUTOFF {
            let out = items.iter_mut().map(|item| (self.handler)(item)).collect();
            return (items, out);
        }
        let chunk = n.div_ceil(self.jobs.len());
        let mut sent = 0usize;
        while !items.is_empty() {
            let take = chunk.min(items.len());
            let tail = items.split_off(take);
            assert!(
                self.jobs[sent].send((sent, items)).is_ok(),
                "pool worker alive"
            );
            items = tail;
            sent += 1;
        }
        let mut slots: Vec<Option<(Vec<I>, Vec<T>)>> = (0..sent).map(|_| None).collect();
        for _ in 0..sent {
            let (idx, chunk_items, chunk_out) = self
                .results
                .recv()
                .expect("pool worker alive")
                .unwrap_or_else(|payload| resume_unwind(payload));
            slots[idx] = Some((chunk_items, chunk_out));
        }
        let mut items_back = Vec::with_capacity(n);
        let mut out_back = Vec::with_capacity(n);
        for slot in slots {
            let (ci, co) = slot.expect("every chunk returns once");
            items_back.extend(ci);
            out_back.extend(co);
        }
        (items_back, out_back)
    }
}

/// Runs `body` with a [`WorkerPool`] whose workers apply `handler`.
/// Workers are spawned once (inside one scope wrapping the whole call)
/// and live until `body` returns; every [`WorkerPool::map_mut`] batch
/// reuses them. With one thread available no workers are spawned and
/// every batch runs inline.
pub fn with_pool<I, T, F, B, R>(handler: F, body: B) -> R
where
    I: Send,
    T: Send,
    F: Fn(&mut I) -> T + Sync,
    B: for<'a> FnOnce(&mut WorkerPool<'a, I, T, F>) -> R,
{
    let threads = num_threads();
    let (result_tx, results) = channel();
    if threads <= 1 {
        // No job lane exists, so `map_mut` runs every batch inline and
        // never touches the return lane.
        let mut pool = WorkerPool {
            handler: &handler,
            jobs: Vec::new(),
            results,
        };
        return body(&mut pool);
    }
    std::thread::scope(|scope| {
        let mut jobs = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = channel::<(usize, Vec<I>)>();
            jobs.push(tx);
            let result_tx = result_tx.clone();
            let handler = &handler;
            scope.spawn(move || {
                while let Ok((idx, mut chunk)) = rx.recv() {
                    // A handler panic travels back as the chunk's
                    // result: unwinding this thread instead would leave
                    // `map_mut` waiting for a chunk that never returns.
                    let done = catch_unwind(AssertUnwindSafe(|| {
                        let out: Vec<T> = chunk.iter_mut().map(handler).collect();
                        (idx, chunk, out)
                    }));
                    if result_tx.send(done).is_err() {
                        break; // pool dropped mid-batch (body panicked)
                    }
                }
            });
        }
        drop(result_tx);
        let mut pool = WorkerPool {
            handler: &handler,
            jobs,
            results,
        };
        body(&mut pool)
        // `pool` drops here: job senders close, workers drain and
        // exit, the scope joins them and re-raises a panic of `body`.
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_small_and_large() {
        // small (sequential path)
        let v = par_map_indexed(5, |i| i * i);
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
        // large (parallel path)
        let n = 10_000;
        let v = par_map_indexed(n, |i| i as u64 * 2);
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
        // Two parallel tables cut into the same id ranges, as the
        // executor cuts machines and run queues.
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
        let v: Vec<u8> = par_map_indexed(0, |_| 0u8);
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
    fn pool_reuses_workers_across_batches() {
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
        let shards = payload_of(&|| {
            par_map_shards(vec![0usize, 1, 2, 3], |w, s| {
                assert!(s != 3, "shard {w}");
                s
            });
        });
        assert_eq!(shards, "shard 3");
    }
}
