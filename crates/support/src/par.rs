//! Data-parallel maps, dispatched onto the process-wide
//! [`crate::pool`] — no hot path spawns OS threads per call.
//!
//! [`par_map`] / [`par_map_threads`] are order-preserving and propagate
//! panics to the caller; they run as chunk tasks on the spawn-once pool
//! (call [`Pool::map_chunks`] directly for per-item panic containment).
//! [`par_map_deadline`] keeps its graceful-degradation contract (slot 0
//! always computed, on the calling thread) with a cooperative budget:
//! abandoned work is bounded by the pool and counted
//! ([`Pool::abandoned_tasks`]) instead of leaking detached threads.
//!
//! Determinism: output order is slot order, and `f` runs once per item with
//! the same arguments regardless of chunking — results are bitwise
//! independent of `TL_POOL_THREADS`, worker count, and execution order.
//! Any cross-item *reduction* is the caller's responsibility and every
//! caller in this workspace reduces in fixed input order.

use crate::pool::{Pool, TaskPanic};
use std::time::Duration;

/// Map `f` over `items` in parallel on the global pool, preserving order.
///
/// Splits the slice into one contiguous chunk per pool worker (at most one
/// per item); the calling thread computes the first chunk and then helps
/// execute queued work, so a pool of N workers gives N+1 executors. Panics
/// in `f` propagate to the caller (after the other items complete).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, threads(), f)
}

/// [`par_map`] with an explicit parallelism degree: the slice is split into
/// at most `threads` chunk tasks (clamped to `[1, items.len()]`). The chunk
/// count only shapes scheduling — results are identical for every value.
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let out = Pool::global().map_chunks(items, threads, &f);
    let mut first_panic: Option<TaskPanic> = None;
    let values: Vec<R> = out
        .into_iter()
        .filter_map(|r| match r {
            Ok(v) => Some(v),
            Err(p) => {
                first_panic.get_or_insert(p);
                None
            }
        })
        .collect();
    if let Some(p) = first_panic {
        panic!("par_map worker panicked: {p}");
    }
    values
}

/// Map `f` over owned `items` with a wall-clock budget, returning
/// `Some(result)` for every item that finished in time and `None` for the
/// rest.
///
/// Item 0 always runs *on the calling thread*, before the deadline is
/// consulted, so the first slot is guaranteed `Some` — a fan-out that blows
/// its budget still returns its first partition's answer instead of
/// nothing. Remaining items run as pool tasks with a cooperative deadline:
/// when the budget expires the batch is abandoned — queued items are
/// skipped, in-flight items finish on pool workers and are discarded, and
/// both are counted in [`Pool::abandoned_tasks`]. Fan-outs without a
/// budget use [`par_map`].
pub fn par_map_deadline<T, R, F>(items: Vec<T>, timeout: Duration, f: F) -> Vec<Option<R>>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    Pool::global().deadline_map(items, timeout, f)
}

/// The global pool's worker count (`TL_POOL_THREADS` override, else
/// `available_parallelism`) — the default parallelism degree for
/// [`par_map`] and the shard count for batch analysis.
pub fn threads() -> usize {
    Pool::global().threads()
}

/// The pre-pool implementation: one `std::thread::scope` spawn per chunk,
/// per call. Retained as the baseline `bench_pool` measures dispatch
/// overhead against, and as an independent reference the pool's
/// differential tests compare results with. Not for hot paths.
pub fn scoped_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| scope.spawn(move || slice.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scoped_map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let xs: Vec<u64> = (0..1000).collect();
        let out = par_map(&xs, |&x| x * x);
        assert_eq!(out, xs.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let xs: Vec<i64> = (0..257).collect();
        let serial = par_map_threads(&xs, 1, |&x| x * 3 - 1);
        for threads in [2, 3, 8, 64, 1000] {
            assert_eq!(par_map_threads(&xs, threads, |&x| x * 3 - 1), serial);
            assert_eq!(scoped_map(&xs, threads, |&x| x * 3 - 1), serial);
        }
    }

    #[test]
    fn zero_deadline_still_returns_first_item() {
        let out = par_map_deadline(vec![1u32, 2, 3, 4], Duration::ZERO, |x| {
            if x > 1 {
                // Stragglers may sleep; they must be abandoned, not awaited.
                std::thread::sleep(Duration::from_millis(50));
            }
            x * 10
        });
        assert_eq!(
            out,
            [Some(10), None, None, None],
            "item 0 is always computed"
        );
    }

    #[test]
    fn generous_deadline_collects_all() {
        let out = par_map_deadline(
            (0..8u64).collect::<Vec<_>>(),
            Duration::from_secs(30),
            |x| x + 1,
        );
        assert_eq!(out, (0..8u64).map(|x| Some(x + 1)).collect::<Vec<_>>());
        assert!(par_map_deadline(Vec::<u8>::new(), Duration::ZERO, |x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let xs: Vec<u32> = (0..8).collect();
        par_map_threads(&xs, 4, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
