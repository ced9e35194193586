//! Process thread-count probe — in its own test binary so no sibling test
//! creating private pools can pollute the count.
//!
//! This is the acceptance assertion for the pool refactor: no hot path
//! (`par_map` and friends) spawns OS threads per invocation. A monitor
//! thread samples `/proc/self/task` *while* the entry points are hammered,
//! so even transiently spawned (spawn-then-join) threads — what the old
//! `std::thread::scope` implementation created on every call — would be
//! caught, not just leaked ones.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tl_support::par::{self, par_map, par_map_deadline, par_map_threads};
use tl_support::pool::{process_threads, Pool};
use tl_support::rng::splitmix64;

fn churn(seed: u64, rounds: u32) -> u64 {
    let mut state = seed;
    let mut acc = 0u64;
    for _ in 0..rounds {
        acc ^= splitmix64(&mut state);
    }
    acc
}

#[test]
fn hot_paths_spawn_no_threads_per_invocation() {
    let xs: Vec<u64> = (0..512).collect();
    // First call creates the global pool's workers — the one allowed spawn.
    let _ = par_map(&xs, |&x| churn(x, 8));

    let stop = Arc::new(AtomicBool::new(false));
    let max_seen = Arc::new(AtomicUsize::new(0));
    let monitor = {
        let stop = Arc::clone(&stop);
        let max_seen = Arc::clone(&max_seen);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if let Some(n) = process_threads() {
                    max_seen.fetch_max(n, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    let Some(baseline) = process_threads() else {
        eprintln!("skipping: /proc/self/task unavailable on this platform");
        stop.store(true, Ordering::Release);
        let _ = monitor.join();
        return;
    };

    for round in 0..300u64 {
        let _ = par_map(&xs, |&x| churn(x ^ round, 8));
        let _ = par_map_threads(&xs, 4, |&x| churn(x ^ round, 4));
        let _ = Pool::global().map_chunks(&xs[..64], par::threads(), &|&x| churn(x, 4));
        let _ = par_map_deadline((0..8u64).collect::<Vec<_>>(), Duration::from_secs(5), |x| {
            churn(x, 4)
        });
    }

    stop.store(true, Ordering::Release);
    let _ = monitor.join();
    let peak = max_seen.load(Ordering::Relaxed);
    let after = process_threads().expect("probe stayed available");
    // The baseline snapshot includes main + pool workers + the monitor:
    // ~1800 pool-routed calls must neither leave threads behind nor spike
    // the live count while running.
    assert!(
        peak <= baseline,
        "live thread count spiked to {peak} over baseline {baseline}: some hot path spawns per call"
    );
    assert!(
        after <= baseline,
        "thread count grew {baseline} -> {after}: a hot path leaked threads"
    );
}
