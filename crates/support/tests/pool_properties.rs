//! Property/stress suite for the thread pool: nesting never
//! deadlocks, panics poison exactly one item, seeded stress runs are
//! replay-deterministic, and — the reason the pool exists — hot-path maps
//! never spawn OS threads per call (process thread-count probe).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use tl_support::par::{self, par_map, par_map_deadline, par_map_threads, scoped_map};
use tl_support::pool::Pool;
use tl_support::quickprop::{check_with, gens, Config};
use tl_support::rng::{splitmix64, Rng};
use tl_support::{qp_assert, qp_assert_eq};

/// Deterministic CPU-ish work: a short splitmix chain.
fn churn(seed: u64, rounds: u32) -> u64 {
    let mut state = seed;
    let mut acc = 0u64;
    for _ in 0..rounds {
        acc ^= splitmix64(&mut state);
    }
    acc
}

#[test]
fn nested_par_map_never_deadlocks() {
    // Three levels of nesting, fan-out wider than any plausible worker
    // count at every level: if waiting chunks did not help execute queued
    // work, a 1-worker pool (TL_POOL_THREADS=1 CI pass) would deadlock
    // here. A generous watchdog turns a hang into a failure.
    let watchdog = std::thread::spawn(|| {
        let outer: Vec<u64> = (0..16).collect();
        let out = par_map(&outer, |&o| {
            let mid: Vec<u64> = (0..8).map(|m| o * 100 + m).collect();
            par_map(&mid, |&m| {
                let inner: Vec<u64> = (0..4).map(|i| m * 10 + i).collect();
                par_map(&inner, |&i| churn(i, 64))
                    .iter()
                    .fold(0u64, |a, &b| a ^ b)
            })
            .iter()
            .fold(0u64, |a, &b| a ^ b)
        });
        assert_eq!(out.len(), 16);
        out
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while !watchdog.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "nested par_map deadlocked"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let got = watchdog.join().expect("nested map panicked");
    // And the nested result equals the serial reference.
    let want: Vec<u64> = (0..16u64)
        .map(|o| {
            (0..8u64)
                .map(|m| {
                    (0..4u64)
                        .map(|i| churn((o * 100 + m) * 10 + i, 64))
                        .fold(0u64, |a, b| a ^ b)
                })
                .fold(0u64, |a, b| a ^ b)
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn panicking_task_errors_that_item_only() {
    let completed = AtomicUsize::new(0);
    let xs: Vec<u32> = (0..97).collect();
    let out = Pool::global().map_chunks(&xs, par::threads(), &|&x| {
        if x == 41 {
            panic!("item 41 exploded");
        }
        completed.fetch_add(1, Ordering::Relaxed);
        x
    });
    assert_eq!(completed.load(Ordering::Relaxed), 96, "other items must all run");
    let errs: Vec<usize> = out
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(errs, vec![41]);
    let e = out[41].as_ref().unwrap_err();
    assert_eq!(e.index, 41);
    assert!(e.message.contains("item 41 exploded"));
}

#[test]
fn seeded_stress_is_replay_deterministic() {
    // A dedicated 8-thread pool (more workers than this container has
    // cores — worker count must not depend on the machine), hammered with
    // seeded mixed-size batches; every run of the same schedule must
    // produce bit-identical outputs, and they must equal the serial map.
    let pool = Pool::new(8);
    let run = |seed: u64| -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut out = Vec::new();
        for round in 0..40 {
            let n = 1 + rng.bounded_u64(200) as usize;
            let chunks = 1 + rng.bounded_u64(16) as usize;
            let items: Vec<u64> = (0..n as u64).map(|i| seed ^ (round << 32) ^ i).collect();
            let mapped = pool.map_chunks(&items, chunks, &|&x| churn(x, 32));
            out.extend(mapped.into_iter().map(|r| r.unwrap()));
        }
        out
    };
    let first = run(0x57AB1E);
    let serial: Vec<u64> = {
        let mut rng = Rng::seed_from_u64(0x57AB1E);
        let mut out = Vec::new();
        for round in 0..40u64 {
            let n = 1 + rng.bounded_u64(200) as usize;
            let _chunks = 1 + rng.bounded_u64(16) as usize;
            out.extend((0..n as u64).map(|i| churn(0x57AB1E ^ (round << 32) ^ i, 32)));
        }
        out
    };
    assert_eq!(first, serial, "pool output must equal the serial map");
    for replay in 0..4 {
        assert_eq!(run(0x57AB1E), first, "replay {replay} diverged");
    }
    pool.shutdown();
}

#[test]
fn pool_results_match_scoped_reference() {
    // Differential against the independent pre-pool implementation over
    // seeded inputs and chunk counts.
    check_with(
        &Config {
            cases: 30,
            ..Config::default()
        },
        "pool_vs_scoped_reference",
        gens::from_fn(|rng: &mut Rng| {
            let seed = rng.next_u64();
            let n = rng.bounded_u64(300) as usize;
            let chunks = 1 + rng.bounded_u64(12) as usize;
            (seed, n, chunks)
        }),
        |&(seed, n, chunks)| {
            let items: Vec<u64> = (0..n as u64).map(|i| seed ^ i.rotate_left(17)).collect();
            let pooled = par_map_threads(&items, chunks, |&x| churn(x, 16));
            let scoped = scoped_map(&items, chunks, |&x| churn(x, 16));
            qp_assert_eq!(pooled, scoped);
            qp_assert!(pooled.len() == n);
            Ok(())
        },
    );
}

#[test]
fn deadline_abandonment_is_observable() {
    let before = Pool::global().abandoned_tasks();
    let out = par_map_deadline(
        (0..4u64).collect::<Vec<_>>(),
        Duration::from_millis(1),
        |x| {
            if x > 0 {
                std::thread::sleep(Duration::from_millis(150));
            }
            x
        },
    );
    assert_eq!(out[0], Some(0));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while Pool::global().abandoned_tasks() == before && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        Pool::global().abandoned_tasks() > before,
        "expired-budget work must show up in the abandoned counter"
    );
}
