//! Regression test for the batch latch's lifetime.
//!
//! A two-item, two-chunk `map_chunks` queues one chunk and runs the other
//! inline, so the joiner returns the moment the queued chunk counts down.
//! When the latch lived on the joiner's stack, the finishing worker could
//! still be inside `count_down` (locking and notifying) after that frame
//! was gone: a use-after-return that corrupted memory only occasionally
//! without a sanitizer. Under AddressSanitizer the old design fails this
//! test with a `stack-use-after-return` report in `BatchSync::finish_one`:
//!
//! ```text
//! RUSTFLAGS=-Zsanitizer=address cargo +nightly test --offline \
//!     --target x86_64-unknown-linux-gnu -p tl-support --test pool_latch
//! ```
//!
//! Latches are now `Arc`-owned by every queued task, and the same command
//! passes (it runs in `scripts/ci.sh`).

use tl_support::pool::Pool;

#[test]
fn many_tiny_batches_complete_with_correct_output() {
    let pool = Pool::new(2);
    for round in 0..200_000u64 {
        let items = [round, round ^ 0x9E37_79B9];
        let out = pool.map_chunks(&items, 2, &|&x| x.wrapping_mul(3).rotate_left(7));
        assert_eq!(out.len(), 2, "round {round}");
        for (r, x) in out.into_iter().zip(items) {
            assert_eq!(
                r.expect("no panic"),
                x.wrapping_mul(3).rotate_left(7),
                "round {round}"
            );
        }
    }
    pool.shutdown();
}
