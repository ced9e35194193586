#!/usr/bin/env bash
# Hermetic CI: the workspace must build and test from a cold checkout with
# no network and no registry cache, and must never reacquire a crates.io
# dependency. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dependency policy: path-only =="
# Any dependency line with `version = `, a bare `name = "x.y"` version
# string, or a `git = ` source is a registry/git dependency. Everything in
# this workspace must be `path = ...` / `workspace = true`.
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Strip comments, then look at [*dependencies*] sections only.
    deps=$(awk '
        /^[[:space:]]*#/ { next }
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && NF { print }
    ' "$manifest" | grep -v '^\[' || true)
    offending=$(printf '%s\n' "$deps" \
        | grep -E '(version[[:space:]]*=|git[[:space:]]*=|registry[[:space:]]*=|^[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*"[0-9])' \
        || true)
    if [ -n "$offending" ]; then
        echo "non-path dependency in $manifest:" >&2
        printf '%s\n' "$offending" >&2
        bad=1
    fi
done
if [ "$bad" -ne 0 ]; then
    echo "FAIL: external dependencies are not allowed (see DESIGN.md, 'Hermetic build')" >&2
    exit 1
fi
echo "ok: all dependencies are path dependencies"

echo "== offline release build =="
cargo build --release --offline

echo "== offline tests (all targets) =="
cargo test -q --offline

echo "== thread pool: property + no-spawn-per-call gate =="
# Pool invariants: nested par_map never deadlocks (even on a
# 1-worker pool), a panicking task poisons only its own item, seeded
# 8-thread stress runs are replay-deterministic, expired deadline work is
# observable in the abandoned counter, and — the reason the pool exists —
# hammering every hot-path map entry point never spawns OS threads per
# invocation (live /proc/self/task probe, in its own test binary).
cargo test -q --offline -p tl-support --test pool_properties --test pool_thread_probe

echo "== thread pool: single-worker full-suite pass =="
# The entire workspace must pass with the global pool clamped to one
# worker: results are thread-count-independent by construction, and the
# caller-helps scheduler must make any nesting depth deadlock-free.
TL_POOL_THREADS=1 cargo test -q --offline

echo "== thread pool: real parallelism (2 and 8 workers) =="
# The pool and concurrency proofs must also hold with several workers
# racing: the full-suite pass above runs on one worker and the default
# pass on however many cores the CI machine has.
for workers in 2 8; do
    TL_POOL_THREADS=$workers cargo test -q --offline -p tl-support --test pool_properties
    TL_POOL_THREADS=$workers TL_STRESS_ITERS=1 TL_STRESS_SEED=5745438 \
        TL_CHAOS_ITERS=1 TL_CHAOS_SEED=5745438 \
        cargo test -q --offline -p tl-wilson --test stress --test chaos
done

echo "== thread pool + concurrency suites: AddressSanitizer =="
# The pool lifetime-erases scoped borrows into its queue and writes result
# slots through raw cells, so a task that outlives its joiner's frame is a
# silent memory error. ASan (the installed nightly's runtime) turns one into
# a hard failure; pool_latch is the regression test for the latch lifetime.
# Instrumented builds go to their own target directory.
asan_test() {
    RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR="$PWD/target/asan" \
        cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu "$@"
}
asan_test -p tl-support --lib --test pool_latch --test pool_properties
TL_STRESS_ITERS=1 TL_STRESS_SEED=5745438 TL_CHAOS_ITERS=1 TL_CHAOS_SEED=5745438 \
    asan_test -p tl-wilson --test stress --test chaos
asan_test -p tl-ir --test replication

echo "== ANN index: multi-thread differential gate =="
# Fixed seeds, 8 pool workers: builds and queries at parallelism degrees
# {1, 2, 8} must stay bitwise identical (ids and f64 score bits), including
# incremental inserts, date-filtered queries and knn_pairs rows.
TL_POOL_THREADS=8 cargo test -q --offline -p tl-embed --test ann_properties \
    thread_count_differential

echo "== sharded engine: differential bit-identity gate =="
# The sharded engine must stay bit-identical to the single-index reference
# (ranked ids and f64 score bits) for keyword, quoted-phrase and
# date-range queries across shard counts.
cargo test -q --offline -p tl-ir --test sharded_differential

echo "== sharded engine: concurrency stress (fixed seed, small budget) =="
# Deterministic budget so CI is reproducible and fast; bump TL_STRESS_ITERS
# locally to soak. Readers under concurrent ingestion must only ever
# observe fully published epochs (post-hoc serial replay per epoch).
# 5745438 == 0x57AB1E, the suite's default seed (decimal: the env var is
# parsed as a plain integer).
TL_STRESS_ITERS=1 TL_STRESS_SEED=5745438 \
    cargo test -q --offline -p tl-wilson --test stress

echo "== durable engine: WAL recovery gate =="
# Crash recovery (snapshot + WAL tail replay, torn-record truncation) must
# reproduce the pre-crash engine bit-identically, including from empty,
# truncated, corrupted and snapshot-newer-than-WAL logs.
cargo test -q --offline -p tl-ir --test wal_recovery

echo "== durable engine: chaos suite (fixed seed, small budget) =="
# Kills the engine at every WAL byte offset and runs seeded fault schedules
# (injected errors, torn appends, lost fsyncs); recovery must always come
# back as a bit-identical prefix of the acknowledged inserts. Same default
# seed convention as the stress suite (5745438 == 0x57AB1E).
TL_CHAOS_ITERS=1 TL_CHAOS_SEED=5745438 \
    cargo test -q --offline -p tl-wilson --test chaos

echo "== replication: protocol differential gate =="
# Follower convergence must be bit-identical to the primary (ranked ids
# and f64 score bits) across snapshot catch-up, compaction racing the WAL
# tail, the torn-listing gap retry, follower restart, faulty read-side
# shipping and election/failover.
cargo test -q --offline -p tl-ir --test replication

echo "== replication: chaos suite (fixed seed, small budget) =="
# Kills the primary at every WAL byte offset and a follower at every
# replication offset, then runs seeded dual-sided fault schedules (write
# faults on the primary, read errors + short reads on the shipping path)
# ending in primary death + election. Followers must always be a
# bit-identical prefix of the acked epochs and no honestly-fsynced publish
# may be lost across failover. Same seed convention (5745438 == 0x57AB1E).
TL_CHAOS_ITERS=1 TL_CHAOS_SEED=5745438 \
    cargo test -q --offline -p tl-wilson --test chaos replication

echo "== all-pairs kernel: differential bit-identity gate =="
# The term-at-a-time similarity kernel must stay bit-identical to the
# quadratic pairwise reference (stored rows and row totals, f64 bits,
# serial and parallel variants) across random corpora and thresholds.
cargo test -q --offline -p tl-nlp --test allpairs_differential

echo "== bench targets compile =="
cargo build --offline --all-targets

echo "== bench smoke: report format + regression gate =="
# Small full-pipeline benches. bench_smoke re-parses the BENCH_pipeline.json
# it writes (report-format check); with TL_BENCH_ENFORCE=1 both tests fail
# if any fresh median (pipeline/smoke, every table7_runtime/* entry)
# regresses more than 2x over its committed baseline — so losing the
# all-pairs kernel in a baseline fails CI, not just a WILSON slowdown.
# TL_BENCH_REPORT_DIR keeps the scratch report out of the working tree.
# Absolute path: cargo runs test binaries from the package directory.
TL_BENCH_REPORT_DIR="$PWD/target/bench-smoke" TL_BENCH_ENFORCE=1 TL_BENCH_ITERS=3 \
    cargo test -q --offline --release -p tl-bench --test pipeline -- \
    --ignored bench_smoke bench_methods --nocapture

echo "== bench smoke: durability overhead gate =="
# WAL ingest must stay within 3x of the in-memory engine in the same run
# (the headline durability budget; was 2x before the shared-vocabulary
# publish made the volatile denominator ~2x faster), and with
# TL_BENCH_ENFORCE=1 every durability/* median must stay within 2x of its
# committed BENCH_durability.json baseline.
TL_BENCH_REPORT_DIR="$PWD/target/bench-smoke" TL_BENCH_ENFORCE=1 TL_BENCH_ITERS=3 \
    cargo test -q --offline --release -p tl-bench --test durability -- \
    --ignored --nocapture

echo "== bench smoke: replication gate =="
# Ship latency, fresh-follower catch-up at 1k/10k records and
# failover-to-first-serve; with TL_BENCH_ENFORCE=1 every replication/*
# median must stay within 2x of its committed BENCH_replication.json
# baseline.
TL_BENCH_REPORT_DIR="$PWD/target/bench-smoke" TL_BENCH_ENFORCE=1 TL_BENCH_ITERS=3 \
    cargo test -q --offline --release -p tl-bench --test replication -- \
    --ignored --nocapture

echo "== ANN index: recall + date-filter property gate =="
# quickprop suite over randomized clustered corpora: recall@10 >= 0.9 at
# the default AnnConfig, date-filtered queries return only in-range ids,
# candidate scores bitwise-equal brute force (exact re-rank), and the
# fixed-seed differential test (bulk == rebuilt, full probe == exact).
cargo test -q --offline -p tl-embed --test ann_properties

echo "== ANN consumers: 100k-sentence scale proof (release) =="
# autocompress and sparse affinity propagation over a >=100k-sentence
# synthetic corpus; a process-wide allocation counter proves no dense n^2
# similarity matrix is ever materialized.
cargo test -q --offline --release -p tl-wilson --test autocompress_scale -- \
    --ignored --nocapture

echo "== bench smoke: ANN scaling gate =="
# Smallest ANN tier (~18k sentences): always asserts recall@10 >= 0.9; with
# TL_BENCH_ENFORCE=1 fresh ann/brute query medians must stay within 2x of
# the committed BENCH_scaling.json baselines and recall must not drop below
# the committed floor.
TL_BENCH_REPORT_DIR="$PWD/target/bench-smoke" TL_BENCH_ENFORCE=1 \
    cargo test -q --offline --release -p tl-bench --test ann -- \
    --ignored bench_ann_smoke --nocapture

echo "== http server: protocol property + fuzz gate =="
# quickprop suite over generated requests (random methods, header casing,
# chunked reads, pipelining, content-length edges) plus a 10k-case seeded
# fuzz corpus: every input parses or is rejected with 400 — never a panic,
# never a hang.
TL_FUZZ_CASES=10000 cargo test -q --offline -p tl-support --test http_properties

echo "== http server: overload/admission gate =="
# Deterministic burst past the admission queue: every connection resolves
# to exactly one of {200, 429}, shed == accepted - completed after the
# drain, and the server returns to zero-shed steady state.
cargo test -q --offline -p tl-support --test http_overload

echo "== service layer: typed API + golden wire gate =="
# JSON roundtrips for every wire type, EngineError -> stable HTTP status
# mapping (incl. a mid-flight storage kill -> 503 over a real socket), a
# no-unwrap audit of the handler path, and byte-for-byte golden
# request/response transcripts per endpoint (re-bless with
# TL_UPDATE_GOLDEN=1).
cargo test -q --offline -p tl-wilson --test service_api --test http_golden

echo "== bench smoke: open-loop service gate =="
# Short low-rate open-loop window over real sockets: zero sheds, zero
# dropped connections, sane worst-endpoint p99; with TL_BENCH_ENFORCE=1
# the fresh p99 must stay within 2x of the committed BENCH_service.json
# baseline (0.1 s absolute floor against scheduler noise).
TL_BENCH_REPORT_DIR="$PWD/target/bench-smoke" TL_BENCH_ENFORCE=1 \
    cargo test -q --offline --release -p tl-bench --test serve -- \
    --ignored bench_serve_smoke --nocapture

echo "== incremental maintenance: differential proof gate =="
# Incrementally refreshed timelines must stay bit-identical to from-scratch
# rebuilds (exact mode) and within bounded divergence with forced fallbacks
# (warm mode) across randomized ingest schedules.
cargo test -q --offline -p tl-wilson --test incremental_differential

echo "== bench smoke: incremental steady-state gate =="
# One-article tick against a 10k-sentence warm corpus: the incremental
# session must beat the full-rebuild tick by at least the noise-tolerant
# 4x floor (committed headline >= 5x), and with TL_BENCH_ENFORCE=1 both
# latency medians must stay within 2x of their committed
# BENCH_incremental.json baselines. No TL_BENCH_ITERS override: the tick
# distribution is bimodal and needs the bench's larger default sample for
# a stable median.
TL_BENCH_REPORT_DIR="$PWD/target/bench-smoke" TL_BENCH_ENFORCE=1 \
    cargo test -q --offline --release -p tl-bench --test incremental -- \
    --ignored --nocapture

echo "CI passed."
