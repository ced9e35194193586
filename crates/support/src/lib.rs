//! Zero-dependency support substrate for the WILSON workspace.
//!
//! The build environment has no crates.io registry access, so everything the
//! workspace previously pulled from external crates lives here, in-tree:
//!
//! * [`rng`] — a seedable SplitMix64/xoshiro256++ PRNG with ranges,
//!   shuffling and sampling (the `rand::StdRng` replacement),
//! * [`json`] — a minimal JSON value type with a recursive-descent parser
//!   and serializer plus [`json::ToJson`]/[`json::FromJson`] traits (the
//!   `serde`/`serde_json` replacement),
//! * [`pool`] — a spawn-once thread pool (one shared task queue, callers
//!   help while they wait, panic containment, cooperative deadlines; the
//!   `rayon` replacement), sized by `TL_POOL_THREADS` /
//!   `available_parallelism`,
//! * [`par`] — order-preserving data-parallel maps dispatched onto the
//!   pool (the `crossbeam::scope` replacement — no hot path spawns OS
//!   threads per call),
//! * [`quickprop`] — a mini property-testing harness with seeded
//!   generators, greedy input shrinking and failing-seed reporting (the
//!   `proptest` replacement),
//! * [`storage`] — a pluggable byte-storage trait with file and in-memory
//!   backends, a seeded fault-injecting wrapper, CRC-32, bounded retries,
//!   and the typed [`storage::StorageError`]/[`storage::EngineError`]
//!   hierarchy used by the durable real-time engine,
//! * [`http`] — a std-only HTTP/1.1 server (fixed worker pool, keep-alive,
//!   bounded admission queue with `429` shedding) and blocking client (the
//!   `hyper`/`tiny_http` replacement backing the service layer),
//! * [`histogram`] — a lock-free fixed-bucket latency histogram feeding
//!   per-endpoint quantiles into `/health`.
//!
//! Everything is deterministic given explicit seeds: `cargo build --release
//! --offline && cargo test -q --offline` passes from a cold checkout, and a
//! failing property case is reproducible from the seed it prints.
#![warn(missing_docs)]

pub mod histogram;
pub mod http;
pub mod json;
pub mod par;
pub mod pool;
pub mod quickprop;
pub mod rng;
pub mod storage;

pub use histogram::LatencyHistogram;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use par::{par_map, par_map_deadline};
pub use pool::{warm_pool, Pool, TaskPanic};
pub use rng::Rng;
pub use storage::{
    crc32, EngineError, FaultConfig, FaultyStorage, FileStorage, MemStorage, RetryPolicy,
    Storage, StorageError,
};
