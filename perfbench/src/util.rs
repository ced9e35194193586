//! Shared pieces of the benchmark: run arguments, latency statistics, the
//! process fingerprint, the in-memory span recorder and the counting
//! storage wrapper used by traced runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use tl_support::json::{obj, Json};
use tl_support::storage::{Storage, StorageError};
use tl_support::ToJson;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for durable stores and trace output (inside the
    /// checkout; the runner removes the store directories at exit).
    pub work_dir: std::path::PathBuf,
    /// Source fingerprint passed in by the runner (commit or tree digest).
    pub commit: String,
}

impl Args {
    pub fn parse() -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?
                .to_string();
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key, value);
        }
        let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
        let num = |k: &str| -> Result<f64, String> {
            get(k)?
                .parse::<f64>()
                .map_err(|_| format!("--{k} is not a number"))
        };
        let seconds = num("seconds")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload: get("workload")?,
            seed: get("seed")?
                .parse()
                .map_err(|_| "--seed is not an integer")?,
            seconds,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
            },
            work_dir: get("work-dir")?.into(),
            commit: map
                .get("commit")
                .cloned()
                .unwrap_or_else(|| "unknown".into()),
        })
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

/// Set-ups per run: three for the median a timed run reports as
/// `setup_s`; one in a traced run, which does not report it.
pub fn setup_reps(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        3
    }
}

/// Run `setup` `reps` times, keeping the last result, and return it with
/// the median set-up time. Earlier results are dropped (and their
/// `teardown` run) before the next repetition starts, so repetitions do
/// not stack memory.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        if let Some(prev) = kept.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        let value = setup(rep);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (
        kept.expect("at least one set-up repetition"),
        median(&times),
    )
}

/// Mix the run seed into a stream-specific seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    tl_support::rng::splitmix64(&mut s)
}

/// Tell the runner that one more operation finished (for crash accounting:
/// if the process dies, unfinished operations count as failed).
pub fn progress_done(n: u64) {
    eprintln!("perfbench-progress done {n}");
}

/// Tell the runner how many operations the measured phase will attempt.
pub fn progress_plan(n: u64) {
    eprintln!("perfbench-progress plan {n}");
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

/// One named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: the contract line plus diagnostic detail that goes
/// to the side report only.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output-check failures, one line each.
    pub problems: Vec<String>,
    /// Extra detail for the side report (sample counts, shares, spans).
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.problems.len() < 50 {
            eprintln!("perfbench: check failed: {msg}");
        }
        self.problems.push(msg);
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_json(&self) -> Json {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", m.unit.to_json()),
                        ]),
                    )
                })
                .collect(),
        );
        obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", metrics),
        ])
    }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One finished span: a timed call into a layer's public function, made
/// from the benchmark's own code.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// In-memory span recorder. Off in timed runs; a traced run turns it on
/// and writes the spans out when the run ends.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// Switch tracing on or off for the whole process (first call wins).
pub fn init_tracer(on: bool) {
    let _ = TRACER.set(Tracer {
        on,
        t0: Instant::now(),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    });
}

pub fn tracer() -> &'static Tracer {
    TRACER.get().expect("init_tracer runs first")
}

/// Run `f` inside a span named `name` (a no-op wrapper when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    tracer().span(name, f)
}

impl Tracer {
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied().unwrap_or(0);
            o.push(id);
            parent
        });
        let start = self.t0.elapsed().as_secs_f64();
        let out = f();
        let end = self.t0.elapsed().as_secs_f64();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name,
                start,
                end,
            });
        out
    }

    /// Drain the recorded spans.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock poisoned"))
    }
}

static STASH: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Keep spans for the trace file written when the run ends.
pub fn stash_spans(spans: impl IntoIterator<Item = Span>) {
    STASH
        .lock()
        .expect("span stash lock poisoned")
        .extend(spans);
}

/// All stashed spans.
pub fn stashed_spans() -> Vec<Span> {
    std::mem::take(&mut *STASH.lock().expect("span stash lock poisoned"))
}

/// Per-name totals over a span list: `(count, total wall, total self)`.
/// A span's self time is its duration minus that of its direct children
/// (all spans here nest on one thread, so children never overlap).
pub fn span_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_time.entry(s.parent).or_default() += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let wall = s.end - s.start;
        let selft = wall - child_time.get(&s.id).copied().unwrap_or(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += wall;
        e.2 += selft;
    }
    out
}

/// Spans as JSON rows `[name, id, parent, start, end]` for the trace file.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    s.name.to_json(),
                    s.id.to_json(),
                    s.parent.to_json(),
                    Json::Num(s.start),
                    Json::Num(s.end),
                ])
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Counting storage
// ---------------------------------------------------------------------------

/// Byte and time counters of a [`CountingStorage`].
#[derive(Debug, Default)]
pub struct StorageCounters {
    pub sync_ns: AtomicU64,
    pub sync_calls: AtomicU64,
    pub append_bytes: AtomicU64,
    pub read_bytes: AtomicU64,
}

impl StorageCounters {
    /// `(sync seconds, sync calls, appended bytes, read bytes)`.
    pub fn read(&self) -> (f64, u64, u64, u64) {
        (
            self.sync_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            self.sync_calls.load(Ordering::Relaxed),
            self.append_bytes.load(Ordering::Relaxed),
            self.read_bytes.load(Ordering::Relaxed),
        )
    }
}

/// A [`Storage`] that forwards to `inner`, counting synced time, appended
/// and read bytes, and recording `storage.*` spans when tracing is on.
pub struct CountingStorage<S> {
    inner: S,
    pub counters: std::sync::Arc<StorageCounters>,
}

impl<S: Storage> CountingStorage<S> {
    pub fn new(inner: S, counters: std::sync::Arc<StorageCounters>) -> Self {
        Self { inner, counters }
    }
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        let out = span("storage.read", || self.inner.read(path))?;
        self.counters
            .read_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }
    fn len(&self, path: &str) -> Result<u64, StorageError> {
        self.inner.len(path)
    }
    fn exists(&self, path: &str) -> Result<bool, StorageError> {
        self.inner.exists(path)
    }
    fn append(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        span("storage.append", || self.inner.append(path, data))?;
        self.counters
            .append_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    fn write_atomic(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        span("storage.write_atomic", || {
            self.inner.write_atomic(path, data)
        })
    }
    fn truncate(&self, path: &str, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(path, len)
    }
    fn sync(&self, path: &str) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let out = span("storage.sync", || self.inner.sync(path));
        self.counters
            .sync_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.sync_calls.fetch_add(1, Ordering::Relaxed);
        out
    }
    fn remove(&self, path: &str) -> Result<(), StorageError> {
        self.inner.remove(path)
    }
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
    fn read_from(&self, path: &str, offset: u64) -> Result<Vec<u8>, StorageError> {
        let out = span("storage.read", || self.inner.read_from(path, offset))?;
        self.counters
            .read_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }
}

/// Sleep until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}
