//! `serve_mix`: §5's many independent readers of a live newsroom service.
//!
//! Open loop: Poisson arrivals at the fixed rate [`RATE`] over
//! `TimelineService::serve` on `127.0.0.1:0`, backed by a durable
//! `RealTimeSystem` bulk-loaded with all nine topics. The mix is 60%
//! `/search`, 30% `/timeline` and 10% `/ingest` of held-out topic articles.
//! Timeline queries are drawn with Zipf skew from 792 distinct queries, more
//! than the 64-entry session memo, so requests hit the memo, refresh by
//! delta after ingests and rebuild after evictions.
//!
//! The schedule is a pure function of the seed. At most `nproc` client
//! threads, each with one keep-alive connection, take arrivals in schedule
//! order; latency is timed from the scheduled arrival, so a stalled server
//! delays later requests and that wait counts. The generator's own lateness
//! (sending after a request was due although a connection was free) is
//! reported as `loadgen.lag_p99_s`, and a run where it exceeds
//! [`LAG_LIMIT_S`] is marked invalid rather than reported.

use crate::inputs::{self, TimelineSpec};
use crate::util::{
    mean, percentile, progress_done, progress_plan, repeated_setup, setup_reps, span, span_totals,
    sub_seed, Args, CountingStorage, Outcome, StorageCounters,
};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tl_corpus::{Article, Timeline};
use tl_ir::SearchQuery;
use tl_support::http::{percent_encode, Client, MetricsHandle, Server};
use tl_support::json::Json;
use tl_support::pool::Pool;
use tl_support::rng::Rng;
use tl_support::storage::FileStorage;
use tl_support::{FromJson, ToJson};
use tl_wilson::{
    IncrementalStats, IngestRequest, IngestResponse, RealTimeSystem, SearchResponse, ServiceConfig,
    TimelineQuery, TimelineResponse, TimelineService, WilsonConfig,
};

/// Arrival rate (requests/s): about half the knee measured on a 2-core
/// x86-64 container, where latency starts to climb steeply (see
/// `perfbench/README.md`).
pub const RATE: f64 = 100.0;
/// Corpus scale: 251 articles per topic, of which the 222 earliest are
/// bulk-loaded (~128k dated sentences, the size of the scale-0.3 corpus)
/// and the rest, 261 articles, are held out for `/ingest`.
const SCALE: f64 = 0.34;
const PRELOAD_PER_TOPIC: usize = 222;
/// Zipf exponent of the timeline query draw.
const ZIPF_S: f64 = 1.0;
/// Queries requested once before measuring: the session memo's capacity.
const MEMO_WARM: usize = 64;
/// A run whose generator lag p99 exceeds this is invalid.
const LAG_LIMIT_S: f64 = 0.02;
/// Tail percentiles: the highest with at least ten samples beyond it at
/// [`RATE`] over a 10 s run (~300 timelines, ~100 ingests, ~600 searches).
const TIMELINE_TAIL: f64 = 0.95;
const INGEST_TAIL: f64 = 0.9;
const SEARCH_TAIL: f64 = 0.98;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Search,
    Timeline,
    Ingest,
}

/// One scheduled request, fully built before the phase starts.
struct Arrival {
    at: f64,
    kind: Kind,
    /// Index into the search or timeline pool (unused for ingest).
    pool: usize,
    target: String,
    body: Option<Vec<u8>>,
}

/// One request's fate.
struct Sample {
    kind: Kind,
    status: u16,
    /// From scheduled arrival to full response.
    latency: f64,
    /// From send to full response.
    service: f64,
    /// Sent late although a connection was free.
    gen_lag: f64,
    body: Vec<u8>,
    /// Memo classification and incremental deltas (traced phase only).
    memo: Option<MemoOutcome>,
}

#[derive(Clone, Copy)]
enum MemoOutcome {
    Hit,
    Refresh {
        reused: u64,
        recomputed: u64,
        fallbacks: u64,
    },
    Rebuild,
}

struct Fixture {
    service: Arc<TimelineService>,
    server: Server,
    dir: std::path::PathBuf,
}

pub fn run(args: &Args, out: &mut Outcome, layers: &mut BTreeMap<&'static str, f64>) {
    let ds = inputs::dataset(SCALE);
    let (lo, hi) = inputs::span(&ds);
    let timeline_pool = inputs::timeline_pool(&ds);
    let search_pool = inputs::search_pool(&ds);
    let service_cfg = ServiceConfig::default();
    let queries: Vec<TimelineQuery> = timeline_pool
        .iter()
        .map(|s| TimelineQuery {
            keywords: s.keywords.clone(),
            window: s.window,
            num_dates: s.num_dates,
            sents_per_date: service_cfg.default_sents_per_date,
            fetch_limit: service_cfg.default_fetch_limit,
        })
        .collect();

    // The timed phase, then (traced runs only) a second, traced phase.
    let phases = if args.trace { 2 } else { 1 };
    let shapes: Vec<Vec<(f64, Kind, usize)>> = (0..phases)
        .map(|p| {
            schedule(
                sub_seed(args.seed, 4 + p as u64),
                RATE,
                args.seconds,
                &timeline_pool,
                &search_pool,
            )
        })
        .collect();
    let ingests: usize = shapes
        .iter()
        .map(|s| s.iter().filter(|a| a.1 == Kind::Ingest).count())
        .sum();
    let held = ds.topics[0].articles.len() - PRELOAD_PER_TOPIC;
    let (bases, held_out) = inputs::hold_out(&ds, held, args.seed);
    if ingests > held_out.len() {
        out.problem(format!(
            "{ingests} ingests scheduled, {} held out",
            held_out.len()
        ));
        return;
    }
    let mut next_article = 0usize;
    let schedules: Vec<Vec<Arrival>> = shapes
        .into_iter()
        .map(|shape| {
            build_requests(
                shape,
                &timeline_pool,
                &search_pool,
                &held_out,
                &mut next_article,
            )
        })
        .collect();

    let counters = Arc::new(StorageCounters::default());
    let (fx, setup_s) = repeated_setup(
        setup_reps(args),
        |rep| {
            setup(
                &args.work_dir.join(format!("serve-{rep}")),
                &bases,
                args.trace,
                &counters,
            )
        },
        teardown,
    );
    let addr = fx.server.addr();

    // Fill the session memo with the 64 most popular queries, as a running
    // service's would be; otherwise a 10 s run measures mostly first-time
    // rebuilds. Not timed.
    if let Err(e) = warm_memo(addr, &timeline_pool) {
        out.problem(format!("memo warm-up: {e}"));
        return;
    }

    let timed = drive(addr, &schedules[0], None);
    // Quality guard, outside the timed phase: the served timeline for each
    // topic query over the whole corpus window, against its reference. The
    // engine state is the bulk load plus the phase's ingests, which differ
    // between seeds only in the order of arrival.
    let served = served_reference_timelines(addr, &ds, (lo, hi));
    let mut problems = check(&timed, &schedules[0], fx.service.system(), &search_pool);
    let (lat_by_kind, lag_p99) = summarize(&timed);
    if lag_p99 > LAG_LIMIT_S {
        problems.push(format!(
            "invalid run: load generator lag p99 {lag_p99:.4}s exceeds {LAG_LIMIT_S}s"
        ));
    }
    let search_lat = &lat_by_kind[&Kind::Search];
    let timeline_lat = &lat_by_kind[&Kind::Timeline];
    let ingest_lat = &lat_by_kind[&Kind::Ingest];

    let mut traced_samples = Vec::new();
    if args.trace {
        traced_samples = traced_phase(
            &fx,
            addr,
            &schedules[1],
            &queries,
            &search_pool,
            &counters,
            layers,
            &mut problems,
        );
        layers.insert("timeline_tail_s", percentile(timeline_lat, TIMELINE_TAIL));
        layers.insert("intake_tail_s", percentile(ingest_lat, INGEST_TAIL));
        layers.insert("search_p50_s", percentile(search_lat, 0.5));
        layers.insert("search_p99_s", percentile(search_lat, 0.99));
        layers.insert("loadgen.lag_p99_s", lag_p99);
        let all = |s: &[Sample]| mean(&s.iter().map(|x| x.latency).collect::<Vec<_>>());
        layers.insert("trace.overhead_s", all(&traced_samples) - all(&timed));
    }

    for p in problems {
        out.problem(p);
    }
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("reference timelines: {e}"));
            Vec::new()
        }
    };
    let refs = inputs::references(&ds);
    let pairs: Vec<(&Timeline, &Timeline)> = served
        .iter()
        .zip(&refs)
        .map(|(s, (_, r))| (s, *r))
        .collect();

    let all_samples = timed.iter().chain(&traced_samples);
    out.attempted = all_samples.clone().count() as u64;
    out.failed = all_samples.filter(|s| s.status / 100 != 2).count() as u64;
    out.detail("requests", timed.len().to_json());
    out.detail("rate_per_s", Json::Num(RATE));
    out.detail("search_samples", search_lat.len().to_json());
    out.detail("timeline_samples", timeline_lat.len().to_json());
    out.detail("ingest_samples", ingest_lat.len().to_json());
    out.detail("search_p50_s", Json::Num(percentile(search_lat, 0.5)));
    out.detail(
        "search_tail_s",
        Json::Num(percentile(search_lat, SEARCH_TAIL)),
    );
    out.detail(
        "timeline_tail_s",
        Json::Num(percentile(timeline_lat, TIMELINE_TAIL)),
    );
    out.detail(
        "intake_tail_s",
        Json::Num(percentile(ingest_lat, INGEST_TAIL)),
    );
    out.detail("loadgen_lag_p99_s", Json::Num(lag_p99));
    out.detail(
        "tail_percentiles",
        tl_support::json::obj(vec![
            ("timeline", Json::Num(TIMELINE_TAIL)),
            ("ingest", Json::Num(INGEST_TAIL)),
            ("search", Json::Num(SEARCH_TAIL)),
        ]),
    );
    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_bytes", crate::util::peak_rss_bytes(), "bytes");
        out.metric("timeline_p50_s", percentile(timeline_lat, 0.5), "s");
        out.metric("intake_p50_s", percentile(ingest_lat, 0.5), "s");
        out.metric("rouge2_align_f1", inputs::rouge2_align_f1(&pairs), "ratio");
    }
    teardown(fx);
}

/// `rate × seconds` arrivals of a Poisson process (conditioned on that
/// count, the arrival times are sorted uniform draws) with the exact 60/30/10
/// mix in seeded order: `(at, kind, pool index)`. Fixing the count and the
/// mix keeps runs with different seeds comparable.
fn schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    timeline_pool: &[TimelineSpec],
    search_pool: &[String],
) -> Vec<(f64, Kind, usize)> {
    let mut rng = Rng::seed_from_u64(seed);
    let zipf = inputs::Zipf::new(timeline_pool.len(), ZIPF_S);
    let n = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.f64() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut kinds: Vec<Kind> = (0..n)
        .map(|i| match i % 10 {
            0..=5 => Kind::Search,
            6..=8 => Kind::Timeline,
            _ => Kind::Ingest,
        })
        .collect();
    rng.shuffle(&mut kinds);
    times
        .into_iter()
        .zip(kinds)
        .map(|(at, kind)| {
            let pool = match kind {
                Kind::Search => rng.bounded_u64(search_pool.len() as u64) as usize,
                Kind::Timeline => zipf.sample(&mut rng),
                Kind::Ingest => 0,
            };
            (at, kind, pool)
        })
        .collect()
}

fn build_requests(
    shape: Vec<(f64, Kind, usize)>,
    timeline_pool: &[TimelineSpec],
    search_pool: &[String],
    held_out: &[(usize, Article)],
    next_article: &mut usize,
) -> Vec<Arrival> {
    shape
        .into_iter()
        .map(|(at, kind, pool)| {
            let (target, body) = match kind {
                Kind::Search => (
                    format!("/search?q={}&limit=20", percent_encode(&search_pool[pool])),
                    None,
                ),
                Kind::Timeline => (timeline_target(&timeline_pool[pool]), None),
                Kind::Ingest => {
                    let article = held_out[*next_article].1.clone();
                    *next_article += 1;
                    let body = IngestRequest {
                        articles: vec![article],
                    }
                    .to_json()
                    .to_string_compact();
                    ("/ingest".to_string(), Some(body.into_bytes()))
                }
            };
            Arrival {
                at,
                kind,
                pool,
                target,
                body,
            }
        })
        .collect()
}

fn setup(
    dir: &Path,
    bases: &[Vec<Article>],
    trace: bool,
    counters: &Arc<StorageCounters>,
) -> Fixture {
    let _ = std::fs::remove_dir_all(dir);
    let config = WilsonConfig::default();
    let system = if trace {
        let storage = FileStorage::open(dir).expect("open service store");
        RealTimeSystem::with_storage(
            Arc::new(CountingStorage::new(storage, Arc::clone(counters))),
            config,
        )
    } else {
        RealTimeSystem::open(dir, config)
    }
    .expect("open durable system");
    for base in bases {
        system.ingest_all(base).expect("bulk load");
    }
    let service = Arc::new(TimelineService::new(system, ServiceConfig::default()));
    let server = service.serve("127.0.0.1:0").expect("bind 127.0.0.1:0");
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).expect("connect");
    let health = client
        .request("GET", "/health", None)
        .expect("warm-up request");
    assert_eq!(health.status, 200, "warm-up /health");
    Fixture {
        service,
        server,
        dir: dir.to_path_buf(),
    }
}

fn teardown(fx: Fixture) {
    fx.server.shutdown();
    drop(fx.service);
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// Client threads for one phase: with `memo` set (traced phase), every
/// `/timeline` answer is classified against the session memo.
fn drive(
    addr: SocketAddr,
    sched: &[Arrival],
    memo: Option<(
        &RealTimeSystem,
        &[TimelineQuery],
        &MetricsHandle,
        &AtomicUsize,
    )>,
) -> Vec<Sample> {
    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    progress_plan(sched.len() as u64);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let seen: Mutex<HashMap<usize, IncrementalStats>> = Mutex::new(HashMap::new());
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    let mut client = Client::connect(addr, Duration::from_secs(60)).ok();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(a) = sched.get(i) else { break };
                        let grabbed = Instant::now();
                        let due = t0 + Duration::from_secs_f64(a.at);
                        crate::util::sleep_until(due);
                        if let Some((_, _, metrics, peak)) = memo {
                            peak.fetch_max(metrics.snapshot().queued, Ordering::Relaxed);
                        }
                        let sent = Instant::now();
                        let gen_lag = (sent - due.max(grabbed)).as_secs_f64();
                        let method = if a.body.is_some() { "POST" } else { "GET" };
                        let resp = match client.as_mut() {
                            Some(c) => span("http.request", || {
                                c.request_once(method, &a.target, a.body.as_deref())
                            }),
                            None => Err(std::io::Error::other("not connected")),
                        };
                        let end = Instant::now();
                        let (status, body) = match resp {
                            Ok(r) => (r.status, r.body),
                            Err(_) => {
                                client = Client::connect(addr, Duration::from_secs(60)).ok();
                                (0, Vec::new())
                            }
                        };
                        let memo_outcome = match memo {
                            Some((system, queries, _, _))
                                if a.kind == Kind::Timeline && status == 200 =>
                            {
                                classify(system, &queries[a.pool], a.pool, &seen)
                            }
                            _ => None,
                        };
                        progress_done(done.fetch_add(1, Ordering::SeqCst) as u64 + 1);
                        mine.push((
                            i,
                            Sample {
                                kind: a.kind,
                                status,
                                latency: (end - due).as_secs_f64(),
                                service: (end - sent).as_secs_f64(),
                                gen_lag,
                                body,
                                memo: memo_outcome,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Classify one `/timeline` answer from the memoized session's counters:
/// unchanged refresh count = memo hit, one more = incremental refresh, a
/// fresh session = rebuild.
fn classify(
    system: &RealTimeSystem,
    query: &TimelineQuery,
    key: usize,
    seen: &Mutex<HashMap<usize, IncrementalStats>>,
) -> Option<MemoOutcome> {
    let now = system.session_stats(query)?;
    let mut seen = seen.lock().expect("memo map lock poisoned");
    let outcome = match seen.get(&key) {
        Some(prev) if now.refreshes == prev.refreshes => MemoOutcome::Hit,
        Some(prev) if now.refreshes > prev.refreshes => MemoOutcome::Refresh {
            reused: now.days_reused - prev.days_reused,
            recomputed: now.days_recomputed - prev.days_recomputed,
            fallbacks: (now.dirty_fallbacks + now.residual_fallbacks)
                - (prev.dirty_fallbacks + prev.residual_fallbacks),
        },
        _ => MemoOutcome::Rebuild,
    };
    seen.insert(key, now);
    Some(outcome)
}

/// Output checks, outside the timed section: every 2xx body parses with
/// its wire type, searches for topic keywords return hits, timelines are
/// non-empty and each ingest acknowledges one article.
fn check(
    samples: &[Sample],
    sched: &[Arrival],
    system: &RealTimeSystem,
    search_pool: &[String],
) -> Vec<String> {
    let mut problems = Vec::new();
    if samples.len() != sched.len() {
        problems.push(format!("{} of {} requests ran", samples.len(), sched.len()));
    }
    for (i, s) in samples.iter().enumerate() {
        if s.status / 100 != 2 {
            continue;
        }
        let parsed = std::str::from_utf8(&s.body)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(t).map_err(|e| e.to_string()));
        let json = match parsed {
            Ok(j) => j,
            Err(e) => {
                problems.push(format!("request {i}: body is not JSON: {e}"));
                continue;
            }
        };
        let verdict = match s.kind {
            Kind::Search => SearchResponse::from_json(&json).map(|r| {
                r.hits.is_empty().then(|| {
                    format!(
                        "topic-keyword search found no hits at epoch {}; {}",
                        r.epoch,
                        empty_search_evidence(system, &search_pool[sched[i].pool], r.epoch)
                    )
                })
            }),
            Kind::Timeline => TimelineResponse::from_json(&json).map(|r| {
                r.timeline
                    .entries
                    .is_empty()
                    .then(|| "empty timeline".to_string())
            }),
            Kind::Ingest => IngestResponse::from_json(&json)
                .map(|r| (r.ingested != 1).then(|| format!("ingested {} articles", r.ingested))),
        };
        match verdict {
            Ok(None) => {}
            Ok(Some(msg)) => problems.push(format!(
                "request {i} ({}): {msg}; body {}",
                sched[i].target,
                String::from_utf8_lossy(&s.body)
            )),
            Err(e) => problems.push(format!("request {i}: {e}")),
        }
    }
    problems
}

/// Why an empty search answer at `epoch` is wrong, or not: sentence ids
/// are assigned in ingest order and `epoch` sentences were published, so
/// any matching sentence with an id below `epoch` was searchable then.
fn empty_search_evidence(system: &RealTimeSystem, keywords: &str, epoch: usize) -> String {
    let answer = system.search(&SearchQuery {
        keywords: keywords.to_string(),
        range: None,
        limit: 5_000,
    });
    match answer
        .hits
        .iter()
        .map(|(h, _)| h.id)
        .filter(|&id| id < epoch)
        .min()
    {
        Some(id) => format!(
            "at epoch {} the same search matches sentence {id}, published before \
             epoch {epoch}, so the served answer was wrong",
            answer.epoch
        ),
        None => format!(
            "at epoch {} the same search matches no sentence published before epoch {epoch}",
            answer.epoch
        ),
    }
}

/// Latencies by request kind (2xx only) and the generator lag p99.
fn summarize(samples: &[Sample]) -> (HashMap<Kind, Vec<f64>>, f64) {
    let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
    for k in [Kind::Search, Kind::Timeline, Kind::Ingest] {
        by_kind.insert(k, Vec::new());
    }
    for s in samples.iter().filter(|s| s.status / 100 == 2) {
        by_kind
            .get_mut(&s.kind)
            .expect("all kinds present")
            .push(s.latency);
    }
    let lags: Vec<f64> = samples.iter().map(|s| s.gen_lag).collect();
    (by_kind, percentile(&lags, 0.99))
}

/// Counters read from `/health`: per endpoint `(completed, mean_s)`, and
/// the server's accepted, shed and parse-error totals.
struct Health {
    endpoints: HashMap<&'static str, (f64, f64)>,
    server: HashMap<&'static str, f64>,
}

fn health(addr: SocketAddr) -> Result<Health, String> {
    let mut client = Client::connect(addr, Duration::from_secs(30)).map_err(|e| e.to_string())?;
    let resp = client
        .request("GET", "/health", None)
        .map_err(|e| e.to_string())?;
    let json = resp.json().map_err(|e| e.to_string())?;
    let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    let mut endpoints = HashMap::new();
    for name in ["search", "timeline", "ingest"] {
        let e = json.get("endpoints").and_then(|e| e.get(name));
        endpoints.insert(
            name,
            (
                num(e.and_then(|e| e.get("completed"))),
                num(e.and_then(|e| e.get("mean_s"))),
            ),
        );
    }
    let mut server = HashMap::new();
    for name in ["accepted", "shed", "parse_errors"] {
        server.insert(name, num(json.get("server").and_then(|s| s.get(name))));
    }
    Ok(Health { endpoints, server })
}

/// The traced phase: drive the second schedule with memo classification,
/// then replay its searches in-process, and derive the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced_phase(
    fx: &Fixture,
    addr: SocketAddr,
    sched: &[Arrival],
    queries: &[TimelineQuery],
    search_pool: &[String],
    counters: &StorageCounters,
    layers: &mut BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) -> Vec<Sample> {
    let system = fx.service.system();
    let pool = Pool::global();
    let before = health(addr);
    let h0 = system.health();
    let st0 = counters.read();
    let (exec0, aband0) = (pool.executed_tasks(), pool.abandoned_tasks());
    let peak = AtomicUsize::new(0);
    let metrics = fx.server.metrics_handle();
    crate::util::tracer().take();
    let samples = drive(addr, sched, Some((system, queries, &metrics, &peak)));
    let spans = crate::util::tracer().take();
    let (exec1, aband1) = (pool.executed_tasks(), pool.abandoned_tasks());
    let st1 = counters.read();
    let h1 = system.health();
    let after = health(addr);
    problems.extend(check(&samples, sched, system, search_pool));
    let n = samples.len().max(1) as f64;

    // Handler time per endpoint over this phase, from the cumulative
    // `/health` means.
    let mut handler_total = 0.0;
    match (before, after) {
        (Ok(b), Ok(a)) => {
            for (metric, name) in [
                ("http.handler_search_s", "search"),
                ("http.handler_timeline_s", "timeline"),
                ("http.handler_ingest_s", "ingest"),
            ] {
                let (c0, m0) = b.endpoints[name];
                let (c1, m1) = a.endpoints[name];
                let total = c1 * m1 - c0 * m0;
                handler_total += total;
                layers.insert(metric, if c1 > c0 { total / (c1 - c0) } else { 0.0 });
            }
            for (metric, name) in [
                ("http.accepted", "accepted"),
                ("http.shed", "shed"),
                ("http.parse_errors", "parse_errors"),
            ] {
                layers.insert(metric, (a.server[name] - b.server[name]) / n);
            }
        }
        (b, a) => problems.push(format!("/health unreadable: {:?} {:?}", b.err(), a.err())),
    }
    let client_total: f64 = samples.iter().map(|s| s.service).sum();
    layers.insert("http.wire_s", (client_total - handler_total) / n);
    layers.insert("unattributed_s", (client_total - handler_total) / n);
    layers.insert("http.queued_peak", peak.load(Ordering::Relaxed) as f64);
    layers.insert("pool.executed_tasks", (exec1 - exec0) as f64 / n);
    layers.insert("pool.abandoned_tasks", (aband1 - aband0) as f64 / n);
    layers.insert("storage.sync_s", (st1.0 - st0.0) / n);
    layers.insert("storage.sync_calls", (st1.1 - st0.1) as f64 / n);
    layers.insert("storage.append_bytes", (st1.2 - st0.2) as f64 / n);
    layers.insert("storage.read_bytes", (st1.3 - st0.3) as f64 / n);
    layers.insert(
        "wal.snapshots_written",
        (h1.snapshots_written - h0.snapshots_written) as f64 / n,
    );
    layers.insert("wal.retries", (h1.retries - h0.retries) as f64 / n);

    let (mut hits, mut refreshes, mut rebuilds) = (0u64, 0u64, 0u64);
    let (mut reused, mut recomputed, mut fallbacks) = (0u64, 0u64, 0u64);
    for m in samples.iter().filter_map(|s| s.memo) {
        match m {
            MemoOutcome::Hit => hits += 1,
            MemoOutcome::Rebuild => rebuilds += 1,
            MemoOutcome::Refresh {
                reused: r,
                recomputed: c,
                fallbacks: f,
            } => {
                refreshes += 1;
                reused += r;
                recomputed += c;
                fallbacks += f;
            }
        }
    }
    let classified = (hits + refreshes + rebuilds).max(1) as f64;
    layers.insert("memo.hit_ratio", hits as f64 / classified);
    layers.insert("memo.refresh_ratio", refreshes as f64 / classified);
    layers.insert("memo.rebuild_ratio", rebuilds as f64 / classified);
    layers.insert(
        "incremental.days_reused_ratio",
        reused as f64 / (reused + recomputed).max(1) as f64,
    );
    layers.insert("incremental.fallbacks", fallbacks as f64 / classified);

    // The phase's search stream again, in-process: the shard fan-out and
    // merge without HTTP.
    crate::util::tracer().take();
    let (mut n_search, mut n_hits, mut n_partial) = (0u64, 0u64, 0u64);
    for a in sched.iter().filter(|a| a.kind == Kind::Search) {
        let answer = span("ir.search", || {
            system.search(&SearchQuery {
                keywords: search_pool[a.pool].clone(),
                range: None,
                limit: 20,
            })
        });
        n_search += 1;
        n_hits += answer.hits.len() as u64;
        n_partial += u64::from(answer.partial);
    }
    let search_spans = crate::util::tracer().take();
    let ns = n_search.max(1) as f64;
    let totals = span_totals(&search_spans);
    layers.insert(
        "ir.search_s",
        totals.get("ir.search").map_or(0.0, |t| t.1) / ns,
    );
    layers.insert("ir.hits", n_hits as f64 / ns);
    layers.insert("ir.partial", n_partial as f64 / ns);
    crate::util::stash_spans(spans.into_iter().chain(search_spans));
    samples
}

fn timeline_target(s: &TimelineSpec) -> String {
    format!(
        "/timeline?q={}&from={}&to={}&num_dates={}",
        percent_encode(&s.keywords),
        s.window.0,
        s.window.1,
        s.num_dates
    )
}

/// Request the [`MEMO_WARM`] most popular timeline queries once each, in
/// popularity order, using the same request targets as the schedule.
fn warm_memo(addr: SocketAddr, pool: &[TimelineSpec]) -> Result<(), String> {
    let mut client = Client::connect(addr, Duration::from_secs(60)).map_err(|e| e.to_string())?;
    for spec in pool.iter().take(MEMO_WARM) {
        let target = timeline_target(spec);
        let resp = client
            .request("GET", &target, None)
            .map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!("status {} for {target}", resp.status));
        }
    }
    Ok(())
}

/// Ask the service for each reference's topic query over the whole corpus
/// window with the reference's `T` and `N`.
fn served_reference_timelines(
    addr: SocketAddr,
    ds: &tl_corpus::Dataset,
    window: (tl_temporal::Date, tl_temporal::Date),
) -> Result<Vec<Timeline>, String> {
    let mut client = Client::connect(addr, Duration::from_secs(60)).map_err(|e| e.to_string())?;
    inputs::references(ds)
        .into_iter()
        .map(|(ti, rf)| {
            let target = format!(
                "/timeline?q={}&from={}&to={}&num_dates={}&sents_per_date={}",
                percent_encode(&ds.topics[ti].query),
                window.0,
                window.1,
                rf.num_dates(),
                rf.target_sentences_per_date()
            );
            let resp = client
                .request("GET", &target, None)
                .map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!("status {} for {target}", resp.status));
            }
            let json = resp.json().map_err(|e| e.to_string())?;
            TimelineResponse::from_json(&json)
                .map(|r| r.timeline)
                .map_err(|e| e.to_string())
        })
        .collect()
}
