//! `ingest_follow`: the write path of a replicated newsroom service.
//!
//! Closed loop with one writer. The primary is a durable `RealTimeSystem`
//! on `FileStorage`, preloaded with ~115k dated sentences; a `Follower` on
//! its own `FileStorage` tails the primary's and serves reads through
//! `RealTimeSystem::follower`. Each tick takes the next held-out article
//! (round-robin over all topics) and measures
//!
//! * the ack: `primary.ingest` (tag, analyze, insert, WAL append and fsync,
//!   publish),
//! * visibility: `follower.pull` until the follower's epoch equals the
//!   primary's,
//! * the tick: the follower's `timeline` for that topic's standing query,
//!   an incremental refresh of its memoized session.
//!
//! The traced run drives the primary through the public calls
//! `RealTimeSystem::ingest` is made of (`dated_sentences`, then
//! `DurableEngine::insert` per sentence and one `publish`), so insert and
//! publish get spans of their own.

use crate::inputs;
use crate::util::{
    mean, percentile, progress_done, repeated_setup, setup_reps, span, span_totals, Args,
    CountingStorage, Outcome, StorageCounters,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tl_corpus::{dated_sentences, Article, Timeline};
use tl_ir::{DurableEngine, Follower, HealthReport, SearchQuery};
use tl_support::json::Json;
use tl_support::pool::Pool;
use tl_support::storage::{FileStorage, Storage};
use tl_support::ToJson;
use tl_wilson::{IncrementalStats, RealTimeSystem, TimelineQuery, WilsonConfig};

/// Corpus scale: 295 articles per topic, of which the [`PRELOAD_PER_TOPIC`]
/// earliest-published are preloaded (~115k dated sentences) and the rest,
/// ~850 articles, are ingested one per tick.
const SCALE: f64 = 0.4;
const PRELOAD_PER_TOPIC: usize = 200;
/// Every this many ticks, compare the follower's answers with the primary's.
const CHECK_EVERY: usize = 8;
/// Pulls allowed per tick before visibility counts as failed.
const MAX_PULLS: usize = 1000;
/// Tail percentile: the highest with at least ten samples beyond it at the
/// ~200 ticks of a 10 s run.
const TAIL: f64 = 0.95;

/// The primary: the system a user runs, or its staged expansion (traced).
// One value per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Primary {
    System(RealTimeSystem),
    Staged(DurableEngine),
}

impl Primary {
    fn ingest(&self, article: &Article) -> Result<(), String> {
        match self {
            Self::System(s) => s.ingest(article).map_err(|e| e.to_string()),
            Self::Staged(engine) => {
                let rows = span("temporal.tag", || {
                    dated_sentences(std::slice::from_ref(article), None)
                });
                for ds in &rows {
                    span("ir.insert", || {
                        engine.insert(ds.date, ds.pub_date, &ds.text)
                    })
                    .map_err(|e| e.to_string())?;
                }
                span("ir.publish", || engine.publish())
                    .map(drop)
                    .map_err(|e| e.to_string())
            }
        }
    }

    fn ingest_all(&self, articles: &[Article]) -> Result<(), String> {
        match self {
            Self::System(s) => s.ingest_all(articles).map_err(|e| e.to_string()),
            Self::Staged(engine) => {
                for ds in dated_sentences(articles, None) {
                    engine
                        .insert(ds.date, ds.pub_date, &ds.text)
                        .map_err(|e| e.to_string())?;
                }
                engine.publish().map(drop).map_err(|e| e.to_string())
            }
        }
    }

    fn epoch(&self) -> usize {
        match self {
            Self::System(s) => s.epoch(),
            Self::Staged(e) => e.epoch(),
        }
    }

    fn health(&self) -> HealthReport {
        match self {
            Self::System(s) => s.health(),
            Self::Staged(e) => e.health(),
        }
    }

    /// Search hits as `(id, score bits)`.
    fn hits(&self, q: &SearchQuery) -> Vec<(usize, u64)> {
        match self {
            Self::System(s) => s
                .search(q)
                .hits
                .iter()
                .map(|(h, _)| (h.id, h.score.to_bits()))
                .collect(),
            Self::Staged(e) => e
                .search_outcome(q)
                .hits
                .iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect(),
        }
    }
}

struct Fixture {
    primary: Primary,
    follower: Arc<Follower>,
    reader: RealTimeSystem,
    /// The standing timelines right after set-up.
    initial: Vec<Timeline>,
    /// Dated sentences the follower served right after set-up.
    preloaded: usize,
    dir: PathBuf,
}

#[derive(Default)]
struct Phase {
    ack_s: Vec<f64>,
    visible_s: Vec<f64>,
    tick_s: Vec<f64>,
    pulled: u64,
    failed: u64,
    /// Incremental counters accumulated over the phase's timeline calls.
    reused: u64,
    recomputed: u64,
    fallbacks: u64,
    hits: u64,
    refreshes: u64,
    rebuilds: u64,
}

pub fn run(args: &Args, out: &mut Outcome, layers: &mut BTreeMap<&'static str, f64>) {
    let ds = inputs::dataset(SCALE);
    let (lo, hi) = inputs::span(&ds);
    let held = ds.topics[0].articles.len() - PRELOAD_PER_TOPIC;
    let (bases, held_out) = inputs::hold_out(&ds, held, args.seed);
    let standing: Vec<TimelineQuery> = ds
        .topics
        .iter()
        .map(|t| TimelineQuery {
            keywords: t.query.clone(),
            window: (lo, hi),
            num_dates: t.timelines[0].num_dates(),
            sents_per_date: t.timelines[0].target_sentences_per_date(),
            fetch_limit: 1_000,
        })
        .collect();

    let counters = Arc::new(StorageCounters::default());
    let (fx, setup_s) = repeated_setup(
        setup_reps(args),
        |rep| {
            setup(
                &args.work_dir.join(format!("follow-{rep}")),
                &bases,
                &standing,
                args.trace,
                &counters,
            )
        },
        teardown,
    );

    let mut articles = held_out.iter();
    let mut problems = Vec::new();
    let timed = drive(&fx, args.seconds, &mut articles, &standing, &mut problems);
    let mut traced = Phase::default();
    if args.trace {
        let pool = Pool::global();
        let (exec0, aband0) = (pool.executed_tasks(), pool.abandoned_tasks());
        let st0 = counters.read();
        let (p0, f0) = (fx.primary.health(), fx.follower.health());
        crate::util::tracer().take();
        traced = drive(&fx, args.seconds, &mut articles, &standing, &mut problems);
        let spans = crate::util::tracer().take();
        let (p1, f1) = (fx.primary.health(), fx.follower.health());
        let st1 = counters.read();
        let n = traced.tick_s.len().max(1) as f64;
        let totals = span_totals(&spans);
        let self_per_tick = |name: &str| totals.get(name).map_or(0.0, |t| t.2 / n);
        for (metric, name) in [
            ("temporal.tag_s", "temporal.tag"),
            ("ir.insert_s", "ir.insert"),
            ("ir.publish_s", "ir.publish"),
            ("replicate.pull_s", "replicate.pull"),
            ("realtime.timeline_s", "realtime.timeline"),
            ("unattributed_s", "tick"),
        ] {
            layers.insert(metric, self_per_tick(name));
        }
        layers.insert(
            "temporal.sentences",
            totals.get("ir.insert").map_or(0.0, |t| t.0 as f64) / n,
        );
        layers.insert("storage.sync_s", (st1.0 - st0.0) / n);
        layers.insert("storage.sync_calls", (st1.1 - st0.1) as f64 / n);
        layers.insert("storage.append_bytes", (st1.2 - st0.2) as f64 / n);
        layers.insert("storage.read_bytes", (st1.3 - st0.3) as f64 / n);
        layers.insert(
            "wal.snapshots_written",
            (p1.snapshots_written + f1.snapshots_written
                - p0.snapshots_written
                - f0.snapshots_written) as f64
                / n,
        );
        layers.insert("wal.retries", (p1.retries - p0.retries) as f64 / n);
        layers.insert("replicate.records", traced.pulled as f64 / n);
        layers.insert("replicate.retries", (f1.retries - f0.retries) as f64 / n);
        let classified = (traced.hits + traced.refreshes + traced.rebuilds).max(1) as f64;
        layers.insert("memo.hit_ratio", traced.hits as f64 / classified);
        layers.insert("memo.refresh_ratio", traced.refreshes as f64 / classified);
        layers.insert("memo.rebuild_ratio", traced.rebuilds as f64 / classified);
        layers.insert(
            "incremental.days_reused_ratio",
            traced.reused as f64 / (traced.reused + traced.recomputed).max(1) as f64,
        );
        layers.insert("incremental.fallbacks", traced.fallbacks as f64 / n);
        layers.insert(
            "pool.executed_tasks",
            (pool.executed_tasks() - exec0) as f64 / n,
        );
        layers.insert(
            "pool.abandoned_tasks",
            (pool.abandoned_tasks() - aband0) as f64 / n,
        );
        layers.insert("timeline_tail_s", percentile(&timed.tick_s, TAIL));
        layers.insert("intake_tail_s", percentile(&timed.ack_s, TAIL));
        layers.insert("visible_p50_s", percentile(&timed.visible_s, 0.5));
        layers.insert("visible_p99_s", percentile(&timed.visible_s, 0.99));
        let total = |p: &Phase| mean(&p.ack_s) + mean(&p.visible_s) + mean(&p.tick_s);
        layers.insert("trace.overhead_s", total(&traced) - total(&timed));
        crate::util::stash_spans(spans);
    }

    // Quality guard: the follower's standing timelines right after set-up
    // (the same engine state for every seed) against the reference they
    // take `T` and `N` from.
    let pairs: Vec<(&Timeline, &Timeline)> = fx
        .initial
        .iter()
        .zip(&ds.topics)
        .map(|(tl, topic)| (tl, &topic.timelines[0]))
        .collect();
    for p in problems {
        out.problem(p);
    }
    out.attempted =
        (timed.tick_s.len() + traced.tick_s.len()) as u64 + timed.failed + traced.failed;
    out.failed = timed.failed + traced.failed;
    out.detail("ticks", timed.tick_s.len().to_json());
    out.detail(
        "visible_p50_s",
        Json::Num(percentile(&timed.visible_s, 0.5)),
    );
    out.detail(
        "visible_tail_s",
        Json::Num(percentile(&timed.visible_s, TAIL)),
    );
    out.detail(
        "timeline_tail_s",
        Json::Num(percentile(&timed.tick_s, TAIL)),
    );
    out.detail("intake_tail_s", Json::Num(percentile(&timed.ack_s, TAIL)));
    out.detail("tail_percentile", Json::Num(TAIL));
    out.detail("preloaded_sentences", fx.preloaded.to_json());
    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_bytes", crate::util::peak_rss_bytes(), "bytes");
        out.metric("timeline_p50_s", percentile(&timed.tick_s, 0.5), "s");
        out.metric("intake_p50_s", percentile(&timed.ack_s, 0.5), "s");
        out.metric("rouge2_align_f1", inputs::rouge2_align_f1(&pairs), "ratio");
    }
    teardown(fx);
}

fn setup(
    dir: &Path,
    bases: &[Vec<Article>],
    standing: &[TimelineQuery],
    trace: bool,
    counters: &Arc<StorageCounters>,
) -> Fixture {
    let _ = std::fs::remove_dir_all(dir);
    let config = WilsonConfig::default();
    let open = |name: &str| -> Arc<dyn Storage> {
        let storage = FileStorage::open(dir.join(name)).expect("open store");
        if trace {
            Arc::new(CountingStorage::new(storage, Arc::clone(counters)))
        } else {
            Arc::new(storage)
        }
    };
    let primary_storage = open("primary");
    let primary = if trace {
        Primary::Staged(
            DurableEngine::open(
                Arc::clone(&primary_storage),
                config.search.clone(),
                config.durability.clone(),
            )
            .expect("open primary engine"),
        )
    } else {
        Primary::System(
            RealTimeSystem::with_storage(Arc::clone(&primary_storage), config.clone())
                .expect("open primary"),
        )
    };
    for base in bases {
        primary.ingest_all(base).expect("preload");
    }
    let follower = Arc::new(
        Follower::open(
            "f1",
            "p0",
            open("follower"),
            primary_storage,
            config.search.clone(),
            config.durability.clone(),
        )
        .expect("open follower"),
    );
    while follower.epoch() != primary.epoch() {
        follower.pull().expect("follower catch-up");
    }
    let reader = RealTimeSystem::follower(Arc::clone(&follower), config);
    let initial = standing
        .iter()
        .map(|q| reader.timeline(q).expect("standing query warm-up"))
        .collect();
    Fixture {
        preloaded: follower.len(),
        primary,
        follower,
        reader,
        initial,
        dir: dir.to_path_buf(),
    }
}

fn teardown(fx: Fixture) {
    let dir = fx.dir.clone();
    drop(fx);
    let _ = std::fs::remove_dir_all(dir);
}

/// Ticks until `seconds` have passed or the held-out articles run out.
fn drive<'a>(
    fx: &Fixture,
    seconds: f64,
    articles: &mut impl Iterator<Item = &'a (usize, Article)>,
    standing: &[TimelineQuery],
    problems: &mut Vec<String>,
) -> Phase {
    let mut phase = Phase::default();
    let mut seen: Vec<Option<IncrementalStats>> = standing
        .iter()
        .map(|q| fx.reader.session_stats(q))
        .collect();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let Some((topic, article)) = articles.next() else {
            problems.push("held-out articles ran out before the phase ended".into());
            break;
        };
        let tick = phase.tick_s.len() + phase.failed as usize;
        let query = &standing[*topic];
        let result = span("tick", || -> Result<(f64, f64, f64, Timeline), String> {
            let t0 = Instant::now();
            span("ingest.ack", || fx.primary.ingest(article))?;
            let t1 = Instant::now();
            let mut pulls = 0;
            while fx.follower.epoch() != fx.primary.epoch() {
                pulls += 1;
                if pulls > MAX_PULLS {
                    return Err(format!(
                        "follower stuck at epoch {} behind primary {}",
                        fx.follower.epoch(),
                        fx.primary.epoch()
                    ));
                }
                phase.pulled +=
                    span("replicate.pull", || fx.follower.pull()).map_err(|e| e.to_string())?;
            }
            let t2 = Instant::now();
            let tl = span("realtime.timeline", || fx.reader.timeline(query))
                .map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            Ok((
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                (t3 - t2).as_secs_f64(),
                tl,
            ))
        });
        let (ack, visible, tick_s, tl) = match result {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("tick {tick}: {e}"));
                phase.failed += 1;
                continue;
            }
        };
        phase.ack_s.push(ack);
        phase.visible_s.push(visible);
        phase.tick_s.push(tick_s);
        progress_done((phase.tick_s.len() + phase.failed as usize) as u64);

        // Checks, outside the timed section.
        if fx.follower.epoch() != fx.primary.epoch() {
            problems.push(format!("tick {tick}: follower epoch differs from primary"));
        }
        if tl.entries.is_empty() {
            problems.push(format!("tick {tick}: empty standing timeline"));
        }
        match fx.reader.session_stats(query) {
            Some(now) => {
                match &seen[*topic] {
                    Some(prev) if now.refreshes == prev.refreshes => phase.hits += 1,
                    Some(prev) if now.refreshes > prev.refreshes => {
                        phase.refreshes += 1;
                        phase.reused += now.days_reused - prev.days_reused;
                        phase.recomputed += now.days_recomputed - prev.days_recomputed;
                        phase.fallbacks += now.dirty_fallbacks + now.residual_fallbacks
                            - prev.dirty_fallbacks
                            - prev.residual_fallbacks;
                    }
                    _ => phase.rebuilds += 1,
                }
                seen[*topic] = Some(now);
            }
            None => problems.push(format!("tick {tick}: standing session missing from memo")),
        }
        if tick.is_multiple_of(CHECK_EVERY) {
            compare_with_primary(fx, query, &tl, tick, problems);
        }
    }
    phase
}

/// The follower must answer exactly like the primary at the same epoch:
/// search hits by id and score bits, and the standing timeline against a
/// full rebuild (the primary's own answer, or a memo-free reader over the
/// follower's snapshot when the primary is staged).
fn compare_with_primary(
    fx: &Fixture,
    query: &TimelineQuery,
    tl: &Timeline,
    tick: usize,
    problems: &mut Vec<String>,
) {
    let q = SearchQuery {
        keywords: query.keywords.clone(),
        range: None,
        limit: 50,
    };
    let follower_hits: Vec<(usize, u64)> = fx
        .reader
        .search(&q)
        .hits
        .iter()
        .map(|(h, _)| (h.id, h.score.to_bits()))
        .collect();
    if follower_hits.is_empty() || follower_hits != fx.primary.hits(&q) {
        problems.push(format!("tick {tick}: follower search differs from primary"));
    }
    let expected = match &fx.primary {
        Primary::System(s) => s.timeline(query),
        Primary::Staged(_) => {
            RealTimeSystem::follower(Arc::clone(&fx.follower), WilsonConfig::default())
                .timeline(query)
        }
    };
    match expected {
        Ok(e) if e.entries == tl.entries => {}
        Ok(_) => problems.push(format!(
            "tick {tick}: follower timeline differs from primary"
        )),
        Err(e) => problems.push(format!("tick {tick}: reference timeline: {e}")),
    }
}
