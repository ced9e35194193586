//! `batch_cold`: the paper's Table 7 use. One caller hands over a topic's
//! articles and waits for a timeline; nothing is cached between calls.
//!
//! Closed loop with one caller, cycling over the 19 reference timelines in
//! a seeded order. Each call runs `tl_corpus::dated_sentences` on the
//! topic's articles and then `Wilson::generate` with the reference's `T`
//! and `N`. Whole cycles only, until `--seconds` have passed, so every run
//! measures the same mixture of topics.

use crate::inputs;
use crate::util::{
    mean, percentile, progress_done, repeated_setup, setup_reps, span, span_totals, sub_seed, Args,
    Outcome,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tl_corpus::{dated_sentences, Article, DatedSentence, Timeline, TimelineGenerator};
use tl_nlp::{SparseVector, TfIdfModel};
use tl_support::json::Json;
use tl_support::pool::Pool;
use tl_support::rng::Rng;
use tl_support::ToJson;
use tl_temporal::Date;
use tl_wilson::postprocess::{assemble_timeline, DayCandidates};
use tl_wilson::textrank::textrank_order;
use tl_wilson::{select_dates, AnalysisCache, DateGraph, Wilson, WilsonConfig};

/// Tail percentile: the highest with at least ten samples beyond it at the
/// 38 calls of a 10 s run (two cycles).
const TAIL: f64 = 0.7;

/// One unit of work: a topic corpus plus the `(T, N)` of one reference.
struct Unit<'a> {
    articles: &'a [Article],
    query: &'a str,
    t: usize,
    n: usize,
    reference: &'a Timeline,
}

/// Per-call samples of one phase.
#[derive(Default)]
struct Phase {
    timeline_s: Vec<f64>,
    intake_s: Vec<f64>,
    /// Digest per unit index, from the first cycle.
    digests: Vec<Option<u64>>,
    timelines: Vec<Option<Timeline>>,
    /// Units whose timeline differed from their first pass.
    changed: Vec<usize>,
    calls: u64,
}

pub fn run(args: &Args, out: &mut Outcome, layers: &mut BTreeMap<&'static str, f64>) {
    let ds = inputs::dataset(inputs::SCALE);
    let units: Vec<Unit> = inputs::references(&ds)
        .into_iter()
        .map(|(ti, rf)| Unit {
            articles: &ds.topics[ti].articles,
            query: &ds.topics[ti].query,
            t: rf.num_dates(),
            n: rf.target_sentences_per_date(),
            reference: rf,
        })
        .collect();
    let mut order: Vec<usize> = (0..units.len()).collect();
    Rng::seed_from_u64(sub_seed(args.seed, 3)).shuffle(&mut order);
    let wilson = Wilson::new(WilsonConfig::default());

    // Set-up: pool warm-up plus one cold timeline (always the first
    // reference, so every seed sets up alike), so first-call costs (worker
    // spawn, allocator growth, lazily built tables) land here and not in the
    // first measured call.
    let first = &units[0];
    let ((), setup_s) = repeated_setup(
        setup_reps(args),
        |_| {
            tl_support::pool::warm_pool();
            let corpus = dated_sentences(first.articles, None);
            black_box(wilson.generate(&corpus, first.query, first.t, first.n));
        },
        drop,
    );

    let timed = measure(args.seconds, &units, &order, |u| {
        let corpus = dated_sentences(u.articles, None);
        let tag_done = Instant::now();
        (wilson.generate(&corpus, u.query, u.t, u.n), tag_done)
    });
    check(&timed, &units, out, "timed");

    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_bytes", crate::util::peak_rss_bytes(), "bytes");
        out.metric("timeline_p50_s", percentile(&timed.timeline_s, 0.5), "s");
        out.metric("intake_p50_s", percentile(&timed.intake_s, 0.5), "s");
        out.metric("rouge2_align_f1", rouge(&timed, &units), "ratio");
        out.attempted = timed.calls;
        out.detail("timelines", timed.calls.to_json());
        out.detail(
            "timeline_tail_s",
            Json::Num(percentile(&timed.timeline_s, TAIL)),
        );
        out.detail(
            "intake_tail_s",
            Json::Num(percentile(&timed.intake_s, TAIL)),
        );
        out.detail("tail_percentile", Json::Num(TAIL));
        return;
    }

    // Traced phase: the same calls, with `Wilson::generate` expanded into
    // the public stage functions it is made of, each inside a span.
    crate::util::tracer().take();
    let pool = Pool::global();
    let (exec0, aband0) = (pool.executed_tasks(), pool.abandoned_tasks());
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let traced = measure(args.seconds, &units, &order, |u| {
        span("batch.timeline", || {
            let corpus = span("temporal.tag", || dated_sentences(u.articles, None));
            let tag_done = Instant::now();
            *counts.entry("temporal.sentences").or_default() += corpus.len() as f64;
            let tl = span("batch.generate", || {
                generate_staged(&wilson, &corpus, u.query, u.t, u.n, &mut counts)
            });
            (tl, tag_done)
        })
    });
    check(&traced, &units, out, "traced");
    layers.insert("timeline_tail_s", percentile(&timed.timeline_s, TAIL));
    layers.insert("intake_tail_s", percentile(&timed.intake_s, TAIL));
    // The staged expansion must reproduce `Wilson::generate` exactly.
    for (i, (a, b)) in timed.digests.iter().zip(&traced.digests).enumerate() {
        if a.is_some() && b.is_some() && a != b {
            out.problem(format!(
                "unit {i}: staged pipeline differs from Wilson::generate"
            ));
        }
    }
    out.attempted = timed.calls + traced.calls;

    let calls = traced.calls as f64;
    let spans = crate::util::tracer().take();
    let totals = span_totals(&spans);
    crate::util::stash_spans(spans);
    let self_per_call = |name: &str| totals.get(name).map_or(0.0, |t| t.2 / calls);
    for (metric, name) in [
        ("temporal.tag_s", "temporal.tag"),
        ("nlp.analyze_s", "nlp.analyze"),
        ("dategraph.build_s", "dategraph.build"),
        ("dateselect.select_s", "dateselect.select"),
        ("textrank.rank_s", "textrank.rank"),
        ("postprocess.vectors_s", "postprocess.vectors"),
        ("postprocess.assemble_s", "postprocess.assemble"),
        ("batch.unattributed_s", "batch.generate"),
        ("unattributed_s", "batch.timeline"),
    ] {
        layers.insert(metric, self_per_call(name));
    }
    for (name, total) in counts {
        layers.insert(name, total / calls);
    }
    layers.insert(
        "pool.executed_tasks",
        (pool.executed_tasks() - exec0) as f64 / calls,
    );
    layers.insert(
        "pool.abandoned_tasks",
        (pool.abandoned_tasks() - aband0) as f64 / calls,
    );
    layers.insert(
        "trace.overhead_s",
        mean(&traced.timeline_s) - mean(&timed.timeline_s),
    );
    out.detail("timelines", calls.to_json());
}

/// Closed loop over whole cycles of `order` until `seconds` have passed.
fn measure(
    seconds: f64,
    units: &[Unit],
    order: &[usize],
    mut call: impl FnMut(&Unit) -> (Timeline, Instant),
) -> Phase {
    let mut phase = Phase {
        digests: vec![None; units.len()],
        timelines: vec![None; units.len()],
        ..Phase::default()
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for &i in order {
            let t0 = Instant::now();
            let (tl, tag_done) = call(&units[i]);
            let t1 = Instant::now();
            phase.timeline_s.push((t1 - t0).as_secs_f64());
            phase.intake_s.push((tag_done - t0).as_secs_f64());
            phase.calls += 1;
            progress_done(phase.calls);
            let d = inputs::digest(&tl);
            match phase.digests[i] {
                None => {
                    phase.digests[i] = Some(d);
                    phase.timelines[i] = Some(tl);
                }
                Some(prev) if prev != d => phase.changed.push(i),
                Some(_) => {}
            }
        }
    }
    phase
}

fn check(phase: &Phase, units: &[Unit], out: &mut Outcome, label: &str) {
    for i in &phase.changed {
        out.problem(format!(
            "{label}: unit {i}: timeline digest changed between passes"
        ));
    }
    for (i, (tl, u)) in phase.timelines.iter().zip(units).enumerate() {
        let Some(tl) = tl else {
            out.problem(format!("{label}: unit {i} never ran"));
            continue;
        };
        if tl.num_dates() == 0 || tl.num_dates() > u.t {
            out.problem(format!(
                "{label}: unit {i}: {} dates for T={}",
                tl.num_dates(),
                u.t
            ));
        }
        if tl
            .entries
            .iter()
            .any(|(_, s)| s.is_empty() || s.len() > u.n)
        {
            out.problem(format!("{label}: unit {i}: a day breaks N={}", u.n));
        }
    }
}

/// Mean align m:1 ROUGE-2 F1 of the first cycle's timelines against their
/// references (outside the timed section).
fn rouge(phase: &Phase, units: &[Unit]) -> f64 {
    let pairs: Vec<(&Timeline, &Timeline)> = phase
        .timelines
        .iter()
        .zip(units)
        .filter_map(|(tl, u)| tl.as_ref().map(|tl| (tl, u.reference)))
        .collect();
    inputs::rouge2_align_f1(&pairs)
}

/// `Wilson::generate` expanded into its public stages (`summarize.rs`), each
/// in a span, with the stage's work counts added to `counts`.
fn generate_staged(
    wilson: &Wilson,
    sentences: &[DatedSentence],
    query: &str,
    t: usize,
    n: usize,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Timeline {
    let cfg = wilson.config();
    let (cache, query_tokens) = span("nlp.analyze", || {
        let (cache, analyzer) = AnalysisCache::build(sentences, cfg.analysis_parallel);
        let q = analyzer.analyze_frozen(query);
        (cache, q)
    });
    *counts.entry("nlp.tokens").or_default() +=
        cache.tokens().iter().map(Vec::len).sum::<usize>() as f64;
    let graph = span("dategraph.build", || {
        DateGraph::build_analyzed(sentences, cache.tokens(), &query_tokens)
    });
    *counts.entry("dategraph.edges").or_default() += graph.num_edges() as f64;
    let dates = span("dateselect.select", || {
        select_dates(&graph, cfg.edge_weight, &cfg.date_strategy, t, cfg.damping)
    });
    let vectors: Vec<SparseVector> = span("postprocess.vectors", || {
        let tfidf = TfIdfModel::fit(cache.tokens().iter().map(Vec::as_slice));
        cache
            .tokens()
            .iter()
            .map(|t| tfidf.unit_vector(t))
            .collect()
    });
    let day_indices: Vec<(Date, &[usize])> = dates
        .iter()
        .filter_map(|d| cache.by_date().get(d).map(|ix| (*d, ix.as_slice())))
        .collect();
    *counts.entry("textrank.days").or_default() += day_indices.len() as f64;
    let tokens = cache.tokens();
    let rank_one = |(date, indices): &(Date, &[usize])| -> DayCandidates {
        let toks: Vec<&[u32]> = indices.iter().map(|&i| tokens[i].as_slice()).collect();
        let order = textrank_order(&toks, cfg.damping);
        DayCandidates {
            date: *date,
            ranked: order.into_iter().map(|k| indices[k]).collect(),
        }
    };
    let mut days: Vec<DayCandidates> = span("textrank.rank", || {
        if cfg.parallel && day_indices.len() > 1 {
            tl_support::par::par_map(&day_indices, rank_one)
        } else {
            day_indices.iter().map(rank_one).collect()
        }
    });
    days.sort_by_key(|d| d.date);
    let entries = span("postprocess.assemble", || {
        assemble_timeline(&days, &vectors, n, cfg.sim_threshold, cfg.post_process)
    });
    Timeline::new(
        entries
            .into_iter()
            .filter(|(_, sel)| !sel.is_empty())
            .map(|(date, sel)| {
                (
                    date,
                    sel.into_iter().map(|i| sentences[i].text.clone()).collect(),
                )
            })
            .collect(),
    )
}
