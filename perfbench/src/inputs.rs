//! Seeded inputs shared by the workloads: the Timeline17-profile corpus,
//! held-out articles for ingestion, and the query pools.

use crate::util::sub_seed;
use tl_corpus::{generate, Article, Dataset, SynthConfig, Timeline, TopicCorpus};
use tl_support::rng::Rng;
use tl_temporal::Date;

/// Corpus scale: 9 topics of ~11k raw (~14k dated) sentences each.
pub const SCALE: f64 = 0.3;

/// The Timeline17-profile synthetic corpus at `scale`, with the profile's
/// own seed. The corpus is the same for every run: corpora drawn from other
/// seeds differ in peak memory by up to 60% and in tail latency by 15%,
/// more than the bounds a comparison can afford. The run seed varies what
/// a user varies instead: the order, timing and choice of operations.
pub fn dataset(scale: f64) -> Dataset {
    generate(&SynthConfig::timeline17().with_scale(scale))
}

/// First and last publication day over the whole dataset.
pub fn span(ds: &Dataset) -> (Date, Date) {
    let spans: Vec<(Date, Date)> = ds.topics.iter().filter_map(TopicCorpus::span).collect();
    let lo = spans.iter().map(|s| s.0).min().expect("non-empty corpus");
    let hi = spans.iter().map(|s| s.1).max().expect("non-empty corpus");
    (lo, hi)
}

/// Split each topic's articles into a preloaded base and held-out tail: the
/// `held` latest-published articles of every topic are held out. Returns
/// `(base per topic, held-out articles)`. The held-out list goes round by
/// round, each round visiting every topic once in an order drawn from
/// `seed`, so ingesting it in order alternates topics and moves every topic
/// forward in publication order.
pub fn hold_out(
    ds: &Dataset,
    held: usize,
    seed: u64,
) -> (Vec<Vec<Article>>, Vec<(usize, Article)>) {
    let mut bases = Vec::new();
    let mut tails = Vec::new();
    for topic in &ds.topics {
        let mut arts = topic.articles.clone();
        arts.sort_by_key(|a| (a.pub_date, a.id));
        let cut = arts.len().saturating_sub(held);
        let tail = arts.split_off(cut);
        bases.push(arts);
        tails.push(tail);
    }
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 1));
    let mut round_robin = Vec::new();
    let mut topics: Vec<usize> = (0..tails.len()).collect();
    for i in 0..held {
        rng.shuffle(&mut topics);
        for &t in &topics {
            if let Some(a) = tails[t].get(i) {
                round_robin.push((t, a.clone()));
            }
        }
    }
    (bases, round_robin)
}

/// Every keyword subset of a topic query with at least `min` words, in a
/// fixed order.
pub fn keyword_subsets(query: &str, min: usize) -> Vec<String> {
    let words: Vec<&str> = query.split_whitespace().collect();
    let mut out = Vec::new();
    for mask in 1u32..(1 << words.len()) {
        if mask.count_ones() as usize >= min {
            let picked: Vec<&str> = (0..words.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| words[i])
                .collect();
            out.push(picked.join(" "));
        }
    }
    out
}

/// One `/timeline` query of the serve pool.
#[derive(Debug, Clone)]
pub struct TimelineSpec {
    pub keywords: String,
    pub window: (Date, Date),
    pub num_dates: usize,
}

/// The serve-mix timeline pool: topic keyword subsets (2+ words) × four
/// 60-day windows × `num_dates` ∈ {10, 20} — 792 distinct queries, far more
/// than the 64-entry session memo — in a fixed shuffled order that decides
/// which queries the Zipf draw makes popular.
pub fn timeline_pool(ds: &Dataset) -> Vec<TimelineSpec> {
    let (lo, _) = span(ds);
    let mut pool = Vec::new();
    for topic in &ds.topics {
        for keywords in keyword_subsets(&topic.query, 2) {
            for w in 0..4 {
                let from = lo.plus_days(60 * w);
                for num_dates in [10, 20] {
                    pool.push(TimelineSpec {
                        keywords: keywords.clone(),
                        window: (from, from.plus_days(59)),
                        num_dates,
                    });
                }
            }
        }
    }
    Rng::seed_from_u64(2).shuffle(&mut pool);
    pool
}

/// The serve-mix search pool: every keyword subset of every topic query.
pub fn search_pool(ds: &Dataset) -> Vec<String> {
    ds.topics
        .iter()
        .flat_map(|t| keyword_subsets(&t.query, 1))
        .collect()
}

/// Zipf sampler over ranks `0..n` with exponent `s` (inverse-CDF table).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Reference timelines with the `(T, N)` a user would ask for, as
/// `(topic index, reference)` pairs.
pub fn references(ds: &Dataset) -> Vec<(usize, &Timeline)> {
    ds.topics
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.timelines.iter().map(move |tl| (i, tl)))
        .collect()
}

/// Mean align m:1 ROUGE-2 F1 of `(system, reference)` pairs.
pub fn rouge2_align_f1(pairs: &[(&Timeline, &Timeline)]) -> f64 {
    let mut rouge = tl_rouge::TimelineRouge::new();
    let f1: Vec<f64> = pairs
        .iter()
        .map(|(sys, rf)| {
            rouge
                .rouge_n(
                    2,
                    tl_rouge::TimelineRougeMode::AlignMto1,
                    &sys.entries,
                    &rf.entries,
                )
                .f1
        })
        .collect();
    crate::util::mean(&f1)
}

/// Order-sensitive digest of a timeline's dates and sentences.
pub fn digest(tl: &Timeline) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tl.entries.hash(&mut h);
    h.finish()
}
