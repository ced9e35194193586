//! Substrate micro-benchmarks: every stage of the WILSON pipeline in
//! isolation, so a regression in any component is attributable.
//!
//! Run with `cargo test -q -p tl-bench -- --ignored --nocapture`.

use std::hint::black_box;
use tl_bench::{bench_reported, timeline17_corpus};
use tl_embed::{affinity_propagation, AffinityPropagationConfig, SentenceEmbedder};
use tl_graph::{pagerank, DiGraph, PageRankConfig};
use tl_ir::{Bm25Params, Bm25Scorer};
use tl_nlp::{allpairs_cosine, pairwise_reference, AnalysisOptions, Analyzer, SparseVector, TfIdfModel};
use tl_rouge::RougeScorer;
use tl_temporal::{Date, TemporalTagger};

/// Dispatch-overhead microbench for the thread pool: `par_map` on
/// the spawn-once pool vs the pre-pool `scoped_map` (one OS thread spawn
/// per chunk, per call), at a fixed chunk count of 4 so both sides schedule
/// identical work. Small batches isolate pure dispatch cost; the large
/// batch shows it amortized.
#[test]
#[ignore = "benchmark"]
fn bench_pool() {
    use tl_support::par::{par_map_threads, scoped_map};
    use tl_support::rng::splitmix64;
    let churn = |&seed: &u64| {
        let mut state = seed;
        let mut acc = 0u64;
        for _ in 0..32 {
            acc ^= splitmix64(&mut state);
        }
        acc
    };
    tl_support::pool::warm_pool();
    for n in [64usize, 4096] {
        let xs: Vec<u64> = (0..n as u64).collect();
        bench_reported(
            "BENCH_components.json",
            &format!("pool/par_map_c4_n{n}"),
            || {
                black_box(par_map_threads(&xs, 4, churn));
            },
        );
        bench_reported(
            "BENCH_components.json",
            &format!("pool/scoped_spawn_c4_n{n}"),
            || {
                black_box(scoped_map(&xs, 4, churn));
            },
        );
    }
}

#[test]
#[ignore = "benchmark"]
fn bench_pagerank() {
    for &n in &[100usize, 400, 1600] {
        // Ring + chords: sparse but connected.
        let mut g = DiGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 1.0);
            g.add_edge(i, (i * 7 + 3) % n, 0.5);
        }
        bench_reported("BENCH_components.json", &format!("pagerank/{n}"), || {
            black_box(pagerank(&g, &PageRankConfig::default()));
        });
    }
}

#[test]
#[ignore = "benchmark"]
fn bench_analysis_and_tagging() {
    let corpus = timeline17_corpus(0.02);
    let texts: Vec<&str> = corpus
        .sentences
        .iter()
        .take(2000)
        .map(|s| s.text.as_str())
        .collect();
    bench_reported("BENCH_components.json", "analyze_2000_sentences", || {
        let mut a = Analyzer::new(AnalysisOptions::retrieval());
        for t in &texts {
            black_box(a.analyze(t));
        }
    });
    let dct = Date::from_ymd(2011, 6, 1).expect("valid");
    let tagger = TemporalTagger::new();
    bench_reported("BENCH_components.json", "tag_2000_sentences", || {
        for t in &texts {
            black_box(tagger.tag(t, dct));
        }
    });
}

#[test]
#[ignore = "benchmark"]
fn bench_bm25() {
    let corpus = timeline17_corpus(0.02);
    let mut analyzer = Analyzer::new(AnalysisOptions::retrieval());
    let docs: Vec<Vec<u32>> = corpus
        .sentences
        .iter()
        .take(1000)
        .map(|s| analyzer.analyze(&s.text))
        .collect();
    let scorer = Bm25Scorer::fit(docs.iter().map(Vec::as_slice), Bm25Params::default());
    let query = analyzer.analyze_frozen(&corpus.query);
    bench_reported("BENCH_components.json", "bm25_score_1000_docs", || {
        let mut acc = 0.0;
        for d in &docs {
            acc += scorer.score(&query, d);
        }
        black_box(acc);
    });
}

#[test]
#[ignore = "benchmark"]
fn bench_rouge() {
    let corpus = timeline17_corpus(0.02);
    let sys: String = corpus
        .sentences
        .iter()
        .take(80)
        .map(|s| s.text.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    let reference: String = corpus
        .sentences
        .iter()
        .skip(80)
        .take(80)
        .map(|s| s.text.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    bench_reported("BENCH_components.json", "rouge2_80_sentences", || {
        let mut r = RougeScorer::new();
        black_box(r.rouge_2(&sys, &reference));
    });
    bench_reported("BENCH_components.json", "rouge_s_star_80_sentences", || {
        let mut r = RougeScorer::new();
        black_box(r.rouge_s_star(&sys, &reference));
    });
}

#[test]
#[ignore = "benchmark"]
fn bench_affinity() {
    let corpus = timeline17_corpus(0.1);
    let mut embedder = SentenceEmbedder::new(256);
    for &n in &[120usize, 500, 1000] {
        let vectors: Vec<Vec<f64>> = corpus
            .sentences
            .iter()
            .take(n)
            .map(|s| embedder.embed(&s.text))
            .collect();
        assert_eq!(vectors.len(), n, "corpus too small for {n}-point bench");
        let sim = tl_embed::cosine_matrix(&vectors, true);
        bench_reported(
            "BENCH_components.json",
            &format!("affinity_propagation_{n}"),
            || {
                black_box(affinity_propagation(
                    &sim,
                    &AffinityPropagationConfig::default(),
                ));
            },
        );
    }
}

/// The all-pairs cosine kernel against its quadratic reference, on the
/// TF-IDF unit vectors the TILSE baselines actually feed it (threshold 0.0
/// stores every positive pair — the worst case for the sparse sweep).
#[test]
#[ignore = "benchmark"]
fn bench_allpairs_kernel() {
    let corpus = timeline17_corpus(0.1);
    for &n in &[1000usize, 4000] {
        let mut analyzer = Analyzer::new(AnalysisOptions::retrieval());
        let tokens: Vec<Vec<u32>> = corpus
            .sentences
            .iter()
            .take(n)
            .map(|s| analyzer.analyze(&s.text))
            .collect();
        assert_eq!(tokens.len(), n, "corpus too small for {n}-sentence bench");
        let tfidf = TfIdfModel::fit(tokens.iter().map(Vec::as_slice));
        let vectors: Vec<SparseVector> = tokens.iter().map(|t| tfidf.unit_vector(t)).collect();
        bench_reported(
            "BENCH_components.json",
            &format!("allpairs/pairwise_{n}"),
            || {
                black_box(pairwise_reference(&vectors, 0.0));
            },
        );
        bench_reported(
            "BENCH_components.json",
            &format!("allpairs/kernel_serial_{n}"),
            || {
                black_box(allpairs_cosine(&vectors, 0.0, false));
            },
        );
        bench_reported(
            "BENCH_components.json",
            &format!("allpairs/kernel_parallel_{n}"),
            || {
                black_box(allpairs_cosine(&vectors, 0.0, true));
            },
        );
    }
}
