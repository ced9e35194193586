//! The composed analysis pipeline: tokenize → lowercase → (stopword filter)
//! → (Porter stem) → intern.
//!
//! Every consumer in the workspace (BM25, TextRank, ROUGE, embeddings,
//! baselines) runs sentences through an [`Analyzer`] so that term ids are
//! consistent across components that share a vocabulary.

use crate::stem::porter_stem;
use crate::stopwords::is_stopword;
use crate::tokenize::spans;
use crate::vocab::{TermId, Vocabulary};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of full [`Analyzer::analyze`] calls (the frozen
/// variants are not counted — they never tokenize *new* corpus material
/// into the vocabulary).
///
/// This is a diagnostic hook: the single-pass tests in `tl-wilson` read it
/// before and after a pipeline run to prove the corpus is tokenized exactly
/// once. The counter is monotonically increasing and shared by every
/// analyzer in the process, so only deltas are meaningful, and only in
/// tests that own their process (integration-test binaries).
static ANALYZE_CALLS: AtomicU64 = AtomicU64::new(0);

/// Current value of the process-wide [`Analyzer::analyze`] call counter.
pub fn analyze_call_count() -> u64 {
    ANALYZE_CALLS.load(Ordering::Relaxed)
}

/// Options controlling the analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Drop English stopwords before interning.
    pub remove_stopwords: bool,
    /// Apply Porter stemming.
    pub stem: bool,
    /// Drop pure-punctuation tokens.
    pub drop_punctuation: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            remove_stopwords: true,
            stem: true,
            drop_punctuation: true,
        }
    }
}

impl AnalysisOptions {
    /// ROUGE-style analysis: stem but keep stopwords (ROUGE-1.5.5 default
    /// keeps stopwords unless `-s` is passed).
    pub fn rouge() -> Self {
        Self {
            remove_stopwords: false,
            stem: true,
            drop_punctuation: true,
        }
    }

    /// Retrieval-style analysis: stem and remove stopwords.
    pub fn retrieval() -> Self {
        Self::default()
    }

    /// Raw surface tokens: no stemming, no stopword removal.
    pub fn surface() -> Self {
        Self {
            remove_stopwords: false,
            stem: false,
            drop_punctuation: true,
        }
    }
}

/// A stateful analyzer owning a [`Vocabulary`].
#[derive(Debug, Default, Clone)]
pub struct Analyzer {
    vocab: Vocabulary,
    options: AnalysisOptions,
}

impl Analyzer {
    /// Create an analyzer with the given options.
    pub fn new(options: AnalysisOptions) -> Self {
        Self {
            vocab: Vocabulary::new(),
            options,
        }
    }

    /// Create an analyzer over an existing vocabulary (the merge phase of
    /// [`crate::batch::analyze_batch`] builds the vocabulary separately).
    pub fn with_vocab(vocab: Vocabulary, options: AnalysisOptions) -> Self {
        Self { vocab, options }
    }

    /// The options this analyzer applies.
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// Immutable access to the underlying vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Analyze `text` into interned term ids, growing the vocabulary.
    pub fn analyze(&mut self, text: &str) -> Vec<TermId> {
        ANALYZE_CALLS.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        for tok in spans(text) {
            if self.options.drop_punctuation && !tok.text.chars().any(char::is_alphanumeric) {
                continue;
            }
            let lower = tok.text.to_lowercase();
            if self.options.remove_stopwords && is_stopword(&lower) {
                continue;
            }
            let term = if self.options.stem {
                porter_stem(&lower)
            } else {
                lower
            };
            out.push(self.vocab.intern(&term));
        }
        out
    }

    /// Like [`Analyzer::analyze_frozen`] but *strict*: returns `None` if
    /// any surviving (non-stopword, non-punctuation) term is absent from
    /// the vocabulary. Phrase queries need this — silently dropping an
    /// unseen word would turn `"south korea"` into `"korea"`.
    pub fn analyze_frozen_strict(&self, text: &str) -> Option<Vec<TermId>> {
        let mut out = Vec::new();
        for tok in spans(text) {
            if self.options.drop_punctuation && !tok.text.chars().any(char::is_alphanumeric) {
                continue;
            }
            let lower = tok.text.to_lowercase();
            if self.options.remove_stopwords && is_stopword(&lower) {
                continue;
            }
            let term = if self.options.stem {
                porter_stem(&lower)
            } else {
                lower
            };
            out.push(self.vocab.get(&term)?);
        }
        Some(out)
    }

    /// Run the full analysis chain (tokenize → lowercase → stopword filter
    /// → stem) but return the surviving term *strings* instead of interned
    /// ids, touching neither the vocabulary nor the process-wide call
    /// counter. This is the read-only path for consumers that key on term
    /// text (e.g. feature-hashed embeddings): any number of threads can
    /// call it on a shared `&Analyzer` with no lock.
    pub fn analyze_terms(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for tok in spans(text) {
            if self.options.drop_punctuation && !tok.text.chars().any(char::is_alphanumeric) {
                continue;
            }
            let lower = tok.text.to_lowercase();
            if self.options.remove_stopwords && is_stopword(&lower) {
                continue;
            }
            let term = if self.options.stem {
                porter_stem(&lower)
            } else {
                lower
            };
            out.push(term);
        }
        out
    }

    /// Analyze without growing the vocabulary; unseen terms are dropped.
    /// Used when scoring queries against a frozen index.
    pub fn analyze_frozen(&self, text: &str) -> Vec<TermId> {
        let mut out = Vec::new();
        for tok in spans(text) {
            if self.options.drop_punctuation && !tok.text.chars().any(char::is_alphanumeric) {
                continue;
            }
            let lower = tok.text.to_lowercase();
            if self.options.remove_stopwords && is_stopword(&lower) {
                continue;
            }
            let term = if self.options.stem {
                porter_stem(&lower)
            } else {
                lower
            };
            if let Some(id) = self.vocab.get(&term) {
                out.push(id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_removes_stopwords_and_stems() {
        let mut a = Analyzer::new(AnalysisOptions::default());
        let ids = a.analyze("The investigations are continuing.");
        // "the", "are" dropped; "investigations" -> investig, "continuing" -> continu
        assert_eq!(ids.len(), 2);
        assert_eq!(a.vocab().term(ids[0]), Some("investig"));
        assert_eq!(a.vocab().term(ids[1]), Some("continu"));
    }

    #[test]
    fn rouge_pipeline_keeps_stopwords() {
        let mut a = Analyzer::new(AnalysisOptions::rouge());
        let ids = a.analyze("The summit happened.");
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn surface_pipeline_keeps_inflection() {
        let mut a = Analyzer::new(AnalysisOptions::surface());
        let ids = a.analyze("meetings");
        assert_eq!(a.vocab().term(ids[0]), Some("meetings"));
    }

    #[test]
    fn shared_vocab_across_sentences() {
        let mut a = Analyzer::new(AnalysisOptions::default());
        let x = a.analyze("nuclear summit");
        let y = a.analyze("the summit");
        assert_eq!(x[1], y[0], "summit must intern to the same id");
    }

    #[test]
    fn frozen_drops_unseen() {
        let mut a = Analyzer::new(AnalysisOptions::default());
        a.analyze("nuclear summit");
        let before = a.vocab().len();
        let ids = a.analyze_frozen("nuclear missile");
        assert_eq!(ids.len(), 1); // "missile" unseen, dropped
        assert_eq!(a.vocab().len(), before);
    }

    #[test]
    fn analyze_terms_matches_analyze() {
        let mut a = Analyzer::new(AnalysisOptions::default());
        let text = "The investigations are continuing near the border-crossing.";
        let ids = a.analyze(text);
        let terms = a.analyze_terms(text);
        let resolved: Vec<&str> = ids.iter().map(|&id| a.vocab().term(id).unwrap()).collect();
        assert_eq!(terms, resolved);
        // Read-only: no vocabulary growth.
        let before_len = a.vocab().len();
        let _ = a.analyze_terms("entirely novel wording zebra quark");
        assert_eq!(a.vocab().len(), before_len);
        // No counter bump. The counter is process-wide and sibling unit
        // tests analyze concurrently, so look for one call during which it
        // stayed put. Every attempt is a first call — a fresh analyzer and
        // words no earlier attempt used — so a version that bumps the
        // counter, even only on unseen text, fails every attempt.
        let untouched = (1..=100).any(|k| {
            let mut fresh = Analyzer::new(AnalysisOptions::default());
            fresh.analyze(text);
            let novel = format!("entirely novel wording {}", "zq".repeat(k));
            let before_calls = analyze_call_count();
            let _ = fresh.analyze_terms(&novel);
            analyze_call_count() == before_calls
        });
        assert!(untouched, "analyze_terms bumped the analyze counter");
    }

    #[test]
    fn punctuation_dropped() {
        let mut a = Analyzer::new(AnalysisOptions::surface());
        let ids = a.analyze("wait - what ?!");
        assert_eq!(ids.len(), 2);
    }
}

#[cfg(test)]
mod strict_tests {
    use super::*;

    #[test]
    fn strict_rejects_unseen_terms() {
        let mut a = Analyzer::new(AnalysisOptions::default());
        a.analyze("north korea summit");
        assert!(a.analyze_frozen_strict("north korea").is_some());
        assert!(a.analyze_frozen_strict("south korea").is_none());
        // Stopwords and punctuation never disqualify.
        assert_eq!(
            a.analyze_frozen_strict("the summit!").map(|v| v.len()),
            Some(1)
        );
        // Empty input is trivially satisfiable.
        assert_eq!(a.analyze_frozen_strict(""), Some(vec![]));
    }
}
