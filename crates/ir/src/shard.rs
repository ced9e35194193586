//! The sharded, concurrently-readable search engine — §5 at scale.
//!
//! [`crate::search::SearchEngine`] is single-threaded and its `&mut self`
//! ingestion blocks every reader. This module scales the same query surface
//! across cores without changing a single answer:
//!
//! * **Sharding** — documents are routed to one of N shards by a stable
//!   hash of their global sentence id ([`shard_of`]); each shard keeps its
//!   own inverted + positional index. Queries fan out over the shards (via
//!   `tl_support::par`) and the per-shard hit lists are merged with a
//!   deterministic `(score desc, doc id asc)` tie-break.
//! * **Global statistics** — BM25 idf and length normalization always use
//!   *corpus-wide* document frequencies and average length, never per-shard
//!   ones, and every per-document float accumulates contributions in
//!   ascending distinct-term order — the exact summation order of
//!   [`crate::index::InvertedIndex::rank`]. Together with the merge rule
//!   this makes sharded output **bit-identical** to the single-shard
//!   reference for every query type (keyword, quoted phrase, date-range);
//!   `tests/sharded_differential.rs` pins the equivalence.
//! * **Snapshot reads** — ingestion builds into a pending delta inside the
//!   writer and [`ShardedSearchEngine::publish`] atomically swaps an
//!   immutable, `Arc`-shared [`EngineSnapshot`] carrying a monotone epoch.
//!   Readers clone the `Arc` once and then query entirely without locks, so
//!   concurrent inserts never block (or tear) a running query, and
//!   epoch-keyed memoization layered on top stays correct. Publishing is
//!   proportional to the *delta*, not the corpus: each shard is a list of
//!   sealed segments shared across snapshots by `Arc` plus a small mutable
//!   tail, the vocabulary is copy-on-write, and the document-frequency
//!   table is a dense memcpy-able vector — so a one-article epoch bump
//!   costs microseconds even over a 100k-sentence index.
//! * **Graceful degradation** — an optional per-query wall-clock budget
//!   ([`ShardedSearchConfig::query_timeout`]): shard 0 is always answered
//!   on the calling thread; other shards that miss the deadline are dropped
//!   from the merge (counted in [`ShardedSearchEngine::degraded_queries`]),
//!   so an overloaded engine returns a partial answer instead of blocking.

use crate::bm25::Bm25Params;
use crate::index::{DocId, InvertedIndex};
use crate::positional::{split_query, PositionalIndex};
use crate::search::{SearchHit, SearchQuery, StoredSentence};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;
use tl_nlp::vocab::TermId;
use tl_nlp::{AnalysisOptions, Analyzer};
use tl_support::par::{par_map, par_map_deadline};
use tl_support::rng::splitmix64;
use tl_temporal::Date;

/// How per-shard hit lists are combined into the final ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MergePolicy {
    /// Descending BM25 score, ties broken by ascending global doc id — the
    /// order of the single-shard reference engine (bit-identical output).
    #[default]
    ScoreThenId,
    /// Ascending global doc id (insertion order). Each shard still
    /// contributes its top-`limit` *scored* hits, but the merged page reads
    /// chronologically — useful for feed-style consumers. Not comparable
    /// to the reference ranking.
    InsertionOrder,
}

/// Configuration for [`ShardedSearchEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedSearchConfig {
    /// Number of index shards (clamped to at least 1).
    pub num_shards: usize,
    /// Result merge policy.
    pub merge: MergePolicy,
    /// Optional per-query wall-clock budget. `None` waits for every shard
    /// (fully deterministic); `Some(d)` degrades gracefully: shard 0 always
    /// answers, shards missing the deadline are dropped from the merge.
    pub query_timeout: Option<Duration>,
}

impl Default for ShardedSearchConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            merge: MergePolicy::ScoreThenId,
            query_timeout: None,
        }
    }
}

impl ShardedSearchConfig {
    /// A single-shard configuration (the degenerate case; still goes
    /// through the snapshot machinery).
    pub fn single() -> Self {
        Self {
            num_shards: 1,
            ..Self::default()
        }
    }

    /// Builder-style shard-count override.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.num_shards = n;
        self
    }

    /// Builder-style query-timeout override.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.query_timeout = timeout;
        self
    }
}

/// Stable shard assignment: a SplitMix64 hash of the global sentence id,
/// reduced mod `num_shards`. Stable across runs and platforms, independent
/// of shard-local state, and uncorrelated with insertion order so shards
/// stay balanced.
pub fn shard_of(id: DocId, num_shards: usize) -> usize {
    let mut state = id as u64;
    (splitmix64(&mut state) % num_shards.max(1) as u64) as usize
}

/// A query answer plus the flag saying whether it is complete.
///
/// `partial == true` means at least one shard missed the query deadline and
/// was dropped from the merge: the hits are a correct *subset* of the full
/// answer but must not be treated (or cached) as authoritative.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The merged hits (complete, or a shard-0-anchored subset).
    pub hits: Vec<SearchHit>,
    /// True when any shard was dropped for missing the deadline.
    pub partial: bool,
}

/// Operational telemetry for the engine and (when wrapped by
/// `wal::DurableEngine`) its durability layer. Plain data — cheap to build,
/// compare and print.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Published epoch (= published sentence count).
    pub epoch: usize,
    /// Number of shards.
    pub num_shards: usize,
    /// Queries answered partially because some shard missed its deadline.
    pub degraded_queries: u64,
    /// Deadline misses per shard (index = shard id; shard 0 never times
    /// out — it answers on the calling thread).
    pub shard_timeouts: Vec<u64>,
    /// WAL/snapshot records replayed at the last recovery (0 = volatile).
    pub wal_replayed: u64,
    /// Number of non-empty recoveries performed.
    pub recoveries: u64,
    /// Published epoch reached by the most recent recovery.
    pub last_recovery_epoch: u64,
    /// Torn/corrupt WAL tails truncated during recovery.
    pub truncated_tails: u64,
    /// Storage operations retried after an error.
    pub retries: u64,
    /// Compacted snapshots written.
    pub snapshots_written: u64,
    /// Replication role: `"primary"` for a writable engine (including a
    /// standalone one — it accepts writes), `"follower"` for a read-only
    /// replica.
    pub role: String,
    /// Bounded staleness: how many published epochs this node trails the
    /// primary by (always 0 on the primary itself).
    pub epochs_behind: u64,
}

impl tl_support::ToJson for HealthReport {
    fn to_json(&self) -> tl_support::Json {
        tl_support::json::obj(vec![
            ("epoch", self.epoch.to_json()),
            ("num_shards", self.num_shards.to_json()),
            ("degraded_queries", self.degraded_queries.to_json()),
            ("shard_timeouts", self.shard_timeouts.to_json()),
            ("wal_replayed", self.wal_replayed.to_json()),
            ("recoveries", self.recoveries.to_json()),
            ("last_recovery_epoch", self.last_recovery_epoch.to_json()),
            ("truncated_tails", self.truncated_tails.to_json()),
            ("retries", self.retries.to_json()),
            ("snapshots_written", self.snapshots_written.to_json()),
            ("role", self.role.to_json()),
            ("epochs_behind", self.epochs_behind.to_json()),
        ])
    }
}

impl tl_support::FromJson for HealthReport {
    fn from_json(v: &tl_support::Json) -> Result<Self, tl_support::JsonError> {
        Ok(Self {
            epoch: usize::from_json(v.field("epoch")?)?,
            num_shards: usize::from_json(v.field("num_shards")?)?,
            degraded_queries: u64::from_json(v.field("degraded_queries")?)?,
            shard_timeouts: Vec::<u64>::from_json(v.field("shard_timeouts")?)?,
            wal_replayed: u64::from_json(v.field("wal_replayed")?)?,
            recoveries: u64::from_json(v.field("recoveries")?)?,
            last_recovery_epoch: u64::from_json(v.field("last_recovery_epoch")?)?,
            truncated_tails: u64::from_json(v.field("truncated_tails")?)?,
            retries: u64::from_json(v.field("retries")?)?,
            snapshots_written: u64::from_json(v.field("snapshots_written")?)?,
            role: String::from_json(v.field("role")?)?,
            epochs_behind: u64::from_json(v.field("epochs_behind")?)?,
        })
    }
}

/// Documents per sealed segment. Small enough that cloning one in-progress
/// tail per shard at publish time is cheap (publish cost is O(tail), not
/// O(corpus)); large enough that a 100k-sentence shard stays under a few
/// hundred segments.
const SEGMENT_SIZE: usize = 64;

/// Minimum tail size worth sealing early at publish time. Publishing seals
/// any tail at least this large even though it hasn't reached
/// [`SEGMENT_SIZE`], so the per-publish deep copy stays bounded by this
/// constant per shard regardless of how ingestion batches align with
/// segment boundaries; tinier tails stay mutable to avoid degenerate
/// one-document segments under single-article ingestion.
const SEGMENT_MIN_SEAL: usize = 16;

/// One immutable chunk of a shard: its own inverted + positional postings
/// over at most [`SEGMENT_SIZE`] documents, plus the local→global id
/// mapping (`global_ids[local] = global`; monotone, so local order and
/// global order agree within a segment).
#[derive(Debug, Clone, Default)]
struct Segment {
    index: InvertedIndex,
    positional: PositionalIndex,
    global_ids: Vec<DocId>,
}

/// One shard: sealed immutable segments shared across snapshots by `Arc`,
/// plus a small mutable tail the writer is still filling. Cloning a shard
/// for a snapshot bumps the sealed `Arc`s and deep-copies only the tail,
/// which [`ShardState::add_document`] keeps under [`SEGMENT_SIZE`] docs —
/// this is what makes [`ShardedSearchEngine::publish`] proportional to the
/// delta instead of the corpus.
///
/// Per-document BM25 scores depend only on the document's own postings and
/// the *global* statistics, and ranking sorts by `(score desc, global id
/// asc)`, so segmenting a shard cannot change any answer — the sharded
/// differential suite pins this against the single-index reference.
#[derive(Debug, Clone, Default)]
struct ShardState {
    sealed: Vec<Arc<Segment>>,
    tail: Segment,
}

impl ShardState {
    fn num_docs(&self) -> usize {
        self.sealed.iter().map(|s| s.global_ids.len()).sum::<usize>()
            + self.tail.global_ids.len()
    }

    fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.sealed
            .iter()
            .map(Arc::as_ref)
            .chain(std::iter::once(&self.tail))
    }

    fn add_document(&mut self, gid: DocId, tokens: &[TermId]) {
        let local = self.tail.index.add_document(tokens);
        let lp = self.tail.positional.add_document(tokens);
        debug_assert_eq!(local, lp);
        self.tail.global_ids.push(gid);
        if self.tail.global_ids.len() >= SEGMENT_SIZE {
            self.sealed.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }
}

/// A query analyzed against a snapshot's vocabulary, ready to fan out.
struct PreparedQuery {
    /// Strictly-analyzed quoted phrases (hard containment filters).
    phrases: Vec<Vec<TermId>>,
    /// Distinct query terms with query frequency, ascending term order —
    /// the reference engine's float-summation order.
    qtf: Vec<(TermId, f64)>,
    /// Inclusive date-range filter.
    range: Option<(Date, Date)>,
    /// Result cap. The reference engine returns one hit for `limit == 0`
    /// (it breaks *after* pushing), so the effective cap is `max(limit, 1)`.
    cap: usize,
}

/// An immutable, atomically-published view of the engine at one epoch.
///
/// Everything a query needs lives here — shards, stored sentences, global
/// BM25 statistics, an epoch-pinned view of the analyzer — so readers
/// holding the `Arc` never observe a half-ingested document. (Query
/// analysis briefly takes a read lock on the engine-wide vocabulary; see
/// [`EngineSnapshot::analyze_frozen`].)
pub struct EngineSnapshot {
    epoch: usize,
    params: Bm25Params,
    config: ShardedSearchConfig,
    /// The *live* engine-wide analyzer, shared with the writer. The
    /// vocabulary is append-only (existing term→id mappings never change),
    /// so pinning [`vocab_len`](Self::analyze_frozen) at publish time and
    /// dropping later-interned ids reproduces a frozen-at-epoch analyzer
    /// without ever deep-copying the vocabulary.
    analyzer: Arc<RwLock<Analyzer>>,
    /// Vocabulary size at publish = number of terms occurring in documents
    /// `0..epoch` (publish drains every pending insert). Ids at or above
    /// this bound were interned after this snapshot and are treated as
    /// unseen by its frozen analysis.
    vocab_len: usize,
    shards: Vec<ShardState>,
    store: Vec<Arc<StoredSentence>>,
    /// Corpus-wide document frequency, indexed by term id (dense: cloning
    /// at publish is a memcpy, not a hash-map rebuild).
    df: Vec<u32>,
    /// Corpus-wide total token count (for the global average length).
    total_len: u64,
    /// Shared degraded-query counter (lives across publishes).
    degraded: Arc<AtomicU64>,
    /// Shared per-shard deadline-miss counters (index = shard id).
    shard_timeouts: Arc<Vec<AtomicU64>>,
}

impl EngineSnapshot {
    fn empty(
        params: Bm25Params,
        config: ShardedSearchConfig,
        analyzer: Arc<RwLock<Analyzer>>,
        degraded: Arc<AtomicU64>,
        shard_timeouts: Arc<Vec<AtomicU64>>,
    ) -> Self {
        let num_shards = config.num_shards.max(1);
        Self {
            epoch: 0,
            params,
            config,
            analyzer,
            vocab_len: 0,
            shards: vec![ShardState::default(); num_shards],
            store: Vec::new(),
            df: Vec::new(),
            total_len: 0,
            degraded,
            shard_timeouts,
        }
    }

    /// The ingestion epoch this snapshot was published at (= number of
    /// indexed sentences; monotone across publishes).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Number of indexed sentences.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Fetch a stored sentence by global id.
    pub fn get(&self, id: DocId) -> Option<&StoredSentence> {
        self.store.get(id).map(Arc::as_ref)
    }

    /// The insert-time analyzed token ids of a stored sentence.
    pub fn analyzed(&self, id: DocId) -> Option<&[u32]> {
        self.store.get(id).map(|s| s.tokens.as_slice())
    }

    /// Analyze query text against this snapshot's frozen-at-epoch
    /// vocabulary, dropping unseen terms. Terms interned after this
    /// snapshot was published are dropped too — they occur in no document
    /// this snapshot holds — so a pinned snapshot answers identically no
    /// matter how far the live shared vocabulary has grown since.
    pub fn analyze_frozen(&self, text: &str) -> Vec<TermId> {
        let mut out = read_analyzer(&self.analyzer).analyze_frozen(text);
        out.retain(|&t| (t as usize) < self.vocab_len);
        out
    }

    /// Strict frozen analysis (phrase semantics): `None` if any surviving
    /// term is unknown *to this snapshot* — a term interned after publish
    /// counts as unseen, mirroring [`EngineSnapshot::analyze_frozen`].
    pub fn analyze_frozen_strict(&self, text: &str) -> Option<Vec<TermId>> {
        let toks = read_analyzer(&self.analyzer).analyze_frozen_strict(text)?;
        toks.iter()
            .all(|&t| (t as usize) < self.vocab_len)
            .then_some(toks)
    }

    /// Global average document length.
    fn avg_doc_len(&self) -> f64 {
        if self.store.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.store.len() as f64
        }
    }

    /// Non-negative BM25 idf from *global* statistics — the same expression
    /// as [`crate::index::IndexBm25::idf`] over an unsharded index.
    fn idf(&self, term: TermId) -> f64 {
        let n = self.store.len() as f64;
        let df = self.df.get(term as usize).copied().unwrap_or(0) as f64;
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }

    /// Verify internal invariants; used by the concurrency stress suite to
    /// prove no torn snapshot is ever observable. Returns a description of
    /// the first violation, if any.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.epoch != self.store.len() {
            return Err(format!(
                "epoch {} != stored sentences {}",
                self.epoch,
                self.store.len()
            ));
        }
        let sharded: usize = self.shards.iter().map(ShardState::num_docs).sum();
        if sharded != self.store.len() {
            return Err(format!(
                "shards hold {sharded} docs, store holds {}",
                self.store.len()
            ));
        }
        let mut seen = vec![false; self.store.len()];
        for (si, shard) in self.shards.iter().enumerate() {
            for (gi, seg) in shard.segments().enumerate() {
                if seg.index.num_docs() != seg.global_ids.len()
                    || seg.positional.num_docs() != seg.global_ids.len()
                {
                    return Err(format!(
                        "shard {si} segment {gi}: index/positional/id-map sizes disagree"
                    ));
                }
                for (local, &gid) in seg.global_ids.iter().enumerate() {
                    if gid >= self.store.len() {
                        return Err(format!("shard {si}: global id {gid} out of range"));
                    }
                    if shard_of(gid, self.shards.len()) != si {
                        return Err(format!("doc {gid} stored in wrong shard {si}"));
                    }
                    if seen[gid] {
                        return Err(format!("doc {gid} appears in two shards"));
                    }
                    seen[gid] = true;
                    if seg.index.doc_len(local) != self.store[gid].tokens.len() {
                        return Err(format!("doc {gid}: shard doc_len != stored token count"));
                    }
                }
            }
        }
        let total: u64 = self.store.iter().map(|s| s.tokens.len() as u64).sum();
        if total != self.total_len {
            return Err(format!(
                "total_len {} != summed token count {total}",
                self.total_len
            ));
        }
        Ok(())
    }

    /// Analyze a raw query against this snapshot's vocabulary. `None` means
    /// the query can match nothing (empty after analysis, or a phrase
    /// containing an unindexed word) — mirrors the reference engine's
    /// early-exit rules exactly.
    fn prepare(&self, query: &SearchQuery) -> Option<PreparedQuery> {
        let (phrase_texts, keywords) = split_query(&query.keywords);
        let mut phrases: Vec<Vec<TermId>> = Vec::new();
        for p in &phrase_texts {
            match self.analyze_frozen_strict(p) {
                Some(toks) if !toks.is_empty() => phrases.push(toks),
                Some(_) => {} // all-stopword phrase: no constraint
                None => return None,
            }
        }
        let mut q = self.analyze_frozen(&keywords);
        for p in &phrases {
            q.extend_from_slice(p);
        }
        if q.is_empty() {
            return None;
        }
        let mut qtf: Vec<(TermId, f64)> = {
            let mut m: HashMap<TermId, f64> = HashMap::new();
            for &t in &q {
                *m.entry(t).or_insert(0.0) += 1.0;
            }
            m.into_iter().collect()
        };
        qtf.sort_unstable_by_key(|&(t, _)| t);
        Some(PreparedQuery {
            phrases,
            qtf,
            range: query.range,
            cap: query.limit.max(1),
        })
    }

    /// Run a prepared query against one shard: BM25 with global statistics,
    /// rank by `(score desc, id asc)`, then filter date range and phrases
    /// in ranked order up to the cap. The global top-`cap` filtered hits
    /// within this shard are always a prefix of this list, so merging
    /// per-shard prefixes loses nothing.
    fn search_shard(&self, s: usize, pq: &PreparedQuery) -> Vec<SearchHit> {
        let shard = &self.shards[s];
        if shard.num_docs() == 0 {
            return Vec::new();
        }
        let Bm25Params { k1, b } = self.params;
        let avg = self.avg_doc_len();
        let segments: Vec<&Segment> = shard.segments().collect();
        // Per-document accumulation in ascending distinct-term order: the
        // identical float-summation order (and identical arithmetic) of
        // InvertedIndex::rank, so every score is bit-equal to the
        // single-shard engine's. Scores only read the document's own
        // postings plus global statistics, so scoring segment by segment
        // changes nothing.
        let mut ranked: Vec<(DocId, usize, usize, f64)> = Vec::new();
        for (si, seg) in segments.iter().enumerate() {
            let mut scores: HashMap<usize, f64> = HashMap::new();
            for &(t, qf) in &pq.qtf {
                let postings = seg.index.postings(t);
                if postings.is_empty() {
                    continue;
                }
                let idf = self.idf(t);
                for p in postings {
                    let tf = p.tf as f64;
                    let doc_len = seg.index.doc_len(p.doc);
                    let len_norm = if avg > 0.0 {
                        1.0 - b + b * (doc_len as f64) / avg
                    } else {
                        1.0
                    };
                    *scores.entry(p.doc).or_insert(0.0) +=
                        qf * (idf * tf * (k1 + 1.0) / (tf + k1 * len_norm));
                }
            }
            ranked.extend(
                scores
                    .into_iter()
                    .map(|(local, score)| (seg.global_ids[local], si, local, score)),
            );
        }
        // Ranking by (score desc, global id asc) reproduces the unsegmented
        // shard order exactly (local ids were monotone in global ids).
        ranked.sort_by(|a, b| {
            b.3.partial_cmp(&a.3)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut out = Vec::new();
        for (gid, si, local, score) in ranked {
            let stored = &self.store[gid];
            if let Some((lo, hi)) = pq.range {
                if stored.date < lo || stored.date > hi {
                    continue;
                }
            }
            if !pq
                .phrases
                .iter()
                .all(|p| segments[si].positional.contains_phrase(p, local))
            {
                continue;
            }
            out.push(SearchHit {
                id: gid,
                score,
                date: stored.date,
            });
            if out.len() >= pq.cap {
                break;
            }
        }
        out
    }

    /// Merge per-shard hit lists under the configured policy and truncate
    /// to the effective cap.
    fn merge(&self, per_shard: Vec<Vec<SearchHit>>, cap: usize) -> Vec<SearchHit> {
        let mut all: Vec<SearchHit> = per_shard.into_iter().flatten().collect();
        match self.config.merge {
            MergePolicy::ScoreThenId => all.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.id.cmp(&b.id))
            }),
            MergePolicy::InsertionOrder => all.sort_by_key(|h| h.id),
        }
        all.truncate(cap);
        all
    }

    /// Run a query against this snapshot, fanning out over all shards with
    /// scoped threads and waiting for every shard (no timeout — fully
    /// deterministic). Use [`ShardedSearchEngine::search_at`] to honor a
    /// configured query budget.
    pub fn search(&self, query: &SearchQuery) -> Vec<SearchHit> {
        let Some(pq) = self.prepare(query) else {
            return Vec::new();
        };
        let cap = pq.cap;
        let shard_ids: Vec<usize> = (0..self.shards.len()).collect();
        let per_shard = par_map(&shard_ids, |&s| self.search_shard(s, &pq));
        self.merge(per_shard, cap)
    }

    /// Membership-only scan of the documents with id ≥ `from`: exactly the
    /// ids a full [`EngineSnapshot::search`] with a non-binding limit would
    /// include from that id range, ascending.
    ///
    /// Soundness: every posting contributes a strictly positive BM25 score
    /// (the plus-floored idf stays positive even for corpus-wide terms), so
    /// a document is a hit iff it shares at least one prepared query term,
    /// falls inside the date range and contains every quoted phrase — a
    /// per-document predicate independent of the corpus-wide statistics
    /// that shift with every epoch. That independence is what lets an
    /// incremental caller carry a complete hit set across epochs and extend
    /// it by scanning only the newly ingested id range. `None` mirrors
    /// [`EngineSnapshot`]'s internal "this query can match nothing" early
    /// exit (empty analysis, or a phrase containing an unindexed word), in
    /// which case a full search returns no hits at all — and since the
    /// vocabulary is append-only, it returned none at every earlier epoch
    /// too.
    pub fn match_scan_from(&self, query: &SearchQuery, from: DocId) -> Option<Vec<DocId>> {
        let pq = self.prepare(query)?;
        let mut out = Vec::new();
        for id in from..self.store.len() {
            let s = &self.store[id];
            if let Some((lo, hi)) = pq.range {
                if s.date < lo || s.date > hi {
                    continue;
                }
            }
            if !pq.qtf.iter().any(|&(t, _)| s.tokens.contains(&t)) {
                continue;
            }
            // Phrase containment over the stored token sequence is exactly
            // the positional-index check: positions are token indices, so
            // an aligned position set is a consecutive subsequence here.
            if !pq
                .phrases
                .iter()
                .all(|p| s.tokens.windows(p.len()).any(|w| w == p.as_slice()))
            {
                continue;
            }
            out.push(id);
        }
        Some(out)
    }

    /// All sentences within a date range (no keyword scoring), ascending
    /// global id — identical to the reference engine's `range_scan`.
    pub fn range_scan(&self, lo: Date, hi: Date) -> Vec<DocId> {
        (0..self.store.len())
            .filter(|&i| {
                let d = self.store[i].date;
                d >= lo && d <= hi
            })
            .collect()
    }
}

/// Lock the engine-wide shared analyzer for reading, recovering from
/// poisoning (vocabulary growth is append-only and `Vocabulary::intern`
/// leaves the interner consistent at every point that can panic, so a
/// poisoned lock never hides a torn vocabulary).
fn read_analyzer(analyzer: &RwLock<Analyzer>) -> RwLockReadGuard<'_, Analyzer> {
    analyzer.read().unwrap_or_else(PoisonError::into_inner)
}

/// Pending (unpublished) engine state, guarded by the writer lock.
struct Writer {
    /// The engine-wide analyzer, shared with every published snapshot.
    /// Inserts take the write lock only for text that actually introduces
    /// new vocabulary; snapshots pin their epoch's vocabulary size instead
    /// of copying the vocabulary, so growth never deep-copies anything.
    analyzer: Arc<RwLock<Analyzer>>,
    shards: Vec<ShardState>,
    store: Vec<Arc<StoredSentence>>,
    /// Corpus-wide document frequency, indexed by term id.
    df: Vec<u32>,
    total_len: u64,
    dirty: bool,
}

/// The sharded engine: a locked writer accumulating a pending delta and an
/// atomically-swapped immutable snapshot serving reads.
///
/// Inserts go to the writer and are invisible until [`publish`] swaps a new
/// [`EngineSnapshot`] in; queries pin one snapshot and never block on (or
/// observe a prefix of) an in-flight ingestion batch.
///
/// [`publish`]: ShardedSearchEngine::publish
pub struct ShardedSearchEngine {
    params: Bm25Params,
    config: ShardedSearchConfig,
    writer: Mutex<Writer>,
    published: RwLock<Arc<EngineSnapshot>>,
    degraded: Arc<AtomicU64>,
    shard_timeouts: Arc<Vec<AtomicU64>>,
}

impl Default for ShardedSearchEngine {
    fn default() -> Self {
        Self::new(ShardedSearchConfig::default())
    }
}

impl ShardedSearchEngine {
    /// Create an empty engine with default BM25 parameters.
    pub fn new(config: ShardedSearchConfig) -> Self {
        Self::with_params(config, Bm25Params::default())
    }

    /// Create an empty engine with custom BM25 parameters.
    pub fn with_params(mut config: ShardedSearchConfig, params: Bm25Params) -> Self {
        config.num_shards = config.num_shards.max(1);
        let degraded = Arc::new(AtomicU64::new(0));
        let shard_timeouts: Arc<Vec<AtomicU64>> =
            Arc::new((0..config.num_shards).map(|_| AtomicU64::new(0)).collect());
        let analyzer = Arc::new(RwLock::new(Analyzer::new(AnalysisOptions::retrieval())));
        let initial = EngineSnapshot::empty(
            params,
            config.clone(),
            Arc::clone(&analyzer),
            Arc::clone(&degraded),
            Arc::clone(&shard_timeouts),
        );
        Self {
            params,
            writer: Mutex::new(Writer {
                analyzer,
                shards: vec![ShardState::default(); config.num_shards],
                store: Vec::new(),
                df: Vec::new(),
                total_len: 0,
                dirty: false,
            }),
            published: RwLock::new(Arc::new(initial)),
            config,
            degraded,
            shard_timeouts,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &ShardedSearchConfig {
        &self.config
    }

    /// Lock the writer, recovering from poisoning. The writer's mutation
    /// sequence (analyze, index, then append to the store and flip `dirty`)
    /// keeps the pending delta consistent at every await-free step that can
    /// panic, and `publish` re-derives the snapshot from the writer state
    /// wholesale — so a thread that panicked while holding the lock leaves
    /// at worst an extra *unpublished* partial document, never a torn
    /// published snapshot. Recovering with `into_inner` therefore cannot
    /// surface corruption to readers, and one crashed ingest thread must
    /// not brick every subsequent ingest.
    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn read_published(&self) -> RwLockReadGuard<'_, Arc<EngineSnapshot>> {
        self.published.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_published(&self) -> RwLockWriteGuard<'_, Arc<EngineSnapshot>> {
        self.published.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert a dated sentence into the pending delta; returns its stable
    /// global id. Invisible to queries until [`ShardedSearchEngine::publish`].
    pub fn insert(&self, date: Date, pub_date: Date, text: &str) -> DocId {
        let mut w = self.lock_writer();
        // Fast path: text whose every term is already interned analyzes
        // identically under a read lock, leaving concurrent query analysis
        // unblocked; only genuinely new vocabulary takes the write lock
        // (and the counted vocabulary-growing analysis).
        let tokens = {
            let frozen = read_analyzer(&w.analyzer).analyze_frozen_strict(text);
            match frozen {
                Some(tokens) => tokens,
                None => w
                    .analyzer
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .analyze(text),
            }
        };
        let id = w.store.len();
        let s = shard_of(id, self.config.num_shards);
        w.shards[s].add_document(id, &tokens);
        let mut distinct: Vec<TermId> = tokens.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for t in distinct {
            let i = t as usize;
            if i >= w.df.len() {
                w.df.resize(i + 1, 0);
            }
            w.df[i] += 1;
        }
        w.total_len += tokens.len() as u64;
        w.store.push(Arc::new(StoredSentence {
            date,
            pub_date,
            text: text.to_string(),
            tokens,
        }));
        w.dirty = true;
        id
    }

    /// Atomically publish the pending delta as a new immutable snapshot;
    /// returns the new epoch. A no-op (returning the current epoch) when
    /// nothing was inserted since the last publish.
    pub fn publish(&self) -> usize {
        let mut w = self.lock_writer();
        if !w.dirty {
            return self.epoch();
        }
        // Seal every non-trivial tail before cloning: a sealed segment is
        // shared by `Arc` between the writer and all future snapshots, so
        // subsequent publishes deep-copy at most `SEGMENT_MIN_SEAL - 1`
        // tail documents per shard — not postings the last publish already
        // copied. Sealing changes no answer (see [`ShardState`]).
        for shard in &mut w.shards {
            if shard.tail.global_ids.len() >= SEGMENT_MIN_SEAL {
                shard.sealed.push(Arc::new(std::mem::take(&mut shard.tail)));
            }
        }
        let snapshot = Arc::new(EngineSnapshot {
            epoch: w.store.len(),
            params: self.params,
            config: self.config.clone(),
            analyzer: Arc::clone(&w.analyzer),
            // The writer lock is held, so the vocabulary right now is
            // exactly the terms of the documents this snapshot publishes.
            vocab_len: read_analyzer(&w.analyzer).vocab().len(),
            shards: w.shards.clone(),
            store: w.store.clone(),
            df: w.df.clone(),
            total_len: w.total_len,
            degraded: Arc::clone(&self.degraded),
            shard_timeouts: Arc::clone(&self.shard_timeouts),
        });
        w.dirty = false;
        let epoch = snapshot.epoch;
        *self.write_published() = snapshot;
        epoch
    }

    /// Pin the current published snapshot (cheap: one `Arc` clone under a
    /// briefly-held read lock).
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.read_published().clone()
    }

    /// The published epoch (= published sentence count).
    pub fn epoch(&self) -> usize {
        self.snapshot().epoch()
    }

    /// Number of *published* sentences (pending inserts not counted).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when no sentences are published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many queries returned a degraded (partial, deadline-clipped)
    /// answer since the engine was created.
    pub fn degraded_queries(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Query the current snapshot, honoring the configured query timeout.
    pub fn search(&self, query: &SearchQuery) -> Vec<SearchHit> {
        Self::search_at(&self.snapshot(), query)
    }

    /// Query the current snapshot and report whether the answer is partial
    /// (some shard missed the deadline). Callers that memoize answers must
    /// use this and skip caching when `partial` — see the bugfix note on
    /// [`SearchOutcome`].
    pub fn search_outcome(&self, query: &SearchQuery) -> SearchOutcome {
        Self::search_at_outcome(&self.snapshot(), query)
    }

    /// Query a *pinned* snapshot, honoring its configured timeout. With no
    /// timeout this is `snapshot.search` (deterministic full fan-out); with
    /// one, shards run as tasks on the shared thread pool, shard 0 runs on
    /// the caller, and shards missing the budget are dropped from the merge.
    pub fn search_at(snapshot: &Arc<EngineSnapshot>, query: &SearchQuery) -> Vec<SearchHit> {
        Self::search_at_outcome(snapshot, query).hits
    }

    /// [`Self::search_at`] with the partial flag. Every dropped shard also
    /// bumps its per-shard timeout counter (see [`HealthReport`]).
    pub fn search_at_outcome(snapshot: &Arc<EngineSnapshot>, query: &SearchQuery) -> SearchOutcome {
        let Some(timeout) = snapshot.config.query_timeout else {
            return SearchOutcome {
                hits: snapshot.search(query),
                partial: false,
            };
        };
        let Some(pq) = snapshot.prepare(query) else {
            return SearchOutcome {
                hits: Vec::new(),
                partial: false,
            };
        };
        let cap = pq.cap;
        let pq = Arc::new(pq);
        let snap = Arc::clone(snapshot);
        let shard_ids: Vec<usize> = (0..snapshot.num_shards()).collect();
        let results = par_map_deadline(shard_ids, timeout, move |s| snap.search_shard(s, &pq));
        let mut partial = false;
        for (s, r) in results.iter().enumerate() {
            if r.is_none() {
                partial = true;
                snapshot.shard_timeouts[s].fetch_add(1, Ordering::Relaxed);
            }
        }
        if partial {
            snapshot.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let per_shard: Vec<Vec<SearchHit>> = results.into_iter().flatten().collect();
        SearchOutcome {
            hits: snapshot.merge(per_shard, cap),
            partial,
        }
    }

    /// Engine-side health counters (the durability fields stay zero; the
    /// durable wrapper fills them in).
    pub fn health(&self) -> HealthReport {
        HealthReport {
            epoch: self.epoch(),
            num_shards: self.config.num_shards,
            degraded_queries: self.degraded.load(Ordering::Relaxed),
            shard_timeouts: self
                .shard_timeouts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            role: "primary".into(),
            ..HealthReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchEngine;

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    const CORPUS: &[(&str, &str)] = &[
        ("2018-03-08", "Trump agrees to meet Kim for talks after months of tension."),
        ("2018-05-24", "President Trump abruptly canceled the June 12 summit."),
        ("2018-06-12", "The historic summit with North Korean leader Kim Jong Un took place."),
        ("2018-04-10", "Markets rallied on unrelated economic data."),
        ("2018-06-13", "Pyongyang pledged denuclearization after the summit."),
        ("2018-04-01", "Korea north of the river saw floods."),
        ("2018-06-12", "The North Korea summit took place in Singapore."),
        ("2018-05-01", "Talks about talks stalled between the two sides."),
    ];

    fn reference() -> SearchEngine {
        let mut e = SearchEngine::new();
        for (day, text) in CORPUS {
            e.insert(d(day), d(day), text);
        }
        e
    }

    fn sharded(n: usize) -> ShardedSearchEngine {
        let e = ShardedSearchEngine::new(ShardedSearchConfig::default().with_shards(n));
        for (day, text) in CORPUS {
            e.insert(d(day), d(day), text);
        }
        e.publish();
        e
    }

    fn queries() -> Vec<SearchQuery> {
        vec![
            SearchQuery {
                keywords: "summit kim".into(),
                range: None,
                limit: 10,
            },
            SearchQuery {
                keywords: "\"north korea\" summit".into(),
                range: None,
                limit: 10,
            },
            SearchQuery {
                keywords: "summit".into(),
                range: Some((d("2018-06-01"), d("2018-06-30"))),
                limit: 10,
            },
            SearchQuery {
                keywords: "trump summit kim talks".into(),
                range: None,
                limit: 2,
            },
            SearchQuery {
                keywords: "zebra unicorn".into(),
                range: None,
                limit: 10,
            },
            SearchQuery {
                keywords: "\"south korea\"".into(),
                range: None,
                limit: 10,
            },
        ]
    }

    fn assert_hits_identical(a: &[SearchHit], b: &[SearchHit], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: hit counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "{ctx}: ids differ");
            assert_eq!(x.date, y.date, "{ctx}: dates differ");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{ctx}: scores differ ({} vs {})",
                x.score,
                y.score
            );
        }
    }

    #[test]
    fn sharded_matches_reference_on_fixture() {
        let reference = reference();
        for n in [1, 2, 3, 8] {
            let engine = sharded(n);
            for (qi, q) in queries().iter().enumerate() {
                assert_hits_identical(
                    &engine.search(q),
                    &reference.search(q),
                    &format!("shards={n} query={qi}"),
                );
            }
        }
    }

    #[test]
    fn range_scan_matches_reference() {
        let reference = reference();
        let engine = sharded(3);
        let snap = engine.snapshot();
        assert_eq!(
            snap.range_scan(d("2018-03-01"), d("2018-05-01")),
            reference.range_scan(d("2018-03-01"), d("2018-05-01")),
        );
    }

    #[test]
    fn unpublished_inserts_are_invisible() {
        let engine = sharded(2);
        let before = engine.snapshot();
        let epoch = before.epoch();
        engine.insert(d("2018-07-01"), d("2018-07-01"), "A brand new summit development.");
        // Old snapshot and current published view both unchanged.
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(before.len(), epoch);
        let published = engine.publish();
        assert_eq!(published, epoch + 1);
        assert_eq!(engine.epoch(), epoch + 1);
        // The pinned snapshot still serves the old epoch.
        assert_eq!(before.epoch(), epoch);
        before.check_consistency().unwrap();
        engine.snapshot().check_consistency().unwrap();
    }

    #[test]
    fn publish_without_inserts_is_noop() {
        let engine = sharded(2);
        let epoch = engine.epoch();
        assert_eq!(engine.publish(), epoch);
    }

    #[test]
    fn shard_assignment_is_stable_and_total() {
        for n in [1, 2, 3, 8] {
            for id in 0..256 {
                let s = shard_of(id, n);
                assert!(s < n);
                assert_eq!(s, shard_of(id, n), "must be deterministic");
            }
        }
        // All shards get some documents at moderate sizes.
        let mut counts = vec![0usize; 4];
        for id in 0..256 {
            counts[shard_of(id, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 32), "unbalanced: {counts:?}");
    }

    #[test]
    fn zero_timeout_degrades_to_first_shard() {
        let config = ShardedSearchConfig::default()
            .with_shards(4)
            .with_timeout(Some(Duration::ZERO));
        let engine = ShardedSearchEngine::new(config);
        for (day, text) in CORPUS {
            engine.insert(d(day), d(day), text);
        }
        engine.publish();
        assert_eq!(engine.degraded_queries(), 0);
        let q = SearchQuery {
            keywords: "summit trump kim korea".into(),
            range: None,
            limit: 10,
        };
        let degraded = engine.search(&q);
        assert!(engine.degraded_queries() >= 1);
        let health = engine.health();
        assert_eq!(health.num_shards, 4);
        assert_eq!(health.degraded_queries, engine.degraded_queries());
        assert_eq!(health.shard_timeouts[0], 0, "shard 0 never times out");
        assert!(
            health.shard_timeouts[1..].iter().any(|&c| c > 0),
            "some non-zero shard must have missed the zero deadline: {health:?}"
        );
        // The degraded answer is exactly shard 0's contribution: a subset
        // of the full (deterministic) answer.
        let full = engine.snapshot().search(&q);
        for hit in &degraded {
            assert_eq!(shard_of(hit.id, 4), 0, "degraded answer must come from shard 0");
            assert!(full.iter().any(|h| h.id == hit.id));
        }
    }

    #[test]
    fn generous_timeout_stays_exact() {
        let config = ShardedSearchConfig::default()
            .with_shards(3)
            .with_timeout(Some(Duration::from_secs(30)));
        let engine = ShardedSearchEngine::new(config);
        for (day, text) in CORPUS {
            engine.insert(d(day), d(day), text);
        }
        engine.publish();
        let reference = reference();
        for (qi, q) in queries().iter().enumerate() {
            assert_hits_identical(
                &engine.search(q),
                &reference.search(q),
                &format!("timeout query={qi}"),
            );
        }
        assert_eq!(engine.degraded_queries(), 0);
    }

    #[test]
    fn insertion_order_merge_sorts_by_id() {
        let config = ShardedSearchConfig {
            num_shards: 3,
            merge: MergePolicy::InsertionOrder,
            query_timeout: None,
        };
        let engine = ShardedSearchEngine::new(config);
        for (day, text) in CORPUS {
            engine.insert(d(day), d(day), text);
        }
        engine.publish();
        let hits = engine.search(&SearchQuery {
            keywords: "summit kim trump".into(),
            range: None,
            limit: 10,
        });
        assert!(!hits.is_empty());
        assert!(hits.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn limit_zero_quirk_matches_reference() {
        // The reference engine returns one hit for limit == 0 (it breaks
        // after pushing); the sharded engine reproduces that.
        let reference = reference();
        let engine = sharded(3);
        let q = SearchQuery {
            keywords: "summit".into(),
            range: None,
            limit: 0,
        };
        assert_hits_identical(&engine.search(&q), &reference.search(&q), "limit=0");
    }

    #[test]
    fn degraded_outcome_is_tagged_partial() {
        let config = ShardedSearchConfig::default()
            .with_shards(4)
            .with_timeout(Some(Duration::ZERO));
        let engine = ShardedSearchEngine::new(config);
        for (day, text) in CORPUS {
            engine.insert(d(day), d(day), text);
        }
        engine.publish();
        let q = SearchQuery {
            keywords: "summit trump kim korea".into(),
            range: None,
            limit: 10,
        };
        let outcome = engine.search_outcome(&q);
        assert!(outcome.partial, "zero deadline must yield a partial answer");
        // Without a timeout the outcome is complete and never partial.
        let exact = sharded(4);
        assert!(!exact.search_outcome(&q).partial);
    }

    #[test]
    fn poisoned_writer_does_not_brick_ingestion() {
        let engine = Arc::new(sharded(3));
        let before = engine.len();
        // A thread panics while holding the writer lock (before mutating
        // anything), poisoning the mutex.
        let poisoner = Arc::clone(&engine);
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.writer.lock().unwrap();
            panic!("simulated ingest crash");
        })
        .join();
        assert!(joined.is_err(), "the poisoning thread must have panicked");
        // Subsequent ingests and publishes recover via into_inner instead
        // of propagating the poison panic.
        engine.insert(d("2018-07-01"), d("2018-07-01"), "A post-crash summit development.");
        let epoch = engine.publish();
        assert_eq!(epoch, before + 1);
        engine.snapshot().check_consistency().unwrap();
        let hits = engine.search(&SearchQuery {
            keywords: "post-crash summit".into(),
            range: None,
            limit: 10,
        });
        assert!(hits.iter().any(|h| h.id == before));
    }

    #[test]
    fn poisoned_published_lock_recovers() {
        let engine = Arc::new(sharded(2));
        let poisoner = Arc::clone(&engine);
        let joined = std::thread::spawn(move || {
            // Only a write-guard panic poisons an RwLock.
            let _guard = poisoner.published.write().unwrap();
            panic!("simulated publisher crash");
        })
        .join();
        assert!(joined.is_err());
        // Reads and publishes still work.
        assert_eq!(engine.snapshot().epoch(), CORPUS.len());
        engine.insert(d("2018-07-02"), d("2018-07-02"), "Another development.");
        assert_eq!(engine.publish(), CORPUS.len() + 1);
    }

    #[test]
    fn empty_engine_answers_empty() {
        let engine = ShardedSearchEngine::default();
        assert!(engine.is_empty());
        assert_eq!(engine.epoch(), 0);
        let hits = engine.search(&SearchQuery {
            keywords: "anything".into(),
            range: None,
            limit: 5,
        });
        assert!(hits.is_empty());
        engine.snapshot().check_consistency().unwrap();
    }
}
