//! The shared [`Service`] layer: one code path for the `report` CLI and the
//! HTTP server.
//!
//! The service keeps one lock-guarded `ScenarioState` per scenario, seeded
//! from the registry on first use. It holds everything served for that
//! scenario:
//!
//! * **The authoritative corpus** and its version, a counter that starts at 1
//!   for the registry seed. [`Service::add_document`],
//!   [`Service::update_document`], [`Service::upsert_document`] and
//!   [`Service::remove_document`] mutate it. Every accepted mutation advances
//!   the version by exactly one and is applied, under the state's lock, to
//!   every live index of the scenario, so a [`LiveSearcher`] is always
//!   bit-identical to a from-scratch rebuild of the current corpus (the
//!   contract pinned by `crates/retrieval/tests/incremental.rs`).
//! * **One model**: a prior-seeded [`SimLlm`] with an attached
//!   [`PrefixCache`], shared by every request and every shard count. The
//!   prefix cache is bit-identical by construction, so sharing it never
//!   changes results: `tests` below pin service output against the uncached
//!   [`scenarios::report_for`] oracle.
//! * **One pipeline per shard count**: a [`LiveSearcher`] over the corpus
//!   plus the scenario's model, built on first use under the state's lock,
//!   so it is never born stale. No `shards` parameter means one shard, so a
//!   scenario's unsharded and one-shard requests share one pipeline.
//! * **Memoised reports** by corpus version, then shard count. Every report
//!   is generated under the one [`ReportConfig::default`] the CLI, the
//!   goldens and the server share, and rendered at the compiled-in schema
//!   version, so neither needs a place in the key. Reports are deterministic
//!   *given a corpus version*, so a cached report is exactly what
//!   regeneration would produce. Anytime requests share the exact entry: a
//!   cached report answers any deadline, a report a deadline cut short is
//!   returned but never cached (it depends on timing, not only on the
//!   corpus), and a complete one equals the exact report, so it is stored as
//!   that report.
//!
//! [`ServiceError`] splits caller mistakes (unknown scenario/format, invalid
//! `k` or shard count, unanswerable query, duplicate document id) from engine
//! failures, so transports can map them to 4xx vs 5xx without
//! string-matching (see [`ServiceError::kind`]).
//!
//! ## Cache-invalidation rules
//!
//! No byte generated against corpus version `N` can ever be served for
//! version `M ≠ N`:
//!
//! 1. **Reports** are keyed by the corpus version their retrieval read. A
//!    mutation therefore *misses* on the next request (a fresh report is
//!    generated and stamped with the new version) and leaves other
//!    scenarios' states alone. Reports of superseded versions are retained,
//!    since [`Service::diff_reports`] serves historical versions from them,
//!    but at most [`MAX_CACHED_VERSIONS`] versions per scenario: every
//!    publish drops the oldest beyond that.
//! 2. **The prefix cache** holds pure functions of `(token id, position)`
//!    and the model's config and prior, and token ids are hashes of the
//!    token text. No entry depends on the corpus or on the index, so a
//!    mutation leaves the cache as it is and every shard count shares it.
//! 3. **Indexes** are not invalidated but *mutated in place* under the
//!    state's lock. A report looks up its cache entry and retrieves under
//!    one hold of that lock, and retrieval is the only step of a report that
//!    reads the corpus. The report then generates with the lock released,
//!    so it is exact for the version it read and is stamped and cached under
//!    that version, even when mutations land while it generates.
//!
//! Every input that sizes a resource is validated *before* the resource is
//! built: shard counts are capped at [`MAX_SHARDS`] (bounding the indexes a
//! scenario can hold), corpora at [`MAX_CORPUS_DOCS`] (bounding what a
//! remote-reachable mutation stream can grow) and prompts at
//! [`MAX_PROMPT_TOKENS`] (bounding a forward's attention buffers, checked
//! after retrieval and before the model runs), so untrusted parameters can
//! neither spawn thread storms nor grow memory without limit. A written
//! document is held to its share of that bound: one that would add more
//! than `(MAX_PROMPT_TOKENS − question tokens) / retrieval_k` tokens to its
//! scenario's prompt is refused, so no write can push the scenario's own
//! reports over the bound. A retrieval count `k` sizes nothing: retrieval
//! clamps it to the live document count.
//!
//! The service is `Sync`; the HTTP server shares one `Arc<Service>` across
//! its worker pool, and the CLI uses a short-lived instance for a single
//! render. It is the exact same path, which is what makes the server's
//! `/report?format=json` byte-identical to `report --format json`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rage_core::explanation::ReportConfig;
use rage_core::{
    Context, CorpusProvenance, Deadline, RagPipeline, RagResponse, RageError, RageReport,
};
use rage_datasets::{Scenario, ScenarioRegistry};
use rage_llm::cache::PrefixCache;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::tokenizer::SimTokenizer;
use rage_retrieval::{
    corpus_fingerprint, document_fingerprint, Document, LiveSearcher, RetrievalError,
};

use crate::diff::{diff, ReportDiff};
use crate::scenarios;
use crate::{render_html, render_markdown, to_json};

/// Output format of a rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportFormat {
    /// Human-readable markdown ([`render_markdown`]).
    Markdown,
    /// The versioned structured JSON document ([`to_json`]).
    Json,
    /// The self-contained HTML page ([`render_html`]).
    Html,
}

impl ReportFormat {
    /// Parse a CLI/query-string format name (`md`/`markdown`, `json`, `html`).
    pub fn parse(name: &str) -> Result<Self, ServiceError> {
        match name {
            "md" | "markdown" => Ok(ReportFormat::Markdown),
            "json" => Ok(ReportFormat::Json),
            "html" => Ok(ReportFormat::Html),
            other => Err(ServiceError::UnknownFormat {
                format: other.to_string(),
            }),
        }
    }

    /// The MIME type a transport should declare for this format.
    pub fn content_type(&self) -> &'static str {
        match self {
            ReportFormat::Markdown => "text/markdown; charset=utf-8",
            ReportFormat::Json => "application/json",
            ReportFormat::Html => "text/html; charset=utf-8",
        }
    }
}

/// Coarse classification of a [`ServiceError`], for transports mapping errors
/// onto status codes without matching on variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The named resource (scenario, document, corpus version) does not
    /// exist — HTTP 404.
    NotFound,
    /// The request itself was malformed (bad format, `k = 0`, empty query,
    /// shards = 0) — HTTP 400.
    BadRequest,
    /// The query was valid but retrieved no relevant sources — HTTP 404
    /// ("no results"), not a server fault.
    NoResults,
    /// The mutation conflicts with current corpus state (adding a document
    /// id that already exists) — HTTP 409.
    Conflict,
    /// The engine failed for a reason the caller cannot fix — HTTP 500.
    Internal,
}

/// Errors surfaced by the [`Service`] layer.
#[derive(Debug)]
pub enum ServiceError {
    /// The scenario name is not in the registry.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
        /// The names the registry does know (for error messages).
        known: Vec<String>,
    },
    /// The requested render format is not one of `md|json|html`.
    UnknownFormat {
        /// The unrecognised format string.
        format: String,
    },
    /// A request parameter was invalid (`k = 0`, `shards = 0`, empty query).
    InvalidArgument {
        /// Human-readable reason.
        reason: String,
    },
    /// A strict add targeted a document id that is already live.
    DuplicateDocument {
        /// The conflicting id.
        id: String,
    },
    /// An update or removal targeted a document id that is not live.
    UnknownDocument {
        /// The missing id.
        id: String,
    },
    /// A historical corpus version was requested that is no longer (or not
    /// yet) cached.
    UnknownVersion {
        /// The requested version.
        version: u64,
        /// The corpus's current version.
        current: u64,
    },
    /// Retrieval ran but found nothing relevant to the query.
    NoContext {
        /// The query that retrieved nothing.
        query: String,
    },
    /// The explanation engine failed internally.
    Engine(RageError),
}

impl ServiceError {
    /// Classify this error for status-code mapping.
    pub fn kind(&self) -> ErrorKind {
        match self {
            ServiceError::UnknownScenario { .. }
            | ServiceError::UnknownDocument { .. }
            | ServiceError::UnknownVersion { .. } => ErrorKind::NotFound,
            ServiceError::UnknownFormat { .. } | ServiceError::InvalidArgument { .. } => {
                ErrorKind::BadRequest
            }
            ServiceError::DuplicateDocument { .. } => ErrorKind::Conflict,
            ServiceError::NoContext { .. } => ErrorKind::NoResults,
            ServiceError::Engine(_) => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownScenario { name, known } => {
                write!(
                    f,
                    "unknown scenario {name:?} (one of: {})",
                    known.join(", ")
                )
            }
            ServiceError::UnknownFormat { format } => {
                write!(f, "unknown format {format:?} (md|json|html)")
            }
            ServiceError::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
            ServiceError::DuplicateDocument { id } => {
                write!(
                    f,
                    "document {id:?} already exists (use mode=update or mode=upsert)"
                )
            }
            ServiceError::UnknownDocument { id } => {
                write!(f, "no document with id {id:?} in the corpus")
            }
            ServiceError::UnknownVersion { version, current } => {
                write!(
                    f,
                    "corpus version {version} is not cached (current version is {current})"
                )
            }
            ServiceError::NoContext { query } => {
                write!(f, "no sources retrieved for query: {query}")
            }
            ServiceError::Engine(err) => write!(f, "explanation failed: {err}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(err) => Some(err),
            _ => None,
        }
    }
}

impl From<RageError> for ServiceError {
    fn from(err: RageError) -> Self {
        match err {
            // A malformed request is the caller's to fix, whichever layer
            // detected it.
            RageError::InvalidArgument { reason } => ServiceError::InvalidArgument { reason },
            RageError::Retrieval(RetrievalError::EmptyQuery) => ServiceError::InvalidArgument {
                reason: "query contains no indexable terms".to_string(),
            },
            RageError::EmptyContext { query } => ServiceError::NoContext { query },
            other => ServiceError::Engine(other),
        }
    }
}

/// Map a mutation failure from the retrieval layer onto the service taxonomy.
fn mutation_error(err: RetrievalError) -> ServiceError {
    match err {
        RetrievalError::DuplicateDocumentId(id) => ServiceError::DuplicateDocument { id },
        RetrievalError::UnknownDocument(id) => ServiceError::UnknownDocument { id },
        other => ServiceError::Engine(RageError::Retrieval(other)),
    }
}

/// Everything the service keeps for one scenario, behind one lock.
///
/// `scenario.corpus` starts as the registry seed (version 1); every accepted
/// mutation advances `version` by exactly one. Every pipeline is built and
/// mutated under this state's lock, and a report retrieves under it, so
/// whoever holds the lock sees every index hold exactly the corpus of
/// `version`.
struct ScenarioState {
    scenario: Scenario,
    version: u64,
    /// `corpus_fingerprint(&scenario.corpus)`, kept current by `Service::mutate`:
    /// the fingerprint is a wrapping sum of document fingerprints, so each
    /// mutation adds and subtracts the documents it touches instead of
    /// rehashing the whole corpus under the lock on every read.
    fingerprint: u64,
    /// The scenario's one model, with its prefix cache; every pipeline
    /// shares it.
    llm: Arc<SimLlm>,
    /// One pipeline per shard count; mutations reach each index through
    /// [`RagPipeline::retriever`].
    pipelines: HashMap<usize, Arc<RagPipeline<LiveSearcher>>>,
    /// Memoised reports by corpus version, then shard count, holding at most
    /// [`MAX_CACHED_VERSIONS`] versions.
    reports: BTreeMap<u64, HashMap<usize, Arc<RageReport>>>,
}

impl ScenarioState {
    fn new(scenario: Scenario) -> Self {
        let fingerprint = corpus_fingerprint(&scenario.corpus);
        let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()))
            .with_prefix_cache(Arc::new(PrefixCache::default()));
        Self {
            scenario,
            version: 1,
            fingerprint,
            llm: Arc::new(llm),
            pipelines: HashMap::new(),
            reports: BTreeMap::new(),
        }
    }

    fn provenance(&self) -> CorpusProvenance {
        CorpusProvenance {
            version: self.version,
            fingerprint: self.fingerprint,
            num_docs: self.scenario.corpus.len(),
        }
    }

    /// The pipeline at `shards`, built on first use over the *current*
    /// corpus. The caller holds the lock, so mutations wait for the build
    /// and then apply to the new index like any other.
    fn pipeline(&mut self, shards: usize) -> Arc<RagPipeline<LiveSearcher>> {
        let pipeline = self.pipelines.entry(shards).or_insert_with(|| {
            let searcher = LiveSearcher::from_corpus(&self.scenario.corpus, shards);
            Arc::new(RagPipeline::new(searcher, self.llm.clone()))
        });
        Arc::clone(pipeline)
    }

    fn cached(&self, version: u64, shards: usize) -> Option<Arc<RageReport>> {
        self.reports.get(&version)?.get(&shards).map(Arc::clone)
    }

    /// Memoise a complete report under the version its retrieval read and
    /// return the cached one.
    ///
    /// A report finished after a mutation is published under the superseded
    /// version it read, so every insert, not only the first of a version,
    /// restores the [`MAX_CACHED_VERSIONS`] bound: the oldest versions are
    /// dropped (they stop being servable through [`Service::diff_reports`]).
    fn publish(&mut self, version: u64, shards: usize, report: Arc<RageReport>) -> Arc<RageReport> {
        let by_shards = self.reports.entry(version).or_default();
        let report = Arc::clone(by_shards.entry(shards).or_insert(report));
        while self.reports.len() > MAX_CACHED_VERSIONS {
            self.reports.pop_first();
        }
        report
    }
}

/// One corpus mutation, applied identically to the authoritative corpus and
/// to every live index.
enum CorpusOp {
    /// Strict add: fails on a live duplicate id.
    Add(Document),
    /// Strict replace: fails when the id is not live.
    Update(Document),
    /// Replace-or-add: never fails on id state.
    Upsert(Document),
    /// Remove by id: fails when the id is not live.
    Remove(String),
}

/// Lock a mutex of the service, recovering from poisoning.
///
/// A panic in a holder's request (the server catches per-connection panics)
/// leaves the guarded value consistent: the scenario map and a state's caches
/// only ever gain fully-built `Arc`s, retrieval only reads, and
/// `Service::mutate` moves nothing until the authoritative corpus has
/// accepted the operation. Past that point only a broken invariant can panic
/// (an index out of sync with the corpus, which its `expect`s name).
/// Recovering keeps the service answering instead of cascading one panic into
/// a permanent failure of every subsequent request.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hit/miss counters and size of the service's report caches, summed over
/// every scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCacheStats {
    /// Requests answered from a memoised report.
    pub hits: u64,
    /// Requests that generated a report: one miss per generation, and each
    /// generated report is memoised unless a deadline cut it short.
    pub misses: u64,
    /// Reports currently memoised, one per scenario, retained corpus version
    /// and shard count.
    pub entries: usize,
}

/// The shared explanation service: one state per scenario (authoritative
/// corpus, model, pipelines and memoised reports) behind one `Sync` facade
/// (see the [module docs](self)).
pub struct Service {
    // Lock order: `scenarios`, then one `ScenarioState`. Never the reverse.
    scenarios: Mutex<HashMap<&'static str, Arc<Mutex<ScenarioState>>>>,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
}

impl Default for Service {
    fn default() -> Self {
        Self::new()
    }
}

impl Service {
    /// A service over the built-in registry, rendering every report under
    /// [`ReportConfig::default`] (the configuration the CLI, the golden
    /// snapshots and the server share).
    pub fn new() -> Self {
        Self {
            scenarios: Mutex::new(HashMap::new()),
            report_hits: AtomicU64::new(0),
            report_misses: AtomicU64::new(0),
        }
    }

    /// The scenario registry this service serves.
    pub fn registry(&self) -> &'static ScenarioRegistry {
        scenarios::registry()
    }

    /// `(name, summary)` pairs for every registered scenario, in presentation
    /// order (the `/scenarios` endpoint and `--list-scenarios` both render
    /// this).
    pub fn scenario_list(&self) -> Vec<(&'static str, &'static str)> {
        self.registry()
            .iter()
            .map(|entry| (entry.name(), entry.summary()))
            .collect()
    }

    /// Resolve a scenario name to its canonical registry spelling.
    fn canonical_name(&self, name: &str) -> Result<&'static str, ServiceError> {
        self.registry()
            .get(name)
            .map(|entry| -> &'static str { entry.name() })
            .ok_or_else(|| ServiceError::UnknownScenario {
                name: name.to_string(),
                known: self
                    .registry()
                    .names()
                    .iter()
                    .map(|n| n.to_string())
                    .collect(),
            })
    }

    /// The state of a scenario, seeded from the registry on first use (at
    /// version 1).
    fn state(&self, canonical: &'static str) -> Arc<Mutex<ScenarioState>> {
        if let Some(state) = lock_unpoisoned(&self.scenarios).get(canonical) {
            return Arc::clone(state);
        }
        // Build outside the lock; two racing builders construct identical
        // version-1 states and the first insert wins.
        let scenario = self
            .registry()
            .build(canonical)
            .expect("canonical name resolves");
        let state = Arc::new(Mutex::new(ScenarioState::new(scenario)));
        let mut map = lock_unpoisoned(&self.scenarios);
        Arc::clone(map.entry(canonical).or_insert(state))
    }

    /// Every materialised state, with the map released before the caller
    /// locks any of them: a state's lock can be held for a whole index build,
    /// and holding the map meanwhile would stall every other scenario.
    fn states(&self) -> Vec<(&'static str, Arc<Mutex<ScenarioState>>)> {
        lock_unpoisoned(&self.scenarios)
            .iter()
            .map(|(name, state)| (*name, Arc::clone(state)))
            .collect()
    }

    /// The full explanation report for a scenario at its *current* corpus
    /// version, memoised.
    ///
    /// `shards: Some(n)` retrieves through an `n`-way sharded index and `None`
    /// through one shard, the same pipeline and cache entry as `Some(1)`. The
    /// report is equal for every shard count, but distinct counts are cached
    /// under distinct entries (they exercise distinct indexes). The served
    /// report's `corpus` provenance always names the exact version its
    /// retrieval read.
    pub fn report(
        &self,
        name: &str,
        shards: Option<usize>,
    ) -> Result<Arc<RageReport>, ServiceError> {
        self.report_with_deadline(name, shards, None)
    }

    /// An anytime report: like [`Service::report`], but every explanation
    /// search is bounded by `deadline_ms` of wall clock, measured from this
    /// call; sections the deadline cuts short carry
    /// [`rage_core::Completeness::DeadlineTruncated`] markers.
    ///
    /// A memoised report for the current corpus version answers the request
    /// at once, deadline or not. A report the deadline cut short is returned
    /// but never cached; a complete one equals the exact report and is cached
    /// as that report (see the module docs).
    ///
    /// Only the cache lookup and the retrieval hold the scenario's lock. The
    /// report is then generated from the retrieved context with the lock
    /// released, so mutations land meanwhile, and it is stamped and cached
    /// under the version its retrieval read.
    pub fn report_with_deadline(
        &self,
        name: &str,
        shards: Option<usize>,
        deadline_ms: Option<u64>,
    ) -> Result<Arc<RageReport>, ServiceError> {
        let deadline = deadline_ms.map(Deadline::after_ms);
        let canonical = self.canonical_name(name)?;
        let shard_count = validate_shards(shards)?;
        let state = self.state(canonical);
        let held = lock_unpoisoned(&state);
        self.report_from(&state, held, shard_count, deadline)
    }

    /// The report path from a held lock on `state`: look up the current
    /// version, retrieve on a miss, release the lock, generate, re-lock and
    /// publish.
    fn report_from(
        &self,
        state: &Mutex<ScenarioState>,
        mut held: MutexGuard<'_, ScenarioState>,
        shards: usize,
        deadline: Option<Deadline>,
    ) -> Result<Arc<RageReport>, ServiceError> {
        let provenance = held.provenance();
        if let Some(report) = held.cached(provenance.version, shards) {
            self.report_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(report);
        }
        let pipeline = held.pipeline(shards);
        let context = pipeline.retrieve(&held.scenario.question, held.scenario.retrieval_k)?;
        check_prompt(&context)?;
        self.report_misses.fetch_add(1, Ordering::Relaxed);
        drop(held);
        let mut report = RageReport::generate_with_deadline(
            &pipeline.evaluator(context),
            &ReportConfig::default(),
            deadline,
        )?;
        report.corpus = Some(provenance);
        let report = Arc::new(report);
        // A report a deadline cut short depends on timing, so it is returned
        // to its caller and never replayed to another.
        if report.deadline_truncated() {
            return Ok(report);
        }
        Ok(lock_unpoisoned(state).publish(provenance.version, shards, report))
    }

    /// Render a scenario's report in the requested format.
    ///
    /// This is *the* rendering path: the CLI and the HTTP server both call it,
    /// which is what makes their outputs byte-identical.
    pub fn render_report(
        &self,
        name: &str,
        format: ReportFormat,
        shards: Option<usize>,
    ) -> Result<String, ServiceError> {
        self.render_report_with_deadline(name, format, shards, None)
    }

    /// Render a scenario's report, optionally bounded by an anytime deadline
    /// (see [`Service::report_with_deadline`]).
    pub fn render_report_with_deadline(
        &self,
        name: &str,
        format: ReportFormat,
        shards: Option<usize>,
        deadline_ms: Option<u64>,
    ) -> Result<String, ServiceError> {
        let report = self.report_with_deadline(name, shards, deadline_ms)?;
        Ok(match format {
            ReportFormat::Markdown => render_markdown(&report),
            ReportFormat::Json => to_json(&report).render(),
            ReportFormat::Html => render_html(&report),
        })
    }

    /// The current corpus identity of a scenario (version, fingerprint,
    /// document count), materialising the seed corpus on first use.
    pub fn corpus_provenance(&self, name: &str) -> Result<CorpusProvenance, ServiceError> {
        let canonical = self.canonical_name(name)?;
        let provenance = lock_unpoisoned(&self.state(canonical)).provenance();
        Ok(provenance)
    }

    /// `(scenario, provenance)` for every corpus that has been materialised,
    /// sorted by scenario name (the `/stats` endpoint renders this).
    pub fn corpus_versions(&self) -> Vec<(String, CorpusProvenance)> {
        let mut out: Vec<(String, CorpusProvenance)> = self
            .states()
            .into_iter()
            .map(|(name, state)| (name.to_string(), lock_unpoisoned(&state).provenance()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Strictly add a new document to a scenario's corpus.
    ///
    /// Fails with [`ServiceError::DuplicateDocument`] ([`ErrorKind::Conflict`],
    /// HTTP 409) when the id is already live — a typed error, never the
    /// `Corpus::push` panic.
    pub fn add_document(
        &self,
        name: &str,
        doc: Document,
    ) -> Result<CorpusProvenance, ServiceError> {
        self.mutate(name, CorpusOp::Add(doc))
    }

    /// Replace the live document carrying `doc.id`. Fails with
    /// [`ServiceError::UnknownDocument`] when absent.
    pub fn update_document(
        &self,
        name: &str,
        doc: Document,
    ) -> Result<CorpusProvenance, ServiceError> {
        self.mutate(name, CorpusOp::Update(doc))
    }

    /// Replace the document if its id is live, add it otherwise. One version
    /// bump either way.
    pub fn upsert_document(
        &self,
        name: &str,
        doc: Document,
    ) -> Result<CorpusProvenance, ServiceError> {
        self.mutate(name, CorpusOp::Upsert(doc))
    }

    /// Remove a document by id. Fails with [`ServiceError::UnknownDocument`]
    /// when absent.
    pub fn remove_document(&self, name: &str, id: &str) -> Result<CorpusProvenance, ServiceError> {
        self.mutate(name, CorpusOp::Remove(id.to_string()))
    }

    /// Apply one mutation to the authoritative corpus and to every live
    /// index of the scenario, returning the new provenance.
    ///
    /// A document longer than its share of the scenario's prompt is refused
    /// (see the module docs). All error paths exit before any shared state
    /// moves: the version bumps and the indexes mutate only after the
    /// authoritative corpus accepted the operation. The whole application
    /// happens under the scenario's lock, so a report's retrieval, which
    /// holds the same lock, reads either the old corpus everywhere or the new
    /// corpus everywhere.
    fn mutate(&self, name: &str, op: CorpusOp) -> Result<CorpusProvenance, ServiceError> {
        let canonical = self.canonical_name(name)?;
        let state_arc = self.state(canonical);
        let mut state = lock_unpoisoned(&state_arc);
        // The document the operation adds and the one it replaces or removes.
        let (added, removed) = match &op {
            CorpusOp::Add(doc) => {
                validate_document(&state.scenario, doc)?;
                if state.scenario.corpus.len() >= MAX_CORPUS_DOCS {
                    return Err(corpus_full());
                }
                state
                    .scenario
                    .corpus
                    .try_push(doc.clone())
                    .map_err(mutation_error)?;
                (Some(doc), None)
            }
            CorpusOp::Update(doc) => {
                validate_document(&state.scenario, doc)?;
                let old = state
                    .scenario
                    .corpus
                    .replace(doc.clone())
                    .map_err(mutation_error)?;
                (Some(doc), Some(old))
            }
            CorpusOp::Upsert(doc) => {
                validate_document(&state.scenario, doc)?;
                if state.scenario.corpus.get(&doc.id).is_none()
                    && state.scenario.corpus.len() >= MAX_CORPUS_DOCS
                {
                    return Err(corpus_full());
                }
                (Some(doc), state.scenario.corpus.upsert(doc.clone()))
            }
            CorpusOp::Remove(id) => {
                let old = state
                    .scenario
                    .corpus
                    .remove(id)
                    .ok_or_else(|| ServiceError::UnknownDocument { id: id.clone() })?;
                (None, Some(old))
            }
        };
        state.fingerprint = state
            .fingerprint
            .wrapping_add(added.map_or(0, document_fingerprint))
            .wrapping_sub(removed.as_ref().map_or(0, document_fingerprint));
        state.version += 1;
        for pipeline in state.pipelines.values() {
            // The authoritative corpus accepted the operation and every
            // index mirrors it exactly (mutations only happen here, under
            // the state lock), so re-applying cannot fail.
            let live = pipeline.retriever();
            match &op {
                CorpusOp::Add(doc) => {
                    live.add(doc.clone())
                        .expect("live index in sync with authoritative corpus");
                }
                CorpusOp::Update(doc) => {
                    live.update(doc.clone())
                        .expect("live index in sync with authoritative corpus");
                }
                CorpusOp::Upsert(doc) => {
                    live.upsert(doc.clone())
                        .expect("live index in sync with authoritative corpus");
                }
                CorpusOp::Remove(id) => {
                    live.remove(id)
                        .expect("live index in sync with authoritative corpus");
                }
            }
        }
        Ok(state.provenance())
    }

    /// The structured diff between a scenario's reports at two corpus
    /// versions.
    ///
    /// The current version is generated (and cached) on demand; historical
    /// versions are served from the report cache and fail with
    /// [`ServiceError::UnknownVersion`] when no report was cached at that
    /// version (reports are only generated on request, so a version nobody
    /// asked a report for has nothing to diff against). Each side is a report
    /// stamped with exactly the requested version, even when a mutation lands
    /// during the call.
    pub fn diff_reports(
        &self,
        name: &str,
        from: u64,
        to: u64,
        shards: Option<usize>,
    ) -> Result<ReportDiff, ServiceError> {
        let canonical = self.canonical_name(name)?;
        let shard_count = validate_shards(shards)?;
        let a = self.report_at(canonical, shard_count, from)?;
        let b = self.report_at(canonical, shard_count, to)?;
        Ok(diff(&a, &b))
    }

    /// A report stamped with exactly `version`: generated when `version` is
    /// current, served from the version-keyed cache otherwise.
    ///
    /// The version check and the report's lookup and retrieval share one
    /// hold of the scenario's lock, so no mutation can land between them.
    fn report_at(
        &self,
        canonical: &'static str,
        shards: usize,
        version: u64,
    ) -> Result<Arc<RageReport>, ServiceError> {
        let state = self.state(canonical);
        let held = lock_unpoisoned(&state);
        if version == held.version {
            return self.report_from(&state, held, shards, None);
        }
        held.cached(version, shards)
            .ok_or(ServiceError::UnknownVersion {
                version,
                current: held.version,
            })
    }

    /// One RAG round trip over a scenario's corpus with a caller-supplied
    /// query.
    ///
    /// `k: None` uses the scenario's own `retrieval_k`. `k: Some(0)` and a
    /// query whose prompt would exceed [`MAX_PROMPT_TOKENS`] are
    /// [`ServiceError::InvalidArgument`]s; the latter is refused after
    /// retrieval, before the model runs.
    pub fn ask(
        &self,
        name: &str,
        query: &str,
        k: Option<usize>,
    ) -> Result<RagResponse, ServiceError> {
        let canonical = self.canonical_name(name)?;
        let state = self.state(canonical);
        let (pipeline, retrieval_k) = {
            let mut held = lock_unpoisoned(&state);
            (held.pipeline(1), held.scenario.retrieval_k)
        };
        let context = pipeline.retrieve(query, k.unwrap_or(retrieval_k))?;
        check_prompt(&context)?;
        Ok(pipeline.answer_with_context(context)?)
    }

    /// A whole batch of queries against one scenario: one [`Service::ask`] per
    /// query, in order.
    ///
    /// A library batch API: per-query failures are reported element-wise,
    /// and the outer error covers request-level problems (unknown scenario).
    /// The server does not route through it; every `/ask` is one
    /// [`Service::ask`] on the worker that parsed it.
    pub fn ask_many(
        &self,
        name: &str,
        queries: &[&str],
        k: Option<usize>,
    ) -> Result<Vec<Result<RagResponse, ServiceError>>, ServiceError> {
        self.canonical_name(name)?;
        Ok(queries
            .iter()
            .map(|query| self.ask(name, query, k))
            .collect())
    }

    /// Hit/miss counters and entry count of the memoised-report caches.
    pub fn report_cache_stats(&self) -> ReportCacheStats {
        let entries = self
            .states()
            .into_iter()
            .map(|(_, state)| {
                let held = lock_unpoisoned(&state);
                held.reports.values().map(HashMap::len).sum::<usize>()
            })
            .sum();
        ReportCacheStats {
            hits: self.report_hits.load(Ordering::Relaxed),
            misses: self.report_misses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// The statistics of a scenario's one prefix cache, shared by every shard
    /// count, if the pipeline at `shards` has been built.
    pub fn prefix_cache_stats(
        &self,
        name: &str,
        shards: Option<usize>,
    ) -> Option<rage_llm::cache::CacheStats> {
        let canonical = self.canonical_name(name).ok()?;
        let shard_count = validate_shards(shards).ok()?;
        let state = Arc::clone(lock_unpoisoned(&self.scenarios).get(canonical)?);
        let held = lock_unpoisoned(&state);
        if !held.pipelines.contains_key(&shard_count) {
            return None;
        }
        held.llm.prefix_cache_stats()
    }
}

/// Upper bound on the `shards` parameter.
///
/// Every shard costs a partition slot and (during the parallel build) an OS
/// thread, and each distinct accepted count adds an index to its scenario's
/// [`Service`] state for good (the model is shared) — and the parameter is
/// remote-reachable through `GET /report?shards=N`. Corpora here are at most
/// a few thousand documents, so 64 is far beyond any useful partitioning;
/// anything larger is abuse, not tuning, and is rejected as an
/// [`ServiceError::InvalidArgument`] before any allocation happens. The cap
/// also bounds the indexes themselves: at most `registry size × MAX_SHARDS`
/// can ever exist.
pub const MAX_SHARDS: usize = 64;

/// Upper bound on the prompt the model reads for one ask or report, in
/// tokens: the question plus the retrieved sources.
///
/// A forward's attention buffers grow with the square of the prompt, and both
/// the query (`POST /ask`) and the corpus (`POST /corpus/docs`) are remote
/// input: a 120 KB query asks for a 29 GB buffer. The largest prompt a
/// registered scenario builds is 313 tokens (`entity_registry`, k = 6), so
/// 1024 leaves 3× headroom. A longer prompt is refused as
/// [`ServiceError::InvalidArgument`] right after retrieval, before any
/// forward, and so is a written document that would take more than its
/// per-source share of the bound in its scenario's prompt.
pub const MAX_PROMPT_TOKENS: usize = 1024;

/// Upper bound on a mutable corpus's size.
///
/// `POST /corpus/docs` is remote-reachable; without a cap an add stream grows
/// index memory without limit. The largest seed corpus holds 2048 documents,
/// so 8192 leaves ample head-room for legitimate growth.
pub const MAX_CORPUS_DOCS: usize = 8192;

/// Retained report-cache depth per scenario, in distinct corpus versions.
///
/// Old versions are kept to serve [`Service::diff_reports`]; without a cap a
/// mutation stream (each followed by a report request) grows the cache
/// without limit.
pub const MAX_CACHED_VERSIONS: usize = 16;

fn corpus_full() -> ServiceError {
    ServiceError::InvalidArgument {
        reason: format!("corpus holds the maximum of {MAX_CORPUS_DOCS} documents"),
    }
}

/// The number of tokens of the prompt the model reads for `context`, counted
/// with the tokenizer's word rule and without tokenising.
fn prompt_tokens(context: &Context) -> usize {
    SimTokenizer::new().prompt_len(
        &context.query,
        context.sources.iter().map(|source| source.text.as_str()),
    )
}

/// Refuse a context whose prompt exceeds [`MAX_PROMPT_TOKENS`].
fn check_prompt(context: &Context) -> Result<(), ServiceError> {
    let tokens = prompt_tokens(context);
    if tokens > MAX_PROMPT_TOKENS {
        return Err(ServiceError::InvalidArgument {
            reason: format!(
                "the prompt would hold {tokens} tokens, more than the maximum of {MAX_PROMPT_TOKENS}"
            ),
        });
    }
    Ok(())
}

/// The most prompt tokens one document may add to its scenario's prompt: an
/// equal share, per retrieved source, of what the question leaves of
/// [`MAX_PROMPT_TOKENS`]. Any `retrieval_k` documents within it fit the bound
/// beside the question, so no accepted write can make the scenario's reports
/// exceed it.
fn source_token_cap(scenario: &Scenario) -> usize {
    let question = SimTokenizer::new().prompt_len(&scenario.question, []);
    MAX_PROMPT_TOKENS.saturating_sub(question) / scenario.retrieval_k
}

/// Reject documents that could not round-trip through the corpus (empty ids
/// cannot be addressed for update/removal) and documents that would add more
/// than [`source_token_cap`] tokens to the scenario's prompt.
fn validate_document(scenario: &Scenario, doc: &Document) -> Result<(), ServiceError> {
    if doc.id.trim().is_empty() {
        return Err(ServiceError::InvalidArgument {
            reason: "document id must be non-empty".to_string(),
        });
    }
    let tokenizer = SimTokenizer::new();
    let share = tokenizer.prompt_len(&scenario.question, [doc.full_text().as_str()])
        - tokenizer.prompt_len(&scenario.question, []);
    let cap = source_token_cap(scenario);
    if share > cap {
        return Err(ServiceError::InvalidArgument {
            reason: format!(
                "the document would add {share} tokens to the scenario's prompt, more than the maximum of {cap} per source"
            ),
        });
    }
    Ok(())
}

/// The shard count a request runs at: `None` is one shard, `Some(0)` is
/// meaningless, and counts beyond [`MAX_SHARDS`] are rejected before any
/// resource is sized from them.
fn validate_shards(shards: Option<usize>) -> Result<usize, ServiceError> {
    match shards {
        None => Ok(1),
        Some(0) => Err(ServiceError::InvalidArgument {
            reason: "shard count must be at least 1".to_string(),
        }),
        Some(n) if n > MAX_SHARDS => Err(ServiceError::InvalidArgument {
            reason: format!("shard count must be at most {MAX_SHARDS}, got {n}"),
        }),
        Some(n) => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Corpus;

    /// The provenance `Service` stamps on a fresh (version-1) scenario.
    fn seed_provenance(corpus: &Corpus) -> CorpusProvenance {
        CorpusProvenance {
            version: 1,
            fingerprint: corpus_fingerprint(corpus),
            num_docs: corpus.len(),
        }
    }

    #[test]
    fn render_matches_the_standalone_scenario_path() {
        // The service shares pipelines and prefix caches across requests;
        // none of that may change a single byte relative to the uncached
        // one-shot path the golden snapshots pin — except the corpus
        // provenance stamp, which only the service adds (and which the
        // library path leaves `None` so the goldens stay stable).
        let service = Service::new();
        for name in ["us_open", "adversarial"] {
            let scenario = scenarios::scenario_by_name(name).unwrap();
            let mut oracle = scenarios::report_for(&scenario, &ReportConfig::default()).unwrap();
            assert!(oracle.corpus.is_none(), "{name}: library path is unstamped");
            oracle.corpus = Some(seed_provenance(&scenario.corpus));
            let via_service = service.report(name, None).unwrap();
            assert_eq!(*via_service, oracle, "{name}");
            assert_eq!(
                service
                    .render_report(name, ReportFormat::Json, None)
                    .unwrap(),
                to_json(&oracle).render(),
                "{name} json"
            );
            assert_eq!(
                service
                    .render_report(name, ReportFormat::Markdown, None)
                    .unwrap(),
                render_markdown(&oracle),
                "{name} md"
            );
        }
    }

    #[test]
    fn sharded_render_is_equal_and_cached_separately() {
        let service = Service::new();
        let single = service
            .render_report("us_open", ReportFormat::Json, None)
            .unwrap();
        let sharded = service
            .render_report("us_open", ReportFormat::Json, Some(3))
            .unwrap();
        assert_eq!(single, sharded);
        // Two distinct cache entries (different runtimes), both misses.
        assert_eq!(service.report_cache_stats().misses, 2);
    }

    #[test]
    fn reports_are_memoised() {
        let service = Service::new();
        let first = service.report("us_open", None).unwrap();
        let second = service.report("us_open", None).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second call must be a cache hit"
        );
        let stats = service.report_cache_stats();
        assert_eq!(
            stats,
            ReportCacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        // All three formats render off the same memoised report.
        service
            .render_report("us_open", ReportFormat::Html, None)
            .unwrap();
        service
            .render_report("us-open", ReportFormat::Markdown, None)
            .unwrap();
        assert_eq!(service.report_cache_stats().hits, 3);
    }

    #[test]
    fn corpus_mutation_invalidates_reports_but_not_other_scenarios() {
        // Regression for the stale-cache bug: before corpus versions joined
        // the report key, a mutation kept serving the pre-mutation bytes.
        let service = Service::new();
        let before = service.report("us_open", None).unwrap();
        service.report("big_three", None).unwrap();
        assert_eq!(
            service.report_cache_stats(),
            ReportCacheStats {
                hits: 0,
                misses: 2,
                entries: 2
            }
        );

        let provenance = service
            .add_document(
                "us_open",
                Document::new(
                    "us-open-2024",
                    "US Open 2024",
                    "Aryna Sabalenka was crowned US Open women's singles champion in 2024, \
                     her most recent major title in New York.",
                ),
            )
            .unwrap();
        assert_eq!(provenance.version, 2);
        assert_eq!(provenance.num_docs, before.corpus.unwrap().num_docs + 1);
        assert_ne!(provenance.fingerprint, before.corpus.unwrap().fingerprint);

        // The mutated scenario misses (new version, new bytes) …
        let after = service.report("us_open", None).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.corpus.unwrap(), provenance);
        assert_ne!(
            to_json(&before).render(),
            to_json(&after).render(),
            "mutation must change the served bytes"
        );
        // … while the untouched scenario still hits its cache.
        let untouched = service.report("big_three", None).unwrap();
        assert_eq!(untouched.corpus.unwrap().version, 1);
        // The superseded us_open version stays cached for diffs.
        assert_eq!(
            service.report_cache_stats(),
            ReportCacheStats {
                hits: 1,
                misses: 3,
                entries: 3
            }
        );
    }

    #[test]
    fn mutation_conflicts_and_unknown_ids_are_typed() {
        let service = Service::new();
        service
            .add_document("us_open", Document::new("fresh", "", "a fresh source"))
            .unwrap();

        // A duplicate strict add is a 409-class conflict, not a panic …
        let err = service
            .add_document("us_open", Document::new("fresh", "", "again"))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Conflict);
        assert!(err.to_string().contains("fresh"), "{err}");
        // … and the failed mutation must not move the version.
        assert_eq!(service.corpus_provenance("us_open").unwrap().version, 2);

        let err = service.remove_document("us_open", "absent").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        let err = service
            .update_document("us_open", Document::new("absent", "", "x"))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        let err = service
            .add_document("us_open", Document::new("   ", "", "no id"))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BadRequest);
        assert_eq!(service.corpus_provenance("us_open").unwrap().version, 2);

        // Upsert resolves the conflict (replace) and keeps counting.
        let provenance = service
            .upsert_document("us_open", Document::new("fresh", "", "replaced"))
            .unwrap();
        assert_eq!(provenance.version, 3);
    }

    #[test]
    fn mutated_corpus_reports_equal_a_from_scratch_oracle() {
        // The acceptance bar: after any mutation sequence, the served report
        // is byte-identical to rebuilding everything from the mutated corpus
        // — across every runtime (single and sharded) of the scenario.
        let service = Service::new();
        // Materialise both runtimes *before* mutating so the mutations go
        // through the incremental path, not a fresh build.
        service.report("us_open", None).unwrap();
        service.report("us_open", Some(3)).unwrap();

        let added = Document::new(
            "us-open-2024",
            "US Open 2024",
            "Aryna Sabalenka was crowned US Open women's singles champion in 2024.",
        );
        let updated = Document::new(
            "us-open-2020",
            "US Open 2020",
            "Naomi Osaka was crowned US Open women's singles champion in 2020 in an empty \
             stadium in New York.",
        )
        .with_field("year", "2020")
        .with_field("champion", "Naomi Osaka");
        service.add_document("us_open", added.clone()).unwrap();
        service.update_document("us_open", updated.clone()).unwrap();
        let provenance = service.remove_document("us_open", "us-open-2019").unwrap();
        assert_eq!(provenance.version, 4);

        // Mirror the same mutations onto a fresh scenario corpus.
        let mut scenario = scenarios::scenario_by_name("us_open").unwrap();
        scenario.corpus.push(added);
        scenario.corpus.replace(updated).unwrap();
        scenario.corpus.remove("us-open-2019").unwrap();
        let mut oracle = scenarios::report_for(&scenario, &ReportConfig::default()).unwrap();
        oracle.corpus = Some(CorpusProvenance {
            version: 4,
            fingerprint: corpus_fingerprint(&scenario.corpus),
            num_docs: scenario.corpus.len(),
        });
        assert_eq!(oracle.corpus.unwrap(), provenance);

        let expected = to_json(&oracle).render();
        assert_eq!(
            service
                .render_report("us_open", ReportFormat::Json, None)
                .unwrap(),
            expected,
            "one-shard runtime"
        );
        assert_eq!(
            service
                .render_report("us_open", ReportFormat::Json, Some(3))
                .unwrap(),
            expected,
            "3-shard runtime"
        );
    }

    #[test]
    fn live_updates_script_moves_the_answer_at_every_step() {
        // The live_updates scenario ships its own mutation script; replaying
        // it through the service must move the grounded answer exactly as the
        // script declares — proof that mutations reach the runtimes and that
        // no step serves a stale cached report.
        use rage_datasets::live_updates;

        let service = Service::new();
        let seed = service.report("live_updates", None).unwrap();
        assert_eq!(seed.full_context_answer, "Qinwen Zheng");
        assert_eq!(seed.corpus.unwrap().version, 1);

        let mut previous = seed;
        for (step_no, step) in live_updates::mutation_script().into_iter().enumerate() {
            let provenance = match step.mutation {
                live_updates::Mutation::Add(doc) => {
                    service.add_document("live_updates", doc).unwrap()
                }
                live_updates::Mutation::Update(doc) => {
                    service.update_document("live_updates", doc).unwrap()
                }
                live_updates::Mutation::Remove(id) => {
                    service.remove_document("live_updates", &id).unwrap()
                }
            };
            assert_eq!(provenance.version, step_no as u64 + 2, "{}", step.note);

            let report = service.report("live_updates", None).unwrap();
            assert!(!Arc::ptr_eq(&previous, &report), "{}", step.note);
            assert_eq!(
                report.full_context_answer, step.expected_answer,
                "{}",
                step.note
            );
            assert_eq!(report.corpus.unwrap(), provenance, "{}", step.note);
            previous = report;
        }

        // The retraction restores the seed document set: same fingerprint,
        // later version — and the version keeps the cache keys distinct.
        let final_provenance = service.corpus_provenance("live_updates").unwrap();
        assert_eq!(
            final_provenance.fingerprint,
            service
                .report("live_updates", None)
                .unwrap()
                .corpus
                .unwrap()
                .fingerprint
        );
        assert_eq!(
            final_provenance.fingerprint,
            corpus_fingerprint(&live_updates::corpus())
        );
        assert_eq!(final_provenance.version, 4);
    }

    #[test]
    fn diff_reports_span_cached_versions() {
        let service = Service::new();
        service.report("us_open", None).unwrap(); // caches version 1
        service
            .add_document(
                "us_open",
                Document::new(
                    "us-open-2024",
                    "US Open 2024",
                    "Aryna Sabalenka was crowned US Open women's singles champion in 2024, \
                     the most recent winner in New York.",
                ),
            )
            .unwrap();
        service.report("us_open", None).unwrap(); // caches version 2

        let d = service.diff_reports("us_open", 1, 2, None).unwrap();
        assert!(
            !d.is_empty(),
            "adding a highly relevant document must change the report"
        );
        let identical = service.diff_reports("us_open", 2, 2, None).unwrap();
        assert!(identical.is_empty());

        // A version nobody cached a report for is a typed 404.
        let err = service.diff_reports("us_open", 7, 1, None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        assert!(err.to_string().contains("version 7"), "{err}");
    }

    #[test]
    fn same_version_diffs_stay_empty_under_concurrent_mutations() {
        // A mutation can land between `diff_reports` reading the current
        // version and its report's retrieval. Both sides must still be
        // stamped `v`: a racing call may fail with `UnknownVersion`, but
        // never answer a non-empty diff.
        use rage_datasets::live_updates;
        use std::sync::atomic::AtomicBool;

        let service = Service::new();
        let script = live_updates::mutation_script();
        let stop = AtomicBool::new(false);
        let (mutated, first_mutation) = std::sync::mpsc::channel();
        let outcomes: Vec<(u64, Result<ReportDiff, ServiceError>)> = std::thread::scope(|scope| {
            scope.spawn(|| {
                // Add, correct, retract, and again: every step moves the
                // grounded answer, so a mixed-version diff is never empty.
                for (n, step) in script.iter().cycle().enumerate() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match &step.mutation {
                        live_updates::Mutation::Add(doc) => {
                            service.add_document("live_updates", doc.clone())
                        }
                        live_updates::Mutation::Update(doc) => {
                            service.update_document("live_updates", doc.clone())
                        }
                        live_updates::Mutation::Remove(id) => {
                            service.remove_document("live_updates", id)
                        }
                    }
                    .unwrap();
                    if n == 0 {
                        mutated.send(()).unwrap();
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
            // The diffs start once the corpus has begun to move.
            first_mutation.recv().unwrap();
            let outcomes = (0..12)
                .map(|_| {
                    let v = service.corpus_provenance("live_updates").unwrap().version;
                    (v, service.diff_reports("live_updates", v, v, None))
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            outcomes
        });
        for (v, outcome) in outcomes {
            match outcome {
                Ok(d) => assert!(d.is_empty(), "version {v} against itself: {d:?}"),
                Err(err) => assert!(
                    matches!(err, ServiceError::UnknownVersion { version, .. } if version == v),
                    "{err}"
                ),
            }
        }
        // Every generated report was published: the diffs ran on one thread,
        // each made at most one miss, and no two misses read one version.
        let stats = service.report_cache_stats();
        assert_eq!(stats.misses, stats.entries as u64, "{stats:?}");
        // Once the corpus is quiet the current version always answers.
        let v = service.corpus_provenance("live_updates").unwrap().version;
        let quiet = service.diff_reports("live_updates", v, v, None).unwrap();
        assert!(quiet.is_empty());
    }

    #[test]
    fn a_mutation_lands_while_a_report_generates() {
        // The corpus lock covers a report's retrieval, not its generation,
        // and `timeline` (k = 10) generates for far longer than an add takes.
        let service = Service::new();
        let doc = Document::new(
            "late-entry",
            "Late entry",
            "A source added while the timeline report generates.",
        );
        std::thread::scope(|scope| {
            let report =
                scope.spawn(|| service.report_with_deadline("timeline", None, Some(10_000)));
            // The miss is counted under the corpus lock, before retrieval, so
            // the add below can only land after the retrieval.
            while service.report_cache_stats().misses == 0 {
                std::thread::yield_now();
            }
            let provenance = service.add_document("timeline", doc).unwrap();
            assert_eq!(provenance.version, 2);
            assert!(
                !report.is_finished(),
                "the add waited for the whole generation"
            );
            let report = report.join().unwrap().unwrap();
            assert_eq!(report.corpus.unwrap().version, 1);
        });
    }

    #[test]
    fn report_cache_keeps_at_most_max_cached_versions_per_scenario() {
        // A report can be published for a version older than every cached
        // one, so the bound is restored on each insert, one scenario at a
        // time.
        let service = Service::new();
        let report = service.report("us_open", None).unwrap();
        service.report("big_three", None).unwrap();
        let us_open = service.state("us_open");
        let newest = MAX_CACHED_VERSIONS as u64 + 1;
        for version in 2..=newest {
            lock_unpoisoned(&us_open).publish(version, 1, Arc::clone(&report));
        }
        let cached = |scenario: &'static str| -> Vec<u64> {
            lock_unpoisoned(&service.state(scenario))
                .reports
                .keys()
                .copied()
                .collect()
        };
        assert_eq!(cached("us_open"), (2..=newest).collect::<Vec<_>>());
        // A superseded version published late is the oldest, so it goes.
        lock_unpoisoned(&us_open).publish(1, 1, Arc::clone(&report));
        assert_eq!(cached("us_open"), (2..=newest).collect::<Vec<_>>());
        assert_eq!(cached("big_three"), vec![1]);
    }

    #[test]
    fn unsharded_and_one_shard_requests_share_one_entry() {
        // No `shards` parameter means one shard: the same pipeline and report
        // cache entry as `shards = 1`, not a second copy of both.
        let service = Service::new();
        let unsharded = service.report("us_open", None).unwrap();
        let one_shard = service.report("us_open", Some(1)).unwrap();
        assert!(Arc::ptr_eq(&unsharded, &one_shard));
        assert_eq!(
            service.report_cache_stats(),
            ReportCacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        assert_eq!(
            lock_unpoisoned(&service.state("us_open")).pipelines.len(),
            1
        );
    }

    #[test]
    fn every_shard_count_shares_the_scenario_model() {
        // Prefix-cache entries depend on neither the corpus nor the index, so
        // a second shard count replays every lookup of the first as a hit.
        let service = Service::new();
        let single = service.report("us_open", None).unwrap();
        let first = service.prefix_cache_stats("us_open", None).unwrap();
        let sharded = service.report("us_open", Some(3)).unwrap();
        assert_eq!(*single, *sharded);
        let after = service.prefix_cache_stats("us_open", None).unwrap();
        assert_eq!(after.misses, first.misses, "{after:?}");
        assert_eq!(after.hits, first.hits + first.lookups(), "{after:?}");
        assert_eq!(service.prefix_cache_stats("us_open", Some(3)), Some(after));
    }

    #[test]
    fn ask_answers_custom_queries_against_scenario_corpora() {
        use rage_retrieval::Searcher;
        let service = Service::new();
        let scenario = scenarios::scenario_by_name("us_open").unwrap();
        let response = service.ask("us_open", &scenario.question, None).unwrap();
        assert!(!response.answer().is_empty());
        // The service's answer equals a freshly wired pipeline's answer.
        let oracle = {
            let searcher = Searcher::from_corpus(&scenario.corpus, 1);
            let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
            RagPipeline::new(searcher, Arc::new(llm))
                .ask(&scenario.question, scenario.retrieval_k)
                .unwrap()
        };
        assert_eq!(response, oracle);
    }

    #[test]
    fn the_prompt_count_equals_the_prompt_the_model_reads() {
        let service = Service::new();
        for name in ["us_open", "entity_registry", "large_corpus"] {
            let scenario = scenarios::scenario_by_name(name).unwrap();
            let response = service.ask(name, &scenario.question, None).unwrap();
            assert_eq!(
                prompt_tokens(&response.context),
                response.generation.prompt_tokens,
                "{name}"
            );
        }
    }

    #[test]
    fn a_huge_k_returns_every_match() {
        // Regression: retrieval sized a heap from k, so a huge k panicked
        // (capacity overflow) or aborted the process (allocation failure).
        let service = Service::new();
        let response = service
            .ask("us_open", "Who won the US Open?", Some(1 << 60))
            .unwrap();
        assert_eq!(response.k(), 5);
    }

    #[test]
    fn an_overlong_ask_is_refused_before_the_model_runs() {
        let service = Service::new();
        service
            .ask("us_open", "Who won the US Open?", None)
            .unwrap();
        let before = service.prefix_cache_stats("us_open", None).unwrap();
        let query = format!("Who won the US Open?{}", " again".repeat(2_000));
        let err = service.ask("us_open", &query, None).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidArgument { .. }), "{err}");
        assert!(
            err.to_string().contains(&MAX_PROMPT_TOKENS.to_string()),
            "{err}"
        );
        // No forward ran: the prefix cache saw no lookup.
        let after = service.prefix_cache_stats("us_open", None).unwrap();
        assert_eq!(after.lookups(), before.lookups());
    }

    /// A 2,000-word document the `live_updates` question retrieves.
    fn overlong_document(id: &str) -> Document {
        let text = format!(
            "The most recent Coastal Classic champion is Long Text.{}",
            " Coastal".repeat(2_000)
        );
        Document::new(id, "Long", text)
    }

    #[test]
    fn a_report_over_an_overlong_document_is_refused_and_not_counted() {
        let service = Service::new();
        // `mutate` refuses such a document, so it is written into the
        // state's corpus and index directly: the report-side check stays a
        // second line of defence.
        let doc = overlong_document("long-doc");
        let state = service.state("live_updates");
        {
            let mut held = lock_unpoisoned(&state);
            let pipeline = held.pipeline(1);
            held.scenario.corpus.try_push(doc.clone()).unwrap();
            pipeline.retriever().add(doc).unwrap();
        }
        let before = service.report_cache_stats();
        let err = service.report("live_updates", None).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidArgument { .. }), "{err}");
        let after = service.report_cache_stats();
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.entries, before.entries);
    }

    #[test]
    fn an_overlong_document_is_refused_at_write_time() {
        let service = Service::new();
        let before = service.corpus_provenance("live_updates").unwrap();
        let scenario = scenarios::scenario_by_name("live_updates").unwrap();
        let cap = source_token_cap(&scenario);
        let seed_id = scenario.corpus.documents()[0].id.clone();
        let refusals = [
            service.add_document("live_updates", overlong_document("long-doc")),
            service.update_document("live_updates", overlong_document(&seed_id)),
            service.upsert_document("live_updates", overlong_document("long-doc")),
        ];
        for refusal in refusals {
            let err = refusal.unwrap_err();
            assert!(matches!(err, ServiceError::InvalidArgument { .. }), "{err}");
            // A delimiter and 2,010 words, against the cap.
            let reason = err.to_string();
            assert!(reason.contains("2011"), "{reason}");
            assert!(reason.contains(&cap.to_string()), "{reason}");
        }
        // Nothing moved, and the scenario still reports.
        assert_eq!(service.corpus_provenance("live_updates").unwrap(), before);
        let report = service.report("live_updates", None).unwrap();
        assert_eq!(report.corpus, Some(before));
    }

    #[test]
    fn every_seed_document_fits_its_scenario_source_cap() {
        for entry in scenarios::registry().iter() {
            let scenario = entry.build();
            for doc in scenario.corpus.iter() {
                validate_document(&scenario, doc)
                    .unwrap_or_else(|err| panic!("{}: {}: {err}", entry.name(), doc.id));
            }
        }
    }

    #[test]
    fn documents_at_the_source_cap_are_accepted_and_reported() {
        let service = Service::new();
        let scenario = scenarios::scenario_by_name("live_updates").unwrap();
        let cap = source_token_cap(&scenario);
        // The question's words, repeated up to `cap − 1` words: with the
        // delimiter, each document adds exactly `cap` tokens.
        let question = SimTokenizer::new().words(&scenario.question);
        let text = question
            .iter()
            .cycle()
            .take(cap - 1)
            .cloned()
            .collect::<Vec<_>>()
            .join(" ");
        for i in 0..scenario.retrieval_k {
            service
                .add_document(
                    "live_updates",
                    Document::new(format!("at-cap-{i}"), "", text.clone()),
                )
                .unwrap();
        }
        let report = service.report("live_updates", None).unwrap();
        assert!(
            report
                .context
                .sources
                .iter()
                .all(|source| source.doc_id.starts_with("at-cap-")),
            "{:?}",
            report.context.sources
        );
        let tokens = prompt_tokens(&report.context);
        assert_eq!(
            tokens,
            1 + question.len() + scenario.retrieval_k * cap,
            "every source at the cap"
        );
        assert!(tokens <= MAX_PROMPT_TOKENS);
    }

    #[test]
    fn ask_many_matches_element_wise_ask() {
        let service = Service::new();
        let scenario = scenarios::scenario_by_name("us_open").unwrap();
        let queries = [scenario.question.as_str(), "who won the US Open final"];
        let batched = service.ask_many("us_open", &queries, Some(3)).unwrap();
        assert_eq!(batched.len(), 2);
        for (query, result) in queries.iter().zip(batched) {
            let direct = service.ask("us_open", query, Some(3)).unwrap();
            assert_eq!(result.unwrap(), direct);
        }
    }

    #[test]
    fn error_taxonomy_classifies_client_errors() {
        let service = Service::new();
        let err = service.report("nope", None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        assert!(err.to_string().contains("us_open"), "{err}");

        let err = ReportFormat::parse("yaml").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BadRequest);

        let err = service.report("us_open", Some(0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BadRequest);

        // Shard counts beyond the cap are rejected before any partition or
        // thread is sized from them (the parameter is remote-reachable).
        for huge in [MAX_SHARDS + 1, 999_999_999_999, usize::MAX] {
            let err = service.report("us_open", Some(huge)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::BadRequest, "shards={huge}");
            assert!(err.to_string().contains("at most"), "{err}");
        }
        assert!(service.report("us_open", Some(MAX_SHARDS)).is_ok());

        let err = service.ask("us_open", "question", Some(0)).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidArgument { .. }), "{err}");
        assert_eq!(err.kind(), ErrorKind::BadRequest);

        // An empty query is a client error, not an engine failure.
        let err = service.ask("us_open", "???", None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BadRequest);

        // A well-formed query matching nothing is "no results".
        let err = service
            .ask("us_open", "quantum chromodynamics flux capacitor", None)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NoResults);
    }

    #[test]
    fn truncated_anytime_reports_are_never_cached() {
        let service = Service::new();

        // A zero deadline is already expired when generation starts: the
        // report still comes back (bounded), explicitly marked inexact — and
        // is never replayed: the next such request generates afresh.
        let anytime = service
            .report_with_deadline("us_open", None, Some(0))
            .unwrap();
        assert!(anytime.deadline_truncated());
        let anytime_again = service
            .report_with_deadline("us_open", None, Some(0))
            .unwrap();
        assert!(anytime_again.deadline_truncated());
        assert!(!Arc::ptr_eq(&anytime, &anytime_again));
        assert_eq!(service.report_cache_stats().entries, 0);

        // The exact report is unaffected, and once cached it answers every
        // deadline request, an expired one included.
        let exact = service.report("us_open", None).unwrap();
        assert!(exact.all_sections_exact());
        for deadline_ms in [0, 600_000] {
            let served = service
                .report_with_deadline("us_open", None, Some(deadline_ms))
                .unwrap();
            assert!(Arc::ptr_eq(&exact, &served), "deadline_ms={deadline_ms}");
        }
        assert!(Arc::ptr_eq(
            &exact,
            &service.report("us_open", None).unwrap()
        ));
        assert_eq!(service.report_cache_stats().entries, 1);
    }

    #[test]
    fn complete_anytime_reports_equal_the_exact_report() {
        // What lets a complete anytime report be cached as the exact one:
        // a deadline that never fires changes nothing, cost counters
        // included.
        for name in ["us_open", "big_three", "live_updates"] {
            let exact = Service::new().report(name, None).unwrap();
            let service = Service::new();
            let generous = service
                .report_with_deadline(name, None, Some(600_000))
                .unwrap();
            assert!(!generous.deadline_truncated(), "{name}");
            assert_eq!(*generous, *exact, "{name}");
            // … and it was cached as the exact report.
            let again = service.report(name, None).unwrap();
            assert!(Arc::ptr_eq(&generous, &again), "{name}");
        }
    }

    #[test]
    fn distinct_deadlines_share_one_cache_entry() {
        // Every distinct deadline_ms used to pin its own report. Now a
        // scenario holds one entry per (shards, corpus version), whatever
        // deadlines arrive.
        let service = Service::new();
        for deadline_ms in 1..=10_000u64 {
            service
                .report_with_deadline("us_open", None, Some(600_000 + deadline_ms))
                .unwrap();
        }
        assert_eq!(
            service.report_cache_stats(),
            ReportCacheStats {
                hits: 9_999,
                misses: 1,
                entries: 1
            }
        );
        service
            .report_with_deadline("us_open", Some(2), Some(600_000))
            .unwrap();
        service
            .add_document("us_open", Document::new("fresh", "", "a fresh source"))
            .unwrap();
        for deadline_ms in [600_000, 600_001] {
            service
                .report_with_deadline("us_open", None, Some(deadline_ms))
                .unwrap();
        }
        assert_eq!(service.report_cache_stats().entries, 3);
    }

    #[test]
    fn stored_fingerprint_tracks_every_mutation() {
        use rage_datasets::live_updates;

        let service = Service::new();
        let assert_in_sync = |note: &str| {
            let provenance = service.corpus_provenance("live_updates").unwrap();
            let state_arc = service.state("live_updates");
            let state = lock_unpoisoned(&state_arc);
            assert_eq!(
                provenance.fingerprint,
                corpus_fingerprint(&state.scenario.corpus),
                "{note}"
            );
            assert_eq!(provenance.num_docs, state.scenario.corpus.len(), "{note}");
        };
        assert_in_sync("seed");
        let mut replaced = None;
        for step in live_updates::mutation_script() {
            match step.mutation {
                live_updates::Mutation::Add(doc) => {
                    replaced = Some(doc.clone());
                    service.add_document("live_updates", doc).unwrap()
                }
                live_updates::Mutation::Update(doc) => {
                    service.update_document("live_updates", doc).unwrap()
                }
                live_updates::Mutation::Remove(id) => {
                    service.remove_document("live_updates", &id).unwrap()
                }
            };
            assert_in_sync(step.note);
        }
        // Update and both upsert paths (replace and add); a rejected
        // mutation moves nothing.
        let seed_id = live_updates::corpus().iter().next().unwrap().id.clone();
        service
            .update_document(
                "live_updates",
                Document::new(seed_id.clone(), "Updated", "an updated seed source"),
            )
            .unwrap();
        assert_in_sync("update");
        service
            .upsert_document(
                "live_updates",
                Document::new(seed_id, "Upserted", "an upserted seed source"),
            )
            .unwrap();
        assert_in_sync("upsert (replace)");
        let mut doc = replaced.expect("the script adds a document");
        doc.text.push_str(" (re-added)");
        service
            .upsert_document("live_updates", doc.clone())
            .unwrap();
        assert_in_sync("upsert (add)");
        service.add_document("live_updates", doc).unwrap_err();
        assert_in_sync("rejected duplicate add");
    }

    #[test]
    fn scenario_list_mirrors_the_registry() {
        let service = Service::new();
        let list = service.scenario_list();
        assert_eq!(list.len(), service.registry().len());
        assert!(list.iter().any(|(name, _)| *name == "us_open"));
        assert!(list.iter().all(|(_, summary)| !summary.is_empty()));
    }
}
