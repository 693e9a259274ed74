//! The shared [`Service`] layer: one code path for the `report` CLI and the
//! HTTP server.
//!
//! Before this module, every consumer of the explanation engine wired its own
//! pipeline: the CLI built a fresh index + model per invocation, and a server
//! would have had to duplicate that wiring (and would have paid the full
//! index-build and report-generation cost on every request). [`Service`]
//! centralises it:
//!
//! * **Corpus states** — per scenario the service owns one *authoritative*
//!   mutable corpus plus a monotonically increasing corpus version (starting
//!   at 1 for the registry seed). [`Service::add_document`],
//!   [`Service::update_document`], [`Service::upsert_document`] and
//!   [`Service::remove_document`] mutate it; every mutation advances the
//!   version by exactly one and is applied synchronously to every live
//!   runtime of the scenario, so a [`LiveSearcher`] is always bit-identical
//!   to a from-scratch rebuild of the current corpus (the contract pinned by
//!   `crates/retrieval/tests/incremental.rs`).
//! * **Scenario runtimes** — per `(scenario, shards)` pair the service builds
//!   the pipeline once (a [`LiveSearcher`] over the authoritative corpus,
//!   prior-seeded [`SimLlm`] with an attached [`PrefixCache`]) and keeps it
//!   behind an `Arc`, so concurrent requests share the index, the model and
//!   the prefix cache. The prefix cache is bit-identical by construction
//!   (PR 2/PR 4 differential suites), so *sharing state never changes
//!   results* — `tests` below pin service output against the uncached
//!   [`scenarios::report_for`] oracle.
//! * **Report cache** — full [`RageReport`]s are memoised behind `Arc` under
//!   a `ReportKey` of `(scenario, report-config fingerprint, shards,
//!   schema_version, corpus_version)`. Reports are deterministic *given a
//!   corpus version*, so a cached report is exactly what regeneration would
//!   produce; the schema version is part of the key so a future v3 can never
//!   serve v2 cache entries. Anytime requests share the exact entry: a
//!   cached report answers any deadline, a report a deadline cut short is
//!   returned but never cached (it depends on timing, not only on the
//!   corpus), and a complete one equals the exact report, so it is stored as
//!   that report. A scenario therefore holds at most one entry per shard
//!   count and retained corpus version, whatever deadlines callers send.
//! * **Error taxonomy** — [`ServiceError`] splits caller mistakes (unknown
//!   scenario/format, invalid `k` or shard count, unanswerable query,
//!   duplicate document id) from engine failures, so transports can map them
//!   to 4xx vs 5xx without string-matching (see [`ServiceError::kind`]).
//!
//! ## Cache-invalidation rules
//!
//! Three caches sit between a request and the engine, and every one of them
//! keys on (or is cleared by) the corpus version, so no byte generated
//! against corpus version `N` can ever be served for version `M ≠ N`:
//!
//! 1. **Report cache** — `ReportKey` embeds the corpus version. A mutation
//!    therefore *misses* the cache on the next request (a fresh report is
//!    generated and stamped with the new version) without touching other
//!    scenarios' entries. Entries for superseded versions are retained —
//!    they are what [`Service::diff_reports`] serves historical versions
//!    from — but at most [`MAX_CACHED_VERSIONS`] distinct versions per
//!    scenario; older ones are pruned on mutation.
//! 2. **Prefix cache** — entries are pure functions of `(token, position)`
//!    and the model seed, so a mutation cannot make them *wrong*; they are
//!    cleared anyway on every mutation so no state predating the mutation
//!    survives in a runtime, keeping the "runtime ≡ freshly built runtime"
//!    argument unconditional.
//! 3. **Runtime indexes** — not invalidated but *mutated in place* under the
//!    scenario's corpus lock (add/remove/update on the [`LiveSearcher`]),
//!    then re-stamped with the authoritative version. Readers never observe
//!    a half-applied mutation (the searcher's internal `RwLock`), and the
//!    incremental-equivalence suite proves the mutated index scores
//!    bit-identically to a rebuild.
//!
//! Every input that sizes a resource is validated *before* the resource is
//! built: shard counts are capped at [`MAX_SHARDS`] (bounding the runtime
//! map), corpora at [`MAX_CORPUS_DOCS`] (bounding what a remote-reachable
//! mutation stream can grow) — untrusted parameters can neither spawn thread
//! storms nor grow memory without limit.
//!
//! The service is `Sync`; the HTTP server shares one `Arc<Service>` across
//! its worker pool, and the CLI uses a short-lived instance for a single
//! render — the exact same path, which is what makes the server's
//! `/report?format=json` byte-identical to `report --format json`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rage_core::explanation::ReportConfig;
use rage_core::{CorpusProvenance, Deadline, RagPipeline, RagResponse, RageError, RageReport};
use rage_datasets::{Scenario, ScenarioRegistry};
use rage_llm::cache::PrefixCache;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_retrieval::{
    corpus_fingerprint, document_fingerprint, Document, LiveSearcher, RetrievalError, Retriever,
};

use crate::diff::{diff, ReportDiff};
use crate::scenarios;
use crate::{render_html, render_markdown, to_json, SCHEMA_VERSION};

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

/// The authoritative corpus of one scenario plus its version counter.
///
/// `scenario.corpus` starts as the registry seed (version 1); every accepted
/// mutation advances `version` by exactly one. All runtimes of the scenario
/// are mutated under this state's lock, so "state version == every runtime's
/// version" holds at every quiescent point.
struct CorpusState {
    scenario: Scenario,
    version: u64,
    /// `corpus_fingerprint(&scenario.corpus)`, kept current by `Service::mutate`:
    /// the fingerprint is a wrapping sum of document fingerprints, so each
    /// mutation adds and subtracts the documents it touches instead of
    /// rehashing the whole corpus under the lock on every read.
    fingerprint: u64,
}

impl CorpusState {
    fn new(scenario: Scenario) -> Self {
        let fingerprint = corpus_fingerprint(&scenario.corpus);
        Self {
            scenario,
            version: 1,
            fingerprint,
        }
    }

    fn provenance(&self) -> CorpusProvenance {
        CorpusProvenance {
            version: self.version,
            fingerprint: self.fingerprint,
            num_docs: self.scenario.corpus.len(),
        }
    }
}

/// One corpus mutation, applied identically to the authoritative corpus and
/// to every live runtime index.
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

/// The pipeline and model state shared by every request against one
/// `(scenario, shards)` pair.
struct ScenarioRuntime {
    question: String,
    retrieval_k: usize,
    /// The mutable index behind `pipeline` — mutations go through here.
    live: Arc<LiveSearcher>,
    pipeline: RagPipeline<Box<dyn Retriever>>,
    prefix_cache: Arc<PrefixCache>,
}

/// Key of the memoised-report map.
///
/// `params` is a stable fingerprint of the [`ReportConfig`] (all fields are
/// plain data, so the derived `Debug` rendering is deterministic),
/// `schema_version` pins the structured format (bumping the schema can never
/// serve stale cache entries), and `corpus_version` pins the corpus content:
/// a mutation changes the key, so a report generated before the mutation can
/// never be served after it. Deadlines are not part of the key: only reports
/// no deadline cut short are cached, and those equal the exact report.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ReportKey {
    scenario: String,
    params: String,
    shards: usize, // 0 = single index
    schema_version: u64,
    corpus_version: u64,
}

/// Lock a cache map, recovering from poisoning.
///
/// The guarded maps only ever hold fully-constructed `Arc`ed values inserted
/// via `entry().or_insert`, so a panic elsewhere in a holder's request (the
/// server catches per-connection panics) cannot leave them mid-mutation;
/// recovering keeps the service answering instead of cascading one panic into
/// a permanent failure of every subsequent request.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hit/miss counters and size of the service's report cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCacheStats {
    /// Requests answered from a memoised report.
    pub hits: u64,
    /// Requests that generated a report (memoised unless a deadline cut it
    /// short).
    pub misses: u64,
    /// Reports currently memoised.
    pub entries: usize,
}

/// The shared explanation service: authoritative corpora, scenario runtimes,
/// memoised reports and asks behind one `Sync` facade (see the
/// [module docs](self)).
pub struct Service {
    config: ReportConfig,
    corpora: Mutex<HashMap<String, Arc<Mutex<CorpusState>>>>,
    runtimes: Mutex<HashMap<(String, usize), Arc<ScenarioRuntime>>>,
    reports: Mutex<HashMap<ReportKey, Arc<RageReport>>>,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
}

impl Default for Service {
    fn default() -> Self {
        Self::new()
    }
}

impl Service {
    /// A service over the built-in registry with the default [`ReportConfig`]
    /// (the configuration the CLI, the golden snapshots and the server share).
    pub fn new() -> Self {
        Self::with_config(ReportConfig::default())
    }

    /// A service rendering reports under a custom [`ReportConfig`].
    pub fn with_config(config: ReportConfig) -> Self {
        Self {
            config,
            corpora: Mutex::new(HashMap::new()),
            runtimes: Mutex::new(HashMap::new()),
            reports: Mutex::new(HashMap::new()),
            report_hits: AtomicU64::new(0),
            report_misses: AtomicU64::new(0),
        }
    }

    /// The scenario registry this service serves.
    pub fn registry(&self) -> &'static ScenarioRegistry {
        scenarios::registry()
    }

    /// The report configuration in use.
    pub fn config(&self) -> &ReportConfig {
        &self.config
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

    /// The authoritative corpus state of a scenario, seeded from the registry
    /// on first use (at version 1).
    fn corpus_state(&self, canonical: &'static str) -> Arc<Mutex<CorpusState>> {
        if let Some(state) = lock_unpoisoned(&self.corpora).get(canonical) {
            return Arc::clone(state);
        }
        // Build outside the lock; two racing builders construct identical
        // version-1 states and the first insert wins.
        let scenario = self
            .registry()
            .build(canonical)
            .expect("canonical name resolves");
        let state = Arc::new(Mutex::new(CorpusState::new(scenario)));
        let mut map = lock_unpoisoned(&self.corpora);
        Arc::clone(map.entry(canonical.to_string()).or_insert(state))
    }

    /// The shared runtime for `(scenario, shards)`, built on first use over
    /// the *current* authoritative corpus.
    ///
    /// The build holds the scenario's corpus lock, so a runtime can never be
    /// born stale: mutations wait for the build, then apply to the freshly
    /// registered runtime like any other. Unrelated scenarios lock different
    /// states and build in parallel.
    fn runtime(
        &self,
        name: &str,
        shards: Option<usize>,
    ) -> Result<Arc<ScenarioRuntime>, ServiceError> {
        let canonical = self.canonical_name(name)?;
        let shard_count = validate_shards(shards)?;
        let key = (canonical.to_string(), shard_count);
        if let Some(runtime) = lock_unpoisoned(&self.runtimes).get(&key) {
            return Ok(Arc::clone(runtime));
        }
        let state_arc = self.corpus_state(canonical);
        let state = lock_unpoisoned(&state_arc);
        let prefix_cache = Arc::new(PrefixCache::default());
        let llm = SimLlm::new(SimLlmConfig::default().with_prior(state.scenario.prior.clone()))
            .with_prefix_cache(Arc::clone(&prefix_cache));
        // `shards = 0` ("single index") runs a one-shard live index, the
        // same index `Searcher::from_corpus(.., 1)` builds; it accepts
        // mutations.
        let live = Arc::new(LiveSearcher::from_corpus(
            &state.scenario.corpus,
            shard_count.max(1),
        ));
        live.set_version(state.version);
        let retriever: Box<dyn Retriever> = Box::new(Arc::clone(&live));
        let runtime = Arc::new(ScenarioRuntime {
            question: state.scenario.question.clone(),
            retrieval_k: state.scenario.retrieval_k,
            live,
            pipeline: RagPipeline::new(retriever, Arc::new(llm)),
            prefix_cache,
        });
        let mut map = lock_unpoisoned(&self.runtimes);
        Ok(Arc::clone(map.entry(key).or_insert(runtime)))
    }

    fn report_key(&self, canonical: &str, shard_count: usize, corpus_version: u64) -> ReportKey {
        ReportKey {
            scenario: canonical.to_string(),
            params: format!("{:?}", self.config),
            shards: shard_count,
            schema_version: SCHEMA_VERSION,
            corpus_version,
        }
    }

    /// Generate a report through a runtime and stamp it with the corpus
    /// provenance it was generated against.
    fn generate(
        &self,
        runtime: &ScenarioRuntime,
        provenance: CorpusProvenance,
        deadline: Option<Deadline>,
    ) -> Result<Arc<RageReport>, ServiceError> {
        let (_, mut report) = runtime.pipeline.ask_and_report(
            &runtime.question,
            runtime.retrieval_k,
            &self.config,
            deadline,
        )?;
        report.corpus = Some(provenance);
        Ok(Arc::new(report))
    }

    /// Memoise a freshly generated report under `key` and return the cached
    /// one — unless a deadline cut it short: such a report depends on timing,
    /// so it is returned to its caller and never replayed to another.
    fn publish(&self, key: ReportKey, report: Arc<RageReport>) -> Arc<RageReport> {
        if report.deadline_truncated() {
            return report;
        }
        Arc::clone(lock_unpoisoned(&self.reports).entry(key).or_insert(report))
    }

    /// The full explanation report for a scenario at its *current* corpus
    /// version, memoised.
    ///
    /// `shards: Some(n)` retrieves through an `n`-way sharded index; the
    /// report is equal to the single-index one for every shard count, but the
    /// two are cached under distinct keys (they exercise distinct runtimes).
    /// The served report's `corpus` provenance always names the exact version
    /// it was generated against.
    pub fn report(
        &self,
        name: &str,
        shards: Option<usize>,
    ) -> Result<Arc<RageReport>, ServiceError> {
        self.report_with_deadline(name, shards, None)
    }

    /// An anytime report: like [`Service::report`], but every explanation
    /// search is bounded by `deadline_ms` of wall clock, measured from this
    /// call and shared by every retry; sections the deadline cuts short carry
    /// [`rage_core::Completeness::DeadlineTruncated`] markers.
    ///
    /// A memoised report for the current corpus version answers the request
    /// at once, deadline or not. A report the deadline cut short is returned
    /// but never cached; a complete one equals the exact report and is cached
    /// as that report (see the module docs).
    pub fn report_with_deadline(
        &self,
        name: &str,
        shards: Option<usize>,
        deadline_ms: Option<u64>,
    ) -> Result<Arc<RageReport>, ServiceError> {
        let deadline = deadline_ms.map(Deadline::after_ms);
        let canonical = self.canonical_name(name)?;
        let shard_count = validate_shards(shards)?;
        let state_arc = self.corpus_state(canonical);
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let provenance = lock_unpoisoned(&state_arc).provenance();
            let key = self.report_key(canonical, shard_count, provenance.version);
            if let Some(report) = lock_unpoisoned(&self.reports).get(&key) {
                self.report_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(report));
            }
            self.report_misses.fetch_add(1, Ordering::Relaxed);
            let runtime = self.runtime(canonical, shards)?;
            if attempts > 3 {
                // Pessimistic fallback: pin the corpus for the whole
                // generation so a hostile mutation stream cannot starve this
                // request forever. Mutations queue behind the lock (~100ms).
                let state = lock_unpoisoned(&state_arc);
                let provenance = state.provenance();
                let report = self.generate(&runtime, provenance, deadline)?;
                let key = self.report_key(canonical, shard_count, provenance.version);
                return Ok(self.publish(key, report));
            }
            // Optimistic path: generate without blocking mutations, publish
            // only if the corpus did not move underneath the generation —
            // otherwise the report describes a corpus that no longer exists
            // and is regenerated against the new version.
            let report = self.generate(&runtime, provenance, deadline)?;
            let state = lock_unpoisoned(&state_arc);
            if state.version == provenance.version {
                drop(state);
                return Ok(self.publish(key, report));
            }
        }
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
        let state_arc = self.corpus_state(canonical);
        let provenance = lock_unpoisoned(&state_arc).provenance();
        Ok(provenance)
    }

    /// `(scenario, provenance)` for every corpus that has been materialised,
    /// sorted by scenario name (the `/stats` endpoint renders this).
    pub fn corpus_versions(&self) -> Vec<(String, CorpusProvenance)> {
        let map = lock_unpoisoned(&self.corpora);
        let mut out: Vec<(String, CorpusProvenance)> = map
            .iter()
            .map(|(name, state)| (name.clone(), lock_unpoisoned(state).provenance()))
            .collect();
        drop(map);
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
    /// runtime of the scenario, returning the new provenance.
    ///
    /// All error paths exit before any shared state moves: the version bumps
    /// and the runtimes mutate only after the authoritative corpus accepted
    /// the operation. The whole application happens under the scenario's
    /// corpus lock, so concurrent requests observe either the old corpus
    /// everywhere or the new corpus everywhere.
    fn mutate(&self, name: &str, op: CorpusOp) -> Result<CorpusProvenance, ServiceError> {
        let canonical = self.canonical_name(name)?;
        let state_arc = self.corpus_state(canonical);
        let mut state = lock_unpoisoned(&state_arc);
        // The document the operation adds and the one it replaces or removes.
        let (added, removed) = match &op {
            CorpusOp::Add(doc) => {
                validate_document(doc)?;
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
                validate_document(doc)?;
                let old = state
                    .scenario
                    .corpus
                    .replace(doc.clone())
                    .map_err(mutation_error)?;
                (Some(doc), Some(old))
            }
            CorpusOp::Upsert(doc) => {
                validate_document(doc)?;
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
        let version = state.version;
        let runtimes: Vec<Arc<ScenarioRuntime>> = lock_unpoisoned(&self.runtimes)
            .iter()
            .filter(|((scenario, _), _)| scenario == canonical)
            .map(|(_, runtime)| Arc::clone(runtime))
            .collect();
        for runtime in runtimes {
            // The authoritative corpus accepted the operation and every
            // runtime mirrors it exactly (mutations only happen here, under
            // the state lock), so re-applying cannot fail.
            match &op {
                CorpusOp::Add(doc) => {
                    runtime
                        .live
                        .add(doc.clone())
                        .expect("live index in sync with authoritative corpus");
                }
                CorpusOp::Update(doc) => {
                    runtime
                        .live
                        .update(doc.clone())
                        .expect("live index in sync with authoritative corpus");
                }
                CorpusOp::Upsert(doc) => {
                    runtime
                        .live
                        .upsert(doc.clone())
                        .expect("live index in sync with authoritative corpus");
                }
                CorpusOp::Remove(id) => {
                    runtime
                        .live
                        .remove(id)
                        .expect("live index in sync with authoritative corpus");
                }
            }
            runtime.live.set_version(version);
            // Prefix-cache entries are pure functions of their keys and would
            // stay *correct*, but clearing guarantees no pipeline state
            // predating the mutation survives (see the module docs).
            runtime.prefix_cache.clear();
        }
        self.prune_report_versions(canonical);
        Ok(state.provenance())
    }

    /// Keep at most [`MAX_CACHED_VERSIONS`] distinct corpus versions of one
    /// scenario in the report cache (older versions stop being servable
    /// through [`Service::diff_reports`] once pruned).
    fn prune_report_versions(&self, canonical: &str) {
        let mut map = lock_unpoisoned(&self.reports);
        let mut versions: Vec<u64> = map
            .keys()
            .filter(|key| key.scenario == canonical)
            .map(|key| key.corpus_version)
            .collect();
        versions.sort_unstable();
        versions.dedup();
        if versions.len() > MAX_CACHED_VERSIONS {
            let cutoff = versions[versions.len() - MAX_CACHED_VERSIONS];
            map.retain(|key, _| key.scenario != canonical || key.corpus_version >= cutoff);
        }
    }

    /// The structured diff between a scenario's reports at two corpus
    /// versions.
    ///
    /// The current version is generated (and cached) on demand; historical
    /// versions are served from the report cache and fail with
    /// [`ServiceError::UnknownVersion`] when no report was cached at that
    /// version (reports are only generated on request, so a version nobody
    /// asked a report for has nothing to diff against).
    pub fn diff_reports(
        &self,
        name: &str,
        from: u64,
        to: u64,
        shards: Option<usize>,
    ) -> Result<ReportDiff, ServiceError> {
        let canonical = self.canonical_name(name)?;
        let shard_count = validate_shards(shards)?;
        let a = self.report_at(canonical, shard_count, shards, from)?;
        let b = self.report_at(canonical, shard_count, shards, to)?;
        Ok(diff(&a, &b))
    }

    /// A report at a specific corpus version: generated when `version` is
    /// current, served from the version-keyed cache otherwise.
    fn report_at(
        &self,
        canonical: &'static str,
        shard_count: usize,
        shards: Option<usize>,
        version: u64,
    ) -> Result<Arc<RageReport>, ServiceError> {
        let state_arc = self.corpus_state(canonical);
        let current = lock_unpoisoned(&state_arc).version;
        if version == current {
            return self.report(canonical, shards);
        }
        let key = self.report_key(canonical, shard_count, version);
        lock_unpoisoned(&self.reports)
            .get(&key)
            .map(Arc::clone)
            .ok_or(ServiceError::UnknownVersion { version, current })
    }

    /// One RAG round trip over a scenario's corpus with a caller-supplied
    /// query.
    ///
    /// `k: None` uses the scenario's own `retrieval_k`; `k: Some(0)` is an
    /// [`ServiceError::InvalidArgument`].
    pub fn ask(
        &self,
        name: &str,
        query: &str,
        k: Option<usize>,
    ) -> Result<RagResponse, ServiceError> {
        let runtime = self.runtime(name, None)?;
        let k = k.unwrap_or(runtime.retrieval_k);
        Ok(runtime.pipeline.ask(query, k)?)
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

    /// Hit/miss counters and entry count of the memoised-report cache.
    pub fn report_cache_stats(&self) -> ReportCacheStats {
        ReportCacheStats {
            hits: self.report_hits.load(Ordering::Relaxed),
            misses: self.report_misses.load(Ordering::Relaxed),
            entries: lock_unpoisoned(&self.reports).len(),
        }
    }

    /// The prefix-cache statistics of a scenario's shared model, if its
    /// runtime has been built.
    pub fn prefix_cache_stats(
        &self,
        name: &str,
        shards: Option<usize>,
    ) -> Option<rage_llm::cache::CacheStats> {
        let canonical = self.canonical_name(name).ok()?;
        let shard_count = validate_shards(shards).ok()?;
        let map = lock_unpoisoned(&self.runtimes);
        map.get(&(canonical.to_string(), shard_count))
            .map(|runtime| runtime.prefix_cache.stats())
    }
}

/// Upper bound on the `shards` parameter.
///
/// Every shard costs a partition slot and (during the parallel build) an OS
/// thread, and each distinct accepted count occupies a [`Service`] runtime
/// cache entry forever — and the parameter is remote-reachable through
/// `GET /report?shards=N`. Corpora here are at most a few thousand documents,
/// so 64 is far beyond any useful partitioning; anything larger is abuse, not
/// tuning, and is rejected as an [`ServiceError::InvalidArgument`] before any
/// allocation happens. The cap also bounds the runtime map itself: at most
/// `registry size × (MAX_SHARDS + 1)` entries can ever exist.
pub const MAX_SHARDS: usize = 64;

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

/// Reject documents that could not round-trip through the corpus (empty ids
/// cannot be addressed for update/removal).
fn validate_document(doc: &Document) -> Result<(), ServiceError> {
    if doc.id.trim().is_empty() {
        return Err(ServiceError::InvalidArgument {
            reason: "document id must be non-empty".to_string(),
        });
    }
    Ok(())
}

/// `shards = Some(0)` is meaningless; `None` means "single index" (key 0);
/// counts beyond [`MAX_SHARDS`] are rejected before any resource is sized
/// from them.
fn validate_shards(shards: Option<usize>) -> Result<usize, ServiceError> {
    match shards {
        None => Ok(0),
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
            "single-index runtime"
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
            let state_arc = service.corpus_state("live_updates");
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
