//! `resolve`: batch affiliation lookups against a 100k-record registry.
//!
//! Closed loop, 2 client threads, read-only. An op is a fixed batch of
//! [`BATCH`] top-10 `Retriever::try_search` lookups on a 1-shard
//! `LiveSearcher`; a batch takes several milliseconds, so no timed op is
//! shorter than the clock can resolve well. Retrieval is the whole op and the
//! model is never called: retrieval changes show here, and `llm` or `core`
//! changes must leave every metric unchanged. The index build dominates
//! `setup_s` and `peak_rss_mb`.
//!
//! Batches walk the seed-shuffled query pool, one query per registry record,
//! and wrap around it. The exact window is the first pass over the pool, so
//! `hit_at_1` covers every record once. Its lookups keep their hits for the
//! checks; later lookups repeat a query of that pass and keep only a
//! fingerprint, so the benchmark's own memory does not grow with throughput.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rage_datasets::entity_registry::{self, EntityRegistryConfig, ResolutionQuery};
use rage_retrieval::{LiveSearcher, Retriever};

use crate::closed_loop;
use crate::trace::{self, TracedRetriever};
use crate::{host, secs_since, stats, Measured, Options, Phases, Setup, Values};

/// Registry size.
const ORGS: usize = 100_000;
/// Lookups per op.
const BATCH: usize = 64;
/// Retrieval depth of every lookup.
const K: usize = 10;
/// Client threads.
const CLIENTS: usize = 2;

struct Runtime {
    live: Arc<LiveSearcher>,
    index_mb: f64,
}

fn registry() -> EntityRegistryConfig {
    EntityRegistryConfig {
        num_orgs: ORGS,
        ..EntityRegistryConfig::default()
    }
}

fn build(warmup: &[ResolutionQuery]) -> Result<(Runtime, Phases), String> {
    let start = Instant::now();
    let corpus = entity_registry::registry_corpus(registry());
    let corpus_s = secs_since(start);

    let start = Instant::now();
    let before = host::rss_mb();
    let live = Arc::new(LiveSearcher::from_corpus(&corpus, 1));
    let index_mb = host::rss_mb() - before;
    drop(corpus);
    let build_s = secs_since(start);

    let start = Instant::now();
    for lookup in warmup {
        live.try_search(&lookup.query, K)
            .map_err(|err| format!("resolve warm-up failed: {err}"))?;
    }
    let warmup_s = secs_since(start);
    Ok((
        Runtime { live, index_mb },
        Phases {
            corpus_s,
            build_s,
            warmup_s,
        },
    ))
}

/// A registry document id `org-NNNNNN` as its number.
fn ordinal(doc_id: &str) -> Option<u32> {
    doc_id.strip_prefix("org-")?.parse().ok()
}

/// `(record number, score)` per hit, best first.
type Hits = Vec<(u32, f64)>;

/// A lookup's result as kept for the checks.
enum Kept {
    /// Every hit, for a lookup of the exact window.
    Full(Hits),
    /// A fingerprint of the hits, for a lookup that repeats a query.
    Fingerprint(u64),
    Failed(String),
}

fn fingerprint(hits: &[(u32, f64)]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for &(id, score) in hits {
        (id, score.to_bits()).hash(&mut hasher);
    }
    hasher.finish()
}

fn lookup(retriever: &dyn Retriever, query: &str, full: bool) -> Kept {
    let hits: Result<Hits, String> = retriever
        .try_search(query, K)
        .map_err(|err| err.to_string())
        .and_then(|hits| {
            hits.iter()
                .map(|h| {
                    ordinal(&h.doc_id)
                        .map(|o| (o, h.score))
                        .ok_or_else(|| format!("unexpected document id {:?}", h.doc_id))
                })
                .collect()
        });
    match hits {
        Ok(hits) if full => Kept::Full(hits),
        Ok(hits) => Kept::Fingerprint(fingerprint(&hits)),
        Err(message) => Kept::Failed(message),
    }
}

/// Whether `(score_a, id_a)` ranks strictly after `(score_b, id_b)` under the
/// retrieval ranking contract (descending score, then ascending id).
fn ranks_after(score_a: f64, id_a: u32, score_b: f64, id_b: u32) -> bool {
    score_b
        .total_cmp(&score_a)
        .then_with(|| id_a.cmp(&id_b))
        .is_gt()
}

/// Check one lookup. The ranking must follow the contract; the top hit is the
/// expected record, or the expected record scores no better than everything
/// returned ahead of it (the registry has records that tie on a query). For
/// `exact`, every returned score must equal `score_document` bit for bit.
fn check(
    live: &LiveSearcher,
    query: &ResolutionQuery,
    hits: &[(u32, f64)],
    exact: bool,
) -> Result<bool, String> {
    if hits.is_empty() || hits.len() > K {
        return Err(format!("{} hits for {:?}", hits.len(), query.query));
    }
    if hits
        .windows(2)
        .any(|w| !ranks_after(w[1].1, w[1].0, w[0].1, w[0].0))
    {
        return Err(format!("ranking out of order for {:?}", query.query));
    }
    let expected = ordinal(&query.expected_doc_id).ok_or("bad expected id")?;
    let score = |id: u32| {
        live.score_document(&query.query, &format!("org-{id:06}"))
            .map_err(|err| err.to_string())
    };
    if exact {
        for &(id, reported) in hits {
            if score(id)?.to_bits() != reported.to_bits() {
                return Err(format!(
                    "score of org-{id:06} differs for {:?}",
                    query.query
                ));
            }
        }
    }
    let hit = hits[0].0 == expected;
    if !hit && !hits.iter().any(|&(id, _)| id == expected) {
        let expected_score = score(expected)?;
        let (last_id, last_score) = hits[hits.len() - 1];
        let excluded_fairly = if hits.len() == K {
            ranks_after(expected_score, expected, last_score, last_id)
        } else {
            expected_score <= 0.0
        };
        if !excluded_fairly {
            return Err(format!(
                "{} missing from the top {K} of {:?} with score {expected_score}",
                query.expected_doc_id, query.query
            ));
        }
    }
    Ok(hit)
}

pub fn run(options: &Options) -> Result<(Values, Measured), String> {
    let mut pool = entity_registry::resolution_queries(registry(), ORGS);
    pool.shuffle(&mut StdRng::seed_from_u64(options.seed));
    // Warm-up lookups come from the end of the shuffled pool, which the first
    // pass reaches last.
    let warmup = pool[pool.len() - 2 * BATCH..].to_vec();
    let setup = Setup::repeat(|| build(&warmup))?;
    let rt = &setup.instance;
    let plain: &dyn Retriever = &*rt.live;
    let traced_retriever = TracedRetriever(Arc::clone(&rt.live));
    let pool = &pool;

    // Client `c` runs batches c, c + CLIENTS, c + 2·CLIENTS, …; the exact
    // window holds every batch of the first pass.
    let exact = pool.len().div_ceil(BATCH).div_ceil(CLIENTS);
    let window = closed_loop::run(
        CLIENTS,
        options.seconds,
        exact,
        |_| (),
        |(), client, index| {
            let batch = index * CLIENTS + client;
            let traced = options.trace && index % 2 == 1;
            let _op = traced.then(|| trace::op(closed_loop::trace_id(client, index)));
            let retriever: &dyn Retriever = if traced { &traced_retriever } else { plain };
            (0..BATCH)
                .map(|i| {
                    let position = batch * BATCH + i;
                    let query = &pool[position % pool.len()].query;
                    lookup(retriever, query, position < pool.len())
                })
                .collect::<Vec<Kept>>()
        },
    );

    // Checks, outside the timed window: the first pass in full, then every
    // repeat against the first pass's fingerprint.
    let mut measured = Measured::new(setup.seconds.clone(), &window);
    let mut first_pass = vec![None; pool.len()];
    let mut failures = vec![None; window.ops.len()];
    for (op, failure) in window.ops.iter().zip(failures.iter_mut()) {
        let batch = op.index * CLIENTS + op.client;
        for (i, kept) in op.result.iter().enumerate() {
            let position = batch * BATCH + i;
            let Kept::Full(hits) = kept else { continue };
            let query = &pool[position];
            match check(&rt.live, query, hits, i == 0) {
                Ok(hit) => {
                    measured.hits += u64::from(hit);
                    first_pass[position] = Some(fingerprint(hits));
                }
                Err(message) => *failure = failure.take().or(Some(message)),
            }
        }
    }
    measured.lookups = pool.len() as u64;
    for (op, failure) in window.ops.iter().zip(failures.iter_mut()) {
        let batch = op.index * CLIENTS + op.client;
        for (i, kept) in op.result.iter().enumerate() {
            let position = (batch * BATCH + i) % pool.len();
            let problem = match kept {
                Kept::Full(_) => None,
                Kept::Fingerprint(print) if first_pass[position] == Some(*print) => None,
                Kept::Fingerprint(_) => Some(format!(
                    "a repeat of {:?} differs from its first answer",
                    pool[position].query
                )),
                Kept::Failed(message) => Some(message.clone()),
            };
            if failure.is_none() {
                *failure = problem;
            }
        }
        if let Some(message) = failure {
            measured.failed += 1;
            eprintln!("resolve: batch {batch} failed: {message}");
        }
    }

    let mut values = Values::default();
    if options.trace {
        let spans = trace::drain();
        let totals = trace::totals(&spans);
        let total = |name: &str| totals.get(name).copied().unwrap_or_default();
        let search = total("retrieval.search");
        let latencies = |traced: bool| -> Vec<f64> {
            window
                .ops
                .iter()
                .filter(|o| o.timed && (o.index % 2 == 1) == traced)
                .map(|o| o.latency_ms)
                .collect()
        };
        let traced_ops = window.ops.iter().filter(|o| o.index % 2 == 1).count();
        values.set(
            "retrieval.search_ms",
            stats::ratio(search.ms, search.spans as f64),
        );
        values.set(
            "retrieval.searches_per_op",
            stats::ratio(search.spans as f64, traced_ops as f64),
        );
        values.set("retrieval.build_s", setup.phases.build_s);
        values.set("retrieval.index_mb", rt.index_mb);
        values.set(
            "trace.overhead_share",
            stats::ratio(
                stats::median(&latencies(true)),
                stats::median(&latencies(false)),
            ) - 1.0,
        );
        values.set("trace.coverage", stats::ratio(search.ms, total("op").ms));
        setup.report_phases(&mut values);
        crate::write_spans("resolve", options.seed, &spans);
    }
    Ok((values, measured))
}
