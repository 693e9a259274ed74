//! Sharded retrieval over the large-corpus scenario: partition a 2k+ document corpus
//! into 8 shards, query it through the `Retriever`-generic pipeline, and verify the
//! answer — and the whole ranked context — is identical to the one-shard one.
//!
//! Run with `cargo run --release --example sharded_retrieval`.

use std::sync::Arc;
use std::time::Instant;

use rage::prelude::*;
use rage_datasets::large_corpus::{self, LargeCorpusConfig};

fn main() -> Result<(), RageError> {
    // 1. A corpus big enough for sharding to mean something: 6 signal documents
    //    spread through ~2k seeded filler documents.
    let scenario = large_corpus::scenario(LargeCorpusConfig::default());
    println!(
        "scenario {:?}: {} documents, retrieval depth {}",
        scenario.name,
        scenario.corpus_size(),
        scenario.retrieval_k
    );

    // 2. Build the index at one shard and at eight. The sharded build indexes each
    //    partition on its own worker thread (one per shard).
    let started = Instant::now();
    let single = Searcher::from_corpus(&scenario.corpus, 1);
    let single_build = started.elapsed();
    let started = Instant::now();
    let sharded = Searcher::from_corpus(&scenario.corpus, 8);
    let sharded_build = started.elapsed();
    println!(
        "index build: single {single_build:?}, 8 shards {sharded_build:?} (sizes {:?})",
        sharded.index().shard_sizes()
    );

    // 3. Both searchers wire into the pipeline the same way — and, because the shard
    //    count never changes a ranking, both pipelines retrieve the same context and
    //    answer identically.
    let llm = Arc::new(SimLlm::new(
        SimLlmConfig::default().with_prior(scenario.prior.clone()),
    ));
    let single_pipeline = RagPipeline::new(single, llm.clone());
    let sharded_pipeline = RagPipeline::new(sharded, llm);

    let a = single_pipeline.ask(&scenario.question, scenario.retrieval_k)?;
    let b = sharded_pipeline.ask(&scenario.question, scenario.retrieval_k)?;
    assert_eq!(a, b, "sharded retrieval must be indistinguishable");

    println!("Q: {}", scenario.question);
    println!("A: {} (identical at 1 and 8 shards)", a.answer());
    println!(
        "context: {:?}",
        a.context
            .sources
            .iter()
            .map(|s| s.doc_id.as_str())
            .collect::<Vec<_>>()
    );

    // 4. Even the per-document scores agree bit-for-bit: shards are scored with the
    //    *global* BM25 statistics, so partitioning never changes a single bit.
    for source in &a.context.sources {
        let x = single_pipeline
            .retriever()
            .score_document(&scenario.question, &source.doc_id)
            .expect("retrieved document scores");
        let y = sharded_pipeline
            .retriever()
            .score_document(&scenario.question, &source.doc_id)
            .expect("retrieved document scores");
        assert_eq!(x.to_bits(), y.to_bits());
    }
    println!("per-document scores match bit-for-bit across 8 shards");
    Ok(())
}
