//! E9: index construction and query latency at growing corpus sizes, one shard vs
//! several.
//!
//! Every leg times what a searcher runs: the `build/docs=*` and `*/single` build legs
//! run `ShardedIndex::build(.., 1)`, the build behind
//! `Searcher::from_corpus(.., 1)`, and the `single` query legs query that one-shard
//! `Searcher`. The sharded cases partition the same corpus into N per-shard indexes
//! (one build thread per shard) and merge per-shard top-k selections at query time;
//! results are identical at every shard count by contract, so the interesting output
//! is purely the timing — `build/.../shards=N` vs `build/.../single` and
//! `query/.../shards=N` vs `query/.../single`, plus the recorded `single/sharded`
//! ratios.
//!
//! A one-shard build itself splits its documents into chunks across cores once the
//! corpus holds two of the index's minimum chunks of 4,096 documents, so from 8,192
//! documents the `single` leg already uses every core and sharding adds no build
//! parallelism. The 5,000-document corpus here sits below that size: its
//! `single` leg runs on one thread, and the `build-speedup/*` ratios show what the
//! per-shard build threads add there. On a single core they hover near (or below)
//! 1×; each extra core lets the per-shard build threads push them higher.

use rage_bench::{black_box, scaled, section, Runner};
use rage_datasets::entity_registry::{self, EntityRegistryConfig};
use rage_datasets::large_corpus::{self, LargeCorpusConfig};
use rage_datasets::synthetic::{filler_corpus, filler_queries, FillerConfig};
use rage_retrieval::{Document, Searcher, ShardedIndex};

const SHARD_COUNTS: &[usize] = &[2, 4, 8];

fn main() {
    let mut runner = Runner::from_args();

    section("retrieval: index build");
    for num_docs in [100usize, 1_000, 5_000] {
        let config = FillerConfig {
            num_docs,
            ..FillerConfig::default()
        };
        let corpus = filler_corpus(config);
        runner.bench(&format!("build/docs={num_docs}"), scaled(10), || {
            black_box(ShardedIndex::build(&corpus, 1));
        });
    }

    section("retrieval: sharded index build");
    {
        let num_docs = 5_000usize;
        let config = FillerConfig {
            num_docs,
            ..FillerConfig::default()
        };
        let corpus = filler_corpus(config);
        let single = runner.bench(&format!("build/docs={num_docs}/single"), scaled(10), || {
            black_box(ShardedIndex::build(&corpus, 1));
        });
        for &shards in SHARD_COUNTS {
            let result = runner.bench(
                &format!("build/docs={num_docs}/shards={shards}"),
                scaled(10),
                || {
                    black_box(ShardedIndex::build(&corpus, shards));
                },
            );
            runner.ratio(
                &format!("build-speedup/docs={num_docs}/shards={shards}"),
                &single,
                &result,
            );
        }
    }

    section("retrieval: top-5 query");
    for num_docs in [100usize, 1_000, 5_000] {
        let config = FillerConfig {
            num_docs,
            ..FillerConfig::default()
        };
        let corpus = filler_corpus(config);
        let searcher = Searcher::from_corpus(&corpus, 1);
        let queries = filler_queries(config, 32);
        let mut next = 0usize;
        runner.bench(&format!("query/docs={num_docs}"), scaled(200), || {
            let query = &queries[next % queries.len()];
            next += 1;
            black_box(searcher.search(query, 5));
        });
    }

    section("retrieval: sharded top-5 query");
    {
        let num_docs = 5_000usize;
        let config = FillerConfig {
            num_docs,
            ..FillerConfig::default()
        };
        let corpus = filler_corpus(config);
        let queries = filler_queries(config, 32);
        let single_searcher = Searcher::from_corpus(&corpus, 1);
        let mut next = 0usize;
        let single = runner.bench(
            &format!("query/docs={num_docs}/single"),
            scaled(200),
            || {
                let query = &queries[next % queries.len()];
                next += 1;
                black_box(single_searcher.search(query, 5));
            },
        );
        for &shards in SHARD_COUNTS {
            let sharded = Searcher::from_corpus(&corpus, shards);
            let mut next = 0usize;
            let result = runner.bench(
                &format!("query/docs={num_docs}/shards={shards}"),
                scaled(200),
                || {
                    let query = &queries[next % queries.len()];
                    next += 1;
                    black_box(sharded.search(query, 5));
                },
            );
            runner.ratio(
                &format!("query-speedup/docs={num_docs}/shards={shards}"),
                &single,
                &result,
            );
        }
    }

    // Incremental mutation vs rebuild: the cost of applying one document-level
    // mutation through the delta-segment path against rebuilding the whole
    // sharded index from the mutated corpus. Rankings are bit-identical by
    // contract (the incremental property suite proves it); the timings here
    // record what that contract buys per mutation.
    section("retrieval: incremental mutation vs rebuild");
    {
        let num_docs = 5_000usize;
        let config = FillerConfig {
            num_docs,
            ..FillerConfig::default()
        };
        let corpus = filler_corpus(config);
        let breaking = Document::new(
            "bench-breaking-doc",
            "Breaking result",
            "a breaking result lands in the live corpus and must be searchable at once",
        );

        let mut mutated = corpus.clone();
        mutated.push(breaking.clone());
        let rebuild = runner.bench(
            &format!("mutate/docs={num_docs}/rebuild"),
            scaled(10),
            || {
                black_box(ShardedIndex::build(&mutated, 8));
            },
        );

        let mut index = ShardedIndex::build(&corpus, 8);
        let incremental = runner.bench(
            &format!("mutate/docs={num_docs}/incremental-add-remove"),
            scaled(10),
            || {
                index.add(breaking.clone()).unwrap();
                index.remove("bench-breaking-doc").unwrap();
                black_box(index.num_docs());
            },
        );
        runner.ratio(
            &format!("mutate-speedup/docs={num_docs}"),
            &rebuild,
            &incremental,
        );

        let mut live = ShardedIndex::build(&mutated, 8);
        runner.bench(
            &format!("mutate/docs={num_docs}/incremental-update"),
            scaled(10),
            || {
                live.update(breaking.clone()).unwrap();
                black_box(live.num_docs());
            },
        );
    }

    // The registry's large-corpus scenario: the realistic needle-in-a-haystack
    // workload (signal documents spread through 2k+ filler documents) instead of
    // uniform filler. Index build plus the scenario's own retrieval query.
    section("retrieval: large-corpus scenario");
    {
        let scenario = large_corpus::scenario(LargeCorpusConfig::default());
        let n = scenario.corpus_size();
        runner.bench(
            &format!("large-corpus/build/docs={n}/single"),
            scaled(10),
            || {
                black_box(ShardedIndex::build(&scenario.corpus, 1));
            },
        );
        runner.bench(
            &format!("large-corpus/build/docs={n}/shards=8"),
            scaled(10),
            || {
                black_box(ShardedIndex::build(&scenario.corpus, 8));
            },
        );

        let single = Searcher::from_corpus(&scenario.corpus, 1);
        let sharded = Searcher::from_corpus(&scenario.corpus, 8);
        assert_eq!(
            single.search(&scenario.question, scenario.retrieval_k),
            sharded.search(&scenario.question, scenario.retrieval_k),
            "sharded results must be identical to one-shard results"
        );
        runner.bench(
            &format!("large-corpus/query/docs={n}/single"),
            scaled(500),
            || {
                black_box(single.search(&scenario.question, scenario.retrieval_k));
            },
        );
        runner.bench(
            &format!("large-corpus/query/docs={n}/shards=8"),
            scaled(500),
            || {
                black_box(sharded.search(&scenario.question, scenario.retrieval_k));
            },
        );
    }

    // Exact dynamic pruning at registry scale: a 100k-record entity registry
    // queried with affiliation lookups, production (pruned MaxScore-style) path
    // vs the exhaustive dense-scoring oracle. Results are bit-identical by
    // contract (tests/pruning.rs proves it; a spot-check below re-asserts it on
    // this corpus), so the interesting output is the pruned/exhaustive speedup
    // ratio — the whole point of the term-dictionary + upper-bound layout.
    section("retrieval: exact pruning at 100k (entity registry)");
    {
        let config = EntityRegistryConfig {
            num_orgs: 100_000,
            ..EntityRegistryConfig::default()
        };
        let corpus = entity_registry::registry_corpus(config);
        let n = corpus.len();
        let searcher = Searcher::from_corpus(&corpus, 1);
        let lookups = entity_registry::resolution_queries(config, 64);

        for lookup in lookups.iter().take(6) {
            assert_eq!(
                searcher.search(&lookup.query, 10),
                searcher.try_search_exhaustive(&lookup.query, 10).unwrap(),
                "pruned results must be identical to exhaustive results"
            );
        }

        // One iteration = 6 consecutive lookups. The rotation repeats the three
        // query forms with period 3, so any 6 consecutive lookups hold exactly two
        // of each form — every iteration times the same workload mix, which keeps
        // the per-iteration distribution unimodal (and the regression gate on the
        // pruned bucket meaningful) on a noisy 2-vCPU runner.
        let mut next = 0usize;
        let exhaustive = runner.bench("query/docs=100k/exhaustive", scaled(200), || {
            for _ in 0..6 {
                let query = &lookups[next % lookups.len()].query;
                next += 1;
                black_box(searcher.try_search_exhaustive(query, 10).unwrap());
            }
        });
        let mut next = 0usize;
        let pruned = runner.bench("query/docs=100k/pruned", scaled(200), || {
            for _ in 0..6 {
                let query = &lookups[next % lookups.len()].query;
                next += 1;
                black_box(searcher.search(query, 10));
            }
        });
        runner.ratio(
            "query-speedup/docs=100k/pruned-vs-exhaustive",
            &exhaustive,
            &pruned,
        );

        // The batch entity-resolution bucket: one iteration resolves a rotating
        // window of 32 affiliation lookups top-10, the shape the server's batch
        // endpoint and the loadtest replay.
        let mut start = 0usize;
        runner.bench("entity-resolution/docs=100k/batch=32", scaled(10), || {
            for i in 0..32 {
                let lookup = &lookups[(start + i) % lookups.len()];
                black_box(searcher.search(&lookup.query, 10));
            }
            start += 32;
        });

        let sharded = Searcher::from_corpus(&corpus, 4);
        let mut next = 0usize;
        runner.bench(
            &format!("query/docs={n}/shards=4/pruned"),
            scaled(200),
            || {
                for _ in 0..6 {
                    let query = &lookups[next % lookups.len()].query;
                    next += 1;
                    black_box(sharded.search(query, 10));
                }
            },
        );
    }

    runner.finish();
}
