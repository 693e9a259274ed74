//! Sharded-pipeline equivalence at the report level.
//!
//! The retrieval-layer suite (`crates/retrieval/tests/sharding.rs`) proves sharded
//! rankings are bit-identical to single-index ones; this suite proves the property
//! survives the whole explanation engine: a [`RageReport`] built through an N-way
//! sharded pipeline equals the single-index report — as a value, and through the
//! structured `from_json(to_json(..))` round trip — for every tested shard count.
//! Sharding is a deployment decision, never a behaviour change.

use rage_core::explanation::ReportConfig;
use rage_datasets::large_corpus::{self, LargeCorpusConfig};
use rage_report::scenarios::{report_for, report_for_sharded, scenario_by_name};
use rage_report::{from_json, to_json};

fn fast_config() -> ReportConfig {
    ReportConfig {
        insight_samples: 4,
        permutation_budget: Some(16),
        ..ReportConfig::default()
    }
}

fn assert_sharded_equals_single(scenario: &rage_datasets::Scenario, shard_counts: &[usize]) {
    let config = fast_config();
    let single = report_for(scenario, &config).expect("single-index explanation succeeds");
    let single_json = to_json(&single);
    for &shards in shard_counts {
        let sharded =
            report_for_sharded(scenario, &config, shards).expect("sharded explanation succeeds");
        assert_eq!(
            single, sharded,
            "{}: report through {shards} shards drifted",
            scenario.name
        );
        // from_json(to_json(..))-level equality: the structured documents are equal
        // and both decode back to the same report.
        let sharded_json = to_json(&sharded);
        assert_eq!(
            single_json, sharded_json,
            "{}: structured report through {shards} shards drifted",
            scenario.name
        );
        let decoded = from_json(&sharded_json).expect("sharded report decodes");
        assert_eq!(decoded, single, "{}: decoded report drifted", scenario.name);
    }
}

#[test]
fn us_open_report_is_shard_count_invariant() {
    let scenario = scenario_by_name("us_open").unwrap();
    assert_sharded_equals_single(&scenario, &[1, 2, 3, 7, 16]);
}

#[test]
fn adversarial_report_is_shard_count_invariant() {
    // Twin documents tie exactly under BM25, so this scenario would expose any
    // shard-merge tie-break leak directly in the report.
    let scenario = scenario_by_name("adversarial").unwrap();
    assert_sharded_equals_single(&scenario, &[1, 2, 3, 7, 16]);
}

#[test]
fn large_corpus_report_is_shard_count_invariant() {
    // A scaled-down large corpus (the needles-in-haystack structure is preserved)
    // keeps the test quick while still spreading signal documents across shards.
    let scenario = large_corpus::scenario(LargeCorpusConfig {
        num_docs: 384,
        ..LargeCorpusConfig::default()
    });
    assert_sharded_equals_single(&scenario, &[2, 7]);
}
