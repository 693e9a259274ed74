//! The README quick start: corpus → Searcher → SimLlm → RagPipeline →
//! counterfactual explanation. Mirrors the doc example in `rage_core`.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;

use rage::prelude::*;

fn main() -> Result<(), RageError> {
    // 1. A tiny knowledge corpus, indexed for BM25 retrieval.
    let mut corpus = Corpus::new();
    corpus.push(Document::new(
        "slams",
        "Grand slams",
        "Novak Djokovic holds the most grand slam titles.",
    ));
    corpus.push(Document::new(
        "wins",
        "Match wins",
        "Roger Federer leads total match wins.",
    ));
    let searcher = Searcher::from_corpus(&corpus, 1);

    // 2. The (simulated) LLM and the RAG pipeline.
    let llm = Arc::new(SimLlm::new(SimLlmConfig::default()));
    let pipeline = RagPipeline::new(searcher, llm);

    // 3. One retrieval-augmented round trip.
    let question = "Who holds the most grand slam titles?";
    let (response, evaluator) = pipeline.ask_and_explain(question, 2)?;
    println!("Q: {question}");
    println!("A: {}", response.answer());
    println!(
        "context: {:?}",
        response
            .context
            .sources
            .iter()
            .map(|s| s.doc_id.as_str())
            .collect::<Vec<_>>()
    );

    // 4. Explain the answer: the smallest source removal that changes it.
    let outcome = find_combination_counterfactual(&evaluator, &CounterfactualConfig::top_down())?;
    match outcome.counterfactual {
        Some(cf) => println!(
            "counterfactual: removing {:?} changes the answer to {:?} \
             ({} evaluations)",
            cf.removed, cf.answer, outcome.stats.candidates
        ),
        None => println!("no counterfactual found"),
    }

    // 5. Or generate the full report in one call.
    let report = RageReport::generate(&evaluator, &ReportConfig::default())?;
    print!("\n{}", report.summary());
    Ok(())
}
