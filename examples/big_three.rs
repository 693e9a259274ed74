//! Use case #1 — "Ambiguous Answers": who is the best of The Big Three?
//!
//! Run with `cargo run --example big_three`.

use std::sync::Arc;

use rage::prelude::*;

fn main() -> Result<(), RageError> {
    let scenario = rage::datasets::big_three::scenario();
    println!("{}\n", scenario.description);

    let searcher = Searcher::from_corpus(&scenario.corpus, 1);
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let pipeline = RagPipeline::new(searcher, Arc::new(llm));

    let (response, evaluator) =
        pipeline.ask_and_explain(&scenario.question, scenario.retrieval_k)?;
    println!("Q: {}", scenario.question);
    println!(
        "A: {}  (expected: {})",
        response.answer(),
        scenario.expected_full_context_answer
    );

    let report = RageReport::generate(&evaluator, &ReportConfig::default())?;
    println!("\n{}", render_markdown(&report));
    Ok(())
}
