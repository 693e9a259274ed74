//! Use case #3 — "Timelines": counting Player-of-the-Year awards.
//!
//! The bottom-up counterfactual cites the documents that actually support the
//! count; removing one supporting year lowers the answer.
//!
//! Run with `cargo run --example timeline`.

use std::sync::Arc;

use rage::prelude::*;

fn main() -> Result<(), RageError> {
    let scenario = rage::datasets::timeline::scenario();
    println!("{}\n", scenario.description);

    let searcher = Searcher::from_corpus(&scenario.corpus, 1);
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let pipeline = RagPipeline::new(searcher, Arc::new(llm));

    let (response, evaluator) =
        pipeline.ask_and_explain(&scenario.question, scenario.retrieval_k)?;
    println!("Q: {}", scenario.question);
    println!("A: {}", response.answer());

    let outcome = find_combination_counterfactual(
        &evaluator,
        &CounterfactualConfig::top_down().with_scoring(ScoringMethod::RetrievalScore),
    )?;
    match &outcome.counterfactual {
        Some(cf) => {
            let removed = response.context.doc_ids(&cf.removed);
            println!(
                "\nremoving {removed:?} changes the count from {:?} to {:?}",
                cf.baseline_answer, cf.answer
            );
        }
        None => println!("\nno single removal changes the count"),
    }
    Ok(())
}
