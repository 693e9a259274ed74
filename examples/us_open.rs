//! Use case #2 — "Inconsistent Sources": the most recent US Open champion.
//!
//! Demonstrates the permutation counterfactual: burying the up-to-date source
//! in the middle of the context makes the model answer with a stale champion.
//!
//! Run with `cargo run --example us_open`.

use std::sync::Arc;

use rage::prelude::*;

fn main() -> Result<(), RageError> {
    let scenario = rage::datasets::us_open::scenario();
    println!("{}\n", scenario.description);

    let searcher = Searcher::from_corpus(&scenario.corpus, 1);
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let pipeline = RagPipeline::new(searcher, Arc::new(llm));

    let (response, evaluator) =
        pipeline.ask_and_explain(&scenario.question, scenario.retrieval_k)?;
    println!("Q: {}", scenario.question);
    println!("A: {}", response.answer());

    let outcome = find_permutation_counterfactual(&evaluator, &SearchBudget::max_evaluations(200))?;
    match &outcome.counterfactual {
        Some(cf) => {
            let order = response.context.doc_ids(&cf.order);
            println!(
                "\nre-ordering the sources as {order:?} (tau {:.2}) flips the answer to {:?}",
                cf.tau, cf.answer
            );
        }
        None => println!("\nthe answer is stable under re-ordering"),
    }

    let insights = Insights::with_budget(
        &evaluator,
        &rage::explain::insights::random_permutations(evaluator.k(), 40, 3),
        rage::explain::insights::DEFAULT_MIN_CONFIDENCE,
        &SearchBudget::UNLIMITED,
    )?;
    println!("\nanswer distribution over 40 random orders:");
    for entry in &insights.distribution.entries {
        println!("  {:<16} {:>5.1}%", entry.answer, entry.share * 100.0);
    }
    Ok(())
}
