//! Optimal permutations: place the most relevant sources where the model
//! actually looks, via k-best assignment — and cross-check against the naive
//! `O(k!)` baseline.
//!
//! Run with `cargo run --example optimal_permutations`.

use std::sync::Arc;

use rage::explain::optimal::OrderObjective;
use rage::prelude::*;

fn main() -> Result<(), RageError> {
    let scenario = rage::datasets::us_open::scenario();
    let searcher = Searcher::from_corpus(&scenario.corpus, 1);
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let pipeline = RagPipeline::new(searcher, Arc::new(llm));

    let (response, evaluator) =
        pipeline.ask_and_explain(&scenario.question, scenario.retrieval_k)?;
    println!("Q: {}", scenario.question);
    println!("A (retrieved order): {}\n", response.answer());

    let config = OptimalConfig::default().with_num_orders(3);
    let best = best_orders(&evaluator, &config)?;
    let worst = worst_orders(&evaluator, &config)?;

    println!("top placements (relevance x position-attention):");
    for (rank, op) in best.iter().enumerate() {
        let ids = response.context.doc_ids(&op.order);
        println!(
            "  {}. objective {:.3}  tau {:+.2}  answer {:<14} {:?}",
            rank + 1,
            op.objective,
            op.tau,
            op.answer,
            ids
        );
    }
    if let Some(w) = worst.first() {
        println!(
            "\nworst placement: objective {:.3} -> answer {}",
            w.objective, w.answer
        );
    }

    // Cross-check the ranked enumeration against brute force.
    let naive = naive_orders(&evaluator, &config, OrderObjective::Best)?;
    for (r, n) in best.iter().zip(naive.iter()) {
        assert!((r.objective - n.objective).abs() < 1e-9);
    }
    println!("\nk-best placement agrees with the O(k!) baseline");
    Ok(())
}
