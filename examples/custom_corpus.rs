//! Bring your own corpus: JSONL round trip plus an explanation over it.
//!
//! Run with `cargo run --example custom_corpus`.

use std::sync::Arc;

use rage::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A corpus in the Pyserini-style JSONL interchange format.
    let jsonl = r#"
{"id": "volcanoes", "title": "European volcanoes", "text": "Mount Etna is the most active volcano in Europe."}
{"id": "rivers", "title": "European rivers", "contents": "The Volga is the longest river in Europe."}
{"id": "peaks", "title": "Mountain peaks", "text": "Mont Blanc is the highest peak in the Alps.", "fields": {"region": "alps"}}
"#;
    let corpus = Corpus::read_jsonl(jsonl.trim().as_bytes())?;
    println!("loaded {} documents from JSONL", corpus.len());

    let searcher = Searcher::from_corpus(&corpus, 1);
    let pipeline = RagPipeline::new(searcher, Arc::new(SimLlm::new(SimLlmConfig::default())));

    let question = "What is the most active volcano in Europe?";
    let (response, evaluator) = pipeline.ask_and_explain(question, 2)?;
    println!("Q: {question}");
    println!("A: {}", response.answer());

    let report = RageReport::generate(&evaluator, &ReportConfig::default())?;
    print!("\n{}", report.summary());

    // Round-trip the corpus back out.
    let mut buffer = Vec::new();
    corpus.write_jsonl(&mut buffer)?;
    assert_eq!(Corpus::read_jsonl(buffer.as_slice())?, corpus);
    println!("JSONL round trip ok ({} bytes)", buffer.len());
    Ok(())
}
