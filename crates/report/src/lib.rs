//! # rage-report
//!
//! Rendering, structured serialization and diffing of [`RageReport`]s — the
//! textual and machine-readable counterparts of the demonstration UI the
//! paper describes (§III).
//!
//! Three renderers cover the same six demonstration panels (answer
//! provenance, counterfactual citations, order sensitivity, optimal
//! placements, perturbation insights, evaluation cost):
//!
//! * [`render_markdown`] — human-readable markdown;
//! * [`to_json`] — the versioned structured format (schema below), with
//!   [`from_json`] for lossless round-tripping;
//! * [`render_html`] — a single self-contained HTML page (inline CSS, no
//!   external assets) mirroring the paper's demo layout.
//!
//! Two reports can be compared with [`diff`], which produces a [`ReportDiff`]
//! (answer flips, citation-set deltas, rule churn, evaluation-cost deltas)
//! with markdown and JSON renderings of its own.
//!
//! ## JSON schema (version 2)
//!
//! [`to_json`] emits one object with `"schema_version": 2` and
//! `"kind": "rage-report"`. All numbers are JSON numbers (integers render
//! without a decimal point); every field of the in-memory [`RageReport`] is
//! covered, so `from_json(to_json(r)) == r` exactly:
//!
//! ```text
//! {
//!   "schema_version": 2,
//!   "kind": "rage-report",
//!   "question": str,
//!   "answers": {"full_context": str, "empty_context": str},
//!   "context": {"query": str, "sources": [
//!       {"doc_id": str, "title": str, "text": str,
//!        "rank": int, "retrieval_score": num}]},
//!   "source_scores": [num],
//!   "counterfactuals": {
//!     "top_down":  {"counterfactual": null | {"removed": [int], "kept": [int],
//!                    "baseline_answer": str, "answer": str},
//!                   "exhausted_budget": bool,
//!                   "stats": {"candidates": int, "llm_calls": int}},
//!     "bottom_up": <same shape as top_down>
//!   },
//!   "permutation": {"counterfactual": null | {"order": [int], "tau": num,
//!                    "baseline_answer": str, "answer": str},
//!                   "exhausted_budget": bool, "stats": {...}},
//!   "best_orders":  [{"order": [int], "objective": num, "answer": str, "tau": num}],
//!   "worst_orders": [<same shape>],
//!   "insights": {
//!     "num_samples": int,
//!     "distribution": {"total": int, "entries": [
//!         {"answer": str, "normalized": str, "count": int, "share": num,
//!          "interval"?: {"lower": num, "upper": num}}]},
//!     "table": {"rows": [{"source": int, "doc_id": str, "present_in": int,
//!         "cells": [{"answer": str, "present": int, "out_of": int,
//!                    "mean_position": num | null}]}]},
//!     "rules": [{"source": int, "doc_id": str, "present": bool, "answer": str,
//!                "support": num, "confidence": num}],
//!     "stats": {"candidates": int, "llm_calls": int}
//!   },
//!   "cost": {"evaluations": int, "llm_calls": int, "permutation_budget": int},
//!   "completeness"?: {                  // only when any section is inexact
//!     "top_down":    <marker>, "bottom_up": <marker>,
//!     "permutation": <marker>, "placements": <marker>, "insights": <marker>
//!   }
//! }
//!
//! <marker> := {"kind": "exact"}
//!           | {"kind": "budget_truncated", "evaluated": int, "pruned": int}
//!           | {"kind": "deadline_truncated", "elapsed_ms": int}
//! ```
//!
//! Version 2 adds to version 1: `cost.permutation_budget` (the effective
//! permutation search budget), per-entry `interval` confidence bounds on the
//! insights distribution when the sample was truncated, and the optional
//! top-level `completeness` block carrying each section's
//! [`rage_core::Completeness`] marker when an anytime deadline or pruning
//! made any section inexact. Exhaustive (default) reports omit the block —
//! their markers are derivable from each section's `exhausted_budget` flag,
//! which is how v1 documents decode: [`from_json`] still accepts
//! `schema_version: 1`, deriving `Exact` markers everywhere, empty intervals,
//! and reconstructing the permutation budget from the evaluated count (when
//! the budget was exhausted) or the engine default.
//!
//! The version is bumped whenever a field is renamed, removed or changes
//! meaning; adding fields is backwards-compatible within a version.
//! [`from_json`] rejects documents whose `schema_version` is outside
//! `[MIN_SCHEMA_VERSION, SCHEMA_VERSION]`.
//!
//! ## Command line
//!
//! The crate ships a `report` binary; scenario names come from the shared
//! [`rage_datasets::ScenarioRegistry`] (see [`scenarios`]):
//!
//! ```text
//! report --scenario <name> --format <md|json|html> \
//!        [--out PATH] [--shards N] [--anytime MS] # render one scenario
//! report --list-scenarios                        # registry names + summaries
//! report diff A.json B.json [--format <md|json>] # compare two saved reports
//! report smoke                                   # whole registry × formats +
//!                                                # round-trip checks (CI)
//! ```
//!
//! `--shards N` retrieves through an N-way sharded index; the rendered report
//! is equal to the single-index one for every shard count (pinned by
//! `tests/sharded.rs`). `--anytime MS` bounds the whole explanation by a
//! wall-clock deadline; truncated sections carry non-`Exact` completeness
//! markers in the rendered output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use rage_core::counterfactual::SearchDirection;
use rage_core::RageReport;

pub mod cpu;
mod diff;
mod html;
mod json;
pub mod scenarios;
pub mod service;

pub use diff::{diff, ReportDiff};
pub use html::render_html;
pub use json::{from_json, to_json, ReportJsonError, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
pub use service::{
    ReportCacheStats, ReportFormat, Service, ServiceError, MAX_PROMPT_TOKENS, MAX_SHARDS,
};
// Re-exported so Service callers (the HTTP server above all) can build the
// documents they feed the corpus-mutation API without a direct dependency on
// the retrieval crate.
pub use rage_retrieval::Document;

/// Escape a value for use inside a markdown table cell.
///
/// `|` would end the cell and a raw newline would end the row, so both are
/// escaped (`\|`, `<br>`); `\r` is dropped and surrounding whitespace is
/// trimmed so hostile doc ids or answers cannot corrupt the table layout.
pub(crate) fn escape_cell(value: &str) -> String {
    let trimmed = value.trim();
    let mut out = String::with_capacity(trimmed.len());
    for ch in trimmed.chars() {
        match ch {
            '|' => out.push_str("\\|"),
            '\n' => out.push_str("<br>"),
            '\r' => {}
            c => out.push(c),
        }
    }
    out
}

/// Format a share in `[0, 1]` as a percentage with one decimal.
///
/// Tiny non-zero shares print as `<0.1%` instead of rounding to a misleading
/// `0.0%`.
pub(crate) fn format_share(share: f64) -> String {
    let pct = share * 100.0;
    if pct > 0.0 && pct < 0.1 {
        "<0.1%".to_string()
    } else {
        format!("{pct:.1}%")
    }
}

/// Render a full explanation report as markdown.
///
/// Sections mirror the paper's demonstration panels: answer provenance,
/// counterfactual citations, order sensitivity, optimal placements and
/// perturbation insights, closed by the evaluation-cost footer. Table cells
/// are escaped, so doc ids and answers containing `|` or newlines render
/// safely.
pub fn render_markdown(report: &RageReport) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# RAGE explanation\n");
    let _ = writeln!(md, "**Question.** {}\n", report.question);
    let _ = writeln!(md, "**Answer.** {}\n", report.full_context_answer);
    let _ = writeln!(
        md,
        "**Answer without context.** {}\n",
        report.empty_context_answer
    );

    let _ = writeln!(md, "## Retrieved context\n");
    let _ = writeln!(md, "| # | source | retrieval score | relevance |");
    let _ = writeln!(md, "|---|--------|-----------------|-----------|");
    for (i, source) in report.context.sources.iter().enumerate() {
        // A missing relevance score is surfaced as n/a, not a silent 0.000.
        let relevance = match report.source_scores.get(i) {
            Some(score) => format!("{score:.3}"),
            None => "n/a".to_string(),
        };
        let _ = writeln!(
            md,
            "| {} | {} | {:.3} | {} |",
            i + 1,
            escape_cell(&source.doc_id),
            source.retrieval_score,
            relevance
        );
    }
    md.push('\n');

    let _ = writeln!(md, "## Counterfactual citations\n");
    match &report.top_down.counterfactual {
        Some(cf) => {
            let _ = writeln!(
                md,
                "Removing {{{}}} changes the answer to **{}** \
                 (found after {} evaluations).",
                report.citations().join(", "),
                cf.answer,
                report.top_down.stats.candidates
            );
        }
        None => {
            let _ = writeln!(
                md,
                "No removal within budget changes the answer ({} evaluations).",
                report.top_down.stats.candidates
            );
        }
    }
    match &report.bottom_up.counterfactual {
        Some(cf) => {
            let ids = report
                .context
                .doc_ids(cf.cited_positions(SearchDirection::BottomUp));
            let _ = writeln!(
                md,
                "Retaining only {{{}}} already changes the no-context answer to **{}**.",
                ids.join(", "),
                cf.answer
            );
        }
        None => {
            let _ = writeln!(
                md,
                "No retained subset within budget changes the no-context answer."
            );
        }
    }
    md.push('\n');

    let _ = writeln!(md, "## Order sensitivity\n");
    match &report.permutation.counterfactual {
        Some(cf) => {
            let _ = writeln!(
                md,
                "Re-ordering the context (Kendall tau {:.2}) flips the answer to **{}**.",
                cf.tau, cf.answer
            );
        }
        None => {
            let _ = writeln!(
                md,
                "The answer is stable under the {} most similar re-orderings tested.",
                report.permutation.stats.candidates
            );
        }
    }
    md.push('\n');

    if !report.best_orders.is_empty() {
        let _ = writeln!(md, "## Optimal placements\n");
        let _ = writeln!(md, "| rank | order (doc ids) | objective | answer |");
        let _ = writeln!(md, "|------|-----------------|-----------|--------|");
        for (rank, op) in report.best_orders.iter().enumerate() {
            let ids: Vec<String> = report
                .context
                .doc_ids(&op.order)
                .iter()
                .map(|id| escape_cell(id))
                .collect();
            let _ = writeln!(
                md,
                "| {} | {} | {:.3} | {} |",
                rank + 1,
                ids.join(" → "),
                op.objective,
                escape_cell(&op.answer)
            );
        }
        if let Some(worst) = report.worst_orders.first() {
            let ids: Vec<String> = report
                .context
                .doc_ids(&worst.order)
                .iter()
                .map(|id| escape_cell(id))
                .collect();
            let _ = writeln!(
                md,
                "\nWorst placement: {} (objective {:.3}) → {}.",
                ids.join(" → "),
                worst.objective,
                escape_cell(&worst.answer)
            );
        }
        md.push('\n');
    }

    let _ = writeln!(
        md,
        "## Insights over {} sampled orders\n",
        report.insights.num_samples
    );
    let _ = writeln!(md, "| answer | share |");
    let _ = writeln!(md, "|--------|-------|");
    for entry in &report.insights.distribution.entries {
        let _ = writeln!(
            md,
            "| {} | {} |",
            escape_cell(&entry.answer),
            format_share(entry.share)
        );
    }
    if !report.insights.rules.is_empty() {
        let _ = writeln!(md, "\nRules:");
        for rule in &report.insights.rules {
            let _ = writeln!(
                md,
                "- when `{}` is {} the answer is **{}** \
                 (confidence {}, support {})",
                escape_cell(&rule.doc_id),
                if rule.present { "present" } else { "absent" },
                escape_cell(&rule.answer),
                format_share(rule.confidence),
                format_share(rule.support)
            );
        }
    }
    md.push('\n');

    let _ = writeln!(
        md,
        "---\n\n*{} distinct perturbations evaluated, {} LLM inferences, \
         permutation budget {}.*",
        report.evaluations, report.llm_calls, report.permutation_budget
    );
    if !report.all_sections_exact() {
        let mut notes = Vec::new();
        for (name, marker) in [
            ("top-down", &report.top_down.completeness),
            ("bottom-up", &report.bottom_up.completeness),
            ("permutation", &report.permutation.completeness),
            ("placements", &report.placements_completeness),
            ("insights", &report.insights.completeness),
        ] {
            if !marker.is_exact() {
                notes.push(format!("{name}: {}", marker.describe()));
            }
        }
        let _ = writeln!(md, "\n*Truncated sections — {}.*", notes.join("; "));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_core::explanation::ReportConfig;
    use rage_core::{Context, Evaluator};
    use rage_retrieval::Document;
    use std::sync::Arc;

    /// The `us_open` report the service serves.
    fn us_open_report() -> RageReport {
        RageReport::clone(&Service::new().report("us_open", None).unwrap())
    }

    /// Answers a fixed string whenever any source is present — every sampled
    /// permutation then yields the same answer, so every source produces a
    /// confidence-1 presence rule (which is what the rule-escaping test
    /// needs).
    struct ConstantLlm;

    impl rage_llm::LanguageModel for ConstantLlm {
        fn generate(&self, input: &rage_llm::LlmInput) -> rage_llm::Generation {
            let answer = if input.sources.is_empty() {
                "nothing".to_string()
            } else {
                "Division Winner".to_string()
            };
            rage_llm::Generation {
                answer: answer.clone(),
                text: answer,
                source_attention: vec![1.0; input.sources.len()],
                prompt_tokens: 1,
            }
        }
    }

    /// A report over a hostile corpus whose ids and text carry markdown
    /// metacharacters, fed in directly (the `custom_corpus` path that
    /// bypasses retrieval).
    fn hostile_report() -> RageReport {
        let documents = [
            Document::new(
                "evil|pipe",
                "Pipe | title",
                "Alice Archer wins the | pipe division.",
            ),
            Document::new(
                "evil\nnewline",
                "Broken\nlines",
                "Boris Blake wins the newline division.",
            ),
            Document::new(
                "  padded  ",
                "Padded",
                "Clara Chen wins the padded division.",
            ),
        ];
        let context = Context::from_documents("Who wins the division?", &documents);
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context);
        RageReport::generate(&evaluator, &ReportConfig::default()).unwrap()
    }

    #[test]
    fn markdown_contains_every_section() {
        let md = render_markdown(&us_open_report());
        for heading in [
            "# RAGE explanation",
            "## Retrieved context",
            "## Counterfactual citations",
            "## Order sensitivity",
            "## Optimal placements",
            "## Insights over",
        ] {
            assert!(md.contains(heading), "missing {heading:?} in:\n{md}");
        }
        assert!(md.contains("**Answer.** Coco Gauff"));
        assert!(md.contains("LLM inferences"));
    }

    #[test]
    fn markdown_tables_have_one_row_per_source_and_answer() {
        let report = us_open_report();
        let md = render_markdown(&report);
        for source in &report.context.sources {
            assert!(
                md.contains(&format!("| {} |", source.doc_id)),
                "{}",
                source.doc_id
            );
        }
        for entry in &report.insights.distribution.entries {
            assert!(md.contains(&entry.answer));
        }
    }

    #[test]
    fn hostile_doc_ids_cannot_corrupt_tables() {
        // Regression: raw `|` / `\n` in doc ids used to split table cells.
        let report = hostile_report();
        let md = render_markdown(&report);
        assert!(md.contains("evil\\|pipe"), "pipe not escaped:\n{md}");
        assert!(md.contains("evil<br>newline"), "newline not escaped:\n{md}");
        // Every row of the context table has exactly the 4 columns the header
        // declares (5 separators).
        let context_rows: Vec<&str> = md
            .lines()
            .skip_while(|l| !l.starts_with("## Retrieved context"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .collect();
        assert!(context_rows.len() >= 2 + report.context.len());
        for row in context_rows {
            let unescaped_pipes = row
                .as_bytes()
                .iter()
                .enumerate()
                .filter(|&(i, &b)| b == b'|' && (i == 0 || row.as_bytes()[i - 1] != b'\\'))
                .count();
            assert_eq!(unescaped_pipes, 5, "malformed row {row:?}");
        }
        // Leading/trailing whitespace in ids is trimmed inside cells.
        assert!(md.contains("| padded |"), "padding not trimmed:\n{md}");
    }

    #[test]
    fn hostile_doc_ids_are_escaped_in_rules_and_worst_placement() {
        // With a constant answer every source yields a confidence-1 presence
        // rule, so the hostile ids reach the rules bullets and the worst-
        // placement line too.
        let report = hostile_report();
        assert!(!report.insights.rules.is_empty());
        let md = render_markdown(&report);
        assert!(
            md.lines().any(|l| l.contains("when `evil\\|pipe` is")),
            "pipe not escaped in rules:\n{md}"
        );
        assert!(
            md.lines().any(|l| l.contains("when `evil<br>newline` is")),
            "newline not escaped in rules:\n{md}"
        );
        let worst = md
            .lines()
            .find(|l| l.starts_with("Worst placement:"))
            .expect("worst placement line");
        assert!(worst.contains("evil<br>newline"), "{worst}");
    }

    #[test]
    fn shares_use_one_decimal_with_floor() {
        assert_eq!(format_share(0.004), "0.4%");
        assert_eq!(format_share(0.0004), "<0.1%");
        assert_eq!(format_share(0.0), "0.0%");
        assert_eq!(format_share(1.0), "100.0%");
        assert_eq!(format_share(2.0 / 3.0), "66.7%");
    }

    #[test]
    fn missing_source_scores_render_as_na() {
        let mut report = us_open_report();
        report.source_scores.truncate(1);
        let md = render_markdown(&report);
        assert!(md.contains("| n/a |"), "missing score not n/a:\n{md}");
    }
}
