//! `explain`: one analyst explains distinct affiliation questions end to end.
//!
//! Closed loop, 1 client. An op asks one question through
//! `RagPipeline::ask_and_report` under the served `ReportConfig::default()` and
//! renders the report to JSON. The runtime is built the way `Service` builds
//! one: a 1-shard `LiveSearcher`, a prior-seeded `SimLlm` and one shared
//! `PrefixCache`. Forwards are almost all of an op, so `llm` and `core`
//! changes show here; retrieval is one lookup per op and the server is absent.
//! No question repeats within a run, so no cache can skip an explanation.
//!
//! A traced op builds the report stage by stage through the public search
//! functions instead, so each stage gets its own span; outside the timed
//! window the replayed reports are compared with `generate_with_deadline`.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rage_core::counterfactual::{
    find_combination_counterfactual, find_permutation_counterfactual, CounterfactualConfig,
    SearchDirection,
};
use rage_core::explanation::ReportConfig;
use rage_core::insights::{random_permutations, Insights, DEFAULT_MIN_CONFIDENCE};
use rage_core::optimal::{ranked_orders_with_budget, OptimalConfig, OrderObjective};
use rage_core::{
    answers_equal, Evaluator, Perturbation, RagPipeline, RagResponse, RageError, RageReport,
    SearchBudget,
};
use rage_datasets::entity_registry::{self, EntityRegistryConfig, ResolutionQuery};
use rage_llm::cache::PrefixCache;
use rage_llm::knowledge::PriorKnowledge;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::{CacheStats, LanguageModel};
use rage_retrieval::{LiveSearcher, Retriever};

use crate::closed_loop::{self, Op};
use crate::trace::{self, TracedLlm, TracedRetriever};
use crate::{host, secs_since, stats, Measured, Options, Phases, Setup, Values};

/// The report stages in the order `RageReport::generate_with_deadline` runs
/// them, with the span each gets in a traced op.
const STAGES: [(&str, &str); 6] = [
    ("baseline", "core.baseline"),
    ("top_down", "core.top_down"),
    ("bottom_up", "core.bottom_up"),
    ("permutation", "core.permutation"),
    ("placements", "core.placements"),
    ("insights", "core.insights"),
];

/// The exact window: the first ops of a run, over which `hit_at_1`, flips
/// and forward counts are computed. At about 3 ops/s it ends well inside a
/// 30 s timed window.
const EXACT_OPS: usize = 40;

/// Traced ops whose stage-by-stage report is compared with a report generated
/// in one call (each comparison costs one more report).
const GUARD_OPS: usize = 4;

struct Runtime {
    retrieval_k: usize,
    prior: PriorKnowledge,
    prefix_cache: Arc<PrefixCache>,
    plain: RagPipeline<Box<dyn Retriever>>,
    traced: RagPipeline<Box<dyn Retriever>>,
}

fn build() -> Result<(Runtime, Phases), String> {
    let start = Instant::now();
    let scenario = entity_registry::scenario(EntityRegistryConfig::default());
    let corpus_s = secs_since(start);

    let start = Instant::now();
    let prefix_cache = Arc::new(PrefixCache::default());
    let llm: Arc<dyn LanguageModel> = Arc::new(
        SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()))
            .with_prefix_cache(Arc::clone(&prefix_cache)),
    );
    let live = Arc::new(LiveSearcher::from_corpus(&scenario.corpus, 1));
    let plain = RagPipeline::new(
        Box::new(Arc::clone(&live)) as Box<dyn Retriever>,
        Arc::clone(&llm),
    );
    let traced = RagPipeline::new(
        Box::new(TracedRetriever(Arc::clone(&live))) as Box<dyn Retriever>,
        Arc::new(TracedLlm(llm)),
    );
    let build_s = secs_since(start);

    // Warm-up: the scenario's own question, which no measured op asks.
    let start = Instant::now();
    plain
        .ask_and_report(
            &scenario.question,
            scenario.retrieval_k,
            &ReportConfig::default(),
            None,
        )
        .map_err(|err| format!("explain warm-up failed: {err}"))?;
    let warmup_s = secs_since(start);

    let runtime = Runtime {
        retrieval_k: scenario.retrieval_k,
        prior: scenario.prior,
        prefix_cache,
        plain,
        traced,
    };
    Ok((
        runtime,
        Phases {
            corpus_s,
            build_s,
            warmup_s,
        },
    ))
}

/// Evaluations and forwards one stage caused.
#[derive(Debug, Clone, Copy, Default)]
struct StageCost {
    evaluations: usize,
    forwards: usize,
}

/// Run one stage under its span and charge its cost.
fn stage<T>(
    evaluator: &Evaluator,
    index: usize,
    costs: &mut [StageCost; 6],
    f: impl FnOnce() -> Result<T, RageError>,
) -> Result<T, RageError> {
    let (evaluations, forwards) = (evaluator.evaluations(), evaluator.llm_calls());
    let out = {
        let _span = trace::span(STAGES[index].1);
        f()
    };
    costs[index].evaluations += evaluator.evaluations() - evaluations;
    costs[index].forwards += evaluator.llm_calls() - forwards;
    out
}

/// `RageReport::generate_with_deadline` without a deadline, one stage at a time.
fn replay_stages(
    evaluator: &Evaluator,
    config: &ReportConfig,
    costs: &mut [StageCost; 6],
) -> Result<RageReport, RageError> {
    let evaluations_before = evaluator.evaluations();
    let llm_calls_before = evaluator.llm_calls();
    let (full_context_answer, empty_context_answer, source_scores) =
        stage(evaluator, 0, costs, || {
            Ok((
                evaluator.full_context_answer()?,
                evaluator.empty_context_answer()?,
                config.scoring.source_scores(evaluator)?,
            ))
        })?;
    let combination = CounterfactualConfig {
        direction: SearchDirection::TopDown,
        scoring: config.scoring,
        max_size: None,
        budget: SearchBudget::from(config.combination_budget),
        prune: false,
    };
    let top_down = stage(evaluator, 1, costs, || {
        find_combination_counterfactual(evaluator, &combination)
    })?;
    let bottom_up = stage(evaluator, 2, costs, || {
        find_combination_counterfactual(
            evaluator,
            &CounterfactualConfig {
                direction: SearchDirection::BottomUp,
                ..combination
            },
        )
    })?;
    let permutation = stage(evaluator, 3, costs, || {
        find_permutation_counterfactual(evaluator, &SearchBudget::from(config.permutation_budget))
    })?;
    let optimal = OptimalConfig {
        scoring: config.scoring,
        position_bias: config.position_bias,
        num_orders: config.num_optimal_orders,
    };
    let ((best_orders, best), (worst_orders, worst)) = stage(evaluator, 4, costs, || {
        Ok((
            ranked_orders_with_budget(
                evaluator,
                &optimal,
                OrderObjective::Best,
                &SearchBudget::UNLIMITED,
            )?,
            ranked_orders_with_budget(
                evaluator,
                &optimal,
                OrderObjective::Worst,
                &SearchBudget::UNLIMITED,
            )?,
        ))
    })?;
    let insights = stage(evaluator, 5, costs, || {
        let samples = random_permutations(evaluator.k(), config.insight_samples, config.seed);
        Insights::with_budget(
            evaluator,
            &samples,
            DEFAULT_MIN_CONFIDENCE,
            &SearchBudget::UNLIMITED,
        )
    })?;
    Ok(RageReport {
        question: evaluator.question().to_string(),
        context: evaluator.context().clone(),
        full_context_answer,
        empty_context_answer,
        source_scores,
        top_down,
        bottom_up,
        permutation,
        permutation_budget: config.effective_permutation_budget(),
        best_orders,
        worst_orders,
        placements_completeness: best.merge(worst),
        insights,
        evaluations: evaluator.evaluations() - evaluations_before,
        llm_calls: evaluator.llm_calls() - llm_calls_before,
        corpus: None,
    })
}

/// What one op returned.
struct Explained {
    response: RagResponse,
    report: RageReport,
    json: String,
}

/// One op's result; a traced op also carries its stage costs and memo counters.
struct Answer {
    traced: bool,
    result: Result<Explained, String>,
    costs: [StageCost; 6],
    memo: CacheStats,
}

fn plain_op(rt: &Runtime, question: &str, config: &ReportConfig) -> Result<Explained, String> {
    let (response, report) = rt
        .plain
        .ask_and_report(question, rt.retrieval_k, config, None)
        .map_err(|err| err.to_string())?;
    let json = rage_report::to_json(&report).render();
    Ok(Explained {
        response,
        report,
        json,
    })
}

fn traced_op(
    rt: &Runtime,
    op: u64,
    question: &str,
    config: &ReportConfig,
    costs: &mut [StageCost; 6],
    memo: &mut CacheStats,
) -> Result<Explained, String> {
    let _op = trace::op(op);
    let response = {
        let _span = trace::span("ask");
        rt.traced.ask(question, rt.retrieval_k)
    }
    .map_err(|err| err.to_string())?;
    let evaluator = rt.traced.evaluator(response.context.clone());
    let report = replay_stages(&evaluator, config, costs).map_err(|err| err.to_string())?;
    *memo = evaluator.cache_stats();
    let json = {
        let _span = trace::span("report.render");
        rage_report::to_json(&report).render()
    };
    Ok(Explained {
        response,
        report,
        json,
    })
}

/// Replay the reported counterfactuals on a fresh evaluator over a fresh model:
/// each must reproduce its answer, and that answer must differ from the
/// full-context answer. Returns whether a top-down counterfactual was found.
fn check(explained: &Explained, checker: &Arc<dyn LanguageModel>) -> Result<bool, String> {
    let report = &explained.report;
    if report.full_context_answer != explained.response.answer() {
        return Err("report answer differs from the ask answer".into());
    }
    rage_json::JsonValue::parse(&explained.json).map_err(|err| format!("bad JSON: {err}"))?;
    let evaluator = Evaluator::new(Arc::clone(checker), report.context.clone());
    let replay = |perturbation: Perturbation, answer: &str| -> Result<(), String> {
        let replayed = evaluator
            .answer_for(&perturbation)
            .map_err(|err| err.to_string())?;
        if replayed != answer || answers_equal(answer, &report.full_context_answer) {
            return Err(format!(
                "counterfactual {perturbation:?} does not flip: replayed {replayed:?}, \
                 reported {answer:?}, baseline {:?}",
                report.full_context_answer
            ));
        }
        Ok(())
    };
    if let Some(cf) = &report.permutation.counterfactual {
        replay(Perturbation::Permutation(cf.order.clone()), &cf.answer)?;
    }
    match &report.top_down.counterfactual {
        Some(cf) => {
            replay(Perturbation::Combination(cf.kept.clone()), &cf.answer)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

pub fn run(options: &Options) -> Result<(Values, Measured), String> {
    let setup = Setup::repeat(build)?;
    let rt = &setup.instance;
    let config = ReportConfig::default();

    // The seed picks the order in which the registry's distinct questions
    // are asked.
    let registry = EntityRegistryConfig::default();
    let mut questions: Vec<ResolutionQuery> =
        entity_registry::resolution_queries(registry, registry.num_orgs);
    questions.shuffle(&mut StdRng::seed_from_u64(options.seed));

    let cache_before = rt.prefix_cache.stats();
    let window = closed_loop::run(
        1,
        options.seconds,
        EXACT_OPS,
        |_| (),
        |(), client, index| {
            let question = &questions[index % questions.len()].query;
            let traced = options.trace && index % 2 == 1;
            let mut costs = [StageCost::default(); 6];
            let mut memo = CacheStats::default();
            let result = if traced {
                let id = closed_loop::trace_id(client, index);
                traced_op(rt, id, question, &config, &mut costs, &mut memo)
            } else {
                plain_op(rt, question, &config)
            };
            Answer {
                traced,
                result,
                costs,
                memo,
            }
        },
    );
    let cache_after = rt.prefix_cache.stats();

    // Checks, outside the timed window.
    let checker: Arc<dyn LanguageModel> = Arc::new(
        SimLlm::new(SimLlmConfig::default().with_prior(rt.prior.clone()))
            .with_prefix_cache(Arc::new(PrefixCache::default())),
    );
    let spans = trace::drain();
    let coverage = trace::op_coverage(&spans);
    let mut measured = Measured::new(setup.seconds.clone(), &window);
    let mut flips = 0u64;
    let mut guarded = 0usize;
    for op in &window.ops {
        let exact = op.exact(EXACT_OPS);
        measured.lookups += u64::from(exact);
        let expected = &questions[op.index % questions.len()].expected_doc_id;
        let outcome = op
            .result
            .result
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|explained| {
                let flipped = check(explained, &checker)?;
                if op.result.traced {
                    // The ask, stage and render spans must cover the op.
                    let id = closed_loop::trace_id(op.client, op.index);
                    let covered = coverage.get(&id).copied();
                    if covered.is_none_or(|c| c < 0.95) {
                        return Err(format!("spans cover {covered:?} of the traced op"));
                    }
                    if guarded < GUARD_OPS {
                        guarded += 1;
                        let evaluator = rt.plain.evaluator(explained.response.context.clone());
                        let whole = RageReport::generate_with_deadline(&evaluator, &config, None)
                            .map_err(|err| err.to_string())?;
                        if whole != explained.report {
                            return Err(
                                "stage-by-stage report differs from generate_with_deadline".into(),
                            );
                        }
                    }
                }
                Ok((explained, flipped))
            });
        match outcome {
            Ok((explained, flipped)) if exact => {
                flips += u64::from(flipped);
                let top = explained.response.context.sources.first();
                measured.hits += u64::from(top.is_some_and(|s| &s.doc_id == expected));
            }
            Ok(_) => {}
            Err(message) => {
                measured.failed += 1;
                eprintln!("explain: op {} failed: {message}", op.index);
            }
        }
    }

    let mut values = Values::default();
    if options.trace {
        layer_values(&mut values, &spans, &window);
        values.set(
            "llm.prefix_cache_hit_rate",
            stats::ratio(
                (cache_after.hits - cache_before.hits) as f64,
                (cache_after.lookups() - cache_before.lookups()) as f64,
            ),
        );
        values.set(
            "core.flip_share",
            stats::ratio(flips as f64, measured.lookups as f64),
        );
        values.set("retrieval.build_s", setup.phases.build_s);
        values.set("retrieval.index_mb", index_mb());
        setup.report_phases(&mut values);
        crate::write_spans("explain", options.seed, &spans);
    }
    Ok((values, measured))
}

/// Memory the 4096-record index takes: resident set growth across one build.
fn index_mb() -> f64 {
    let corpus = entity_registry::registry_corpus(EntityRegistryConfig::default());
    let before = host::rss_mb();
    let live = LiveSearcher::from_corpus(&corpus, 1);
    let after = host::rss_mb();
    drop(live);
    after - before
}

/// Per-layer values of the traced ops: times over every traced op, counts
/// over the traced ops of the exact window.
fn layer_values(values: &mut Values, spans: &[trace::Span], window: &closed_loop::Window<Answer>) {
    let traced: Vec<&Op<Answer>> = window.ops.iter().filter(|o| o.result.traced).collect();
    let exact: Vec<&Op<Answer>> = traced
        .iter()
        .copied()
        .filter(|o| o.exact(EXACT_OPS))
        .collect();
    let ops = traced.len() as f64;
    let exact_ops = exact.len() as f64;
    let totals = trace::totals(spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let op_ms = total("op").ms;

    // Forwards, tokens and searches are counted over the exact window's
    // traced ops, so they repeat exactly for a seed.
    let exact_ids: std::collections::HashSet<u64> = exact
        .iter()
        .map(|o| closed_loop::trace_id(o.client, o.index))
        .collect();
    let exact_spans: Vec<trace::Span> = spans
        .iter()
        .filter(|s| exact_ids.contains(&s.op))
        .cloned()
        .collect();
    let exact_totals = trace::totals(&exact_spans);
    let exact_total = |name: &str| exact_totals.get(name).copied().unwrap_or_default();

    let forward = total("llm.forward");
    let exact_forward = exact_total("llm.forward");
    values.set(
        "llm.forwards_per_op",
        stats::ratio(exact_forward.spans as f64, exact_ops),
    );
    values.set(
        "llm.forward_ms",
        stats::ratio(forward.self_ms, forward.spans as f64),
    );
    values.set("llm.forward_share", stats::ratio(forward.ms, op_ms));
    values.set(
        "llm.prompt_tokens",
        stats::ratio(exact_forward.count as f64, exact_forward.spans as f64),
    );

    let mut core_self_ms = 0.0;
    let mut covered_ms = total("ask").ms + total("report.render").ms;
    for (index, (stage, span)) in STAGES.iter().enumerate() {
        let t = total(span);
        core_self_ms += t.self_ms;
        covered_ms += t.ms;
        let sum = |f: fn(&StageCost) -> usize| -> f64 {
            exact.iter().map(|o| f(&o.result.costs[index]) as f64).sum()
        };
        values.set(metric(stage, "ms"), stats::ratio(t.ms, ops));
        values.set(
            metric(stage, "forwards"),
            stats::ratio(sum(|c| c.forwards), exact_ops),
        );
        values.set(
            metric(stage, "evaluations"),
            stats::ratio(sum(|c| c.evaluations), exact_ops),
        );
    }
    values.set("core.self_ms", stats::ratio(core_self_ms, ops));
    let (hits, lookups) = exact.iter().fold((0, 0), |(h, l), o| {
        (h + o.result.memo.hits, l + o.result.memo.lookups())
    });
    values.set(
        "core.memo_hit_rate",
        stats::ratio(hits as f64, lookups as f64),
    );

    let search = total("retrieval.search");
    values.set(
        "retrieval.search_ms",
        stats::ratio(search.ms, search.spans as f64),
    );
    values.set(
        "retrieval.searches_per_op",
        stats::ratio(exact_total("retrieval.search").spans as f64, exact_ops),
    );
    values.set(
        "report.render_ms",
        stats::ratio(total("report.render").ms, ops),
    );

    let latencies = |traced: bool| -> Vec<f64> {
        window
            .ops
            .iter()
            .filter(|o| o.timed && o.result.traced == traced)
            .map(|o| o.latency_ms)
            .collect()
    };
    values.set(
        "trace.overhead_share",
        stats::ratio(
            stats::median(&latencies(true)),
            stats::median(&latencies(false)),
        ) - 1.0,
    );
    values.set("trace.coverage", stats::ratio(covered_ms, op_ms));
}

/// The per-layer metric name of one stage field.
fn metric(stage: &str, field: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| *name == format!("core.{stage}.{field}"))
        .expect("every stage metric is in the per-layer table")
}
