//! Cached, counted evaluation of perturbed contexts, fanned out across cores.
//!
//! Every perturbation the searches consider costs one LLM inference. This
//! module centralises those calls in one type, [`Evaluator`]: it builds the
//! model input for a perturbed context, queries the model, caches answers
//! keyed by the (canonicalised) perturbation and counts true LLM invocations
//! — the cost metric used by the pruning experiments (E7).
//!
//! ## Fan-out
//!
//! An evaluator has a fan-out *width* ([`Evaluator::with_width`]; by default
//! the cores available to the process,
//! [`std::thread::available_parallelism`]). A known list runs on `width`
//! threads under [`std::thread::scope`]: the calling thread and `width − 1`
//! helpers take indices from one atomic counter, and the results are
//! scattered back by index. At width 1, or for a list of at most one
//! perturbation, the list runs in order on the calling thread and spawns
//! nothing; width 1 is the oracle the wider widths must reproduce.
//!
//! Only lists a report knows before evaluating any item fan out, through
//! one entry point, `Evaluator::evaluate_within`: the two baseline answers,
//! each placement ranking and the insight sample. Under a deadline those
//! lists run in windows of the width, with the deadline checked between
//! windows. The early-exit searches (top-down, bottom-up, permutation)
//! evaluate one candidate at a time, so nothing is evaluated speculatively. Because the
//! model is deterministic and each distinct perturbation reaches it exactly
//! once, reports are equal at every width down to the cost counters.
//!
//! A model panic on any thread of a list propagates to the caller once
//! every thread of the list has stopped; a list never hangs.
//!
//! ## Cache invariants
//!
//! * One memo entry per canonical perturbation; the canonical form aliases the
//!   full identity permutation to the all-sources combination because both
//!   render the same prompt.
//! * Entries are write-once: the first lookup of a perturbation inserts its
//!   entry under the memo lock and runs the model after releasing it; every
//!   later lookup, on any thread, waits for that one result. So each distinct
//!   perturbation reaches the model once at any concurrency, and
//!   `misses == llm_calls` ([`Evaluator::cache_stats`]). A lookup that finds
//!   an entry, finished or still running, is a hit; an invalid perturbation
//!   is rejected before any entry is inserted and is neither.
//! * A model panic leaves its entry empty, so a waiting lookup runs the model
//!   itself: a deterministic panic reaches every caller, and none hangs.
//! * Entries are never evicted or mutated, so a cached [`Generation`] is
//!   returned bit-identically forever after.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use rage_llm::cache::CacheStats;
use rage_llm::{Generation, LanguageModel, LlmInput};

use crate::budget::{BudgetStop, SearchBudget};
use crate::context::Context;
use crate::error::RageError;
use crate::perturbation::Perturbation;

/// The default fan-out width: the number of cores available to this process
/// ([`std::thread::available_parallelism`], 1 if unknown).
///
/// Read once per process: on Linux it parses cgroup files, which is too slow
/// to repeat for every report.
fn default_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Evaluates perturbations of one fixed (question, context) pair against an
/// LLM, fanning known lists out over [`Evaluator::width`] threads.
///
/// It is `Sync`: the memo is one locked map of write-once entries and the
/// counters are atomics. See the module docs for the fan-out and cache
/// contracts.
pub struct Evaluator {
    llm: Arc<dyn LanguageModel>,
    context: Context,
    width: usize,
    memo: Mutex<HashMap<Perturbation, Arc<OnceLock<Generation>>>>,
    llm_calls: AtomicUsize,
    cache_hits: AtomicUsize,
}

impl Evaluator {
    /// Create an evaluator for a context, as wide as the cores available to
    /// the process (read once per process). The question posed to the model
    /// is the context's query.
    pub fn new(llm: Arc<dyn LanguageModel>, context: Context) -> Self {
        Self {
            llm,
            context,
            width: default_width(),
            memo: Mutex::new(HashMap::new()),
            llm_calls: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
        }
    }

    /// Set the fan-out width: how many threads a known list runs on (clamped
    /// to at least 1; width 1 evaluates every list in order on the calling
    /// thread).
    pub fn with_width(mut self, width: usize) -> Self {
        self.width = width.max(1);
        self
    }

    /// The fan-out width (see [`Evaluator::with_width`]).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The context being explained.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// The question posed to the LLM: the context's query.
    pub fn question(&self) -> &str {
        &self.context.query
    }

    /// Number of sources `k` in the context.
    pub fn k(&self) -> usize {
        self.context.len()
    }

    /// Number of *actual* LLM inferences performed so far (cache hits excluded).
    pub fn llm_calls(&self) -> usize {
        self.llm_calls.load(Ordering::SeqCst)
    }

    /// Number of distinct perturbations evaluated so far.
    pub fn evaluations(&self) -> usize {
        self.memo.lock().expect("memo poisoned").len()
    }

    /// Hit/miss counters of the memo cache. Every miss is exactly one LLM
    /// inference (`misses == llm_calls`); lookups that error before reaching
    /// the model (invalid perturbations) count as neither.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.load(Ordering::SeqCst) as u64,
            misses: self.llm_calls.load(Ordering::SeqCst) as u64,
            evictions: 0,
        }
    }

    /// Cache-canonical form of a perturbation: the identity permutation
    /// produces the same prompt as the full-context combination, so both map
    /// to one cache entry (and one LLM call).
    fn canonical(&self, perturbation: &Perturbation) -> Perturbation {
        match perturbation {
            Perturbation::Permutation(order)
                if order.len() == self.context.len()
                    && order
                        .iter()
                        .enumerate()
                        .all(|(prompt, &source)| prompt == source) =>
            {
                Perturbation::Combination(order.clone())
            }
            _ => perturbation.clone(),
        }
    }

    /// The full generation (answer + attention read-out) for a perturbation.
    ///
    /// The first lookup of a perturbation runs the model; every later one,
    /// on any thread, waits for that result (see the module docs).
    pub fn generation_for(&self, perturbation: &Perturbation) -> Result<Generation, RageError> {
        let key = self.canonical(perturbation);
        let entry = {
            let mut memo = self.memo.lock().expect("memo poisoned");
            if let Some(entry) = memo.get(&key) {
                self.cache_hits.fetch_add(1, Ordering::SeqCst);
                Arc::clone(entry)
            } else {
                perturbation.validate(self.k())?;
                Arc::clone(memo.entry(key).or_default())
            }
        };
        let generation = entry.get_or_init(|| {
            let sources = perturbation
                .apply(&self.context)
                .expect("validated before its entry was inserted");
            let generation = self
                .llm
                .generate(&LlmInput::new(self.context.query.clone(), sources));
            self.llm_calls.fetch_add(1, Ordering::SeqCst);
            generation
        });
        Ok(generation.clone())
    }

    /// Evaluate a list, returning one result per input in input order.
    ///
    /// The results, the memo and every counter end up exactly as element-wise
    /// [`generation_for`](Evaluator::generation_for) calls in input order
    /// would leave them; only the wall clock depends on the width. The list
    /// runs on up to [`width`](Evaluator::width) threads (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// If the model panics on any thread, once every thread of the list has
    /// stopped.
    fn evaluate_batch(&self, perturbations: &[Perturbation]) -> Vec<Result<Generation, RageError>> {
        let threads = self.width.min(perturbations.len());
        if threads <= 1 {
            return perturbations
                .iter()
                .map(|p| self.generation_for(p))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(perturbation) = perturbations.get(index) else {
                    break done;
                };
                done.push((index, self.generation_for(perturbation)));
            }
        };
        // A panicking share surfaces as an `Err`, on the caller's share
        // through `catch_unwind` and on a helper's through `join`.
        let shares = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut shares = vec![panic::catch_unwind(AssertUnwindSafe(work))];
            shares.extend(helpers.into_iter().map(|helper| helper.join()));
            shares
        });

        let mut slots: Vec<Option<Result<Generation, RageError>>> =
            (0..perturbations.len()).map(|_| None).collect();
        for share in shares {
            match share {
                Ok(done) => {
                    for (index, result) in done {
                        slots[index] = Some(result);
                    }
                }
                // The panic hook has already printed the model's message.
                Err(_) => panic!("evaluator worker thread panicked during a batch"),
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index is taken by one thread"))
            .collect()
    }

    /// Evaluate the prefix of a known list that `budget` affords, in order.
    ///
    /// The evaluation cap keeps a prefix. Without a deadline that prefix is
    /// one batch; with one it runs in windows of the width, and the deadline
    /// is checked before each window, so it is overshot by at most one
    /// window. Returns the generations of the evaluated prefix and, when it
    /// is shorter than the list, what stopped it. The first error stops the
    /// evaluation.
    pub(crate) fn evaluate_within(
        &self,
        perturbations: &[Perturbation],
        budget: &SearchBudget,
    ) -> Result<(Vec<Generation>, Option<BudgetStop>), RageError> {
        let limit = budget
            .max_evaluations
            .map_or(perturbations.len(), |cap| cap.min(perturbations.len()));
        let window = match budget.deadline {
            Some(_) => self.width,
            None => limit.max(1),
        };
        let mut generations = Vec::with_capacity(limit);
        while generations.len() < limit {
            let start = generations.len();
            if let Some(stop) = budget.check(start) {
                return Ok((generations, Some(stop)));
            }
            let end = (start + window).min(limit);
            for result in self.evaluate_batch(&perturbations[start..end]) {
                generations.push(result?);
            }
        }
        let stop = if limit < perturbations.len() {
            budget.check(limit)
        } else {
            None
        };
        Ok((generations, stop))
    }

    /// The raw answer string for a perturbation.
    pub fn answer_for(&self, perturbation: &Perturbation) -> Result<String, RageError> {
        Ok(self.generation_for(perturbation)?.answer)
    }

    /// The answer over the full, unperturbed context (`a = L(q, Dq)`).
    pub fn full_context_answer(&self) -> Result<String, RageError> {
        self.answer_for(&Perturbation::identity_combination(self.k()))
    }

    /// The generation over the full, unperturbed context (used by attention scoring).
    pub fn full_context_generation(&self) -> Result<Generation, RageError> {
        self.generation_for(&Perturbation::identity_combination(self.k()))
    }

    /// The answer over the empty context (prior knowledge only).
    pub fn empty_context_answer(&self) -> Result<String, RageError> {
        self.answer_for(&Perturbation::Combination(Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_llm::SourceText;
    use rage_retrieval::Document;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A trivial deterministic model: answers with the id of the first source, or
    /// "nothing" for an empty context. Counts its invocations.
    struct FirstSourceLlm {
        calls: AtomicUsize,
    }

    impl FirstSourceLlm {
        fn new() -> Self {
            Self {
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl LanguageModel for FirstSourceLlm {
        fn generate(&self, input: &LlmInput) -> Generation {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let answer = input
                .sources
                .first()
                .map(|s: &SourceText| s.id.clone())
                .unwrap_or_else(|| "nothing".to_string());
            Generation {
                answer: answer.clone(),
                text: answer,
                source_attention: vec![
                    1.0 / input.sources.len().max(1) as f64;
                    input.sources.len()
                ],
                prompt_tokens: 1,
            }
        }
        fn name(&self) -> &str {
            "first-source"
        }
    }

    fn context() -> Context {
        Context::from_documents(
            "what is first?",
            &[
                Document::new("a", "", "alpha"),
                Document::new("b", "", "beta"),
                Document::new("c", "", "gamma"),
            ],
        )
    }

    #[test]
    fn answers_follow_the_perturbed_context() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        assert_eq!(evaluator.full_context_answer().unwrap(), "a");
        assert_eq!(
            evaluator
                .answer_for(&Perturbation::Combination(vec![1, 2]))
                .unwrap(),
            "b"
        );
        assert_eq!(
            evaluator
                .answer_for(&Perturbation::Permutation(vec![2, 0, 1]))
                .unwrap(),
            "c"
        );
        assert_eq!(evaluator.empty_context_answer().unwrap(), "nothing");
    }

    #[test]
    fn cache_prevents_repeated_llm_calls() {
        let llm = Arc::new(FirstSourceLlm::new());
        let evaluator = Evaluator::new(llm.clone(), context());
        let p = Perturbation::Combination(vec![0, 2]);
        for _ in 0..5 {
            evaluator.answer_for(&p).unwrap();
        }
        assert_eq!(evaluator.llm_calls(), 1);
        assert_eq!(llm.calls.load(Ordering::SeqCst), 1);
        assert_eq!(evaluator.evaluations(), 1);
    }

    #[test]
    fn cache_stats_pin_hit_and_miss_accounting() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        assert_eq!(evaluator.cache_stats(), CacheStats::default());

        let p = Perturbation::Combination(vec![0, 2]);
        evaluator.answer_for(&p).unwrap(); // miss
        evaluator.answer_for(&p).unwrap(); // hit
        evaluator.answer_for(&p).unwrap(); // hit
        evaluator.full_context_answer().unwrap(); // miss
                                                  // The identity permutation aliases to the full-context entry: a hit.
        evaluator
            .answer_for(&Perturbation::identity_permutation(3))
            .unwrap();

        let stats = evaluator.cache_stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.misses as usize, evaluator.llm_calls());
        assert_eq!(stats.lookups(), 5);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);

        // Invalid perturbations count as neither hit nor miss.
        assert!(evaluator
            .answer_for(&Perturbation::Combination(vec![9]))
            .is_err());
        assert_eq!(evaluator.cache_stats(), stats);
    }

    #[test]
    fn identity_permutation_shares_the_full_context_cache_entry() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        evaluator.full_context_answer().unwrap();
        let via_permutation = evaluator
            .answer_for(&Perturbation::identity_permutation(3))
            .unwrap();
        assert_eq!(via_permutation, "a");
        // Same prompt, one inference, one cache entry.
        assert_eq!(evaluator.llm_calls(), 1);
        assert_eq!(evaluator.evaluations(), 1);
        // A *shorter* prefix permutation is not the identity and must still be
        // rejected as invalid rather than aliased to a combination.
        assert!(evaluator
            .answer_for(&Perturbation::Permutation(vec![0, 1]))
            .is_err());
    }

    #[test]
    fn distinct_perturbations_are_distinct_calls() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        evaluator.full_context_answer().unwrap();
        evaluator.empty_context_answer().unwrap();
        evaluator
            .answer_for(&Perturbation::Permutation(vec![1, 0, 2]))
            .unwrap();
        assert_eq!(evaluator.llm_calls(), 3);
    }

    #[test]
    fn invalid_perturbations_propagate_errors() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        assert!(evaluator
            .answer_for(&Perturbation::Combination(vec![5]))
            .is_err());
        assert_eq!(evaluator.llm_calls(), 0);
    }

    #[test]
    fn full_generation_exposes_attention() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        let generation = evaluator.full_context_generation().unwrap();
        assert_eq!(generation.source_attention.len(), 3);
    }

    #[test]
    fn sequential_batch_matches_elementwise_calls() {
        let batch = vec![
            Perturbation::Combination(vec![0, 1, 2]),
            Perturbation::Combination(vec![1, 2]),
            Perturbation::Combination(vec![1, 2]), // duplicate: a hit
            Perturbation::Permutation(vec![2, 0, 1]),
        ];
        let reference = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        let expected: Vec<Generation> = batch
            .iter()
            .map(|p| reference.generation_for(p).unwrap())
            .collect();

        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        let results = evaluator.evaluate_batch(&batch);
        let got: Vec<Generation> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected);
        assert_eq!(evaluator.llm_calls(), reference.llm_calls());
        assert_eq!(evaluator.cache_stats(), reference.cache_stats());
    }

    #[test]
    fn parallel_batch_is_byte_identical_to_sequential() {
        let batch: Vec<Perturbation> = vec![
            Perturbation::Combination(vec![0]),
            Perturbation::Combination(vec![1]),
            Perturbation::Combination(vec![2]),
            Perturbation::Combination(vec![0, 1]),
            Perturbation::Combination(vec![0, 2]),
            Perturbation::Combination(vec![1, 2]),
            Perturbation::Combination(vec![0, 1, 2]),
            Perturbation::Permutation(vec![1, 0, 2]),
            Perturbation::Permutation(vec![2, 1, 0]),
            Perturbation::Combination(vec![0, 1]), // duplicate
            Perturbation::identity_permutation(3), // aliases the full context
        ];
        let sequential = Evaluator::new(Arc::new(FirstSourceLlm::new()), context()).with_width(1);
        let expected = sequential.evaluate_batch(&batch);

        for width in [1, 2, 4, 8] {
            let llm = Arc::new(FirstSourceLlm::new());
            let parallel = Evaluator::new(llm.clone(), context()).with_width(width);
            let got = parallel.evaluate_batch(&batch);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(expected.iter()) {
                assert_eq!(g.as_ref().unwrap(), e.as_ref().unwrap(), "width={width}");
            }
            // One forward per distinct perturbation keeps true inference
            // counts identical to sequential.
            assert_eq!(parallel.llm_calls(), sequential.llm_calls());
            assert_eq!(
                llm.calls.load(Ordering::SeqCst),
                sequential.llm_calls(),
                "width={width}"
            );
            assert_eq!(parallel.cache_stats(), sequential.cache_stats());
            assert_eq!(parallel.evaluations(), sequential.evaluations());
        }
    }

    /// Answers like the model it wraps after sleeping 50 ms, so concurrent
    /// lookups of one perturbation overlap its forward.
    struct SlowLlm<M>(M);

    impl<M: LanguageModel> LanguageModel for SlowLlm<M> {
        fn generate(&self, input: &LlmInput) -> Generation {
            std::thread::sleep(std::time::Duration::from_millis(50));
            self.0.generate(input)
        }
    }

    #[test]
    fn concurrent_lookups_of_one_perturbation_run_one_forward() {
        let llm = Arc::new(SlowLlm(FirstSourceLlm::new()));
        let evaluator = Evaluator::new(llm.clone(), context());
        let perturbation = Perturbation::Combination(vec![1, 2]);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    assert_eq!(evaluator.answer_for(&perturbation).unwrap(), "b");
                });
            }
        });
        assert_eq!(llm.0.calls.load(Ordering::SeqCst), 1);
        assert_eq!(
            evaluator.cache_stats(),
            CacheStats {
                hits: 3,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(evaluator.evaluations(), 1);
    }

    #[test]
    fn parallel_batch_propagates_errors_per_item() {
        let parallel = Evaluator::new(Arc::new(FirstSourceLlm::new()), context()).with_width(4);
        let batch = vec![
            Perturbation::Combination(vec![0]),
            Perturbation::Combination(vec![9]), // invalid
            Perturbation::Combination(vec![9]), // duplicate invalid
            Perturbation::Combination(vec![1]),
        ];
        let results = parallel.evaluate_batch(&batch);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_err());
        assert!(results[3].is_ok());
    }

    /// Answers normally except for the empty context, where it panics.
    struct PanicOnEmptyLlm;

    impl LanguageModel for PanicOnEmptyLlm {
        fn generate(&self, input: &LlmInput) -> Generation {
            let answer = input
                .sources
                .first()
                .map(|s| s.id.clone())
                .unwrap_or_else(|| panic!("poison perturbation reached the model"));
            Generation {
                answer: answer.clone(),
                text: answer,
                source_attention: vec![1.0; input.sources.len()],
                prompt_tokens: 1,
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panic_propagates_instead_of_hanging() {
        // Whichever thread draws the poison perturbation (the caller or the
        // helper), the panic reaches the caller.
        let parallel = Evaluator::new(Arc::new(PanicOnEmptyLlm), context()).with_width(2);
        let batch = vec![
            Perturbation::Combination(vec![0]),
            Perturbation::Combination(vec![]), // triggers the model panic
            Perturbation::Combination(vec![1]),
        ];
        let _ = parallel.evaluate_batch(&batch);
    }

    #[test]
    fn a_model_panic_reaches_every_waiting_lookup() {
        // The panic leaves the entry empty, so the lookup waiting on it runs
        // the model itself and panics too, instead of waiting forever.
        let evaluator = Evaluator::new(Arc::new(SlowLlm(PanicOnEmptyLlm)), context());
        let start = std::sync::Barrier::new(2);
        let panicked = std::thread::scope(|scope| {
            let lookups: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        evaluator.empty_context_answer()
                    })
                })
                .collect();
            lookups
                .into_iter()
                .filter_map(|lookup| lookup.join().err())
                .count()
        });
        assert_eq!(panicked, 2);
        assert_eq!(evaluator.llm_calls(), 0);
    }

    #[test]
    fn parallel_empty_batch_is_a_no_op() {
        let parallel = Evaluator::new(Arc::new(FirstSourceLlm::new()), context()).with_width(2);
        assert!(parallel.evaluate_batch(&[]).is_empty());
        assert_eq!(parallel.llm_calls(), 0);
    }

    #[test]
    fn with_width_clamps_to_at_least_one() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context());
        assert_eq!(evaluator.width(), default_width());
        assert!(default_width() >= 1);
        let evaluator = evaluator.with_width(0);
        assert_eq!(evaluator.width(), 1); // clamped
        assert_eq!(evaluator.with_width(3).width(), 3);
    }

    #[test]
    fn batches_and_single_calls_share_the_memo() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::new()), context()).with_width(2);
        let batch = [
            Perturbation::Combination(vec![0, 1]),
            Perturbation::Combination(vec![1, 2]),
        ];
        for result in evaluator.evaluate_batch(&batch) {
            result.unwrap();
        }
        // The same perturbation outside a batch is a cache hit.
        evaluator
            .answer_for(&Perturbation::Combination(vec![0, 1]))
            .unwrap();
        assert_eq!(evaluator.llm_calls(), 2);
        assert_eq!(evaluator.cache_stats().hits, 1);
    }

    /// Answers like [`FirstSourceLlm`], but every call first waits until two
    /// calls have been in flight at once. It panics instead of hanging when
    /// that has not happened within a timeout, so a width that fails to
    /// overlap forwards fails the test.
    struct RendezvousLlm {
        state: Mutex<(usize, bool)>,
        overlapped: std::sync::Condvar,
    }

    impl RendezvousLlm {
        const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

        fn new() -> Self {
            Self {
                state: Mutex::new((0, false)),
                overlapped: std::sync::Condvar::new(),
            }
        }
    }

    impl LanguageModel for RendezvousLlm {
        fn generate(&self, input: &LlmInput) -> Generation {
            {
                let mut state = self.state.lock().unwrap();
                state.0 += 1;
                if state.0 >= 2 {
                    state.1 = true;
                    self.overlapped.notify_all();
                }
                let (mut state, _) = self
                    .overlapped
                    .wait_timeout_while(state, Self::TIMEOUT, |(_, overlapped)| !*overlapped)
                    .unwrap();
                state.0 -= 1;
                assert!(state.1, "no two forwards were ever in flight at once");
            }
            FirstSourceLlm::new().generate(input)
        }
    }

    #[test]
    fn width_two_overlaps_two_forwards_of_one_insight_sample() {
        use crate::budget::{Deadline, SearchBudget};
        use crate::insights::{random_permutations, Insights, DEFAULT_MIN_CONFIDENCE};

        let samples = random_permutations(3, 6, 11);
        // The first deadline window (width 2) must hold two distinct forwards.
        assert_ne!(samples[0], samples[1]);
        let reference = Insights::with_budget(
            &Evaluator::new(Arc::new(FirstSourceLlm::new()), context()).with_width(1),
            &samples,
            DEFAULT_MIN_CONFIDENCE,
            &SearchBudget::UNLIMITED,
        )
        .unwrap();
        for budget in [
            SearchBudget::UNLIMITED,
            SearchBudget::UNLIMITED.with_deadline(Deadline::after_ms(600_000)),
        ] {
            let evaluator = Evaluator::new(Arc::new(RendezvousLlm::new()), context()).with_width(2);
            let insights =
                Insights::with_budget(&evaluator, &samples, DEFAULT_MIN_CONFIDENCE, &budget)
                    .unwrap();
            assert_eq!(insights, reference, "deadline: {:?}", budget.deadline);
        }
    }
}
