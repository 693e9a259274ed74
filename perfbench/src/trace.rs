//! Spans recorded from outside the program: a [`LanguageModel`] decorator, a
//! [`Retriever`] decorator and explicit spans around the calls the benchmark
//! makes into each layer.
//!
//! A span records its name, start, end, parent span and the op it belongs to.
//! Recording happens only inside an op span ([`op`]); spans stay in
//! thread-local memory until [`drain`] collects them at the end of a run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rage_llm::{Generation, LanguageModel, LlmInput};
use rage_retrieval::{CorpusVersion, RankedSource, RetrievalError, Retriever};

use crate::stats;

/// One recorded span. Times are nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for an op span.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// A count attached to the span: prompt tokens of a forward, hits of a search.
    pub count: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread: `(id, op)`, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; dropping it records the span.
pub struct Guard {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: u64,
    count: u64,
}

impl Guard {
    fn open(name: &'static str, parent: u64, op: u64) -> Guard {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push((id, op)));
        Guard {
            id,
            parent,
            op,
            name,
            start: now_ns(),
            count: 0,
        }
    }

    pub fn set_count(&mut self, count: u64) {
        self.count = count;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start: self.start,
            end,
            count: self.count,
        };
        LOCAL.with(|local| local.borrow_mut().push(span));
    }
}

/// Open the root span of traced op `op`.
pub fn op(op: u64) -> Guard {
    Guard::open("op", 0, op)
}

/// Open a child of the innermost open span, or nothing outside a traced op.
pub fn span(name: &'static str) -> Option<Guard> {
    let (parent, op) = OPEN.with(|open| open.borrow().last().copied())?;
    Some(Guard::open(name, parent, op))
}

/// Hand this thread's recorded spans over to [`drain`]. Every client thread
/// calls it before it ends.
pub fn flush() {
    let spans = LOCAL.with(|local| std::mem::take(&mut *local.borrow_mut()));
    FINISHED.lock().expect("span sink lock").extend(spans);
}

/// Every span recorded so far, by start time.
pub fn drain() -> Vec<Span> {
    flush();
    let mut spans = std::mem::take(&mut *FINISHED.lock().expect("span sink lock"));
    spans.sort_by_key(|s| (s.start, s.id));
    spans
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{},"count":{}}}"#,
            s.id, s.parent, s.op, s.name, s.start, s.end, s.count
        )?;
    }
    out.flush()
}

/// Per-name totals over a set of spans: summed duration, summed self time,
/// number of spans and summed count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub ms: f64,
    pub self_ms: f64,
    pub spans: u64,
    pub count: u64,
}

/// Totals per span name, self time computed against each span's children.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut children: HashMap<u64, Vec<stats::Interval>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.ms += s.ms();
        t.self_ms += stats::self_time((s.start, s.end), kids) as f64 / 1e6;
        t.spans += 1;
        t.count += s.count;
    }
    out
}

/// Per op: the share of the op span that its direct children cover.
pub fn op_coverage(spans: &[Span]) -> HashMap<u64, f64> {
    let roots: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.id, s))
        .collect();
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if roots.contains_key(&s.parent) {
            *covered.entry(s.parent).or_default() += s.end - s.start;
        }
    }
    roots
        .values()
        .map(|root| {
            let length = (root.end - root.start).max(1);
            let inside = covered.get(&root.id).copied().unwrap_or(0);
            (root.op, inside as f64 / length as f64)
        })
        .collect()
}

/// A [`LanguageModel`] that records one `llm.forward` span per generation,
/// carrying the prompt's token count. Batches keep the trait's element-wise
/// default, so every forward of a batch gets its own span.
pub struct TracedLlm(pub Arc<dyn LanguageModel>);

impl LanguageModel for TracedLlm {
    fn generate(&self, input: &LlmInput) -> Generation {
        let mut guard = span("llm.forward");
        let generation = self.0.generate(input);
        if let Some(guard) = guard.as_mut() {
            guard.set_count(generation.prompt_tokens as u64);
        }
        generation
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A [`Retriever`] that records one `retrieval.search` span per lookup,
/// carrying the number of hits.
pub struct TracedRetriever<R>(pub R);

impl<R: Retriever> Retriever for TracedRetriever<R> {
    fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError> {
        let mut guard = span("retrieval.search");
        let hits = self.0.try_search(query, k);
        if let (Some(guard), Ok(hits)) = (guard.as_mut(), hits.as_ref()) {
            guard.set_count(hits.len() as u64);
        }
        hits
    }

    fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError> {
        self.0.score_document(query, doc_id)
    }

    fn num_docs(&self) -> usize {
        self.0.num_docs()
    }

    fn corpus_version(&self) -> Option<CorpusVersion> {
        self.0.corpus_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span_and_only_inside_ops() {
        assert!(span("outside").is_none());
        {
            let _op = op(7);
            let _a = span("a");
            let _b = span("b");
        }
        let spans: Vec<Span> = LOCAL.with(|local| std::mem::take(&mut *local.borrow_mut()));
        let by_name = |name: &str| spans.iter().find(|s| s.name == name).unwrap().clone();
        let (op_span, a, b) = (by_name("op"), by_name("a"), by_name("b"));
        assert_eq!(op_span.parent, 0);
        assert_eq!(a.parent, op_span.id);
        assert_eq!(b.parent, a.id);
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(op_span.start <= a.start && b.end <= a.end && a.end <= op_span.end);
    }

    #[test]
    fn totals_subtract_children_from_self_time() {
        let span = |id, parent, name, start, end| Span {
            id,
            parent,
            op: 1,
            name,
            start,
            end,
            count: 1,
        };
        let spans = [
            span(1, 0, "op", 0, 10_000_000),
            span(2, 1, "stage", 1_000_000, 9_000_000),
            span(3, 2, "llm.forward", 2_000_000, 5_000_000),
            span(4, 2, "llm.forward", 5_000_000, 8_000_000),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ms, 2.0);
        assert_eq!(t["stage"].ms, 8.0);
        assert_eq!(t["stage"].self_ms, 2.0);
        assert_eq!(t["llm.forward"].ms, 6.0);
        assert_eq!(t["llm.forward"].spans, 2);
    }
}
