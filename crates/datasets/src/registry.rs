//! The [`ScenarioRegistry`]: name → scenario builder, metadata and documentation.
//!
//! Demonstration scenarios used to be a hardcoded four-way `match` in the report CLI;
//! every new corpus meant touching the CLI, its usage string, its error message and the
//! smoke tests. The registry centralises that wiring: each entry couples a normalised
//! name with a one-line summary, a longer docs string, and a *parameterised* builder —
//! a closure from [`ScenarioParams`] to [`Scenario`] — so callers can both enumerate
//! what exists (`--list-scenarios`) and rebuild any scenario at a different seed or
//! size without new plumbing.
//!
//! ## Adding a scenario
//!
//! 1. Write a generator module (see [`crate::adversarial`] for a small template)
//!    exposing a `scenario()` (or config-taking) constructor.
//! 2. Register it in [`ScenarioRegistry::builtin`] with a unique name, a one-line
//!    summary and a docs string; honour the [`ScenarioParams`] fields that make sense
//!    for your generator and ignore the rest.
//! 3. Run `UPDATE_SNAPSHOTS=1 cargo test -p rage-report --test golden` to pin its
//!    report snapshots; the report CLI, the smoke job and `--list-scenarios` pick the
//!    new entry up automatically.

use crate::scenario::Scenario;
use crate::{
    adversarial, big_three, entity_registry, large_corpus, live_updates, multi_hop, synthetic,
    timeline, us_open,
};

/// Optional knobs a registry caller can pass to a scenario builder.
///
/// Builders honour the fields that make sense for them and ignore the rest (the
/// hand-written paper scenarios ignore everything). `None` always means "the
/// scenario's default".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScenarioParams {
    /// RNG seed for generated corpora.
    pub seed: Option<u64>,
    /// Target corpus size (number of documents) for generated corpora.
    pub size: Option<usize>,
    /// Retrieval depth `k` override.
    pub retrieval_k: Option<usize>,
}

impl ScenarioParams {
    /// Set the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Set the target corpus size (builder style).
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = Some(size);
        self
    }
}

/// A registered scenario: normalised name, presentation metadata and the builder.
pub struct ScenarioEntry {
    name: String,
    summary: String,
    docs: String,
    builder: Box<dyn Fn(&ScenarioParams) -> Scenario + Send + Sync>,
}

impl ScenarioEntry {
    /// Create an entry. `name` is normalised (lowercased, `-` → `_`); `summary` should
    /// be a single line (it backs `--list-scenarios`), `docs` can be longer.
    pub fn new(
        name: impl Into<String>,
        summary: impl Into<String>,
        docs: impl Into<String>,
        builder: impl Fn(&ScenarioParams) -> Scenario + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: normalize(&name.into()),
            summary: summary.into(),
            docs: docs.into(),
            builder: Box::new(builder),
        }
    }

    /// The normalised registry name (`us_open`, `large_corpus`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Longer documentation string.
    pub fn docs(&self) -> &str {
        &self.docs
    }

    /// Build the scenario with its defaults.
    pub fn build(&self) -> Scenario {
        self.build_with(&ScenarioParams::default())
    }

    /// Build the scenario with explicit parameters.
    pub fn build_with(&self, params: &ScenarioParams) -> Scenario {
        (self.builder)(params)
    }
}

impl std::fmt::Debug for ScenarioEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEntry")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish_non_exhaustive()
    }
}

/// Registry keys accept `-` and `_` interchangeably and are case-insensitive.
fn normalize(name: &str) -> String {
    name.trim().to_lowercase().replace('-', "_")
}

/// An ordered collection of [`ScenarioEntry`]s with normalised-name lookup.
#[derive(Debug, Default)]
pub struct ScenarioRegistry {
    entries: Vec<ScenarioEntry>,
}

impl ScenarioRegistry {
    /// An empty registry (register your own entries).
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in registry: the paper's three use cases, the synthetic ranking
    /// generator, and the three stress scenarios, in presentation order.
    pub fn builtin() -> Self {
        let mut registry = Self::new();
        registry.register(ScenarioEntry::new(
            "us_open",
            "Use case #2: out-of-date championship sources mislead the model.",
            "The paper's 'Inconsistent Sources' use case: US Open women's champions of \
             mixed recency; the up-to-date document sits last in the context and stale \
             documents can take over when it is buried in the middle.",
            |_| us_open::scenario(),
        ));
        registry.register(ScenarioEntry::new(
            "big_three",
            "Use case #1: ambiguous 'who is the best' ranking question.",
            "The paper's 'Ambiguity' use case: rankings of Djokovic, Federer and Nadal \
             under different metrics, so the answer follows whichever metric document \
             the model attends to most.",
            |_| big_three::scenario(),
        ));
        registry.register(ScenarioEntry::new(
            "timeline",
            "Use case #3: counting over a per-season timeline corpus.",
            "The paper's 'Counting' use case: one Player-of-the-Year document per \
             season 2010-2019; the answer is a count over supporting sources.",
            |_| timeline::scenario(),
        ));
        registry.register(ScenarioEntry::new(
            "synthetic",
            "Seeded synthetic ranking corpus (parameterised analogue of big_three).",
            "A scaled-up analogue of use case #1: `size` sources, each endorsing one \
             of a rotating set of candidate entities, with seeded filler vocabulary. \
             Honours `seed` and `size` (number of sources).",
            |params| {
                let mut config = synthetic::RankingConfig::default();
                if let Some(seed) = params.seed {
                    config.seed = seed;
                }
                if let Some(size) = params.size {
                    config.num_sources = size;
                }
                synthetic::ranking_scenario(config)
            },
        ));
        registry.register(ScenarioEntry::new(
            "large_corpus",
            "Seeded 2k+ document corpus: needle-in-a-haystack retrieval at scale.",
            "A handful of signal documents spread through thousands of seeded filler \
             documents; exercises index build, sharded retrieval and ranking at a \
             corpus size where partitioning pays off. Honours `seed`, `size` (total \
             documents, >= 2048 by default) and `retrieval_k`.",
            |params| {
                let mut config = large_corpus::LargeCorpusConfig::default();
                if let Some(seed) = params.seed {
                    config.seed = seed;
                }
                if let Some(size) = params.size {
                    config.num_docs = size;
                }
                if let Some(k) = params.retrieval_k {
                    config.retrieval_k = k;
                }
                large_corpus::scenario(config)
            },
        ));
        registry.register(ScenarioEntry::new(
            "multi_hop",
            "Two-document composition: tournament result + coach link.",
            "The answer requires composing two documents: one names the tournament \
             champion, another links that champion to her coach. Removing the link \
             document flips the answer to a wrong-tournament distractor coach, which \
             the counterfactual panels surface.",
            |_| multi_hop::scenario(),
        ));
        registry.register(ScenarioEntry::new(
            "adversarial",
            "Near-duplicate sources asserting contradictory facts.",
            "Two camps of near-identical documents assert conflicting champions, with \
             exactly tied BM25 scores; stresses deterministic tie-breaking, insight \
             rules and permutation sensitivity under contradiction.",
            |_| adversarial::scenario(),
        ));
        registry.register(ScenarioEntry::new(
            "live_updates",
            "Champions corpus plus a scripted mutation sequence (add/correct/retract).",
            "A seed corpus of past champions paired with a scripted sequence of corpus \
             mutations: a breaking result lands, is corrected, and is retracted. The \
             question is a most-recent one, so every mutation moves the grounded \
             answer; the standard fixture for live-corpus and cache-invalidation \
             tests (see `rage_datasets::live_updates::mutation_script`).",
            |_| live_updates::scenario(),
        ));
        registry.register(ScenarioEntry::new(
            "entity_registry",
            "Seeded organisation registry: affiliation lookups over names, aliases, acronyms.",
            "A ROR-shaped registry of organisation records — distinct canonical names, \
             alias word-order variants, acronyms, cities and unique registry \
             identifiers — queried with affiliation-resolution lookups. The default \
             registry holds a few thousand records; the retrieval benchmark builds the \
             same generator at 100k+ documents for its dynamic-pruning bucket. Honours \
             `seed`, `size` (number of organisations) and `retrieval_k`.",
            |params| {
                let mut config = entity_registry::EntityRegistryConfig::default();
                if let Some(seed) = params.seed {
                    config.seed = seed;
                }
                if let Some(size) = params.size {
                    config.num_orgs = size;
                }
                if let Some(k) = params.retrieval_k {
                    config.retrieval_k = k;
                }
                entity_registry::scenario(config)
            },
        ));
        registry
    }

    /// Register an entry.
    ///
    /// # Panics
    /// If an entry with the same normalised name is already registered.
    pub fn register(&mut self, entry: ScenarioEntry) {
        assert!(
            self.get(entry.name()).is_none(),
            "duplicate scenario name {:?}",
            entry.name()
        );
        self.entries.push(entry);
    }

    /// Entry names in registration (presentation) order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name()).collect()
    }

    /// Look up an entry by name (`-`/`_` and case are interchangeable).
    pub fn get(&self, name: &str) -> Option<&ScenarioEntry> {
        let wanted = normalize(name);
        self.entries.iter().find(|e| e.name == wanted)
    }

    /// Build a scenario by name with its defaults; `None` for unknown names.
    pub fn build(&self, name: &str) -> Option<Scenario> {
        self.get(name).map(ScenarioEntry::build)
    }

    /// Build a scenario by name with explicit parameters; `None` for unknown names.
    pub fn build_with(&self, name: &str, params: &ScenarioParams) -> Option<Scenario> {
        self.get(name).map(|e| e.build_with(params))
    }

    /// Iterate the entries in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioEntry> {
        self.entries.iter()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_all_scenarios_in_order() {
        let registry = ScenarioRegistry::builtin();
        assert_eq!(
            registry.names(),
            vec![
                "us_open",
                "big_three",
                "timeline",
                "synthetic",
                "large_corpus",
                "multi_hop",
                "adversarial",
                "live_updates",
                "entity_registry"
            ]
        );
        assert_eq!(registry.len(), 9);
        assert!(!registry.is_empty());
    }

    #[test]
    fn lookup_normalises_names() {
        let registry = ScenarioRegistry::builtin();
        for name in ["us_open", "us-open", "US-Open", " us_open "] {
            assert!(registry.get(name).is_some(), "{name}");
        }
        assert!(registry.get("nope").is_none());
        assert!(registry.build("nope").is_none());
    }

    #[test]
    fn every_entry_builds_and_metadata_is_presentable() {
        let registry = ScenarioRegistry::builtin();
        for entry in registry.iter() {
            let scenario = entry.build();
            assert!(!scenario.question.is_empty(), "{}", entry.name());
            assert!(
                scenario.corpus_size() >= scenario.retrieval_k,
                "{}",
                entry.name()
            );
            assert!(!entry.summary().contains('\n'), "{}", entry.name());
            assert!(!entry.docs().is_empty(), "{}", entry.name());
        }
    }

    #[test]
    fn parameterised_builders_honour_params() {
        let registry = ScenarioRegistry::builtin();
        let small = registry
            .build_with("synthetic", &ScenarioParams::default().with_size(4))
            .unwrap();
        assert_eq!(small.corpus_size(), 4);

        let seeded_a = registry
            .build_with(
                "large_corpus",
                &ScenarioParams::default().with_seed(1).with_size(64),
            )
            .unwrap();
        let seeded_b = registry
            .build_with(
                "large_corpus",
                &ScenarioParams::default().with_seed(2).with_size(64),
            )
            .unwrap();
        assert_eq!(seeded_a.corpus_size(), 64);
        assert_ne!(seeded_a.corpus, seeded_b.corpus);

        // Paper scenarios ignore params entirely.
        let a = registry.build("us_open").unwrap();
        let b = registry
            .build_with("us_open", &ScenarioParams::default().with_seed(99))
            .unwrap();
        assert_eq!(a.corpus, b.corpus);
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_names_are_rejected() {
        let mut registry = ScenarioRegistry::builtin();
        registry.register(ScenarioEntry::new("us-open", "dup", "dup", |_| {
            us_open::scenario()
        }));
    }
}
