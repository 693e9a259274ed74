//! The [`ScenarioRegistry`]: a fixed table of name, one-line summary and builder.
//!
//! Demonstration scenarios used to be a hardcoded four-way `match` in the report CLI;
//! every new corpus meant touching the CLI, its usage string, its error message and the
//! smoke tests. The registry centralises that wiring: each [`ScenarioEntry`] couples a
//! normalised name with a one-line summary and the `fn() -> Scenario` that builds the
//! scenario, so callers enumerate what exists (`--list-scenarios`) and build any entry
//! by name. Every entry builds one scenario: generated corpora use their generator's
//! default configuration.
//!
//! ## Adding a scenario
//!
//! 1. Write a generator module (see [`crate::adversarial`] for a small template)
//!    exposing a `scenario()` (or config-taking) constructor.
//! 2. Add a row to the builtin table in this module with a unique normalised name
//!    (lowercase, `_` between words), a one-line summary and the builder; a
//!    config-taking generator gets a closure that passes its default configuration.
//! 3. Run `UPDATE_SNAPSHOTS=1 cargo test -p rage-report --test golden` to pin its
//!    report snapshots; the report CLI, the smoke job and `--list-scenarios` pick the
//!    new entry up automatically.

use crate::scenario::Scenario;
use crate::{
    adversarial, big_three, entity_registry, large_corpus, live_updates, multi_hop, synthetic,
    timeline, us_open,
};

/// A registered scenario: normalised name, one-line summary and builder.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioEntry {
    name: &'static str,
    summary: &'static str,
    builder: fn() -> Scenario,
}

impl ScenarioEntry {
    /// The normalised registry name (`us_open`, `large_corpus`, ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line human-readable summary (it backs `--list-scenarios`).
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// Build the scenario.
    pub fn build(&self) -> Scenario {
        (self.builder)()
    }
}

/// The builtin scenarios: the paper's three use cases, the synthetic ranking
/// generator and the stress scenarios, in presentation order.
static BUILTIN: &[ScenarioEntry] = &[
    ScenarioEntry {
        name: "us_open",
        summary: "Use case #2: out-of-date championship sources mislead the model.",
        builder: us_open::scenario,
    },
    ScenarioEntry {
        name: "big_three",
        summary: "Use case #1: ambiguous 'who is the best' ranking question.",
        builder: big_three::scenario,
    },
    ScenarioEntry {
        name: "timeline",
        summary: "Use case #3: counting over a per-season timeline corpus.",
        builder: timeline::scenario,
    },
    ScenarioEntry {
        name: "synthetic",
        summary: "Seeded synthetic ranking corpus (parameterised analogue of big_three).",
        builder: || synthetic::ranking_scenario(synthetic::RankingConfig::default()),
    },
    ScenarioEntry {
        name: "large_corpus",
        summary: "Seeded 2k+ document corpus: needle-in-a-haystack retrieval at scale.",
        builder: || large_corpus::scenario(large_corpus::LargeCorpusConfig::default()),
    },
    ScenarioEntry {
        name: "multi_hop",
        summary: "Two-document composition: tournament result + coach link.",
        builder: multi_hop::scenario,
    },
    ScenarioEntry {
        name: "adversarial",
        summary: "Near-duplicate sources asserting contradictory facts.",
        builder: adversarial::scenario,
    },
    ScenarioEntry {
        name: "live_updates",
        summary: "Champions corpus plus a scripted mutation sequence (add/correct/retract).",
        builder: live_updates::scenario,
    },
    ScenarioEntry {
        name: "entity_registry",
        summary: "Seeded organisation registry: affiliation lookups over names, aliases, acronyms.",
        builder: || entity_registry::scenario(entity_registry::EntityRegistryConfig::default()),
    },
];

/// Registry keys accept `-` and `_` interchangeably and are case-insensitive.
fn normalize(name: &str) -> String {
    name.trim().to_lowercase().replace('-', "_")
}

/// The builtin [`ScenarioEntry`] table with normalised-name lookup.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioRegistry;

impl ScenarioRegistry {
    /// The builtin registry (see the [module docs](self)).
    pub fn builtin() -> Self {
        Self
    }

    /// Entry names in presentation order.
    pub fn names(&self) -> Vec<&'static str> {
        self.iter().map(ScenarioEntry::name).collect()
    }

    /// Look up an entry by name (`-`/`_` and case are interchangeable).
    pub fn get(&self, name: &str) -> Option<&'static ScenarioEntry> {
        let wanted = normalize(name);
        BUILTIN.iter().find(|e| e.name == wanted)
    }

    /// Build a scenario by name; `None` for unknown names.
    pub fn build(&self, name: &str) -> Option<Scenario> {
        self.get(name).map(ScenarioEntry::build)
    }

    /// Iterate the entries in presentation order.
    pub fn iter(&self) -> impl Iterator<Item = &'static ScenarioEntry> {
        BUILTIN.iter()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        BUILTIN.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        BUILTIN.is_empty()
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
        // Every table name is normalised and resolves to its own row, so no
        // name shadows another.
        for entry in registry.iter() {
            assert_eq!(normalize(entry.name()), entry.name());
            assert!(std::ptr::eq(registry.get(entry.name()).unwrap(), entry));
        }
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
        }
    }
}
