//! # rage-datasets
//!
//! Corpora and questions for the RAGE reproduction.
//!
//! The RAGE demonstration retrieves knowledge sources from locally-indexed collections
//! about professional tennis. The salient *content* of those sources is fully specified
//! by the paper's three use cases (§III), which is what the generators in this crate
//! encode:
//!
//! * [`big_three`] — Use case #1: rankings of Djokovic, Federer and Nadal under
//!   different metrics, leading to an ambiguous "who is the best" answer.
//! * [`us_open`] — Use case #2: US Open women's champions of different years, where an
//!   out-of-date source can mislead the model.
//! * [`timeline`] — Use case #3: one Player-of-the-Year document per season 2010–2019,
//!   forming a timeline to count over.
//! * [`synthetic`] — parameterised corpus generators used by the scaling benchmarks
//!   (E5–E10) and property tests.
//! * [`scenario`] — the [`Scenario`] bundle tying a corpus to its
//!   question, retrieval depth, prior knowledge and expected behaviour.
//!
//! Beyond the paper's use cases, three stress scenarios grow the collection past the
//! original demos:
//!
//! * [`large_corpus`] — a seeded ≥2k-document needle-in-a-haystack corpus, the standard
//!   workload for sharded retrieval equivalence checks and benchmarks.
//! * [`multi_hop`] — a question whose answer composes two documents (tournament result
//!   + champion→coach link), with a distractor coach ready to take over.
//! * [`adversarial`] — near-duplicate documents asserting contradictory facts, with
//!   exactly tied BM25 scores.
//! * [`live_updates`] — a champions corpus paired with a scripted mutation sequence
//!   (breaking result, correction, retraction); the standard fixture for live-corpus
//!   and cache-invalidation tests.
//! * [`entity_registry`] — a ROR-shaped organisation registry (canonical names,
//!   aliases, acronyms, registry identifiers) with batch affiliation-resolution
//!   lookups; the 100k-document workload of the retrieval benchmark's dynamic-pruning
//!   bucket and the loadtest's entity-resolution rotation.
//!
//! ## The scenario registry
//!
//! All of the above are registered in the [`ScenarioRegistry`]
//! (`ScenarioRegistry::builtin()`): a fixed name → (summary, builder) table, one
//! scenario per name, generated corpora at their generator's default configuration.
//! Consumers — the `report` CLI, smoke jobs, golden tests — enumerate the registry
//! instead of hardcoding scenario lists, so a new scenario is one table row away from
//! being rendered, smoke-tested and snapshotted. See the [`registry`] module docs for
//! the add-a-scenario walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod big_three;
pub mod entity_registry;
pub mod large_corpus;
pub mod live_updates;
pub mod multi_hop;
pub mod registry;
pub mod scenario;
pub mod synthetic;
pub mod timeline;
pub mod us_open;

pub use registry::{ScenarioEntry, ScenarioRegistry};
pub use scenario::Scenario;
