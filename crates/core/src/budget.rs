//! The unified cost-control layer: evaluation budgets, wall-clock deadlines
//! and search-completeness markers.
//!
//! Every RAGE search is exhaustive-within-budget over an exponential candidate
//! space, so at large `k` the budget *is* the latency. This module gives the
//! engine one first-class vocabulary for that trade-off:
//!
//! * [`SearchBudget`] — how much a search may spend: a cap on candidate
//!   evaluations, an optional monotonic [`Deadline`], or both. Searches check
//!   it at **batch boundaries** (before each candidate of an early-exit
//!   search, between the fan-out windows of a known list), never inside a
//!   batch, so the anytime path evaluates exactly what the unlimited path
//!   evaluates — and gets the exact same answers — up to the point where it
//!   stops.
//! * [`Deadline`] — a monotonic ([`std::time::Instant`]-based) wall-clock
//!   bound, immune to system clock adjustments.
//! * [`Completeness`] — what a truncated search *means*: every search reports
//!   whether it covered its whole space ([`Completeness::Exact`]), stopped at
//!   the evaluation cap ([`Completeness::BudgetTruncated`], which also counts
//!   any candidates the opt-in pruning bound skipped instead of evaluating)
//!   or ran out of wall-clock time ([`Completeness::DeadlineTruncated`]).
//!
//! The report layer (`rage-report`) carries the per-section markers into the
//! versioned JSON schema, the HTTP service keys its cache on the deadline so
//! anytime reports never poison exact ones, and the server/CLI expose the knob
//! as `deadline_ms=` / `--anytime <ms>`.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// A monotonic wall-clock deadline.
///
/// Built from [`Instant`], so it measures elapsed monotonic time and is not
/// affected by system clock changes. Copies share the same start and end
/// points, so one deadline can be threaded through every section of a report
/// generation and they all expire together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    started: Instant,
    ends: Instant,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Self::after(Duration::from_millis(ms))
    }

    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        let started = Instant::now();
        Self {
            started,
            ends: started + budget,
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.ends
    }

    /// Milliseconds elapsed since the deadline was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// What stopped a search at a batch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStop {
    /// The evaluation cap was reached.
    Evaluations,
    /// The wall-clock deadline expired.
    Deadline {
        /// Milliseconds elapsed since the deadline was created.
        elapsed_ms: u64,
    },
}

/// How much a search may spend: an optional cap on candidate evaluations plus
/// an optional monotonic [`Deadline`].
///
/// This replaces the scattered `Option<usize>` budget plumbing of the early
/// engine: the combination, permutation, optimal-placement and insight
/// searches all take a `SearchBudget` and check it with [`SearchBudget::check`]
/// at their batch boundaries. [`SearchBudget::UNLIMITED`] (the default)
/// reproduces the unbounded searches exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchBudget {
    /// Maximum number of candidate evaluations (`None` = unlimited; baseline
    /// answers are never counted against it).
    pub max_evaluations: Option<usize>,
    /// Wall-clock bound for the whole search (`None` = no deadline).
    pub deadline: Option<Deadline>,
}

impl SearchBudget {
    /// No cap, no deadline: the search runs to space exhaustion.
    pub const UNLIMITED: SearchBudget = SearchBudget {
        max_evaluations: None,
        deadline: None,
    };

    /// A budget of at most `n` candidate evaluations (no deadline).
    pub fn max_evaluations(n: usize) -> Self {
        SearchBudget {
            max_evaluations: Some(n),
            deadline: None,
        }
    }

    /// Attach a deadline (builder style).
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach an optional deadline (builder style; `None` leaves it unset).
    pub fn with_deadline_opt(mut self, deadline: Option<Deadline>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Check the budget at a batch boundary, after `evaluated` candidate
    /// evaluations: `None` means keep going. The deadline outranks the count
    /// (an expired anytime request should stop even with count room left).
    pub fn check(&self, evaluated: usize) -> Option<BudgetStop> {
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Some(BudgetStop::Deadline {
                    elapsed_ms: deadline.elapsed_ms(),
                });
            }
        }
        match self.max_evaluations {
            Some(max) if evaluated >= max => Some(BudgetStop::Evaluations),
            _ => None,
        }
    }
}

impl From<Option<usize>> for SearchBudget {
    /// The bridge from the old `Option<usize>` budget knobs: `Some(n)` caps
    /// evaluations at `n`, `None` is unlimited. Neither carries a deadline.
    fn from(max_evaluations: Option<usize>) -> Self {
        SearchBudget {
            max_evaluations,
            deadline: None,
        }
    }
}

/// How completely a search covered its candidate space.
///
/// `Exact` results are what the unbounded search would have returned. The two
/// truncated markers describe *why* the search stopped and how much ground it
/// covered, so a served report can state exactly what its numbers mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Completeness {
    /// The whole (size-bounded) candidate space was resolved.
    #[default]
    Exact,
    /// The evaluation cap stopped the search before the space was resolved —
    /// or, when `pruned > 0`, part of the frontier was skipped because an
    /// admissible bound proved it could not contain a counterfactual.
    BudgetTruncated {
        /// Candidates actually evaluated.
        evaluated: usize,
        /// Candidates skipped without evaluation because a superset that
        /// already failed to flip proves they cannot flip either (0 when no
        /// pruning applied).
        pruned: usize,
    },
    /// The wall-clock deadline expired before the space was resolved.
    DeadlineTruncated {
        /// Milliseconds elapsed when the search stopped.
        elapsed_ms: u64,
    },
}

impl Completeness {
    /// Whether the search resolved its whole space.
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }

    /// The marker for a search stopped by `stop` after `evaluated` candidate
    /// evaluations with `pruned` candidates skipped by a pruning bound.
    pub fn from_stop(stop: BudgetStop, evaluated: usize, pruned: usize) -> Self {
        match stop {
            BudgetStop::Evaluations => Completeness::BudgetTruncated { evaluated, pruned },
            BudgetStop::Deadline { elapsed_ms } => Completeness::DeadlineTruncated { elapsed_ms },
        }
    }

    /// Merge the markers of two sub-searches into one section marker: exact
    /// only when both are, deadline truncation (with the larger elapsed time)
    /// outranking budget truncation, and budget truncations pooling their
    /// evaluated/pruned counts.
    pub fn merge(self, other: Completeness) -> Completeness {
        match (self, other) {
            (Completeness::Exact, other) => other,
            (this, Completeness::Exact) => this,
            (
                Completeness::DeadlineTruncated { elapsed_ms: a },
                Completeness::DeadlineTruncated { elapsed_ms: b },
            ) => Completeness::DeadlineTruncated {
                elapsed_ms: a.max(b),
            },
            (this @ Completeness::DeadlineTruncated { .. }, _) => this,
            (_, other @ Completeness::DeadlineTruncated { .. }) => other,
            (
                Completeness::BudgetTruncated {
                    evaluated: e1,
                    pruned: p1,
                },
                Completeness::BudgetTruncated {
                    evaluated: e2,
                    pruned: p2,
                },
            ) => Completeness::BudgetTruncated {
                evaluated: e1 + e2,
                pruned: p1 + p2,
            },
        }
    }

    /// A short human-readable description ("exact", "budget-truncated after
    /// 12 evaluations (3 pruned)", "deadline-truncated after 52 ms").
    pub fn describe(&self) -> String {
        match self {
            Completeness::Exact => "exact".to_string(),
            Completeness::BudgetTruncated { evaluated, pruned } if *pruned > 0 => {
                format!("budget-truncated after {evaluated} evaluations ({pruned} pruned)")
            }
            Completeness::BudgetTruncated { evaluated, .. } => {
                format!("budget-truncated after {evaluated} evaluations")
            }
            Completeness::DeadlineTruncated { elapsed_ms } => {
                format!("deadline-truncated after {elapsed_ms} ms")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let budget = SearchBudget::UNLIMITED;
        assert_eq!(budget.check(0), None);
        assert_eq!(budget.check(usize::MAX), None);
    }

    #[test]
    fn evaluation_cap_stops_at_the_boundary() {
        let budget = SearchBudget::max_evaluations(3);
        assert_eq!(budget.check(2), None);
        assert_eq!(budget.check(3), Some(BudgetStop::Evaluations));
    }

    #[test]
    fn option_bridge_matches_the_old_semantics() {
        assert_eq!(SearchBudget::from(None), SearchBudget::UNLIMITED);
        assert_eq!(
            SearchBudget::from(Some(7usize)),
            SearchBudget::max_evaluations(7)
        );
    }

    #[test]
    fn expired_deadline_outranks_the_count() {
        let deadline = Deadline::after_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(deadline.expired());
        let budget = SearchBudget::max_evaluations(10).with_deadline(deadline);
        match budget.check(0) {
            Some(BudgetStop::Deadline { .. }) => {}
            other => panic!("expected a deadline stop, got {other:?}"),
        }
    }

    #[test]
    fn future_deadline_does_not_stop() {
        let budget = SearchBudget::UNLIMITED.with_deadline(Deadline::after_ms(60_000));
        assert_eq!(budget.check(1_000_000), None);
    }

    #[test]
    fn completeness_markers_describe_themselves() {
        assert!(Completeness::Exact.is_exact());
        assert_eq!(Completeness::Exact.describe(), "exact");
        let truncated = Completeness::from_stop(BudgetStop::Evaluations, 12, 0);
        assert_eq!(
            truncated,
            Completeness::BudgetTruncated {
                evaluated: 12,
                pruned: 0
            }
        );
        assert!(!truncated.is_exact());
        assert!(truncated.describe().contains("12"));
        let pruned = Completeness::BudgetTruncated {
            evaluated: 2,
            pruned: 5,
        };
        assert!(pruned.describe().contains("5 pruned"));
        let late = Completeness::from_stop(BudgetStop::Deadline { elapsed_ms: 52 }, 9, 0);
        assert_eq!(late, Completeness::DeadlineTruncated { elapsed_ms: 52 });
        assert!(late.describe().contains("52 ms"));
    }

    #[test]
    fn merging_markers_keeps_the_worst() {
        let exact = Completeness::Exact;
        let capped = Completeness::BudgetTruncated {
            evaluated: 3,
            pruned: 1,
        };
        let late = Completeness::DeadlineTruncated { elapsed_ms: 10 };
        assert_eq!(exact.merge(exact), exact);
        assert_eq!(exact.merge(capped), capped);
        assert_eq!(capped.merge(exact), capped);
        assert_eq!(capped.merge(late), late);
        assert_eq!(
            late.merge(Completeness::DeadlineTruncated { elapsed_ms: 30 }),
            Completeness::DeadlineTruncated { elapsed_ms: 30 }
        );
        assert_eq!(
            capped.merge(capped),
            Completeness::BudgetTruncated {
                evaluated: 6,
                pruned: 2
            }
        );
    }
}
