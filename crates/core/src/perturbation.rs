//! Context perturbations.
//!
//! RAGE derives explanations from two complementary perturbation families (§II-A):
//! **combinations**, which drop sources from the context while preserving the relative
//! order of the survivors, and **permutations**, which keep every source but change the
//! order. [`Perturbation`] represents one concrete perturbation and knows how to apply
//! itself to a [`Context`].

use serde::{Deserialize, Serialize};

use rage_llm::SourceText;

use crate::context::Context;
use crate::error::RageError;

/// One concrete context perturbation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Perturbation {
    /// Keep only the sources at these context positions (ascending order = original
    /// relative order). The empty combination is the empty context.
    Combination(Vec<usize>),
    /// Reorder all sources: entry `p` of the vector is the context position of the
    /// source placed at prompt position `p`.
    Permutation(Vec<usize>),
}

impl Perturbation {
    /// The unperturbed context as a combination of all `k` sources.
    pub fn identity_combination(k: usize) -> Self {
        Perturbation::Combination((0..k).collect())
    }

    /// The unperturbed context as the identity permutation of `k` sources.
    pub fn identity_permutation(k: usize) -> Self {
        Perturbation::Permutation((0..k).collect())
    }

    /// A combination that removes the given positions from a context of `k` sources.
    pub fn removal(k: usize, removed: &[usize]) -> Self {
        let kept: Vec<usize> = (0..k).filter(|i| !removed.contains(i)).collect();
        Perturbation::Combination(kept)
    }

    /// Number of sources present in the perturbed context.
    pub fn len(&self) -> usize {
        match self {
            Perturbation::Combination(kept) => kept.len(),
            Perturbation::Permutation(order) => order.len(),
        }
    }

    /// Whether the perturbed context is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validate the perturbation against a context of `k` sources.
    pub fn validate(&self, k: usize) -> Result<(), RageError> {
        match self {
            Perturbation::Combination(kept) => {
                for &index in kept {
                    if index >= k {
                        return Err(RageError::InvalidSourceIndex {
                            index,
                            context_size: k,
                        });
                    }
                }
                for window in kept.windows(2) {
                    if window[0] >= window[1] {
                        return Err(RageError::InvalidPermutation {
                            reason: format!(
                                "combination indices must be strictly increasing, got {kept:?}"
                            ),
                        });
                    }
                }
                Ok(())
            }
            Perturbation::Permutation(order) => {
                if order.len() != k {
                    return Err(RageError::InvalidPermutation {
                        reason: format!(
                            "permutation has length {} but the context has {k} sources",
                            order.len()
                        ),
                    });
                }
                let mut seen = vec![false; k];
                for &index in order {
                    if index >= k {
                        return Err(RageError::InvalidSourceIndex {
                            index,
                            context_size: k,
                        });
                    }
                    if seen[index] {
                        return Err(RageError::InvalidPermutation {
                            reason: format!("source {index} appears twice"),
                        });
                    }
                    seen[index] = true;
                }
                Ok(())
            }
        }
    }

    /// Apply the perturbation to a context, producing the perturbed source order.
    pub fn apply(&self, context: &Context) -> Result<Vec<SourceText>, RageError> {
        self.validate(context.len())?;
        let indices = match self {
            Perturbation::Combination(kept) => kept.clone(),
            Perturbation::Permutation(order) => order.clone(),
        };
        Ok(context.select(&indices))
    }

    /// A short human-readable description in terms of document ids.
    pub fn describe(&self, context: &Context) -> String {
        match self {
            Perturbation::Combination(kept) => {
                if kept.is_empty() {
                    "empty context".to_string()
                } else {
                    format!("keep {{{}}}", context.doc_ids(kept).join(", "))
                }
            }
            Perturbation::Permutation(order) => {
                format!("order [{}]", context.doc_ids(order).join(" -> "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Document;

    fn context() -> Context {
        Context::from_documents(
            "q",
            &[
                Document::new("a", "", "first"),
                Document::new("b", "", "second"),
                Document::new("c", "", "third"),
            ],
        )
    }

    #[test]
    fn identity_constructors() {
        assert_eq!(
            Perturbation::identity_combination(3),
            Perturbation::Combination(vec![0, 1, 2])
        );
        assert_eq!(
            Perturbation::identity_permutation(2),
            Perturbation::Permutation(vec![0, 1])
        );
    }

    #[test]
    fn removal_constructor_complements() {
        let p = Perturbation::removal(4, &[1, 3]);
        assert_eq!(p, Perturbation::Combination(vec![0, 2]));
    }

    #[test]
    fn combination_apply_preserves_relative_order() {
        let ctx = context();
        let sources = Perturbation::Combination(vec![0, 2]).apply(&ctx).unwrap();
        assert_eq!(sources.len(), 2);
        assert_eq!(sources[0].id, "a");
        assert_eq!(sources[1].id, "c");
    }

    #[test]
    fn empty_combination_is_the_empty_context() {
        let ctx = context();
        let p = Perturbation::Combination(vec![]);
        assert!(p.is_empty());
        assert!(p.apply(&ctx).unwrap().is_empty());
        assert_eq!(p.describe(&ctx), "empty context");
    }

    #[test]
    fn permutation_apply_reorders() {
        let ctx = context();
        let sources = Perturbation::Permutation(vec![2, 0, 1])
            .apply(&ctx)
            .unwrap();
        let ids: Vec<&str> = sources.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, vec!["c", "a", "b"]);
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let ctx = context();
        let err = Perturbation::Combination(vec![0, 9])
            .apply(&ctx)
            .unwrap_err();
        assert!(matches!(
            err,
            RageError::InvalidSourceIndex { index: 9, .. }
        ));
        let err = Perturbation::Permutation(vec![0, 1, 9])
            .apply(&ctx)
            .unwrap_err();
        assert!(matches!(
            err,
            RageError::InvalidSourceIndex { index: 9, .. }
        ));
    }

    #[test]
    fn malformed_perturbations_are_rejected() {
        let ctx = context();
        // Non-increasing combination.
        assert!(Perturbation::Combination(vec![2, 1]).apply(&ctx).is_err());
        // Wrong-length permutation.
        assert!(Perturbation::Permutation(vec![0, 1]).apply(&ctx).is_err());
        // Duplicate entries.
        assert!(Perturbation::Permutation(vec![0, 1, 1])
            .apply(&ctx)
            .is_err());
    }

    #[test]
    fn describe_names_documents() {
        let ctx = context();
        assert_eq!(
            Perturbation::Combination(vec![0, 1]).describe(&ctx),
            "keep {a, b}"
        );
        assert_eq!(
            Perturbation::Permutation(vec![1, 0, 2]).describe(&ctx),
            "order [b -> a -> c]"
        );
    }
}
