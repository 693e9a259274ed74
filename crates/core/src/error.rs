//! Error taxonomy of the explanation engine.

use std::fmt;

use rage_retrieval::RetrievalError;

/// Errors surfaced by the RAGE pipeline and searches.
#[derive(Debug)]
pub enum RageError {
    /// The retrieval substrate failed (empty query, I/O, ...).
    Retrieval(RetrievalError),
    /// Retrieval returned no sources, so there is no context to explain.
    EmptyContext {
        /// The query that produced no results.
        query: String,
    },
    /// A perturbation referenced a source index outside the context.
    InvalidSourceIndex {
        /// The offending index.
        index: usize,
        /// Number of sources in the context.
        context_size: usize,
    },
    /// A permutation perturbation was not a valid permutation of the context.
    InvalidPermutation {
        /// Human-readable reason.
        reason: String,
    },
    /// A caller-supplied argument was invalid before any work was attempted
    /// (e.g. asking for `k = 0` sources).
    ///
    /// Distinct from [`RageError::EmptyContext`]: that variant means retrieval
    /// ran and found nothing relevant, this one means the request itself was
    /// malformed — a service maps the former to "no results" and the latter to
    /// a client error (HTTP 400).
    InvalidArgument {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for RageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RageError::Retrieval(err) => write!(f, "retrieval failed: {err}"),
            RageError::EmptyContext { query } => {
                write!(f, "no sources retrieved for query: {query}")
            }
            RageError::InvalidSourceIndex {
                index,
                context_size,
            } => write!(
                f,
                "source index {index} out of range for a context of {context_size} sources"
            ),
            RageError::InvalidPermutation { reason } => {
                write!(f, "invalid permutation perturbation: {reason}")
            }
            RageError::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
        }
    }
}

impl std::error::Error for RageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RageError::Retrieval(err) => Some(err),
            _ => None,
        }
    }
}

impl From<RetrievalError> for RageError {
    fn from(err: RetrievalError) -> Self {
        RageError::Retrieval(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let err = RageError::EmptyContext {
            query: "abc".into(),
        };
        assert!(err.to_string().contains("abc"));
        let err = RageError::InvalidSourceIndex {
            index: 7,
            context_size: 3,
        };
        assert!(err.to_string().contains('7'));
        assert!(err.to_string().contains('3'));
        let err = RageError::InvalidPermutation {
            reason: "dup".into(),
        };
        assert!(err.to_string().contains("dup"));
        let err = RageError::InvalidArgument {
            reason: "k must be at least 1".into(),
        };
        assert!(err.to_string().contains("invalid argument"));
        assert!(err.to_string().contains("k must be at least 1"));
    }

    #[test]
    fn retrieval_error_converts_and_keeps_source() {
        use std::error::Error;
        let err: RageError = RetrievalError::EmptyQuery.into();
        assert!(err.to_string().contains("retrieval failed"));
        assert!(err.source().is_some());
    }
}
