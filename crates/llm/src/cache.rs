//! The prefix embedding cache shared across perturbed-context forwards.
//!
//! RAGE evaluates hundreds of perturbations of *one* (question, context) pair.
//! Every perturbed prompt starts with the same question prefix, and perturbed
//! contexts differ only in which sources survive and where they sit — so the
//! same `(token, position)` pairs recur constantly across forwards. The input
//! embedding (content vector + scaled sinusoidal position) depends **only**
//! on `(token id, position)`, so it is reused across prompts with
//! bit-identical results.
//!
//! Nothing else is cached. Every layer mixes information across the whole
//! sequence, so its state depends on the entire prompt. The layer-0
//! query/key projections are pure functions of `(head, token id, position)`
//! too, but a cache lookup costs more than the small projection it would
//! save, so they are recomputed on every forward.
//!
//! ## Invariants
//!
//! * **Bit-identity** — a forward pass through a cache-enabled model produces
//!   exactly the same `f64` values as an uncached pass: every cached entry is
//!   a deterministic pure function of its key, computed by the same code path
//!   on first use. Tests assert equality down to `f64::to_bits`.
//! * **Bounded memory** — the cache holds at most [`PrefixCache::capacity`]
//!   entries; insertion beyond that evicts the oldest entry (FIFO). Eviction
//!   can only cost recomputation, never change results.
//! * **Thread safety** — all state sits behind a [`Mutex`], so one cache can
//!   be shared by the worker threads of a parallel evaluator. Lock hold times
//!   are O(1) lookups/inserts; the heavy math happens outside the lock.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Hit/miss/eviction counters of a cache.
///
/// Also used by `rage-core`'s evaluator memo so the whole stack reports cache
/// effectiveness in one shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then stored) the value.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A bounded FIFO map: `HashMap` for lookup plus an insertion-order queue for
/// eviction. FIFO (rather than LRU) keeps inserts O(1) without bookkeeping on
/// hits; for RAGE's workload the hot keys are the question prefix, which is
/// re-inserted immediately after any eviction.
#[derive(Debug)]
struct BoundedMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: std::hash::Hash + Eq + Clone, V> BoundedMap<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Insert, evicting the oldest entry when full. Returns the number of
    /// evictions performed (0 or 1).
    fn insert(&mut self, key: K, value: V) -> u64 {
        let mut evicted = 0;
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.capacity {
                match self.order.pop_front() {
                    Some(old) => {
                        if self.map.remove(&old).is_some() {
                            evicted += 1;
                        }
                    }
                    None => break,
                }
            }
            self.order.push_back(key.clone());
        }
        self.map.insert(key, value);
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[derive(Debug)]
struct PrefixCacheInner {
    /// `(token id, position)` → input embedding.
    embeddings: BoundedMap<(u32, u32), Arc<Vec<f64>>>,
    stats: CacheStats,
}

/// Shared cache of per-`(token, position)` input embeddings, reused across
/// perturbed-context forward passes.
///
/// See the module docs for the exact reuse rules and invariants. Construct one
/// per model configuration — entries are functions of the model seed, so a
/// cache must never be shared between models with different seeds or
/// dimensions (attach it via `SimLlm::with_prefix_cache`, which documents the
/// same rule).
#[derive(Debug)]
pub struct PrefixCache {
    inner: Mutex<PrefixCacheInner>,
    capacity: usize,
}

/// Default capacity (entries): generous enough to hold every
/// `(token, position)` pair of a k=10 scenario many times over, small enough
/// to bound memory to a few MB.
pub const DEFAULT_PREFIX_CAPACITY: usize = 65_536;

impl Default for PrefixCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PREFIX_CAPACITY)
    }
}

impl PrefixCache {
    /// A cache holding at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(PrefixCacheInner {
                embeddings: BoundedMap::new(capacity),
                stats: CacheStats::default(),
            }),
            capacity,
        }
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("prefix cache poisoned").stats
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("prefix cache poisoned")
            .embeddings
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The input embedding of `token_id` at `position`, computing it with
    /// `compute` on a miss. The returned vector is shared, never mutated.
    pub fn embedding(
        &self,
        token_id: u32,
        position: usize,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        let key = (token_id, position as u32);
        {
            let mut inner = self.inner.lock().expect("prefix cache poisoned");
            if let Some(hit) = inner.embeddings.get(&key) {
                let hit = Arc::clone(hit);
                inner.stats.hits += 1;
                return hit;
            }
            inner.stats.misses += 1;
        }
        // Compute outside the lock; a racing thread computing the same key
        // produces the identical value (pure function of the key).
        let value = Arc::new(compute());
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        inner.stats.evictions += inner.embeddings.insert(key, Arc::clone(&value));
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_counts_hits_and_misses() {
        let cache = PrefixCache::with_capacity(8);
        let a = cache.embedding(1, 0, || vec![1.0, 2.0]);
        let b = cache.embedding(1, 0, || panic!("must be a hit"));
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = PrefixCache::with_capacity(8);
        cache.embedding(1, 0, || vec![1.0]);
        cache.embedding(1, 1, || vec![2.0]);
        cache.embedding(2, 0, || vec![3.0]);
        cache.embedding(2, 1, || vec![4.0]);
        cache.embedding(1, 0, || panic!("(1, 0) is cached"));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn capacity_bounds_entries_via_fifo_eviction() {
        let cache = PrefixCache::with_capacity(4);
        for token in 0..100u32 {
            cache.embedding(token, 0, || vec![f64::from(token)]);
        }
        let inner_len = cache.len();
        assert!(inner_len <= 4, "len {inner_len} exceeds capacity");
        assert_eq!(cache.stats().evictions, 96);
        // Evicted entries recompute (a miss, not a wrong value).
        let v = cache.embedding(0, 0, || vec![0.0]);
        assert_eq!(*v, vec![0.0]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = PrefixCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.embedding(1, 0, || vec![1.0]);
        cache.embedding(2, 0, || vec![2.0]);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn stats_default_is_zero() {
        let stats = CacheStats::default();
        assert_eq!(stats.lookups(), 0);
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
