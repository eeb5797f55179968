//! Capacity-bounded memoization for the per-row model caches.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A bounded memoization cache with FIFO eviction.
///
/// The per-row caches in [`crate::VulnerabilityModel`] and the retention
/// model used to be unbounded `HashMap`s, so a templating sweep over a large
/// module grew memory linearly with every row ever touched — the same
/// failure mode the flip log had before it became a `RingLog`. This cache
/// holds at most `capacity` entries and evicts in insertion order.
///
/// Eviction is FIFO rather than LRU on purpose: lookups never reorder
/// entries, so which rows get recomputed is a deterministic function of the
/// insertion history alone, independent of read patterns. Entries are cheap
/// to rebuild (one seeded RNG stream per row), so the simpler policy wins.
///
/// Entries carry a caller-declared payload weight in bytes
/// ([`Self::insert_weighted`]); the running total feeds the `*_cache_bytes`
/// telemetry gauges, and an optional **byte budget**
/// ([`Self::set_byte_budget`]) evicts oldest-first until the total fits.
/// With no budget set the byte accounting is purely observational and the
/// entry-count bound behaves exactly as before.
#[derive(Debug, Clone)]
pub(crate) struct BoundedCache<K: Hash + Eq + Clone, V> {
    capacity: usize,
    map: HashMap<K, (V, usize)>,
    order: VecDeque<K>,
    evictions: u64,
    /// Sum of the payload weights of retained entries.
    bytes: usize,
    /// Optional payload-byte budget; `None` bounds by entry count alone.
    byte_budget: Option<usize>,
}

impl<K: Hash + Eq + Clone, V> BoundedCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. Nothing is
    /// allocated until the first insert, so cloning a cache that was never
    /// filled copies nothing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; a cache that can hold nothing would
    /// silently disable memoization.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BoundedCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            evictions: 0,
            bytes: 0,
            byte_budget: None,
        }
    }

    /// Looks up `key` without affecting the eviction order.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Inserts `key → value` with zero payload weight (see
    /// [`Self::insert_weighted`]), evicting the oldest entry at capacity.
    /// Re-inserting an existing key replaces the value in place.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.insert_weighted(key, value, 0);
    }

    /// Inserts `key → value` whose payload weighs `weight` bytes, evicting
    /// the oldest entry at the entry-count capacity and then oldest-first
    /// while over the byte budget (if one is set). Re-inserting an existing
    /// key replaces the value (and weight) in place without touching its
    /// FIFO position.
    pub(crate) fn insert_weighted(&mut self, key: K, value: V, weight: usize) {
        if let Some((_, old)) = self.map.insert(key.clone(), (value, weight)) {
            self.bytes = self.bytes - old + weight;
        } else {
            if self.order.len() == self.capacity {
                self.evict_oldest();
            }
            self.order.push_back(key);
            self.bytes += weight;
        }
        if let Some(budget) = self.byte_budget {
            while self.bytes > budget && self.order.len() > 1 {
                self.evict_oldest();
            }
        }
    }

    fn evict_oldest(&mut self) {
        let oldest = self.order.pop_front().expect("cache not empty");
        if let Some((_, w)) = self.map.remove(&oldest) {
            self.bytes -= w;
        }
        self.evictions += 1;
    }

    /// Number of entries currently retained.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Total entries evicted since creation.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Sum of the payload weights (bytes) of retained entries.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Changes the capacity, evicting oldest entries if shrinking.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "cache capacity must be positive");
        self.capacity = capacity;
        while self.order.len() > capacity {
            self.evict_oldest();
        }
    }

    /// Sets or clears the payload-byte budget, evicting oldest-first until
    /// the retained total fits. A single over-budget entry is allowed to
    /// remain (evicting it would only force an immediate rebuild).
    pub(crate) fn set_byte_budget(&mut self, budget: Option<usize>) {
        self.byte_budget = budget;
        if let Some(budget) = budget {
            while self.bytes > budget && self.order.len() > 1 {
                self.evict_oldest();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_at_capacity_with_fifo_eviction() {
        let mut c = BoundedCache::new(3);
        for k in 0u64..10 {
            c.insert(k, k * 2);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 7);
        // Oldest evicted first: 7, 8, 9 survive.
        assert_eq!(c.get(&6), None);
        assert_eq!(c.get(&7), Some(&14));
        assert_eq!(c.get(&9), Some(&18));
    }

    #[test]
    fn lookups_do_not_reorder() {
        let mut c = BoundedCache::new(2);
        c.insert(1u64, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // would save 1 under LRU
        c.insert(3, "c");
        assert_eq!(c.get(&1), None, "FIFO evicts by insertion order only");
        assert_eq!(c.get(&2), Some(&"b"));
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c = BoundedCache::new(2);
        c.insert(1u64, "a");
        c.insert(2, "b");
        c.insert(1, "a2");
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&1), Some(&"a2"));
    }

    #[test]
    fn shrinking_evicts_oldest() {
        let mut c = BoundedCache::new(4);
        for k in 0u64..4 {
            c.insert(k, k);
        }
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.get(&0), None);
        assert_eq!(c.get(&3), Some(&3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedCache::<u64, ()>::new(0);
    }
}
