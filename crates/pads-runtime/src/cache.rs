//! A small bounded keyed cache.
//!
//! The cursor's per-parser regex cache memoises compiled `Pre` patterns
//! keyed by their text, so each pattern compiles once per parser, not once
//! per record. `Pstring_ME`/`Pstring_SE` patterns may come from the data,
//! so the set of keys is not bounded by the schema; [`KeyedCache`] caps it
//! with least-recently-used eviction.
//!
//! The cache is deliberately not synchronised: callers wrap it in whatever
//! sharing discipline they need (`Rc<RefCell<..>>` for the regex cache).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A bounded key→value memo with least-recently-used eviction.
///
/// Values are handed out by clone, so `V` is typically a shared pointer
/// (`Rc<Regex>`): eviction drops the cache's reference while outstanding
/// users keep theirs.
#[derive(Debug)]
pub struct KeyedCache<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Monotonic use counter backing the LRU order.
    clock: u64,
    capacity: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_use: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> KeyedCache<K, V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> KeyedCache<K, V> {
        KeyedCache { map: HashMap::new(), clock: 0, capacity: capacity.max(1) }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.last_use = clock;
            e.value.clone()
        })
    }

    /// Inserts `key → value`, evicting the least-recently-used entry
    /// when the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // O(n) scan; caches are small (hundreds of entries) and
            // eviction only happens at the ceiling.
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.last_use).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, Entry { value, last_use: self.clock });
    }

    /// Looks up `key`, computing and caching the value on a miss. The
    /// computation may fail; failures are not cached.
    pub fn get_or_try_insert<E>(
        &mut self,
        key: K,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.get(&key) {
            return Ok(v);
        }
        let v = make()?;
        self.insert(key, v.clone());
        Ok(v)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The capacity ceiling.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c: KeyedCache<String, u32> = KeyedCache::new(4);
        assert_eq!(c.get("a"), None);
        c.insert("a".into(), 1);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c: KeyedCache<u32, u32> = KeyedCache::new(3);
        for i in 0..10 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 3);
        assert!(c.get(&9).is_some());
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c: KeyedCache<u32, u32> = KeyedCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(c.get(&1), Some(10));
        c.insert(3, 30);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut c: KeyedCache<u32, u32> = KeyedCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(2, 21); // same key: replace, no eviction
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&2), Some(21));
    }

    #[test]
    fn get_or_try_insert_caches_successes_only() {
        let mut c: KeyedCache<u32, u32> = KeyedCache::new(2);
        let r: Result<u32, ()> = c.get_or_try_insert(1, || Ok(5));
        assert_eq!(r, Ok(5));
        let r: Result<u32, &str> = c.get_or_try_insert(2, || Err("no"));
        assert_eq!(r, Err("no"));
        assert_eq!(c.len(), 1);
        // Cached value short-circuits the (failing) recompute.
        let r: Result<u32, &str> = c.get_or_try_insert(1, || Err("no"));
        assert_eq!(r, Ok(5));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut c: KeyedCache<u32, u32> = KeyedCache::new(0);
        c.insert(1, 1);
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.get(&1), Some(1));
    }
}
