//! The structural-hash result cache behind `axmc serve`.
//!
//! [`ResultCache`] is the service-side implementation of the analyzers'
//! [`QueryCache`] hook: a thread-safe map from [`QueryKey`] (ordered AIG
//! pair fingerprint + metric kind + parameters + certified/backend
//! knobs) to completed verdicts. Every lookup increments the
//! `serve.cache.hit` / `serve.cache.miss` obs counters *and* the cache's
//! own atomics, so hit rates are visible both in `--metrics` output and
//! in the batch summary line even when observability is off.
//!
//! Certified and uncertified entries are distinct by construction — the
//! key carries the certify bit — so a cached uncertified verdict can
//! never satisfy a certified query.

use axmc_core::{CachedResult, QueryCache, QueryKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A shared, counting result cache for one server instance.
///
/// Wrap it in an `Arc` and hand it to the analyzers through
/// `CacheHandle::new` / `AnalysisOptions::with_cache`; the same `Arc`
/// answers the server's own pre-checks ([`ResultCache::peek`]) and the
/// summary statistics.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<QueryKey, CachedResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Whether `key` is currently cached, **without** counting a hit or
    /// a miss. The server uses this to tag responses as `cached` before
    /// the analyzer performs its own (counting) lookup.
    pub fn peek(&self, key: &QueryKey) -> bool {
        self.map.lock().expect("cache poisoned").contains_key(key)
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache poisoned").len()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl QueryCache for ResultCache {
    fn get(&self, key: &QueryKey) -> Option<CachedResult> {
        let found = self.map.lock().expect("cache poisoned").get(key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            axmc_obs::counter("serve.cache.hit").inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            axmc_obs::counter("serve.cache.miss").inc();
        }
        found
    }

    fn put(&self, key: &QueryKey, value: CachedResult) {
        self.map
            .lock()
            .expect("cache poisoned")
            .insert(key.clone(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_aig::Aig;
    use axmc_core::{AnalysisOptions, EngineKind, ErrorReport};

    fn key(metric: &'static str) -> QueryKey {
        let mut g = Aig::new();
        let a = g.add_input();
        g.add_output(a);
        let mut c = Aig::new();
        let a = c.add_input();
        c.add_output(a);
        QueryKey::new(&g, &c, metric, &AnalysisOptions::new())
    }

    #[test]
    fn counts_hits_and_misses_but_peek_is_free() {
        let cache = ResultCache::new();
        let k = key("t.metric");
        assert!(!cache.peek(&k));
        assert_eq!(cache.get(&k), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.put(
            &k,
            CachedResult::Wide(ErrorReport {
                value: 3,
                sat_calls: 1,
                conflicts: 0,
                engine: EngineKind::Sat,
            }),
        );
        assert!(cache.peek(&k), "peek sees the entry");
        assert_eq!((cache.hits(), cache.misses()), (0, 1), "peek never counts");
        assert!(cache.get(&k).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }
}
