//! Cross-query result caching: the analyzers' cache hook points.
//!
//! CGP runs and library characterization sweeps pose the *same* analysis
//! queries over structurally identical cones thousands of times. This
//! module lets a caller (the `axmc-serve` batch service, a synthesis
//! loop, a test harness) hand the analyzers a [`QueryCache`] through
//! [`AnalysisOptions::with_cache`]: every cacheable metric consults the
//! cache **before any solver work** and stores its verdict afterwards,
//! so repeated queries hit memory instead of the decision procedures.
//!
//! Keys are structural: [`QueryKey`] combines the ordered pair
//! fingerprint ([`axmc_aig::Aig::pair_fingerprint`]) with the metric
//! kind, its parameters (threshold, cycle horizon) and the knobs that
//! change the *bytes* of a verdict — certified mode and backend.
//! Certified and uncertified entries are therefore always distinct: a
//! cached uncertified answer can never satisfy a `--certify` query, and
//! a certified hit replays the exact report the certified cold run
//! produced.
//!
//! Only completed verdicts are cached. Interrupted results (deadline,
//! budget, cancellation) depend on the resource envelope of the run that
//! produced them and are recomputed every time.
//!
//! [`ResultCache`] is the one in-tree implementation: the cache behind
//! `axmc serve`, `axmc characterize` and the characterization bench.

use crate::engine::Backend;
use crate::options::AnalysisOptions;
use crate::report::{AnalysisError, ErrorReport};
use crate::verdict::Verdict;
use axmc_aig::Aig;
use axmc_mc::Trace;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Metric-kind discriminants used in [`QueryKey::metric`]. Shared
/// constants so out-of-crate cache consumers (the serve layer) build
/// exactly the keys the analyzers look up.
pub mod metric {
    /// `CombAnalyzer::worst_case_error`.
    pub const COMB_WCE: &str = "comb.wce";
    /// `CombAnalyzer::bit_flip_error`.
    pub const COMB_BIT_FLIP: &str = "comb.bit_flip";
    /// `CombAnalyzer::check_error_exceeds` (threshold in the key).
    pub const COMB_EXCEEDS: &str = "comb.exceeds";
    /// `SeqAnalyzer::worst_case_error_at` (horizon in the key).
    pub const SEQ_WCE: &str = "seq.wce";
    /// `SeqAnalyzer::bit_flip_error_at` (horizon in the key).
    pub const SEQ_BIT_FLIP: &str = "seq.bit_flip";
    /// `SeqAnalyzer::check_error_exceeds` (threshold + horizon).
    pub const SEQ_EXCEEDS: &str = "seq.exceeds";
}

/// The structural identity of one analysis query.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Ordered (golden, candidate) structural pair fingerprint.
    pub pair: u128,
    /// Metric kind, one of the [`metric`] constants.
    pub metric: &'static str,
    /// Threshold parameter for the `*.exceeds` queries, 0 otherwise.
    pub threshold: u128,
    /// Cycle horizon `k` for the sequential metrics, 0 for combinational.
    pub cycles: u64,
    /// Certified entries are distinct from uncertified ones.
    pub certified: bool,
    /// The backend affects the effort counters (and `engine` tag) a
    /// report carries, so it is part of the identity.
    pub backend: Backend,
}

impl QueryKey {
    /// Builds the key for a metric over `(golden, candidate)` under
    /// `options`, with no threshold/cycle parameters (add them with
    /// [`QueryKey::with_threshold`] / [`QueryKey::with_cycles`]).
    pub fn new(
        golden: &Aig,
        candidate: &Aig,
        metric: &'static str,
        options: &AnalysisOptions,
    ) -> Self {
        QueryKey {
            pair: golden.pair_fingerprint(candidate),
            metric,
            threshold: 0,
            cycles: 0,
            certified: options.certify,
            backend: options.backend,
        }
    }

    /// Sets the threshold parameter (the `*.exceeds` queries).
    pub fn with_threshold(mut self, threshold: u128) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the cycle horizon (the sequential metrics).
    pub fn with_cycles(mut self, k: usize) -> Self {
        self.cycles = k as u64;
        self
    }
}

/// A cached, completed verdict — one variant per cacheable result shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedResult {
    /// A `u128`-valued report (worst-case error).
    Wide(ErrorReport<u128>),
    /// A `u32`-valued report (bit-flip error).
    Narrow(ErrorReport<u32>),
    /// A combinational threshold verdict (witness: input assignment).
    CombVerdict(Verdict<Vec<bool>>),
    /// A sequential threshold verdict (witness: input trace).
    SeqVerdict(Verdict<Trace>),
}

/// The cache the analyzers consult. Implementations must be cheap on
/// the miss path — a lookup happens before every cacheable query — and
/// thread-safe (parallel probes and service workers share one cache).
pub trait QueryCache: Send + Sync {
    /// Returns the stored result for `key`, if any.
    fn get(&self, key: &QueryKey) -> Option<CachedResult>;
    /// Stores a completed result under `key`.
    fn put(&self, key: &QueryKey, value: CachedResult);
}

/// A cloneable, `Debug`-able handle around a shared [`QueryCache`],
/// carried inside [`AnalysisOptions`].
#[derive(Clone)]
pub struct CacheHandle(Arc<dyn QueryCache>);

impl CacheHandle {
    /// Wraps a shared cache.
    pub fn new(cache: Arc<dyn QueryCache>) -> Self {
        CacheHandle(cache)
    }

    /// Looks up `key`.
    pub fn get(&self, key: &QueryKey) -> Option<CachedResult> {
        self.0.get(key)
    }

    /// Stores `value` under `key`.
    pub fn put(&self, key: &QueryKey, value: CachedResult) {
        self.0.put(key, value)
    }
}

impl fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CacheHandle(..)")
    }
}

/// A shared, counting in-memory [`QueryCache`]: a mutex-guarded map with
/// hit and miss counters.
///
/// Wrap it in an `Arc` and hand it to the analyzers through
/// [`CacheHandle::new`] / [`AnalysisOptions::with_cache`]; the same `Arc`
/// answers the caller's own pre-checks ([`ResultCache::peek`]) and its
/// statistics.
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
    /// a miss: a caller can tag a result as cached before the analyzer
    /// performs its own (counting) lookup.
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
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    fn put(&self, key: &QueryKey, value: CachedResult) {
        self.map
            .lock()
            .expect("cache poisoned")
            .insert(key.clone(), value);
    }
}

/// Runs `compute` through the options' cache, if any: a hit whose shape
/// `unwrap` accepts short-circuits without touching a solver; on a miss
/// the computed result is stored when `wrap` deems it cacheable (`None`
/// keeps interrupted verdicts out). Without a cache this is exactly
/// `compute()`.
pub(crate) fn cached<T>(
    options: &AnalysisOptions,
    key: impl FnOnce() -> QueryKey,
    unwrap: impl FnOnce(CachedResult) -> Option<T>,
    wrap: impl FnOnce(&T) -> Option<CachedResult>,
    compute: impl FnOnce() -> Result<T, AnalysisError>,
) -> Result<T, AnalysisError> {
    let Some(cache) = options.cache.as_ref() else {
        return compute();
    };
    let key = key();
    if let Some(hit) = cache.get(&key).and_then(unwrap) {
        return Ok(hit);
    }
    let value = compute()?;
    if let Some(entry) = wrap(&value) {
        cache.put(&key, entry);
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;

    #[derive(Default)]
    struct MapCache {
        map: Mutex<HashMap<QueryKey, CachedResult>>,
        gets: AtomicU64,
        puts: AtomicU64,
    }

    impl QueryCache for MapCache {
        fn get(&self, key: &QueryKey) -> Option<CachedResult> {
            self.gets.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().get(key).cloned()
        }
        fn put(&self, key: &QueryKey, value: CachedResult) {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().insert(key.clone(), value);
        }
    }

    fn pair() -> (Aig, Aig) {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        g.add_output(x);
        let mut c = Aig::new();
        let a = c.add_input();
        let _ = c.add_input();
        c.add_output(a);
        (g, c)
    }

    #[test]
    fn keys_separate_certified_backend_and_params() {
        let (g, c) = pair();
        let base = AnalysisOptions::new();
        let k0 = QueryKey::new(&g, &c, metric::COMB_WCE, &base);
        assert_ne!(
            k0,
            QueryKey::new(&g, &c, metric::COMB_WCE, &base.clone().with_certify(true)),
            "certified entries must be distinct"
        );
        assert_ne!(
            k0,
            QueryKey::new(
                &g,
                &c,
                metric::COMB_WCE,
                &base.clone().with_backend(Backend::Bdd)
            )
        );
        assert_ne!(k0, QueryKey::new(&g, &c, metric::COMB_BIT_FLIP, &base));
        assert_ne!(
            k0,
            QueryKey::new(&c, &g, metric::COMB_WCE, &base),
            "ordered pair"
        );
        assert_ne!(k0.clone().with_threshold(3), k0.clone().with_threshold(4));
        assert_ne!(k0.clone().with_cycles(3), k0.clone().with_cycles(4));
    }

    #[test]
    fn cached_short_circuits_on_hit_and_stores_on_miss() {
        let (g, c) = pair();
        let store = Arc::new(MapCache::default());
        let options = AnalysisOptions::new().with_cache(CacheHandle::new(store.clone()));
        let report = ErrorReport {
            value: 7u128,
            sat_calls: 3,
            conflicts: 9,
            engine: EngineKind::Sat,
        };
        let mut computes = 0;
        for _ in 0..3 {
            let got = cached(
                &options,
                || QueryKey::new(&g, &c, metric::COMB_WCE, &options),
                |hit| match hit {
                    CachedResult::Wide(r) => Some(r),
                    _ => None,
                },
                |r| Some(CachedResult::Wide(*r)),
                || {
                    computes += 1;
                    Ok(report)
                },
            )
            .unwrap();
            assert_eq!(got, report);
        }
        assert_eq!(computes, 1, "only the cold call may compute");
        assert_eq!(store.puts.load(Ordering::Relaxed), 1);
        assert_eq!(store.gets.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cached_never_stores_when_wrap_declines() {
        let (g, c) = pair();
        let store = Arc::new(MapCache::default());
        let options = AnalysisOptions::new().with_cache(CacheHandle::new(store.clone()));
        let verdict: Verdict<Vec<bool>> = Verdict::Interrupted {
            best_so_far: crate::report::Partial::trivial(axmc_sat::Interrupt::Deadline),
        };
        let got = cached(
            &options,
            || QueryKey::new(&g, &c, metric::COMB_EXCEEDS, &options).with_threshold(1),
            |hit| match hit {
                CachedResult::CombVerdict(v) => Some(v),
                _ => None,
            },
            |v| match v {
                Verdict::Interrupted { .. } => None,
                other => Some(CachedResult::CombVerdict(other.clone())),
            },
            || Ok(verdict.clone()),
        )
        .unwrap();
        assert_eq!(got, verdict);
        assert_eq!(
            store.puts.load(Ordering::Relaxed),
            0,
            "interrupted verdicts must not be cached"
        );
    }

    #[test]
    fn result_cache_counts_hits_and_misses_but_peek_is_free() {
        let (g, c) = pair();
        let cache = ResultCache::new();
        let k = QueryKey::new(&g, &c, metric::COMB_WCE, &AnalysisOptions::new());
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

    #[test]
    fn without_a_cache_compute_runs_every_time() {
        let (g, c) = pair();
        let options = AnalysisOptions::new();
        let mut computes = 0;
        for _ in 0..2 {
            let _ = cached(
                &options,
                || QueryKey::new(&g, &c, metric::COMB_WCE, &options),
                |_| None::<u32>,
                |_| None,
                || {
                    computes += 1;
                    Ok(1u32)
                },
            );
        }
        assert_eq!(computes, 2);
    }
}
