//! Zero-dependency parallel execution for the axmc oracle loops.
//!
//! The whole stack's hot path is SAT/BMC oracle calls — embarrassingly
//! parallel across CGP candidates and across independent threshold
//! probes. This crate provides the shapes those loops need, built on
//! [`std::thread::scope`] only (no external crates, so the workspace
//! stays hermetic/offline):
//!
//! * [`parallel_map`] — evaluate every item of a slice on a bounded pool
//!   of workers, returning results **in item order** regardless of
//!   completion order. With `jobs <= 1` (or one item) it runs inline on
//!   the calling thread, so a serial run and a `jobs = 1` run are the
//!   same code path.
//! * [`parallel_pair`] — the two-engine race: run exactly two
//!   heterogeneous closures concurrently and join both, used by the
//!   `--engine auto` SAT ⊕ BDD portfolio in `axmc-core`.
//!
//! Every worker runs inside [`axmc_obs::worker_scope`], so metrics
//! recorded by solver/model-checker code on worker threads aggregate
//! into the process-wide registry without hot-path lock contention.
//! Workers also adopt the spawning thread's current profiling span as
//! their stack base ([`axmc_obs::profile::with_parent`]), so when a
//! trace is recorded the spans they open stay attached to the logical
//! call site — a BMC frame's parallel solver probes appear under that
//! frame in `axmc report` regardless of `--jobs`.
//!
//! Determinism: neither function introduces any ordering dependence —
//! results are slotted by index and merged by the caller in a fixed
//! order, which is what lets `--jobs N` reproduce `--jobs 1` byte for
//! byte when each work item is itself deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of hardware threads available to this process, with a
/// fallback of 1 when the platform cannot say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items` using at most `jobs` worker
/// threads and returns the results in item order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs — the norm for SAT calls — don't serialize on the slowest
/// worker's prefix. With `jobs <= 1` or fewer than two items the calls
/// run inline on the current thread.
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated once all
/// workers have stopped).
///
/// # Examples
///
/// ```
/// let squares = axmc_par::parallel_map(4, &[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let parent = axmc_obs::profile::current_span_id();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    axmc_obs::worker_scope(|| {
                        axmc_obs::profile::with_parent(parent, || loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            let result = f(i, item);
                            *slots[i].lock().expect("result slot poisoned") = Some(result);
                        })
                    })
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Runs two closures concurrently on scoped worker threads and returns
/// both results.
///
/// This is the two-engine portfolio shape: `axmc-core`'s `Auto` backend
/// races its SAT and BDD engines with `parallel_pair`, each under a
/// `ResourceCtl` carrying a shared race-cancellation token, and the
/// first sound finisher raises the token to stop the loser. The function
/// itself is engine-agnostic — it only provides the join.
///
/// Both closures always run to completion (cooperative cancellation is
/// the caller's job); the join is a barrier.
///
/// # Panics
///
/// Panics if either closure panics (the panic is propagated after both
/// threads have stopped).
///
/// # Examples
///
/// ```
/// let (a, b) = axmc_par::parallel_pair(|| 6 * 7, || "done");
/// assert_eq!(a, 42);
/// assert_eq!(b, "done");
/// ```
pub fn parallel_pair<A, B, F, G>(f: F, g: G) -> (A, B)
where
    A: Send,
    B: Send,
    F: FnOnce() -> A + Send,
    G: FnOnce() -> B + Send,
{
    let parent = axmc_obs::profile::current_span_id();
    std::thread::scope(|scope| {
        let ha = scope
            .spawn(move || axmc_obs::worker_scope(|| axmc_obs::profile::with_parent(parent, f)));
        let hb = scope
            .spawn(move || axmc_obs::worker_scope(|| axmc_obs::profile::with_parent(parent, g)));
        let ra = ha.join();
        let rb = hb.join();
        match (ra, rb) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(payload), _) | (_, Err(payload)) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let out = parallel_map(jobs, &items, |i, &x| {
                // Stagger completion so later items often finish first.
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
                x * 2
            });
            let expect: Vec<u64> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn map_passes_matching_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = parallel_map(3, &items, |i, &s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn map_runs_every_item_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..57).collect();
        let out = parallel_map(5, &items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::Relaxed), 57);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn map_propagates_worker_panics() {
        parallel_map(2, &[0u32, 1, 2, 3], |_, &x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn pair_runs_both_closures_and_returns_both_results() {
        let left = AtomicU64::new(0);
        let right = AtomicU64::new(0);
        let (a, b) = parallel_pair(
            || {
                left.fetch_add(1, Ordering::Relaxed);
                "sat"
            },
            || {
                right.fetch_add(1, Ordering::Relaxed);
                17u64
            },
        );
        assert_eq!((a, b), ("sat", 17));
        assert_eq!(left.load(Ordering::Relaxed), 1);
        assert_eq!(right.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "pair boom")]
    fn pair_propagates_panics_from_either_side() {
        parallel_pair(|| 1u32, || panic!("pair boom"));
    }

    #[test]
    fn workers_aggregate_metrics_into_global_registry() {
        // Serialized against other obs users via the registry reset; this
        // is the only test in this crate touching global obs state.
        axmc_obs::set_enabled(true);
        axmc_obs::reset();
        let items: Vec<u64> = (0..32).collect();
        parallel_map(4, &items, |_, &x| {
            axmc_obs::counter("par.test.calls").inc();
            axmc_obs::histogram("par.test.values").record(x);
        });
        let s = axmc_obs::snapshot();
        assert_eq!(s.counters["par.test.calls"], 32);
        assert_eq!(s.histograms["par.test.values"].count, 32);
        axmc_obs::set_enabled(false);
        axmc_obs::reset();
    }
}
