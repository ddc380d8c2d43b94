//! End-to-end checks of the characterization sweep: the JSONL table
//! round-trips losslessly, every width-≤8 entry matches a direct
//! `CombAnalyzer` run bit for bit under the same options, and the
//! `--jobs` fan-out never changes a single metric.

use axmc::characterize::{builtin_library, characterize, SweepOptions, Table};
use axmc::core::{CacheHandle, CombAnalyzer, ResultCache};
use axmc::{AnalysisOptions, Backend};
use std::sync::Arc;

fn base_options() -> AnalysisOptions {
    AnalysisOptions::default().with_backend(Backend::Auto)
}

#[test]
fn jsonl_round_trips_every_entry() {
    let library = builtin_library(&[4], true, true);
    let table = characterize(&library, &SweepOptions::new(base_options(), 2)).expect("sweep");
    assert_eq!(table.entries.len(), library.len());

    let jsonl = table.to_jsonl();
    let parsed = Table::from_jsonl(&jsonl).expect("parse back");
    assert_eq!(parsed.entries.len(), table.entries.len());
    for (a, b) in table.entries.iter().zip(&parsed.entries) {
        // time_ms survives the round trip too, so compare raw entries.
        assert_eq!(a, b, "entry {} changed across serialize/parse", a.name);
    }
}

#[test]
fn entries_match_direct_analyzer_runs_bit_for_bit() {
    let library = builtin_library(&[4, 8], true, true);
    let options = SweepOptions::new(base_options(), 4);
    let table = characterize(&library, &options).expect("sweep");

    for (component, entry) in library.iter().zip(&table.entries) {
        assert_eq!(entry.name, component.name);
        assert_eq!(
            entry.status, "ok",
            "width ≤ 8 must complete: {}",
            entry.name
        );

        // Re-ask the analyzer directly, with the same options the sweep
        // pins per entry (serial, Auto backend).
        let analyzer = CombAnalyzer::new(&component.golden, &component.candidate)
            .with_options(base_options().with_jobs(1));
        let wce = analyzer.worst_case_error().expect("wce");
        let bit_flip = analyzer.bit_flip_error().expect("bit-flip");
        let avg = analyzer.average_error().expect("average");

        assert_eq!(
            entry.wce,
            Some(wce.value),
            "wce mismatch for {}",
            entry.name
        );
        assert_eq!(
            entry.bit_flip,
            Some(bit_flip.value),
            "bit-flip mismatch for {}",
            entry.name
        );
        assert_eq!(entry.mae, Some(avg.mae), "mae mismatch for {}", entry.name);
        assert_eq!(
            entry.error_rate,
            Some(avg.error_rate),
            "error-rate mismatch for {}",
            entry.name
        );
        assert_eq!(
            entry.engine.as_deref(),
            Some(wce.engine.to_string().as_str())
        );
    }
}

#[test]
fn jobs_fanout_is_invariant() {
    let library = builtin_library(&[4], true, true);
    let serial = characterize(&library, &SweepOptions::new(base_options(), 1)).expect("jobs 1");
    let fanned = characterize(&library, &SweepOptions::new(base_options(), 4)).expect("jobs 4");
    assert_eq!(serial.entries.len(), fanned.entries.len());
    for (a, b) in serial.entries.iter().zip(&fanned.entries) {
        // Wall-clock differs between runs; every metric must not.
        assert_eq!(
            a.canonicalized(),
            b.canonicalized(),
            "--jobs changed the result for {}",
            a.name
        );
    }
}

#[test]
fn warm_reuse_skips_the_solver_and_shares_the_query_cache() {
    let library = builtin_library(&[4], true, false);
    let cache = Arc::new(ResultCache::new());
    let mut options = SweepOptions::new(
        base_options().with_cache(CacheHandle::new(cache.clone())),
        2,
    );
    let cold = characterize(&library, &options).expect("cold sweep");
    assert!(cold.entries.iter().all(|e| !e.reused));
    let stored = cache.len();
    assert!(stored > 0, "completed verdicts reach the query cache");

    // Feed the cold table back as the reuse corpus: every row must be
    // reused verbatim (modulo timing) without growing the cache.
    options.reuse = cold.entries.clone();
    let warm = characterize(&library, &options).expect("warm sweep");
    assert!(warm.entries.iter().all(|e| e.reused && e.time_ms == 0.0));
    assert_eq!(cache.len(), stored, "reuse must not re-run any query");
    for (a, b) in cold.entries.iter().zip(&warm.entries) {
        assert_eq!(a.canonicalized(), b.canonicalized());
    }
}
