//! **T8 — Library characterization at scale**: sweeps the builtin
//! approximate-component library through `axmc_characterize::characterize`
//! across widths, library sizes, and fan-out widths, cold and warm.
//!
//! Each row times a cold sweep (empty query cache, no reuse corpus)
//! against a warm re-sweep of the same library that is handed the cold
//! table back as its reuse corpus — the cross-process path `axmc
//! characterize --out` takes on a second invocation. The harness also
//! asserts the sweep's two central contracts on every row: the warm
//! sweep answers every component without touching a solver, and the
//! `--jobs` fan-out never changes a single metric (entries compare equal
//! after `Entry::canonicalized`, which masks only wall-clock and
//! provenance-of-reuse).

use axmc_bench::{banner, jobs_from_env, timed, PhaseLog, Scale};
use axmc_characterize::{builtin_library, characterize, MetricSelection, SweepOptions};
use axmc_core::{AnalysisOptions, Backend, CacheHandle, ResultCache};
use std::sync::Arc;

fn base_options(cache: &Arc<ResultCache>) -> AnalysisOptions {
    AnalysisOptions::new()
        .with_backend(Backend::Auto)
        .with_cache(CacheHandle::new(cache.clone()))
}

struct Row {
    label: &'static str,
    widths: Vec<usize>,
    adders: bool,
    multipliers: bool,
    metrics: MetricSelection,
}

fn main() {
    let scale = Scale::from_env();
    banner("T8", "library characterization at scale", scale);
    let mut phases = PhaseLog::new("T8", scale);
    let fanout = jobs_from_env().max(2);

    // Adders stay cheap deep into 16+ bits (the BDD engine owns them);
    // multipliers carry the solver cost, so the quick scale keeps them
    // narrow and skips the exact-average pass that model counting makes
    // expensive at width 8.
    let wce_only = MetricSelection {
        wce: true,
        bit_flip: true,
        average: false,
    };
    let rows = [
        Row {
            label: "adders",
            widths: scale.pick(vec![4, 8, 16], vec![4, 8, 16, 32]),
            adders: true,
            multipliers: false,
            metrics: MetricSelection::default(),
        },
        Row {
            label: "multipliers",
            widths: scale.pick(vec![4], vec![4, 8]),
            adders: false,
            multipliers: true,
            metrics: wce_only,
        },
    ];

    println!(
        "{:<12} {:>7} {:>5} {:>5} {:>10} {:>10} {:>8}",
        "library", "widths", "comps", "jobs", "cold[ms]", "warm[ms]", "speedup"
    );
    for row in &rows {
        let library = builtin_library(&row.widths, row.adders, row.multipliers);
        let mut serial_baseline = None;
        for jobs in [1usize, fanout] {
            phases.phase(&format!("{}/j{jobs}", row.label));
            let cache = Arc::new(ResultCache::new());
            let mut options = SweepOptions::new(base_options(&cache), jobs);
            options.metrics = row.metrics;
            let (cold, cold_ms) =
                timed(|| characterize(&library, &options).expect("builtin sweep"));
            assert!(
                cold.entries.iter().all(|e| !e.reused && e.status == "ok"),
                "{}: cold sweep must compute every component",
                row.label
            );

            options.reuse = cold.entries.clone();
            let (warm, warm_ms) = timed(|| characterize(&library, &options).expect("warm sweep"));
            assert!(
                warm.entries.iter().all(|e| e.reused),
                "{}: warm sweep must answer every component from the table",
                row.label
            );
            for (a, b) in cold.entries.iter().zip(&warm.entries) {
                assert_eq!(
                    a.canonicalized(),
                    b.canonicalized(),
                    "{}: reuse changed a metric",
                    a.name
                );
            }
            match &serial_baseline {
                None => serial_baseline = Some(cold.clone()),
                Some(serial) => {
                    for (a, b) in serial.entries.iter().zip(&cold.entries) {
                        assert_eq!(
                            a.canonicalized(),
                            b.canonicalized(),
                            "{}: --jobs fan-out changed a metric",
                            a.name
                        );
                    }
                }
            }
            println!(
                "{:<12} {:>7} {:>5} {:>5} {:>10.1} {:>10.1} {:>7.0}x",
                row.label,
                format!("{:?}", row.widths)
                    .trim_matches(|c| c == '[' || c == ']')
                    .replace(", ", "/"),
                cold.entries.len(),
                jobs,
                cold_ms,
                warm_ms,
                if warm_ms > 0.0 {
                    cold_ms / warm_ms
                } else {
                    f64::INFINITY
                },
            );
        }
    }

    println!();
    println!("contracts: warm reuse answered every row solver-free; --jobs fan-out bit-identical");
    if let Some(path) = phases.finish() {
        println!("per-phase metrics: {}", path.display());
    }
}
