//! **T7 — Multi-backend exact error metrics**: every row runs through the
//! unified `CombAnalyzer` backend path with per-engine timings — the
//! CEGIS/SAT engine, the exact ROBDD engine, and the staged `Auto`
//! schedule (BDD first, SAT on a blow-up) — plus the exact average-case
//! metrics (MAE, error rate) that only model counting provides.
//!
//! Reproduces the division of labour the literature reports: BDDs handle
//! adder-class circuits in milliseconds with *guaranteed* average-case
//! numbers (where sampling only estimates), but exceed any practical node
//! budget on multipliers — where `Auto` degrades gracefully to the SAT
//! engine and stays exact. The harness also checks the portfolio
//! contract on every row: `Auto` wall-clock must land within 10% of the
//! faster single backend (plus a small scheduling grace).

use axmc_bench::{banner, timed, PhaseLog, Scale};
use axmc_circuit::{approx, generators};
use axmc_core::{AnalysisOptions, AverageMethod, Backend, CombAnalyzer, EngineKind};

/// Scheduling grace for the portfolio wall-clock check, absorbing
/// timing jitter on loaded machines.
const GRACE_MS: f64 = 150.0;

fn options(backend: Backend) -> AnalysisOptions {
    AnalysisOptions::new().with_backend(backend)
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "T7",
        "multi-backend exact metrics (SAT vs BDD vs auto)",
        scale,
    );
    let mut phases = PhaseLog::new("T7", scale);
    let widths: Vec<usize> = scale.pick(vec![8, 16, 24], vec![8, 16, 24, 32]);
    let mut portfolio_misses = 0u32;

    println!(
        "{:<16} {:>6} {:>10} {:>9} {:>9} {:>9} {:>7} {:>14} {:>14}",
        "component",
        "inputs",
        "WCE",
        "sat[ms]",
        "bdd[ms]",
        "auto[ms]",
        "winner",
        "exact MAE",
        "exact rate"
    );
    for &w in &widths {
        phases.phase(&format!("add{w}"));
        let golden = generators::ripple_carry_adder(w).to_aig();
        for (kind, cand_nl) in [
            ("trunc", approx::truncated_adder(w, w / 4)),
            ("loa", approx::lower_or_adder(w, w / 4)),
        ] {
            let name = format!("add{w}_{kind}{}", w / 4);
            let cand = cand_nl.to_aig();
            let run = |backend: Backend| {
                timed(|| {
                    CombAnalyzer::new(&golden, &cand)
                        .with_options(options(backend))
                        .worst_case_error()
                        .expect("unlimited analyses cannot be interrupted")
                })
            };
            let (sat, sat_ms) = run(Backend::Sat);
            let (bdd, bdd_ms) = run(Backend::Bdd);
            let (auto, auto_ms) = run(Backend::Auto);
            assert_eq!(sat.value, bdd.value, "{name}: engines disagree");
            assert_eq!(sat.value, auto.value, "{name}: portfolio disagrees");
            let faster = sat_ms.min(bdd_ms);
            if auto_ms > faster * 1.10 + GRACE_MS {
                portfolio_misses += 1;
                println!("  !! {name}: auto {auto_ms:.0}ms vs faster backend {faster:.0}ms");
            }
            let avg = CombAnalyzer::new(&golden, &cand)
                .with_options(options(Backend::Bdd))
                .average_error()
                .expect("unlimited analyses cannot be interrupted");
            assert_eq!(
                avg.method,
                AverageMethod::Bdd,
                "{name}: expected exact BDD MAE"
            );
            println!(
                "{:<16} {:>6} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>14.6} {:>13.4}%",
                name,
                2 * w,
                auto.value,
                sat_ms,
                bdd_ms,
                auto_ms,
                auto.engine,
                avg.mae,
                avg.error_rate * 100.0,
            );
        }
    }

    // The multiplier wall: the BDD blows its node budget, the `Bdd`
    // and `Auto` backends both degrade to the (exact) SAT engine.
    println!();
    println!("-- multipliers: the classic BDD blow-up, absorbed by the SAT fallback --");
    for w in scale.pick(vec![6usize, 8], vec![6usize, 8, 10]) {
        phases.phase(&format!("mul{w}"));
        let golden = generators::array_multiplier(w).to_aig();
        let cand = approx::truncated_multiplier(w, w / 2).to_aig();
        // The multiplier WCE probes hammer one warm solver for seconds at
        // a time — exactly the workload the between-solves inprocessing
        // pass targets, so it is on here (verdicts are unaffected).
        let opts = options(Backend::Auto)
            .with_bdd_node_limit(200_000)
            .with_inprocessing(true);
        let (report, ms) = timed(|| {
            CombAnalyzer::new(&golden, &cand)
                .with_options(opts.clone())
                .worst_case_error()
                .expect("unlimited analyses cannot be interrupted")
        });
        let note = match report.engine {
            EngineKind::Sat => "BDD exceeded 200k nodes; SAT engine took over",
            EngineKind::Bdd => "BDD fit the budget",
            EngineKind::Static => "decided by the static tier; no solver ran",
        };
        println!(
            "mul{w}: WCE {} via {} in {ms:.0}ms ({note})",
            report.value, report.engine
        );
    }

    println!();
    if portfolio_misses == 0 {
        println!("portfolio check: auto within 10% (+{GRACE_MS:.0}ms grace) of the faster backend on every row");
    } else {
        println!("portfolio check: {portfolio_misses} row(s) exceeded the 10% envelope");
    }
    if let Some(path) = phases.finish() {
        println!("per-phase metrics: {}", path.display());
    }
    assert_eq!(
        portfolio_misses, 0,
        "portfolio wall-clock contract violated"
    );
}
