//! Three-way cross-validation of the analysis backends.
//!
//! For every width-≤8 component in the approximate suite, the SAT/CEGIS
//! engine, the BDD engine, and an exhaustive simulation sweep must agree
//! **bit for bit** on every metric — under every backend selection, at
//! one and two workers, and under an expiring deadline (where every
//! backend must return a typed interrupt, never a torn result).

use axmc::circuit::approx::{adder_library, multiplier_library, Component};
use axmc::core::{exhaustive_stats, AverageMethod, CombAnalyzer};
use axmc::{AnalysisError, AnalysisOptions, Backend, Interrupt};
use std::time::Duration;

/// Every suite component at widths the exhaustive sweep can referee.
fn suite() -> Vec<(String, axmc::aig::Aig, axmc::aig::Aig)> {
    let mut pairs = Vec::new();
    for (lib, golden_of) in [
        (adder_library(4), 0usize),
        (adder_library(8), 0),
        (multiplier_library(4), 0),
        // The widest multipliers of the builtin characterization
        // library: the largest BDDs a library sweep builds.
        (multiplier_library(6), 0),
    ] {
        let golden = lib[golden_of].netlist.to_aig();
        for Component { name, netlist } in &lib[1..] {
            pairs.push((name.clone(), golden.clone(), netlist.to_aig()));
        }
    }
    pairs
}

#[test]
fn every_backend_agrees_with_the_exhaustive_sweep() {
    for (name, golden, candidate) in suite() {
        let sweep = exhaustive_stats(&golden, &candidate);
        for (backend, jobs) in [
            (Backend::Sat, 1usize),
            (Backend::Bdd, 1),
            (Backend::Auto, 1),
            (Backend::Auto, 2),
        ] {
            let analyzer = CombAnalyzer::new(&golden, &candidate)
                .with_options(AnalysisOptions::new().with_backend(backend).with_jobs(jobs));
            let wce = analyzer.worst_case_error().unwrap();
            assert_eq!(wce.value, sweep.wce, "{name} wce {backend} jobs={jobs}");
            let flips = analyzer.bit_flip_error().unwrap();
            assert_eq!(
                flips.value, sweep.bit_flip,
                "{name} bit-flip {backend} jobs={jobs}"
            );
        }
    }
}

#[test]
fn average_metrics_are_bit_identical_across_methods() {
    for (name, golden, candidate) in suite() {
        let sweep = exhaustive_stats(&golden, &candidate);
        for backend in [Backend::Sat, Backend::Bdd, Backend::Auto] {
            let avg = CombAnalyzer::new(&golden, &candidate)
                .with_options(AnalysisOptions::new().with_backend(backend))
                .average_error()
                .unwrap();
            assert!(avg.exact, "{name} {backend}");
            assert_eq!(avg.method, AverageMethod::Bdd, "{name} {backend}");
            // Both methods compute total / 2^n in one division, so the
            // floats are identical, not merely close.
            assert_eq!(avg.total_error, Some(sweep.total_error), "{name}");
            assert_eq!(avg.mae, sweep.mae, "{name} {backend}");
            assert_eq!(avg.error_rate, sweep.error_rate, "{name} {backend}");
        }
    }
}

#[test]
fn expiring_deadline_yields_a_typed_interrupt_never_a_torn_result() {
    // A width-8 multiplier pair is slow enough that a zero deadline
    // always fires first, on every backend and worker count.
    let lib = multiplier_library(8);
    let golden = lib[0].netlist.to_aig();
    let candidate = lib[1].netlist.to_aig();
    for (backend, jobs) in [
        (Backend::Sat, 1usize),
        (Backend::Bdd, 1),
        (Backend::Auto, 1),
        (Backend::Auto, 2),
    ] {
        let analyzer = CombAnalyzer::new(&golden, &candidate).with_options(
            AnalysisOptions::new()
                .with_backend(backend)
                .with_jobs(jobs)
                .with_timeout(Duration::ZERO),
        );
        match analyzer.worst_case_error() {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.reason, Some(Interrupt::Deadline), "{backend} jobs={jobs}");
                assert!(p.known_low <= p.known_high, "{backend} jobs={jobs}");
            }
            other => panic!("{backend} jobs={jobs}: expected interrupt, got {other:?}"),
        }
    }
}

#[test]
fn the_portfolio_survivor_wins_under_a_partial_deadline() {
    // Give the run enough time for the (fast) BDD stage of `Auto` but
    // not for an unbounded SAT search: the schedule must still return
    // the exact answer.
    let lib = adder_library(8);
    let golden = lib[0].netlist.to_aig();
    let candidate = lib[1].netlist.to_aig();
    let sweep = exhaustive_stats(&golden, &candidate);
    for jobs in [1usize, 2] {
        let analyzer = CombAnalyzer::new(&golden, &candidate).with_options(
            AnalysisOptions::new()
                .with_backend(Backend::Auto)
                .with_jobs(jobs)
                .with_timeout(Duration::from_secs(60)),
        );
        let wce = analyzer.worst_case_error().unwrap();
        assert_eq!(wce.value, sweep.wce, "jobs={jobs}");
    }
}
