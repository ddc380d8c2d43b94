//! Determinism suite for the parallel oracle layer: every engine that
//! accepts a `jobs` knob must produce the same *results* regardless of
//! the worker count.
//!
//! Two different guarantees are checked, matching the design:
//!
//! - **CGP searches** (`evolve`, `evolve_in_context`) promise bytewise
//!   trajectory identity: a fixed seed yields the same chromosome, area
//!   history and counter set for every `jobs` value, because breeding is
//!   serial and verification is pure per candidate.
//! - **Sequential searches** (`SeqAnalyzer`: WCE, bit-flip, profile,
//!   total error and error cycles) promise *report* identity: they probe
//!   serially on one warm engine whatever `jobs` says, so value,
//!   `sat_calls`, `conflicts` and engine all match.
//! - **Combinational searches** (`CombAnalyzer` under `Auto`) promise
//!   the same: the static tier, the BDD and SAT run one after the other
//!   at every `jobs`, so the engine that answers is always the same one.
//!
//! The parallel worker count defaults to 8 and can be varied via
//! `AXMC_TEST_JOBS` — the CI stress step loops this suite with several
//! values to shake out scheduling-dependent bugs.

use axmc::cgp::{evolve_in_context, SequentialContext, Verifier};
use axmc::circuit::approx::{adder_library, multiplier_library};
use axmc::circuit::{approx, generators};
use axmc::core::CombAnalyzer;
use axmc::sat::Budget;
use axmc::{evolve, AnalysisOptions, Backend, SearchOptions, SeqAnalyzer};
use std::time::Duration;

/// The "many workers" side of every comparison (`AXMC_TEST_JOBS`, default 8).
fn test_jobs() -> usize {
    std::env::var("AXMC_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(8)
}

fn cgp_options(seed: u64) -> SearchOptions {
    SearchOptions {
        threshold: 3,
        population: 4,
        max_mutations: 4,
        max_generations: 40,
        // Generous: generation count must be the only stopping rule, or
        // the trajectories could diverge by wall-clock alone.
        time_limit: Duration::from_secs(600),
        verifier: Verifier::Sat {
            budget: Budget::unlimited().with_conflicts(20_000),
        },
        seed,
        extra_cols: 2,
        ..SearchOptions::default()
    }
}

#[test]
fn evolve_trajectory_is_identical_across_jobs() {
    let golden = generators::ripple_carry_adder(4);
    for seed in [3, 17] {
        let mut serial_opts = cgp_options(seed);
        serial_opts.jobs = 1;
        let serial = evolve(&golden, &serial_opts).unwrap();
        for jobs in [2, test_jobs()] {
            let mut par_opts = cgp_options(seed);
            par_opts.jobs = jobs;
            let par = evolve(&golden, &par_opts).unwrap();
            assert_eq!(
                serial.best.genes(),
                par.best.genes(),
                "seed {seed}, jobs {jobs}: different chromosome"
            );
            assert_eq!(serial.area, par.area, "seed {seed}, jobs {jobs}");
            let mut a = serial.stats.clone();
            let mut b = par.stats.clone();
            a.elapsed = Duration::ZERO;
            b.elapsed = Duration::ZERO;
            assert_eq!(a, b, "seed {seed}, jobs {jobs}: different trajectory");
        }
    }
}

#[test]
fn evolve_in_context_trajectory_is_identical_across_jobs() {
    let golden = generators::ripple_carry_adder(3);
    let context = SequentialContext {
        build: &|c| axmc::seq::accumulator(c, 3),
        horizon: 2,
        budget: Budget::unlimited().with_conflicts(20_000),
    };
    let mut serial_opts = cgp_options(31);
    serial_opts.threshold = 4;
    serial_opts.max_generations = 30;
    serial_opts.jobs = 1;
    let serial = evolve_in_context(&golden, &context, &serial_opts).unwrap();
    let mut par_opts = serial_opts.clone();
    par_opts.jobs = test_jobs();
    let par = evolve_in_context(&golden, &context, &par_opts).unwrap();
    assert_eq!(serial.best.genes(), par.best.genes());
    assert_eq!(serial.area, par.area);
    let mut a = serial.stats.clone();
    let mut b = par.stats.clone();
    a.elapsed = Duration::ZERO;
    b.elapsed = Duration::ZERO;
    assert_eq!(a, b);
}

#[test]
fn pareto_front_is_identical_across_jobs() {
    let golden = generators::ripple_carry_adder(4);
    let thresholds = [1u128, 3, 6];
    let front = |jobs: usize| {
        let mut base = cgp_options(5);
        base.max_generations = 20;
        base.jobs = jobs;
        axmc::cgp::pareto_front(&golden, &thresholds, &base).unwrap()
    };
    let serial = front(1);
    let parallel = front(test_jobs());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.threshold, p.threshold);
        assert_eq!(s.wcre_percent, p.wcre_percent);
        assert_eq!(s.result.best.genes(), p.result.best.genes());
        assert_eq!(s.result.area, p.result.area);
    }
}

#[test]
fn seq_analyzer_values_are_identical_across_jobs() {
    let width = 4;
    let golden = axmc::seq::accumulator(&generators::ripple_carry_adder(width), width);
    let cheap = axmc::seq::accumulator(&approx::lower_or_adder(width, 2), width);
    let horizon = 4;

    let serial =
        SeqAnalyzer::new(&golden, &cheap).with_options(AnalysisOptions::new().with_jobs(1));
    let parallel = SeqAnalyzer::new(&golden, &cheap)
        .with_options(AnalysisOptions::new().with_jobs(test_jobs()));

    // One warm engine whatever `jobs` says: whole reports agree.
    assert_eq!(
        serial.worst_case_error_at(horizon).unwrap(),
        parallel.worst_case_error_at(horizon).unwrap(),
    );
    assert_eq!(
        serial.bit_flip_error_at(horizon).unwrap(),
        parallel.bit_flip_error_at(horizon).unwrap(),
    );
    assert_eq!(
        serial.error_profile(horizon).unwrap(),
        parallel.error_profile(horizon).unwrap(),
    );
    assert_eq!(
        serial.total_error_at(horizon, width + 3).unwrap(),
        parallel.total_error_at(horizon, width + 3).unwrap(),
    );
    assert_eq!(
        serial.max_error_cycles_at(horizon, 0).unwrap(),
        parallel.max_error_cycles_at(horizon, 0).unwrap(),
    );
}

#[test]
fn comb_analyzer_reports_are_identical_across_jobs() {
    // The T3 pairs, plus two 6-bit multiplier pairs whose BDDs are the
    // largest of the builtin library.
    let mut pairs = Vec::new();
    for lib in [adder_library(8), multiplier_library(4)] {
        let golden = lib[0].netlist.to_aig();
        for c in &lib[1..] {
            pairs.push((c.name.clone(), golden.clone(), c.netlist.to_aig()));
        }
    }
    let mult6 = generators::array_multiplier(6).to_aig();
    for (name, cand) in [
        ("mul6_pptrunc3", approx::truncated_multiplier(6, 3)),
        ("mul6_optrunc3", approx::operand_truncated_multiplier(6, 3)),
    ] {
        pairs.push((name.to_string(), mult6.clone(), cand.to_aig()));
    }
    for (name, golden, cand) in &pairs {
        let reports = |jobs| {
            let analyzer = CombAnalyzer::new(golden, cand).with_options(
                AnalysisOptions::new()
                    .with_backend(Backend::Auto)
                    .with_jobs(jobs),
            );
            (
                analyzer.worst_case_error().unwrap(),
                analyzer.bit_flip_error().unwrap(),
            )
        };
        let serial = reports(1);
        for jobs in [2, test_jobs()] {
            assert_eq!(reports(jobs), serial, "{name} jobs={jobs}");
        }
    }
}

#[test]
fn inprocessing_is_jobs_invariant() {
    // Inprocessing must not change any answer: with it enabled, every
    // jobs value reports the same metric values as the plain serial
    // analyzer (inprocessing is equivalence-preserving, so only
    // *timing* may change).
    let width = 4;
    let golden = axmc::seq::accumulator(&generators::ripple_carry_adder(width), width);
    let cheap = axmc::seq::accumulator(&approx::lower_or_adder(width, 2), width);
    let horizon = 4;
    let serial =
        SeqAnalyzer::new(&golden, &cheap).with_options(AnalysisOptions::new().with_jobs(1));
    let wce = serial.worst_case_error_at(horizon).unwrap().value;
    let bf = serial.bit_flip_error_at(horizon).unwrap().value;
    for jobs in [2, test_jobs()] {
        let tuned = SeqAnalyzer::new(&golden, &cheap).with_options(
            AnalysisOptions::new()
                .with_jobs(jobs)
                .with_inprocessing(true),
        );
        assert_eq!(
            wce,
            tuned.worst_case_error_at(horizon).unwrap().value,
            "jobs {jobs}: inprocessing changed the WCE"
        );
        assert_eq!(
            bf,
            tuned.bit_flip_error_at(horizon).unwrap().value,
            "jobs {jobs}: inprocessing changed the bit-flip error"
        );
    }
}

#[test]
fn seq_analyzer_parallel_runs_are_reproducible() {
    // Same jobs value twice: byte-identical reports, including the
    // bookkeeping (one engine, so even the conflict totals are stable
    // run-to-run).
    let width = 4;
    let golden = axmc::seq::accumulator(&generators::ripple_carry_adder(width), width);
    let cheap = axmc::seq::accumulator(&approx::truncated_adder(width, 2), width);
    let jobs = test_jobs();
    let a = SeqAnalyzer::new(&golden, &cheap)
        .with_options(AnalysisOptions::new().with_jobs(jobs))
        .worst_case_error_at(3)
        .unwrap();
    let b = SeqAnalyzer::new(&golden, &cheap)
        .with_options(AnalysisOptions::new().with_jobs(jobs))
        .worst_case_error_at(3)
        .unwrap();
    assert_eq!(a, b);
}
