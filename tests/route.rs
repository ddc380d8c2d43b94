//! The rules every word query shares, whichever analyzer asks
//! (`crates/core/src/route.rs`), and the combinational queries that run
//! on the threshold engine at horizon 0.
//!
//! * **Certify.** A certified word query never takes the BDD stage: a
//!   BDD answer carries no DRAT certificate, so SAT answers it and its
//!   UNSATs are checked.
//! * **An interrupted BDD build.** When the run's own limit stopped it,
//!   the query ends `Interrupted` with that reason and the screen's
//!   interval, and no SAT search starts. When only the per-call timeout
//!   stopped it, SAT takes over as after a node-budget blow-up.

use axmc::circuit::{approx, generators};
use axmc::seq::registered_alu;
use axmc::{
    AnalysisError, AnalysisOptions, Backend, CombAnalyzer, EngineKind, Interrupt, SeqAnalyzer,
};
use std::time::Duration;

/// Runs `f` with metrics on, in a worker scope that tests running
/// alongside cannot count into, and returns its result with the values
/// of the `names` counters.
fn counted<T>(names: &[&str], f: impl FnOnce() -> T) -> (T, Vec<u64>) {
    axmc::obs::set_enabled(true);
    axmc::obs::worker_scope(|| {
        let value = f();
        let counts = names.iter().map(|n| axmc::obs::counter(n).get()).collect();
        (value, counts)
    })
}

/// The 8-bit multiplier pair: its BDD build is still running at the
/// first poll of its resource control.
fn multiplier_pair() -> (axmc::aig::Aig, axmc::aig::Aig) {
    (
        generators::array_multiplier(8).to_aig(),
        approx::truncated_multiplier(8, 6).to_aig(),
    )
}

/// A feed-forward sequential pair, which the expansion route answers.
fn pipeline_pair() -> (axmc::aig::Aig, axmc::aig::Aig) {
    (
        registered_alu(&generators::ripple_carry_adder(8), 8),
        registered_alu(&approx::truncated_adder(8, 4), 8),
    )
}

/// The interval an undecided static run reports for `result`.
fn static_window<T: std::fmt::Debug>(result: Result<T, AnalysisError>) -> (u128, u128) {
    match result {
        Err(AnalysisError::Interrupted(p)) if p.reason.is_none() => (p.known_low, p.known_high),
        other => panic!("expected the static interval, got {other:?}"),
    }
}

/// Asserts a deadline interruption over `window`.
fn deadline_over<T: std::fmt::Debug>(
    result: Result<T, AnalysisError>,
    window: (u128, u128),
    what: &str,
) {
    match result {
        Err(AnalysisError::Interrupted(p)) => {
            assert_eq!(p.reason, Some(Interrupt::Deadline), "{what}");
            assert_eq!((p.known_low, p.known_high), window, "{what}");
        }
        other => panic!("{what}: expected a deadline interruption, got {other:?}"),
    }
}

#[test]
fn certified_word_queries_stay_off_the_bdd() {
    let golden = generators::ripple_carry_adder(8).to_aig();
    let candidate = approx::lower_or_adder(8, 4).to_aig();
    for backend in [Backend::Auto, Backend::Bdd] {
        let options = AnalysisOptions::new().with_backend(backend);
        let plain = CombAnalyzer::new(&golden, &candidate).with_options(options.clone());
        let certified =
            CombAnalyzer::new(&golden, &candidate).with_options(options.with_certify(true));
        let ((wce, flips), checks) = counted(&["check.certified"], || {
            (
                certified.worst_case_error().unwrap(),
                certified.bit_flip_error().unwrap(),
            )
        });
        assert_eq!(wce.engine, EngineKind::Sat, "{backend} wce");
        assert!(wce.sat_calls > 0, "{backend} wce");
        assert_eq!(wce.value, plain.worst_case_error().unwrap().value);
        assert_eq!(flips.engine, EngineKind::Sat, "{backend} bit flips");
        assert!(flips.sat_calls > 0, "{backend} bit flips");
        assert_eq!(flips.value, plain.bit_flip_error().unwrap().value);
        assert!(checks[0] > 0, "{backend}: no DRAT check ran");
    }
}

#[test]
fn a_run_limit_inside_the_bdd_build_ends_the_query() {
    let (golden, candidate) = multiplier_pair();
    let screened = static_window(
        CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_backend(Backend::Static))
            .worst_case_error(),
    );
    // `Bdd` consults no screen: its window is the word's whole range.
    for (backend, window) in [
        (Backend::Auto, screened),
        (Backend::Bdd, (0, u16::MAX.into())),
    ] {
        let options = AnalysisOptions::new()
            .with_backend(backend)
            .with_timeout(Duration::ZERO);
        let analyzer = CombAnalyzer::new(&golden, &candidate).with_options(options);
        let (result, solves) = counted(&["sat.solves"], || analyzer.worst_case_error());
        assert_eq!(solves[0], 0, "{backend}: a SAT search started");
        deadline_over(result, window, &format!("{backend}"));
    }

    let (golden, approx) = pipeline_pair();
    let window = static_window(
        SeqAnalyzer::new(&golden, &approx)
            .with_options(AnalysisOptions::new().with_backend(Backend::Static))
            .worst_case_error_at(4),
    );
    let analyzer = SeqAnalyzer::new(&golden, &approx)
        .with_options(AnalysisOptions::new().with_timeout(Duration::ZERO));
    let (result, solves) = counted(&["sat.solves"], || analyzer.worst_case_error_at(4));
    assert_eq!(solves[0], 0, "seq: a SAT search started");
    deadline_over(result, window, "seq");
}

#[test]
fn a_per_call_timeout_inside_the_bdd_build_hands_over_to_sat() {
    let options = AnalysisOptions::new().with_query_timeout(Duration::ZERO);
    let names = ["sat.solves", "engine.fallback", "engine.selected.sat"];
    let (golden, candidate) = multiplier_pair();
    let analyzer = CombAnalyzer::new(&golden, &candidate)
        .with_options(options.clone().with_backend(Backend::Bdd));
    let (result, counts) = counted(&names, || analyzer.worst_case_error());
    assert!(
        matches!(result, Ok(_) | Err(AnalysisError::Interrupted(_))),
        "comb: {result:?}"
    );
    assert!(counts[0] > 0, "comb: no SAT solve ran");
    assert_eq!(
        counts[1..],
        [1, 1],
        "comb: engine.fallback, engine.selected.sat"
    );

    let (golden, approx) = pipeline_pair();
    let analyzer = SeqAnalyzer::new(&golden, &approx).with_options(options);
    let (result, counts) = counted(&names, || analyzer.worst_case_error_at(4));
    assert!(
        matches!(result, Ok(_) | Err(AnalysisError::Interrupted(_))),
        "seq: {result:?}"
    );
    assert!(counts[0] > 0, "seq: no SAT solve ran");
    assert_eq!(
        counts[1..],
        [1, 1],
        "seq: engine.fallback, engine.selected.sat"
    );
}

#[test]
fn certified_msb_scan_and_error_input_count_check_every_proof() {
    // One DRAT check per bit the scan proves clean, and one for the
    // closing UNSAT of the enumeration: the 3-bit truncated adder errs
    // up to its carry out, the lower-OR adder on its lowest bit only.
    let golden = generators::ripple_carry_adder(3).to_aig();
    for (name, component, msb_checks) in [
        ("trunc1", approx::truncated_adder(3, 1), 0),
        ("loa1", approx::lower_or_adder(3, 1), 3),
    ] {
        let candidate = component.to_aig();
        let plain = CombAnalyzer::new(&golden, &candidate);
        let certified = CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_certify(true));
        let (msb, checks) = counted(&["check.certified"], || {
            certified.most_significant_error_bit().unwrap()
        });
        assert_eq!(msb, plain.most_significant_error_bit().unwrap(), "{name}");
        assert_eq!(checks[0], msb_checks, "{name}: msb scan checks");
        let (count, checks) = counted(&["check.certified"], || {
            certified.count_error_inputs(1_000).unwrap()
        });
        assert_eq!(count, plain.count_error_inputs(1_000).unwrap(), "{name}");
        assert_eq!(checks[0], 1, "{name}: error-input count checks");
    }
}
