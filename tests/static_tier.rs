//! Soundness suite for the static pre-analysis tier (`axmc-absint`).
//!
//! Two non-negotiables from the tier's contract are checked here, across
//! the whole shipped approximate-component library at exhaustively
//! checkable widths:
//!
//! * every static `Proved`/`Refuted` verdict agrees bit for bit with the
//!   SAT backend, the BDD backend, and exhaustive simulation;
//! * `Backend::Auto` returns byte-identical metric values to
//!   `Backend::Bdd`, which is `Auto` without the static tier.
//!
//! The companion property tests (`--features proptest-tests`) establish
//! the same guarantees over *random* circuits: the structural sweep is
//! equisatisfiable (256 random vectors agree pre/post reduction) and the
//! certified interval always brackets the true worst-case error.

use axmc::aig::bits_to_u128;
use axmc::circuit::{approx, generators};
use axmc::core::exhaustive_stats;
use axmc::{
    AnalysisError, AnalysisOptions, Backend, CombAnalyzer, EngineKind, InductionOptions,
    SeqAnalyzer, Verdict,
};

/// Every adder pair in the library at a width small enough for an
/// exhaustive ground truth.
fn library_pairs(width: usize) -> Vec<(String, axmc::aig::Aig, axmc::aig::Aig)> {
    let golden = generators::ripple_carry_adder(width).to_aig();
    approx::adder_library(width)
        .into_iter()
        .map(|c| (c.name.clone(), golden.clone(), c.netlist.to_aig()))
        .collect()
}

fn with_backend(backend: Backend) -> AnalysisOptions {
    AnalysisOptions::new().with_backend(backend)
}

#[test]
fn static_threshold_verdicts_cross_validate_against_both_solvers() {
    for width in [4usize, 6] {
        for (name, golden, candidate) in library_pairs(width) {
            let truth = exhaustive_stats(&golden, &candidate).wce;
            let thresholds = [
                0u128,
                truth / 2,
                truth.saturating_sub(1),
                truth,
                truth + 1,
                truth.saturating_mul(2) + 1,
            ];
            let static_only =
                CombAnalyzer::new(&golden, &candidate).with_options(with_backend(Backend::Static));
            let sat =
                CombAnalyzer::new(&golden, &candidate).with_options(with_backend(Backend::Sat));
            let bdd =
                CombAnalyzer::new(&golden, &candidate).with_options(with_backend(Backend::Bdd));
            for t in thresholds {
                let verdict = static_only.check_error_exceeds(t).unwrap();
                let sat_v = sat.check_error_exceeds(t).unwrap();
                let bdd_v = bdd.check_error_exceeds(t).unwrap();
                // The solver backends must agree with each other and
                // with the exhaustive ground truth.
                assert_eq!(sat_v.is_refuted(), truth > t, "{name} w{width} t={t} (sat)");
                assert_eq!(bdd_v.is_refuted(), truth > t, "{name} w{width} t={t} (bdd)");
                // A static decision must match them; Interrupted means
                // undecided, which is always allowed.
                match verdict {
                    Verdict::Proved => {
                        assert!(truth <= t, "{name} w{width} t={t}: unsound static Proved")
                    }
                    Verdict::Refuted { witness } => {
                        let g = axmc::aig::bits_to_u128(&golden.eval_comb(&witness));
                        let c = axmc::aig::bits_to_u128(&candidate.eval_comb(&witness));
                        assert!(
                            g.abs_diff(c) > t,
                            "{name} w{width} t={t}: static witness does not replay"
                        );
                    }
                    Verdict::Interrupted { best_so_far } => {
                        assert!(
                            best_so_far.known_low <= truth && truth <= best_so_far.known_high,
                            "{name} w{width} t={t}: certified interval excludes the truth"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn auto_with_static_tier_matches_solver_only_auto() {
    for width in [4usize, 6] {
        for (name, golden, candidate) in library_pairs(width) {
            let tiered =
                CombAnalyzer::new(&golden, &candidate).with_options(with_backend(Backend::Auto));
            let plain =
                CombAnalyzer::new(&golden, &candidate).with_options(with_backend(Backend::Bdd));
            assert_eq!(
                tiered.worst_case_error().unwrap().value,
                plain.worst_case_error().unwrap().value,
                "{name} w{width} (wce)"
            );
            assert_eq!(
                tiered.bit_flip_error().unwrap().value,
                plain.bit_flip_error().unwrap().value,
                "{name} w{width} (bit flip)"
            );
        }
    }
}

#[test]
fn static_interval_brackets_the_true_error_on_the_library() {
    for width in [4usize, 6, 8] {
        for (name, golden, candidate) in library_pairs(width) {
            let truth = exhaustive_stats(&golden, &candidate).wce;
            let analyzer =
                CombAnalyzer::new(&golden, &candidate).with_options(with_backend(Backend::Static));
            match analyzer.worst_case_error() {
                Ok(report) => {
                    assert_eq!(report.value, truth, "{name} w{width}: static value wrong");
                    assert_eq!(report.engine, EngineKind::Static, "{name} w{width}");
                    assert_eq!(report.sat_calls, 0, "{name} w{width}: a solver ran");
                }
                Err(AnalysisError::Interrupted(p)) => {
                    assert!(
                        p.reason.is_none(),
                        "{name} w{width}: not a static undecided"
                    );
                    assert!(
                        p.known_low <= truth && truth <= p.known_high,
                        "{name} w{width}: interval [{}, {}] excludes truth {truth}",
                        p.known_low,
                        p.known_high
                    );
                }
                Err(other) => panic!("{name} w{width}: {other}"),
            }
        }
    }
}

#[test]
fn identical_pairs_never_touch_a_solver_under_auto() {
    for width in [4usize, 8] {
        let golden = generators::ripple_carry_adder(width).to_aig();
        let copy = golden.clone();
        let report = CombAnalyzer::new(&golden, &copy)
            .with_options(with_backend(Backend::Auto))
            .worst_case_error()
            .unwrap();
        assert_eq!(report.value, 0);
        assert_eq!(report.engine, EngineKind::Static);
        assert_eq!(report.sat_calls, 0);
        assert_eq!(report.conflicts, 0);
    }
}

/// Asserts that a verdict is the static tier's undecided interval.
fn undecided<W: std::fmt::Debug>(verdict: Verdict<W>, what: &str) {
    match verdict {
        Verdict::Interrupted { best_so_far } => {
            assert_eq!(best_so_far.reason, None, "{what}");
            assert!(best_so_far.known_low <= best_so_far.known_high, "{what}");
        }
        other => panic!("{what}: expected the static interval, got {other:?}"),
    }
}

fn static_interval<T: std::fmt::Debug>(result: Result<T, AnalysisError>, what: &str) {
    match result {
        Err(AnalysisError::Interrupted(p)) => {
            assert_eq!(p.reason, None, "{what}");
            assert!(p.known_low <= p.known_high, "{what}");
        }
        other => panic!("{what}: expected the static interval, got {other:?}"),
    }
}

#[test]
fn static_backend_launches_no_engine_in_threshold_queries() {
    // `Backend::Static` promises that no solver runs: the threshold probe,
    // profile, proof, total error, error cycles and earliest error of a
    // sequential pair, and the combinational bit-flip probe, MSB scan and
    // error-input count, either decide from the static tier or return
    // its interval with no interrupt reason.
    use axmc::seq::accumulator;
    let golden = accumulator(&generators::ripple_carry_adder(6), 6);
    let apx = accumulator(&approx::truncated_adder(6, 2), 6);
    let adder = generators::ripple_carry_adder(6).to_aig();
    let cheap = approx::truncated_adder(6, 2).to_aig();
    let msb = CombAnalyzer::new(&adder, &cheap)
        .most_significant_error_bit()
        .unwrap();
    let options = with_backend(Backend::Static).with_jobs(1);
    axmc::obs::set_enabled(true);
    // Counters resolve against a thread-local registry inside the scope,
    // so tests running alongside cannot add to them.
    let (solves, nodes) = axmc::obs::worker_scope(|| {
        let seq = SeqAnalyzer::new(&golden, &apx).with_options(options.clone());
        undecided(seq.check_error_exceeds(3, 4).unwrap(), "exceeds");
        static_interval(seq.error_profile(3), "profile");
        let induction = InductionOptions {
            max_k: 3,
            ..InductionOptions::default()
        };
        undecided(seq.prove_error_bound(60, &induction).unwrap(), "proof");
        let comb = CombAnalyzer::new(&adder, &cheap).with_options(options.clone());
        match comb.check_bit_flips_exceed(1).unwrap() {
            // The tier's concrete probes may decide this one.
            Verdict::Refuted { witness } => {
                let g = bits_to_u128(&adder.eval_comb(&witness));
                let c = bits_to_u128(&cheap.eval_comb(&witness));
                assert!((g ^ c).count_ones() > 1, "bit flips: a bad witness");
            }
            other => undecided(other, "bit flips"),
        }
        static_interval(seq.total_error_at(3, 10), "total");
        static_interval(seq.max_error_cycles_at(3, 0), "error cycles");
        static_interval(seq.earliest_error(4), "earliest");
        match comb.most_significant_error_bit() {
            // The tier's concrete probes may find the top error bit.
            Ok(bit) => assert_eq!(bit, msb, "msb: a static decision must be exact"),
            other => static_interval(other, "msb"),
        }
        static_interval(comb.count_error_inputs(1_000), "error inputs");
        (
            axmc::obs::counter("sat.solves").get(),
            axmc::obs::counter("bdd.nodes.created").get(),
        )
    });
    assert_eq!((solves, nodes), (0, 0), "sat.solves, bdd.nodes.created");
}
