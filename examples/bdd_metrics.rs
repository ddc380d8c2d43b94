//! Exact average-case metrics for a truncated adder, via the public
//! `AnalysisOptions` backend API.
//!
//! The BDD engine model-counts the error function, so the mean absolute
//! error and error rate it reports are **exact over all 2^16 inputs** —
//! not sampled estimates — and the worst-case error comes from the same
//! engine's characteristic-function maximum. Compare `Backend::Bdd`
//! against the default SAT engine: the numbers are identical, only the
//! route differs (see `docs/backends.md`).
//!
//! Run with: `cargo run --release --example bdd_metrics`

use axmc::circuit::{approx, generators};
use axmc::core::CombAnalyzer;
use axmc::{AnalysisOptions, Backend};

fn main() -> Result<(), axmc::AnalysisError> {
    let width = 8;
    let cut = 3;
    let golden = generators::ripple_carry_adder(width).to_aig();
    let candidate = approx::truncated_adder(width, cut).to_aig();

    println!("golden    : {width}-bit ripple-carry adder");
    println!("candidate : truncated adder (low {cut} result bits dropped)");
    println!();

    let analyzer = CombAnalyzer::new(&golden, &candidate)
        .with_options(AnalysisOptions::new().with_backend(Backend::Bdd));

    let wce = analyzer.worst_case_error()?;
    println!(
        "worst-case error : {} (engine: {}, {} SAT calls)",
        wce.value, wce.engine, wce.sat_calls
    );

    let avg = analyzer.average_error()?;
    println!("mean abs error   : {:.6} ({})", avg.mae, avg.method);
    println!(
        "error rate       : {:.4} % ({})",
        avg.error_rate * 100.0,
        avg.method
    );
    if let Some(total) = avg.total_error {
        println!(
            "total |error|    : {total} summed over all 2^{} inputs",
            2 * width
        );
    }
    assert!(avg.exact, "BDD metrics carry formal guarantees");

    // The staged Auto schedule lands on the same exact numbers.
    let auto = CombAnalyzer::new(&golden, &candidate)
        .with_options(AnalysisOptions::new().with_backend(Backend::Auto))
        .worst_case_error()?;
    assert_eq!(auto.value, wce.value);
    println!();
    println!(
        "auto schedule agrees: WCE {} via {}",
        auto.value, auto.engine
    );
    Ok(())
}
