//! # axmc-core — precise error determination of approximated components
//! in sequential circuits with model checking
//!
//! This crate is the primary contribution of the reproduced system: given
//! a golden circuit and a version in which a combinational component
//! (adder, multiplier, …) has been replaced by an approximate variant, it
//! determines the approximation's error **exactly**, with formal
//! guarantees — including when the component sits inside a sequential
//! circuit where errors can be masked, delayed, or amplified through
//! feedback.
//!
//! ## Combinational metrics ([`CombAnalyzer`])
//!
//! * exact worst-case error and worst-case bit-flip (Hamming) error,
//!   computed by a selectable [`Backend`]: the paper's CEGIS binary
//!   search over SAT threshold miters, ROBDD characteristic-function
//!   maximization, or an `Auto` schedule that stages them (the BDD
//!   under its node budget first, SAT on a blow-up);
//! * exact MAE / error-rate via BDD model counting whenever the width
//!   admits a BDD, with graceful degradation to an exhaustive sweep
//!   (small circuits) and finally to sampled estimates flagged as
//!   non-guaranteed ([`AverageReport`]).
//!
//! See `docs/backends.md` for the full engine-selection guide.
//!
//! ## Sequential metrics ([`SeqAnalyzer`])
//!
//! * earliest error cycle (incremental BMC);
//! * precise worst-case error and bit-flip error within `k` cycles;
//! * per-horizon error profiles and growth classification
//!   ([`ErrorGrowth`]) — does the design accumulate error?
//! * unbounded error-bound **proofs** via k-induction;
//! * a random-simulation baseline for comparison.
//!
//! ## Resource governance
//!
//! Every engine accepts an [`AnalysisOptions`] bundle carrying a
//! [`ResourceCtl`] (deterministic budget, wall-clock deadline, per-query
//! timeout, cancellation token) plus the certify/jobs/sweep knobs. All
//! analyses are *anytime*: a blown deadline or raised token yields a
//! typed [`AnalysisError::Interrupted`] (or an `Interrupted`
//! [`Verdict`]) whose [`Partial`] payload carries the tightest certified
//! bounds reached — never a panic, never a wasted run.
//!
//! # Examples
//!
//! ```
//! use axmc_circuit::{generators, approx};
//! use axmc_seq::accumulator;
//! use axmc_core::{SeqAnalyzer, ErrorGrowth};
//!
//! // Embed a truncated adder in an accumulator and measure precisely.
//! let golden = accumulator(&generators::ripple_carry_adder(4), 4);
//! let cheap = accumulator(&approx::truncated_adder(4, 2), 4);
//! let analyzer = SeqAnalyzer::new(&golden, &cheap);
//!
//! let wce3 = analyzer.worst_case_error_at(3)?;
//! let profile = analyzer.error_profile(5)?;
//! assert!(wce3.value > 0);
//! assert_eq!(profile.growth(), ErrorGrowth::Accumulating);
//! # Ok::<(), axmc_core::AnalysisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound_search;
pub mod cache;
mod comb;
mod engine;
mod options;
mod report;
mod route;
mod seq;
mod threshold;
mod verdict;

pub use crate::cache::{CacheHandle, CachedResult, QueryCache, QueryKey, ResultCache};
pub use crate::comb::{
    exhaustive_stats, sampled_stats, CombAnalyzer, ErrorInputCount, ExhaustiveStats, SampledStats,
};
pub use crate::engine::{Backend, EngineKind, DEFAULT_BDD_NODE_LIMIT};
pub use crate::options::AnalysisOptions;
pub use crate::report::{
    AnalysisError, AverageMethod, AverageReport, ErrorGrowth, ErrorProfile, ErrorReport, Partial,
};
pub use crate::seq::{EarliestError, SeqAnalyzer, SeqProbe};
pub use crate::verdict::Verdict;

// Re-exported so downstream users can build an `AnalysisOptions` without
// depending on the solver crate directly.
pub use axmc_sat::{Budget, CancelToken, Interrupt, ResourceCtl};
