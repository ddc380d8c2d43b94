//! A from-scratch CDCL SAT solver with resource budgets, written for the
//! `axmc` approximate-circuit verification toolkit.
//!
//! The solver implements the modern conflict-driven clause-learning loop:
//!
//! * two-watched-literal unit propagation,
//! * first-UIP conflict analysis with local clause minimization,
//! * VSIDS variable ordering with phase saving,
//! * Luby-sequence restarts,
//! * glue/activity-based learnt-clause database reduction,
//! * incremental solving under **assumptions**.
//!
//! The feature that matters most to `axmc` is **resource governance**: a
//! solve call runs under a [`ResourceCtl`] — a conflict/propagation
//! [`Budget`], a wall-clock deadline and a shared [`CancelToken`] — and
//! returns [`SolveResult::Unknown`] when any limit is hit, recording the
//! reason in [`Solver::last_interrupt`]. The verifiability-driven search
//! strategy treats `Unknown` as "this candidate is too expensive to
//! verify — discard it", which is what keeps the evolutionary loop fast,
//! and the analysis engines above turn it into typed *anytime* partial
//! results.
//!
//! # Examples
//!
//! ```
//! use axmc_sat::{Solver, SolveResult, Budget};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! solver.add_clause(&[x.positive(), y.positive()]);
//! solver.add_clause(&[x.negative(), y.negative()]);
//!
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! let (mx, my) = (
//!     solver.model_value(x).unwrap(),
//!     solver.model_value(y).unwrap(),
//! );
//! assert!(mx != my);
//!
//! // The same solver, reused under an assumption and a budget. All
//! // configuration flows through one builder (see [`SolverConfig`]).
//! use axmc_sat::SolverConfig;
//! let cfg = SolverConfig::new().with_budget(Budget::unlimited().with_conflicts(10_000));
//! solver.configure(&cfg);
//! assert_eq!(solver.solve_with_assumptions(&[x.positive()]), SolveResult::Sat);
//! assert_eq!(solver.model_value(y), Some(false));
//! ```
//!
//! Beyond the classic loop, the solver carries between-solves
//! **inprocessing** (subsumption, self-subsuming resolution,
//! vivification and marked-variable elimination — see
//! [`InprocessConfig`]), proof-logged so certification survives it, off
//! by default and enabled through [`SolverConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod ctl;
mod heap;
mod solver;
mod types;

pub use crate::config::{InprocessConfig, SolverConfig};
pub use crate::ctl::{CancelToken, Interrupt, ResourceCtl};
pub use crate::solver::{
    Budget, Certificate, HintChains, ProofStep, SolveResult, Solver, SolverStats, LEMMA_TAG,
};
pub use crate::types::{LBool, Lit, Var, MAX_VARS};
