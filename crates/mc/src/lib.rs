//! Model-checking engines for the `axmc` toolkit.
//!
//! The paper's error metrics for approximated components inside sequential
//! circuits all reduce to safety questions over a sequential miter ("can
//! the error flag ever rise?"). This crate answers them:
//!
//! * [`Bmc`] — incremental bounded model checking: unrolls the miter frame
//!   by frame into one growing SAT instance and asks per-cycle assumptions,
//!   returning shortest counterexample [`Trace`]s.
//! * [`prove_invariant`] — k-induction with optional simple-path
//!   constraints, for *unbounded* guarantees (the error can **never**
//!   exceed the threshold).
//! * [`explicit_reach`] — exact breadth-first state exploration for small
//!   designs; the oracle the SAT engines are cross-checked against.
//!
//! # Examples
//!
//! Earliest cycle at which a settable latch can be observed high:
//!
//! ```
//! use axmc_aig::Aig;
//! use axmc_mc::{Bmc, BmcResult};
//!
//! let mut aig = Aig::new();
//! let set = aig.add_input();
//! let q = aig.add_latch(false);
//! let nxt = aig.or(q, set);
//! aig.set_latch_next(0, nxt);
//! aig.add_output(q);
//!
//! let mut bmc = Bmc::new(&aig);
//! // In cycle 0 the latch still holds its reset value...
//! assert_eq!(bmc.check_at(0)?, BmcResult::Clear);
//! // ...but it can be high in cycle 1, once `set` was raised in cycle 0.
//! let cex = bmc.check_at(1)?.cex().expect("reachable");
//! assert_eq!(cex.inputs[0], vec![true]);
//! # Ok::<(), axmc_mc::CertificateRejected>(())
//! ```
//!
//! A checker is configured by one [`SolverConfig`](axmc_sat::SolverConfig)
//! ([`Bmc::with_options`]); certification is its proof-logging flag.
//! Every check runs under the solver's
//! [`ResourceCtl`](axmc_sat::ResourceCtl): on a blown budget, an expired
//! deadline or a raised cancellation token the engines return typed
//! `Unknown`/partial outcomes instead of blocking, and in certified mode
//! a rejected certificate surfaces as [`CertificateRejected`] rather
//! than a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bmc;
mod error;
mod induction;
mod reach;
mod trace;
mod unroll;
pub mod vcd;

pub use crate::bmc::{Bmc, BmcResult};
pub use crate::error::CertificateRejected;
pub use crate::induction::{prove_invariant, InductionOptions, ProofResult};
pub use crate::reach::{explicit_reach, ReachResult};
pub use crate::trace::Trace;
pub use crate::unroll::Unroller;
