//! Reduced Ordered Binary Decision Diagrams (ROBDDs) for the `axmc`
//! toolkit.
//!
//! BDDs give a *canonical* representation of Boolean functions, so exact
//! model counting — and hence exact **average-case** error metrics (mean
//! absolute error, error rate) — falls out directly, and the worst-case
//! error falls out of characteristic-function maximization
//! ([`Manager::max_word`]). Their well-known limitation is equally
//! relevant here: adder-class functions have compact BDDs, while
//! multiplier outputs blow up exponentially under every variable order.
//! This crate exposes the node budget explicitly
//! ([`BuildBddError::SizeLimit`]) so callers can fall back to the SAT
//! engines, reproducing the classic division of labour — which is
//! exactly what `axmc-core`'s unified `Backend` does (see
//! `docs/backends.md`).
//!
//! Long computations are governable: [`Manager::with_ctl`] attaches an
//! `axmc_sat::ResourceCtl` whose deadline/cancellation are observed
//! cooperatively, so a BDD build stops at the same deadline, per-call
//! timeout or cancellation as the SAT engine staged behind it.
//!
//! # Examples
//!
//! ```
//! use axmc_bdd::Manager;
//!
//! let mut m = Manager::new(2);
//! let a = m.var(0);
//! let b = m.var(1);
//! let f = m.xor(a, b);
//! assert_eq!(m.count_sat(f)?, 2); // two of four assignments satisfy XOR
//! # Ok::<(), axmc_bdd::BuildBddError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod metrics;

pub use crate::manager::{interleaved_order, BuildBddError, Manager, NodeId, MAX_COUNT_VARS};
pub use crate::metrics::{exact_average_with, exact_word_max, BddAverage};
