//! CNF formulas and Tseitin encoding of AIGs for the `axmc` toolkit.
//!
//! This crate is the bridge between the circuit world ([`axmc_aig`]) and
//! the solver world ([`axmc_sat`]):
//!
//! * [`Cnf`] — a standalone clause container with DIMACS read/write.
//! * [`encode_comb`] — one-shot Tseitin encoding of a combinational AIG
//!   into a fresh solver.
//! * [`encode_frame`] — the incremental building block used by the bounded
//!   model checker: encodes one time-frame of a sequential AIG with
//!   caller-supplied literals for inputs and current state, returning the
//!   literals of the next state.
//!
//! # Examples
//!
//! Check that an AND gate can output true:
//!
//! ```
//! use axmc_aig::Aig;
//! use axmc_cnf::encode_comb;
//! use axmc_sat::SolveResult;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let y = aig.and(a, b);
//! aig.add_output(y);
//!
//! let (mut solver, enc) = encode_comb(&aig);
//! solver.add_clause(&[enc.outputs[0]]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod formula;
pub mod gates;
mod tseitin;

pub use crate::formula::{Cnf, ParseDimacsError};
pub use crate::tseitin::{
    assert_const_false, encode_comb, encode_frame, extend_frame, FrameEncoding,
};
