//! Miter constructions for approximate equivalence checking.
//!
//! A *miter* joins a golden circuit `G` and a candidate circuit `C` over
//! shared inputs into one circuit with a single output that witnesses a
//! disagreement. Which notion of "disagreement" depends on the miter:
//!
//! | Construction | Output is 1 iff … |
//! |---|---|
//! | [`strict_miter`] | any output bit differs |
//! | [`nth_bit_miter`] | output bit *n* differs |
//! | [`abs_diff_threshold_miter`] | `\|int(G) − int(C)\| > T` (subtractor + absolute value; baseline) |
//! | [`diff_threshold_miter`] | same, via two's complement + constant comparator (smaller) |
//! | [`bit_flip_threshold_miter`] | Hamming distance of outputs `> T` |
//! | [`sequential_strict_miter`] | product machine: outputs differ *this cycle* |
//! | [`sequential_diff_miter`] | product machine: arithmetic error `> T` this cycle |
//! | [`sequential_bit_flip_miter`] | product machine: Hamming distance `> T` this cycle |
//!
//! The word miters output an error word instead of one bit, for
//! threshold searches that attach a comparator per probe:
//! [`diff_word_miter`], [`abs_diff_word_miter`], [`popcount_word_miter`],
//! their sequential forms, [`accumulated_error_miter`] (the running,
//! saturating total error) and [`error_cycle_count_miter`] (the count of
//! erroneous cycles).
//!
//! Deciding satisfiability of a combinational miter output with a SAT
//! solver answers "can the error ever exceed T"; model checking a
//! sequential miter answers the same question for circuits with state.
//!
//! # Examples
//!
//! ```
//! use axmc_circuit::{generators, approx};
//! use axmc_miter::{diff_threshold_miter, miter_stats};
//!
//! let golden = generators::ripple_carry_adder(8).to_aig();
//! let candidate = approx::lower_or_adder(8, 3).to_aig();
//! let miter = diff_threshold_miter(&golden, &candidate, 7);
//! println!("miter size: {:?}", miter_stats(&miter));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comb;
mod seq;

pub use crate::comb::{
    abs_diff_threshold_miter, abs_diff_word_miter, bit_flip_threshold_miter, diff_exceeds,
    diff_threshold_miter, diff_word_miter, embed_comb, miter_stats, nth_bit_miter,
    popcount_word_miter, strict_miter, MiterStats,
};
pub use crate::seq::{
    accumulated_error_miter, embed_sequential, error_cycle_count_miter, sequential_bit_flip_miter,
    sequential_diff_miter, sequential_diff_word_miter, sequential_popcount_word_miter,
    sequential_strict_miter,
};
