//! Approximate-component library characterization and composed-workload
//! analysis.
//!
//! This crate is the engine behind `axmc characterize`. It sweeps a
//! library of approximate adders and multipliers — the in-tree
//! generated variants plus AIGER imports — computing each component's
//! **exact** worst-case, bit-flip and average-case error against the
//! exact golden implementation of its class, and emits a queryable
//! characterization table (schema `axmc-characterize-v1`, JSONL plus
//! rendered markdown). On top of the table sits composition: the same
//! library picks instantiated inside sequential accelerator scenarios
//! (MAC, FIR cascade, accumulator chain) and analyzed end to end with
//! the sequential engine, so component-level and system-level error can
//! be compared directly — the gap the source paper is about.
//!
//! See `docs/characterize.md` for the schema reference and a worked
//! component-selection walkthrough.
//!
//! # Examples
//!
//! ```
//! use axmc_characterize::{builtin_library, characterize, SweepOptions};
//! use axmc_core::{AnalysisOptions, Backend};
//!
//! // Characterize the builtin 4-bit adder library with the portfolio.
//! let lib = builtin_library(&[4], true, false);
//! let options = SweepOptions::new(AnalysisOptions::new().with_backend(Backend::Auto), 2);
//! let table = characterize(&lib, &options).unwrap();
//! let exact = table.entries.iter().find(|e| e.name == "add4_exact").unwrap();
//! assert_eq!(exact.wce, Some(0));
//! // The table round-trips through its JSONL form.
//! let parsed = axmc_characterize::Table::from_jsonl(&table.to_jsonl()).unwrap();
//! assert_eq!(parsed, table);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod sweep;
pub mod table;

pub use compose::{compose_markdown, compose_sweep, select, Composition, Scenario};
pub use sweep::{
    builtin_library, characterize, import_library, ComponentKind, LibraryComponent,
    MetricSelection, SweepOptions,
};
pub use table::{Entry, Table, SCHEMA};
