//! Batch analysis service for axmc (`axmc serve`).
//!
//! A long-running server that accepts batches of analysis jobs as
//! line-delimited JSON — over stdin or a unix domain socket — schedules
//! them onto a worker fleet with FIFO-within-priority fairness, and
//! streams results back as JSONL. The centerpiece is a structural-hash
//! result cache ([`axmc_core::ResultCache`]): verdicts are keyed by the ordered AIG
//! pair fingerprint plus the full query parameters, so re-analyzing a
//! circuit pair the server has already seen is a map lookup instead of a
//! solver run. Sequential threshold probes additionally reuse warm
//! incremental engines ([`axmc_core::SeqProbe`]) across jobs.
//!
//! ```text
//!   stdin/socket ──parse──▶ JobQueue ──▶ worker fleet ──▶ JSONL out
//!                              │             │
//!                              │        ResultCache ◀─── analyzers
//!                              └── priority, FIFO within class
//! ```
//!
//! See `docs/serve.md` for the wire protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
mod queue;
mod server;

pub use crate::protocol::{Metric, Request, RequestError};
pub use crate::queue::JobQueue;
pub use crate::server::{BatchSummary, ServeConfig, Server};
