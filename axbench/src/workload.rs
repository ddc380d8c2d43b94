//! What every workload provides to the runner, and the helpers they share.

use crate::answers::Answers;
use crate::stats::{Outcome, Tally};
use axmc_rand::rngs::StdRng;
use axmc_rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Portfolio width of every analysis: what the CLI's default `--jobs`
/// gives on a two-core machine.
pub const JOBS: usize = 2;

/// What one pass of a workload did.
#[derive(Default)]
pub struct Pass {
    /// Units of work completed, for throughput (queries, offspring, jobs).
    pub ops: u64,
    /// Wall time spent inside calls into the program.
    pub busy: Duration,
    /// One latency sample per operation, in milliseconds, keyed by the
    /// operation: every pass of a repeating workload uses the same keys.
    pub latencies_ms: Vec<(u64, f64)>,
    /// How the operations ended.
    pub tally: Tally,
    /// Workload-specific counts, summed over passes.
    pub counts: BTreeMap<&'static str, f64>,
    /// Workload-specific sample series, concatenated over passes.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Pass {
    /// Folds another pass into this one.
    pub fn absorb(&mut self, other: Pass) {
        self.ops += other.ops;
        self.busy += other.busy;
        self.latencies_ms.extend(other.latencies_ms);
        self.tally.absorb(&other.tally);
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    /// Adds to a workload-specific count.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// Times operation `key` and counts it in `busy`, `ops` and the latency
    /// samples. A panic inside `op` is caught and recorded as such; the
    /// caller records every other outcome.
    pub fn time_op<R>(&mut self, key: u64, root_span: &str, op: impl FnOnce() -> R) -> Option<R> {
        let start = Instant::now();
        let span = axmc_obs::span(root_span);
        let out = catch_unwind(AssertUnwindSafe(op)).ok();
        drop(span);
        let took = start.elapsed();
        self.busy += took;
        self.ops += 1;
        self.latencies_ms.push((key, took.as_secs_f64() * 1e3));
        if out.is_none() {
            self.tally.record(Outcome::Panic);
        }
        out
    }

    /// [`Pass::time_op`] for an operation that reports its own outcome.
    pub fn timed_op(&mut self, key: u64, root_span: &str, op: impl FnOnce() -> Outcome) {
        if let Some(outcome) = self.time_op(key, root_span, op) {
            self.tally.record(outcome);
        }
    }
}

/// A workload, set up and ready to run passes.
pub trait Workload {
    /// Runs pass number `round`: the workload's whole set of operations
    /// once (one evolve call on `cgp_evolve`), in an order drawn from the
    /// run seed and the round, checking every answer. Passes of the same
    /// round do the same work.
    fn pass(&mut self, round: u64, answers: &Answers) -> Pass;

    /// Whether every pass runs the same operations, so that repetitions
    /// of one operation can be combined.
    fn repeats(&self) -> bool {
        true
    }

    /// Layers the program has no span for, timed by the benchmark around
    /// the public calls off the query path, per pass: `(metric, value)`.
    fn side_layers(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Times `f` in microseconds.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Maps an analysis error to the outcome it counts as.
pub fn error_outcome(e: &axmc_core::AnalysisError) -> Outcome {
    if matches!(e, axmc_core::AnalysisError::Interrupted(_)) {
        Outcome::Interrupted
    } else {
        eprintln!("analysis error: {e}");
        Outcome::Error
    }
}

/// Shuffles `items` in an order fixed by `seed` and `stream`, so each
/// seeded choice of a workload draws from its own random stream.
pub fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_op_counts_panics_and_outcomes() {
        let mut pass = Pass::default();
        pass.timed_op(0, "t", || Outcome::Correct);
        pass.timed_op(1, "t", || panic!("boom"));
        pass.timed_op(2, "t", || Outcome::Interrupted);
        pass.timed_op(3, "t", || Outcome::Wrong);
        assert_eq!(pass.ops, 4);
        assert_eq!(pass.latencies_ms.len(), 4);
        assert_eq!(pass.tally.panics, 1);
        assert_eq!(pass.tally.failed(), 3);
    }

    #[test]
    fn shuffles_repeat_per_seed() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5, 1);
        shuffle(&mut b, 5, 1);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        shuffle(&mut c, 6, 1);
        assert_ne!(a, c);
    }
}
