//! The benchmark's own arithmetic: latency percentiles, the tail rule,
//! run-to-run quartiles and spread, and failure accounting.

/// A percentile needs at least this many samples strictly beyond it
/// before it is reported as the tail.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile of a sample set: the smallest sample with at
/// least `p` of the samples at or below it. `None` for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// True when the `p` percentile of `n` samples has enough samples beyond
/// it to be reported as the tail.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND_TAIL
}

/// The smallest sample count at which the `p` percentile is supported.
pub fn min_samples_for_tail(p: f64) -> usize {
    (1..)
        .find(|&n| tail_is_supported(n, p))
        .expect("some count supports any p < 1")
}

/// Median, as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// How the operations of a run ended. Every kind of failure counts
/// against the operations attempted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations stopped by a resource limit before a verdict.
    pub interrupted: u64,
    /// Operations that panicked.
    pub panics: u64,
    /// Operations that returned a value other than the known answer.
    pub wrong: u64,
}

/// The outcome of one operation, as the tally counts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Correct,
    Error,
    Interrupted,
    Panic,
    Wrong,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Correct => {}
            Outcome::Error => self.errors += 1,
            Outcome::Interrupted => self.interrupted += 1,
            Outcome::Panic => self.panics += 1,
            Outcome::Wrong => self.wrong += 1,
        }
    }

    /// Operations that did not produce the known answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.interrupted + self.panics + self.wrong
    }

    /// Failed operations as a share of those attempted (0 when none were).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.interrupted += other.interrupted;
        self.panics += other.panics;
        self.wrong += other.wrong;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of arrival does not matter.
        let shuffled = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0];
        assert_eq!(percentile(&shuffled, 0.5), Some(3.0));
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_is_supported(100, 0.9));
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(!tail_is_supported(99, 0.9));
        assert_eq!(min_samples_for_tail(0.9), 100);
        assert_eq!(min_samples_for_tail(0.5), 20);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn every_failure_kind_counts_against_attempts() {
        let mut t = Tally::default();
        for o in [
            Outcome::Correct,
            Outcome::Correct,
            Outcome::Error,
            Outcome::Interrupted,
            Outcome::Panic,
            Outcome::Wrong,
            Outcome::Correct,
            Outcome::Correct,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed(), 4);
        assert_eq!(t.failed_frac(), 0.5);
        let mut sum = Tally::default();
        sum.absorb(&t);
        sum.absorb(&t);
        assert_eq!((sum.attempted, sum.failed()), (16, 8));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
