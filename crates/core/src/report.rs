//! Result types shared by the error-determination engines.

use crate::engine::EngineKind;
use axmc_sat::Interrupt;
use std::fmt;

/// A precisely determined error value together with the formal effort
/// spent obtaining it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ErrorReport<T> {
    /// The exact metric value (e.g. worst-case error).
    pub value: T,
    /// Number of decision-procedure (SAT/BMC) queries issued. Zero when
    /// the BDD engine produced the value.
    pub sat_calls: u64,
    /// Total solver conflicts across those queries.
    pub conflicts: u64,
    /// The engine that actually produced the value. The metric itself is
    /// engine-independent — both engines are exact — but the effort
    /// counters above only make sense relative to this.
    pub engine: EngineKind,
}

impl<T> ErrorReport<T> {
    /// The same report over `f(value)`.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> ErrorReport<U> {
        ErrorReport {
            value: f(self.value),
            sat_calls: self.sat_calls,
            conflicts: self.conflicts,
            engine: self.engine,
        }
    }
}

/// How an average-case metric was obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AverageMethod {
    /// Exact BDD model counting (guaranteed, any width the BDD admits).
    Bdd,
    /// Exact exhaustive sweep over all `2^n` inputs (guaranteed, small
    /// circuits only).
    Exhaustive,
    /// Uniform random sampling — an **estimate without guarantees**, the
    /// last resort when the width admits neither of the exact methods.
    Sampled,
}

impl fmt::Display for AverageMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AverageMethod::Bdd => "exact, BDD",
            AverageMethod::Exhaustive => "exact, exhaustive",
            AverageMethod::Sampled => "sampled estimate",
        })
    }
}

/// Average-case error metrics from the unified backend path
/// (`CombAnalyzer::average_error`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AverageReport {
    /// Mean absolute error over all inputs (exact unless `method` is
    /// [`AverageMethod::Sampled`]).
    pub mae: f64,
    /// Fraction of inputs on which the circuits disagree.
    pub error_rate: f64,
    /// Exact sum of absolute errors over all inputs, when an exact
    /// method produced it.
    pub total_error: Option<u128>,
    /// Whether the values carry formal guarantees.
    pub exact: bool,
    /// The method that produced the values.
    pub method: AverageMethod,
}

/// The best certified knowledge an analysis had accumulated when it was
/// stopped — the *anytime* payload of an interrupted run.
///
/// Every interrupted engine reports the tightest interval it had proven
/// for its metric, so a blown deadline still yields usable (and still
/// certified) information instead of nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Partial {
    /// Why the analysis stopped, when a resource limit did it. `None`
    /// means a configured search range was exhausted without a verdict
    /// (e.g. `max_k` induction depth, accumulator saturation).
    pub reason: Option<Interrupt>,
    /// Largest metric value witnessed by a counterexample so far.
    pub known_low: u128,
    /// Smallest proven upper bound on the metric so far.
    pub known_high: u128,
    /// Deepest fully completed BMC bound, for the cycle-indexed engines:
    /// all cycles `< completed_bound` are certified clear.
    pub completed_bound: Option<usize>,
}

impl Partial {
    /// A partial result carrying no information beyond the interrupt
    /// reason: the trivial interval over the full metric range.
    pub fn trivial(reason: Interrupt) -> Self {
        Partial {
            reason: Some(reason),
            known_low: 0,
            known_high: u128::MAX,
            completed_bound: None,
        }
    }
}

impl fmt::Display for Partial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            Some(reason) => write!(f, "{reason}")?,
            None => f.write_str("search range exhausted")?,
        }
        write!(f, "; metric in [{}, {}]", self.known_low, self.known_high)?;
        if let Some(k) = self.completed_bound {
            write!(f, "; cycles < {k} certified clear")?;
        }
        Ok(())
    }
}

/// Why an analysis could not run to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// A resource limit (budget, deadline, cancellation) or an exhausted
    /// search range stopped the analysis; the payload carries the best
    /// certified-so-far result.
    Interrupted(Partial),
    /// A certificate produced in certified mode failed independent
    /// validation — the underlying solver produced an unsound answer and
    /// the verdict cannot be trusted.
    CertificateRejected {
        /// The engine whose answer failed validation.
        engine: String,
        /// Human-readable description of what failed to validate.
        detail: String,
    },
}

impl AnalysisError {
    /// An interruption carrying no information beyond the reason.
    pub fn interrupted(reason: Interrupt) -> Self {
        AnalysisError::Interrupted(Partial::trivial(reason))
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Interrupted(partial) => {
                write!(f, "analysis interrupted: {partial}")
            }
            AnalysisError::CertificateRejected { engine, detail } => write!(
                f,
                "certificate rejected in {engine} engine: {detail}; the verdict cannot be trusted"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<axmc_mc::CertificateRejected> for AnalysisError {
    fn from(e: axmc_mc::CertificateRejected) -> Self {
        AnalysisError::CertificateRejected {
            engine: e.engine,
            detail: e.detail,
        }
    }
}

/// Growth classification of the sequential worst-case error as the
/// observation horizon grows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorGrowth {
    /// The error profile is identically zero: the approximation is
    /// invisible at the outputs within the horizon.
    Silent,
    /// The error appears but stops growing within the horizon.
    Bounded,
    /// The error keeps growing up to the horizon — the design accumulates
    /// error (feedback amplification).
    Accumulating,
}

/// A per-cycle worst-case error profile, `profile[k]` being the precise
/// worst-case error over all cycles `<= k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorProfile {
    /// `profile[k]` = WCE over cycles `0..=k`.
    pub profile: Vec<u128>,
    /// Total SAT/BMC queries used; zero when the BDD of a feed-forward
    /// pair's time-frame expansion produced the profile.
    pub sat_calls: u64,
}

impl ErrorProfile {
    /// Classifies the growth shape of the profile.
    ///
    /// The tail is considered still-growing if the last quarter of the
    /// horizon shows an increase.
    pub fn growth(&self) -> ErrorGrowth {
        let n = self.profile.len();
        if n == 0 || *self.profile.last().expect("nonempty") == 0 {
            return ErrorGrowth::Silent;
        }
        // For a length-1 profile tail_start is 0; the implicit value
        // before the horizon is 0, so any nonzero WCE@0 counts as growth.
        let tail_start = n - (n / 4).max(1);
        let before = tail_start.checked_sub(1).map_or(0, |i| self.profile[i]);
        let after = *self.profile.last().expect("nonempty");
        if after > before {
            ErrorGrowth::Accumulating
        } else {
            ErrorGrowth::Bounded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_classification() {
        let silent = ErrorProfile {
            profile: vec![0, 0, 0, 0],
            sat_calls: 0,
        };
        assert_eq!(silent.growth(), ErrorGrowth::Silent);

        let bounded = ErrorProfile {
            profile: vec![0, 3, 3, 3, 3, 3, 3, 3],
            sat_calls: 0,
        };
        assert_eq!(bounded.growth(), ErrorGrowth::Bounded);

        let accumulating = ErrorProfile {
            profile: vec![0, 2, 4, 6, 8, 10, 12, 14],
            sat_calls: 0,
        };
        assert_eq!(accumulating.growth(), ErrorGrowth::Accumulating);
    }

    #[test]
    fn growth_of_short_profiles() {
        // Regression: a length-1 nonzero profile used to underflow
        // `tail_start - 1` and panic.
        let single = ErrorProfile {
            profile: vec![7],
            sat_calls: 0,
        };
        assert_eq!(single.growth(), ErrorGrowth::Accumulating);

        let single_zero = ErrorProfile {
            profile: vec![0],
            sat_calls: 0,
        };
        assert_eq!(single_zero.growth(), ErrorGrowth::Silent);

        let empty = ErrorProfile {
            profile: vec![],
            sat_calls: 0,
        };
        assert_eq!(empty.growth(), ErrorGrowth::Silent);

        // Length 2 stays consistent with the length-1 convention:
        // [0, v] accumulates, [v, v] is bounded.
        let two_grow = ErrorProfile {
            profile: vec![0, 5],
            sat_calls: 0,
        };
        assert_eq!(two_grow.growth(), ErrorGrowth::Accumulating);
        let two_flat = ErrorProfile {
            profile: vec![5, 5],
            sat_calls: 0,
        };
        assert_eq!(two_flat.growth(), ErrorGrowth::Bounded);
    }

    #[test]
    fn analysis_error_displays() {
        let e = AnalysisError::Interrupted(Partial {
            reason: Some(Interrupt::Conflicts),
            known_low: 3,
            known_high: 10,
            completed_bound: None,
        });
        let s = e.to_string();
        assert!(s.contains("[3, 10]"), "{s}");
        assert!(s.contains("conflict budget exhausted"), "{s}");

        let c = AnalysisError::CertificateRejected {
            engine: "bmc".to_string(),
            detail: "proof replay failed".to_string(),
        };
        let s = c.to_string();
        assert!(s.contains("bmc"), "{s}");
        assert!(s.contains("proof replay failed"), "{s}");
    }

    #[test]
    fn partial_display_includes_the_completed_bound() {
        let p = Partial {
            reason: Some(Interrupt::Deadline),
            known_low: 5,
            known_high: 9,
            completed_bound: Some(4),
        };
        let s = p.to_string();
        assert!(s.contains("deadline expired"), "{s}");
        assert!(s.contains("[5, 9]"), "{s}");
        assert!(s.contains("cycles < 4"), "{s}");
    }
}
