//! Precise error determination for combinational candidates.
//!
//! A combinational query is a word query at horizon 0 on the shared
//! route of [`crate::route`]: the static screen, the BDD word-maximum
//! walk of "Optimization of BDD-based Approximation Error Metrics
//! Calculations" (2205.03267), then the counterexample-guided search of
//! a threshold engine, whose SAT probes ask "can the error exceed T" and
//! whose witnesses' actual errors raise the lower bound. The MSB scan and
//! the error-input count probe the same engine at threshold 0. Exhaustive
//! sweeps serve as oracles for small circuits and provide the
//! average-case metrics (MAE, error rate) that have no polynomial SAT
//! formulation.

use crate::cache::{cached, metric, CachedResult, QueryKey};
use crate::engine::Backend;
use crate::options::AnalysisOptions;
use crate::report::{AnalysisError, AverageMethod, AverageReport, ErrorReport, Partial};
use crate::route::{self, Screen, WordQuery};
use crate::threshold::{ThresholdEngine, WordKind};
use crate::verdict::Verdict;
use axmc_absint::{static_word_bounds, DEFAULT_PROBE_VECTORS};
use axmc_aig::{bits_to_u128, sim::for_each_assignment, Aig};
use axmc_bdd::{exact_word_max, BuildBddError};
use axmc_mc::Trace;
use axmc_miter::{abs_diff_word_miter, diff_word_miter, nth_bit_miter, popcount_word_miter};
use axmc_sat::ResourceCtl;
use std::borrow::Borrow;

/// Widest input count the exhaustive-sweep fallback of
/// [`CombAnalyzer::average_error`] will attempt (`2^20` evaluations).
const MAX_EXHAUSTIVE_INPUTS: usize = 20;

/// Sample count and seed for the last-resort sampled estimate of
/// [`CombAnalyzer::average_error`].
const AVERAGE_SAMPLES: u64 = 100_000;
const AVERAGE_SEED: u64 = 1;

/// The largest value an `outputs`-bit unsigned word can hold.
pub(crate) fn word_max(outputs: usize) -> u128 {
    if outputs >= 128 {
        u128::MAX
    } else {
        (1u128 << outputs) - 1
    }
}

/// Exact and statistical error analysis of a combinational candidate
/// against a golden reference.
///
/// Both circuits must be latch-free with identical input/output counts;
/// outputs are interpreted as unsigned little-endian integers.
///
/// # Examples
///
/// ```
/// use axmc_circuit::{generators, approx};
/// use axmc_core::CombAnalyzer;
///
/// let golden = generators::ripple_carry_adder(8).to_aig();
/// let cand = approx::truncated_adder(8, 3).to_aig();
/// let wce = CombAnalyzer::new(&golden, &cand).worst_case_error()?;
/// assert_eq!(wce.value, (1 << 4) - 2); // 2^(cut+1) - 2
/// # Ok::<(), axmc_core::AnalysisError>(())
/// ```
#[derive(Debug)]
pub struct CombAnalyzer<'a> {
    golden: &'a Aig,
    candidate: &'a Aig,
    options: AnalysisOptions,
}

impl<'a> CombAnalyzer<'a> {
    /// Creates an analyzer for the pair.
    ///
    /// # Panics
    ///
    /// Panics if the interfaces differ or either circuit has latches.
    pub fn new(golden: &'a Aig, candidate: &'a Aig) -> Self {
        assert_eq!(golden.num_inputs(), candidate.num_inputs(), "input counts");
        assert_eq!(
            golden.num_outputs(),
            candidate.num_outputs(),
            "output counts"
        );
        assert_eq!(golden.num_latches(), 0, "golden must be combinational");
        assert_eq!(
            candidate.num_latches(),
            0,
            "candidate must be combinational"
        );
        CombAnalyzer {
            golden,
            candidate,
            options: AnalysisOptions::default(),
        }
    }

    /// Replaces the full analysis option bundle (resource control,
    /// certification, backend, BDD node budget, cache).
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// `true` when the word queries consult the screen:
    /// under [`Backend::Auto`] and [`Backend::Static`].
    fn tiered(&self) -> bool {
        matches!(self.options.backend, Backend::Auto | Backend::Static)
    }

    /// The screen of one word-output miter: sweeps it (constant
    /// substitution, re-strashing, dangling-node elimination), then
    /// bounds its word over the swept miter, whose second ternary
    /// fixpoint can be tighter than the sweep's. Returns the swept miter
    /// and the screen; a word wider than 128 bits gets the window
    /// `[0, max]`.
    fn screen(&self, miter: &Aig, max: u128) -> (Aig, Screen) {
        let (swept, report) = axmc_absint::sweep(miter);
        if axmc_obs::tracing_active() {
            axmc_obs::emit(
                axmc_obs::Event::new("absint.screen")
                    .field("nodes_before", report.nodes_before as u64)
                    .field("nodes_after", report.nodes_after as u64)
                    .field("ands_removed", report.ands_removed() as u64),
            );
        }
        let screen = match static_word_bounds(&swept, DEFAULT_PROBE_VECTORS) {
            Some(bounds) => Screen {
                window: bounds.interval,
                witness: bounds.probe.map(|probe| Trace {
                    inputs: vec![probe.witness],
                }),
            },
            None => Screen {
                window: (0, max),
                witness: None,
            },
        };
        (swept, screen)
    }

    /// A word query of the pair at horizon 0 on the shared route. Under
    /// [`Backend::Bdd`] and [`Backend::Auto`] the BDD stage is the exact
    /// maximum of the unsigned word `word` builds. The `label` search
    /// reads `miter`'s word as `kind`, at most `max`, and replays each
    /// witnessing input as `|G − C|` or, for an unsigned word, the number
    /// of differing output bits.
    fn run<W: Borrow<Aig>>(
        &self,
        (label, kind, max): (&'static str, WordKind, u128),
        screen: Option<Screen>,
        word: impl FnOnce() -> W,
        miter: impl FnOnce() -> Aig,
    ) -> Result<ErrorReport<u128>, AnalysisError> {
        let limit = self.options.bdd_node_limit;
        let bdd = matches!(self.options.backend, Backend::Bdd | Backend::Auto)
            .then_some(|ctl: &ResourceCtl| exact_word_max(word().borrow(), 1, true, limit, ctl));
        let (options, pair) = (&self.options, (self.golden, self.candidate));
        let query = WordQuery {
            options,
            pair,
            label,
            kind,
            k: 0,
            max,
        };
        let report = query.run(screen, bdd, miter, |trace| {
            let input = &trace.inputs[0];
            let g = bits_to_u128(&self.golden.eval_comb(input));
            let c = bits_to_u128(&self.candidate.eval_comb(input));
            match kind {
                WordKind::SignedDiff => g.abs_diff(c),
                WordKind::Unsigned => (g ^ c).count_ones().into(),
            }
        })?;
        Ok(report.map(|values| values[0]))
    }

    /// One threshold query: can `|int(G) - int(C)| > threshold`?
    ///
    /// `Refuted` carries the witnessing input (as bits); `Proved` means
    /// the error provably stays within the threshold; `Interrupted` means
    /// a resource limit stopped the solve first.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] if certified mode is on and
    /// the UNSAT certificate fails validation.
    pub fn check_error_exceeds(
        &self,
        threshold: u128,
    ) -> Result<Verdict<Vec<bool>>, AnalysisError> {
        cached(
            &self.options,
            || {
                QueryKey::new(
                    self.golden,
                    self.candidate,
                    metric::COMB_EXCEEDS,
                    &self.options,
                )
                .with_threshold(threshold)
            },
            |hit| match hit {
                CachedResult::CombVerdict(v) => Some(v),
                _ => None,
            },
            |v| match v {
                Verdict::Interrupted { .. } => None,
                done => Some(CachedResult::CombVerdict(done.clone())),
            },
            || {
                let screen = self.tiered().then(|| {
                    let abs = abs_diff_word_miter(self.golden, self.candidate);
                    self.screen(&abs, word_max(self.golden.num_outputs())).1
                });
                let miter = || diff_word_miter(self.golden, self.candidate).compact();
                self.probe(screen, miter, WordKind::SignedDiff, threshold)
            },
        )
    }

    /// One Hamming-distance query: can more than `threshold` output bits
    /// differ?
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] if certified mode is on and
    /// the UNSAT certificate fails validation.
    pub fn check_bit_flips_exceed(
        &self,
        threshold: u32,
    ) -> Result<Verdict<Vec<bool>>, AnalysisError> {
        let miter = popcount_word_miter(self.golden, self.candidate).compact();
        let max = self.golden.num_outputs() as u128;
        let screen = self.tiered().then(|| self.screen(&miter, max).1);
        self.probe(screen, || miter, WordKind::Unsigned, threshold.into())
    }

    /// A threshold probe of the pair at horizon 0 on the shared route;
    /// a witness is an input.
    fn probe(
        &self,
        screen: Option<Screen>,
        miter: impl FnOnce() -> Aig,
        kind: WordKind,
        threshold: u128,
    ) -> Result<Verdict<Vec<bool>>, AnalysisError> {
        let verdict = route::probe(&self.options, screen, miter, kind, threshold, 0)?;
        Ok(verdict.map(|mut trace| trace.inputs.swap_remove(0)))
    }

    /// The exact worst-case error, through the backend selected by
    /// [`AnalysisOptions::backend`]: counterexample-guided galloping
    /// search over threshold miters (SAT), characteristic-function
    /// maximization over `|G - C|` (BDD), or the staged `Auto` schedule —
    /// the static tier, then the BDD under its node budget, then SAT when
    /// the BDD blows it. Both engines are exact, so the value is
    /// backend-independent; see `docs/backends.md`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a resource limit (budget,
    /// deadline, cancellation) stops the search — the payload carries the
    /// tightest certified interval reached — and
    /// [`AnalysisError::CertificateRejected`] if certified mode is on and
    /// a certificate fails validation.
    pub fn worst_case_error(&self) -> Result<ErrorReport<u128>, AnalysisError> {
        cached(
            &self.options,
            || QueryKey::new(self.golden, self.candidate, metric::COMB_WCE, &self.options),
            |hit| match hit {
                CachedResult::Wide(r) => Some(r),
                _ => None,
            },
            |r| Some(CachedResult::Wide(*r)),
            || {
                let max = word_max(self.golden.num_outputs());
                // The BDD walk maximizes an unsigned word, so it reads
                // `|G − C|`; the SAT search wants the signed difference
                // (comparators attach per probe) and builds it only when
                // it runs.
                let (abs, screen) = if self.tiered() {
                    let abs = abs_diff_word_miter(self.golden, self.candidate);
                    let (swept, screen) = self.screen(&abs, max);
                    (Some(swept), Some(screen))
                } else {
                    (None, None)
                };
                let word = || {
                    abs.unwrap_or_else(|| {
                        abs_diff_word_miter(self.golden, self.candidate).compact()
                    })
                };
                let miter = || {
                    let miter = diff_word_miter(self.golden, self.candidate);
                    if self.tiered() {
                        axmc_absint::sweep(&miter).0
                    } else {
                        miter.compact()
                    }
                };
                self.run(("comb.wce", WordKind::SignedDiff, max), screen, word, miter)
            },
        )
    }

    /// The exact worst-case Hamming distance (bit-flip error), through
    /// the selected backend (see [`CombAnalyzer::worst_case_error`] for
    /// the schedule).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a resource limit stops the
    /// search; [`AnalysisError::CertificateRejected`] on a rejected
    /// certificate in certified mode.
    pub fn bit_flip_error(&self) -> Result<ErrorReport<u32>, AnalysisError> {
        cached(
            &self.options,
            || {
                QueryKey::new(
                    self.golden,
                    self.candidate,
                    metric::COMB_BIT_FLIP,
                    &self.options,
                )
            },
            |hit| match hit {
                CachedResult::Narrow(r) => Some(r),
                _ => None,
            },
            |r| Some(CachedResult::Narrow(*r)),
            || {
                let max = self.golden.num_outputs() as u128;
                let miter = popcount_word_miter(self.golden, self.candidate).compact();
                let (miter, screen) = if self.tiered() {
                    let (swept, screen) = self.screen(&miter, max);
                    (swept, Some(screen))
                } else {
                    (miter, None)
                };
                let query = ("comb.bit_flip", WordKind::Unsigned, max);
                let report = self.run(query, screen, || &miter, || miter.clone())?;
                Ok(report.map(|value| value as u32))
            },
        )
    }
}

impl<'a> CombAnalyzer<'a> {
    /// Exact average-case error metrics (MAE, error rate) through the
    /// unified backend path.
    ///
    /// Average-case metrics have no polynomial SAT formulation, so the
    /// backend knob does not select an engine here; instead every
    /// backend uses the same graceful cascade of methods, most exact
    /// first:
    ///
    /// 1. **BDD model counting** — exact at any width the BDD admits
    ///    (this is what replaces the old simulation estimates);
    /// 2. **exhaustive sweep** — exact, for up to 2^20 assignments;
    /// 3. **uniform sampling** — an estimate *without guarantees*,
    ///    flagged by `exact: false`.
    ///
    /// The BDD stage runs under the analysis [`axmc_sat::ResourceCtl`]
    /// and its node budget; blow-ups fall through to the next stage.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] when the control's deadline or
    /// cancellation token fires mid-computation.
    pub fn average_error(&self) -> Result<AverageReport, AnalysisError> {
        let ctl = &self.options.ctl;
        let bdd = {
            let _span = axmc_obs::span("engine.bdd.time_us");
            axmc_bdd::exact_average_with(
                self.golden,
                self.candidate,
                self.options.bdd_node_limit,
                ctl,
            )
        };
        match bdd {
            Ok(stats) => {
                axmc_obs::histogram("bdd.nodes").record(stats.bdd_nodes as u64);
                axmc_obs::counter("engine.selected.bdd").inc();
                let denom = 2f64.powi(self.golden.num_inputs() as i32);
                return Ok(AverageReport {
                    mae: stats.total_error as f64 / denom,
                    error_rate: stats.error_inputs as f64 / denom,
                    total_error: Some(stats.total_error),
                    exact: true,
                    method: AverageMethod::Bdd,
                });
            }
            Err(BuildBddError::Interrupted(reason)) => {
                return Err(AnalysisError::interrupted(reason))
            }
            Err(_) => {}
        }
        // The BDD blew its budget: degrade, exact sweep first.
        axmc_obs::counter("engine.fallback").inc();
        if let Some(reason) = ctl.interrupted() {
            return Err(AnalysisError::interrupted(reason));
        }
        if self.golden.num_inputs() <= MAX_EXHAUSTIVE_INPUTS {
            let stats = exhaustive_stats(self.golden, self.candidate);
            return Ok(AverageReport {
                mae: stats.mae,
                error_rate: stats.error_rate,
                total_error: Some(stats.total_error),
                exact: true,
                method: AverageMethod::Exhaustive,
            });
        }
        let stats = sampled_stats(self.golden, self.candidate, AVERAGE_SAMPLES, AVERAGE_SEED);
        Ok(AverageReport {
            mae: stats.mae_estimate,
            error_rate: stats.error_rate_estimate,
            total_error: None,
            exact: false,
            method: AverageMethod::Sampled,
        })
    }

    /// The most significant output bit on which the candidate can ever
    /// differ from the golden circuit, or `None` if the circuits are
    /// equivalent — the classic n-th-bit scan. The candidate's worst-case
    /// error is below `2^(bit + 1)`.
    ///
    /// Scans from the MSB down, one single-bit miter per step, asked by
    /// one probe at threshold 0 of a threshold engine; each miter
    /// contains only the scanned bit's logic cones, which is what makes
    /// the scan cheap compared to a full arithmetic miter. Under
    /// [`Backend::Static`] each bit's XOR goes to the static tier
    /// instead, and no solver runs.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a query is stopped by a resource
    /// limit, or under [`Backend::Static`] (with no reason) when the tier
    /// cannot decide a bit. The partial result is still informative:
    /// every bit *above* the stopped one was proven clean, so
    /// `known_high` is `2^(bit + 1) - 1` for the bit under scan.
    pub fn most_significant_error_bit(&self) -> Result<Option<usize>, AnalysisError> {
        let analysis_only = self.options.backend == Backend::Static;
        for bit in (0..self.golden.num_outputs()).rev() {
            let miter = nth_bit_miter(self.golden, self.candidate, bit);
            let screen = analysis_only.then(|| self.screen(&miter, 1).1);
            match self.probe(screen, || miter, WordKind::Unsigned, 0)? {
                Verdict::Proved => continue,
                Verdict::Refuted { .. } => return Ok(Some(bit)),
                Verdict::Interrupted { best_so_far } => {
                    return Err(AnalysisError::Interrupted(Partial {
                        known_low: 0,
                        known_high: word_max(bit + 1),
                        ..best_so_far
                    }))
                }
            }
        }
        Ok(None)
    }

    /// Counts distinct input assignments on which the circuits disagree,
    /// up to `limit`, by model enumeration on a threshold engine over the
    /// strict miter: each probe at threshold 0 that finds an erring input
    /// blocks it with a clause over the engine's frame-0 inputs.
    ///
    /// Returns `Ok(ErrorInputCount::Exactly(n))` when the enumeration
    /// exhausts all erroneous inputs below the limit — an **exact** error
    /// rate of `n / 2^inputs` — or `Ok(ErrorInputCount::AtLeast(limit))`
    /// when the limit is hit first. Under [`Backend::Static`] no solver
    /// runs: only a strict miter the static tier proves constant false
    /// decides the count (zero).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a query is stopped by a resource
    /// limit; the partial result carries the enumeration count reached so
    /// far as `known_low`. Under [`Backend::Static`] an undecided count
    /// has no interrupt reason.
    pub fn count_error_inputs(&self, limit: u64) -> Result<ErrorInputCount, AnalysisError> {
        let miter = axmc_miter::strict_miter(self.golden, self.candidate).compact();
        if self.options.backend == Backend::Static {
            if self.screen(&miter, 1).1.window.1 == 0 {
                axmc_obs::counter("absint.decided").inc();
                return Ok(ErrorInputCount::Exactly(0));
            }
            return Err(AnalysisError::Interrupted(route::partial(
                None,
                (0, u128::MAX),
            )));
        }
        let mut engine = ThresholdEngine::new(miter, WordKind::Unsigned, &self.options);
        let mut count = 0u64;
        while count < limit {
            match engine.probe(0, 0)? {
                Verdict::Refuted { witness } => {
                    count += 1;
                    if !engine.block_inputs(&witness.inputs[0]) {
                        // Blocking made the instance trivially unsat.
                        return Ok(ErrorInputCount::Exactly(count));
                    }
                }
                Verdict::Proved => return Ok(ErrorInputCount::Exactly(count)),
                Verdict::Interrupted { best_so_far } => {
                    return Err(AnalysisError::Interrupted(Partial {
                        known_low: count.into(),
                        ..best_so_far
                    }))
                }
            }
        }
        Ok(ErrorInputCount::AtLeast(limit))
    }
}

/// Result of [`CombAnalyzer::count_error_inputs`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorInputCount {
    /// The enumeration completed: exactly this many inputs err.
    Exactly(u64),
    /// The enumeration limit was reached first.
    AtLeast(u64),
}

impl ErrorInputCount {
    /// The error rate as a fraction of `2^inputs`, when exact.
    pub fn exact_rate(&self, num_inputs: usize) -> Option<f64> {
        match self {
            ErrorInputCount::Exactly(n) => Some(*n as f64 / 2f64.powi(num_inputs as i32)),
            ErrorInputCount::AtLeast(_) => None,
        }
    }
}

/// Exact full-sweep statistics of a combinational pair (oracle path).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExhaustiveStats {
    /// Worst-case absolute error.
    pub wce: u128,
    /// Mean absolute error over all inputs.
    pub mae: f64,
    /// Exact sum of absolute errors over all inputs. The MAE is this
    /// divided by `2^n` in a single floating division, so it agrees
    /// bit-for-bit with the BDD engine's exact MAE.
    pub total_error: u128,
    /// Fraction of inputs with any error.
    pub error_rate: f64,
    /// Worst-case Hamming distance.
    pub bit_flip: u32,
    /// Number of input assignments swept.
    pub assignments: u64,
}

/// Exhaustively sweeps all input assignments of a (small) combinational
/// pair and reports the exact metrics.
///
/// # Panics
///
/// Panics if the circuits are sequential, differ in interface, or have
/// more than 22 inputs.
pub fn exhaustive_stats(golden: &Aig, candidate: &Aig) -> ExhaustiveStats {
    assert_eq!(golden.num_inputs(), candidate.num_inputs(), "input counts");
    assert_eq!(
        golden.num_outputs(),
        candidate.num_outputs(),
        "output counts"
    );
    let mut golden_out: Vec<u128> = Vec::new();
    for_each_assignment(golden, |_, out| golden_out.push(out));
    let mut wce = 0u128;
    let mut total_err = 0u128;
    let mut errors = 0u64;
    let mut bit_flip = 0u32;
    let mut count = 0u64;
    for_each_assignment(candidate, |idx, out| {
        let g = golden_out[idx as usize];
        let e = g.abs_diff(out);
        wce = wce.max(e);
        total_err += e;
        if e != 0 {
            errors += 1;
        }
        bit_flip = bit_flip.max((g ^ out).count_ones());
        count += 1;
    });
    ExhaustiveStats {
        wce,
        mae: total_err as f64 / count as f64,
        total_error: total_err,
        error_rate: errors as f64 / count as f64,
        bit_flip,
        assignments: count,
    }
}

/// Statistical (non-guaranteed) estimates from uniform random sampling —
/// the baseline the paper's precise approach is compared against.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SampledStats {
    /// Largest error observed (a **lower bound** on the true WCE).
    pub wce_observed: u128,
    /// Estimated mean absolute error.
    pub mae_estimate: f64,
    /// Estimated error rate.
    pub error_rate_estimate: f64,
    /// Number of samples drawn.
    pub samples: u64,
}

/// Estimates error statistics from `samples` uniform random inputs using
/// a deterministic seed.
///
/// # Panics
///
/// Panics if the circuits are sequential or differ in interface.
pub fn sampled_stats(golden: &Aig, candidate: &Aig, samples: u64, seed: u64) -> SampledStats {
    use axmc_rand::{Rng, SeedableRng};
    assert_eq!(golden.num_inputs(), candidate.num_inputs(), "input counts");
    assert_eq!(
        golden.num_outputs(),
        candidate.num_outputs(),
        "output counts"
    );
    let mut rng = axmc_rand::rngs::StdRng::seed_from_u64(seed);
    let n = golden.num_inputs();
    let mut wce = 0u128;
    let mut total = 0f64;
    let mut errors = 0u64;
    let mut input = vec![false; n];
    for _ in 0..samples {
        for b in input.iter_mut() {
            *b = rng.gen();
        }
        let g = bits_to_u128(&golden.eval_comb(&input));
        let c = bits_to_u128(&candidate.eval_comb(&input));
        let e = g.abs_diff(c);
        wce = wce.max(e);
        total += e as f64;
        if e != 0 {
            errors += 1;
        }
    }
    SampledStats {
        wce_observed: wce,
        mae_estimate: total / samples as f64,
        error_rate_estimate: errors as f64 / samples as f64,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use axmc_circuit::{approx, generators};
    use axmc_sat::{Budget, CancelToken, Interrupt};
    use std::time::Duration;

    #[test]
    fn wce_matches_exhaustive_for_adders() {
        let width = 6;
        let golden = generators::ripple_carry_adder(width).to_aig();
        for candidate_nl in [
            approx::truncated_adder(width, 2),
            approx::lower_or_adder(width, 3),
            approx::speculative_adder(width, 2),
        ] {
            let candidate = candidate_nl.to_aig();
            let exact = exhaustive_stats(&golden, &candidate);
            let analyzer = CombAnalyzer::new(&golden, &candidate);
            let formal = analyzer.worst_case_error().unwrap();
            assert_eq!(formal.value, exact.wce);
            assert!(formal.sat_calls > 0);
        }
    }

    #[test]
    fn wce_matches_exhaustive_for_multipliers() {
        let width = 4;
        let golden = generators::array_multiplier(width).to_aig();
        for candidate_nl in [
            approx::truncated_multiplier(width, 3),
            approx::operand_truncated_multiplier(width, 2),
            approx::kulkarni_multiplier(width),
        ] {
            let candidate = candidate_nl.to_aig();
            let exact = exhaustive_stats(&golden, &candidate);
            let analyzer = CombAnalyzer::new(&golden, &candidate);
            let formal = analyzer.worst_case_error().unwrap();
            assert_eq!(formal.value, exact.wce);
        }
    }

    #[test]
    fn wce_zero_for_equivalent_circuits() {
        let a = generators::ripple_carry_adder(5).to_aig();
        let b = generators::carry_select_adder(5, 2).to_aig();
        let formal = CombAnalyzer::new(&a, &b).worst_case_error().unwrap();
        assert_eq!(formal.value, 0);
    }

    #[test]
    fn bit_flip_matches_exhaustive() {
        let width = 5;
        let golden = generators::ripple_carry_adder(width).to_aig();
        let candidate = approx::truncated_adder(width, 2).to_aig();
        let exact = exhaustive_stats(&golden, &candidate);
        let formal = CombAnalyzer::new(&golden, &candidate)
            .bit_flip_error()
            .unwrap();
        assert_eq!(formal.value, exact.bit_flip);
    }

    #[test]
    fn threshold_query_directions() {
        let golden = generators::ripple_carry_adder(4).to_aig();
        let candidate = approx::truncated_adder(4, 2).to_aig();
        let wce = exhaustive_stats(&golden, &candidate).wce;
        let analyzer = CombAnalyzer::new(&golden, &candidate);
        assert!(analyzer.check_error_exceeds(wce).unwrap().is_proved());
        let witness = analyzer
            .check_error_exceeds(wce - 1)
            .unwrap()
            .witness()
            .expect("a threshold below the WCE must be refuted");
        // Witness really errs by more than wce - 1.
        let g = bits_to_u128(&golden.eval_comb(&witness));
        let c = bits_to_u128(&candidate.eval_comb(&witness));
        assert!(g.abs_diff(c) > wce - 1);
    }

    #[test]
    fn sampling_underestimates_or_matches() {
        let width = 8;
        let golden = generators::ripple_carry_adder(width).to_aig();
        let candidate = approx::lower_or_adder(width, 4).to_aig();
        let formal = CombAnalyzer::new(&golden, &candidate)
            .worst_case_error()
            .unwrap();
        let sampled = sampled_stats(&golden, &candidate, 200, 42);
        assert!(sampled.wce_observed <= formal.value);
    }

    #[test]
    fn budget_exhaustion_reports_bounds() {
        let width = 8;
        let golden = generators::array_multiplier(width).to_aig();
        let candidate = approx::truncated_multiplier(width, 6).to_aig();
        let analyzer = CombAnalyzer::new(&golden, &candidate).with_options(
            AnalysisOptions::new()
                .with_budget(Budget::unlimited().with_conflicts(1).with_propagations(200)),
        );
        match analyzer.worst_case_error() {
            Err(AnalysisError::Interrupted(p)) => {
                assert!(p.known_low <= p.known_high);
                assert!(p.reason.is_some(), "a budget interrupt must carry a reason");
            }
            Ok(report) => {
                // Tiny instances may still finish within the budget.
                assert!(report.value > 0);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn expired_deadline_interrupts_the_analysis() {
        let width = 8;
        let golden = generators::array_multiplier(width).to_aig();
        let candidate = approx::truncated_multiplier(width, 6).to_aig();
        let analyzer = CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_timeout(Duration::ZERO));
        match analyzer.worst_case_error() {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.reason, Some(Interrupt::Deadline));
            }
            other => panic!("expected a deadline interruption, got {other:?}"),
        }
    }

    #[test]
    fn inprocessing_preserves_comb_metrics() {
        // The solver-side inprocessing knob must not change any
        // combinational metric, certified or not.
        let golden = generators::ripple_carry_adder(4).to_aig();
        let candidate = approx::truncated_adder(4, 1).to_aig();
        let plain = CombAnalyzer::new(&golden, &candidate);
        let inproc = CombAnalyzer::new(&golden, &candidate).with_options(
            AnalysisOptions::new()
                .with_inprocessing(true)
                .with_certify(true),
        );
        assert_eq!(
            plain.worst_case_error().unwrap().value,
            inproc.worst_case_error().unwrap().value
        );
        assert_eq!(
            plain.bit_flip_error().unwrap().value,
            inproc.bit_flip_error().unwrap().value
        );
    }

    #[test]
    fn msb_error_bit_scan() {
        let width = 5;
        let golden = generators::ripple_carry_adder(width).to_aig();
        // Equivalent circuit: no error bit.
        let same = generators::carry_select_adder(width, 2).to_aig();
        let analyzer = CombAnalyzer::new(&golden, &same);
        assert_eq!(analyzer.most_significant_error_bit().unwrap(), None);
        // Truncated adder: find the true MSB error bit exhaustively.
        for cut in [1usize, 2, 3] {
            let cand_nl = approx::truncated_adder(width, cut);
            let cand = cand_nl.to_aig();
            let mut expect: Option<usize> = None;
            for a in 0..(1u128 << width) {
                for b in 0..(1u128 << width) {
                    let x = (a + b) ^ cand_nl.eval_binop(a, b);
                    if x != 0 {
                        let msb = 127 - x.leading_zeros() as usize;
                        expect = Some(expect.map_or(msb, |t| t.max(msb)));
                    }
                }
            }
            let analyzer = CombAnalyzer::new(&golden, &cand);
            let got = analyzer.most_significant_error_bit().unwrap();
            assert_eq!(got, expect, "cut {cut}");
        }
    }

    #[test]
    fn error_input_enumeration_is_exact() {
        // 3-bit adder with cut 1: count erroneous inputs exhaustively and
        // via SAT enumeration.
        let width = 3;
        let golden = generators::ripple_carry_adder(width).to_aig();
        let cand = approx::truncated_adder(width, 1).to_aig();
        let mut expect = 0u64;
        for a in 0..8u128 {
            for b in 0..8u128 {
                if approx::truncated_adder(width, 1).eval_binop(a, b) != a + b {
                    expect += 1;
                }
            }
        }
        let analyzer = CombAnalyzer::new(&golden, &cand);
        assert_eq!(
            analyzer.count_error_inputs(1_000).unwrap(),
            ErrorInputCount::Exactly(expect)
        );
        // With a tiny limit the count is truncated.
        assert_eq!(
            analyzer.count_error_inputs(2).unwrap(),
            ErrorInputCount::AtLeast(2)
        );
        // Rate helper.
        let rate = ErrorInputCount::Exactly(expect)
            .exact_rate(2 * width)
            .unwrap();
        let exact = exhaustive_stats(&golden, &cand);
        assert!((rate - exact.error_rate).abs() < 1e-12);
    }

    #[test]
    fn equivalent_circuits_have_zero_error_inputs() {
        let a = generators::ripple_carry_adder(4).to_aig();
        let b = generators::carry_select_adder(4, 2).to_aig();
        let analyzer = CombAnalyzer::new(&a, &b);
        assert_eq!(
            analyzer.count_error_inputs(100).unwrap(),
            ErrorInputCount::Exactly(0)
        );
    }

    #[test]
    fn exhaustive_stats_fields_consistent() {
        let golden = generators::ripple_carry_adder(4).to_aig();
        let candidate = approx::truncated_adder(4, 1).to_aig();
        let s = exhaustive_stats(&golden, &candidate);
        assert_eq!(s.assignments, 1 << 8);
        assert!(s.error_rate > 0.0 && s.error_rate < 1.0);
        assert!(s.mae > 0.0 && s.mae <= s.wce as f64);
        assert_eq!(s.mae, s.total_error as f64 / s.assignments as f64);
        assert!(s.bit_flip >= 1);
    }

    #[test]
    fn all_backends_agree_on_the_worst_case_metrics() {
        let width = 6;
        let golden = generators::ripple_carry_adder(width).to_aig();
        let candidate = approx::lower_or_adder(width, 3).to_aig();
        let exact = exhaustive_stats(&golden, &candidate);
        for (backend, jobs) in [
            (Backend::Sat, 1),
            (Backend::Bdd, 1),
            (Backend::Auto, 1),
            (Backend::Auto, 2),
        ] {
            let analyzer = CombAnalyzer::new(&golden, &candidate)
                .with_options(AnalysisOptions::new().with_backend(backend).with_jobs(jobs));
            let wce = analyzer.worst_case_error().unwrap();
            assert_eq!(wce.value, exact.wce, "{backend} jobs={jobs}");
            let flips = analyzer.bit_flip_error().unwrap();
            assert_eq!(flips.value, exact.bit_flip, "{backend} jobs={jobs}");
        }
    }

    #[test]
    fn bdd_backend_reports_its_engine_and_zero_sat_calls() {
        let golden = generators::ripple_carry_adder(5).to_aig();
        let candidate = approx::truncated_adder(5, 2).to_aig();
        let analyzer = CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_backend(Backend::Bdd));
        let report = analyzer.worst_case_error().unwrap();
        assert_eq!(report.engine, EngineKind::Bdd);
        assert_eq!(report.sat_calls, 0);
        assert_eq!(report.conflicts, 0);
    }

    #[test]
    fn bdd_blowup_degrades_gracefully_to_sat() {
        let golden = generators::ripple_carry_adder(5).to_aig();
        let candidate = approx::truncated_adder(5, 2).to_aig();
        let exact = exhaustive_stats(&golden, &candidate);
        for backend in [Backend::Bdd, Backend::Auto] {
            // A two-node budget holds only the terminals: every build
            // blows up immediately and the SAT engine must take over.
            let analyzer = CombAnalyzer::new(&golden, &candidate).with_options(
                AnalysisOptions::new()
                    .with_backend(backend)
                    .with_bdd_node_limit(0),
            );
            let report = analyzer.worst_case_error().unwrap();
            assert_eq!(report.value, exact.wce, "{backend}");
            assert_eq!(report.engine, EngineKind::Sat, "{backend}");
            assert!(report.sat_calls > 0, "{backend}");
        }
    }

    #[test]
    fn expired_deadline_interrupts_every_backend() {
        let width = 8;
        let golden = generators::array_multiplier(width).to_aig();
        let candidate = approx::truncated_multiplier(width, 6).to_aig();
        for (backend, jobs) in [(Backend::Bdd, 1), (Backend::Auto, 1), (Backend::Auto, 2)] {
            let analyzer = CombAnalyzer::new(&golden, &candidate).with_options(
                AnalysisOptions::new()
                    .with_backend(backend)
                    .with_jobs(jobs)
                    .with_timeout(Duration::ZERO),
            );
            match analyzer.worst_case_error() {
                Err(AnalysisError::Interrupted(p)) => {
                    assert_eq!(p.reason, Some(Interrupt::Deadline), "{backend} jobs={jobs}");
                    assert!(p.known_low <= p.known_high, "{backend} jobs={jobs}");
                }
                other => panic!("{backend} jobs={jobs}: expected deadline, got {other:?}"),
            }
        }
    }

    #[test]
    fn static_tier_decides_identical_pairs_without_a_solver() {
        let golden = generators::ripple_carry_adder(8).to_aig();
        let copy = golden.clone();
        for backend in [Backend::Auto, Backend::Static] {
            let report = CombAnalyzer::new(&golden, &copy)
                .with_options(AnalysisOptions::new().with_backend(backend))
                .worst_case_error()
                .unwrap();
            assert_eq!(report.value, 0, "{backend}");
            assert_eq!(report.engine, EngineKind::Static, "{backend}");
            assert_eq!(report.sat_calls, 0, "{backend}");
            assert_eq!(report.conflicts, 0, "{backend}");
            let flips = CombAnalyzer::new(&golden, &copy)
                .with_options(AnalysisOptions::new().with_backend(backend))
                .bit_flip_error()
                .unwrap();
            assert_eq!(flips.value, 0, "{backend}");
            assert_eq!(flips.engine, EngineKind::Static, "{backend}");
        }
    }

    #[test]
    fn static_backend_reports_interval_when_undecided() {
        let golden = generators::ripple_carry_adder(6).to_aig();
        let candidate = approx::truncated_adder(6, 2).to_aig();
        let exact = exhaustive_stats(&golden, &candidate).wce;
        let analyzer = CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_backend(Backend::Static));
        match analyzer.worst_case_error() {
            Ok(report) => {
                // The probe + abstraction may pin the value exactly.
                assert_eq!(report.value, exact);
                assert_eq!(report.engine, EngineKind::Static);
            }
            Err(AnalysisError::Interrupted(p)) => {
                assert!(p.reason.is_none(), "static undecided has no interrupt");
                assert!(p.known_low <= exact && exact <= p.known_high);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn static_threshold_queries_are_sound_and_cross_validated() {
        let golden = generators::ripple_carry_adder(6).to_aig();
        let candidate = approx::lower_or_adder(6, 3).to_aig();
        let wce = exhaustive_stats(&golden, &candidate).wce;
        let auto = CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_backend(Backend::Auto));
        let sat = CombAnalyzer::new(&golden, &candidate);
        for t in [0u128, wce / 2, wce.saturating_sub(1), wce, wce + 1, wce * 2] {
            let got = auto.check_error_exceeds(t).unwrap();
            let want = sat.check_error_exceeds(t).unwrap();
            assert_eq!(got.is_proved(), want.is_proved(), "t={t}");
            assert_eq!(got.is_refuted(), want.is_refuted(), "t={t}");
            if let Verdict::Refuted { witness } = got {
                let g = bits_to_u128(&golden.eval_comb(&witness));
                let c = bits_to_u128(&candidate.eval_comb(&witness));
                assert!(g.abs_diff(c) > t, "t={t}: witness must replay");
            }
        }
    }

    #[test]
    fn auto_matches_solver_only_auto_with_the_tier_disabled() {
        let width = 6;
        let golden = generators::ripple_carry_adder(width).to_aig();
        for candidate_nl in [
            approx::truncated_adder(width, 2),
            approx::lower_or_adder(width, 3),
        ] {
            let candidate = candidate_nl.to_aig();
            let with_tier = CombAnalyzer::new(&golden, &candidate)
                .with_options(AnalysisOptions::new().with_backend(Backend::Auto))
                .worst_case_error()
                .unwrap();
            // `Bdd` is `Auto` without the static tier.
            let without_tier = CombAnalyzer::new(&golden, &candidate)
                .with_options(AnalysisOptions::new().with_backend(Backend::Bdd))
                .worst_case_error()
                .unwrap();
            assert_eq!(with_tier.value, without_tier.value);
        }
    }

    #[test]
    fn average_error_is_exact_via_bdd_and_matches_the_sweep() {
        let golden = generators::ripple_carry_adder(4).to_aig();
        let candidate = approx::truncated_adder(4, 2).to_aig();
        let sweep = exhaustive_stats(&golden, &candidate);
        let avg = CombAnalyzer::new(&golden, &candidate)
            .average_error()
            .unwrap();
        assert!(avg.exact);
        assert_eq!(avg.method, AverageMethod::Bdd);
        assert_eq!(avg.total_error, Some(sweep.total_error));
        assert_eq!(avg.mae, sweep.mae, "one division each: bit-identical");
        assert_eq!(avg.error_rate, sweep.error_rate);
    }

    #[test]
    fn average_error_degrades_to_the_exhaustive_sweep() {
        let golden = generators::ripple_carry_adder(4).to_aig();
        let candidate = approx::truncated_adder(4, 2).to_aig();
        let sweep = exhaustive_stats(&golden, &candidate);
        let avg = CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_bdd_node_limit(0))
            .average_error()
            .unwrap();
        assert!(avg.exact);
        assert_eq!(avg.method, AverageMethod::Exhaustive);
        assert_eq!(avg.mae, sweep.mae);
        assert_eq!(avg.total_error, Some(sweep.total_error));
    }

    #[test]
    fn average_error_observes_cancellation() {
        let golden = generators::ripple_carry_adder(4).to_aig();
        let candidate = approx::truncated_adder(4, 2).to_aig();
        let token = CancelToken::new();
        token.cancel();
        let analyzer = CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_cancel(token));
        match analyzer.average_error() {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.reason, Some(Interrupt::Cancelled));
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }
}
