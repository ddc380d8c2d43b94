//! Precise error determination for combinational candidates.
//!
//! The worst-case metrics are computed **exactly** by a counterexample-
//! guided search over one encoding of the error word: each SAT probe
//! asks "can the error exceed T", a SAT answer yields a concrete input
//! whose actual error tightens the lower bound, an UNSAT answer tightens
//! the upper bound. The probes run on the same warm threshold engine as
//! the sequential searches, at horizon 0. Exhaustive sweeps serve as
//! oracles for small circuits and provide the average-case metrics (MAE,
//! error rate) that have no polynomial SAT formulation.

use crate::cache::{cached, metric, CachedResult, QueryKey};
use crate::engine::{Backend, EngineKind};
use crate::options::AnalysisOptions;
use crate::report::{AnalysisError, AverageMethod, AverageReport, ErrorReport, Partial};
use crate::threshold::{ThresholdEngine, WordKind};
use crate::verdict::Verdict;
use axmc_absint::{static_word_bounds, StaticOutcome, WordBounds, DEFAULT_PROBE_VECTORS};
use axmc_aig::{bits_to_u128, sim::for_each_assignment, Aig};
use axmc_bdd::BuildBddError;
use axmc_cnf::encode_comb;
use axmc_miter::{abs_diff_word_miter, diff_word_miter, nth_bit_miter, popcount_word_miter};
use axmc_sat::{CancelToken, Interrupt, ResourceCtl, SolveResult, Solver};
use std::time::Instant;

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

/// The interrupt a solver reported for its last `Unknown`, defaulting to
/// the conflict budget when the solver predates interrupt tracking.
fn interrupt_of(solver: &Solver) -> Interrupt {
    solver.last_interrupt().unwrap_or(Interrupt::Conflicts)
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
    /// certification, worker count, sweeping).
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// Applies the resource control and certify setting to a freshly
    /// encoded solver.
    fn arm(&self, solver: &mut Solver) {
        solver.configure(&self.options.solver_config());
    }

    /// In certified mode, validates the UNSAT answer `solver` just gave.
    fn certify_unsat(&self, solver: &Solver, what: &str) -> Result<(), AnalysisError> {
        if !self.options.certify {
            return Ok(());
        }
        match axmc_check::certify_unsat(solver) {
            Ok(_) => Ok(()),
            Err(e) => Err(AnalysisError::CertificateRejected {
                engine: "comb".to_string(),
                detail: format!("UNSAT certificate for {what} failed validation ({e})"),
            }),
        }
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
                if self.static_tier_active() {
                    let abs = abs_diff_word_miter(self.golden, self.candidate);
                    let (_, bounds) = self.screen_word_miter(&abs);
                    if let Some(verdict) = self.static_verdict(bounds, threshold) {
                        return Ok(verdict);
                    }
                }
                let miter = diff_word_miter(self.golden, self.candidate).compact();
                self.probe_word(miter, WordKind::SignedDiff, threshold)
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
        if self.static_tier_active() {
            let (_, bounds) = self.screen_word_miter(&miter);
            if let Some(verdict) = self.static_verdict(bounds, threshold.into()) {
                return Ok(verdict);
            }
        }
        self.probe_word(miter, WordKind::Unsigned, threshold.into())
    }

    /// The static tier's answer to a threshold query over a screened
    /// word, if it has one: a verdict when the interval or a probe decides
    /// it, and under [`Backend::Static`], which launches no solver, the
    /// certified interval as an `Interrupted` verdict with no reason.
    fn static_verdict(
        &self,
        bounds: Option<WordBounds>,
        threshold: u128,
    ) -> Option<Verdict<Vec<bool>>> {
        match bounds.as_ref().map(|b| b.outcome(threshold)) {
            Some(StaticOutcome::Proved) => {
                axmc_obs::counter("absint.decided").inc();
                return Some(Verdict::Proved);
            }
            Some(StaticOutcome::Refuted { witness, .. }) => {
                axmc_obs::counter("absint.decided").inc();
                return Some(Verdict::Refuted { witness });
            }
            Some(StaticOutcome::Undecided) | None => {}
        }
        (self.options.backend == Backend::Static).then(|| {
            let (lo, hi) = bounds.map_or((0, u128::MAX), |b| b.interval);
            Verdict::Interrupted {
                best_so_far: Partial {
                    reason: None,
                    known_low: lo,
                    known_high: hi,
                    completed_bound: None,
                },
            }
        })
    }

    /// One probe of a threshold engine at horizon 0: can `miter`'s word,
    /// read as `kind`, exceed `threshold`? A witness is an input
    /// assignment.
    fn probe_word(
        &self,
        miter: Aig,
        kind: WordKind,
        threshold: u128,
    ) -> Result<Verdict<Vec<bool>>, AnalysisError> {
        let mut engine = ThresholdEngine::new(miter, kind, &self.options);
        Ok(engine
            .probe(threshold, 0)?
            .map(|mut trace| trace.inputs.swap_remove(0)))
    }

    /// `true` when the static pre-analysis tier is consulted before any
    /// solver work: always under [`Backend::Static`], and under
    /// [`Backend::Auto`] unless [`AnalysisOptions::static_tier`] turned
    /// it off.
    fn static_tier_active(&self) -> bool {
        self.options.backend == Backend::Static
            || (self.options.backend == Backend::Auto && self.options.static_tier)
    }

    /// The static tier over one word-output miter: sweeps it (constant
    /// substitution, re-strashing, dangling-node elimination) and
    /// computes the certified `[lo, hi]` interval on its output word.
    /// Returns the swept miter — the one handed to the solvers when the
    /// interval does not decide the query — and the bounds (`None` when
    /// the word is wider than 128 bits).
    fn screen_word_miter(&self, miter: &Aig) -> (Aig, Option<WordBounds>) {
        let (swept, report) = axmc_absint::sweep(miter);
        if axmc_obs::tracing_active() {
            axmc_obs::emit(
                axmc_obs::Event::new("absint.screen")
                    .field("nodes_before", report.nodes_before as u64)
                    .field("nodes_after", report.nodes_after as u64)
                    .field("ands_removed", report.ands_removed() as u64),
            );
        }
        let bounds = static_word_bounds(&swept, DEFAULT_PROBE_VECTORS);
        (swept, bounds)
    }

    /// The undecided outcome of an analysis-only static run: the
    /// certified interval as anytime knowledge, no interrupt reason.
    fn static_undecided<T>(bounds: Option<WordBounds>) -> Result<T, AnalysisError> {
        let (lo, hi) = bounds.map_or((0, u128::MAX), |b| b.interval);
        Err(AnalysisError::Interrupted(Partial {
            reason: None,
            known_low: lo,
            known_high: hi,
            completed_bound: None,
        }))
    }

    /// The exact worst-case error, through the backend selected by
    /// [`AnalysisOptions::backend`]: counterexample-guided galloping
    /// search over threshold miters (SAT), characteristic-function
    /// maximization over `|G - C|` (BDD), or an `Auto` portfolio racing
    /// both under a shared cancellation token — first sound result wins,
    /// the loser is cancelled, and a BDD node-budget blow-up degrades
    /// gracefully to SAT. Both engines are exact, so the value is
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
                // The static tier first: a pinned interval is the exact
                // value with no solver launched at all; an open one
                // still shrinks the search window and sweeps the miter.
                if self.static_tier_active() {
                    let abs = abs_diff_word_miter(self.golden, self.candidate);
                    let (abs_swept, bounds) = self.screen_word_miter(&abs);
                    if let Some(b) = &bounds {
                        if b.is_exact() {
                            axmc_obs::counter("absint.decided").inc();
                            return Ok(static_report(b.interval.0));
                        }
                    }
                    if self.options.backend == Backend::Static {
                        return Self::static_undecided(bounds);
                    }
                    let window = bounds.map_or((0, max), |b| b.interval);
                    let (miter, _) =
                        axmc_absint::sweep(&diff_word_miter(self.golden, self.candidate));
                    return self.run_backend(
                        |ctl| {
                            self.sat_search(
                                "comb.wce",
                                &miter,
                                WordKind::SignedDiff,
                                max,
                                window,
                                ctl,
                            )
                        },
                        |ctl| self.bdd_word_max(&abs_swept, ctl),
                    );
                }
                // The SAT search wants the signed difference word
                // (comparators attach per probe); the BDD walk maximizes
                // an unsigned word, so it gets the absolute-value form.
                let miter = diff_word_miter(self.golden, self.candidate).compact();
                self.run_backend(
                    |ctl| {
                        self.sat_search(
                            "comb.wce",
                            &miter,
                            WordKind::SignedDiff,
                            max,
                            (0, max),
                            ctl,
                        )
                    },
                    |ctl| {
                        let abs = abs_diff_word_miter(self.golden, self.candidate).compact();
                        self.bdd_word_max(&abs, ctl)
                    },
                )
            },
        )
    }

    /// The SAT engine shared by both worst-case metrics: the frame-major
    /// search of a threshold engine at horizon 0 over the word miter,
    /// armed with the caller's (or the race's) control, from `window`.
    /// Witnesses are replayed on both circuits.
    fn sat_search(
        &self,
        label: &str,
        miter: &Aig,
        kind: WordKind,
        max: u128,
        window: (u128, u128),
        ctl: &ResourceCtl,
    ) -> Result<ErrorReport<u128>, AnalysisError> {
        let mut engine = ThresholdEngine::new(miter.clone(), kind, &self.options);
        engine.set_ctl(ctl.clone());
        let (values, sat_calls) = engine.search(label, 0, max, window, |trace| {
            let input = &trace.inputs[0];
            let g = bits_to_u128(&self.golden.eval_comb(input));
            let c = bits_to_u128(&self.candidate.eval_comb(input));
            match kind {
                WordKind::SignedDiff => g.abs_diff(c),
                WordKind::Unsigned => (g ^ c).count_ones().into(),
            }
        })?;
        Ok(ErrorReport {
            value: values[0],
            sat_calls,
            conflicts: engine.conflicts(),
            engine: EngineKind::Sat,
        })
    }

    /// The exact worst-case Hamming distance (bit-flip error), through
    /// the selected backend (see [`CombAnalyzer::worst_case_error`] for
    /// the dispatch semantics).
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
                let mut miter = popcount_word_miter(self.golden, self.candidate).compact();
                let mut window = (0, max);
                if self.static_tier_active() {
                    let (swept, bounds) = self.screen_word_miter(&miter);
                    if let Some(b) = &bounds {
                        if b.is_exact() {
                            axmc_obs::counter("absint.decided").inc();
                            return Ok(static_report(b.interval.0 as u32));
                        }
                    }
                    if self.options.backend == Backend::Static {
                        return Self::static_undecided(bounds);
                    }
                    window = bounds.map_or(window, |b| b.interval);
                    miter = swept;
                }
                self.run_backend(
                    |ctl| {
                        let report = self.sat_search(
                            "comb.bit_flip",
                            &miter,
                            WordKind::Unsigned,
                            max,
                            window,
                            ctl,
                        )?;
                        Ok(report.map(|value| value as u32))
                    },
                    |ctl| self.bdd_word_max(&miter, ctl).map(|v| v as u32),
                )
            },
        )
    }

    /// The BDD engine shared by both worst-case metrics: the exact
    /// maximum of the miter's output word.
    fn bdd_word_max(&self, miter: &Aig, ctl: &ResourceCtl) -> BddAttempt<u128> {
        match axmc_bdd::exact_word_max(miter, 1, true, self.options.bdd_node_limit, ctl) {
            Ok((value, nodes)) => BddAttempt::Exact {
                value: value[0],
                nodes,
            },
            Err(e) => BddAttempt::from_error(e),
        }
    }

    /// Runs the SAT engine under `ctl`, recording its latency (as a
    /// histogram sample and, when a trace is recorded, a profile span).
    fn timed_sat<T>(
        &self,
        ctl: &ResourceCtl,
        sat: &(impl Fn(&ResourceCtl) -> Result<ErrorReport<T>, AnalysisError> + ?Sized),
    ) -> Result<ErrorReport<T>, AnalysisError> {
        let _span = axmc_obs::span("engine.sat.time_us");
        sat(ctl)
    }

    /// Runs the BDD engine under `ctl`, recording its latency and (on
    /// success) its node count.
    fn timed_bdd<T>(
        &self,
        ctl: &ResourceCtl,
        bdd: &(impl Fn(&ResourceCtl) -> BddAttempt<T> + ?Sized),
    ) -> BddAttempt<T> {
        let _span = axmc_obs::span("engine.bdd.time_us");
        let out = bdd(ctl);
        if let BddAttempt::Exact { nodes, .. } = &out {
            axmc_obs::histogram("bdd.nodes").record(*nodes as u64);
        }
        out
    }

    /// Backend dispatch shared by the worst-case metrics: run the SAT
    /// engine, the BDD engine, or race both as a portfolio.
    ///
    /// Soundness of `Auto`: both engines compute the *exact* metric, so
    /// whichever answers first is authoritative and the other can be
    /// cancelled without loss. A BDD node-budget blow-up is not an
    /// answer — it degrades to SAT rather than erroring. A rejected
    /// certificate from the SAT side is always surfaced, never masked by
    /// the portfolio.
    fn run_backend<T: Send>(
        &self,
        sat: impl Fn(&ResourceCtl) -> Result<ErrorReport<T>, AnalysisError> + Send + Sync,
        bdd: impl Fn(&ResourceCtl) -> BddAttempt<T> + Send + Sync,
    ) -> Result<ErrorReport<T>, AnalysisError> {
        if axmc_obs::tracing_active() {
            // Structural fingerprints identify the analyzed cone pair
            // across runs (cache keys, run-to-run identity in reports);
            // computed only when a trace is actually recorded.
            axmc_obs::emit(
                axmc_obs::Event::new("analysis.query")
                    .field("golden_fp", self.golden.fingerprint())
                    .field("candidate_fp", self.candidate.fingerprint())
                    .field("inputs", self.golden.num_inputs() as u64)
                    .field("backend", format!("{}", self.options.backend)),
            );
        }
        match self.options.backend {
            Backend::Static => {
                unreachable!("the static tier decides Backend::Static before engine dispatch")
            }
            Backend::Sat => {
                axmc_obs::counter("engine.selected.sat").inc();
                self.timed_sat(&self.options.ctl, &sat)
            }
            Backend::Bdd => match self.timed_bdd(&self.options.ctl, &bdd) {
                BddAttempt::Exact { value, .. } => {
                    axmc_obs::counter("engine.selected.bdd").inc();
                    Ok(bdd_report(value))
                }
                BddAttempt::Unavailable => {
                    axmc_obs::counter("engine.fallback").inc();
                    axmc_obs::counter("engine.selected.sat").inc();
                    self.timed_sat(&self.options.ctl, &sat)
                }
                BddAttempt::Interrupted(reason) => Err(AnalysisError::interrupted(reason)),
            },
            Backend::Auto if self.options.effective_jobs() >= 2 => {
                // True race on two workers: each engine runs under the
                // caller's control *plus* a shared race token; the first
                // sound finisher raises the token to stop the loser.
                let race = CancelToken::new();
                let ctl = self.options.ctl.clone().with_cancel(race.clone());
                let bdd_ctl = ctl.clone();
                let sat_ctl = ctl;
                let race_bdd = race.clone();
                let race_sat = race;
                let ((bdd_out, bdd_us), (sat_out, sat_us)) = axmc_par::parallel_pair(
                    || {
                        let start = Instant::now();
                        let out = self.timed_bdd(&bdd_ctl, &bdd);
                        if matches!(out, BddAttempt::Exact { .. }) {
                            race_bdd.cancel();
                        }
                        (out, start.elapsed().as_micros() as u64)
                    },
                    || {
                        let start = Instant::now();
                        let out = self.timed_sat(&sat_ctl, &sat);
                        if out.is_ok() {
                            race_sat.cancel();
                        }
                        (out, start.elapsed().as_micros() as u64)
                    },
                );
                if axmc_obs::tracing_active() {
                    let winner = match (&bdd_out, &sat_out) {
                        (BddAttempt::Exact { .. }, _) => "bdd",
                        (_, Ok(_)) => "sat",
                        _ => "none",
                    };
                    axmc_obs::emit(
                        axmc_obs::Event::new("engine.race")
                            .field("winner", winner)
                            .field("bdd_us", bdd_us)
                            .field("sat_us", sat_us)
                            .field(
                                "both_finished",
                                matches!(bdd_out, BddAttempt::Exact { .. }) && sat_out.is_ok(),
                            ),
                    );
                }
                // A rejected certificate means the SAT solver produced an
                // unsound answer — surface it, never mask it.
                if matches!(sat_out, Err(AnalysisError::CertificateRejected { .. })) {
                    return sat_out;
                }
                match (bdd_out, sat_out) {
                    (BddAttempt::Exact { value, .. }, sat_out) => {
                        // Both engines are exact: when both finished the
                        // values agree, so either report is correct.
                        if sat_out.is_ok() {
                            axmc_obs::counter("engine.race.both_finished").inc();
                        }
                        axmc_obs::counter("engine.race.won.bdd").inc();
                        axmc_obs::counter("engine.selected.bdd").inc();
                        Ok(bdd_report(value))
                    }
                    (BddAttempt::Unavailable, sat_out) => {
                        axmc_obs::counter("engine.fallback").inc();
                        if sat_out.is_ok() {
                            axmc_obs::counter("engine.race.won.sat").inc();
                            axmc_obs::counter("engine.selected.sat").inc();
                        }
                        sat_out
                    }
                    (BddAttempt::Interrupted(_), Ok(report)) => {
                        axmc_obs::counter("engine.race.won.sat").inc();
                        axmc_obs::counter("engine.selected.sat").inc();
                        Ok(report)
                    }
                    // Neither engine finished: the race token was never
                    // raised, so the interrupts came from the caller's
                    // own limits. The SAT side's partial carries the
                    // tightest certified interval.
                    (BddAttempt::Interrupted(_), Err(e)) => Err(e),
                }
            }
            Backend::Auto => {
                // Single worker: staged schedule. The BDD attempt either
                // finishes fast (adder-class) or fails fast on its node
                // budget, after which SAT gets the remaining resources.
                match self.timed_bdd(&self.options.ctl, &bdd) {
                    BddAttempt::Exact { value, .. } => {
                        axmc_obs::counter("engine.selected.bdd").inc();
                        Ok(bdd_report(value))
                    }
                    BddAttempt::Unavailable => {
                        axmc_obs::counter("engine.fallback").inc();
                        axmc_obs::counter("engine.selected.sat").inc();
                        self.timed_sat(&self.options.ctl, &sat)
                    }
                    // An outer limit fired mid-BDD; the SAT engine
                    // observes the same limits and reports the proper
                    // typed anytime result immediately.
                    BddAttempt::Interrupted(_) => {
                        axmc_obs::counter("engine.selected.sat").inc();
                        self.timed_sat(&self.options.ctl, &sat)
                    }
                }
            }
        }
    }
}

/// Outcome of one BDD engine attempt inside the backend dispatch.
enum BddAttempt<T> {
    /// The exact metric value, with the peak BDD node count.
    Exact {
        /// The metric value.
        value: T,
        /// Peak node count of the manager.
        nodes: usize,
    },
    /// The BDD cannot answer here (node budget or counting width):
    /// degrade to SAT.
    Unavailable,
    /// A resource limit stopped the attempt.
    Interrupted(Interrupt),
}

impl BddAttempt<u128> {
    /// Maps the value of an `Exact` outcome.
    fn map<U>(self, f: impl FnOnce(u128) -> U) -> BddAttempt<U> {
        match self {
            BddAttempt::Exact { value, nodes } => BddAttempt::Exact {
                value: f(value),
                nodes,
            },
            BddAttempt::Unavailable => BddAttempt::Unavailable,
            BddAttempt::Interrupted(r) => BddAttempt::Interrupted(r),
        }
    }
}

impl<T> BddAttempt<T> {
    /// Classifies a build error: blow-ups degrade, interrupts propagate.
    fn from_error(e: BuildBddError) -> Self {
        match e {
            BuildBddError::SizeLimit { .. } | BuildBddError::WidthLimit { .. } => {
                BddAttempt::Unavailable
            }
            BuildBddError::Interrupted(reason) => BddAttempt::Interrupted(reason),
        }
    }
}

/// An [`ErrorReport`] produced by the BDD engine: no SAT effort spent.
pub(crate) fn bdd_report<T>(value: T) -> ErrorReport<T> {
    ErrorReport {
        value,
        sat_calls: 0,
        conflicts: 0,
        engine: EngineKind::Bdd,
    }
}

/// An [`ErrorReport`] decided by the static tier: no solver launched.
pub(crate) fn static_report<T>(value: T) -> ErrorReport<T> {
    ErrorReport {
        value,
        sat_calls: 0,
        conflicts: 0,
        engine: EngineKind::Static,
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
    /// The BDD stage runs under the analysis [`ResourceCtl`] and its
    /// node budget; blow-ups fall through to the next stage.
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
    /// Scans from the MSB down, one single-bit miter per step; each miter
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
        let stopped = |reason, bit: usize| {
            AnalysisError::Interrupted(Partial {
                reason,
                known_low: 0,
                known_high: word_max(bit + 1),
                completed_bound: None,
            })
        };
        for bit in (0..self.golden.num_outputs()).rev() {
            let miter = nth_bit_miter(self.golden, self.candidate, bit);
            if self.options.backend == Backend::Static {
                let (_, bounds) = self.screen_word_miter(&miter);
                match self.static_verdict(bounds, 0) {
                    Some(Verdict::Proved) => continue,
                    Some(Verdict::Refuted { .. }) => return Ok(Some(bit)),
                    _ => return Err(stopped(None, bit)),
                }
            }
            let (mut solver, enc) = encode_comb(&miter);
            self.arm(&mut solver);
            match solver.solve_with_assumptions(&[enc.outputs[0]]) {
                SolveResult::Sat => return Ok(Some(bit)),
                SolveResult::Unsat => {
                    self.certify_unsat(&solver, "an nth-bit miter query")?;
                    continue;
                }
                SolveResult::Unknown => return Err(stopped(Some(interrupt_of(&solver)), bit)),
            }
        }
        Ok(None)
    }

    /// Counts distinct input assignments on which the circuits disagree,
    /// up to `limit`, by SAT model enumeration with blocking clauses.
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
            let (_, bounds) = self.screen_word_miter(&miter);
            if bounds.is_some_and(|b| b.interval.1 == 0) {
                axmc_obs::counter("absint.decided").inc();
                return Ok(ErrorInputCount::Exactly(0));
            }
            return Self::static_undecided(None);
        }
        let (mut solver, enc) = encode_comb(&miter);
        self.arm(&mut solver);
        let mut count = 0u64;
        while count < limit {
            match solver.solve_with_assumptions(&[enc.outputs[0]]) {
                SolveResult::Sat => {
                    count += 1;
                    // Block this input assignment.
                    let blocking: Vec<axmc_sat::Lit> = enc
                        .inputs
                        .iter()
                        .map(|&l| {
                            if solver.model_lit(l).unwrap_or(false) {
                                !l
                            } else {
                                l
                            }
                        })
                        .collect();
                    if !solver.add_clause(&blocking) {
                        // Blocking made the instance trivially unsat.
                        return Ok(ErrorInputCount::Exactly(count));
                    }
                }
                SolveResult::Unsat => {
                    self.certify_unsat(&solver, "the error-input enumeration closure")?;
                    return Ok(ErrorInputCount::Exactly(count));
                }
                SolveResult::Unknown => {
                    return Err(AnalysisError::Interrupted(Partial {
                        reason: Some(interrupt_of(&solver)),
                        known_low: count as u128,
                        known_high: u128::MAX,
                        completed_bound: None,
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
    use axmc_circuit::{approx, generators};
    use axmc_sat::Budget;
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
            let without_tier = CombAnalyzer::new(&golden, &candidate)
                .with_options(
                    AnalysisOptions::new()
                        .with_backend(Backend::Auto)
                        .with_static_tier(false),
                )
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
