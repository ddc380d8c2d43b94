//! Precise error determination for approximated components in
//! **sequential** circuits — the paper's headline capability.
//!
//! All metrics are defined over the golden/approximated product machine
//! from the reset state:
//!
//! * **earliest error** — the first cycle in which the outputs can differ
//!   at all (incremental BMC over the strict sequential miter);
//! * **WCE@k** — the precise worst-case arithmetic error over all input
//!   sequences and all cycles `<= k` (counterexample-guided galloping
//!   search whose probes ask "can the error exceed `t` in cycle `f`?" one
//!   frame at a time, first frame first, on one warm BMC unrolling; on a
//!   feed-forward pair, one BDD of the time-frame expansion);
//! * **bit-flip@k** — the analogous Hamming-distance metric;
//! * **total error@k** — the maximum accumulated sum of per-cycle errors
//!   (the general accumulating-miter scheme);
//! * **temporal error rate** — the maximum number of erroneous cycles
//!   within a horizon;
//! * **error-bound proof** — `G (|error| <= T)` for *unbounded* time via
//!   k-induction over the threshold miter, or on a feed-forward pair from
//!   the worst case over its depth;
//! * **growth classification** — whether WCE@k keeps growing with k
//!   (feedback accumulation) or saturates.
//!
//! Every engine is *anytime* under resource governance: a blown deadline,
//! exhausted budget or raised cancellation token surfaces as
//! [`AnalysisError::Interrupted`] (or an `Interrupted` [`Verdict`]) whose
//! payload carries the tightest certified bounds reached so far.
//!
//! # Threshold searches
//!
//! Every threshold probe and SAT search here runs on one warm
//! [`ThresholdEngine`](crate::threshold) over a word form of its miter,
//! whose probes ask the frames one at a time, first frame first. The
//! searches are **frame-major**: they settle the horizons
//! `h = 0, 1, …, k` in order, each by a galloping search that starts from
//! the exact value at `h - 1`, a witnessed floor. The proving probe that
//! ends horizon `h - 1` leaves every earlier frame bounded at exactly that
//! value, so each probe of horizon `h` skips those frames and solves
//! frame `h` alone, with the exact bounds of all earlier frames as units.
//! One gallop over all `k + 1` frames would instead overshoot: it proves
//! one loose bound (twice the first witness) on every frame at once, and
//! frame `f` never sees a tight bound on frame `f - 1`. WCE@k and
//! bit-flip@k are the last horizon's value; the profile is the sequence.
//! The running total and the erroneous-cycle count never fall, so their
//! value at `k` is their maximum over the cycles `<= k`.
//!
//! Probes and the earliest-error scan never go past the miter's
//! **sequential depth** `D` ([`Aig::sequential_depth`], measured on the
//! statically reduced miter the engine unrolls): when the outputs' cone
//! has no latch cycle, every cycle from `D` on reaches the same words, so
//! frames past `min(k, D)` are never encoded or asked. A refuting probe
//! pads its trace to `k + 1` cycles with all-false inputs.
//!
//! Searches are serial, so every report (value, probes, conflicts) is the
//! same for every `jobs` value.
//!
//! # The route
//!
//! Every word query takes the shared route of [`crate::route`]. Its
//! screen builds the miter once, compacts it and runs one ternary
//! fixpoint over it, which gives both the word's interval over every
//! reachable cycle and the sweep the engines get. A signed difference
//! word is decided only when it is all zero; an unsigned word (popcount,
//! running total, cycle count) is decided when its interval is a point,
//! and otherwise seeds the search window. Its BDD stage is the expansion
//! route below, whatever the backend; its SAT miter is the screened one.
//!
//! # Feed-forward pairs: the expansion route
//!
//! When the reduced miter has a depth `D`, every query over it is
//! combinational: for `t >= D` the word is the frame-`D` function of the
//! inputs of cycles `t - D ..= t`, so the words reachable at any cycle
//! `>= D` are exactly those reachable at cycle `D`. The WCE, bit-flip and
//! profile queries and [`SeqAnalyzer::prove_error_bound`] therefore
//! expand the miter into frames `0..=min(k, D)` ([`Aig::expand_frames`],
//! with `|word|` taken per frame for the signed difference), import the
//! expansion into one BDD and read each frame's maximum
//! ([`axmc_bdd::exact_word_max`]); the profile is their running maximum,
//! padded past `D`. The maximum over frames `0..=D` is the all-time worst
//! case, so a bound at or above it is proved with no induction; a bound
//! below it goes to k-induction, which refutes it in its base case.
//!
//! The variable order keeps the frame copies of each input adjacent, and
//! interleaves two operands combined bit by bit within a frame (the order
//! rule of `interleaves_operands`). The bound proof runs the same BDD
//! stage as the word queries. Threshold probes ([`SeqProbe`],
//! `check_error_exceeds`), earliest error and every feedback pair stay on
//! SAT: with no depth bound the expansion grows with `k`, and its BDD
//! with it.

use crate::cache::{cached, metric, CachedResult, QueryKey};
use crate::comb::word_max;
use crate::engine::Backend;
use crate::options::AnalysisOptions;
use crate::report::{AnalysisError, ErrorProfile, ErrorReport, Partial};
use crate::route::{self, BddMaxima, Screen, WordQuery};
use crate::threshold::{ThresholdEngine, WordKind};
use crate::verdict::Verdict;
use axmc_aig::{bits_to_u128, Aig, Simulator, Word};
use axmc_mc::{prove_invariant, Bmc, BmcResult, InductionOptions, ProofResult, Trace};
use axmc_miter::{
    accumulated_error_miter, error_cycle_count_miter, sequential_diff_miter,
    sequential_diff_word_miter, sequential_popcount_word_miter, sequential_strict_miter,
};
use axmc_sat::{Certificate, ResourceCtl};

/// The result of the earliest-error analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EarliestError {
    /// First cycle (0-based) in which the outputs can differ, or `None`
    /// if they provably agree for all cycles up to the horizon.
    pub cycle: Option<usize>,
    /// A witnessing input trace when `cycle` is `Some`.
    pub trace: Option<Trace>,
    /// BMC queries issued.
    pub sat_calls: u64,
}

/// Precise sequential error analysis of a golden/approximated pair.
///
/// Both circuits must have identical input and output counts; outputs are
/// interpreted as unsigned little-endian integers each cycle.
///
/// # Examples
///
/// ```
/// use axmc_circuit::{generators, approx};
/// use axmc_seq::accumulator;
/// use axmc_core::SeqAnalyzer;
///
/// let golden = accumulator(&generators::ripple_carry_adder(4), 4);
/// let apx = accumulator(&approx::truncated_adder(4, 1), 4);
/// let analyzer = SeqAnalyzer::new(&golden, &apx);
/// // The truncated accumulator state first differs one cycle after the
/// // first mis-added input arrives.
/// let earliest = analyzer.earliest_error(8)?;
/// assert_eq!(earliest.cycle, Some(1));
/// # Ok::<(), axmc_core::AnalysisError>(())
/// ```
#[derive(Debug)]
pub struct SeqAnalyzer<'a> {
    golden: &'a Aig,
    approx: &'a Aig,
    options: AnalysisOptions,
}

impl<'a> SeqAnalyzer<'a> {
    /// Creates an analyzer for the pair.
    ///
    /// # Panics
    ///
    /// Panics if the interfaces differ.
    pub fn new(golden: &'a Aig, approx: &'a Aig) -> Self {
        assert_eq!(golden.num_inputs(), approx.num_inputs(), "input counts");
        assert_eq!(golden.num_outputs(), approx.num_outputs(), "output counts");
        SeqAnalyzer {
            golden,
            approx,
            options: AnalysisOptions::default(),
        }
    }

    /// Replaces the full analysis option bundle (resource control,
    /// certification, BDD node budget, cache).
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// The static screen of one word query (see the module docs): the
    /// word of `miter` is read as `kind` and is at most `max`. Returns
    /// the miter an engine gets, compacted, and swept when the screen
    /// leaves the query to the engines.
    fn screen(&self, miter: Aig, kind: WordKind, max: u128) -> (Aig, Screen) {
        let miter = miter.compact();
        let analysis = axmc_absint::TernaryAnalysis::fixpoint(&miter);
        // The bits proven constant hold in every reachable state, so the
        // word is at least the floor and at most the ceiling in every
        // cycle of every run. A signed word's unsigned interval bounds
        // nothing but the all-zero word.
        let window = match (kind, analysis.output_interval(&miter)) {
            (WordKind::SignedDiff, Some((0, 0))) => (0, 0),
            (WordKind::Unsigned, Some((lo, hi))) => (lo.min(max), hi.min(max)),
            _ => (0, max),
        };
        // The floor holds in every cycle of every run, so any trace
        // reaches it.
        let witness = (window.0 > 0).then(|| Trace {
            inputs: vec![vec![false; miter.num_inputs()]],
        });
        let screen = Screen { window, witness };
        if window.0 == window.1 || self.options.backend == Backend::Static {
            return (miter, screen);
        }
        (axmc_absint::sweep_with(&miter, &analysis).0, screen)
    }

    /// The static screen of the signed difference word.
    fn diff_screen(&self) -> (Aig, Screen) {
        self.screen(
            sequential_diff_word_miter(self.golden, self.approx),
            WordKind::SignedDiff,
            word_max(self.golden.num_outputs()),
        )
    }

    /// One word query on the shared route: the maximum of `miter`'s word
    /// (read as `kind`, at most `max`) over the cycles `<= h` for every
    /// `h = 0..=k`; the SAT search's witnesses replay through `metric`.
    fn word_query(
        &self,
        label: &'static str,
        miter: Aig,
        kind: WordKind,
        k: usize,
        max: u128,
        metric: impl Fn(&Trace) -> u128,
    ) -> Result<ErrorReport<Vec<u128>>, AnalysisError> {
        let (miter, screen) = self.screen(miter, kind, max);
        let miter = &miter;
        let bdd = miter.sequential_depth().map(|depth| {
            move |ctl: &ResourceCtl| self.expansion_maxima(miter, kind, depth, k, ctl)
        });
        WordQuery {
            options: &self.options,
            pair: (self.golden, self.approx),
            label,
            kind,
            k,
            max,
        }
        .run(Some(screen), bdd, || miter.clone(), metric)
    }

    /// The expansion route's order rule (see the module docs): interleave
    /// the two operand halves of each frame's inputs when the golden's
    /// least significant output bit depends on input `n / 2`, as it does
    /// when two operands are combined bit by bit (the registered ALU and
    /// multiplier); keep the natural order otherwise, as for one word
    /// through a delay line (the FIR). Read at the last of `frames`
    /// frames of the golden's expansion.
    fn interleaves_operands(&self, frames: usize) -> bool {
        let (n, m) = (self.golden.num_inputs(), self.golden.num_outputs());
        if m == 0 {
            return false;
        }
        let expansion = self.golden.expand_frames(frames);
        let lsb = expansion.outputs()[(frames - 1) * m];
        expansion
            .support(lsb)
            .iter()
            .any(|&i| i as usize % n == n / 2)
    }

    /// The BDD stage this analyzer offers, the expansion route of a
    /// feed-forward pair (see the module docs): the maximum of `miter`'s
    /// word (of its magnitude, for a signed difference) in each of its
    /// first `min(k, depth) + 1` cycles, from one BDD of that many frames
    /// of its expansion.
    fn expansion_maxima(
        &self,
        miter: &Aig,
        kind: WordKind,
        depth: usize,
        k: usize,
        ctl: &ResourceCtl,
    ) -> BddMaxima {
        let frames = depth.min(k) + 1;
        let interleave = self.interleaves_operands(depth + 1);
        let mut miter = miter.clone();
        if kind == WordKind::SignedDiff {
            let abs = Word::from_lits(miter.outputs().to_vec()).abs(&mut miter);
            miter.set_outputs(abs.into_lits());
        }
        let expansion = miter.expand_frames(frames);
        axmc_bdd::exact_word_max(
            &expansion,
            frames,
            interleave,
            self.options.bdd_node_limit,
            ctl,
        )
    }

    /// Finds the earliest cycle (up to `max_cycles - 1`) in which the two
    /// circuits' outputs can differ.
    ///
    /// Under [`Backend::Static`] no engine runs: only a strict miter the
    /// static screen pins decides the query.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a BMC query is stopped by a
    /// resource limit before a verdict; `completed_bound` in the payload
    /// is the number of leading cycles already certified clear. Under
    /// [`Backend::Static`] an undecided query has no interrupt reason.
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn earliest_error(&self, max_cycles: usize) -> Result<EarliestError, AnalysisError> {
        let miter = sequential_strict_miter(self.golden, self.approx);
        if self.options.backend == Backend::Static {
            // No engine runs: only a strict miter the screen pins decides
            // the query, and one that differs in every cycle errs at 0.
            let (miter, screen) = self.screen(miter, WordKind::Unsigned, 1);
            let kind = WordKind::Unsigned;
            let verdict = route::probe(&self.options, Some(screen), || miter, kind, 0, 0)?;
            if let Verdict::Interrupted { best_so_far } = verdict {
                return Err(AnalysisError::Interrupted(Partial {
                    completed_bound: Some(0),
                    ..best_so_far
                }));
            }
            let cycle = verdict.is_refuted().then_some(0);
            let trace = verdict.witness();
            return Ok(EarliestError {
                cycle,
                trace,
                sat_calls: 0,
            });
        }
        // Cycles past the sequential depth reach no new output values, so
        // an error that shows up at all shows up by then.
        let cycles = miter
            .sequential_depth()
            .map_or(max_cycles, |depth| max_cycles.min(depth + 1));
        let mut bmc = Bmc::with_options(&miter, &self.options.solver_config());
        let mut sat_calls = 0;
        for k in 0..cycles {
            sat_calls += 1;
            match bmc.check_at(k)? {
                BmcResult::Cex(trace) => {
                    return Ok(EarliestError {
                        cycle: Some(k),
                        trace: Some(trace),
                        sat_calls,
                    })
                }
                BmcResult::Clear => continue,
                BmcResult::Unknown(reason) => {
                    return Err(AnalysisError::Interrupted(Partial {
                        reason: Some(reason),
                        known_low: 0,
                        known_high: u128::MAX,
                        completed_bound: Some(k),
                    }))
                }
            }
        }
        Ok(EarliestError {
            cycle: None,
            trace: None,
            sat_calls,
        })
    }

    /// Replays a trace on both circuits and returns the maximum per-cycle
    /// absolute output difference.
    pub fn trace_error(&self, trace: &Trace) -> u128 {
        self.replay(trace)
            .map(|(g, c)| g.abs_diff(c))
            .max()
            .unwrap_or(0)
    }

    /// Replays a trace on both circuits and returns the maximum per-cycle
    /// Hamming distance of the outputs.
    fn trace_bit_flips(&self, trace: &Trace) -> u128 {
        let flips = |(g, c): (u128, u128)| (g ^ c).count_ones().into();
        self.replay(trace).map(flips).max().unwrap_or(0)
    }

    /// The golden and approximate output words in each cycle of `trace`.
    fn replay(&self, trace: &Trace) -> impl Iterator<Item = (u128, u128)> {
        let golden = trace.replay(self.golden).into_iter();
        let approx = trace.replay(self.approx).into_iter();
        golden
            .zip(approx)
            .map(|(g, c)| (bits_to_u128(&g), bits_to_u128(&c)))
    }

    /// One threshold probe: can the error exceed `threshold` in any cycle
    /// `<= k`? `Refuted` carries the witnessing trace, `k + 1` cycles
    /// long.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn check_error_exceeds(
        &self,
        threshold: u128,
        k: usize,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        cached(
            &self.options,
            || {
                QueryKey::new(self.golden, self.approx, metric::SEQ_EXCEEDS, &self.options)
                    .with_threshold(threshold)
                    .with_cycles(k)
            },
            |hit| match hit {
                CachedResult::SeqVerdict(v) => Some(v),
                _ => None,
            },
            |v| match v {
                Verdict::Interrupted { .. } => None,
                done => Some(CachedResult::SeqVerdict(done.clone())),
            },
            || {
                let (miter, screen) = self.diff_screen();
                route::probe(
                    &self.options,
                    Some(screen),
                    || miter,
                    WordKind::SignedDiff,
                    threshold,
                    k,
                )
            },
        )
    }

    /// Opens a **persistent probe session** over the pair's difference
    /// miter: the product machine is encoded once, and every subsequent
    /// [`SeqProbe::check_error_exceeds`] reuses the warmed-up incremental
    /// solver (unrolled frames, learnt clauses). A batch service probing
    /// the same pair at many thresholds or horizons should hold one
    /// session per pair instead of paying the encoding on every query.
    pub fn probe_session(&self) -> SeqProbe {
        SeqProbe {
            engine: self.diff_engine(),
        }
    }

    /// An engine over the screened difference word. A session needs one
    /// even where the screen would decide every probe (a zero word, or
    /// `Backend::Static`); it then unrolls the compacted miter.
    fn diff_engine(&self) -> ThresholdEngine {
        ThresholdEngine::new(self.diff_screen().0, WordKind::SignedDiff, &self.options)
    }

    /// The precise worst-case error over all cycles `<= k`, via the
    /// frame-major search over per-frame BMC probes on one warm engine,
    /// or on a feed-forward pair via the expansion route (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] with the tightest bracketing
    /// interval reached when a resource limit stops the search.
    pub fn worst_case_error_at(&self, k: usize) -> Result<ErrorReport<u128>, AnalysisError> {
        cached(
            &self.options,
            || {
                QueryKey::new(self.golden, self.approx, metric::SEQ_WCE, &self.options)
                    .with_cycles(k)
            },
            |hit| match hit {
                CachedResult::Wide(r) => Some(r),
                _ => None,
            },
            |r| Some(CachedResult::Wide(*r)),
            || {
                let report = self.word_query(
                    "seq.wce",
                    sequential_diff_word_miter(self.golden, self.approx),
                    WordKind::SignedDiff,
                    k,
                    word_max(self.golden.num_outputs()),
                    |trace| self.trace_error(trace),
                )?;
                Ok(report.map(|values| values[k]))
            },
        )
    }

    /// The precise worst-case Hamming distance of the outputs over all
    /// cycles `<= k`, by the same routes as
    /// [`SeqAnalyzer::worst_case_error_at`].
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] with the tightest bracketing
    /// interval reached when a resource limit stops the search.
    pub fn bit_flip_error_at(&self, k: usize) -> Result<ErrorReport<u32>, AnalysisError> {
        cached(
            &self.options,
            || {
                QueryKey::new(
                    self.golden,
                    self.approx,
                    metric::SEQ_BIT_FLIP,
                    &self.options,
                )
                .with_cycles(k)
            },
            |hit| match hit {
                CachedResult::Narrow(r) => Some(r),
                _ => None,
            },
            |r| Some(CachedResult::Narrow(*r)),
            || {
                let report = self.word_query(
                    "seq.bit_flip",
                    sequential_popcount_word_miter(self.golden, self.approx),
                    WordKind::Unsigned,
                    k,
                    self.golden.num_outputs() as u128,
                    |trace| self.trace_bit_flips(trace),
                )?;
                Ok(report.map(|values| values[k] as u32))
            },
        )
    }

    /// The per-horizon worst-case error profile `WCE@0 .. WCE@k`: the
    /// frame-major search, or the expansion route's per-frame maxima,
    /// behind [`SeqAnalyzer::worst_case_error_at`] settles every horizon
    /// on the way, so the profile costs no more than `WCE@k`. Horizons
    /// past the sequential depth repeat its value.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a resource limit stops any
    /// horizon's search.
    pub fn error_profile(&self, k: usize) -> Result<ErrorProfile, AnalysisError> {
        let report = self.word_query(
            "seq.profile",
            sequential_diff_word_miter(self.golden, self.approx),
            WordKind::SignedDiff,
            k,
            word_max(self.golden.num_outputs()),
            |trace| self.trace_error(trace),
        )?;
        Ok(ErrorProfile {
            profile: report.value,
            sat_calls: report.sat_calls,
        })
    }

    /// Attempts to prove the **unbounded** bound `G (|error| <= threshold)`
    /// by k-induction over the sequential threshold miter. On a
    /// feed-forward pair an uncertified attempt first compares the bound
    /// with the all-time worst case from the expansion route (see the
    /// module docs); only a bound below it reaches k-induction.
    ///
    /// The analyzer's resource control composes into the proof attempt:
    /// its deadline can only tighten the one in `options`, and its
    /// cancellation token is adopted when `options` carries none. An
    /// attempt stopped by `max_k` or a resource limit returns
    /// `Verdict::Interrupted`; `completed_bound` in the payload is the
    /// number of leading cycles certified clear by the base cases.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn prove_error_bound(
        &self,
        threshold: u128,
        options: &InductionOptions,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        let (miter, screen) = self.diff_screen();
        let window = screen.window;
        if let Some(verdict) = screen.verdict(threshold, self.options.backend) {
            return Ok(verdict);
        }
        let mut options = options.clone();
        if let Some(deadline) = self.options.ctl.deadline() {
            options.ctl = options.ctl.with_deadline(deadline);
        }
        if options.ctl.cancel_token().is_none() {
            if let Some(token) = self.options.ctl.cancel_token() {
                options.ctl = options.ctl.with_cancel(token.clone());
            }
        }
        options.certify |= self.options.certify;
        if let Some(depth) = miter.sequential_depth() {
            // Every cycle from the depth D on reaches the words of cycle
            // D, so the maximum over cycles 0..=D is the all-time worst
            // case. A bound below it falls through: k-induction refutes it
            // in its base case and returns the witness.
            let stage = route::bdd_stage(options.certify, &options.ctl, window, |ctl| {
                self.expansion_maxima(&miter, WordKind::SignedDiff, depth, depth, ctl)
            });
            match stage {
                Ok(Some(maxima)) if maxima.iter().all(|&m| m <= threshold) => {
                    return Ok(Verdict::Proved)
                }
                Ok(_) => {}
                Err(partial) => {
                    return Ok(Verdict::Interrupted {
                        best_so_far: Partial {
                            completed_bound: Some(0),
                            ..partial
                        },
                    })
                }
            }
        }
        let miter = sequential_diff_miter(self.golden, self.approx, threshold);
        match prove_invariant(&miter, &options)? {
            ProofResult::Proved { .. } => Ok(Verdict::Proved),
            ProofResult::Falsified(trace) => Ok(Verdict::Refuted { witness: trace }),
            ProofResult::Unknown {
                completed_k,
                interrupt,
            } => Ok(Verdict::Interrupted {
                best_so_far: Partial {
                    reason: interrupt,
                    known_low: 0,
                    known_high: u128::MAX,
                    completed_bound: Some(completed_k),
                },
            }),
        }
    }

    /// The exact **total** error within `k` cycles: the maximum over input
    /// sequences of the *sum* of per-cycle absolute errors.
    ///
    /// Runs the frame-major search over the general accumulating miter
    /// (the paper's Gen/C/G/E/A/D scheme), whose word is a saturating
    /// `acc_width`-bit running total. `acc_width` must be wide enough to
    /// hold the result; it is checked by verifying the final answer is
    /// below the saturation point.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a resource limit stops the
    /// search, or — with `reason: None` and `known_low` at the saturation
    /// point — if `acc_width` saturated (the total exceeds its range and
    /// the caller must widen the accumulator).
    ///
    /// # Panics
    ///
    /// Panics if `acc_width` is 0 or exceeds 127.
    pub fn total_error_at(
        &self,
        k: usize,
        acc_width: usize,
    ) -> Result<ErrorReport<u128>, AnalysisError> {
        let max = (1u128 << acc_width) - 1;
        let report = self.word_query(
            "seq.total",
            accumulated_error_miter(self.golden, self.approx, acc_width),
            WordKind::Unsigned,
            k,
            max,
            |trace| self.trace_total_error(trace).min(max),
        )?;
        if report.value[k] >= max {
            // The saturating accumulator cannot distinguish totals at or
            // above its ceiling; the caller must widen it.
            return Err(AnalysisError::Interrupted(Partial {
                reason: None,
                known_low: max,
                known_high: u128::MAX,
                completed_bound: None,
            }));
        }
        Ok(report.map(|values| values[k]))
    }

    /// Replays a trace on both circuits and returns the **sum** of
    /// per-cycle absolute output differences.
    pub fn trace_total_error(&self, trace: &Trace) -> u128 {
        self.replay(trace).map(|(g, c)| g.abs_diff(c)).sum()
    }

    /// The exact maximum number of erroneous cycles (error above
    /// `per_cycle_threshold`) any input sequence can cause within the
    /// first `k + 1` cycles — the worst-case temporal error rate is this
    /// value divided by `k + 1` — by the frame-major search over the
    /// error-cycle counting miter.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a resource limit stops the
    /// search.
    pub fn max_error_cycles_at(
        &self,
        k: usize,
        per_cycle_threshold: u128,
    ) -> Result<ErrorReport<u32>, AnalysisError> {
        // The counter must hold k + 1; one extra bit keeps it clear of
        // saturation.
        let count_width = (usize::BITS - (k + 1).leading_zeros()) as usize + 1;
        let miter = error_cycle_count_miter(
            self.golden,
            self.approx,
            count_width.min(127),
            per_cycle_threshold,
        );
        let report = self.word_query(
            "seq.error_cycles",
            miter,
            WordKind::Unsigned,
            k,
            (k + 1) as u128,
            // Count the erroneous cycles the witness actually shows.
            |trace| {
                let erroneous = |&(g, c): &(u128, u128)| g.abs_diff(c) > per_cycle_threshold;
                self.replay(trace).filter(erroneous).count() as u128
            },
        )?;
        Ok(report.map(|values| values[k] as u32))
    }

    /// Random-simulation baseline: the largest error observed over
    /// `trajectories` random input sequences of `cycles` cycles (64
    /// trajectories are simulated per pass). A **lower bound** with no
    /// guarantee — the comparison point for the precise engines.
    pub fn simulated_worst_case_error(&self, cycles: usize, trajectories: u64, seed: u64) -> u128 {
        use axmc_rand::{Rng, SeedableRng};
        let mut rng = axmc_rand::rngs::StdRng::seed_from_u64(seed);
        let n_in = self.golden.num_inputs();
        let n_out = self.golden.num_outputs();
        let mut worst = 0u128;
        let mut done = 0u64;
        while done < trajectories {
            let lanes = 64.min(trajectories - done) as usize;
            let mut sg = Simulator::new(self.golden);
            let mut sa = Simulator::new(self.approx);
            for _ in 0..cycles {
                let inputs: Vec<u64> = (0..n_in).map(|_| rng.gen()).collect();
                let og = sg.step(&inputs);
                let oc = sa.step(&inputs);
                for l in 0..lanes {
                    let mut g = 0u128;
                    let mut c = 0u128;
                    for b in 0..n_out.min(128) {
                        g |= (((og[b] >> l) & 1) as u128) << b;
                        c |= (((oc[b] >> l) & 1) as u128) << b;
                    }
                    worst = worst.max(g.abs_diff(c));
                }
            }
            done += lanes as u64;
        }
        worst
    }
}

/// A warmed-up, reusable threshold-probe engine for one golden/approx
/// pair, opened with [`SeqAnalyzer::probe_session`].
///
/// The product-machine difference miter is encoded into an incremental
/// solver exactly once. Every probe extends the unrolling as needed, up
/// to the miter's sequential depth, and asks the frames one at a time,
/// first frame first (see the module docs), so learnt clauses, frames
/// and the per-frame bounds earlier probes proved all carry over to
/// later queries: a frame already proved within `t' <= t` costs no solve
/// at all. The proven bounds live inside the session, so they follow its
/// pool key.
///
/// Two properties matter to pooling layers (such as `axmc serve`):
///
/// * **Certification is fixed at construction.** Proof logging cannot be
///   enabled retroactively on a warmed solver, so a probe built from an
///   uncertified analyzer can never answer a certified query — pool
///   instances per `(pair, certified)`.
/// * **Resource control is re-armable.** [`SeqProbe::set_ctl`] replaces
///   the deadline/budget/cancellation bundle, letting a pooled instance
///   serve requests with different resource envelopes. The budget and
///   the per-call timeout bound each probe as a whole.
pub struct SeqProbe {
    engine: ThresholdEngine,
}

impl SeqProbe {
    /// Can the error exceed `threshold` in any cycle `<= k`? Identical
    /// semantics to [`SeqAnalyzer::check_error_exceeds`], against the
    /// warm engine (no per-call cache lookup — callers pooling probes
    /// manage their own cache).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn check_error_exceeds(
        &mut self,
        threshold: u128,
        k: usize,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        self.engine.probe(threshold, k)
    }

    /// Replaces the resource control (deadline, budget, cancellation)
    /// applied to subsequent probes — re-arm a pooled instance before
    /// each checkout. Every other knob (certification, inprocessing)
    /// is preserved.
    pub fn set_ctl(&mut self, ctl: ResourceCtl) {
        self.engine.set_ctl(ctl);
    }

    /// Total solver conflicts accumulated across the session so far.
    pub fn conflicts(&self) -> u64 {
        self.engine.conflicts()
    }

    /// The certificate of the session solver's most recent `Unsat`
    /// answer, for an independent check; `None` unless the session is
    /// certified and its last frame solve was `Unsat`.
    pub fn certificate(&self) -> Option<Certificate<'_>> {
        self.engine.unroller.solver().certificate()
    }
}

impl std::fmt::Debug for SeqProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SeqProbe(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::report::ErrorGrowth;
    use axmc_circuit::{approx, generators};
    use axmc_cnf::gates;
    use axmc_mc::Unroller;
    use axmc_sat::{Budget, CancelToken, Interrupt, ResourceCtl, SolveResult};
    use axmc_seq::{accumulator, fir_moving_sum, registered_alu};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn induction_options(max_k: usize) -> InductionOptions {
        InductionOptions {
            max_k,
            ctl: ResourceCtl::unlimited(),
            simple_path: false,
            certify: false,
        }
    }

    #[test]
    fn earliest_error_accumulator() {
        let golden = accumulator(&generators::ripple_carry_adder(4), 4);
        let apx = accumulator(&approx::truncated_adder(4, 2), 4);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let e = analyzer.earliest_error(8).unwrap();
        // State is output; first wrong state appears at cycle 1 (after the
        // first mis-addition is latched).
        assert_eq!(e.cycle, Some(1));
        let trace = e.trace.unwrap();
        assert!(analyzer.trace_error(&trace) > 0);
    }

    #[test]
    fn seq_static_tier_decides_statically_zero_pairs() {
        // A combinational pair analyzed sequentially: the shared-input
        // product machine strash-merges the identical cones, the diff
        // word folds to zero, and the ternary fixpoint certifies it —
        // no unrolling, no solver.
        let golden = generators::ripple_carry_adder(4).to_aig();
        let copy = golden.clone();
        let analyzer = SeqAnalyzer::new(&golden, &copy);
        let wce = analyzer.worst_case_error_at(3).unwrap();
        assert_eq!(wce.value, 0);
        assert_eq!(wce.engine, EngineKind::Static);
        assert_eq!(wce.sat_calls, 0);
        let flips = analyzer.bit_flip_error_at(3).unwrap();
        assert_eq!(flips.value, 0);
        assert_eq!(flips.engine, EngineKind::Static);
        assert!(analyzer.check_error_exceeds(0, 5).unwrap().is_proved());
    }

    #[test]
    fn seq_static_tier_preserves_solver_verdicts() {
        // The reduced (swept) product machine and the seeded bit-flip
        // window must not change any metric value: each equals the
        // maximum over every input sequence of the 4-bit accumulator.
        let golden = accumulator(&generators::ripple_carry_adder(4), 4);
        let apx = accumulator(&approx::truncated_adder(4, 2), 4);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        // A cycle's outputs depend only on the inputs up to it, so the
        // prefixes of the 4-cycle runs are every run of k + 1 cycles.
        let errors = every_run_words(&golden, &apx, 4, |g, c| g.abs_diff(c));
        let flips = every_run_words(&golden, &apx, 4, |g, c| (g ^ c).count_ones().into());
        let worst =
            |runs: &[Vec<u128>], k: usize| runs.iter().flat_map(|r| &r[..=k]).max().copied();
        for k in [0usize, 1, 3] {
            assert_eq!(
                Some(analyzer.worst_case_error_at(k).unwrap().value),
                worst(&errors, k),
                "wce@{k}"
            );
            assert_eq!(
                Some(analyzer.bit_flip_error_at(k).unwrap().value.into()),
                worst(&flips, k),
                "bit_flip@{k}"
            );
        }
    }

    #[test]
    fn certified_analysis_matches_uncertified() {
        // The full earliest-error + WCE pipeline with every UNSAT answer
        // re-validated by the RUP/DRAT checker must agree with the plain
        // run bit for bit. A checker rejection surfaces as an error.
        let golden = accumulator(&generators::ripple_carry_adder(4), 4);
        let apx = accumulator(&approx::truncated_adder(4, 2), 4);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let certified =
            SeqAnalyzer::new(&golden, &apx).with_options(AnalysisOptions::new().with_certify(true));
        assert_eq!(
            plain.earliest_error(6).unwrap().cycle,
            certified.earliest_error(6).unwrap().cycle
        );
        assert_eq!(
            plain.worst_case_error_at(3).unwrap().value,
            certified.worst_case_error_at(3).unwrap().value
        );
    }

    #[test]
    fn earliest_error_respects_pipeline_latency() {
        // Registered ALU: operands register in cycle 0, result registers in
        // cycle 1, output observable in cycle 2.
        let golden = registered_alu(&generators::ripple_carry_adder(4), 4);
        let apx = registered_alu(&approx::truncated_adder(4, 2), 4);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let e = analyzer.earliest_error(8).unwrap();
        assert_eq!(e.cycle, Some(2));
    }

    #[test]
    fn no_error_for_equivalent_components() {
        let golden = accumulator(&generators::ripple_carry_adder(4), 4);
        let same = accumulator(&generators::carry_select_adder(4, 2), 4);
        let analyzer = SeqAnalyzer::new(&golden, &same);
        let e = analyzer.earliest_error(6).unwrap();
        assert_eq!(e.cycle, None);
        assert_eq!(analyzer.worst_case_error_at(4).unwrap().value, 0);
    }

    #[test]
    fn wce_at_k_matches_explicit_search() {
        // 4-bit accumulator with LOA(2): cross-check BMC-based WCE@k
        // against brute-force search over all input sequences.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);

        // Brute force over all input sequences of length 3 (16^3 = 4096).
        let mut brute = 0u128;
        for seq_id in 0..(16u64 * 16 * 16) {
            let inputs: Vec<u128> = vec![
                (seq_id % 16) as u128,
                ((seq_id / 16) % 16) as u128,
                ((seq_id / 256) % 16) as u128,
            ];
            let trace = Trace {
                inputs: inputs
                    .iter()
                    .map(|&v| (0..width).map(|i| (v >> i) & 1 == 1).collect())
                    .collect(),
            };
            brute = brute.max(analyzer.trace_error(&trace));
        }
        let formal = analyzer.worst_case_error_at(2).unwrap();
        assert_eq!(formal.value, brute);
    }

    #[test]
    fn accumulator_errors_grow_but_fir_errors_plateau() {
        let width = 4;
        let golden_acc = accumulator(&generators::ripple_carry_adder(width), width);
        let apx_acc = accumulator(&approx::truncated_adder(width, 2), width);
        let acc_profile = SeqAnalyzer::new(&golden_acc, &apx_acc)
            .error_profile(5)
            .unwrap();
        assert_eq!(acc_profile.growth(), ErrorGrowth::Accumulating);
        // Profile is monotone by construction.
        for w in acc_profile.profile.windows(2) {
            assert!(w[0] <= w[1]);
        }

        let golden_fir = fir_moving_sum(&generators::ripple_carry_adder(width), width, 2);
        let apx_fir = fir_moving_sum(&approx::truncated_adder(width, 2), width, 2);
        let fir_profile = SeqAnalyzer::new(&golden_fir, &apx_fir)
            .error_profile(5)
            .unwrap();
        assert_eq!(fir_profile.growth(), ErrorGrowth::Bounded);
    }

    #[test]
    fn prove_bound_on_feedforward_design() {
        // Registered ALU output error equals the component's combinational
        // error, so the component's WCE is an unbounded sequential bound.
        let width = 4;
        let golden = registered_alu(&generators::ripple_carry_adder(width), width);
        let apx = registered_alu(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let comb_wce: u128 = 6; // 2^(cut+1) - 2 for cut = 2
        let opts = induction_options(4);
        assert!(
            analyzer
                .prove_error_bound(comb_wce, &opts)
                .unwrap()
                .is_proved(),
            "the component WCE must close inductively"
        );
        // One less is falsifiable.
        match analyzer.prove_error_bound(comb_wce - 1, &opts).unwrap() {
            Verdict::Refuted { witness } => {
                assert!(analyzer.trace_error(&witness) > comb_wce - 1)
            }
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn simulation_is_a_lower_bound() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::speculative_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let formal = analyzer.worst_case_error_at(3).unwrap().value;
        let simulated = analyzer.simulated_worst_case_error(4, 128, 7);
        assert!(simulated <= formal || formal == 0);
    }

    #[test]
    fn temporal_error_rate_matches_structure() {
        // Registered ALU (2-deep pipeline): within k = 4 (5 cycles), at
        // most 3 result cycles are visible (cycles 2, 3, 4), and with a
        // truncated adder every visible result can err.
        let width = 4;
        let golden = registered_alu(&generators::ripple_carry_adder(width), width);
        let apx = registered_alu(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let cycles = analyzer.max_error_cycles_at(4, 0).unwrap();
        assert_eq!(cycles.value, 3);
        // With a per-cycle threshold at the component WCE nothing counts.
        let none = analyzer.max_error_cycles_at(4, 6).unwrap();
        assert_eq!(none.value, 0);
        // Equivalent pair: zero erroneous cycles.
        let same = registered_alu(&generators::carry_select_adder(width, 2), width);
        let eq = SeqAnalyzer::new(&golden, &same);
        assert_eq!(eq.max_error_cycles_at(3, 0).unwrap().value, 0);
    }

    #[test]
    fn max_tracker_error_is_bounded_in_feedback() {
        // A feedback design whose error does NOT accumulate: the truncated
        // comparator's lag is capped at 2^cut - 1 forever.
        use axmc_seq::max_tracker;
        let width = 4;
        let cut = 2;
        let bound = (1u128 << cut) - 1;
        let golden = max_tracker(&generators::comparator(width), width);
        let apx = max_tracker(&approx::truncated_comparator(width, cut), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let profile = analyzer.error_profile(6).unwrap();
        assert_eq!(profile.growth(), crate::report::ErrorGrowth::Bounded);
        assert_eq!(*profile.profile.last().unwrap(), bound);
        // The bound can never be falsified at any horizon. Proved or
        // Interrupted are both acceptable: the invariant may need
        // auxiliary strengthening to close inductively.
        let opts = induction_options(6);
        if let Verdict::Refuted { witness } = analyzer.prove_error_bound(bound, &opts).unwrap() {
            panic!("bound {bound} falsified by a {}-cycle trace", witness.len())
        }
        // One below the bound is falsifiable.
        match analyzer.prove_error_bound(bound - 1, &opts).unwrap() {
            Verdict::Refuted { .. } => {}
            other => panic!("expected falsification below the bound, got {other:?}"),
        }
    }

    #[test]
    fn total_error_bounds_worst_case() {
        // In a feed-forward pipeline each cycle contributes independently:
        // the total error over k cycles can reach roughly k * WCE, while
        // WCE@k is the single-cycle maximum.
        let width = 4;
        let golden = registered_alu(&generators::ripple_carry_adder(width), width);
        let apx = registered_alu(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let k = 3;
        let wce = analyzer.worst_case_error_at(k).unwrap().value;
        let total = analyzer.total_error_at(k, 10).unwrap().value;
        assert!(total >= wce, "total {total} >= per-cycle max {wce}");
        assert!(
            total <= wce * (k as u128 + 1),
            "total {total} bounded by (k+1)*wce"
        );
        // A 2-deep pipeline emits its first result in cycle 2, so within
        // k = 3 at most two results are visible: total = 2 * wce.
        assert_eq!(total, 2 * wce);
    }

    #[test]
    fn total_error_zero_for_equivalent() {
        let width = 4;
        let a = accumulator(&generators::ripple_carry_adder(width), width);
        let b = accumulator(&generators::carry_select_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&a, &b);
        assert_eq!(analyzer.total_error_at(3, 8).unwrap().value, 0);
    }

    #[test]
    fn total_error_saturation_is_reported() {
        // A 2-bit accumulator-wide total cannot hold the real sum: the
        // API must refuse instead of under-reporting.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        match analyzer.total_error_at(4, 2) {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.known_low, 3); // saturated at 2^2 - 1
                assert_eq!(p.known_high, u128::MAX);
                assert_eq!(
                    p.reason, None,
                    "saturation is range exhaustion, not a limit"
                );
            }
            other => panic!("expected saturation error, got {other:?}"),
        }
    }

    /// Per-cycle `word(G, C)` of every input sequence of `cycles` cycles.
    fn every_run_words(
        golden: &Aig,
        apx: &Aig,
        cycles: usize,
        word: impl Fn(u128, u128) -> u128,
    ) -> Vec<Vec<u128>> {
        let n = golden.num_inputs();
        (0..1u64 << (n * cycles))
            .map(|bits| {
                let trace = Trace {
                    inputs: (0..cycles)
                        .map(|c| (0..n).map(|i| (bits >> (c * n + i)) & 1 == 1).collect())
                        .collect(),
                };
                let og = trace.replay(golden);
                let oc = trace.replay(apx);
                og.iter()
                    .zip(&oc)
                    .map(|(g, c)| word(bits_to_u128(g), bits_to_u128(c)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn total_error_and_error_cycles_match_brute_force() {
        use generators::ripple_carry_adder as exact;
        let trunc = |w| approx::truncated_adder(w, 1);
        let pairs = [
            (
                "accumulator2",
                accumulator(&exact(2), 2),
                accumulator(&trunc(2), 2),
            ),
            (
                "accumulator3",
                accumulator(&exact(3), 3),
                accumulator(&trunc(3), 3),
            ),
            (
                "alu2",
                registered_alu(&exact(2), 2),
                registered_alu(&trunc(2), 2),
            ),
            (
                "fir2",
                fir_moving_sum(&exact(2), 2, 2),
                fir_moving_sum(&trunc(2), 2, 2),
            ),
            (
                "fir3",
                fir_moving_sum(&exact(3), 3, 2),
                fir_moving_sum(&trunc(3), 3, 2),
            ),
        ];
        let options = [
            ("default", AnalysisOptions::new()),
            ("certified", AnalysisOptions::new().with_certify(true)),
        ];
        for (name, golden, apx) in &pairs {
            // A cycle's outputs depend only on the inputs up to it, so the
            // prefixes of the 4-cycle runs are every run of k + 1 cycles.
            let runs = every_run_words(golden, apx, 4, |g, c| g.abs_diff(c));
            let acc_width = golden.num_outputs() + 4;
            for (tag, options) in &options {
                let analyzer = SeqAnalyzer::new(golden, apx).with_options(options.clone());
                for k in 0..=3 {
                    let total = runs.iter().map(|e| e[..=k].iter().sum::<u128>()).max();
                    assert_eq!(
                        Some(analyzer.total_error_at(k, acc_width).unwrap().value),
                        total,
                        "{name} ({tag}) total@{k}"
                    );
                    for t in [0, 1] {
                        let cycles = runs
                            .iter()
                            .map(|e| e[..=k].iter().filter(|&&x| x > t).count() as u32)
                            .max();
                        assert_eq!(
                            Some(analyzer.max_error_cycles_at(k, t).unwrap().value),
                            cycles,
                            "{name} ({tag}) error cycles@{k}, t = {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn jobs_values_match_serial_values() {
        // Every sequential search runs on one engine whatever `jobs`
        // says, so whole reports are identical.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let serial = SeqAnalyzer::new(&golden, &apx);
        for jobs in [2usize, 4] {
            let par = SeqAnalyzer::new(&golden, &apx)
                .with_options(AnalysisOptions::new().with_jobs(jobs));
            assert_eq!(
                serial.worst_case_error_at(3).unwrap(),
                par.worst_case_error_at(3).unwrap(),
                "wce, jobs {jobs}"
            );
            assert_eq!(
                serial.bit_flip_error_at(3).unwrap(),
                par.bit_flip_error_at(3).unwrap(),
                "bit flip, jobs {jobs}"
            );
            assert_eq!(
                serial.error_profile(4).unwrap().profile,
                par.error_profile(4).unwrap().profile,
                "profile, jobs {jobs}"
            );
            assert_eq!(
                serial.total_error_at(3, 10).unwrap(),
                par.total_error_at(3, 10).unwrap(),
                "total, jobs {jobs}"
            );
            assert_eq!(
                serial.max_error_cycles_at(3, 0).unwrap(),
                par.max_error_cycles_at(3, 0).unwrap(),
                "error cycles, jobs {jobs}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_is_deterministic() {
        // With a starvation budget, a run either brackets the metric
        // from the probes that finished or reports exhaustion — and
        // repeated runs agree exactly.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let budget = Budget::unlimited().with_conflicts(1);
        let run = || {
            SeqAnalyzer::new(&golden, &apx)
                .with_options(AnalysisOptions::new().with_budget(budget).with_jobs(4))
                .worst_case_error_at(3)
                .map(|r| r.value)
        };
        assert_eq!(run(), run(), "same jobs value must reproduce exactly");
    }

    #[test]
    fn interrupted_searches_bracket_the_value_at_k() {
        // A wide accumulator's error grows every cycle without wrapping,
        // so a bracket proved at an early horizon can lie below WCE@k: an
        // interrupted search must not report one as its ceiling. Starved
        // at these budgets, some searches stop inside an early horizon
        // after a proving probe (a mutation check with the horizon's own
        // bracket as ceiling fails on both components).
        use axmc_seq::wide_accumulator;
        let k = 6;
        let golden = wide_accumulator(&generators::ripple_carry_adder(8), 4, 8);
        for component in [approx::lower_or_adder(8, 4), approx::truncated_adder(8, 3)] {
            let apx = wide_accumulator(&component, 4, 8);
            let exact = SeqAnalyzer::new(&golden, &apx);
            let wce = exact.worst_case_error_at(k).unwrap().value;
            let flips = u128::from(exact.bit_flip_error_at(k).unwrap().value);
            for conflicts in [1, 4, 8, 10, 13, 16, 32, 64, 85, 91, 97, 128, 256] {
                let starved = SeqAnalyzer::new(&golden, &apx).with_options(
                    AnalysisOptions::new()
                        .with_budget(Budget::unlimited().with_conflicts(conflicts)),
                );
                let check = |metric: &str, exact: u128, result: Result<u128, AnalysisError>| {
                    let (lo, hi) = match result {
                        Ok(value) => (value, value),
                        Err(AnalysisError::Interrupted(p)) => (p.known_low, p.known_high),
                        Err(e) => panic!("budget {conflicts}: {e}"),
                    };
                    assert!(
                        lo <= exact && exact <= hi,
                        "budget {conflicts}: {metric}@{k} = {exact} outside [{lo}, {hi}]"
                    );
                };
                check("wce", wce, starved.worst_case_error_at(k).map(|r| r.value));
                check(
                    "bit-flip",
                    flips,
                    starved.bit_flip_error_at(k).map(|r| r.value.into()),
                );
                check(
                    "profile",
                    wce,
                    starved.error_profile(k).map(|p| p.profile[k]),
                );
            }
        }
    }

    #[test]
    fn probe_session_matches_one_shot_probes() {
        // The warm engine must give the same verdicts as the one-shot
        // path, across interleaved thresholds and horizons (the reuse
        // pattern a batch service produces).
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let mut probe = analyzer.probe_session();
        for (t, k) in [(0u128, 1usize), (2, 3), (0, 3), (200, 2), (1, 2)] {
            let warm = probe.check_error_exceeds(t, k).unwrap();
            let cold = analyzer.check_error_exceeds(t, k).unwrap();
            assert_eq!(
                warm.is_proved(),
                cold.is_proved(),
                "t = {t}, k = {k}: warm and cold sessions must agree"
            );
            if let Verdict::Refuted { witness } = &warm {
                assert!(analyzer.trace_error(witness) > t, "witness must exceed t");
            }
        }
    }

    #[test]
    fn cached_seq_metrics_replay_identically() {
        use crate::cache::{CacheHandle, CachedResult, QueryCache, QueryKey};
        use std::collections::HashMap;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Mem {
            map: Mutex<HashMap<QueryKey, CachedResult>>,
            puts: AtomicU64,
        }
        impl QueryCache for Mem {
            fn get(&self, key: &QueryKey) -> Option<CachedResult> {
                self.map.lock().unwrap().get(key).cloned()
            }
            fn put(&self, key: &QueryKey, value: CachedResult) {
                self.puts.fetch_add(1, Ordering::Relaxed);
                self.map.lock().unwrap().insert(key.clone(), value);
            }
        }

        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let store = Arc::new(Mem::default());
        let analyzer = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_cache(CacheHandle::new(store.clone())));

        let wce_cold = analyzer.worst_case_error_at(3).unwrap();
        let bf_cold = analyzer.bit_flip_error_at(3).unwrap();
        let v_cold = analyzer.check_error_exceeds(1, 3).unwrap();
        assert_eq!(store.puts.load(Ordering::Relaxed), 3);

        // Warm calls must replay byte-identical results (including the
        // effort counters) without storing anything new.
        assert_eq!(analyzer.worst_case_error_at(3).unwrap(), wce_cold);
        assert_eq!(analyzer.bit_flip_error_at(3).unwrap(), bf_cold);
        assert_eq!(analyzer.check_error_exceeds(1, 3).unwrap(), v_cold);
        assert_eq!(store.puts.load(Ordering::Relaxed), 3);

        // A different horizon is a different key: computed, then stored.
        let _ = analyzer.worst_case_error_at(2).unwrap();
        assert_eq!(store.puts.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn bit_flip_at_k_is_positive_for_truncation() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let bf = analyzer.bit_flip_error_at(3).unwrap();
        assert!(bf.value >= 1);
        assert!(bf.value <= width as u32);
    }

    #[test]
    fn inprocessing_preserves_certified_analysis() {
        // Inprocessing rewrites the clause database between solves; with
        // certification on, every UNSAT answer behind these metrics is
        // re-validated through the DRAT checker, so this doubles as an
        // end-to-end proof-logging test for the inprocessing passes.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let inproc = SeqAnalyzer::new(&golden, &apx).with_options(
            AnalysisOptions::new()
                .with_inprocessing(true)
                .with_certify(true),
        );
        assert_eq!(
            plain.worst_case_error_at(3).unwrap().value,
            inproc.worst_case_error_at(3).unwrap().value
        );
        assert_eq!(
            plain.earliest_error(6).unwrap().cycle,
            inproc.earliest_error(6).unwrap().cycle
        );
        assert!(inproc.check_error_exceeds(200, 3).unwrap().is_proved());
    }

    #[test]
    fn inprocessing_and_certification_compose_with_jobs() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let tuned = SeqAnalyzer::new(&golden, &apx).with_options(
            AnalysisOptions::new()
                .with_jobs(3)
                .with_inprocessing(true)
                .with_certify(true),
        );
        assert_eq!(
            plain.worst_case_error_at(3).unwrap().value,
            tuned.worst_case_error_at(3).unwrap().value
        );
        assert_eq!(
            plain.error_profile(4).unwrap().profile,
            tuned.error_profile(4).unwrap().profile
        );
    }

    // -- satellite: typed interruption behavior ------------------------

    #[test]
    fn expired_deadline_mid_bmc_reports_the_completed_bound() {
        // An already-expired deadline stops the very first BMC bound: the
        // anytime payload must say "0 cycles certified clear" and name
        // the deadline as the reason — and return in microseconds, not
        // after grinding through the instance.
        let width = 8;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 4), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_timeout(Duration::ZERO));
        match analyzer.earliest_error(16) {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.reason, Some(Interrupt::Deadline));
                assert_eq!(p.completed_bound, Some(0));
            }
            other => panic!("expected a deadline interruption, got {other:?}"),
        }
    }

    #[test]
    fn budget_interruption_carries_certified_clear_cycles() {
        // A conflict budget that clears a few bounds and then starves:
        // the payload's completed_bound must reflect the cycles actually
        // certified clear (deterministic for a fixed budget).
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let same = accumulator(&generators::carry_select_adder(width, 2), width);
        let starving = SeqAnalyzer::new(&golden, &same).with_options(
            AnalysisOptions::new().with_budget(Budget::unlimited().with_conflicts(1)),
        );
        match starving.earliest_error(12) {
            Err(AnalysisError::Interrupted(p)) => {
                assert!(matches!(
                    p.reason,
                    Some(Interrupt::Conflicts | Interrupt::Propagations)
                ));
                assert!(p.completed_bound.is_some());
            }
            // A tiny equivalent pair may still clear every bound within
            // the budget; that is also a correct outcome.
            Ok(e) => assert_eq!(e.cycle, None),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn cancel_token_stops_a_running_search() {
        // A 20-bit accumulator WCE search takes far longer than the
        // cancellation delay; raising the token from another thread must
        // stop the search promptly with a typed Cancelled interrupt.
        let width = 20;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 10), width);
        let token = CancelToken::new();
        let canceller = token.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            canceller.cancel();
        });
        let analyzer = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_jobs(4).with_cancel(token));
        let result = analyzer.worst_case_error_at(12);
        handle.join().unwrap();
        match result {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.reason, Some(Interrupt::Cancelled));
                assert!(p.known_low <= p.known_high);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn deadline_composes_into_induction_proofs() {
        // The analyzer's (expired) deadline must tighten the induction
        // options' unlimited control: the proof attempt is interrupted
        // with zero cycles certified, not run to completion.
        let width = 4;
        let golden = registered_alu(&generators::ripple_carry_adder(width), width);
        let apx = registered_alu(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_timeout(Duration::ZERO));
        match analyzer
            .prove_error_bound(6, &induction_options(4))
            .unwrap()
        {
            Verdict::Interrupted { best_so_far } => {
                assert_eq!(best_so_far.reason, Some(Interrupt::Deadline));
                assert_eq!(best_so_far.completed_bound, Some(0));
            }
            other => panic!("expected an interrupted proof, got {other:?}"),
        }
    }

    #[test]
    fn generous_timeout_is_byte_identical_to_no_timeout() {
        // A deadline that never trips must not perturb any answer: the
        // deterministic trajectory with and without it is identical.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let timed = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_timeout(Duration::from_secs(3600)));
        let a = plain.worst_case_error_at(3).unwrap();
        let b = timed.worst_case_error_at(3).unwrap();
        assert_eq!((a.value, a.sat_calls), (b.value, b.sat_calls));
        assert_eq!(
            plain.error_profile(4).unwrap().profile,
            timed.error_profile(4).unwrap().profile
        );
    }

    // -- per-frame probes ------------------------------------------------

    /// The threshold probe as it shipped before per-frame probes: one
    /// solve over the OR of every frame's comparator, on a plain
    /// unrolling. The reference the per-frame engine must agree with.
    struct OrProbe {
        unroller: Unroller,
        kind: WordKind,
    }

    impl OrProbe {
        fn new(miter: &Aig, kind: WordKind) -> Self {
            OrProbe {
                unroller: Unroller::new(miter.compact()),
                kind,
            }
        }

        /// A trace whose word exceeds `t` in some cycle `<= k`, if any.
        fn probe(&mut self, t: u128, k: usize) -> Option<Trace> {
            self.unroller.extend_to(k + 1);
            let true_lit = self.unroller.true_lit();
            let mut flags = Vec::with_capacity(k + 1);
            for frame in 0..=k {
                let word = self.unroller.frame(frame).outputs.clone();
                let solver = self.unroller.solver_mut();
                flags.push(match self.kind {
                    WordKind::SignedDiff => gates::abs_diff_exceeds(solver, &word, t, true_lit),
                    WordKind::Unsigned => gates::ugt_const(solver, &word, t, true_lit),
                });
            }
            let solver = self.unroller.solver_mut();
            let any = gates::or_all(solver, &flags, true_lit);
            match solver.solve_with_assumptions(&[any]) {
                SolveResult::Sat => Some(self.unroller.extract_trace(k)),
                SolveResult::Unsat => None,
                SolveResult::Unknown => unreachable!("the reference runs unbudgeted"),
            }
        }

        /// The metric's maximum over cycles `<= k`, by witness ascent:
        /// probe at the best witnessed value until nothing exceeds it.
        fn max(&mut self, k: usize, metric: impl Fn(&Trace) -> u128) -> u128 {
            let mut best = 0;
            while let Some(trace) = self.probe(best, k) {
                let witnessed = metric(&trace);
                assert!(witnessed > best, "reference witness must exceed {best}");
                best = witnessed;
            }
            best
        }
    }

    /// Every design family of the standard suite at operand width 4
    /// (multipliers at 2). `standard_suite` itself needs a width of at
    /// least 8; at 4 its two counter variants coincide, so names are
    /// deduplicated.
    fn small_suite() -> Vec<axmc_seq::BenchmarkPair> {
        use axmc_seq::suite::*;
        let mut suite = adder_benchmarks(4);
        suite.extend(multiplier_benchmarks(2));
        suite.extend(counter_benchmarks(4));
        suite.extend(comparator_benchmarks(4));
        suite.extend(pulse_counter_benchmarks(4));
        let mut seen = std::collections::HashSet::new();
        suite.retain(|p| seen.insert(p.name.clone()));
        suite
    }

    #[test]
    fn sequential_depth_marks_exactly_the_feed_forward_pairs() {
        // The depth the probes use (the reduced difference miter) and the
        // one the earliest-error scan uses (the strict miter).
        for pair in axmc_seq::suite::standard_suite(8) {
            let name = &pair.name;
            let depth = SeqAnalyzer::new(&pair.golden, &pair.approx)
                .diff_engine()
                .depth;
            assert_eq!(depth.is_some(), !pair.feedback, "{name}");
            let expected = match pair.design.as_str() {
                d if d.starts_with("fir4") => Some(3),
                d if d.starts_with("alu") || d.starts_with("regmul") => Some(2),
                _ => None,
            };
            assert_eq!(depth, expected, "{name}");
            let strict = sequential_strict_miter(&pair.golden, &pair.approx);
            assert_eq!(strict.sequential_depth(), expected, "{name} strict miter");
        }
    }

    #[test]
    fn per_frame_probes_match_the_or_probe_reference() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut reused, mut past_depth) = (0, 0);
        for pair in small_suite() {
            let (golden, apx) = (&pair.golden, &pair.approx);
            let analyzer = SeqAnalyzer::new(golden, apx);
            let mut wce_ref = OrProbe::new(
                &sequential_diff_word_miter(golden, apx),
                WordKind::SignedDiff,
            );
            let mut flips_ref = OrProbe::new(
                &sequential_popcount_word_miter(golden, apx),
                WordKind::Unsigned,
            );
            // Feed-forward pairs run to twice their depth and one more,
            // so the capped probes answer horizons well past it.
            let horizon = analyzer
                .diff_engine()
                .depth
                .map_or(5, |d| (2 * d + 1).max(5));
            let mut wce_at = Vec::new();
            for k in 0..=horizon {
                let wce = wce_ref.max(k, |t| analyzer.trace_error(t));
                let flips = flips_ref.max(k, |t| analyzer.trace_bit_flips(t));
                let name = &pair.name;
                assert_eq!(
                    analyzer.worst_case_error_at(k).unwrap().value,
                    wce,
                    "{name} wce@{k}"
                );
                assert_eq!(
                    analyzer.bit_flip_error_at(k).unwrap().value as u128,
                    flips,
                    "{name} bit-flip@{k}"
                );
                wce_at.push(wce);
            }
            // One session answers every (t, k) in a shuffled order, so
            // bounds proven at one threshold and horizon are reused at
            // the others.
            let mut queries: Vec<(u128, usize)> = (0..=horizon)
                .flat_map(|k| {
                    let wce = wce_at[k];
                    [wce.checked_sub(1), Some(0), Some(wce), Some(wce + 1)]
                        .into_iter()
                        .flatten()
                        .map(move |t| (t, k))
                })
                .collect();
            for i in (1..queries.len()).rev() {
                queries.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut probe = analyzer.probe_session();
            for (t, k) in queries {
                let exceeds = wce_at[k] > t;
                match probe.check_error_exceeds(t, k).unwrap() {
                    Verdict::Refuted { witness } => {
                        assert!(
                            exceeds,
                            "{} t={t} k={k}: refuted, reference proved",
                            pair.name
                        );
                        assert!(analyzer.trace_error(&witness) > t);
                    }
                    Verdict::Proved => {
                        assert!(
                            !exceeds,
                            "{} t={t} k={k}: proved, reference refuted",
                            pair.name
                        )
                    }
                    Verdict::Interrupted { .. } => panic!("unbudgeted probes must finish"),
                }
            }
            reused += probe.engine.frames_reused;
            if let Some(depth) = probe.engine.depth {
                past_depth += horizon - depth;
            }
        }
        assert!(reused > 0, "the shuffled queries must exercise bound reuse");
        assert!(
            past_depth > 0,
            "the feed-forward pairs must exercise the depth cap"
        );
    }

    // -- the expansion route ------------------------------------------

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn expansion_replays_every_standard_pair() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for pair in axmc_seq::suite::standard_suite(8) {
            for aig in [&pair.golden, &pair.approx] {
                let (n, m) = (aig.num_inputs(), aig.num_outputs());
                for frames in 1..=4 {
                    let expansion = aig.expand_frames(frames);
                    assert_eq!(expansion.num_inputs(), frames * n);
                    assert_eq!(expansion.num_outputs(), frames * m);
                    assert_eq!(expansion.num_latches(), 0);
                    for _ in 0..4 {
                        let trace = Trace {
                            inputs: (0..frames)
                                .map(|_| (0..n).map(|_| next() & 1 == 1).collect())
                                .collect(),
                        };
                        assert_eq!(
                            expansion.eval_comb(&trace.inputs.concat()),
                            trace.replay(aig).concat(),
                            "{} over {frames} frames",
                            pair.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn order_rule_interleaves_exactly_the_two_operand_pairs() {
        for pair in axmc_seq::suite::standard_suite(8) {
            if pair.feedback {
                continue;
            }
            let analyzer = SeqAnalyzer::new(&pair.golden, &pair.approx);
            let depth = analyzer.diff_engine().depth.expect("a feed-forward pair");
            let design = pair.design.as_str();
            let two_operands = design.starts_with("alu") || design.starts_with("regmul");
            assert!(two_operands || design.starts_with("fir"), "{}", pair.name);
            assert_eq!(
                analyzer.interleaves_operands(depth + 1),
                two_operands,
                "{}",
                pair.name
            );
        }
    }

    #[test]
    fn expansion_route_matches_the_sat_search() {
        // Every feed-forward pair of the standard suite, to twice its depth
        // and one more: the BDD route (default options), the SAT route (a
        // node budget any gate blows) and the certified search agree.
        for pair in axmc_seq::suite::standard_suite(8) {
            if pair.feedback {
                continue;
            }
            let (golden, apx, name) = (&pair.golden, &pair.approx, &pair.name);
            let with =
                |options: AnalysisOptions| SeqAnalyzer::new(golden, apx).with_options(options);
            let bdd = SeqAnalyzer::new(golden, apx);
            let sat = with(AnalysisOptions::new().with_bdd_node_limit(0));
            let certified = with(AnalysisOptions::new().with_certify(true));
            let expired = with(AnalysisOptions::new().with_timeout(Duration::ZERO));
            let depth = bdd.diff_engine().depth.expect("a feed-forward pair");
            for k in 0..=2 * depth + 1 {
                let wce = [&bdd, &sat, &certified].map(|a| a.worst_case_error_at(k).unwrap());
                let flips = [&bdd, &sat, &certified].map(|a| a.bit_flip_error_at(k).unwrap());
                for (metric, values, engines) in [
                    ("wce", wce.map(|r| r.value), wce.map(|r| r.engine)),
                    (
                        "bit-flip",
                        flips.map(|r| r.value.into()),
                        flips.map(|r| r.engine),
                    ),
                ] {
                    assert_eq!(values, [values[0]; 3], "{name} {metric}@{k}");
                    // Before its depth a pipeline shows only reset values:
                    // an expansion with no gate fits even the zero budget.
                    let constant = k < depth && values[0] == 0;
                    let sat_route = if constant {
                        EngineKind::Bdd
                    } else {
                        EngineKind::Sat
                    };
                    assert_eq!(
                        engines,
                        [EngineKind::Bdd, sat_route, EngineKind::Sat],
                        "{name} {metric}@{k}"
                    );
                }
                assert_eq!(
                    bdd.error_profile(k).unwrap().profile[k],
                    wce[0].value,
                    "{name} profile@{k}"
                );
                assert!(matches!(
                    expired.worst_case_error_at(k),
                    Err(AnalysisError::Interrupted(_))
                ));
                assert!(matches!(
                    expired.bit_flip_error_at(k),
                    Err(AnalysisError::Interrupted(_))
                ));
                assert!(matches!(
                    expired.error_profile(k),
                    Err(AnalysisError::Interrupted(_))
                ));
            }
        }
    }

    #[test]
    fn probe_budget_bounds_the_whole_probe() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let k = 5;
        let wce = analyzer.worst_case_error_at(k).unwrap().value;
        let mut free = analyzer.probe_session();
        assert!(free.check_error_exceeds(wce, k).unwrap().is_proved());
        let needed = free.conflicts();
        assert!(
            free.engine.frame_solves > 1 && needed > 2,
            "the proof must span several frames and conflicts"
        );
        for budget in [1, needed / 2, needed - 1] {
            let mut probe = analyzer.probe_session();
            probe.set_ctl(
                ResourceCtl::unlimited().with_budget(Budget::unlimited().with_conflicts(budget)),
            );
            let verdict = probe.check_error_exceeds(wce, k).unwrap();
            assert!(
                verdict.is_interrupted(),
                "budget {budget} < {needed} must interrupt"
            );
            assert!(
                probe.conflicts() <= budget,
                "budget {budget}: the probe spent {} conflicts",
                probe.conflicts()
            );
        }
        // A spent budget stops the probe before it asks the next frame,
        // even one that would need no conflict; one conflict to spare is
        // enough, and the budget does not steer the search.
        let mut spare = analyzer.probe_session();
        spare.set_ctl(
            ResourceCtl::unlimited().with_budget(Budget::unlimited().with_conflicts(needed + 1)),
        );
        assert!(spare.check_error_exceeds(wce, k).unwrap().is_proved());
        assert_eq!(spare.conflicts(), needed);
        // The per-call timeout runs from the start of the probe: at zero
        // the first frame is already out of time.
        let mut timed = analyzer.probe_session();
        timed.set_ctl(ResourceCtl::unlimited().with_query_timeout(Duration::ZERO));
        match timed.check_error_exceeds(wce, k).unwrap() {
            Verdict::Interrupted { best_so_far } => {
                assert_eq!(best_so_far.reason, Some(Interrupt::Deadline))
            }
            other => panic!("expected a deadline interruption, got {other:?}"),
        }
        assert_eq!(timed.conflicts(), 0);
    }

    #[test]
    fn certified_probes_check_once_and_reuse_checked_bounds() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let analyzer =
            SeqAnalyzer::new(&golden, &apx).with_options(AnalysisOptions::new().with_certify(true));
        let k = 4;
        let wce = analyzer.worst_case_error_at(k).unwrap().value;
        assert!(wce > 0);
        let mut probe = analyzer.probe_session();
        let solves = |p: &SeqProbe| p.engine.unroller.solver().stats().solves;

        // A refuted probe runs no check; the bounds it proved on the way
        // stay unchecked, so they are not reused yet.
        assert!(probe.check_error_exceeds(wce - 1, k).unwrap().is_refuted());
        assert_eq!(probe.engine.checks, 0);
        assert_eq!(probe.engine.frames_reused, 0);

        // The probe at the WCE solves frames and ends with exactly one
        // DRAT check, which covers every frame's derived bound.
        assert!(probe.check_error_exceeds(wce, k).unwrap().is_proved());
        assert_eq!(probe.engine.checks, 1);

        // Above the WCE every frame is answered from a checked bound:
        // no solve and no check.
        let (before, reused) = (solves(&probe), probe.engine.frames_reused);
        assert!(probe.check_error_exceeds(wce + 1, k).unwrap().is_proved());
        assert_eq!(solves(&probe), before);
        assert_eq!(probe.engine.checks, 1);
        assert_eq!(probe.engine.frames_reused, reused + k as u64 + 1);
    }
}
