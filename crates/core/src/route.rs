//! The one route of every word query, combinational or sequential: can
//! an error word exceed `t` within `k` cycles (`k = 0` for a
//! combinational one)? [`WordQuery::run`] stages it the same way for
//! both analyzers (`docs/backends.md`): the caller's static screen, the
//! BDD stage it offers ([`bdd_stage`]), then the frame-major SAT search
//! of a [`ThresholdEngine`], built only here. A threshold probe
//! ([`probe`]) takes the screen's verdict, then one engine probe. A
//! caller supplies only its screen, its BDD stage, its SAT miter and the
//! metric that replays a witness.

use crate::engine::{Backend, EngineKind};
use crate::options::AnalysisOptions;
use crate::report::{AnalysisError, ErrorReport, Partial};
use crate::threshold::{ThresholdEngine, WordKind};
use crate::verdict::Verdict;
use axmc_aig::Aig;
use axmc_bdd::BuildBddError;
use axmc_mc::Trace;
use axmc_sat::{Interrupt, ResourceCtl};

/// What a static screen knows of a word in every reachable cycle: a
/// witnessed floor and a sound ceiling, and a trace reaching the floor
/// when the screen probed one.
pub(crate) struct Screen {
    pub(crate) window: (u128, u128),
    pub(crate) witness: Option<Trace>,
}

impl Screen {
    /// The screen's answer to "can the word exceed `threshold`?", if it
    /// has one; under [`Backend::Static`] an undecided query gets the
    /// interval with no interrupt reason.
    pub(crate) fn verdict(self, threshold: u128, backend: Backend) -> Option<Verdict<Trace>> {
        let (lo, hi) = self.window;
        let decided = if hi <= threshold {
            Some(Verdict::Proved)
        } else {
            self.witness
                .filter(|_| lo > threshold)
                .map(|witness| Verdict::Refuted { witness })
        };
        if decided.is_some() {
            axmc_obs::counter("absint.decided").inc();
            return decided;
        }
        (backend == Backend::Static).then(|| Verdict::Interrupted {
            best_so_far: partial(None, self.window),
        })
    }
}

/// An interval as anytime knowledge, stopped for `reason`; `None` for a
/// query the screen could not decide under [`Backend::Static`].
pub(crate) fn partial(reason: Option<Interrupt>, (low, high): (u128, u128)) -> Partial {
    Partial {
        reason,
        known_low: low,
        known_high: high,
        completed_bound: None,
    }
}

/// A BDD stage's result: the word's maximum in each of its first
/// frames, and the peak node count.
pub(crate) type BddMaxima = Result<(Vec<u128>, usize), BuildBddError>;

/// The maximum of a word, read as `kind` and at most `max`, over the
/// cycles `<= h` for every `h = 0..=k`; `label` names its search.
pub(crate) struct WordQuery<'q> {
    pub(crate) options: &'q AnalysisOptions,
    /// The analyzed pair, named in `analysis.query` events.
    pub(crate) pair: (&'q Aig, &'q Aig),
    pub(crate) label: &'static str,
    pub(crate) kind: WordKind,
    pub(crate) k: usize,
    pub(crate) max: u128,
}

impl WordQuery<'_> {
    /// Runs the stages. `screen` is `None` when the caller consults
    /// none; `miter` builds the SAT miter, whose witnesses `metric`
    /// replays.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] when a resource limit stops a
    /// stage, or under [`Backend::Static`] when the screen cannot decide;
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate.
    pub(crate) fn run(
        &self,
        screen: Option<Screen>,
        bdd: Option<impl FnOnce(&ResourceCtl) -> BddMaxima>,
        miter: impl FnOnce() -> Aig,
        metric: impl Fn(&Trace) -> u128,
    ) -> Result<ErrorReport<Vec<u128>>, AnalysisError> {
        let options = self.options;
        let window = screen.as_ref().map_or((0, self.max), |s| s.window);
        if screen.is_some() && window.0 == window.1 {
            axmc_obs::counter("absint.decided").inc();
            return Ok(report(vec![window.0; self.k + 1], EngineKind::Static));
        }
        if options.backend == Backend::Static {
            return Err(AnalysisError::Interrupted(partial(None, window)));
        }
        if axmc_obs::tracing_active() {
            let (golden, candidate) = self.pair;
            axmc_obs::emit(
                axmc_obs::Event::new("analysis.query")
                    .field("golden_fp", golden.fingerprint())
                    .field("candidate_fp", candidate.fingerprint())
                    .field("inputs", golden.num_inputs() as u64)
                    .field("backend", format!("{}", options.backend)),
            );
        }
        let stage = bdd.map(|build| bdd_stage(options.certify, &options.ctl, window, build));
        let stage = stage.transpose().map_err(AnalysisError::Interrupted)?;
        if let Some(maxima) = stage.flatten() {
            // The running maximum; horizons past the last frame repeat it.
            let (mut best, mut profile) = (0, Vec::with_capacity(self.k + 1));
            for value in maxima {
                best = best.max(value);
                profile.push(best);
            }
            profile.resize(self.k + 1, best);
            return Ok(report(profile, EngineKind::Bdd));
        }
        axmc_obs::counter("engine.selected.sat").inc();
        let _span = axmc_obs::span("engine.sat.time_us");
        let mut engine = ThresholdEngine::new(miter(), self.kind, options);
        let (values, sat_calls) = engine.search(self.label, self.k, self.max, window, metric)?;
        Ok(ErrorReport {
            conflicts: engine.conflicts(),
            sat_calls,
            ..report(values, EngineKind::Sat)
        })
    }
}

/// The BDD stage: the per-frame maxima `build` computes under `ctl`,
/// timed and counted. `Ok(None)` hands the query to SAT: under `certify`
/// (a BDD answer carries no DRAT certificate) the stage does not run,
/// and a blown node or width limit, or a build only the per-call timeout
/// stopped, counts `engine.fallback`.
///
/// # Errors
///
/// The run's own limit (deadline or cancellation) stopped the build:
/// `window` with that reason, and no SAT search may follow.
pub(crate) fn bdd_stage(
    certify: bool,
    ctl: &ResourceCtl,
    window: (u128, u128),
    build: impl FnOnce(&ResourceCtl) -> BddMaxima,
) -> Result<Option<Vec<u128>>, Partial> {
    if certify {
        return Ok(None);
    }
    let built = {
        let _span = axmc_obs::span("engine.bdd.time_us");
        build(ctl)
    };
    match built {
        Ok((maxima, nodes)) => {
            axmc_obs::histogram("bdd.nodes").record(nodes as u64);
            axmc_obs::counter("engine.selected.bdd").inc();
            return Ok(Some(maxima));
        }
        Err(BuildBddError::Interrupted(_)) => {
            if let Some(reason) = ctl.interrupted() {
                return Err(partial(Some(reason), window));
            }
        }
        Err(BuildBddError::SizeLimit { .. } | BuildBddError::WidthLimit { .. }) => {}
    }
    axmc_obs::counter("engine.fallback").inc();
    Ok(None)
}

/// Can the word exceed `threshold` in any cycle `<= k`? The screen's
/// verdict, if the caller consulted one, then one probe of a threshold
/// engine over `miter`, read as `kind`.
///
/// # Errors
///
/// [`AnalysisError::CertificateRejected`] on a rejected certificate.
pub(crate) fn probe(
    options: &AnalysisOptions,
    screen: Option<Screen>,
    miter: impl FnOnce() -> Aig,
    kind: WordKind,
    threshold: u128,
    k: usize,
) -> Result<Verdict<Trace>, AnalysisError> {
    if let Some(verdict) = screen.and_then(|s| s.verdict(threshold, options.backend)) {
        return Ok(verdict);
    }
    ThresholdEngine::new(miter(), kind, options).probe(threshold, k)
}

/// A report no solver effort went into.
fn report<T>(value: T, engine: EngineKind) -> ErrorReport<T> {
    ErrorReport {
        value,
        sat_calls: 0,
        conflicts: 0,
        engine,
    }
}
