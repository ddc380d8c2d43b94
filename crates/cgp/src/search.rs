//! The verifiability-driven evolutionary search.
//!
//! The loop follows the scheme: seed with the golden circuit, mutate the
//! best-so-far, and accept a candidate only when a **resource-limited**
//! SAT call proves `WCE(G, C) <= T` (an `UNSAT` miter). Candidates whose
//! verification exhausts the budget are discarded outright — the search is
//! thereby driven toward *promptly verifiable* circuits, which is what
//! makes the method scale.
//!
//! Two cheap filters run before any SAT call: candidates produced by
//! purely neutral mutations inherit the parent's verdict, and candidates
//! whose estimated area is no better than the current best are discarded
//! without building a miter.
//!
//! Each generation is bred **serially** (one RNG stream) and verified on
//! a fleet of up to [`SearchOptions::jobs`] workers — every surviving
//! candidate solves on its own clone of the run's prototype solver
//! (`SatOracle`), which carries the golden cone pre-encoded — with the
//! verdicts merged back in candidate order. A fixed seed therefore
//! produces an identical search trajectory for every `jobs` value;
//! parallelism only changes wall-clock time.
//!
//! The search is *anytime*: a wall-clock deadline or cancellation raised
//! through [`SearchOptions::ctl`] stops the loop at the next generation
//! boundary and returns the best verified circuit found so far (sound,
//! because the search is seeded with the golden circuit itself). The
//! reason is recorded in [`SearchStats::interrupt`]. Candidates whose
//! *individual* verification is cut short by the deadline or token are
//! merely skipped — counted under `cgp.verify.degraded` — never turned
//! into an abort.

use crate::chromosome::Chromosome;
use axmc_aig::{Aig, Lit as AigLit, Word};
use axmc_circuit::{AreaModel, Netlist};
use axmc_cnf::{assert_const_false, encode_frame, extend_frame, FrameEncoding};
use axmc_core::{exhaustive_stats, AnalysisError, Backend, DEFAULT_BDD_NODE_LIMIT};
use axmc_miter::{abs_diff_word_miter, diff_exceeds, embed_comb};
use axmc_rand::rngs::StdRng;
use axmc_rand::SeedableRng;
use axmc_sat::{Budget, Interrupt, Lit as SatLit, ResourceCtl, SolveResult, Solver, SolverConfig};
use std::time::{Duration, Instant};

/// How a candidate's error constraint is checked.
#[derive(Clone, Copy, Debug)]
pub enum Verifier {
    /// Resource-limited SAT on the threshold miter (the proposed method).
    /// `Unknown` verdicts are treated as rejection.
    Sat {
        /// Budget per verification call.
        budget: Budget,
    },
    /// Exhaustive 64-way-parallel simulation of all input assignments
    /// (the conventional CGP fitness evaluation; exact but exponential).
    Simulation,
}

/// Configuration of one evolutionary run.
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Worst-case-error threshold `T` (absolute, in output LSBs).
    pub threshold: u128,
    /// Offspring per generation (the `λ` of `1+λ`).
    pub population: usize,
    /// Maximum genes mutated per offspring.
    pub max_mutations: usize,
    /// Stop after this many generations.
    pub max_generations: u64,
    /// Stop after this wall-clock time.
    pub time_limit: Duration,
    /// The verification strategy.
    pub verifier: Verifier,
    /// Gate-area table used for the area fitness.
    pub area_model: AreaModel,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Spare grid columns appended to the seed layout.
    pub extra_cols: usize,
    /// Verification workers per generation. The search trajectory is
    /// identical for every value; only wall-clock time changes.
    pub jobs: usize,
    /// Re-validate every UNSAT acceptance verdict of the SAT verifier
    /// with the forward RUP/DRAT checker before a candidate is accepted.
    /// No effect on the simulation verifier. A checker rejection aborts
    /// the run with [`AnalysisError::CertificateRejected`]: it means the
    /// solver, and hence the acceptance, is unsound.
    pub certify: bool,
    /// Resource control shared with the rest of the analysis stack: a
    /// deadline or cancellation stops the run at the next generation
    /// boundary (anytime — the best-so-far is returned), and is also
    /// observed *inside* every verification solver call.
    pub ctl: ResourceCtl,
    /// Analysis backend for the fitness oracle. With [`Backend::Bdd`] or
    /// [`Backend::Auto`], each candidate's error bound is first checked
    /// by an exact BDD characteristic-function maximum; a node-budget
    /// blow-up falls back to the configured [`Verifier`]. Candidates
    /// already fan out across the [`SearchOptions::jobs`] worker fleet,
    /// so the per-candidate schedule is staged rather than raced.
    pub backend: Backend,
    /// Node budget for the BDD oracle attempt (see
    /// [`axmc_core::DEFAULT_BDD_NODE_LIMIT`]).
    pub bdd_node_limit: usize,
    /// Consult the static tier (ternary abstract interpretation plus
    /// concrete probing over the swept error miter) before any oracle or
    /// verifier runs on a candidate. A statically decided candidate
    /// never touches a solver; decisions are counted in the
    /// `cgp.verify.static_decided` metric. On by default; disable to
    /// reproduce the solver-only verification schedule.
    pub static_prescreen: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            threshold: 0,
            population: 4,
            max_mutations: 8,
            max_generations: 10_000,
            time_limit: Duration::from_secs(60),
            verifier: Verifier::Sat {
                budget: Budget::unlimited().with_conflicts(20_000),
            },
            area_model: AreaModel::nm45(),
            seed: 1,
            extra_cols: 0,
            jobs: 1,
            certify: false,
            ctl: ResourceCtl::unlimited(),
            backend: Backend::default(),
            bdd_node_limit: DEFAULT_BDD_NODE_LIMIT,
            static_prescreen: true,
        }
    }
}

/// Counters describing one evolutionary run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Generations executed.
    pub generations: u64,
    /// Offspring produced.
    pub offspring: u64,
    /// Offspring absorbed as neutral mutations (no evaluation needed).
    pub skipped_neutral: u64,
    /// Offspring discarded by the area filter (no verification needed).
    pub skipped_area: u64,
    /// Verifier invocations.
    pub verifier_calls: u64,
    /// Verifier said the error bound holds (UNSAT miter).
    pub verified_ok: u64,
    /// Verifier found a violating input (SAT miter).
    pub verified_violation: u64,
    /// Verifier ran out of resources (candidate discarded).
    pub verified_timeout: u64,
    /// Accepted improvements (new best).
    pub improvements: u64,
    /// `(generation, estimated area)` at every improvement.
    pub area_history: Vec<(u64, f64)>,
    /// Total wall-clock of the run.
    pub elapsed: Duration,
    /// Why the run stopped early, if a deadline or cancellation raised
    /// through [`SearchOptions::ctl`] cut it short (`None` when the run
    /// ended on its own generation/time limits).
    pub interrupt: Option<Interrupt>,
}

impl SearchStats {
    /// Offspring evaluated per second (including skipped ones).
    pub fn evals_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.offspring as f64 / secs
        }
    }
}

/// Observability hooks shared by the combinational and sequential search
/// loops: throttled `cgp.progress` events (at most ~4/s, so tracing a
/// long run stays cheap), one event per improvement, and end-of-run
/// counters.
pub(crate) struct SearchObs {
    engine: &'static str,
    start: Instant,
    limit: Duration,
    last_progress: Option<Instant>,
}

impl SearchObs {
    pub(crate) fn new(engine: &'static str, start: Instant, limit: Duration) -> Self {
        SearchObs {
            engine,
            start,
            limit,
            last_progress: None,
        }
    }

    /// Call once per generation; emits `cgp.progress` at most every 250ms.
    pub(crate) fn progress(&mut self, stats: &SearchStats, best_area: f64) {
        if !axmc_obs::tracing_active() {
            return;
        }
        if let Some(last) = self.last_progress {
            if last.elapsed() < Duration::from_millis(250) {
                return;
            }
        }
        self.last_progress = Some(Instant::now());
        let elapsed = self.start.elapsed();
        let secs = elapsed.as_secs_f64();
        let evals_per_sec = if secs > 0.0 {
            stats.offspring as f64 / secs
        } else {
            0.0
        };
        axmc_obs::emit(
            axmc_obs::Event::new("cgp.progress")
                .field("engine", self.engine)
                .field("generation", stats.generations)
                .field("best_area", best_area)
                .field("offspring", stats.offspring)
                .field("evals_per_sec", evals_per_sec)
                .field("improvements", stats.improvements)
                // Elapsed/limit let trace consumers compute completion
                // rate and ETA without knowing the CLI's arguments.
                .field(
                    "elapsed_ms",
                    elapsed.as_millis().min(u64::MAX as u128) as u64,
                )
                .field(
                    "limit_ms",
                    self.limit.as_millis().min(u64::MAX as u128) as u64,
                ),
        );
    }

    /// Call on every accepted improvement.
    pub(crate) fn improvement(&self, generation: u64, area: f64, golden_area: f64) {
        if !axmc_obs::tracing_active() {
            return;
        }
        let relative = if golden_area > 0.0 {
            area / golden_area
        } else {
            1.0
        };
        axmc_obs::emit(
            axmc_obs::Event::new("cgp.improvement")
                .field("engine", self.engine)
                .field("generation", generation)
                .field("area", area)
                .field("relative_area", relative),
        );
    }

    /// Call once at the end of the run; records the aggregate counters.
    pub(crate) fn finish(&self, stats: &SearchStats, best_area: f64, golden_area: f64) {
        if !axmc_obs::enabled() {
            return;
        }
        axmc_obs::counter("cgp.runs").inc();
        axmc_obs::counter("cgp.generations").add(stats.generations);
        axmc_obs::counter("cgp.offspring").add(stats.offspring);
        axmc_obs::counter("cgp.skipped_neutral").add(stats.skipped_neutral);
        axmc_obs::counter("cgp.skipped_area").add(stats.skipped_area);
        axmc_obs::counter("cgp.verify.ok").add(stats.verified_ok);
        axmc_obs::counter("cgp.verify.violation").add(stats.verified_violation);
        axmc_obs::counter("cgp.verify.timeout").add(stats.verified_timeout);
        axmc_obs::counter("cgp.improvements").add(stats.improvements);
        if stats.interrupt.is_some() {
            axmc_obs::counter("cgp.interrupted").inc();
        }
        axmc_obs::histogram("cgp.run.time_us")
            .record(stats.elapsed.as_micros().min(u64::MAX as u128) as u64);
        if axmc_obs::tracing_active() {
            axmc_obs::emit(
                axmc_obs::Event::new("cgp.done")
                    .field("engine", self.engine)
                    .field("generations", stats.generations)
                    .field("offspring", stats.offspring)
                    .field("improvements", stats.improvements)
                    .field("best_area", best_area)
                    .field(
                        "relative_area",
                        if golden_area > 0.0 {
                            best_area / golden_area
                        } else {
                            1.0
                        },
                    )
                    .field("evals_per_sec", stats.evals_per_sec()),
            );
        }
    }
}

/// The outcome of one evolutionary run.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The best chromosome found.
    pub best: Chromosome,
    /// Its decoded, compacted netlist.
    pub netlist: Netlist,
    /// Its estimated area under the run's area model.
    pub area: f64,
    /// The golden circuit's estimated area (for relative reporting).
    pub golden_area: f64,
    /// Run counters.
    pub stats: SearchStats,
}

impl SearchResult {
    /// Area of the result relative to the golden circuit (1.0 = no saving).
    pub fn relative_area(&self) -> f64 {
        if self.golden_area == 0.0 {
            1.0
        } else {
            self.area / self.golden_area
        }
    }
}

/// Runs the verifiability-driven search: approximates `golden` down to the
/// smallest circuit found whose worst-case error provably stays within
/// `options.threshold`.
///
/// The search is seeded with the golden circuit itself, so every
/// intermediate best is a *verified* approximation — which is also what
/// makes the run *anytime*: a deadline or cancellation raised through
/// `options.ctl` returns the best-so-far (with the reason in
/// [`SearchStats::interrupt`]) instead of aborting.
///
/// # Errors
///
/// Returns [`AnalysisError::CertificateRejected`] when certified mode is
/// on and an UNSAT acceptance certificate fails validation — the search
/// cannot continue past an unsound verdict. Resource exhaustion is *not*
/// an error: it ends the run early with the best verified circuit.
///
/// # Examples
///
/// ```
/// use axmc_circuit::generators::ripple_carry_adder;
/// use axmc_cgp::{evolve, SearchOptions};
/// use std::time::Duration;
///
/// let golden = ripple_carry_adder(4);
/// let options = SearchOptions {
///     threshold: 3,
///     max_generations: 300,
///     time_limit: Duration::from_secs(10),
///     ..SearchOptions::default()
/// };
/// let result = evolve(&golden, &options)?;
/// assert!(result.area <= result.golden_area);
/// # Ok::<(), axmc_core::AnalysisError>(())
/// ```
///
/// # Panics
///
/// Panics if `golden` has no inputs or outputs.
pub fn evolve(golden: &Netlist, options: &SearchOptions) -> Result<SearchResult, AnalysisError> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let golden_aig = golden.to_aig().compact();
    let golden_area = golden.area(&options.area_model);

    let mut best = Chromosome::from_netlist(golden, options.extra_cols);
    let mut best_area = golden_area;
    let mut stats = SearchStats::default();
    let mut obs = SearchObs::new("comb", start, options.time_limit);

    // The golden cone and the threshold comparator are candidate-invariant:
    // encode them once, clone per acceptance query.
    let oracle = match options.verifier {
        Verifier::Sat { budget } => Some(SatOracle::new(&golden_aig, options, budget)),
        Verifier::Simulation => None,
    };

    let jobs = options.jobs.max(1);
    for generation in 0..options.max_generations {
        if let Some(reason) = options.ctl.interrupted() {
            stats.interrupt = Some(reason);
            break;
        }
        if start.elapsed() >= options.time_limit {
            break;
        }
        stats.generations = generation + 1;
        obs.progress(&stats, best_area);
        // One span per generation; the verifier fleet below re-parents
        // its per-candidate spans onto this one (see `axmc_par`), so a
        // trace reconstructs generation -> candidate-verify branches.
        let _generation = axmc_obs::span("cgp.generation.time_us");
        // Breed the whole generation serially: one RNG stream, so every
        // child is identical regardless of the worker count. Neutral
        // drift and the area filter need no evaluation and apply here;
        // only the surviving candidates reach the verifier fleet.
        let mut candidates: Vec<(Chromosome, Netlist, f64)> =
            Vec::with_capacity(options.population);
        for _ in 0..options.population {
            stats.offspring += 1;
            let mut child = best.clone();
            let touched_active = child.mutate(options.max_mutations, &mut rng);

            if !touched_active {
                // Neutral drift: same behavior, same area; adopt to move
                // through the neutral landscape without re-evaluation.
                stats.skipped_neutral += 1;
                best = child;
                continue;
            }
            let netlist = child.decode();
            let area = netlist.area(&options.area_model);
            if area > best_area {
                stats.skipped_area += 1;
                continue;
            }
            stats.verifier_calls += 1;
            candidates.push((child, netlist, area));
        }
        // Verify on the fleet — each candidate solves on its own clone of
        // the shared prototype — and merge the verdicts in candidate
        // order, so the accepted trajectory is byte-identical for every
        // `jobs` value.
        let verdicts = axmc_par::parallel_map(jobs, &candidates, |_, (_, netlist, _)| {
            verify(&golden_aig, netlist, options, oracle.as_ref())
        });
        for ((child, _, area), verdict) in candidates.into_iter().zip(verdicts) {
            match verdict? {
                CandidateVerdict::WithinBound => {
                    stats.verified_ok += 1;
                    // An earlier sibling may have lowered the bar below
                    // this candidate's area; only adopt if still no worse.
                    if area <= best_area {
                        let improved = area < best_area;
                        best = child;
                        best_area = area;
                        if improved {
                            stats.improvements += 1;
                            stats.area_history.push((generation, area));
                            obs.improvement(generation, area, golden_area);
                        }
                    }
                }
                CandidateVerdict::Violation => stats.verified_violation += 1,
                CandidateVerdict::ResourceLimit(reason) => {
                    stats.verified_timeout += 1;
                    record_degraded(reason);
                }
            }
        }
    }
    stats.elapsed = start.elapsed();
    obs.finish(&stats, best_area, golden_area);
    let netlist = best.decode().compact();
    Ok(SearchResult {
        best,
        netlist,
        area: best_area,
        golden_area,
        stats,
    })
}

/// How one candidate fared against the error bound.
pub(crate) enum CandidateVerdict {
    WithinBound,
    Violation,
    /// Verification stopped before a verdict; the candidate is skipped,
    /// never escalated into an abort.
    ResourceLimit(Interrupt),
}

/// Counts a verification that was cut short by *shared* resource
/// pressure (deadline, cancellation) rather than the per-candidate
/// budget — the degradations an operator wants to see when a run under a
/// `--timeout` starts discarding candidates it would otherwise accept.
pub(crate) fn record_degraded(reason: Interrupt) {
    if !axmc_obs::enabled() {
        return;
    }
    if matches!(reason, Interrupt::Deadline | Interrupt::Cancelled) {
        axmc_obs::counter("cgp.verify.degraded").inc();
    }
}

/// The BDD oracle attempt for one candidate: `Ok(Some(wce))` when the
/// BDD fit its node budget, `Ok(None)` on a blow-up or width overflow
/// (caller falls back to the configured verifier), `Err(reason)` on a
/// deadline/cancellation interrupt.
fn bdd_worst_case(
    golden_aig: &Aig,
    cand_aig: &Aig,
    options: &SearchOptions,
) -> Result<Option<u128>, Interrupt> {
    let miter = abs_diff_word_miter(golden_aig, cand_aig).compact();
    match axmc_bdd::exact_word_max(&miter, 1, true, options.bdd_node_limit, &options.ctl) {
        Ok((wce, _nodes)) => {
            axmc_obs::counter("engine.selected.bdd").inc();
            Ok(Some(wce[0]))
        }
        Err(axmc_bdd::BuildBddError::Interrupted(reason)) => Err(reason),
        Err(_) => {
            axmc_obs::counter("engine.fallback").inc();
            Ok(None)
        }
    }
}

/// Probe vectors for the per-candidate static pre-screen: smaller than
/// the analyzer-facing default because the pre-screen runs once per
/// offspring, and a miss only costs falling through to the oracle.
const PRESCREEN_VECTORS: usize = 64;

/// The static pre-screen for one candidate: sweep the |G−C| miter and
/// try to decide the acceptance query from the certified interval plus
/// concrete probing alone. `None` means undecided (caller falls through
/// to the oracle/verifier schedule).
fn static_prescreen(golden_aig: &Aig, cand_aig: &Aig, threshold: u128) -> Option<CandidateVerdict> {
    use axmc_check::absint::{static_word_bounds, StaticOutcome};
    let (swept, _) = axmc_check::absint::sweep(&abs_diff_word_miter(golden_aig, cand_aig));
    match static_word_bounds(&swept, PRESCREEN_VECTORS)?.outcome(threshold) {
        StaticOutcome::Proved => Some(CandidateVerdict::WithinBound),
        StaticOutcome::Refuted { .. } => Some(CandidateVerdict::Violation),
        StaticOutcome::Undecided => None,
    }
}

/// The reusable SAT acceptance oracle of one evolutionary run.
///
/// The golden cone is the same for every candidate, so it is built and
/// Tseitin-encoded **once**: into a prototype AIG (whose strash table it
/// seeds) and a matching prototype [`Solver`]. Verifying a candidate
/// clones both, strashes the candidate cone into the AIG clone — gates
/// the mutation left untouched merge with the golden cone's, exactly as
/// in [`axmc_miter::diff_threshold_miter`] — builds the
/// `|int(G) - int(C)| > T` comparator on top, and then encodes only the
/// genuinely new gates into the solver clone via
/// [`axmc_cnf::extend_frame`]. The golden clauses travel as a flat copy,
/// never re-encoded, and the strash merging keeps the equivalence probes
/// as easy as a from-scratch miter.
///
/// Every candidate starts from a byte-identical clone of the same
/// prototype, so verdicts do not depend on which worker runs them — the
/// jobs-invariance of the search trajectory is preserved.
pub(crate) struct SatOracle {
    proto_aig: Aig,
    proto: Solver,
    frame: FrameEncoding,
    /// AIG literals of the shared primary inputs inside `proto_aig`.
    aig_inputs: Vec<AigLit>,
    /// Golden output word inside `proto_aig`.
    golden_out: Word,
    threshold: u128,
}

impl SatOracle {
    /// Embeds and encodes the golden cone into the prototype AIG/solver
    /// pair. `budget` is the per-candidate solve budget (layered onto the
    /// run's shared [`SearchOptions::ctl`]).
    fn new(golden_aig: &Aig, options: &SearchOptions, budget: Budget) -> Self {
        let mut proto_aig = Aig::new();
        let aig_inputs = proto_aig.add_inputs(golden_aig.num_inputs());
        let golden_out = Word::from_lits(embed_comb(&mut proto_aig, golden_aig, &aig_inputs));

        let mut proto = Solver::with_config(
            SolverConfig::new()
                .with_ctl(options.ctl.clone().with_budget(budget))
                .with_proof_logging(options.certify),
        );
        let const_false = assert_const_false(&mut proto);
        let inputs: Vec<SatLit> = (0..proto_aig.num_inputs())
            .map(|_| proto.new_var().positive())
            .collect();
        let frame = encode_frame(&proto_aig, &mut proto, &inputs, &[], const_false);
        SatOracle {
            proto_aig,
            proto,
            frame,
            aig_inputs,
            golden_out,
            threshold: options.threshold,
        }
    }

    /// One acceptance query: clones the prototype pair, strashes the
    /// candidate cone and the threshold comparator into the AIG clone,
    /// encodes the new gates into the solver clone, and solves under the
    /// assumption that the error flag is raised. Returns the solver
    /// alongside the verdict so certified callers can validate the proof.
    fn check(&self, cand_aig: &Aig) -> (Solver, SolveResult) {
        let mut aig = self.proto_aig.clone();
        let cand_out = Word::from_lits(embed_comb(&mut aig, cand_aig, &self.aig_inputs));
        let diff = self.golden_out.sub_signed(&mut aig, &cand_out);
        let bad = diff_exceeds(&mut aig, &diff, self.threshold);

        let mut solver = self.proto.clone();
        let mut frame = self.frame.clone();
        extend_frame(&aig, &mut solver, &mut frame);
        let result = solver.solve_with_assumptions(&[frame.lit(bad)]);
        (solver, result)
    }
}

fn verify(
    golden_aig: &Aig,
    candidate: &Netlist,
    options: &SearchOptions,
    oracle: Option<&SatOracle>,
) -> Result<CandidateVerdict, AnalysisError> {
    let _span = axmc_obs::span("cgp.verify.time_us");
    if options.static_prescreen {
        let cand_aig = candidate.to_aig();
        if let Some(verdict) = static_prescreen(golden_aig, &cand_aig, options.threshold) {
            axmc_obs::counter("cgp.verify.static_decided").inc();
            return Ok(verdict);
        }
    }
    if matches!(options.backend, Backend::Bdd | Backend::Auto) {
        let cand_aig = candidate.to_aig();
        match bdd_worst_case(golden_aig, &cand_aig, options) {
            Ok(Some(wce)) => {
                return Ok(if wce <= options.threshold {
                    CandidateVerdict::WithinBound
                } else {
                    CandidateVerdict::Violation
                });
            }
            Ok(None) => {} // blow-up: fall through to the configured verifier
            Err(reason) => return Ok(CandidateVerdict::ResourceLimit(reason)),
        }
    }
    match options.verifier {
        Verifier::Sat { .. } => {
            let cand_aig = candidate.to_aig();
            let oracle = oracle.expect("the SAT verifier runs against a prebuilt oracle");
            let (solver, result) = oracle.check(&cand_aig);
            match result {
                SolveResult::Unsat => {
                    if options.certify {
                        if let Err(e) = axmc_check::certify_unsat(&solver) {
                            return Err(AnalysisError::CertificateRejected {
                                engine: "cgp".to_string(),
                                detail: format!(
                                    "UNSAT certificate for a candidate acceptance failed \
                                     validation ({e})"
                                ),
                            });
                        }
                    }
                    Ok(CandidateVerdict::WithinBound)
                }
                SolveResult::Sat => Ok(CandidateVerdict::Violation),
                SolveResult::Unknown => Ok(CandidateVerdict::ResourceLimit(
                    solver.last_interrupt().unwrap_or(Interrupt::Conflicts),
                )),
            }
        }
        Verifier::Simulation => {
            let cand_aig = candidate.to_aig();
            let stats = exhaustive_stats(golden_aig, &cand_aig);
            if stats.wce <= options.threshold {
                Ok(CandidateVerdict::WithinBound)
            } else {
                Ok(CandidateVerdict::Violation)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_circuit::generators;
    use axmc_sat::CancelToken;

    fn quick_options(threshold: u128) -> SearchOptions {
        SearchOptions {
            threshold,
            population: 4,
            max_mutations: 4,
            max_generations: 400,
            time_limit: Duration::from_secs(30),
            seed: 5,
            extra_cols: 4,
            ..SearchOptions::default()
        }
    }

    /// The invariant the whole method rests on: the final circuit's true
    /// worst-case error never exceeds the threshold.
    fn assert_result_within(golden: &Netlist, result: &SearchResult, threshold: u128) {
        let width = golden.num_inputs() / 2;
        for a in 0..(1u128 << width) {
            for b in 0..(1u128 << width) {
                let g = golden.eval_binop(a, b);
                let c = result.netlist.eval_binop(a, b);
                assert!(
                    g.abs_diff(c) <= threshold,
                    "violation at {a},{b}: {g} vs {c}"
                );
            }
        }
    }

    #[test]
    fn evolve_shrinks_adder_within_bound() {
        let golden = generators::ripple_carry_adder(4);
        let result = evolve(&golden, &quick_options(3)).unwrap();
        assert!(result.area < result.golden_area, "no reduction achieved");
        assert_result_within(&golden, &result, 3);
        assert!(result.stats.improvements > 0);
        assert!(result.stats.verifier_calls > 0);
        assert_eq!(result.stats.interrupt, None);
    }

    #[test]
    fn certified_evolution_accepts_only_checked_candidates() {
        // Same run as evolve_shrinks_adder_within_bound, but every UNSAT
        // acceptance verdict must survive the RUP/DRAT checker (a
        // rejection aborts the run). The trajectory is identical:
        // certification observes the solver, it never steers it.
        let golden = generators::ripple_carry_adder(4);
        let plain = evolve(&golden, &quick_options(3)).unwrap();
        let certified = evolve(
            &golden,
            &SearchOptions {
                certify: true,
                ..quick_options(3)
            },
        )
        .unwrap();
        assert!(certified.stats.verified_ok > 0);
        assert_eq!(plain.stats.verified_ok, certified.stats.verified_ok);
        assert_eq!(plain.area, certified.area);
        assert_result_within(&golden, &certified, 3);
    }

    #[test]
    fn zero_threshold_preserves_exactness() {
        let golden = generators::ripple_carry_adder(3);
        let result = evolve(&golden, &quick_options(0)).unwrap();
        assert_result_within(&golden, &result, 0);
    }

    #[test]
    fn bdd_oracle_reproduces_the_sat_trajectory() {
        // Both oracles are exact on these widths, so every per-candidate
        // verdict — and hence the whole deterministic search trajectory —
        // must coincide.
        let golden = generators::ripple_carry_adder(4);
        let sat = evolve(&golden, &quick_options(3)).unwrap();
        for backend in [Backend::Bdd, Backend::Auto] {
            let bdd = evolve(
                &golden,
                &SearchOptions {
                    backend,
                    ..quick_options(3)
                },
            )
            .unwrap();
            assert_eq!(sat.area, bdd.area, "{backend:?}");
            assert_eq!(
                sat.stats.improvements, bdd.stats.improvements,
                "{backend:?}"
            );
            assert_result_within(&golden, &bdd, 3);
        }
    }

    #[test]
    fn static_prescreen_reproduces_the_solver_trajectory() {
        // The pre-screen's Proved/Refuted answers are certified, so every
        // per-candidate verdict — and hence the whole deterministic
        // search trajectory — must coincide with the solver-only run.
        let golden = generators::ripple_carry_adder(4);
        let screened = evolve(&golden, &quick_options(3)).unwrap();
        let plain = evolve(
            &golden,
            &SearchOptions {
                static_prescreen: false,
                ..quick_options(3)
            },
        )
        .unwrap();
        assert_eq!(screened.area, plain.area);
        assert_eq!(screened.stats.improvements, plain.stats.improvements);
        assert_result_within(&golden, &screened, 3);
    }

    #[test]
    fn bdd_oracle_blowup_falls_back_to_the_configured_verifier() {
        let golden = generators::ripple_carry_adder(4);
        let sat = evolve(&golden, &quick_options(3)).unwrap();
        let starved = evolve(
            &golden,
            &SearchOptions {
                backend: Backend::Bdd,
                bdd_node_limit: 0, // clamps to the floor: every build blows up
                ..quick_options(3)
            },
        )
        .unwrap();
        assert_eq!(sat.area, starved.area);
        assert_result_within(&golden, &starved, 3);
    }

    #[test]
    fn simulation_verifier_agrees_with_sat() {
        let golden = generators::ripple_carry_adder(3);
        let mut opts = quick_options(2);
        opts.verifier = Verifier::Simulation;
        let result = evolve(&golden, &opts).unwrap();
        assert_result_within(&golden, &result, 2);
    }

    #[test]
    fn stats_are_consistent() {
        let golden = generators::ripple_carry_adder(4);
        let opts = quick_options(5);
        let result = evolve(&golden, &opts).unwrap();
        let s = &result.stats;
        assert_eq!(
            s.offspring,
            s.skipped_neutral + s.skipped_area + s.verifier_calls
        );
        assert_eq!(
            s.verifier_calls,
            s.verified_ok + s.verified_violation + s.verified_timeout
        );
        assert!(s.evals_per_sec() > 0.0);
        // Area history is decreasing.
        for w in s.area_history.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn determinism_given_seed() {
        let golden = generators::ripple_carry_adder(3);
        let mut opts = quick_options(2);
        opts.max_generations = 100;
        opts.time_limit = Duration::from_secs(600); // generations bound only
        let a = evolve(&golden, &opts).unwrap();
        let b = evolve(&golden, &opts).unwrap();
        assert_eq!(a.best.genes(), b.best.genes());
        assert_eq!(a.area, b.area);
    }

    /// The tentpole guarantee: the verification fleet only changes
    /// wall-clock time. Byte-identical trajectory for every jobs value.
    #[test]
    fn jobs_do_not_change_the_trajectory() {
        let golden = generators::ripple_carry_adder(3);
        let mut opts = quick_options(2);
        opts.max_generations = 80;
        opts.time_limit = Duration::from_secs(600); // generations bound only
        let serial = evolve(&golden, &opts).unwrap();
        for jobs in [2usize, 4, 8] {
            let mut par_opts = opts.clone();
            par_opts.jobs = jobs;
            let par = evolve(&golden, &par_opts).unwrap();
            assert_eq!(serial.best.genes(), par.best.genes(), "jobs {jobs}");
            assert_eq!(serial.area, par.area, "jobs {jobs}");
            let mut a = serial.stats.clone();
            let mut b = par.stats.clone();
            a.elapsed = Duration::ZERO;
            b.elapsed = Duration::ZERO;
            assert_eq!(a, b, "jobs {jobs}");
        }
    }

    #[test]
    fn tight_budget_rejects_instead_of_stalling() {
        let golden = generators::array_multiplier(3);
        let mut opts = quick_options(8);
        opts.max_generations = 60;
        opts.verifier = Verifier::Sat {
            budget: Budget::unlimited().with_conflicts(1).with_propagations(100),
        };
        let result = evolve(&golden, &opts).unwrap();
        // With such a tiny budget, most non-trivial verifications time out;
        // the run must still terminate quickly and keep a valid best.
        assert_result_within(&golden, &result, 8);
    }

    #[test]
    fn results_never_exceed_golden_area() {
        // The area filter makes "never worse than the seed" a hard
        // invariant regardless of threshold (trajectories are stochastic,
        // so cross-threshold comparisons are only statistical).
        let golden = generators::ripple_carry_adder(4);
        for threshold in [1, 15] {
            let r = evolve(&golden, &quick_options(threshold)).unwrap();
            assert!(r.area <= r.golden_area + 1e-9, "threshold {threshold}");
            assert_result_within(&golden, &r, threshold);
        }
    }

    #[test]
    fn expired_deadline_returns_the_golden_seed_anytime() {
        // A deadline that has already passed stops the run before the
        // first generation; the anytime contract hands back the (always
        // verified) seed instead of erroring.
        let golden = generators::ripple_carry_adder(4);
        let mut opts = quick_options(3);
        opts.ctl = ResourceCtl::unlimited().with_timeout(Duration::ZERO);
        let result = evolve(&golden, &opts).unwrap();
        assert_eq!(result.stats.interrupt, Some(Interrupt::Deadline));
        assert_eq!(result.stats.generations, 0);
        assert_eq!(result.area, result.golden_area);
        assert_result_within(&golden, &result, 0);
    }

    #[test]
    fn cancellation_stops_the_search_with_best_so_far() {
        let golden = generators::ripple_carry_adder(4);
        let token = CancelToken::new();
        token.cancel();
        let mut opts = quick_options(3);
        opts.ctl = ResourceCtl::unlimited().with_cancel(token);
        let result = evolve(&golden, &opts).unwrap();
        assert_eq!(result.stats.interrupt, Some(Interrupt::Cancelled));
        assert_eq!(result.area, result.golden_area);
    }

    #[test]
    fn per_query_deadline_skips_candidates_without_aborting() {
        // A per-call timeout of zero makes every verification come back
        // Unknown(Deadline). Candidates must be skipped — not escalated
        // into an abort — and the run must still complete all
        // generations, keeping the seed as its best.
        let golden = generators::ripple_carry_adder(3);
        let mut opts = quick_options(2);
        opts.max_generations = 10;
        opts.ctl = ResourceCtl::unlimited().with_query_timeout(Duration::ZERO);
        // The static pre-screen decides some candidates without any
        // solver call; off here, since this test is about the solver
        // path under a zero per-query deadline.
        opts.static_prescreen = false;
        let result = evolve(&golden, &opts).unwrap();
        assert_eq!(result.stats.interrupt, None);
        assert_eq!(result.stats.generations, 10);
        assert_eq!(result.stats.verified_ok, 0);
        assert_eq!(result.stats.verified_timeout, result.stats.verifier_calls);
        assert_eq!(result.area, result.golden_area);
    }

    #[test]
    fn generous_timeout_is_byte_identical_to_no_timeout() {
        // A deadline that never trips must not perturb the trajectory:
        // resource governance observes the search, it never steers it.
        let golden = generators::ripple_carry_adder(3);
        let mut opts = quick_options(2);
        opts.max_generations = 80;
        opts.time_limit = Duration::from_secs(600); // generations bound only
        let plain = evolve(&golden, &opts).unwrap();
        let mut timed_opts = opts.clone();
        timed_opts.ctl = ResourceCtl::unlimited().with_timeout(Duration::from_secs(3600));
        let timed = evolve(&golden, &timed_opts).unwrap();
        assert_eq!(plain.best.genes(), timed.best.genes());
        assert_eq!(plain.area, timed.area);
        let mut a = plain.stats.clone();
        let mut b = timed.stats.clone();
        a.elapsed = Duration::ZERO;
        b.elapsed = Duration::ZERO;
        assert_eq!(a, b);
    }
}
