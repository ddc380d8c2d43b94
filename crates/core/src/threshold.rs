//! The one SAT engine behind every threshold search and threshold probe.
//!
//! Each metric asks the same question: can a per-cycle error word
//! exceed `t` within `k` cycles? [`ThresholdEngine`] answers it on one
//! warm BMC unrolling of the word miter, as the SAT stage of the shared
//! route ([`crate::route`]): the sequential searches, probes and
//! [`SeqProbe`](crate::SeqProbe) sessions, and, at horizon 0 over a
//! latch-free miter, the combinational searches and probes, the MSB scan
//! and the error-input count. Frame 0 of a latch-free miter is exactly
//! `encode_comb`'s CNF, with the same variable order, so a combinational
//! search is the frame-major search at `k = 0`.
//!
//! A probe asks the frames one at a time, first frame first, each under
//! the single assumption `exceeds_f(t)`. A satisfiable frame ends the
//! probe with a witnessing trace. An unsatisfiable one proves
//! `word_f <= t`; the engine keeps `¬exceeds_f(t)` as a derived root
//! unit, so the bound is propagated while the next frame is asked, and
//! remembers it, so a later probe at any `t' >= t` skips the frame
//! without a solve. One solve over the OR of all `k + 1` comparators
//! would have to refute every frame in a single search and could not use
//! frame `f`'s bound while working on frame `f + 1`: on `fir4_8/loa4` at
//! k = 6 it needs 59,077 conflicts where the per-frame solves need
//! 15,460 together.
//!
//! The engine never sweeps: callers hand it the miter already compacted,
//! and statically reduced when their screen ran.

use crate::bound_search::{record_search, search_window};
use crate::options::AnalysisOptions;
use crate::report::{AnalysisError, Partial};
use crate::verdict::Verdict;
use axmc_aig::Aig;
use axmc_cnf::gates;
use axmc_mc::{Trace, Unroller};
use axmc_sat::{Budget, Interrupt, Lit, ResourceCtl, SolveResult};

/// How a threshold engine interprets the miter's output word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WordKind {
    /// Two's-complement difference (sign bit last): probe `|diff| > t`.
    SignedDiff,
    /// Unsigned magnitude (popcount, running total, cycle count): probe
    /// `word > t`.
    Unsigned,
}

/// A persistent incremental engine for threshold probes over a BMC
/// unrolling: the word miter is encoded **once**; every frame a probe
/// asks adds a small comparator at the clause level and solves under one
/// assumption, so learnt clauses and proven per-frame bounds amortize
/// across the entire search (see the module docs).
pub(crate) struct ThresholdEngine {
    pub(crate) unroller: Unroller,
    kind: WordKind,
    /// The unrolled miter's sequential depth: no probe encodes or asks a
    /// frame past it. `None` when the outputs' cone has a latch cycle.
    pub(crate) depth: Option<usize>,
    /// Per frame, the smallest `t` for which `word_f <= t` is proved and
    /// held as the derived unit `¬exceeds_f(t)`; a probe at any
    /// threshold `>= t` skips the frame. In certified mode only bounds
    /// a DRAT check has already covered are entered here.
    proved: Vec<Option<u128>>,
    /// Certified mode: `(frame, t)` bounds proved since the last DRAT
    /// check. The next check replays their derived clauses and moves
    /// them into `proved`.
    unchecked: Vec<(usize, u128)>,
    /// Solver calls issued by probes.
    pub(crate) frame_solves: u64,
    /// Frames answered from a proven bound instead of a solve.
    pub(crate) frames_reused: u64,
    /// DRAT checks run (certified mode).
    pub(crate) checks: u64,
}

impl ThresholdEngine {
    /// An engine over `miter`, whose outputs form the word `kind` reads,
    /// configured by `options` (resource control, certification,
    /// inprocessing). The miter is unrolled as given.
    pub(crate) fn new(miter: Aig, kind: WordKind, options: &AnalysisOptions) -> Self {
        let mut unroller = Unroller::new(miter);
        unroller.configure(&options.solver_config());
        let depth = unroller.aig().sequential_depth();
        ThresholdEngine {
            unroller,
            kind,
            depth,
            proved: Vec::new(),
            unchecked: Vec::new(),
            frame_solves: 0,
            frames_reused: 0,
            checks: 0,
        }
    }

    /// The last frame a query at horizon `k` has to ask.
    fn last_frame(&self, k: usize) -> usize {
        self.depth.map_or(k, |d| d.min(k))
    }

    /// Can the per-cycle word exceed `threshold` in any cycle `<= k`?
    ///
    /// The frames up to `min(k, depth)` are asked first to last, and a
    /// witnessing trace is padded to `k + 1` cycles with all-false
    /// inputs. The solver's resource control governs the whole probe:
    /// each frame's solve gets the conflict and propagation budget the
    /// earlier frames left, and the per-call timeout runs from the start
    /// of the probe. In certified mode a probe that solved at least one
    /// frame ends `Proved` only after one DRAT check, which covers every
    /// frame's derived bound.
    pub(crate) fn probe(
        &mut self,
        threshold: u128,
        k: usize,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        let last = self.last_frame(k);
        if last < k && axmc_obs::enabled() {
            axmc_obs::counter("seq.probe.frames_past_depth").add((k - last) as u64);
        }
        self.unroller.extend_to(last + 1);
        if self.proved.len() <= last {
            self.proved.resize(last + 1, None);
        }
        let base = self.unroller.solver().ctl().clone();
        let verdict = self.probe_frames(threshold, last, &base);
        self.set_ctl(base);
        let width = self.unroller.aig().num_inputs();
        Ok(verdict?.map(|mut trace| {
            trace.inputs.resize(k + 1, vec![false; width]);
            trace
        }))
    }

    fn probe_frames(
        &mut self,
        threshold: u128,
        k: usize,
        base: &ResourceCtl,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        let start = *self.unroller.solver().stats();
        let deadline = base.call_deadline();
        let mut solved = false;
        for frame in 0..=k {
            if self.proved[frame].is_some_and(|bound| bound <= threshold) {
                self.frames_reused += 1;
                if axmc_obs::enabled() {
                    axmc_obs::counter("seq.probe.frames_reused").inc();
                }
                continue;
            }
            let spent = *self.unroller.solver().stats();
            let budget = match remaining_budget(
                base.budget(),
                spent.conflicts - start.conflicts,
                spent.propagations - start.propagations,
            ) {
                Ok(budget) => budget,
                Err(reason) => return Ok(interrupted(reason)),
            };
            let mut ctl = base.clone().with_budget(budget);
            if let Some(deadline) = deadline {
                ctl = ctl.with_deadline(deadline);
            }
            self.set_ctl(ctl);
            let flag = self.exceeds(frame, threshold);
            self.frame_solves += 1;
            if axmc_obs::enabled() {
                axmc_obs::counter("seq.probe.frame_solves").inc();
            }
            let solver = self.unroller.solver_mut();
            match solver.solve_with_assumptions(&[flag]) {
                SolveResult::Sat => {
                    return Ok(Verdict::Refuted {
                        witness: self.unroller.extract_trace(k),
                    })
                }
                SolveResult::Unsat => {
                    solver.add_derived_clause(&[!flag]);
                    solved = true;
                    if self.unroller.certify() {
                        self.unchecked.push((frame, threshold));
                    } else {
                        self.proved[frame] = Some(threshold);
                    }
                }
                SolveResult::Unknown => {
                    return Ok(interrupted(
                        solver.last_interrupt().unwrap_or(Interrupt::Conflicts),
                    ))
                }
            }
        }
        if solved && self.unroller.certify() {
            self.checks += 1;
            if let Err(e) = axmc_check::certify_unsat(self.unroller.solver()) {
                return Err(AnalysisError::CertificateRejected {
                    engine: "threshold".to_string(),
                    detail: format!(
                        "UNSAT certificate for a threshold probe (t={threshold}, \
                         k={k}) failed validation ({e})"
                    ),
                });
            }
            for (frame, bound) in self.unchecked.drain(..) {
                let slot = &mut self.proved[frame];
                *slot = Some(slot.map_or(bound, |b| b.min(bound)));
            }
        }
        Ok(Verdict::Proved)
    }

    /// The comparator literal `word_frame > threshold`, built fresh over
    /// the frame's output literals.
    fn exceeds(&mut self, frame: usize, threshold: u128) -> Lit {
        let true_lit = self.unroller.true_lit();
        let word = self.unroller.frame(frame).outputs.clone();
        let solver = self.unroller.solver_mut();
        match self.kind {
            WordKind::SignedDiff => gates::abs_diff_exceeds(solver, &word, threshold, true_lit),
            WordKind::Unsigned => gates::ugt_const(solver, &word, threshold, true_lit),
        }
    }

    /// Replaces the resource control, keeping every other solver knob.
    pub(crate) fn set_ctl(&mut self, ctl: ResourceCtl) {
        let config = self.unroller.solver().current_config().with_ctl(ctl);
        self.unroller.configure(&config);
    }

    /// Total solver conflicts so far.
    pub(crate) fn conflicts(&self) -> u64 {
        self.unroller.solver().stats().conflicts
    }

    /// Excludes one assignment of the frame-0 inputs from every later
    /// probe. `false` when the solver is left unsatisfiable at its root,
    /// so no assignment remains.
    pub(crate) fn block_inputs(&mut self, assignment: &[bool]) -> bool {
        let clause: Vec<Lit> = self
            .unroller
            .frame(0)
            .inputs
            .iter()
            .zip(assignment)
            .map(|(&lit, &value)| if value { !lit } else { lit })
            .collect();
        self.unroller.solver_mut().add_clause(&clause)
    }

    /// The frame-major search (see the `seq` module docs): the exact
    /// maximum of `metric` over the cycles `<= h` for every horizon
    /// `h = 0..=k`, and the probes the query issued; it counts as one
    /// search in the metrics. The horizons up to `min(k, depth)` are
    /// searched in order; later ones repeat the value at the depth.
    ///
    /// `window` is a `(floor, ceiling)` pair that holds in every cycle:
    /// the floor witnessed, the ceiling sound, both clamped to `max`.
    /// Horizon `h` searches from the larger of the floor and the value
    /// at `h - 1`.
    ///
    /// # Errors
    ///
    /// An interrupted horizon reports its witnessed floor, and a ceiling
    /// that holds for every cycle `<= k`: its own bracket only at the
    /// last horizon, `window`'s ceiling before it.
    pub(crate) fn search(
        &mut self,
        label: &str,
        k: usize,
        max: u128,
        window: (u128, u128),
        metric: impl Fn(&Trace) -> u128,
    ) -> Result<(Vec<u128>, u64), AnalysisError> {
        let last = self.last_frame(k);
        let ceiling = window.1.min(max);
        let mut probes = 0;
        let mut floor = window.0.min(ceiling);
        let mut result = Ok(floor);
        let mut values = Vec::with_capacity(k + 1);
        for h in 0..=last {
            // The last horizon's probes ask about every cycle `<= k`; the
            // probe itself stops at the depth.
            let horizon = if h == last { k } else { h };
            result = search_window(
                label,
                max,
                Some((floor, ceiling)),
                |t| Ok(self.probe(t, horizon)?.map(|trace| metric(&trace))),
                &mut probes,
            );
            match &mut result {
                Ok(value) => {
                    floor = *value;
                    values.push(floor);
                }
                Err(AnalysisError::Interrupted(partial)) if h < last => {
                    partial.known_high = ceiling;
                    break;
                }
                Err(_) => break,
            }
        }
        record_search(label, probes, &result);
        result?;
        values.resize(k + 1, floor);
        Ok((values, probes))
    }
}

/// What is left of a probe's `budget` after its earlier frames spent
/// `conflicts` and `propagations`, or the limit that ran out.
fn remaining_budget(
    budget: Budget,
    conflicts: u64,
    propagations: u64,
) -> Result<Budget, Interrupt> {
    let mut left = Budget::unlimited();
    if let Some(max) = budget.max_conflicts() {
        if conflicts >= max {
            return Err(Interrupt::Conflicts);
        }
        left = left.with_conflicts(max - conflicts);
    }
    if let Some(max) = budget.max_propagations() {
        if propagations >= max {
            return Err(Interrupt::Propagations);
        }
        left = left.with_propagations(max - propagations);
    }
    Ok(left)
}

fn interrupted(reason: Interrupt) -> Verdict<Trace> {
    Verdict::Interrupted {
        best_so_far: Partial::trivial(reason),
    }
}
