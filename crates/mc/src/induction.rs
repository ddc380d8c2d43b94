//! k-induction for unbounded safety proofs.
//!
//! To prove that a single-output miter can *never* raise its output —
//! i.e. the approximation error is bounded for all time — bounded model
//! checking is not enough. k-induction combines a BMC base case with an
//! inductive step over `k` arbitrary consecutive states; optional
//! simple-path constraints make the method complete for finite systems
//! (at possibly large `k`).

use crate::{Bmc, BmcResult, CertificateRejected, Trace};
use axmc_aig::Aig;
use axmc_cnf::{assert_const_false, encode_frame};
use axmc_sat::{Interrupt, Lit as SatLit, ResourceCtl, SolveResult, Solver, SolverConfig};

/// Outcome of an unbounded proof attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofResult {
    /// The property holds in all cycles; proved inductive at the given
    /// strength `k`.
    Proved {
        /// The induction depth at which the step case became unsatisfiable.
        k: usize,
    },
    /// The property is violated; the trace reaches the bad output.
    Falsified(Trace),
    /// Neither proved nor falsified. The partial result is still useful:
    /// `completed_k` leading cycles are known violation-free.
    Unknown {
        /// Number of leading cycles proven clear by completed base-case
        /// checks: all cycles `< completed_k` are known violation-free.
        completed_k: usize,
        /// Why the attempt stopped early, if a resource limit did it;
        /// `None` means `max_k` was exhausted without the step case
        /// closing (the property is simply not k-inductive within range).
        interrupt: Option<Interrupt>,
    },
}

/// Options controlling [`prove_invariant`].
#[derive(Clone, Debug)]
pub struct InductionOptions {
    /// Largest induction depth to try.
    pub max_k: usize,
    /// Resource control (budget, deadline, cancellation) applied to
    /// every SAT call.
    pub ctl: ResourceCtl,
    /// Add pairwise state-disequality (simple path) constraints to the
    /// step case. Needed to prove properties whose inductive strength
    /// comes from non-repetition; costs quadratically many clauses.
    pub simple_path: bool,
    /// Record clausal proofs for every SAT call and validate each UNSAT
    /// answer — base-case clears and the closing inductive step — with
    /// the forward RUP/DRAT checker before reporting a result. A failed
    /// validation surfaces as [`CertificateRejected`]: it means the
    /// underlying solver is unsound.
    pub certify: bool,
}

impl Default for InductionOptions {
    fn default() -> Self {
        InductionOptions {
            max_k: 8,
            ctl: ResourceCtl::unlimited(),
            simple_path: true,
            certify: false,
        }
    }
}

/// Attempts to prove that the single output of `aig` is 0 in all
/// reachable cycles, using k-induction for `k = 1 ..= max_k`.
///
/// # Examples
///
/// ```
/// use axmc_aig::Aig;
/// use axmc_mc::{prove_invariant, InductionOptions, ProofResult};
///
/// // A latch stuck at 0; bad = latch high. Trivially invariant.
/// let mut aig = Aig::new();
/// let q = aig.add_latch(false);
/// aig.set_latch_next(0, q);
/// aig.add_output(q);
///
/// match prove_invariant(&aig, &InductionOptions::default()).unwrap() {
///     ProofResult::Proved { .. } => {}
///     other => panic!("expected proof, got {other:?}"),
/// }
/// ```
///
/// # Errors
///
/// With `certify` on, returns [`CertificateRejected`] if an UNSAT
/// certificate or a counterexample fails independent validation.
///
/// # Panics
///
/// Panics if the AIG does not have exactly one output.
pub fn prove_invariant(
    aig: &Aig,
    options: &InductionOptions,
) -> Result<ProofResult, CertificateRejected> {
    assert_eq!(
        aig.num_outputs(),
        1,
        "k-induction expects a single-output property circuit"
    );
    let mut base = Bmc::with_options(
        aig,
        &SolverConfig::new()
            .with_ctl(options.ctl.clone())
            .with_proof_logging(options.certify),
    );

    let result = run_induction(aig, options, &mut base)?;
    if axmc_obs::enabled() {
        if axmc_obs::tracing_active() {
            axmc_obs::emit(axmc_obs::Event::new("induction.result").field(
                "result",
                match &result {
                    ProofResult::Proved { k } => format!("proved@k={k}"),
                    ProofResult::Falsified(_) => "falsified".to_string(),
                    ProofResult::Unknown { .. } => "unknown".to_string(),
                },
            ));
        }
        if matches!(result, ProofResult::Unknown { .. }) {
            axmc_obs::counter("induction.unknown").inc();
        }
    }
    Ok(result)
}

fn run_induction(
    aig: &Aig,
    options: &InductionOptions,
    base: &mut Bmc,
) -> Result<ProofResult, CertificateRejected> {
    // Cycles 0 .. completed_k are known clear: the anytime payload an
    // interrupted attempt still reports.
    let mut completed_k = 0usize;
    for k in 1..=options.max_k {
        let round = axmc_obs::span("induction.round.time_us");
        if axmc_obs::enabled() {
            axmc_obs::counter("induction.rounds").inc();
            axmc_obs::gauge("induction.max_k").set_max(k as i64);
        }
        // Base case: no violation in cycles 0 .. k-1.
        match base.check_at(k - 1)? {
            BmcResult::Cex(t) => return Ok(ProofResult::Falsified(t)),
            BmcResult::Unknown(reason) => {
                return Ok(ProofResult::Unknown {
                    completed_k,
                    interrupt: Some(reason),
                })
            }
            BmcResult::Clear => completed_k = k,
        }
        // Step case.
        let (step, interrupt) = step_case(aig, k, options)?;
        let time_us = round.finish();
        if axmc_obs::tracing_active() {
            axmc_obs::emit(
                axmc_obs::Event::new("induction.round")
                    .field("k", k)
                    .field(
                        "step",
                        match step {
                            SolveResult::Unsat => "inductive",
                            SolveResult::Sat => "open",
                            SolveResult::Unknown => "interrupted",
                        },
                    )
                    .field("time_us", time_us),
            );
        }
        match step {
            SolveResult::Unsat => return Ok(ProofResult::Proved { k }),
            SolveResult::Unknown => {
                return Ok(ProofResult::Unknown {
                    completed_k,
                    interrupt,
                })
            }
            SolveResult::Sat => {} // not yet inductive; deepen
        }
    }
    Ok(ProofResult::Unknown {
        completed_k,
        interrupt: None,
    })
}

/// Encodes and solves the step case at depth `k`: frames `0..=k` from an
/// arbitrary start state, `!bad` in frames `0..k`, `bad` in frame `k`.
/// UNSAT means the property is k-inductive. The second element of the
/// pair is the interrupt reason when the solve stopped early.
fn step_case(
    aig: &Aig,
    k: usize,
    options: &InductionOptions,
) -> Result<(SolveResult, Option<Interrupt>), CertificateRejected> {
    let mut solver = Solver::with_config(
        SolverConfig::new()
            .with_ctl(options.ctl.clone())
            .with_proof_logging(options.certify),
    );
    let const_false = assert_const_false(&mut solver);

    // Free initial state.
    let mut state: Vec<SatLit> = (0..aig.num_latches())
        .map(|_| solver.new_var().positive())
        .collect();
    let mut states: Vec<Vec<SatLit>> = vec![state.clone()];
    let mut bads: Vec<SatLit> = Vec::with_capacity(k + 1);
    for _ in 0..=k {
        let inputs: Vec<SatLit> = (0..aig.num_inputs())
            .map(|_| solver.new_var().positive())
            .collect();
        let enc = encode_frame(aig, &mut solver, &inputs, &state, const_false);
        bads.push(enc.outputs[0]);
        state = enc.latch_next.clone();
        states.push(state.clone());
    }
    for &b in &bads[..k] {
        solver.add_clause(&[!b]);
    }
    solver.add_clause(&[bads[k]]);

    if options.simple_path {
        add_simple_path_constraints(&mut solver, &states[..=k]);
    }
    let result = solver.solve();
    if options.certify && result == SolveResult::Unsat {
        if let Err(e) = axmc_check::certify_unsat(&solver) {
            return Err(CertificateRejected {
                engine: "induction".to_string(),
                detail: format!(
                    "UNSAT certificate for the k={k} inductive step failed validation ({e})"
                ),
            });
        }
    }
    Ok((result, solver.last_interrupt()))
}

/// Forces all state vectors in the window to be pairwise distinct.
fn add_simple_path_constraints(solver: &mut Solver, states: &[Vec<SatLit>]) {
    if states.first().is_none_or(|s| s.is_empty()) {
        return; // stateless circuit: nothing to distinguish
    }
    for i in 0..states.len() {
        for j in (i + 1)..states.len() {
            // OR over latches of "bits differ" selector variables.
            let mut selectors = Vec::with_capacity(states[i].len());
            for (&a, &b) in states[i].iter().zip(&states[j]) {
                let d = solver.new_var().positive();
                // d -> (a xor b)
                solver.add_clause(&[!d, a, b]);
                solver.add_clause(&[!d, !a, !b]);
                selectors.push(d);
            }
            solver.add_clause(&selectors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_aig::Word;
    use axmc_sat::Budget;

    fn options(max_k: usize, simple_path: bool) -> InductionOptions {
        InductionOptions {
            max_k,
            ctl: ResourceCtl::unlimited(),
            simple_path,
            certify: false,
        }
    }

    #[test]
    fn stuck_latch_proved_at_k1() {
        let mut aig = Aig::new();
        let q = aig.add_latch(false);
        aig.set_latch_next(0, q);
        aig.add_output(q);
        assert_eq!(
            prove_invariant(&aig, &options(4, false)).unwrap(),
            ProofResult::Proved { k: 1 }
        );
    }

    #[test]
    fn reachable_bad_is_falsified() {
        // Counter reaches 3.
        let mut aig = Aig::new();
        let state = Word::from_lits((0..2).map(|_| aig.add_latch(false)).collect());
        let one = Word::constant(1, 2);
        let (next, _) = state.add(&mut aig, &one);
        for (i, &b) in next.bits().iter().enumerate() {
            aig.set_latch_next(i, b);
        }
        let tgt = Word::constant(3, 2);
        let eq = state.equals(&mut aig, &tgt);
        aig.add_output(eq);

        match prove_invariant(&aig, &options(8, true)).unwrap() {
            ProofResult::Falsified(t) => {
                assert_eq!(t.len(), 4);
                assert_eq!(t.final_outputs(&aig), vec![true]);
            }
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn needs_simple_path_for_non_inductive_invariant() {
        // Four states over 2 latches, one input i. Transition:
        //   0 -> 0,  1 -> 0,  2 -> (i ? 1 : 3),  3 -> 2.
        // Reset state is 0, so only state 0 is reachable and bad = (s == 1)
        // is invariant. But the unreachable cycle {2, 3} can feed state 1
        // at any distance, so plain k-induction never closes: the step case
        // window 3 -> 2 -> 3 -> ... -> 2 -> 1 is satisfiable for every k.
        // Simple-path constraints cap the window at the number of distinct
        // non-bad states and force UNSAT.
        let mut aig = Aig::new();
        let i = aig.add_input();
        let s0 = aig.add_latch(false);
        let s1 = aig.add_latch(false);
        let is2 = aig.and(s1, !s0);
        let is3 = aig.and(s1, s0);
        // bit0 of next is 1 exactly when leaving state 2 (to 1 or 3);
        // bit1 of next is 1 when 2 -(i=0)-> 3 or 3 -> 2.
        let n0 = is2;
        let hold3 = aig.and(is2, !i);
        let n1 = aig.or(hold3, is3);
        aig.set_latch_next(0, n0);
        aig.set_latch_next(1, n1);
        let bad = aig.and(!s1, s0); // s == 1
        aig.add_output(bad);

        // Sanity: from reset the machine stays in state 0.
        use axmc_aig::Simulator;
        let mut sim = Simulator::new(&aig);
        for _ in 0..4 {
            assert_eq!(sim.step(&[u64::MAX])[0], 0);
        }

        // Without simple-path: never inductive, and every base case up to
        // max_k completes clear — the anytime payload records that, with
        // no interrupt (the method simply ran out of depth).
        assert_eq!(
            prove_invariant(&aig, &options(5, false)).unwrap(),
            ProofResult::Unknown {
                completed_k: 5,
                interrupt: None
            }
        );
        // With simple-path: proved once the window exceeds the loop-free
        // diameter of the non-bad region.
        match prove_invariant(&aig, &options(6, true)).unwrap() {
            ProofResult::Proved { k } => assert!(k <= 6),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn certified_proof_round_trips_through_the_checker() {
        // Same proof obligation as stuck_latch_proved_at_k1, but with
        // every UNSAT answer (base clears + closing step) re-validated
        // by the RUP/DRAT checker. A checker rejection surfaces as Err.
        let mut aig = Aig::new();
        let q = aig.add_latch(false);
        aig.set_latch_next(0, q);
        aig.add_output(q);
        let opts = InductionOptions {
            certify: true,
            simple_path: false,
            ..InductionOptions::default()
        };
        assert_eq!(
            prove_invariant(&aig, &opts).unwrap(),
            ProofResult::Proved { k: 1 }
        );
    }

    #[test]
    fn certified_falsification_replays() {
        let mut aig = Aig::new();
        let state = Word::from_lits((0..2).map(|_| aig.add_latch(false)).collect());
        let one = Word::constant(1, 2);
        let (next, _) = state.add(&mut aig, &one);
        for (i, &b) in next.bits().iter().enumerate() {
            aig.set_latch_next(i, b);
        }
        let tgt = Word::constant(3, 2);
        let eq = state.equals(&mut aig, &tgt);
        aig.add_output(eq);
        let opts = InductionOptions {
            certify: true,
            ..InductionOptions::default()
        };
        assert!(matches!(
            prove_invariant(&aig, &opts).unwrap(),
            ProofResult::Falsified(_)
        ));
    }

    #[test]
    fn equivalent_accumulators_proved() {
        use axmc_circuit::generators;
        use axmc_miter::sequential_strict_miter;
        // Two structurally different but equivalent adders inside the same
        // accumulator template; outputs (= states) stay equal, which IS
        // inductive: equal states + same inputs -> equal next states.
        let rca = axmc_seq::accumulator(&generators::ripple_carry_adder(4), 4);
        let csa = axmc_seq::accumulator(&generators::carry_select_adder(4, 2), 4);
        let miter = sequential_strict_miter(&rca, &csa);
        match prove_invariant(&miter, &options(3, false)).unwrap() {
            ProofResult::Proved { k } => assert!(k <= 3),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn budget_yields_unknown() {
        use axmc_circuit::generators;
        use axmc_miter::sequential_strict_miter;
        let rca = axmc_seq::accumulator(&generators::ripple_carry_adder(8), 8);
        let csa = axmc_seq::accumulator(&generators::carry_select_adder(8, 4), 8);
        let miter = sequential_strict_miter(&rca, &csa);
        let opts = InductionOptions {
            max_k: 3,
            ctl: ResourceCtl::unlimited().with_budget(Budget::unlimited().with_conflicts(1)),
            simple_path: false,
            certify: false,
        };
        let r = prove_invariant(&miter, &opts).unwrap();
        assert!(matches!(
            r,
            ProofResult::Unknown {
                interrupt: Some(_),
                ..
            } | ProofResult::Proved { .. }
        ));
    }

    #[test]
    fn expired_deadline_interrupts_the_proof_attempt() {
        use axmc_circuit::generators;
        use axmc_miter::sequential_strict_miter;
        use std::time::Duration;
        let rca = axmc_seq::accumulator(&generators::ripple_carry_adder(8), 8);
        let csa = axmc_seq::accumulator(&generators::carry_select_adder(8, 4), 8);
        let miter = sequential_strict_miter(&rca, &csa);
        let opts = InductionOptions {
            max_k: 3,
            ctl: ResourceCtl::unlimited().with_timeout(Duration::ZERO),
            simple_path: false,
            certify: false,
        };
        assert_eq!(
            prove_invariant(&miter, &opts).unwrap(),
            ProofResult::Unknown {
                completed_k: 0,
                interrupt: Some(Interrupt::Deadline)
            }
        );
    }
}
