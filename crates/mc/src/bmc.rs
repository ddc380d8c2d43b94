//! Incremental bounded model checking.
//!
//! The checker unrolls a sequential AIG frame by frame into one growing
//! SAT instance; the question "is the (single) output assertable in frame
//! k" is posed as an assumption, so earlier frames' learnt clauses are
//! reused across bounds — the standard incremental BMC loop.

use crate::{CertificateRejected, Trace, Unroller};
use axmc_aig::Aig;
use axmc_sat::{Interrupt, ResourceCtl, SolveResult, SolverConfig};

/// Outcome of a bounded check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmcResult {
    /// A counterexample reaching the bad output was found.
    Cex(Trace),
    /// No counterexample exists within the checked bound.
    Clear,
    /// A resource limit (budget, deadline or cancellation) stopped the
    /// query before a verdict; the payload says which.
    Unknown(Interrupt),
}

impl BmcResult {
    /// Returns the trace if this result is a counterexample.
    pub fn cex(self) -> Option<Trace> {
        match self {
            BmcResult::Cex(t) => Some(t),
            _ => None,
        }
    }
}

/// An incremental bounded model checker over a single-output sequential
/// AIG (a miter: output 1 = property violated); the crate docs show one
/// at work.
#[derive(Debug)]
pub struct Bmc<'a> {
    /// Kept for API compatibility (traces replay against it).
    aig: &'a Aig,
    unroller: Unroller,
}

impl<'a> Bmc<'a> {
    /// Creates a checker for `aig`.
    ///
    /// # Panics
    ///
    /// Panics if the AIG does not have exactly one output.
    pub fn new(aig: &'a Aig) -> Self {
        assert_eq!(
            aig.num_outputs(),
            1,
            "BMC expects a single-output property circuit"
        );
        debug_assert!(
            {
                let diags = axmc_check::lint_aig(aig);
                if axmc_check::has_errors(&diags) {
                    for d in &diags {
                        eprintln!("{d}");
                    }
                    false
                } else {
                    true
                }
            },
            "structurally broken AIG handed to Bmc::new (see lint output)"
        );
        Bmc {
            aig,
            unroller: Unroller::new(aig.clone()),
        }
    }

    /// Creates a checker for `aig` whose solver runs under `config`.
    /// Certification is the solver's proof-logging flag: while it is on,
    /// every `Clear` verdict is validated by the forward RUP/DRAT checker
    /// and every counterexample is replayed through AIG simulation.
    ///
    /// # Panics
    ///
    /// Panics if the AIG does not have exactly one output.
    ///
    /// # Examples
    ///
    /// ```
    /// use axmc_aig::Aig;
    /// use axmc_mc::{Bmc, BmcResult};
    /// use axmc_sat::{Budget, SolverConfig};
    ///
    /// let mut aig = Aig::new();
    /// let q = aig.add_latch(false);
    /// aig.set_latch_next(0, !q);
    /// aig.add_output(q);
    ///
    /// let budget = Budget::unlimited().with_conflicts(100_000);
    /// let config = SolverConfig::new().with_budget(budget).with_proof_logging(true);
    /// let mut bmc = Bmc::with_options(&aig, &config);
    /// assert!(bmc.certify());
    /// assert!(matches!(bmc.check_at(1)?, BmcResult::Cex(_)));
    /// # Ok::<(), axmc_mc::CertificateRejected>(())
    /// ```
    pub fn with_options(aig: &'a Aig, config: &SolverConfig) -> Self {
        let mut bmc = Bmc::new(aig);
        bmc.configure(config);
        bmc
    }

    /// Applies `config` — resource control, certification (proof
    /// logging) and inprocessing — to the underlying solver. The one
    /// documented way to reconfigure a live checker.
    pub fn configure(&mut self, config: &SolverConfig) {
        self.unroller.configure(config);
    }

    /// Number of frames encoded so far.
    pub fn depth(&self) -> usize {
        self.unroller.num_frames()
    }

    /// Access to the underlying solver's statistics.
    pub fn solver_stats(&self) -> &axmc_sat::SolverStats {
        self.unroller.solver().stats()
    }

    /// Number of variables in the underlying solver (growth watchdog).
    pub fn num_vars(&self) -> usize {
        self.unroller.solver().num_vars()
    }

    /// Number of problem clauses in the underlying solver.
    pub fn num_clauses(&self) -> usize {
        self.unroller.solver().num_clauses()
    }

    /// The resource control currently governing solver calls.
    pub fn ctl(&self) -> &ResourceCtl {
        self.unroller.solver().ctl()
    }

    /// Returns `true` if certified mode is on. While on, every `Clear`
    /// verdict is independently validated by replaying the solver's
    /// clausal proof through the forward RUP/DRAT checker, and every
    /// counterexample is replayed through AIG simulation before being
    /// returned. A failed validation surfaces as
    /// [`CertificateRejected`] from the check call — the solver produced
    /// an unsound answer, and no result derived from it can be trusted.
    pub fn certify(&self) -> bool {
        self.unroller.certify()
    }

    /// In certified mode, validates the proof behind the UNSAT answer
    /// just produced by the unroller's solver.
    fn certify_clear(&self, k: usize) -> Result<(), CertificateRejected> {
        if !self.unroller.certify() {
            return Ok(());
        }
        if let Err(e) = axmc_check::certify_unsat(self.unroller.solver()) {
            return Err(CertificateRejected {
                engine: "bmc".to_string(),
                detail: format!("UNSAT certificate for the query at k={k} failed validation ({e})"),
            });
        }
        Ok(())
    }

    /// In certified mode, replays `trace` through AIG simulation and
    /// checks the property output really is violated in cycle `k`.
    fn certify_cex(&self, k: usize, trace: &Trace) -> Result<(), CertificateRejected> {
        if !self.unroller.certify() {
            return Ok(());
        }
        let outputs = trace.replay(self.aig);
        if !outputs.get(k).is_some_and(|cycle| cycle[0]) {
            return Err(CertificateRejected {
                engine: "bmc".to_string(),
                detail: format!(
                    "counterexample for the query at k={k} does not replay to a violation"
                ),
            });
        }
        Ok(())
    }

    /// The interrupt reason behind the solver's last `Unknown` answer.
    fn last_interrupt(&self) -> Interrupt {
        self.unroller
            .solver()
            .last_interrupt()
            .unwrap_or(Interrupt::Conflicts)
    }

    /// Checks whether the output can be 1 **exactly** in cycle `k`
    /// (0-based). Frames are created on demand and reused.
    ///
    /// # Errors
    ///
    /// In certified mode, returns [`CertificateRejected`] if the
    /// validation of a proof or a counterexample fails.
    pub fn check_at(&mut self, k: usize) -> Result<BmcResult, CertificateRejected> {
        let timer = axmc_obs::span("bmc.check.time_us");
        self.unroller.extend_to(k + 1);
        let bad = self.unroller.frame(k).outputs[0];
        let result = match self.unroller.solver_mut().solve_with_assumptions(&[bad]) {
            SolveResult::Sat => {
                let trace = self.unroller.extract_trace(k);
                self.certify_cex(k, &trace)?;
                BmcResult::Cex(trace)
            }
            SolveResult::Unsat => {
                self.certify_clear(k)?;
                BmcResult::Clear
            }
            SolveResult::Unknown => BmcResult::Unknown(self.last_interrupt()),
        };
        self.note_check(k, &result, timer.finish());
        Ok(result)
    }

    /// Checks whether the output can be 1 in **any** cycle `<= k`,
    /// scanning cycle by cycle.
    ///
    /// Returns the shortest counterexample if one exists; `Unknown` as soon
    /// as any per-cycle query is interrupted.
    ///
    /// # Errors
    ///
    /// In certified mode, returns [`CertificateRejected`] if the
    /// validation of a proof or a counterexample fails.
    pub fn check_up_to(&mut self, k: usize) -> Result<BmcResult, CertificateRejected> {
        for i in 0..=k {
            match self.check_at(i)? {
                BmcResult::Clear => continue,
                other => return Ok(other),
            }
        }
        Ok(BmcResult::Clear)
    }

    /// Records metrics and the `bmc.check` trace event for one query.
    fn note_check(&self, k: usize, result: &BmcResult, time_us: u64) {
        if !axmc_obs::enabled() {
            return;
        }
        axmc_obs::counter("bmc.checks").inc();
        axmc_obs::gauge("bmc.max_k").set_max(k as i64);
        let verdict = match result {
            BmcResult::Cex(_) => "cex",
            BmcResult::Clear => "clear",
            BmcResult::Unknown(_) => {
                axmc_obs::counter("bmc.budget_exhausted").inc();
                "unknown"
            }
        };
        if axmc_obs::tracing_active() {
            axmc_obs::emit(
                axmc_obs::Event::new("bmc.check")
                    .field("mode", "at")
                    .field("k", k)
                    .field("result", verdict)
                    .field("time_us", time_us),
            );
        }
    }

    /// The circuit under check.
    pub fn aig(&self) -> &Aig {
        self.aig
    }
}

impl From<Trace> for Vec<Vec<bool>> {
    fn from(t: Trace) -> Self {
        t.inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_aig::Word;
    use axmc_sat::Budget;
    use std::time::Duration;

    /// A 3-bit counter that increments every cycle; bad = counter == target.
    fn counter_reaches(target: u128) -> Aig {
        let mut aig = Aig::new();
        let state = Word::from_lits((0..3).map(|_| aig.add_latch(false)).collect());
        let one = Word::constant(1, 3);
        let (next, _) = state.add(&mut aig, &one);
        for (k, &b) in next.bits().iter().enumerate() {
            aig.set_latch_next(k, b);
        }
        let tgt = Word::constant(target, 3);
        let eq = state.equals(&mut aig, &tgt);
        aig.add_output(eq);
        aig
    }

    #[test]
    fn counter_reaches_target_at_exact_depth() {
        let aig = counter_reaches(5);
        let mut bmc = Bmc::new(&aig);
        for k in 0..5 {
            assert_eq!(bmc.check_at(k).unwrap(), BmcResult::Clear, "cycle {k}");
        }
        assert!(matches!(bmc.check_at(5).unwrap(), BmcResult::Cex(_)));
    }

    #[test]
    fn check_up_to_finds_shortest() {
        let aig = counter_reaches(3);
        let mut bmc = Bmc::new(&aig);
        match bmc.check_up_to(7).unwrap() {
            BmcResult::Cex(t) => assert_eq!(t.len(), 4), // cycles 0..=3
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_value_is_clear() {
        // Counter increments by 2 from 0: odd values unreachable.
        let mut aig = Aig::new();
        let state = Word::from_lits((0..3).map(|_| aig.add_latch(false)).collect());
        let two = Word::constant(2, 3);
        let (next, _) = state.add(&mut aig, &two);
        for (k, &b) in next.bits().iter().enumerate() {
            aig.set_latch_next(k, b);
        }
        let tgt = Word::constant(5, 3);
        let eq = state.equals(&mut aig, &tgt);
        aig.add_output(eq);

        let mut bmc = Bmc::new(&aig);
        assert_eq!(bmc.check_up_to(20).unwrap(), BmcResult::Clear);
    }

    #[test]
    fn trace_replays_to_violation() {
        // bad = input-controlled latch reaches 1 while input history chosen
        // by the solver; replay must show the final output high.
        let mut aig = Aig::new();
        let inc = aig.add_input();
        let state = Word::from_lits((0..2).map(|_| aig.add_latch(false)).collect());
        let one = Word::constant(1, 2);
        let (plus, _) = state.add(&mut aig, &one);
        let next: Vec<_> = (0..2)
            .map(|k| aig.mux(inc, plus.bit(k), state.bit(k)))
            .collect();
        for (k, n) in next.into_iter().enumerate() {
            aig.set_latch_next(k, n);
        }
        let tgt = Word::constant(2, 2);
        let eq = state.equals(&mut aig, &tgt);
        aig.add_output(eq);

        let mut bmc = Bmc::new(&aig);
        let cex = bmc.check_up_to(8).unwrap().cex().expect("reachable");
        let outs = cex.final_outputs(&aig);
        assert_eq!(outs, vec![true]);
        // Needs at least two increments before observation.
        assert!(cex.len() >= 3);
    }

    #[test]
    fn budget_propagates_to_unknown() {
        // A miter-like hard instance: equivalence of two 6-bit multipliers
        // via xor of outputs is UNSAT but takes work; with a 1-conflict
        // budget the result must be Unknown (or Clear if trivially solved).
        let aig = counter_reaches(7);
        let mut bmc = Bmc::new(&aig);
        bmc.configure(
            &SolverConfig::new()
                .with_budget(Budget::unlimited().with_conflicts(0).with_propagations(1)),
        );
        // With a zero/one budget most queries return Unknown; we accept
        // Clear for the trivially-unsat early cycles.
        let r = bmc.check_at(6).unwrap();
        assert!(matches!(r, BmcResult::Unknown(_) | BmcResult::Clear));
    }

    #[test]
    fn expired_deadline_reports_a_deadline_interrupt() {
        let aig = counter_reaches(7);
        let mut bmc = Bmc::new(&aig);
        bmc.configure(
            &SolverConfig::new().with_ctl(ResourceCtl::unlimited().with_timeout(Duration::ZERO)),
        );
        assert_eq!(
            bmc.check_at(6).unwrap(),
            BmcResult::Unknown(Interrupt::Deadline)
        );
    }

    #[test]
    fn cancelled_token_reports_a_cancel_interrupt() {
        use axmc_sat::CancelToken;
        let aig = counter_reaches(7);
        let mut bmc = Bmc::new(&aig);
        let token = CancelToken::new();
        token.cancel();
        bmc.configure(&SolverConfig::new().with_ctl(ResourceCtl::unlimited().with_cancel(token)));
        assert_eq!(
            bmc.check_at(6).unwrap(),
            BmcResult::Unknown(Interrupt::Cancelled)
        );
    }

    #[test]
    fn depth_ladder_encodes_each_frame_exactly_once() {
        // True incremental unrolling: walking a depth ladder query by
        // query must build the same SAT instance as one fresh jump to
        // the final depth — every frame encoded once, no re-encoding on
        // deepening, learnt state preserved.
        let aig = counter_reaches(5);
        let mut ladder = Bmc::new(&aig);
        for k in 0..=5 {
            let _ = ladder.check_at(k).unwrap();
        }
        let mut fresh = Bmc::new(&aig);
        let _ = fresh.check_at(5).unwrap();
        assert_eq!(
            ladder.num_vars(),
            fresh.num_vars(),
            "laddered unrolling must not re-encode frames"
        );
        let vars_before = ladder.num_vars();
        let clauses_before = ladder.num_clauses();
        for k in 0..=5 {
            let _ = ladder.check_at(k).unwrap();
        }
        assert_eq!(ladder.num_vars(), vars_before, "revisits add no variables");
        assert_eq!(
            ladder.num_clauses(),
            clauses_before,
            "revisits add no clauses"
        );
    }

    #[test]
    fn options_configure_a_live_and_a_fresh_checker_identically() {
        let aig = counter_reaches(5);
        let options = SolverConfig::new()
            .with_ctl(ResourceCtl::unlimited())
            .with_proof_logging(true);
        let mut fresh = Bmc::with_options(&aig, &options);
        assert!(fresh.certify());
        assert_eq!(fresh.check_at(2).unwrap(), BmcResult::Clear);

        let mut live = Bmc::new(&aig);
        assert!(!live.certify());
        assert_eq!(live.check_at(2).unwrap(), BmcResult::Clear);
        live.configure(&options);
        assert!(live.certify(), "configure flips certification on");
        assert_eq!(live.check_at(3).unwrap(), BmcResult::Clear);
    }

    #[test]
    fn combinational_circuit_as_depth_zero() {
        // A latch-free AIG: BMC at cycle 0 is plain SAT.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a, b);
        aig.add_output(x);
        let mut bmc = Bmc::new(&aig);
        let cex = bmc.check_at(0).unwrap().cex().expect("satisfiable");
        assert_eq!(cex.inputs[0], vec![true, true]);
    }
}
