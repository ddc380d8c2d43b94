//! `cgp_evolve`: one caller, closed loop, asks `axmc_cgp::evolve` for
//! approximate multipliers. Each call makes hundreds of short, budgeted
//! solves on cloned solvers: the SAT layer used the other way round from
//! `seq_bmc`.

use crate::answers::Answers;
use crate::stats::Outcome;
use crate::trace::ROOT_CGP;
use crate::workload::{error_outcome, time_us, Pass, Workload, JOBS};
use axmc_aig::Aig;
use axmc_cgp::{evolve, wcre_to_threshold, SearchOptions};
use axmc_circuit::Netlist;
use axmc_core::CombAnalyzer;
use std::time::Duration;

/// Operand width of the evolved array multiplier.
pub const WIDTH: usize = 4;
/// Worst-case relative error bound, percent.
pub const WCRE_PERCENT: f64 = 10.0;
/// Generations per call; with a population of 4 that is 400 offspring.
pub const GENERATIONS: u64 = 100;

pub struct CgpEvolve {
    golden: Netlist,
    golden_aig: Aig,
    options: SearchOptions,
    seed: u64,
    /// The latest evolved netlist, for the off-path encoding measurement.
    last: Option<Netlist>,
}

impl CgpEvolve {
    pub fn setup(seed: u64) -> CgpEvolve {
        let golden = axmc_circuit::generators::array_multiplier(WIDTH);
        let options = SearchOptions {
            threshold: wcre_to_threshold(WCRE_PERCENT, golden.num_outputs()).max(1),
            population: 4,
            max_generations: GENERATIONS,
            time_limit: Duration::from_secs(3600),
            extra_cols: 4,
            jobs: JOBS,
            static_prescreen: true,
            ..SearchOptions::default()
        };
        CgpEvolve {
            golden_aig: golden.to_aig(),
            golden,
            options,
            seed,
            last: None,
        }
    }
}

/// The CGP seed of the call in pass `round` of a run seeded with `seed`.
fn call_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(round)
}

impl Workload for CgpEvolve {
    fn pass(&mut self, round: u64, _answers: &Answers) -> Pass {
        let mut pass = Pass::default();
        let options = SearchOptions {
            seed: call_seed(self.seed, round),
            ..self.options.clone()
        };
        let Some(result) = pass.time_op(round, ROOT_CGP, || evolve(&self.golden, &options)) else {
            return pass;
        };
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                pass.tally.record(error_outcome(&e));
                return pass;
            }
        };
        // Throughput counts offspring, not calls.
        pass.ops = r.stats.offspring;
        // The known answer: a fresh analyzer confirms the evolved circuit
        // keeps its worst-case error within the threshold.
        let fresh = CombAnalyzer::new(&self.golden_aig, &r.netlist.to_aig()).worst_case_error();
        let within = matches!(&fresh, Ok(rep) if rep.value <= self.options.threshold);
        if within && r.relative_area() <= 1.0 {
            pass.tally.record(Outcome::Correct);
        } else {
            eprintln!(
                "cgp seed {}: evolved circuit breaks its bound: {fresh:?}",
                options.seed
            );
            pass.tally.record(Outcome::Wrong);
        }
        pass.samples
            .entry("cgp_area_ratio")
            .or_default()
            .push(r.relative_area());
        let s = &r.stats;
        pass.count("cgp.verifier_calls", s.verifier_calls as f64);
        pass.count("cgp.verify.ok", s.verified_ok as f64);
        pass.count("cgp.verify.violation", s.verified_violation as f64);
        pass.count("cgp.verify.timeout", s.verified_timeout as f64);
        pass.count("cgp.skipped_neutral", s.skipped_neutral as f64);
        pass.count("cgp.skipped_area", s.skipped_area as f64);
        pass.count("queries", s.verifier_calls as f64);
        self.last = Some(r.netlist);
        pass
    }

    fn repeats(&self) -> bool {
        false
    }

    fn side_layers(&mut self) -> Vec<(&'static str, f64)> {
        let Some(last) = &self.last else {
            return Vec::new();
        };
        let miter = axmc_miter::diff_word_miter(&self.golden_aig, &last.to_aig());
        vec![("cnf.encode_us", time_us(|| axmc_cnf::encode_comb(&miter)).1)]
    }
}
