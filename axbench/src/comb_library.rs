//! `comb_library`: one caller, closed loop, characterizes every builtin
//! library component through `CombAnalyzer` with the `Auto` backend. The
//! static tier and the BDD engine do the work here.

use crate::answers::Answers;
use crate::stats::Outcome;
use crate::trace::ROOT_CORE;
use crate::workload::{error_outcome, shuffle, time_us, Pass, Workload, JOBS};
use axmc_characterize::{builtin_library, LibraryComponent};
use axmc_core::{AnalysisOptions, Backend, CombAnalyzer};

/// Adder widths. 64-bit adders are left out: their mean error falls back
/// to a sampled, inexact estimate.
pub const ADDER_WIDTHS: [usize; 6] = [8, 16, 24, 32, 40, 48];
/// Multiplier widths.
pub const MULTIPLIER_WIDTHS: [usize; 3] = [4, 5, 6];

#[derive(Clone, Copy, Debug)]
enum Query {
    Wce,
    BitFlip,
    /// The mean error, checked as the exact sum of errors over all inputs.
    Average,
}

impl Query {
    const ALL: [Query; 3] = [Query::Wce, Query::BitFlip, Query::Average];

    fn name(self) -> &'static str {
        match self {
            Query::Wce => "wce",
            Query::BitFlip => "bit_flip",
            Query::Average => "total_error",
        }
    }
}

/// The library the workload characterizes.
pub fn library() -> Vec<LibraryComponent> {
    let mut lib = builtin_library(&ADDER_WIDTHS, true, false);
    lib.extend(builtin_library(&MULTIPLIER_WIDTHS, false, true));
    lib
}

/// The known-answer key of one query.
pub fn key(component: &str, query: &str) -> String {
    format!("comb_library/{component}/{query}")
}

pub struct CombLibrary {
    library: Vec<LibraryComponent>,
    /// (component index, query); each pass runs them in an order drawn
    /// from the run seed and the pass number.
    queries: Vec<(usize, Query)>,
    options: AnalysisOptions,
    seed: u64,
}

impl CombLibrary {
    pub fn setup(seed: u64) -> CombLibrary {
        let library = library();
        let queries: Vec<(usize, Query)> = (0..library.len())
            .flat_map(|i| Query::ALL.map(|q| (i, q)))
            .collect();
        CombLibrary {
            library,
            queries,
            options: AnalysisOptions::new()
                .with_backend(Backend::Auto)
                .with_jobs(JOBS),
            seed,
        }
    }

    fn answer(&self, c: &LibraryComponent, query: Query) -> Result<String, Outcome> {
        let analyzer =
            CombAnalyzer::new(&c.golden, &c.candidate).with_options(self.options.clone());
        let value = match query {
            Query::Wce => analyzer.worst_case_error().map(|r| r.value.to_string()),
            Query::BitFlip => analyzer.bit_flip_error().map(|r| r.value.to_string()),
            Query::Average => analyzer.average_error().map(|r| match r.total_error {
                Some(total) if r.exact => total.to_string(),
                _ => "inexact".to_string(),
            }),
        };
        value.map_err(|e| error_outcome(&e))
    }

    /// Computes every answer instead of checking it, for
    /// `--record-answers`.
    pub fn record(&self, into: &mut Answers) -> Result<(), String> {
        for c in &self.library {
            for query in Query::ALL {
                let value = self
                    .answer(c, query)
                    .map_err(|o| format!("{} {}: {o:?}", c.name, query.name()))?;
                into.insert(key(&c.name, query.name()), value);
            }
        }
        Ok(())
    }
}

impl Workload for CombLibrary {
    fn pass(&mut self, round: u64, answers: &Answers) -> Pass {
        let mut pass = Pass::default();
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        shuffle(&mut order, self.seed, round);
        for n in order {
            let (i, query) = self.queries[n];
            let c = &self.library[i];
            let key = key(&c.name, query.name());
            pass.timed_op(n as u64, ROOT_CORE, || match self.answer(c, query) {
                Ok(value) => answers.check(&key, &value),
                Err(outcome) => outcome,
            });
        }
        pass
    }

    fn side_layers(&mut self) -> Vec<(&'static str, f64)> {
        let (mut miter_us, mut ands, mut built, mut encode_us) = (0.0, 0.0, 0.0, 0.0);
        for c in &self.library {
            let (g, a) = (&c.golden, &c.candidate);
            for build in [
                axmc_miter::diff_word_miter,
                axmc_miter::abs_diff_word_miter,
                axmc_miter::popcount_word_miter,
            ] {
                let (miter, t) = time_us(|| build(g, a));
                miter_us += t;
                ands += miter.num_ands() as f64;
                built += 1.0;
                // The Tseitin encoding the SAT engine starts from.
                encode_us += time_us(|| axmc_cnf::encode_comb(&miter)).1;
            }
        }
        vec![
            ("miter.build_us", miter_us),
            ("miter.ands", ands / built),
            ("cnf.encode_us", encode_us),
        ]
    }
}
