//! `seq_bmc`: the paper's core task. One caller, closed loop, runs the
//! sequential error queries of the standard suite through `SeqAnalyzer`.

use crate::answers::Answers;
use crate::stats::Outcome;
use crate::trace::ROOT_CORE;
use crate::workload::{error_outcome, shuffle, time_us, Pass, Workload, JOBS};
use axmc_core::{AnalysisOptions, Budget, ResourceCtl, SeqAnalyzer, Verdict};
use axmc_mc::InductionOptions;
use axmc_seq::BenchmarkPair;

/// Horizons every pair is analyzed at.
pub const HORIZONS: [usize; 2] = [4, 6];

/// Suite operand width.
const WIDTH: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Query {
    Earliest,
    Wce,
    BitFlip,
    /// k-induction of `G(|error| <= WCE@k)` on a feed-forward pair.
    Prove,
}

impl Query {
    fn name(self) -> &'static str {
        match self {
            Query::Earliest => "earliest",
            Query::Wce => "wce",
            Query::BitFlip => "bit_flip",
            Query::Prove => "prove",
        }
    }
}

/// The suite pairs the workload runs: the standard suite without the
/// `mac4/*` pairs, whose 3–49 s solves would dominate every pass.
pub fn pairs() -> Vec<BenchmarkPair> {
    axmc_seq::suite::standard_suite(WIDTH)
        .into_iter()
        .filter(|p| !p.name.starts_with("mac4/"))
        .collect()
}

/// The known-answer key of one query.
pub fn key(pair: &str, k: usize, query: &str) -> String {
    format!("seq_bmc/{pair}/k{k}/{query}")
}

pub struct SeqBmc {
    pairs: Vec<BenchmarkPair>,
    /// (pair index, horizon, query); each pass runs them in an order
    /// drawn from the run seed and the pass number.
    queries: Vec<(usize, usize, Query)>,
    options: AnalysisOptions,
    seed: u64,
}

impl SeqBmc {
    pub fn setup(seed: u64) -> SeqBmc {
        let pairs = pairs();
        let mut queries = Vec::new();
        for (i, pair) in pairs.iter().enumerate() {
            for k in HORIZONS {
                queries.extend([
                    (i, k, Query::Earliest),
                    (i, k, Query::Wce),
                    (i, k, Query::BitFlip),
                ]);
                if !pair.feedback {
                    queries.push((i, k, Query::Prove));
                }
            }
        }
        SeqBmc {
            pairs,
            queries,
            options: AnalysisOptions::new().with_jobs(JOBS),
            seed,
        }
    }

    /// Runs one query. `wce` is the threshold the proof query needs.
    fn answer(
        &self,
        pair: &BenchmarkPair,
        k: usize,
        query: Query,
        wce: Option<u128>,
    ) -> Result<String, Outcome> {
        let analyzer =
            SeqAnalyzer::new(&pair.golden, &pair.approx).with_options(self.options.clone());
        let value = match query {
            Query::Earliest => analyzer
                .earliest_error(k + 1)
                .map(|e| e.cycle.map_or("none".to_string(), |c| c.to_string())),
            Query::Wce => analyzer.worst_case_error_at(k).map(|r| r.value.to_string()),
            Query::BitFlip => analyzer.bit_flip_error_at(k).map(|r| r.value.to_string()),
            Query::Prove => {
                let wce = wce.ok_or(Outcome::Wrong)?;
                let options = InductionOptions {
                    max_k: 3,
                    ctl: ResourceCtl::unlimited()
                        .with_budget(Budget::unlimited().with_conflicts(200_000)),
                    simple_path: false,
                    certify: false,
                };
                match analyzer.prove_error_bound(wce, &options) {
                    Ok(Verdict::Proved) => Ok("proved".to_string()),
                    Ok(Verdict::Refuted { .. }) => Ok("refuted".to_string()),
                    Ok(Verdict::Interrupted { .. }) => return Err(Outcome::Interrupted),
                    Err(e) => Err(e),
                }
            }
        };
        value.map_err(|e| error_outcome(&e))
    }

    /// Computes every answer instead of checking it, for
    /// `--record-answers`.
    pub fn record(&self, into: &mut Answers) -> Result<(), String> {
        for pair in &self.pairs {
            for k in HORIZONS {
                let mut wce = None;
                for query in [Query::Earliest, Query::Wce, Query::BitFlip, Query::Prove] {
                    if matches!(query, Query::Prove) && pair.feedback {
                        continue;
                    }
                    let value = self
                        .answer(pair, k, query, wce)
                        .map_err(|o| format!("{} k{k} {}: {o:?}", pair.name, query.name()))?;
                    if matches!(query, Query::Wce) {
                        wce = value.parse().ok();
                    }
                    into.insert(key(&pair.name, k, query.name()), value);
                }
            }
        }
        Ok(())
    }
}

impl Workload for SeqBmc {
    fn pass(&mut self, round: u64, answers: &Answers) -> Pass {
        let mut pass = Pass::default();
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        shuffle(&mut order, self.seed, round);
        for n in order {
            let (i, k, query) = self.queries[n];
            let pair = &self.pairs[i];
            let key = key(&pair.name, k, query.name());
            let wce = answers
                .get(&self::key(&pair.name, k, "wce"))
                .and_then(|v| v.parse().ok());
            pass.timed_op(n as u64, ROOT_CORE, || {
                match self.answer(pair, k, query, wce) {
                    Ok(value) => answers.check(&key, &value),
                    Err(outcome) => outcome,
                }
            });
        }
        pass
    }

    fn side_layers(&mut self) -> Vec<(&'static str, f64)> {
        // The three miters the sequential queries build, per pair.
        let (mut us, mut ands, mut built) = (0.0, 0.0, 0.0);
        for pair in &self.pairs {
            let (g, a) = (&pair.golden, &pair.approx);
            for build in [
                axmc_miter::sequential_strict_miter,
                axmc_miter::sequential_diff_word_miter,
                axmc_miter::sequential_popcount_word_miter,
            ] {
                let (miter, t) = time_us(|| build(g, a));
                us += t;
                ands += miter.num_ands() as f64;
                built += 1.0;
            }
        }
        // Each pair's miters are built once per horizon in a pass.
        vec![
            ("miter.build_us", us * HORIZONS.len() as f64),
            ("miter.ands", ands / built),
        ]
    }
}
