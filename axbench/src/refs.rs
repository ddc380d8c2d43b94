//! Independent references for the known answers: values computed outside
//! the engines under test, which the committed answers must agree with.

use crate::answers::Answers;
use crate::{comb_library, seq_bmc};
use axmc_core::{exhaustive_stats, SeqAnalyzer};

/// Largest input count the exhaustive sweep handles.
const MAX_EXHAUSTIVE_INPUTS: usize = 22;

/// Random trajectories per pair for the simulated lower bound.
const TRAJECTORIES: u64 = 2048;

/// Checks `answers` against every available reference and returns one
/// line per disagreement (empty when all agree):
///
/// * the exhaustive sweep for every component with at most 22 inputs;
/// * the closed form `2^cut - 1` for a truncated adder's mean error;
/// * random simulation as a lower bound on every sequential WCE.
pub fn disagreements(answers: &Answers) -> Vec<String> {
    let mut out = Vec::new();
    let mut expect = |key: String, want: String| match answers.get(&key) {
        Some(got) if got == want => {}
        got => out.push(format!("{key}: answer {got:?}, reference {want}")),
    };
    for c in comb_library::library() {
        let key = |q: &str| comb_library::key(&c.name, q);
        if c.golden.num_inputs() <= MAX_EXHAUSTIVE_INPUTS {
            let ex = exhaustive_stats(&c.golden, &c.candidate);
            expect(key("wce"), ex.wce.to_string());
            expect(key("bit_flip"), ex.bit_flip.to_string());
            expect(key("total_error"), ex.total_error.to_string());
        }
        if let Some(cut) = c
            .name
            .split("_trunc")
            .nth(1)
            .and_then(|s| s.parse::<u32>().ok())
        {
            // The low `cut` sum bits and their carry are dropped, so the
            // error is a_low + b_low, whose mean is 2^cut - 1.
            let total = ((1u128 << cut) - 1) << (2 * c.width);
            expect(key("total_error"), total.to_string());
        }
    }
    for pair in seq_bmc::pairs() {
        let analyzer = SeqAnalyzer::new(&pair.golden, &pair.approx);
        for k in seq_bmc::HORIZONS {
            let key = seq_bmc::key(&pair.name, k, "wce");
            let simulated = analyzer.simulated_worst_case_error(k + 1, TRAJECTORIES, k as u64);
            match answers.get(&key).and_then(|v| v.parse::<u128>().ok()) {
                Some(wce) if wce >= simulated => {}
                got => out.push(format!("{key}: answer {got:?} below simulated {simulated}")),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_answers_agree_with_the_references() {
        let answers = Answers::committed().expect("answers.tsv parses");
        assert!(answers.len() > 300, "answers.tsv holds every query");
        let problems = disagreements(&answers);
        assert!(problems.is_empty(), "{}", problems.join("\n"));
    }

    #[test]
    fn a_wrong_committed_answer_is_caught() {
        let mut answers = Answers::committed().expect("answers.tsv parses");
        answers.insert(comb_library::key("add8_trunc2", "total_error"), "1".into());
        let problems = disagreements(&answers);
        assert!(
            problems.iter().any(|p| p.contains("add8_trunc2")),
            "{problems:?}"
        );
    }
}
