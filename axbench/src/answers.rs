//! Known answers: the expected verdict of every query, committed in
//! `answers.tsv` next to this crate and checked on every run.
//!
//! The file holds one `key<TAB>value` line per query, sorted by key.
//! Keys name the workload, the circuit pair and the query, e.g.
//! `seq_bmc/alu8/trunc4/k6/wce` or `comb_library/add8_trunc2/total_error`.
//! `--record-answers` regenerates the file from the engines; it refuses
//! to write it when any value disagrees with an independent reference.

use crate::stats::Outcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where `--record-answers` writes the table: next to this crate's
/// manifest, where [`Answers::committed`] reads it from at build time.
pub fn record_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("answers.tsv")
}

/// The table of known answers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Answers {
    table: BTreeMap<String, String>,
}

impl Answers {
    /// Parses `key<TAB>value` lines; blank lines and `#` comments are
    /// skipped.
    pub fn parse(text: &str) -> Result<Answers, String> {
        let mut table = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('\t')
                .ok_or_else(|| format!("answers line {}: no tab in '{line}'", i + 1))?;
            if table.insert(key.to_string(), value.to_string()).is_some() {
                return Err(format!("answers line {}: duplicate key '{key}'", i + 1));
            }
        }
        Ok(Answers { table })
    }

    /// The table committed in `answers.tsv`, embedded at build time.
    pub fn committed() -> Result<Answers, String> {
        Answers::parse(include_str!("../answers.tsv"))
    }

    /// The expected value for `key`, if the table has one.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.table.get(key).map(String::as_str)
    }

    /// Compares a computed value with the known answer. A key the table
    /// does not hold counts as wrong: every query must have an answer.
    pub fn check(&self, key: &str, got: &str) -> Outcome {
        match self.get(key) {
            Some(expected) if expected == got => Outcome::Correct,
            Some(expected) => {
                eprintln!("wrong answer: {key}: expected {expected}, got {got}");
                Outcome::Wrong
            }
            None => {
                eprintln!("no known answer for {key} (got {got})");
                Outcome::Wrong
            }
        }
    }

    /// Records a value (used when regenerating the file).
    pub fn insert(&mut self, key: String, value: String) {
        self.table.insert(key, value);
    }

    /// Renders the table in file form, sorted by key.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Known answers for the axbench workloads: key<TAB>expected value.\n\
             # Regenerate with `--record-answers`; see README.md.\n",
        );
        for (k, v) in &self.table {
            out.push_str(k);
            out.push('\t');
            out.push_str(v);
            out.push('\n');
        }
        out
    }

    /// Number of answers held.
    pub fn len(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mismatch_is_detected() {
        let answers = Answers::parse("seq_bmc/p/k4/wce\t60\ncomb_library/c/wce\t6\n").unwrap();
        assert_eq!(answers.check("seq_bmc/p/k4/wce", "60"), Outcome::Correct);
        assert_eq!(answers.check("seq_bmc/p/k4/wce", "59"), Outcome::Wrong);
        assert_eq!(
            answers.check("seq_bmc/p/k6/wce", "60"),
            Outcome::Wrong,
            "missing key"
        );
    }

    #[test]
    fn render_and_parse_round_trip() {
        let mut a = Answers::default();
        a.insert("b/x".into(), "2".into());
        a.insert("a/y".into(), "none".into());
        let back = Answers::parse(&a.render()).unwrap();
        assert_eq!(back, a);
        assert!(
            Answers::parse("k\t1\nk\t2\n").is_err(),
            "duplicates are refused"
        );
        assert!(Answers::parse("no tab here\n").is_err());
    }
}
