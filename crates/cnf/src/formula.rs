//! A standalone CNF formula container with DIMACS I/O.

use axmc_sat::{Lit, MAX_VARS};
use std::fmt;

/// A propositional formula in conjunctive normal form.
///
/// Useful for snapshotting encodings or exchanging problems with external
/// solvers via DIMACS; the engines in `axmc` usually encode directly into
/// an [`axmc_sat::Solver`] instead.
///
/// # Examples
///
/// ```
/// use axmc_cnf::Cnf;
/// use axmc_sat::{Lit, Var};
///
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause(vec![Var::new(0).positive(), Var::new(1).negative()]);
/// let text = cnf.to_dimacs();
/// let back = Cnf::from_dimacs(&text).unwrap();
/// assert_eq!(back.num_clauses(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Appends a clause, growing the variable count if needed.
    pub fn add_clause(&mut self, clause: Vec<Lit>) {
        for l in &clause {
            self.num_vars = self.num_vars.max(l.var().index() as usize + 1);
        }
        self.clauses.push(clause);
    }

    /// Loads the whole formula into a fresh solver, returning the solver.
    ///
    /// Variable `i` of the formula maps to solver variable `i`.
    pub fn to_solver(&self) -> axmc_sat::Solver {
        let mut solver = axmc_sat::Solver::new();
        for _ in 0..self.num_vars {
            solver.new_var();
        }
        for c in &self.clauses {
            solver.add_clause(c);
        }
        solver
    }

    /// Serializes to DIMACS CNF text.
    pub fn to_dimacs(&self) -> String {
        let mut out = format!("p cnf {} {}\n", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                out.push_str(&l.to_dimacs().to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses DIMACS CNF text.
    ///
    /// The parser is strict where silence would hide corruption: the
    /// header's variable *and* clause counts must parse, every literal
    /// must fall within the declared variable range, every clause must be
    /// `0`-terminated (a truncated file is rejected, not silently
    /// accepted), and the number of clauses must match the header.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on a malformed or missing header, a
    /// duplicated header, a junk token, an out-of-range literal, an
    /// unterminated final clause, or a header/body clause-count mismatch.
    pub fn from_dimacs(text: &str) -> Result<Self, ParseDimacsError> {
        let mut cnf = Cnf::new(0);
        let mut header_vars = 0u64;
        let mut header_clauses = 0usize;
        let mut seen_header = false;
        let mut current: Vec<Lit> = Vec::new();
        let mut open_clause_line = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if line.starts_with('p') {
                if seen_header {
                    return Err(ParseDimacsError::new(lineno + 1, "duplicate problem line"));
                }
                let f: Vec<&str> = line.split_whitespace().collect();
                if f.len() != 4 || f[1] != "cnf" {
                    return Err(ParseDimacsError::new(lineno + 1, "bad problem line"));
                }
                header_vars = f[2]
                    .parse()
                    .map_err(|_| ParseDimacsError::new(lineno + 1, "bad variable count"))?;
                if header_vars > MAX_VARS {
                    return Err(ParseDimacsError::new(
                        lineno + 1,
                        format!("variable count {header_vars} exceeds the representable maximum {MAX_VARS}"),
                    ));
                }
                header_clauses = f[3]
                    .parse()
                    .map_err(|_| ParseDimacsError::new(lineno + 1, "bad clause count"))?;
                seen_header = true;
                continue;
            }
            if !seen_header {
                return Err(ParseDimacsError::new(lineno + 1, "clause before header"));
            }
            for tok in line.split_whitespace() {
                let v: i64 = tok.parse().map_err(|_| {
                    ParseDimacsError::new(lineno + 1, format!("bad literal '{tok}'"))
                })?;
                if v == 0 {
                    cnf.add_clause(std::mem::take(&mut current));
                } else {
                    if v.unsigned_abs() > header_vars {
                        return Err(ParseDimacsError::new(
                            lineno + 1,
                            format!("literal {v} out of range (header declares {header_vars} variables)"),
                        ));
                    }
                    if current.is_empty() {
                        open_clause_line = lineno + 1;
                    }
                    current.push(Lit::from_dimacs(v));
                }
            }
        }
        if !current.is_empty() {
            return Err(ParseDimacsError::new(
                open_clause_line,
                "unterminated clause (missing trailing 0; file truncated?)",
            ));
        }
        if cnf.clauses.len() != header_clauses {
            return Err(ParseDimacsError::new(
                text.lines().count().max(1),
                format!(
                    "header declares {header_clauses} clauses but the body contains {}",
                    cnf.clauses.len()
                ),
            ));
        }
        cnf.num_vars = cnf.num_vars.max(header_vars as usize);
        Ok(cnf)
    }
}

/// Error produced when parsing DIMACS text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    line: usize,
    message: String,
}

impl ParseDimacsError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseDimacsError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimacs parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDimacsError {}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_sat::{SolveResult, Var};

    #[test]
    fn dimacs_round_trip() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Var::new(0).positive(), Var::new(2).negative()]);
        cnf.add_clause(vec![Var::new(1).positive()]);
        let text = cnf.to_dimacs();
        assert!(text.starts_with("p cnf 3 2"));
        let back = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(back, cnf);
    }

    #[test]
    fn parse_with_comments() {
        let text = "c a comment\np cnf 2 2\n1 -2 0\nc another\n2 0\n";
        let cnf = Cnf::from_dimacs(text).unwrap();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_vars(), 2);
        let mut s = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(Var::new(1)), Some(true));
        assert_eq!(s.model_value(Var::new(0)), Some(true));
    }

    #[test]
    fn parse_errors() {
        assert!(Cnf::from_dimacs("p wrong 1 1\n1 0\n").is_err());
        assert!(Cnf::from_dimacs("1 0\n").is_err());
        assert!(Cnf::from_dimacs("p cnf 1 1\nx 0\n").is_err());
    }

    #[test]
    fn rejects_truncated_header() {
        let err = Cnf::from_dimacs("p cnf 3\n").unwrap_err();
        assert!(err.to_string().contains("bad problem line"), "{err}");
    }

    #[test]
    fn rejects_junk_counts_in_header() {
        let vars = Cnf::from_dimacs("p cnf three 1\n1 0\n").unwrap_err();
        assert!(vars.to_string().contains("bad variable count"), "{vars}");
        let clauses = Cnf::from_dimacs("p cnf 3 many\n1 0\n").unwrap_err();
        assert!(
            clauses.to_string().contains("bad clause count"),
            "{clauses}"
        );
    }

    #[test]
    fn rejects_duplicate_header() {
        let err = Cnf::from_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n").unwrap_err();
        assert!(err.to_string().contains("duplicate problem line"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let err = Cnf::from_dimacs("p cnf 2 1\n1 -3 0\n").unwrap_err();
        assert!(err.to_string().contains("literal -3 out of range"), "{err}");
    }

    #[test]
    fn rejects_unterminated_final_clause() {
        let err = Cnf::from_dimacs("p cnf 2 2\n1 0\n1 -2\n").unwrap_err();
        assert!(err.to_string().contains("unterminated clause"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn rejects_clause_count_mismatch() {
        let err = Cnf::from_dimacs("p cnf 2 3\n1 0\n-2 0\n").unwrap_err();
        assert!(
            err.to_string()
                .contains("declares 3 clauses but the body contains 2"),
            "{err}"
        );
    }

    #[test]
    fn rejects_unrepresentable_variable_count() {
        let err = Cnf::from_dimacs("p cnf 99999999999 0\n").unwrap_err();
        assert!(err.to_string().contains("representable maximum"), "{err}");
    }

    #[test]
    fn clause_growing_var_count() {
        let mut cnf = Cnf::new(0);
        cnf.add_clause(vec![Var::new(9).positive()]);
        assert_eq!(cnf.num_vars(), 10);
    }
}
