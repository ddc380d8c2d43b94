//! Backend selection for the combinational analyses: SAT, BDD, or an
//! `Auto` schedule that stages both.
//!
//! The two engines are complementary in exactly the way the classic
//! literature predicts: the CEGIS threshold search over SAT miters is
//! insensitive to circuit *structure* (multipliers are fine) but touches
//! only worst-case metrics, while BDDs give every metric — including the
//! average-case ones that have no polynomial SAT formulation — but blow
//! up on multiplier-class structure. [`Backend`] names the choice,
//! [`EngineKind`] records in every report which engine actually produced
//! the number, and `docs/backends.md` is the full selection guide.

use std::fmt;
use std::str::FromStr;

/// Default node budget for BDD construction when the caller does not set
/// one: comfortably above every adder-class circuit in the suite, small
/// enough that a multiplier blow-up is detected in well under a second
/// and degrades to SAT.
pub const DEFAULT_BDD_NODE_LIMIT: usize = 1_000_000;

/// Which engine(s) a combinational analysis may use.
///
/// Parsed from `--engine sat|bdd|auto` on the CLI; selected in the API
/// via `AnalysisOptions::with_backend` / `SearchOptions::backend`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Backend {
    /// The CEGIS threshold-miter search over the CDCL solver — the
    /// paper's engine, structure-insensitive, and the default.
    #[default]
    Sat,
    /// The ROBDD engine: characteristic-function maximization for the
    /// worst-case metrics, exact model counting for the average-case
    /// ones. Falls back to SAT when the BDD exceeds its node budget.
    Bdd,
    /// Stage both engines: the BDD under its node budget first, then SAT
    /// when the BDD blows the budget or an outer limit interrupts it
    /// (the SAT engine then returns the typed anytime result). The BDD
    /// attempt either finishes fast (adder-class) or fails fast on its
    /// budget (multiplier-class). Before anything is launched the static
    /// tier (ternary abstract interpretation plus concrete probing,
    /// `axmc-absint`) is consulted: a query it decides never touches a
    /// solver, and one it cannot decide proceeds on the swept (reduced)
    /// miter with the certified interval seeding the threshold-search
    /// window. The schedule is the same at every worker count, so the
    /// report is too.
    Auto,
    /// The static tier alone: ternary abstract interpretation, concrete
    /// simulation probing, and nothing else. Queries it cannot decide
    /// return `Interrupted` with the certified `[lo, hi]` interval as
    /// the partial knowledge — no solver is ever launched. Intended for
    /// analysis-only runs (`--engine static`) and as the explicit form
    /// of the pre-screen [`Backend::Auto`] applies implicitly.
    Static,
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sat" => Ok(Backend::Sat),
            "bdd" => Ok(Backend::Bdd),
            "auto" => Ok(Backend::Auto),
            "static" => Ok(Backend::Static),
            other => Err(format!(
                "unknown engine '{other}' (expected sat, bdd, auto or static)"
            )),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Sat => "sat",
            Backend::Bdd => "bdd",
            Backend::Auto => "auto",
            Backend::Static => "static",
        })
    }
}

/// The engine that actually produced a result (recorded in
/// `ErrorReport::engine` — under [`Backend::Auto`] the static tier, the
/// BDD or SAT may answer, and under [`Backend::Bdd`] a node-budget
/// blow-up silently degrades to SAT, so the requested backend and the
/// producing engine can differ).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Produced by the SAT/CEGIS engine.
    Sat,
    /// Produced by the BDD engine.
    Bdd,
    /// Decided by the static tier (abstract interpretation + concrete
    /// probing) with no solver launched at all.
    Static,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineKind::Sat => "sat",
            EngineKind::Bdd => "bdd",
            EngineKind::Static => "static",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_round_trips_through_strings() {
        for b in [Backend::Sat, Backend::Bdd, Backend::Auto, Backend::Static] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert!("cudd".parse::<Backend>().is_err());
        assert!("SAT".parse::<Backend>().is_err(), "case-sensitive");
    }

    #[test]
    fn sat_is_the_default_backend() {
        assert_eq!(Backend::default(), Backend::Sat);
    }

    #[test]
    fn engine_kind_displays() {
        assert_eq!(EngineKind::Sat.to_string(), "sat");
        assert_eq!(EngineKind::Bdd.to_string(), "bdd");
        assert_eq!(EngineKind::Static.to_string(), "static");
    }
}
