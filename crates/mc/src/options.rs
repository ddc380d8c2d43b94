//! Unified configuration for the bounded model checker.
//!
//! [`BmcOptions`] is the model-checking counterpart of
//! [`SolverConfig`]: one builder value carrying
//! everything that governs a [`Bmc`](crate::Bmc) or
//! [`Unroller`](crate::Unroller) — resource control, certification and
//! inprocessing — applied in one shot with
//! [`Bmc::configure`](crate::Bmc::configure) or passed at construction
//! via [`Bmc::with_options`](crate::Bmc::with_options).
//!
//! Certification has a single source of truth: `with_certify(true)` is
//! exactly `SolverConfig::with_proof_logging(true)` on the embedded
//! solver configuration, so the checker validates proofs precisely when
//! the solver records them.
//!
//! # Examples
//!
//! ```
//! use axmc_aig::Aig;
//! use axmc_mc::{Bmc, BmcOptions, BmcResult};
//! use axmc_sat::{Budget, ResourceCtl};
//!
//! let mut aig = Aig::new();
//! let q = aig.add_latch(false);
//! aig.set_latch_next(0, !q);
//! aig.add_output(q);
//!
//! let options = BmcOptions::new()
//!     .with_ctl(ResourceCtl::unlimited())
//!     .with_budget(Budget::unlimited().with_conflicts(100_000))
//!     .with_certify(true);
//! let mut bmc = Bmc::with_options(&aig, &options);
//! assert!(bmc.certify());
//! assert!(matches!(bmc.check_at(1)?, BmcResult::Cex(_)));
//! # Ok::<(), axmc_mc::CertificateRejected>(())
//! ```

use axmc_sat::{Budget, ResourceCtl, SolverConfig};

/// The complete configuration of a [`Bmc`](crate::Bmc) engine: a
/// [`SolverConfig`] for the underlying incremental solver plus the
/// checker-level certification switch (which is itself stored as the
/// solver's proof-logging flag — there is one knob, not two).
#[derive(Clone, Debug, Default)]
pub struct BmcOptions {
    solver: SolverConfig,
}

impl BmcOptions {
    /// Unlimited resources, certification off.
    pub fn new() -> Self {
        BmcOptions::default()
    }

    /// Replaces the embedded solver configuration wholesale (resource
    /// control, proof logging, inprocessing).
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Replaces the resource control applied to every solver call.
    pub fn with_ctl(mut self, ctl: ResourceCtl) -> Self {
        self.solver = self.solver.with_ctl(ctl);
        self
    }

    /// Replaces only the deterministic budget, keeping any deadline or
    /// cancellation token.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.solver = self.solver.with_budget(budget);
        self
    }

    /// Switches certified mode on or off. While on, every `Clear`
    /// verdict is validated by replaying the solver's clausal proof
    /// through the forward RUP/DRAT checker, and every counterexample is
    /// replayed through AIG simulation. Implemented as the solver's
    /// proof-logging flag.
    pub fn with_certify(mut self, on: bool) -> Self {
        self.solver = self.solver.with_proof_logging(on);
        self
    }

    /// The embedded solver configuration.
    pub fn solver(&self) -> &SolverConfig {
        &self.solver
    }

    /// Whether certified mode is requested.
    pub fn certify(&self) -> bool {
        self.solver.proof_logging()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_sat::InprocessConfig;

    #[test]
    fn certify_is_the_solver_proof_logging_flag() {
        let options = BmcOptions::new().with_certify(true);
        assert!(options.certify());
        assert!(options.solver().proof_logging());
        let options = options.with_solver(SolverConfig::new());
        assert!(!options.certify(), "with_solver replaces the whole config");
    }

    #[test]
    fn builder_accumulates_knobs() {
        let options = BmcOptions::new()
            .with_budget(Budget::unlimited().with_conflicts(5))
            .with_solver(
                SolverConfig::new()
                    .with_inprocessing(InprocessConfig::default())
                    .with_proof_logging(true),
            )
            .with_budget(Budget::unlimited().with_conflicts(9));
        assert_eq!(options.solver().ctl().budget().max_conflicts(), Some(9));
        assert!(options.solver().inprocess().is_some());
        assert!(options.certify());
    }
}
