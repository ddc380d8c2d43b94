//! The one shared bundle of analysis knobs: both analyzers accept an
//! [`AnalysisOptions`] via `with_options`, and every word query reads it
//! through the shared route.

use crate::cache::CacheHandle;
use crate::engine::{Backend, DEFAULT_BDD_NODE_LIMIT};
use axmc_sat::{Budget, CancelToken, ResourceCtl};
use std::time::Duration;

/// Knobs shared by every analysis engine.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    /// Resource control (budget, deadline, cancellation) applied to every
    /// solver call the analysis issues.
    pub ctl: ResourceCtl,
    /// Certified mode: re-validate every UNSAT answer with the forward
    /// RUP/DRAT checker and replay every counterexample. Rejections
    /// surface as `AnalysisError::CertificateRejected`.
    pub certify: bool,
    /// A worker count carried along with the other knobs. No analysis
    /// reads it: every search runs serially on one warm engine and
    /// `Auto` stages its engines, so no report depends on `jobs`.
    pub jobs: usize,
    /// Which analysis backend the combinational metrics use (SAT, BDD,
    /// or the staged `Auto` schedule). See `docs/backends.md`.
    pub backend: Backend,
    /// Node budget for BDD construction under the `Bdd`/`Auto` backends;
    /// exceeding it degrades gracefully to SAT.
    pub bdd_node_limit: usize,
    /// Cross-query result cache consulted by the cacheable metrics
    /// before any solver work (see [`crate::cache`]). `None` (the
    /// default) computes every query.
    pub cache: Option<CacheHandle>,
    /// Run the solver's between-solves inprocessing pass (subsumption,
    /// self-subsuming resolution, vivification) inside every SAT engine
    /// the analysis spawns. Off by default: inprocessing changes solver
    /// growth patterns, which some exact-count regression harnesses pin.
    pub inprocess: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            ctl: ResourceCtl::default(),
            certify: false,
            jobs: 0,
            backend: Backend::default(),
            bdd_node_limit: DEFAULT_BDD_NODE_LIMIT,
            cache: None,
            inprocess: false,
        }
    }
}

impl AnalysisOptions {
    /// Default options: unlimited resources, no certification, serial,
    /// SAT backend.
    pub fn new() -> Self {
        AnalysisOptions::default()
    }

    /// Replaces the resource control.
    pub fn with_ctl(mut self, ctl: ResourceCtl) -> Self {
        self.ctl = ctl;
        self
    }

    /// Replaces the deterministic solver budget, keeping the rest of the
    /// control.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.ctl = self.ctl.with_budget(budget);
        self
    }

    /// Imposes a wall-clock deadline of `timeout` from now (tightening
    /// only: a child phase can never extend its parent's deadline).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.ctl = self.ctl.with_timeout(timeout);
        self
    }

    /// Caps every individual solver call at `timeout` of wall clock.
    pub fn with_query_timeout(mut self, timeout: Duration) -> Self {
        self.ctl = self.ctl.with_query_timeout(timeout);
        self
    }

    /// Attaches a cancellation token observed by every solver call.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.ctl = self.ctl.with_cancel(token);
        self
    }

    /// Enables or disables certified mode.
    pub fn with_certify(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Selects the combinational analysis backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the node budget for BDD construction (clamped to at least 2,
    /// the two terminals).
    pub fn with_bdd_node_limit(mut self, limit: usize) -> Self {
        self.bdd_node_limit = limit.max(2);
        self
    }

    /// Attaches a cross-query result cache (see [`crate::cache`]).
    pub fn with_cache(mut self, cache: CacheHandle) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables or disables solver inprocessing (see
    /// [`axmc_sat::InprocessConfig`]).
    pub fn with_inprocessing(mut self, on: bool) -> Self {
        self.inprocess = on;
        self
    }

    /// The [`SolverConfig`](axmc_sat::SolverConfig) these options imply
    /// for one SAT engine: resource control, proof logging when
    /// certifying, and inprocessing when enabled.
    pub fn solver_config(&self) -> axmc_sat::SolverConfig {
        let mut config = axmc_sat::SolverConfig::new()
            .with_ctl(self.ctl.clone())
            .with_proof_logging(self.certify);
        if self.inprocess {
            config = config.with_inprocessing(axmc_sat::InprocessConfig::default());
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let opts = AnalysisOptions::new()
            .with_budget(Budget::unlimited().with_conflicts(10))
            .with_timeout(Duration::from_secs(60))
            .with_certify(true)
            .with_jobs(4);
        assert_eq!(opts.ctl.budget().max_conflicts(), Some(10));
        assert!(opts.ctl.deadline().is_some());
        assert!(opts.certify);
        assert_eq!(opts.jobs, 4);
    }

    #[test]
    fn zero_jobs_means_serial() {
        assert_eq!(AnalysisOptions::new().with_jobs(0).jobs, 1);
    }

    #[test]
    fn solver_config_reflects_the_engine_knobs() {
        let opts = AnalysisOptions::new();
        assert!(!opts.inprocess, "inprocessing defaults off");
        let opts = opts
            .with_certify(true)
            .with_inprocessing(true)
            .with_budget(Budget::unlimited().with_conflicts(42));
        let config = opts.solver_config();
        assert!(config.proof_logging(), "certify implies proof logging");
        assert!(config.inprocess().is_some());
        assert_eq!(config.ctl().budget().max_conflicts(), Some(42));
    }

    #[test]
    fn backend_defaults_and_builders() {
        let opts = AnalysisOptions::new();
        assert_eq!(opts.backend, Backend::Sat);
        assert_eq!(opts.bdd_node_limit, DEFAULT_BDD_NODE_LIMIT);
        let opts = opts.with_backend(Backend::Auto).with_bdd_node_limit(0);
        assert_eq!(opts.backend, Backend::Auto);
        assert_eq!(opts.bdd_node_limit, 2, "limit clamps to the terminals");
    }
}
