//! Cooperative resource governance for solver invocations.
//!
//! Every engine in the stack ultimately spends its time inside
//! [`Solver::solve_with_assumptions`](crate::Solver::solve_with_assumptions),
//! so that loop is where resource limits must be observed. A
//! [`ResourceCtl`] bundles the three kinds of limit a caller can impose:
//!
//! * a [`Budget`] — deterministic conflict/propagation caps, unchanged
//!   from the original budget-only API;
//! * a wall-clock **deadline** — an absolute [`Instant`] (plus an
//!   optional per-call timeout), checked cheaply inside the search loop;
//! * a [`CancelToken`] — a shared atomic flag that an external thread
//!   can raise to stop every solver observing it, which is how `--jobs N`
//!   worker fleets and cloned portfolio engines are all stopped at once.
//!
//! Deadlines are *absolute*, so per-phase propagation composes for free:
//! a parent analysis stamps its deadline into the control it hands to
//! child queries, and no child can outlive the parent no matter how the
//! work is subdivided. [`ResourceCtl::with_deadline`] keeps the *earlier*
//! of two deadlines for the same reason.
//!
//! An interrupted solve returns
//! [`SolveResult::Unknown`](crate::SolveResult::Unknown) and records
//! *why* in [`Solver::last_interrupt`](crate::Solver::last_interrupt),
//! which is what lets the layers above report typed anytime results
//! instead of a bare "unknown".

use crate::solver::Budget;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag.
///
/// Cloning the token shares the underlying flag: raising it through any
/// clone is observed by every solver holding one. The flag is monotonic —
/// once cancelled it stays cancelled — which keeps the semantics of a
/// fleet-wide stop unambiguous.
///
/// # Examples
///
/// ```
/// use axmc_sat::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-raised token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Every clone of this token observes the
    /// cancellation from its next check onwards.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once [`CancelToken::cancel`] has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a solve call stopped before reaching a verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Interrupt {
    /// The per-call conflict budget was exhausted.
    Conflicts,
    /// The per-call propagation budget was exhausted.
    Propagations,
    /// The wall-clock deadline (or per-call timeout) passed.
    Deadline,
    /// The cancellation token was raised.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Interrupt::Conflicts => "conflict budget exhausted",
            Interrupt::Propagations => "propagation budget exhausted",
            Interrupt::Deadline => "deadline expired",
            Interrupt::Cancelled => "cancelled",
        })
    }
}

/// The full set of resource limits governing solver calls: budget,
/// wall-clock deadline, per-call timeout and cancellation token.
///
/// A `ResourceCtl` is cheap to clone and clones *share* the cancellation
/// token, so one control can be stamped onto a whole fleet of cloned
/// portfolio engines and stopped with a single [`CancelToken::cancel`].
///
/// # Examples
///
/// ```
/// use axmc_sat::{Budget, ResourceCtl};
/// use std::time::Duration;
///
/// let ctl = ResourceCtl::unlimited()
///     .with_budget(Budget::unlimited().with_conflicts(20_000))
///     .with_timeout(Duration::from_secs(60));
/// assert_eq!(ctl.budget().max_conflicts(), Some(20_000));
/// assert!(ctl.deadline().is_some());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ResourceCtl {
    budget: Budget,
    deadline: Option<Instant>,
    per_call_timeout: Option<Duration>,
    cancels: Vec<CancelToken>,
}

impl ResourceCtl {
    /// A control imposing no limits at all.
    pub fn unlimited() -> Self {
        ResourceCtl::default()
    }

    /// Sets the deterministic conflict/propagation budget (replacing any
    /// previous budget).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Imposes an absolute wall-clock deadline. If a deadline is already
    /// set, the *earlier* of the two is kept — a child phase can only
    /// tighten, never extend, its parent's deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// Imposes a deadline of `timeout` from now (see
    /// [`ResourceCtl::with_deadline`] for the tightening rule).
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let deadline = Instant::now()
            .checked_add(timeout)
            .unwrap_or_else(far_future);
        self.with_deadline(deadline)
    }

    /// Caps every *individual* solve call at `timeout` of wall clock, on
    /// top of (and never beyond) the overall deadline. This is the
    /// `--query-timeout` primitive: a run-level deadline bounds the whole
    /// analysis while the per-call timeout stops any single query from
    /// monopolizing it.
    pub fn with_query_timeout(mut self, timeout: Duration) -> Self {
        self.per_call_timeout = Some(match self.per_call_timeout {
            Some(t) => t.min(timeout),
            None => timeout,
        });
        self
    }

    /// Attaches a cancellation token. Clones of the control (and of the
    /// solvers holding it) share the token.
    ///
    /// Tokens *accumulate*: attaching a second token does not detach the
    /// first — the control is interrupted as soon as **any** attached
    /// token is raised, so a caller can add its own stop token to a
    /// control without disconnecting the run-level token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancels.push(token);
        self
    }

    /// The deterministic budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The per-call timeout, if one is set.
    pub fn query_timeout(&self) -> Option<Duration> {
        self.per_call_timeout
    }

    /// The most recently attached cancellation token, if any. Use
    /// [`ResourceCtl::is_cancelled`] to observe *all* attached tokens.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancels.last()
    }

    /// Returns `true` once any attached cancellation token has been
    /// raised (`false` when no token is attached).
    pub fn is_cancelled(&self) -> bool {
        self.cancels.iter().any(CancelToken::is_cancelled)
    }

    /// The deadline governing a call starting *now*: the overall deadline
    /// tightened by the per-call timeout, whichever is earlier.
    pub fn call_deadline(&self) -> Option<Instant> {
        let per_call = self
            .per_call_timeout
            .map(|t| Instant::now().checked_add(t).unwrap_or_else(far_future));
        match (self.deadline, per_call) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (d, p) => d.or(p),
        }
    }

    /// Checks the wall-clock limits (not the budget): returns the reason
    /// if the control is already cancelled or past its deadline.
    pub fn interrupted(&self) -> Option<Interrupt> {
        if self.is_cancelled() {
            return Some(Interrupt::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Interrupt::Deadline);
        }
        None
    }

    /// Remaining wall clock until the deadline (saturating at zero), or
    /// `None` when no deadline is set. Recorded by the solver as the
    /// per-call deadline-slack metric.
    pub fn slack(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// A stand-in for "no deadline in practice" when `Instant` arithmetic
/// would overflow (e.g. `Duration::MAX` timeouts).
fn far_future() -> Instant {
    // ~30 years out; saturating rather than panicking keeps absurdly
    // generous timeouts (u64::MAX seconds) behaving like "unlimited".
    Instant::now() + Duration::from_secs(60 * 60 * 24 * 365 * 30)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        assert!(!b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled(), "cancellation visible through all clones");
    }

    #[test]
    fn deadline_only_tightens() {
        let near = Instant::now() + Duration::from_secs(1);
        let far = Instant::now() + Duration::from_secs(100);
        let ctl = ResourceCtl::unlimited()
            .with_deadline(far)
            .with_deadline(near)
            .with_deadline(far);
        assert_eq!(ctl.deadline(), Some(near));
    }

    #[test]
    fn query_timeout_caps_the_call_deadline() {
        let ctl = ResourceCtl::unlimited()
            .with_timeout(Duration::from_secs(3600))
            .with_query_timeout(Duration::from_millis(1));
        let call = ctl.call_deadline().expect("deadline set");
        assert!(call < ctl.deadline().expect("overall deadline"));
    }

    #[test]
    fn expired_deadline_reports_deadline_interrupt() {
        let ctl = ResourceCtl::unlimited().with_timeout(Duration::ZERO);
        assert_eq!(ctl.interrupted(), Some(Interrupt::Deadline));
        assert_eq!(ctl.slack(), Some(Duration::ZERO));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let ctl = ResourceCtl::unlimited()
            .with_timeout(Duration::ZERO)
            .with_cancel(token);
        assert_eq!(ctl.interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn unlimited_control_never_interrupts() {
        let ctl = ResourceCtl::unlimited();
        assert_eq!(ctl.interrupted(), None);
        assert_eq!(ctl.call_deadline(), None);
        assert_eq!(ctl.slack(), None);
    }

    #[test]
    fn huge_timeouts_saturate_instead_of_panicking() {
        let ctl = ResourceCtl::unlimited().with_timeout(Duration::MAX);
        assert_eq!(ctl.interrupted(), None);
    }

    #[test]
    fn chained_cancel_tokens_are_all_observed() {
        let outer = CancelToken::new();
        let race = CancelToken::new();
        let ctl = ResourceCtl::unlimited()
            .with_cancel(outer.clone())
            .with_cancel(race.clone());
        assert!(!ctl.is_cancelled());
        assert_eq!(ctl.interrupted(), None);

        // Raising either token interrupts the control.
        race.cancel();
        assert!(ctl.is_cancelled());
        assert_eq!(ctl.interrupted(), Some(Interrupt::Cancelled));

        let ctl2 = ResourceCtl::unlimited()
            .with_cancel(outer.clone())
            .with_cancel(CancelToken::new());
        assert!(!ctl2.is_cancelled());
        outer.cancel();
        assert!(ctl2.is_cancelled(), "earlier tokens stay attached");
    }
}
