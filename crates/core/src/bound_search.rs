//! Counterexample-guided threshold search, shared by the combinational
//! and sequential analyzers.
//!
//! The worst-case metrics are located by probing "can the error exceed
//! T?" for varying T. SAT probes are cheap (the solver stops at the first
//! witness, and the witness's actual error tightens the lower bound);
//! UNSAT probes are the expensive part. The search therefore *gallops*
//! upward from the first witnessed error, doubling the threshold until
//! the first UNSAT probe, and only then bisects — the hard UNSAT probes
//! all happen near the true value instead of in the middle of the huge
//! output range.
//!
//! Probes are asked one at a time and answer with a [`Verdict<u128>`]:
//! `Refuted { witness }` raises the lower bound, `Proved` lowers the
//! upper bound, and `Interrupted` (budget/deadline/cancel) ends the
//! search with the **current tightest** certified interval `[lo, hi]` as
//! the anytime result. A hard error (`Err`, e.g. a rejected certificate)
//! aborts the search immediately.

use crate::report::{AnalysisError, Partial};
use crate::verdict::Verdict;

/// Saturates a (possibly 128-bit) error value into a traceable `u64`.
fn sat_u64(v: u128) -> u64 {
    v.min(u64::MAX as u128) as u64
}

/// Emits one `core.search.probe` trajectory event: which search, which
/// iteration/phase, the probed candidate bound, the verdict, and the
/// refinement interval `[lo, hi]` after applying the answer.
#[allow(clippy::too_many_arguments)]
fn trace_probe(label: &str, iter: u64, phase: &str, t: u128, verdict: &str, lo: u128, hi: u128) {
    axmc_obs::emit(
        axmc_obs::Event::new("core.search.probe")
            .field("search", label)
            .field("iter", iter)
            .field("phase", phase)
            .field("threshold", sat_u64(t))
            .field("verdict", verdict)
            .field("lo", sat_u64(lo))
            .field("hi", sat_u64(hi)),
    );
}

/// Clamps a `Refuted` witness back into contract: the probe promised a
/// witness strictly above the probed threshold and no larger than the
/// metric's representable maximum. A buggy or budget-degraded oracle may
/// hand back a stale witness (`e <= t`) or one past `max`; the search
/// must stay sound and terminating regardless, so the witness is clamped
/// to `[t + 1, max]` (and the violation flagged in debug builds).
fn clamp_witness(t: u128, e: u128, max: u128) -> u128 {
    debug_assert!(
        e > t && e <= max,
        "probe witness {e} out of contract at threshold {t} (max {max})"
    );
    e.max(t.saturating_add(1)).min(max)
}

/// Finds the exact maximum error in `[0, max]` given a probe oracle,
/// counting each probe on from `iter`'s current value, so that several
/// windows can make up one query that [`record_search`] then records
/// once.
///
/// `probe(t)` must answer whether the error can exceed `t`, returning
/// the witnessed error on the exceeding (`Refuted`) side. A `Refuted`
/// raises the lower bound, a `Proved` lowers the upper bound. An
/// interrupted probe (its budget or deadline ran out) ends the search
/// with the tightest certified interval reached so far, and a hard `Err`
/// (certificate rejection) aborts it at once.
///
/// `window = Some((lo, hi))` asserts that `lo` is a *witnessed*
/// (achievable) error value and `hi` a sound upper bound, both clamped
/// to `max`. The search then starts from `[lo, hi]` instead of
/// `[0, max]`: a strictly positive `lo` skips the initial probe at 0
/// entirely, `hi` caps the gallop ladder, and a degenerate window
/// (`lo == hi`) returns the exact value with **zero** probes.
/// `window = None` searches the full range.
///
/// `label` names the search in trace events (e.g. `"seq.wce"`); with
/// tracing active, every probe emits its candidate bound, verdict and
/// refinement interval.
pub(crate) fn search_window(
    label: &str,
    max: u128,
    window: Option<(u128, u128)>,
    mut probe: impl FnMut(u128) -> Result<Verdict<u128>, AnalysisError>,
    iter: &mut u64,
) -> Result<u128, AnalysisError> {
    let (seed_lo, mut hi) = match window {
        Some((lo, hi)) => {
            debug_assert!(lo <= hi, "seed window {lo}..{hi} is inverted");
            (lo.min(max), hi.min(max).max(lo.min(max)))
        }
        None => (0, max),
    };
    let tracing = axmc_obs::tracing_active();
    // A degenerate certified window pins the value with zero probes.
    if seed_lo >= hi {
        if tracing {
            trace_probe(label, *iter, "seed", seed_lo, "exact", seed_lo, hi);
        }
        return Ok(seed_lo.min(hi));
    }
    let mut lo = if seed_lo > 0 {
        // The window's lower bound is already witnessed: skip the
        // initial probe at zero and gallop straight from it.
        if tracing {
            trace_probe(label, *iter, "seed", seed_lo, "window", seed_lo, hi);
        }
        seed_lo
    } else {
        // First probe at zero: a fully accurate candidate exits
        // immediately.
        *iter += 1;
        match probe(0)? {
            Verdict::Proved => {
                if tracing {
                    trace_probe(label, *iter, "init", 0, "within", 0, 0);
                }
                return Ok(0);
            }
            Verdict::Refuted { witness } => {
                let w = clamp_witness(0, witness, max.max(1)).min(hi);
                if tracing {
                    trace_probe(label, *iter, "init", 0, "exceeds", w, hi);
                }
                w
            }
            Verdict::Interrupted { best_so_far } => {
                if tracing {
                    trace_probe(label, *iter, "init", 0, "interrupted", 0, hi);
                }
                return Err(AnalysisError::Interrupted(Partial {
                    reason: best_so_far.reason,
                    known_low: 0,
                    known_high: hi,
                    completed_bound: None,
                }));
            }
        }
    };
    // Applies one answer to the interval `[lo, hi]`; `Ok(true)` when it
    // proved its threshold.
    let mut ask = |phase: &str, t: u128, lo: &mut u128, hi: &mut u128| {
        *iter += 1;
        let proved = match probe(t)? {
            Verdict::Refuted { witness } => {
                *lo = (*lo).max(clamp_witness(t, witness, max));
                false
            }
            Verdict::Proved => {
                *hi = (*hi).min(t);
                true
            }
            Verdict::Interrupted { best_so_far } => {
                if tracing {
                    trace_probe(label, *iter, phase, t, "interrupted", *lo, *hi);
                }
                return Err(AnalysisError::Interrupted(Partial {
                    reason: best_so_far.reason,
                    known_low: *lo,
                    known_high: *hi,
                    completed_bound: None,
                }));
            }
        };
        if tracing {
            let verdict = if proved { "within" } else { "exceeds" };
            trace_probe(label, *iter, phase, t, verdict, *lo, *hi);
        }
        // A consistent oracle never crosses the bounds; an adversarial
        // one is clamped so the search still terminates.
        debug_assert!(*lo <= *hi, "probe answers crossed: lo {lo} > hi {hi}");
        *lo = (*lo).min(*hi);
        Ok(proved)
    };
    // Galloping phase: double the threshold until the first Proved.
    while lo < hi {
        let t = lo.saturating_mul(2).min(max);
        if t >= hi || ask("gallop", t, &mut lo, &mut hi)? {
            break;
        }
    }
    // Bisection phase.
    while lo < hi {
        let t = lo + (hi - lo) / 2;
        ask("bisect", t, &mut lo, &mut hi)?;
    }
    Ok(lo)
}

/// Records one finished query: the `core.searches` counter, its probe
/// count in the `core.search.probes` histogram and, when tracing, one
/// `core.search.done` event.
pub(crate) fn record_search(label: &str, probes: u64, value: &Result<u128, AnalysisError>) {
    if axmc_obs::enabled() {
        axmc_obs::counter("core.searches").inc();
        axmc_obs::histogram("core.search.probes").record(probes);
        if axmc_obs::tracing_active() {
            axmc_obs::emit(
                axmc_obs::Event::new("core.search.done")
                    .field("search", label)
                    .field("probes", probes)
                    .field(
                        "result",
                        match value {
                            Ok(v) => format!("{}", sat_u64(*v)),
                            Err(AnalysisError::Interrupted(_)) => "interrupted".to_string(),
                            Err(AnalysisError::CertificateRejected { .. }) => {
                                "certificate_rejected".to_string()
                            }
                        },
                    ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_sat::Interrupt;

    /// One whole search, its probes counted from zero.
    fn search_max_error(
        label: &str,
        max: u128,
        window: Option<(u128, u128)>,
        probe: impl FnMut(u128) -> Result<Verdict<u128>, AnalysisError>,
    ) -> Result<u128, AnalysisError> {
        search_window(label, max, window, probe, &mut 0)
    }

    fn exceeds(witness: u128) -> Result<Verdict<u128>, AnalysisError> {
        Ok(Verdict::Refuted { witness })
    }

    fn within() -> Result<Verdict<u128>, AnalysisError> {
        Ok(Verdict::Proved)
    }

    fn interrupted() -> Result<Verdict<u128>, AnalysisError> {
        Ok(Verdict::Interrupted {
            best_so_far: Partial::trivial(Interrupt::Conflicts),
        })
    }

    fn oracle(true_wce: u128) -> impl FnMut(u128) -> Result<Verdict<u128>, AnalysisError> {
        move |t| {
            if true_wce > t {
                exceeds(true_wce) // best-case witness
            } else {
                within()
            }
        }
    }

    fn weak_oracle(true_wce: u128) -> impl FnMut(u128) -> Result<Verdict<u128>, AnalysisError> {
        // Witness barely exceeds the threshold (worst-case witness).
        move |t| {
            if true_wce > t {
                exceeds(t + 1)
            } else {
                within()
            }
        }
    }

    #[test]
    fn finds_exact_value() {
        for wce in [0u128, 1, 2, 5, 7, 100, 255, 4095, 65535] {
            let max = 65535;
            assert_eq!(
                search_max_error("test", max, None, oracle(wce)).unwrap(),
                wce,
                "{wce}"
            );
            assert_eq!(
                search_max_error("test", max, None, weak_oracle(wce)).unwrap(),
                wce,
                "{wce}"
            );
        }
    }

    #[test]
    fn value_at_max() {
        assert_eq!(
            search_max_error("test", 255, None, oracle(255)).unwrap(),
            255
        );
        assert_eq!(
            search_max_error("test", 255, None, weak_oracle(255)).unwrap(),
            255
        );
    }

    #[test]
    fn probe_count_scales_with_value_not_range() {
        // Count probes for a small wce over a huge range.
        let mut count = 0u32;
        let wce = 6u128;
        let max = (1u128 << 64) - 1;
        let mut oracle = oracle(wce);
        let counted = |t: u128| {
            count += 1;
            oracle(t)
        };
        assert_eq!(search_max_error("test", max, None, counted).unwrap(), wce);
        assert!(count <= 10, "took {count} probes");
    }

    #[test]
    fn interruptions_propagate() {
        let result = search_max_error("test", 100, None, |_| interrupted());
        match result {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.reason, Some(Interrupt::Conflicts));
                assert_eq!((p.known_low, p.known_high), (0, 100));
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn hard_errors_abort_immediately() {
        let mut probes = 0u32;
        let result = search_max_error("test", 100, None, |t| {
            probes += 1;
            if t == 0 {
                exceeds(10)
            } else {
                Err(AnalysisError::CertificateRejected {
                    engine: "test".to_string(),
                    detail: "bad proof".to_string(),
                })
            }
        });
        assert!(matches!(
            result,
            Err(AnalysisError::CertificateRejected { .. })
        ));
        assert_eq!(probes, 2, "the rejection must abort the search at once");
    }

    /// The classic serial search written out directly: one probe at 0,
    /// a doubling gallop up to the first `Proved`, then midpoint
    /// bisection. Returns the thresholds it probed, in order.
    fn serial_ladder(
        max: u128,
        mut probe: impl FnMut(u128) -> Result<Verdict<u128>, AnalysisError>,
    ) -> Vec<u128> {
        let mut seq = vec![0];
        let (mut lo, mut hi) = match probe(0).unwrap() {
            Verdict::Refuted { witness } => (witness.min(max), max),
            _ => return seq,
        };
        while lo < hi {
            let t = lo.saturating_mul(2).min(max);
            if t >= hi {
                break;
            }
            seq.push(t);
            match probe(t).unwrap() {
                Verdict::Refuted { witness } => lo = lo.max(witness),
                _ => {
                    hi = t;
                    break;
                }
            }
        }
        while lo < hi {
            let t = if hi - lo <= 1 { lo } else { lo + (hi - lo) / 2 };
            seq.push(t);
            match probe(t).unwrap() {
                Verdict::Refuted { witness } => lo = lo.max(witness),
                _ => hi = t,
            }
        }
        seq
    }

    /// The thresholds [`search_window`] probes.
    fn batch_one_ladder(
        max: u128,
        mut probe: impl FnMut(u128) -> Result<Verdict<u128>, AnalysisError>,
    ) -> Vec<u128> {
        let mut seq = Vec::new();
        search_max_error("test", max, None, |t| {
            seq.push(t);
            probe(t)
        })
        .unwrap();
        seq
    }

    /// The search must probe exactly the classic serial sequence.
    #[test]
    fn batch_one_probes_identical_thresholds_to_serial() {
        for wce in [0u128, 3, 17, 100, 254, 255] {
            let max = 255;
            assert_eq!(
                serial_ladder(max, oracle(wce)),
                batch_one_ladder(max, oracle(wce)),
                "wce {wce}"
            );
            assert_eq!(
                serial_ladder(max, weak_oracle(wce)),
                batch_one_ladder(max, weak_oracle(wce)),
                "weak witnesses, wce {wce}"
            );
        }
    }

    // -- satellite: certified initial windows ---------------------------

    /// A caller-supplied `[lo, hi]` window must (a) not change the
    /// result and (b) strictly reduce the probe count relative to the
    /// full-range search — the regression contract of the static tier's
    /// window seeding.
    #[test]
    fn seeded_window_drops_the_probe_count() {
        for wce in [6u128, 100, 999, 4000] {
            let max = 65535u128;
            let mut unseeded_probes = 0u32;
            let mut o1 = oracle(wce);
            let unseeded = search_max_error("test", max, None, |t| {
                unseeded_probes += 1;
                o1(t)
            })
            .unwrap();
            // A realistic static window: witnessed lower bound below the
            // true value, sound upper bound above it.
            let window = (wce / 2 + 1, (wce * 2).min(max));
            let mut seeded_probes = 0u32;
            let mut o2 = oracle(wce);
            let seeded = search_max_error("test", max, Some(window), |t| {
                seeded_probes += 1;
                o2(t)
            })
            .unwrap();
            assert_eq!(unseeded, wce);
            assert_eq!(seeded, wce, "window must not change the result");
            assert!(
                seeded_probes < unseeded_probes,
                "wce {wce}: seeded {seeded_probes} !< unseeded {unseeded_probes}"
            );
        }
    }

    /// A degenerate window (`lo == hi`) is an exact value: zero probes.
    #[test]
    fn exact_window_needs_no_probes() {
        let result = search_max_error("test", 255, Some((42, 42)), |_| {
            panic!("no probe may be issued for an exact window")
        })
        .unwrap();
        assert_eq!(result, 42);
    }

    /// `window = None` must reproduce the unseeded probe sequence
    /// byte-for-byte, and so must the trivial full window `(0, max)`.
    #[test]
    fn trivial_window_probes_identically_to_unseeded() {
        for wce in [0u128, 3, 17, 100, 254, 255] {
            let max = 255;
            let mut plain_seq = Vec::new();
            let mut o1 = oracle(wce);
            search_max_error("test", max, None, |t| {
                plain_seq.push(t);
                o1(t)
            })
            .unwrap();
            let mut full_seq = Vec::new();
            let mut o2 = oracle(wce);
            search_max_error("test", max, Some((0, max)), |t| {
                full_seq.push(t);
                o2(t)
            })
            .unwrap();
            assert_eq!(plain_seq, full_seq, "wce {wce}");
        }
    }

    /// The window is clamped to `max`, and an interrupted seeded search
    /// reports an interval inside the window.
    #[test]
    fn window_clamps_and_bounds_partial_intervals() {
        assert_eq!(
            search_max_error("test", 100, Some((300, 400)), |_| panic!(
                "clamped to exact"
            ))
            .unwrap(),
            100
        );
        let result = search_max_error("test", 1000, Some((10, 500)), |_| interrupted());
        match result {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.known_low, 10);
                assert_eq!(p.known_high, 500);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    // -- satellite: hardening against out-of-contract witnesses --------

    /// A witness past `max` is clamped in release builds; the search
    /// still converges and never reports a value above `max`.
    #[test]
    #[cfg(not(debug_assertions))]
    fn adversarial_witness_above_max_is_clamped() {
        let wce = 200u128;
        let max = 255u128;
        let result = search_max_error("test", max, None, |t| {
            if wce > t {
                exceeds(u128::MAX) // wildly out of contract
            } else {
                within()
            }
        })
        .unwrap();
        assert!(result <= max);
        assert!(result >= wce, "clamped witness still drives lo past wce");
    }

    /// A stale witness (`e <= t`) is bumped to `t + 1` in release builds
    /// so the interval still strictly shrinks and the search terminates.
    #[test]
    #[cfg(not(debug_assertions))]
    fn adversarial_stale_witness_still_terminates() {
        let wce = 50u128;
        let max = 255u128;
        let mut probes = 0u32;
        let result = search_max_error("test", max, None, |t| {
            probes += 1;
            assert!(
                probes < 1000,
                "stale witnesses must not livelock the search"
            );
            if wce > t {
                exceeds(1) // stale: at most the very first witness
            } else {
                within()
            }
        })
        .unwrap();
        assert_eq!(result, wce);
    }

    /// In debug builds the same contract violations trip an assertion so
    /// oracle bugs are caught at the source instead of silently clamped.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of contract")]
    fn adversarial_witness_above_max_asserts_in_debug() {
        let _ = search_max_error("test", 255, None, |_| exceeds(u128::MAX));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of contract")]
    fn adversarial_stale_witness_asserts_in_debug() {
        let _ = search_max_error("test", 255, None, |t| {
            if t < 50 {
                exceeds(1)
            } else {
                within()
            }
        });
    }

    // -- satellite: deterministic handling of per-probe interrupts -----

    /// An interrupted probe ends the search with the tightest interval
    /// certified so far, not the trivial one.
    #[test]
    fn interrupted_probe_reports_the_tightest_interval() {
        let max = 65535u128;
        let result = search_max_error("test", max, None, |t| {
            if t == 0 {
                exceeds(7)
            } else {
                interrupted()
            }
        });
        match result {
            Err(AnalysisError::Interrupted(p)) => {
                // The initial probe witnessed 7 before the gallop probe
                // at 14 was starved: the interval must remember that
                // certified lower bound.
                assert_eq!(p.known_low, 7);
                assert_eq!(p.known_high, max);
                assert_eq!(p.reason, Some(Interrupt::Conflicts));
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }
}
