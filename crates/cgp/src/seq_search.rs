//! Verifiability-driven search against a **system-level** error bound.
//!
//! The plain search ([`crate::evolve`]) bounds the candidate component's
//! own worst-case error. This variant bounds the error of the *sequential
//! system the component is embedded in*: every accepted candidate carries
//! a proof, by `SeqAnalyzer::check_error_exceeds`, that the full design's
//! output error stays within the threshold for all input sequences up to
//! the horizon. Masking inside
//! the system is thereby exploited automatically — a component can be
//! much sloppier (and smaller) when the surrounding design hides most of
//! its error.
//!
//! Resource governance mirrors the combinational loop: the shared
//! [`SearchOptions::ctl`](crate::SearchOptions) stops the run at the next
//! generation boundary (anytime, best-so-far) and is observed inside
//! every verification probe; candidates whose verification it cuts
//! short are skipped, never turned into an abort.

use crate::chromosome::Chromosome;
use crate::search::{
    record_degraded, CandidateVerdict, SearchObs, SearchOptions, SearchResult, SearchStats,
};
use axmc_aig::Aig;
use axmc_circuit::Netlist;
use axmc_core::{AnalysisError, AnalysisOptions, SeqAnalyzer, Verdict};
use axmc_rand::rngs::StdRng;
use axmc_rand::SeedableRng;
use axmc_sat::{Budget, Interrupt};
use std::time::Instant;

/// The sequential embedding a candidate is judged in.
pub struct SequentialContext<'a> {
    /// Builds the sequential system around a component netlist. Must
    /// produce the same interface for every interface-compatible
    /// component (the templates in `axmc-seq` all qualify). `Sync`
    /// because the verifier fleet calls it from worker threads.
    pub build: &'a (dyn Fn(&Netlist) -> Aig + Sync),
    /// Horizon: the error bound is certified for all input sequences
    /// of up to `horizon + 1` cycles.
    pub horizon: usize,
    /// Budget per verification probe (budget exhaustion rejects the
    /// candidate, as in the combinational loop).
    pub budget: Budget,
}

/// Runs the verifiability-driven search with **system-level** acceptance:
/// a candidate component is accepted only when a threshold probe proves
/// the embedded system's worst-case output error within
/// `options.threshold` up to the context's horizon.
///
/// `options.verifier` is ignored (verification is defined by `context`);
/// `options.ctl` and `options.certify` apply to the probes.
///
/// # Errors
///
/// Returns [`AnalysisError::CertificateRejected`] when certified mode is
/// on and an acceptance certificate fails validation. Resource
/// exhaustion is *not* an error: it ends the run early with the best
/// verified circuit (see [`SearchStats::interrupt`]).
///
/// # Examples
///
/// ```
/// use axmc_circuit::generators::ripple_carry_adder;
/// use axmc_cgp::{evolve_in_context, SearchOptions, SequentialContext};
/// use axmc_sat::Budget;
/// use std::time::Duration;
///
/// let golden = ripple_carry_adder(4);
/// let context = SequentialContext {
///     build: &|component| axmc_seq::accumulator(component, 4),
///     horizon: 3,
///     budget: Budget::unlimited().with_conflicts(20_000),
/// };
/// let options = SearchOptions {
///     threshold: 6, // accumulated output error, not component error
///     max_generations: 150,
///     time_limit: Duration::from_secs(10),
///     ..SearchOptions::default()
/// };
/// let result = evolve_in_context(&golden, &context, &options)?;
/// assert!(result.area <= result.golden_area);
/// # Ok::<(), axmc_core::AnalysisError>(())
/// ```
///
/// # Panics
///
/// Panics if `golden` has no inputs or outputs.
pub fn evolve_in_context(
    golden: &Netlist,
    context: &SequentialContext<'_>,
    options: &SearchOptions,
) -> Result<SearchResult, AnalysisError> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let golden_system = (context.build)(golden).compact();
    let golden_area = golden.area(&options.area_model);

    let mut best = Chromosome::from_netlist(golden, options.extra_cols);
    let mut best_area = golden_area;
    let mut stats = SearchStats::default();
    let mut obs = SearchObs::new("seq", start, options.time_limit);

    let jobs = options.jobs.max(1);
    for generation in 0..options.max_generations {
        if let Some(reason) = options.ctl.interrupted() {
            stats.interrupt = Some(reason);
            break;
        }
        if start.elapsed() >= options.time_limit {
            break;
        }
        stats.generations = generation + 1;
        obs.progress(&stats, best_area);
        // One span per generation, parenting the fleet's per-candidate
        // verify spans — same trace shape as the combinational loop.
        let _generation = axmc_obs::span("cgp.generation.time_us");
        // Breed serially (one RNG stream), verify on the fleet, merge in
        // candidate order — same scheme as the combinational loop, so a
        // fixed seed gives one trajectory for every `jobs` value.
        let mut candidates: Vec<(Chromosome, Netlist, f64)> =
            Vec::with_capacity(options.population);
        for _ in 0..options.population {
            stats.offspring += 1;
            let mut child = best.clone();
            let touched_active = child.mutate(options.max_mutations, &mut rng);
            if !touched_active {
                stats.skipped_neutral += 1;
                best = child;
                continue;
            }
            let netlist = child.decode();
            let area = netlist.area(&options.area_model);
            if area > best_area {
                stats.skipped_area += 1;
                continue;
            }
            stats.verifier_calls += 1;
            candidates.push((child, netlist, area));
        }
        let verdicts = axmc_par::parallel_map(jobs, &candidates, |_, (_, netlist, _)| {
            verify_in_context(&golden_system, netlist, context, options)
        });
        for ((child, _, area), verdict) in candidates.into_iter().zip(verdicts) {
            match verdict? {
                CandidateVerdict::WithinBound => {
                    stats.verified_ok += 1;
                    if area <= best_area {
                        let improved = area < best_area;
                        best = child;
                        best_area = area;
                        if improved {
                            stats.improvements += 1;
                            stats.area_history.push((generation, area));
                            obs.improvement(generation, area, golden_area);
                        }
                    }
                }
                CandidateVerdict::Violation => stats.verified_violation += 1,
                CandidateVerdict::ResourceLimit(reason) => {
                    stats.verified_timeout += 1;
                    record_degraded(reason);
                }
            }
        }
    }
    stats.elapsed = start.elapsed();
    obs.finish(&stats, best_area, golden_area);
    let netlist = best.decode().compact();
    Ok(SearchResult {
        best,
        netlist,
        area: best_area,
        golden_area,
        stats,
    })
}

/// One candidate's system-level acceptance check: one threshold probe of
/// the system pair, under the run's shared resource control plus the
/// context's per-call budget.
fn verify_in_context(
    golden_system: &Aig,
    netlist: &Netlist,
    context: &SequentialContext<'_>,
    options: &SearchOptions,
) -> Result<CandidateVerdict, AnalysisError> {
    let _span = axmc_obs::span("cgp.verify.time_us");
    let system = (context.build)(netlist);
    let analysis = AnalysisOptions::new()
        .with_ctl(options.ctl.clone().with_budget(context.budget))
        .with_certify(options.certify);
    let verdict = SeqAnalyzer::new(golden_system, &system)
        .with_options(analysis)
        .check_error_exceeds(options.threshold, context.horizon)?;
    Ok(match verdict {
        Verdict::Proved => CandidateVerdict::WithinBound,
        Verdict::Refuted { .. } => CandidateVerdict::Violation,
        Verdict::Interrupted { best_so_far } => {
            CandidateVerdict::ResourceLimit(best_so_far.reason.unwrap_or(Interrupt::Conflicts))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_circuit::generators;
    use axmc_mc::Trace;
    use axmc_sat::ResourceCtl;
    use std::time::Duration;

    fn options(threshold: u128, generations: u64) -> SearchOptions {
        SearchOptions {
            threshold,
            population: 4,
            max_mutations: 4,
            max_generations: generations,
            time_limit: Duration::from_secs(30),
            seed: 31,
            extra_cols: 2,
            ..SearchOptions::default()
        }
    }

    /// Brute-force system WCE over all input sequences of length `k + 1`
    /// (`in_bits` = the system's per-cycle input width).
    fn brute_system_wce(golden: &Aig, system: &Aig, in_bits: usize, k: usize) -> u128 {
        assert_eq!(golden.num_inputs(), in_bits);
        let mut worst = 0u128;
        let seqs = 1u64 << (in_bits * (k + 1));
        for s in 0..seqs {
            let inputs: Vec<Vec<bool>> = (0..=k)
                .map(|step| {
                    (0..in_bits)
                        .map(|i| (s >> (step * in_bits + i)) & 1 == 1)
                        .collect()
                })
                .collect();
            let trace = Trace { inputs };
            let og = trace.replay(golden);
            let oc = trace.replay(system);
            for (g, c) in og.iter().zip(&oc) {
                worst = worst.max(axmc_aig::bits_to_u128(g).abs_diff(axmc_aig::bits_to_u128(c)));
            }
        }
        worst
    }

    #[test]
    fn system_certificate_holds() {
        let width = 3;
        let horizon = 2;
        let threshold = 4u128;
        let golden = generators::ripple_carry_adder(width);
        let context = SequentialContext {
            build: &|c| axmc_seq::accumulator(c, width),
            horizon,
            budget: Budget::unlimited().with_conflicts(20_000),
        };
        let result = evolve_in_context(&golden, &context, &options(threshold, 250)).unwrap();
        // Independent brute-force check of the certificate.
        let golden_system = axmc_seq::accumulator(&golden, width);
        let evolved_system = axmc_seq::accumulator(&result.netlist, width);
        let wce = brute_system_wce(&golden_system, &evolved_system, width, horizon);
        assert!(wce <= threshold, "system WCE {wce} exceeds {threshold}");
        assert!(result.area <= result.golden_area + 1e-9);
    }

    #[test]
    fn masking_allows_more_reduction_than_component_bound() {
        // In the registered ALU the system error equals the component
        // error, so the two searches are directly comparable; in the
        // accumulator a given system budget over k cycles is *tighter*
        // than the same component budget (errors add). This test only
        // pins the soundness direction: the evolved system never violates.
        let width = 2; // ALU takes 2*width inputs per cycle
        let golden = generators::ripple_carry_adder(width);
        let context = SequentialContext {
            build: &|c| axmc_seq::registered_alu(c, width),
            horizon: 2,
            budget: Budget::unlimited().with_conflicts(20_000),
        };
        let threshold = 1;
        let result = evolve_in_context(&golden, &context, &options(threshold, 200)).unwrap();
        let golden_system = axmc_seq::registered_alu(&golden, width);
        let evolved_system = axmc_seq::registered_alu(&result.netlist, width);
        let wce = brute_system_wce(&golden_system, &evolved_system, 2 * width, 2);
        assert!(wce <= threshold);
    }

    #[test]
    fn jobs_do_not_change_the_system_level_trajectory() {
        let width = 3;
        let golden = generators::ripple_carry_adder(width);
        let context = SequentialContext {
            build: &|c| axmc_seq::accumulator(c, width),
            horizon: 2,
            budget: Budget::unlimited().with_conflicts(20_000),
        };
        let mut opts = options(4, 60);
        opts.time_limit = Duration::from_secs(600); // generations bound only
        let serial = evolve_in_context(&golden, &context, &opts).unwrap();
        let mut par_opts = opts.clone();
        par_opts.jobs = 8;
        let par = evolve_in_context(&golden, &context, &par_opts).unwrap();
        assert_eq!(serial.best.genes(), par.best.genes());
        assert_eq!(serial.area, par.area);
        let mut a = serial.stats.clone();
        let mut b = par.stats.clone();
        a.elapsed = Duration::ZERO;
        b.elapsed = Duration::ZERO;
        assert_eq!(a, b);
    }

    #[test]
    fn zero_threshold_keeps_equivalence() {
        let width = 3;
        let golden = generators::ripple_carry_adder(width);
        let context = SequentialContext {
            build: &|c| axmc_seq::accumulator(c, width),
            horizon: 2,
            budget: Budget::unlimited(),
        };
        let result = evolve_in_context(&golden, &context, &options(0, 120)).unwrap();
        let golden_system = axmc_seq::accumulator(&golden, width);
        let evolved_system = axmc_seq::accumulator(&result.netlist, width);
        assert_eq!(
            brute_system_wce(&golden_system, &evolved_system, width, 2),
            0
        );
    }

    #[test]
    fn expired_deadline_returns_the_golden_seed_anytime() {
        let width = 3;
        let golden = generators::ripple_carry_adder(width);
        let context = SequentialContext {
            build: &|c| axmc_seq::accumulator(c, width),
            horizon: 2,
            budget: Budget::unlimited(),
        };
        let mut opts = options(4, 100);
        opts.ctl = ResourceCtl::unlimited().with_timeout(Duration::ZERO);
        let result = evolve_in_context(&golden, &context, &opts).unwrap();
        assert_eq!(result.stats.interrupt, Some(Interrupt::Deadline));
        assert_eq!(result.stats.generations, 0);
        assert_eq!(result.area, result.golden_area);
    }
}
