//! Exact error metrics via BDDs: the average case by model counting, the
//! worst case by characteristic-function maximization.
//!
//! The worst-case metrics have efficient SAT formulations; the
//! *average-case* ones (MAE, error rate) need counting. For adder-class
//! circuits the BDDs stay small and the counts — hence the metrics — are
//! **exact with guarantees**, something random simulation cannot provide.
//!
//! There is one entry point per kind of metric, each taking a
//! [`ResourceCtl`] so the unified backend in `axmc-core` can run it under
//! the same deadlines and cancellation tokens as its SAT queries:
//!
//! * [`exact_average_with`] imports `|G − C|` once and derives both
//!   average metrics from one count with a shared per-node memo: the
//!   total error `Σ 2^i · #bit_i`, and the error-input count `#(OR of
//!   the bits)`, because `|G − C| ≠ 0` exactly when `G ≠ C`.
//! * [`exact_word_max`] maximizes the word a miter outputs — the worst
//!   case of `|G − C|` or of the bit-flip popcount — once per time frame
//!   of a frame-major miter (one frame for a combinational pair).

use crate::manager::{interleaved_order, BuildBddError, Manager, NodeId};
use axmc_aig::{Aig, Word};
use axmc_sat::ResourceCtl;

/// The variable order of a combinational pair: interleaves the two
/// operand halves when the input count is even (the standard layout of
/// the arithmetic generators, under which adder BDDs stay linear); falls
/// back to the natural order for odd input counts.
fn two_operand_order(num_inputs: usize) -> Vec<usize> {
    if num_inputs.is_multiple_of(2) {
        interleaved_order(num_inputs / 2)
    } else {
        (0..num_inputs).collect()
    }
}

/// The variable order of a frame-major miter over `frames` copies of
/// `num_inputs` inputs: the copies of each input sit next to each other,
/// input `i` of frame `f` at level `pos(i) * frames + f`, where `pos` is
/// [`two_operand_order`] when `interleave` is set and the identity
/// otherwise. One frame with `interleave` is [`two_operand_order`].
fn frame_order(num_inputs: usize, frames: usize, interleave: bool) -> Vec<usize> {
    let pos = if interleave {
        two_operand_order(num_inputs)
    } else {
        (0..num_inputs).collect()
    };
    (0..frames)
        .flat_map(|f| pos.iter().map(move |&p| p * frames + f))
        .collect()
}

/// A manager in `order` under the caller's node budget and resource
/// control.
fn metric_manager(order: &[usize], node_limit: usize, ctl: &ResourceCtl) -> Manager {
    Manager::new(order.len())
        .with_order(order)
        .with_node_limit(node_limit)
        .with_ctl(ctl.clone())
}

/// Exact average-case error statistics obtained by model counting.
///
/// Divide by `2^n` for the mean absolute error (`total_error`) and the
/// error rate (`error_inputs`) over all `n`-bit inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BddAverage {
    /// Exact sum of `|G − C|` over all `2^n` inputs.
    pub total_error: u128,
    /// Exact number of inputs on which the circuits disagree.
    pub error_inputs: u128,
    /// Peak BDD node count during the computation.
    pub bdd_nodes: usize,
}

fn check_interfaces(golden: &Aig, candidate: &Aig) {
    assert_eq!(golden.num_inputs(), candidate.num_inputs(), "input counts");
    assert_eq!(
        golden.num_outputs(),
        candidate.num_outputs(),
        "output counts"
    );
    assert_eq!(
        golden.num_latches() + candidate.num_latches(),
        0,
        "combinational only"
    );
}

/// Computes the **exact** total error and error-input count of
/// `candidate` against `golden` under a [`ResourceCtl`].
///
/// Builds one BDD per bit of `|golden − candidate|` and the OR of those
/// bits, then model-counts all of them in one pass over a shared memo:
/// `Σ |err| = Σ_i 2^i · #SAT(abs_bit_i)` and `#(G ≠ C) = #SAT(OR_i
/// abs_bit_i)`.
///
/// # Errors
///
/// [`BuildBddError::SizeLimit`] when the BDDs exceed `node_limit`
/// (expected for multiplier-class circuits — fall back to SAT or
/// sampling), [`BuildBddError::WidthLimit`] when the input width exceeds
/// the exact `u128` counting range, or [`BuildBddError::Interrupted`]
/// when the control's deadline or cancellation token fires.
///
/// # Panics
///
/// Panics if the circuits are sequential or their interfaces differ.
///
/// # Examples
///
/// ```
/// use axmc_bdd::exact_average_with;
/// use axmc_circuit::{approx, generators};
/// use axmc_sat::ResourceCtl;
///
/// let golden = generators::ripple_carry_adder(8).to_aig();
/// let cheap = approx::truncated_adder(8, 2).to_aig();
/// let stats = exact_average_with(&golden, &cheap, 1_000_000, &ResourceCtl::unlimited())?;
/// // Truncating two low bits: every low-operand pattern is averaged
/// // exactly over all 2^16 inputs, no sampling involved.
/// let mae = stats.total_error as f64 / 65536.0;
/// assert!(mae > 0.0 && mae < 6.0);
/// assert!(stats.error_inputs > 0 && stats.error_inputs <= stats.total_error);
/// # Ok::<(), axmc_bdd::BuildBddError>(())
/// ```
pub fn exact_average_with(
    golden: &Aig,
    candidate: &Aig,
    node_limit: usize,
    ctl: &ResourceCtl,
) -> Result<BddAverage, BuildBddError> {
    check_interfaces(golden, candidate);

    // |G - C| as a combinational circuit.
    let mut diff_aig = Aig::new();
    let inputs = diff_aig.add_inputs(golden.num_inputs());
    let og = Word::from_lits(diff_aig.import_cone(golden, golden.outputs(), &inputs, &[]));
    let oc = Word::from_lits(diff_aig.import_cone(candidate, candidate.outputs(), &inputs, &[]));
    let diff = og.sub_signed(&mut diff_aig, &oc);
    let abs = diff.abs(&mut diff_aig);
    for &b in abs.bits() {
        diff_aig.add_output(b);
    }
    let diff_aig = diff_aig.compact();

    let mut m = metric_manager(&two_operand_order(golden.num_inputs()), node_limit, ctl);
    let run = |m: &mut Manager| -> Result<(u128, u128), BuildBddError> {
        let mut roots = m.import_aig(&diff_aig)?;
        let mut any = NodeId::FALSE;
        for &bit in &roots {
            any = m.apply_or(any, bit)?;
        }
        roots.push(any);
        let counts = m.count_sat_all(&roots)?;
        let (error_inputs, bit_counts) = counts.split_last().expect("the OR root is last");
        let mut total: u128 = 0;
        for (i, &count) in bit_counts.iter().enumerate() {
            // Σ count_i · 2^i can outgrow u128 even when each count fits;
            // surface that as the same typed width-limit error.
            total = count
                .checked_shl(i as u32)
                .and_then(|scaled| total.checked_add(scaled))
                .ok_or(BuildBddError::WidthLimit {
                    vars: golden.num_inputs() + bit_counts.len(),
                })?;
        }
        Ok((total, *error_inputs))
    };
    // Flush cache/node introspection whether the build succeeded or blew
    // its limit — the blow-ups are exactly the runs worth inspecting.
    let counts = run(&mut m);
    m.flush_obs();
    let (total_error, error_inputs) = counts?;
    Ok(BddAverage {
        total_error,
        error_inputs,
        bdd_nodes: m.num_nodes(),
    })
}

/// Computes the **exact** maximum of the unsigned word (LSB first) that
/// the combinational `miter` outputs in each of its `frames` time frames,
/// under a [`ResourceCtl`]: imports the miter once and walks each frame's
/// slice of the outputs with [`Manager::max_word`], so the frames share
/// one manager and its computed cache. Applied to the `|G − C|` word this
/// is the worst-case error; applied to the XOR popcount word, the
/// bit-flip error.
///
/// The miter is frame-major, as `Aig::expand_frames` builds it: input `i`
/// of frame `f` is input `f * n + i`, and frame `f`'s word is the `f`-th
/// equal slice of the outputs. The frame copies of each input are
/// adjacent in the variable order (input `i` of frame `f` at level
/// `pos(i) * frames + f`), and `interleave` puts the two operand halves of
/// a frame's inputs side by side (`pos` alternates `a0 b0 a1 b1 …`;
/// otherwise it is the identity). A combinational pair is one frame,
/// interleaved.
///
/// Returns the per-frame maxima and the peak BDD node count.
///
/// # Errors
///
/// [`BuildBddError::SizeLimit`] when the BDDs exceed `node_limit`,
/// [`BuildBddError::WidthLimit`] for words wider than 128 bits, or
/// [`BuildBddError::Interrupted`] when the control fires.
///
/// # Panics
///
/// Panics if the miter is sequential, `frames` is 0, or the inputs or
/// outputs do not split into `frames` equal slices.
///
/// # Examples
///
/// ```
/// use axmc_bdd::exact_word_max;
/// use axmc_circuit::{approx, generators};
/// use axmc_miter::abs_diff_word_miter;
/// use axmc_sat::ResourceCtl;
///
/// let golden = generators::ripple_carry_adder(8).to_aig();
/// let cheap = approx::truncated_adder(8, 3).to_aig();
/// let miter = abs_diff_word_miter(&golden, &cheap);
/// let (wce, _nodes) = exact_word_max(&miter, 1, true, 1_000_000, &ResourceCtl::unlimited())?;
/// assert_eq!(wce, [(1 << 4) - 2]); // 2^(cut+1) - 2
/// # Ok::<(), axmc_bdd::BuildBddError>(())
/// ```
pub fn exact_word_max(
    miter: &Aig,
    frames: usize,
    interleave: bool,
    node_limit: usize,
    ctl: &ResourceCtl,
) -> Result<(Vec<u128>, usize), BuildBddError> {
    assert!(frames > 0, "at least one frame");
    let (inputs, width) = (miter.num_inputs(), miter.num_outputs());
    assert!(
        inputs.is_multiple_of(frames) && width.is_multiple_of(frames),
        "the miter does not split into {frames} frames"
    );
    let order = frame_order(inputs / frames, frames, interleave);
    let mut m = metric_manager(&order, node_limit, ctl);
    let slice = width / frames;
    let maxima = m.import_aig(miter).and_then(|bits| {
        (0..frames)
            .map(|f| m.max_word(&bits[f * slice..(f + 1) * slice]))
            .collect::<Result<Vec<_>, _>>()
    });
    m.flush_obs();
    Ok((maxima?, m.num_nodes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_aig::sim::for_each_assignment;
    use axmc_circuit::{approx, generators};
    use axmc_miter::{abs_diff_word_miter, popcount_word_miter};
    use axmc_sat::{CancelToken, Interrupt};

    /// Exhaustive (MAE, error rate, disagreement count) of a pair.
    fn exhaustive_mae_and_rate(golden: &Aig, cand: &Aig) -> (f64, f64, u128) {
        let mut g_out = Vec::new();
        for_each_assignment(golden, |_, out| g_out.push(out));
        let mut total = 0u128;
        let mut errs = 0u64;
        let mut count = 0u64;
        for_each_assignment(cand, |i, out| {
            let e = g_out[i as usize].abs_diff(out);
            total += e;
            if e != 0 {
                errs += 1;
            }
            count += 1;
        });
        (
            total as f64 / count as f64,
            errs as f64 / count as f64,
            u128::from(errs),
        )
    }

    fn average(golden: &Aig, cand: &Aig, node_limit: usize) -> Result<BddAverage, BuildBddError> {
        exact_average_with(golden, cand, node_limit, &ResourceCtl::unlimited())
    }

    /// (MAE, error rate) of the BDD statistics over `inputs` inputs.
    fn mae_and_rate(stats: &BddAverage, inputs: usize) -> (f64, f64) {
        let denom = 2f64.powi(inputs as i32);
        (
            stats.total_error as f64 / denom,
            stats.error_inputs as f64 / denom,
        )
    }

    #[test]
    fn mae_matches_exhaustive_for_adders() {
        let width = 6;
        let golden = generators::ripple_carry_adder(width).to_aig();
        for cand_nl in [
            approx::truncated_adder(width, 2),
            approx::lower_or_adder(width, 3),
            approx::speculative_adder(width, 2),
        ] {
            let cand = cand_nl.to_aig();
            let (mae, rate, _) = exhaustive_mae_and_rate(&golden, &cand);
            let stats = average(&golden, &cand, 1_000_000).unwrap();
            let (bdd_mae, bdd_rate) = mae_and_rate(&stats, 2 * width);
            assert!((bdd_mae - mae).abs() < 1e-12, "mae {bdd_mae} vs {mae}");
            assert!((bdd_rate - rate).abs() < 1e-12, "rate {bdd_rate} vs {rate}");
        }
    }

    #[test]
    fn equivalent_circuits_have_zero_metrics() {
        let a = generators::ripple_carry_adder(8).to_aig();
        let b = generators::carry_select_adder(8, 3).to_aig();
        let stats = average(&a, &b, 1_000_000).unwrap();
        assert_eq!(stats.total_error, 0);
        assert_eq!(stats.error_inputs, 0);
    }

    #[test]
    fn wide_adders_stay_feasible() {
        // 24-bit adder pair: 2^48 inputs — far beyond exhaustive sweeps,
        // exact via BDDs in well under a second.
        let width = 24;
        let golden = generators::ripple_carry_adder(width).to_aig();
        let cand = approx::truncated_adder(width, 6).to_aig();
        let stats = average(&golden, &cand, 5_000_000).unwrap();
        let (mae, _) = mae_and_rate(&stats, 2 * width);
        assert!(mae > 0.0);
        // Truncation drops the two low operand fields: expected MAE is
        // the mean of (a_lo + b_lo) plus carry interactions; bounded by
        // the worst case 2^7 - 2.
        assert!(mae < 126.0);
    }

    #[test]
    fn multipliers_hit_the_limit() {
        let width = 8;
        let golden = generators::array_multiplier(width).to_aig();
        let cand = approx::truncated_multiplier(width, 4).to_aig();
        match average(&golden, &cand, 50_000) {
            Err(BuildBddError::SizeLimit { .. }) => {}
            Err(other) => panic!("expected a size limit, got {other}"),
            Ok(stats) => panic!("expected blow-up, got {} nodes", stats.bdd_nodes),
        }
    }

    #[test]
    fn average_reports_the_exact_disagreement_count() {
        let width = 4;
        let golden = generators::ripple_carry_adder(width).to_aig();
        let cand = approx::truncated_adder(width, 2).to_aig();
        let (_, rate, errs) = exhaustive_mae_and_rate(&golden, &cand);
        let stats = average(&golden, &cand, 1_000_000).unwrap();
        assert_eq!(mae_and_rate(&stats, 2 * width).1, rate);
        assert_eq!(stats.error_inputs, (rate * 256.0).round() as u128);
        assert_eq!(stats.error_inputs, errs);
        assert!(stats.bdd_nodes > 2);
    }

    #[test]
    fn word_max_is_the_exhaustive_worst_case() {
        let width = 5;
        let golden = generators::ripple_carry_adder(width).to_aig();
        for cand_nl in [
            approx::truncated_adder(width, 2),
            approx::lower_or_adder(width, 3),
        ] {
            let cand = cand_nl.to_aig();
            let mut g_out = Vec::new();
            for_each_assignment(&golden, |_, out| g_out.push(out));
            let mut wce = 0u128;
            for_each_assignment(&cand, |i, out| {
                wce = wce.max(g_out[i as usize].abs_diff(out))
            });
            let miter = abs_diff_word_miter(&golden, &cand);
            let (value, nodes) =
                exact_word_max(&miter, 1, true, 1_000_000, &ResourceCtl::unlimited()).unwrap();
            assert_eq!(value, [wce]);
            assert!(nodes > 2 * width);
        }
        let mult = generators::array_multiplier(8).to_aig();
        let cand = approx::truncated_multiplier(8, 4).to_aig();
        let miter = abs_diff_word_miter(&mult, &cand);
        assert!(matches!(
            exact_word_max(&miter, 1, true, 50_000, &ResourceCtl::unlimited()),
            Err(BuildBddError::SizeLimit { limit: 50_000 })
        ));
    }

    #[test]
    fn frame_orders_keep_the_copies_of_an_input_together() {
        // Two operands of two bits over three frames.
        assert_eq!(frame_order(4, 1, true), two_operand_order(4));
        assert_eq!(
            frame_order(4, 3, false),
            [0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11]
        );
        // a0 b0 a1 b1 within a frame: a1 at position 2, b0 at 1.
        assert_eq!(
            frame_order(4, 3, true),
            [0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11]
        );
    }

    #[test]
    fn each_frame_gets_its_own_maximum() {
        // Frame-major miter over three frames of the same 4-bit input
        // pair; frame f's word is |G − C| of a different approximation.
        let width = 4;
        let golden = generators::ripple_carry_adder(width).to_aig();
        let cands = [
            approx::truncated_adder(width, 1).to_aig(),
            approx::lower_or_adder(width, 2).to_aig(),
            approx::truncated_adder(width, 3).to_aig(),
        ];
        let mut miter = Aig::new();
        let mut outputs = Vec::new();
        let mut expected = Vec::new();
        for cand in &cands {
            let single = abs_diff_word_miter(&golden, cand);
            let inputs = miter.add_inputs(single.num_inputs());
            outputs.extend(miter.import_cone(&single, single.outputs(), &inputs, &[]));
            let (max, _) =
                exact_word_max(&single, 1, true, 1_000_000, &ResourceCtl::unlimited()).unwrap();
            expected.extend(max);
        }
        miter.set_outputs(outputs);
        for interleave in [false, true] {
            let (maxima, _) =
                exact_word_max(&miter, 3, interleave, 1_000_000, &ResourceCtl::unlimited())
                    .unwrap();
            assert_eq!(maxima, expected, "interleave {interleave}");
        }
        assert!(expected.windows(2).any(|w| w[0] != w[1]));
    }

    /// What one library pair's three BDD computations return: each
    /// value with the node count of its manager.
    #[derive(Debug, PartialEq, Eq)]
    struct Pinned {
        name: &'static str,
        wce: (u128, usize),
        bit_flip: (u128, usize),
        /// Total error, error inputs, nodes.
        average: (u128, u128, usize),
    }

    const fn pin(
        name: &'static str,
        wce: (u128, usize),
        bit_flip: (u128, usize),
        average: (u128, u128, usize),
    ) -> Pinned {
        Pinned {
            name,
            wce,
            bit_flip,
            average,
        }
    }

    /// The values and node counts as the kernel recorded them before its
    /// tables became flat arrays. The kernel creates a node the first
    /// time its function is demanded, so no cache policy may move these.
    const PINNED: [Pinned; 11] = [
        pin("add8_trunc2", (6, 706), (8, 758), (196608, 61440, 704)),
        pin("add8_trunc4", (30, 728), (8, 1110), (983040, 65280, 713)),
        pin("add8_loa2", (2, 739), (9, 661), (40960, 28672, 739)),
        pin("add8_loa4", (8, 856), (9, 962), (188416, 44800, 856)),
        pin("add8_spec1", (168, 922), (7, 1176), (2064384, 39424, 905)),
        pin("add8_spec2", (64, 687), (5, 652), (491520, 12288, 640)),
        pin("mul4_pptrunc2", (5, 1223), (5, 1212), (320, 128, 1223)),
        pin("mul4_pptrunc4", (49, 1206), (8, 1500), (3136, 208, 1206)),
        pin("mul4_optrunc1", (29, 1226), (7, 1385), (1856, 176, 1221)),
        pin("mul4_optrunc2", (81, 1266), (7, 1670), (5184, 216, 1265)),
        pin("mul4_kulkarni", (50, 1681), (5, 1656), (800, 49, 1680)),
    ];

    #[test]
    fn library_pairs_keep_their_values_and_node_counts() {
        let adder = generators::ripple_carry_adder(8);
        let mult = generators::array_multiplier(4);
        let pairs = [
            (&adder, approx::truncated_adder(8, 2)),
            (&adder, approx::truncated_adder(8, 4)),
            (&adder, approx::lower_or_adder(8, 2)),
            (&adder, approx::lower_or_adder(8, 4)),
            (&adder, approx::speculative_adder(8, 1)),
            (&adder, approx::speculative_adder(8, 2)),
            (&mult, approx::truncated_multiplier(4, 2)),
            (&mult, approx::truncated_multiplier(4, 4)),
            (&mult, approx::operand_truncated_multiplier(4, 1)),
            (&mult, approx::operand_truncated_multiplier(4, 2)),
            (&mult, approx::kulkarni_multiplier(4)),
        ];
        let ctl = ResourceCtl::unlimited();
        for ((golden, cand), pinned) in pairs.iter().zip(PINNED) {
            let (golden, cand) = (golden.to_aig(), cand.to_aig());
            let word_max = |miter: &Aig| {
                let (max, nodes) = exact_word_max(miter, 1, true, 1_000_000, &ctl).unwrap();
                (max[0], nodes)
            };
            let avg = average(&golden, &cand, 1_000_000).unwrap();
            let got = pin(
                pinned.name,
                word_max(&abs_diff_word_miter(&golden, &cand)),
                word_max(&popcount_word_miter(&golden, &cand)),
                (avg.total_error, avg.error_inputs, avg.bdd_nodes),
            );
            assert_eq!(got, pinned);
        }
    }

    #[test]
    fn metrics_observe_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let ctl = ResourceCtl::unlimited().with_cancel(token);
        let golden = generators::ripple_carry_adder(8).to_aig();
        let cand = approx::truncated_adder(8, 2).to_aig();
        match exact_average_with(&golden, &cand, 1_000_000, &ctl) {
            Err(BuildBddError::Interrupted(Interrupt::Cancelled)) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        let miter = abs_diff_word_miter(&golden, &cand);
        match exact_word_max(&miter, 1, true, 1_000_000, &ctl) {
            Err(BuildBddError::Interrupted(Interrupt::Cancelled)) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn query_timeout_bounds_a_word_max_build() {
        // A 12-bit multiplier pair blows a 1 M-node budget only after
        // hundreds of milliseconds; the per-call timeout must stop the
        // build long before that.
        let golden = generators::array_multiplier(12).to_aig();
        let cand = approx::truncated_multiplier(12, 4).to_aig();
        let miter = abs_diff_word_miter(&golden, &cand);
        let ctl = ResourceCtl::unlimited().with_query_timeout(std::time::Duration::from_millis(1));
        match exact_word_max(&miter, 1, true, 1_000_000, &ctl) {
            Err(BuildBddError::Interrupted(Interrupt::Deadline)) => {}
            other => panic!("expected a deadline interruption, got {other:?}"),
        }
    }
}
