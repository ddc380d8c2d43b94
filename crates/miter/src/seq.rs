//! Sequential miter constructions.
//!
//! A sequential miter runs the golden and candidate sequential circuits in
//! lock-step on shared inputs (a product machine). A property miter
//! raises a single output when the property under test is violated **in
//! the current cycle**: output inequality or arithmetic error above a
//! threshold. A word miter outputs the error word itself — the
//! difference, the Hamming distance, the running total of the errors or
//! the count of erroneous cycles — and threshold searches compare it per
//! frame. Bounded model checking over these miters yields the paper's
//! precise sequential error metrics.

use crate::comb::diff_exceeds;
use axmc_aig::{Aig, Lit, Word};

/// Copies a sequential circuit into `dst` over shared input literals:
/// fresh latches (with the source's reset values) are created in `dst` and
/// wired to the images of the source's next-state functions. Returns the
/// images of the source's outputs.
///
/// # Panics
///
/// Panics if `inputs.len() != src.num_inputs()`.
pub fn embed_sequential(dst: &mut Aig, src: &Aig, inputs: &[Lit]) -> Vec<Lit> {
    assert_eq!(inputs.len(), src.num_inputs(), "input count mismatch");
    let first_latch = dst.num_latches();
    let latch_map: Vec<Lit> = src
        .latches()
        .iter()
        .map(|l| dst.add_latch(l.init))
        .collect();
    let mut roots: Vec<Lit> = src.outputs().to_vec();
    roots.extend(src.latches().iter().map(|l| l.next));
    let images = dst.import_cone(src, &roots, inputs, &latch_map);
    let (out_images, next_images) = images.split_at(src.num_outputs());
    for (k, &next) in next_images.iter().enumerate() {
        dst.set_latch_next(first_latch + k, next);
    }
    out_images.to_vec()
}

fn check_interfaces(golden: &Aig, candidate: &Aig) {
    assert_eq!(
        golden.num_inputs(),
        candidate.num_inputs(),
        "input count mismatch between golden and candidate"
    );
    assert_eq!(
        golden.num_outputs(),
        candidate.num_outputs(),
        "output count mismatch between golden and candidate"
    );
}

/// Product machine whose single output is 1 in any cycle where the two
/// circuits' outputs differ in at least one bit.
///
/// # Panics
///
/// Panics if the interfaces differ.
pub fn sequential_strict_miter(golden: &Aig, candidate: &Aig) -> Aig {
    check_interfaces(golden, candidate);
    let mut m = Aig::new();
    let inputs = m.add_inputs(golden.num_inputs());
    let og = embed_sequential(&mut m, golden, &inputs);
    let oc = embed_sequential(&mut m, candidate, &inputs);
    let diffs: Vec<Lit> = og.iter().zip(&oc).map(|(&a, &b)| m.xor(a, b)).collect();
    let bad = m.or_all(&diffs);
    m.add_output(bad);
    m
}

/// Product machine whose single output is 1 in any cycle where the
/// absolute arithmetic difference of the outputs exceeds `threshold`.
///
/// # Examples
///
/// ```
/// use axmc_circuit::{generators, approx};
/// use axmc_miter::{sequential_diff_miter};
/// # // tiny combinational circuits are also valid sequential circuits
/// let g = generators::ripple_carry_adder(3).to_aig();
/// let c = approx::truncated_adder(3, 1).to_aig();
/// let m = sequential_diff_miter(&g, &c, 1);
/// assert_eq!(m.num_outputs(), 1);
/// ```
///
/// # Panics
///
/// Panics if the interfaces differ.
pub fn sequential_diff_miter(golden: &Aig, candidate: &Aig, threshold: u128) -> Aig {
    check_interfaces(golden, candidate);
    let mut m = Aig::new();
    let inputs = m.add_inputs(golden.num_inputs());
    let og = Word::from_lits(embed_sequential(&mut m, golden, &inputs));
    let oc = Word::from_lits(embed_sequential(&mut m, candidate, &inputs));
    let diff = og.sub_signed(&mut m, &oc);
    let bad = diff_exceeds(&mut m, &diff, threshold);
    m.add_output(bad);
    m
}

/// Product machine whose single output is 1 in any cycle where the output
/// Hamming distance exceeds `threshold`.
///
/// # Panics
///
/// Panics if the interfaces differ.
pub fn sequential_bit_flip_miter(golden: &Aig, candidate: &Aig, threshold: u32) -> Aig {
    check_interfaces(golden, candidate);
    let mut m = Aig::new();
    let inputs = m.add_inputs(golden.num_inputs());
    let og = embed_sequential(&mut m, golden, &inputs);
    let oc = embed_sequential(&mut m, candidate, &inputs);
    let diffs: Vec<Lit> = og.iter().zip(&oc).map(|(&a, &b)| m.xor(a, b)).collect();
    let count = Word::from_lits(diffs).popcount(&mut m);
    let bad = count.ugt_const(&mut m, threshold as u128);
    m.add_output(bad);
    m
}

/// The comparator-less sequential difference miter: a product machine
/// whose outputs are the **two's-complement difference word** of the two
/// circuits' outputs in the current cycle (sign bit last).
///
/// This is the encode-once form used by incremental threshold searches
/// over BMC unrollings: comparators for each probed threshold are added
/// at the CNF level per frame.
///
/// # Panics
///
/// Panics if the interfaces differ.
pub fn sequential_diff_word_miter(golden: &Aig, candidate: &Aig) -> Aig {
    check_interfaces(golden, candidate);
    let mut m = Aig::new();
    let inputs = m.add_inputs(golden.num_inputs());
    let og = Word::from_lits(embed_sequential(&mut m, golden, &inputs));
    let oc = Word::from_lits(embed_sequential(&mut m, candidate, &inputs));
    let diff = og.sub_signed(&mut m, &oc);
    for &b in diff.bits() {
        m.add_output(b);
    }
    m
}

/// The comparator-less sequential Hamming miter: outputs the **popcount
/// word** of the XOR of the two circuits' current-cycle outputs.
///
/// # Panics
///
/// Panics if the interfaces differ.
pub fn sequential_popcount_word_miter(golden: &Aig, candidate: &Aig) -> Aig {
    check_interfaces(golden, candidate);
    let mut m = Aig::new();
    let inputs = m.add_inputs(golden.num_inputs());
    let og = embed_sequential(&mut m, golden, &inputs);
    let oc = embed_sequential(&mut m, candidate, &inputs);
    let diffs: Vec<Lit> = og.iter().zip(&oc).map(|(&a, &b)| m.xor(a, b)).collect();
    let count = Word::from_lits(diffs).popcount(&mut m);
    for &b in count.bits() {
        m.add_output(b);
    }
    m
}

/// The general error-accumulating miter (the paper's Gen/C/G/E/A/D
/// scheme): an `acc_width`-bit register accumulates the per-cycle absolute
/// arithmetic error with saturation; the outputs are the running total
/// including the current cycle (the register's next state), so the word
/// in cycle `k` is the total over cycles `0..=k`.
///
/// Saturation keeps the word sound: once the accumulator tops out at
/// `2^acc_width - 1` it stays there forever.
///
/// # Panics
///
/// Panics if the interfaces differ, or if `acc_width` is 0 or exceeds 127.
pub fn accumulated_error_miter(golden: &Aig, candidate: &Aig, acc_width: usize) -> Aig {
    check_interfaces(golden, candidate);
    assert!((1..=127).contains(&acc_width), "acc_width out of range");
    let mut m = Aig::new();
    let inputs = m.add_inputs(golden.num_inputs());

    // A(ccumulator) block: register file for the running total.
    let first_acc_latch = m.num_latches();
    let acc = Word::from_lits((0..acc_width).map(|_| m.add_latch(false)).collect());

    let og = Word::from_lits(embed_sequential(&mut m, golden, &inputs));
    let oc = Word::from_lits(embed_sequential(&mut m, candidate, &inputs));

    // E(rror) block: per-cycle |G - C|.
    let diff = og.sub_signed(&mut m, &oc);
    let abs = diff.abs(&mut m);
    let err = abs.resize_zero(acc_width);

    // A: saturating accumulation.
    let (sum, carry) = acc.add(&mut m, &err);
    let ones = Word::constant(u128::MAX, acc_width);
    let next_acc = Word::mux(&mut m, carry, &ones, &sum);
    for (k, &bit) in next_acc.bits().iter().enumerate() {
        m.set_latch_next(first_acc_latch + k, bit);
        m.add_output(bit);
    }
    m
}

/// The error-cycle counting miter (temporal error rate): a saturating
/// `count_width`-bit register counts the cycles in which the per-cycle
/// absolute arithmetic error exceeds `error_threshold`; the outputs are
/// the count including the current cycle (the register's next state).
///
/// A threshold search over this word answers "how many of the first k
/// cycles can be erroneous?" — the sequential analogue of the
/// combinational error rate.
///
/// # Panics
///
/// Panics if the interfaces differ, or `count_width` is 0 or exceeds 127.
pub fn error_cycle_count_miter(
    golden: &Aig,
    candidate: &Aig,
    count_width: usize,
    error_threshold: u128,
) -> Aig {
    check_interfaces(golden, candidate);
    assert!((1..=127).contains(&count_width), "count_width out of range");
    let mut m = Aig::new();
    let inputs = m.add_inputs(golden.num_inputs());

    let first_latch = m.num_latches();
    let count = Word::from_lits((0..count_width).map(|_| m.add_latch(false)).collect());

    let og = Word::from_lits(embed_sequential(&mut m, golden, &inputs));
    let oc = Word::from_lits(embed_sequential(&mut m, candidate, &inputs));
    let diff = og.sub_signed(&mut m, &oc);
    let erroneous = diff_exceeds(&mut m, &diff, error_threshold);

    // Saturating increment when this cycle is erroneous.
    let one = Word::constant(1, count_width);
    let (incremented, carry) = count.add(&mut m, &one);
    let ones = Word::constant(u128::MAX, count_width);
    let bumped = Word::mux(&mut m, carry, &ones, &incremented);
    let next = Word::mux(&mut m, erroneous, &bumped, &count);
    for (k, &bit) in next.bits().iter().enumerate() {
        m.set_latch_next(first_latch + k, bit);
        m.add_output(bit);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_aig::Simulator;
    use axmc_circuit::{approx, generators};

    /// Builds a toy sequential circuit: a 4-bit accumulator that adds its
    /// input through the supplied adder netlist each cycle.
    fn accumulator(adder: &axmc_circuit::Netlist, width: usize) -> Aig {
        let mut aig = Aig::new();
        let input = Word::new_inputs(&mut aig, width);
        let first = aig.num_latches();
        let state = Word::from_lits((0..width).map(|_| aig.add_latch(false)).collect());
        // adder inputs: a = state, b = input
        let mut add_inputs: Vec<Lit> = state.bits().to_vec();
        add_inputs.extend_from_slice(input.bits());
        let adder_aig = adder.to_aig();
        let sums = aig.import_cone(&adder_aig, adder_aig.outputs(), &add_inputs, &[]);
        for (k, &s) in sums.iter().enumerate().take(width) {
            aig.set_latch_next(first + k, s); // drop carry: wrapping
        }
        for k in 0..width {
            aig.add_output(state.bit(k));
        }
        aig
    }

    #[test]
    fn embed_sequential_preserves_behavior() {
        let adder = generators::ripple_carry_adder(4);
        let acc = accumulator(&adder, 4);
        let mut m = Aig::new();
        let inputs = m.add_inputs(4);
        let outs = embed_sequential(&mut m, &acc, &inputs);
        for &o in &outs {
            m.add_output(o);
        }
        let mut sim_src = Simulator::new(&acc);
        let mut sim_dst = Simulator::new(&m);
        let stim = [3u64, 5, 7, 1];
        for &s in &stim {
            let packed: Vec<u64> = (0..4)
                .map(|i| if (s >> i) & 1 == 1 { 1 } else { 0 })
                .collect();
            assert_eq!(sim_src.step(&packed), sim_dst.step(&packed));
        }
    }

    #[test]
    fn strict_seq_miter_silent_for_identical() {
        let adder = generators::ripple_carry_adder(3);
        let a = accumulator(&adder, 3);
        let b = accumulator(&adder, 3);
        let m = sequential_strict_miter(&a, &b);
        let mut sim = Simulator::new(&m);
        for step in 0..20u64 {
            let inputs: Vec<u64> = (0..3)
                .map(|i| {
                    if (step.wrapping_mul(2654435761) >> i) & 1 == 1 {
                        u64::MAX
                    } else {
                        0
                    }
                })
                .collect();
            assert_eq!(sim.step(&inputs)[0], 0, "cycle {step}");
        }
    }

    #[test]
    fn strict_seq_miter_flags_divergence() {
        let exact = accumulator(&generators::ripple_carry_adder(3), 3);
        let approx = accumulator(&approx::truncated_adder(3, 1), 3);
        let m = sequential_strict_miter(&exact, &approx);
        let mut sim = Simulator::new(&m);
        // Feed 1 each cycle: truncated adder zeroes bit 0, so states diverge.
        let one = [u64::MAX, 0, 0];
        let mut flagged = false;
        for _ in 0..8 {
            if sim.step(&one)[0] != 0 {
                flagged = true;
            }
        }
        assert!(flagged, "divergence must be observed within 8 cycles");
    }

    #[test]
    fn diff_seq_miter_thresholds() {
        let exact = accumulator(&generators::ripple_carry_adder(3), 3);
        let apx = accumulator(&approx::truncated_adder(3, 1), 3);
        // With threshold 7 (max representable diff) nothing can exceed it.
        let never = sequential_diff_miter(&exact, &apx, 7);
        let mut sim = Simulator::new(&never);
        let one = [u64::MAX, 0, 0];
        for _ in 0..8 {
            assert_eq!(sim.step(&one)[0], 0);
        }
        // With threshold 0 the first divergent cycle flags.
        let any = sequential_diff_miter(&exact, &apx, 0);
        let mut sim = Simulator::new(&any);
        let mut flagged = false;
        for _ in 0..8 {
            if sim.step(&one)[0] != 0 {
                flagged = true;
            }
        }
        assert!(flagged);
    }

    /// The miter's output word in each cycle of a one-lane simulation.
    fn words(m: &Aig, inputs: &[u64], cycles: usize) -> Vec<u128> {
        let mut sim = Simulator::new(m);
        (0..cycles)
            .map(|_| {
                let out = sim.step(inputs);
                out.iter()
                    .enumerate()
                    .map(|(bit, &lane)| u128::from(lane & 1) << bit)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn accumulated_error_miter_sums_errors() {
        // Compare an exact adder against itself: the total stays 0.
        let exact = accumulator(&generators::ripple_carry_adder(3), 3);
        let one = [u64::MAX, 0, 0];
        let m = accumulated_error_miter(&exact, &exact, 8);
        assert_eq!(m.num_outputs(), 8);
        assert!(words(&m, &one, 10).iter().all(|&w| w == 0));

        // Exact vs truncated, constant stimulus 1: the approximate state
        // stays 0 while the exact one counts 0, 1, 2, ..., 7, 0, ..., so
        // the running total grows by the exact state each cycle.
        let apx = accumulator(&approx::truncated_adder(3, 1), 3);
        let m = accumulated_error_miter(&exact, &apx, 8);
        let expected: Vec<u128> = (0..10u128)
            .scan(0, |total, cycle| {
                *total += cycle % 8;
                Some(*total)
            })
            .collect();
        assert_eq!(words(&m, &one, 10), expected);
        // A 3-bit total saturates at 7 and stays there.
        let narrow = accumulated_error_miter(&exact, &apx, 3);
        assert_eq!(words(&narrow, &one, 8), [0, 1, 3, 6, 7, 7, 7, 7]);
    }

    #[test]
    fn error_cycle_counter_counts() {
        // Exact vs truncated accumulator, constant stimulus 1: the
        // approximate state never moves (1 truncates to 0), the exact one
        // increments — every cycle from 1 on is erroneous.
        let exact = accumulator(&generators::ripple_carry_adder(3), 3);
        let apx = accumulator(&approx::truncated_adder(3, 1), 3);
        let one = [u64::MAX, 0, 0];
        let m = error_cycle_count_miter(&exact, &apx, 6, 0);
        assert_eq!(words(&m, &one, 6), [0, 1, 2, 3, 4, 5]);
        // Only errors above 2 count: exact states 3, 4, 5, ... from cycle 3.
        let m = error_cycle_count_miter(&exact, &apx, 6, 2);
        assert_eq!(words(&m, &one, 6), [0, 0, 0, 1, 2, 3]);
        // A 2-bit counter saturates at 3.
        let narrow = error_cycle_count_miter(&exact, &apx, 2, 0);
        assert_eq!(words(&narrow, &one, 6), [0, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn bit_flip_seq_miter_bounds() {
        let exact = accumulator(&generators::ripple_carry_adder(3), 3);
        let apx = accumulator(&approx::truncated_adder(3, 1), 3);
        // Hamming distance is at most 3 (3 output bits): threshold 3 never flags.
        let m = sequential_bit_flip_miter(&exact, &apx, 3);
        let mut sim = Simulator::new(&m);
        let one = [u64::MAX, 0, 0];
        for _ in 0..10 {
            assert_eq!(sim.step(&one)[0], 0);
        }
    }
}
