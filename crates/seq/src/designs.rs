//! Sequential design templates with pluggable combinational components.
//!
//! Each template builds a sequential AIG around a combinational component
//! (an adder, multiplier or incrementer given as a gate-level netlist).
//! Instantiating the same template once with the exact component and once
//! with an approximate one yields the golden/approximated circuit pair
//! whose sequential error the core engines determine.
//!
//! The templates cover the structural classes that drive sequential error
//! behaviour: **feedback** (accumulator, MAC, IIR — errors can build up),
//! **feed-forward depth** (FIR, moving average — errors are transient),
//! and **pure pipelines** (registered ALU — errors pass through once).

use axmc_aig::{Aig, Lit, Word};
use axmc_circuit::Netlist;

/// Instantiates a combinational component inside `aig` over the given
/// input literals, returning its output literals.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the component's input count.
pub fn instantiate(aig: &mut Aig, component: &Netlist, inputs: &[Lit]) -> Vec<Lit> {
    assert_eq!(
        inputs.len(),
        component.num_inputs(),
        "component input count mismatch"
    );
    let comp = component.to_aig();
    let roots: Vec<Lit> = comp.outputs().to_vec();
    aig.import_cone(&comp, &roots, inputs, &[])
}

fn check_adder(adder: &Netlist, width: usize) {
    assert_eq!(adder.num_inputs(), 2 * width, "adder input width");
    assert!(
        adder.num_outputs() >= width,
        "adder must produce at least {width} sum bits"
    );
}

/// An accumulator: `state <- state + input` each cycle through the given
/// `width`-bit adder (wrapping: the carry-out is dropped). Outputs the
/// `width`-bit state.
///
/// This is the canonical **error-accumulating** design: any additive bias
/// of an approximate adder compounds every cycle.
///
/// # Examples
///
/// ```
/// use axmc_circuit::generators::ripple_carry_adder;
/// use axmc_seq::accumulator;
/// use axmc_aig::Simulator;
///
/// let acc = accumulator(&ripple_carry_adder(4), 4);
/// let mut sim = Simulator::new(&acc);
/// // Feed the value 3 twice; state reads 0 then 3.
/// let three = [u64::MAX, u64::MAX, 0, 0];
/// assert_eq!(sim.step(&three)[0] & 1, 0);
/// let out = sim.step(&three);
/// assert_eq!(out[0] & 1, 1);
/// assert_eq!(out[1] & 1, 1);
/// ```
///
/// # Panics
///
/// Panics if the adder's interface does not match `width`.
pub fn accumulator(adder: &Netlist, width: usize) -> Aig {
    check_adder(adder, width);
    let mut aig = Aig::new();
    let input = Word::new_inputs(&mut aig, width);
    let first = aig.num_latches();
    let state: Vec<Lit> = (0..width).map(|_| aig.add_latch(false)).collect();
    let mut comp_inputs = state.clone();
    comp_inputs.extend_from_slice(input.bits());
    let sums = instantiate(&mut aig, adder, &comp_inputs);
    for (k, &s) in sums.iter().enumerate().take(width) {
        aig.set_latch_next(first + k, s);
    }
    for &s in &state {
        aig.add_output(s);
    }
    aig
}

/// An accumulator with headroom: the `input_width`-bit input is
/// zero-extended and accumulated into an `acc_width`-bit register through
/// an `acc_width`-bit adder, so no wrap-around occurs within
/// `2^(acc_width - input_width)` operations. Outputs the register.
///
/// This is the realistic form of [`accumulator`] for error-growth studies:
/// without headroom the modular distance metric saturates as soon as the
/// exact and approximate states straddle a wrap boundary.
///
/// # Panics
///
/// Panics if `acc_width < input_width` or the adder's interface does not
/// match `acc_width`.
pub fn wide_accumulator(adder: &Netlist, input_width: usize, acc_width: usize) -> Aig {
    assert!(acc_width >= input_width, "need headroom");
    check_adder(adder, acc_width);
    let mut aig = Aig::new();
    let input = Word::new_inputs(&mut aig, input_width);
    let first = aig.num_latches();
    let state: Vec<Lit> = (0..acc_width).map(|_| aig.add_latch(false)).collect();
    let mut comp_inputs = state.clone();
    comp_inputs.extend_from_slice(input.bits());
    comp_inputs.extend(std::iter::repeat_n(Lit::FALSE, acc_width - input_width));
    let sums = instantiate(&mut aig, adder, &comp_inputs);
    for (k, &s) in sums.iter().enumerate().take(acc_width) {
        aig.set_latch_next(first + k, s);
    }
    for &s in &state {
        aig.add_output(s);
    }
    aig
}

/// A multiply-accumulate unit: `acc <- acc + mult(a, b)` with a `2*width`
/// bit accumulator; outputs the accumulator.
///
/// `multiplier` is a `width × width` component (inputs `2*width`, outputs
/// `2*width`); `adder` is a `2*width`-bit component. Either (or both) may
/// be approximate. The accumulator wraps modulo `2^(2*width)`; use
/// [`mac_wide`] when headroom is wanted.
///
/// # Panics
///
/// Panics if the component interfaces do not match `width`.
pub fn mac(multiplier: &Netlist, adder: &Netlist, width: usize) -> Aig {
    mac_impl(multiplier, adder, width, 2 * width)
}

/// A multiply-accumulate unit with headroom: products are zero-extended
/// into an `acc_width`-bit accumulator (`acc_width >= 2 * width`) added
/// through an `acc_width`-bit adder, so no wrap occurs within
/// `2^(acc_width - 2*width)` operations.
///
/// # Panics
///
/// Panics if the component interfaces do not match, or
/// `acc_width < 2 * width`.
pub fn mac_wide(multiplier: &Netlist, adder: &Netlist, width: usize, acc_width: usize) -> Aig {
    assert!(acc_width >= 2 * width, "need headroom");
    mac_impl(multiplier, adder, width, acc_width)
}

fn mac_impl(multiplier: &Netlist, adder: &Netlist, width: usize, acc_width: usize) -> Aig {
    assert_eq!(multiplier.num_inputs(), 2 * width, "multiplier input width");
    assert!(
        multiplier.num_outputs() >= 2 * width,
        "multiplier must produce 2*width product bits"
    );
    check_adder(adder, acc_width);
    let mut aig = Aig::new();
    let a = Word::new_inputs(&mut aig, width);
    let b = Word::new_inputs(&mut aig, width);
    let first = aig.num_latches();
    let acc: Vec<Lit> = (0..acc_width).map(|_| aig.add_latch(false)).collect();

    let mut mul_inputs: Vec<Lit> = a.bits().to_vec();
    mul_inputs.extend_from_slice(b.bits());
    let product = instantiate(&mut aig, multiplier, &mul_inputs);

    let mut add_inputs: Vec<Lit> = acc.clone();
    add_inputs.extend_from_slice(&product[..2 * width]);
    add_inputs.extend(std::iter::repeat_n(Lit::FALSE, acc_width - 2 * width));
    let sums = instantiate(&mut aig, adder, &add_inputs);
    for (k, &s) in sums.iter().enumerate().take(acc_width) {
        aig.set_latch_next(first + k, s);
    }
    for &s in &acc {
        aig.add_output(s);
    }
    aig
}

/// A moving-sum FIR filter of the given tap count: a delay line of
/// `taps - 1` registers, with the output `x[n] + x[n-1] + … + x[n-taps+1]`
/// computed by a balanced tree of the supplied adders (each of growing
/// width, built by widening the operands with zero bits).
///
/// The adder component is `width`-bit; intermediate sums use the same
/// component on the low `width` bits plus exact zero-extension, so the
/// approximation is exercised at every tree node. The output has
/// `width + ceil(log2(taps))` bits.
///
/// This is the canonical **feed-forward** design: errors live for at most
/// `taps` cycles.
///
/// # Panics
///
/// Panics if `taps < 2` or the adder interface does not match `width`.
pub fn fir_moving_sum(adder: &Netlist, width: usize, taps: usize) -> Aig {
    assert!(taps >= 2, "need at least two taps");
    check_adder(adder, width);
    let mut aig = Aig::new();
    let input = Word::new_inputs(&mut aig, width);

    // Delay line.
    let mut line: Vec<Vec<Lit>> = Vec::with_capacity(taps);
    line.push(input.bits().to_vec());
    let mut prev: Vec<Lit> = input.bits().to_vec();
    for _ in 1..taps {
        let first = aig.num_latches();
        let regs: Vec<Lit> = (0..width).map(|_| aig.add_latch(false)).collect();
        for (k, &p) in prev.iter().enumerate() {
            aig.set_latch_next(first + k, p);
        }
        line.push(regs.clone());
        prev = regs;
    }

    // Balanced adder tree; sums keep the component's width and track the
    // overflow bits exactly (component adds the low `width` bits, upper
    // bits are rippled exactly — the approximation affects the low part).
    let total = sum_tree(&mut aig, adder, width, &line);
    for &s in &total {
        aig.add_output(s);
    }
    aig
}

/// Sums a list of words with a balanced tree. Each pairwise addition runs
/// the component on the low `width` bits and an exact ripple on any upper
/// bits, producing one extra bit per level.
fn sum_tree(aig: &mut Aig, adder: &Netlist, width: usize, words: &[Vec<Lit>]) -> Vec<Lit> {
    let mut layer: Vec<Vec<Lit>> = words.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len() / 2 + 1);
        for pair in layer.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0].clone());
                continue;
            }
            next.push(add_pair(aig, adder, width, &pair[0], &pair[1]));
        }
        layer = next;
    }
    layer.pop().expect("nonempty")
}

/// Adds two words: component on the low `width` bits, exact carry ripple
/// on the upper bits. Result is one bit wider than the wider operand.
fn add_pair(aig: &mut Aig, adder: &Netlist, width: usize, x: &[Lit], y: &[Lit]) -> Vec<Lit> {
    let w = x.len().max(y.len());
    let get = |v: &[Lit], i: usize| v.get(i).copied().unwrap_or(Lit::FALSE);
    // Component on the low `width` bits.
    let mut comp_inputs: Vec<Lit> = (0..width).map(|i| get(x, i)).collect();
    comp_inputs.extend((0..width).map(|i| get(y, i)));
    let lows = instantiate(aig, adder, &comp_inputs);
    let mut out: Vec<Lit> = lows[..width].to_vec();
    // Carry out of the component (bit `width` if present, else exact).
    let mut carry = lows.get(width).copied().unwrap_or(Lit::FALSE);
    // Exact ripple for upper bits.
    for i in width..w {
        let a = get(x, i);
        let b = get(y, i);
        let axb = aig.xor(a, b);
        let s = aig.xor(axb, carry);
        let c1 = aig.and(a, b);
        let c2 = aig.and(axb, carry);
        carry = aig.or(c1, c2);
        out.push(s);
    }
    out.push(carry);
    out
}

/// A leaky integrator (one-pole IIR): `y <- (y >> 1) + x` through the
/// supplied `width`-bit adder (wrapping). Outputs the `width`-bit state.
///
/// The shift attenuates the feedback, so injected errors decay — the
/// counterpoint to [`accumulator`].
///
/// # Panics
///
/// Panics if the adder interface does not match `width`.
pub fn leaky_integrator(adder: &Netlist, width: usize) -> Aig {
    check_adder(adder, width);
    let mut aig = Aig::new();
    let input = Word::new_inputs(&mut aig, width);
    let first = aig.num_latches();
    let state: Vec<Lit> = (0..width).map(|_| aig.add_latch(false)).collect();
    // y >> 1 (logical).
    let mut shifted: Vec<Lit> = state[1..].to_vec();
    shifted.push(Lit::FALSE);
    let mut comp_inputs = shifted;
    comp_inputs.extend_from_slice(input.bits());
    let sums = instantiate(&mut aig, adder, &comp_inputs);
    for (k, &s) in sums.iter().enumerate().take(width) {
        aig.set_latch_next(first + k, s);
    }
    for &s in &state {
        aig.add_output(s);
    }
    aig
}

/// A leaky integrator with headroom: `y <- (y >> 1) + x` where the
/// `input_width`-bit input is zero-extended into a `state_width`-bit
/// register through a `state_width`-bit adder. With one bit of headroom
/// (`state_width = input_width + 1`) the state never wraps, since the
/// fixpoint of `y/2 + x_max` is `2 * x_max`.
///
/// # Panics
///
/// Panics if `state_width < input_width` or the adder's interface does
/// not match `state_width`.
pub fn wide_leaky_integrator(adder: &Netlist, input_width: usize, state_width: usize) -> Aig {
    assert!(state_width >= input_width, "need headroom");
    check_adder(adder, state_width);
    let mut aig = Aig::new();
    let input = Word::new_inputs(&mut aig, input_width);
    let first = aig.num_latches();
    let state: Vec<Lit> = (0..state_width).map(|_| aig.add_latch(false)).collect();
    let mut shifted: Vec<Lit> = state[1..].to_vec();
    shifted.push(Lit::FALSE);
    let mut comp_inputs = shifted;
    comp_inputs.extend_from_slice(input.bits());
    comp_inputs.extend(std::iter::repeat_n(Lit::FALSE, state_width - input_width));
    let sums = instantiate(&mut aig, adder, &comp_inputs);
    for (k, &s) in sums.iter().enumerate().take(state_width) {
        aig.set_latch_next(first + k, s);
    }
    for &s in &state {
        aig.add_output(s);
    }
    aig
}

/// A counter with enable: `state <- inc(state)` when the enable input is
/// high, else hold. `incrementer` maps `width` bits to at least `width`
/// bits (`a + 1`). Outputs the state.
///
/// # Panics
///
/// Panics if the incrementer interface does not match `width`.
pub fn counter(incrementer: &Netlist, width: usize) -> Aig {
    assert_eq!(incrementer.num_inputs(), width, "incrementer input width");
    assert!(
        incrementer.num_outputs() >= width,
        "incrementer must produce at least {width} bits"
    );
    let mut aig = Aig::new();
    let enable = aig.add_input();
    let first = aig.num_latches();
    let state: Vec<Lit> = (0..width).map(|_| aig.add_latch(false)).collect();
    let inced = instantiate(&mut aig, incrementer, &state);
    for k in 0..width {
        let next = aig.mux(enable, inced[k], state[k]);
        aig.set_latch_next(first + k, next);
    }
    for &s in &state {
        aig.add_output(s);
    }
    aig
}

/// A running-maximum tracker: `state <- if cmp(input, state) then input
/// else state`, where `cmp` is a two-operand comparator component whose
/// output 0 decides "first operand greater". Outputs the state.
///
/// With an exact comparator this tracks the true maximum of the input
/// history. With a truncated comparator it can lag by the ignored low
/// bits — and, unusually for a feedback design, that error is **bounded**
/// (a good k-induction target).
///
/// # Panics
///
/// Panics if the comparator's interface does not match `width`.
pub fn max_tracker(comparator: &Netlist, width: usize) -> Aig {
    assert_eq!(comparator.num_inputs(), 2 * width, "comparator input width");
    assert!(
        comparator.num_outputs() >= 1,
        "comparator needs a gt output"
    );
    let mut aig = Aig::new();
    let input = Word::new_inputs(&mut aig, width);
    let first = aig.num_latches();
    let state: Vec<Lit> = (0..width).map(|_| aig.add_latch(false)).collect();
    let mut cmp_inputs: Vec<Lit> = input.bits().to_vec();
    cmp_inputs.extend_from_slice(&state);
    let gt = instantiate(&mut aig, comparator, &cmp_inputs)[0];
    for (k, &s) in state.iter().enumerate() {
        let next = aig.mux(gt, input.bit(k), s);
        aig.set_latch_next(first + k, next);
    }
    for &s in &state {
        aig.add_output(s);
    }
    aig
}

/// A pulse counter: a saturating `count_width`-bit counter increments in
/// every cycle where `cmp(input, level)` reports the input above the
/// constant `level`. Outputs the counter.
///
/// The component influences **control**, not data: an approximate
/// comparator mis-judges inputs near the level, and every mis-decision
/// shifts the count by one — error accumulates through wrong branches
/// rather than wrong sums.
///
/// # Panics
///
/// Panics if the comparator's interface does not match `width`, or
/// `count_width` is 0.
pub fn pulse_counter(comparator: &Netlist, width: usize, level: u128, count_width: usize) -> Aig {
    assert_eq!(comparator.num_inputs(), 2 * width, "comparator input width");
    assert!(
        comparator.num_outputs() >= 1,
        "comparator needs a gt output"
    );
    assert!(count_width > 0, "count_width must be positive");
    let mut aig = Aig::new();
    let input = Word::new_inputs(&mut aig, width);
    let first = aig.num_latches();
    let count = Word::from_lits((0..count_width).map(|_| aig.add_latch(false)).collect());

    let level_word = Word::constant(level, width);
    let mut cmp_inputs: Vec<Lit> = input.bits().to_vec();
    cmp_inputs.extend_from_slice(level_word.bits());
    let above = instantiate(&mut aig, comparator, &cmp_inputs)[0];

    let one = Word::constant(1, count_width);
    let (incremented, carry) = count.add(&mut aig, &one);
    let ones = Word::constant(u128::MAX, count_width);
    let bumped = Word::mux(&mut aig, carry, &ones, &incremented);
    let next = Word::mux(&mut aig, above, &bumped, &count);
    for (k, &bit) in next.bits().iter().enumerate() {
        aig.set_latch_next(first + k, bit);
    }
    for &c in count.bits() {
        aig.add_output(c);
    }
    aig
}

/// A registered ALU stage: operand registers feed the component, whose
/// result is registered before the output — a 2-deep pipeline with **no
/// feedback**. The component is a `width`-bit two-operand block with
/// `out_width` outputs.
///
/// # Panics
///
/// Panics if the component interface does not match `width`.
pub fn registered_alu(component: &Netlist, width: usize) -> Aig {
    assert_eq!(component.num_inputs(), 2 * width, "component input width");
    let out_width = component.num_outputs();
    let mut aig = Aig::new();
    let a = Word::new_inputs(&mut aig, width);
    let b = Word::new_inputs(&mut aig, width);
    // Stage 1: operand registers.
    let first_in = aig.num_latches();
    let ra: Vec<Lit> = (0..width).map(|_| aig.add_latch(false)).collect();
    let rb: Vec<Lit> = (0..width).map(|_| aig.add_latch(false)).collect();
    for k in 0..width {
        aig.set_latch_next(first_in + k, a.bit(k));
        aig.set_latch_next(first_in + width + k, b.bit(k));
    }
    // Component.
    let mut comp_inputs = ra.clone();
    comp_inputs.extend_from_slice(&rb);
    let result = instantiate(&mut aig, component, &comp_inputs);
    // Stage 2: output register.
    let first_out = aig.num_latches();
    let ro: Vec<Lit> = (0..out_width).map(|_| aig.add_latch(false)).collect();
    for (k, &r) in result.iter().enumerate().take(out_width) {
        aig.set_latch_next(first_out + k, r);
    }
    for &s in &ro {
        aig.add_output(s);
    }
    aig
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_aig::{bits_to_u128, Simulator};
    use axmc_circuit::generators;

    fn step_value(sim: &mut Simulator<'_>, inputs: &[bool]) -> u128 {
        let packed: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let out = sim.step(&packed);
        let bits: Vec<bool> = out.iter().map(|&v| v & 1 == 1).collect();
        bits_to_u128(&bits)
    }

    fn bits(x: u128, w: usize) -> Vec<bool> {
        axmc_aig::u128_to_bits(x, w)
    }

    #[test]
    fn accumulator_adds_inputs() {
        let acc = accumulator(&generators::ripple_carry_adder(4), 4);
        let mut sim = Simulator::new(&acc);
        let mut expected = 0u128;
        for x in [3u128, 5, 9, 15, 2] {
            let got = step_value(&mut sim, &bits(x, 4));
            assert_eq!(got, expected);
            expected = (expected + x) % 16;
        }
    }

    #[test]
    fn mac_multiplies_and_accumulates() {
        let m = mac(
            &generators::array_multiplier(3),
            &generators::ripple_carry_adder(6),
            3,
        );
        let mut sim = Simulator::new(&m);
        let mut expected = 0u128;
        for (a, b) in [(3u128, 5u128), (7, 7), (2, 6)] {
            let mut input = bits(a, 3);
            input.extend(bits(b, 3));
            let got = step_value(&mut sim, &input);
            assert_eq!(got, expected);
            expected = (expected + a * b) % 64;
        }
    }

    #[test]
    fn fir_computes_moving_sum() {
        let f = fir_moving_sum(&generators::ripple_carry_adder(4), 4, 4);
        let mut sim = Simulator::new(&f);
        let stimulus = [1u128, 2, 3, 4, 5, 6];
        let mut window = [0u128; 4];
        for (n, &x) in stimulus.iter().enumerate() {
            window.rotate_right(1);
            window[0] = x;
            let got = step_value(&mut sim, &bits(x, 4));
            let want: u128 =
                window.iter().take(n + 1).sum::<u128>() + window.iter().skip(n + 1).sum::<u128>();
            assert_eq!(got, want, "cycle {n}");
        }
    }

    #[test]
    fn leaky_integrator_decays() {
        let l = leaky_integrator(&generators::ripple_carry_adder(4), 4);
        let mut sim = Simulator::new(&l);
        // Inject 8 once, then zeros: state halves each cycle.
        assert_eq!(step_value(&mut sim, &bits(8, 4)), 0);
        assert_eq!(step_value(&mut sim, &bits(0, 4)), 8);
        assert_eq!(step_value(&mut sim, &bits(0, 4)), 4);
        assert_eq!(step_value(&mut sim, &bits(0, 4)), 2);
        assert_eq!(step_value(&mut sim, &bits(0, 4)), 1);
        assert_eq!(step_value(&mut sim, &bits(0, 4)), 0);
    }

    #[test]
    fn counter_counts_when_enabled() {
        let c = counter(&generators::incrementer(3), 3);
        let mut sim = Simulator::new(&c);
        assert_eq!(step_value(&mut sim, &[true]), 0);
        assert_eq!(step_value(&mut sim, &[true]), 1);
        assert_eq!(step_value(&mut sim, &[false]), 2);
        assert_eq!(step_value(&mut sim, &[true]), 2);
        assert_eq!(step_value(&mut sim, &[true]), 3);
    }

    #[test]
    fn registered_alu_is_a_two_stage_pipeline() {
        let alu = registered_alu(&generators::ripple_carry_adder(3), 3);
        let mut sim = Simulator::new(&alu);
        let feed = |sim: &mut Simulator<'_>, a: u128, b: u128| {
            let mut input = bits(a, 3);
            input.extend(bits(b, 3));
            step_value(sim, &input)
        };
        assert_eq!(feed(&mut sim, 3, 4), 0); // pipeline empty
        assert_eq!(feed(&mut sim, 1, 1), 0); // first result registering now
        assert_eq!(feed(&mut sim, 0, 0), 7); // 3+4 emerges after 2 cycles
        assert_eq!(feed(&mut sim, 0, 0), 2); // 1+1
    }

    #[test]
    fn max_tracker_tracks_maximum() {
        let m = max_tracker(&generators::comparator(4), 4);
        let mut sim = Simulator::new(&m);
        let stimulus = [3u128, 9, 5, 12, 7, 12, 1];
        let mut best = 0u128;
        for &x in &stimulus {
            let got = step_value(&mut sim, &bits(x, 4));
            assert_eq!(got, best, "state lags by one cycle");
            best = best.max(x);
        }
    }

    #[test]
    fn max_tracker_with_truncated_comparator_lags_boundedly() {
        use axmc_circuit::approx;
        let cut = 2;
        let exact = max_tracker(&generators::comparator(4), 4);
        let apx = max_tracker(&approx::truncated_comparator(4, cut), 4);
        let mut se = Simulator::new(&exact);
        let mut sa = Simulator::new(&apx);
        let stimulus = [3u128, 9, 11, 2, 15, 4];
        for &x in &stimulus {
            let ge = step_value(&mut se, &bits(x, 4));
            let ga = step_value(&mut sa, &bits(x, 4));
            assert!(ge >= ga, "approximate tracker never overshoots");
            assert!(ge - ga < (1 << cut), "lag bounded by 2^cut");
        }
    }

    #[test]
    fn pulse_counter_counts_above_level() {
        let c = pulse_counter(&generators::comparator(4), 4, 7, 4);
        let mut sim = Simulator::new(&c);
        let stimulus = [9u128, 3, 8, 7, 15, 0];
        let mut expect = 0u128;
        for &x in &stimulus {
            let got = step_value(&mut sim, &bits(x, 4));
            assert_eq!(got, expect, "input {x}");
            if x > 7 {
                expect += 1;
            }
        }
    }

    #[test]
    fn pulse_counter_with_truncated_comparator_misjudges_band() {
        use axmc_circuit::approx;
        // cut 2 at level 7: inputs 4..=7 compare as top(x)=1 == top(7)=1
        // -> "not above"; but inputs 8..=11 give top 2 > 1 -> "above".
        // The ambiguity band is 4..=7 (correctly not-above) vs e.g. level
        // 5: inputs 6,7 should count but top(6)=top(5)=1 -> missed.
        let exact = pulse_counter(&generators::comparator(4), 4, 5, 4);
        let apx = pulse_counter(&approx::truncated_comparator(4, 2), 4, 5, 4);
        let mut se = Simulator::new(&exact);
        let mut sa = Simulator::new(&apx);
        let stimulus = [6u128, 7, 6, 7];
        let mut last = (0u128, 0u128);
        for &x in &stimulus {
            last = (
                step_value(&mut se, &bits(x, 4)),
                step_value(&mut sa, &bits(x, 4)),
            );
        }
        // After three 6/7 inputs the exact counter shows 3, approx 0.
        assert_eq!(last.0, 3);
        assert_eq!(last.1, 0);
    }

    #[test]
    fn templates_accept_approximate_components() {
        use axmc_circuit::approx;
        let apx = approx::truncated_adder(4, 2);
        let acc = accumulator(&apx, 4);
        assert_eq!(acc.num_latches(), 4);
        let mut sim = Simulator::new(&acc);
        // 3 + 3 with low bits dropped: accumulates coarsely.
        step_value(&mut sim, &bits(3, 4));
        let second = step_value(&mut sim, &bits(3, 4));
        assert_eq!(second, 0, "3 truncates to 0 in the first addition");
    }

    #[test]
    fn sequential_depth_follows_the_design_class() {
        let adder = generators::ripple_carry_adder(4);
        for taps in 2..=5 {
            let fir = fir_moving_sum(&adder, 4, taps);
            assert_eq!(fir.sequential_depth(), Some(taps - 1), "{taps} taps");
        }
        assert_eq!(registered_alu(&adder, 4).sequential_depth(), Some(2));
        assert_eq!(accumulator(&adder, 4).sequential_depth(), None);
    }

    #[test]
    #[should_panic]
    fn interface_mismatch_panics() {
        let _ = accumulator(&generators::ripple_carry_adder(4), 5);
    }
}
