//! Concrete simulation probing: the *refutation* half of the static tier.
//!
//! The ternary analysis gives sound **upper** bounds. For sound **lower**
//! bounds (and for `Refuted` verdicts with a real witness) nothing beats
//! running the circuit: every concrete evaluation of a word-output miter
//! is a certificate that the error value it produces is achievable.
//!
//! [`max_word_probe`] evaluates a combinational word-output AIG on a
//! deterministic battery of input vectors — corner patterns plus a
//! seeded xorshift stream — 64 at a time on the bit-parallel
//! [`Simulator`], and returns the largest output word seen together with
//! the input assignment that produced it.

use axmc_aig::{Aig, Simulator};

/// Deterministic xorshift64* stream; keeps the probe reproducible
/// without pulling in an RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The outcome of a concrete probe: the best (largest) word value seen
/// and the input assignment that achieved it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeResult {
    /// Largest output word observed across all probed vectors.
    pub value: u128,
    /// The input assignment that produced [`ProbeResult::value`].
    pub witness: Vec<bool>,
}

/// Input `i` of corner vector `index`: all-0, all-1, the two
/// alternating phases, then a walking one and a walking zero per input
/// (the first 32 inputs).
fn corner_bit(index: usize, i: usize) -> bool {
    match index {
        0 => false,
        1 => true,
        2 => i.is_multiple_of(2),
        3 => !i.is_multiple_of(2),
        k => {
            let walk = (k - 4) / 2;
            (i == walk) == k.is_multiple_of(2)
        }
    }
}

/// Simulates `aig` (combinational, ≤ 128 outputs read LSB-first) on
/// corner patterns and `random` seeded pseudo-random vectors; returns
/// the maximal output word and its witness, or `None` for AIGs the
/// probe cannot handle (latches present or more than 128 outputs).
///
/// The vectors run 64 lanes at a time. The witness is the first vector,
/// in battery order, that reaches the maximum.
pub fn max_word_probe(aig: &Aig, random: usize, seed: u64) -> Option<ProbeResult> {
    if aig.num_latches() > 0 || aig.num_outputs() > 128 {
        return None;
    }
    let n = aig.num_inputs();
    let corners = 4 + 2 * n.min(32);
    let total = corners + random;
    let mut rng = XorShift(seed | 1);
    let mut sim = Simulator::new(aig);
    let mut lanes_in = vec![0u64; n];
    // The best value, its lane, and the packed chunk it came from.
    let mut best: Option<(u128, usize)> = None;
    let mut best_chunk = Vec::new();
    for start in (0..total).step_by(64) {
        let lanes = 64.min(total - start);
        lanes_in.fill(0);
        for lane in 0..lanes {
            let index = start + lane;
            for (i, word) in lanes_in.iter_mut().enumerate() {
                let bit = if index < corners {
                    corner_bit(index, i)
                } else {
                    rng.next() & 1 == 1
                };
                *word |= u64::from(bit) << lane;
            }
        }
        let outputs = sim.eval_comb(&lanes_in);
        let mut improved = false;
        for lane in 0..lanes {
            let value = outputs.iter().enumerate().fold(0u128, |w, (o, &bits)| {
                w | (u128::from((bits >> lane) & 1) << o)
            });
            if best.is_none_or(|(b, _)| value > b) {
                best = Some((value, lane));
                improved = true;
            }
        }
        if improved {
            best_chunk.clone_from(&lanes_in);
        }
    }
    best.map(|(value, lane)| ProbeResult {
        value,
        witness: best_chunk.iter().map(|w| (w >> lane) & 1 == 1).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_aig::{bits_to_u128, Lit, Word};

    /// The probe as one scalar evaluation per vector: the reference the
    /// 64-lane probe must reproduce, value and witness.
    fn scalar_probe(aig: &Aig, random: usize, seed: u64) -> Option<ProbeResult> {
        if aig.num_latches() > 0 || aig.num_outputs() > 128 {
            return None;
        }
        let n = aig.num_inputs();
        let mut best: Option<ProbeResult> = None;
        let try_vector = |bits: Vec<bool>, aig: &Aig, best: &mut Option<ProbeResult>| {
            let value = bits_to_u128(&aig.eval_comb(&bits));
            if best.as_ref().is_none_or(|b| value > b.value) {
                *best = Some(ProbeResult {
                    value,
                    witness: bits,
                });
            }
        };
        try_vector(vec![false; n], aig, &mut best);
        try_vector(vec![true; n], aig, &mut best);
        try_vector((0..n).map(|i| i % 2 == 0).collect(), aig, &mut best);
        try_vector((0..n).map(|i| i % 2 == 1).collect(), aig, &mut best);
        for walk in 0..n.min(32) {
            try_vector((0..n).map(|i| i == walk).collect(), aig, &mut best);
            try_vector((0..n).map(|i| i != walk).collect(), aig, &mut best);
        }
        let mut rng = XorShift(seed | 1);
        for _ in 0..random {
            let bits = (0..n).map(|_| rng.next() & 1 == 1).collect();
            try_vector(bits, aig, &mut best);
        }
        best
    }

    /// A random combinational AIG: `inputs` inputs, `ands` AND gates over
    /// random earlier literals, and `outputs` random output literals.
    fn random_aig(rng: &mut XorShift, inputs: usize, ands: usize, outputs: usize) -> Aig {
        let mut aig = Aig::new();
        let mut lits = aig.add_inputs(inputs);
        let pick = |rng: &mut XorShift, lits: &[Lit]| {
            let lit = lits[(rng.next() % lits.len() as u64) as usize];
            if rng.next() & 1 == 1 {
                !lit
            } else {
                lit
            }
        };
        for _ in 0..ands {
            let (a, b) = (pick(rng, &lits), pick(rng, &lits));
            let and = aig.and(a, b);
            lits.push(and);
        }
        for _ in 0..outputs {
            let out = pick(rng, &lits);
            aig.add_output(out);
        }
        aig
    }

    #[test]
    fn lanes_reproduce_the_scalar_probe() {
        let mut rng = XorShift(0x9e37_79b9);
        for round in 0..24 {
            // Past 32 inputs the walking patterns stop at input 31.
            let inputs = [1, 3, 6, 12, 20, 33, 40][round % 7];
            let outputs = 1 + (rng.next() % 12) as usize;
            let ands = 10 + (rng.next() % 60) as usize;
            let aig = random_aig(&mut rng, inputs, ands, outputs);
            for random in [0, 1, 63, 64, 65, 192] {
                let seed = rng.next();
                assert_eq!(
                    max_word_probe(&aig, random, seed),
                    scalar_probe(&aig, random, seed),
                    "round {round}, {inputs} inputs, {random} vectors"
                );
            }
        }
    }

    #[test]
    fn the_first_vector_to_reach_a_tied_maximum_wins() {
        // A constant word: every vector ties, so the all-0 corner wins.
        let mut aig = Aig::new();
        aig.add_inputs(5);
        aig.add_output(Lit::TRUE);
        let probe = max_word_probe(&aig, 100, 3).unwrap();
        assert_eq!(probe.value, 1);
        assert_eq!(probe.witness, [false; 5]);
        // The word x1 ∧ ¬x0 first peaks at the second alternating phase,
        // then again at later corners and random vectors in every chunk.
        let mut aig = Aig::new();
        let ins = aig.add_inputs(6);
        let peak = aig.and(ins[1], !ins[0]);
        aig.add_output(peak);
        for random in [0, 64, 192] {
            let probe = max_word_probe(&aig, random, 11).unwrap();
            assert_eq!(probe, scalar_probe(&aig, random, 11).unwrap());
            assert_eq!(
                probe.witness,
                (0..6).map(|i| i % 2 == 1).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn probe_finds_the_maximum_of_a_small_word() {
        // Output word = input word: the max is all-ones, which the
        // corner battery hits immediately.
        let mut aig = Aig::new();
        let w = Word::new_inputs(&mut aig, 4);
        for i in 0..4 {
            aig.add_output(w.bit(i));
        }
        let probe = max_word_probe(&aig, 0, 42).expect("combinational");
        assert_eq!(probe.value, 15);
        assert_eq!(probe.witness, vec![true; 4]);
    }

    #[test]
    fn probe_is_deterministic() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.xor(a, b);
        aig.add_output(x);
        let p1 = max_word_probe(&aig, 16, 7).unwrap();
        let p2 = max_word_probe(&aig, 16, 7).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.value, 1);
    }

    #[test]
    fn probe_declines_sequential_and_wide() {
        let mut seq = Aig::new();
        let q = seq.add_latch(false);
        seq.add_output(q);
        assert!(max_word_probe(&seq, 4, 1).is_none());

        let mut wide = Aig::new();
        let a = wide.add_input();
        for _ in 0..129 {
            wide.add_output(a);
        }
        assert!(max_word_probe(&wide, 4, 1).is_none());
    }

    #[test]
    fn witness_value_is_replayable() {
        let mut aig = Aig::new();
        let a = Word::new_inputs(&mut aig, 3);
        let b = Word::new_inputs(&mut aig, 3);
        let (sum, _carry) = a.add(&mut aig, &b);
        for i in 0..sum.width() {
            aig.add_output(sum.bit(i));
        }
        let probe = max_word_probe(&aig, 64, 99).unwrap();
        let replay = bits_to_u128(&aig.eval_comb(&probe.witness));
        assert_eq!(replay, probe.value);
    }
}
