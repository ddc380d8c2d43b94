//! Gate-level netlists.
//!
//! A [`Netlist`] is a topologically ordered list of one- and two-input
//! gates over primary inputs and constants — the representation the CGP
//! chromosome decodes to, and the level at which the approximate component
//! library is described. Netlists lower to [`Aig`]s for formal reasoning.

use crate::area::AreaModel;
use axmc_aig::{Aig, Lit};
use std::fmt;

/// The gate functions available to netlists (and to CGP mutations), in the
/// canonical order used by the `Gates used` configuration parameter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateOp {
    /// `a & b`
    And,
    /// `a | b`
    Or,
    /// `a ^ b`
    Xor,
    /// `!(a & b)`
    Nand,
    /// `!(a | b)`
    Nor,
    /// `!(a ^ b)`
    Xnor,
    /// `!a` (ignores `b`)
    Not1,
    /// `!b` (ignores `a`)
    Not2,
    /// `a` (ignores `b`)
    Buf1,
}

impl GateOp {
    /// All gate operations, indexable by function id.
    pub const ALL: [GateOp; 9] = [
        GateOp::And,
        GateOp::Or,
        GateOp::Xor,
        GateOp::Nand,
        GateOp::Nor,
        GateOp::Xnor,
        GateOp::Not1,
        GateOp::Not2,
        GateOp::Buf1,
    ];

    /// The most AND gates [`Netlist::to_aig`] spends on this gate: an
    /// XOR takes three, a NOT or buffer none.
    fn aig_ands(self) -> usize {
        match self {
            GateOp::And | GateOp::Or | GateOp::Nand | GateOp::Nor => 1,
            GateOp::Xor | GateOp::Xnor => 3,
            GateOp::Not1 | GateOp::Not2 | GateOp::Buf1 => 0,
        }
    }

    /// Evaluates the gate on packed 64-lane operands.
    #[inline]
    pub fn eval64(self, a: u64, b: u64) -> u64 {
        match self {
            GateOp::And => a & b,
            GateOp::Or => a | b,
            GateOp::Xor => a ^ b,
            GateOp::Nand => !(a & b),
            GateOp::Nor => !(a | b),
            GateOp::Xnor => !(a ^ b),
            GateOp::Not1 => !a,
            GateOp::Not2 => !b,
            GateOp::Buf1 => a,
        }
    }

    /// Evaluates the gate on booleans.
    #[inline]
    pub fn eval(self, a: bool, b: bool) -> bool {
        self.eval64(mask(a), mask(b)) & 1 == 1
    }

    /// Returns `true` if the gate reads its second operand.
    pub fn uses_second_input(self) -> bool {
        !matches!(self, GateOp::Not1 | GateOp::Buf1)
    }

    /// Returns `true` if the gate reads its first operand.
    pub fn uses_first_input(self) -> bool {
        !matches!(self, GateOp::Not2)
    }
}

impl fmt::Display for GateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateOp::And => "AND",
            GateOp::Or => "OR",
            GateOp::Xor => "XOR",
            GateOp::Nand => "NAND",
            GateOp::Nor => "NOR",
            GateOp::Xnor => "XNOR",
            GateOp::Not1 => "NOT1",
            GateOp::Not2 => "NOT2",
            GateOp::Buf1 => "BUF1",
        };
        f.write_str(s)
    }
}

#[inline]
fn mask(b: bool) -> u64 {
    if b {
        u64::MAX
    } else {
        0
    }
}

/// A signal in a netlist: a constant, a primary input, or a gate output.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Signal {
    /// A constant 0 or 1.
    Const(bool),
    /// Primary input by ordinal.
    Input(u32),
    /// Output of gate by index.
    Gate(u32),
}

/// A gate instance: an operation over two fanin signals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gate {
    /// The gate function.
    pub op: GateOp,
    /// First fanin.
    pub a: Signal,
    /// Second fanin (ignored by one-input functions).
    pub b: Signal,
}

/// A topologically ordered gate-level netlist.
///
/// Invariant: each gate's fanins refer only to constants, inputs, or gates
/// with a strictly smaller index; [`Netlist::add_gate`] enforces this.
///
/// # Examples
///
/// ```
/// use axmc_circuit::{Netlist, GateOp};
///
/// // A 1-bit half adder.
/// let mut nl = Netlist::new(2);
/// let a = nl.input(0);
/// let b = nl.input(1);
/// let sum = nl.add_gate(GateOp::Xor, a, b);
/// let carry = nl.add_gate(GateOp::And, a, b);
/// nl.add_output(sum);
/// nl.add_output(carry);
///
/// assert_eq!(nl.eval(&[true, true]), vec![false, true]);
/// assert_eq!(nl.eval_binop(1, 1), 2); // as integers
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Netlist {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<Signal>,
}

impl Netlist {
    /// Creates an empty netlist with `num_inputs` primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        Netlist {
            num_inputs,
            gates: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Assembles a netlist from raw parts **without validation**.
    ///
    /// Unlike [`Netlist::add_gate`] and [`Netlist::add_output`], no
    /// topology or range checks are performed, so the result may be
    /// structurally broken. Intended for interchange (deserializing
    /// externally produced netlists) and for exercising the structural
    /// linter; run `axmc-check`'s netlist lint before trusting the
    /// result in an engine.
    pub fn from_raw_parts(num_inputs: usize, gates: Vec<Gate>, outputs: Vec<Signal>) -> Self {
        Netlist {
            num_inputs,
            gates,
            outputs,
        }
    }

    /// The signal of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs()`.
    pub fn input(&self, i: usize) -> Signal {
        assert!(i < self.num_inputs, "input {i} out of range");
        Signal::Input(i as u32)
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates (including gates not connected to any output).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gate list.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output signals.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    fn check_signal(&self, s: Signal, limit: usize) {
        match s {
            Signal::Const(_) => {}
            Signal::Input(i) => assert!((i as usize) < self.num_inputs, "bad input {i}"),
            Signal::Gate(g) => assert!((g as usize) < limit, "gate fanin {g} breaks topology"),
        }
    }

    /// Appends a gate and returns its output signal.
    ///
    /// # Panics
    ///
    /// Panics if a fanin refers to a not-yet-defined gate (topology) or an
    /// out-of-range input.
    pub fn add_gate(&mut self, op: GateOp, a: Signal, b: Signal) -> Signal {
        self.check_signal(a, self.gates.len());
        self.check_signal(b, self.gates.len());
        self.gates.push(Gate { op, a, b });
        Signal::Gate((self.gates.len() - 1) as u32)
    }

    /// Registers an output signal.
    ///
    /// # Panics
    ///
    /// Panics if the signal is out of range.
    pub fn add_output(&mut self, s: Signal) {
        self.check_signal(s, self.gates.len());
        self.outputs.push(s);
    }

    /// Evaluates on packed 64-lane inputs; one `u64` per input.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn eval64(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "input count mismatch");
        let mut values = vec![0u64; self.gates.len()];
        let read = |s: Signal, values: &[u64]| -> u64 {
            match s {
                Signal::Const(c) => mask(c),
                Signal::Input(i) => inputs[i as usize],
                Signal::Gate(g) => values[g as usize],
            }
        };
        for (i, g) in self.gates.iter().enumerate() {
            values[i] = g.op.eval64(read(g.a, &values), read(g.b, &values));
        }
        self.outputs.iter().map(|&o| read(o, &values)).collect()
    }

    /// Evaluates on a single boolean assignment.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let packed: Vec<u64> = inputs.iter().map(|&b| mask(b)).collect();
        self.eval64(&packed).iter().map(|&v| v & 1 == 1).collect()
    }

    /// Evaluates a two-operand arithmetic netlist whose inputs are the
    /// little-endian bits of `x` followed by the bits of `y` (each half of
    /// the inputs), returning the outputs as an unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics if the input count is odd.
    pub fn eval_binop(&self, x: u128, y: u128) -> u128 {
        assert!(
            self.num_inputs.is_multiple_of(2),
            "eval_binop needs an even input count"
        );
        let w = self.num_inputs / 2;
        let mut bits = axmc_aig::u128_to_bits(x, w);
        bits.extend(axmc_aig::u128_to_bits(y, w));
        axmc_aig::bits_to_u128(&self.eval(&bits))
    }

    /// Marks which gates participate in computing the outputs.
    pub fn active_gates(&self) -> Vec<bool> {
        let mut active = vec![false; self.gates.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &o in &self.outputs {
            if let Signal::Gate(g) = o {
                stack.push(g);
            }
        }
        while let Some(g) = stack.pop() {
            if std::mem::replace(&mut active[g as usize], true) {
                continue;
            }
            let gate = self.gates[g as usize];
            if gate.op.uses_first_input() {
                if let Signal::Gate(f) = gate.a {
                    stack.push(f);
                }
            }
            if gate.op.uses_second_input() {
                if let Signal::Gate(f) = gate.b {
                    stack.push(f);
                }
            }
        }
        active
    }

    /// Number of gates reachable from the outputs.
    pub fn num_active_gates(&self) -> usize {
        self.active_gates().iter().filter(|&&a| a).count()
    }

    /// Estimated area of the active gates under `model`.
    pub fn area(&self, model: &AreaModel) -> f64 {
        self.active_gates()
            .iter()
            .zip(&self.gates)
            .filter(|(&a, _)| a)
            .map(|(_, g)| model.gate_area(g.op))
            .sum()
    }

    /// Removes inactive gates, renumbering the remainder.
    pub fn compact(&self) -> Netlist {
        let active = self.active_gates();
        let mut map = vec![u32::MAX; self.gates.len()];
        let mut out = Netlist::new(self.num_inputs);
        let remap = |s: Signal, map: &[u32]| -> Signal {
            match s {
                Signal::Gate(g) => Signal::Gate(map[g as usize]),
                other => other,
            }
        };
        for (i, g) in self.gates.iter().enumerate() {
            if active[i] {
                let a = remap(g.a, &map);
                let b = if g.op.uses_second_input() {
                    remap(g.b, &map)
                } else {
                    // Dead second fanin may reference a dropped gate; tie off.
                    match g.b {
                        Signal::Gate(x) if map[x as usize] == u32::MAX => Signal::Const(false),
                        other => remap(other, &map),
                    }
                };
                let a = if g.op.uses_first_input() {
                    a
                } else {
                    match g.a {
                        Signal::Gate(x) if map[x as usize] == u32::MAX => Signal::Const(false),
                        other => remap(other, &map),
                    }
                };
                if let Signal::Gate(idx) = out.add_gate(g.op, a, b) {
                    map[i] = idx;
                }
            }
        }
        for &o in &self.outputs {
            out.add_output(remap(o, &map));
        }
        out
    }

    /// Lowers the netlist to an [`Aig`], producing one output per netlist
    /// output (in order).
    pub fn to_aig(&self) -> Aig {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(self.num_inputs);
        aig.reserve_ands(self.gates.iter().map(|g| g.op.aig_ands()).sum());
        let mut values: Vec<Lit> = Vec::with_capacity(self.gates.len());
        let read = |s: Signal, values: &[Lit]| -> Lit {
            match s {
                Signal::Const(c) => Lit::constant(c),
                Signal::Input(i) => inputs[i as usize],
                Signal::Gate(g) => values[g as usize],
            }
        };
        for g in &self.gates {
            let a = read(g.a, &values);
            let b = read(g.b, &values);
            let y = match g.op {
                GateOp::And => aig.and(a, b),
                GateOp::Or => aig.or(a, b),
                GateOp::Xor => aig.xor(a, b),
                GateOp::Nand => !aig.and(a, b),
                GateOp::Nor => !aig.or(a, b),
                GateOp::Xnor => !aig.xor(a, b),
                GateOp::Not1 => !a,
                GateOp::Not2 => !b,
                GateOp::Buf1 => a,
            };
            values.push(y);
        }
        for &o in &self.outputs {
            let image = read(o, &values);
            aig.add_output(image);
        }
        aig
    }

    /// Logic depth (in gates) of the deepest output cone.
    pub fn depth(&self) -> u32 {
        let mut level = vec![0u32; self.gates.len()];
        let sig_level = |s: Signal, level: &[u32]| -> u32 {
            match s {
                Signal::Gate(g) => level[g as usize],
                _ => 0,
            }
        };
        for (i, g) in self.gates.iter().enumerate() {
            let mut d = 0;
            if g.op.uses_first_input() {
                d = d.max(sig_level(g.a, &level));
            }
            if g.op.uses_second_input() {
                d = d.max(sig_level(g.b, &level));
            }
            level[i] = d + 1;
        }
        self.outputs
            .iter()
            .map(|&o| sig_level(o, &level))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let s = nl.add_gate(GateOp::Xor, a, b);
        let c = nl.add_gate(GateOp::And, a, b);
        nl.add_output(s);
        nl.add_output(c);
        nl
    }

    #[test]
    fn gate_op_truth_tables() {
        use GateOp::*;
        for (op, table) in [
            (And, [false, false, false, true]),
            (Or, [false, true, true, true]),
            (Xor, [false, true, true, false]),
            (Nand, [true, true, true, false]),
            (Nor, [true, false, false, false]),
            (Xnor, [true, false, false, true]),
            (Not1, [true, true, false, false]),
            (Not2, [true, false, true, false]),
            (Buf1, [false, false, true, true]),
        ] {
            for (i, &expect) in table.iter().enumerate() {
                let a = i & 2 != 0;
                let b = i & 1 != 0;
                assert_eq!(op.eval(a, b), expect, "{op} {a} {b}");
            }
        }
    }

    #[test]
    fn half_adder_eval() {
        let nl = half_adder();
        assert_eq!(nl.eval(&[false, false]), vec![false, false]);
        assert_eq!(nl.eval(&[true, false]), vec![true, false]);
        assert_eq!(nl.eval(&[true, true]), vec![false, true]);
        assert_eq!(nl.eval_binop(1, 1), 2);
    }

    #[test]
    fn eval64_lanes_are_independent() {
        let nl = half_adder();
        let out = nl.eval64(&[0b01, 0b11]);
        // lane 0: a=1,b=1 -> s=0,c=1 ; lane 1: a=0,b=1 -> s=1,c=0
        assert_eq!(out[0] & 0b11, 0b10);
        assert_eq!(out[1] & 0b11, 0b01);
    }

    #[test]
    fn active_gate_detection() {
        let mut nl = half_adder();
        // Add a dangling gate.
        let a = nl.input(0);
        nl.add_gate(GateOp::Nor, a, a);
        assert_eq!(nl.num_gates(), 3);
        assert_eq!(nl.num_active_gates(), 2);
        let c = nl.compact();
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.eval(&[true, true]), nl.eval(&[true, true]));
    }

    #[test]
    fn to_aig_matches_netlist() {
        let nl = half_adder();
        let aig = nl.to_aig();
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(aig.eval_comb(&[a, b]), nl.eval(&[a, b]), "{a} {b}");
            }
        }
    }

    #[test]
    fn to_aig_covers_all_ops() {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        for op in GateOp::ALL {
            let g = nl.add_gate(op, a, b);
            nl.add_output(g);
        }
        let aig = nl.to_aig();
        for va in [false, true] {
            for vb in [false, true] {
                assert_eq!(aig.eval_comb(&[va, vb]), nl.eval(&[va, vb]));
            }
        }
    }

    #[test]
    #[should_panic]
    fn topology_violation_panics() {
        let mut nl = Netlist::new(1);
        nl.add_gate(GateOp::Buf1, Signal::Gate(5), Signal::Const(false));
    }

    #[test]
    fn depth_computation() {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let g1 = nl.add_gate(GateOp::And, a, b);
        let g2 = nl.add_gate(GateOp::Or, g1, b);
        let g3 = nl.add_gate(GateOp::Xor, g2, g1);
        nl.add_output(g3);
        assert_eq!(nl.depth(), 3);
    }

    #[test]
    fn constants_flow() {
        let mut nl = Netlist::new(1);
        let one = Signal::Const(true);
        let a = nl.input(0);
        let g = nl.add_gate(GateOp::And, a, one);
        nl.add_output(g);
        assert_eq!(nl.eval(&[true]), vec![true]);
        assert_eq!(nl.eval(&[false]), vec![false]);
    }
}
