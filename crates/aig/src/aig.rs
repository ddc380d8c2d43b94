//! The And-Inverter Graph data structure.

use crate::{Lit, Var};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The odd multiplier of [`MulHasher`].
const HASH_MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiplicative hasher for the structural-hashing table: one
/// add-multiply per word, where SipHash spends a few dozen operations.
/// The finish multiplies the state xor a per-process random key, so an
/// input file cannot be crafted to pile its gates into a few buckets.
#[derive(Clone, Copy)]
struct MulHasher {
    state: u64,
    key: u64,
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(HASH_MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits at the top; the table
        // indexes buckets with the low bits.
        (self.state ^ self.key)
            .wrapping_mul(HASH_MULTIPLIER)
            .rotate_left(26)
    }
}

/// Builds [`MulHasher`]s under this process's key, drawn once from the
/// standard library's random hasher seeds.
#[derive(Clone, Copy)]
struct StrashKey(u64);

impl Default for StrashKey {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        StrashKey(*KEY.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for StrashKey {
    type Hasher = MulHasher;

    fn build_hasher(&self) -> MulHasher {
        MulHasher {
            state: 0,
            key: self.0,
        }
    }
}

/// The kind of a node in an [`Aig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Node {
    /// The constant-false node (always variable 0).
    Const,
    /// A primary input; the payload is the input's ordinal.
    Input(u32),
    /// A latch (register) output; the payload is the latch's ordinal.
    Latch(u32),
    /// A two-input AND gate over two (possibly complemented) literals.
    And(Lit, Lit),
}

/// A latch (register) of a sequential AIG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Latch {
    /// The variable holding the latch's current-state output.
    pub var: Var,
    /// The literal driving the latch's next state.
    pub next: Lit,
    /// The reset value of the latch.
    pub init: bool,
}

/// An And-Inverter Graph with optional latches (registers).
///
/// Nodes are stored in topological order: the fanins of every AND gate have
/// strictly smaller variable indices. Structural hashing and constant
/// folding are applied by [`Aig::and`] and everything built on top of it,
/// so equivalent sub-structures are shared.
///
/// # Examples
///
/// Build a full adder and evaluate it:
///
/// ```
/// use axmc_aig::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let cin = aig.add_input();
/// let ab = aig.xor(a, b);
/// let s = aig.xor(ab, cin);
/// let c1 = aig.and(a, b);
/// let c2 = aig.and(ab, cin);
/// let cout = aig.or(c1, c2);
/// aig.add_output(s);
/// aig.add_output(cout);
///
/// let out = aig.eval_comb(&[true, true, false]);
/// assert_eq!(out, vec![false, true]); // 1 + 1 = 10b
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    inputs: Vec<Var>,
    latches: Vec<Latch>,
    outputs: Vec<Lit>,
    strash: HashMap<(u32, u32), Var, StrashKey>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            inputs: Vec::new(),
            latches: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::default(),
        }
    }

    /// Reserves room for `additional` more AND gates, so a builder that
    /// knows its gate count up front grows the node list and the
    /// structural-hashing table once.
    pub fn reserve_ands(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.strash.reserve(additional);
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    /// Total number of nodes including the constant, inputs and latches.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A 64-bit structural fingerprint of the AIG (FNV-1a over the node
    /// list, latch definitions and output literals, in stored order).
    ///
    /// Two AIGs with identical structure — same node table, latches and
    /// outputs — have identical fingerprints, so the value works as a
    /// cache key and as a run-to-run identity check for analysis cones
    /// in traces and run manifests. It is *not* a semantic hash:
    /// functionally equivalent but structurally different graphs
    /// fingerprint differently.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u32| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for node in &self.nodes {
            match node {
                Node::Const => mix(0),
                Node::Input(i) => {
                    mix(1);
                    mix(*i);
                }
                Node::Latch(i) => {
                    mix(2);
                    mix(*i);
                }
                Node::And(a, b) => {
                    mix(3);
                    mix(a.code());
                    mix(b.code());
                }
            }
        }
        for latch in &self.latches {
            mix(4);
            mix(latch.var.index());
            mix(latch.next.code());
            mix(latch.init as u32);
        }
        for out in &self.outputs {
            mix(5);
            mix(out.code());
        }
        h
    }

    /// A 128-bit structural identity for the ordered pair
    /// `(self, candidate)` — `self`'s [`Aig::fingerprint`] in the high
    /// 64 bits, `candidate`'s in the low 64.
    ///
    /// This is the **stable cache key** for cross-query result caching:
    /// two golden/approximated pairs collide exactly when both sides are
    /// structurally identical, and the key survives process restarts
    /// (the fingerprint depends only on stored node order, never on
    /// addresses or hashing seeds). The pair is ordered — swapping golden
    /// and candidate yields a different key, as it must: the metrics are
    /// not symmetric in certified effort accounting.
    pub fn pair_fingerprint(&self, candidate: &Aig) -> u128 {
        (u128::from(self.fingerprint()) << 64) | u128::from(candidate.fingerprint())
    }

    /// Number of non-constant fanin edges of AND gates.
    pub fn num_edges(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::And(a, b) => (!a.is_const()) as usize + (!b.is_const()) as usize,
                _ => 0,
            })
            .sum()
    }

    /// The primary-input variables, in creation order.
    pub fn inputs(&self) -> &[Var] {
        &self.inputs
    }

    /// The latches, in creation order.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// The primary-output literals, in creation order.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Returns the node stored for `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn node(&self, var: Var) -> Node {
        self.nodes[var.index() as usize]
    }

    /// Iterates over `(Var, Node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (Var::new(i as u32), n))
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn add_input(&mut self) -> Lit {
        let var = Var::new(self.nodes.len() as u32);
        self.nodes.push(Node::Input(self.inputs.len() as u32));
        self.inputs.push(var);
        var.lit()
    }

    /// Adds `n` primary inputs and returns their literals.
    pub fn add_inputs(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.add_input()).collect()
    }

    /// Adds a latch with reset value `init` and returns its output literal.
    ///
    /// The latch's next-state function defaults to its own output (a hold
    /// register); use [`Aig::set_latch_next`] to connect it.
    pub fn add_latch(&mut self, init: bool) -> Lit {
        let var = Var::new(self.nodes.len() as u32);
        self.nodes.push(Node::Latch(self.latches.len() as u32));
        self.latches.push(Latch {
            var,
            next: var.lit(),
            init,
        });
        var.lit()
    }

    /// Sets the next-state literal of latch number `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_latch_next(&mut self, index: usize, next: Lit) {
        assert!(
            next.var().index() < self.nodes.len() as u32,
            "latch next-state literal {next:?} out of range"
        );
        self.latches[index].next = next;
    }

    /// Registers `lit` as a primary output and returns its output index.
    pub fn add_output(&mut self, lit: Lit) -> usize {
        assert!(
            lit.var().index() < self.nodes.len() as u32,
            "output literal {lit:?} out of range"
        );
        self.outputs.push(lit);
        self.outputs.len() - 1
    }

    /// Replaces the output list wholesale.
    pub fn set_outputs(&mut self, outputs: Vec<Lit>) {
        for &o in &outputs {
            assert!(o.var().index() < self.nodes.len() as u32);
        }
        self.outputs = outputs;
    }

    /// Removes all primary outputs.
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }

    /// Returns the AND of two literals, with constant folding, trivial
    /// simplification and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding and unit rules.
        if a.is_false() || b.is_false() {
            return Lit::FALSE;
        }
        if a.is_true() {
            return b;
        }
        if b.is_true() {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return Lit::FALSE;
        }
        let (a, b) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        debug_assert!(a.var().index() < self.nodes.len() as u32);
        debug_assert!(b.var().index() < self.nodes.len() as u32);
        if let Some(&var) = self.strash.get(&(a.code(), b.code())) {
            return var.lit();
        }
        let var = Var::new(self.nodes.len() as u32);
        self.nodes.push(Node::And(a, b));
        self.strash.insert((a.code(), b.code()), var);
        var.lit()
    }

    /// Returns the OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Returns the XOR of two literals.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return Lit::FALSE;
        }
        if a == !b {
            return Lit::TRUE;
        }
        if a.is_false() {
            return b;
        }
        if a.is_true() {
            return !b;
        }
        if b.is_false() {
            return a;
        }
        if b.is_true() {
            return !a;
        }
        let n0 = self.and(a, !b);
        let n1 = self.and(!a, b);
        self.or(n0, n1)
    }

    /// Returns the XNOR (equivalence) of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Returns `if sel then t else e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// Returns the implication `a -> b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// Returns the conjunction of all literals (true for an empty slice).
    pub fn and_all(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Self::and)
    }

    /// Returns the disjunction of all literals (false for an empty slice).
    pub fn or_all(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::or)
    }

    /// Balanced-tree reduction keeps logic depth logarithmic.
    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        empty: Lit,
        mut op: impl FnMut(&mut Self, Lit, Lit) -> Lit + Copy,
    ) -> Lit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            _ => {
                let mid = lits.len() / 2;
                let l = self.reduce_balanced(&lits[..mid], empty, op);
                let r = self.reduce_balanced(&lits[mid..], empty, op);
                op(self, l, r)
            }
        }
    }

    /// Copies the transitive fanin cone of `roots` from `other` into `self`.
    ///
    /// `input_map` supplies, for each input variable of `other` (by input
    /// ordinal), the literal in `self` that should replace it. Latches in
    /// the cone are mapped through `latch_map` analogously. Returns the
    /// images of `roots`.
    ///
    /// # Panics
    ///
    /// Panics if the cone reaches an input or latch for which no mapping
    /// was supplied.
    pub fn import_cone(
        &mut self,
        other: &Aig,
        roots: &[Lit],
        input_map: &[Lit],
        latch_map: &[Lit],
    ) -> Vec<Lit> {
        let mut map: Vec<Option<Lit>> = vec![None; other.nodes.len()];
        map[0] = Some(Lit::FALSE);
        // Topological order of `other` guarantees fanins are mapped first.
        for (i, node) in other.nodes.iter().enumerate() {
            let image = match *node {
                Node::Const => Lit::FALSE,
                Node::Input(k) => *input_map
                    .get(k as usize)
                    .unwrap_or_else(|| panic!("no mapping for input {k}")),
                Node::Latch(k) => *latch_map
                    .get(k as usize)
                    .unwrap_or_else(|| panic!("no mapping for latch {k}")),
                Node::And(a, b) => {
                    let fa = map[a.var().index() as usize].expect("fanin mapped");
                    let fb = map[b.var().index() as usize].expect("fanin mapped");
                    self.and(fa.negate_if(a.is_negated()), fb.negate_if(b.is_negated()))
                }
            };
            map[i] = Some(image);
        }
        roots
            .iter()
            .map(|r| {
                map[r.var().index() as usize]
                    .expect("root mapped")
                    .negate_if(r.is_negated())
            })
            .collect()
    }

    /// Returns a structurally cleaned copy in which AND gates not reachable
    /// from any output or latch next-state function are dropped.
    ///
    /// Inputs and latches are all preserved (the interface is unchanged).
    pub fn compact(&self) -> Aig {
        let mut reach = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = Vec::new();
        let mark = |lit: Lit, stack: &mut Vec<u32>, reach: &mut Vec<bool>| {
            let v = lit.var().index();
            if !reach[v as usize] {
                reach[v as usize] = true;
                stack.push(v);
            }
        };
        for &o in &self.outputs {
            mark(o, &mut stack, &mut reach);
        }
        for l in &self.latches {
            mark(l.next, &mut stack, &mut reach);
        }
        while let Some(v) = stack.pop() {
            if let Node::And(a, b) = self.nodes[v as usize] {
                mark(a, &mut stack, &mut reach);
                mark(b, &mut stack, &mut reach);
            }
        }

        let mut out = Aig::new();
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.nodes.len()];
        // Interface first, in original ordinal order.
        for &v in &self.inputs {
            map[v.index() as usize] = out.add_input();
        }
        for l in &self.latches {
            map[l.var.index() as usize] = out.add_latch(l.init);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::And(a, b) = *node {
                if reach[i] {
                    let fa = map[a.var().index() as usize].negate_if(a.is_negated());
                    let fb = map[b.var().index() as usize].negate_if(b.is_negated());
                    map[i] = out.and(fa, fb);
                }
            }
        }
        let translate =
            |lit: Lit, map: &Vec<Lit>| map[lit.var().index() as usize].negate_if(lit.is_negated());
        for (k, l) in self.latches.iter().enumerate() {
            let next = translate(l.next, &map);
            out.set_latch_next(k, next);
        }
        for &o in &self.outputs {
            let image = translate(o, &map);
            out.add_output(image);
        }
        out
    }

    /// Returns the logic level (depth in AND gates) of every variable.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::And(a, b) = node {
                level[i] = 1 + level[a.var().index() as usize].max(level[b.var().index() as usize]);
            }
        }
        level
    }

    /// Returns the maximum logic level over the primary outputs.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.var().index() as usize])
            .max()
            .unwrap_or(0)
    }

    /// The sequential depth of the outputs' cone: the largest number of
    /// latches on any path from a primary input or constant into an
    /// output, where a latch leads to its next-state node. `None` if the
    /// cone holds a latch cycle; `Some(0)` for a combinational cone.
    ///
    /// From cycle `d = sequential_depth()` on, every output is one fixed
    /// function of the inputs of cycles `t - d ..= t`, so the outputs
    /// take the same set of values in every cycle `t >= d`: a bounded
    /// check of cycles `0..=d` covers every horizon (the structural
    /// completeness threshold of acyclic netlists).
    ///
    /// Linear time, and iterative, so a long latch chain cannot overflow
    /// the stack.
    ///
    /// # Examples
    ///
    /// ```
    /// use axmc_aig::Aig;
    ///
    /// // A two-stage shift register.
    /// let mut aig = Aig::new();
    /// let x = aig.add_input();
    /// let a = aig.add_latch(false);
    /// let b = aig.add_latch(false);
    /// aig.set_latch_next(0, x);
    /// aig.set_latch_next(1, a);
    /// aig.add_output(b);
    /// assert_eq!(aig.sequential_depth(), Some(2));
    /// // Feeding the last stage back closes a latch cycle.
    /// aig.set_latch_next(0, b);
    /// assert_eq!(aig.sequential_depth(), None);
    /// ```
    pub fn sequential_depth(&self) -> Option<usize> {
        const UNSEEN: u32 = u32::MAX;
        const OPEN: u32 = u32::MAX - 1;
        let mut depth = vec![UNSEEN; self.nodes.len()];
        // (var, expanded): an entry is pushed unexpanded, opens its node
        // and pushes the node's fanins; the expanded entry closes it once
        // every fanin is closed.
        let mut stack: Vec<(u32, bool)> = Vec::new();
        let mut deepest = 0;
        for &out in &self.outputs {
            stack.push((out.var().index(), false));
            while let Some((v, expanded)) = stack.pop() {
                let node = self.nodes[v as usize];
                let fanins = match node {
                    Node::And(a, b) => [Some(a.var()), Some(b.var())],
                    Node::Latch(k) => [Some(self.latches[k as usize].next.var()), None],
                    Node::Const | Node::Input(_) => [None, None],
                };
                if expanded {
                    let below = fanins.iter().flatten().map(|f| depth[f.index() as usize]);
                    let d = below.max().unwrap_or(0);
                    depth[v as usize] = d + matches!(node, Node::Latch(_)) as u32;
                    continue;
                }
                if depth[v as usize] != UNSEEN {
                    continue;
                }
                depth[v as usize] = OPEN;
                stack.push((v, true));
                for f in fanins.into_iter().flatten() {
                    match depth[f.index() as usize] {
                        OPEN => return None,
                        UNSEEN => stack.push((f.index(), false)),
                        _ => {}
                    }
                }
            }
            deepest = deepest.max(depth[out.var().index() as usize]);
        }
        Some(deepest as usize)
    }

    /// The time-frame expansion over `frames` cycles: a combinational AIG
    /// whose inputs are the inputs of every cycle, frame-major (input `i`
    /// of frame `f` is input `f * n + i` for `n = num_inputs()`), and
    /// whose outputs are every cycle's outputs, frame-major. Latches start
    /// at their reset values and then take their next-state images, so
    /// output `f * m + j` is output `j` in cycle `f` of a run from reset.
    /// Strashing shares logic across frames, and the result is compacted:
    /// the last frame's next-state logic feeds nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use axmc_aig::Aig;
    ///
    /// // A one-stage delay: the output is the previous cycle's input.
    /// let mut aig = Aig::new();
    /// let x = aig.add_input();
    /// let q = aig.add_latch(true);
    /// aig.set_latch_next(0, x);
    /// aig.add_output(q);
    /// let unrolled = aig.expand_frames(2);
    /// assert_eq!(unrolled.num_inputs(), 2);
    /// assert_eq!(unrolled.num_latches(), 0);
    /// // Cycle 0 shows the reset value, cycle 1 the input of cycle 0.
    /// assert_eq!(unrolled.eval_comb(&[false, true]), vec![true, false]);
    /// ```
    pub fn expand_frames(&self, frames: usize) -> Aig {
        let mut out = Aig::new();
        let mut state: Vec<Lit> = self
            .latches
            .iter()
            .map(|l| if l.init { Lit::TRUE } else { Lit::FALSE })
            .collect();
        let mut roots = self.outputs.clone();
        roots.extend(self.latches.iter().map(|l| l.next));
        let mut outputs = Vec::with_capacity(frames * self.outputs.len());
        for _ in 0..frames {
            let inputs = out.add_inputs(self.inputs.len());
            let images = out.import_cone(self, &roots, &inputs, &state);
            let (frame_outputs, next) = images.split_at(self.outputs.len());
            outputs.extend_from_slice(frame_outputs);
            state = next.to_vec();
        }
        out.set_outputs(outputs);
        out.compact()
    }

    /// Returns the set of primary-input ordinals in the structural support
    /// of `lit`.
    pub fn support(&self, lit: Lit) -> Vec<u32> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![lit.var().index()];
        let mut support = Vec::new();
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut seen[v as usize], true) {
                continue;
            }
            match self.nodes[v as usize] {
                Node::Input(k) => support.push(k),
                Node::And(a, b) => {
                    stack.push(a.var().index());
                    stack.push(b.var().index());
                }
                _ => {}
            }
        }
        support.sort_unstable();
        support
    }

    /// Evaluates a purely combinational AIG on one input assignment.
    ///
    /// # Panics
    ///
    /// Panics if the AIG has latches or `inputs.len() != num_inputs()`.
    pub fn eval_comb(&self, inputs: &[bool]) -> Vec<bool> {
        assert!(self.latches.is_empty(), "eval_comb requires no latches");
        assert_eq!(inputs.len(), self.inputs.len(), "wrong number of inputs");
        let mut value = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            value[i] = match *node {
                Node::Const => false,
                Node::Input(k) => inputs[k as usize],
                Node::Latch(_) => unreachable!(),
                Node::And(a, b) => {
                    (value[a.var().index() as usize] ^ a.is_negated())
                        && (value[b.var().index() as usize] ^ b.is_negated())
                }
            };
        }
        self.outputs
            .iter()
            .map(|o| value[o.var().index() as usize] ^ o.is_negated())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_aig_has_only_const() {
        let aig = Aig::new();
        assert_eq!(aig.num_nodes(), 1);
        assert_eq!(aig.num_ands(), 0);
        assert_eq!(aig.node(Var::CONST), Node::Const);
    }

    #[test]
    fn and_constant_folding() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn xor_truth_table() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.xor(a, b);
        aig.add_output(x);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(aig.eval_comb(&[va, vb])[0], va ^ vb);
        }
    }

    #[test]
    fn mux_selects() {
        let mut aig = Aig::new();
        let s = aig.add_input();
        let t = aig.add_input();
        let e = aig.add_input();
        let m = aig.mux(s, t, e);
        aig.add_output(m);
        assert!(aig.eval_comb(&[true, true, false])[0]);
        assert!(!aig.eval_comb(&[false, true, false])[0]);
        assert!(aig.eval_comb(&[false, false, true])[0]);
    }

    #[test]
    fn and_all_or_all() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(5);
        let conj = aig.and_all(&ins);
        let disj = aig.or_all(&ins);
        aig.add_output(conj);
        aig.add_output(disj);
        assert_eq!(aig.eval_comb(&[true; 5]), vec![true, true]);
        assert_eq!(aig.eval_comb(&[false; 5]), vec![false, false]);
        assert_eq!(
            aig.eval_comb(&[true, true, false, true, true]),
            vec![false, true]
        );
        assert_eq!(aig.and_all(&[]), Lit::TRUE);
        assert_eq!(aig.or_all(&[]), Lit::FALSE);
    }

    #[test]
    fn compact_drops_dead_logic() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let live = aig.and(a, b);
        let _dead = aig.and(a, !b);
        aig.add_output(live);
        assert_eq!(aig.num_ands(), 2);
        let small = aig.compact();
        assert_eq!(small.num_ands(), 1);
        assert_eq!(small.num_inputs(), 2);
        assert_eq!(small.eval_comb(&[true, true]), vec![true]);
        assert_eq!(small.eval_comb(&[true, false]), vec![false]);
    }

    #[test]
    fn latch_round_trip_through_compact() {
        let mut aig = Aig::new();
        let inp = aig.add_input();
        let q = aig.add_latch(false);
        let next = aig.xor(q, inp);
        aig.set_latch_next(0, next);
        aig.add_output(q);
        let c = aig.compact();
        assert_eq!(c.num_latches(), 1);
        assert!(!c.latches()[0].init);
        assert_eq!(c.num_outputs(), 1);
    }

    #[test]
    fn support_computation() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let _c = aig.add_input();
        let x = aig.and(a, b);
        assert_eq!(aig.support(x), vec![0, 1]);
        assert_eq!(aig.support(a), vec![0]);
        assert_eq!(aig.support(Lit::TRUE), Vec::<u32>::new());
    }

    #[test]
    fn latch_free_aig_expands_to_itself() {
        // A 3-bit adder with one dead gate: one frame is its compacted self.
        use crate::Word;
        let mut aig = Aig::new();
        let a = Word::new_inputs(&mut aig, 3);
        let b = Word::new_inputs(&mut aig, 3);
        let (sum, carry) = a.add(&mut aig, &b);
        let _dead = aig.and(a.bit(0), !b.bit(2));
        for &s in sum.bits() {
            aig.add_output(s);
        }
        aig.add_output(carry);
        let compact = aig.compact();
        let expanded = aig.expand_frames(1);
        assert_eq!(expanded.num_nodes(), compact.num_nodes());
        assert_eq!(expanded.fingerprint(), compact.fingerprint());
    }

    #[test]
    fn expansion_honours_reset_values_of_one() {
        // q0 starts at 1 and toggles; q1 starts at 1 and loads the input.
        let mut aig = Aig::new();
        let x = aig.add_input();
        let q0 = aig.add_latch(true);
        let q1 = aig.add_latch(true);
        aig.set_latch_next(0, !q0);
        aig.set_latch_next(1, x);
        let both = aig.and(q0, q1);
        aig.add_output(q0);
        aig.add_output(both);
        let unrolled = aig.expand_frames(3);
        assert_eq!((unrolled.num_inputs(), unrolled.num_outputs()), (3, 6));
        assert_eq!(unrolled.num_latches(), 0);
        for code in 0..8u32 {
            let inputs: Vec<bool> = (0..3).map(|f| code >> f & 1 == 1).collect();
            let out = unrolled.eval_comb(&inputs);
            // Cycle 0: q0 = q1 = 1; cycle 1: q0 = 0; cycle 2: q0 = 1,
            // q1 = the input of cycle 1.
            assert_eq!(out, vec![true, true, false, false, true, inputs[1]]);
        }
    }

    #[test]
    fn import_cone_copies_logic() {
        let mut src = Aig::new();
        let a = src.add_input();
        let b = src.add_input();
        let x = src.xor(a, b);
        src.add_output(x);

        let mut dst = Aig::new();
        let p = dst.add_input();
        let q = dst.add_input();
        let roots = dst.import_cone(&src, &[x], &[p, q], &[]);
        dst.add_output(roots[0]);
        assert!(dst.eval_comb(&[true, false])[0]);
        assert!(!dst.eval_comb(&[true, true])[0]);
    }

    #[test]
    fn depth_of_chain() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(4);
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = aig.and(acc, i);
        }
        aig.add_output(acc);
        assert_eq!(aig.depth(), 3);
    }

    #[test]
    fn combinational_cone_has_sequential_depth_zero() {
        let mut aig = Aig::new();
        assert_eq!(aig.sequential_depth(), Some(0), "no outputs");
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.xor(a, b);
        aig.add_output(x);
        aig.add_output(Lit::TRUE);
        assert_eq!(aig.sequential_depth(), Some(0));
    }

    #[test]
    fn sequential_depth_counts_the_longest_latch_path() {
        // out = x & q2, q2 <- q1, q1 <- x, q3 <- 1: the paths into the
        // output cross 0 and 2 latches.
        let mut aig = Aig::new();
        let x = aig.add_input();
        let q1 = aig.add_latch(false);
        let q2 = aig.add_latch(false);
        let q3 = aig.add_latch(true);
        aig.set_latch_next(0, x);
        aig.set_latch_next(1, q1);
        aig.set_latch_next(2, Lit::TRUE);
        let y = aig.and(x, q2);
        aig.add_output(y);
        assert_eq!(aig.sequential_depth(), Some(2));
        // A latch fed by a constant is one deep: the other path decides.
        let z = aig.and(y, q3);
        aig.add_output(z);
        assert_eq!(aig.sequential_depth(), Some(2));
        // Fed by q2 it is three deep.
        aig.set_latch_next(2, q2);
        assert_eq!(aig.sequential_depth(), Some(3));
    }

    #[test]
    fn latch_cycles_only_matter_inside_the_outputs_cone() {
        let mut aig = Aig::new();
        let x = aig.add_input();
        let q = aig.add_latch(false);
        let hold = aig.add_latch(false);
        aig.set_latch_next(0, x);
        let loop_next = aig.xor(hold, x);
        aig.set_latch_next(1, loop_next);
        aig.add_output(q);
        assert_eq!(aig.sequential_depth(), Some(1), "cycle outside the cone");
        aig.add_output(hold);
        assert_eq!(aig.sequential_depth(), None, "cycle inside the cone");
        // A self-holding latch is a cycle of length one.
        let mut held = Aig::new();
        let r = held.add_latch(true);
        held.add_output(r);
        assert_eq!(held.sequential_depth(), None);
    }

    #[test]
    fn long_shift_register_does_not_overflow_the_stack() {
        let n = 100_000;
        let mut aig = Aig::new();
        let x = aig.add_input();
        let stages: Vec<Lit> = (0..n).map(|_| aig.add_latch(false)).collect();
        aig.set_latch_next(0, x);
        for i in 1..n {
            aig.set_latch_next(i, stages[i - 1]);
        }
        aig.add_output(stages[n - 1]);
        assert_eq!(aig.sequential_depth(), Some(n));
        aig.set_latch_next(0, stages[n - 1]);
        assert_eq!(aig.sequential_depth(), None);
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let build = |negate: bool| {
            let mut aig = Aig::new();
            let a = aig.add_input();
            let b = aig.add_input();
            let x = aig.and(a, b);
            aig.add_output(x.negate_if(negate));
            aig
        };
        // Deterministic and structure-sensitive.
        assert_eq!(build(false).fingerprint(), build(false).fingerprint());
        assert_ne!(build(false).fingerprint(), build(true).fingerprint());
        assert_ne!(Aig::new().fingerprint(), build(false).fingerprint());
        // Sequential structure participates too.
        let mut seq = build(false);
        let d = seq.outputs()[0];
        let q = seq.add_latch(true);
        seq.set_latch_next(0, d);
        let _ = q;
        assert_ne!(seq.fingerprint(), build(false).fingerprint());
    }

    #[test]
    fn pair_fingerprint_is_ordered_and_stable() {
        let mut a = Aig::new();
        let x = a.add_input();
        a.add_output(x);
        let mut b = Aig::new();
        let y = b.add_input();
        b.add_output(!y);
        // Deterministic, composed of the two component fingerprints, and
        // sensitive to pair order.
        assert_eq!(a.pair_fingerprint(&b), a.pair_fingerprint(&b));
        assert_eq!(
            a.pair_fingerprint(&b),
            (u128::from(a.fingerprint()) << 64) | u128::from(b.fingerprint())
        );
        assert_ne!(a.pair_fingerprint(&b), b.pair_fingerprint(&a));
    }
}
