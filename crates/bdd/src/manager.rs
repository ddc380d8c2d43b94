//! The ROBDD manager: complement edges, a unique table, ITE and AND
//! with memoization, model counting and AIG import under a node budget.
//!
//! Both tables are flat arrays. The unique table is open-addressed over
//! node indices; the computed cache is direct-mapped and lossy. A node
//! is created the first time its function is demanded, in the
//! low-then-high order of the recursion, and a cache hit only prunes a
//! call whose result (and so every node below it) already exists, so
//! which nodes a computation creates, and in which order, does not
//! depend on the cache: only the time it takes does.

use axmc_aig::{Aig, Node};
use axmc_sat::{Interrupt, ResourceCtl};
use std::fmt;

/// Model counting over more than this many variables can overflow the
/// `u128` accumulator (a count over `n` variables reaches `2^n`), so the
/// counting entry points refuse wider managers with
/// [`BuildBddError::WidthLimit`].
pub const MAX_COUNT_VARS: usize = 127;

/// How many BDD operations run between cooperative [`ResourceCtl`]
/// checks. Checks involve an `Instant::now()` call when a deadline is
/// set, so they are amortized over a block of cheap table ops.
const CTL_POLL_INTERVAL: u64 = 1024;

/// Node indices share a `u32` with the complement bit. One index short
/// of `2^31` keeps `u32::MAX` free of any edge, so it can tag the AND
/// entries of the computed cache ([`AND_TAG`]).
const MAX_NODES: usize = (1 << 31) - 1;

/// The third key word of an AND entry in the computed cache. No edge
/// equals it (see [`MAX_NODES`]), so no ITE triple aliases an AND pair.
const AND_TAG: u32 = u32::MAX;

/// Slots of both tables in a fresh manager (a power of two).
const INITIAL_SLOTS: usize = 1 << 10;

/// Sentinel of the counting memo: no count reaches it (counts stay
/// below `2^127`).
const UNCOUNTED: u128 = u128::MAX;

/// Slot of the key `(a, b, c)` in a table of `2^(64 - shift)` slots: a
/// multiplicative hash whose best-mixed top bits pick the slot.
fn slot_of(a: u32, b: u32, c: u32, shift: u32) -> usize {
    let ab = (u64::from(a) | (u64::from(b) << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((ab ^ u64::from(c)).wrapping_mul(0xf135_7aea_2e62_a9c5) >> shift) as usize
}

/// A node handle in a [`Manager`]: an edge to a node, possibly
/// complemented.
///
/// `NodeId::FALSE` and `NodeId::TRUE` are the terminals (the same
/// terminal node, reached by a complemented and a regular edge).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant-true terminal.
    pub const TRUE: NodeId = NodeId(0);
    /// The constant-false terminal.
    pub const FALSE: NodeId = NodeId(1);

    /// The edge to node `index`, regular.
    fn regular_to(index: usize) -> NodeId {
        NodeId((index as u32) << 1)
    }

    /// Index of the node this edge points to.
    fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    fn complement(self) -> NodeId {
        NodeId(self.0 ^ 1)
    }

    fn complement_if(self, flip: bool) -> NodeId {
        NodeId(self.0 ^ u32::from(flip))
    }

    /// Returns `true` for the two terminal nodes.
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }
}

/// One decision node. The high edge is always regular: a function whose
/// high cofactor would be complemented is stored negated and reached by
/// a complemented edge, which keeps `f` and `!f` on one node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct BddNode {
    var: u32,
    low: NodeId,
    high: NodeId,
}

/// One computed-cache slot: the key `(f, g, h)` and its result edge.
#[derive(Clone, Copy, Default, Debug)]
struct CacheEntry {
    f: u32,
    g: u32,
    h: u32,
    result: u32,
}

/// Error produced when a BDD operation cannot complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BuildBddError {
    /// The BDD grew past the configured node limit (the classic blow-up,
    /// e.g. on multiplier outputs).
    SizeLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The function is too wide for exact `u128` model counting: counts
    /// over more than [`MAX_COUNT_VARS`] variables can exceed
    /// `u128::MAX`, so rather than silently overflowing the counting
    /// entry points return this error.
    WidthLimit {
        /// The variable (or bit) count that exceeded the range.
        vars: usize,
    },
    /// The attached [`ResourceCtl`] interrupted the computation
    /// (deadline expired or cancellation token raised).
    Interrupted(Interrupt),
}

impl fmt::Display for BuildBddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildBddError::SizeLimit { limit } => {
                write!(f, "bdd exceeded the node limit of {limit}")
            }
            BuildBddError::WidthLimit { vars } => {
                write!(
                    f,
                    "{vars} variables exceed the exact u128 counting range of {MAX_COUNT_VARS}"
                )
            }
            BuildBddError::Interrupted(reason) => {
                write!(f, "bdd computation interrupted: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildBddError {}

/// An ROBDD manager with complement edges over a fixed variable count
/// with the natural variable order (variable 0 at the top).
///
/// Negation flips a bit of the [`NodeId`], so it is O(1) and creates no
/// node.
///
/// # Examples
///
/// ```
/// use axmc_bdd::Manager;
///
/// // Majority of three variables: 4 of 8 assignments.
/// let mut m = Manager::new(3);
/// let (a, b, c) = (m.var(0), m.var(1), m.var(2));
/// let ab = m.and(a, b);
/// let ac = m.and(a, c);
/// let bc = m.and(b, c);
/// let t = m.or(ab, ac);
/// let maj = m.or(t, bc);
/// assert_eq!(m.count_sat(maj).unwrap(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Manager {
    num_vars: usize,
    /// Slot 0 is the terminal (`var == u32::MAX`).
    nodes: Vec<BddNode>,
    /// Open-addressed unique table with linear probing: the index of
    /// each non-terminal node, 0 for an empty slot (the terminal never
    /// enters). A power of two in size and at most half full; rebuilt
    /// from `nodes` when it grows.
    unique: Vec<u32>,
    /// Direct-mapped, lossy computed cache, as many slots as `unique`:
    /// ITE entries over normalized triples (first and second arguments
    /// regular, see [`Manager::ite`]) and AND entries over ordered pairs
    /// tagged [`AND_TAG`]. A key never starts with `NodeId::TRUE`, so a
    /// zeroed slot is empty.
    cache: Vec<CacheEntry>,
    /// `64 - log2(unique.len())`: the hash shift of both tables.
    shift: u32,
    node_limit: usize,
    /// `level_of[input] = BDD level`; identity by default.
    level_of: Vec<u32>,
    /// Inverse permutation: `input_at[level] = input index`.
    input_at: Vec<u32>,
    /// Cooperative resource governance: deadline/cancellation observed
    /// every `CTL_POLL_INTERVAL` operations.
    ctl: ResourceCtl,
    /// Operation counter driving the amortized ctl poll.
    ops: u64,
    /// Computed-cache hits (AND and ITE lookups together) since the last
    /// [`Manager::flush_obs`]. Plain (non-atomic) counters: the hot path
    /// stays branch-free and the global registry is touched once per
    /// computation, not per op.
    cache_hits: u64,
    /// Computed-cache misses since the last [`Manager::flush_obs`].
    cache_misses: u64,
    /// Node count already reported by [`Manager::flush_obs`], so churn
    /// deltas are not double-counted across flushes.
    flushed_nodes: usize,
}

impl Manager {
    /// Creates a manager for functions over `num_vars` variables with the
    /// natural variable order.
    pub fn new(num_vars: usize) -> Self {
        let terminal = BddNode {
            var: u32::MAX,
            low: NodeId::TRUE,
            high: NodeId::TRUE,
        };
        Manager {
            num_vars,
            nodes: vec![terminal],
            unique: vec![0; INITIAL_SLOTS],
            cache: vec![CacheEntry::default(); INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            node_limit: MAX_NODES,
            level_of: (0..num_vars as u32).collect(),
            input_at: (0..num_vars as u32).collect(),
            ctl: ResourceCtl::unlimited(),
            ops: 0,
            cache_hits: 0,
            cache_misses: 0,
            flushed_nodes: 1,
        }
    }

    /// Sets a node budget; operations exceeding it return
    /// [`BuildBddError::SizeLimit`] from the fallible entry points.
    ///
    /// The limit is clamped to hold at least the terminal and one node
    /// per variable, so single-variable functions always build and
    /// degradation happens on real work, never in [`Manager::var`].
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit.max(1 + self.num_vars).min(MAX_NODES);
        self
    }

    /// Attaches a resource control. The manager observes the control's
    /// wall-clock deadline, its per-call timeout (counted from this call,
    /// as one solver call's would be) and its cancellation token, checked
    /// cooperatively every `CTL_POLL_INTERVAL` operations; the
    /// deterministic conflict budget is a SAT-engine concept and is
    /// ignored here — the BDD analogue of a budget is the node limit.
    pub fn with_ctl(mut self, ctl: ResourceCtl) -> Self {
        self.set_ctl(ctl);
        self
    }

    /// Replaces the attached resource control (see [`Manager::with_ctl`]).
    pub fn set_ctl(&mut self, ctl: ResourceCtl) {
        self.ctl = match ctl.call_deadline() {
            Some(deadline) => ctl.with_deadline(deadline),
            None => ctl,
        };
    }

    /// Amortized cooperative interrupt check, called from the fallible
    /// operation entry points.
    fn poll_ctl(&mut self) -> Result<(), BuildBddError> {
        self.ops = self.ops.wrapping_add(1);
        if self.ops.is_multiple_of(CTL_POLL_INTERVAL) {
            if let Some(reason) = self.ctl.interrupted() {
                return Err(BuildBddError::Interrupted(reason));
            }
        }
        Ok(())
    }

    /// Sets the variable order: `order[input_index] = level` (level 0 is
    /// the BDD root). Must be set before building any node.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_vars`, or nodes
    /// already exist.
    pub fn with_order(mut self, order: &[usize]) -> Self {
        assert_eq!(order.len(), self.num_vars, "order length");
        assert_eq!(self.nodes.len(), 1, "order must be set before building");
        let mut seen = vec![false; self.num_vars];
        for &l in order {
            assert!(l < self.num_vars && !seen[l], "order must be a permutation");
            seen[l] = true;
        }
        self.level_of = order.iter().map(|&l| l as u32).collect();
        self.input_at = vec![0; self.num_vars];
        for (input, &level) in order.iter().enumerate() {
            self.input_at[level] = input as u32;
        }
        self
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of live nodes, including the terminal. Complement edges
    /// let `f` and `!f` share one node, and `TRUE`/`FALSE` one terminal.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Computed-cache `(hits, misses)` since the last
    /// [`Manager::flush_obs`] (or since construction): lookups of the
    /// lossy cache by AND and ITE together. A miss may recompute a
    /// result whose nodes already exist; it never creates a node that a
    /// hit would not have.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Folds this manager's accumulated introspection into the global
    /// metrics registry and resets the local deltas: computed-cache
    /// lookups (`bdd.cache.hits` / `bdd.cache.misses`, see
    /// [`Manager::cache_stats`]), nodes created since the
    /// last flush (`bdd.nodes.created` — churn, since ROBDD nodes are
    /// never freed this equals growth), and the peak node count
    /// (`bdd.nodes.peak`, a max-gauge). A no-op while observability is
    /// disabled; callers flush once per computation, never per operation.
    pub fn flush_obs(&mut self) {
        if !axmc_obs::enabled() {
            return;
        }
        if self.cache_hits > 0 {
            axmc_obs::counter("bdd.cache.hits").add(self.cache_hits);
        }
        if self.cache_misses > 0 {
            axmc_obs::counter("bdd.cache.misses").add(self.cache_misses);
        }
        self.cache_hits = 0;
        self.cache_misses = 0;
        let created = self.nodes.len().saturating_sub(self.flushed_nodes);
        if created > 0 {
            axmc_obs::counter("bdd.nodes.created").add(created as u64);
        }
        self.flushed_nodes = self.nodes.len();
        axmc_obs::gauge("bdd.nodes.peak").set_max(self.nodes.len().min(i64::MAX as usize) as i64);
    }

    /// Level of the node `id` points to (`u32::MAX` for the terminal).
    fn var_of(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].var
    }

    fn make(&mut self, var: u32, low: NodeId, high: NodeId) -> Result<NodeId, BuildBddError> {
        if low == high {
            return Ok(low);
        }
        // Keep the high edge regular: store the negated node instead.
        let flip = high.is_complemented();
        let node = BddNode {
            var,
            low: low.complement_if(flip),
            high: high.complement_if(flip),
        };
        let mask = self.unique.len() - 1;
        let mut slot = slot_of(var, node.low.0, node.high.0, self.shift);
        loop {
            let index = self.unique[slot] as usize;
            if index == 0 {
                break;
            }
            if self.nodes[index] == node {
                return Ok(NodeId::regular_to(index).complement_if(flip));
            }
            slot = (slot + 1) & mask;
        }
        if self.nodes.len() >= self.node_limit {
            return Err(BuildBddError::SizeLimit {
                limit: self.node_limit,
            });
        }
        let index = self.nodes.len();
        self.nodes.push(node);
        self.unique[slot] = index as u32;
        if 2 * self.nodes.len() > self.unique.len() {
            self.grow();
        }
        Ok(NodeId::regular_to(index).complement_if(flip))
    }

    /// Doubles both tables: the unique table is rebuilt from `nodes`,
    /// and every cached entry moves to its slot in the larger cache.
    fn grow(&mut self) {
        let slots = 2 * self.unique.len();
        self.shift -= 1;
        let mask = slots - 1;
        self.unique = vec![0; slots];
        for (index, node) in self.nodes.iter().enumerate().skip(1) {
            let mut slot = slot_of(node.var, node.low.0, node.high.0, self.shift);
            while self.unique[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.unique[slot] = index as u32;
        }
        let old = std::mem::replace(&mut self.cache, vec![CacheEntry::default(); slots]);
        for entry in old.into_iter().filter(|e| e.f != 0) {
            self.cache[slot_of(entry.f, entry.g, entry.h, self.shift)] = entry;
        }
    }

    /// The cached result of the key `(f, g, h)`, counting the lookup.
    fn cache_lookup(&mut self, f: u32, g: u32, h: u32) -> Option<NodeId> {
        let entry = self.cache[slot_of(f, g, h, self.shift)];
        if entry.f == f && entry.g == g && entry.h == h {
            self.cache_hits += 1;
            Some(NodeId(entry.result))
        } else {
            self.cache_misses += 1;
            None
        }
    }

    /// Caches `result` under `(f, g, h)`, evicting the slot's entry.
    fn cache_insert(&mut self, f: u32, g: u32, h: u32, result: NodeId) {
        let slot = slot_of(f, g, h, self.shift);
        self.cache[slot] = CacheEntry {
            f,
            g,
            h,
            result: result.0,
        };
    }

    /// The function of a single variable (by input index; the configured
    /// order decides its BDD level).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_vars()`.
    pub fn var(&mut self, index: usize) -> NodeId {
        assert!(index < self.num_vars, "variable out of range");
        let level = self.level_of[index];
        self.make(level, NodeId::FALSE, NodeId::TRUE)
            .expect("single-variable nodes fit the clamped node limit")
    }

    fn cofactors(&self, f: NodeId, var: u32) -> (NodeId, NodeId) {
        let n = self.nodes[f.index()];
        if n.var != var {
            (f, f)
        } else {
            let flip = f.is_complemented();
            (n.low.complement_if(flip), n.high.complement_if(flip))
        }
    }

    /// If-then-else: the universal ROBDD operation.
    ///
    /// Before the computed-cache lookup the triple is normalized:
    /// arguments equal to `f` or `!f` become constants, and `f` and `g`
    /// are made regular — a complemented `f` swaps `g` and `h`, a
    /// complemented `g` is pulled out as a complemented result.
    ///
    /// # Errors
    ///
    /// [`BuildBddError::SizeLimit`] under a node budget, or
    /// [`BuildBddError::Interrupted`] when an attached [`ResourceCtl`]
    /// fires.
    pub fn ite(
        &mut self,
        mut f: NodeId,
        mut g: NodeId,
        mut h: NodeId,
    ) -> Result<NodeId, BuildBddError> {
        self.poll_ctl()?;
        // Terminal cases.
        if f == NodeId::TRUE {
            return Ok(g);
        }
        if f == NodeId::FALSE {
            return Ok(h);
        }
        if g == f {
            g = NodeId::TRUE;
        } else if g == f.complement() {
            g = NodeId::FALSE;
        }
        if h == f {
            h = NodeId::FALSE;
        } else if h == f.complement() {
            h = NodeId::TRUE;
        }
        if g == h {
            return Ok(g);
        }
        if g == NodeId::TRUE && h == NodeId::FALSE {
            return Ok(f);
        }
        if g == NodeId::FALSE && h == NodeId::TRUE {
            return Ok(f.complement());
        }
        // Regular f and g; a complemented g complements the result.
        if f.is_complemented() {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        let flip = g.is_complemented();
        if flip {
            g = g.complement();
            h = h.complement();
        }
        if let Some(hit) = self.cache_lookup(f.0, g.0, h.0) {
            return Ok(hit.complement_if(flip));
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let low = self.ite(f0, g0, h0)?;
        let high = self.ite(f1, g1, h1)?;
        let result = self.make(top, low, high)?;
        self.cache_insert(f.0, g.0, h.0, result);
        Ok(result.complement_if(flip))
    }

    /// Fallible conjunction, by its own commutative recursion: constant
    /// and equal operands end it, and the pair is ordered (`f < g`)
    /// before the computed-cache lookup, so `f ∧ g` and `g ∧ f` share
    /// one entry.
    ///
    /// # Errors
    ///
    /// [`BuildBddError::SizeLimit`] under a node budget, or
    /// [`BuildBddError::Interrupted`] when an attached [`ResourceCtl`]
    /// fires.
    pub fn apply_and(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BuildBddError> {
        self.poll_ctl()?;
        if f == NodeId::FALSE || g == NodeId::FALSE || f == g.complement() {
            return Ok(NodeId::FALSE);
        }
        if f == NodeId::TRUE {
            return Ok(g);
        }
        if g == NodeId::TRUE || f == g {
            return Ok(f);
        }
        let (f, g) = if f < g { (f, g) } else { (g, f) };
        if let Some(hit) = self.cache_lookup(f.0, g.0, AND_TAG) {
            return Ok(hit);
        }
        let top = self.var_of(f).min(self.var_of(g));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let low = self.apply_and(f0, g0)?;
        let high = self.apply_and(f1, g1)?;
        let result = self.make(top, low, high)?;
        self.cache_insert(f.0, g.0, AND_TAG, result);
        Ok(result)
    }

    /// Fallible disjunction: `!(!f ∧ !g)`, on the AND recursion.
    ///
    /// # Errors
    ///
    /// As [`Manager::apply_and`].
    pub fn apply_or(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BuildBddError> {
        Ok(self.apply_and(f.complement(), g.complement())?.complement())
    }

    /// Fallible exclusive-or: `ite(f, !g, g)`.
    ///
    /// # Errors
    ///
    /// As [`Manager::ite`].
    pub fn apply_xor(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BuildBddError> {
        self.ite(f, g.complement(), g)
    }

    /// Negation: flips the complement bit of the edge, so it never
    /// creates a node and cannot fail.
    pub fn not(&self, f: NodeId) -> NodeId {
        f.complement()
    }

    /// Conjunction.
    ///
    /// # Panics
    ///
    /// Panics if a node budget is exceeded; use [`Manager::apply_and`]
    /// when a budget is set.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply_and(f, g).expect("node budget exceeded")
    }

    /// Disjunction (see [`Manager::and`] for budget semantics).
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply_or(f, g).expect("node budget exceeded")
    }

    /// Exclusive or (see [`Manager::and`] for budget semantics).
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply_xor(f, g).expect("node budget exceeded")
    }

    /// Counts satisfying assignments over all `num_vars` variables.
    ///
    /// The count is exact: canonicity means every satisfying assignment
    /// is counted exactly once, with skipped levels contributing a
    /// factor of two each.
    ///
    /// # Errors
    ///
    /// [`BuildBddError::WidthLimit`] when the manager has more than
    /// [`MAX_COUNT_VARS`] variables — a count over `n` variables can
    /// reach `2^n`, which overflows the `u128` accumulator past 127.
    ///
    /// # Examples
    ///
    /// ```
    /// use axmc_bdd::Manager;
    ///
    /// // f = a XOR b over three variables: half the 2^3 assignments.
    /// let mut m = Manager::new(3);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let f = m.xor(a, b);
    /// assert_eq!(m.count_sat(f)?, 4);
    ///
    /// // Wider than 127 variables the exact count may not fit in u128,
    /// // so counting refuses with a typed width-limit error.
    /// use axmc_bdd::{BuildBddError, NodeId};
    /// let wide = Manager::new(128);
    /// assert!(matches!(
    ///     wide.count_sat(NodeId::TRUE),
    ///     Err(BuildBddError::WidthLimit { vars: 128 })
    /// ));
    /// # Ok::<(), axmc_bdd::BuildBddError>(())
    /// ```
    pub fn count_sat(&self, f: NodeId) -> Result<u128, BuildBddError> {
        Ok(self.count_sat_all(&[f])?[0])
    }

    /// [`Manager::count_sat`] for several roots at once. One dense
    /// per-node memo serves every root, so nodes shared between the
    /// roots are counted once.
    pub(crate) fn count_sat_all(&self, roots: &[NodeId]) -> Result<Vec<u128>, BuildBddError> {
        if self.num_vars > MAX_COUNT_VARS {
            return Err(BuildBddError::WidthLimit {
                vars: self.num_vars,
            });
        }
        let total = self.num_vars as u32;
        let mut memo = vec![UNCOUNTED; self.nodes.len()];
        memo[0] = 1;
        Ok(roots
            .iter()
            .map(|&f| self.edge_count(f, total, &mut memo) << self.var_of(f).min(total))
            .collect())
    }

    /// Models of the edge `e` over the variables from its node's level
    /// to the bottom (`total` variables in all).
    fn edge_count(&self, e: NodeId, total: u32, memo: &mut [u128]) -> u128 {
        let level = self.var_of(e).min(total);
        let c = self.node_count(e.index(), total, memo);
        if e.is_complemented() {
            (1u128 << (total - level)) - c
        } else {
            c
        }
    }

    /// Models of the (regular) node `index` over the variables from its
    /// level to the bottom; skipped levels each contribute a factor of 2.
    fn node_count(&self, index: usize, total: u32, memo: &mut [u128]) -> u128 {
        if memo[index] != UNCOUNTED {
            return memo[index];
        }
        let node = self.nodes[index];
        let lo = self.edge_count(node.low, total, memo);
        let hi = self.edge_count(node.high, total, memo);
        let skip_lo = self.var_of(node.low).min(total) - node.var - 1;
        let skip_hi = self.var_of(node.high).min(total) - node.var - 1;
        let c = (lo << skip_lo) + (hi << skip_hi);
        memo[index] = c;
        c
    }

    /// Maximizes the unsigned word formed by `bits` (LSB first) over all
    /// input assignments, by characteristic-function narrowing: walking
    /// MSB-down, bit `i` can be 1 exactly when `constraint AND bits[i]`
    /// is satisfiable, and committing to it conjoins that product into
    /// the constraint. This is the BDD route to the worst-case error —
    /// apply it to the bits of `|golden - candidate|`.
    ///
    /// An empty `bits` slice yields 0.
    ///
    /// # Errors
    ///
    /// [`BuildBddError::WidthLimit`] for words wider than 128 bits,
    /// [`BuildBddError::SizeLimit`] under a node budget, or
    /// [`BuildBddError::Interrupted`] when an attached [`ResourceCtl`]
    /// fires.
    ///
    /// # Examples
    ///
    /// ```
    /// use axmc_bdd::Manager;
    ///
    /// // The 2-bit word (b, a AND b) peaks at 0b11 when a = b = 1.
    /// let mut m = Manager::new(2);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let hi = m.and(a, b);
    /// assert_eq!(m.max_word(&[b, hi])?, 0b11);
    /// # Ok::<(), axmc_bdd::BuildBddError>(())
    /// ```
    pub fn max_word(&mut self, bits: &[NodeId]) -> Result<u128, BuildBddError> {
        if bits.len() > 128 {
            return Err(BuildBddError::WidthLimit { vars: bits.len() });
        }
        if let Some(reason) = self.ctl.interrupted() {
            return Err(BuildBddError::Interrupted(reason));
        }
        let mut constraint = NodeId::TRUE;
        let mut value = 0u128;
        for (i, &bit) in bits.iter().enumerate().rev() {
            let tightened = self.apply_and(constraint, bit)?;
            if tightened != NodeId::FALSE {
                value |= 1u128 << i;
                constraint = tightened;
            }
        }
        Ok(value)
    }

    /// Evaluates `f` on a concrete assignment (indexed by input).
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.nodes[cur.index()];
            let input = self.input_at[node.var as usize];
            let child = if assignment[input as usize] {
                node.high
            } else {
                node.low
            };
            cur = child.complement_if(cur.is_complemented());
        }
        cur == NodeId::TRUE
    }

    /// Imports a combinational AIG, returning one BDD per output.
    ///
    /// # Errors
    ///
    /// [`BuildBddError::SizeLimit`] when the import exceeds the node
    /// budget (typical for multipliers).
    ///
    /// # Panics
    ///
    /// Panics if the AIG is sequential or its input count differs from
    /// `num_vars`.
    pub fn import_aig(&mut self, aig: &Aig) -> Result<Vec<NodeId>, BuildBddError> {
        assert_eq!(aig.num_latches(), 0, "combinational AIGs only");
        assert_eq!(aig.num_inputs(), self.num_vars, "input count mismatch");
        if let Some(reason) = self.ctl.interrupted() {
            return Err(BuildBddError::Interrupted(reason));
        }
        let mut map: Vec<NodeId> = Vec::with_capacity(aig.num_nodes());
        let edge = |map: &[NodeId], lit: axmc_aig::Lit| {
            map[lit.var().index() as usize].complement_if(lit.is_negated())
        };
        for (_, node) in aig.iter() {
            let id = match node {
                Node::Const => NodeId::FALSE,
                Node::Input(k) => self.var(k as usize),
                Node::Latch(_) => unreachable!(),
                Node::And(a, b) => self.apply_and(edge(&map, a), edge(&map, b))?,
            };
            map.push(id);
        }
        Ok(aig.outputs().iter().map(|&o| edge(&map, o)).collect())
    }
}

/// The interleaved variable order for two-operand arithmetic circuits
/// whose inputs are `a[0..width]` followed by `b[0..width]`: levels
/// alternate `a0 b0 a1 b1 …`, the order under which adder BDDs stay
/// linear.
pub fn interleaved_order(width: usize) -> Vec<usize> {
    let mut order = vec![0usize; 2 * width];
    for i in 0..width {
        order[i] = 2 * i; // a_i
        order[width + i] = 2 * i + 1; // b_i
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let mut m = Manager::new(2);
        assert_eq!(m.count_sat(NodeId::TRUE).unwrap(), 4);
        assert_eq!(m.count_sat(NodeId::FALSE).unwrap(), 0);
        let a = m.var(0);
        assert_eq!(m.count_sat(a).unwrap(), 2);
    }

    #[test]
    fn boolean_identities() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab, ba, "canonicity");
        let na = m.not(a);
        let taut = m.or(a, na);
        assert_eq!(taut, NodeId::TRUE);
        let contra = m.and(a, na);
        assert_eq!(contra, NodeId::FALSE);
        let nna = m.not(na);
        assert_eq!(nna, a);
    }

    #[test]
    fn negation_creates_no_node_and_is_an_involution() {
        let mut m = Manager::new(4);
        let vars: Vec<NodeId> = (0..4).map(|i| m.var(i)).collect();
        let ab = m.and(vars[0], vars[1]);
        let f = m.xor(ab, vars[2]);
        let f = m.or(f, vars[3]);
        let before = m.num_nodes();
        for g in [NodeId::TRUE, NodeId::FALSE, vars[0], ab, f] {
            let ng = m.not(g);
            assert_ne!(ng, g);
            assert_eq!(m.not(ng), g);
        }
        assert_eq!(m.not(NodeId::TRUE), NodeId::FALSE);
        assert_eq!(m.num_nodes(), before, "negation must not allocate");
        // A negated operand reuses the same nodes: !(a ∧ b) = !a ∨ !b.
        let na = m.not(vars[0]);
        let nb = m.not(vars[1]);
        let de_morgan = m.or(na, nb);
        assert_eq!(de_morgan, m.not(ab));
        assert_eq!(m.num_nodes(), before);
    }

    #[test]
    fn count_sat_of_a_function_and_its_negation_cover_the_space() {
        use axmc_circuit::generators;
        let adder = generators::ripple_carry_adder(4).to_aig();
        let mut m = Manager::new(8).with_order(&interleaved_order(4));
        let outputs = m.import_aig(&adder).unwrap();
        for &f in outputs.iter().chain(&[NodeId::TRUE, NodeId::FALSE]) {
            let nf = m.not(f);
            assert_eq!(m.count_sat(f).unwrap() + m.count_sat(nf).unwrap(), 256);
        }
        // At the counting boundary the two halves still sum to 2^127.
        let mut wide = Manager::new(MAX_COUNT_VARS);
        let a = wide.var(0);
        let z = wide.var(MAX_COUNT_VARS - 1);
        let f = wide.xor(a, z);
        for g in [NodeId::TRUE, a, z, f] {
            let ng = wide.not(g);
            let (c, nc) = (wide.count_sat(g).unwrap(), wide.count_sat(ng).unwrap());
            assert_eq!(c.checked_add(nc), Some(1u128 << 127));
        }
    }

    #[test]
    fn eval_through_complemented_edges_agrees_with_simulation() {
        use axmc_circuit::{approx, generators};
        // The |G−C|-style circuits mix negated AND inputs and outputs.
        for aig in [
            generators::array_multiplier(3).to_aig(),
            approx::lower_or_adder(3, 2).to_aig(),
            generators::carry_select_adder(3, 2).to_aig(),
        ] {
            let mut m = Manager::new(6).with_order(&interleaved_order(3));
            let outputs = m.import_aig(&aig).unwrap();
            for x in 0..64u32 {
                let assignment: Vec<bool> = (0..6).map(|i| (x >> i) & 1 == 1).collect();
                let sim = aig.eval_comb(&assignment);
                for (o, &f) in outputs.iter().enumerate() {
                    assert_eq!(m.eval(f, &assignment), sim[o], "x={x} bit {o}");
                    assert_eq!(m.eval(m.not(f), &assignment), !sim[o], "x={x} !bit {o}");
                }
            }
        }
    }

    #[test]
    fn shared_memo_counts_equal_per_root_counts() {
        use axmc_circuit::generators;
        let mult = generators::array_multiplier(4).to_aig();
        let mut m = Manager::new(8).with_order(&interleaved_order(4));
        let mut roots = m.import_aig(&mult).unwrap();
        let negated: Vec<NodeId> = roots.iter().map(|&f| m.not(f)).collect();
        let repeated = roots[3];
        roots.extend(negated);
        roots.extend([NodeId::TRUE, NodeId::FALSE, repeated]);
        let shared = m.count_sat_all(&roots).unwrap();
        let single: Vec<u128> = roots.iter().map(|&f| m.count_sat(f).unwrap()).collect();
        assert_eq!(shared, single);
        assert_eq!(m.count_sat_all(&[]).unwrap(), Vec::<u128>::new());
    }

    #[test]
    fn count_sat_with_gaps() {
        // f = x0 AND x2 over 4 vars: x1, x3 free -> 4 models.
        let mut m = Manager::new(4);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.and(a, c);
        assert_eq!(m.count_sat(f).unwrap(), 4);
        // XOR chain over 4 vars: half the space.
        let vars: Vec<NodeId> = (0..4).map(|i| m.var(i)).collect();
        let mut x = vars[0];
        for &v in &vars[1..] {
            x = m.xor(x, v);
        }
        assert_eq!(m.count_sat(x).unwrap(), 8);
    }

    #[test]
    fn eval_agrees_with_count() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.xor(a, b);
        let f = m.or(ab, c);
        let mut models = 0;
        for bits in 0..8u32 {
            let assignment: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            if m.eval(f, &assignment) {
                models += 1;
            }
        }
        assert_eq!(m.count_sat(f).unwrap(), models);
    }

    #[test]
    fn import_adder_is_compact() {
        use axmc_circuit::generators;
        let adder = generators::ripple_carry_adder(16).to_aig();
        let mut m = Manager::new(32).with_order(&interleaved_order(16));
        let outputs = m.import_aig(&adder).unwrap();
        assert_eq!(outputs.len(), 17);
        // Linear-ish growth: a 16-bit adder stays small.
        assert!(m.num_nodes() < 20_000, "adder BDD size {}", m.num_nodes());
    }

    #[test]
    fn import_multiplier_blows_up() {
        use axmc_circuit::generators;
        let mult = generators::array_multiplier(10).to_aig();
        let mut m = Manager::new(20)
            .with_order(&interleaved_order(10))
            .with_node_limit(200_000);
        match m.import_aig(&mult) {
            Err(BuildBddError::SizeLimit { limit }) => assert_eq!(limit, 200_000),
            other => panic!("10-bit multiplier should exceed 200k nodes, got {other:?}"),
        }
    }

    #[test]
    fn reimporting_into_a_warm_manager_creates_no_node() {
        use axmc_circuit::{approx, generators};
        // The multiplier grows the tables (and re-slots the cache) during
        // the first import; the adder stays within the initial slots.
        let mult = generators::array_multiplier(6).to_aig();
        let loa = approx::lower_or_adder(8, 3).to_aig();
        for (aig, vars, grows) in [(mult, 12, true), (loa, 16, false)] {
            let mut m = Manager::new(vars).with_order(&interleaved_order(vars / 2));
            let first = m.import_aig(&aig).unwrap();
            let nodes = m.num_nodes();
            assert_eq!(2 * nodes > INITIAL_SLOTS, grows, "{nodes} nodes");
            let again = m.import_aig(&aig).unwrap();
            assert_eq!(again, first);
            assert_eq!(m.num_nodes(), nodes);
            let (hits, _) = m.cache_stats();
            assert!(hits > 0);
        }
    }

    #[test]
    fn import_matches_simulation() {
        use axmc_circuit::generators;
        let adder = generators::ripple_carry_adder(4).to_aig();
        let mut m = Manager::new(8);
        let outputs = m.import_aig(&adder).unwrap();
        for x in 0..256u32 {
            let assignment: Vec<bool> = (0..8).map(|i| (x >> i) & 1 == 1).collect();
            let sim = adder.eval_comb(&assignment);
            for (o, &f) in outputs.iter().enumerate() {
                assert_eq!(m.eval(f, &assignment), sim[o], "x={x} bit {o}");
            }
        }
    }

    #[test]
    fn count_sat_of_adder_carry() {
        use axmc_circuit::generators;
        // Carry-out of a 3-bit adder: #\{(a,b) : a+b >= 8\}.
        let adder = generators::ripple_carry_adder(3).to_aig();
        let mut m = Manager::new(6);
        let outputs = m.import_aig(&adder).unwrap();
        let expected = (0..8u32)
            .flat_map(|a| (0..8u32).map(move |b| a + b))
            .filter(|&s| s >= 8)
            .count() as u128;
        assert_eq!(m.count_sat(outputs[3]).unwrap(), expected);
    }

    #[test]
    fn count_sat_at_the_width_boundary() {
        // 127 variables: the largest width with a sound u128 count.
        let mut m = Manager::new(MAX_COUNT_VARS);
        assert_eq!(m.count_sat(NodeId::TRUE).unwrap(), 1u128 << 127);
        let a = m.var(0);
        assert_eq!(m.count_sat(a).unwrap(), 1u128 << 126);

        // 128 variables: TRUE alone has 2^128 models — refuse, typed.
        let mut wide = Manager::new(MAX_COUNT_VARS + 1);
        assert_eq!(
            wide.count_sat(NodeId::TRUE),
            Err(BuildBddError::WidthLimit { vars: 128 })
        );
        let v = wide.var(0);
        assert_eq!(
            wide.count_sat(v),
            Err(BuildBddError::WidthLimit { vars: 128 })
        );
    }

    #[test]
    fn max_word_finds_the_characteristic_maximum() {
        use axmc_circuit::generators;
        // Max of a 4-bit adder sum word: 15 + 15 = 30.
        let adder = generators::ripple_carry_adder(4).to_aig();
        let mut m = Manager::new(8).with_order(&interleaved_order(4));
        let outputs = m.import_aig(&adder).unwrap();
        assert_eq!(m.max_word(&outputs).unwrap(), 30);
        // Constrained bits: the word (a, !a) can never be 0b11 or 0b00.
        let mut m2 = Manager::new(1);
        let a = m2.var(0);
        let na = m2.not(a);
        assert_eq!(m2.max_word(&[a, na]).unwrap(), 0b10);
        assert_eq!(m2.max_word(&[]).unwrap(), 0);
        // Width guard mirrors count_sat.
        let bits = vec![NodeId::TRUE; 129];
        assert_eq!(
            m2.max_word(&bits),
            Err(BuildBddError::WidthLimit { vars: 129 })
        );
    }

    #[test]
    fn cancelled_ctl_interrupts_an_import() {
        use axmc_circuit::generators;
        use axmc_sat::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let mult = generators::array_multiplier(8).to_aig();
        let mut m = Manager::new(16)
            .with_order(&interleaved_order(8))
            .with_ctl(ResourceCtl::unlimited().with_cancel(token));
        match m.import_aig(&mult) {
            Err(BuildBddError::Interrupted(Interrupt::Cancelled)) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }
}
