//! A forward RUP/DRAT proof checker.
//!
//! The checker replays a [`Certificate`] recorded by a proof-logging
//! [`Solver`]: it loads the premises, re-verifies every added clause by
//! **reverse unit propagation** (assume the clause's negation, propagate
//! over the live database, require a conflict), applies deletions, and
//! finally verifies the concluded clause — the empty clause for an
//! unconditional refutation, or an assumption core for an
//! `Unsat`-under-assumptions answer.
//!
//! An added clause that carries a hint chain (see
//! [`HintChains`](axmc_sat::HintChains)) is first checked by walking the
//! chain: each id must name a live clause inserted before the step, a
//! satisfied clause is skipped, a clause with one unassigned literal
//! assigns it, and a falsified clause is the conflict. When the walk stops short — an id naming a missing, deleted
//! or later clause, or a clause with two unassigned literals — the check
//! continues with full unit propagation from the assignment reached.
//! Every literal the walk assigns is a unit-propagation consequence of
//! live clauses, and unit propagation is confluent, so a chain changes
//! only how fast a step is checked, never whether it checks.
//!
//! Soundness notes:
//!
//! * Deletions can never make the check unsound — clause entailment is
//!   monotone — so a deletion that does not match any derived clause is
//!   *ignored* (and counted), never an error. Premises are never deleted.
//! * Tautological clauses cannot participate in unit propagation and are
//!   skipped on insertion.
//! * Once the root database propagates to a conflict, every clause is
//!   trivially RUP; the checker short-circuits from that point on.

use axmc_sat::{Certificate, LBool, Lit, ProofStep, Solver, LEMMA_TAG, MAX_VARS};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Counters describing one successful certificate check. They depend on
/// the certificate's clauses only, not on its hint chains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Premise clauses loaded.
    pub premises: usize,
    /// Derivation steps verified as RUP additions.
    pub additions: usize,
    /// Deletion steps applied.
    pub deletions: usize,
    /// Deletion steps that matched no deletable clause (skipped; sound).
    pub ignored_deletions: usize,
    /// Literals in the concluded clause (0 = unconditional refutation).
    pub conclusion_len: usize,
}

/// A defect found while checking a certificate: the proof does **not**
/// establish the claimed `Unsat` verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// A clause mentions a variable outside the declared range.
    LitOutOfRange {
        /// Which section of the certificate the clause came from.
        section: &'static str,
        /// Clause index within that section.
        index: usize,
        /// The offending literal.
        lit: Lit,
    },
    /// An added clause is not a reverse-unit-propagation consequence of
    /// the clauses alive before it.
    NotRup {
        /// Index of the offending step in [`Certificate::steps`].
        step: usize,
    },
    /// The concluded clause is not RUP with respect to the final database.
    ConclusionNotRup,
    /// A conclusion literal is not the negation of any assumption.
    ConclusionNotOnAssumptions {
        /// The offending literal.
        lit: Lit,
    },
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::LitOutOfRange {
                section,
                index,
                lit,
            } => write!(f, "{section} clause {index}: literal {lit} out of range"),
            ProofError::NotRup { step } => {
                write!(f, "derivation step {step} is not a RUP consequence")
            }
            ProofError::ConclusionNotRup => write!(f, "concluded clause is not RUP"),
            ProofError::ConclusionNotOnAssumptions { lit } => {
                write!(f, "conclusion literal {lit} does not negate any assumption")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// Why [`certify_unsat`] could not produce a verdict about a solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertifyError {
    /// The solver has no certificate: proof logging is off, or the most
    /// recent answer was not `Unsat`.
    NoCertificate,
    /// The certificate was checked and rejected.
    Rejected(ProofError),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::NoCertificate => {
                write!(f, "no certificate (logging off or last answer not Unsat)")
            }
            CertifyError::Rejected(e) => write!(f, "certificate rejected: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// How much work one check took; unlike [`CheckStats`], this depends on
/// the hint chains. Reported through `axmc-obs` by [`certify_unsat`].
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    /// Literals propagated through the watch lists.
    propagations: u64,
    /// Added clauses whose hint chain reached the conflict.
    hinted: u64,
    /// Added clauses checked by full unit propagation: no chain, or a
    /// chain that stopped short.
    fallback: u64,
}

/// How a clause passed, or failed, its RUP check.
enum Rup {
    /// Root conflict, or the negation is contradictory by itself.
    Trivial,
    /// The hint chain reached the conflict.
    Hinted,
    /// Full unit propagation reached the conflict.
    Propagated,
    /// No conflict: not RUP.
    Failed,
}

/// Marks a watcher of a binary clause in [`Watch::cref_flag`]; its
/// blocker is the clause's other literal.
const WATCH_BINARY: u32 = 1 << 31;

/// The slot of a proof clause the checker did not store: a tautology, a
/// clause with one non-false literal (insertion assigns it at the root),
/// or any clause once the root conflicts. Each is satisfied at the root
/// forever (or checking is over), so a chain walk skips it. Also ends
/// the `same_hash` lists.
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Watch {
    cref_flag: u32,
    blocker: Lit,
}

impl Watch {
    fn new(cref: u32, blocker: Lit, binary: bool) -> Self {
        Watch {
            cref_flag: cref | if binary { WATCH_BINARY } else { 0 },
            blocker,
        }
    }
}

/// A stored clause: its literals are `arena[start..start + len]`.
#[derive(Clone, Copy)]
struct Header {
    start: u32,
    len: u32,
    alive: bool,
}

/// A hasher for keys that are already well-mixed `u64` hashes.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// A hash of a sorted, duplicate-free literal set. Collisions only cost
/// time: deletion compares the literals of every candidate.
fn set_hash(sorted: &[Lit]) -> u64 {
    let mut h = sorted.len() as u64;
    for l in sorted {
        h = (h.rotate_left(5) ^ u64::from(l.code())).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    // SplitMix64 finalizer: every output bit depends on every input bit.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The watched-literal clause database of the forward checker.
struct Checker {
    assigns: Vec<LBool>,
    arena: Vec<Lit>,
    headers: Vec<Header>,
    /// Watcher lists indexed by the code of the *negation* of the watched
    /// literal (visited when that literal becomes false).
    watches: Vec<Vec<Watch>>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Set hash → the most recently stored derived (deletable) clause
    /// with that hash; `same_hash` links each to the one stored before.
    by_hash: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    same_hash: Vec<u32>,
    /// Premise `i` → its stored clause or [`NONE`].
    premises: Vec<u32>,
    /// The `j`-th added clause → its stored clause or [`NONE`]; its
    /// length is the number of additions so far.
    lemmas: Vec<u32>,
    /// Reused sort buffer for insertions and deletions.
    scratch: Vec<Lit>,
    root_conflict: bool,
    work: Work,
}

impl Checker {
    fn new(num_vars: usize) -> Self {
        Checker {
            assigns: vec![LBool::Undef; num_vars],
            arena: Vec::new(),
            headers: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            trail: Vec::new(),
            qhead: 0,
            by_hash: HashMap::default(),
            same_hash: Vec::new(),
            premises: Vec::new(),
            lemmas: Vec::new(),
            scratch: Vec::new(),
            root_conflict: false,
            work: Work::default(),
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index() as usize].negate_if(l.is_negative())
    }

    #[inline]
    fn enqueue(&mut self, l: Lit) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        self.assigns[l.var().index() as usize] = LBool::from_bool(!l.is_negative());
        self.trail.push(l);
    }

    fn lits(&self, cref: u32) -> &[Lit] {
        let h = self.headers[cref as usize];
        &self.arena[h.start as usize..(h.start + h.len) as usize]
    }

    /// Unit propagation to fixpoint; returns `true` on conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.work.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code() as usize]);
            let mut conflict = false;
            let mut j = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref_flag & !WATCH_BINARY;
                let h = self.headers[cref as usize];
                if !h.alive {
                    continue; // lazily drop watchers of deleted clauses
                }
                // A binary watcher carries the whole clause: the blocker
                // is the other literal, so no clause memory is touched.
                let first = if w.cref_flag & WATCH_BINARY != 0 {
                    ws[j] = w;
                    j += 1;
                    w.blocker
                } else {
                    let s = h.start as usize;
                    if self.arena[s] == false_lit {
                        self.arena.swap(s, s + 1);
                    }
                    debug_assert_eq!(self.arena[s + 1], false_lit);
                    let first = self.arena[s];
                    if first != w.blocker && self.value(first) == LBool::True {
                        ws[j] = Watch::new(cref, first, false);
                        j += 1;
                        continue;
                    }
                    for k in 2..h.len as usize {
                        let lk = self.arena[s + k];
                        if self.value(lk) != LBool::False {
                            self.arena.swap(s + 1, s + k);
                            self.watches[(!lk).code() as usize]
                                .push(Watch::new(cref, first, false));
                            continue 'watchers;
                        }
                    }
                    ws[j] = Watch::new(cref, first, false);
                    j += 1;
                    first
                };
                // Unit or conflicting.
                if self.value(first) == LBool::False {
                    conflict = true;
                    break;
                }
                self.enqueue(first);
            }
            // Keep the watchers a conflict left unvisited.
            let kept = j + (ws.len() - i);
            ws.copy_within(i.., j);
            ws.truncate(kept);
            self.watches[p.code() as usize] = ws;
            if conflict {
                self.qhead = self.trail.len();
                return true;
            }
        }
        false
    }

    /// Inserts a clause at the root level, classifying it under the
    /// current root assignment, and propagates to fixpoint. Returns its
    /// slot: the stored clause or [`NONE`].
    fn insert(&mut self, lits: &[Lit], deletable: bool) -> u32 {
        if self.root_conflict {
            return NONE;
        }
        let mut c = std::mem::take(&mut self.scratch);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        let slot = self.insert_sorted(&mut c, deletable);
        self.scratch = c;
        slot
    }

    fn insert_sorted(&mut self, c: &mut [Lit], deletable: bool) -> u32 {
        if c.windows(2).any(|w| w[1] == !w[0]) {
            return NONE; // tautology: never propagates, skip
        }
        let hash = deletable.then(|| set_hash(c));
        // Partition: move non-false literals to the front.
        let mut n_nonfalse = 0;
        for i in 0..c.len() {
            if self.value(c[i]) != LBool::False {
                c.swap(n_nonfalse, i);
                n_nonfalse += 1;
            }
        }
        match n_nonfalse {
            0 => {
                self.root_conflict = true;
                NONE
            }
            1 => {
                if self.value(c[0]) == LBool::Undef {
                    self.enqueue(c[0]);
                    if self.propagate() {
                        self.root_conflict = true;
                    }
                }
                NONE // satisfied at root forever
            }
            _ => {
                let cref = self.headers.len() as u32;
                let binary = c.len() == 2;
                self.watches[(!c[0]).code() as usize].push(Watch::new(cref, c[1], binary));
                self.watches[(!c[1]).code() as usize].push(Watch::new(cref, c[0], binary));
                self.headers.push(Header {
                    start: self.arena.len() as u32,
                    len: c.len() as u32,
                    alive: true,
                });
                self.arena.extend_from_slice(c);
                let mut prev = NONE;
                if let Some(h) = hash {
                    prev = self.by_hash.insert(h, cref).unwrap_or(NONE);
                }
                self.same_hash.push(prev);
                cref
            }
        }
    }

    /// Checks that `clause` is a reverse-unit-propagation consequence of
    /// the live database: assuming its negation must propagate to a
    /// conflict. `chain` is tried first (see the module docs).
    fn rup(&mut self, clause: &[Lit], chain: &[u32]) -> Rup {
        if self.root_conflict {
            return Rup::Trivial;
        }
        let mark = self.trail.len();
        let mut contradictory = false;
        for &l in clause {
            match self.value(!l) {
                LBool::True => {}
                LBool::False => {
                    contradictory = true;
                    break;
                }
                LBool::Undef => self.enqueue(!l),
            }
        }
        let outcome = if contradictory {
            Rup::Trivial
        } else if self.replay(chain) {
            Rup::Hinted
        } else if self.propagate() {
            Rup::Propagated
        } else {
            Rup::Failed
        };
        for idx in mark..self.trail.len() {
            self.assigns[self.trail[idx].var().index() as usize] = LBool::Undef;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
        outcome
    }

    /// Walks a hint chain under the current assignment, assigning the
    /// literal of each clause that is unit; returns `true` when a clause
    /// on the chain is falsified. Stops, returning `false`, at an id that
    /// names no live clause inserted before the current step, or at a
    /// clause with two unassigned literals.
    fn replay(&mut self, chain: &[u32]) -> bool {
        for &id in chain {
            let slot = if id & LEMMA_TAG == 0 {
                self.premises.get(id as usize)
            } else {
                self.lemmas.get((id & !LEMMA_TAG) as usize)
            };
            let cref = match slot {
                Some(&NONE) => continue, // satisfied at the root
                Some(&cref) if self.headers[cref as usize].alive => cref,
                _ => return false,
            };
            let mut unassigned = 0;
            let mut unit = Lit::default();
            let mut satisfied = false;
            for &l in self.lits(cref) {
                match self.value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::Undef => {
                        unassigned += 1;
                        unit = l;
                    }
                    LBool::False => {}
                }
            }
            match (satisfied, unassigned) {
                (true, _) => {}
                (false, 0) => return true,
                (false, 1) => self.enqueue(unit),
                _ => return false,
            }
        }
        false
    }

    /// Removes the most recently stored derived clause with the given
    /// literal set, if any. Returns `false` when nothing matched (the
    /// deletion is skipped).
    fn delete(&mut self, lits: &[Lit]) -> bool {
        let mut key = std::mem::take(&mut self.scratch);
        key.clear();
        key.extend_from_slice(lits);
        key.sort_unstable();
        key.dedup();
        let hash = set_hash(&key);
        let mut prev = NONE;
        let mut cur = self.by_hash.get(&hash).copied().unwrap_or(NONE);
        while cur != NONE {
            let same = self.lits(cur).len() == key.len()
                && self.lits(cur).iter().all(|l| key.binary_search(l).is_ok());
            if same {
                break;
            }
            prev = cur;
            cur = self.same_hash[cur as usize];
        }
        self.scratch = key;
        if cur == NONE {
            return false;
        }
        let next = self.same_hash[cur as usize];
        if prev != NONE {
            self.same_hash[prev as usize] = next;
        } else if next != NONE {
            self.by_hash.insert(hash, next);
        } else {
            self.by_hash.remove(&hash);
        }
        self.headers[cur as usize].alive = false;
        true
    }

    /// Runs the whole check of `cert`.
    fn check(&mut self, cert: &Certificate<'_>) -> Result<CheckStats, ProofError> {
        let mut stats = CheckStats {
            conclusion_len: cert.conclusion.len(),
            ..CheckStats::default()
        };
        for (i, premise) in cert.premises.iter().enumerate() {
            check_range(cert.num_vars, "premise", i, premise)?;
            let slot = self.insert(premise, false);
            self.premises.push(slot);
            stats.premises += 1;
        }
        for (i, step) in cert.steps.iter().enumerate() {
            match step {
                ProofStep::Add(lits) => {
                    check_range(cert.num_vars, "derivation", i, lits)?;
                    match self.rup(lits, cert.chains.get(self.lemmas.len())) {
                        Rup::Trivial => {}
                        Rup::Hinted => self.work.hinted += 1,
                        Rup::Propagated => self.work.fallback += 1,
                        Rup::Failed => {
                            self.work.fallback += 1;
                            return Err(ProofError::NotRup { step: i });
                        }
                    }
                    let slot = self.insert(lits, true);
                    self.lemmas.push(slot);
                    stats.additions += 1;
                }
                ProofStep::Delete(lits) => {
                    check_range(cert.num_vars, "deletion", i, lits)?;
                    if self.delete(lits) {
                        stats.deletions += 1;
                    } else {
                        stats.ignored_deletions += 1;
                    }
                }
            }
        }
        check_range(cert.num_vars, "conclusion", 0, cert.conclusion)?;
        for &l in cert.conclusion {
            if !cert.assumptions.contains(&!l) {
                return Err(ProofError::ConclusionNotOnAssumptions { lit: l });
            }
        }
        if let Rup::Failed = self.rup(cert.conclusion, &[]) {
            return Err(ProofError::ConclusionNotRup);
        }
        Ok(stats)
    }
}

fn check_range(
    num_vars: usize,
    section: &'static str,
    index: usize,
    lits: &[Lit],
) -> Result<(), ProofError> {
    for &l in lits {
        if l.var().index() as usize >= num_vars {
            return Err(ProofError::LitOutOfRange {
                section,
                index,
                lit: l,
            });
        }
    }
    Ok(())
}

/// Checks `cert`, returning the verdict and the work it took.
fn check_with_work(cert: &Certificate<'_>) -> (Result<CheckStats, ProofError>, Work) {
    let mut checker = Checker::new(cert.num_vars);
    let outcome = checker.check(cert);
    (outcome, checker.work)
}

/// Forward-checks a complete certificate.
///
/// Verifies, in order: every premise and step literal is in range; every
/// [`ProofStep::Add`] clause is RUP with respect to the database alive
/// before it; the concluded clause consists only of negated assumptions;
/// and the concluded clause is itself RUP with respect to the final
/// database. An empty conclusion therefore certifies that the premises
/// alone are unsatisfiable.
///
/// The certificate's hint chains only speed the RUP checks up: the same
/// certificate with [`HintChains::default`](axmc_sat::HintChains) yields
/// the same result.
///
/// # Errors
///
/// Returns the first [`ProofError`] encountered; a returned `Ok` means
/// the `Unsat` verdict is independently established by the certificate.
pub fn check_certificate(cert: &Certificate<'_>) -> Result<CheckStats, ProofError> {
    check_with_work(cert).0
}

/// Fetches and forward-checks the certificate of `solver`'s most recent
/// `Unsat` answer, recording proof size and check effort via `axmc-obs`
/// (`check.certified` / `check.rejected` counters, `check.lemmas.hinted`
/// / `check.lemmas.fallback` counters, `check.proof.steps`,
/// `check.proof.premises` and `check.certify.propagations` histograms,
/// `check.certify.time_us` span).
///
/// # Errors
///
/// [`CertifyError::NoCertificate`] when the solver is not logging or its
/// last answer was not `Unsat`; [`CertifyError::Rejected`] when the
/// checker refutes the proof (which indicates a solver soundness bug).
pub fn certify_unsat(solver: &Solver) -> Result<CheckStats, CertifyError> {
    let cert = solver.certificate().ok_or(CertifyError::NoCertificate)?;
    let timer = axmc_obs::span("check.certify.time_us");
    let (outcome, work) = check_with_work(&cert);
    let time_us = timer.finish();
    if axmc_obs::enabled() {
        axmc_obs::counter("check.lemmas.hinted").add(work.hinted);
        axmc_obs::counter("check.lemmas.fallback").add(work.fallback);
        axmc_obs::histogram("check.certify.propagations").record(work.propagations);
        match &outcome {
            Ok(_) => {
                axmc_obs::counter("check.certified").inc();
                axmc_obs::histogram("check.proof.steps").record(cert.steps.len() as u64);
                axmc_obs::histogram("check.proof.premises").record(cert.premises.len() as u64);
            }
            Err(_) => {
                axmc_obs::counter("check.rejected").inc();
            }
        }
        if axmc_obs::tracing_active() {
            axmc_obs::emit(
                axmc_obs::Event::new("check.certify")
                    .field("ok", outcome.is_ok())
                    .field("premises", cert.premises.len())
                    .field("steps", cert.steps.len())
                    .field("conclusion_len", cert.conclusion.len())
                    .field("time_us", time_us),
            );
        }
    }
    outcome.map_err(CertifyError::Rejected)
}

/// Error produced when parsing DRAT text fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseDratError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseDratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drat parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDratError {}

/// Serializes derivation steps as standard DRAT text (the same format
/// [`Solver::write_drat`] streams).
pub fn format_drat(steps: &[ProofStep]) -> String {
    let mut out = String::new();
    for step in steps {
        let lits = match step {
            ProofStep::Add(lits) => lits,
            ProofStep::Delete(lits) => {
                out.push_str("d ");
                lits
            }
        };
        for l in lits {
            out.push_str(&l.to_dimacs().to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out
}

/// Parses DRAT text (clause-addition lines and `d`-prefixed deletion
/// lines, DIMACS literal numbering, `0`-terminated) into derivation
/// steps. Comment lines starting with `c` and blank lines are skipped.
///
/// # Errors
///
/// Returns [`ParseDratError`] on junk tokens, literals beyond
/// [`MAX_VARS`], or unterminated lines.
pub fn parse_drat(text: &str) -> Result<Vec<ProofStep>, ParseDratError> {
    let mut steps = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (is_delete, rest) = match line.strip_prefix('d') {
            Some(rest) if rest.starts_with(char::is_whitespace) => (true, rest),
            _ => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in rest.split_whitespace() {
            if terminated {
                return Err(ParseDratError {
                    line: lineno + 1,
                    message: format!("token '{tok}' after clause terminator"),
                });
            }
            let v: i64 = tok.parse().map_err(|_| ParseDratError {
                line: lineno + 1,
                message: format!("bad literal '{tok}'"),
            })?;
            if v == 0 {
                terminated = true;
            } else if v.unsigned_abs() > MAX_VARS {
                return Err(ParseDratError {
                    line: lineno + 1,
                    message: format!("literal {v} exceeds the representable maximum {MAX_VARS}"),
                });
            } else {
                lits.push(Lit::from_dimacs(v));
            }
        }
        if !terminated {
            return Err(ParseDratError {
                line: lineno + 1,
                message: "missing clause terminator 0".to_string(),
            });
        }
        steps.push(if is_delete {
            ProofStep::Delete(lits)
        } else {
            ProofStep::Add(lits)
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_sat::{HintChains, SolveResult, SolverConfig, Var};

    /// A fresh solver with proof logging armed from the start.
    fn logging_solver() -> Solver {
        Solver::with_config(SolverConfig::new().with_proof_logging(true))
    }

    fn pigeonhole(n: usize, h: usize) -> Solver {
        let mut s = logging_solver();
        let vars: Vec<Var> = (0..n * h).map(|_| s.new_var()).collect();
        let p = |i: usize, j: usize| vars[i * h + j].positive();
        for i in 0..n {
            let holes: Vec<Lit> = (0..h).map(|j| p(i, j)).collect();
            s.add_clause(&holes);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s
    }

    #[test]
    fn accepts_pigeonhole_refutation() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let stats = certify_unsat(&s).expect("valid refutation");
        assert!(stats.additions > 0);
        assert_eq!(stats.conclusion_len, 0);
    }

    #[test]
    fn accepts_assumption_core() {
        let mut s = logging_solver();
        let v: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        s.add_clause(&[v[1].negative(), v[2].positive()]);
        assert_eq!(
            s.solve_with_assumptions(&[v[0].positive(), v[2].negative()]),
            SolveResult::Unsat
        );
        let stats = certify_unsat(&s).expect("valid assumption core");
        assert!(stats.conclusion_len > 0);
    }

    #[test]
    fn accepts_contradictory_assumptions() {
        let mut s = logging_solver();
        let x = s.new_var();
        assert_eq!(
            s.solve_with_assumptions(&[x.positive(), x.negative()]),
            SolveResult::Unsat
        );
        certify_unsat(&s).expect("tautological core is trivially RUP");
    }

    #[test]
    fn no_certificate_for_sat_answers() {
        let mut s = logging_solver();
        let x = s.new_var();
        s.add_clause(&[x.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(certify_unsat(&s), Err(CertifyError::NoCertificate));
    }

    #[test]
    fn rejects_fabricated_non_rup_step() {
        // Premises: (a ∨ b). Claimed derivation: (a) — not RUP.
        let a = Var::new(0).positive();
        let b = Var::new(1).positive();
        let premises = vec![vec![a, b]];
        let steps = vec![ProofStep::Add(vec![a])];
        let cert = Certificate {
            num_vars: 2,
            premises: &premises,
            steps: &steps,
            conclusion: &[],
            assumptions: &[],
            chains: HintChains::default(),
        };
        assert_eq!(
            check_certificate(&cert),
            Err(ProofError::NotRup { step: 0 })
        );
    }

    #[test]
    fn rejects_claimed_refutation_of_satisfiable_premises() {
        let a = Var::new(0).positive();
        let premises = vec![vec![a]];
        let cert = Certificate {
            num_vars: 1,
            premises: &premises,
            steps: &[],
            conclusion: &[],
            assumptions: &[],
            chains: HintChains::default(),
        };
        assert_eq!(check_certificate(&cert), Err(ProofError::ConclusionNotRup));
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let premises = vec![vec![Var::new(7).positive()]];
        let cert = Certificate {
            num_vars: 3,
            premises: &premises,
            steps: &[],
            conclusion: &[],
            assumptions: &[],
            chains: HintChains::default(),
        };
        assert!(matches!(
            check_certificate(&cert),
            Err(ProofError::LitOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_conclusion_literal_outside_assumptions() {
        let mut s = logging_solver();
        let v: Vec<Var> = (0..2).map(|_| s.new_var()).collect();
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        assert_eq!(
            s.solve_with_assumptions(&[v[0].positive(), v[1].negative()]),
            SolveResult::Unsat
        );
        let cert = s.certificate().unwrap();
        assert!(!cert.conclusion.is_empty());
        // Corrupt the conclusion: !(!v1) = v1 is not among the assumptions.
        let corrupted = vec![Var::new(1).negative()];
        let bad = Certificate {
            conclusion: &corrupted,
            ..cert
        };
        assert!(matches!(
            check_certificate(&bad),
            Err(ProofError::ConclusionNotOnAssumptions { .. })
        ));
    }

    #[test]
    fn deletion_of_unknown_clause_is_ignored_not_fatal() {
        let mut s = pigeonhole(4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().unwrap();
        let mut steps: Vec<ProofStep> = cert.steps.to_vec();
        steps.insert(
            0,
            ProofStep::Delete(vec![Var::new(0).positive(), Var::new(1).positive()]),
        );
        let patched = Certificate {
            steps: &steps,
            ..cert
        };
        let stats = check_certificate(&patched).expect("still a valid proof");
        assert_eq!(stats.ignored_deletions, 1);
    }

    #[test]
    fn deleted_derived_clause_no_longer_propagates() {
        // Premises: (a ∨ b), (a ∨ !b). Derive (a) by RUP, delete it, then
        // claim (a) again — after re-deriving it must still be RUP (from
        // the premises), so this stays valid; but deleting BOTH premises'
        // consequence and claiming something unsupported must fail.
        let a = Var::new(0).positive();
        let b = Var::new(1).positive();
        let c = Var::new(2).positive();
        let premises = vec![vec![a, b], vec![a, !b]];
        let steps = vec![
            ProofStep::Add(vec![a]),
            ProofStep::Delete(vec![a]),
            ProofStep::Add(vec![c]), // unsupported: not RUP
        ];
        let cert = Certificate {
            num_vars: 3,
            premises: &premises,
            steps: &steps,
            conclusion: &[],
            assumptions: &[],
            chains: HintChains::default(),
        };
        assert_eq!(
            check_certificate(&cert),
            Err(ProofError::NotRup { step: 2 })
        );
    }

    #[test]
    fn drat_text_round_trip() {
        let a = Var::new(0).positive();
        let b = Var::new(1).negative();
        let steps = vec![
            ProofStep::Add(vec![a, b]),
            ProofStep::Delete(vec![a, b]),
            ProofStep::Add(vec![]),
        ];
        let text = format_drat(&steps);
        let back = parse_drat(&text).unwrap();
        assert_eq!(back, steps);
    }

    #[test]
    fn parse_drat_rejects_junk() {
        assert!(parse_drat("1 2 x 0\n").is_err());
        assert!(parse_drat("1 2\n").is_err()); // missing terminator
        assert!(parse_drat("1 0 2\n").is_err()); // token after terminator
        assert!(parse_drat("c comment\n\nd 1 0\n").is_ok());
    }

    #[test]
    fn parse_drat_rejects_literals_beyond_max_vars() {
        // Each would otherwise truncate to a small variable: 2^31 + 1 and
        // 2^32 + 1 both alias x0.
        for v in [
            "2147483649",
            "4294967297",
            "-4294967297",
            &i64::MAX.to_string(),
            &i64::MIN.to_string(),
        ] {
            let err = parse_drat(&format!("1 0\nd {v} 0\n")).expect_err(v);
            assert_eq!(err.line, 2, "{v}");
            assert!(err.to_string().contains("exceeds"), "{v}: {err}");
        }
        let top = MAX_VARS as i64;
        assert_eq!(
            parse_drat(&format!("{top} -{top} 0\n")).unwrap(),
            vec![ProofStep::Add(vec![
                Lit::from_dimacs(top),
                Lit::from_dimacs(-top)
            ])]
        );
    }

    #[test]
    fn learnt_clauses_close_by_their_chains() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().unwrap();
        let (outcome, work) = check_with_work(&cert);
        let stats = outcome.expect("valid refutation");
        assert_eq!(work.hinted + work.fallback, stats.additions as u64);
        assert!(
            work.fallback * 100 <= work.hinted,
            "chains should close nearly every lemma: {work:?}"
        );
        let (_, unhinted) = check_with_work(&Certificate {
            chains: HintChains::default(),
            ..cert
        });
        assert_eq!(unhinted.hinted, 0);
        assert!(
            work.propagations < unhinted.propagations,
            "{work:?} vs {unhinted:?}"
        );
    }

    #[test]
    fn garbage_chains_check_exactly_like_none() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().unwrap();
        let bare = Certificate {
            chains: HintChains::default(),
            ..cert
        };
        // Every id garbage: premises and lemmas past the end, ids of
        // later lemmas, and valid but unrelated clauses.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let ids: Vec<u32> = cert
            .chains
            .ids
            .iter()
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let raw = (x >> 32) as u32;
                match x % 4 {
                    0 => raw,
                    1 => LEMMA_TAG | raw,
                    2 => raw % cert.premises.len() as u32,
                    _ => LEMMA_TAG | (raw % cert.chains.ends.len() as u32),
                }
            })
            .collect();
        let garbage = Certificate {
            chains: HintChains {
                ids: &ids,
                ends: cert.chains.ends,
            },
            ..cert
        };
        let expected = check_certificate(&bare);
        assert!(expected.is_ok());
        assert_eq!(check_certificate(&garbage), expected);
        // The same garbage cannot rescue a corrupted lemma either.
        let mut steps = cert.steps.to_vec();
        let k = steps
            .iter()
            .position(|s| matches!(s, ProofStep::Add(l) if l.len() > 1))
            .unwrap();
        if let ProofStep::Add(lits) = &mut steps[k] {
            lits.pop();
        }
        let corrupted = Certificate {
            steps: &steps,
            ..garbage
        };
        assert_eq!(
            check_certificate(&corrupted),
            check_certificate(&Certificate {
                steps: &steps,
                ..bare
            })
        );
    }

    #[test]
    fn chains_through_deleted_clauses_do_not_close() {
        // (x) is RUP with the lemma (x ∨ y) and not without it: from ¬x,
        // every premise keeps two unassigned literals. Its chain names
        // the lemma, which was deleted first.
        let [x, y, z, u] = [0, 1, 2, 3].map(|v| Var::new(v).positive());
        let premises = vec![vec![x, y, z], vec![x, y, !z], vec![!y, u], vec![x, !y, !u]];
        let steps = vec![
            ProofStep::Add(vec![x, y]),
            ProofStep::Delete(vec![x, y]),
            ProofStep::Add(vec![x]),
        ];
        let ids = [0, 1, LEMMA_TAG, 2, 3];
        let ends = [2, 5];
        let cert = |chains| Certificate {
            num_vars: 4,
            premises: &premises,
            steps: &steps,
            conclusion: &[],
            assumptions: &[],
            chains,
        };
        let expected = Err(ProofError::NotRup { step: 2 });
        assert_eq!(check_certificate(&cert(HintChains::default())), expected);
        assert_eq!(
            check_certificate(&cert(HintChains {
                ids: &ids,
                ends: &ends
            })),
            expected
        );
    }

    #[test]
    fn duplicate_derived_clauses_are_deleted_one_at_a_time() {
        // Two derived copies of (a ∨ b), in different literal orders:
        // two deletions match, the third finds only the premise, which
        // is never deletable.
        let a = Var::new(0).positive();
        let b = Var::new(1).positive();
        let premises = vec![vec![a, b], vec![a, !b], vec![!a, b], vec![!a, !b]];
        let steps = vec![
            ProofStep::Add(vec![b, a]),
            ProofStep::Add(vec![a, b, a]),
            ProofStep::Delete(vec![a, b]),
            ProofStep::Delete(vec![b, a, b]),
            ProofStep::Delete(vec![a, b]),
            ProofStep::Add(vec![a]),
            ProofStep::Add(vec![]),
        ];
        let stats = check_certificate(&Certificate {
            num_vars: 2,
            premises: &premises,
            steps: &steps,
            conclusion: &[],
            assumptions: &[],
            chains: HintChains::default(),
        })
        .expect("valid refutation");
        assert_eq!(
            (stats.additions, stats.deletions, stats.ignored_deletions),
            (4, 2, 1)
        );
    }

    #[test]
    fn solver_drat_text_parses_back() {
        let mut s = pigeonhole(4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let text = s.proof_drat().unwrap();
        let steps = parse_drat(&text).unwrap();
        assert_eq!(steps.len(), s.certificate().unwrap().steps.len());
    }
}
