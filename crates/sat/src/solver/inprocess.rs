//! Between-solves inprocessing.
//!
//! Everything here runs at decision level 0, from [`Solver::presolve`],
//! before the CDCL loop of a solve call starts. The passes are purely
//! count-budgeted (no wall clock), so an inprocessing solver stays
//! deterministic, and every database rewrite is recorded in the DRAT
//! derivation (additions before the deletions they justify), so
//! certification keeps working.
//!
//! # Proof-logging invariants
//!
//! * Before any clause is deleted, every root-trail literal not yet in
//!   the proof is re-recorded as an explicit unit `Add`. A deleted
//!   clause may be the only premise from which the checker would derive
//!   such a unit; once the unit is a step of its own, the deletion can
//!   no longer strand later steps.
//! * A strengthened clause is a fresh `Add` (it is RUP against the
//!   database that still contains the original), and only then is the
//!   original deleted.
//! * Variable-elimination resolvents are RUP while both parents are
//!   alive, so resolvents are added first, parents deleted after.

use super::*;

impl Solver {
    /// The solve-entry hook: inprocessing, when the database changed
    /// since the last pass. May discover root-level unsatisfiability, in
    /// which case `self.ok` turns false.
    pub(super) fn presolve(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        if let Some(cfg) = self.inprocess {
            let stamp = (self.num_original, self.trail.len());
            if self.inprocess_stamp != Some(stamp) {
                self.inprocess_pass(cfg);
                if self.ok {
                    self.inprocess_stamp = Some((self.num_original, self.trail.len()));
                }
            }
        }
    }

    fn inprocess_pass(&mut self, cfg: InprocessConfig) {
        let timer = axmc_obs::enabled().then(|| axmc_obs::span("sat.inprocess.time_us"));
        self.log_new_root_units();
        let (removed, stripped) = self.remove_satisfied();
        let (subsumed, strengthened) = if self.ok {
            self.subsume_pass(cfg.subsumption_checks)
        } else {
            (0, 0)
        };
        let vivified = if self.ok {
            let slice = cfg
                .vivify_propagations
                .min(self.ctl.budget().max_propagations().unwrap_or(u64::MAX));
            self.vivify_pass(slice, cfg.vivify_max_len)
        } else {
            0
        };
        let eliminated = if self.ok { self.eliminate_marked() } else { 0 };
        if self.ok {
            self.log_new_root_units();
        }
        self.collect_garbage();
        if let Some(t) = timer {
            t.finish();
            axmc_obs::counter("sat.inprocess.removed").add(removed);
            axmc_obs::counter("sat.inprocess.strengthened").add(strengthened + stripped);
            axmc_obs::counter("sat.inprocess.subsumed").add(subsumed);
            axmc_obs::counter("sat.inprocess.vivified").add(vivified);
            axmc_obs::counter("sat.inprocess.eliminated").add(eliminated);
        }
    }

    /// Records every root-trail literal the proof does not yet hold as
    /// an explicit unit `Add` step (trivially RUP: the units are
    /// propagation consequences of the live database).
    fn log_new_root_units(&mut self) {
        let Some(log) = self.proof.as_mut() else {
            return;
        };
        for &l in &self.trail[log.root_units_logged..] {
            log.record(ProofStep::Add(vec![l]));
        }
        log.root_units_logged = self.trail.len();
    }

    /// Adds a clause that follows from the clause database — a
    /// strengthening, a resolvent, or the negated assumption of an
    /// `Unsat` answer — and returns `false` if the solver is now
    /// unsatisfiable at the root.
    ///
    /// The contract: `lits` must be a reverse-unit-propagation (RUP)
    /// consequence of the current database, which holds for the
    /// [`Certificate::conclusion`] of the most recent `Unsat` answer.
    /// Under proof logging the clause is recorded as a DRAT *addition*,
    /// never as a premise, so the next certificate check re-derives it
    /// instead of trusting it. Otherwise it is treated exactly like a
    /// problem clause. Must be called at decision level 0, which is
    /// always the case between `solve` calls.
    pub fn add_derived_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let id = if self.proof.is_some() {
            self.log_step(ProofStep::Add(lits.to_vec()))
        } else {
            NO_ID
        };
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut filtered = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology
            }
            match self.value_lit(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.alloc_clause(filtered, false);
                self.set_proof_id(cref, id);
                true
            }
        }
    }

    /// Replaces a clause's literals with a shorter (or equal) set, in
    /// place in the arena. The caller is responsible for keeping the
    /// watch invariant intact (the first two new literals must be the
    /// watched, non-false ones).
    fn replace_lits(&mut self, cref: u32, new_lits: &[Lit]) {
        let (s, n) = {
            let c = &self.clauses[cref as usize];
            (c.start as usize, c.len as usize)
        };
        debug_assert!(!new_lits.is_empty() && new_lits.len() <= n);
        self.garbage += n - new_lits.len();
        self.arena[s..s + new_lits.len()].copy_from_slice(new_lits);
        self.clauses[cref as usize].len = new_lits.len() as u32;
    }

    /// Deletes a clause: logs the DRAT deletion, marks it deleted and
    /// frees its literals (watchers are dropped lazily by propagation).
    /// Must never be called on a locked clause — conflict analysis reads
    /// reason-clause literals.
    fn delete_clause(&mut self, cref: u32) {
        debug_assert!(!self.is_locked(cref));
        let learnt = self.clauses[cref as usize].learnt;
        if self.proof.is_some() {
            let lits = self.lits(cref).to_vec();
            self.log_step(ProofStep::Delete(lits));
        }
        let c = &mut self.clauses[cref as usize];
        self.garbage += c.len as usize;
        c.deleted = true;
        c.len = 0;
        if learnt {
            self.stats.removed += 1;
        } else {
            self.num_original -= 1;
        }
    }

    /// Removes clauses satisfied at the root and strips root-false
    /// literals from problem clauses. Returns `(removed, stripped)`.
    fn remove_satisfied(&mut self) -> (u64, u64) {
        let mut removed = 0u64;
        let mut stripped = 0u64;
        for cref in 0..self.clauses.len() as u32 {
            let ci = cref as usize;
            if self.clauses[ci].deleted || self.clauses[ci].len == 0 {
                continue;
            }
            if self.is_locked(cref) {
                continue;
            }
            let mut satisfied = false;
            let mut num_false = 0usize;
            for &l in self.lits(cref) {
                match self.value_lit(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => num_false += 1,
                    LBool::Undef => {}
                }
            }
            if satisfied {
                self.delete_clause(cref);
                removed += 1;
            } else if num_false > 0 && !self.clauses[ci].learnt {
                // After full root propagation an unsatisfied clause has
                // non-false watches at positions 0 and 1; filtering
                // preserves order, so the watch invariant survives an
                // in-place strip.
                let new_lits: Vec<Lit> = self
                    .lits(cref)
                    .iter()
                    .copied()
                    .filter(|&l| self.value_lit(l) != LBool::False)
                    .collect();
                debug_assert!(new_lits.len() >= 2);
                if self.proof.is_some() {
                    let old = self.lits(cref).to_vec();
                    let id = self.log_step(ProofStep::Add(new_lits.clone()));
                    self.log_step(ProofStep::Delete(old));
                    // The rewritten clause is the one this Add derived.
                    self.set_proof_id(cref, id);
                }
                self.replace_lits(cref, &new_lits);
                stripped += 1;
            }
        }
        (removed, stripped)
    }

    /// Forward subsumption and self-subsuming resolution over the
    /// problem clauses, capped at `max_checks` subset tests. Returns
    /// `(subsumed, strengthened)`.
    fn subsume_pass(&mut self, max_checks: u64) -> (u64, u64) {
        let mut subsumed = 0u64;
        let mut strengthened = 0u64;
        let mut cand: Vec<u32> = Vec::new();
        for cref in 0..self.clauses.len() as u32 {
            let c = &self.clauses[cref as usize];
            if c.deleted || c.learnt || c.len < 2 || self.is_locked(cref) {
                continue;
            }
            cand.push(cref);
        }
        let mut occur: Vec<Vec<u32>> = vec![Vec::new(); self.assigns.len() * 2];
        let mut lits_of: Vec<Vec<Lit>> = Vec::with_capacity(cand.len());
        let mut sig_of: Vec<u64> = Vec::with_capacity(cand.len());
        for (i, &cref) in cand.iter().enumerate() {
            let mut ls = self.lits(cref).to_vec();
            ls.sort_unstable();
            let mut sig = 0u64;
            for &l in &ls {
                sig |= 1u64 << (l.var().index() % 64);
                occur[l.code() as usize].push(i as u32);
            }
            lits_of.push(ls);
            sig_of.push(sig);
        }
        let mut dead = vec![false; cand.len()];
        let mut checks = 0u64;
        'all: for i in 0..cand.len() {
            if dead[i] {
                continue;
            }
            let ls = lits_of[i].clone();
            let sig = sig_of[i];
            // Forward subsumption, scanning the least popular literal's
            // occurrence list: delete every D ⊇ C.
            let min_lit = *ls
                .iter()
                .min_by_key(|l| occur[l.code() as usize].len())
                .expect("clauses have at least two literals");
            for &j in &occur[min_lit.code() as usize] {
                let j = j as usize;
                if j == i || dead[j] {
                    continue;
                }
                checks += 1;
                if checks > max_checks {
                    break 'all;
                }
                if lits_of[j].len() < ls.len() || sig & !sig_of[j] != 0 {
                    continue;
                }
                if is_sorted_subset(&ls, &lits_of[j]) && !self.is_locked(cand[j]) {
                    self.delete_clause(cand[j]);
                    dead[j] = true;
                    subsumed += 1;
                }
            }
            // Self-subsuming resolution: when (C \ {l}) ⊆ D and !l ∈ D,
            // D can drop !l (the resolvent of C and D on l subsumes D).
            for &l in &ls {
                for &j in &occur[(!l).code() as usize] {
                    let j = j as usize;
                    if j == i || dead[j] {
                        continue;
                    }
                    checks += 1;
                    if checks > max_checks {
                        break 'all;
                    }
                    if lits_of[j].len() < ls.len() || sig & !sig_of[j] != 0 {
                        continue;
                    }
                    if !strengthens(&ls, l, &lits_of[j]) || self.is_locked(cand[j]) {
                        continue;
                    }
                    let new_lits: Vec<Lit> =
                        lits_of[j].iter().copied().filter(|&x| x != !l).collect();
                    self.add_derived_clause(&new_lits);
                    if !self.ok {
                        return (subsumed, strengthened);
                    }
                    if !self.clauses[cand[j] as usize].deleted && !self.is_locked(cand[j]) {
                        self.delete_clause(cand[j]);
                    }
                    dead[j] = true;
                    strengthened += 1;
                }
            }
        }
        (subsumed, strengthened)
    }

    /// Clause vivification: for each problem clause, assert the negation
    /// of its literals one at a time on a scratch decision level; a
    /// propagation conflict (or an implied literal) proves a shorter
    /// clause. Budgeted by propagation count. Returns clauses shortened.
    fn vivify_pass(&mut self, max_props: u64, max_len: usize) -> u64 {
        let mut vivified = 0u64;
        let start_props = self.stats.propagations;
        let crefs: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&r| {
                let c = &self.clauses[r as usize];
                !c.deleted && !c.learnt && c.len >= 3 && c.len as usize <= max_len
            })
            .collect();
        for cref in crefs {
            if !self.ok {
                return vivified;
            }
            if self.stats.propagations - start_props >= max_props {
                break;
            }
            let ci = cref as usize;
            if self.clauses[ci].deleted || self.is_locked(cref) {
                continue;
            }
            let lits = self.lits(cref).to_vec();
            // Earlier strengthenings may have produced new root units.
            if lits.iter().any(|&l| self.value_lit(l) == LBool::True) {
                self.delete_clause(cref);
                continue;
            }
            debug_assert_eq!(self.decision_level(), 0);
            self.trail_lim.push(self.trail.len());
            let mut kept: Vec<Lit> = Vec::new();
            for &l in &lits {
                match self.value_lit(l) {
                    LBool::True => {
                        // The kept prefix implies l: C shrinks to the
                        // prefix plus l.
                        kept.push(l);
                        break;
                    }
                    LBool::False => continue, // l is redundant in C
                    LBool::Undef => {
                        kept.push(l);
                        self.unchecked_enqueue(!l, NO_REASON);
                        if self.propagate().is_some() {
                            break;
                        }
                    }
                }
            }
            self.cancel_until(0);
            if kept.len() < lits.len() && !kept.is_empty() {
                self.add_derived_clause(&kept);
                if !self.ok {
                    return vivified;
                }
                if !self.clauses[ci].deleted && !self.is_locked(cref) {
                    self.delete_clause(cref);
                }
                vivified += 1;
            }
        }
        vivified
    }

    /// Bounded variable elimination, restricted to variables the caller
    /// marked via [`Solver::mark_eliminable`]. A variable is eliminated
    /// only when its resolvent count does not exceed its occurrence
    /// count. Returns variables eliminated.
    fn eliminate_marked(&mut self) -> u64 {
        let mut eliminated = 0u64;
        let vars: Vec<u32> = (0..self.assigns.len() as u32)
            .filter(|&v| self.eliminable[v as usize] && !self.eliminated[v as usize])
            .collect();
        for vi in vars {
            if !self.ok {
                return eliminated;
            }
            if self.assigns[vi as usize] != LBool::Undef {
                continue;
            }
            let v = Var::new(vi);
            let mut pos: Vec<u32> = Vec::new();
            let mut neg: Vec<u32> = Vec::new();
            let mut learnt_occ: Vec<u32> = Vec::new();
            let mut blocked = false;
            for cref in 0..self.clauses.len() as u32 {
                let c = &self.clauses[cref as usize];
                if c.deleted {
                    continue;
                }
                let cl = &self.arena[c.start as usize..(c.start + c.len) as usize];
                let has_pos = cl.contains(&v.positive());
                let has_neg = cl.contains(&v.negative());
                if !has_pos && !has_neg {
                    continue;
                }
                if self.is_locked(cref) {
                    blocked = true;
                    break;
                }
                if c.learnt {
                    learnt_occ.push(cref);
                } else if has_pos {
                    pos.push(cref);
                } else {
                    neg.push(cref);
                }
            }
            if blocked {
                continue;
            }
            let limit = pos.len() + neg.len();
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut too_many = false;
            'res: for &p in &pos {
                for &n in &neg {
                    if let Some(r) = resolve_on(self.lits(p), self.lits(n), v) {
                        resolvents.push(r);
                        if resolvents.len() > limit {
                            too_many = true;
                            break 'res;
                        }
                    }
                }
            }
            if too_many {
                continue;
            }
            // Learnt clauses over v must go first: after elimination the
            // originals that justified them are gone, so a surviving
            // learnt could force v against its reconstruction.
            for &r in &learnt_occ {
                self.delete_clause(r);
            }
            let saved: Vec<Vec<Lit>> = pos
                .iter()
                .chain(neg.iter())
                .map(|&r| self.lits(r).to_vec())
                .collect();
            for r in &resolvents {
                self.add_derived_clause(r);
                if !self.ok {
                    return eliminated;
                }
            }
            if self.assigns[vi as usize] != LBool::Undef {
                // Resolvent propagation assigned v; its clauses are now
                // satisfied or strengthened by the next pass instead.
                continue;
            }
            for &r in pos.iter().chain(neg.iter()) {
                if !self.clauses[r as usize].deleted && !self.is_locked(r) {
                    self.delete_clause(r);
                }
            }
            self.elim_stack.push((v, saved));
            self.eliminated[vi as usize] = true;
            self.num_eliminated += 1;
            eliminated += 1;
        }
        eliminated
    }

    /// Extends a model over eliminated variables by replaying the
    /// elimination stack backwards: each variable is set so every one of
    /// its saved clauses is satisfied (a value exists because the model
    /// satisfies all resolvents).
    pub(super) fn extend_model(&mut self) {
        // Iterate an owned stack so the model can be mutated freely.
        let stack = std::mem::take(&mut self.elim_stack);
        for (v, saved) in stack.iter().rev() {
            let vi = v.index() as usize;
            if self.model[vi] != LBool::Undef {
                continue;
            }
            let mut value = false;
            for clause in saved {
                let mut sat_by_other = false;
                let mut needed: Option<bool> = None;
                for &l in clause {
                    if l.var() == *v {
                        needed = Some(!l.is_negative());
                        continue;
                    }
                    let val = self.model[l.var().index() as usize].negate_if(l.is_negative());
                    if val == LBool::True {
                        sat_by_other = true;
                        break;
                    }
                }
                if !sat_by_other {
                    if let Some(b) = needed {
                        value = b;
                    }
                }
            }
            self.model[vi] = LBool::from_bool(value);
        }
        self.elim_stack = stack;
    }
}

/// The resolvent of `a` and `b` on `v` (with `v` positive in `a`), or
/// `None` if it is tautological.
fn resolve_on(a: &[Lit], b: &[Lit], v: Var) -> Option<Vec<Lit>> {
    let mut out: Vec<Lit> = Vec::with_capacity(a.len() + b.len() - 2);
    out.extend(a.iter().copied().filter(|l| l.var() != v));
    out.extend(b.iter().copied().filter(|l| l.var() != v));
    out.sort_unstable();
    out.dedup();
    for w in out.windows(2) {
        if w[1] == !w[0] {
            return None;
        }
    }
    Some(out)
}

/// Subset test over sorted literal slices.
fn is_sorted_subset(small: &[Lit], big: &[Lit]) -> bool {
    let mut it = big.iter();
    'outer: for &x in small {
        for &y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

/// `(c \ {l}) ⊆ d` and `!l ∈ d`, over sorted `c`/`d`: the condition for
/// `c` to strengthen `d` by self-subsuming resolution on `l`.
fn strengthens(c: &[Lit], l: Lit, d: &[Lit]) -> bool {
    if d.binary_search(&!l).is_err() {
        return false;
    }
    c.iter().all(|&x| x == l || d.binary_search(&x).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::SolveResult;

    fn make(n: usize) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars = (0..n).map(|_| s.new_var()).collect();
        (s, vars)
    }

    fn inprocessing() -> SolverConfig {
        SolverConfig::new().with_inprocessing(InprocessConfig::default())
    }

    #[test]
    fn satisfied_and_subsumed_clauses_are_removed() {
        let (mut s, v) = make(4);
        let (a, b, c, d) = (
            v[0].positive(),
            v[1].positive(),
            v[2].positive(),
            v[3].positive(),
        );
        s.add_clause(&[a, b]); // satisfied once the unit below lands
        s.add_clause(&[b, c, d]); // subsumed by [b, c]
        s.add_clause(&[b, c]);
        s.add_clause(&[a]);
        assert_eq!(s.num_clauses(), 3);
        s.configure(&inprocessing());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.num_clauses(), 1, "only [b, c] survives");
    }

    #[test]
    fn self_subsuming_resolution_strengthens() {
        let (mut s, v) = make(3);
        let (a, b, c) = (v[0].positive(), v[1].positive(), v[2].positive());
        // C = [a, b] strengthens D = [!a, b, c] to [b, c].
        s.add_clause(&[a, b]);
        s.add_clause(&[!a, b, c]);
        s.configure(&inprocessing().with_proof_logging(true));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.num_clauses(), 2);
        // The strengthened clause shows up as an Add/Delete pair in the
        // recorded derivation even though the answer was Sat.
        let drat = s.proof_drat().expect("logging is on");
        assert!(
            drat.lines().any(|l| l.starts_with("d ")),
            "strengthening logged a deletion:\n{drat}"
        );
    }

    #[test]
    fn inprocessing_preserves_verdicts_on_random_3sat() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..15 {
            let n = 25;
            let m = 95 + round;
            let (mut plain, pv) = make(n);
            let (mut inproc, iv) = make(n);
            inproc.configure(&inprocessing());
            for _ in 0..m {
                let mut lits_p = Vec::new();
                let mut lits_i = Vec::new();
                for _ in 0..3 {
                    let var = (next() % n as u64) as usize;
                    let neg = next() % 2 == 1;
                    lits_p.push(Lit::new(pv[var], neg));
                    lits_i.push(Lit::new(iv[var], neg));
                }
                plain.add_clause(&lits_p);
                inproc.add_clause(&lits_i);
            }
            assert_eq!(plain.solve(), inproc.solve(), "round {round}");
            // Incremental follow-up on the simplified database.
            let extra_p = [Lit::new(pv[0], false), Lit::new(pv[1], true)];
            let extra_i = [Lit::new(iv[0], false), Lit::new(iv[1], true)];
            assert_eq!(
                plain.solve_with_assumptions(&extra_p),
                inproc.solve_with_assumptions(&extra_i),
                "round {round} under assumptions"
            );
        }
    }

    #[test]
    fn unsat_with_inprocessing_still_certifies() {
        let n = 5;
        let h = 4;
        let (mut s, v) = make(n * h);
        s.configure(&inprocessing().with_proof_logging(true));
        let p = |i: usize, j: usize| v[i * h + j].positive();
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
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().expect("unsat certificate");
        assert!(cert.conclusion.is_empty());
        assert!(!cert.steps.is_empty());
    }

    #[test]
    fn marked_variable_is_eliminated_and_model_reconstructed() {
        let (mut s, v) = make(3);
        let (a, x, b) = (v[0].positive(), v[1].positive(), v[2].positive());
        // x is a pure buffer: a -> x -> b. Resolvent: [!a..,] — here
        // clauses [a, x] and [!x, b] resolve to [a, b].
        s.add_clause(&[a, x]);
        s.add_clause(&[!x, b]);
        s.mark_eliminable(x.var());
        s.configure(&inprocessing());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.is_eliminated(x.var()));
        // The reconstructed model must satisfy the *original* clauses.
        let ma = s.model_lit(a).unwrap_or(false);
        let mx = s.model_lit(x).expect("eliminated var has a model value");
        let mb = s.model_lit(b).unwrap_or(false);
        assert!(ma || mx, "model violates [a, x]");
        assert!(!mx || mb, "model violates [!x, b]");
    }

    #[test]
    #[should_panic(expected = "assumption on eliminated variable")]
    fn assumptions_on_eliminated_variables_panic() {
        let (mut s, v) = make(3);
        let (a, x, b) = (v[0].positive(), v[1].positive(), v[2].positive());
        s.add_clause(&[a, x]);
        s.add_clause(&[!x, b]);
        s.mark_eliminable(x.var());
        s.configure(&inprocessing());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.is_eliminated(x.var()));
        let _ = s.solve_with_assumptions(&[x]);
    }

    #[test]
    fn inprocessing_skips_unchanged_databases() {
        let (mut s, v) = make(3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        s.configure(&inprocessing());
        assert_eq!(s.solve(), SolveResult::Sat);
        let stamp = s.inprocess_stamp;
        assert!(stamp.is_some());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.inprocess_stamp, stamp, "no re-pass on a static DB");
    }
}
