//! End-to-end certification tests: every UNSAT verdict the analysis
//! engines report under `--certify` must carry a DRAT certificate the
//! in-tree RUP/DRAT checker accepts — and the checker must *reject*
//! deliberately corrupted proofs, or the whole exercise is vacuous.

use axmc::check::{check_certificate, ProofError};
use axmc::circuit::{approx, generators};
use axmc::core::{AnalysisOptions, SeqAnalyzer, SeqProbe, Verdict};
use axmc::sat::{
    Certificate, HintChains, Lit, ProofStep, SolveResult, Solver, SolverConfig, Var, LEMMA_TAG,
};
use axmc::seq::accumulator;
use axmc_rand::rngs::StdRng;
use axmc_rand::{Rng, SeedableRng};

/// A pigeonhole instance (n pigeons, n-1 holes): small, UNSAT, and with a
/// proof whose steps genuinely depend on one another.
fn pigeonhole(solver: &mut Solver, pigeons: usize) -> Vec<Vec<Lit>> {
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| Var::new((p * holes + h) as u32);
    for _ in 0..pigeons * holes {
        solver.new_var();
    }
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| var(p, h).positive()).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    for c in &clauses {
        solver.add_clause(c);
    }
    clauses
}

/// Records a real refutation of a pigeonhole instance and returns the
/// solver (still holding the certificate).
fn refuted_solver() -> Solver {
    let mut solver = Solver::with_config(SolverConfig::new().with_proof_logging(true));
    pigeonhole(&mut solver, 4);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    solver
}

#[test]
fn recorded_refutation_is_accepted() {
    let solver = refuted_solver();
    let cert = solver.certificate().expect("UNSAT leaves a certificate");
    let stats = check_certificate(&cert).expect("genuine proof must check");
    assert!(stats.additions > 0, "pigeonhole needs learned clauses");
}

#[test]
fn dropped_proof_clause_is_rejected() {
    let solver = refuted_solver();
    let cert = solver.certificate().expect("certificate");
    // Drop the first learned clause: later steps (and ultimately the
    // empty conclusion) lean on it, so forward checking must fail.
    let mutated: Vec<ProofStep> = cert
        .steps
        .iter()
        .enumerate()
        .filter(|&(k, step)| {
            !(k == first_add_index(cert.steps) && matches!(step, ProofStep::Add(_)))
        })
        .map(|(_, step)| step.clone())
        .collect();
    let corrupted = Certificate {
        steps: &mutated,
        ..cert
    };
    let err = check_certificate(&corrupted).expect_err("dropped clause must be caught");
    assert!(
        matches!(
            err,
            ProofError::NotRup { .. } | ProofError::ConclusionNotRup
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn permuted_pivot_is_rejected() {
    let solver = refuted_solver();
    let cert = solver.certificate().expect("certificate");
    // Flip the polarity of one literal in the first learned clause: the
    // mutated clause is no longer implied by unit propagation.
    let k = first_add_index(cert.steps);
    let mut mutated: Vec<ProofStep> = cert.steps.to_vec();
    if let ProofStep::Add(lits) = &mut mutated[k] {
        lits[0] = !lits[0];
    }
    let corrupted = Certificate {
        steps: &mutated,
        ..cert
    };
    let err = check_certificate(&corrupted).expect_err("permuted pivot must be caught");
    assert!(
        matches!(
            err,
            ProofError::NotRup { .. } | ProofError::ConclusionNotRup
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn proof_stripped_to_premises_is_rejected() {
    let solver = refuted_solver();
    let cert = solver.certificate().expect("certificate");
    let empty: Vec<ProofStep> = Vec::new();
    let corrupted = Certificate {
        steps: &empty,
        ..cert
    };
    let err = check_certificate(&corrupted).expect_err("premises alone prove nothing here");
    assert!(
        matches!(err, ProofError::ConclusionNotRup),
        "unexpected error: {err}"
    );
}

/// Index of the first clause-addition step in a proof.
fn first_add_index(steps: &[ProofStep]) -> usize {
    steps
        .iter()
        .position(|s| matches!(s, ProofStep::Add(_)))
        .expect("refutation contains at least one learned clause")
}

#[test]
fn certified_sequential_analysis_suite() {
    // A miniature tier-1 sweep: sequential accumulator designs over two
    // approximate adders, analyzed with certification on. Every UNSAT the
    // engines see is re-derived by the checker (a rejected certificate
    // panics inside the engine), and results must match the uncertified
    // run bit for bit.
    axmc::obs::set_enabled(true);
    axmc::obs::reset();
    let golden_comp = generators::ripple_carry_adder(4);
    for approx_comp in [approx::truncated_adder(4, 2), approx::lower_or_adder(4, 2)] {
        let golden = accumulator(&golden_comp, 4);
        let approximate = accumulator(&approx_comp, 4);

        let plain = SeqAnalyzer::new(&golden, &approximate);
        let certified = SeqAnalyzer::new(&golden, &approximate)
            .with_options(AnalysisOptions::new().with_certify(true));

        let e1 = plain.earliest_error(4).expect("analysis");
        let e2 = certified.earliest_error(4).expect("certified analysis");
        assert_eq!(e1.cycle, e2.cycle);

        let w1 = plain.worst_case_error_at(3).expect("analysis");
        let w2 = certified
            .worst_case_error_at(3)
            .expect("certified analysis");
        assert_eq!(w1.value, w2.value);
    }
    let checked = axmc::obs::snapshot()
        .counters
        .get("check.certified")
        .copied()
        .unwrap_or(0);
    assert!(
        checked > 0,
        "the certified sweep must actually exercise the checker"
    );
}

#[test]
fn certified_analysis_with_inprocessing() {
    // The speed stack — several jobs and between-solves inprocessing —
    // under certification: the checker must accept every UNSAT the tuned
    // engines report (a rejection would surface as an error), and the
    // metric values must match the plain serial run bit for bit.
    let golden = accumulator(&generators::ripple_carry_adder(4), 4);
    let approximate = accumulator(&approx::lower_or_adder(4, 2), 4);
    let plain = SeqAnalyzer::new(&golden, &approximate);
    let tuned = SeqAnalyzer::new(&golden, &approximate).with_options(
        AnalysisOptions::new()
            .with_certify(true)
            .with_jobs(3)
            .with_inprocessing(true),
    );
    assert_eq!(
        plain.worst_case_error_at(3).expect("analysis").value,
        tuned
            .worst_case_error_at(3)
            .expect("tuned certified analysis")
            .value
    );
    assert_eq!(
        plain.earliest_error(4).expect("analysis").cycle,
        tuned
            .earliest_error(4)
            .expect("tuned certified analysis")
            .cycle
    );
}

#[test]
fn spliced_clause_is_rejected() {
    // A mutated clause spliced straight into a recorded refutation is
    // caught by the forward DRAT check — the spliced step is not
    // derivable from the premises before it.
    let solver = refuted_solver();
    let cert = solver.certificate().expect("certificate");
    let mut spliced = cert.steps.to_vec();
    spliced.insert(0, ProofStep::Add(vec![Var::new(0).positive()]));
    let corrupted = Certificate {
        steps: &spliced,
        ..cert
    };
    let err = check_certificate(&corrupted).expect_err("spliced clause must be caught");
    assert!(
        matches!(err, ProofError::NotRup { step: 0 }),
        "unexpected error: {err}"
    );
}

/// A certified probe session on the 6-bit accumulator against its
/// 2-bit truncated variant, left holding the certificate of the probe
/// "can the error exceed 60 within 6 cycles?" (it cannot: WCE@6 is 60,
/// so every frame's solve ends `Unsat`).
fn accumulator_probe() -> SeqProbe {
    let golden = accumulator(&generators::ripple_carry_adder(6), 6);
    let approximate = accumulator(&approx::truncated_adder(6, 2), 6);
    let mut probe = SeqAnalyzer::new(&golden, &approximate)
        .with_options(AnalysisOptions::new().with_certify(true))
        .probe_session();
    let verdict = probe.check_error_exceeds(60, 6).expect("certified probe");
    assert!(matches!(verdict, Verdict::Proved), "{verdict:?}");
    probe
}

/// The ways [`mutant`] corrupts a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutation {
    DropLemma,
    FlipLiteral,
    DropLiteral,
    SpliceUnit,
    /// Replace every chain id at random; on odd mutants, also apply one
    /// of the step mutations above.
    ScrambleChains,
}

const MUTATIONS: [Mutation; 5] = [
    Mutation::DropLemma,
    Mutation::FlipLiteral,
    Mutation::DropLiteral,
    Mutation::SpliceUnit,
    Mutation::ScrambleChains,
];

/// Applies one seeded step mutation to `steps`. The certificate's chain
/// view is left as it was, so it goes stale around the mutated step.
fn mutate_steps(steps: &mut Vec<ProofStep>, num_vars: usize, kind: Mutation, rng: &mut StdRng) {
    let adds: Vec<usize> = (0..steps.len())
        .filter(|&k| match &steps[k] {
            ProofStep::Add(lits) => kind != Mutation::DropLiteral || lits.len() > 1,
            ProofStep::Delete(_) => false,
        })
        .collect();
    let k = adds[rng.gen_range(0..adds.len())];
    match kind {
        Mutation::DropLemma => {
            steps.remove(k);
        }
        Mutation::FlipLiteral | Mutation::DropLiteral => {
            if let ProofStep::Add(lits) = &mut steps[k] {
                if lits.is_empty() {
                    lits.push(Var::new(0).positive());
                }
                let i = rng.gen_range(0..lits.len());
                if kind == Mutation::FlipLiteral {
                    lits[i] = !lits[i];
                } else {
                    lits.remove(i);
                }
            }
        }
        Mutation::SpliceUnit => {
            let v = Var::new(rng.gen_range(0..num_vars as u32));
            let unit = ProofStep::Add(vec![Lit::new(v, rng.gen_bool(0.5))]);
            steps.insert(rng.gen_range(0..=steps.len()), unit);
        }
        Mutation::ScrambleChains => unreachable!("not a step mutation"),
    }
}

/// Chain ids drawn at random: premises in and out of range, earlier and
/// later lemmas, and lemma ids past the end.
fn scrambled_ids(cert: &Certificate<'_>, rng: &mut StdRng) -> Vec<u32> {
    let premises = cert.premises.len() as u32;
    let lemmas = cert.chains.ends.len() as u32;
    cert.chains
        .ids
        .iter()
        .map(|_| match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..premises),
            1 => LEMMA_TAG | rng.gen_range(0..lemmas),
            2 => rng.gen_range(premises..LEMMA_TAG),
            _ => LEMMA_TAG | rng.gen_range(lemmas..LEMMA_TAG),
        })
        .collect()
}

/// Checks seeded mutants of `cert` with the chain view the mutant
/// carries and with none: the two results must be identical. Returns how
/// many mutants of each kind were rejected.
fn differential(cert: &Certificate<'_>, per_kind: usize, seed: u64) -> [usize; 5] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rejected = [0; 5];
    for (slot, &kind) in MUTATIONS.iter().enumerate() {
        for i in 0..per_kind {
            let mut steps = cert.steps.to_vec();
            let mut ids = cert.chains.ids.to_vec();
            let step_kind = match kind {
                Mutation::ScrambleChains => {
                    ids = scrambled_ids(cert, &mut rng);
                    (i % 2 == 1).then(|| MUTATIONS[rng.gen_range(0..4usize)])
                }
                _ => Some(kind),
            };
            if let Some(step_kind) = step_kind {
                mutate_steps(&mut steps, cert.num_vars, step_kind, &mut rng);
            }
            let hinted = check_certificate(&Certificate {
                steps: &steps,
                chains: HintChains {
                    ids: &ids,
                    ends: cert.chains.ends,
                },
                ..*cert
            });
            let bare = check_certificate(&Certificate {
                steps: &steps,
                chains: HintChains::default(),
                ..*cert
            });
            assert_eq!(hinted, bare, "{kind:?} mutant {i} (seed {seed})");
            if bare.is_err() {
                rejected[slot] += 1;
            }
        }
    }
    rejected
}

#[test]
fn hint_chains_never_change_a_verdict() {
    let probe = accumulator_probe();
    let solver = refuted_solver();
    // (name, certificate, mutants per kind, seed)
    for (name, cert, per_kind, seed) in [
        ("accumulator6/trunc2 probe", probe.certificate(), 10, 1),
        ("pigeonhole", solver.certificate(), 24, 2),
    ] {
        let cert = cert.expect("the last answer was Unsat");
        assert!(
            !cert.chains.ids.is_empty(),
            "{name}: no hint chains recorded"
        );
        let bare = Certificate {
            chains: HintChains::default(),
            ..cert
        };
        assert_eq!(check_certificate(&cert), check_certificate(&bare), "{name}");
        assert!(check_certificate(&cert).is_ok(), "{name}");
        let rejected = differential(&cert, per_kind, seed);
        for (kind, n) in MUTATIONS.iter().zip(rejected) {
            assert!(n > 0, "{name}: no {kind:?} mutant was rejected");
        }
    }
}
