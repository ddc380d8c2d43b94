#![cfg(feature = "proptest-tests")]

//! Cross-engine agreement tests: the three model-checking engines (BMC,
//! k-induction, explicit reachability) must tell one consistent story on
//! randomly generated sequential property circuits.

use axmc::aig::{Aig, Lit, Word};
use axmc::core::{AnalysisOptions, SeqAnalyzer, Verdict};
use axmc::mc::{explicit_reach, prove_invariant, Bmc, BmcResult, InductionOptions, ProofResult};
use axmc::miter::{sequential_bit_flip_miter, sequential_diff_miter, sequential_strict_miter};
use proptest::prelude::*;

/// A random small sequential single-output circuit: a few latches with
/// random next-state logic over latches and inputs, plus a random output
/// predicate. Rich enough to exercise reachable/unreachable bad states.
fn random_machine() -> impl Strategy<Value = Aig> {
    (
        1usize..=3, // inputs
        2usize..=4, // latches
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>(), 0u8..3), 4..20),
        any::<u32>(), // output shape
    )
        .prop_map(|(n_in, n_latch, gates, out_sel)| {
            let mut aig = Aig::new();
            let inputs = aig.add_inputs(n_in);
            let latches: Vec<Lit> = (0..n_latch).map(|_| aig.add_latch(false)).collect();
            let mut nodes: Vec<Lit> = inputs.iter().chain(latches.iter()).copied().collect();
            for (a, b, neg, op) in gates {
                let la = nodes[a as usize % nodes.len()];
                let lb = nodes[b as usize % nodes.len()].negate_if(neg);
                let y = match op {
                    0 => aig.and(la, lb),
                    1 => aig.or(la, lb),
                    _ => aig.xor(la, lb),
                };
                nodes.push(y);
            }
            // Next-state functions from the tail of the node list.
            let n = nodes.len();
            for (k, _) in latches.iter().enumerate() {
                let next = nodes[(n - 1 - k) % n];
                aig.set_latch_next(k, next);
            }
            // Output: a conjunction of the latch bits xored by out_sel —
            // a specific state predicate, reachable or not.
            let terms: Vec<Lit> = latches
                .iter()
                .enumerate()
                .map(|(i, &l)| l.negate_if((out_sel >> i) & 1 == 1))
                .collect();
            let bad = aig.and_all(&terms);
            aig.add_output(bad);
            aig
        })
}

/// A random acyclic golden/approximate pair: a chain of random gates
/// (each also reading a random earlier signal) runs through the latches
/// in order, so latch `i`'s next state reads only the inputs and latches
/// `< i`, and the outputs read the chain's end. The approximate copy
/// changes the operation of one gate.
fn random_acyclic_pair() -> impl Strategy<Value = (Aig, Aig)> {
    (
        1usize..=3, // inputs
        1usize..=4, // latches
        2usize..=3, // outputs
        proptest::collection::vec((any::<u32>(), any::<bool>(), 0u8..4), 8..24),
        any::<u32>(), // the gate the approximation changes
    )
        .prop_map(|(n_in, n_latch, n_out, gates, flip)| {
            let changed = flip as usize % gates.len();
            let build = |approximate: bool| {
                let mut aig = Aig::new();
                let inputs = aig.add_inputs(n_in);
                let latches: Vec<Lit> = (0..n_latch).map(|_| aig.add_latch(false)).collect();
                let mut pool = inputs.clone();
                let mut chain = inputs[0];
                let mut g = 0;
                // Segment `s` of the gates feeds latch `s`; the last one
                // feeds the outputs.
                for (s, latch) in latches.iter().map(Some).chain([None]).enumerate() {
                    let end = (s + 1) * gates.len() / (n_latch + 1);
                    while g < end {
                        let (pick, neg, op) = gates[g];
                        let other = pool[pick as usize % pool.len()].negate_if(neg);
                        // Half the gates are XORs, which pass a
                        // difference on; the approximation turns an AND
                        // into an OR and anything else into an AND.
                        let op = if approximate && g == changed {
                            (op == 0) as u8
                        } else {
                            op
                        };
                        chain = match op {
                            0 => aig.and(chain, other),
                            1 => aig.or(chain, other),
                            _ => aig.xor(chain, other),
                        };
                        pool.push(chain);
                        g += 1;
                    }
                    if let Some(&latch) = latch {
                        aig.set_latch_next(s, chain);
                        pool.push(latch);
                        chain = latch;
                    }
                }
                aig.add_output(chain);
                for o in 1..n_out {
                    aig.add_output(pool[pool.len() - 1 - o]);
                }
                aig
            };
            (build(false), build(true))
        })
}

/// WCE@k by explicit-state search: the smallest `t` whose threshold
/// miter reaches no violation within `k` cycles.
fn explicit_wce(golden: &Aig, approx: &Aig, k: usize) -> u128 {
    (0u128..)
        .find(|&t| {
            let miter = sequential_diff_miter(golden, approx, t);
            explicit_reach(&miter, k).bad_depth.is_none()
        })
        .expect("the difference word is finite")
}

/// BF@k by explicit-state search, as [`explicit_wce`] does for WCE@k.
fn explicit_bit_flips(golden: &Aig, approx: &Aig, k: usize) -> u32 {
    (0u32..)
        .find(|&t| {
            let miter = sequential_bit_flip_miter(golden, approx, t);
            explicit_reach(&miter, k).bad_depth.is_none()
        })
        .expect("the output word is finite")
}

proptest! {
    // About a third of the pairs never differ; the rest cover depths 0-4.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn capped_searches_agree_with_explicit_reachability(pair in random_acyclic_pair()) {
        let (golden, approx) = pair;
        let strict = sequential_strict_miter(&golden, &approx);
        let depth = strict.sequential_depth().expect("acyclic by construction");
        let horizon = 2 * depth + 2;
        let first = explicit_reach(&strict, horizon).bad_depth;
        let wce: Vec<u128> = (0..=horizon).map(|k| explicit_wce(&golden, &approx, k)).collect();
        // The BDD route (default options), the SAT route (a node budget
        // any gate blows) and the certified SAT search.
        let analyzers = [
            AnalysisOptions::new(),
            AnalysisOptions::new().with_bdd_node_limit(0),
            AnalysisOptions::new().with_certify(true),
        ]
        .map(|options| SeqAnalyzer::new(&golden, &approx).with_options(options));
        for k in 0..=horizon {
            let earliest = analyzers[0].earliest_error(k + 1).expect("unbudgeted").cycle;
            prop_assert_eq!(earliest, first.filter(|&c| c <= k), "earliest within {}", k);
        }
        for (route, analyzer) in ["bdd", "sat", "certified"].iter().zip(&analyzers) {
            for (k, &expected) in wce.iter().enumerate() {
                let value = analyzer.worst_case_error_at(k).expect("unbudgeted").value;
                prop_assert_eq!(value, expected, "{} WCE@{}", route, k);
                let flips = analyzer.bit_flip_error_at(k).expect("unbudgeted").value;
                prop_assert_eq!(flips, explicit_bit_flips(&golden, &approx, k), "{} BF@{}", route, k);
            }
            let profile = analyzer.error_profile(horizon).expect("unbudgeted").profile;
            prop_assert_eq!(&profile, &wce, "{} profile", route);
        }
        // The worst case by the pair's depth, which bounds the difference
        // word's (the strict miter's can be smaller: an output pinned to
        // differ hides the others), holds for ever; one less is refuted by
        // a run that exceeds it.
        let pair_depth = golden.sequential_depth().max(approx.sequential_depth()).expect("acyclic");
        let worst = explicit_wce(&golden, &approx, pair_depth);
        let options = InductionOptions { max_k: pair_depth + 2, ..InductionOptions::default() };
        let analyzer = &analyzers[0];
        prop_assert!(analyzer.prove_error_bound(worst, &options).expect("unbudgeted").is_proved());
        if let Some(below) = worst.checked_sub(1) {
            match analyzer.prove_error_bound(below, &options).expect("unbudgeted") {
                Verdict::Refuted { witness } => {
                    prop_assert!(analyzer.trace_error(&witness) > below, "witness within {}", below)
                }
                other => prop_assert!(false, "bound {} below the worst case: {:?}", below, other),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bmc_agrees_with_explicit_reachability(aig in random_machine()) {
        let horizon = 6;
        let explicit = explicit_reach(&aig, horizon);
        let mut bmc = Bmc::new(&aig);
        // Earliest violation per BMC.
        let mut bmc_depth = None;
        for k in 0..=horizon {
            if matches!(bmc.check_at(k), Ok(BmcResult::Cex(_))) {
                bmc_depth = Some(k);
                break;
            }
        }
        prop_assert_eq!(bmc_depth, explicit.bad_depth);
    }

    #[test]
    fn induction_proofs_imply_unreachability(aig in random_machine()) {
        let opts = InductionOptions {
            max_k: 4,
            simple_path: true,
            ..InductionOptions::default()
        };
        match prove_invariant(&aig, &opts) {
            Ok(ProofResult::Proved { .. }) => {
                // Exhaustive search over the full (tiny) state space must
                // confirm: bad is unreachable at ANY depth.
                let r = explicit_reach(&aig, usize::MAX);
                prop_assert_eq!(r.bad_depth, None, "proof contradicted by explicit search");
            }
            Ok(ProofResult::Falsified(trace)) => {
                // The trace must actually reach the bad output.
                let outs = trace.final_outputs(&aig);
                prop_assert!(outs[0], "falsification trace does not violate");
            }
            Ok(ProofResult::Unknown { .. }) => {}
            Err(e) => prop_assert!(false, "uncertified run rejected a certificate: {e}"),
        }
    }

    #[test]
    fn cex_traces_always_replay_to_violation(aig in random_machine()) {
        let mut bmc = Bmc::new(&aig);
        if let Ok(BmcResult::Cex(trace)) = bmc.check_up_to(6) {
            let replays = trace.replay(&aig);
            prop_assert!(
                replays.iter().any(|outs| outs[0]),
                "counterexample does not witness the violation"
            );
        }
    }
}

#[test]
fn counter_example_machine_consistency() {
    // Deterministic spot-check: 3-bit counter, bad = 5.
    let mut aig = Aig::new();
    let state = Word::from_lits((0..3).map(|_| aig.add_latch(false)).collect());
    let (next, _) = state.add(&mut aig, &Word::constant(1, 3));
    for (k, &b) in next.bits().iter().enumerate() {
        aig.set_latch_next(k, b);
    }
    let eq = state.equals(&mut aig, &Word::constant(5, 3));
    aig.add_output(eq);

    assert_eq!(explicit_reach(&aig, 50).bad_depth, Some(5));
    let mut bmc = Bmc::new(&aig);
    assert!(matches!(bmc.check_up_to(5), Ok(BmcResult::Cex(_))));
    assert!(matches!(
        prove_invariant(&aig, &InductionOptions::default()),
        Ok(ProofResult::Falsified(_))
    ));
}
