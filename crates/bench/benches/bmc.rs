//! Criterion micro-benchmarks of the BMC layer: incremental frame cost,
//! the per-cycle scan up to a depth, and counterexamples at increasing
//! depth.

use axmc_circuit::{approx, generators};
use axmc_mc::{Bmc, BmcResult, Unroller};
use axmc_miter::sequential_diff_miter;
use axmc_seq::wide_accumulator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn miter_at(width: usize, threshold: u128) -> axmc_aig::Aig {
    let acc = width + 4;
    let golden = wide_accumulator(&generators::ripple_carry_adder(acc), width, acc);
    let apx = wide_accumulator(&approx::lower_or_adder(acc, width / 2), width, acc);
    sequential_diff_miter(&golden, &apx, threshold)
}

/// Cost of encoding one additional frame (no solving).
fn bench_frame_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmc/frame_encoding");
    for width in [8usize, 16] {
        let miter = miter_at(width, 4);
        group.bench_with_input(BenchmarkId::from_parameter(width), &miter, |b, m| {
            b.iter(|| {
                let mut u = Unroller::new(m.clone());
                u.extend_to(8);
                u.num_frames()
            })
        });
    }
    group.finish();
}

/// Per-cycle scan (k+1 queries), UNSAT case.
fn bench_clear_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmc/clear_up_to_6");
    let width = 8;
    // Threshold above the reachable error at this depth: all queries UNSAT.
    let miter = miter_at(width, 4000);
    group.bench_function("per_cycle_scan", |b| {
        b.iter(|| {
            let mut bmc = Bmc::new(&miter);
            assert_eq!(bmc.check_up_to(6), Ok(BmcResult::Clear));
        })
    });
    group.finish();
}

/// Counterexample (SAT) case at increasing depth.
fn bench_cex_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmc/cex_at_depth");
    let miter = miter_at(8, 0);
    for depth in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &d| {
            b.iter(|| {
                let mut bmc = Bmc::new(&miter);
                assert!(matches!(bmc.check_up_to(d), Ok(BmcResult::Cex(_))));
            })
        });
    }
    group.finish();
}

fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench_frame_encoding,
    bench_clear_scan,
    bench_cex_depth
}
criterion_main!(benches);
