//! `axbench`: the axmc benchmark. One command runs a named workload with a
//! seed for a fixed time, checks every verdict against its known answer,
//! and prints every end-to-end metric (or, with `--trace 1`, every
//! per-layer metric and the layer table). The last line of standard output
//! is one JSON object with the result. See README.md.

mod answers;
mod cgp_evolve;
mod comb_library;
mod refs;
mod seq_bmc;
mod serve_batch;
mod stats;
mod trace;
mod workload;

use answers::Answers;
use axmc_obs::json::Json;
use stats::{median, percentile, quartiles, spread, Tally};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{ratio, Capture};
use workload::{Pass, Workload};

/// The workloads, in the order the README describes them.
const WORKLOADS: [&str; 4] = ["seq_bmc", "comb_library", "cgp_evolve", "serve_batch"];

/// Set-up runs at least this many times, and until [`SETUP_TIME`] has
/// passed, per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_TIME: Duration = Duration::from_secs(1);

/// A repeating workload runs at least this many passes, so that every
/// operation has repetitions to fall back on.
const MIN_REPEATS: u64 = 3;

/// A run stops measuring after this long even if it has too few samples,
/// so that it always ends well within its time limit.
const HARD_STOP: Duration = Duration::from_secs(120);

/// The end-to-end metrics, reported with tracing off: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// The per-layer metrics, reported by a traced run, per pass: (name, unit).
const PER_LAYER: [(&str, &str); 63] = [
    ("aig.parse_us", "us"),
    ("miter.build_us", "us"),
    ("miter.ands", "count"),
    ("absint.analyze_us", "us"),
    ("absint.sweep_us", "us"),
    ("absint.decided", "count"),
    ("absint.decided_frac", "ratio"),
    ("cnf.encode_us", "us"),
    ("sat.vars.created", "count"),
    ("mc.frame.encode_us", "us"),
    ("mc.frames_encoded", "count"),
    ("bmc.check.time_us", "us"),
    ("induction.round.time_us", "us"),
    ("induction.rounds", "count"),
    ("sat.solve.time_us", "us"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.us_per_conflict", "us"),
    ("sat.us_per_solve", "us"),
    ("engine.bdd.time_us", "us"),
    ("bdd.nodes.created", "count"),
    ("bdd.nodes.peak", "count"),
    ("bdd.cache.hit_ratio", "ratio"),
    ("core.searches", "count"),
    ("core.probes_per_search", "count"),
    ("engine.selected.sat", "count"),
    ("engine.selected.bdd", "count"),
    ("engine.fallback", "count"),
    ("engine.race.won.sat", "count"),
    ("engine.race.won.bdd", "count"),
    ("proc.cpu_per_wall", "ratio"),
    ("peak_rss_mb", "MB"),
    ("check.certify.time_us", "us"),
    ("check.certified", "count"),
    ("check.proof.steps", "count"),
    ("cgp.verify.time_us", "us"),
    ("cgp.generation.time_us", "us"),
    ("cgp.verifier_calls", "count"),
    ("cgp.verify.ok", "count"),
    ("cgp.verify.violation", "count"),
    ("cgp.verify.timeout", "count"),
    ("cgp.verify.static_decided", "count"),
    ("cgp.skipped_neutral", "count"),
    ("cgp.skipped_area", "count"),
    ("cgp_area_ratio", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.compute_p50_ms", "ms"),
    ("serve.compute_p90_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.queue.depth", "count"),
    ("self_ms.serve", "ms"),
    ("self_ms.cgp", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.absint", "ms"),
    ("self_ms.mc", "ms"),
    ("self_ms.sat", "ms"),
    ("self_ms.bdd", "ms"),
    ("self_ms.check", "ms"),
    ("self_ms.unspanned", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The layers the program has no span for, with the metric the benchmark
/// measures each by, in the traced run's table.
const UNSPANNED_LAYERS: [(&str, &str); 5] = [
    ("miter build", "miter.build_us"),
    ("comb Tseitin encode", "cnf.encode_us"),
    ("cache lookup", "serve.cached_compute_p50_ms"),
    ("AIGER parse", "aig.parse_us"),
    ("queue wait", "serve.queue_wait_p50_ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<u64>,
    record: bool,
}

fn usage() -> String {
    format!(
        "usage: axbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n\
         \x20      axbench --workload <name> --seconds <n> --steady <runs>\n\
         \x20      axbench --record-answers",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        steady: None,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-answers" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--steady" => args.steady = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.record && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn setup(name: &str, seed: u64, answers: &Answers) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "seq_bmc" => Box::new(seq_bmc::SeqBmc::setup(seed)),
        "comb_library" => Box::new(comb_library::CombLibrary::setup(seed)),
        "cgp_evolve" => Box::new(cgp_evolve::CgpEvolve::setup(seed)),
        "serve_batch" => Box::new(serve_batch::ServeBatch::setup(seed, answers)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Sets the workload up repeatedly and keeps the last one.
fn timed_setup(args: &Args, answers: &Answers) -> Result<(Box<dyn Workload>, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    let begin = Instant::now();
    while times.len() < SETUP_REPS || (begin.elapsed() < SETUP_TIME && times.len() < 1_000_000) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup(&args.workload, args.seed, answers)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Metric values by name, in report order.
type Metrics = Vec<(&'static str, &'static str, f64)>;

fn peak_rss_mb() -> f64 {
    axmc_obs::proc::read().max_rss_kb.unwrap_or(0) as f64 / 1024.0
}

/// The end-to-end run: passes until the time is up, the latency tail has
/// enough samples, and a repeating workload has run [`MIN_REPEATS`] passes.
///
/// Machine noise only ever adds time, so repetitions are combined by their
/// minimum: an operation's latency is its fastest repetition, and the
/// throughput of a repeating workload is that of its fastest pass.
fn run_untraced(
    args: &Args,
    w: &mut dyn Workload,
    answers: &Answers,
    setup_s: f64,
) -> (Metrics, Tally) {
    let need = stats::min_samples_for_tail(0.9);
    let repeats = w.repeats();
    let start = Instant::now();
    let mut fastest: BTreeMap<u64, f64> = BTreeMap::new();
    let mut tally = Tally::default();
    let (mut ops, mut busy) = (0u64, Duration::ZERO);
    let mut best_rate = 0f64;
    let mut round = 0;
    while start.elapsed() < HARD_STOP
        && (start.elapsed().as_secs() < args.seconds
            || fastest.len() < need
            || (repeats && round < MIN_REPEATS))
    {
        let pass = w.pass(round, answers);
        for &(key, ms) in &pass.latencies_ms {
            let best = fastest.entry(key).or_insert(ms);
            *best = best.min(ms);
        }
        tally.absorb(&pass.tally);
        ops += pass.ops;
        busy += pass.busy;
        best_rate = best_rate.max(ratio(pass.ops as f64, pass.busy.as_secs_f64()));
        round += 1;
    }
    let samples: Vec<f64> = fastest.into_values().collect();
    let n = samples.len();
    let p50 = percentile(&samples, 0.5).unwrap_or(0.0);
    let p90 = percentile(&samples, 0.9).unwrap_or(0.0);
    println!(
        "workload {} seed {}: {} operations in {round} passes, {:.2} s",
        args.workload,
        args.seed,
        tally.attempted,
        busy.as_secs_f64()
    );
    println!(
        "latency over {n} operations: p50 {p50:.3} ms, p90 {p90:.3} ms ({} beyond p90{})",
        stats::samples_beyond(n, 0.9),
        if stats::tail_is_supported(n, 0.9) {
            ""
        } else {
            ": too few for a tail"
        }
    );
    println!("peak RSS {:.1} MB", peak_rss_mb());
    let ops_per_s = if repeats {
        best_rate
    } else {
        ratio(ops as f64, busy.as_secs_f64())
    };
    let metrics = vec![
        ("setup_s", "s", setup_s),
        ("ops_per_s", "1/s", ops_per_s),
        ("latency_p50_ms", "ms", p50),
        ("latency_p90_ms", "ms", p90),
    ];
    (metrics, tally)
}

/// The traced run: alternates an untraced and a traced pass until the time
/// is up, then reports the per-layer metrics and prints the layer table.
fn run_traced(args: &Args, w: &mut dyn Workload, answers: &Answers) -> (Metrics, Tally) {
    let start = Instant::now();
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    let (mut plain_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut cpu_us = 0u64;
    let mut rss_mb = 0.0;
    let mut passes = 0usize;
    let mut capture = Capture::default();
    while passes == 0 || (start.elapsed().as_secs() < args.seconds && start.elapsed() < HARD_STOP) {
        // Alternate which side goes first, so warm-up favours neither.
        for traced_turn in [!passes.is_multiple_of(2), passes.is_multiple_of(2)] {
            let t = Instant::now();
            if traced_turn {
                let cpu0 = cpu_time_us();
                traced.absorb(trace::capture(&mut capture, || {
                    w.pass(passes as u64, answers)
                }));
                traced_wall += t.elapsed();
                cpu_us += cpu_time_us().saturating_sub(cpu0);
            } else {
                plain.absorb(w.pass(passes as u64, answers));
                plain_wall += t.elapsed();
                if rss_mb == 0.0 {
                    // Set-up plus one untraced pass, before any trace is held.
                    rss_mb = peak_rss_mb();
                }
            }
        }
        passes += 1;
    }
    let side = w.side_layers();
    let table = capture.layer_table(passes);
    let c = |name: &str| capture.counter(name, passes);
    let h = |name: &str| capture.hist_sum(name, passes);
    let count = |name: &str| traced.counts.get(name).copied().unwrap_or(0.0) / passes as f64;
    // Queries per pass: one per operation, unless the workload counts them.
    let queries = traced
        .counts
        .get("queries")
        .map_or(traced.latencies_ms.len() as f64 / passes as f64, |q| {
            q / passes as f64
        });
    let series = |name: &str, p: f64| {
        traced
            .samples
            .get(name)
            .and_then(|v| percentile(v, p))
            .unwrap_or(0.0)
    };
    let side_value = |name: &str| {
        side.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let overhead = ratio(traced_wall.as_secs_f64(), plain_wall.as_secs_f64()) - 1.0;
    let decided = c("absint.decided") + c("cgp.verify.static_decided");
    let conflicts = h("sat.solve.conflicts");
    let solves = c("sat.solves");
    let bdd_hits = c("bdd.cache.hits");
    let hits = count("serve.cache.hits");
    let layer = |name: &str| {
        table
            .rows
            .iter()
            .find(|r| r.0 == name)
            .map_or(0.0, |r| r.1 / 1e3)
    };
    let value = |name: &str| -> f64 {
        match name {
            "aig.parse_us" | "miter.build_us" | "miter.ands" | "cnf.encode_us" => side_value(name),
            "absint.analyze_us"
            | "absint.sweep_us"
            | "mc.frame.encode_us"
            | "bmc.check.time_us"
            | "induction.round.time_us"
            | "sat.solve.time_us"
            | "engine.bdd.time_us"
            | "check.certify.time_us"
            | "cgp.verify.time_us"
            | "cgp.generation.time_us" => h(name),
            "absint.decided" => decided,
            "absint.decided_frac" => ratio(decided, queries),
            "sat.conflicts" => conflicts,
            "sat.propagations" => h("sat.solve.propagations"),
            "sat.us_per_conflict" => ratio(h("sat.solve.time_us"), conflicts),
            "sat.us_per_solve" => ratio(h("sat.solve.time_us"), solves),
            "bdd.nodes.peak" | "serve.queue.depth" => capture.gauge(name),
            "bdd.cache.hit_ratio" => ratio(bdd_hits, bdd_hits + c("bdd.cache.misses")),
            "core.probes_per_search" => ratio(h("core.search.probes"), c("core.searches")),
            "check.proof.steps" => h(name),
            "peak_rss_mb" => rss_mb,
            "proc.cpu_per_wall" => ratio(cpu_us as f64 / 1e6, traced_wall.as_secs_f64()),
            "cgp.verifier_calls"
            | "cgp.verify.ok"
            | "cgp.verify.violation"
            | "cgp.verify.timeout"
            | "cgp.skipped_neutral"
            | "cgp.skipped_area" => count(name),
            "cgp_area_ratio" => traced.samples.get(name).map_or(0.0, |v| median(v)),
            "serve.queue_wait_p50_ms" => series("serve.queue_wait_ms", 0.5),
            "serve.queue_wait_p90_ms" => series("serve.queue_wait_ms", 0.9),
            "serve.compute_p50_ms" => series("serve.compute_ms", 0.5),
            "serve.compute_p90_ms" => series("serve.compute_ms", 0.9),
            "serve.cache.hit_ratio" => ratio(hits, hits + count("serve.cache.misses")),
            "trace.coverage" => table.coverage,
            "trace.overhead_frac" => overhead,
            n if n.starts_with("self_ms.") => layer(&n["self_ms.".len()..]),
            n => c(n),
        }
    };
    let metrics: Metrics = PER_LAYER.iter().map(|&(n, u)| (n, u, value(n))).collect();

    let wall_ms = traced_wall.as_secs_f64() * 1e3 / passes as f64;
    println!(
        "workload {} seed {}: {passes} traced passes",
        args.workload, args.seed
    );
    println!("traced wall {wall_ms:.1} ms per pass; times below are self times per pass");
    println!("{:<14} {:>12} {:>8}  spans", "layer", "self ms", "share");
    for (name, us, spans) in &table.rows {
        if *us > 0.0 {
            println!(
                "{name:<14} {:>12.3} {:>7.1}%  {}",
                us / 1e3,
                100.0 * us / 1e3 / wall_ms,
                spans.join(", ")
            );
        }
    }
    println!(
        "trace.coverage {:.4} (share of traced time inside in-program spans)",
        table.coverage
    );
    println!("trace.overhead_frac {overhead:.4} (traced wall / untraced wall - 1)");
    println!("layers with no in-program span yet, measured by the benchmark:");
    let cached = series("serve.cached_compute_ms", 0.5);
    for (layer, metric) in UNSPANNED_LAYERS {
        let v = match metric {
            "serve.cached_compute_p50_ms" => cached,
            m => value(m),
        };
        if v > 0.0 {
            println!("  {layer:<20} {metric} = {v:.3}");
        } else {
            println!("  {layer:<20} not reached by this workload");
        }
    }
    let mut tally = plain.tally;
    tally.absorb(&traced.tally);
    (metrics, tally)
}

/// User plus system CPU time of this process, µs.
fn cpu_time_us() -> u64 {
    let p = axmc_obs::proc::read();
    p.cpu_user_us.unwrap_or(0) + p.cpu_sys_us.unwrap_or(0)
}

fn result_line(metrics: &Metrics, tally: &Tally) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, v)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(v)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed() == 0)),
        ("attempted".into(), Json::Num(tally.attempted as f64)),
        ("failed".into(), Json::Num(tally.failed() as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

fn run(args: &Args) -> Result<(), String> {
    let answers = Answers::committed()?;
    println!(
        "available parallelism {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (mut w, setup_s) = timed_setup(args, &answers)?;
    let (metrics, tally) = if args.trace {
        run_traced(args, w.as_mut(), &answers)
    } else {
        run_untraced(args, w.as_mut(), &answers, setup_s)
    };
    drop(w);
    println!(
        "attempted {}, failed {} (errors {}, interrupted {}, panics {}, wrong {}), failed_frac {}",
        tally.attempted,
        tally.failed(),
        tally.errors,
        tally.interrupted,
        tally.panics,
        tally.wrong,
        tally.failed_frac()
    );
    for (name, unit, v) in &metrics {
        println!("{name:<28} {v:>14.4} {unit}");
    }
    println!("{}", result_line(&metrics, &tally));
    Ok(())
}

/// Steadiness mode: runs the workload `runs` times in fresh processes with
/// seeds 1..=runs and prints each end-to-end metric's median, quartiles
/// and spread, with the smallest bound three times the spread fits in.
fn steady(args: &Args, runs: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for seed in 1..=runs {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let doc = text
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .ok_or_else(|| format!("seed {seed}: no result line ({})", out.status))?;
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("seed {seed}: run was not correct"));
        }
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            let v = doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("seed {seed}: no {name}"))?;
            values[i].push(v);
        }
        println!("seed {seed} done");
    }
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "median", "q1", "q3", "spread", "bound>="
    );
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        let (q1, q3) = quartiles(&values[i]);
        let s = spread(&values[i]);
        println!(
            "{name:<16} {:>12.4} {q1:>12.4} {q3:>12.4} {s:>8.4} {:>8.3}",
            median(&values[i]),
            3.0 * s
        );
    }
    Ok(())
}

/// Regenerates `answers.tsv` from the engines, refusing to write it when
/// any value disagrees with an independent reference.
fn record() -> Result<(), String> {
    // The other workloads' answers derive from these two.
    let mut answers = Answers::default();
    seq_bmc::SeqBmc::setup(0).record(&mut answers)?;
    comb_library::CombLibrary::setup(0).record(&mut answers)?;
    let problems = refs::disagreements(&answers);
    if !problems.is_empty() {
        return Err(format!(
            "answers disagree with the references:\n{}",
            problems.join("\n")
        ));
    }
    let path = answers::record_path();
    std::fs::write(&path, answers.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {} answers to {}", answers.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.record {
        record()
    } else if let Some(runs) = args.steady {
        steady(&args, runs)
    } else {
        run(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
