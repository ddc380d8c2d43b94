//! The `axmc` command-line tool: precise error determination and
//! certified approximate-circuit synthesis from the shell.
//!
//! ```text
//! axmc analyze --golden g.aag --approx c.aag [--horizon K] [--prove] [--average] [--certify] [--vcd t.vcd]
//! axmc evolve  --kind adder|multiplier --width N (--wcre P | --config f.cfg) [--certify] [--out c.aag]
//! axmc gen     --kind <component> --width N [--param P] --out c.aag [--verilog c.v]
//! axmc stats   --circuit c.aag
//! axmc lint    [--circuit c.aag] [--suite]
//! ```
//!
//! Circuits are exchanged in ASCII AIGER (`.aag`). `analyze` treats
//! latch-free pairs combinationally and sequential pairs via BMC.

use axmc::aig::{aiger, Aig};
use axmc::cgp::{threshold_to_wcre, wcre_to_threshold};
use axmc::circuit::{approx, generators, AreaModel, Netlist};
use axmc::core::{CombAnalyzer, SeqAnalyzer};
use axmc::mc::InductionOptions;
use axmc::obs::artifact::{self, RunDir};
use axmc::obs::json::Json;
use axmc::obs::sink::{JsonlSink, TeeSink};
use axmc::obs::{Event, Sink, Value};
use axmc::{evolve, AnalysisError, AnalysisOptions, Backend, ResourceCtl, SearchOptions, Verdict};
use std::collections::HashMap;
use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A command failure plus the process exit code it maps to (see the
/// `EXIT CODES` section of the usage text).
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            code: 1,
            message: message.to_string(),
        }
    }
}

impl From<AnalysisError> for CliError {
    fn from(e: AnalysisError) -> Self {
        let code = match &e {
            AnalysisError::Interrupted(_) => 10,
            AnalysisError::CertificateRejected { .. } => 11,
        };
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

/// Exits with the conventional SIGPIPE status (128 + 13) instead of a
/// panic backtrace when stdout's reader goes away (`axmc ... | head`).
/// Rust ignores SIGPIPE, so the closed pipe surfaces as a print panic.
fn exit_quietly_on_broken_pipe() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if broken {
            std::process::exit(141);
        }
        default(info);
    }));
}

fn main() -> ExitCode {
    exit_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let specs = match command.as_str() {
        "analyze" => ANALYZE_FLAGS,
        "characterize" => CHARACTERIZE_FLAGS,
        "evolve" => EVOLVE_FLAGS,
        "gen" => GEN_FLAGS,
        "stats" => STATS_FLAGS,
        "lint" => LINT_FLAGS,
        "report" => REPORT_FLAGS,
        "bench-diff" => BENCH_DIFF_FLAGS,
        "serve" => SERVE_FLAGS,
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command '{other}'");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let opts = match parse_flags(command, specs, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match ObsSession::start(command, &opts, command == "evolve") {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The root of every profile: with tracing on, the whole command runs
    // inside one "run" span so `axmc report` can attribute 100% of the
    // wall-clock. With observability off this is a no-op.
    let run_span = axmc::obs::span("run");
    let result = match command.as_str() {
        "analyze" => cmd_analyze(&opts),
        "characterize" => cmd_characterize(&opts),
        "evolve" => cmd_evolve(&opts),
        "gen" => cmd_gen(&opts),
        "stats" => cmd_stats(&opts),
        "lint" => cmd_lint(&opts),
        "report" => cmd_report(&opts),
        "bench-diff" => cmd_bench_diff(&opts),
        "serve" => cmd_serve(&opts),
        _ => unreachable!("command validated above"),
    };
    run_span.finish();
    obs.finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "\
axmc — precise error determination of approximated components with model checking

USAGE:
  axmc analyze --golden G.aag --approx C.aag [--horizon K] [--jobs N]
               [--engine sat|bdd|auto|static] [--timeout D] [--query-timeout D]
               [--prove] [--average] [--certify] [--vcd F.vcd]
               [--inprocess]
               [--metrics] [--trace F.jsonl] [--run-dir DIR]
      Exact worst-case / bit-flip error of C against G. Sequential pairs
      are analyzed within K cycles (default 8); --prove additionally
      attempts an unbounded proof of the measured WCE (k-induction, or
      on a feed-forward pair the worst case over its sequential depth).

  axmc characterize [--library DIR] [--width W | --widths W1,W2,...]
                    [--kinds adders,multipliers,imports|all] [--measure wce,bit-flip,avg]
                    [--engine sat|bdd|auto|static] [--jobs N]
                    [--timeout D] [--query-timeout D]
                    [--out TABLE.jsonl] [--markdown TABLE.md] [--no-reuse]
                    [--compose mac|fir|accumulator --horizon K [--tau T] [--taps N]]
                    [--metrics] [--trace F.jsonl] [--run-dir DIR]
      Characterizes a whole library of approximate components at once:
      the in-tree generated adder/multiplier variants at every requested
      width (doubling 4,8,... up to --width, default 8) plus AIGER
      imports from --library DIR (*.aag/*.aig; the component class and
      width are inferred from the interface). Emits an
      axmc-characterize-v1 table — JSONL with --out, rendered markdown
      on stdout and with --markdown — with exact per-component WCE,
      bit-flip and average-case metrics plus engine/timing provenance.
      Re-running with the same --out reuses completed rows whose
      fingerprint, backend and metrics match (disable with --no-reuse).
      With --compose the library picks are instead instantiated inside a
      sequential scenario (MAC array, FIR cascade, accumulator chain),
      analyzed end to end at cycle horizon K, and — given --tau T — the
      cheapest component whose system-level WCE stays <= T is selected.
      See docs/characterize.md.

  axmc evolve --kind adder|multiplier --width N (--wcre P | --config F)
              [--seconds S] [--seed X] [--jobs N] [--engine sat|bdd|auto]
              [--timeout D] [--query-timeout D] [--certify] [--out C.aag]
              [--progress] [--metrics] [--trace F.jsonl] [--run-dir DIR]
      Verifiability-driven CGP synthesis of an approximate circuit whose
      worst-case relative error provably stays below P percent.

  axmc gen --kind KIND --width N [--param P] --out C.aag [--verilog C.v]
      Writes a library circuit as AIGER. KIND: adder, multiplier,
      trunc-adder, loa-adder, spec-adder, trunc-multiplier,
      optrunc-multiplier, kulkarni-multiplier, incrementer; sequential
      (AIGER only, no --verilog): accumulator, trunc-accumulator.

  axmc stats --circuit C.aag
      Structural statistics of an AIGER circuit.

  axmc lint [--circuit C.aag] [--suite]
      Structural and semantic linting. --circuit lints one AIGER file;
      --suite lints every shipped sequential benchmark pair and the whole
      approximate component library. AIGs additionally get the semantic
      rules (ABS001 constant gate in the output cone, ABS002 constant
      output, ABS003 latch never toggles) from the ternary fixpoint.
      Exits nonzero if any error-severity diagnostic is found (warnings
      alone do not fail the run).

  axmc report (--run-dir DIR | --trace F.jsonl) [--flame F.txt]
      Reconstructs the hierarchical span tree from a recorded trace and
      prints a self/total time-attribution tree plus per-span latency
      quantile tables (p50/p95/p99). --flame additionally writes the
      profile as collapsed stacks for standard flamegraph tooling.

  axmc bench-diff --base A --new B [--threshold PCT] [--min-ms MS]
      Compares two timing files — bench harness phase logs or run-dir
      metrics.json files (a directory is read as DIR/metrics.json) —
      and prints the per-phase deltas. Exits with code 12 when any
      phase got slower by more than PCT percent (default 25) while
      taking more than MS milliseconds (default 5, a noise floor).

  axmc serve [--socket PATH [--max-conns N]] [--jobs N]
             [--engine sat|bdd|auto] [--timeout D] [--certify] [--inprocess]
             [--metrics] [--trace F.jsonl] [--run-dir DIR]
      Batch analysis service. Reads analysis jobs as line-delimited JSON
      from stdin (or serves whole batches per connection on a unix
      socket) and streams results back as JSONL. Jobs are scheduled onto
      N workers, higher 'priority' first and FIFO within a priority.
      Completed verdicts are cached by the structural fingerprint of the
      circuit pair plus the full query, so repeated jobs are answered
      without touching a solver (hits/misses are visible per batch in
      the 'done' line and in --metrics as serve.cache.hit/miss).
      --timeout sets the default per-job deadline, overridable per job
      with 'timeout_ms'. See docs/serve.md for the wire protocol.

CERTIFICATION:
  --certify         re-derive every UNSAT verdict: the solver records a
                    DRAT clausal proof and an independent in-tree RUP/DRAT
                    checker validates it before the result is reported.
                    A verdict whose certificate fails validation aborts
                    the run rather than printing an untrusted number.

ENGINES:
  --engine E        analysis backend for the combinational metrics and
                    the evolve fitness oracle. Sequential analyses ignore
                    it except for static: they run SAT/BMC, and an
                    uncertified WCE, bit-flip or --prove query on a
                    feed-forward pair is decided on the BDD of its
                    time-frame expansion (SAT when that blows its node
                    budget). E is one of:
                      sat   CEGIS threshold search on the CDCL solver —
                            the paper's engine and the default
                      bdd   exact ROBDD characteristic-function engine;
                            a node-budget blow-up degrades to SAT
                      auto  consult the static tier (ternary abstract
                            interpretation + concrete probing) first — a
                            decided query launches no solver — then run
                            the BDD on the reduced miter, and SAT when
                            the BDD blows its node budget
                      static  the static tier alone: certified interval
                            bounds with no solver at all; undecided
                            queries report their [lo, hi] interval
                    The solver engines are exact — the numbers are
                    identical for every choice; 'static' is exact when it
                    decides and an interval otherwise. See
                    docs/backends.md and docs/static-analysis.md.

PARALLELISM:
  --jobs N          worker threads for candidate verification (evolve),
                    the component sweep (characterize) and serve's
                    workers; analyze accepts it, but no analysis reads
                    it. Defaults to the machine's available
                    parallelism; must be >= 1. Results are identical for
                    every N — a fixed --seed reproduces the same evolve
                    trajectory byte for byte. Every search runs on one
                    warm engine and --engine auto stages its engines, so
                    no probe or conflict count depends on N either.

SOLVER TUNING (see docs/solver.md):
  --inprocess       run the solver's between-solves inprocessing pass
                    (subsumption, self-subsuming resolution, vivification)
                    inside every SAT engine. Verdicts are unchanged, and
                    under --certify every simplification is proof-logged
                    and re-checked. analyze and serve only.

RESOURCE GOVERNANCE:
  --timeout D       wall-clock deadline for the whole command. D is a
                    duration like '500ms', '30s', '2m', or plain seconds.
                    An analysis that hits the deadline stops cleanly with
                    a typed partial result carrying the tightest
                    certified bounds reached (exit code 10); evolve
                    returns the best verified circuit found so far.
  --query-timeout D wall-clock cap for every individual solver call; the
                    run continues past a timed-out query with whatever
                    the query had certified.

OBSERVABILITY:
  --metrics         print a summary table of solver/model-checker/search
                    metrics (counters, gauges, log2 histograms) at exit
  --trace F.jsonl   stream structured trace events (one JSON object per
                    line) to F: SAT solves, BMC frames, induction rounds,
                    error-search probes, CGP progress and improvements
  --run-dir DIR     record a complete run artifact bundle under DIR:
                    manifest.json (command, flags, resolved knobs, peak
                    RSS and CPU time), trace.jsonl (the full span/event
                    trace) and metrics.json (final counters, gauges and
                    histogram quantiles). Consumed by `axmc report` and
                    `axmc bench-diff`.
  --progress        (evolve) print a live one-line progress update (with
                    eval rate and time-limit ETA) to stderr at most four
                    times a second; on by default when stderr is a
                    terminal

EXIT CODES:
  0    success
  1    usage, I/O, or parse error
  10   analysis interrupted (deadline, cancellation, or budget); a
       partial result with the tightest certified bounds was reported
  11   a certificate failed validation under --certify; the verdict
       cannot be trusted
  12   bench-diff found a performance regression past the threshold
  141  output pipe closed (conventional SIGPIPE status)";

type Flags = HashMap<String, String>;

/// A flag a subcommand accepts: its name and whether it takes a value
/// (`--name VALUE`) or is a plain switch (`--name`).
struct FlagSpec {
    name: &'static str,
    takes_value: bool,
}

const fn val(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

const fn switch(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

const ANALYZE_FLAGS: &[FlagSpec] = &[
    val("golden"),
    val("approx"),
    val("horizon"),
    val("engine"),
    val("jobs"),
    val("timeout"),
    val("query-timeout"),
    switch("prove"),
    switch("average"),
    switch("certify"),
    switch("inprocess"),
    val("vcd"),
    switch("metrics"),
    val("trace"),
    val("run-dir"),
];

const CHARACTERIZE_FLAGS: &[FlagSpec] = &[
    val("library"),
    val("width"),
    val("widths"),
    val("kinds"),
    val("measure"),
    val("engine"),
    val("jobs"),
    val("timeout"),
    val("query-timeout"),
    val("out"),
    val("markdown"),
    switch("no-reuse"),
    val("compose"),
    val("horizon"),
    val("tau"),
    val("taps"),
    switch("metrics"),
    val("trace"),
    val("run-dir"),
];

const EVOLVE_FLAGS: &[FlagSpec] = &[
    val("kind"),
    val("width"),
    val("wcre"),
    val("config"),
    val("seconds"),
    val("seed"),
    val("engine"),
    val("jobs"),
    val("timeout"),
    val("query-timeout"),
    val("out"),
    switch("certify"),
    switch("progress"),
    switch("metrics"),
    val("trace"),
    val("run-dir"),
];

const GEN_FLAGS: &[FlagSpec] = &[
    val("kind"),
    val("width"),
    val("param"),
    val("out"),
    val("verilog"),
];

const STATS_FLAGS: &[FlagSpec] = &[val("circuit")];

const LINT_FLAGS: &[FlagSpec] = &[val("circuit"), switch("suite")];

const REPORT_FLAGS: &[FlagSpec] = &[val("run-dir"), val("trace"), val("flame")];

const BENCH_DIFF_FLAGS: &[FlagSpec] = &[val("base"), val("new"), val("threshold"), val("min-ms")];

const SERVE_FLAGS: &[FlagSpec] = &[
    val("socket"),
    val("max-conns"),
    val("jobs"),
    val("engine"),
    val("timeout"),
    switch("certify"),
    switch("inprocess"),
    switch("metrics"),
    val("trace"),
    val("run-dir"),
];

/// Parses `args` against the subcommand's flag table. Unknown flags,
/// repeated flags, and value flags without a value are all hard errors —
/// a typo must never be silently ignored.
fn parse_flags(command: &str, specs: &[FlagSpec], args: &[String]) -> Result<Flags, String> {
    let mut out = Flags::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, found '{arg}'"));
        };
        let Some(spec) = specs.iter().find(|s| s.name == name) else {
            let known: Vec<String> = specs.iter().map(|s| format!("--{}", s.name)).collect();
            return Err(format!(
                "unknown flag --{name} for '{command}' (expected one of: {})",
                known.join(", ")
            ));
        };
        let value = if spec.takes_value {
            match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                Some(v) => return Err(format!("flag --{name} expects a value, found '{v}'")),
                None => return Err(format!("flag --{name} expects a value")),
            }
        } else {
            "true".to_string()
        };
        if out.insert(name.to_string(), value).is_some() {
            return Err(format!("duplicate flag --{name}"));
        }
    }
    Ok(out)
}

/// The CLI's view of the observability stack: set up from `--metrics`,
/// `--trace`, `--progress` and `--run-dir` before the command runs, torn
/// down (sink flushed, artifacts written, summary table printed) after
/// it returns.
struct ObsSession {
    metrics: bool,
    sink_installed: bool,
    run_dir: Option<RunDir>,
    manifest: Vec<(String, Json)>,
    started: Instant,
}

impl ObsSession {
    fn start(command: &str, opts: &Flags, progress_allowed: bool) -> Result<ObsSession, String> {
        let metrics = opts.contains_key("metrics");
        let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
        let mut run_dir = None;
        let mut manifest = Vec::new();
        // `--run-dir` means "record this run" only for the commands that
        // run one; for `report` the same flag names an existing bundle
        // to *read*, which must never be truncated.
        let recording = matches!(command, "analyze" | "characterize" | "evolve" | "serve");
        if let Some(dir) = opts.get("run-dir").filter(|_| recording) {
            let rd = RunDir::create(Path::new(dir))
                .map_err(|e| format!("cannot create run dir '{dir}': {e}"))?;
            let sink = JsonlSink::create(&rd.trace_path())
                .map_err(|e| format!("cannot create trace file in '{dir}': {e}"))?;
            sinks.push(Arc::new(sink));
            // The manifest is written immediately (a crashed run still
            // identifies itself) and rewritten at exit with the final
            // resource-usage block appended.
            manifest = manifest_entries(command, opts);
            rd.write_manifest(manifest.clone())
                .map_err(|e| format!("cannot write manifest in '{dir}': {e}"))?;
            run_dir = Some(rd);
        }
        if let Some(path) = opts.get("trace") {
            let sink = JsonlSink::create(Path::new(path))
                .map_err(|e| format!("cannot create trace file '{path}': {e}"))?;
            sinks.push(Arc::new(sink));
        }
        if progress_allowed && (opts.contains_key("progress") || std::io::stderr().is_terminal()) {
            sinks.push(Arc::new(ProgressPrinter));
        }
        let sink_installed = !sinks.is_empty();
        match sinks.len() {
            0 => {}
            1 => axmc::obs::set_sink(sinks.pop().expect("one sink")),
            _ => axmc::obs::set_sink(Arc::new(TeeSink::new(sinks))),
        }
        if metrics || sink_installed {
            axmc::obs::set_enabled(true);
        }
        Ok(ObsSession {
            metrics,
            sink_installed,
            run_dir,
            manifest,
            started: Instant::now(),
        })
    }

    fn finish(self) {
        if axmc::obs::enabled() {
            axmc::obs::proc::record_gauges();
        }
        if let Some(rd) = &self.run_dir {
            let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
            let mut entries = self.manifest;
            entries.push(("proc".to_string(), proc_json()));
            if let Err(e) = rd
                .write_manifest(entries)
                .and_then(|()| rd.write_metrics(&axmc::obs::snapshot(), wall_ms))
            {
                eprintln!("warning: cannot finalize run dir: {e}");
            }
        }
        if self.sink_installed {
            axmc::obs::clear_sink(); // flushes
        }
        if self.metrics {
            print!("{}", axmc::obs::summary::render(&axmc::obs::snapshot()));
        }
    }
}

/// The stable part of a run-dir manifest: the command, its verbatim
/// flags (sorted — flag storage is a hash map) and the resolved knobs
/// the flags defaulted.
fn manifest_entries(command: &str, opts: &Flags) -> Vec<(String, Json)> {
    let mut flags: Vec<(String, Json)> = opts
        .iter()
        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
        .collect();
    flags.sort_by(|a, b| a.0.cmp(&b.0));
    let mut entries = vec![
        ("command".to_string(), Json::Str(command.to_string())),
        ("flags".to_string(), Json::Obj(flags)),
    ];
    if let Ok(jobs) = jobs_flag(opts) {
        entries.push(("jobs".to_string(), Json::Num(jobs as f64)));
    }
    if let Ok(engine) = engine_flag(opts) {
        entries.push(("engine".to_string(), Json::Str(engine.to_string())));
    }
    if let Ok(seed) = numeric::<u64>(opts, "seed", 1) {
        entries.push(("seed".to_string(), Json::Num(seed as f64)));
    }
    entries
}

/// Peak RSS and CPU time as a manifest block; values the platform does
/// not expose are omitted.
fn proc_json() -> Json {
    let stats = axmc::obs::proc::read();
    let mut obj = Vec::new();
    if let Some(v) = stats.max_rss_kb {
        obj.push(("max_rss_kb".to_string(), Json::Num(v as f64)));
    }
    if let Some(v) = stats.cpu_user_us {
        obj.push(("cpu_user_us".to_string(), Json::Num(v as f64)));
    }
    if let Some(v) = stats.cpu_sys_us {
        obj.push(("cpu_sys_us".to_string(), Json::Num(v as f64)));
    }
    Json::Obj(obj)
}

/// Live progress lines for `evolve --progress`, fed by the search loop's
/// throttled `cgp.progress` events (plus one line per improvement).
struct ProgressPrinter;

fn num(event: &Event, name: &str) -> f64 {
    match event.get(name) {
        Some(Value::U64(v)) => *v as f64,
        Some(Value::I64(v)) => *v as f64,
        Some(Value::F64(v)) => *v,
        _ => 0.0,
    }
}

impl Sink for ProgressPrinter {
    fn emit(&self, event: &Event) {
        use std::io::Write;
        // Progress is commentary, not output: it goes to stderr so piped
        // stdout stays clean. Ignore write errors: a closed pipe must
        // not abort the search.
        let mut out = std::io::stderr();
        let _ = match event.kind.as_str() {
            "cgp.progress" => {
                let elapsed_ms = num(event, "elapsed_ms");
                let limit_ms = num(event, "limit_ms");
                let eta_s = (limit_ms - elapsed_ms).max(0.0) / 1e3;
                writeln!(
                    out,
                    "[gen {:>6}] best area {:.1} um2 | {:.0} evals/s | {} improvements | ETA {:.0}s",
                    num(event, "generation") as u64,
                    num(event, "best_area"),
                    num(event, "evals_per_sec"),
                    num(event, "improvements") as u64,
                    eta_s,
                )
            }
            "cgp.improvement" => writeln!(
                out,
                "[gen {:>6}] improved: area {:.1} um2 ({:.1} % of exact)",
                num(event, "generation") as u64,
                num(event, "area"),
                num(event, "relative_area") * 100.0,
            ),
            _ => Ok(()),
        };
    }
}

fn required<'a>(opts: &'a Flags, name: &str) -> Result<&'a str, String> {
    opts.get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn numeric<T: std::str::FromStr>(opts: &Flags, name: &str, default: T) -> Result<T, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid --{name} '{v}'")),
    }
}

/// Parses a human duration: `500ms`, `30s`, `2m`, or a plain (possibly
/// fractional) number of seconds.
fn parse_duration(text: &str) -> Result<Duration, String> {
    let trimmed = text.trim();
    let (number, scale) = if let Some(n) = trimmed.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = trimmed.strip_suffix('s') {
        (n, 1.0)
    } else if let Some(n) = trimmed.strip_suffix('m') {
        (n, 60.0)
    } else {
        (trimmed, 1.0)
    };
    let value: f64 = number
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration '{text}' (try '500ms', '30s', '2m')"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("invalid duration '{text}' (must be >= 0)"));
    }
    Ok(Duration::from_secs_f64(value * scale))
}

/// Builds the run's resource control from `--timeout` (whole-command
/// deadline) and `--query-timeout` (per-solver-call cap).
fn ctl_flags(opts: &Flags) -> Result<ResourceCtl, String> {
    let mut ctl = ResourceCtl::unlimited();
    if let Some(text) = opts.get("timeout") {
        ctl = ctl.with_timeout(parse_duration(text)?);
    }
    if let Some(text) = opts.get("query-timeout") {
        ctl = ctl.with_query_timeout(parse_duration(text)?);
    }
    Ok(ctl)
}

/// Parses `--engine sat|bdd|auto|static` (default: sat — the paper's
/// engine).
fn engine_flag(opts: &Flags) -> Result<Backend, String> {
    match opts.get("engine") {
        None => Ok(Backend::Sat),
        Some(text) => text.parse(),
    }
}

/// Parses `--jobs`: a positive worker count, defaulting to the machine's
/// available parallelism. `--jobs 0` is a hard error, not a silent 1.
fn jobs_flag(opts: &Flags) -> Result<usize, String> {
    let jobs = numeric(opts, "jobs", axmc::par::available_parallelism())?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(jobs)
}

fn load_aig(path: &str) -> Result<Aig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    aiger::from_ascii(&text).map_err(|e| format!("cannot parse '{path}': {e}"))
}

fn save_aig(path: &str, aig: &Aig) -> Result<(), String> {
    std::fs::write(path, aiger::to_ascii(aig)).map_err(|e| format!("cannot write '{path}': {e}"))
}

/// Turns on obs (the checker's verdict counters live there) and returns
/// whether `--certify` was passed.
fn certify_flag(opts: &Flags) -> bool {
    let certify = opts.contains_key("certify");
    if certify {
        axmc::obs::set_enabled(true);
    }
    certify
}

/// Prints how many UNSAT verdicts the in-tree RUP/DRAT checker validated
/// during the run (the engines abort on the first rejected certificate,
/// so reaching this line means every one of them checked out).
fn report_certificates(label: &str) {
    let snapshot = axmc::obs::snapshot();
    let certified = snapshot
        .counters
        .get("check.certified")
        .copied()
        .unwrap_or(0);
    println!("{label}: {certified} UNSAT verdicts re-derived by the RUP/DRAT checker");
}

/// Converts an analysis failure into its exit-coded CLI error, printing
/// the partial result of an interruption to stdout first so a timed-out
/// run still reports the tightest certified bounds it reached.
fn report_analysis_error(e: AnalysisError) -> CliError {
    if let AnalysisError::Interrupted(partial) = &e {
        println!("partial result       : {partial}");
    }
    CliError::from(e)
}

/// Prints one metric line for an analysis-only (`--engine static`) run:
/// the statically decided exact value, or the certified `[lo, hi]`
/// interval when the static tier alone cannot pin it.
fn print_static_metric<T: std::fmt::Display>(
    label: &str,
    result: Result<axmc::ErrorReport<T>, AnalysisError>,
) -> Result<(), CliError> {
    match result {
        Ok(r) => {
            println!("{label}: {} (decided statically, no solver)", r.value);
            Ok(())
        }
        Err(AnalysisError::Interrupted(p)) if p.reason.is_none() => {
            println!(
                "{label}: undecided, certified interval [{}, {}]",
                p.known_low, p.known_high
            );
            Ok(())
        }
        Err(e) => Err(report_analysis_error(e)),
    }
}

fn cmd_analyze(opts: &Flags) -> Result<(), CliError> {
    // Validate the cheap flags before touching the filesystem.
    let horizon: usize = numeric(opts, "horizon", 8)?;
    let engine = engine_flag(opts)?;
    let jobs = jobs_flag(opts)?;
    let ctl = ctl_flags(opts)?;
    let certify = certify_flag(opts);
    let options = AnalysisOptions::new()
        .with_ctl(ctl)
        .with_jobs(jobs)
        .with_certify(certify)
        .with_backend(engine)
        .with_inprocessing(opts.contains_key("inprocess"));
    let golden = load_aig(required(opts, "golden")?)?;
    let approx = load_aig(required(opts, "approx")?)?;
    if golden.num_inputs() != approx.num_inputs() || golden.num_outputs() != approx.num_outputs() {
        return Err("golden and approx interfaces differ".into());
    }
    let sequential = golden.num_latches() > 0 || approx.num_latches() > 0;
    if sequential {
        println!("sequential analysis (horizon {horizon} cycles, {jobs} jobs)");
        let analyzer = SeqAnalyzer::new(&golden, &approx).with_options(options);
        if engine == Backend::Static {
            print_static_metric(
                "worst-case error@k   ",
                analyzer.worst_case_error_at(horizon),
            )?;
            print_static_metric("bit-flip error@k     ", analyzer.bit_flip_error_at(horizon))?;
            return Ok(());
        }
        let earliest = analyzer
            .earliest_error(horizon + 1)
            .map_err(report_analysis_error)?;
        match earliest.cycle {
            Some(c) => println!("earliest error cycle : {c}"),
            None => println!("earliest error cycle : none within horizon"),
        }
        if let (Some(path), Some(trace)) = (opts.get("vcd"), &earliest.trace) {
            let dump =
                axmc::mc::vcd::trace_to_vcd(&approx, trace, &axmc::mc::vcd::VcdNames::default());
            std::fs::write(path, dump).map_err(|e| format!("cannot write '{path}': {e}"))?;
            println!("counterexample trace : written to {path} (VCD)");
        }
        let wce = analyzer
            .worst_case_error_at(horizon)
            .map_err(report_analysis_error)?;
        println!(
            "worst-case error@k   : {} ({} probes, {} conflicts, via {})",
            wce.value, wce.sat_calls, wce.conflicts, wce.engine
        );
        let bf = analyzer
            .bit_flip_error_at(horizon)
            .map_err(report_analysis_error)?;
        println!("bit-flip error@k     : {}", bf.value);
        if opts.contains_key("prove") {
            let verdict = analyzer
                .prove_error_bound(
                    wce.value,
                    &InductionOptions {
                        max_k: 4,
                        simple_path: false,
                        ..InductionOptions::default()
                    },
                )
                .map_err(report_analysis_error)?;
            match verdict {
                Verdict::Proved => {
                    println!("unbounded bound      : |error| <= {} proved", wce.value)
                }
                // The witness ends at the first cycle that exceeds it.
                Verdict::Refuted { witness } => println!(
                    "unbounded bound      : exceeded at cycle {}",
                    witness.len().saturating_sub(1)
                ),
                Verdict::Interrupted { best_so_far } => {
                    println!("unbounded bound      : undecided ({best_so_far})")
                }
            }
        }
    } else {
        println!("combinational analysis (engine {engine})");
        let analyzer = CombAnalyzer::new(&golden, &approx).with_options(options);
        if engine == Backend::Static {
            print_static_metric("worst-case error     ", analyzer.worst_case_error())?;
            print_static_metric("bit-flip error       ", analyzer.bit_flip_error())?;
            return Ok(());
        }
        let wce = analyzer.worst_case_error().map_err(report_analysis_error)?;
        println!(
            "worst-case error     : {} ({} probes, {} conflicts, via {})",
            wce.value, wce.sat_calls, wce.conflicts, wce.engine
        );
        println!(
            "worst-case rel error : {:.4} %",
            threshold_to_wcre(wce.value, golden.num_outputs())
        );
        let bf = analyzer.bit_flip_error().map_err(report_analysis_error)?;
        println!("bit-flip error       : {}", bf.value);
        let msb = analyzer
            .most_significant_error_bit()
            .map_err(report_analysis_error)?;
        match msb {
            Some(bit) => println!("MSB error bit        : {bit}"),
            None => println!("MSB error bit        : none (equivalent)"),
        }
        if opts.contains_key("average") {
            // Exact average-case metrics through the unified backend
            // path: BDD model counting first, then an exhaustive sweep,
            // then sampling (flagged as a non-guaranteed estimate).
            let avg = analyzer.average_error().map_err(report_analysis_error)?;
            println!("mean abs error       : {:.6} ({})", avg.mae, avg.method);
            println!(
                "error rate           : {:.4} % ({})",
                avg.error_rate * 100.0,
                avg.method
            );
        }
    }
    if certify {
        report_certificates("certified results    ");
    }
    Ok(())
}

/// Parses `--engine` for characterize, defaulting to the staged `Auto`
/// schedule — a library sweep is exactly the mixed adder/multiplier
/// workload the schedule (and its static-tier prescreen) is built for.
fn characterize_engine_flag(opts: &Flags) -> Result<Backend, String> {
    match opts.get("engine") {
        None => Ok(Backend::Auto),
        Some(text) => text.parse(),
    }
}

/// The widths a characterize run sweeps: `--widths` verbatim, or the
/// doubling ladder 4, 8, 16, … up to and including `--width`.
fn characterize_widths(opts: &Flags) -> Result<Vec<usize>, String> {
    if let Some(list) = opts.get("widths") {
        let mut widths = Vec::new();
        for tok in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let w: usize = tok
                .parse()
                .map_err(|_| format!("invalid width '{tok}' in --widths"))?;
            if w == 0 {
                return Err("--widths entries must be >= 1".into());
            }
            widths.push(w);
        }
        if widths.is_empty() {
            return Err("--widths must name at least one width".into());
        }
        return Ok(widths);
    }
    let max: usize = numeric(opts, "width", 8)?;
    if max == 0 {
        return Err("--width must be >= 1".into());
    }
    let mut widths = Vec::new();
    let mut w = 4;
    while w < max {
        widths.push(w);
        w *= 2;
    }
    widths.push(max);
    Ok(widths)
}

fn cmd_characterize(opts: &Flags) -> Result<(), CliError> {
    use axmc::characterize::{self, MetricSelection, SweepOptions, Table};
    use axmc::core::{CacheHandle, ResultCache};

    let engine = characterize_engine_flag(opts)?;
    let jobs = jobs_flag(opts)?;
    let ctl = ctl_flags(opts)?;
    let widths = characterize_widths(opts)?;

    // Which library slices to sweep: builtin adders/multipliers and/or
    // AIGER imports. Passing --library implies the imports slice.
    let (mut adders, mut multipliers, mut imports) = (false, false, false);
    match opts.get("kinds") {
        None => {
            adders = true;
            multipliers = true;
            imports = opts.contains_key("library");
        }
        Some(list) => {
            for tok in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                match tok {
                    "adders" => adders = true,
                    "multipliers" => multipliers = true,
                    "imports" => imports = true,
                    "all" => {
                        adders = true;
                        multipliers = true;
                        imports = true;
                    }
                    other => {
                        return Err(format!(
                            "unknown --kinds entry '{other}' (adders, multipliers, imports, all)"
                        )
                        .into())
                    }
                }
            }
        }
    }
    if imports && !opts.contains_key("library") {
        return Err("--kinds imports needs --library DIR".into());
    }

    let metrics = match opts.get("measure") {
        None => MetricSelection::default(),
        Some(list) => {
            let mut m = MetricSelection {
                wce: false,
                bit_flip: false,
                average: false,
            };
            for tok in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                match tok {
                    "wce" => m.wce = true,
                    "bit-flip" | "bit_flip" => m.bit_flip = true,
                    "avg" | "average" => m.average = true,
                    other => {
                        return Err(format!(
                            "unknown --measure entry '{other}' (wce, bit-flip, avg)"
                        )
                        .into())
                    }
                }
            }
            if !m.wce && !m.bit_flip && !m.average {
                return Err("--measure must name at least one metric".into());
            }
            m
        }
    };

    // Assemble the library.
    let mut components = characterize::builtin_library(&widths, adders, multipliers);
    if imports {
        let dir = required(opts, "library")?;
        let (imported, warnings) = characterize::import_library(Path::new(dir))?;
        for w in warnings {
            eprintln!("warning: {w}");
        }
        components.extend(imported);
    }
    if components.is_empty() {
        return Err("the library is empty (nothing to characterize)".into());
    }

    // Compose mode: instantiate the picks inside a sequential scenario
    // instead of characterizing them in isolation.
    if let Some(name) = opts.get("compose") {
        let scenario = characterize::Scenario::parse(name)?;
        let horizon: usize = numeric(opts, "horizon", 4)?;
        let taps: usize = numeric(opts, "taps", 4)?;
        if scenario == characterize::Scenario::Fir && taps < 2 {
            return Err("--taps must be >= 2 for the FIR scenario".into());
        }
        if widths.len() != 1 {
            return Err("compose mode analyzes one width: pass --width W (or --widths W)".into());
        }
        let width = widths[0];
        let started = Instant::now();
        let base = AnalysisOptions::new().with_ctl(ctl);
        let (rows, skipped) =
            characterize::compose_sweep(scenario, width, horizon, taps, &components, &base, jobs)?;
        for s in skipped {
            eprintln!("warning: {s}");
        }
        if rows.is_empty() {
            return Err(format!(
                "no {}-bit {} components in the library to compose",
                width,
                scenario.slot_kind().as_str()
            )
            .into());
        }
        let selected = match opts.get("tau") {
            None => None,
            Some(text) => {
                let tau: u128 = text
                    .parse()
                    .map_err(|_| format!("invalid --tau '{text}' (decimal integer)"))?;
                let pick = characterize::select(&rows, tau);
                if pick.is_none() {
                    eprintln!(
                        "warning: no component keeps the system-level WCE within tau = {tau}"
                    );
                }
                pick
            }
        };
        println!(
            "composed {} components into the {} scenario (width {width}, horizon {horizon})",
            rows.len(),
            scenario.as_str()
        );
        print!("{}", characterize::compose_markdown(&rows, selected));
        if let Some(i) = selected {
            println!(
                "selected: {} ({:.1} um2, system WCE {} <= tau)",
                rows[i].component,
                rows[i].area_um2,
                rows[i].sys_wce.expect("selected rows are determined"),
            );
        }
        if let Some(path) = opts.get("out") {
            // Compose rows append to the table file: component rows
            // already there stay valid (the parser keys on 'record').
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open '{path}': {e}"))?;
            for row in &rows {
                writeln!(file, "{}", row.to_json().render())
                    .map_err(|e| format!("cannot write '{path}': {e}"))?;
            }
            println!("appended {} composition rows to {path}", rows.len());
        }
        println!(
            "done in {:.1} ms ({jobs} jobs)",
            started.elapsed().as_secs_f64() * 1e3
        );
        return Ok(());
    }

    // Warm reuse: completed rows of an existing --out table answer
    // matching components without recomputation.
    let reuse = match opts.get("out") {
        Some(path) if !opts.contains_key("no-reuse") && Path::new(path).exists() => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            Table::from_jsonl(&text)
                .map_err(|e| format!("existing table '{path}' is invalid: {e}"))?
                .entries
        }
        _ => Vec::new(),
    };

    let cache = Arc::new(ResultCache::new());
    let base = AnalysisOptions::new()
        .with_ctl(ctl)
        .with_backend(engine)
        .with_cache(CacheHandle::new(cache.clone()));
    let sweep = SweepOptions {
        base,
        jobs,
        metrics,
        reuse,
    };
    let started = Instant::now();
    let table = characterize::characterize(&components, &sweep)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    print!("{}", table.to_markdown());
    if let Some(path) = opts.get("out") {
        std::fs::write(path, table.to_jsonl())
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("wrote {path} ({} JSONL rows)", table.entries.len());
    }
    if let Some(path) = opts.get("markdown") {
        std::fs::write(path, table.to_markdown())
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("wrote {path} (markdown)");
    }
    let reused = table.entries.iter().filter(|e| e.reused).count();
    let interrupted = table
        .entries
        .iter()
        .filter(|e| e.status == "interrupted")
        .count();
    println!(
        "characterized {} components ({} reused, {} computed, {} interrupted) \
         in {elapsed_ms:.1} ms ({jobs} jobs, engine {engine}); \
         query cache: {} hits, {} stored",
        table.entries.len(),
        reused,
        table.entries.len() - reused,
        interrupted,
        cache.hits(),
        cache.len(),
    );
    Ok(())
}

fn cmd_evolve(opts: &Flags) -> Result<(), CliError> {
    let kind = required(opts, "kind")?;
    let width: usize = numeric(opts, "width", 8)?;
    let seed: u64 = numeric(opts, "seed", 1)?;
    let engine = engine_flag(opts)?;
    let jobs = jobs_flag(opts)?;
    let ctl = ctl_flags(opts)?;
    let certify = certify_flag(opts);
    let golden: Netlist = match kind {
        "adder" => generators::ripple_carry_adder(width),
        "multiplier" => generators::array_multiplier(width),
        other => return Err(format!("unknown --kind '{other}' (adder|multiplier)").into()),
    };
    // Either a classic CGP configuration file or --wcre/--seconds flags.
    let (options, wcre) = if let Some(path) = opts.get("config") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        let cfg = axmc::cgp::parse_config(&text).map_err(|e| e.to_string())?;
        if !cfg.ignored_keys.is_empty() {
            eprintln!("note: ignored config keys: {}", cfg.ignored_keys.join(", "));
        }
        let mut options = cfg.options;
        options.threshold = wcre_to_threshold(cfg.wcre_percent, golden.num_outputs()).max(1);
        options.seed = seed;
        options.extra_cols = 4;
        options.jobs = jobs;
        options.certify = certify;
        options.ctl = ctl;
        options.backend = engine;
        (options, cfg.wcre_percent)
    } else {
        let wcre: f64 = numeric(opts, "wcre", 1.0)?;
        let seconds: u64 = numeric(opts, "seconds", 20)?;
        let options = SearchOptions {
            threshold: wcre_to_threshold(wcre, golden.num_outputs()).max(1),
            max_generations: u64::MAX,
            time_limit: Duration::from_secs(seconds),
            seed,
            extra_cols: 4,
            jobs,
            certify,
            ctl,
            backend: engine,
            ..SearchOptions::default()
        };
        (options, wcre)
    };
    println!(
        "evolving {kind} (width {width}) under WCRE <= {wcre}% (threshold {}), {:?}, {jobs} jobs",
        options.threshold, options.time_limit
    );
    let result = evolve(&golden, &options)?;
    if let Some(reason) = result.stats.interrupt {
        println!("note: search interrupted ({reason}); reporting the best verified circuit found");
    }
    println!(
        "area: {:.1} -> {:.1} um2 ({:.1} % of exact), {} improvements, {} UNSAT certificates",
        result.golden_area,
        result.area,
        result.relative_area() * 100.0,
        result.stats.improvements,
        result.stats.verified_ok
    );
    if certify {
        report_certificates("certified acceptances");
    }
    if let Some(path) = opts.get("out") {
        save_aig(path, &result.netlist.to_aig())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_gen(opts: &Flags) -> Result<(), CliError> {
    let kind = required(opts, "kind")?;
    let width: usize = numeric(opts, "width", 8)?;
    let param: usize = numeric(opts, "param", width / 2)?;
    // Sequential templates produce an AIG directly (latches have no
    // netlist form); --verilog is combinational-only.
    let sequential = match kind {
        "accumulator" => Some(axmc::seq::accumulator(
            &generators::ripple_carry_adder(width),
            width,
        )),
        "trunc-accumulator" => Some(axmc::seq::accumulator(
            &approx::truncated_adder(width, param),
            width,
        )),
        _ => None,
    };
    if let Some(aig) = sequential {
        if opts.contains_key("verilog") {
            return Err(format!("--verilog is not supported for sequential kind '{kind}'").into());
        }
        let path = required(opts, "out")?;
        save_aig(path, &aig)?;
        println!(
            "wrote {path}: {} inputs, {} outputs, {} latches, {} ands",
            aig.num_inputs(),
            aig.num_outputs(),
            aig.num_latches(),
            aig.num_ands()
        );
        return Ok(());
    }
    let netlist = match kind {
        "adder" => generators::ripple_carry_adder(width),
        "multiplier" => generators::array_multiplier(width),
        "incrementer" => generators::incrementer(width),
        "trunc-adder" => approx::truncated_adder(width, param),
        "loa-adder" => approx::lower_or_adder(width, param),
        "spec-adder" => approx::speculative_adder(width, param.max(1)),
        "trunc-multiplier" => approx::truncated_multiplier(width, param),
        "optrunc-multiplier" => approx::operand_truncated_multiplier(width, param),
        "kulkarni-multiplier" => approx::kulkarni_multiplier(width),
        other => return Err(format!("unknown --kind '{other}'").into()),
    };
    let path = required(opts, "out")?;
    save_aig(path, &netlist.to_aig())?;
    if let Some(vpath) = opts.get("verilog") {
        let module = vpath
            .rsplit('/')
            .next()
            .and_then(|f| f.split('.').next())
            .filter(|s| !s.is_empty())
            .unwrap_or("axmc_gen");
        let text = axmc::circuit::verilog::to_verilog(&netlist, module);
        std::fs::write(vpath, text).map_err(|e| format!("cannot write '{vpath}': {e}"))?;
        println!("wrote {vpath} (structural Verilog)");
    }
    println!(
        "wrote {path}: {} inputs, {} outputs, {} gates ({:.1} um2)",
        netlist.num_inputs(),
        netlist.num_outputs(),
        netlist.num_active_gates(),
        netlist.area(&AreaModel::nm45())
    );
    Ok(())
}

fn cmd_stats(opts: &Flags) -> Result<(), CliError> {
    let aig = load_aig(required(opts, "circuit")?)?;
    println!("inputs  : {}", aig.num_inputs());
    println!("outputs : {}", aig.num_outputs());
    println!("latches : {}", aig.num_latches());
    println!("ands    : {}", aig.num_ands());
    println!("depth   : {}", aig.depth());
    Ok(())
}

fn cmd_lint(opts: &Flags) -> Result<(), CliError> {
    use axmc::check::{lint_aig, lint_netlist, lint_pair, lint_semantics, Diagnostic, Severity};
    if !opts.contains_key("circuit") && !opts.contains_key("suite") {
        return Err("pass --circuit C.aag, --suite, or both".into());
    }
    let mut targets = 0usize;
    let mut warnings = 0usize;
    let mut errors = 0usize;
    let mut report = |subject: &str, diags: Vec<Diagnostic>| {
        targets += 1;
        for d in &diags {
            println!("{subject}: {d}");
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Info => {}
            }
        }
    };
    if let Some(path) = opts.get("circuit") {
        let aig = load_aig(path)?;
        report(path, lint_aig(&aig));
        report(path, lint_semantics(&aig));
    }
    if opts.contains_key("suite") {
        for pair in axmc::seq::suite::standard_suite(8) {
            report(&format!("{} (golden)", pair.name), lint_aig(&pair.golden));
            report(&format!("{} (approx)", pair.name), lint_aig(&pair.approx));
            report(
                &format!("{} (golden)", pair.name),
                lint_semantics(&pair.golden),
            );
            report(
                &format!("{} (approx)", pair.name),
                lint_semantics(&pair.approx),
            );
            report(&pair.name, lint_pair(&pair.golden, &pair.approx));
        }
        for width in [4, 8, 16] {
            for component in axmc::circuit::approx::adder_library(width) {
                report(&component.name, lint_netlist(&component.netlist));
            }
        }
        for width in [4, 8] {
            for component in axmc::circuit::approx::multiplier_library(width) {
                report(&component.name, lint_netlist(&component.netlist));
            }
        }
    }
    println!("linted {targets} structures: {errors} errors, {warnings} warnings");
    if errors > 0 {
        return Err(format!("lint found {errors} error-severity diagnostics").into());
    }
    Ok(())
}

fn cmd_report(opts: &Flags) -> Result<(), CliError> {
    use axmc::obs::{profile::Profile, report};
    let path = match (opts.get("run-dir"), opts.get("trace")) {
        (Some(dir), None) => Path::new(dir).join(artifact::TRACE_FILE),
        (None, Some(file)) => PathBuf::from(file),
        _ => return Err("pass exactly one of --run-dir DIR or --trace F.jsonl".into()),
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
    let profile = Profile::from_jsonl(&text);
    if profile.is_empty() {
        println!("no span events in {}", path.display());
        return Ok(());
    }
    print!("{}", report::render_tree(&profile));
    println!();
    print!("{}", report::render_quantiles(&profile));
    if profile.skipped > 0 {
        println!(
            "note: {} malformed or orphaned trace lines skipped",
            profile.skipped
        );
    }
    if let Some(flame) = opts.get("flame") {
        std::fs::write(flame, report::collapsed_stacks(&profile))
            .map_err(|e| format!("cannot write '{flame}': {e}"))?;
        println!("wrote {flame} (collapsed stacks; render with any flamegraph tool)");
    }
    Ok(())
}

fn cmd_bench_diff(opts: &Flags) -> Result<(), CliError> {
    use axmc::obs::diff;
    let threshold: f64 = numeric(opts, "threshold", 25.0)?;
    let min_ms: f64 = numeric(opts, "min-ms", 5.0)?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err("--threshold must be a percentage >= 0".into());
    }
    if !min_ms.is_finite() || min_ms < 0.0 {
        return Err("--min-ms must be >= 0".into());
    }
    let load = |flag: &str| -> Result<Vec<(String, f64)>, CliError> {
        let path = artifact::resolve_metrics_path(Path::new(required(opts, flag)?));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
        let doc =
            Json::parse(&text).map_err(|e| format!("cannot parse '{}': {e}", path.display()))?;
        let rows = diff::extract_rows(&doc);
        if rows.is_empty() {
            return Err(format!(
                "'{}' contains no timing rows (expected a bench phase log or run-dir metrics.json)",
                path.display()
            )
            .into());
        }
        Ok(rows)
    };
    let base = load("base")?;
    let new = load("new")?;
    let options = diff::DiffOptions {
        threshold_pct: threshold,
        min_ms,
    };
    let result = diff::compare(&base, &new, options);
    print!("{}", diff::render(&result, options));
    if result.compared() == 0 {
        return Err(format!(
            "base and new share no timing rows ({} vs {} rows) — nothing was compared",
            base.len(),
            new.len()
        )
        .into());
    }
    if result.regressed {
        return Err(CliError {
            code: 12,
            message: format!("performance regression beyond +{threshold}%"),
        });
    }
    Ok(())
}

fn cmd_serve(opts: &Flags) -> Result<(), CliError> {
    let jobs = jobs_flag(opts)?;
    let engine = engine_flag(opts)?;
    let certify = certify_flag(opts);
    // For serve, --timeout is the *default per-job* deadline (each job
    // gets a fresh envelope at pickup), not a whole-command deadline —
    // a server has no natural end of command.
    let default_timeout = match opts.get("timeout") {
        Some(text) => Some(parse_duration(text)?),
        None => None,
    };
    let server = axmc::serve::Server::new(axmc::serve::ServeConfig {
        jobs,
        certify,
        backend: engine,
        default_timeout,
        inprocess: opts.contains_key("inprocess"),
    });
    if let Some(path) = opts.get("socket") {
        let max_conns = match opts.get("max-conns") {
            None => None,
            Some(v) => Some(
                v.parse::<usize>()
                    .map_err(|_| format!("invalid --max-conns '{v}'"))?,
            ),
        };
        eprintln!("serving on {path} ({jobs} workers)");
        server
            .run_unix(Path::new(path), max_conns)
            .map_err(|e| format!("serve: {e}"))?;
    } else {
        server
            .run_batch(std::io::stdin().lock(), std::io::stdout())
            .map_err(|e| format!("serve: {e}"))?;
    }
    Ok(())
}
