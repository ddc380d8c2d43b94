//! Shared support for the evaluation harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! evaluation (see `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for recorded results). This library provides the
//! common scaffolding: wall-clock measurement, table formatting, and the
//! scale knob.
//!
//! # Scale knob
//!
//! Set `AXMC_SCALE=full` for the full-size runs recorded in
//! `EXPERIMENTS.md`; the default (`quick`) uses reduced widths/horizons so
//! every harness finishes in a couple of minutes on a laptop.
//!
//! # Per-phase metrics
//!
//! Every harness records a [`PhaseLog`]: solver/model-checker metrics per
//! experiment phase (one phase per benchmark pair, width step, …),
//! written as `<id>_metrics.<scale>.json` next to the text transcripts.
//! The directory defaults to `bench_results/` and follows
//! `AXMC_METRICS_DIR`; `AXMC_METRICS=off` disables recording entirely.
//!
//! # Parallelism knob
//!
//! Harnesses that exercise the parallel oracle layer read `AXMC_JOBS`
//! (default `1`, so recorded numbers stay comparable across machines
//! unless parallelism is requested explicitly) via [`jobs_from_env`].
//! The value in effect is recorded in the metrics JSON.
//!
//! # Run artifacts
//!
//! Set `AXMC_RUN_DIR=DIR` to make a harness record a complete run
//! bundle — `manifest.json`, `trace.jsonl` (the full span/event trace)
//! and `metrics.json` — exactly like the CLI's `--run-dir`, consumable
//! by `axmc report` and `axmc bench-diff`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use axmc_obs::artifact::RunDir;
use axmc_obs::json::Json;
use axmc_obs::Snapshot;
use std::time::Instant;

/// Reads the worker count from the `AXMC_JOBS` environment variable.
///
/// Defaults to `1` (serial) so benchmark numbers are machine-independent
/// unless the operator opts into parallelism; `AXMC_JOBS=0` selects the
/// machine's available parallelism, mirroring the CLI's `--jobs` default.
pub fn jobs_from_env() -> usize {
    match std::env::var("AXMC_JOBS").ok().and_then(|v| v.parse().ok()) {
        Some(0) => axmc_par::available_parallelism(),
        Some(n) => n,
        None => 1,
    }
}

/// Execution scale selected via the `AXMC_SCALE` environment variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Reduced parameters; minutes per harness.
    Quick,
    /// Full parameters as recorded in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// Reads the scale from the environment (`AXMC_SCALE=full`).
    pub fn from_env() -> Scale {
        match std::env::var("AXMC_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks `quick` or `full` value by scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// The scale's name as written into file names and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Runs `f`, returning its result and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// Prints a standard experiment header.
pub fn banner(id: &str, title: &str, scale: Scale) {
    println!("== {id}: {title} [{scale:?}] ==");
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(new: f64, base: f64) -> String {
    if base == 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}x", new / base)
    }
}

/// Records per-phase observability snapshots for one harness run and
/// writes them as a JSON file next to the text transcripts.
///
/// Construction enables the global metrics registry and resets it; each
/// [`PhaseLog::phase`] call closes the previous phase (capturing its
/// metrics delta and wall-clock) and opens the next; [`PhaseLog::finish`]
/// closes the last phase and writes the file. Phases see only their own
/// metrics because the registry is reset at every boundary.
pub struct PhaseLog {
    id: String,
    scale: Scale,
    jobs: usize,
    enabled: bool,
    phases: Vec<ClosedPhase>,
    current: Option<(String, Instant)>,
    started: Instant,
    run_dir: Option<RunDir>,
}

struct ClosedPhase {
    name: String,
    wall_ms: f64,
    metrics: Snapshot,
}

impl PhaseLog {
    /// Starts recording for harness `id` (e.g. `"T1"`). Respects
    /// `AXMC_METRICS=off`.
    pub fn new(id: &str, scale: Scale) -> PhaseLog {
        let enabled = !matches!(
            std::env::var("AXMC_METRICS").as_deref(),
            Ok("off") | Ok("OFF") | Ok("0")
        );
        if enabled {
            axmc_obs::set_enabled(true);
            axmc_obs::reset();
        }
        let mut log = PhaseLog {
            id: id.to_string(),
            scale,
            jobs: jobs_from_env(),
            enabled,
            phases: Vec::new(),
            current: None,
            started: Instant::now(),
            run_dir: None,
        };
        if enabled {
            log.attach_run_dir();
        }
        log
    }

    /// Opens the `AXMC_RUN_DIR` artifact bundle when requested: a trace
    /// sink plus an immediately written manifest (rewritten at
    /// [`PhaseLog::finish`] with the resource-usage block appended).
    fn attach_run_dir(&mut self) {
        let Ok(dir) = std::env::var("AXMC_RUN_DIR") else {
            return;
        };
        if dir.is_empty() {
            return;
        }
        let Ok(rd) = RunDir::create(std::path::Path::new(&dir)) else {
            eprintln!("warning: cannot create run dir '{dir}'; artifacts disabled");
            return;
        };
        match axmc_obs::sink::JsonlSink::create(&rd.trace_path()) {
            Ok(sink) => axmc_obs::set_sink(std::sync::Arc::new(sink)),
            Err(e) => eprintln!("warning: cannot create trace file in '{dir}': {e}"),
        }
        let _ = rd.write_manifest(self.manifest_entries());
        self.run_dir = Some(rd);
    }

    fn manifest_entries(&self) -> Vec<(String, Json)> {
        vec![
            ("experiment".to_string(), Json::Str(self.id.clone())),
            (
                "scale".to_string(),
                Json::Str(self.scale.name().to_string()),
            ),
            ("jobs".to_string(), Json::Num(self.jobs as f64)),
        ]
    }

    /// Overrides the recorded worker count (defaults to [`jobs_from_env`]).
    pub fn with_jobs(mut self, jobs: usize) -> PhaseLog {
        self.jobs = jobs.max(1);
        self
    }

    /// Closes the current phase (if any) and opens a new one.
    pub fn phase(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        self.close_current();
        self.current = Some((name.to_string(), Instant::now()));
    }

    fn close_current(&mut self) {
        if let Some((name, start)) = self.current.take() {
            self.phases.push(ClosedPhase {
                name,
                wall_ms: start.elapsed().as_secs_f64() * 1000.0,
                metrics: axmc_obs::snapshot(),
            });
            axmc_obs::reset();
        }
    }

    /// Closes the last phase and writes
    /// `<dir>/<id>_metrics.<scale>.json`, returning the path (`None` when
    /// recording is off or the directory cannot be created).
    pub fn finish(mut self) -> Option<std::path::PathBuf> {
        if !self.enabled {
            return None;
        }
        self.close_current();
        self.finish_run_dir();
        let dir = std::env::var("AXMC_METRICS_DIR").unwrap_or_else(|_| "bench_results".into());
        let scale = self.scale.name();
        let path = std::path::Path::new(&dir).join(format!("{}_metrics.{scale}.json", self.id));
        if std::fs::create_dir_all(&dir).is_err() {
            return None;
        }
        let json = self.to_json();
        match std::fs::write(&path, json) {
            Ok(()) => Some(path),
            Err(_) => None,
        }
    }

    /// Seals the `AXMC_RUN_DIR` bundle: flushes the trace sink, rewrites
    /// the manifest with resource usage, and writes a `metrics.json`
    /// merging every phase's snapshot (so the bundle diffs against other
    /// run dirs with `axmc bench-diff`).
    fn finish_run_dir(&mut self) {
        let Some(rd) = self.run_dir.take() else {
            return;
        };
        axmc_obs::proc::record_gauges();
        let mut merged = axmc_obs::snapshot();
        for phase in &self.phases {
            merged.merge(&phase.metrics);
        }
        let wall_ms = self.started.elapsed().as_secs_f64() * 1000.0;
        let mut entries = self.manifest_entries();
        entries.push(("proc".to_string(), proc_json()));
        if let Err(e) = rd
            .write_manifest(entries)
            .and_then(|()| rd.write_metrics(&merged, wall_ms))
        {
            eprintln!("warning: cannot finalize run dir: {e}");
        }
        axmc_obs::clear_sink();
    }

    /// The metrics document as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"experiment\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.name()));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"proc\": {},\n", proc_json().render()));
        out.push_str("  \"phases\": [");
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_str(&phase.name)));
            out.push_str(&format!("      \"wall_ms\": {:.3},\n", phase.wall_ms));
            out.push_str("      \"counters\": {");
            for (j, (name, value)) in phase.metrics.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n        {}: {value}", json_str(name)));
            }
            if !phase.metrics.counters.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("},\n      \"gauges\": {");
            for (j, (name, value)) in phase.metrics.gauges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n        {}: {value}", json_str(name)));
            }
            if !phase.metrics.gauges.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("},\n      \"histograms\": {");
            for (j, (name, h)) in phase.metrics.histograms.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    json_str(name),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                ));
            }
            if !phase.metrics.histograms.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("}\n    }");
        }
        if !self.phases.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Peak RSS and CPU time as a JSON block; values the platform does not
/// expose are omitted (the block is empty off Linux, never absent).
fn proc_json() -> Json {
    let stats = axmc_obs::proc::read();
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

/// JSON string literal with the escapes the metric/phase names can need.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `PhaseLog::new` and every phase boundary reset the global metrics
    /// registry, so tests that build a `PhaseLog` must not run side by
    /// side: each holds this lock while it does.
    static REGISTRY: Mutex<()> = Mutex::new(());

    fn registry_lock() -> MutexGuard<'static, ()> {
        // The guarded value is `()`, so a panicked holder leaves nothing
        // inconsistent behind.
        REGISTRY
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn timed_measures() {
        let (v, ms) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(2.0, 1.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "-");
    }

    #[test]
    fn phase_log_captures_per_phase_metrics() {
        let _registry = registry_lock();
        let mut log = PhaseLog::new("TST", Scale::Quick);
        log.phase("alpha");
        axmc_obs::counter("t.solves").add(2);
        axmc_obs::histogram("t.us").record(100);
        log.phase("beta");
        axmc_obs::gauge("t.depth").set(-3);
        log.close_current();

        let json = log.to_json();
        assert!(json.contains("\"experiment\": \"TST\""), "{json}");
        assert!(json.contains("\"scale\": \"quick\""), "{json}");
        assert!(json.contains("\"name\": \"alpha\""), "{json}");
        assert!(json.contains("\"t.solves\": 2"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        assert!(json.contains("\"name\": \"beta\""), "{json}");
        assert!(json.contains("\"t.depth\": -3"), "{json}");
        // The registry was reset at the phase boundary, so alpha's
        // counter must not leak into beta.
        let beta = json.split("\"name\": \"beta\"").nth(1).expect("beta phase");
        assert!(!beta.contains("t.solves"), "{json}");
    }

    #[test]
    fn phase_log_records_jobs() {
        let _registry = registry_lock();
        let log = PhaseLog::new("TSTJ", Scale::Quick).with_jobs(4);
        let json = log.to_json();
        assert!(json.contains("\"jobs\": 4"), "{json}");
        // `with_jobs` clamps to at least one worker.
        let log = PhaseLog::new("TSTJ", Scale::Quick).with_jobs(0);
        assert!(log.to_json().contains("\"jobs\": 1"));
    }

    #[test]
    fn phase_log_records_proc_usage() {
        let _registry = registry_lock();
        let log = PhaseLog::new("TSTP", Scale::Quick);
        let json = log.to_json();
        assert!(json.contains("\"proc\""), "{json}");
        // On Linux the block carries real numbers; elsewhere it is {}.
        if cfg!(target_os = "linux") {
            assert!(json.contains("max_rss_kb"), "{json}");
        }
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\ny\"");
    }
}
