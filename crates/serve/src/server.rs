//! The batch analysis server: request intake, the worker fleet, and the
//! per-job execution pipeline (cache → warm engine → cold analyzer).

use crate::protocol::{self, JobKind, Metric, Request};
use crate::queue::JobQueue;
use axmc_aig::{aiger, Aig};
use axmc_core::cache::metric;
use axmc_core::{
    AnalysisError, AnalysisOptions, Backend, CacheHandle, CachedResult, CombAnalyzer, QueryCache,
    QueryKey, ResourceCtl, ResultCache, SeqAnalyzer, SeqProbe, Verdict,
};
use axmc_obs::json::Json;
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server-wide knobs, fixed for the lifetime of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker fleet size: how many jobs run concurrently. Each job runs
    /// its analysis serially — the fleet parallelism is *across* jobs.
    pub jobs: usize,
    /// Default certified mode for jobs that don't set `certify`.
    pub certify: bool,
    /// Backend for combinational metrics. Sequential analyses do not
    /// read it, exactly like `axmc analyze`: they run SAT/BMC, except
    /// that an uncertified WCE or bit-flip job on a feed-forward pair is
    /// decided on the BDD of the pair's time-frame expansion.
    pub backend: Backend,
    /// Default per-job deadline applied when a request carries no
    /// `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Run the solver's between-solves inprocessing pass inside every
    /// analysis engine (see [`AnalysisOptions::with_inprocessing`]).
    /// Verdicts are unaffected; pays off on long-lived warm probes.
    pub inprocess: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: 1,
            certify: false,
            backend: Backend::Sat,
            default_timeout: None,
            inprocess: false,
        }
    }
}

/// What one batch did, mirrored by the `done` summary line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchSummary {
    /// Jobs accepted into the queue (parse failures excluded).
    pub jobs: u64,
    /// Jobs that produced a verdict.
    pub ok: u64,
    /// Jobs stopped by a resource limit before a verdict.
    pub interrupted: u64,
    /// Parse failures plus jobs that failed outright.
    pub errors: u64,
    /// Cache lookups answered from memory during this batch.
    pub cache_hits: u64,
    /// Cache lookups that had to compute during this batch.
    pub cache_misses: u64,
}

/// A failed job: either a typed interruption (deadline/budget) or a
/// hard error (I/O, parse, certificate rejection, panic).
struct JobFailure {
    interrupted: bool,
    message: String,
}

impl From<AnalysisError> for JobFailure {
    fn from(e: AnalysisError) -> Self {
        JobFailure {
            interrupted: matches!(e, AnalysisError::Interrupted(_)),
            message: e.to_string(),
        }
    }
}

impl From<String> for JobFailure {
    fn from(message: String) -> Self {
        JobFailure {
            interrupted: false,
            message,
        }
    }
}

/// The long-running batch analysis service.
///
/// One `Server` owns the structural-hash [`ResultCache`], the parsed
/// circuit store, and the warm [`SeqProbe`] pool; all three persist
/// across batches (and across unix-socket connections), which is where
/// the throughput win over single-shot `axmc analyze` comes from.
pub struct Server {
    config: ServeConfig,
    cache: Arc<ResultCache>,
    circuits: Mutex<HashMap<String, Arc<Aig>>>,
    /// Warm threshold-probe engines, keyed by `(pair fingerprint,
    /// certified)`. Certification cannot be enabled retroactively on a
    /// warmed solver (proof logging must be on from the first clause),
    /// so certified and uncertified probes never share an instance.
    probes: Mutex<HashMap<(u128, bool), SeqProbe>>,
}

impl Server {
    /// A server with an empty cache and no warm engines.
    pub fn new(config: ServeConfig) -> Self {
        Server {
            config,
            cache: Arc::new(ResultCache::new()),
            circuits: Mutex::new(HashMap::new()),
            probes: Mutex::new(HashMap::new()),
        }
    }

    /// The server's result cache (shared across batches).
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// Runs one batch: reads JSONL requests from `input` until EOF,
    /// schedules them onto the worker fleet (FIFO within priority),
    /// streams `start`/`result` lines to `output` as jobs progress, and
    /// finishes with one `done` summary line.
    ///
    /// # Errors
    ///
    /// Only I/O failures on `input`/`output` surface here; per-job
    /// failures are reported in-band as `status:"error"` lines.
    pub fn run_batch<R: BufRead, W: Write + Send>(
        &self,
        input: R,
        output: W,
    ) -> io::Result<BatchSummary> {
        let out = Mutex::new(output);
        let write_line = |line: &str| -> io::Result<()> {
            let mut w = out.lock().expect("writer poisoned");
            writeln!(w, "{line}")?;
            w.flush()
        };
        let io_failure: Mutex<Option<io::Error>> = Mutex::new(None);
        let record_io = |result: io::Result<()>| {
            if let Err(e) = result {
                io_failure
                    .lock()
                    .expect("io slot poisoned")
                    .get_or_insert(e);
            }
        };

        let (hits0, misses0) = (self.cache.hits(), self.cache.misses());
        let queue = JobQueue::<Request>::new();
        let submitted = AtomicU64::new(0);
        let ok = AtomicU64::new(0);
        let interrupted = AtomicU64::new(0);
        let errors = AtomicU64::new(0);
        let parent = axmc_obs::profile::current_span_id();

        std::thread::scope(|scope| {
            for _ in 0..self.config.jobs.max(1) {
                scope.spawn(|| {
                    axmc_obs::worker_scope(|| {
                        axmc_obs::profile::with_parent(parent, || {
                            while let Some(req) = queue.pop() {
                                record_io(write_line(&protocol::start_line(&req.id)));
                                let span = axmc_obs::span("serve.job");
                                // A panic in one job must not take down the
                                // fleet; the session stays serviceable.
                                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    self.execute(&req)
                                }));
                                drop(span);
                                let line = match outcome {
                                    Ok(Ok((result, cached))) => {
                                        ok.fetch_add(1, Ordering::Relaxed);
                                        protocol::ok_line(&req.id, cached, result)
                                    }
                                    Ok(Err(fail)) => {
                                        let (counter, status) = if fail.interrupted {
                                            (&interrupted, "interrupted")
                                        } else {
                                            (&errors, "error")
                                        };
                                        counter.fetch_add(1, Ordering::Relaxed);
                                        protocol::failure_line(Some(&req.id), status, &fail.message)
                                    }
                                    Err(_) => {
                                        errors.fetch_add(1, Ordering::Relaxed);
                                        protocol::failure_line(
                                            Some(&req.id),
                                            "error",
                                            "internal panic while analyzing this job",
                                        )
                                    }
                                };
                                record_io(write_line(&line));
                            }
                        })
                    })
                });
            }
            // Intake runs on the calling thread: parse errors are answered
            // immediately (they never occupy a worker), well-formed jobs
            // are enqueued by priority.
            for line in input.lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => {
                        record_io(Err(e));
                        break;
                    }
                };
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                match protocol::parse_request(trimmed) {
                    Ok(req) => {
                        submitted.fetch_add(1, Ordering::Relaxed);
                        queue.push(req.priority, req);
                    }
                    Err(e) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        record_io(write_line(&protocol::failure_line(
                            e.id.as_deref(),
                            "error",
                            &e.message,
                        )));
                    }
                }
            }
            queue.close();
        });

        let summary = BatchSummary {
            jobs: submitted.into_inner(),
            ok: ok.into_inner(),
            interrupted: interrupted.into_inner(),
            errors: errors.into_inner(),
            cache_hits: self.cache.hits() - hits0,
            cache_misses: self.cache.misses() - misses0,
        };
        for (name, delta) in [
            ("serve.cache.hit", summary.cache_hits),
            ("serve.cache.miss", summary.cache_misses),
        ] {
            if delta > 0 {
                axmc_obs::counter(name).add(delta);
            }
        }
        record_io(write_line(&protocol::done_line(
            summary.jobs,
            summary.ok,
            summary.interrupted,
            summary.errors,
            summary.cache_hits,
            summary.cache_misses,
        )));
        match io_failure.into_inner().expect("io slot poisoned") {
            Some(e) => Err(e),
            None => Ok(summary),
        }
    }

    /// Serves batches over a unix domain socket: each connection is one
    /// batch (requests until the peer shuts down its write side, then
    /// the summary). Connections are handled sequentially and share the
    /// server's cache and warm engines. `max_connections` bounds the
    /// accept loop (`None` serves forever).
    ///
    /// # Errors
    ///
    /// Binding or accepting on the socket. Per-connection I/O failures
    /// are contained: the connection is dropped, the loop continues.
    #[cfg(unix)]
    pub fn run_unix(
        &self,
        path: &std::path::Path,
        max_connections: Option<usize>,
    ) -> io::Result<()> {
        use std::os::unix::net::UnixListener;
        // A stale socket file from a previous run would fail the bind.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        for (served, stream) in listener.incoming().enumerate() {
            let stream = stream?;
            let reader = io::BufReader::new(stream.try_clone()?);
            if let Err(e) = self.run_batch(reader, &stream) {
                eprintln!("serve: connection dropped: {e}");
            }
            if max_connections.is_some_and(|m| served + 1 >= m) {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Loads (or reuses) a parsed circuit by path. Parsed AIGs are kept
    /// for the server's lifetime — batch traffic re-references the same
    /// few library files over and over.
    ///
    /// Each circuit is **statically reduced** (ternary-fixpoint sweep)
    /// once at load time, so every downstream cache key is computed on
    /// the reduced fingerprint: structurally different files that sweep
    /// to the same circuit share one cache entry, and every analysis
    /// runs on the smaller equisatisfiable form. The interface is
    /// preserved exactly, so witnesses replay unchanged.
    fn circuit(&self, path: &str) -> Result<Arc<Aig>, String> {
        if let Some(hit) = self.circuits.lock().expect("store poisoned").get(path) {
            return Ok(Arc::clone(hit));
        }
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        let parsed = aiger::from_ascii(&text).map_err(|e| format!("cannot parse '{path}': {e}"))?;
        let aig = Arc::new(axmc_absint::sweep(&parsed).0);
        self.circuits
            .lock()
            .expect("store poisoned")
            .insert(path.to_string(), Arc::clone(&aig));
        Ok(aig)
    }

    /// Runs one job end to end. Returns the `result` object (a pure
    /// function of the query — byte-identical on cache replay) and
    /// whether the leading query was already cached when the job began.
    fn execute(&self, req: &Request) -> Result<(Json, bool), JobFailure> {
        if req.kind == JobKind::Characterize {
            return self.execute_characterize(req);
        }
        let golden_path = req
            .golden
            .as_deref()
            .ok_or_else(|| String::from("missing required field 'golden'"))?;
        let golden = self.circuit(golden_path)?;
        let candidate = self.circuit(&req.candidate)?;
        if golden.num_inputs() != candidate.num_inputs()
            || golden.num_outputs() != candidate.num_outputs()
        {
            return Err(format!(
                "golden and candidate interfaces differ ({}→{} vs {}→{})",
                golden.num_inputs(),
                golden.num_outputs(),
                candidate.num_inputs(),
                candidate.num_outputs()
            )
            .into());
        }
        let sequential = golden.num_latches() > 0 || candidate.num_latches() > 0;
        let certify = req.certify.unwrap_or(self.config.certify);
        let mut ctl = ResourceCtl::unlimited();
        if let Some(ms) = req.timeout_ms {
            ctl = ctl.with_timeout(Duration::from_millis(ms));
        } else if let Some(d) = self.config.default_timeout {
            ctl = ctl.with_timeout(d);
        }
        let options = AnalysisOptions::new()
            .with_ctl(ctl)
            .with_certify(certify)
            .with_inprocessing(self.config.inprocess)
            // Sequential analyses do not read the backend (the pair's
            // structure picks their engine); forcing the key's backend
            // field keeps seq cache keys canonical across configurations.
            .with_backend(if sequential {
                Backend::Sat
            } else {
                self.config.backend
            })
            .with_cache(CacheHandle::new(self.cache.clone()));

        if sequential {
            self.execute_seq(req, &golden, &candidate, options)
        } else {
            self.execute_comb(req, &golden, &candidate, options)
        }
    }

    /// Looks up (or generates, sweeps, and memoizes) the exact golden of
    /// a component class at a width. Stored in the circuit store under a
    /// synthetic key — the leading `\0` cannot appear in a request path,
    /// so builtin goldens and loaded files never collide.
    fn builtin_golden(&self, class: &str, width: usize) -> Result<Arc<Aig>, String> {
        let key = format!("\0builtin/{class}/{width}");
        if let Some(hit) = self.circuits.lock().expect("store poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let netlist = match class {
            "adder" => axmc_circuit::generators::ripple_carry_adder(width),
            "multiplier" => axmc_circuit::generators::array_multiplier(width),
            other => return Err(format!("no builtin golden for class '{other}'")),
        };
        // Swept like every loaded circuit, so cache keys stay canonical.
        let aig = Arc::new(axmc_absint::sweep(&netlist.to_aig()).0);
        self.circuits
            .lock()
            .expect("store poisoned")
            .insert(key, Arc::clone(&aig));
        Ok(aig)
    }

    /// A `kind:"characterize"` job: exact WCE and bit-flip error of one
    /// combinational component, both through the server's result cache.
    /// Without an explicit `golden` the component class and width are
    /// inferred from the candidate's interface (2w inputs and w+1
    /// outputs → w-bit adder; 2w inputs and 2w outputs → w-bit
    /// multiplier) and the exact golden is generated in-process.
    fn execute_characterize(&self, req: &Request) -> Result<(Json, bool), JobFailure> {
        let candidate = self.circuit(&req.candidate)?;
        if candidate.num_latches() > 0 {
            return Err(String::from(
                "characterize jobs take combinational components (the candidate has latches)",
            )
            .into());
        }
        let (ins, outs) = (candidate.num_inputs(), candidate.num_outputs());
        let (class, width) = if ins >= 2 && ins % 2 == 0 && outs == ins / 2 + 1 {
            ("adder", ins / 2)
        } else if ins >= 2 && ins % 2 == 0 && outs == ins {
            ("multiplier", ins / 2)
        } else if req.golden.is_some() {
            ("custom", 0)
        } else {
            return Err(format!(
                "cannot infer the component class from {ins} inputs / {outs} outputs \
                 (adder: 2w in, w+1 out; multiplier: 2w in, 2w out); pass 'golden' explicitly"
            )
            .into());
        };
        let golden = match &req.golden {
            Some(path) => self.circuit(path)?,
            None => self.builtin_golden(class, width)?,
        };
        if golden.num_inputs() != ins || golden.num_outputs() != outs {
            return Err(format!(
                "golden and candidate interfaces differ ({}→{} vs {ins}→{outs})",
                golden.num_inputs(),
                golden.num_outputs(),
            )
            .into());
        }
        let certify = req.certify.unwrap_or(self.config.certify);
        let mut ctl = ResourceCtl::unlimited();
        if let Some(ms) = req.timeout_ms {
            ctl = ctl.with_timeout(Duration::from_millis(ms));
        } else if let Some(d) = self.config.default_timeout {
            ctl = ctl.with_timeout(d);
        }
        let options = AnalysisOptions::new()
            .with_ctl(ctl)
            .with_certify(certify)
            .with_inprocessing(self.config.inprocess)
            .with_backend(self.config.backend)
            .with_cache(CacheHandle::new(self.cache.clone()));
        // The job is "cached" when its leading (WCE) query already was —
        // the same convention the analyze WCE arm uses.
        let wce_key = QueryKey::new(&golden, &candidate, metric::COMB_WCE, &options);
        let cached = self.cache.peek(&wce_key);
        let analyzer = CombAnalyzer::new(&golden, &candidate).with_options(options);
        let wce = analyzer.worst_case_error()?;
        let bit_flip = analyzer.bit_flip_error()?;
        Ok((
            Json::Obj(vec![
                ("kind".into(), Json::Str("characterize".into())),
                ("class".into(), Json::Str(class.into())),
                ("width".into(), Json::Num(width as f64)),
                ("wce".into(), Json::Str(wce.value.to_string())),
                ("bit_flip".into(), Json::Str(bit_flip.value.to_string())),
                (
                    "sat_calls".into(),
                    Json::Num((wce.sat_calls + bit_flip.sat_calls) as f64),
                ),
                (
                    "conflicts".into(),
                    Json::Num((wce.conflicts + bit_flip.conflicts) as f64),
                ),
                ("engine".into(), Json::Str(wce.engine.to_string())),
            ]),
            cached,
        ))
    }

    fn execute_comb(
        &self,
        req: &Request,
        golden: &Aig,
        candidate: &Aig,
        options: AnalysisOptions,
    ) -> Result<(Json, bool), JobFailure> {
        let analyzer = CombAnalyzer::new(golden, candidate).with_options(options.clone());
        match req.metric {
            Metric::Wce => {
                let key = QueryKey::new(golden, candidate, metric::COMB_WCE, &options);
                let cached = self.cache.peek(&key);
                let r = analyzer.worst_case_error()?;
                Ok((
                    Json::Obj(vec![
                        ("metric".into(), Json::Str("wce".into())),
                        ("value".into(), Json::Str(r.value.to_string())),
                        ("sat_calls".into(), Json::Num(r.sat_calls as f64)),
                        ("conflicts".into(), Json::Num(r.conflicts as f64)),
                        ("engine".into(), Json::Str(r.engine.to_string())),
                    ]),
                    cached,
                ))
            }
            Metric::BitFlip => {
                let key = QueryKey::new(golden, candidate, metric::COMB_BIT_FLIP, &options);
                let cached = self.cache.peek(&key);
                let r = analyzer.bit_flip_error()?;
                Ok((
                    Json::Obj(vec![
                        ("metric".into(), Json::Str("bit-flip".into())),
                        ("value".into(), Json::Str(r.value.to_string())),
                        ("sat_calls".into(), Json::Num(r.sat_calls as f64)),
                        ("conflicts".into(), Json::Num(r.conflicts as f64)),
                        ("engine".into(), Json::Str(r.engine.to_string())),
                    ]),
                    cached,
                ))
            }
            Metric::Exceeds => {
                let key = QueryKey::new(golden, candidate, metric::COMB_EXCEEDS, &options)
                    .with_threshold(req.threshold);
                let cached = self.cache.peek(&key);
                let verdict = analyzer.check_error_exceeds(req.threshold)?;
                let mut members = vec![
                    ("metric".into(), Json::Str("exceeds".into())),
                    ("threshold".into(), Json::Str(req.threshold.to_string())),
                ];
                match verdict {
                    Verdict::Proved => {
                        members.push(("verdict".into(), Json::Str("proved".into())));
                    }
                    Verdict::Refuted { witness } => {
                        members.push(("verdict".into(), Json::Str("refuted".into())));
                        let bits: String =
                            witness.iter().map(|&b| if b { '1' } else { '0' }).collect();
                        members.push(("witness_inputs".into(), Json::Str(bits)));
                    }
                    Verdict::Interrupted { best_so_far } => {
                        return Err(JobFailure {
                            interrupted: true,
                            message: format!("interrupted: {best_so_far}"),
                        })
                    }
                }
                Ok((Json::Obj(members), cached))
            }
        }
    }

    fn execute_seq(
        &self,
        req: &Request,
        golden: &Aig,
        candidate: &Aig,
        options: AnalysisOptions,
    ) -> Result<(Json, bool), JobFailure> {
        let analyzer = SeqAnalyzer::new(golden, candidate).with_options(options.clone());
        let k = req.horizon;
        match req.metric {
            Metric::Wce => {
                let key =
                    QueryKey::new(golden, candidate, metric::SEQ_WCE, &options).with_cycles(k);
                let cached = self.cache.peek(&key);
                let r = analyzer.worst_case_error_at(k)?;
                Ok((
                    Json::Obj(vec![
                        ("metric".into(), Json::Str("wce".into())),
                        ("cycles".into(), Json::Num(k as f64)),
                        ("value".into(), Json::Str(r.value.to_string())),
                        ("sat_calls".into(), Json::Num(r.sat_calls as f64)),
                        ("conflicts".into(), Json::Num(r.conflicts as f64)),
                        ("engine".into(), Json::Str(r.engine.to_string())),
                    ]),
                    cached,
                ))
            }
            Metric::BitFlip => {
                let key =
                    QueryKey::new(golden, candidate, metric::SEQ_BIT_FLIP, &options).with_cycles(k);
                let cached = self.cache.peek(&key);
                let r = analyzer.bit_flip_error_at(k)?;
                Ok((
                    Json::Obj(vec![
                        ("metric".into(), Json::Str("bit-flip".into())),
                        ("cycles".into(), Json::Num(k as f64)),
                        ("value".into(), Json::Str(r.value.to_string())),
                        ("sat_calls".into(), Json::Num(r.sat_calls as f64)),
                        ("conflicts".into(), Json::Num(r.conflicts as f64)),
                        ("engine".into(), Json::Str(r.engine.to_string())),
                    ]),
                    cached,
                ))
            }
            Metric::Exceeds => {
                let key = QueryKey::new(golden, candidate, metric::SEQ_EXCEEDS, &options)
                    .with_threshold(req.threshold)
                    .with_cycles(k);
                let cached = self.cache.peek(&key);
                // Sequential threshold probes go through the warm engine
                // pool: the product machine is encoded once per (pair,
                // certified) and reused, with the cache consulted first
                // under exactly the key the analyzers would use.
                let verdict = match self.cache.get(&key) {
                    Some(CachedResult::SeqVerdict(v)) => v,
                    _ => {
                        let pool_key = (golden.pair_fingerprint(candidate), options.certify);
                        let warm = self.probes.lock().expect("pool poisoned").remove(&pool_key);
                        let mut probe = warm.unwrap_or_else(|| analyzer.probe_session());
                        // A pooled instance carries the previous job's
                        // resource envelope; re-arm before probing.
                        probe.set_ctl(options.ctl.clone());
                        let out = probe.check_error_exceeds(req.threshold, k);
                        self.probes
                            .lock()
                            .expect("pool poisoned")
                            .insert(pool_key, probe);
                        let v = out?;
                        if !v.is_interrupted() {
                            self.cache.put(&key, CachedResult::SeqVerdict(v.clone()));
                        }
                        v
                    }
                };
                let mut members = vec![
                    ("metric".into(), Json::Str("exceeds".into())),
                    ("threshold".into(), Json::Str(req.threshold.to_string())),
                    ("cycles".into(), Json::Num(k as f64)),
                ];
                match verdict {
                    Verdict::Proved => {
                        members.push(("verdict".into(), Json::Str("proved".into())));
                    }
                    Verdict::Refuted { witness } => {
                        members.push(("verdict".into(), Json::Str("refuted".into())));
                        members.push(("witness_cycles".into(), Json::Num(witness.len() as f64)));
                        members.push((
                            "witness_error".into(),
                            Json::Str(analyzer.trace_error(&witness).to_string()),
                        ));
                    }
                    Verdict::Interrupted { best_so_far } => {
                        return Err(JobFailure {
                            interrupted: true,
                            message: format!("interrupted: {best_so_far}"),
                        })
                    }
                }
                Ok((Json::Obj(members), cached))
            }
        }
    }
}
