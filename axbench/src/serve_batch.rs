//! `serve_batch`: one batch of duplicated jobs through
//! `axmc_serve::Server::run_batch`, read from memory. The only workload
//! that reaches AIGER parsing, the JSONL protocol, the job queue, the
//! result cache, the warm `SeqProbe` pool and DRAT checking.

use crate::answers::Answers;
use crate::stats::Outcome;
use crate::trace::ROOT_SERVE;
use crate::workload::{shuffle, time_us, Pass, Workload, JOBS};
use crate::{comb_library, seq_bmc};
use axmc_core::Backend;
use axmc_obs::json::Json;
use axmc_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{self, Cursor, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Adder widths served (the multipliers are those of `comb_library`).
const ADDER_WIDTHS: [usize; 4] = [8, 16, 24, 32];
/// Horizon of the sequential threshold probes.
const HORIZON: usize = 6;
/// Blocks the batch lists its jobs in.
const BLOCKS: usize = 9;

/// What kind of query a job is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A combinational `wce` or `bit-flip` job.
    Comb,
    /// A sequential probe at WCE - 1, which must be refuted.
    Refute,
    /// A sequential probe at WCE, which must be proved.
    Prove,
    /// The probe at WCE again, with `certify: true`.
    Certified,
}

/// What a served job must answer.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Expect {
    /// `result.value` equals this.
    Value(String),
    /// `result.verdict` is `refuted` and `result.witness_error` equals this.
    Refuted(String),
    /// `result.verdict` is `proved`.
    Proved,
}

/// One distinct query; the batch holds two copies of each.
struct Job {
    id: String,
    kind: Kind,
    /// The request's fields other than `id`.
    fields: Vec<(String, Json)>,
    expect: Expect,
}

pub struct ServeBatch {
    dir: PathBuf,
    jobs: Vec<Job>,
    /// The batch: every job twice, in seeded order, one request per line.
    batch: String,
    files: Vec<PathBuf>,
}

/// Writes `aig` as ASCII AIGER under `dir`.
fn write_aag(dir: &Path, name: &str, aig: &axmc_aig::Aig) -> Result<PathBuf, String> {
    let path = dir.join(format!("{}.aag", name.replace('/', "_")));
    std::fs::write(&path, axmc_aig::aiger::to_ascii(aig))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The fields of one request, without its `id`.
fn request(
    golden: &Path,
    candidate: &Path,
    metric: &str,
    extra: Vec<(&str, Json)>,
) -> Vec<(String, Json)> {
    let mut fields = vec![
        (
            "golden".to_string(),
            Json::Str(golden.display().to_string()),
        ),
        (
            "candidate".to_string(),
            Json::Str(candidate.display().to_string()),
        ),
        ("metric".to_string(), Json::Str(metric.to_string())),
    ];
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    fields
}

impl ServeBatch {
    pub fn setup(seed: u64, answers: &Answers) -> Result<ServeBatch, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut files = Vec::new();
        let mut jobs = Vec::new();
        let expect_value = |key: String| -> Result<String, String> {
            answers
                .get(&key)
                .map(str::to_string)
                .ok_or_else(|| format!("no known answer for {key}"))
        };

        let mut library = axmc_characterize::builtin_library(&ADDER_WIDTHS, true, false);
        library.extend(axmc_characterize::builtin_library(
            &comb_library::MULTIPLIER_WIDTHS,
            false,
            true,
        ));
        let mut goldens: BTreeMap<String, PathBuf> = BTreeMap::new();
        for c in &library {
            let golden_name = format!("golden_{}{}", c.kind.as_str(), c.width);
            let golden = match goldens.get(&golden_name) {
                Some(path) => path.clone(),
                None => {
                    let path = write_aag(&dir, &golden_name, &c.golden)?;
                    files.push(path.clone());
                    goldens.insert(golden_name, path.clone());
                    path
                }
            };
            let candidate = write_aag(&dir, &c.name, &c.candidate)?;
            files.push(candidate.clone());
            for (metric, query) in [("wce", "wce"), ("bit-flip", "bit_flip")] {
                let id = format!("comb/{}/{metric}", c.name);
                jobs.push(Job {
                    kind: Kind::Comb,
                    fields: request(&golden, &candidate, metric, vec![]),
                    expect: Expect::Value(expect_value(comb_library::key(&c.name, query))?),
                    id,
                });
            }
        }

        for pair in seq_bmc::pairs()
            .into_iter()
            .filter(|p| !p.design.starts_with("fir4"))
        {
            let golden = write_aag(&dir, &format!("{}_golden", pair.name), &pair.golden)?;
            let candidate = write_aag(&dir, &format!("{}_approx", pair.name), &pair.approx)?;
            files.extend([golden.clone(), candidate.clone()]);
            let wce_text = expect_value(seq_bmc::key(&pair.name, HORIZON, "wce"))?;
            let wce: u128 = wce_text
                .parse()
                .map_err(|_| format!("bad WCE answer for {}", pair.name))?;
            let probe = |threshold: u128, certify: bool| {
                let mut extra = vec![
                    ("threshold", Json::Str(threshold.to_string())),
                    ("horizon", Json::Num(HORIZON as f64)),
                ];
                if certify {
                    extra.push(("certify", Json::Bool(true)));
                }
                let id = format!(
                    "seq/{}/exceeds{threshold}{}",
                    pair.name,
                    if certify { "/certified" } else { "" }
                );
                (id, request(&golden, &candidate, "exceeds", extra))
            };
            if wce > 0 {
                let (id, fields) = probe(wce - 1, false);
                jobs.push(Job {
                    id,
                    kind: Kind::Refute,
                    fields,
                    expect: Expect::Refuted(wce_text.clone()),
                });
            }
            for (kind, certify) in [(Kind::Prove, false), (Kind::Certified, true)] {
                let (id, fields) = probe(wce, certify);
                jobs.push(Job {
                    id,
                    kind,
                    fields,
                    expect: Expect::Proved,
                });
            }
        }

        let kinds: Vec<Kind> = jobs.iter().map(|j| j.kind).collect();
        let mut batch = String::new();
        for (i, copy) in batch_order(&kinds, seed) {
            // The copies differ in their id only, so they share a cache key.
            let mut members = vec![(
                "id".to_string(),
                Json::Str(format!("{}#{copy}", jobs[i].id)),
            )];
            members.extend(jobs[i].fields.iter().cloned());
            batch.push_str(&Json::Obj(members).render());
            batch.push('\n');
        }
        Ok(ServeBatch {
            dir,
            jobs,
            batch,
            files,
        })
    }

    fn outcome(expect: &Expect, status: &str, result: Option<&Json>) -> Outcome {
        match status {
            "ok" => {}
            "interrupted" => return Outcome::Interrupted,
            _ => return Outcome::Error,
        }
        let field = |name: &str| result.and_then(|r| r.get(name)).and_then(Json::as_str);
        let right = match expect {
            Expect::Value(v) => field("value") == Some(v),
            Expect::Refuted(e) => {
                field("verdict") == Some("refuted") && field("witness_error") == Some(e)
            }
            Expect::Proved => field("verdict") == Some("proved"),
        };
        if right {
            Outcome::Correct
        } else {
            eprintln!("serve: wrong result, expected {expect:?}, got {result:?}");
            Outcome::Wrong
        }
    }
}

/// The order of the batch's lines, as `(job, copy)` pairs.
///
/// The batch lists its jobs in [`BLOCKS`] blocks, dealing each kind of job
/// round-robin over them in the order the jobs were made, so that every
/// block carries the same share of cheap and costly work whatever the
/// seed. A block lists its sequential jobs in that order, then its
/// combinational jobs in an order drawn from the seed; which sequential
/// jobs run side by side decides how often a warm probe is free for reuse,
/// so the seed leaves them be. A block lists its jobs once and then again
/// in reverse order: the copy of the block's last job is picked up while
/// that job is still running and is computed a second time; the other
/// copies find their answer in the cache.
fn batch_order(kinds: &[Kind], seed: u64) -> Vec<(usize, char)> {
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); BLOCKS];
    for kind in [Kind::Comb, Kind::Refute, Kind::Prove, Kind::Certified] {
        let members = (0..kinds.len()).filter(|&i| kinds[i] == kind);
        for (rank, job) in members.enumerate() {
            blocks[rank % BLOCKS].push(job);
        }
    }
    let mut order = Vec::with_capacity(2 * kinds.len());
    for (b, block) in blocks.iter_mut().enumerate() {
        let (mut comb, seq): (Vec<usize>, Vec<usize>) =
            block.iter().partition(|&&i| kinds[i] == Kind::Comb);
        shuffle(&mut comb, seed, 3 + b as u64);
        *block = seq.into_iter().chain(comb).collect();
        order.extend(block.iter().map(|&i| (i, 'a')));
        order.extend(block.iter().rev().map(|&i| (i, 'b')));
    }
    order
}

impl Drop for ServeBatch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A writer that timestamps every complete line written to it.
#[derive(Default)]
pub struct LineClock {
    partial: Vec<u8>,
    /// Each complete line with the instant its newline arrived.
    pub lines: Vec<(Instant, String)>,
}

impl Write for LineClock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.lines.push((Instant::now(), line));
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// When one job was picked up and answered, relative to submission.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobTimes {
    /// Submission to the `start` line.
    pub queue_wait: Duration,
    /// The `start` line to the `result` line.
    pub compute: Duration,
    /// Submission to the `result` line.
    pub latency: Duration,
    /// The `result` line's status.
    pub status: String,
    /// Whether the server answered from its cache.
    pub cached: bool,
    /// The `result` object, when the job succeeded.
    pub result: Option<Json>,
}

/// Pairs every job's `start` and `result` lines. Jobs are submitted at
/// `submitted`; a job with a `result` but no `start` line (refused at
/// intake) waited for nothing.
pub fn job_times(submitted: Instant, lines: &[(Instant, String)]) -> BTreeMap<String, JobTimes> {
    let mut started: BTreeMap<String, Instant> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for (at, line) in lines {
        let Ok(doc) = Json::parse(line) else { continue };
        let Some(id) = doc.get("id").and_then(Json::as_str) else {
            continue;
        };
        match doc.get("event").and_then(Json::as_str) {
            Some("start") => {
                started.insert(id.to_string(), *at);
            }
            Some("result") => {
                let start = started.get(id).copied().unwrap_or(submitted);
                out.insert(
                    id.to_string(),
                    JobTimes {
                        queue_wait: start - submitted,
                        compute: *at - start,
                        latency: *at - submitted,
                        status: doc
                            .get("status")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        cached: doc.get("cached") == Some(&Json::Bool(true)),
                        result: doc.get("result").cloned(),
                    },
                );
            }
            _ => {}
        }
    }
    out
}

impl Workload for ServeBatch {
    fn pass(&mut self, _round: u64, _answers: &Answers) -> Pass {
        let mut pass = Pass::default();
        let server = Server::new(ServeConfig {
            jobs: JOBS,
            backend: Backend::Auto,
            ..ServeConfig::default()
        });
        let mut clock = LineClock::default();
        let submitted = Instant::now();
        let span = axmc_obs::span(ROOT_SERVE);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            server.run_batch(Cursor::new(self.batch.as_bytes()), &mut clock)
        }));
        drop(span);
        pass.busy = submitted.elapsed();
        let summary = match ran {
            Ok(Ok(summary)) => Some(summary),
            Ok(Err(e)) => {
                eprintln!("serve: batch failed: {e}");
                None
            }
            Err(_) => None,
        };
        let times = job_times(submitted, &clock.lines);
        for (j, job) in self.jobs.iter().enumerate() {
            let copies = ['a', 'b'].map(|c| times.get(&format!("{}#{c}", job.id)));
            // Both copies must carry byte-identical result objects.
            let identical = match copies {
                [Some(a), Some(b)] => {
                    a.result.as_ref().map(Json::render) == b.result.as_ref().map(Json::render)
                }
                _ => true,
            };
            for (copy, t) in copies.into_iter().enumerate() {
                let Some(t) = t else {
                    pass.tally.record(if summary.is_some() {
                        Outcome::Error
                    } else {
                        Outcome::Panic
                    });
                    continue;
                };
                pass.ops += 1;
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                pass.latencies_ms
                    .push(((2 * j + copy) as u64, ms(t.latency)));
                pass.samples
                    .entry("serve.queue_wait_ms")
                    .or_default()
                    .push(ms(t.queue_wait));
                pass.samples
                    .entry("serve.compute_ms")
                    .or_default()
                    .push(ms(t.compute));
                if t.cached {
                    pass.samples
                        .entry("serve.cached_compute_ms")
                        .or_default()
                        .push(ms(t.compute));
                }
                let mut outcome = Self::outcome(&job.expect, &t.status, t.result.as_ref());
                if copy == 1 && !identical {
                    eprintln!("serve: the two copies of {} disagree", job.id);
                    outcome = Outcome::Wrong;
                }
                pass.tally.record(outcome);
            }
        }
        if let Some(s) = summary {
            pass.count("serve.cache.hits", s.cache_hits as f64);
            pass.count("serve.cache.misses", s.cache_misses as f64);
        }
        pass
    }

    fn side_layers(&mut self) -> Vec<(&'static str, f64)> {
        // Each pass starts a fresh server, which parses every file once.
        let mut us = 0.0;
        for path in &self.files {
            let Ok(text) = std::fs::read_to_string(path) else {
                continue;
            };
            us += time_us(|| axmc_aig::aiger::from_ascii(&text)).1;
        }
        vec![("aig.parse_us", us)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_batch_lists_every_job_twice_in_blocks() {
        let kinds: Vec<Kind> = (0..45)
            .map(|i| {
                [
                    Kind::Comb,
                    Kind::Comb,
                    Kind::Refute,
                    Kind::Prove,
                    Kind::Certified,
                ][i % 5]
            })
            .collect();
        let order = batch_order(&kinds, 7);
        assert_eq!(order.len(), 2 * kinds.len());
        for job in 0..kinds.len() {
            let copies: Vec<char> = order.iter().filter(|o| o.0 == job).map(|o| o.1).collect();
            assert_eq!(copies, ['a', 'b'], "job {job}");
        }
        // Each block ends on a combinational job whose copy follows at once.
        let back_to_back: Vec<usize> = order
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[0].0)
            .collect();
        assert_eq!(back_to_back.len(), BLOCKS);
        assert!(back_to_back.iter().all(|&j| kinds[j] == Kind::Comb));
        assert_ne!(order, batch_order(&kinds, 8), "the seed orders the blocks");
    }

    #[test]
    fn queue_wait_plus_compute_is_latency() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut clock = LineClock::default();
        // Lines arrive in pieces, as `writeln!` delivers them.
        clock
            .write_all(b"{\"event\":\"start\",\"id\":\"j1\"}")
            .unwrap();
        clock.write_all(b"\n").unwrap();
        assert_eq!(clock.lines.len(), 1);
        let lines = vec![
            (at(5), r#"{"event":"start","id":"j1"}"#.to_string()),
            (at(7), r#"{"event":"start","id":"j2"}"#.to_string()),
            (
                at(20),
                r#"{"event":"result","id":"j1","status":"ok","cached":false,"result":{"value":"3"}}"#
                    .to_string(),
            ),
            (
                at(21),
                r#"{"event":"result","id":"j2","status":"ok","cached":true,"result":{"value":"3"}}"#
                    .to_string(),
            ),
            (at(22), r#"{"event":"done","jobs":2}"#.to_string()),
        ];
        let times = job_times(t0, &lines);
        assert_eq!(times.len(), 2);
        for t in times.values() {
            assert_eq!(t.queue_wait + t.compute, t.latency);
        }
        let j1 = &times["j1"];
        assert_eq!(j1.queue_wait, Duration::from_millis(5));
        assert_eq!(j1.compute, Duration::from_millis(15));
        assert!(!j1.cached);
        assert!(times["j2"].cached);
        assert_eq!(
            ServeBatch::outcome(&Expect::Value("3".into()), &j1.status, j1.result.as_ref()),
            Outcome::Correct
        );
        assert_eq!(
            ServeBatch::outcome(&Expect::Value("4".into()), &j1.status, j1.result.as_ref()),
            Outcome::Wrong
        );
        assert_eq!(
            ServeBatch::outcome(&Expect::Proved, "interrupted", None),
            Outcome::Interrupted
        );
    }
}
