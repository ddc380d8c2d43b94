//! End-to-end tests of the `axmc` command-line tool: generate circuits,
//! analyze them, evolve with a certificate, and read the outputs back.

use std::path::PathBuf;
use std::process::Command;

fn axmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_axmc"))
}

fn tmp(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("axmc-cli-test-{}-{name}", std::process::id()));
    dir
}

#[test]
fn gen_analyze_round_trip() {
    let g = tmp("g.aag");
    let c = tmp("c.aag");
    let s1 = axmc()
        .args(["gen", "--kind", "adder", "--width", "5", "--out"])
        .arg(&g)
        .output()
        .expect("spawn");
    assert!(
        s1.status.success(),
        "{}",
        String::from_utf8_lossy(&s1.stderr)
    );
    let s2 = axmc()
        .args([
            "gen",
            "--kind",
            "trunc-adder",
            "--width",
            "5",
            "--param",
            "2",
            "--out",
        ])
        .arg(&c)
        .output()
        .expect("spawn");
    assert!(s2.status.success());

    let out = axmc()
        .args(["analyze", "--golden"])
        .arg(&g)
        .arg("--approx")
        .arg(&c)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Truncated adder cut 2: WCE = 2^3 - 2 = 6.
    assert!(text.contains("worst-case error     : 6"), "{text}");
    assert!(text.contains("combinational analysis"), "{text}");
}

#[test]
fn stats_reports_structure() {
    let g = tmp("s.aag");
    axmc()
        .args(["gen", "--kind", "multiplier", "--width", "3", "--out"])
        .arg(&g)
        .output()
        .expect("spawn");
    let out = axmc()
        .args(["stats", "--circuit"])
        .arg(&g)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("inputs  : 6"), "{text}");
    assert!(text.contains("outputs : 6"), "{text}");
    assert!(text.contains("latches : 0"), "{text}");
}

#[test]
fn evolve_produces_certified_circuit() {
    let out_path = tmp("e.aag");
    let out = axmc()
        .args([
            "evolve",
            "--kind",
            "adder",
            "--width",
            "4",
            "--wcre",
            "10",
            "--seconds",
            "2",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Load the result and check the certificate independently.
    let text = std::fs::read_to_string(&out_path).expect("evolved file");
    let evolved = axmc::aig::aiger::from_ascii(&text).expect("valid aiger");
    let golden = axmc::circuit::generators::ripple_carry_adder(4).to_aig();
    let report = axmc::CombAnalyzer::new(&golden, &evolved)
        .worst_case_error()
        .expect("analysis");
    // WCRE 10% of 2^5 = 3.2 -> threshold 3.
    assert!(report.value <= 3, "wce {}", report.value);
}

#[test]
fn errors_are_reported_cleanly() {
    let out = axmc()
        .args(["analyze", "--golden", "/nonexistent.aag"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");

    let out = axmc().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn unknown_flags_are_rejected() {
    let out = axmc()
        .args(["analyze", "--golden", "g.aag", "--bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --bogus"), "{err}");
    assert!(err.contains("'analyze'"), "{err}");

    // A flag valid for one subcommand is still rejected for another.
    let out = axmc()
        .args(["stats", "--circuit", "c.aag", "--prove"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --prove"), "{err}");
}

#[test]
fn duplicate_flags_are_rejected() {
    let out = axmc()
        .args(["stats", "--circuit", "a.aag", "--circuit", "b.aag"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("duplicate flag --circuit"), "{err}");
}

#[test]
fn value_flags_require_values() {
    let out = axmc()
        .args(["analyze", "--golden"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--golden expects a value"), "{err}");

    // A following flag is not a value.
    let out = axmc()
        .args(["analyze", "--golden", "--approx", "c.aag"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--golden expects a value"), "{err}");
}

#[test]
fn metrics_and_trace_instrument_an_analysis() {
    let g = tmp("mt-g.aag");
    let c = tmp("mt-c.aag");
    let trace = tmp("mt-t.jsonl");
    for (kind, path, extra) in [
        ("adder", &g, None),
        ("trunc-adder", &c, Some(["--param", "2"])),
    ] {
        let mut cmd = axmc();
        cmd.args(["gen", "--kind", kind, "--width", "5"]);
        if let Some(extra) = extra {
            cmd.args(extra);
        }
        let out = cmd.arg("--out").arg(path).output().expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let out = axmc()
        .args(["analyze", "--golden"])
        .arg(&g)
        .arg("--approx")
        .arg(&c)
        .args(["--metrics", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);

    // The analysis result is still printed, followed by the summary table.
    assert!(text.contains("worst-case error     : 6"), "{text}");
    assert!(text.contains("counters"), "{text}");
    assert!(text.contains("sat.solves"), "{text}");
    assert!(text.contains("histograms"), "{text}");
    assert!(text.contains("sat.solve.time_us"), "{text}");
    assert!(text.contains("core.search.probes"), "{text}");

    // Every trace line round-trips exactly through the event parser.
    let dump = std::fs::read_to_string(&trace).expect("trace file");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(!lines.is_empty(), "trace is empty");
    let mut kinds = std::collections::BTreeSet::new();
    for line in &lines {
        let event = axmc::obs::Event::parse_json(line)
            .unwrap_or_else(|e| panic!("bad trace line '{line}': {e}"));
        assert_eq!(&event.to_json(), line, "round-trip changed the line");
        kinds.insert(event.kind);
    }
    for expected in ["sat.solve", "core.search.probe", "core.search.done"] {
        assert!(kinds.contains(expected), "no {expected} event in {kinds:?}");
    }
}

#[test]
fn evolve_progress_prints_live_lines() {
    let out = axmc()
        .args([
            "evolve",
            "--kind",
            "adder",
            "--width",
            "3",
            "--wcre",
            "15",
            "--seconds",
            "1",
            "--seed",
            "7",
            "--progress",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Progress is commentary: it must land on stderr (stdout stays
    // clean for piping) and carry the eval rate and time-limit ETA.
    // The first progress event is emitted unthrottled, so at least one
    // line is guaranteed even on a fast machine.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("evals/s"), "{err}");
    assert!(err.contains("ETA"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.contains("evals/s"),
        "progress leaked to stdout: {text}"
    );
}

#[test]
fn jobs_flag_is_validated() {
    let out = axmc()
        .args(["evolve", "--kind", "adder", "--width", "3", "--jobs", "0"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs must be at least 1"), "{err}");

    let out = axmc()
        .args(["analyze", "--golden", "g.aag", "--jobs", "nope"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs"), "{err}");
}

#[test]
fn evolve_results_are_identical_across_jobs() {
    // Generation-bounded run (config path) so wall-clock cannot end the
    // search early on one side: the evolved circuit and the reported
    // area line must match bytewise between --jobs 1 and --jobs 8.
    let cfg = tmp("det.cfg");
    std::fs::write(
        &cfg,
        "GENERATIONS 30\nMAX_ERR_PERC 10\nPARAM_OUT 5\nPOP_MAX 4\n\
         MUTATION_MAX 4\nMAX_RUN_TIME 600\nSAT_LIMIT 20000\n",
    )
    .expect("write config");
    let mut runs = Vec::new();
    for jobs in ["1", "8"] {
        let out_path = tmp(&format!("det-{jobs}.aag"));
        let out = axmc()
            .args(["evolve", "--kind", "adder", "--width", "4", "--seed", "9"])
            .arg("--config")
            .arg(&cfg)
            .args(["--jobs", jobs, "--out"])
            .arg(&out_path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let area_line = stdout
            .lines()
            .find(|l| l.starts_with("area:"))
            .unwrap_or_else(|| panic!("no area line in {stdout}"))
            .to_string();
        let circuit = std::fs::read(&out_path).expect("evolved file");
        runs.push((area_line, circuit));
    }
    assert_eq!(runs[0].0, runs[1].0, "area summary differs across jobs");
    assert_eq!(runs[0].1, runs[1].1, "evolved AIGER differs across jobs");
}

#[test]
fn timeout_yields_partial_result_and_exit_code_10() {
    let g = tmp("to-g.aag");
    let c = tmp("to-c.aag");
    for (kind, path, extra) in [
        ("adder", &g, None),
        ("trunc-adder", &c, Some(["--param", "2"])),
    ] {
        let mut cmd = axmc();
        cmd.args(["gen", "--kind", kind, "--width", "5"]);
        if let Some(extra) = extra {
            cmd.args(extra);
        }
        let out = cmd.arg("--out").arg(path).output().expect("spawn");
        assert!(out.status.success());
    }

    // An already-expired deadline: the analysis must stop before the first
    // solver call, report the trivial partial result, and exit 10 — never
    // panic.
    let out = axmc()
        .args(["analyze", "--golden"])
        .arg(&g)
        .arg("--approx")
        .arg(&c)
        .args(["--timeout", "0s"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(10), "expected the interrupted code");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("partial result"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    // A generous deadline never trips: output matches the untimed run.
    let out = axmc()
        .args(["analyze", "--golden"])
        .arg(&g)
        .arg("--approx")
        .arg(&c)
        .args(["--timeout", "2m"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("worst-case error     : 6"), "{text}");
}

#[test]
fn invalid_durations_are_rejected() {
    for bad in ["nope", "1h30", ""] {
        let out = axmc()
            .args(["analyze", "--golden", "g.aag", "--timeout", bad])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "duration '{bad}' was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid duration"), "{err}");
    }
}

#[test]
fn help_prints_usage() {
    let out = axmc().args(["--help"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"), "{text}");
    assert!(text.contains("analyze"), "{text}");
    assert!(text.contains("evolve"), "{text}");
    assert!(text.contains("--engine"), "{text}");
}

#[test]
fn engine_choices_report_identical_metrics() {
    let g = tmp("eng-g.aag");
    let c = tmp("eng-c.aag");
    for (kind, param, path) in [("adder", None, &g), ("loa-adder", Some("4"), &c)] {
        let mut cmd = axmc();
        cmd.args(["gen", "--kind", kind, "--width", "8"]);
        if let Some(p) = param {
            cmd.args(["--param", p]);
        }
        let out = cmd.arg("--out").arg(path).output().expect("spawn");
        assert!(out.status.success());
    }
    // The metric values (everything before the parenthesized engine
    // attribution) must be byte-identical for every --engine choice.
    let run = |engine: &str| -> Vec<String> {
        let out = axmc()
            .args(["analyze", "--golden"])
            .arg(&g)
            .arg("--approx")
            .arg(&c)
            .args(["--engine", engine, "--average"])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains(" : "))
            .map(|l| l.split(" (").next().unwrap().to_string())
            .collect()
    };
    let sat = run("sat");
    let bdd = run("bdd");
    let auto = run("auto");
    assert!(
        sat.iter().any(|l| l.starts_with("worst-case error")),
        "{sat:?}"
    );
    assert!(
        sat.iter().any(|l| l.starts_with("mean abs error")),
        "{sat:?}"
    );
    assert_eq!(sat, bdd);
    assert_eq!(sat, auto);
}

#[test]
fn unknown_engines_are_rejected() {
    let out = axmc()
        .args([
            "analyze", "--golden", "x.aag", "--approx", "y.aag", "--engine", "cudd",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown engine 'cudd'"), "{err}");
}

/// One analyze run recorded into a run dir; shared scaffolding for the
/// artifact-bundle tests below.
fn record_run(tag: &str) -> PathBuf {
    let g = tmp(&format!("{tag}-g.aag"));
    let c = tmp(&format!("{tag}-c.aag"));
    for (kind, param, path) in [("adder", None, &g), ("trunc-adder", Some("4"), &c)] {
        let mut cmd = axmc();
        cmd.args(["gen", "--kind", kind, "--width", "10"]);
        if let Some(p) = param {
            cmd.args(["--param", p]);
        }
        let out = cmd.arg("--out").arg(path).output().expect("spawn");
        assert!(out.status.success());
    }
    let dir = tmp(&format!("{tag}-rundir"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = axmc()
        .args(["analyze", "--golden"])
        .arg(&g)
        .arg("--approx")
        .arg(&c)
        .arg("--run-dir")
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

#[test]
fn run_dir_records_a_complete_artifact_bundle() {
    use axmc::obs::json::Json;
    let dir = record_run("bundle");
    for file in ["manifest.json", "trace.jsonl", "metrics.json"] {
        assert!(dir.join(file).is_file(), "missing {file}");
    }
    let manifest =
        Json::parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
    assert_eq!(
        manifest.get("schema").and_then(Json::as_str),
        Some("axmc-run-manifest-v1")
    );
    assert_eq!(
        manifest.get("command").and_then(Json::as_str),
        Some("analyze")
    );
    assert!(manifest.get("jobs").is_some());
    assert!(manifest.get("engine").is_some());
    // Resource usage is captured without unsafe via /proc; on Linux the
    // values must be present and sane.
    let proc = manifest.get("proc").expect("proc block");
    if cfg!(target_os = "linux") {
        let rss = proc.get("max_rss_kb").and_then(Json::as_f64).unwrap();
        assert!(rss > 100.0, "implausible peak RSS {rss} kB");
    }
    let metrics = Json::parse(&std::fs::read_to_string(dir.join("metrics.json")).unwrap()).unwrap();
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("axmc-metrics-v1")
    );
    assert!(metrics.get("wall_ms").and_then(Json::as_f64).unwrap() > 0.0);
    // The trace must contain matched span.start/span.end pairs.
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    let starts = trace.lines().filter(|l| l.contains("span.start")).count();
    let ends = trace.lines().filter(|l| l.contains("span.end")).count();
    assert!(starts > 0, "no spans recorded");
    assert_eq!(starts, ends, "unbalanced span events");
}

#[test]
fn report_attributes_the_whole_run_and_is_deterministic() {
    use axmc::obs::json::Json;
    let dir = record_run("report");
    let report = |extra: &[&str]| {
        let mut cmd = axmc();
        cmd.arg("report").arg("--run-dir").arg(&dir);
        cmd.args(extra);
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let first = report(&[]);
    // The synthetic root span covers the command, so it must head the
    // tree at 100% with a positive total, and every other attribution
    // line must stay within the root — structural span accounting, not
    // a wall-clock ratio (ratios flake under CI load).
    let run_line = first
        .lines()
        .find(|l| l.trim().ends_with(" run") && l.contains("100.0%"))
        .unwrap_or_else(|| panic!("no 100% run root in:\n{first}"));
    let run_ms: f64 = run_line.split_whitespace().next().unwrap().parse().unwrap();
    assert!(run_ms > 0.0, "run root recorded no time:\n{first}");
    for line in first.lines().filter(|l| l.contains('%')) {
        let ms: f64 = line.split_whitespace().next().unwrap().parse().unwrap();
        assert!(
            ms <= run_ms + 0.001,
            "span exceeds the run root ({run_ms} ms): {line}"
        );
    }
    // The recorded wall-clock exists and is positive; the span tree is
    // attributed against it but deliberately not ratio-checked here.
    let metrics = Json::parse(&std::fs::read_to_string(dir.join("metrics.json")).unwrap()).unwrap();
    let wall_ms = metrics.get("wall_ms").and_then(Json::as_f64).unwrap();
    assert!(wall_ms > 0.0, "metrics.json lost its wall_ms");
    assert!(first.contains("p95_us"), "{first}");
    // Replaying the same trace must render byte-identical output.
    assert_eq!(first, report(&[]), "report is nondeterministic");
    // --flame emits collapsed stacks: `frame;frame;... microseconds`.
    let flame_path = tmp("report-flame.txt");
    let _ = std::fs::remove_file(&flame_path);
    report(&["--flame", flame_path.to_str().unwrap()]);
    let flame = std::fs::read_to_string(&flame_path).unwrap();
    for line in flame.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("stack and value");
        assert!(stack.starts_with("run"), "stack not rooted at run: {line}");
        value.parse::<u64>().expect("self-time in microseconds");
    }
    assert!(
        flame.lines().any(|l| l.contains(';')),
        "no nested frame in:\n{flame}"
    );
}

#[test]
fn report_rejects_ambiguous_sources() {
    let out = axmc().arg("report").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exactly one of"), "{err}");
}

#[test]
fn bench_diff_passes_self_and_fails_injected_regression() {
    let dir = record_run("diff");
    // A run compared against itself must always pass (exit 0).
    let out = axmc()
        .arg("bench-diff")
        .arg("--base")
        .arg(&dir)
        .arg("--new")
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
    // Injecting a 10x slowdown into the wall-clock must trip the
    // threshold and exit with the dedicated regression code 12.
    let doctored = tmp("diff-slow.json");
    let text = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
    let wall = text
        .lines()
        .find(|l| l.contains("\"wall_ms\""))
        .expect("wall_ms line")
        .trim()
        .trim_end_matches(',')
        .to_string();
    let value: f64 = wall.split(':').nth(1).unwrap().trim().parse().unwrap();
    let slowed = text.replace(
        wall.split(':').nth(1).unwrap(),
        &format!(" {}", value * 10.0),
    );
    std::fs::write(&doctored, slowed).unwrap();
    let out = axmc()
        .arg("bench-diff")
        .arg("--base")
        .arg(&dir)
        .arg("--new")
        .arg(&doctored)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(12), "regression must exit 12");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSED"));
}

#[test]
fn serve_batches_match_analyze_and_hit_the_cache() {
    use axmc::obs::json::Json;
    use std::io::Write;
    let g = tmp("srv-g.aag");
    let c = tmp("srv-c.aag");
    for (kind, param, path) in [("adder", None, &g), ("trunc-adder", Some("2"), &c)] {
        let mut cmd = axmc();
        cmd.args(["gen", "--kind", kind, "--width", "5"]);
        if let Some(p) = param {
            cmd.args(["--param", p]);
        }
        let out = cmd.arg("--out").arg(path).output().expect("spawn");
        assert!(out.status.success());
    }
    // Three jobs, the third a byte-for-byte duplicate of the first.
    // --jobs 1 makes the duplicate a guaranteed cache hit (with several
    // workers two identical in-flight jobs could both miss — a benign
    // race, but not a deterministic test).
    let job = |id: &str| {
        format!(
            r#"{{"id":"{id}","golden":{g:?},"candidate":{c:?},"metric":"wce"}}"#,
            g = g.to_str().unwrap(),
            c = c.to_str().unwrap(),
        )
    };
    let other = format!(
        r#"{{"id":"other","golden":{g:?},"candidate":{c:?},"metric":"exceeds","threshold":3}}"#,
        g = g.to_str().unwrap(),
        c = c.to_str().unwrap(),
    );
    let batch = format!("{}\n{other}\n{}\n", job("first"), job("first-again"));
    let mut child = axmc()
        .args(["serve", "--jobs", "1", "--metrics"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(batch.as_bytes())
        .expect("write batch");
    let out = child.wait_with_output().expect("wait");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<Json> = text
        .lines()
        .take_while(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad line '{l}': {e}")))
        .collect();
    let result_of = |id: &str| -> &Json {
        lines
            .iter()
            .find(|l| {
                l.get("event").and_then(Json::as_str) == Some("result")
                    && l.get("id").and_then(Json::as_str) == Some(id)
            })
            .unwrap_or_else(|| panic!("no result for {id} in:\n{text}"))
    };
    // The served verdict equals the single-shot `axmc analyze` value
    // (truncated adder, cut 2: WCE = 2^3 - 2 = 6).
    let cold = result_of("first");
    assert_eq!(
        cold.get("result").unwrap().get("value"),
        Some(&Json::Str("6".into())),
        "{text}"
    );
    assert_eq!(cold.get("cached"), Some(&Json::Bool(false)), "{text}");
    // The duplicate is served from the cache, byte-identically.
    let replay = result_of("first-again");
    assert_eq!(replay.get("cached"), Some(&Json::Bool(true)), "{text}");
    assert_eq!(
        replay.get("result").unwrap().render(),
        cold.get("result").unwrap().render(),
        "cache replay must be byte-identical"
    );
    let done = lines
        .iter()
        .find(|l| l.get("event").and_then(Json::as_str) == Some("done"))
        .unwrap_or_else(|| panic!("no done line in:\n{text}"));
    assert_eq!(done.get("jobs").and_then(Json::as_f64), Some(3.0));
    assert_eq!(done.get("ok").and_then(Json::as_f64), Some(3.0));
    assert_eq!(done.get("cache_hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(done.get("cache_misses").and_then(Json::as_f64), Some(2.0));
    // --metrics: the summary table after the JSONL carries the cache
    // counters and the per-job span.
    assert!(text.contains("serve.cache.hit"), "{text}");
    assert!(text.contains("serve.cache.miss"), "{text}");
    assert!(text.contains("serve.job"), "{text}");
}

#[test]
fn feed_forward_pairs_name_the_engine_and_the_exceeding_cycle() {
    // A 3-tap FIR over 4-bit samples, written to AIGER in the test: its
    // outputs depend on the last three cycles only, so its sequential
    // queries are decided on the BDD of the three-frame expansion.
    use axmc::circuit::{approx, generators};
    use axmc::seq::fir_moving_sum;
    let g = tmp("fir_g.aag");
    let c = tmp("fir_c.aag");
    let golden = fir_moving_sum(&generators::ripple_carry_adder(4), 4, 3);
    let cheap = fir_moving_sum(&approx::truncated_adder(4, 2), 4, 3);
    std::fs::write(&g, axmc::aig::aiger::to_ascii(&golden)).unwrap();
    std::fs::write(&c, axmc::aig::aiger::to_ascii(&cheap)).unwrap();
    let analyze = |horizon: &str| {
        let out = axmc()
            .args(["analyze", "--golden"])
            .arg(&g)
            .arg("--approx")
            .arg(&c)
            .args(["--horizon", horizon, "--prove"])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Past the depth the WCE is the all-time worst case, which is proved.
    let text = analyze("5");
    assert!(text.contains("(0 probes, 0 conflicts, via bdd)"), "{text}");
    assert!(
        text.contains("unbounded bound      : |error| <= "),
        "{text}"
    );
    assert!(text.contains(" proved\n"), "{text}");
    assert!(!text.contains("k-induction"), "{text}");
    // Cycle 0 shows one truncated sample; the bound it sets is exceeded
    // once two samples are summed, with nothing accumulating.
    let text = analyze("0");
    assert!(
        text.contains("unbounded bound      : exceeded at cycle 1\n"),
        "{text}"
    );
    assert!(!text.contains("accumulates"), "{text}");
    let _ = std::fs::remove_file(&g);
    let _ = std::fs::remove_file(&c);
}
