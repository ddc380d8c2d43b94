#!/usr/bin/env bash
# The full local CI gate: formatting, lints, build, tests.
#
# Runs fully offline (--offline everywhere; the workspace has no external
# dependencies, so no registry access is ever needed). Every step must
# pass; the script stops at the first failure.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "== $* =="
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo clippy --workspace --all-targets --offline \
    --features proptest-tests -- -D warnings
run cargo clippy -p axmc-bench --all-targets --offline \
    --features micro-benches -- -D warnings
run cargo build --release --offline

# Prose documentation gate: every relative markdown link must resolve to
# a real file, and every CLI subcommand a doc names in inline code
# (`axmc foo`) must actually exist in `axmc --help` — stale docs fail CI
# the same way stale rustdoc does.
doc_links_check() {
    echo "== doc link check =="
    local axmc=target/release/axmc help fail=0 file dir link target sub
    help=$("$axmc" --help 2>&1 || true)
    for file in ./*.md docs/*.md; do
        [[ -f $file ]] || continue
        dir=$(dirname "$file")
        while IFS= read -r link; do
            [[ -z $link ]] && continue
            target=${link%%#*}
            [[ -z $target ]] && continue
            [[ -e "$dir/$target" ]] \
                || { echo "$file: broken link -> $link"; fail=1; }
        done < <(grep -oE '\]\([^)]+\)' "$file" 2>/dev/null \
                 | sed 's/^](//; s/)$//' \
                 | grep -vE '^(https?:|mailto:|#)' || true)
        while IFS= read -r sub; do
            [[ -z $sub ]] && continue
            grep -qE "(^|[[:space:]])${sub}([[:space:]]|$)" <<<"$help" \
                || { echo "$file: unknown subcommand 'axmc $sub'"; fail=1; }
        done < <(grep -ohE '`axmc [a-z][a-z0-9-]*' "$file" 2>/dev/null \
                 | sed 's/^`axmc //' | sort -u || true)
    done
    (( fail == 0 )) || { echo "documentation drifted from the CLI"; exit 1; }
}
doc_links_check

# Documentation gate: rustdoc must be warning-free (broken intra-doc
# links included) and every doctest must pass, in both feature
# configurations.
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace --offline
run cargo test --workspace -q --offline --doc
run cargo test --workspace -q --offline --doc --features proptest-tests

# Structural linting over everything we ship: the full sequential design
# suite plus the whole approximate-component library. Any error-severity
# diagnostic fails the build.
run cargo run --release --offline --bin axmc -- lint --suite

# Resource-governance smoke: a deliberately tiny deadline on a
# table6-scale instance must exit with the dedicated "interrupted" code
# (10), report a partial result on stdout, and never panic. Run in both
# feature configurations.
timeout_smoke() {
    echo "== timeout smoke ($*) =="
    local dir
    dir=$(mktemp -d)
    cargo run --release --offline "$@" --bin axmc -- \
        gen --kind multiplier --width 16 --out "$dir/g.aag"
    cargo run --release --offline "$@" --bin axmc -- \
        gen --kind trunc-multiplier --width 16 --param 8 --out "$dir/c.aag"
    local rc=0 start=$SECONDS
    cargo run --release --offline "$@" --bin axmc -- \
        analyze --golden "$dir/g.aag" --approx "$dir/c.aag" \
        --timeout 200ms >"$dir/out.txt" 2>"$dir/err.txt" || rc=$?
    cat "$dir/out.txt" "$dir/err.txt"
    [[ $rc -eq 10 ]] || { echo "expected exit code 10, got $rc"; exit 1; }
    grep -q "partial result" "$dir/out.txt" \
        || { echo "no partial result reported"; exit 1; }
    ! grep -q "panicked" "$dir/err.txt" || { echo "engine panicked"; exit 1; }
    (( SECONDS - start <= 10 )) \
        || { echo "interrupted run overshot its deadline"; exit 1; }
    rm -rf "$dir"
}
timeout_smoke
timeout_smoke --features proptest-tests

# Observability smoke: record a full run-dir artifact bundle, assert the
# profile report replays deterministically, check the flamegraph output
# is well-formed, and gate wall-clock against the committed baseline.
# The threshold is deliberately generous (CI machines vary wildly); the
# gate exists to catch order-of-magnitude regressions, with --min-ms
# keeping sub-noise phases out of the verdict.
obs_smoke() {
    echo "== observability smoke =="
    local dir
    dir=$(mktemp -d)
    cargo run --release --offline --bin axmc -- \
        gen --kind adder --width 10 --out "$dir/g.aag"
    cargo run --release --offline --bin axmc -- \
        gen --kind trunc-adder --width 10 --param 4 --out "$dir/c.aag"
    cargo run --release --offline --bin axmc -- \
        analyze --golden "$dir/g.aag" --approx "$dir/c.aag" \
        --average --run-dir "$dir/run"
    for f in manifest.json trace.jsonl metrics.json; do
        [[ -s "$dir/run/$f" ]] || { echo "missing run artifact $f"; exit 1; }
    done
    cargo run --release --offline --bin axmc -- \
        report --run-dir "$dir/run" --flame "$dir/flame.txt" >"$dir/report1.txt"
    cargo run --release --offline --bin axmc -- \
        report --run-dir "$dir/run" --flame "$dir/flame.txt" >"$dir/report2.txt"
    cmp "$dir/report1.txt" "$dir/report2.txt" \
        || { echo "report replay is not deterministic"; exit 1; }
    grep -q "100.0%  run" "$dir/report1.txt" \
        || { echo "profile tree has no full-coverage run root"; exit 1; }
    grep -q ";" "$dir/flame.txt" \
        || { echo "flamegraph output has no nested frame"; exit 1; }
    cargo run --release --offline --bin axmc -- \
        bench-diff --base "$dir/run" --new "$dir/run" \
        || { echo "self-diff must never regress"; exit 1; }
    cargo run --release --offline --bin axmc -- \
        bench-diff --base bench_results/ci_baseline_metrics.json \
        --new "$dir/run" --threshold 2000 --min-ms 50
    rm -rf "$dir"
}
obs_smoke

# Serve smoke: a 3-job batch (one byte-for-byte duplicate) over stdin
# must return the same verdict as single-shot analyze, answer the
# duplicate from the structural-hash cache (visible both in the batch
# summary and in the serve.cache.hit counter), and stream one JSON
# object per line. --jobs 1 keeps the duplicate a deterministic hit: with
# several workers two identical in-flight jobs can both miss (benign —
# both compute the same verdict — but not a testable guarantee).
serve_smoke() {
    echo "== serve smoke =="
    local dir
    dir=$(mktemp -d)
    cargo run --release --offline --bin axmc -- \
        gen --kind adder --width 8 --out "$dir/g.aag"
    cargo run --release --offline --bin axmc -- \
        gen --kind loa-adder --width 8 --param 4 --out "$dir/c.aag"
    cargo run --release --offline --bin axmc -- \
        analyze --golden "$dir/g.aag" --approx "$dir/c.aag" >"$dir/analyze.txt"
    local expected
    expected=$(grep "worst-case error" "$dir/analyze.txt" | grep -o '[0-9]\+' | head -1)
    {
        echo "{\"id\":\"a\",\"golden\":\"$dir/g.aag\",\"candidate\":\"$dir/c.aag\",\"metric\":\"wce\"}"
        echo "{\"id\":\"b\",\"golden\":\"$dir/g.aag\",\"candidate\":\"$dir/c.aag\",\"metric\":\"exceeds\",\"threshold\":3}"
        echo "{\"id\":\"a2\",\"golden\":\"$dir/g.aag\",\"candidate\":\"$dir/c.aag\",\"metric\":\"wce\"}"
    } | cargo run --release --offline --bin axmc -- \
        serve --jobs 1 --metrics >"$dir/serve.txt"
    grep -q "\"id\":\"a\".*\"cached\":false.*\"value\":\"$expected\"" "$dir/serve.txt" \
        || { echo "serve verdict disagrees with analyze ($expected)"; exit 1; }
    grep -q "\"id\":\"a2\".*\"cached\":true.*\"value\":\"$expected\"" "$dir/serve.txt" \
        || { echo "duplicate job was not served from the cache"; exit 1; }
    grep -q '"event":"done".*"ok":3' "$dir/serve.txt" \
        || { echo "batch summary missing or incomplete"; exit 1; }
    grep -q '"cache_hits":1' "$dir/serve.txt" \
        || { echo "batch summary shows no cache hit"; exit 1; }
    grep -q "serve.cache.hit" "$dir/serve.txt" \
        || { echo "serve.cache.hit missing from --metrics"; exit 1; }
    rm -rf "$dir"
}
serve_smoke

# Characterize smoke: sweep a 3-component import library at width 4,
# then re-run against the same table file. The second run must answer
# every component from the table (cross-process warm reuse keyed on the
# pair fingerprint + backend) without touching a solver, and the known
# worst-case error of the cut-2 truncated adder pins the metrics.
characterize_smoke() {
    echo "== characterize smoke =="
    local dir
    dir=$(mktemp -d)
    mkdir "$dir/lib"
    cargo run --release --offline --bin axmc -- \
        gen --kind trunc-adder --width 4 --param 2 --out "$dir/lib/add4_trunc2.aag"
    cargo run --release --offline --bin axmc -- \
        gen --kind loa-adder --width 4 --param 2 --out "$dir/lib/add4_loa2.aag"
    cargo run --release --offline --bin axmc -- \
        gen --kind trunc-multiplier --width 4 --param 2 --out "$dir/lib/mul4_trunc2.aag"
    cargo run --release --offline --bin axmc -- \
        characterize --library "$dir/lib" --kinds imports --width 4 \
        --out "$dir/table.jsonl" >"$dir/cold.txt"
    grep -q "characterized 3 components (0 reused, 3 computed" "$dir/cold.txt" \
        || { echo "cold sweep did not compute all 3 imports"; exit 1; }
    grep -q '"name":"add4_trunc2"' "$dir/table.jsonl" \
        || { echo "import missing from the table"; exit 1; }
    grep '"name":"add4_trunc2"' "$dir/table.jsonl" | grep -q '"wce":"6"' \
        || { echo "wrong WCE for the cut-2 truncated adder"; exit 1; }
    cargo run --release --offline --bin axmc -- \
        characterize --library "$dir/lib" --kinds imports --width 4 \
        --out "$dir/table.jsonl" >"$dir/warm.txt"
    grep -q "characterized 3 components (3 reused, 0 computed" "$dir/warm.txt" \
        || { echo "second run did not reuse the existing table"; exit 1; }
    rm -rf "$dir"
}
characterize_smoke

# Static-tier smoke: a self-pair is decidable by the abstract
# interpretation tier alone, so `--engine static` must report both
# metrics as statically decided and the --metrics table must show the
# tier's counters and *no* solver activity at all (no sat.solve/bdd
# entries). An undecided query must still exit 0 with a certified
# interval instead of guessing.
static_smoke() {
    echo "== static tier smoke =="
    local dir
    dir=$(mktemp -d)
    cargo run --release --offline --bin axmc -- \
        gen --kind adder --width 8 --out "$dir/g.aag"
    cargo run --release --offline --bin axmc -- \
        analyze --golden "$dir/g.aag" --approx "$dir/g.aag" \
        --engine static --metrics >"$dir/static.txt"
    grep -q "worst-case error.*: 0 (decided statically, no solver)" "$dir/static.txt" \
        || { echo "self-pair WCE not decided statically"; exit 1; }
    grep -q "bit-flip error.*: 0 (decided statically, no solver)" "$dir/static.txt" \
        || { echo "self-pair bit-flip not decided statically"; exit 1; }
    grep -q "absint.decided" "$dir/static.txt" \
        || { echo "absint.decided counter missing from --metrics"; exit 1; }
    grep -q "absint.reduced_nodes" "$dir/static.txt" \
        || { echo "absint.reduced_nodes counter missing from --metrics"; exit 1; }
    ! grep -Eq "sat\.solve|bdd\." "$dir/static.txt" \
        || { echo "a solver ran on a statically decided query"; exit 1; }
    cargo run --release --offline --bin axmc -- \
        gen --kind loa-adder --width 8 --param 4 --out "$dir/c.aag"
    cargo run --release --offline --bin axmc -- \
        analyze --golden "$dir/g.aag" --approx "$dir/c.aag" \
        --engine static >"$dir/undecided.txt" \
        || { echo "undecided static query must still exit 0"; exit 1; }
    grep -Eq "decided statically|certified interval" "$dir/undecided.txt" \
        || { echo "undecided query reported neither value nor interval"; exit 1; }
    rm -rf "$dir"
}
static_smoke

# Incremental-BMC smoke: the BMC depth ladder must extend one growing
# solver instead of re-encoding the unrolled miter per depth. Doubling
# the horizon of a sequential analysis must therefore scale the
# sat.vars.created metric roughly linearly (a re-encoding ladder is
# quadratic: 1+2+..+k frames instead of k). The 2.5x allowance absorbs
# the horizon-dependent threshold probes on top of the linear frames.
incremental_bmc_smoke() {
    echo "== incremental BMC smoke =="
    local dir
    dir=$(mktemp -d)
    cargo run --release --offline --bin axmc -- \
        gen --kind accumulator --width 6 --out "$dir/g.aag"
    cargo run --release --offline --bin axmc -- \
        gen --kind trunc-accumulator --width 6 --param 2 --out "$dir/c.aag"
    local v4 v8
    for h in 4 8; do
        cargo run --release --offline --bin axmc -- \
            analyze --golden "$dir/g.aag" --approx "$dir/c.aag" \
            --horizon "$h" --metrics >"$dir/out$h.txt"
    done
    v4=$(grep "sat.vars.created" "$dir/out4.txt" | grep -o '[0-9]\+' | head -1)
    v8=$(grep "sat.vars.created" "$dir/out8.txt" | grep -o '[0-9]\+' | head -1)
    [[ -n $v4 && -n $v8 && $v4 -gt 0 ]] \
        || { echo "sat.vars.created missing from --metrics"; exit 1; }
    echo "sat.vars.created: horizon 4 -> $v4, horizon 8 -> $v8"
    (( v8 * 10 <= v4 * 25 )) \
        || { echo "depth ladder re-encodes: vars grew ${v8}/${v4} (> 2.5x)"; exit 1; }
    rm -rf "$dir"
}
incremental_bmc_smoke

# Sequential-search determinism smoke: the WCE and bit-flip searches run
# on one warm engine whatever --jobs says, so the whole sequential
# effort — probe count, conflicts, solver calls, learnt clauses — must
# be identical for --jobs 1 and --jobs 2. Catches any return of a
# jobs-dependent search.
seq_determinism_smoke() {
    echo "== sequential search determinism smoke =="
    local dir
    dir=$(mktemp -d)
    cargo run --release --offline --bin axmc -- \
        gen --kind accumulator --width 6 --out "$dir/g.aag"
    cargo run --release --offline --bin axmc -- \
        gen --kind trunc-accumulator --width 6 --param 2 --out "$dir/c.aag"
    for j in 1 2; do
        cargo run --release --offline --bin axmc -- \
            analyze --golden "$dir/g.aag" --approx "$dir/c.aag" \
            --horizon 6 --metrics --jobs "$j" >"$dir/out$j.txt"
        grep -E '^(worst-case error@k|bit-flip error@k) |^  sat\.(solves|learnt) ' \
            "$dir/out$j.txt" >"$dir/effort$j.txt"
    done
    cat "$dir/effort1.txt"
    [[ $(wc -l <"$dir/effort1.txt") -eq 4 ]] \
        || { echo "search lines or solver counters missing from --metrics"; exit 1; }
    cmp "$dir/effort1.txt" "$dir/effort2.txt" \
        || { echo "sequential search effort depends on --jobs"; exit 1; }
    rm -rf "$dir"
}
seq_determinism_smoke

# Certification smoke: on the same pair, `--certify` must leave the
# worst-case and bit-flip values of the uncertified run unchanged,
# re-derive UNSAT answers with the DRAT checker (check.certified > 0),
# and close lemmas by the solver's hint chains (check.lemmas.hinted > 0),
# which shows chain capture reaches the release binary.
certify_smoke() {
    echo "== certify smoke =="
    local dir mode certified hinted
    dir=$(mktemp -d)
    cargo run --release --offline --bin axmc -- \
        gen --kind accumulator --width 6 --out "$dir/g.aag"
    cargo run --release --offline --bin axmc -- \
        gen --kind trunc-accumulator --width 6 --param 2 --out "$dir/c.aag"
    for mode in plain certify; do
        local flags=(--horizon 6 --metrics)
        [[ $mode == certify ]] && flags+=(--certify)
        cargo run --release --offline --bin axmc -- \
            analyze --golden "$dir/g.aag" --approx "$dir/c.aag" \
            "${flags[@]}" >"$dir/$mode.txt"
        grep -E '^(worst-case error@k|bit-flip error@k) ' "$dir/$mode.txt" \
            | sed 's/ (.*//' >"$dir/values_$mode.txt"
    done
    cat "$dir/values_certify.txt"
    [[ $(wc -l <"$dir/values_plain.txt") -eq 2 ]] \
        || { echo "worst-case or bit-flip line missing"; exit 1; }
    cmp "$dir/values_plain.txt" "$dir/values_certify.txt" \
        || { echo "--certify changed a reported value"; exit 1; }
    certified=$(grep -E '^  check\.certified ' "$dir/certify.txt" | grep -o '[0-9]\+' | head -1)
    hinted=$(grep -E '^  check\.lemmas\.hinted ' "$dir/certify.txt" | grep -o '[0-9]\+' | head -1)
    echo "check.certified: ${certified:-none}, check.lemmas.hinted: ${hinted:-none}"
    [[ ${certified:-0} -gt 0 ]] || { echo "no UNSAT answer was certified"; exit 1; }
    [[ ${hinted:-0} -gt 0 ]] || { echo "no lemma was closed by its hint chain"; exit 1; }
    rm -rf "$dir"
}
certify_smoke

# Sequential-values gate: the T1 harness at quick scale must reproduce
# the committed earliest, WCE@k, BF@k and G(err<=WCE)? columns of all 24
# suite rows byte for byte (the time column is left out). This is the
# one CI step that checks sequential values, mac4/* included.
t1_values_gate() {
    echo "== T1 sequential values gate =="
    local dir
    dir=$(mktemp -d)
    AXMC_METRICS=off cargo run --release --offline -p axmc-bench \
        --bin table1_sequential_errors >"$dir/t1.txt"
    awk '$1 ~ /\// { printf "%-24s %9s %9s %8s %14s\n", $1, $5, $6, $7, $8 }' \
        "$dir/t1.txt" >"$dir/values.txt"
    diff bench_results/t1_values.quick.txt "$dir/values.txt" \
        || { echo "T1 sequential values changed"; exit 1; }
    rm -rf "$dir"
}
t1_values_gate

# Combinational-values gate: the T3 harness at quick scale (about 0.1 s)
# must reproduce the committed component, WCE, BF and probes columns of
# its 13 rows byte for byte (the timing columns are left out). The
# probes column pins the effort of the combinational threshold search
# the way t1_values_gate pins the sequential values.
t3_values_gate() {
    echo "== T3 combinational values gate =="
    local dir
    dir=$(mktemp -d)
    AXMC_METRICS=off cargo run --release --offline -p axmc-bench \
        --bin table3_exactness >"$dir/t3.txt"
    awk '$1 ~ /^(add|mul)[0-9]/ { printf "%-16s %10s %8s %8s\n", $1, $3, $4, $5 }' \
        "$dir/t3.txt" >"$dir/values.txt"
    diff bench_results/t3_values.quick.txt "$dir/values.txt" \
        || { echo "T3 combinational values or probe counts changed"; exit 1; }
    rm -rf "$dir"
}
t3_values_gate

# Benchmark known-answers gate: the benchmark's own tests, then one short
# seq_bmc run. A run makes at least three whole passes, so every one of
# its 144 sequential answers (earliest, WCE@k, BF@k at k = 4 and 6, and
# the proofs) is checked against axbench/answers.tsv; the last line of
# its output must report no failed query.
axbench_answers_gate() {
    echo "== axbench answers gate =="
    local last
    run cargo test --manifest-path axbench/Cargo.toml --offline -q
    last=$(cargo run --release --offline --manifest-path axbench/Cargo.toml -- \
        --workload seq_bmc --seed 1 --seconds 1 --trace 0 | tail -n 1)
    echo "$last"
    grep -q '"failed":0' <<<"$last" \
        || { echo "seq_bmc answered a query wrongly"; exit 1; }
}
axbench_answers_gate

# Work-counter gate: one traced comb_library run. Every query builds a
# fresh BDD manager and the staged Auto schedule answers all of them on
# the BDD, so the nodes created per pass are the same on every seed and
# every run; a change in the count means the BDD kernel or the routing
# did different work. The last line must also report no failed query.
comb_counters_gate() {
    echo "== comb_library work-counter gate =="
    local last
    last=$(cargo run --release --offline --manifest-path axbench/Cargo.toml -- \
        --workload comb_library --seed 1 --seconds 1 --trace 1 | tail -n 1)
    echo "$last"
    for want in '"failed":0' \
        '"bdd.nodes.created":{"value":2079404,' \
        '"sat.solves":{"value":0,' \
        '"engine.fallback":{"value":0,'; do
        grep -qF "$want" <<<"$last" \
            || { echo "comb_library work counters changed: want $want"; exit 1; }
    done
}
comb_counters_gate

# Throughput gate for the static tier's costliest consumer: the T5
# harness (CGP evaluations/second — every candidate now passes the
# static pre-screen before a solver sees it) must not regress against
# the committed quick-scale baseline. Same generous threshold philosophy
# as the obs gate: this catches order-of-magnitude cliffs, not noise.
t5_gate() {
    echo "== T5 threshold-search bench gate =="
    local dir
    dir=$(mktemp -d)
    AXMC_METRICS_DIR="$dir" run cargo run --release --offline \
        -p axmc-bench --bin table5_evals_per_sec
    cargo run --release --offline --bin axmc -- \
        bench-diff --base bench_results/t5_baseline_metrics.quick.json \
        --new "$dir/T5_metrics.quick.json" --threshold 2000 --min-ms 50
    rm -rf "$dir"
}
t5_gate

# SAT-speed gate: the T7 harness times the raw engines (SAT vs BDD vs
# the portfolio) on every row, so a regression in the SAT hot path —
# encoding, propagation, inprocessing — shows up here even when the
# higher-level searches mask it. bench-diff exits 12 past the threshold.
t7_gate() {
    echo "== T7 multi-backend bench gate =="
    local dir
    dir=$(mktemp -d)
    AXMC_METRICS_DIR="$dir" run cargo run --release --offline \
        -p axmc-bench --bin table7_bdd_average_error
    cargo run --release --offline --bin axmc -- \
        bench-diff --base bench_results/t7_baseline_metrics.quick.json \
        --new "$dir/T7_metrics.quick.json" --threshold 2000 --min-ms 50
    rm -rf "$dir"
}
t7_gate

# Characterization-throughput gate: the T8 harness sweeps the builtin
# library cold and warm (shared in-process query cache), so both the
# per-component analysis cost and the cache replay path are timed.
# Same order-of-magnitude threshold as the other bench gates.
t8_gate() {
    echo "== T8 characterization bench gate =="
    local dir
    dir=$(mktemp -d)
    AXMC_METRICS_DIR="$dir" run cargo run --release --offline \
        -p axmc-bench --bin table8_characterize
    cargo run --release --offline --bin axmc -- \
        bench-diff --base bench_results/t8_baseline_metrics.quick.json \
        --new "$dir/T8_metrics.quick.json" --threshold 2000 --min-ms 50
    rm -rf "$dir"
}
t8_gate

# The certified-solve suite (DRAT proof logging + in-tree checker,
# including the corrupted-proof rejection paths), in both feature
# configurations.
run cargo test -q --offline --test certify
run cargo test -q --offline --test certify --features proptest-tests

run cargo test --workspace -q --offline
run cargo test --workspace -q --offline --features proptest-tests
run cargo bench -p axmc-bench --features micro-benches --offline --no-run

# Concurrency stress: loop the determinism suite and the worker-pool
# tests with varying worker counts to shake out scheduling-dependent
# bugs a single run can miss. Even iterations run with the proptest
# feature config so the suite is exercised in both configurations.
for i in $(seq 1 10); do
    jobs=$(( (i % 5) * 3 + 2 )) # 5, 8, 11, 14, 2, 5, ...
    features=()
    if (( i % 2 == 0 )); then
        features=(--features proptest-tests)
    fi
    echo "== stress $i/10 (AXMC_TEST_JOBS=$jobs ${features[*]:-default})=="
    AXMC_TEST_JOBS="$jobs" run cargo test -q --offline \
        --test determinism "${features[@]}"
    AXMC_TEST_JOBS="$jobs" run cargo test -q --offline -p axmc-par
done

echo "== CI green =="
