//! Traced runs: span capture, per-layer self time, the layer table and
//! the per-layer metrics.
//!
//! A traced pass turns `axmc-obs` on and installs [`SpanSink`], so every
//! in-program span and every benchmark root span (one per operation,
//! opened by the workload around its call into the program) lands in one
//! call tree. A span's self time is its duration minus the union of the
//! intervals its children cover; each span name belongs to one layer.

use axmc_obs::profile::Profile;
use axmc_obs::{Event, Sink, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Root span the workloads open around each query call into `axmc-core`.
pub const ROOT_CORE: &str = "bench.core.query";
/// Root span around each `axmc_cgp::evolve` call.
pub const ROOT_CGP: &str = "bench.cgp.evolve";
/// Root span around each `Server::run_batch` call.
pub const ROOT_SERVE: &str = "bench.serve.batch";

/// Keeps the `span.start`/`span.end` events of a traced pass and drops
/// every other event.
#[derive(Default)]
pub struct SpanSink {
    events: Mutex<Vec<Event>>,
}

impl Sink for SpanSink {
    fn emit(&self, event: &Event) {
        if event.kind.starts_with("span.") {
            self.events
                .lock()
                .expect("span sink poisoned")
                .push(event.clone());
        }
    }
}

/// Everything one or more traced passes recorded.
#[derive(Default)]
pub struct Capture {
    events: Vec<Event>,
    /// Metrics registry contents after the passes.
    pub snapshot: Snapshot,
}

/// Runs `f` with instrumentation on and spans captured, then turns
/// instrumentation off again. The registry is cleared first, so the
/// snapshot holds exactly what `f` recorded.
pub fn capture<R>(into: &mut Capture, f: impl FnOnce() -> R) -> R {
    let sink = Arc::new(SpanSink::default());
    axmc_obs::reset();
    axmc_obs::set_enabled(true);
    axmc_obs::set_sink(sink.clone());
    let out = f();
    axmc_obs::clear_sink();
    axmc_obs::set_enabled(false);
    let mut snapshot = axmc_obs::snapshot();
    axmc_obs::reset();
    snapshot.merge(&into.snapshot);
    into.snapshot = snapshot;
    into.events
        .append(&mut sink.events.lock().expect("span sink poisoned"));
    out
}

/// The layer a span's self time belongs to. The benchmark's root spans
/// file under `unspanned`: their self time is time inside a public call
/// that no in-program span covers.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        ROOT_CORE | ROOT_CGP | ROOT_SERVE => "unspanned",
        "sat.solve.time_us" | "sat.inprocess.time_us" => "sat",
        "bmc.check.time_us" | "induction.round.time_us" | "mc.frame.encode_us" => "mc",
        "engine.bdd.time_us" => "bdd",
        "absint.analyze_us" | "absint.sweep_us" => "absint",
        "check.certify.time_us" => "check",
        "cgp.generation.time_us" | "cgp.verify.time_us" => "cgp",
        "serve.job" => "serve",
        // engine.sat.time_us: the SAT engine branch of the analyzers, whose
        // own time is bound search, miter build and Tseitin encoding.
        _ => "core",
    }
}

/// The layers a span can map to, in the order of a query's path.
pub const LAYERS: [&str; 9] = [
    "serve",
    "cgp",
    "core",
    "absint",
    "mc",
    "sat",
    "bdd",
    "check",
    "unspanned",
];

/// Self time of every span, keyed by (layer, span name).
pub fn self_times(profile: &Profile) -> BTreeMap<(&'static str, String), u64> {
    let mut out = BTreeMap::new();
    for span in &profile.spans {
        let children = span.children.iter().map(|&c| {
            (
                profile.spans[c].start_us,
                profile.spans[c].start_us + profile.spans[c].dur_us,
            )
        });
        let own = span.dur_us - covered(span.start_us, span.start_us + span.dur_us, children);
        *out.entry((layer_of(&span.name), span.name.clone()))
            .or_insert(0) += own;
    }
    out
}

/// Length of the union of `intervals` (sorted by start) clipped to
/// `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// The per-layer view of a traced run.
pub struct LayerTable {
    /// Self time per layer, µs per pass, in [`LAYERS`] order.
    pub rows: Vec<(&'static str, f64, Vec<String>)>,
    /// Share of the traced time that in-program spans account for.
    pub coverage: f64,
}

impl Capture {
    /// Builds the layer table, normalising times to one pass.
    pub fn layer_table(&self, passes: usize) -> LayerTable {
        let profile = Profile::from_events(self.events.iter().cloned());
        let times = self_times(&profile);
        let per_pass = |us: u64| us as f64 / passes.max(1) as f64;
        let total: u64 = times.values().sum();
        let unspanned: u64 = times
            .iter()
            .filter(|((layer, _), _)| *layer == "unspanned")
            .map(|(_, us)| us)
            .sum();
        let rows = LAYERS
            .iter()
            .map(|&layer| {
                let mut names = Vec::new();
                let mut us = 0;
                for ((l, name), t) in &times {
                    if *l == layer {
                        names.push(name.clone());
                        us += t;
                    }
                }
                (layer, per_pass(us), names)
            })
            .collect();
        LayerTable {
            rows,
            coverage: if total == 0 {
                0.0
            } else {
                (total - unspanned) as f64 / total as f64
            },
        }
    }

    /// A counter's value per pass.
    pub fn counter(&self, name: &str, passes: usize) -> f64 {
        self.snapshot.counters.get(name).copied().unwrap_or(0) as f64 / passes.max(1) as f64
    }

    /// A histogram's sample sum per pass.
    pub fn hist_sum(&self, name: &str, passes: usize) -> f64 {
        self.snapshot.histograms.get(name).map_or(0, |h| h.sum) as f64 / passes.max(1) as f64
    }

    /// A gauge's value (gauges keep their high-water mark).
    pub fn gauge(&self, name: &str) -> f64 {
        self.snapshot.gauges.get(name).copied().unwrap_or(0) as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: u64, name: &str, t: u64) -> Event {
        Event::new("span.start")
            .field("name", name)
            .field("span", id)
            .field("parent", parent)
            .field("worker", 0u64)
            .field("t_us", t)
    }

    fn end(id: u64, t: u64, dur: u64) -> Event {
        Event::new("span.end")
            .field("span", id)
            .field("t_us", t)
            .field("dur_us", dur)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A root query of 100 µs with two overlapping solver spans on two
        // workers (10..50 and 30..70): the union covers 60 µs.
        let p = Profile::from_events(vec![
            start(1, 0, ROOT_CORE, 0),
            start(2, 1, "sat.solve.time_us", 10),
            start(3, 1, "sat.solve.time_us", 30),
            end(2, 50, 40),
            end(3, 70, 40),
            end(1, 100, 100),
        ]);
        let t = self_times(&p);
        assert_eq!(t[&("unspanned", ROOT_CORE.to_string())], 40);
        assert_eq!(t[&("sat", "sat.solve.time_us".to_string())], 80);
    }

    #[test]
    fn coverage_is_the_spanned_share() {
        let c = Capture {
            events: vec![
                start(1, 0, ROOT_CGP, 0),
                start(2, 1, "cgp.generation.time_us", 0),
                start(3, 2, "sat.solve.time_us", 10),
                end(3, 40, 30),
                end(2, 75, 75),
                end(1, 100, 100),
            ],
            ..Capture::default()
        };
        let table = c.layer_table(2);
        assert_eq!(table.coverage, 0.75);
        // 100 µs over two passes.
        let row = |name: &str| table.rows.iter().find(|r| r.0 == name).unwrap().1;
        assert_eq!(row("cgp"), 22.5);
        assert_eq!(row("sat"), 15.0);
        assert_eq!(row("unspanned"), 12.5);
    }

    #[test]
    fn covered_clips_and_merges() {
        assert_eq!(covered(0, 10, [(2, 4), (3, 6), (8, 20)].into_iter()), 6);
        assert_eq!(covered(5, 10, [(0, 3)].into_iter()), 0);
    }
}
