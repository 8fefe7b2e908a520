//! The per-layer ledger: folds a traced run's spans and counters into one
//! number per layer metric.
//!
//! Spans come from two sources on one [`Recorder`](warpstl_obs::Recorder):
//! the benchmark's own spans around each public call it makes (category
//! `bench`), and the `stage.*`, `fsim.*`, `store.*` spans the program
//! already records when a recorder is attached. A layer's *self* time is
//! its span's duration minus the part of that interval its child spans
//! cover; children are found by time containment, across threads, since
//! fault-simulation workers run on threads of their own.

use std::collections::BTreeMap;

use warpstl_obs::{Metrics, SpanEvent};

/// `(name, unit, better)` of every per-layer metric, in print order.
pub const LAYER_METRICS: [(&str, &str, &str); 43] = [
    ("gpu.trace_s", "s", "lower"),
    ("gpu.cycles", "count", "lower"),
    ("gpu.cycles_per_s", "1/s", "higher"),
    ("core.eval_s", "s", "lower"),
    ("core.eval_self_s", "s", "lower"),
    ("core.label_s", "s", "lower"),
    ("core.reduce_s", "s", "lower"),
    ("core.compact_self_s", "s", "lower"),
    ("core.essential", "count", "lower"),
    ("core.sbs_removed", "count", "higher"),
    ("verify.reduction_s", "s", "lower"),
    ("fault.fsim_s", "s", "lower"),
    ("fault.eval_fsim_s", "s", "lower"),
    ("fault.runs", "count", "lower"),
    ("fault.patterns", "count", "lower"),
    ("fault.target_faults", "count", "lower"),
    ("fault.kernel_fault_blocks", "count", "lower"),
    ("fault.cone_gates", "count", "lower"),
    ("fault.cone_gates_per_s", "1/s", "higher"),
    ("fault.worker_util", "ratio", "higher"),
    ("fault.dominance_inherited", "count", "higher"),
    ("fault.repack_segments", "count", "lower"),
    ("fault.bridge_share_pct", "%", "lower"),
    ("fault.bridge_targets", "count", "lower"),
    ("fault.universe_s", "s", "lower"),
    ("analyze.gate_s", "s", "lower"),
    ("analyze.run_s", "s", "lower"),
    ("analyze.untestable", "count", "higher"),
    ("netlist.build_s", "s", "lower"),
    ("netlist.levelize_s", "s", "lower"),
    ("store.read_share_pct", "%", "lower"),
    ("store.replay_share_pct", "%", "lower"),
    ("store.open_share_pct", "%", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.write_share_pct", "%", "lower"),
    ("store.writes", "count", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("programs.parse_s", "s", "lower"),
    ("programs.print_s", "s", "lower"),
    ("obs.overhead_pct", "%", "lower"),
    ("obs.spans", "count", "lower"),
];

/// A half-open interval of recorder time, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Start, µs since the recorder's epoch.
    pub start_us: u64,
    /// End, µs since the recorder's epoch.
    pub end_us: u64,
}

impl Window {
    /// The window a span covers.
    #[must_use]
    pub fn of(span: &SpanEvent) -> Window {
        Window {
            start_us: span.start_us,
            end_us: span.start_us + span.dur_us,
        }
    }

    fn contains(&self, s: &SpanEvent) -> bool {
        s.start_us >= self.start_us && s.start_us + s.dur_us <= self.end_us
    }

    /// Length in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) as f64 * 1e-6
    }
}

/// Total length of the union of `intervals`, in µs.
fn union_us(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// The spans of one window, with the queries the ledger needs.
pub struct SpanSet<'a> {
    spans: Vec<&'a SpanEvent>,
}

impl<'a> SpanSet<'a> {
    /// The spans lying wholly inside `window`.
    #[must_use]
    pub fn new(all: &'a [SpanEvent], window: Window) -> SpanSet<'a> {
        SpanSet {
            spans: all.iter().filter(|s| window.contains(s)).collect(),
        }
    }

    /// Number of spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the spans called `name`, in seconds.
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<u64>() as f64
            * 1e-6
    }

    /// Wall time covered by any span called `name` (overlaps, such as
    /// concurrent instances, count once), in seconds.
    #[must_use]
    pub fn union(&self, name: &str) -> f64 {
        union_us(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.start_us, s.start_us + s.dur_us))
                .collect(),
        ) as f64
            * 1e-6
    }

    /// Summed over the spans called `parent`: the part of each one's
    /// interval covered by spans matching `child`, in seconds.
    #[must_use]
    pub fn covered(&self, parent: &str, child: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|p| p.name == parent)
            .map(|p| {
                let w = Window::of(p);
                union_us(
                    self.spans
                        .iter()
                        .filter(|c| !std::ptr::eq(**c, *p) && child(&c.name) && w.contains(c))
                        .map(|c| (c.start_us, c.start_us + c.dur_us))
                        .collect(),
                )
            })
            .sum::<u64>() as f64
            * 1e-6
    }

    /// Busy time of the fault engine's workers over the time they could
    /// have been busy: each `fsim.worker` belongs to the `fsim.run` that
    /// contains it on its own thread (workers run inline when an instance
    /// has one thread) or else to the smallest one containing it (workers
    /// spawned by a run); a run offers its peak number of concurrent
    /// workers times its duration.
    #[must_use]
    pub fn worker_util(&self) -> f64 {
        let runs: Vec<&SpanEvent> = self
            .spans
            .iter()
            .copied()
            .filter(|s| s.name == "fsim.run")
            .collect();
        let mut owned: Vec<Vec<(u64, u64)>> = vec![Vec::new(); runs.len()];
        for w in self.spans.iter().filter(|s| s.name == "fsim.worker") {
            let containing = || {
                runs.iter()
                    .enumerate()
                    .filter(|(_, r)| Window::of(r).contains(w))
            };
            let owner = containing()
                .find(|(_, r)| r.thread == w.thread)
                .or_else(|| containing().min_by_key(|(_, r)| r.dur_us));
            if let Some((i, _)) = owner {
                owned[i].push((w.start_us, w.start_us + w.dur_us));
            }
        }
        let (mut busy, mut offered) = (0u64, 0u64);
        for (run, workers) in runs.iter().zip(&owned) {
            let mut edges: Vec<(u64, i64)> = workers
                .iter()
                .flat_map(|&(s, e)| [(s, 1), (e, -1)])
                .collect();
            edges.sort_unstable();
            let peak = edges
                .iter()
                .scan(0i64, |live, &(_, d)| {
                    *live += d;
                    Some(*live)
                })
                .max()
                .unwrap_or(0);
            busy += workers.iter().map(|&(s, e)| e - s).sum::<u64>();
            offered += u64::try_from(peak).unwrap_or(0) * run.dur_us;
        }
        if offered == 0 {
            0.0
        } else {
            busy as f64 / offered as f64
        }
    }
}

/// Per-pass layer values of one traced pass.
///
/// `m` is the counter delta of the pass and `cycles` the simulated cycles
/// of the pass's original PTPs.
#[must_use]
pub fn fold_pass(
    spans: &SpanSet<'_>,
    pass: Window,
    m: &Metrics,
    cycles: u64,
) -> BTreeMap<&'static str, f64> {
    let c = |name: &str| m.counter(name) as f64;
    let share = |secs: f64| 100.0 * secs / pass.secs();
    let per_s = |n: f64, secs: f64| if secs > 0.0 { n / secs } else { 0.0 };
    let trace_s = spans.sum("stage.trace");
    let eval_s = spans.sum("stage.eval");
    let eval_fsim_s = spans.covered("stage.eval", |n| n == "pipeline.instances");
    let fsim_run_s = spans.union("fsim.run");
    let cone_gates = c("fsim.kernel.cone_gates") + c("fsim.cone_gates");
    let (hits, misses) = (c("cache.hit"), c("cache.miss"));
    let mut v = BTreeMap::new();
    v.insert("gpu.trace_s", trace_s);
    v.insert("gpu.cycles", cycles as f64);
    v.insert("gpu.cycles_per_s", per_s(cycles as f64, trace_s));
    v.insert("core.eval_s", eval_s);
    v.insert("core.eval_self_s", eval_s - eval_fsim_s);
    v.insert("core.label_s", spans.sum("stage.label"));
    v.insert("core.reduce_s", spans.sum("stage.reduce"));
    v.insert(
        "core.compact_self_s",
        spans.sum("compact") - spans.covered("compact", |n| n.starts_with("stage.")),
    );
    v.insert("core.essential", c("label.essential"));
    v.insert("core.sbs_removed", c("reduce.sbs_removed"));
    v.insert("verify.reduction_s", spans.sum("verify.reduction"));
    v.insert("fault.fsim_s", spans.sum("stage.fsim"));
    v.insert("fault.eval_fsim_s", eval_fsim_s);
    v.insert("fault.runs", c("fsim.runs") + c("fsim.bridge.runs"));
    v.insert("fault.patterns", c("fsim.patterns"));
    v.insert("fault.target_faults", c("fsim.target_faults"));
    v.insert("fault.kernel_fault_blocks", c("fsim.kernel.fault_blocks"));
    v.insert("fault.cone_gates", cone_gates);
    v.insert("fault.cone_gates_per_s", per_s(cone_gates, fsim_run_s));
    v.insert("fault.worker_util", spans.worker_util());
    v.insert("fault.dominance_inherited", c("fsim.dominance_inherited"));
    v.insert("fault.repack_segments", c("fsim.repack_segments"));
    v.insert(
        "fault.bridge_share_pct",
        share(spans.union("fsim.bridge.run")),
    );
    v.insert("fault.bridge_targets", c("fsim.bridge.targets"));
    v.insert("analyze.gate_s", spans.sum("stage.analyze"));
    v.insert("store.read_share_pct", share(spans.union("store.read")));
    v.insert("store.replay_share_pct", share(spans.union("store.replay")));
    v.insert("store.open_share_pct", share(spans.sum("Store::open")));
    v.insert("store.hits", hits);
    v.insert("store.misses", misses);
    v.insert("store.hit_ratio", per_s(hits, hits + misses));
    v.insert("obs.spans", spans.len() as f64);
    v
}

/// Layer values of the set-up calls (`trace_layers` and input handling),
/// summed over the set-up window.
#[must_use]
pub fn fold_setup(spans: &SpanSet<'_>, untestable: usize) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    v.insert("netlist.build_s", spans.sum("ModuleKind::build"));
    v.insert("netlist.levelize_s", spans.sum("Netlist::levelize"));
    v.insert(
        "fault.universe_s",
        spans.sum("FaultUniverse::enumerate")
            + spans.sum("FaultUniverse::dominance")
            + spans.sum("BridgeUniverse::sample"),
    );
    v.insert("analyze.run_s", spans.sum("warpstl_analyze::analyze"));
    v.insert("analyze.untestable", untestable as f64);
    v.insert("programs.parse_s", spans.sum("stl_from_text"));
    v.insert("programs.print_s", spans.sum("stl_to_text"));
    v
}

/// Store write-path values of the cold passes (`cold` holds their
/// windows; empty outside the store workload), with the last cold pass's
/// write count and the store directory's size after it.
#[must_use]
pub fn fold_cold(
    spans: &[SpanEvent],
    cold: &[Window],
    writes: u64,
    bytes: u64,
) -> BTreeMap<&'static str, f64> {
    let shares: Vec<f64> = cold
        .iter()
        .map(|&w| 100.0 * SpanSet::new(spans, w).union("store.write") / w.secs())
        .collect();
    let mut v = BTreeMap::new();
    v.insert(
        "store.write_share_pct",
        shares.iter().sum::<f64>() / shares.len().max(1) as f64,
    );
    v.insert("store.writes", writes as f64);
    v.insert("store.bytes", bytes as f64);
    v
}

/// Element-wise mean of per-pass values.
#[must_use]
pub fn mean(passes: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for p in passes {
        for (k, v) in p {
            *out.entry(k).or_insert(0.0) += v / passes.len() as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat: "t",
            thread: std::thread::current().id(),
            start_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn union_merges_overlaps_once() {
        assert_eq!(union_us(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_us(vec![(3, 4)]), 1);
        assert_eq!(union_us(Vec::new()), 0);
    }

    #[test]
    fn self_time_subtracts_concurrent_children_once() {
        // An eval span of 100 µs whose two concurrent fault-sim instances
        // overlap: they cover 40 µs of it, so its self time is 60 µs.
        let spans = vec![
            span("pipeline.instances", 10, 30),
            span("pipeline.instances", 20, 30),
            span("stage.eval", 0, 100),
            span("pipeline.instances", 200, 50),
        ];
        let set = SpanSet::new(
            &spans,
            Window {
                start_us: 0,
                end_us: 150,
            },
        );
        assert_eq!(set.len(), 3);
        let covered = set.covered("stage.eval", |n| n == "pipeline.instances");
        assert!((covered - 40e-6).abs() < 1e-12);
        assert!((set.sum("stage.eval") - 100e-6).abs() < 1e-12);
        assert!((set.union("pipeline.instances") - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn worker_util_charges_each_run_its_peak_concurrency() {
        let main = std::thread::current().id();
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let on = |name: &str, thread, start_us, dur_us| SpanEvent {
            thread,
            ..span(name, start_us, dur_us)
        };
        let spans = vec![
            // A run spawning two workers: one busy throughout, one half.
            on("fsim.run", main, 0, 100),
            on("fsim.worker", other, 0, 100),
            on("fsim.worker", other, 0, 50),
            // A run with one inline worker busy for 90 of its 100 µs.
            on("fsim.run", other, 200, 100),
            on("fsim.worker", other, 205, 90),
        ];
        let set = SpanSet::new(
            &spans,
            Window {
                start_us: 0,
                end_us: 400,
            },
        );
        // (100 + 50 + 90) busy over (2·100 + 1·100) offered.
        assert!((set.worker_util() - 240.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn fold_reports_every_pass_metric() {
        let spans = vec![span("stage.trace", 0, 500), span("compact", 0, 1000)];
        let set = SpanSet::new(
            &spans,
            Window {
                start_us: 0,
                end_us: 1000,
            },
        );
        let pass = fold_pass(
            &set,
            Window {
                start_us: 0,
                end_us: 1000,
            },
            &Metrics::default(),
            50,
        );
        let setup = fold_setup(&set, 3);
        let cold = fold_cold(&spans, &[], 0, 0);
        for (name, _, _) in LAYER_METRICS {
            let folded = [&pass, &setup, &cold].iter().any(|m| m.contains_key(name));
            // The tracing overhead compares pass times, not spans.
            assert_eq!(folded, name != "obs.overhead_pct", "{name}");
        }
        assert_eq!(cold["store.write_share_pct"], 0.0);
        assert!((pass["gpu.cycles_per_s"] - 100_000.0).abs() < 1e-6);
        assert!((pass["core.compact_self_s"] - 500e-6).abs() < 1e-12);
    }
}
