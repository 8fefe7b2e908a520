#![warn(missing_docs)]
//! # warpstl-obs
//!
//! Pipeline observability for the compaction toolkit: lightweight
//! hierarchical **spans** with monotonic timestamps, a **metrics registry**
//! (counters and histograms), and a **Chrome trace-event** exporter so a
//! full STL compaction renders in `about://tracing` / [Perfetto].
//!
//! The design goal is *zero cost when disabled*: every instrumentation
//! point takes an [`Obs`] handle — an `Option<&Recorder>` — and the `None`
//! path neither reads the clock nor formats a string nor touches a lock.
//! Enabled, a [`Recorder`] collects events behind one mutex; spans are
//! recorded once per scope (stage, worker, batch group), never per pattern,
//! so contention stays negligible next to gate evaluation.
//!
//! [Perfetto]: https://ui.perfetto.dev
//!
//! # Examples
//!
//! ```
//! use warpstl_obs::{Obs, ObsExt, Recorder};
//!
//! let rec = Recorder::new();
//! let obs: Obs<'_> = Some(&rec);
//! {
//!     let _outer = obs.span("stage", "stage.fsim");
//!     let _inner = obs.span("fsim", "fsim.worker").with_arg("batches", 42);
//!     obs.add("fsim.batches", 42);
//!     obs.record("fsim.batches_per_worker", 42.0);
//! }
//! let trace = rec.to_chrome_trace();
//! assert!(trace.contains("\"stage.fsim\""));
//! assert_eq!(rec.metrics().counter("fsim.batches"), 42);
//!
//! // Disabled: the same code, no recorder, no work.
//! let off: Obs<'_> = None;
//! let _s = off.span("stage", "stage.fsim");
//! off.add("fsim.batches", 42);
//! ```

mod metrics;
mod trace;

pub use metrics::{HistogramSummary, Metrics};

/// Well-known counter names shared by the crates that emit them and the
/// crates (CLI, tests) that read them back off a [`Metrics`] snapshot.
pub mod names {
    /// An artifact was served from the content-addressed store.
    pub const CACHE_HIT: &str = "cache.hit";
    /// A store lookup fell back to recomputation (all reasons).
    pub const CACHE_MISS: &str = "cache.miss";
    /// Subset of misses caused by a corrupt or truncated entry.
    pub const CACHE_MISS_CORRUPT: &str = "cache.miss.corrupt";
    /// Subset of misses caused by an entry-format version mismatch.
    pub const CACHE_MISS_VERSION: &str = "cache.miss.version";
    /// An artifact was written to the store.
    pub const CACHE_WRITE: &str = "cache.write";
    /// A store write failed at the filesystem (entry simply absent).
    pub const CACHE_WRITE_ERROR: &str = "cache.write.error";
    /// A serve job was accepted onto the queue.
    pub const SERVE_ACCEPTED: &str = "serve.accepted";
    /// A serve job completed and its response was written.
    pub const SERVE_COMPLETED: &str = "serve.completed";
    /// A serve job failed (bad request or compaction failure).
    pub const SERVE_FAILED: &str = "serve.failed";
    /// A serve job was rejected with 429 because the queue was full.
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// One campaign matrix cell ran (span name; counters below tally it).
    pub const CAMPAIGN_CELL: &str = "campaign.cell";
    /// A campaign cell completed with at least one artifact-store hit.
    pub const CAMPAIGN_HIT: &str = "campaign.hit";
    /// A campaign cell completed without a single artifact-store hit.
    pub const CAMPAIGN_MISS: &str = "campaign.miss";
    /// A campaign cell failed (bad request or compaction failure).
    pub const CAMPAIGN_FAILED: &str = "campaign.failed";
    /// Faults of a compacted program's standalone detected set settled by
    /// a witness row — a row that detected them in the original and that
    /// the compacted program still applies — without a fault simulation.
    pub const EVAL_WITNESSED: &str = "eval.witnessed";
    /// Faults the compacted program's standalone fault simulation
    /// targeted: those no witness row settled.
    pub const EVAL_RESIMULATED: &str = "eval.resimulated";

    /// Span: one fault-engine pass (a per-instance run, a lock-step union
    /// pass or a detection pass), counted under [`FSIM_RUNS`].
    pub const FSIM_RUN: &str = "fsim.run";
    /// Span: one engine worker's share of a run's fault batches.
    pub const FSIM_WORKER: &str = "fsim.worker";
    /// Span: a worker's good-machine evaluation and fault loop.
    pub const FSIM_KERNEL: &str = "fsim.kernel";
    /// Fault-engine passes: each per-instance run, lock-step union pass
    /// ([`FSIM_UNION_RUNS`]) and detection pass ([`FSIM_DETECT_RUNS`])
    /// counts one.
    pub const FSIM_RUNS: &str = "fsim.runs";
    /// Passes on the levelized kernel (every pass: it is the only path).
    pub const FSIM_KERNEL_RUNS: &str = "fsim.kernel.runs";
    /// Rows the passes walked: a per-instance run's stream, a union's
    /// U-rows, a detection pass's first-occurrence rows.
    pub const FSIM_PATTERNS: &str = "fsim.patterns";
    /// Target faults handed to the workers, summed over every window of
    /// every pass.
    pub const FSIM_TARGET_FAULTS: &str = "fsim.target_faults";
    /// Workers the target lists were spread over, summed.
    pub const FSIM_WORKERS: &str = "fsim.workers";
    /// Histogram: 63-fault batches per worker.
    pub const FSIM_BATCHES_PER_WORKER: &str = "fsim.batches_per_worker";
    /// 63-fault batches the workers simulated.
    pub const FSIM_BATCHES: &str = "fsim.batches";
    /// Good-machine blocks the workers evaluated.
    pub const FSIM_KERNEL_BLOCKS: &str = "fsim.kernel.blocks";
    /// (fault, block) pairs whose difference frontier was propagated:
    /// blocks screened out as inactive are not counted.
    pub const FSIM_KERNEL_FAULT_BLOCKS: &str = "fsim.kernel.fault_blocks";
    /// Gate evaluations of propagated difference frontiers.
    pub const FSIM_KERNEL_CONE_GATES: &str = "fsim.kernel.cone_gates";
    /// Windows of the engine's one schedule, summed over every pass; drop
    /// mode re-packs its survivors between them.
    pub const FSIM_REPACK_SEGMENTS: &str = "fsim.repack_segments";
    /// Target classes a pass pruned as statically proven untestable.
    pub const FSIM_UNTESTABLE_PRUNED: &str = "fsim.untestable_pruned";
    /// Detections the Fault Sim Reports counted.
    pub const FSIM_DETECTIONS: &str = "fsim.detections";
    /// (fault, pattern) activations the Fault Sim Reports tallied.
    pub const FSIM_ACTIVATIONS: &str = "fsim.activations";
    /// Lock-step union passes of stage 3a: one drop-mode simulation over
    /// the distinct rows a module's instances apply at each pattern
    /// position, which settles and tallies every instance's report.
    pub const FSIM_UNION_RUNS: &str = "fsim.union.runs";
    /// Rows the union passes simulated (|U|, summed).
    pub const FSIM_UNION_ROWS: &str = "fsim.union.rows";
    /// Rows of the instance streams the union passes covered (Σ len,
    /// summed): `fsim.union.rows` over this is the share left to simulate.
    pub const FSIM_UNION_INSTANCE_ROWS: &str = "fsim.union.instance_rows";
    /// Detection passes: one report-free drop-mode simulation over the
    /// rows a module's instances apply first, which settles only their
    /// detected sets (the standalone evaluation's runs).
    pub const FSIM_DETECT_RUNS: &str = "fsim.detect.runs";
    /// Rows the detection passes simulated (|U′|, summed).
    pub const FSIM_DETECT_ROWS: &str = "fsim.detect.rows";
}

use std::collections::BTreeMap;
use std::thread::ThreadId;
use std::time::Instant;
use warpstl_sync::Mutex;

/// The handle instrumented code passes around: `Some` records into the
/// [`Recorder`], `None` is a guaranteed no-op (no clock reads, no locks,
/// no allocation).
pub type Obs<'a> = Option<&'a Recorder>;

/// One completed span, in recorder-epoch microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Event name (e.g. `stage.fsim`, `fsim.worker`).
    pub name: String,
    /// Trace category (groups related spans in viewers).
    pub cat: &'static str,
    /// The OS thread the span ran on.
    pub thread: ThreadId,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Key/value annotations shown in the trace viewer.
    pub args: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanEvent>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

/// The event sink: collects spans and metrics from every thread of a run.
///
/// Create one per traced invocation, share it by reference (it is `Sync`),
/// and export with [`Recorder::to_chrome_trace`] / [`Recorder::metrics`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder whose epoch (trace time zero) is now.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Adds `n` to the counter `name` (created at zero on first use).
    pub fn add(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock();
        match inner.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                inner.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn record(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                inner
                    .histograms
                    .insert(name.to_string(), HistogramSummary::of(value));
            }
        }
    }

    /// Merges a whole [`Metrics`] snapshot into the registry (used by
    /// workers that accumulate locally and flush once).
    pub fn merge_metrics(&self, m: &Metrics) {
        let mut inner = self.inner.lock();
        for (k, &v) in &m.counters {
            match inner.counters.get_mut(k) {
                Some(c) => *c += v,
                None => {
                    inner.counters.insert(k.clone(), v);
                }
            }
        }
        for (k, h) in &m.histograms {
            match inner.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    inner.histograms.insert(k.clone(), *h);
                }
            }
        }
    }

    /// A snapshot of every counter and histogram recorded so far.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let inner = self.inner.lock();
        Metrics {
            counters: inner.counters.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// The completed spans recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.inner.lock().spans.clone()
    }

    fn push_span(&self, ev: SpanEvent) {
        self.inner.lock().spans.push(ev);
    }
}

/// An open span; records a [`SpanEvent`] into its recorder on drop.
///
/// Obtained from [`ObsExt::span`]. When the handle was `None` the guard is
/// inert: construction read no clock and drop does nothing.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span<'a> {
    rec: Option<&'a Recorder>,
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    args: Vec<(String, String)>,
}

impl<'a> Span<'a> {
    /// Attaches a key/value annotation (no-op on an inert span, and the
    /// value is only formatted when recording is live).
    pub fn with_arg(mut self, key: &str, value: impl std::fmt::Display) -> Span<'a> {
        if self.rec.is_some() {
            self.args.push((key.to_string(), value.to_string()));
        }
        self
    }

    /// Like [`Span::with_arg`] for use through a `&mut` borrow.
    pub fn arg(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.rec.is_some() {
            self.args.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            let end = rec.now_us();
            rec.push_span(SpanEvent {
                name: self.name.to_string(),
                cat: self.cat,
                thread: std::thread::current().id(),
                start_us: self.start_us,
                dur_us: end.saturating_sub(self.start_us),
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

/// The instrumentation surface on [`Obs`] handles.
pub trait ObsExt<'a> {
    /// Opens a span named `name` under category `cat`; the returned guard
    /// records the span when it drops. Inert when the handle is `None`.
    fn span(&self, cat: &'static str, name: &'static str) -> Span<'a>;

    /// Adds `n` to counter `name`. No-op when the handle is `None`.
    fn add(&self, name: &str, n: u64);

    /// Records `value` into histogram `name`. No-op when `None`.
    fn record(&self, name: &str, value: f64);

    /// Whether recording is live (callers can skip building expensive
    /// annotations when it is not).
    fn enabled(&self) -> bool;
}

impl<'a> ObsExt<'a> for Obs<'a> {
    fn span(&self, cat: &'static str, name: &'static str) -> Span<'a> {
        match self {
            Some(rec) => Span {
                rec: Some(rec),
                name,
                cat,
                start_us: rec.now_us(),
                args: Vec::new(),
            },
            None => Span {
                rec: None,
                name,
                cat,
                start_us: 0,
                args: Vec::new(),
            },
        }
    }

    fn add(&self, name: &str, n: u64) {
        if let Some(rec) = self {
            rec.add(name, n);
        }
    }

    fn record(&self, name: &str, value: f64) {
        if let Some(rec) = self {
            rec.record(name, value);
        }
    }

    fn enabled(&self) -> bool {
        self.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_on_drop() {
        let rec = Recorder::new();
        let obs: Obs<'_> = Some(&rec);
        {
            let _outer = obs.span("stage", "outer");
            let _inner = obs.span("stage", "inner").with_arg("k", 7);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        // Inner drops first (LIFO), so it is recorded first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].args, vec![("k".to_string(), "7".to_string())]);
        assert_eq!(spans[1].name, "outer");
        assert!(spans[1].start_us <= spans[0].start_us);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let obs: Obs<'_> = None;
        assert!(!obs.enabled());
        let _s = obs.span("stage", "ghost").with_arg("k", 1);
        obs.add("c", 5);
        obs.record("h", 1.0);
        // Nothing to assert against — the point is it compiles to no-ops
        // and panics nowhere.
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::new();
        let obs: Obs<'_> = Some(&rec);
        obs.add("c", 2);
        obs.add("c", 3);
        obs.record("h", 1.0);
        obs.record("h", 3.0);
        let m = rec.metrics();
        assert_eq!(m.counter("c"), 5);
        let h = m.histograms.get("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    let obs: Obs<'_> = Some(rec);
                    let _sp = obs.span("w", "worker").with_arg("i", i);
                    obs.add("work", 1);
                });
            }
        });
        assert_eq!(rec.metrics().counter("work"), 4);
        assert_eq!(rec.spans().len(), 4);
        // Spans from distinct OS threads carry distinct thread ids.
        let tids: std::collections::HashSet<_> = rec.spans().iter().map(|s| s.thread).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn merge_metrics_folds_worker_buffers() {
        let rec = Recorder::new();
        let mut local = Metrics::default();
        local.add("c", 10);
        local.observe("h", 2.0);
        rec.merge_metrics(&local);
        rec.merge_metrics(&local);
        let m = rec.metrics();
        assert_eq!(m.counter("c"), 20);
        assert_eq!(m.histograms["h"].count, 2);
    }
}
