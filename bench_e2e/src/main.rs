//! # bench_e2e — the end-to-end benchmark of warpstl
//!
//! Runs the paper's compaction flows as a user runs them, measures what a
//! user of the system sees (wall time per flow, set-up time, memory, and
//! the fault coverage the compacted programs keep), checks the outputs,
//! and — in a separate traced run — splits the time by layer.
//!
//! ## Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload du_paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! - `--workload NAME`: one workload per process. Without it, every
//!   workload runs, each in a child process of its own.
//! - `--seed N` (default 1): the inputs are generated from it before any
//!   timing starts. Seed 1 is the default; seed 1000003 is held out for
//!   confirming later claims.
//! - `--seconds S` (default 20, `run_seconds` of `BENCHMARK.json`): how
//!   long the timed loop runs. It runs whole passes, at least three.
//! - `--trace 0|1`: with 1, timed passes alternate between untraced and
//!   traced, the last output line carries the per-layer metrics instead of
//!   the end-to-end ones, and the run's Chrome trace (load it in
//!   `about://tracing` or Perfetto) is written to
//!   `bench_e2e/out/trace/<workload>.json`.
//! - `--quick`: tiny inputs (divisor 512, 16 bridge pairs) and one pass of
//!   each kind; the smoke test uses it.
//! - `--compare BASE NEW`: compares two run sets (see below) and prints
//!   one row per workload × end-to-end metric.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value",
//! "unit"}}}`. `attempted` counts PTP compactions, `failed` the ones that
//! failed. The process exits nonzero when a correctness check fails.
//!
//! `bash bench_e2e/runset.sh OUT.jsonl` runs every workload on seeds 1–10
//! and writes a run set, each line tagged with the seed, `host_cores` and
//! the git rev; `results/` holds the committed ones.
//!
//! ## Load
//!
//! A closed loop with one caller: each workload process runs its flow
//! pass after pass, the next pass starting when the previous one returns.
//! The fault engine runs `nproc` worker threads; nothing else runs.
//!
//! ## Workloads
//!
//! | workload    | flow | why |
//! |-------------|------|-----|
//! | `du_paper`  | Table II's DU group IMM→MEM→CNTRL at paper scale (divisor 1, ~59 k instructions, CNTRL at 1024 threads), stuck-at, no store | logic tracing is most of a pass and fault simulation a small part, so the GPU model layer dominates |
//! | `fu_table3` | TPGEN→RAND on the 8 SP-core lists, SFU_IMM with reversed patterns on the 2 SFU lists, divisor 32 | fault simulation (the method's one run plus the two standalone evaluation runs per PTP) is nearly the whole pass, and the 8-list instance threading matters |
//! | `bridging`  | IMM+MEM on the DU, RAND on the SP cores, SFU_IMM on the SFUs, divisor 32, bridging faults, 512 pairs | nearly all time is in the separate, unthreaded bridge simulators; stuck-at changes should not move it |
//! | `stl_warm`  | the six-PTP STL at divisor 64 as text through `compact_stl_job` against an on-disk store, warm | every store entry hits and fault simulation is skipped, so store reads and per-call set-up dominate |
//!
//! A pass of `du_paper`, `fu_table3` and `bridging` clones the pristine
//! per-module contexts built during set-up and compacts every PTP against
//! them. A pass of `stl_warm` opens the store and submits the STL text
//! once, as one CLI call would; set-up is three cold passes, each into a
//! fresh directory, and the timed passes reuse the last one.
//!
//! ## End-to-end metrics
//!
//! | metric | unit | better | what |
//! |--------|------|--------|------|
//! | `compact_s` | s | lower | median wall time of one timed pass, evaluation stage included; printed with q1, q3, n and the highest percentile with ten samples beyond it |
//! | `setup_s` | s | lower | what a process pays before its first pass: the median of repeated `context_for` rounds over the workload's modules (at least 5, for at least a second), or for `stl_warm` the median of its 3 cold passes |
//! | `peak_rss_mb` | MiB | lower | `VmHWM` of the workload process at exit |
//! | `fc_retained_pct` | % | higher | summed standalone fault coverage of the compacted PTPs over that of the originals |
//!
//! Bounds (in `BENCHMARK.json`): 25 % for the two times, 15 % for memory,
//! 5 % for coverage. On a 2-core shared host a fixed CPU-bound loop alone
//! shows an 11 % IQR and whole runs drift by 10–20 %, so tighter time
//! bounds would flag noise.
//!
//! Printed for information only: `gen_s` (input generation), the
//! workload-total `size_reduction_pct` and `duration_reduction_pct` (the
//! paper's 80.71 % and 64.43 %), the mean per-PTP `fc_delta_pp`, and the
//! error rate, which the result line gives as `failed` over `attempted`.
//! The reductions vary with the seed by up to a fifth on `fu_table3`, and
//! `fc_delta_pp` reads exactly 0 there, so neither can carry a bound.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! The benchmark records spans of its own around each public call it
//! makes (`Compactor::context_for`, `Compactor::compact`,
//! `compact_stl_job`, `Store::open`, `stl_from_text`, `stl_to_text`,
//! `ModuleKind::build`, `Netlist::levelize`, `FaultUniverse::enumerate`
//! and `dominance`, `BridgeUniverse::sample`, `warpstl_analyze::analyze`),
//! attaches a `Recorder` through `Compactor::obs` and the `obs` parameter
//! of `compact_stl_job`, and folds those spans with the program's own
//! `stage.*`, `fsim.*` and `store.*` spans and counters. Per-pass values
//! are means over the traced passes. Layers a workload does not exercise
//! read 0; store and bridge time is given as a share of the pass, so it
//! is comparable across workloads.
//!
//! Each layer metric, and the end-to-end metric and workload it should
//! move (other workloads: predicted no move):
//!
//! | layer | metrics | moves |
//! |-------|---------|-------|
//! | gpu | `gpu.trace_s`, `gpu.cycles`, `gpu.cycles_per_s` | `compact_s` on `du_paper`; no move on `fu_table3` |
//! | core | `core.eval_s`, `core.eval_self_s` (eval minus its fault-simulation children: the compacted program's re-trace) | `compact_s` on `du_paper` and `fu_table3` |
//! | core | `core.label_s`, `core.reduce_s`, `core.compact_self_s`, `core.essential`, `core.sbs_removed` | `compact_s` on `du_paper` |
//! | verify | `verify.reduction_s` | `compact_s` on `du_paper` |
//! | fault | `fault.fsim_s`, `fault.eval_fsim_s`, `fault.runs`, `fault.patterns`, `fault.target_faults`, `fault.kernel_fault_blocks`, `fault.cone_gates`, `fault.cone_gates_per_s`, `fault.worker_util` (worker busy time over workers × fault-simulation wall time), `fault.dominance_inherited`, `fault.repack_segments` | `compact_s` on `fu_table3` |
//! | fault (bridging) | `fault.bridge_share_pct`, `fault.bridge_targets` | `compact_s` on `bridging` |
//! | analyze | `analyze.gate_s` (the per-PTP `stage.analyze`) | `compact_s` on `fu_table3` |
//! | analyze | `analyze.run_s`, `analyze.untestable` | `setup_s` on all workloads |
//! | netlist | `netlist.build_s`, `netlist.levelize_s` | `setup_s` on all workloads |
//! | fault (set-up) | `fault.universe_s` (enumeration, dominance, and bridge sampling under bridging) | `setup_s` on all workloads |
//! | store | `store.read_share_pct`, `store.replay_share_pct`, `store.open_share_pct`, `store.hits`, `store.misses`, `store.hit_ratio` | `compact_s` on `stl_warm` |
//! | store | `store.write_share_pct`, `store.writes`, `store.bytes` (directory size after a cold pass) | `setup_s` on `stl_warm` |
//! | programs | `programs.parse_s`, `programs.print_s` (the input STL's text round trip, which `compact_stl_job` repeats on every pass) | `compact_s` on `stl_warm` |
//! | obs | `obs.overhead_pct` (median traced pass over median untraced pass, alternating), `obs.spans` | none: they bound what tracing costs |
//!
//! ## Correctness checks
//!
//! The run fails when the report JSON (and for `stl_warm` the compacted
//! STL text) differs between any two passes — warm-up, timed, traced or
//! untraced, cold or warm; when a warm `stl_warm` pass misses the store;
//! when any PTP reports other than one fault simulation, one logic
//! simulation and zero verification errors, or grows; or when the
//! compacted STL does not parse back into PTPs of the reported sizes.
//! `report_digest` names the report bytes.
//!
//! ## Comparing
//!
//! `--compare BASE.jsonl NEW.jsonl` prints both medians, both IQRs (as a
//! share of the median), the change, and a verdict per row, using the
//! bounds of `BENCHMARK.json`: *better* when every NEW run beats every
//! BASE run; otherwise *unresolved* when either side's IQR exceeds the
//! bound; *worse* when the median got worse by more than the bound;
//! *better* when it improved by more than BASE's IQR; else *same*.

mod compare;
mod ledger;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use warpstl_obs::{ObsExt, Recorder};
use warpstl_programs::serialize::stl_to_text;
use warpstl_store::hash::CanonicalHasher;

use ledger::{SpanSet, Window, LAYER_METRICS};
use workload::{spanned, PassOutput, Sizes, Workload};

/// `(name, unit)` of every end-to-end metric, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("compact_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fc_retained_pct", "%"),
];

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
/// Fewest timed passes a full run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Least time a full run spends repeating a cheap set-up.
const SETUP_SECONDS: f64 = 1.0;

/// Where traces and the store directories of a run go: inside the
/// benchmark's own directory of the checkout that built it.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The result line's metrics object.
fn metrics_json(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One workload run's measurements, before printing.
struct Measured {
    lines: String,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Runs one workload, counting attempted PTP compactions in `attempted`.
fn run_workload(w: Workload, args: &Args, attempted: &mut u64) -> Result<Measured, String> {
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full(w)
    };
    let (seconds, min_passes, setup_seconds) = if args.quick {
        (0.0, 1, 0.0)
    } else {
        (args.seconds, MIN_PASSES, SETUP_SECONDS)
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rec = args.trace.then(|| Arc::new(Recorder::new()));
    let o = rec.as_deref();
    let mut lines = String::new();
    let _ = writeln!(
        lines,
        "# bench_e2e workload={} seed={} host_cores={threads} trace={} divisor={} seconds={seconds}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        sizes.divisor
    );

    let setup_span = o.span("bench", "bench.setup");
    let gen_start = Instant::now();
    let stl = workload::generate(w, sizes, args.seed);
    let text = spanned(o, "stl_to_text", || stl_to_text(&stl));
    let _ = writeln!(
        lines,
        "gen_s {:.4} s (input generation, information only)",
        gen_start.elapsed().as_secs_f64()
    );

    let scratch = out_dir().join(format!("{}-{}", w.name(), std::process::id()));
    let setup = workload::set_up(w, sizes, text, &scratch, setup_seconds, rec.as_ref());
    let untestable = if args.trace {
        workload::trace_layers(&stl, w, sizes, o)
    } else {
        0
    };
    drop(setup_span);
    let setup = setup?;
    *attempted += setup.attempted;
    let prepared = &setup.prepared;
    let ptps = prepared.ptps();

    // The reference output every later pass must reproduce byte for byte.
    let reference: PassOutput = match setup.cold_outputs.first() {
        Some(cold) => cold.clone(),
        None => {
            *attempted += ptps;
            prepared.pass(None)?
        }
    };
    let check = |out: &PassOutput, what: &str| -> Result<(), String> {
        if !out.same_output(&reference) {
            return Err(format!("{what}: output differs from the first pass"));
        }
        match out.store {
            Some(s) if s.misses != 0 => {
                Err(format!("{what}: {} store misses on a warm store", s.misses))
            }
            _ => Ok(()),
        }
    };
    if setup
        .cold_outputs
        .iter()
        .any(|c| !c.same_output(&reference))
    {
        return Err("cold passes disagree on their output".into());
    }
    let summary = reference.validate()?;
    if w == Workload::StlWarm {
        *attempted += ptps;
        check(&prepared.pass(None)?, "warm-up pass")?;
    }

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut deltas = Vec::new();
    let loop_start = Instant::now();
    let mut i = 0;
    // Traced runs alternate untraced and traced passes, so both see the
    // same drift and their medians give the tracing overhead.
    let want = if args.trace {
        2 * min_passes.max(1)
    } else {
        min_passes
    };
    while i < want || loop_start.elapsed() < Duration::from_secs_f64(seconds) {
        let traced_pass = args.trace && i % 2 == 1;
        let before = o.filter(|_| traced_pass).map(Recorder::metrics);
        let start = Instant::now();
        let out = {
            let _s = o.filter(|_| traced_pass).span("bench", "bench.pass");
            prepared.pass(rec.clone().filter(|_| traced_pass))
        };
        let secs = start.elapsed().as_secs_f64();
        *attempted += ptps;
        check(
            &out?,
            if traced_pass {
                "traced pass"
            } else {
                "timed pass"
            },
        )?;
        if let (Some(before), Some(r)) = (before, o) {
            traced.push(secs);
            deltas.push(r.metrics().delta_since(&before));
        } else {
            untraced.push(secs);
        }
        i += 1;
    }

    let median = |v: &[f64]| stats::median(v).expect("at least one sample");
    let compact_s = median(&untraced);
    let (q1, q3) = stats::quartiles(&untraced).expect("at least one sample");
    let tail = stats::tail_percentile(&untraced)
        .map_or("none (n < 11)".to_string(), |(p, v)| format!("p{p} {v:.6}"));
    let _ = writeln!(
        lines,
        "compact_s over n={} untraced passes: q1 {q1:.6} median {compact_s:.6} q3 {q3:.6} tail {tail}",
        untraced.len()
    );
    let setup_s = median(&setup.samples);
    let _ = writeln!(lines, "setup_s over {} set-up rounds", setup.samples.len());

    let e2e = [compact_s, setup_s, peak_rss_mb()?, summary.fc_retained_pct];
    let mut metrics: Vec<_> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    let _ = writeln!(
        lines,
        "size_reduction_pct {} % duration_reduction_pct {} % fc_delta_pp {} pp (workload totals, information only)",
        summary.size_reduction_pct, summary.duration_reduction_pct, summary.fc_delta_pp
    );
    // A traced run prints the end-to-end metrics too, but its result line
    // carries the layers.
    if let Some(r) = &rec {
        for &(name, unit, v) in &metrics {
            let _ = writeln!(lines, "{name} {v} {unit}");
        }
        metrics = layer_metrics(
            r,
            &setup,
            &deltas,
            &traced,
            &untraced,
            untestable,
            summary.original_cycles,
        )?;
    }
    for &(name, unit, v) in &metrics {
        let _ = writeln!(lines, "{name} {v} {unit}");
    }
    let mut h = CanonicalHasher::new();
    h.str(&reference.report_json);
    let _ = writeln!(lines, "report_digest {}", h.finish());

    if let Some(r) = &rec {
        let dir = out_dir().join("trace");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", w.name()));
        std::fs::write(&path, r.to_chrome_trace())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(lines, "chrome_trace {}", path.display());
    }
    Ok(Measured { lines, metrics })
}

/// Folds the traced run into the per-layer metrics, in table order.
fn layer_metrics(
    rec: &Recorder,
    setup: &workload::Setup,
    deltas: &[warpstl_obs::Metrics],
    traced: &[f64],
    untraced: &[f64],
    untestable: usize,
    cycles: u64,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let spans = rec.spans();
    let windows = |name: &str| -> Vec<Window> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Window::of)
            .collect()
    };
    let passes = windows("bench.pass");
    if passes.len() != deltas.len() || passes.is_empty() {
        return Err(format!(
            "{} traced pass spans for {} traced passes",
            passes.len(),
            deltas.len()
        ));
    }
    let per_pass: Vec<_> = passes
        .iter()
        .zip(deltas)
        .map(|(&w, m)| ledger::fold_pass(&SpanSet::new(&spans, w), w, m, cycles))
        .collect();
    let mut values = ledger::mean(&per_pass);
    let setup_window = windows("bench.setup")
        .first()
        .copied()
        .ok_or("no set-up span")?;
    values.extend(ledger::fold_setup(
        &SpanSet::new(&spans, setup_window),
        untestable,
    ));
    // Cold store passes ran during set-up; warm ones after it.
    let cold: Vec<Window> = windows("compact_stl_job")
        .into_iter()
        .filter(|w| w.end_us <= setup_window.end_us)
        .collect();
    let writes = setup
        .cold_outputs
        .last()
        .and_then(|o| o.store)
        .map_or(0, |s| s.writes);
    values.extend(ledger::fold_cold(&spans, &cold, writes, setup.store_bytes));
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    values.insert(
        "obs.overhead_pct",
        100.0 * (med(traced) / med(untraced) - 1.0),
    );
    LAYER_METRICS
        .iter()
        .map(|&(name, unit, _)| {
            values
                .get(name)
                .map(|&v| (name, unit, v))
                .ok_or_else(|| format!("layer metric {name} was not measured"))
        })
        .collect()
}

/// Runs one workload in this process and prints its report.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let mut attempted = 0;
    let result = run_workload(w, args, &mut attempted);
    let _ = std::fs::remove_dir_all(out_dir().join(format!("{}-{}", w.name(), std::process::id())));
    match result {
        Ok(m) => {
            print!("{}", m.lines);
            println!(
                "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {}}}",
                metrics_json(&m.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            // The failing pass stops the run: one failed compaction.
            eprintln!("bench_e2e: {}: {e}", w.name());
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": 1, \"metrics\": {{}}}}",
                attempted.max(1)
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_e2e: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(raw)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("bench_e2e: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("bench_e2e: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        let bench_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        return match compare::compare(&bench_json.to_string_lossy(), base, new) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&raw),
    }
}
