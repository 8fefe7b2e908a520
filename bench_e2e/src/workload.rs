//! The four workloads: input generation from a seed, set-up, one pass of
//! each flow, and the correctness checks on what a pass returns.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use warpstl_bench::Scale;
use warpstl_core::{compact_stl_job, stl_report_array, Compactor, JobOptions, ModuleContext};
use warpstl_fault::{BridgeConfig, BridgeUniverse, FaultModel, FaultSimConfig, FaultUniverse};
use warpstl_netlist::modules::ModuleKind;
use warpstl_obs::{Obs, ObsExt, Recorder};
use warpstl_programs::generators::{
    generate_cntrl, generate_imm, generate_mem, generate_rand_sp, generate_sfu_imm, generate_tpgen,
};
use warpstl_programs::serialize::stl_from_text;
use warpstl_programs::{Ptp, Stl};
use warpstl_serve::json::{self, Json};
use warpstl_store::Store;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II's DU group at paper scale; the GPU model dominates.
    DuPaper,
    /// Table III's functional-unit groups; fault simulation dominates.
    FuTable3,
    /// Every module under the bridging fault model.
    Bridging,
    /// The whole STL through `compact_stl_job` against a warm store.
    StlWarm,
}

impl Workload {
    /// Every workload, in the order the all-workloads run uses.
    pub const ALL: [Workload; 4] = [
        Workload::DuPaper,
        Workload::FuTable3,
        Workload::Bridging,
        Workload::StlWarm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DuPaper => "du_paper",
            Workload::FuTable3 => "fu_table3",
            Workload::Bridging => "bridging",
            Workload::StlWarm => "stl_warm",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paper-size divisor of the generated PTPs.
    fn divisor(self) -> usize {
        match self {
            Workload::DuPaper => 1,
            Workload::FuTable3 | Workload::Bridging => 32,
            Workload::StlWarm => 64,
        }
    }

    fn fault_model(self) -> FaultModel {
        match self {
            Workload::Bridging => FaultModel::Bridging,
            _ => FaultModel::StuckAt,
        }
    }
}

/// Input sizes: the paper's, or the tiny ones of `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Paper-size divisor.
    pub divisor: usize,
    /// Candidate net pairs of the bridging universe.
    pub bridge_pairs: usize,
}

impl Sizes {
    /// The sizes the benchmark measures.
    #[must_use]
    pub fn full(workload: Workload) -> Sizes {
        Sizes {
            divisor: workload.divisor(),
            bridge_pairs: 512,
        }
    }

    /// The smoke-test sizes.
    #[must_use]
    pub fn quick() -> Sizes {
        Sizes {
            divisor: 512,
            bridge_pairs: 16,
        }
    }
}

/// splitmix64: decorrelates the workload seed from each generator's own
/// default seed, so neighbouring workload seeds give unrelated programs.
fn mix(base: u64, seed: u64) -> u64 {
    let mut z = base ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the workload's STL from `seed`, PTPs in the paper's order.
#[must_use]
pub fn generate(workload: Workload, sizes: Sizes, seed: u64) -> Stl {
    let scale = Scale::new(sizes.divisor);
    macro_rules! seeded {
        ($config:ident, $generate:ident) => {{
            let mut c = scale.$config();
            c.seed = mix(c.seed, seed);
            $generate(&c)
        }};
    }
    let ptps: Vec<Ptp> = match workload {
        Workload::DuPaper => vec![
            seeded!(imm, generate_imm),
            seeded!(mem, generate_mem),
            seeded!(cntrl, generate_cntrl),
        ],
        Workload::FuTable3 => vec![
            seeded!(tpgen, generate_tpgen),
            seeded!(rand, generate_rand_sp),
            seeded!(sfu_imm, generate_sfu_imm),
        ],
        Workload::Bridging => vec![
            seeded!(imm, generate_imm),
            seeded!(mem, generate_mem),
            seeded!(rand, generate_rand_sp),
            seeded!(sfu_imm, generate_sfu_imm),
        ],
        Workload::StlWarm => vec![
            seeded!(imm, generate_imm),
            seeded!(mem, generate_mem),
            seeded!(cntrl, generate_cntrl),
            seeded!(tpgen, generate_tpgen),
            seeded!(rand, generate_rand_sp),
            seeded!(sfu_imm, generate_sfu_imm),
        ],
    };
    let mut stl = Stl::new(workload.name());
    for p in ptps {
        stl.push(p);
    }
    stl
}

/// The target modules of `stl`, in first-appearance order (the order
/// `compact_stl` processes them).
fn modules_of(stl: &Stl) -> Vec<ModuleKind> {
    let mut modules = Vec::new();
    for p in stl.ptps() {
        if !modules.contains(&p.target) {
            modules.push(p.target);
        }
    }
    modules
}

/// Runs `f` inside a span of the benchmark's own, named after the public
/// call it wraps.
pub fn spanned<T>(obs: Obs<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = obs.span("bench", name);
    f()
}

/// What one pass returns: its deterministic output, which every pass must
/// reproduce byte for byte, and its store traffic.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// The per-PTP report array, byte for byte as the CLI prints it.
    pub report_json: String,
    /// The compacted STL text (store workload only).
    pub compacted: Option<String>,
    /// Store traffic of the pass (store workload only).
    pub store: Option<warpstl_store::SessionStats>,
}

impl PassOutput {
    /// Whether `other` produced the same bytes.
    #[must_use]
    pub fn same_output(&self, other: &PassOutput) -> bool {
        self.report_json == other.report_json && self.compacted == other.compacted
    }

    /// Checks the output itself: the method's invariants on every report
    /// row, and that a compacted STL parses back into PTPs of the sizes
    /// the reports claim.
    ///
    /// # Errors
    ///
    /// The first check that fails.
    pub fn validate(&self) -> Result<Summary, String> {
        let summary = summarize(&self.report_json)?;
        if let Some(text) = &self.compacted {
            let back = stl_from_text(text).map_err(|e| format!("compacted STL: {e}"))?;
            let sizes: Vec<usize> = back.ptps().iter().map(Ptp::size).collect();
            if sizes != summary.compacted_sizes {
                return Err(format!(
                    "compacted sizes {sizes:?} disagree with the reports {:?}",
                    summary.compacted_sizes
                ));
            }
        }
        Ok(summary)
    }
}

/// What a workload holds between passes.
pub struct Prepared {
    workload: Workload,
    sizes: Sizes,
    /// The input as STL text, the way every front-end receives it.
    text: String,
    /// Parsed input (non-store workloads compact it directly).
    stl: Stl,
    /// Pristine per-module contexts, cloned by each pass.
    contexts: BTreeMap<&'static str, ModuleContext>,
    /// Store directory of the warm passes (store workload only).
    store_dir: Option<PathBuf>,
    threads: usize,
}

/// Set-up results: the prepared workload and its set-up samples.
pub struct Setup {
    /// The prepared workload.
    pub prepared: Prepared,
    /// Seconds of each set-up repetition.
    pub samples: Vec<f64>,
    /// Outputs of the cold passes (store workload only).
    pub cold_outputs: Vec<PassOutput>,
    /// Directory size after the last cold pass, in bytes.
    pub store_bytes: u64,
    /// Attempted PTP compactions during set-up.
    pub attempted: u64,
}

/// How often set-up repeats. Building contexts costs milliseconds, so it
/// repeats at least five times and until `context_seconds` have passed,
/// which keeps its median steady; a cold store pass costs a second, so
/// three.
const CONTEXT_REPEATS: usize = 5;
const COLD_PASSES: usize = 3;

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Prepared {
    fn compactor(&self, module: ModuleKind, obs: Option<Arc<Recorder>>) -> Compactor {
        let bridge_config = BridgeConfig {
            pairs: self.sizes.bridge_pairs,
            ..BridgeConfig::default()
        };
        Compactor {
            fault_model: self.workload.fault_model(),
            bridge_config,
            reverse_patterns: module == ModuleKind::Sfu,
            fsim_config: FaultSimConfig {
                threads: self.threads,
                ..FaultSimConfig::default()
            },
            obs,
            ..Compactor::default()
        }
    }

    fn job_options(&self) -> JobOptions {
        JobOptions {
            threads: self.threads,
            ..JobOptions::default()
        }
    }

    /// Number of PTPs one pass compacts.
    #[must_use]
    pub fn ptps(&self) -> u64 {
        self.stl.len() as u64
    }

    /// One pass of the workload's flow. `obs` is attached to the
    /// compactor (or the job) when the pass is traced.
    ///
    /// # Errors
    ///
    /// A compaction or store failure, as text.
    pub fn pass(&self, obs: Option<Arc<Recorder>>) -> Result<PassOutput, String> {
        match self.workload {
            Workload::StlWarm => {
                let dir = self
                    .store_dir
                    .as_ref()
                    .expect("store workload has a directory");
                self.store_pass(dir, obs)
            }
            _ => self.context_pass(obs),
        }
    }

    /// The Table II/III flow: per module, the pristine context's dropping
    /// lists shared by that module's PTPs in STL order.
    fn context_pass(&self, obs: Option<Arc<Recorder>>) -> Result<PassOutput, String> {
        let o = obs.as_deref();
        let mut reports = vec![None; self.stl.len()];
        for module in modules_of(&self.stl) {
            let compactor = self.compactor(module, obs.clone());
            let mut ctx = self.contexts[module.name()].clone();
            for (i, ptp) in self.stl.ptps().iter().enumerate() {
                if ptp.target != module {
                    continue;
                }
                let out = spanned(o, "Compactor::compact", || compactor.compact(ptp, &mut ctx))
                    .map_err(|e| format!("{}: {e}", ptp.name))?;
                if out.compacted.size() != out.report.compacted_size {
                    return Err(format!(
                        "{}: compacted PTP size disagrees with its report",
                        ptp.name
                    ));
                }
                reports[i] = Some(out.report);
            }
        }
        let reports: Vec<_> = reports
            .into_iter()
            .map(|r| r.expect("every PTP compacted"))
            .collect();
        Ok(PassOutput {
            report_json: stl_report_array(&reports),
            compacted: None,
            store: None,
        })
    }

    /// The front-end flow: STL text through `compact_stl_job` against the
    /// on-disk store in `dir`, opened afresh as each CLI call would.
    fn store_pass(&self, dir: &Path, obs: Option<Arc<Recorder>>) -> Result<PassOutput, String> {
        let o = obs.as_deref();
        let store = spanned(o, "Store::open", || Store::open(dir))
            .map_err(|e| format!("open store {}: {e}", dir.display()))?;
        let store = Arc::new(store);
        let job = spanned(o, "compact_stl_job", || {
            compact_stl_job(
                &self.text,
                &self.job_options(),
                Some(store.clone()),
                obs.clone(),
            )
        })
        .map_err(|e| e.to_string())?;
        Ok(PassOutput {
            report_json: job.report_json,
            compacted: Some(job.compacted),
            store: Some(store.session()),
        })
    }
}

/// Builds the workload from its text: parses it, then either builds the
/// module contexts repeatedly (see [`CONTEXT_REPEATS`]) or runs
/// [`COLD_PASSES`] cold store passes, each into a fresh directory under
/// `scratch`.
///
/// # Errors
///
/// Unparseable input, or a failing cold pass.
pub fn set_up(
    workload: Workload,
    sizes: Sizes,
    text: String,
    scratch: &Path,
    context_seconds: f64,
    rec: Option<&Arc<Recorder>>,
) -> Result<Setup, String> {
    let o = rec.map(|r| &**r);
    let stl = spanned(o, "stl_from_text", || stl_from_text(&text)).map_err(|e| e.to_string())?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut prepared = Prepared {
        workload,
        sizes,
        text,
        stl,
        contexts: BTreeMap::new(),
        store_dir: None,
        threads,
    };
    let mut samples = Vec::new();
    let mut cold_outputs = Vec::new();
    let mut store_bytes = 0;
    let mut attempted = 0;
    if workload == Workload::StlWarm {
        for i in 0..COLD_PASSES {
            let dir = scratch.join(format!("cold-{i}"));
            let _ = std::fs::remove_dir_all(&dir);
            let start = Instant::now();
            let out = prepared.store_pass(&dir, rec.cloned());
            samples.push(start.elapsed().as_secs_f64());
            attempted += prepared.ptps();
            cold_outputs.push(out?);
            store_bytes = dir_bytes(&dir);
            prepared.store_dir = Some(dir);
        }
    } else {
        let modules = modules_of(&prepared.stl);
        let begin = Instant::now();
        while samples.len() < CONTEXT_REPEATS || begin.elapsed().as_secs_f64() < context_seconds {
            let start = Instant::now();
            let contexts: BTreeMap<_, _> = modules
                .iter()
                .map(|&m| {
                    let c = prepared.compactor(m, None);
                    (
                        m.name(),
                        spanned(o, "Compactor::context_for", || c.context_for(m)),
                    )
                })
                .collect();
            samples.push(start.elapsed().as_secs_f64());
            prepared.contexts = contexts;
        }
    }
    Ok(Setup {
        prepared,
        samples,
        cold_outputs,
        store_bytes,
        attempted,
    })
}

/// The per-layer set-up calls of a traced run: each module's netlist,
/// levelization, fault universe and static analysis, built once more
/// under the benchmark's own spans. Returns the proven-untestable count.
pub fn trace_layers(stl: &Stl, workload: Workload, sizes: Sizes, obs: Obs<'_>) -> usize {
    let mut untestable = 0;
    for module in modules_of(stl) {
        let netlist = spanned(obs, "ModuleKind::build", || module.build());
        let _levels = spanned(obs, "Netlist::levelize", || netlist.levelize());
        let universe = spanned(obs, "FaultUniverse::enumerate", || {
            FaultUniverse::enumerate(&netlist)
        });
        let _dominance = spanned(obs, "FaultUniverse::dominance", || {
            universe.dominance(&netlist)
        });
        if workload.fault_model() == FaultModel::Bridging {
            let config = BridgeConfig {
                pairs: sizes.bridge_pairs,
                ..BridgeConfig::default()
            };
            let _ = spanned(obs, "BridgeUniverse::sample", || {
                BridgeUniverse::sample(&netlist, &config)
            });
        }
        let analysis = spanned(obs, "warpstl_analyze::analyze", || {
            warpstl_analyze::analyze(&netlist)
        });
        untestable += analysis.untestable.proven_count();
    }
    untestable
}

/// Workload-total figures read back from a report array.
#[derive(Debug)]
pub struct Summary {
    /// Compacted size of each PTP, in STL order.
    pub compacted_sizes: Vec<usize>,
    /// Whole-workload size reduction, %.
    pub size_reduction_pct: f64,
    /// Whole-workload duration reduction, %.
    pub duration_reduction_pct: f64,
    /// Mean per-PTP standalone coverage change, percentage points.
    pub fc_delta_pp: f64,
    /// Summed standalone coverage after compaction over the sum before, %.
    pub fc_retained_pct: f64,
    /// Cycles the pass's logic simulations of the original PTPs ran.
    pub original_cycles: u64,
}

/// Parses a report array and checks the method's invariants on every PTP:
/// one fault and one logic simulation, no verification errors, and a
/// compacted program no larger than the original.
fn summarize(report_json: &str) -> Result<Summary, String> {
    let doc = json::parse(report_json).map_err(|e| format!("report JSON: {e}"))?;
    let Json::Arr(rows) = doc else {
        return Err("report JSON is not an array".into());
    };
    if rows.is_empty() {
        return Err("report array is empty".into());
    }
    let num = |row: &Json, key: &str| match row.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        _ => Err(format!("report row lacks numeric `{key}`")),
    };
    let (mut size0, mut size1, mut dur0, mut dur1) = (0.0, 0.0, 0.0, 0.0);
    let (mut fc0, mut fc1) = (0.0, 0.0);
    let mut compacted_sizes = Vec::new();
    for row in &rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        for (key, want) in [
            ("fault_sim_runs", 1.0),
            ("logic_sim_runs", 1.0),
            ("verify_errors", 0.0),
        ] {
            let got = num(row, key)?;
            if got != want {
                return Err(format!("{name}: {key} = {got}, expected {want}"));
            }
        }
        let (s0, s1) = (num(row, "original_size")?, num(row, "compacted_size")?);
        if s1 > s0 {
            return Err(format!("{name}: compacted size {s1} exceeds original {s0}"));
        }
        size0 += s0;
        size1 += s1;
        dur0 += num(row, "original_duration")?;
        dur1 += num(row, "compacted_duration")?;
        fc0 += num(row, "fc_before")?;
        fc1 += num(row, "fc_after")?;
        compacted_sizes.push(s1 as usize);
    }
    Ok(Summary {
        compacted_sizes,
        size_reduction_pct: 100.0 * (1.0 - size1 / size0.max(1.0)),
        duration_reduction_pct: 100.0 * (1.0 - dur1 / dur0.max(1.0)),
        fc_delta_pp: 100.0 * (fc1 - fc0) / rows.len() as f64,
        fc_retained_pct: 100.0 * fc1 / fc0.max(f64::MIN_POSITIVE),
        original_cycles: dur0 as u64,
    })
}
