//! Job-shaped entry points around [`Compactor`]: one function per unit of
//! work a front-end can submit — compact a PTP, compact an STL, analyze a
//! module, lint a PTP — taking *text* in and returning *text* out.
//!
//! The CLI and `warpstl serve` both dispatch through these functions, so
//! a job submitted over HTTP is byte-identical to the same invocation on
//! the command line by construction: the report JSON is
//! [`CompactionReport::to_json`] verbatim, and the STL report array uses
//! the same [`stl_report_array`] formatting the CLI writes to `--json`.
//!
//! Errors split along the protocol boundary: [`JobError::BadRequest`] is
//! the caller's fault (unparseable PTP/STL text, an unknown module name —
//! HTTP 400), [`JobError::Failed`] is a compaction/verification failure on
//! well-formed input (HTTP 422).

use std::sync::Arc;

use warpstl_fault::{BridgeConfig, FaultModel, FaultSimConfig};
use warpstl_gpu::{Gpu, GpuConfig};
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::Netlist;
use warpstl_obs::Recorder;
use warpstl_programs::serialize::{ptp_from_text, ptp_to_text, stl_from_text, stl_to_text};
use warpstl_store::Store;

use crate::pipeline::Compactor;
use crate::report::CompactionReport;
use crate::stl_flow::compact_stl_with;

/// Per-job knobs — the job-protocol face of the CLI's compact flags.
#[derive(Debug, Clone)]
pub struct JobOptions {
    /// Reverse-order fault simulation (`--reverse`; per-module SFU
    /// reversal still applies inside STL jobs regardless).
    pub reverse: bool,
    /// Honor ARC labels during reduction (`--no-arc` clears it).
    pub respect_arc: bool,
    /// Engine worker threads; `0` defers to the engine's own resolution
    /// (environment, then host parallelism). A serving front-end sets this
    /// to its per-worker share so the pool does not oversubscribe.
    pub threads: usize,
    /// GPU shape override: the number of SP lanes per SM (`--lanes`).
    /// `0` keeps the default shape; otherwise it must be one of the
    /// FlexGripPlus options (8, 16 or 32) — anything else is a
    /// [`JobError::BadRequest`].
    pub lanes: usize,
    /// The fault model to compact against (`--fault-model`).
    pub fault_model: FaultModel,
    /// Candidate net-pair budget for the bridging universe (`0` keeps the
    /// model's default); ignored under stuck-at.
    pub bridge_pairs: usize,
    /// Drop detected faults between patterns (on by default; clearing it
    /// makes tallies cover the full sequence).
    pub drop_detected: bool,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        JobOptions {
            reverse: false,
            respect_arc: true,
            threads: 0,
            lanes: 0,
            fault_model: FaultModel::StuckAt,
            bridge_pairs: 0,
            drop_detected: true,
        }
    }
}

/// The GPU shape for a lane-count override: `0` is the default shape,
/// 8/16/32 are the FlexGripPlus configurations.
///
/// # Errors
///
/// [`JobError::BadRequest`] on any other lane count — validated here so
/// job submission never reaches [`GpuConfig::with_sp_cores`]'s panic.
pub fn gpu_for_lanes(lanes: usize) -> Result<Gpu, JobError> {
    match lanes {
        0 => Ok(Gpu::default()),
        8 | 16 | 32 => Ok(Gpu::new(GpuConfig::with_sp_cores(lanes))),
        other => Err(JobError::BadRequest(format!(
            "invalid lane count {other} (expected 8, 16 or 32)"
        ))),
    }
}

impl JobOptions {
    fn compactor(
        &self,
        store: Option<Arc<Store>>,
        obs: Option<Arc<Recorder>>,
    ) -> Result<Compactor, JobError> {
        let gpu = gpu_for_lanes(self.lanes)?;
        let mut bridge_config = BridgeConfig::default();
        if self.bridge_pairs != 0 {
            bridge_config.pairs = self.bridge_pairs;
        }
        Ok(Compactor {
            gpu,
            reverse_patterns: self.reverse,
            respect_arc: self.respect_arc,
            fault_model: self.fault_model,
            bridge_config,
            obs,
            store,
            fsim_config: FaultSimConfig {
                threads: self.threads,
                drop_detected: self.drop_detected,
            },
        })
    }
}

/// How a job failed — split along the protocol boundary.
#[derive(Debug)]
pub enum JobError {
    /// The request itself is malformed (unparseable input text, unknown
    /// module name). A server maps this to HTTP 400.
    BadRequest(String),
    /// Well-formed input whose compaction/verification failed. A server
    /// maps this to HTTP 422.
    Failed(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The result of a [`compact_job`]: the compacted PTP text plus the
/// deterministic report JSON, byte-identical to the CLI's `--json` output.
#[derive(Debug, Clone)]
pub struct CompactJobResult {
    /// Serialized compacted PTP (what the CLI writes to `--out`).
    pub compacted: String,
    /// [`CompactionReport::to_json`] verbatim.
    pub report_json: String,
    /// The structured report the JSON was rendered from, for callers
    /// (like the campaign runner) that aggregate across jobs without
    /// re-parsing their own output.
    pub report: CompactionReport,
}

/// The result of a [`compact_stl_job`]: the compacted STL text plus the
/// per-PTP report array, byte-identical to the CLI's `--json` output.
#[derive(Debug, Clone)]
pub struct StlJobResult {
    /// Serialized compacted STL (what the CLI writes to `--out`).
    pub compacted: String,
    /// [`stl_report_array`] over the per-PTP reports, verbatim.
    pub report_json: String,
}

/// The result of an [`analyze_job`] or [`lint_job`]: the report JSON and
/// whether the gate passed (a failed gate is still a completed job — the
/// report is the answer).
#[derive(Debug, Clone)]
pub struct GateJobResult {
    /// The analyze/verify report JSON (the CLI's `--json` output).
    pub report_json: String,
    /// `true` when the gate found no errors (warnings still pass).
    pub clean: bool,
}

/// Compacts one PTP given as text. See [`JobOptions`] for the knobs and
/// [`CompactJobResult`] for the byte-identity contract.
///
/// # Errors
///
/// [`JobError::BadRequest`] when `ptp_text` does not parse;
/// [`JobError::Failed`] when compaction fails.
pub fn compact_job(
    ptp_text: &str,
    opts: &JobOptions,
    store: Option<Arc<Store>>,
    obs: Option<Arc<Recorder>>,
) -> Result<CompactJobResult, JobError> {
    let ptp = ptp_from_text(ptp_text).map_err(|e| JobError::BadRequest(e.to_string()))?;
    let compactor = opts.compactor(store, obs)?;
    let mut ctx = compactor.context_for(ptp.target);
    let out = compactor
        .compact(&ptp, &mut ctx)
        .map_err(|e| JobError::Failed(e.to_string()))?;
    Ok(CompactJobResult {
        compacted: ptp_to_text(&out.compacted),
        report_json: out.report.to_json(),
        report: out.report,
    })
}

/// Compacts a whole STL given as text: PTPs group by target module and
/// compact in file order against shared dropping fault lists, with SFU
/// programs simulated in reverse order — the same flow as the CLI's
/// `compact-stl`.
///
/// # Errors
///
/// [`JobError::BadRequest`] when `stl_text` does not parse;
/// [`JobError::Failed`] when any module's compaction fails.
pub fn compact_stl_job(
    stl_text: &str,
    opts: &JobOptions,
    store: Option<Arc<Store>>,
    obs: Option<Arc<Recorder>>,
) -> Result<StlJobResult, JobError> {
    let stl = stl_from_text(stl_text).map_err(|e| JobError::BadRequest(e.to_string()))?;
    let base = opts.compactor(store, obs)?;
    let outcome = compact_stl_with(&stl, |module| Compactor {
        reverse_patterns: module == ModuleKind::Sfu,
        ..base.clone()
    })
    .map_err(|e| JobError::Failed(e.to_string()))?;
    Ok(StlJobResult {
        compacted: stl_to_text(&outcome.compacted),
        report_json: stl_report_array(&outcome.reports),
    })
}

/// Formats per-PTP reports as the CLI's `compact-stl --json` array —
/// **the** spelling both the CLI and serve emit, so the two stay
/// byte-identical by sharing this function rather than by convention.
#[must_use]
pub fn stl_report_array(reports: &[CompactionReport]) -> String {
    let body: Vec<String> = reports.iter().map(CompactionReport::to_json).collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

/// Resolves a netlist name: the bundled modules first, then the lint demo
/// fixtures (a seeded combinational loop, an undriven net, and redundant
/// logic) so analysis gates can be exercised by name.
///
/// # Errors
///
/// [`JobError::BadRequest`] when the name matches neither a module nor a
/// fixture.
pub fn netlist_by_name(name: &str) -> Result<Netlist, JobError> {
    if let Some(kind) = ModuleKind::ALL.iter().find(|k| k.name() == name) {
        return Ok(kind.build());
    }
    match name {
        "comb-loop" => Ok(warpstl_netlist::fixtures::combinational_loop()),
        "undriven" => Ok(warpstl_netlist::fixtures::undriven()),
        "redundant-logic" => Ok(warpstl_netlist::fixtures::redundant_logic()),
        other => Err(JobError::BadRequest(format!(
            "unknown module `{other}` (see `warpstl modules`, or use `comb-loop` / `undriven` / `redundant-logic`)"
        ))),
    }
}

/// Statically analyzes one module by name, returning the analyze report
/// JSON — the CLI's `analyze --json` output. `lanes` is the GPU shape
/// override (`0` for the default); module netlists are shape-independent,
/// but the parameter is validated here so a campaign cell with a bad
/// shape fails identically whichever job it reaches first.
///
/// # Errors
///
/// [`JobError::BadRequest`] when the module name is unknown or `lanes`
/// is not 0, 8, 16 or 32.
pub fn analyze_job(module: &str, lanes: usize) -> Result<GateJobResult, JobError> {
    let _ = gpu_for_lanes(lanes)?;
    let netlist = netlist_by_name(module)?;
    let analysis = warpstl_analyze::analyze(&netlist);
    Ok(GateJobResult {
        report_json: analysis.report.to_json(),
        clean: analysis.is_clean(),
    })
}

/// Statically verifies one PTP given as text, returning the verifier
/// report JSON — the CLI's `lint --json` output.
///
/// # Errors
///
/// [`JobError::BadRequest`] when `ptp_text` does not parse.
pub fn lint_job(ptp_text: &str) -> Result<GateJobResult, JobError> {
    let ptp = ptp_from_text(ptp_text).map_err(|e| JobError::BadRequest(e.to_string()))?;
    let report = warpstl_verify::verify_ptp(&ptp);
    Ok(GateJobResult {
        report_json: report.to_json(),
        clean: report.is_clean(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_programs::generators::{generate_imm, ImmConfig};
    use warpstl_programs::Stl;

    fn imm_text(sb_count: usize) -> String {
        ptp_to_text(&generate_imm(&ImmConfig {
            sb_count,
            ..ImmConfig::default()
        }))
    }

    #[test]
    fn compact_job_matches_direct_pipeline_byte_for_byte() {
        let text = imm_text(4);
        let job = compact_job(&text, &JobOptions::default(), None, None).unwrap();

        let ptp = ptp_from_text(&text).unwrap();
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ptp.target);
        let direct = compactor.compact(&ptp, &mut ctx).unwrap();
        assert_eq!(job.report_json, direct.report.to_json());
        assert_eq!(job.compacted, ptp_to_text(&direct.compacted));
    }

    #[test]
    fn stl_job_report_array_matches_cli_spelling() {
        let mut stl = Stl::new("lib");
        stl.push(generate_imm(&ImmConfig {
            sb_count: 4,
            ..ImmConfig::default()
        }));
        let job = compact_stl_job(&stl_to_text(&stl), &JobOptions::default(), None, None).unwrap();
        assert!(job.report_json.starts_with("[\n{"));
        assert!(job.report_json.ends_with("}\n]\n"));
        let back = stl_from_text(&job.compacted).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn malformed_inputs_are_bad_requests() {
        let opts = JobOptions::default();
        assert!(matches!(
            compact_job("not a ptp", &opts, None, None),
            Err(JobError::BadRequest(_))
        ));
        assert!(matches!(
            compact_stl_job("not an stl", &opts, None, None),
            Err(JobError::BadRequest(_))
        ));
        assert!(matches!(lint_job("garbage"), Err(JobError::BadRequest(_))));
        assert!(matches!(
            analyze_job("warp_scheduler", 0),
            Err(JobError::BadRequest(_))
        ));
    }

    #[test]
    fn invalid_lane_counts_are_bad_requests() {
        for lanes in [1, 7, 12, 64] {
            assert!(matches!(gpu_for_lanes(lanes), Err(JobError::BadRequest(_))));
            assert!(matches!(
                analyze_job("decoder_unit", lanes),
                Err(JobError::BadRequest(_))
            ));
            let opts = JobOptions {
                lanes,
                ..JobOptions::default()
            };
            assert!(matches!(
                compact_job(&imm_text(4), &opts, None, None),
                Err(JobError::BadRequest(_))
            ));
        }
        assert_eq!(gpu_for_lanes(0).unwrap().config.sp_cores, 8);
        assert_eq!(gpu_for_lanes(16).unwrap().config.sp_cores, 16);
    }

    #[test]
    fn lane_override_reshapes_the_compaction_job() {
        use warpstl_programs::generators::{generate_rand_sp, RandConfig};
        let text = ptp_to_text(&generate_rand_sp(&RandConfig {
            sb_count: 4,
            ..RandConfig::default()
        }));
        let narrow = compact_job(
            &text,
            &JobOptions {
                lanes: 8,
                ..JobOptions::default()
            },
            None,
            None,
        )
        .unwrap();
        let wide = compact_job(
            &text,
            &JobOptions {
                lanes: 32,
                ..JobOptions::default()
            },
            None,
            None,
        )
        .unwrap();
        // More lanes execute a warp in fewer passes: the traced duration
        // shrinks, and the structured report rides along on the result.
        assert!(wide.report.original_duration < narrow.report.original_duration);
        assert_eq!(narrow.report_json, narrow.report.to_json());
    }

    #[test]
    fn bridging_model_compacts_through_the_job_surface() {
        let opts = JobOptions {
            fault_model: FaultModel::Bridging,
            ..JobOptions::default()
        };
        let out = compact_job(&imm_text(6), &opts, None, None).unwrap();
        // Untestability proofs are stuck-at constructs; bridging reports
        // must not claim any.
        assert_eq!(out.report.untestable, 0);
        assert!(out.report.fc_before > 0.0, "{}", out.report.fc_before);
    }

    #[test]
    fn gate_jobs_report_cleanliness_without_erroring() {
        assert!(analyze_job("decoder_unit", 0).unwrap().clean);
        let dirty = analyze_job("comb-loop", 32).unwrap();
        assert!(!dirty.clean);
        assert!(dirty.report_json.contains("comb"));
        assert!(lint_job(&imm_text(4)).unwrap().clean);
    }
}
