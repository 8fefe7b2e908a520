#![warn(missing_docs)]
//! # warpstl-core
//!
//! The paper's contribution: a compaction method for Self-Test Libraries
//! targeting GPUs that needs only **one logic simulation and one fault
//! simulation per test program**.
//!
//! The five stages (Fig. 1 of the paper):
//!
//! 1. **PTP partitioning** — basic blocks, control-flow graph, and the
//!    Admissible Regions for Compaction (everything outside parametric
//!    loops); from [`warpstl-programs`](warpstl_programs).
//! 2. **Logic tracing** — one run of the PTP on the MiniGrip GPU model with
//!    the hardware monitor on, producing the RT-level tracing report and
//!    the gate-level per-cycle test-pattern report.
//! 3. **Fault detection analysis and labeling** — one optimized gate-level
//!    fault simulation of the target module (module-level observability,
//!    shared dropping fault list across the STL), then the instruction
//!    labeling algorithm (Fig. 2): an instruction is *essential* iff one of
//!    its warps' clock cycles newly detected a fault.
//! 4. **PTP reduction** — remove every Small Block whose instructions are
//!    all unessential (Fig. 3), with register-liveness protection, branch
//!    target remapping, and relocation of the removed SBs' input data.
//! 5. **PTP reassembling** — emit the compacted PTP and evaluate its fault
//!    coverage with a final fault simulation.
//!
//! Between reassembly and evaluation sits a mandatory **static
//! verification gate** ([`warpstl_verify`]): the compacted PTP is linted
//! for dangling register uses, broken `SSY`/`SYNC` pairing, inadmissible
//! removals, memory races and relocation gaps, and a failure aborts the
//! run with [`CompactionError::Verify`] instead of an evaluated but
//! meaningless CPTP. Per-rule counts land in
//! [`CompactionReport::verify`](CompactionReport); the gate's wall time in
//! its `stage.verify` span.
//!
//! The target netlist's own lint gate runs once per module, when its
//! [`ModuleContext`] is built together with the rest of the module's
//! static analysis; every PTP compacted against the context reads its
//! counts from there.
//!
//! The [`baseline`] module implements the prior-art iterative compactor
//! (one fault simulation per candidate removal) the paper compares against.
//!
//! # Examples
//!
//! ```
//! use warpstl_core::Compactor;
//! use warpstl_programs::generators::{generate_imm, ImmConfig};
//! use warpstl_netlist::modules::ModuleKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ptp = generate_imm(&ImmConfig { sb_count: 12, ..ImmConfig::default() });
//! let compactor = Compactor::default();
//! let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
//! let outcome = compactor.compact(&ptp, &mut ctx)?;
//! assert!(outcome.compacted.size() <= ptp.size());
//! assert_eq!(outcome.report.fault_sim_runs, 1);
//! # Ok(())
//! # }
//! ```

pub mod baseline;
mod context;
mod error;
pub mod jobs;
mod label;
mod pipeline;
mod reduce;
mod reorder;
mod report;
mod stl_flow;

// Re-exported so the CLI reaches the shared once-per-process
// environment-variable warning helper without depending on warpstl-sync
// directly (the helper lives at the bottom of the crate graph because the
// fault engine — below this crate — reads `WARPSTL_*` knobs too).
pub use warpstl_sync::env;

pub use context::ModuleContext;
pub use error::CompactionError;
pub use jobs::{
    analyze_job, compact_job, compact_stl_job, gpu_for_lanes, lint_job, netlist_by_name,
    stl_report_array, CompactJobResult, GateJobResult, JobError, JobOptions, StlJobResult,
};
pub use label::{label_instructions, Labels};
pub use pipeline::{CompactionOutcome, Compactor};
pub use reduce::{reduce_ptp, reduce_ptp_with, Reduction};
pub use reorder::{reorder_ptp, time_to_fraction, Reorder, ReorderError};
pub use report::{CompactionReport, PtpFeatures};
pub use stl_flow::{compact_stl, compact_stl_with, StlOutcome};
