//! The prior-art baseline: iterative compaction with one fault simulation
//! per candidate removal.
//!
//! The CPU-targeted methods the paper compares against (refs. 13–16 in its
//! references) "are based on the production of compacted TP candidates from
//! the original TP, which are then fault simulated to assess the new FC" —
//! the computational cost is proportional to the number of candidates. This
//! module implements that strategy at Small-Block granularity so the
//! benches can reproduce the paper's compaction-time comparison.

use std::time::Instant;

use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig};
use warpstl_gpu::{Gpu, RunOptions, SimError};
use warpstl_programs::{segment_small_blocks, ArcAnalysis, BasicBlocks, Ptp};

use crate::{CompactionReport, ModuleContext, StageTimings};

/// The iterative remove-and-refault-simulate compactor.
#[derive(Debug, Clone, Default)]
pub struct IterativeCompactor {
    /// The GPU model used to re-run every candidate.
    pub gpu: Gpu,
}

impl IterativeCompactor {
    /// Compacts `ptp` by tentatively removing one Small Block at a time,
    /// re-running the program and re-fault-simulating after every removal;
    /// a removal is kept only if the standalone fault coverage does not
    /// drop.
    ///
    /// Returns the compacted PTP and a report whose `fault_sim_runs` /
    /// `logic_sim_runs` document the cost gap against
    /// [`Compactor`](crate::Compactor) (one per candidate versus one
    /// total).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model.
    pub fn compact(
        &self,
        ptp: &Ptp,
        ctx: &ModuleContext,
    ) -> Result<(Ptp, CompactionReport), SimError> {
        let start = Instant::now();
        let mut fault_sims = 0usize;
        let mut logic_sims = 0usize;

        // Only the target module's streams are read, and never the trace.
        let opts = RunOptions {
            trace: false,
            ..RunOptions::capturing(ctx.module())
        };
        let mut coverage = |candidate: &Ptp| -> Result<(f64, u64), SimError> {
            let kernel = candidate.to_kernel()?;
            let run = self.gpu.run(&kernel, &opts)?;
            logic_sims += 1;
            fault_sims += 1;
            let netlist = ctx.netlist();
            let mut lists: Vec<FaultList> = ctx.fresh_lists();
            let cfg = FaultSimConfig::default();
            let streams = ctx.streams(&run.patterns);
            for (i, stream) in streams.iter().enumerate() {
                if !stream.is_empty() {
                    fault_simulate(netlist, stream, &mut lists[i], &cfg);
                }
            }
            let fc = lists.iter().map(FaultList::coverage).sum::<f64>() / lists.len().max(1) as f64;
            Ok((fc, run.cycles))
        };

        let (fc_before, original_duration) = coverage(ptp)?;
        let mut current = ptp.clone();
        let mut current_fc = fc_before;
        let mut removed_sbs = 0usize;
        let mut total_sbs = 0usize;

        // Repeatedly scan the SB list until no further removal survives.
        loop {
            let bbs = BasicBlocks::of(&current.program);
            let arc = ArcAnalysis::of(&current.program, &bbs);
            let sbs = segment_small_blocks(&current.program, &bbs);
            total_sbs = total_sbs.max(sbs.len() + removed_sbs);
            let mut improved = false;
            for sb in sbs.iter().rev() {
                if !arc.is_admissible(sb.block) {
                    continue;
                }
                let mut candidate = current.clone();
                candidate.program.drain(sb.range());
                remap_targets(&mut candidate.program, sb.start, sb.len());
                let Ok((fc, _)) = coverage(&candidate) else {
                    continue; // removal broke the program: keep the SB
                };
                if fc >= current_fc - 1e-12 {
                    current = candidate;
                    current_fc = fc;
                    removed_sbs += 1;
                    improved = true;
                    break; // re-segment after every accepted removal
                }
            }
            if !improved {
                break;
            }
        }

        let (fc_after, compacted_duration) = coverage(&current)?;
        let report = CompactionReport {
            name: format!("{}(baseline)", ptp.name),
            original_size: ptp.size(),
            compacted_size: current.size(),
            original_duration,
            compacted_duration,
            fc_before,
            fc_after,
            sbs_total: total_sbs,
            sbs_removed: removed_sbs,
            essential_instructions: current.size(),
            fault_sim_runs: fault_sims,
            logic_sim_runs: logic_sims,
            untestable: ctx.untestable_count(),
            compaction_time: start.elapsed(),
            // The iterative baseline interleaves tracing and fault
            // simulation per candidate; it has no per-stage split, and it
            // predates the verification gate.
            stage_timings: StageTimings::default(),
            analyze: warpstl_analyze::AnalyzeStats::default(),
            verify: warpstl_verify::VerifyStats::default(),
            metrics: warpstl_obs::Metrics::default(),
        };
        Ok((current, report))
    }
}

/// Shifts branch targets after removing `len` instructions at `at`.
fn remap_targets(program: &mut [warpstl_isa::Instruction], at: usize, len: usize) {
    for instr in program.iter_mut() {
        if let Some(t) = instr.target() {
            if t >= at + len {
                instr.set_target(t - len);
            } else if t > at {
                instr.set_target(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compactor;
    use warpstl_netlist::modules::ModuleKind;
    use warpstl_programs::generators::{generate_imm, ImmConfig};

    #[test]
    fn baseline_needs_many_fault_sims() {
        let ptp = generate_imm(&ImmConfig {
            sb_count: 6,
            ..ImmConfig::default()
        });
        let compactor = Compactor::default();
        let ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let baseline = IterativeCompactor::default();
        let (compacted, report) = baseline.compact(&ptp, &ctx).unwrap();
        assert!(compacted.size() <= ptp.size());
        // One fault simulation per candidate, versus the method's single
        // one: that is the paper's headline complexity argument.
        assert!(
            report.fault_sim_runs > 6,
            "only {} fault sims",
            report.fault_sim_runs
        );
        // Coverage never drops below the original by construction.
        assert!(report.fc_after >= report.fc_before - 1e-9);
    }

    #[test]
    fn baseline_and_method_agree_on_direction() {
        let ptp = generate_imm(&ImmConfig {
            sb_count: 5,
            ..ImmConfig::default()
        });
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let fast = compactor.compact(&ptp, &mut ctx).unwrap();
        let ctx2 = compactor.context_for(ModuleKind::DecoderUnit);
        let (slow, slow_report) = IterativeCompactor::default().compact(&ptp, &ctx2).unwrap();
        assert!(fast.compacted.size() <= ptp.size());
        assert!(slow.size() <= ptp.size());
        assert!(slow_report.fault_sim_runs > fast.report.fault_sim_runs);
    }
}
