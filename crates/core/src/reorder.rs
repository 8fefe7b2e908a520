//! Small-Block reordering (extension).
//!
//! The paper's related work includes test-program *reordering* for
//! efficient SBST (its ref. 17): moving the most fault-productive code to
//! the front shortens the time an in-field test needs to reach a given
//! coverage, even when nothing is removed. The same single-fault-simulation
//! data the compaction method collects — which clock cycles first detect
//! which faults — supports a greedy reorder: rank each Small Block by the
//! number of faults it first detects, and emit the most productive blocks
//! first.
//!
//! Reordering is restricted to straight-line PTPs (one basic block), where
//! the self-contained SB structure makes any permutation behaviour-safe;
//! the first SB keeps its place because it carries the address-setup
//! preamble.

use warpstl_fault::FaultSimReport;
use warpstl_gpu::Trace;
use warpstl_isa::Instruction;
use warpstl_programs::{segment_small_blocks, BasicBlocks, Ptp};

/// The outcome of a reorder.
#[derive(Debug, Clone)]
pub struct Reorder {
    /// The reordered PTP.
    pub reordered: Ptp,
    /// First-detection counts per SB, in original order.
    pub sb_detections: Vec<u32>,
    /// The permutation applied (new position -> original SB index).
    pub order: Vec<usize>,
}

/// An error explaining why a PTP cannot be reordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderError(String);

impl std::fmt::Display for ReorderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot reorder: {}", self.0)
    }
}

impl std::error::Error for ReorderError {}

/// Greedily reorders the Small Blocks of a straight-line PTP so the blocks
/// that first detect the most faults come first.
///
/// `trace` and `report` are the stage-2/stage-3 artifacts of one traced run
/// and one dropping fault simulation of `ptp` — the same inputs the
/// compaction method uses. In drop mode a report row's detected count is
/// the number of faults that pattern detected first.
///
/// Slot-reading PTPs reorder safely: each SB's load offsets travel with
/// its instructions, so the data image needs no relocation.
///
/// # Errors
///
/// Returns [`ReorderError`] when the PTP has control flow (more than one
/// basic block — moving code across branches would change the test) or too
/// few SBs to matter.
pub fn reorder_ptp(
    ptp: &Ptp,
    trace: &Trace,
    report: &FaultSimReport,
) -> Result<Reorder, ReorderError> {
    let bbs = BasicBlocks::of(&ptp.program);
    if bbs.count() != 1 {
        return Err(ReorderError(format!(
            "{} basic blocks (only straight-line PTPs reorder safely)",
            bbs.count()
        )));
    }
    let sbs = segment_small_blocks(&ptp.program, &bbs);
    if sbs.len() < 3 {
        return Err(ReorderError("fewer than three Small Blocks".into()));
    }

    // Count first detections per SB: detections at clock cycle cc belong
    // to the SB whose instruction interval contains cc.
    let mut sb_detections = vec![0u32; sbs.len()];
    let sb_of_pc = |pc: usize| sbs.iter().position(|sb| sb.range().contains(&pc));
    for cc in report.detecting_ccs() {
        let rec = trace
            .records()
            .iter()
            .find(|r| r.cc_start <= cc && cc < r.cc_end);
        if let Some(rec) = rec {
            if let Some(i) = sb_of_pc(rec.pc) {
                sb_detections[i] += report.detections_at_cc(cc);
            }
        }
    }

    // Greedy order: SB 0 stays (preamble); the rest sort by productivity.
    let mut order: Vec<usize> = (1..sbs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sb_detections[i]));
    order.insert(0, 0);

    let mut program: Vec<Instruction> = Vec::with_capacity(ptp.program.len());
    for &i in &order {
        program.extend(ptp.program[sbs[i].range()].iter().cloned());
    }
    // Trailing non-SB instructions (EXIT and friends) keep their place.
    let tail_start = sbs.last().expect("non-empty").end;
    program.extend(ptp.program[tail_start..].iter().cloned());
    debug_assert_eq!(program.len(), ptp.program.len());

    let mut reordered = ptp.clone();
    reordered.program = program;
    reordered.name = format!("{}(reordered)", ptp.name);
    Ok(Reorder {
        reordered,
        sb_detections,
        order,
    })
}

/// The clock cycle by which `frac` of all first detections in a dropping
/// `report` have occurred (the "time to X % of achievable coverage"
/// metric), read off its [`detection_curve`](FaultSimReport::detection_curve).
///
/// Returns `None` when the report holds no detections.
#[must_use]
pub fn time_to_fraction(report: &FaultSimReport, frac: f64) -> Option<u64> {
    let total = report.total_detected();
    if total == 0 {
        return None;
    }
    let needed = ((f64::from(total) * frac).ceil() as u32).clamp(1, total);
    report
        .detection_curve()
        .into_iter()
        .find(|&(_, so_far)| so_far >= needed)
        .map(|(cc, _)| cc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compactor;
    use warpstl_netlist::modules::ModuleKind;
    use warpstl_programs::generators::{generate_cntrl, generate_imm, CntrlConfig, ImmConfig};

    fn trace_and_sim(ptp: &Ptp) -> (warpstl_gpu::RunResult, FaultSimReport) {
        use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse};
        let compactor = Compactor::default();
        let run = compactor.trace(ptp).expect("runs");
        let netlist = ModuleKind::DecoderUnit.build();
        let universe = FaultUniverse::enumerate(&netlist);
        let mut list = FaultList::new(&universe);
        let report = fault_simulate(
            &netlist,
            &run.patterns.du,
            &mut list,
            &FaultSimConfig::default(),
        );
        (run, report)
    }

    #[test]
    fn reorder_moves_detections_earlier() {
        let ptp = generate_imm(&ImmConfig {
            sb_count: 16,
            ..ImmConfig::default()
        });
        let (run, report) = trace_and_sim(&ptp);
        let r = reorder_ptp(&ptp, &run.trace, &report).expect("reorders");
        assert_eq!(r.reordered.size(), ptp.size());
        assert_eq!(r.order[0], 0, "preamble SB must stay first");

        // Re-run and re-simulate the reordered PTP: 90 % of the achievable
        // detections must arrive no later than before.
        let (_, before) = (run, report);
        let (_, after) = trace_and_sim(&r.reordered);
        let t_before = time_to_fraction(&before, 0.9).expect("detections");
        let t_after = time_to_fraction(&after, 0.9).expect("detections");
        assert!(
            t_after <= t_before,
            "reorder slowed detection: {t_after} > {t_before}"
        );
        // Total coverage is unchanged (same pattern multiset).
        assert_eq!(after.total_detected(), before.total_detected());
    }

    #[test]
    fn control_flow_is_rejected() {
        let ptp = generate_cntrl(&CntrlConfig {
            regions: 2,
            loops: 1,
            threads: 32,
            ..CntrlConfig::default()
        });
        let (run, report) = trace_and_sim(&ptp);
        assert!(reorder_ptp(&ptp, &run.trace, &report).is_err());
    }

    #[test]
    fn time_to_fraction_edges() {
        let mut r = FaultSimReport::new();
        assert_eq!(time_to_fraction(&r, 0.9), None);
        r.record_pattern(10, 1, 1);
        r.record_pattern(20, 1, 1);
        r.record_pattern(30, 1, 1);
        assert_eq!(time_to_fraction(&r, 0.0), Some(10));
        assert_eq!(time_to_fraction(&r, 0.5), Some(20));
        assert_eq!(time_to_fraction(&r, 1.0), Some(30));
    }
}
