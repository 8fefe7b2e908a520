//! Extension experiment: Small-Block *reordering* (the technique of the
//! paper's ref. 17, rebuilt on this paper's single-fault-simulation data).
//! Reorders the IMM PTP so the most fault-productive SBs run first and
//! reports how much earlier the test reaches 50 / 90 / 100 % of its
//! achievable coverage.

use warpstl_bench::{timed, Scale};
use warpstl_core::{reorder_ptp, time_to_fraction, Compactor};
use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse};
use warpstl_netlist::modules::ModuleKind;
use warpstl_programs::generators::generate_imm;
use warpstl_programs::Ptp;

fn sim(
    ptp: &Ptp,
    compactor: &Compactor,
) -> (warpstl_gpu::RunResult, warpstl_fault::FaultSimReport) {
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

fn main() {
    let scale = Scale::from_env();
    eprintln!("[scale: 1/{} of paper sizes]", scale.divisor);
    let ptp = generate_imm(&scale.imm());
    let compactor = Compactor::default();

    let (run, before) = timed("trace + fault-simulate original", || sim(&ptp, &compactor));
    let reorder = reorder_ptp(&ptp, &run.trace, &before).expect("straight-line IMM");
    let (_, after) = timed("trace + fault-simulate reordered", || {
        sim(&reorder.reordered, &compactor)
    });

    println!(
        "## Extension: Small-Block reordering (IMM, {} SBs)",
        reorder.sb_detections.len()
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "time to reach (ccs)", "original", "reordered"
    );
    for frac in [0.5, 0.9, 1.0] {
        println!(
            "{:<28} {:>12} {:>12}",
            format!("{:.0} % of achievable FC", frac * 100.0),
            time_to_fraction(&before, frac).unwrap_or(0),
            time_to_fraction(&after, frac).unwrap_or(0)
        );
    }
    println!(
        "total detections unchanged: {} == {}",
        before.total_detected(),
        after.total_detected()
    );
}
