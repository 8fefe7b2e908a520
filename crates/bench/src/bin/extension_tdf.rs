//! Extension experiment: the paper's future work includes "targeting other
//! fault models". The compaction pipeline is fault-model-agnostic — the
//! labeling stage only consumes "detections per clock cycle" — so this
//! binary compacts the IMM PTP against **transition-delay faults** of the
//! Decoder Unit: one traced run, one TDF simulation, the same labeling and
//! reduction stages.

use warpstl_bench::{timed, Scale};
use warpstl_core::{label_instructions, reduce_ptp, Compactor};
use warpstl_fault::tdf::TdfList;
use warpstl_fault::{fault_simulate, FaultSimConfig};
use warpstl_netlist::modules::ModuleKind;
use warpstl_programs::generators::generate_imm;

fn main() {
    let scale = Scale::from_env();
    eprintln!("[scale: 1/{} of paper sizes]", scale.divisor);
    let ptp = generate_imm(&scale.imm());
    let compactor = Compactor::default();
    let netlist = ModuleKind::DecoderUnit.build();

    // Stage 2: one logic simulation with the hardware monitor.
    let run = timed("trace", || compactor.trace(&ptp).expect("runs"));

    // Stage 3 under the transition-delay model: one TDF simulation.
    let mut list = TdfList::enumerate(&netlist);
    let report = timed("TDF simulation", || {
        fault_simulate(
            &netlist,
            &run.patterns.du,
            &mut list,
            &FaultSimConfig::default(),
        )
    });
    let fc_before = list.coverage();

    // Stages 3b-5: unchanged labeling and reduction.
    let labels = label_instructions(ptp.program.len(), &run.trace, &report);
    let reduction = reduce_ptp(&ptp, &labels);
    let mut compacted = ptp.clone();
    compacted.program = reduction.program;
    compacted.global_init = reduction.global_init;

    // Evaluate the compacted PTP's standalone TDF coverage.
    let comp_run = compactor.trace(&compacted).expect("compacted runs");
    let mut comp_list = TdfList::enumerate(&netlist);
    fault_simulate(
        &netlist,
        &comp_run.patterns.du,
        &mut comp_list,
        &FaultSimConfig::default(),
    );

    println!("## Extension: compaction under the transition-delay fault model");
    println!("target: decoder_unit, {} transition faults", list.len());
    println!(
        "size:     {} -> {} instructions ({:.2} % reduction)",
        ptp.size(),
        compacted.size(),
        100.0 * (1.0 - compacted.size() as f64 / ptp.size() as f64)
    );
    println!("duration: {} -> {} ccs", run.cycles, comp_run.cycles);
    println!(
        "TDF coverage: {:.2}% -> {:.2}% (Δ {:+.2} pp)",
        fc_before * 100.0,
        comp_list.coverage() * 100.0,
        (comp_list.coverage() - fc_before) * 100.0
    );
    println!(
        "SBs removed: {}/{}; essential instructions: {}",
        reduction.removed_sbs,
        reduction.total_sbs,
        labels.essential_count()
    );
}
