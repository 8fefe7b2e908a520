//! Integration tests for the extension surfaces: the FP32 unit flow and
//! the transition-delay fault model.

use warpstl::compactor::{label_instructions, reduce_ptp, Compactor};
use warpstl::fault::tdf::TdfList;
use warpstl::fault::{fault_simulate, FaultSimConfig};
use warpstl::netlist::modules::ModuleKind;
use warpstl::programs::generators::{generate_fpu, generate_imm, FpuConfig, ImmConfig};

#[test]
fn fpu_ptp_compacts_through_the_standard_pipeline() {
    let ptp = generate_fpu(&FpuConfig {
        sb_count: 12,
        ..FpuConfig::default()
    });
    let compactor = Compactor::default();
    let mut ctx = compactor.context_for(ModuleKind::Fp32);
    assert_eq!(ctx.instances(), 8);
    let out = compactor.compact(&ptp, &mut ctx).expect("FPU compacts");
    assert_eq!(out.report.fault_sim_runs, 1);
    assert!(out.compacted.size() <= ptp.size());
    assert!(out.report.fc_before > 0.1, "FC {}", out.report.fc_before);
    // The compacted PTP still runs.
    let kernel = out.compacted.to_kernel().expect("kernel");
    warpstl::gpu::Gpu::default()
        .run(&kernel, &warpstl::gpu::RunOptions::default())
        .expect("compacted FPU runs");
}

#[test]
fn fp32_capture_feeds_the_module_context() {
    let ptp = generate_fpu(&FpuConfig {
        sb_count: 4,
        ..FpuConfig::default()
    });
    let compactor = Compactor::default();
    let run = compactor.trace(&ptp).expect("runs");
    let ctx = compactor.context_for(ModuleKind::Fp32);
    let streams = ctx.streams(&run.patterns);
    assert_eq!(streams.len(), 8);
    assert!(streams.iter().all(|s| !s.is_empty()));
    // Stream width matches the fp32 netlist.
    assert_eq!(streams[0].width(), ctx.netlist().inputs().width());
}

#[test]
fn tdf_compaction_reuses_the_labeling_stage() {
    // Seed/size chosen so the program carries clearly redundant SBs under
    // TDF labeling (several late SBs re-toggle already-covered pairs).
    let ptp = generate_imm(&ImmConfig {
        sb_count: 28,
        seed: 0xdead_beef,
        ..ImmConfig::default()
    });
    let compactor = Compactor::default();
    let netlist = ModuleKind::DecoderUnit.build();
    let run = compactor.trace(&ptp).expect("runs");
    let mut list = TdfList::enumerate(&netlist);
    let report = fault_simulate(
        &netlist,
        &run.patterns.du,
        &mut list,
        &FaultSimConfig::default(),
    );
    assert!(list.coverage() > 0.05, "TDF coverage {}", list.coverage());

    let labels = label_instructions(ptp.program.len(), &run.trace, &report);
    assert!(labels.essential_count() > 0);
    let reduction = reduce_ptp(&ptp, &labels);
    assert!(reduction.removed_sbs > 0, "nothing removed under TDF");

    // The compacted program must still run and keep most TDF coverage.
    let mut compacted = ptp.clone();
    compacted.program = reduction.program;
    let comp_run = compactor.trace(&compacted).expect("compacted runs");
    let mut comp_list = TdfList::enumerate(&netlist);
    fault_simulate(
        &netlist,
        &comp_run.patterns.du,
        &mut comp_list,
        &FaultSimConfig::default(),
    );
    assert!(
        comp_list.coverage() >= list.coverage() - 0.05,
        "TDF coverage fell {} -> {}",
        list.coverage(),
        comp_list.coverage()
    );
}

#[test]
fn tdf_and_stuck_at_label_differently() {
    // The two fault models credit different instructions: a stuck-at
    // detection needs one pattern, a transition needs a pair, so the
    // first SB's first patterns can never be TDF-essential the same way.
    let ptp = generate_imm(&ImmConfig {
        sb_count: 10,
        ..ImmConfig::default()
    });
    let compactor = Compactor::default();
    let netlist = ModuleKind::DecoderUnit.build();
    let run = compactor.trace(&ptp).expect("runs");

    let mut tdf_list = TdfList::enumerate(&netlist);
    let tdf_report = fault_simulate(
        &netlist,
        &run.patterns.du,
        &mut tdf_list,
        &FaultSimConfig::default(),
    );
    let tdf_labels = label_instructions(ptp.program.len(), &run.trace, &tdf_report);

    let universe = warpstl::fault::FaultUniverse::enumerate(&netlist);
    let mut sa_list = warpstl::fault::FaultList::new(&universe);
    let sa_report = warpstl::fault::fault_simulate(
        &netlist,
        &run.patterns.du,
        &mut sa_list,
        &FaultSimConfig::default(),
    );
    let sa_labels = label_instructions(ptp.program.len(), &run.trace, &sa_report);

    let tdf_set: Vec<bool> = (0..ptp.size())
        .map(|pc| tdf_labels.is_essential(pc))
        .collect();
    let sa_set: Vec<bool> = (0..ptp.size())
        .map(|pc| sa_labels.is_essential(pc))
        .collect();
    assert_ne!(tdf_set, sa_set, "fault models labeled identically");
}
