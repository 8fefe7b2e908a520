//! Oracle for the evaluation stage: a report's `fc_before` and `fc_after`
//! must equal — bit for bit — the standalone coverage computed the plain
//! way: fresh fault lists, the whole captured stream of every instance,
//! one unguided [`fault_simulate`] per instance.
//!
//! Three seeded PTPs are compacted in order against one context per
//! module, so the second and third find faults already dropped from the
//! shared lists (the masked `fc_before` path). `fc_after` takes one of
//! three paths: no run, when the compacted program applies no new row and
//! witness rows settle all of the original's detected set; a run masked to
//! the unsettled rest of that set; or, when it applies new rows, a run over
//! every fault not settled. The test checks that each path occurs, that
//! the witnessed faults are detected by both programs, and that some
//! compacted program detects a fault its original does not. It runs under
//! stuck-at and bridging faults, with fault dropping on and off in the
//! method's own simulation, and with untestable pruning on and off.

use std::sync::Arc;

use warpstl_core::{Compactor, ModuleContext};
use warpstl_fault::{
    fault_simulate, BridgeConfig, BridgeUniverse, FaultList, FaultModel, FaultSimConfig,
    SiteOverride,
};
use warpstl_gpu::RunResult;
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::PatternSeq;
use warpstl_obs::{names, Recorder};
use warpstl_programs::generators::{
    generate_cntrl, generate_fpu, generate_rand_sp, generate_sfu_imm, CntrlConfig, FpuConfig,
    RandConfig, SfuImmConfig,
};
use warpstl_programs::Ptp;

/// Three small PTPs per module, differing only in their generator seed.
/// The DU runs CNTRL: its compacted programs apply new rows, and at these
/// seeds some detect faults their original does not — the case where
/// `fc_after` must not be restricted to the original's detected set.
fn cases() -> Vec<(ModuleKind, Vec<Ptp>, bool)> {
    let seeds = [10u64, 20, 30];
    vec![
        (
            ModuleKind::DecoderUnit,
            seeds
                .map(|seed| {
                    generate_cntrl(&CntrlConfig {
                        regions: 4,
                        threads: 64,
                        seed,
                        ..CntrlConfig::default()
                    })
                })
                .to_vec(),
            false,
        ),
        (
            ModuleKind::SpCore,
            seeds
                .map(|seed| {
                    generate_rand_sp(&RandConfig {
                        sb_count: 4,
                        seed,
                        ..RandConfig::default()
                    })
                })
                .to_vec(),
            false,
        ),
        (
            ModuleKind::Sfu,
            seeds
                .map(|seed| {
                    generate_sfu_imm(&SfuImmConfig {
                        max_patterns: 8,
                        seed,
                        ..SfuImmConfig::default()
                    })
                })
                .to_vec(),
            true,
        ),
        (
            ModuleKind::Fp32,
            seeds
                .map(|seed| {
                    generate_fpu(&FpuConfig {
                        sb_count: 4,
                        seed,
                        ..FpuConfig::default()
                    })
                })
                .to_vec(),
            false,
        ),
    ]
}

/// Runs each instance's whole stream once, in drop mode, on fresh
/// `lists` — the way the evaluation used to compute a standalone coverage
/// — and returns their mean coverage and per-instance detected sets.
fn reference<F: SiteOverride>(
    ctx: &ModuleContext,
    streams: &[&PatternSeq],
    mut lists: Vec<FaultList<F>>,
) -> (f64, Vec<Vec<bool>>) {
    for (stream, list) in streams.iter().zip(&mut lists) {
        if !stream.is_empty() {
            fault_simulate(ctx.netlist(), stream, list, &FaultSimConfig::default());
        }
    }
    let coverage = lists.iter().map(FaultList::coverage).sum::<f64>() / lists.len().max(1) as f64;
    (
        coverage,
        lists.iter().map(FaultList::detection_flags).collect(),
    )
}

/// The standalone coverage and detected sets of a traced program on fresh
/// lists of `ctx`'s module under the compactor's fault model.
fn standalone(
    compactor: &Compactor,
    ctx: &ModuleContext,
    run: &RunResult,
) -> (f64, Vec<Vec<bool>>) {
    let streams = ctx.streams(&run.patterns);
    match compactor.fault_model {
        FaultModel::StuckAt => reference(ctx, &streams, ctx.fresh_lists()),
        FaultModel::Bridging => {
            let universe = BridgeUniverse::sample(ctx.netlist(), &compactor.bridge_config);
            let lists = (0..ctx.instances()).map(|_| universe.new_list()).collect();
            reference(ctx, &streams, lists)
        }
    }
}

/// The number of faults flagged in every set of `sets` at once.
fn count_all(sets: &[&[Vec<bool>]]) -> u64 {
    let instances = sets[0].len();
    (0..instances)
        .map(|i| {
            (0..sets[0][i].len())
                .filter(|&id| sets.iter().all(|s| s[i][id]))
                .count() as u64
        })
        .sum()
}

#[test]
fn fc_before_and_after_equal_the_fresh_list_reference() {
    let mut no_run_ptps = 0;
    let mut masked_ptps = 0;
    let mut new_row_ptps = 0;
    let mut escaping_ptps = 0;
    for model in [FaultModel::StuckAt, FaultModel::Bridging] {
        for drop in [true, false] {
            for prune in [true, false] {
                for (module, ptps, reverse) in cases() {
                    let compactor = Compactor {
                        fault_model: model,
                        bridge_config: BridgeConfig {
                            pairs: 24,
                            ..BridgeConfig::default()
                        },
                        fsim_config: FaultSimConfig {
                            drop_detected: drop,
                            ..FaultSimConfig::default()
                        },
                        reverse_patterns: reverse,
                        prune_untestable: prune,
                        obs: Some(Arc::new(Recorder::new())),
                        ..Compactor::default()
                    };
                    let mut ctx = compactor.context_for(module);
                    for (k, ptp) in ptps.iter().enumerate() {
                        let out = compactor.compact(ptp, &mut ctx).expect("PTP compacts");
                        let tag =
                            format!("{module} PTP {k} model={model} drop={drop} prune={prune}");
                        let original = compactor.trace(ptp).expect("PTP runs");
                        let compacted = compactor.trace(&out.compacted).expect("CPTP runs");
                        let (before, original_set) = standalone(&compactor, &ctx, &original);
                        let (after, compacted_set) = standalone(&compactor, &ctx, &compacted);
                        assert_eq!(
                            out.report.fc_before.to_bits(),
                            before.to_bits(),
                            "fc_before, {tag}"
                        );
                        assert_eq!(
                            out.report.fc_after.to_bits(),
                            after.to_bits(),
                            "fc_after, {tag}"
                        );
                        // Witnessed faults are detected by both programs.
                        let metrics = &out.report.metrics;
                        let witnessed = metrics.counter(names::EVAL_WITNESSED);
                        let resimulated = metrics.counter(names::EVAL_RESIMULATED);
                        let in_p = count_all(&[&original_set]);
                        let in_both = count_all(&[&original_set, &compacted_set]);
                        assert!(witnessed <= in_both, "witnessed faults, {tag}");
                        // Whether every instance applies only rows its
                        // original applied: the fc_after run, if any, is
                        // then masked to the original's unwitnessed set.
                        let no_new_rows = ctx
                            .streams(&compacted.patterns)
                            .iter()
                            .zip(ctx.streams(&original.patterns))
                            .all(|(c, o)| c.rows_subset_of(o));
                        if !no_new_rows {
                            new_row_ptps += 1;
                        } else if resimulated == 0 {
                            // No run: witness rows settled all of D(P′).
                            let in_cptp = count_all(&[&compacted_set]);
                            assert_eq!(witnessed, in_cptp, "no-run path, {tag}");
                            no_run_ptps += 1;
                        } else {
                            assert!(witnessed + resimulated <= in_p, "masked path, {tag}");
                            masked_ptps += 1;
                        }
                        let escapes = compacted_set
                            .iter()
                            .zip(&original_set)
                            .any(|(c, o)| c.iter().zip(o).any(|(&c, &o)| c && !o));
                        if escapes {
                            assert!(!no_new_rows, "only new rows detect new faults, {tag}");
                            escaping_ptps += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        no_run_ptps > 0 && masked_ptps > 0 && new_row_ptps > 0,
        "every fc_after path must be exercised: {no_run_ptps} without a run, \
         {masked_ptps} masked to the original's set, {new_row_ptps} with new rows"
    );
    assert!(
        escaping_ptps > 0,
        "no compacted program detected a fault outside its original's set"
    );
}
