//! Engine edge cases: degenerate inputs (no patterns, no target faults)
//! and the 63-fault lane-mask boundary, where a batch fills every faulty
//! lane of the 64-bit word and `lanes_mask` must be `!1` (the shifted-mask
//! formula `1 << 64` would overflow). Each case is checked against the
//! serial oracle for bit-identity and, where relevant, against the
//! observability counters.

mod support;

use support::fault_simulate_reference;
use warpstl_fault::{
    fault_simulate, fault_simulate_guided, FaultList, FaultSimConfig, FaultUniverse, SimGuide,
};
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::Recorder;

fn module() -> Netlist {
    ModuleKind::DecoderUnit.build()
}

fn pseudorandom_patterns(width: usize, count: usize, mut seed: u64) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for cc in 0..count as u64 {
        let bits: Vec<bool> = (0..width)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & 1 == 1
            })
            .collect();
        p.push_bits(cc, &bits);
    }
    p
}

/// Leaves exactly `n` faults undetected (the first `n` ids) so a drop-mode
/// run targets exactly one partial/full batch.
fn list_with_undetected(universe: &FaultUniverse, n: usize) -> FaultList {
    let mut list = FaultList::new(universe);
    list.begin_run();
    for id in n..list.len() {
        list.mark_detected(id, 0, 0);
    }
    assert_eq!(list.undetected().count(), n);
    list
}

#[test]
fn zero_patterns_record_an_empty_run() {
    let n = module();
    let universe = FaultUniverse::enumerate(&n);
    let empty = PatternSeq::new(n.inputs().width());
    let rec = Recorder::new();

    let mut list = FaultList::new(&universe);
    let report = fault_simulate_guided(
        &n,
        &empty,
        &mut list,
        &FaultSimConfig::default(),
        Some(&rec),
        &SimGuide::default(),
    );
    assert_eq!(report.total_detected(), 0);
    assert_eq!(list.detected().count(), 0);

    let m = rec.metrics();
    assert_eq!(m.counter("fsim.runs"), 1);
    assert_eq!(m.counter("fsim.kernel.runs"), 1);
    assert_eq!(m.counter("fsim.patterns"), 0);
    assert_eq!(m.counter("fsim.detections"), 0);
    assert_eq!(m.counter("fsim.kernel.fault_blocks"), 0);
    // The run and worker spans still bracket the (empty) work.
    let spans = rec.spans();
    assert!(spans.iter().any(|s| s.name == "fsim.run"));
    assert!(spans.iter().any(|s| s.name == "fsim.worker"));
}

#[test]
fn zero_target_faults_is_a_clean_noop() {
    let n = module();
    let universe = FaultUniverse::enumerate(&n);
    let pats = pseudorandom_patterns(n.inputs().width(), 16, 0xed6e_0001);
    let cfg = FaultSimConfig::default(); // drop mode: targets = undetected
    let rec = Recorder::new();

    // Every fault pre-detected: the engine plans zero batches.
    let mut list = list_with_undetected(&universe, 0);
    let before = list.to_report_text();
    let report =
        fault_simulate_guided(&n, &pats, &mut list, &cfg, Some(&rec), &SimGuide::default());
    assert_eq!(report.total_detected(), 0);
    assert_eq!(list.to_report_text(), before);

    let mut ref_list = list_with_undetected(&universe, 0);
    let ref_report = fault_simulate_reference(&n, &pats, &mut ref_list, &cfg);
    assert_eq!(report, ref_report);

    let m = rec.metrics();
    assert_eq!(m.counter("fsim.target_faults"), 0);
    assert_eq!(m.counter("fsim.batches"), 0);
    assert_eq!(m.counter("fsim.detections"), 0);
}

/// Runs parallel and reference engines from identically prepared lists and
/// asserts bit-identical reports and list states.
fn assert_boundary_equivalent(undetected: usize) {
    let n = module();
    let universe = FaultUniverse::enumerate(&n);
    assert!(universe.collapsed_len() > 64, "need enough faults");
    let pats = pseudorandom_patterns(n.inputs().width(), 32, 0xed6e_0002);

    for threads in [1usize, 4] {
        let cfg = FaultSimConfig {
            threads,
            ..FaultSimConfig::default()
        };
        let mut list = list_with_undetected(&universe, undetected);
        let report = fault_simulate(&n, &pats, &mut list, &cfg);

        let mut ref_list = list_with_undetected(&universe, undetected);
        let ref_report = fault_simulate_reference(&n, &pats, &mut ref_list, &cfg);

        assert_eq!(
            report, ref_report,
            "report diverged at {undetected} targets, {threads} threads"
        );
        assert_eq!(
            list.to_report_text(),
            ref_list.to_report_text(),
            "list state diverged at {undetected} targets, {threads} threads"
        );
    }
}

#[test]
fn lane_mask_boundary_at_62_63_and_64_faults() {
    // 62: partial batch, shifted mask. 63: full batch, `lanes_mask = !1`
    // (the overflow-prone boundary). 64: a full batch plus a 1-fault batch.
    for undetected in [62usize, 63, 64] {
        assert_boundary_equivalent(undetected);
    }
}

#[test]
fn full_batch_records_63_lane_detections() {
    // Independent of the reference comparison, the 63-fault batch must be
    // able to *detect on every faulty lane*: lanes_mask covers bits 1..=63.
    let n = module();
    let universe = FaultUniverse::enumerate(&n);
    let pats = pseudorandom_patterns(n.inputs().width(), 64, 0xed6e_0003);
    let rec = Recorder::new();

    let mut list = list_with_undetected(&universe, 63);
    let cfg = FaultSimConfig {
        drop_detected: true,
        threads: 1,
    };
    fault_simulate_guided(&n, &pats, &mut list, &cfg, Some(&rec), &SimGuide::default());

    let m = rec.metrics();
    assert_eq!(m.counter("fsim.target_faults"), 63);
    assert_eq!(m.counter("fsim.batches"), 1);
    // The DU saturates quickly under pseudorandom patterns: a healthy
    // majority of the 63 lanes must report detections through the mask.
    assert!(
        m.counter("fsim.detections") > 32,
        "only {} of 63 boundary-batch lanes detected",
        m.counter("fsim.detections")
    );
}
