//! Parallel/serial equivalence: the threaded engine must produce
//! **bit-identical** results to the serial oracle — same `FaultSimReport`
//! (per-pattern stats), same fault-list state (cc-stamps included), same
//! coverage — for every thread count, in drop and non-drop modes.

mod support;

use support::fault_simulate_reference;
use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse};
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{Netlist, PatternSeq};

/// A combinational netlist with > 63 collapsed faults (multiple batches).
fn combinational() -> Netlist {
    ModuleKind::DecoderUnit.build()
}

fn pseudorandom_patterns(width: usize, count: usize, mut seed: u64) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for cc in 0..count {
        let bits: Vec<bool> = (0..width)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & 1 == 1
            })
            .collect();
        p.push_bits(cc as u64 * 3 + 7, &bits);
    }
    p
}

/// Runs reference and parallel engines side by side and asserts everything
/// observable is identical.
fn assert_equivalent(netlist: &Netlist, patterns: &PatternSeq, base: FaultSimConfig) {
    let universe = FaultUniverse::enumerate(netlist);

    let mut ref_list = FaultList::new(&universe);
    let ref_cfg = FaultSimConfig { threads: 1, ..base };
    let ref_report = fault_simulate_reference(netlist, patterns, &mut ref_list, &ref_cfg);

    for threads in [1usize, 2, 8] {
        let mut list = FaultList::new(&universe);
        let cfg = FaultSimConfig { threads, ..base };
        let report = fault_simulate(netlist, patterns, &mut list, &cfg);
        assert_eq!(
            report, ref_report,
            "FaultSimReport diverged at {threads} threads (drop={})",
            base.drop_detected
        );
        assert_eq!(
            list.coverage(),
            ref_list.coverage(),
            "coverage diverged at {threads} threads"
        );
        assert_eq!(
            list.to_report_text(),
            ref_list.to_report_text(),
            "fault-list state diverged at {threads} threads"
        );
        let dets: Vec<_> = list.detected().collect();
        let ref_dets: Vec<_> = ref_list.detected().collect();
        assert_eq!(
            dets, ref_dets,
            "detection cc-stamps diverged at {threads} threads"
        );
    }
}

fn all_modes() -> [FaultSimConfig; 2] {
    [
        FaultSimConfig::default(), // drop
        FaultSimConfig {
            drop_detected: false,
            ..FaultSimConfig::default()
        },
    ]
}

#[test]
fn combinational_module_is_equivalent_in_every_mode() {
    let n = combinational();
    let u = FaultUniverse::enumerate(&n);
    assert!(u.collapsed_len() > 63, "need multiple batches");
    let p = pseudorandom_patterns(n.inputs().width(), 48, 0x5eed_cafe_f00d_0001);
    for cfg in all_modes() {
        assert_equivalent(&n, &p, cfg);
    }
}

#[test]
fn dropping_across_two_runs_is_equivalent() {
    // The shared-list flow: a second run only targets survivors. Both
    // engines must agree after each run.
    let n = combinational();
    let u = FaultUniverse::enumerate(&n);
    let p1 = pseudorandom_patterns(n.inputs().width(), 20, 1);
    let p2 = pseudorandom_patterns(n.inputs().width(), 20, 2);

    let cfg_ref = FaultSimConfig::default();
    let mut ref_list = FaultList::new(&u);
    let ref_r1 = fault_simulate_reference(&n, &p1, &mut ref_list, &cfg_ref);
    let ref_r2 = fault_simulate_reference(&n, &p2, &mut ref_list, &cfg_ref);

    let cfg = FaultSimConfig {
        threads: 4,
        ..FaultSimConfig::default()
    };
    let mut list = FaultList::new(&u);
    let r1 = fault_simulate(&n, &p1, &mut list, &cfg);
    let r2 = fault_simulate(&n, &p2, &mut list, &cfg);

    assert_eq!(r1, ref_r1);
    assert_eq!(r2, ref_r2);
    assert_eq!(list.to_report_text(), ref_list.to_report_text());
}

#[test]
fn empty_pattern_and_saturated_list_edge_cases() {
    let n = combinational();
    let u = FaultUniverse::enumerate(&n);
    let empty = PatternSeq::new(n.inputs().width());
    let cfg = FaultSimConfig {
        threads: 8,
        ..FaultSimConfig::default()
    };

    let mut list = FaultList::new(&u);
    let mut ref_list = FaultList::new(&u);
    let r = fault_simulate(&n, &empty, &mut list, &cfg);
    let rr = fault_simulate_reference(&n, &empty, &mut ref_list, &cfg);
    assert_eq!(r, rr);
    assert_eq!(r.total_detected(), 0);

    // Saturate the list, then re-run with dropping: zero targets.
    let p = pseudorandom_patterns(n.inputs().width(), 64, 99);
    fault_simulate(&n, &p, &mut list, &cfg);
    let before = list.to_report_text();
    let again = fault_simulate(&n, &p, &mut list, &cfg);
    assert_eq!(
        again.total_detected(),
        0,
        "dropping must skip already-detected faults"
    );
    assert_eq!(list.to_report_text(), before);
}

#[test]
fn explicit_thread_count_overrides_env_but_clamps_to_host() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = FaultSimConfig {
        threads: 3,
        ..FaultSimConfig::default()
    };
    assert_eq!(cfg.resolved_threads(), 3.min(host));
    // A request far beyond any host is capped, never oversubscribed.
    let huge = FaultSimConfig {
        threads: 4096,
        ..FaultSimConfig::default()
    };
    assert_eq!(huge.resolved_threads(), host);
    let auto = FaultSimConfig::default();
    let resolved = auto.resolved_threads();
    assert!(resolved >= 1 && resolved <= host);
}
