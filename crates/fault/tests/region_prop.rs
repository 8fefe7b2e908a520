//! The kernel's fanout-free regions at their edges. A one-seed fault walks
//! its region's path to the stem, and past the stem it shares one
//! observability walk with the other faults of that stem. Chain-biased
//! netlists (`support::build_chain_netlist`) put the region table's edge
//! cases in every case: long fanout-free chains, outputs mid-chain that
//! one later gate reads, gates reading one net on two pins, and dead-end
//! gates.
//!
//! On them, stuck-at and transition faults are `==` to the serial oracles
//! in drop and non-drop mode at 1 and 2 worker threads.
//! `fault_simulate_instances` and `fault_detect_instances` are `==` to
//! independent per-instance runs, with a target mask on odd instances.

mod lanes;
mod support;

use proptest::prelude::*;

use lanes::{flags, shape, streams};
use support::{
    build_chain_netlist, fault_simulate_reference, pseudorandom_patterns, tdf_simulate_reference,
    GateSpec,
};
use warpstl_fault::tdf::TdfList;
use warpstl_fault::{
    fault_detect_instances, fault_simulate, fault_simulate_guided, fault_simulate_instances,
    FaultList, FaultSimConfig, FaultUniverse, SimGuide,
};
use warpstl_netlist::{FanoutCones, Netlist, PatternSeq};

fn specs() -> impl Strategy<Value = Vec<GateSpec>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 8..64)
}

/// Instance counts: two, three and the SP cores' 8.
fn instances() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [2, 3, 8][i])
}

/// Per instance, a target mask on odd instances and none on even ones.
fn masks(n: usize, k: usize, seed: u64) -> Vec<Option<Vec<bool>>> {
    (0..k)
        .map(|i| (i % 2 == 1).then(|| flags(n, seed.rotate_left(17) ^ i as u64)))
        .collect()
}

/// The pin reads of every net (a gate reading a net on two pins counts
/// twice), and whether each net is a module output.
fn fanout(netlist: &Netlist) -> (Vec<usize>, Vec<bool>) {
    let cones = FanoutCones::of(netlist);
    let reads = (0..cones.len())
        .map(|n| cones.successors(n).len())
        .collect();
    let mut is_out = vec![false; cones.len()];
    for net in netlist.outputs().nets() {
        is_out[net.index()] = true;
    }
    (reads, is_out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stuck_at_matches_the_serial_oracle(
        n_inputs in 2usize..6,
        specs in specs(),
        seed in any::<u64>(),
        n_pat in 1usize..400,
        drop in any::<bool>(),
    ) {
        let netlist = build_chain_netlist(n_inputs, &specs);
        let universe = FaultUniverse::enumerate(&netlist);
        let patterns = pseudorandom_patterns(netlist.inputs().width(), n_pat, seed);
        let mut oracle_list = FaultList::new(&universe);
        let oracle = fault_simulate_reference(
            &netlist,
            &patterns,
            &mut oracle_list,
            &FaultSimConfig { drop_detected: drop, threads: 1 },
        );
        for threads in [1, 2] {
            let cfg = FaultSimConfig { drop_detected: drop, threads };
            let mut list = FaultList::new(&universe);
            let report = fault_simulate(&netlist, &patterns, &mut list, &cfg);
            prop_assert_eq!(&report, &oracle, "report at threads={}", threads);
            prop_assert_eq!(
                list.to_report_text(), oracle_list.to_report_text(),
                "list state at threads={}", threads
            );
        }
    }

    #[test]
    fn transition_faults_match_the_serial_oracle(
        n_inputs in 2usize..6,
        specs in specs(),
        seed in any::<u64>(),
        n_pat in 1usize..400,
        drop in any::<bool>(),
    ) {
        let netlist = build_chain_netlist(n_inputs, &specs);
        let patterns = pseudorandom_patterns(netlist.inputs().width(), n_pat, seed);
        let mut oracle_list = TdfList::enumerate(&netlist);
        let oracle = tdf_simulate_reference(
            &netlist,
            &patterns,
            &mut oracle_list,
            &FaultSimConfig { drop_detected: drop, threads: 1 },
        );
        for threads in [1, 2] {
            let cfg = FaultSimConfig { drop_detected: drop, threads };
            let mut list = TdfList::enumerate(&netlist);
            let report = fault_simulate(&netlist, &patterns, &mut list, &cfg);
            prop_assert_eq!(&report, &oracle, "report at threads={}", threads);
            prop_assert_eq!(
                list.to_report_text(), oracle_list.to_report_text(),
                "list state at threads={}", threads
            );
        }
    }

    #[test]
    fn instances_match_independent_runs(
        n_inputs in 2usize..6,
        specs in specs(),
        seed in any::<u64>(),
        k in instances(),
        shape in shape(),
        len in 1usize..300,
        threads in 1usize..=2,
    ) {
        let netlist = build_chain_netlist(n_inputs, &specs);
        let universe = FaultUniverse::enumerate(&netlist);
        let s = streams(netlist.inputs().width(), k, shape, len, seed);
        let refs: Vec<&PatternSeq> = s.iter().collect();
        let cfg = FaultSimConfig { drop_detected: true, threads };
        let guide = SimGuide::default();
        let mut lists = vec![FaultList::new(&universe); k];
        let bits = masks(lists[0].len(), k, seed);
        let masks: Vec<Option<&[bool]>> = bits.iter().map(Option::as_deref).collect();
        let reports =
            fault_simulate_instances(&netlist, &refs, &mut lists, &cfg, None, &guide, &masks);
        for (i, (report, list)) in reports.into_iter().zip(&lists).enumerate() {
            let mut alone = FaultList::new(&universe);
            let guide = SimGuide { targets: masks[i], ..guide };
            let want = guide
                .runs_over(&s[i])
                .then(|| fault_simulate_guided(&netlist, &s[i], &mut alone, &cfg, None, &guide));
            prop_assert_eq!(report, want, "instance {} report", i);
            prop_assert_eq!(
                list.to_report_text(), alone.to_report_text(),
                "instance {} list", i
            );
        }
    }

    #[test]
    fn detection_passes_match_independent_runs(
        n_inputs in 2usize..6,
        specs in specs(),
        seed in any::<u64>(),
        k in instances(),
        shape in shape(),
        len in 1usize..300,
        threads in 1usize..=2,
    ) {
        let netlist = build_chain_netlist(n_inputs, &specs);
        let universe = FaultUniverse::enumerate(&netlist);
        let s = streams(netlist.inputs().width(), k, shape, len, seed);
        let refs: Vec<&PatternSeq> = s.iter().collect();
        let cfg = FaultSimConfig { drop_detected: true, threads };
        let guide = SimGuide::default();
        let mut lists = vec![FaultList::new(&universe); k];
        let bits = masks(lists[0].len(), k, seed);
        let masks: Vec<Option<&[bool]>> = bits.iter().map(Option::as_deref).collect();
        fault_detect_instances(&netlist, &refs, &mut lists, &cfg, None, &guide, &masks);
        for (i, list) in lists.iter().enumerate() {
            let mut alone = FaultList::new(&universe);
            let guide = SimGuide { targets: masks[i], ..guide };
            if guide.runs_over(&s[i]) {
                fault_simulate_guided(&netlist, &s[i], &mut alone, &cfg, None, &guide);
            }
            prop_assert_eq!(
                list.to_report_text(), alone.to_report_text(),
                "instance {} list", i
            );
        }
    }
}

#[test]
fn chain_netlists_hold_every_region_edge_case() {
    // Over a spread of seeds, `build_chain_netlist` yields each edge case
    // the properties above rely on.
    let (mut chain, mut one_reader_out, mut two_pins, mut dead_end) = (0, false, false, false);
    for seed in 1..=64u64 {
        let specs: Vec<GateSpec> = lanes::draws(seed)
            .take(48)
            .map(|v| (v as u8, (v >> 8) as u8, (v >> 16) as u8, (v >> 24) as u8))
            .collect();
        let netlist = build_chain_netlist(3, &specs);
        let (reads, is_out) = fanout(&netlist);
        let gates = netlist.gates();
        // The longest run of consecutive nets each read once, by the next.
        let mut run = 0;
        for (g, gate) in gates.iter().enumerate() {
            let extends = gate
                .inputs()
                .iter()
                .any(|p| p.index() + 1 == g && reads[p.index()] == 1 && !is_out[p.index()]);
            run = if extends { run + 1 } else { 0 };
            chain = chain.max(run);
            let pins = gate.inputs();
            two_pins |= (0..pins.len()).any(|a| pins[a + 1..].contains(&pins[a]));
        }
        for net in 0..gates.len() {
            one_reader_out |= is_out[net] && reads[net] == 1;
            dead_end |= !is_out[net] && reads[net] == 0 && !gates[net].inputs().is_empty();
        }
    }
    assert!(chain >= 8, "longest fanout-free chain: {chain}");
    assert!(one_reader_out, "no output that exactly one gate reads");
    assert!(two_pins, "no gate reading one net on two pins");
    assert!(dead_end, "no dead-end gate");
}
