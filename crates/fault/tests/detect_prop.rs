//! `fault_detect_instances` against independent per-instance runs: on
//! random combinational netlists with few inputs (so every stream repeats
//! rows), with 1, 2, 3 or 8 instances whose streams are identical, share a
//! body behind per-instance prologues, are drawn independently, or are one
//! body cut at different lengths, every instance's fault-list report text
//! is `==` to a drop-mode `fault_simulate_guided` run over that instance's
//! whole stream. The lists carry faults detected beforehand by real runs,
//! odd instances carry target masks, and untestable pruning switches on
//! and off, at 1 and 2 worker threads, for stuck-at and bridging faults.
//!
//! The pass walks the first-occurrence union U′: at each position, the
//! rows some instance applies there for the first time, once per value.
//! The tests recompute |U′| independently and check the `fsim.detect.*`
//! counters against it.

mod lanes;
mod support;

use std::collections::HashSet;

use proptest::prelude::*;

use lanes::{flags, patterns, shape, streams, Shape};
use support::build_netlist;
use warpstl_fault::tdf::TdfList;
use warpstl_fault::{
    fault_detect_instances, fault_simulate_guided, BridgeConfig, BridgeUniverse, FaultList,
    FaultSimConfig, FaultUniverse, SimGuide, SiteOverride,
};
use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::{names, Recorder};

/// One case's switches.
#[derive(Debug, Clone, Copy)]
struct Axes {
    threads: usize,
    untestable: bool,
    masked: bool,
}

fn axes() -> impl Strategy<Value = Axes> {
    (1usize..=2, any::<bool>(), any::<bool>()).prop_map(|(threads, untestable, masked)| Axes {
        threads,
        untestable,
        masked,
    })
}

/// |U′| over the instances that have a target, in groups of at most 64:
/// at each position, the distinct row values that some instance of the
/// group applies there for the first time. Recomputed from the documented
/// rule, not from the engine.
fn first_occurrence_rows<F>(
    streams: &[PatternSeq],
    lists: &[FaultList<F>],
    masks: &[Option<&[bool]>],
    untestable: Option<&[bool]>,
) -> usize {
    let members: Vec<&PatternSeq> = (0..streams.len())
        .filter(|&i| {
            let mask = masks[i];
            !streams[i].is_empty()
                && lists[i]
                    .undetected()
                    .any(|id| mask.is_none_or(|m| m[id]) && untestable.is_none_or(|u| !u[id]))
        })
        .map(|i| &streams[i])
        .collect();
    let group_rows = |group: &[&PatternSeq]| -> usize {
        let longest = group.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut seen: Vec<HashSet<&[u64]>> = vec![HashSet::new(); group.len()];
        (0..longest)
            .map(|t| {
                let mut fresh: Vec<&[u64]> = group
                    .iter()
                    .zip(&mut seen)
                    .filter(|(s, _)| s.len() > t)
                    .filter_map(|(s, seen)| seen.insert(s.row(t)).then(|| s.row(t)))
                    .collect();
                fresh.sort_unstable();
                fresh.dedup();
                fresh.len()
            })
            .sum()
    };
    members.chunks(64).map(group_rows).sum()
}

/// Runs one case: pre-detects with a short real run per instance, then
/// checks `fault_detect_instances` against instance-by-instance runs over
/// the whole streams and the `fsim.detect.*` counters against
/// [`first_occurrence_rows`]. Returns |U′|.
fn check<F: SiteOverride + std::fmt::Display>(
    netlist: &Netlist,
    fresh: FaultList<F>,
    streams: &[PatternSeq],
    pre_len: usize,
    seed: u64,
    axes: Axes,
) -> usize {
    let n = fresh.len();
    let unt = flags(n, seed.rotate_left(31));
    let guide = SimGuide {
        untestable: axes.untestable.then_some(unt.as_slice()),
        ..SimGuide::default()
    };
    let cfg = FaultSimConfig {
        drop_detected: true,
        threads: axes.threads,
    };
    let width = netlist.inputs().width();
    let mut lists: Vec<FaultList<F>> = (0..streams.len())
        .map(|i| {
            let mut list = fresh.clone();
            let pre = patterns(width, pre_len, seed ^ (0x55 + i as u64), 1 << 20);
            if !pre.is_empty() {
                fault_simulate_guided(netlist, &pre, &mut list, &cfg, None, &guide);
            }
            list
        })
        .collect();
    let mask_bits: Vec<Vec<bool>> = (0..streams.len())
        .map(|i| flags(n, seed.rotate_left(17) ^ i as u64))
        .collect();
    let masks: Vec<Option<&[bool]>> = mask_bits
        .iter()
        .enumerate()
        .map(|(i, m)| (axes.masked && i % 2 == 1).then_some(m.as_slice()))
        .collect();

    let mut runs = 0;
    let expected: Vec<(String, u32)> = (0..streams.len())
        .map(|i| {
            let mut list = lists[i].clone();
            let alone = SimGuide {
                targets: masks[i],
                ..guide
            };
            if alone.runs_over(&streams[i]) {
                runs += 1;
                fault_simulate_guided(netlist, &streams[i], &mut list, &cfg, None, &alone);
            }
            (list.to_report_text(), list.begin_run())
        })
        .collect();
    let rows = first_occurrence_rows(streams, &lists, &masks, guide.untestable);

    let rec = Recorder::new();
    let refs: Vec<&PatternSeq> = streams.iter().collect();
    fault_detect_instances(netlist, &refs, &mut lists, &cfg, Some(&rec), &guide, &masks);
    for (i, (list, want)) in lists.iter().zip(expected).enumerate() {
        // The next run's number shows one run started on exactly the
        // lists a run alone would start one on.
        let got = (list.to_report_text(), list.clone().begin_run());
        prop_assert_eq!(got, want, "instance {}, {:?}", i, axes);
    }
    let m = rec.metrics();
    prop_assert_eq!(m.counter(names::FSIM_DETECT_RUNS), u64::from(runs > 0));
    prop_assert_eq!(m.counter(names::FSIM_RUNS), u64::from(runs > 0));
    prop_assert_eq!(m.counter(names::FSIM_DETECT_ROWS), rows as u64);
    rows
}

/// Instance counts: one, two, three and the SP cores' 8.
fn instances() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1, 2, 3, 8][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stuck_at_detection_matches_independent_runs(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            8..80,
        ),
        seed in any::<u64>(),
        k in instances(),
        shape in shape(),
        len in 0usize..300,
        pre_len in 0usize..6,
        axes in axes(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        let universe = FaultUniverse::enumerate(&netlist);
        let s = streams(netlist.inputs().width(), k, shape, len, seed);
        let rows = check(&netlist, FaultList::new(&universe), &s, pre_len, seed, axes);
        // Few inputs: a one-instance pass walks at most every row value.
        if k == 1 {
            prop_assert!(rows <= 1 << n_inputs);
        }
    }

    #[test]
    fn bridging_detection_matches_independent_runs(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            8..80,
        ),
        seed in any::<u64>(),
        k in instances(),
        shape in shape(),
        len in 0usize..300,
        pre_len in 0usize..6,
        axes in axes(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        let list = BridgeUniverse::sample(&netlist, &BridgeConfig::default()).new_list();
        let s = streams(netlist.inputs().width(), k, shape, len, seed);
        check(&netlist, list, &s, pre_len, seed, axes);
    }
}

/// A deterministic gate list wide enough to keep faults open for a while.
fn lock_step_netlist() -> Netlist {
    let specs: Vec<(u8, u8, u8, u8)> = (0..48u8)
        .map(|g| (g.wrapping_mul(7), g, g.wrapping_mul(3), g ^ 5))
        .collect();
    build_netlist(6, &specs)
}

#[test]
fn instances_beyond_64_are_detected_in_groups() {
    // 70 lanes: two groups, the second of 6 lanes. Every lane's list is
    // still its own run's.
    let netlist = lock_step_netlist();
    let universe = FaultUniverse::enumerate(&netlist);
    let s = streams(netlist.inputs().width(), 70, Shape::Prologue, 96, 0x5eed);
    let axes = Axes {
        threads: 2,
        untestable: true,
        masked: true,
    };
    let rows = check(&netlist, FaultList::new(&universe), &s, 2, 0x5eed, axes);
    assert!(rows > 0);
}

#[test]
#[should_panic(expected = "drop mode")]
fn non_drop_detection_is_rejected() {
    let netlist = lock_step_netlist();
    let universe = FaultUniverse::enumerate(&netlist);
    let s = patterns(netlist.inputs().width(), 8, 1, 0);
    let mut lists = vec![FaultList::new(&universe)];
    let cfg = FaultSimConfig {
        drop_detected: false,
        threads: 1,
    };
    fault_detect_instances(
        &netlist,
        &[&s],
        &mut lists,
        &cfg,
        None,
        &SimGuide::default(),
        &[],
    );
}

#[test]
#[should_panic(expected = "previous pattern")]
fn transition_fault_detection_is_rejected() {
    // A launch reads the previous pattern, so repeats are not redundant.
    let netlist = lock_step_netlist();
    let s = patterns(netlist.inputs().width(), 8, 1, 0);
    let mut lists = vec![TdfList::enumerate(&netlist)];
    let cfg = FaultSimConfig::default();
    fault_detect_instances(
        &netlist,
        &[&s],
        &mut lists,
        &cfg,
        None,
        &SimGuide::default(),
        &[],
    );
}
