//! `fault_simulate_instances` against independent per-instance runs: on
//! random combinational netlists, with 1, 2, 3 or 8 instances whose
//! streams are identical, share a body behind per-instance prologues, are
//! drawn independently, or are one body cut at different lengths, every
//! instance's report and fault-list report text are `==` to a
//! `fault_simulate_guided` run of that instance alone. The lists carry
//! faults detected beforehand by real runs, odd instances carry target
//! masks, and untestable pruning switches on and off, at 1 and 2 worker
//! threads.
//!
//! The lock-step union pass runs exactly when the engine documents it:
//! drop mode, a model that does not read the previous pattern, at least
//! two instances with a non-empty stream and a target, and a union (the
//! distinct rows at each position) of at most half of their rows. The
//! tests recompute that rule independently and check the `fsim.union.*`
//! counters against it, so every case states which path it took.
//! Transition faults and non-drop runs never take the union path.

mod lanes;
mod support;

use proptest::prelude::*;

use lanes::{flags, patterns, shape, streams, Shape};
use support::build_netlist;
use warpstl_fault::tdf::TdfList;
use warpstl_fault::{
    fault_simulate_guided, fault_simulate_instances, BridgeConfig, BridgeUniverse, FaultList,
    FaultSimConfig, FaultSimReport, FaultUniverse, SimGuide, SiteOverride,
};
use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::{names, Recorder};

/// One case's switches.
#[derive(Debug, Clone, Copy)]
struct Axes {
    drop: bool,
    threads: usize,
    untestable: bool,
    masked: bool,
}

fn axes() -> impl Strategy<Value = Axes> {
    (any::<bool>(), 1usize..=2, any::<bool>(), any::<bool>()).prop_map(
        |(drop, threads, untestable, masked)| Axes {
            drop,
            threads,
            untestable,
            masked,
        },
    )
}

/// Whether the engine's rule puts this call on the union path, and the
/// union's size when it does: recomputed from the documented rule, not
/// from the engine.
fn union_rows<F: SiteOverride>(
    streams: &[PatternSeq],
    lists: &[FaultList<F>],
    masks: &[Option<&[bool]>],
    untestable: Option<&[bool]>,
    drop: bool,
) -> Option<usize> {
    if !drop || F::READS_PREV {
        return None;
    }
    let members: Vec<usize> = (0..streams.len())
        .filter(|&i| {
            let mask = masks[i];
            !streams[i].is_empty()
                && mask.is_none_or(|m| m.contains(&true))
                && lists[i]
                    .undetected()
                    .any(|id| mask.is_none_or(|m| m[id]) && untestable.is_none_or(|u| !u[id]))
        })
        .collect();
    if members.len() < 2 {
        return None;
    }
    let total: usize = members.iter().map(|&i| streams[i].len()).sum();
    let longest = members.iter().map(|&i| streams[i].len()).max()?;
    let union: usize = (0..longest)
        .map(|t| {
            let mut rows: Vec<&[u64]> = members
                .iter()
                .filter(|&&i| streams[i].len() > t)
                .map(|&i| streams[i].row(t))
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows.len()
        })
        .sum();
    (2 * union <= total).then_some(union)
}

/// A list's fault-list report text and the number its next run gets: a
/// call must start exactly one run on every list it simulates, and none on
/// the others.
fn ledger<F: std::fmt::Display + Clone>(list: &FaultList<F>) -> (String, u32) {
    (list.to_report_text(), list.clone().begin_run())
}

/// Runs one case: pre-detects with a short real run per instance, then
/// checks `fault_simulate_instances` against instance-by-instance runs and
/// the union counters against [`union_rows`].
#[allow(clippy::too_many_arguments)]
fn check<F: SiteOverride + std::fmt::Display>(
    netlist: &Netlist,
    fresh: FaultList<F>,
    streams: &[PatternSeq],
    pre_len: usize,
    seed: u64,
    axes: Axes,
) -> Option<usize> {
    let n = fresh.len();
    let unt = flags(n, seed.rotate_left(31));
    let guide = SimGuide {
        untestable: axes.untestable.then_some(unt.as_slice()),
        ..SimGuide::default()
    };
    let cfg = FaultSimConfig {
        drop_detected: axes.drop,
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

    let expected: Vec<(Option<FaultSimReport>, (String, u32))> = (0..streams.len())
        .map(|i| {
            let mut list = lists[i].clone();
            let runs = !streams[i].is_empty() && masks[i].is_none_or(|m| m.contains(&true));
            let alone = SimGuide {
                targets: masks[i],
                ..guide
            };
            let report = runs.then(|| {
                fault_simulate_guided(netlist, &streams[i], &mut list, &cfg, None, &alone)
            });
            (report, ledger(&list))
        })
        .collect();
    let union = union_rows(streams, &lists, &masks, guide.untestable, axes.drop);

    let rec = Recorder::new();
    let refs: Vec<&PatternSeq> = streams.iter().collect();
    let reports =
        fault_simulate_instances(netlist, &refs, &mut lists, &cfg, Some(&rec), &guide, &masks);
    for (i, ((report, list), (want_report, want_text))) in
        reports.into_iter().zip(&lists).zip(expected).enumerate()
    {
        prop_assert_eq!(report, want_report, "instance {} report, {:?}", i, axes);
        prop_assert_eq!(ledger(list), want_text, "instance {} list, {:?}", i, axes);
    }
    let m = rec.metrics();
    prop_assert_eq!(
        m.counter(names::FSIM_UNION_RUNS),
        u64::from(union.is_some())
    );
    prop_assert_eq!(m.counter(names::FSIM_UNION_ROWS), union.unwrap_or(0) as u64);
    union
}

/// Instance counts: one (never a union), two, three and the SP cores' 8.
fn instances() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1, 2, 3, 8][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stuck_at_instances_match_independent_runs(
        n_inputs in 2usize..7,
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
        let union = check(&netlist, FaultList::new(&universe), &s, pre_len, seed, axes);
        // Identical streams always share enough rows.
        if matches!(shape, Shape::Identical) && axes.drop && !axes.masked && pre_len == 0
            && !axes.untestable && k >= 2 && len > 0
        {
            prop_assert!(union.is_some(), "identical streams took the per-instance path");
        }
    }

    #[test]
    fn bridging_instances_match_independent_runs(
        n_inputs in 2usize..7,
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

    #[test]
    fn transition_faults_take_the_per_instance_path(
        n_inputs in 2usize..7,
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
        let s = streams(netlist.inputs().width(), k, shape, len, seed);
        let union = check(&netlist, TdfList::enumerate(&netlist), &s, pre_len, seed, axes);
        prop_assert!(union.is_none());
    }
}

#[test]
fn lock_step_lanes_take_the_union_path_on_every_axis() {
    // The SP programs' shape: 8 lanes that differ only in a short
    // prologue. The union removes most rows whatever the guide, masks,
    // earlier detections or thread count, and every lane's report is
    // still its own run's.
    let specs: Vec<(u8, u8, u8, u8)> = (0..48u8)
        .map(|g| (g.wrapping_mul(7), g, g.wrapping_mul(3), g ^ 5))
        .collect();
    let netlist = build_netlist(6, &specs);
    let universe = FaultUniverse::enumerate(&netlist);
    let bridges = BridgeUniverse::sample(&netlist, &BridgeConfig::default());
    let s = streams(netlist.inputs().width(), 8, Shape::Prologue, 256, 0x5eed);
    let total: usize = s.iter().map(PatternSeq::len).sum();
    for bits in 0u32..16 {
        let on = |b: u32| bits >> b & 1 == 1;
        let axes = Axes {
            drop: true,
            threads: 1 + usize::from(on(0)),
            untestable: on(1),
            masked: on(2),
        };
        let pre_len = if on(3) { 3 } else { 0 };
        let fresh = FaultList::new(&universe);
        let union = check(&netlist, fresh, &s, pre_len, 0x5eed, axes);
        assert!(
            union.is_some_and(|u| 4 * u < total),
            "{axes:?}: {union:?} of {total}"
        );
        let union = check(&netlist, bridges.new_list(), &s, pre_len, 0x5eed, axes);
        assert!(
            union.is_some_and(|u| 4 * u < total),
            "{axes:?}: {union:?} of {total}"
        );
    }
}

#[test]
fn union_windows_off_a_64_row_boundary_credit_every_lane() {
    // 8 prologue lanes of 62 patterns: |U| exceeds the longest lane, and
    // the windows over U are capped at 62 rows, so the second one starts
    // at U-row 62, inside a word. Odd lanes are masked and earlier runs
    // detected some faults, so faults open on only some lanes are credited
    // lane by lane there.
    let specs: Vec<(u8, u8, u8, u8)> = (0..48u8)
        .map(|g| (g.wrapping_mul(7), g, g.wrapping_mul(3), g ^ 5))
        .collect();
    let netlist = build_netlist(6, &specs);
    let universe = FaultUniverse::enumerate(&netlist);
    let bridges = BridgeUniverse::sample(&netlist, &BridgeConfig::default());
    let s = streams(netlist.inputs().width(), 8, Shape::Prologue, 55, 0x5eed);
    let longest = s.iter().map(PatternSeq::len).max().unwrap();
    assert!(longest < 64, "{longest}");
    for threads in [1, 2] {
        let axes = Axes {
            drop: true,
            threads,
            untestable: false,
            masked: true,
        };
        let union = check(&netlist, FaultList::new(&universe), &s, 3, 0x5eed, axes);
        assert!(union.is_some_and(|u| u > longest), "{axes:?}: {union:?}");
        let union = check(&netlist, bridges.new_list(), &s, 3, 0x5eed, axes);
        assert!(union.is_some_and(|u| u > longest), "{axes:?}: {union:?}");
    }
}
