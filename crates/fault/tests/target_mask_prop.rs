//! Set-level properties of the engine that standalone coverage evaluation
//! relies on, on random combinational netlists, pattern streams and
//! target masks, with 1 and 2 worker threads:
//!
//! 1. The unmasked run matches the serial oracle stamp for stamp, and a
//!    run masked by [`SimGuide::targets`] on a fresh list detects exactly
//!    the oracle's masked-in faults, with the oracle's stamps (pruned
//!    untestable faults left out too). Its report's untestable row counts
//!    masked-in untestable faults only.
//! 2. A detection pass (`fault_detect_instances`) over `p`, which skips
//!    its repeated rows, leaves the list a drop-mode run over `p` leaves,
//!    stamps included (rows repeat often here: the streams draw from few
//!    inputs).
//!
//! `bridge_prop` checks both for bridging lists.

mod support;

use proptest::prelude::*;

use support::{build_netlist, fault_simulate_reference};
use warpstl_fault::{
    fault_detect_instances, fault_simulate_guided, FaultList, FaultSimConfig, FaultUniverse,
    SimGuide,
};
use warpstl_netlist::PatternSeq;

/// xorshift64 draws; `state` must be nonzero.
fn draws(mut state: u64) -> impl Iterator<Item = u64> {
    std::iter::repeat_with(move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    })
}

/// `count` pseudorandom rows over `width` inputs, stamped with their index.
fn patterns(width: usize, count: usize, seed: u64) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for (cc, v) in draws(seed | 1).take(count).enumerate() {
        let bits: Vec<bool> = (0..width).map(|b| (v >> b) & 1 == 1).collect();
        p.push_bits(cc as u64, &bits);
    }
    p
}

/// A pseudorandom per-fault mask selecting about half of `n` faults.
fn mask(n: usize, seed: u64) -> Vec<bool> {
    draws(seed | 1).take(n).map(|v| v >> 40 & 1 == 1).collect()
}

/// A list's first detections as `(fault, cc, pattern)`, ascending by fault.
fn stamps(list: &FaultList) -> Vec<(usize, u64, usize)> {
    list.detected().map(|(id, cc, t, _)| (id, cc, t)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn masked_run_detects_the_unmasked_set_within_the_mask(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            8..96,
        ),
        seed in any::<u64>(),
        n_pat in 1usize..160,
        drop in any::<bool>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        prop_assert!(netlist.is_combinational());
        let universe = FaultUniverse::enumerate(&netlist);
        let p = patterns(netlist.inputs().width(), n_pat, seed);
        let targets = mask(universe.collapsed_len(), seed.rotate_left(17));
        let unt = mask(universe.collapsed_len(), seed.rotate_left(31));

        let mut oracle = FaultList::new(&universe);
        fault_simulate_reference(
            &netlist,
            &p,
            &mut oracle,
            &FaultSimConfig { drop_detected: drop, threads: 1 },
        );

        for threads in [1, 2] {
            let cfg = FaultSimConfig { drop_detected: drop, threads };
            let masked_guide = SimGuide { targets: Some(&targets), ..SimGuide::default() };
            let mut full = FaultList::new(&universe);
            fault_simulate_guided(&netlist, &p, &mut full, &cfg, None, &SimGuide::default());
            prop_assert_eq!(full.to_report_text(), oracle.to_report_text());
            // Faults are simulated independently, so a masked run stamps
            // each masked-in fault exactly as the oracle does.
            let mut masked = FaultList::new(&universe);
            let report = fault_simulate_guided(&netlist, &p, &mut masked, &cfg, None, &masked_guide);
            let expected: Vec<_> = stamps(&oracle).into_iter().filter(|s| targets[s.0]).collect();
            prop_assert_eq!(stamps(&masked), expected, "threads={}", threads);
            prop_assert_eq!(report.untestable_count(), 0);

            // With pruning, the untestable row counts masked-in faults
            // only (the bitmap is arbitrary here: the row is a count of
            // pruned targets, not a soundness claim).
            let pruned_guide = SimGuide { untestable: Some(&unt), ..masked_guide };
            let mut pruned = FaultList::new(&universe);
            let report = fault_simulate_guided(&netlist, &p, &mut pruned, &cfg, None, &pruned_guide);
            let in_mask = targets.iter().zip(&unt).filter(|&(&m, &u)| m && u).count();
            prop_assert_eq!(report.untestable_count() as usize, in_mask);
            let expected: Vec<_> = stamps(&oracle)
                .into_iter()
                .filter(|s| targets[s.0] && !unt[s.0])
                .collect();
            prop_assert_eq!(stamps(&pruned), expected, "threads={}", threads);
        }
    }

    #[test]
    fn detection_pass_over_repeated_rows_detects_the_same_set(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            8..96,
        ),
        seed in any::<u64>(),
        n_pat in 1usize..160,
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        let universe = FaultUniverse::enumerate(&netlist);
        let p = patterns(netlist.inputs().width(), n_pat, seed);
        prop_assert!(p.row_set().len() <= 1 << n_inputs);
        let targets = mask(universe.collapsed_len(), seed.rotate_left(7));

        for threads in [1, 2] {
            let cfg = FaultSimConfig { threads, ..FaultSimConfig::default() };
            // Unmasked and masked: the evaluation runs both kinds.
            let masked = SimGuide { targets: Some(&targets), ..SimGuide::default() };
            for guide in [SimGuide::default(), masked] {
                let mut run = FaultList::new(&universe);
                fault_simulate_guided(&netlist, &p, &mut run, &cfg, None, &guide);
                let mut detect = vec![FaultList::new(&universe)];
                fault_detect_instances(&netlist, &[&p], &mut detect, &cfg, None, &guide, &[]);
                prop_assert_eq!(
                    detect[0].to_report_text(), run.to_report_text(),
                    "threads={} masked={}", threads, guide.targets.is_some()
                );
                prop_assert_eq!(detect[0].coverage().to_bits(), run.coverage().to_bits());
            }
        }
    }
}
