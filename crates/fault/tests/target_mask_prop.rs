//! Set-level properties of the engine that standalone coverage evaluation
//! relies on, on random combinational netlists, pattern streams and
//! target masks, with the dominance guide on and off, and with 1 and 2
//! worker threads:
//!
//! 1. A run masked by [`SimGuide::targets`] on a fresh list detects
//!    exactly the unmasked run's detected set intersected with the mask,
//!    and its report's untestable row counts masked-in untestable faults
//!    only. The unguided, unmasked run itself matches the serial oracle.
//! 2. A drop-mode run over `p.distinct()` detects the same set as a run
//!    over `p` (rows repeat often here: the streams draw from few inputs).
//!
//! `bridge_prop` checks both for bridging lists.

mod support;

use proptest::prelude::*;

use support::{build_netlist, fault_simulate_reference};
use warpstl_fault::{fault_simulate_guided, FaultList, FaultSimConfig, FaultUniverse, SimGuide};
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

/// Every dominance × thread-count cell of the matrix.
fn matrix() -> impl Iterator<Item = (bool, usize)> {
    [false, true]
        .into_iter()
        .flat_map(|dom| [1, 2].into_iter().map(move |t| (dom, t)))
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
        let dominance = universe.dominance(&netlist);
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

        for (dom, threads) in matrix() {
            let cfg = FaultSimConfig { drop_detected: drop, threads };
            let guide = SimGuide {
                dominance: dom.then_some(&dominance),
                ..SimGuide::default()
            };
            let masked_guide = SimGuide { targets: Some(&targets), ..guide };
            let mut full = FaultList::new(&universe);
            fault_simulate_guided(&netlist, &p, &mut full, &cfg, None, &guide);
            if !dom {
                prop_assert_eq!(full.to_report_text(), oracle.to_report_text());
            }
            let mut masked = FaultList::new(&universe);
            let report = fault_simulate_guided(&netlist, &p, &mut masked, &cfg, None, &masked_guide);
            let expected: Vec<bool> = full
                .detection_flags()
                .iter()
                .zip(&targets)
                .map(|(&d, &m)| d && m)
                .collect();
            prop_assert_eq!(
                masked.detection_flags(), expected,
                "dominance={} threads={}", dom, threads
            );
            prop_assert_eq!(report.untestable_count(), 0);

            // With pruning, the untestable row counts masked-in faults
            // only (the bitmap is arbitrary here: the row is a count of
            // pruned targets, not a soundness claim).
            let pruned_guide = SimGuide { untestable: Some(&unt), ..masked_guide };
            let mut pruned = FaultList::new(&universe);
            let report = fault_simulate_guided(&netlist, &p, &mut pruned, &cfg, None, &pruned_guide);
            let in_mask = targets.iter().zip(&unt).filter(|&(&m, &u)| m && u).count();
            prop_assert_eq!(report.untestable_count() as usize, in_mask);
        }
    }

    #[test]
    fn drop_mode_over_distinct_rows_detects_the_same_set(
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
        let dominance = universe.dominance(&netlist);
        let p = patterns(netlist.inputs().width(), n_pat, seed);
        let d = p.distinct();
        prop_assert!(d.len() <= 1 << n_inputs);
        let targets = mask(universe.collapsed_len(), seed.rotate_left(7));

        for (dom, threads) in matrix() {
            let cfg = FaultSimConfig { threads, ..FaultSimConfig::default() };
            let guide = SimGuide {
                dominance: dom.then_some(&dominance),
                ..SimGuide::default()
            };
            // Unmasked and masked: the evaluation runs both kinds over
            // distinct rows.
            for guide in [guide, SimGuide { targets: Some(&targets), ..guide }] {
                let mut over_p = FaultList::new(&universe);
                fault_simulate_guided(&netlist, &p, &mut over_p, &cfg, None, &guide);
                let mut over_d = FaultList::new(&universe);
                fault_simulate_guided(&netlist, &d, &mut over_d, &cfg, None, &guide);
                prop_assert_eq!(
                    over_d.detection_flags(), over_p.detection_flags(),
                    "dominance={} threads={} masked={}",
                    dom, threads, guide.targets.is_some()
                );
                prop_assert_eq!(over_d.coverage().to_bits(), over_p.coverage().to_bits());
            }
        }
    }
}
