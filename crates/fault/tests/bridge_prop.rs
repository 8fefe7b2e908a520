//! Bridging-model soundness properties:
//!
//! 1. On small random combinational netlists under **exhaustive** 2^n
//!    stimulus, the shared engine's bridging detected set and
//!    first-detection stamps match a trivial scalar oracle that re-evaluates
//!    the whole netlist per fault per assignment with the wired value
//!    forced at both endpoints.
//! 2. On pseudorandom streams, bridging runs at 1 and 2 worker threads are
//!    **bit-identical** — same report (detections, stamps, tallies) and
//!    same list state — to a serial scalar oracle that evaluates every
//!    bridge on every pattern, in drop and non-drop mode.
//! 3. Non-drop per-pattern activation tallies equal the count of bridges
//!    whose endpoint values differ under that assignment.
//! 4. The set-level properties of `target_mask_prop` hold for bridging
//!    lists at every thread count: a masked run detects the unmasked
//!    detected set within the mask, and a detection pass
//!    (`fault_detect_instances`) over `p`, which skips its repeated rows,
//!    detects the same set as a drop-mode run over `p`.

mod support;

use proptest::prelude::*;

use support::build_netlist;
use warpstl_fault::{
    fault_detect_instances, fault_simulate, fault_simulate_guided, BridgeConfig, BridgeFault,
    BridgeList, BridgeUniverse, FaultSimConfig, FaultSimReport, SimGuide,
};
use warpstl_netlist::{GateKind, Netlist, PatternSeq};

fn exhaustive(width: usize) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for v in 0..(1u64 << width) {
        p.push_value(v, v);
    }
    p
}

/// `len` xorshift rows over `width` inputs, stamped with their index.
fn pseudorandom(width: usize, len: usize, mut state: u64) -> PatternSeq {
    state |= 1;
    let mut p = PatternSeq::new(width);
    for cc in 0..len as u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        p.push_value(cc, state);
    }
    p
}

/// Scalar single-assignment evaluation; `force` injects the wired value
/// `w` at both endpoint nets as their outputs are computed (exact for
/// non-feedback pairs — the only kind the sampler admits).
fn scalar_eval(
    netlist: &Netlist,
    assignment: u64,
    force: Option<(usize, usize, bool)>,
) -> Vec<bool> {
    let gates = netlist.gates();
    let mut vals = vec![false; gates.len()];
    for (bit_pos, net) in netlist.inputs().nets().iter().enumerate() {
        vals[net.index()] = (assignment >> bit_pos) & 1 == 1;
    }
    for i in 0..gates.len() {
        let g = &gates[i];
        let v = match g.kind {
            GateKind::Input => vals[i],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Dff => unreachable!("combinational only"),
            kind => {
                let p = g.pins;
                let word = |b: bool| if b { !0u64 } else { 0 };
                let a = word(vals[p[0].index()]);
                let (b, c) = match kind.arity() {
                    2 => (word(vals[p[1].index()]), 0),
                    3 => (word(vals[p[1].index()]), word(vals[p[2].index()])),
                    _ => (0, 0),
                };
                kind.eval(a, b, c) & 1 == 1
            }
        };
        vals[i] = match force {
            Some((a, b, w)) if i == a || i == b => w,
            _ => v,
        };
    }
    vals
}

/// Whether forcing bridge `f`'s wired value under `assignment` changes any
/// output, and whether the bridge is activated there (its endpoints differ).
fn scalar_bridge(netlist: &Netlist, f: BridgeFault, assignment: u64) -> (bool, bool) {
    let good = scalar_eval(netlist, assignment, None);
    let (ga, gb) = (good[f.a.index()], good[f.b.index()]);
    let faulty = scalar_eval(
        netlist,
        assignment,
        Some((f.a.index(), f.b.index(), f.kind.wired(ga, gb))),
    );
    let differs = netlist
        .outputs()
        .nets()
        .iter()
        .any(|o| good[o.index()] != faulty[o.index()]);
    (differs, ga != gb)
}

/// The serial oracle over a whole stream on a fresh list: every bridge on
/// every pattern, one at a time. Drop mode counts activations up to and
/// including a bridge's first detection and tallies first detections;
/// non-drop mode counts every activation and every observation. Each
/// bridge's first detection is stamped on the list.
fn serial_bridge_run(
    netlist: &Netlist,
    patterns: &PatternSeq,
    faults: &[BridgeFault],
    drop: bool,
) -> (FaultSimReport, BridgeList) {
    let assignment =
        |t: usize| (0..patterns.width()).fold(0u64, |v, b| v | u64::from(patterns.bit(t, b)) << b);
    let mut list = BridgeList::from_faults(faults.to_vec());
    list.begin_run();
    let mut report = FaultSimReport::new();
    let mut activated = vec![0u32; patterns.len()];
    let mut detected = vec![0u32; patterns.len()];
    let mut first: Vec<Option<usize>> = vec![None; faults.len()];
    for (id, &f) in faults.iter().enumerate() {
        for t in 0..patterns.len() {
            let (differs, active) = scalar_bridge(netlist, f, assignment(t));
            activated[t] += u32::from(active);
            if differs {
                if first[id].is_none() {
                    first[id] = Some(t);
                    detected[t] += 1;
                } else {
                    detected[t] += u32::from(!drop);
                }
                if drop {
                    break;
                }
            }
        }
    }
    for (id, t) in first.iter().enumerate() {
        if let Some(t) = *t {
            list.mark_detected(id, patterns.cc(t), t);
        }
    }
    for t in 0..patterns.len() {
        report.record_pattern(patterns.cc(t), activated[t], detected[t]);
    }
    (report, list)
}

/// The oracle: the first assignment (in 0..2^n order) at which forcing the
/// bridge's wired value changes any output, or `None` if undetectable.
fn oracle_first_detection(netlist: &Netlist, f: BridgeFault, width: usize) -> Option<u64> {
    (0..(1u64 << width)).find(|&v| scalar_bridge(netlist, f, v).0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bridge_simulation_matches_exhaustive_oracle(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..32,
        ),
        seed in any::<u64>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        prop_assert!(netlist.is_combinational());
        let width = netlist.inputs().width();
        let cfg = BridgeConfig { pairs: 16, seed };
        let universe = BridgeUniverse::sample(&netlist, &cfg);
        let patterns = exhaustive(width);

        let mut list = universe.new_list();
        fault_simulate(&netlist, &patterns, &mut list, &FaultSimConfig::default());

        for (id, &f) in universe.faults().iter().enumerate() {
            let expected = oracle_first_detection(&netlist, f, width);
            match (expected, list.status(id)) {
                (None, warpstl_fault::FaultStatus::Undetected) => {}
                (Some(v), warpstl_fault::FaultStatus::Detected { cc, pattern, .. }) => {
                    // Drop mode over an in-order sweep records the *first*
                    // detecting assignment; cc stamps are the assignment
                    // values here.
                    prop_assert_eq!(pattern as u64, v, "{} first-detection pattern", f);
                    prop_assert_eq!(cc, v, "{} first-detection cc", f);
                }
                (exp, got) => {
                    prop_assert!(false, "{}: oracle {:?}, simulator {:?}", f, exp, got);
                }
            }
        }
    }

    #[test]
    fn bridging_matches_the_serial_oracle_at_every_thread_count(
        n_inputs in 2usize..9,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            16..96,
        ),
        seed in any::<u64>(),
        n_patterns in 1usize..700,
        drop in any::<bool>(),
    ) {
        // Enough pairs for several 63-fault batches (so two workers really
        // split them) and enough patterns for wide blocks past the
        // drop-mode probe.
        let netlist = build_netlist(n_inputs, &specs);
        let universe = BridgeUniverse::sample(&netlist, &BridgeConfig { pairs: 96, seed });
        let patterns = pseudorandom(netlist.inputs().width(), n_patterns, seed);
        let (oracle, oracle_list) = serial_bridge_run(&netlist, &patterns, universe.faults(), drop);
        for threads in [1, 2] {
            let cfg = FaultSimConfig { drop_detected: drop, threads };
            let mut list = universe.new_list();
            let report = fault_simulate(&netlist, &patterns, &mut list, &cfg);
            prop_assert_eq!(&report, &oracle, "report diverged at threads={}", threads);
            prop_assert_eq!(
                list.to_report_text(), oracle_list.to_report_text(),
                "list state diverged at threads={}", threads
            );
        }
    }

    #[test]
    fn non_drop_activation_counts_differing_endpoints(
        n_inputs in 2usize..5,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..24,
        ),
        seed in any::<u64>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        let width = netlist.inputs().width();
        let universe = BridgeUniverse::sample(&netlist, &BridgeConfig { pairs: 16, seed });
        let patterns = exhaustive(width);
        let cfg = FaultSimConfig {
            drop_detected: false,
            threads: 1,
        };
        let mut list = universe.new_list();
        let report = fault_simulate(&netlist, &patterns, &mut list, &cfg);

        for (t, stats) in report.patterns().iter().enumerate() {
            let good = scalar_eval(&netlist, t as u64, None);
            let expected = universe
                .faults()
                .iter()
                .filter(|f| good[f.a.index()] != good[f.b.index()])
                .count() as u32;
            prop_assert_eq!(stats.activated, expected, "pattern {}", t);
        }
    }

    #[test]
    fn bridging_masks_and_detection_passes_keep_detected_sets(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            16..96,
        ),
        seed in any::<u64>(),
        n_patterns in 1usize..200,
        drop in any::<bool>(),
    ) {
        // Few inputs, many rows: the stream repeats rows heavily.
        let netlist = build_netlist(n_inputs, &specs);
        let universe = BridgeUniverse::sample(&netlist, &BridgeConfig { pairs: 96, seed });
        let p = pseudorandom(netlist.inputs().width(), n_patterns, seed);
        let targets: Vec<bool> = (0..universe.faults().len())
            .map(|i| (seed.rotate_left(i as u32 % 64) ^ i as u64) & 1 == 1)
            .collect();
        let masked = SimGuide { targets: Some(&targets), ..SimGuide::default() };
        for threads in [1, 2] {
            let cfg = FaultSimConfig { drop_detected: drop, threads };
            let detect = |seq: &PatternSeq, guide: &SimGuide<'_>| {
                let mut list = universe.new_list();
                let report = fault_simulate_guided(&netlist, seq, &mut list, &cfg, None, guide);
                (list.detection_flags(), report.untestable_count())
            };
            let (full, _) = detect(&p, &SimGuide::default());
            let (within, untestable) = detect(&p, &masked);
            let expected: Vec<bool> =
                full.iter().zip(&targets).map(|(&f, &m)| f && m).collect();
            prop_assert_eq!(
                &within, &expected,
                "masked set at threads={}", threads
            );
            prop_assert_eq!(untestable, 0);
            if drop {
                let pass = |guide: &SimGuide<'_>| {
                    let mut lists = vec![universe.new_list()];
                    fault_detect_instances(&netlist, &[&p], &mut lists, &cfg, None, guide, &[]);
                    lists[0].detection_flags()
                };
                prop_assert_eq!(
                    &pass(&SimGuide::default()), &full,
                    "detection pass at threads={}", threads
                );
                prop_assert_eq!(
                    &pass(&masked), &expected,
                    "masked detection pass at threads={}", threads
                );
            }
        }
    }
}
