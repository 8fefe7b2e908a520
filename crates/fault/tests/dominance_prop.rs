//! Property: dominance-guided fault simulation reports coverage over the
//! full universe **identical** to the equivalence-only run — same detected
//! class set, same `FaultList::coverage()` — on random combinational
//! netlists and random pattern sequences. Detection *stamps* of inherited
//! dominators may legally differ (they take the supporter's earliest
//! stamp), so the property compares the detected id set, not stamps.

use proptest::prelude::*;

use warpstl_fault::{
    fault_simulate, fault_simulate_guided, FaultList, FaultSimConfig, FaultUniverse, SimGuide,
};
use warpstl_netlist::{Builder, NetId, Netlist, PatternSeq};

/// One random gate: `kind` selects the operator, `a`/`b`/`c` pick
/// operands among the already-built nets (mod current count).
type GateSpec = (u8, u8, u8, u8);

/// Builds a random combinational netlist from a gate-spec list. Every
/// gate reads already-existing nets, so the result is always valid; the
/// last few nets become outputs so late logic stays observable.
fn build_netlist(n_inputs: usize, specs: &[GateSpec]) -> Netlist {
    let mut b = Builder::new("prop");
    let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();
    for &(kind, a, bb, c) in specs {
        let pick = |sel: u8| nets[sel as usize % nets.len()];
        let (x, y, z) = (pick(a), pick(bb), pick(c));
        let net = match kind % 9 {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.nand(x, y),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            5 => b.xnor(x, y),
            6 => b.not(x),
            7 => b.buf(x),
            _ => b.mux(x, y, z),
        };
        nets.push(net);
    }
    // Observe the tail: outputs cover the most recently built logic, so
    // deep gates are not trivially unobservable.
    let n_out = nets.len().clamp(1, 4);
    for (k, &net) in nets.iter().rev().take(n_out).enumerate() {
        b.output(&format!("o{k}"), net);
    }
    b.finish()
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
        p.push_bits(cc as u64, &bits);
    }
    p
}

fn detected_ids(list: &FaultList) -> Vec<usize> {
    list.detected().map(|(id, _, _, _)| id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dominance_run_matches_equivalence_only_coverage(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..48,
        ),
        seed in any::<u64>(),
        n_pat in 1usize..24,
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        prop_assert!(netlist.is_combinational());
        let universe = FaultUniverse::enumerate(&netlist);
        let dominance = universe.dominance(&netlist);
        let patterns = pseudorandom_patterns(netlist.inputs().width(), n_pat, seed | 1);
        let cfg = FaultSimConfig::default();

        // Baseline: equivalence-collapsed list, every class simulated.
        let mut base_list = FaultList::new(&universe);
        fault_simulate(&netlist, &patterns, &mut base_list, &cfg);

        // Guided: dominance reduction.
        let guide = SimGuide {
            dominance: Some(&dominance),
            ..SimGuide::default()
        };
        let mut guided_list = FaultList::new(&universe);
        let report =
            fault_simulate_guided(&netlist, &patterns, &mut guided_list, &cfg, None, &guide);

        prop_assert_eq!(guided_list.coverage(), base_list.coverage());
        prop_assert_eq!(detected_ids(&guided_list), detected_ids(&base_list));
        // The report's total agrees with the list (every detection was
        // tallied exactly once, inherited ones included).
        prop_assert_eq!(report.total_detected() as usize, detected_ids(&guided_list).len());
    }
}

/// The same identity holds on a real module across two chained drop-mode
/// runs (the pipeline's shared-list flow).
#[test]
fn module_dominance_coverage_identity_across_runs() {
    let netlist = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
    let universe = FaultUniverse::enumerate(&netlist);
    let dominance = universe.dominance(&netlist);
    assert!(!dominance.is_identity());
    let p1 = pseudorandom_patterns(netlist.inputs().width(), 24, 0xd0d0_0001);
    let p2 = pseudorandom_patterns(netlist.inputs().width(), 24, 0xd0d0_0002);
    let cfg = FaultSimConfig::default();

    let mut base_list = FaultList::new(&universe);
    fault_simulate(&netlist, &p1, &mut base_list, &cfg);
    fault_simulate(&netlist, &p2, &mut base_list, &cfg);

    let guide = SimGuide {
        dominance: Some(&dominance),
        ..SimGuide::default()
    };
    let mut guided_list = FaultList::new(&universe);
    fault_simulate_guided(&netlist, &p1, &mut guided_list, &cfg, None, &guide);
    fault_simulate_guided(&netlist, &p2, &mut guided_list, &cfg, None, &guide);

    assert_eq!(guided_list.coverage(), base_list.coverage());
    assert_eq!(detected_ids(&guided_list), detected_ids(&base_list));
}
