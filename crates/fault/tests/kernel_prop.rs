//! Property: the levelized kernel is **bit-identical** to the serial
//! stuck-at oracle on random combinational netlists and random pattern
//! sequences — same report (per-pattern tallies) and same fault list
//! state (stamps) — in drop and non-drop mode, across pattern counts that
//! exercise every block shape (narrow-only spans, exact wide blocks, and
//! wide blocks with a 64-bit remainder and a masked tail word).
//!
//! The block-width axis (256-bit against 64-bit blocks) lives in the
//! kernel's own unit tests, where the width is a crate-private parameter.

mod support;

use proptest::prelude::*;

use support::{build_netlist, fault_simulate_reference, pseudorandom_patterns};
use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_is_bit_identical_to_the_serial_oracle(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..48,
        ),
        seed in any::<u64>(),
        n_pat in 1usize..600,
        drop in any::<bool>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        prop_assert!(netlist.is_combinational());
        let universe = FaultUniverse::enumerate(&netlist);
        let patterns = pseudorandom_patterns(netlist.inputs().width(), n_pat, seed);
        let cfg = FaultSimConfig { drop_detected: drop, threads: 1 };

        let mut oracle_list = FaultList::new(&universe);
        let oracle = fault_simulate_reference(&netlist, &patterns, &mut oracle_list, &cfg);
        let mut list = FaultList::new(&universe);
        let report = fault_simulate(&netlist, &patterns, &mut list, &cfg);
        prop_assert_eq!(&report, &oracle, "report diverged");
        prop_assert_eq!(list.to_report_text(), oracle_list.to_report_text());
    }
}

/// The identity also survives multi-pattern spans that cross the wide
/// block boundary on a real module, with threading in the mix: 320
/// patterns = one 256-bit block + one masked narrow remainder.
#[test]
fn module_kernel_identity_across_block_shapes() {
    let netlist = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
    let universe = FaultUniverse::enumerate(&netlist);
    // 64 (narrow only), 256 (exactly one wide block), 320 (wide + narrow),
    // 100 (narrow + masked tail).
    for n_pat in [64usize, 256, 320, 100] {
        let patterns =
            pseudorandom_patterns(netlist.inputs().width(), n_pat, 0xb10c ^ n_pat as u64);
        let mut oracle_list = FaultList::new(&universe);
        let oracle = fault_simulate_reference(
            &netlist,
            &patterns,
            &mut oracle_list,
            &FaultSimConfig::default(),
        );
        for threads in [1usize, 3] {
            let cfg = FaultSimConfig {
                threads,
                ..FaultSimConfig::default()
            };
            let mut kernel_list = FaultList::new(&universe);
            let kernel = fault_simulate(&netlist, &patterns, &mut kernel_list, &cfg);
            assert_eq!(kernel, oracle, "{n_pat} patterns, {threads} threads");
            assert_eq!(
                kernel_list.to_report_text(),
                oracle_list.to_report_text(),
                "{n_pat} patterns, {threads} threads"
            );
        }
    }
}
