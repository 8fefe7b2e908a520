//! Property: transition-delay faults on the shared kernel are
//! **bit-identical** to the serial TDF oracle — same report (launch and
//! detection tallies) and same list state (stamps) — on random
//! combinational netlists and streams of 1 to ~700 patterns, in drop and
//! non-drop mode, with 1 and 2 worker threads.
//!
//! The kernel reads each site's good word one pattern earlier. Three
//! places feed that carry bit: the previous word inside a block, the
//! previous block, and the pattern before a window that starts mid-stream
//! (every run walks windows of 64, 64, 128, … patterns). A stream's first
//! pattern never launches. Each case below exercises all of them, plus a
//! second stream on the same list (whose first pattern must not launch off
//! the first stream's last).

mod support;

use proptest::prelude::*;

use support::{build_netlist, pseudorandom_patterns, tdf_simulate_reference};
use warpstl_fault::tdf::TdfList;
use warpstl_fault::{fault_simulate, FaultSimConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tdf_kernel_matches_the_serial_oracle(
        n_inputs in 2usize..8,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..64,
        ),
        seed in any::<u64>(),
        n_pat in 1usize..700,
        drop in any::<bool>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        let width = netlist.inputs().width();
        let first = pseudorandom_patterns(width, n_pat, seed);
        let second = pseudorandom_patterns(width, n_pat / 3 + 1, seed.rotate_left(29));

        let mut oracle = TdfList::enumerate(&netlist);
        let cfg = FaultSimConfig { drop_detected: drop, threads: 1 };
        let expected = [
            tdf_simulate_reference(&netlist, &first, &mut oracle, &cfg),
            tdf_simulate_reference(&netlist, &second, &mut oracle, &cfg),
        ];

        for threads in [1, 2] {
            let cfg = FaultSimConfig { drop_detected: drop, threads };
            let mut list = TdfList::enumerate(&netlist);
            for (stream, want) in [&first, &second].into_iter().zip(&expected) {
                let report = fault_simulate(&netlist, stream, &mut list, &cfg);
                prop_assert_eq!(&report, want, "report at threads={}", threads);
            }
            prop_assert_eq!(
                list.to_report_text(), oracle.to_report_text(),
                "list state at threads={}", threads
            );
        }
    }
}

/// The same identity on a real module, where thousands of transition
/// faults span many batches and drop mode leaves survivors for late
/// repacking windows.
#[test]
fn decoder_unit_tdf_matches_the_serial_oracle() {
    let netlist = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
    let patterns = pseudorandom_patterns(netlist.inputs().width(), 700, 0x7df0);
    for drop in [true, false] {
        let cfg = FaultSimConfig {
            drop_detected: drop,
            threads: 2,
        };
        let mut oracle = TdfList::enumerate(&netlist);
        let expected = tdf_simulate_reference(&netlist, &patterns, &mut oracle, &cfg);
        let mut list = TdfList::enumerate(&netlist);
        let report = fault_simulate(&netlist, &patterns, &mut list, &cfg);
        assert_eq!(report, expected, "drop={drop}");
        assert_eq!(
            list.to_report_text(),
            oracle.to_report_text(),
            "drop={drop}"
        );
    }
}
