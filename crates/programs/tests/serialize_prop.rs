//! The PTP text format is lossless: printing a parsed PTP reproduces the
//! text it was parsed from, byte for byte (print∘parse is the identity on
//! printed text).

use proptest::prelude::*;

use warpstl_programs::generators::{generate_imm, ImmConfig};
use warpstl_programs::serialize::{ptp_from_text, ptp_to_text};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ptp_text_survives_print_parse(
        seed in any::<u64>(),
        sb_count in 1usize..8,
        threads in 1usize..64,
    ) {
        let text = ptp_to_text(&generate_imm(&ImmConfig { sb_count, seed, threads }));
        let parsed = ptp_from_text(&text).expect("serializer output must parse");
        prop_assert_eq!(ptp_to_text(&parsed), text);
    }
}
