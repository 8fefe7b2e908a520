//! Gate-level generators for the GPU modules targeted by the paper's STL:
//! the Decoder Unit, the SP core, and the SFU datapath.
//!
//! The paper synthesizes these units from the FlexGripPlus RTL onto the
//! Nangate 15 nm library and fault-simulates the resulting netlists. We
//! construct equivalent gate-level structures directly: each generator
//! returns a [`Netlist`](crate::Netlist) whose inputs are exactly the values
//! the instruction stream drives into the unit, so the compaction flow's
//! per-cycle pattern capture and module-level fault observability work the
//! same way.
//!
//! | Module | Inputs | Outputs | Typical size |
//! |---|---|---|---|
//! | [`decoder_unit`] | instruction word + PC + scoreboard shadow | decoded control fields | ~1 k gates |
//! | [`sp_core`] | op/cmp select + three 32-bit operands | 32-bit result + flag | ~5 k gates |
//! | [`sfu`] | function select + 32-bit operand | 32-bit approximation | ~4 k gates |
//! | [`fp32`] | op select + two 32-bit operands | 32-bit FP result | ~3 k gates |

pub mod decoder_unit;
pub mod fp32;
pub mod sfu;
pub mod sp_core;

/// Identifies one of the generated GPU modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModuleKind {
    /// The instruction Decoder Unit.
    DecoderUnit,
    /// One SP (streaming processor) core.
    SpCore,
    /// One special function unit datapath.
    Sfu,
    /// One FP32 unit (paired with an SP core).
    Fp32,
}

impl ModuleKind {
    /// All module kinds.
    pub const ALL: [ModuleKind; 4] = [
        ModuleKind::DecoderUnit,
        ModuleKind::SpCore,
        ModuleKind::Sfu,
        ModuleKind::Fp32,
    ];

    /// The display name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModuleKind::DecoderUnit => "decoder_unit",
            ModuleKind::SpCore => "sp_core",
            ModuleKind::Sfu => "sfu",
            ModuleKind::Fp32 => "fp32",
        }
    }

    /// Builds the module's netlist.
    #[must_use]
    pub fn build(self) -> crate::Netlist {
        match self {
            ModuleKind::DecoderUnit => decoder_unit::build(),
            ModuleKind::SpCore => sp_core::build(),
            ModuleKind::Sfu => sfu::build(),
            ModuleKind::Fp32 => fp32::build(),
        }
    }

    /// How many instances of the module one SM contains (FlexGripPlus
    /// configured with 8 SP cores, 8 paired FP32 units and 2 SFUs, as in
    /// the paper).
    #[must_use]
    pub fn instances_per_sm(self) -> usize {
        match self {
            ModuleKind::DecoderUnit => 1,
            ModuleKind::SpCore | ModuleKind::Fp32 => 8,
            ModuleKind::Sfu => 2,
        }
    }
}

/// The first `width` bits of a packed pattern row, bit 0 being the LSB of
/// word 0: the `Vec<bool>` form behind every module's `pack_pattern`.
fn row_bits(row: &[u64], width: usize) -> Vec<bool> {
    (0..width)
        .map(|i| (row[i / 64] >> (i % 64)) & 1 == 1)
        .collect()
}

impl std::fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modules_build_and_validate() {
        for kind in ModuleKind::ALL {
            let n = kind.build();
            assert!(n.logic_gate_count() > 100, "{kind} too small: {n}");
            assert!(n.is_combinational(), "{kind} must be combinational");
        }
    }

    #[test]
    fn instance_counts_match_paper_configuration() {
        assert_eq!(ModuleKind::DecoderUnit.instances_per_sm(), 1);
        assert_eq!(ModuleKind::SpCore.instances_per_sm(), 8);
        assert_eq!(ModuleKind::Sfu.instances_per_sm(), 2);
        assert_eq!(ModuleKind::Fp32.instances_per_sm(), 8);
    }
}
