//! The SFU datapath: a fixed-point polynomial-approximation pipeline of the
//! kind used for transcendental functions (squarer, cross product, mixing
//! network, function-dependent pre/post transforms).
//!
//! This is the unit exercised by the SFU_IMM test program. Inputs:
//!
//! | port | width | meaning |
//! |---|---|---|
//! | `func` | 3  | function select (see the `F_*` constants) |
//! | `x`    | 32 | operand |
//!
//! Output: `y` (32-bit approximation result).
//!
//! The MiniGrip GPU model uses [`reference()`] as the *architectural* result of
//! the SFU opcodes, so the functional simulation and the gate-level fault
//! target agree bit-exactly (the paper's RTL and gate-level models agree the
//! same way because one is synthesized from the other).

use crate::{Builder, Netlist};

/// Function select for `RCP`.
pub const F_RCP: u8 = 0;
/// Function select for `RSQ`.
pub const F_RSQ: u8 = 1;
/// Function select for `SIN`.
pub const F_SIN: u8 = 2;
/// Function select for `COS`.
pub const F_COS: u8 = 3;
/// Function select for `EX2`.
pub const F_EX2: u8 = 4;
/// Function select for `LG2`.
pub const F_LG2: u8 = 5;

/// The pattern width of the SFU (`func` + `x`).
pub const PATTERN_WIDTH: usize = 3 + 32;

/// Per-function pre-mix constants (range-reduction seeds).
const PRE_MASK: [u32; 6] = [
    0x5f37_59df, // RCP (fast inverse-root-style seed)
    0x5f37_5a86, // RSQ
    0x3f22_f983, // SIN
    0x3fc9_0fdb, // COS
    0x3f80_0000, // EX2
    0x4b00_0000, // LG2
];

/// Builds the SFU netlist.
#[must_use]
pub fn build() -> Netlist {
    let mut b = Builder::new("sfu");
    let func = b.input_bus("func", 3);
    let x = b.input_bus("x", 32);

    let fsel = b.decoder(&func);

    // Pre-mix: x ^ PRE_MASK[func] via a one-hot AND-OR constant mux.
    let mut premask = Vec::with_capacity(32);
    for bit in 0..32 {
        let terms: Vec<_> = (0..6)
            .filter(|&f| (PRE_MASK[f] >> bit) & 1 == 1)
            .map(|f| fsel[f])
            .collect();
        premask.push(if terms.is_empty() {
            b.const0()
        } else {
            b.or_many(&terms)
        });
    }
    let xm = b.xor_bus(&x, &premask);

    // Mantissa split.
    let lo = &xm[0..12];
    let hi = &xm[12..24];
    let top = &xm[24..32];

    // Quadratic term (squarer) and cross term.
    let sq = b.mul(lo, lo); // 24 bits
    let cross = b.mul(hi, lo); // 24 bits
    let (s1, carry) = b.add(&sq, &cross);

    // Mixing: low 24 bits from the sum, high 8 from top ^ s1[8..16],
    // with the carry folded into bit 31.
    let mut y_pre = Vec::with_capacity(32);
    y_pre.extend_from_slice(&s1[..24]);
    for i in 0..8 {
        y_pre.push(b.xor(top[i], s1[8 + i]));
    }
    y_pre[31] = b.xor(y_pre[31], carry);

    // Post transform: function-dependent rotation of the result.
    let mut y = Vec::with_capacity(32);
    for bit in 0..32 {
        let terms: Vec<_> = (0..6)
            .map(|f| {
                let rot = f * 5; // distinct rotation per function
                b.and(fsel[f], y_pre[(bit + rot) % 32])
            })
            .collect();
        y.push(b.or_many(&terms));
    }

    b.output_bus("y", &y);
    b.finish()
}

/// Packs an SFU stimulus into one packed pattern row (flat input order:
/// `func`, `x`; bit 0 is the LSB).
#[must_use]
pub fn pack_row(func: u8, x: u32) -> [u64; 1] {
    [u64::from(func & 0x7) | (u64::from(x) << 3)]
}

/// [`pack_row`] as individual pattern bits.
#[must_use]
pub fn pack_pattern(func: u8, x: u32) -> Vec<bool> {
    super::row_bits(&pack_row(func, x), PATTERN_WIDTH)
}

/// The architectural function computed by the SFU datapath.
///
/// Returns 0 for reserved function selects (6, 7), matching the netlist's
/// AND-OR selection network.
#[must_use]
pub fn reference(func: u8, x: u32) -> u32 {
    if func >= 6 {
        return 0;
    }
    let xm = x ^ PRE_MASK[func as usize];
    let lo = xm & 0xfff;
    let hi = (xm >> 12) & 0xfff;
    let top = (xm >> 24) & 0xff;
    let sq = lo * lo; // <= 24 bits
    let cross = hi * lo;
    let sum = sq.wrapping_add(cross);
    let s1 = sum & 0xff_ffff;
    let carry = (sum >> 24) & 1;
    let mixed_top = (top ^ ((s1 >> 8) & 0xff)) ^ (carry << 7);
    let y_pre = s1 | (mixed_top << 24);
    let rot = (func as u32) * 5;
    y_pre.rotate_right(rot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicSim;

    fn run(func: u8, x: u32) -> u32 {
        let n = build();
        let mut sim = LogicSim::new(&n);
        sim.set_input_u64("func", func as u64);
        sim.set_input_u64("x", x as u64);
        sim.eval_comb();
        sim.output_u64("y") as u32
    }

    #[test]
    fn netlist_matches_reference() {
        let xs = [0u32, 1, 0x3f80_0000, 0xffff_ffff, 0x1234_5678, 0xdead_beef];
        for func in 0..6u8 {
            for &x in &xs {
                assert_eq!(run(func, x), reference(func, x), "f={func} x={x:#x}");
            }
        }
    }

    #[test]
    fn reserved_functions_yield_zero() {
        assert_eq!(run(6, 0x1234), 0);
        assert_eq!(run(7, 0xffff_ffff), 0);
        assert_eq!(reference(6, 0x1234), 0);
    }

    #[test]
    fn functions_differ_on_same_operand() {
        let x = 0x4048_f5c3;
        let mut results: Vec<u32> = (0..6).map(|f| reference(f, x)).collect();
        results.sort_unstable();
        results.dedup();
        assert_eq!(results.len(), 6, "functions must be distinguishable");
    }

    #[test]
    fn pattern_width_matches_port_map() {
        let n = build();
        assert_eq!(n.inputs().width(), PATTERN_WIDTH);
        assert_eq!(pack_pattern(2, 0).len(), PATTERN_WIDTH);
    }
}
