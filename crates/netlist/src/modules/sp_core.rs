//! The SP core: a 32-bit scalar datapath (integer ALU, shifter, 16×16
//! multiplier, comparator and select network).
//!
//! This is the unit exercised by the TPGEN and RAND test programs. Inputs:
//!
//! | port | width | meaning |
//! |---|---|---|
//! | `op`  | 4  | operation select (see the `OP_*` constants) |
//! | `cmp` | 3  | comparison select for `OP_SET`/`OP_MIN`/`OP_MAX` |
//! | `a`   | 32 | operand A |
//! | `b`   | 32 | operand B |
//! | `c`   | 32 | operand C (MAD addend; bit 0 selects for `OP_SEL`) |
//!
//! Outputs: `y` (32-bit result) and `flag` (the comparison result, always
//! computed — the SM uses it for `ISETP`).

use crate::{Builder, Netlist};

/// Operation select: `y = a + b`.
pub const OP_ADD: u8 = 0;
/// `y = a - b`.
pub const OP_SUB: u8 = 1;
/// `y = a & b`.
pub const OP_AND: u8 = 2;
/// `y = a | b`.
pub const OP_OR: u8 = 3;
/// `y = a ^ b`.
pub const OP_XOR: u8 = 4;
/// `y = !a`.
pub const OP_NOT: u8 = 5;
/// `y = a << b[5:0]` (amounts ≥ 32 give 0).
pub const OP_SHL: u8 = 6;
/// `y = a >> b[5:0]` (logical; amounts ≥ 32 give 0).
pub const OP_SHR: u8 = 7;
/// `y = a[15:0] * b[15:0]` (unsigned 16×16 product).
pub const OP_MUL: u8 = 8;
/// `y = a[15:0] * b[15:0] + c`.
pub const OP_MAD: u8 = 9;
/// `y = min(a, b)` signed.
pub const OP_MIN: u8 = 10;
/// `y = max(a, b)` signed.
pub const OP_MAX: u8 = 11;
/// `y = cmp(a, b) ? 1 : 0`.
pub const OP_SET: u8 = 12;
/// `y = a`.
pub const OP_MOV: u8 = 13;
/// `y = |a|` (two's complement).
pub const OP_ABS: u8 = 14;
/// `y = c[0] ? a : b`.
pub const OP_SEL: u8 = 15;

/// Comparison select values (match [`warpstl-isa`'s `CmpOp`](https://docs.rs)
/// encoding order: LT, LE, GT, GE, EQ, NE).
pub const CMP_LT: u8 = 0;
/// Less-or-equal.
pub const CMP_LE: u8 = 1;
/// Greater-than.
pub const CMP_GT: u8 = 2;
/// Greater-or-equal.
pub const CMP_GE: u8 = 3;
/// Equal.
pub const CMP_EQ: u8 = 4;
/// Not-equal.
pub const CMP_NE: u8 = 5;

/// The pattern width of the SP core (`op` + `cmp` + three operands).
pub const PATTERN_WIDTH: usize = 4 + 3 + 32 * 3;

/// Builds the SP core netlist.
#[must_use]
pub fn build() -> Netlist {
    let mut b = Builder::new("sp_core");
    let op = b.input_bus("op", 4);
    let cmp = b.input_bus("cmp", 3);
    let a = b.input_bus("a", 32);
    let bb = b.input_bus("b", 32);
    let c = b.input_bus("c", 32);

    let zero32 = b.constant(32, 0);

    // Arithmetic.
    let (add, _) = b.add(&a, &bb);
    let (sub, _) = b.sub(&a, &bb);

    // Logic.
    let and_r = b.and_bus(&a, &bb);
    let or_r = b.or_bus(&a, &bb);
    let xor_r = b.xor_bus(&a, &bb);
    let not_r = b.not_bus(&a);

    // Shifts by b[5:0]; six stages saturate amounts >= 32 to zero.
    let amount = &bb[..6];
    let shl = b.shl_barrel(&a, amount);
    let shr = b.shr_barrel(&a, amount);

    // 16x16 unsigned multiplier and MAD.
    let prod = b.mul(&a[..16], &bb[..16]);
    let (mad, _) = b.add(&prod, &c);

    // Comparisons.
    let lt = b.lt_signed(&a, &bb);
    let equ = b.eq(&a, &bb);
    let le = b.or(lt, equ);
    let gt = b.not(le);
    let ge = b.not(lt);
    let ne = b.not(equ);
    let cmp_onehot = b.decoder(&cmp);
    let cmp_terms = [
        b.and(cmp_onehot[CMP_LT as usize], lt),
        b.and(cmp_onehot[CMP_LE as usize], le),
        b.and(cmp_onehot[CMP_GT as usize], gt),
        b.and(cmp_onehot[CMP_GE as usize], ge),
        b.and(cmp_onehot[CMP_EQ as usize], equ),
        b.and(cmp_onehot[CMP_NE as usize], ne),
    ];
    let flag = b.or_many(&cmp_terms);

    // Min/max/abs/set/sel.
    let min_r = b.mux_bus(lt, &a, &bb);
    let max_r = b.mux_bus(lt, &bb, &a);
    let (neg_a, _) = b.sub(&zero32, &a);
    let abs_r = b.mux_bus(a[31], &neg_a, &a);
    let mut set_r = zero32.clone();
    set_r[0] = flag;
    let sel_r = b.mux_bus(c[0], &a, &bb);

    // Result selection: one-hot AND-OR network over the 16 candidates.
    let op_onehot = b.decoder(&op);
    let candidates: [&[crate::NetId]; 16] = [
        &add,
        &sub,
        &and_r,
        &or_r,
        &xor_r,
        &not_r,
        &shl,
        &shr,
        &prod[..32],
        &mad,
        &min_r,
        &max_r,
        &set_r,
        &a,
        &abs_r,
        &sel_r,
    ];
    let mut y = Vec::with_capacity(32);
    for bit in 0..32 {
        let terms: Vec<_> = candidates
            .iter()
            .enumerate()
            .map(|(k, cand)| b.and(op_onehot[k], cand[bit]))
            .collect();
        y.push(b.or_many(&terms));
    }

    b.output_bus("y", &y);
    b.output("flag", flag);
    b.finish()
}

/// Packs an SP-core stimulus into one packed pattern row (the flat input
/// order of the netlist's port map: `op`, `cmp`, `a`, `b`, `c`; bit 0 is
/// the LSB of word 0).
#[must_use]
pub fn pack_row(op: u8, cmp: u8, a: u32, b: u32, c: u32) -> [u64; 2] {
    let v = u128::from(op & 0xf)
        | (u128::from(cmp & 0x7) << 4)
        | (u128::from(a) << 7)
        | (u128::from(b) << 39)
        | (u128::from(c) << 71);
    [v as u64, (v >> 64) as u64]
}

/// [`pack_row`] as individual pattern bits.
#[must_use]
pub fn pack_pattern(op: u8, cmp: u8, a: u32, b: u32, c: u32) -> Vec<bool> {
    super::row_bits(&pack_row(op, cmp, a, b, c), PATTERN_WIDTH)
}

/// The reference (good-machine) function computed by the netlist; used by
/// tests and by ATPG pattern conversion checks.
#[must_use]
pub fn reference(op: u8, cmp: u8, a: u32, b: u32, c: u32) -> (u32, bool) {
    let lt = (a as i32) < (b as i32);
    let equ = a == b;
    let flag = match cmp {
        CMP_LT => lt,
        CMP_LE => lt || equ,
        CMP_GT => !(lt || equ),
        CMP_GE => !lt,
        CMP_EQ => equ,
        CMP_NE => !equ,
        _ => false,
    };
    let prod = (a & 0xffff).wrapping_mul(b & 0xffff);
    let sh = b & 0x3f;
    let y = match op {
        OP_ADD => a.wrapping_add(b),
        OP_SUB => a.wrapping_sub(b),
        OP_AND => a & b,
        OP_OR => a | b,
        OP_XOR => a ^ b,
        OP_NOT => !a,
        OP_SHL => {
            if sh >= 32 {
                0
            } else {
                a << sh
            }
        }
        OP_SHR => {
            if sh >= 32 {
                0
            } else {
                a >> sh
            }
        }
        OP_MUL => prod,
        OP_MAD => prod.wrapping_add(c),
        OP_MIN => {
            if lt {
                a
            } else {
                b
            }
        }
        OP_MAX => {
            if lt {
                b
            } else {
                a
            }
        }
        OP_SET => flag as u32,
        OP_MOV => a,
        OP_ABS => (a as i32).unsigned_abs(),
        OP_SEL => {
            if c & 1 == 1 {
                a
            } else {
                b
            }
        }
        _ => 0,
    };
    (y, flag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicSim;

    fn run(op: u8, cmp: u8, a: u32, b: u32, c: u32) -> (u32, bool) {
        let n = build();
        let mut sim = LogicSim::new(&n);
        sim.set_input_u64("op", op as u64);
        sim.set_input_u64("cmp", cmp as u64);
        sim.set_input_u64("a", a as u64);
        sim.set_input_u64("b", b as u64);
        sim.set_input_u64("c", c as u64);
        sim.eval_comb();
        (sim.output_u64("y") as u32, sim.output_u64("flag") == 1)
    }

    #[test]
    fn netlist_matches_reference_across_ops() {
        let cases = [
            (0x0000_0000u32, 0x0000_0000u32, 0u32),
            (0xffff_ffff, 0x0000_0001, 7),
            (0x8000_0000, 0x7fff_ffff, 0xffff_ffff),
            (0x1234_5678, 0x9abc_def0, 0x0f0f_0f0f),
            (5, 33, 2),
        ];
        for op in 0..16u8 {
            for &(a, b, c) in &cases {
                let got = run(op, CMP_LT, a, b, c);
                let want = reference(op, CMP_LT, a, b, c);
                assert_eq!(got, want, "op={op} a={a:#x} b={b:#x} c={c:#x}");
            }
        }
    }

    #[test]
    fn netlist_matches_reference_across_cmps() {
        for cmpv in 0..6u8 {
            for &(a, b) in &[(1u32, 2u32), (2, 1), (3, 3), (0x8000_0000, 1)] {
                let got = run(OP_SET, cmpv, a, b, 0);
                let want = reference(OP_SET, cmpv, a, b, 0);
                assert_eq!(got, want, "cmp={cmpv} a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn pattern_width_matches_port_map() {
        let n = build();
        assert_eq!(n.inputs().width(), PATTERN_WIDTH);
        assert_eq!(pack_pattern(3, 1, 0, 0, 0).len(), PATTERN_WIDTH);
    }

    #[test]
    fn pack_pattern_field_order() {
        let bits = pack_pattern(0b1010, 0b011, 1, 0, 0x8000_0000);
        assert!(!bits[0] && bits[1] && !bits[2] && bits[3]); // op
        assert!(bits[4] && bits[5] && !bits[6]); // cmp
        assert!(bits[7]); // a bit 0
        assert!(!bits[7 + 32]); // b bit 0
        assert!(bits[7 + 64 + 31]); // c bit 31
    }
}
