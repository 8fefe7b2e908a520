//! The FP32 unit: a single-precision floating-point add/multiply datapath
//! (unpack, exponent compare, mantissa align, add/multiply, normalize).
//!
//! FlexGripPlus pairs one FP32 unit with each SP core (the paper's SM has
//! 8 of them). The paper's evaluated STL targets the DU, SPs and SFUs; the
//! FP32 unit is provided as the natural extension target — the FPU test
//! program generator in `warpstl-programs` exercises it the same way.
//!
//! Inputs:
//!
//! | port | width | meaning |
//! |---|---|---|
//! | `op` | 2  | 0 = add, 1 = mul, 2 = min, 3 = max |
//! | `a`  | 32 | IEEE-754 operand A |
//! | `b`  | 32 | IEEE-754 operand B |
//!
//! Output: `y` (32-bit result). The datapath implements a *simplified*
//! round-toward-zero single precision without subnormals, NaN payloads or
//! overflow saturation — the [`reference()`] function defines the architectural semantics
//! bit-exactly, and the MiniGrip GPU model uses it for the FP32 opcodes'
//! results so functional and gate-level views agree.

use crate::{Builder, Bus, Netlist};

/// Operation select: add.
pub const OP_FADD: u8 = 0;
/// Operation select: multiply.
pub const OP_FMUL: u8 = 1;
/// Operation select: minimum (by magnitude ordering of the encoding).
pub const OP_FMIN: u8 = 2;
/// Operation select: maximum.
pub const OP_FMAX: u8 = 3;

/// The pattern width of the FP32 unit (`op` + two operands).
pub const PATTERN_WIDTH: usize = 2 + 32 + 32;

/// Builds the FP32 unit netlist.
#[must_use]
pub fn build() -> Netlist {
    let mut b = Builder::new("fp32");
    let op = b.input_bus("op", 2);
    let a = b.input_bus("a", 32);
    let bb = b.input_bus("b", 32);

    // Unpack.
    let (sa, ea, ma) = unpack(&a);
    let (sb, eb, mb) = unpack(&bb);

    // ---- Multiplier path: sign, exponent sum, mantissa product ----
    let s_mul = b.xor(sa, sb);
    // e_mul = ea + eb - 127 (9-bit arithmetic).
    let ea9: Bus = widen(&mut b, &ea, 9);
    let eb9: Bus = widen(&mut b, &eb, 9);
    let (esum, _) = b.add(&ea9, &eb9);
    let bias = b.constant(9, 127);
    let (e_mul_raw, _) = b.sub(&esum, &bias);
    // Mantissa product: (1.m_a[22:11]) * (1.m_b[22:11]) using the top 12
    // mantissa bits each (13-bit significands with the hidden one).
    let sig_a = significand(&mut b, &ma, &ea);
    let sig_b = significand(&mut b, &mb, &eb);
    let prod = b.mul(&sig_a, &sig_b); // 26 bits
                                      // Normalize: if prod[25] the product is in [2,4): shift right one and
                                      // bump the exponent.
    let norm_hi = prod[25];
    let shifted: Bus = prod[1..26].to_vec();
    let unshifted: Bus = prod[0..25].to_vec();
    let prod_n = b.mux_bus(norm_hi, &shifted, &unshifted); // 25 bits
    let one9 = b.constant(9, 1);
    let (e_mul_inc, _) = b.add(&e_mul_raw, &one9);
    let e_mul = b.mux_bus(norm_hi, &e_mul_inc, &e_mul_raw);
    // Result mantissa: bits below the hidden one, widened to 23.
    let m_mul: Bus = {
        let mut m: Bus = prod_n[..12].to_vec(); // low product bits
        let zero = b.const0();
        while m.len() < 23 {
            m.insert(0, zero);
        }
        m
    };

    // ---- Adder path: align smaller exponent, add/sub significands ----
    let a_ge_b = {
        let lt = b.lt_unsigned(&ea, &eb);
        b.not(lt)
    };
    let e_big = b.mux_bus(a_ge_b, &ea, &eb);
    let (ediff_ab, _) = b.sub(&ea, &eb);
    let (ediff_ba, _) = b.sub(&eb, &ea);
    let ediff = b.mux_bus(a_ge_b, &ediff_ab, &ediff_ba);
    let sig_big = b.mux_bus(a_ge_b, &sig_a, &sig_b);
    let sig_small = b.mux_bus(a_ge_b, &sig_b, &sig_a);
    // Align: shift the smaller significand right by min(ediff, 15).
    let sig_small_al = b.shr_barrel(&sig_small, &ediff[..4]);
    let signs_equal = b.xnor(sa, sb);
    // Same sign: add; different: subtract (big - small).
    let (sum, carry) = b.add(&sig_big, &sig_small_al);
    let (diff, _) = b.sub(&sig_big, &sig_small_al);
    let mag = b.mux_bus(signs_equal, &sum, &diff); // 13 bits
    let s_add = b.mux(a_ge_b, sa, sb);
    // Normalize the add result: carry-out shifts right once.
    let carry_and_same = b.and(signs_equal, carry);
    let mag_shift: Bus = {
        let mut v: Bus = mag[1..].to_vec();
        v.push(carry);
        v
    };
    let mag_n = b.mux_bus(carry_and_same, &mag_shift, &mag);
    let e_add9: Bus = widen(&mut b, &e_big, 9);
    let (e_add_inc, _) = b.add(&e_add9, &one9);
    let e_add = b.mux_bus(carry_and_same, &e_add_inc, &e_add9);
    let m_add: Bus = {
        let mut m: Bus = mag_n[..12].to_vec();
        let zero = b.const0();
        while m.len() < 23 {
            m.insert(0, zero);
        }
        m
    };

    // ---- Min/max path: compare the raw encodings as sign-magnitude ----
    let a_lt_b = float_lt(&mut b, &a, &bb, sa, sb);
    let min_r = b.mux_bus(a_lt_b, &a, &bb);
    let max_r = b.mux_bus(a_lt_b, &bb, &a);

    // ---- Pack and select ----
    let y_mul = pack(&mut b, s_mul, &e_mul[..8], &m_mul);
    let y_add = pack(&mut b, s_add, &e_add[..8], &m_add);
    let sel = b.decoder(&op);
    let mut y = Vec::with_capacity(32);
    for bit in 0..32 {
        let t0 = b.and(sel[OP_FADD as usize], y_add[bit]);
        let t1 = b.and(sel[OP_FMUL as usize], y_mul[bit]);
        let t2 = b.and(sel[OP_FMIN as usize], min_r[bit]);
        let t3 = b.and(sel[OP_FMAX as usize], max_r[bit]);
        let o1 = b.or(t0, t1);
        let o2 = b.or(t2, t3);
        y.push(b.or(o1, o2));
    }
    b.output_bus("y", &y);
    b.finish()
}

fn unpack(v: &[crate::NetId]) -> (crate::NetId, Bus, Bus) {
    (v[31], v[23..31].to_vec(), v[0..23].to_vec())
}

fn widen(b: &mut Builder, bus: &[crate::NetId], width: usize) -> Bus {
    let zero = b.const0();
    let mut v: Bus = bus.to_vec();
    while v.len() < width {
        v.push(zero);
    }
    v
}

/// The 13-bit significand: top 12 mantissa bits plus the hidden one (which
/// is 0 for zero/subnormal exponents).
fn significand(b: &mut Builder, m: &[crate::NetId], e: &[crate::NetId]) -> Bus {
    let e_nonzero = b.or_many(e);
    let mut sig: Bus = m[11..23].to_vec();
    sig.push(e_nonzero);
    sig
}

/// IEEE-style less-than on packed encodings (sign-magnitude order).
fn float_lt(
    b: &mut Builder,
    a: &[crate::NetId],
    bb: &[crate::NetId],
    sa: crate::NetId,
    sb: crate::NetId,
) -> crate::NetId {
    let mag_lt = b.lt_unsigned(&a[..31], &bb[..31]);
    let mag_gt = b.lt_unsigned(&bb[..31], &a[..31]);
    // a < b: (sa & !sb) | (both positive & mag_lt) | (both negative & mag_gt)
    let nsb = b.not(sb);
    let nsa = b.not(sa);
    let neg_only_a = b.and(sa, nsb);
    let both_pos = b.and(nsa, nsb);
    let both_neg = b.and(sa, sb);
    let t1 = b.and(both_pos, mag_lt);
    let t2 = b.and(both_neg, mag_gt);
    let o = b.or(neg_only_a, t1);
    b.or(o, t2)
}

fn pack(b: &mut Builder, s: crate::NetId, e: &[crate::NetId], m: &[crate::NetId]) -> Bus {
    let mut v: Bus = m.to_vec();
    v.extend_from_slice(e);
    v.push(s);
    debug_assert_eq!(v.len(), 32);
    let _ = b;
    v
}

/// Packs an FP32 stimulus into one packed pattern row (flat input order:
/// `op`, `a`, `b`; bit 0 is the LSB of word 0).
#[must_use]
pub fn pack_row(op: u8, a: u32, b: u32) -> [u64; 2] {
    let v = u128::from(op & 0x3) | (u128::from(a) << 2) | (u128::from(b) << 34);
    [v as u64, (v >> 64) as u64]
}

/// [`pack_row`] as individual pattern bits.
#[must_use]
pub fn pack_pattern(op: u8, a: u32, b: u32) -> Vec<bool> {
    super::row_bits(&pack_row(op, a, b), PATTERN_WIDTH)
}

/// The architectural function computed by the FP32 datapath (simplified
/// round-toward-zero single precision; see the module docs).
#[must_use]
pub fn reference(op: u8, a: u32, b: u32) -> u32 {
    let (sa, ea, ma) = ((a >> 31) & 1, (a >> 23) & 0xff, a & 0x7f_ffff);
    let (sb, eb, mb) = ((b >> 31) & 1, (b >> 23) & 0xff, b & 0x7f_ffff);
    let sig = |e: u32, m: u32| ((m >> 11) & 0xfff) | (((e != 0) as u32) << 12);
    let sig_a = sig(ea, ma);
    let sig_b = sig(eb, mb);
    match op {
        OP_FMUL => {
            let s = sa ^ sb;
            let mut e = (ea + eb).wrapping_sub(127) & 0x1ff;
            let prod = sig_a * sig_b; // <= 26 bits
            let norm = (prod >> 25) & 1;
            let prod_n = if norm == 1 { prod >> 1 } else { prod } & 0x1ff_ffff;
            if norm == 1 {
                e = (e + 1) & 0x1ff;
            }
            let m = (prod_n & 0xfff) << 11;
            (s << 31) | ((e & 0xff) << 23) | (m & 0x7f_ffff)
        }
        OP_FADD => {
            let a_ge_b = ea >= eb;
            let (e_big, ediff, sig_big, sig_small, s) = if a_ge_b {
                (ea, (ea.wrapping_sub(eb)) & 0xff, sig_a, sig_b, sa)
            } else {
                (eb, (eb.wrapping_sub(ea)) & 0xff, sig_b, sig_a, sb)
            };
            let sh = ediff & 0xf;
            let small_al = sig_small >> sh;
            let same = sa == sb;
            let (mag, carry) = if same {
                let s13 = (sig_big + small_al) & 0x1fff;
                let c = (sig_big + small_al) >> 13 & 1;
                (s13, c)
            } else {
                ((sig_big.wrapping_sub(small_al)) & 0x1fff, 0)
            };
            let mut e = e_big;
            let mag_n = if same && carry == 1 {
                e = (e + 1) & 0x1ff;
                (mag >> 1) | (carry << 12)
            } else {
                mag
            };
            let m = (mag_n & 0xfff) << 11;
            (s << 31) | ((e & 0xff) << 23) | (m & 0x7f_ffff)
        }
        OP_FMIN | OP_FMAX => {
            let mag_a = a & 0x7fff_ffff;
            let mag_b = b & 0x7fff_ffff;
            let a_lt_b = match (sa, sb) {
                (1, 0) => true,
                (0, 1) => false,
                (0, 0) => mag_a < mag_b,
                _ => mag_a > mag_b,
            };
            if (op == OP_FMIN) == a_lt_b {
                a
            } else {
                b
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicSim;

    fn run(op: u8, a: u32, b: u32) -> u32 {
        let n = build();
        let mut sim = LogicSim::new(&n);
        sim.set_input_u64("op", op as u64);
        sim.set_input_u64("a", a as u64);
        sim.set_input_u64("b", b as u64);
        sim.eval_comb();
        sim.output_u64("y") as u32
    }

    #[test]
    fn netlist_matches_reference() {
        let vals = [
            0x3f80_0000u32, // 1.0
            0x4000_0000,    // 2.0
            0xbf00_0000,    // -0.5
            0x0000_0000,    // 0.0
            0x7f00_0000,    // huge
            0x1234_5678,
            0xdead_beef,
        ];
        for op in 0..4u8 {
            for &a in &vals {
                for &b in &vals {
                    assert_eq!(
                        run(op, a, b),
                        reference(op, a, b),
                        "op={op} a={a:#010x} b={b:#010x}"
                    );
                }
            }
        }
    }

    #[test]
    fn multiply_of_ones_is_near_one() {
        // 1.0 * 1.0 = 1.0 exactly in the simplified datapath.
        assert_eq!(run(OP_FMUL, 0x3f80_0000, 0x3f80_0000), 0x3f80_0000);
        // 2.0 * 2.0 = 4.0.
        assert_eq!(run(OP_FMUL, 0x4000_0000, 0x4000_0000), 0x4080_0000);
    }

    #[test]
    fn add_of_equal_magnitudes_doubles() {
        // 1.0 + 1.0 = 2.0.
        assert_eq!(run(OP_FADD, 0x3f80_0000, 0x3f80_0000), 0x4000_0000);
    }

    #[test]
    fn min_max_follow_ieee_ordering() {
        let one = 0x3f80_0000;
        let neg_half = 0xbf00_0000;
        assert_eq!(run(OP_FMIN, one, neg_half), neg_half);
        assert_eq!(run(OP_FMAX, one, neg_half), one);
        assert_eq!(run(OP_FMIN, neg_half, one), neg_half);
    }

    #[test]
    fn pattern_width_matches_port_map() {
        let n = build();
        assert_eq!(n.inputs().width(), PATTERN_WIDTH);
        assert_eq!(pack_pattern(1, 0, 0).len(), PATTERN_WIDTH);
    }
}
