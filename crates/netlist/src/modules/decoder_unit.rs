//! The Decoder Unit (DU): decodes the 64-bit instruction word fetched by the
//! SM front-end into control fields for the pipeline.
//!
//! This is the unit exercised by the IMM, MEM and CNTRL test programs. Its
//! single input is the instruction word (`word`, 64 bits — the exact
//! encoding of [`warpstl_isa::encoding`]); outputs are the decoded fields and
//! derived control signals. The raw opcode one-hot is *internal*: faults in
//! the decode tree are observable only through the compressed control
//! outputs, which keeps fault coverage realistically below 100 %.
//!
//! Besides the field decode, the unit contains the two datapath-heavy
//! sections a real decode stage carries: the *operand-routing network*
//! (selecting the 32-bit value forwarded to the execute stage's B input
//! from the immediate, the target or zero) and the *hazard scoreboard*
//! (comparing the source registers against the previous instruction's
//! destination, held in a shadow of the `word` fields).

use warpstl_isa::{ExecUnit, OpClass, Opcode};

use crate::{Builder, NetId, Netlist};

/// The pattern width of the DU: the instruction word, the fetch PC, and
/// the previous instruction's destination/write-enable (scoreboard shadow).
pub const PATTERN_WIDTH: usize = 64 + 16 + 6 + 1;

/// Builds the Decoder Unit netlist.
#[must_use]
pub fn build() -> Netlist {
    let mut b = Builder::new("decoder_unit");
    let word = b.input_bus("word", 64);
    let pc = b.input_bus("pc", 16);
    let prev_dst = b.input_bus("prev_dst", 6);
    let prev_we = b.input("prev_we");

    // Field slices (see warpstl_isa::encoding's layout).
    let opcode_bits = &word[58..64];
    let guard_pred = &word[55..58];
    let guard_neg = word[54];
    let dst = &word[48..54];
    let src_a = &word[42..48];
    let src_b = &word[36..42];
    let cmp = &word[33..36];
    let imm_flag = word[32];
    let low = &word[0..32];

    // Internal opcode one-hot (6 -> 64 decoder; entries beyond the ISA are
    // invalid).
    let onehot = b.decoder(opcode_bits);

    // Helper: OR of one-hot terms for opcodes satisfying a predicate.
    let or_where = |b: &mut Builder, pred: &dyn Fn(Opcode) -> bool| -> NetId {
        let terms: Vec<NetId> = Opcode::ALL
            .iter()
            .filter(|&&op| pred(op))
            .map(|&op| onehot[op.to_bits() as usize])
            .collect();
        if terms.is_empty() {
            b.const0()
        } else {
            b.or_many(&terms)
        }
    };

    let valid = or_where(&mut b, &|_| true);

    // Operation-class one-hot (8 classes).
    let classes = [
        OpClass::IntAlu,
        OpClass::Logic,
        OpClass::Fp32,
        OpClass::Convert,
        OpClass::Sfu,
        OpClass::Move,
        OpClass::Memory,
        OpClass::Control,
    ];
    let class_sigs: Vec<NetId> = classes
        .iter()
        .map(|&c| or_where(&mut b, &move |op| op.class() == c))
        .collect();

    // Execution-unit one-hot (5 units).
    let units = [
        ExecUnit::SpCore,
        ExecUnit::Fp32,
        ExecUnit::Sfu,
        ExecUnit::LoadStore,
        ExecUnit::Control,
    ];
    let unit_sigs: Vec<NetId> = units
        .iter()
        .map(|&u| or_where(&mut b, &move |op| ExecUnit::of(op) == u))
        .collect();

    // Derived control signals.
    let is_store = or_where(&mut b, &Opcode::is_store);
    let writes_pred = or_where(&mut b, &Opcode::writes_predicate);
    let has_target = or_where(&mut b, &Opcode::has_target);
    let has_imm32 = or_where(&mut b, &Opcode::has_imm32);
    let has_cmp = or_where(&mut b, &Opcode::has_cmp_modifier);
    let is_ctrl_flow = or_where(&mut b, &Opcode::is_control_flow);
    let no_dst = or_where(&mut b, &|op| {
        op.is_store() || op.is_control_flow() || op.writes_predicate() || op == Opcode::Nop
    });
    let nv = b.and(valid, valid); // keep `valid` observable through two paths
    let not_no_dst = b.not(no_dst);
    let reg_we = b.and(nv, not_no_dst);

    // Immediate datapath: select a 32-bit immediate (full word for the 32I
    // formats and branch targets, sign-extended low 16 bits otherwise),
    // gated by the short-imm flag for the register/imm16 formats.
    let wide = b.or(has_imm32, has_target);
    let sign = low[15];
    let mut imm16_ext: Vec<NetId> = low[..16].to_vec();
    for _ in 16..32 {
        imm16_ext.push(sign);
    }
    let imm_sel = b.mux_bus(wide, low, &imm16_ext);
    let use_imm = {
        let short_form = has_cmp_or_alu(&mut b, &onehot);
        let short_ok = b.and(imm_flag, short_form);
        b.or(wide, short_ok)
    };
    let imm_out: Vec<NetId> = imm_sel.iter().map(|&n| b.and(n, use_imm)).collect();

    // Gate the register fields by validity so fault effects in the decode
    // tree can mask or expose them (realistic observability).
    let dst_out: Vec<NetId> = dst.iter().map(|&n| b.and(n, reg_we)).collect();
    let src_a_out: Vec<NetId> = src_a.iter().map(|&n| b.and(n, nv)).collect();
    let src_b_out: Vec<NetId> = src_b.iter().map(|&n| b.and(n, nv)).collect();
    let cmp_out: Vec<NetId> = cmp.iter().map(|&n| b.and(n, has_cmp)).collect();
    let guard_out: Vec<NetId> = guard_pred.iter().map(|&n| b.and(n, nv)).collect();
    let three_src = or_where(&mut b, &|op| matches!(op, Opcode::Imad | Opcode::Ffma));
    let rc_out: Vec<NetId> = low[..6].iter().map(|&n| b.and(n, three_src)).collect();

    // Hazard scoreboard: RAW check of both source fields against the
    // previous instruction's destination.
    let eq_a = b.eq(src_a, &prev_dst);
    let eq_b = b.eq(src_b, &prev_dst);
    let raw_a = {
        let t = b.and(eq_a, prev_we);
        b.and(t, nv)
    };
    let raw_b = {
        let t = b.and(eq_b, prev_we);
        b.and(t, nv)
    };

    // Next-PC datapath: sequential increment, overridden by the branch
    // target when the instruction carries one.
    let one16 = b.constant(16, 1);
    let (pc_plus1, _) = b.add(&pc, &one16);
    let next_pc = b.mux_bus(has_target, &imm_sel[..16], &pc_plus1);

    // Word parity (the fetch-path integrity check of the decode stage).
    let parity = b.xor_many(&word);

    b.output("valid", valid);
    b.output_bus("class", &class_sigs);
    b.output_bus("unit", &unit_sigs);
    b.output_bus("dst", &dst_out);
    b.output_bus("src_a", &src_a_out);
    b.output_bus("src_b", &src_b_out);
    b.output_bus("rc", &rc_out);
    b.output_bus("guard_pred", &guard_out);
    b.output("guard_neg", guard_neg);
    b.output_bus("cmp", &cmp_out);
    b.output("imm_flag", imm_flag);
    b.output_bus("imm", &imm_out);
    b.output("is_store", is_store);
    b.output("writes_pred", writes_pred);
    b.output("has_target", has_target);
    b.output("is_ctrl_flow", is_ctrl_flow);
    b.output("reg_we", reg_we);
    b.output("raw_a", raw_a);
    b.output("raw_b", raw_b);
    b.output_bus("next_pc", &next_pc);
    b.output("parity", parity);
    b.finish()
}

/// OR of one-hot terms for opcodes that accept the short-immediate form.
fn has_cmp_or_alu(b: &mut Builder, onehot: &[NetId]) -> NetId {
    use Opcode::*;
    let short_imm_ops = [
        Iadd, Isub, Imul, Imnmx, And, Or, Xor, Shl, Shr, Fadd, Fmul, Fmnmx, Iset, Fset, Isetp,
        Fsetp,
    ];
    let terms: Vec<NetId> = short_imm_ops
        .iter()
        .map(|&op| onehot[op.to_bits() as usize])
        .collect();
    b.or_many(&terms)
}

/// Packs a decode-stage stimulus into one packed pattern row, the form
/// [`PatternSeq::push_row`](crate::PatternSeq::push_row) takes (flat input
/// order: `word`, `pc`, `prev_dst`, `prev_we`; bit 0 is the LSB of word 0).
#[must_use]
pub fn pack_row(word: u64, pc: u16, prev_dst: u8, prev_we: bool) -> [u64; 2] {
    let hi = u64::from(pc) | (u64::from(prev_dst & 0x3f) << 16) | (u64::from(prev_we) << 22);
    [word, hi]
}

/// [`pack_row`] as individual pattern bits.
#[must_use]
pub fn pack_pattern(word: u64, pc: u16, prev_dst: u8, prev_we: bool) -> Vec<bool> {
    super::row_bits(&pack_row(word, pc, prev_dst, prev_we), PATTERN_WIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicSim;
    use warpstl_isa::{encoding, Instruction, Reg};

    fn decode_outputs(word: u64) -> std::collections::HashMap<String, u64> {
        let n = build();
        let mut sim = LogicSim::new(&n);
        sim.set_input_u64("word", word);
        sim.eval_comb();
        n.outputs()
            .iter()
            .map(|(name, _)| (name.to_string(), sim.output_u64(name)))
            .collect()
    }

    #[test]
    fn decodes_valid_instruction_fields() {
        let i = Instruction::build(Opcode::Iadd)
            .dst(Reg::new(9))
            .src(Reg::new(17))
            .src(Reg::new(33))
            .finish()
            .unwrap();
        let out = decode_outputs(encoding::encode(&i));
        assert_eq!(out["valid"], 1);
        assert_eq!(out["class"], 1 << 0, "IntAlu is class bit 0");
        assert_eq!(out["unit"], 1 << 0, "SP unit");
        assert_eq!(out["dst"], 9);
        assert_eq!(out["src_a"], 17);
        assert_eq!(out["src_b"], 33);
        assert_eq!(out["reg_we"], 1);
        assert_eq!(out["is_store"], 0);
        assert_eq!(out["imm"], 0, "no immediate on register form");
    }

    #[test]
    fn reserved_opcodes_are_invalid() {
        let word = 0x3fu64 << 58;
        let out = decode_outputs(word);
        assert_eq!(out["valid"], 0);
        assert_eq!(out["class"], 0);
        assert_eq!(out["reg_we"], 0);
    }

    #[test]
    fn short_immediate_is_sign_extended() {
        let i = Instruction::build(Opcode::Iadd)
            .dst(Reg::new(0))
            .src(Reg::new(1))
            .src(-2)
            .finish()
            .unwrap();
        let out = decode_outputs(encoding::encode(&i));
        assert_eq!(out["imm"] as u32, (-2i32) as u32);
        assert_eq!(out["imm_flag"], 1);
    }

    #[test]
    fn wide_immediate_passes_through() {
        let i = Instruction::build(Opcode::Mov32i)
            .dst(Reg::new(0))
            .src(0x8000_0001u32 as i32)
            .finish()
            .unwrap();
        let out = decode_outputs(encoding::encode(&i));
        assert_eq!(out["imm"] as u32, 0x8000_0001);
    }

    #[test]
    fn store_and_control_have_no_reg_we() {
        let store = Instruction::build(Opcode::Stg)
            .mem(Reg::new(2), 4)
            .src(Reg::new(3))
            .finish()
            .unwrap();
        let out = decode_outputs(encoding::encode(&store));
        assert_eq!(out["is_store"], 1);
        assert_eq!(out["reg_we"], 0);
        assert_eq!(out["unit"], 1 << 3, "LSU");

        let exit = Instruction::bare(Opcode::Exit);
        let out = decode_outputs(encoding::encode(&exit));
        assert_eq!(out["is_ctrl_flow"], 1);
        assert_eq!(out["reg_we"], 0);
        assert_eq!(out["unit"], 1 << 4, "CTRL");
    }

    #[test]
    fn every_opcode_maps_to_exactly_one_class_and_unit() {
        for &op in &Opcode::ALL {
            let i = sample_instruction(op);
            let out = decode_outputs(encoding::encode(&i));
            assert_eq!(out["valid"], 1, "{op}");
            assert_eq!(out["class"].count_ones(), 1, "{op}");
            assert_eq!(out["unit"].count_ones(), 1, "{op}");
        }
    }

    fn sample_instruction(op: Opcode) -> Instruction {
        use warpstl_isa::{CmpOp, Pred, SpecialReg};
        let b = Instruction::build(op);
        let b = if op.has_cmp_modifier() {
            b.cmp(CmpOp::Lt)
        } else {
            b
        };
        let b = if op.writes_predicate() {
            b.pdst(Pred::new(0))
        } else if !(op.is_store() || op.is_control_flow() || op == Opcode::Nop) {
            b.dst(Reg::new(1))
        } else {
            b
        };
        use Opcode::*;
        let b = match op {
            Nop | Exit | Ret | Bar | Sync => b,
            Bra | Ssy | Cal => b.src(3),
            Mov32i => b.src(42),
            S2r => b.special(SpecialReg::TidX),
            Mov | Not | Iabs | I2f | F2i | F2f | I2i | Rcp | Rsq | Sin | Cos | Ex2 | Lg2 => {
                b.src(Reg::new(2))
            }
            Iadd32i | Imul32i | And32i | Or32i | Xor32i | Fadd32i | Fmul32i => {
                b.src(Reg::new(2)).src(77)
            }
            Imad | Ffma => b.src(Reg::new(2)).src(Reg::new(3)).src(Reg::new(4)),
            Sel => b.src(Reg::new(2)).src(Reg::new(3)).psrc(Pred::new(1)),
            Ldg | Lds | Ldc | Ldl => b.mem(Reg::new(2), 8),
            Stg | Sts | Stl => b.mem(Reg::new(2), 8).src(Reg::new(3)),
            _ => b.src(Reg::new(2)).src(Reg::new(3)),
        };
        b.finish().unwrap()
    }
}
