//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

#[path = "../crates/fault/tests/support/mod.rs"]
mod support;

use support::fault_simulate_reference;
use warpstl::fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse};
use warpstl::isa::{asm, encoding, CmpOp, Instruction, Opcode, Pred, Reg};
use warpstl::netlist::{Builder, LogicSim, Netlist, PatternSeq};

// ---------------------------------------------------------------------------
// ISA properties
// ---------------------------------------------------------------------------

/// Strategy: an arbitrary *valid* instruction (guard, cmp, operands all in
/// range for the opcode's shape).
fn arb_instruction() -> impl Strategy<Value = Instruction> {
    (
        0..Opcode::ALL.len(),
        0u8..4,
        any::<bool>(),
        any::<bool>(),
        0u8..64,
        0u8..64,
        0u8..64,
        0u8..64,
        any::<i32>(),
        0u8..4,
        0usize..6,
        0u16..u16::MAX,
    )
        .prop_map(|(opi, gp, gneg, use_pt, d, a, b, c, imm, p, cmpi, off)| {
            use warpstl::isa::Guard;
            let op = Opcode::ALL[opi];
            let guard = if use_pt {
                Guard::default()
            } else if gneg {
                Guard::negated(Pred::new(gp))
            } else {
                Guard::on(Pred::new(gp))
            };
            let mut builder = Instruction::build(op).guard(guard);
            if op.has_cmp_modifier() {
                builder = builder.cmp(CmpOp::ALL[cmpi]);
            }
            if op.writes_predicate() {
                builder = builder.pdst(Pred::new(p));
            } else if !(op.is_store() || op.is_control_flow() || op == Opcode::Nop) {
                builder = builder.dst(Reg::new(d));
            }
            use Opcode::*;
            let builder = match op {
                Nop | Exit | Ret | Bar | Sync => builder,
                Bra | Ssy | Cal => builder.src(imm & 0x7fff_ffff),
                Mov32i => builder.src(imm),
                S2r => builder.special(warpstl::isa::SpecialReg::ALL[(a % 5) as usize]),
                Mov | Not | Iabs | I2f | F2i | F2f | I2i | Rcp | Rsq | Sin | Cos | Ex2 | Lg2 => {
                    builder.src(Reg::new(a))
                }
                Iadd32i | Imul32i | And32i | Or32i | Xor32i | Fadd32i | Fmul32i => {
                    builder.src(Reg::new(a)).src(imm)
                }
                Imad | Ffma => builder.src(Reg::new(a)).src(Reg::new(b)).src(Reg::new(c)),
                Sel => builder.src(Reg::new(a)).src(Reg::new(b)).psrc(Pred::new(p)),
                Ldg | Lds | Ldc | Ldl => builder.mem(Reg::new(a), off),
                Stg | Sts | Stl => builder.mem(Reg::new(a), off).src(Reg::new(b)),
                _ => {
                    // Binary reg/imm16 forms.
                    if imm % 2 == 0 {
                        builder.src(Reg::new(a)).src(Reg::new(b))
                    } else {
                        builder.src(Reg::new(a)).src((imm % (1 << 15)).abs())
                    }
                }
            };
            builder
                .finish()
                .expect("strategy builds valid instructions")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary encoding round-trips every valid instruction.
    #[test]
    fn encoding_round_trips(instr in arb_instruction()) {
        let word = encoding::encode(&instr);
        let back = encoding::decode(word).expect("valid word decodes");
        prop_assert_eq!(back, instr);
    }

    /// Decoding never panics on arbitrary words, and every successful
    /// decode re-encodes to a word that decodes to the same instruction.
    #[test]
    fn decode_is_total_and_stable(word in any::<u64>()) {
        if let Ok(instr) = encoding::decode(word) {
            let re = encoding::encode(&instr);
            prop_assert_eq!(encoding::decode(re).expect("round"), instr);
        }
    }

    /// Disassembly re-assembles to the same program.
    #[test]
    fn asm_round_trips(instrs in proptest::collection::vec(arb_instruction(), 1..40)) {
        // Clamp targets into range so labels resolve.
        let len = instrs.len();
        let mut program = instrs;
        for i in &mut program {
            if i.opcode.has_target() {
                let t = i.target().unwrap_or(0) % (len + 1);
                i.set_target(t);
            }
        }
        let text = asm::disassemble(&program);
        let back = asm::assemble(&text).expect("disassembly is valid asm");
        prop_assert_eq!(back, program);
    }
}

// ---------------------------------------------------------------------------
// Netlist / fault-simulation properties
// ---------------------------------------------------------------------------

/// A small random combinational netlist built from a seed.
fn random_netlist(seed: u64, inputs: usize, gates: usize) -> Netlist {
    let mut b = Builder::new("random");
    let mut nets = b.input_bus("in", inputs);
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..gates {
        let r = next();
        let a = nets[(r as usize >> 8) % nets.len()];
        let c = nets[(r as usize >> 24) % nets.len()];
        let n = match r % 7 {
            0 => b.and(a, c),
            1 => b.or(a, c),
            2 => b.xor(a, c),
            3 => b.nand(a, c),
            4 => b.nor(a, c),
            5 => b.not(a),
            _ => {
                let s = nets[(r as usize >> 40) % nets.len()];
                b.mux(s, a, c)
            }
        };
        nets.push(n);
    }
    let outs: Vec<_> = nets[nets.len().saturating_sub(4)..].to_vec();
    b.output_bus("out", &outs);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bit-parallel simulator agrees with itself lane by lane: packing
    /// 64 random stimuli into lanes gives the same outputs as simulating
    /// them one at a time.
    #[test]
    fn lane_parallel_equals_serial(seed in any::<u64>()) {
        let n = random_netlist(seed, 8, 40);
        let mut pats = PatternSeq::new(8);
        let mut x = seed | 3;
        for cc in 0..64u64 {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            pats.push_value(cc, x & 0xff);
        }
        let batch = warpstl::netlist::simulate_seq(&n, &pats);
        // Serial reference.
        let mut sim = LogicSim::new(&n);
        for i in 0..64 {
            sim.set_input_u64("in", pats.value(i));
            sim.eval_comb();
            prop_assert_eq!(sim.output_u64("out"), batch.value(i), "pattern {}", i);
        }
    }

    /// Fault-universe weights always sum to the uncollapsed total, and the
    /// collapse never loses faults.
    #[test]
    fn collapse_preserves_total(seed in any::<u64>()) {
        let n = random_netlist(seed, 6, 30);
        let u = FaultUniverse::enumerate(&n);
        let total: u64 = (0..u.collapsed_len()).map(|i| u.class_size(i) as u64).sum();
        prop_assert_eq!(total as usize, u.total_len());
        prop_assert!(u.collapsed_len() <= u.total_len());
    }

    /// Fault dropping is sound: a second simulation of the same patterns
    /// detects nothing new, and coverage is monotone in the pattern set.
    #[test]
    fn dropping_is_sound_and_monotone(seed in any::<u64>()) {
        let n = random_netlist(seed, 6, 30);
        let u = FaultUniverse::enumerate(&n);
        let cfg = FaultSimConfig::default();
        let mut pats = PatternSeq::new(6);
        let mut x = seed | 5;
        for cc in 0..20u64 {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            pats.push_value(cc, x & 0x3f);
        }
        let mut list = FaultList::new(&u);
        fault_simulate(&n, &pats, &mut list, &cfg);
        let fc1 = list.coverage();
        let r2 = fault_simulate(&n, &pats, &mut list, &cfg);
        prop_assert_eq!(r2.total_detected(), 0);
        prop_assert_eq!(list.coverage(), fc1);

        // A prefix of the patterns covers no more than the full set.
        let mut prefix = PatternSeq::new(6);
        for i in 0..10 {
            prefix.push_value(pats.cc(i), pats.value(i));
        }
        let mut list_p = FaultList::new(&u);
        fault_simulate(&n, &prefix, &mut list_p, &cfg);
        prop_assert!(list_p.coverage() <= fc1 + 1e-12);
    }

    /// Detection stamps always reference existing patterns and their ccs.
    #[test]
    fn detection_stamps_are_valid(seed in any::<u64>()) {
        let n = random_netlist(seed, 6, 25);
        let u = FaultUniverse::enumerate(&n);
        let mut pats = PatternSeq::new(6);
        let mut x = seed | 9;
        for cc in 0..16u64 {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            pats.push_value(cc * 10, x & 0x3f);
        }
        let mut list = FaultList::new(&u);
        fault_simulate(&n, &pats, &mut list, &FaultSimConfig::default());
        for (_, cc, pattern, run) in list.detected() {
            prop_assert!(pattern < pats.len());
            prop_assert_eq!(cc, pats.cc(pattern));
            prop_assert_eq!(run, 1);
        }
    }

    /// The parallel engine is bit-identical to the serial oracle on
    /// arbitrary netlists, thread counts, and modes.
    #[test]
    fn parallel_engine_matches_reference(
        seed in any::<u64>(),
        threads in 1usize..9,
        drop_detected in any::<bool>()
    ) {
        let n = random_netlist(seed, 6, 30);
        let u = FaultUniverse::enumerate(&n);
        let mut pats = PatternSeq::new(6);
        let mut x = seed | 3;
        for cc in 0..24u64 {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            pats.push_value(cc * 2, x & 0x3f);
        }
        let base = FaultSimConfig { drop_detected, threads };
        let mut ref_list = FaultList::new(&u);
        let ref_report = fault_simulate_reference(&n, &pats, &mut ref_list, &base);
        let mut par_list = FaultList::new(&u);
        let par_report = fault_simulate(&n, &pats, &mut par_list, &base);
        prop_assert_eq!(par_report, ref_report);
        prop_assert_eq!(par_list.to_report_text(), ref_list.to_report_text());
        prop_assert_eq!(par_list.coverage(), ref_list.coverage());
    }

    /// VCDE serialization round-trips arbitrary pattern sequences.
    #[test]
    fn vcde_round_trips(width in 1usize..100, rows in 0usize..30, seed in any::<u64>()) {
        let mut p = PatternSeq::new(width);
        let mut x = seed | 1;
        for cc in 0..rows as u64 {
            let bits: Vec<bool> = (0..width).map(|i| {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                (x >> (i % 64)) & 1 == 1
            }).collect();
            p.push_bits(cc * 7, &bits);
        }
        let text = p.to_vcde();
        prop_assert_eq!(PatternSeq::from_vcde(&text).expect("round-trip"), p);
    }

    /// Every module's packed row is its pattern bits: pushing
    /// `pack_row(x)` and pushing `pack_pattern(x)` store the same row, for
    /// arbitrary field values (including bits beyond each field's width).
    #[test]
    fn pack_row_equals_pack_pattern_bits(x in any::<u64>(), y in any::<u64>(), z in any::<u64>()) {
        use warpstl::netlist::modules::{decoder_unit, fp32, sfu, sp_core};
        let same = |width: usize, bits: Vec<bool>, row: &[u64]| {
            let mut from_bits = PatternSeq::new(width);
            from_bits.push_bits(3, &bits);
            let mut from_row = PatternSeq::new(width);
            from_row.push_row(3, row);
            from_bits == from_row
        };
        let (b8, c8) = (y as u8, (y >> 8) as u8);
        let (a32, b32, c32) = (y as u32, (y >> 32) as u32, z as u32);
        let du = (x, (z >> 32) as u16, b8, z >> 63 == 1);
        prop_assert!(same(
            decoder_unit::PATTERN_WIDTH,
            decoder_unit::pack_pattern(du.0, du.1, du.2, du.3),
            &decoder_unit::pack_row(du.0, du.1, du.2, du.3),
        ));
        prop_assert!(same(
            sp_core::PATTERN_WIDTH,
            sp_core::pack_pattern(b8, c8, a32, b32, c32),
            &sp_core::pack_row(b8, c8, a32, b32, c32),
        ));
        prop_assert!(same(sfu::PATTERN_WIDTH, sfu::pack_pattern(b8, a32), &sfu::pack_row(b8, a32)));
        prop_assert!(same(
            fp32::PATTERN_WIDTH,
            fp32::pack_pattern(c8, a32, b32),
            &fp32::pack_row(c8, a32, b32),
        ));
    }
}
