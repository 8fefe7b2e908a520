//! Integration tests for MiniGrip corner semantics: subroutines, local
//! memory, divergent exits, constant memory, and timing invariants.

use warpstl::gpu::{Gpu, GpuConfig, Kernel, KernelConfig, RunOptions, SimError};
use warpstl::isa::asm;

fn run_threads(src: &str, threads: usize) -> warpstl::gpu::RunResult {
    let program = asm::assemble(src).expect("asm");
    let kernel = Kernel::new("t", program, KernelConfig::new(1, threads));
    Gpu::default()
        .run(&kernel, &RunOptions::default())
        .expect("run")
}

#[test]
fn call_and_return_execute_subroutine() {
    let r = run_threads(
        "S2R R0, SR_TID_X;\n\
         SHL R1, R0, 0x2;\n\
         MOV32I R2, 5;\n\
         CAL double;\n\
         CAL double;\n\
         STG [R1], R2;\n\
         EXIT;\n\
         double: IADD R2, R2, R2;\n\
         RET;",
        8,
    );
    for t in 0..8u64 {
        assert_eq!(r.global_mem.load_word(t * 4).unwrap(), 20);
    }
}

#[test]
fn local_memory_is_per_thread() {
    let r = run_threads(
        "S2R R0, SR_TID_X;\n\
         STL [R0], R0;\n\
         LDL R2, [R0];\n\
         SHL R1, R0, 0x2;\n\
         STG [R1], R2;\n\
         EXIT;",
        8,
    );
    // Every thread writes its own local slot at the *same* local address
    // range (addresses are per-thread), so each reads back its own tid.
    for t in 0..8u64 {
        assert_eq!(r.global_mem.load_word(t * 4).unwrap(), t as u32);
    }
}

#[test]
fn constant_memory_reads() {
    let program = asm::assemble(
        "S2R R0, SR_TID_X;\n\
         SHL R1, R0, 0x2;\n\
         LDC R2, [R1];\n\
         STG [R1], R2;\n\
         EXIT;",
    )
    .unwrap();
    let mut kernel = Kernel::new("c", program, KernelConfig::new(1, 4));
    for t in 0..4u64 {
        kernel.data.store_const_word(t * 4, 900 + t as u32).unwrap();
    }
    let r = Gpu::default().run(&kernel, &RunOptions::default()).unwrap();
    for t in 0..4u64 {
        assert_eq!(r.global_mem.load_word(t * 4).unwrap(), 900 + t as u32);
    }
}

#[test]
fn divergent_exit_lets_other_side_finish() {
    // Half the warp exits early; the other half still stores.
    let r = run_threads(
        "S2R R0, SR_TID_X;\n\
         SHL R1, R0, 0x2;\n\
         ISETP.LT P0, R0, 0x4;\n\
         SSY work;\n\
         @P0 BRA work;\n\
         EXIT;\n\
         work: SYNC;\n\
         MOV32I R2, 0x77;\n\
         STG [R1], R2;\n\
         EXIT;",
        8,
    );
    for t in 0..8u64 {
        let want = if t < 4 { 0x77 } else { 0 };
        assert_eq!(r.global_mem.load_word(t * 4).unwrap(), want, "tid {t}");
    }
}

#[test]
fn stores_to_read_only_constant_space_do_not_exist_in_isa() {
    // There is no ST-to-constant opcode; the nearest misuse is a bad RET.
    let program = asm::assemble("RET;").unwrap();
    let kernel = Kernel::new("r", program, KernelConfig::new(1, 32));
    let err = Gpu::default()
        .run(&kernel, &RunOptions::default())
        .unwrap_err();
    assert!(matches!(err, SimError::ReturnWithoutCall { .. }));
}

#[test]
fn bad_branch_target_is_reported() {
    // Assemble a branch to a numeric target beyond the program.
    let program = asm::assemble("BRA 0x30;\nEXIT;").unwrap();
    let kernel = Kernel::new("b", program, KernelConfig::new(1, 32));
    let err = Gpu::default()
        .run(&kernel, &RunOptions::default())
        .unwrap_err();
    assert!(matches!(err, SimError::BadTarget { pc: 0, .. }));
}

#[test]
fn sp_core_count_divides_duration() {
    let src = "MOV32I R1, 1;\nIADD R1, R1, R1;\nIMUL R2, R1, R1;\nEXIT;";
    let program = asm::assemble(src).unwrap();
    let mut cycles = Vec::new();
    for cores in [8, 16, 32] {
        let kernel = Kernel::new("s", program.clone(), KernelConfig::new(1, 32));
        let gpu = Gpu::new(GpuConfig::with_sp_cores(cores));
        cycles.push(gpu.run(&kernel, &RunOptions::default()).unwrap().cycles);
    }
    assert!(cycles[0] > cycles[1], "{cycles:?}");
    assert!(cycles[1] > cycles[2], "{cycles:?}");
}

#[test]
fn trace_intervals_are_disjoint_and_ordered() {
    let program = asm::assemble(
        "MOV32I R1, 3;\n\
         IADD R1, R1, 0x1;\n\
         LDG R2, [R1];\n\
         RCP R3, R2;\n\
         EXIT;",
    )
    .unwrap();
    let kernel = Kernel::new("t", program, KernelConfig::new(1, 64));
    let r = Gpu::default().run(&kernel, &RunOptions::tracing()).unwrap();
    // The SM is serial: every record starts exactly where the previous one
    // ended, and the last record ends at the total cycle count.
    let recs = r.trace.records();
    for w in recs.windows(2) {
        assert_eq!(w[0].cc_end, w[1].cc_start);
    }
    assert_eq!(recs.last().unwrap().cc_end, r.cycles);
}

#[test]
fn signatures_depend_on_every_store_path() {
    // Two kernels differing only in one immediate must give different SpT.
    let a = run_threads("MOV32I R1, 10;\nIADD R2, R1, 0x1;\nEXIT;", 4);
    let b = run_threads("MOV32I R1, 10;\nIADD R2, R1, 0x2;\nEXIT;", 4);
    assert_ne!(a.signatures, b.signatures);
}

#[test]
fn fp32_patterns_only_captured_when_requested() {
    let program = asm::assemble("MOV32I R1, 0x3f800000;\nFADD R2, R1, R1;\nEXIT;").unwrap();
    let kernel = Kernel::new("f", program, KernelConfig::new(1, 8));
    let off = Gpu::default().run(&kernel, &RunOptions::default()).unwrap();
    assert_eq!(off.patterns.fp32[0].len(), 0);
    let on = Gpu::default()
        .run(
            &kernel,
            &RunOptions {
                capture_fp32: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(on.patterns.fp32[0].len(), 1);
    // The captured op must be FADD with the loaded operand.
    let seq = &on.patterns.fp32[0];
    let op = (seq.bit(0, 0) as u8) | ((seq.bit(0, 1) as u8) << 1);
    assert_eq!(op, warpstl::netlist::modules::fp32::OP_FADD);
}

/// Target-only capture only observes: for a PTP of every generator,
/// `RunOptions::capturing(target)` reproduces the `capture_all` run in
/// everything but the other modules' streams, which stay empty.
#[test]
fn target_capture_matches_capture_all_on_every_generator() {
    use warpstl::gpu::ModulePatterns;
    use warpstl::netlist::modules::ModuleKind;
    use warpstl::netlist::PatternSeq;
    use warpstl::programs::generators::*;

    fn streams(p: &ModulePatterns, module: ModuleKind) -> Vec<&PatternSeq> {
        match module {
            ModuleKind::DecoderUnit => vec![&p.du],
            ModuleKind::SpCore => p.sp.iter().collect(),
            ModuleKind::Sfu => p.sfu.iter().collect(),
            ModuleKind::Fp32 => p.fp32.iter().collect(),
        }
    }

    let ptps = [
        generate_imm(&ImmConfig {
            sb_count: 4,
            ..ImmConfig::default()
        }),
        generate_mem(&MemConfig {
            sb_count: 4,
            ..MemConfig::default()
        }),
        generate_cntrl(&CntrlConfig {
            regions: 2,
            loops: 1,
            threads: 64,
            ..CntrlConfig::default()
        }),
        generate_tpgen(&TpgenConfig {
            max_patterns: 4,
            ..TpgenConfig::default()
        }),
        generate_rand_sp(&RandConfig {
            sb_count: 4,
            ..RandConfig::default()
        }),
        generate_sfu_imm(&SfuImmConfig {
            max_patterns: 4,
            ..SfuImmConfig::default()
        }),
        generate_fpu(&FpuConfig {
            sb_count: 4,
            ..FpuConfig::default()
        }),
    ];
    for ptp in &ptps {
        let name = &ptp.name;
        let kernel = ptp.to_kernel().expect("kernel");
        let gpu = Gpu::default();
        let all = gpu.run(&kernel, &RunOptions::capture_all()).expect("runs");
        let only = gpu
            .run(&kernel, &RunOptions::capturing(ptp.target))
            .expect("runs");
        assert_eq!(only.cycles, all.cycles, "{name}");
        assert_eq!(only.trace.records(), all.trace.records(), "{name}");
        assert_eq!(only.signatures, all.signatures, "{name}");
        assert_eq!(only.global_mem, all.global_mem, "{name}");
        for module in ModuleKind::ALL {
            let (got, want) = (
                streams(&only.patterns, module),
                streams(&all.patterns, module),
            );
            if module == ptp.target {
                assert_eq!(got, want, "{name}: {module} streams");
                assert!(
                    want.iter().any(|s| !s.is_empty()),
                    "{name}: nothing captured"
                );
            } else {
                assert!(
                    got.iter().all(|s| s.is_empty()),
                    "{name}: captured {module} while targeting {}",
                    ptp.target
                );
            }
        }
    }
}
