//! The top-level GPU object and kernel launcher.

use warpstl_netlist::modules::ModuleKind;

use crate::sm::{encode_program, BlockExec};
use crate::trace::{ModulePatterns, Trace};
use crate::{GpuConfig, Kernel, Memory, SimError};

/// What the hardware monitor records during a run.
///
/// Tracing and pattern capture exist for the compaction flow; plain
/// functional runs leave everything off. The compaction flow records only
/// the module it targets ([`RunOptions::capturing`]);
/// [`RunOptions::capture_all`] dumps every module's patterns at once.
///
/// Capture only observes: cycles, the trace, signatures and memory are the
/// same whichever streams are switched on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Record the RT-level tracing report.
    pub trace: bool,
    /// Capture Decoder Unit patterns (instruction words).
    pub capture_du: bool,
    /// Capture SP-core operand patterns.
    pub capture_sp: bool,
    /// Capture SFU operand patterns.
    pub capture_sfu: bool,
    /// Capture FP32-unit operand patterns.
    pub capture_fp32: bool,
}

impl RunOptions {
    /// Tracing only (no pattern capture).
    #[must_use]
    pub fn tracing() -> RunOptions {
        RunOptions {
            trace: true,
            ..RunOptions::default()
        }
    }

    /// Tracing plus the pattern streams of `module` alone: the paper's
    /// stage-2 monitor, which records "the per-cc test patterns applied at
    /// the I/O of the target module" and nothing else.
    #[must_use]
    pub fn capturing(module: ModuleKind) -> RunOptions {
        RunOptions {
            trace: true,
            capture_du: module == ModuleKind::DecoderUnit,
            capture_sp: module == ModuleKind::SpCore,
            capture_sfu: module == ModuleKind::Sfu,
            capture_fp32: module == ModuleKind::Fp32,
        }
    }

    /// Tracing plus every module's pattern streams: [`RunOptions::capturing`]
    /// for all modules at once (`warpstl patterns` dumps them all).
    #[must_use]
    pub fn capture_all() -> RunOptions {
        RunOptions {
            trace: true,
            capture_du: true,
            capture_sp: true,
            capture_sfu: true,
            capture_fp32: true,
        }
    }
}

/// The result of a kernel run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total clock cycles (the PTP *duration* reported in the paper's
    /// tables).
    pub cycles: u64,
    /// The RT-level tracing report (empty unless requested).
    pub trace: Trace,
    /// The gate-level test-pattern report (empty unless requested).
    pub patterns: ModulePatterns,
    /// Final signature-per-thread (SpT) values, one per global thread.
    pub signatures: Vec<u32>,
    /// Final global memory.
    pub global_mem: Memory,
}

/// The GPU model: a single SM per the paper's FlexGripPlus configuration.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct Gpu {
    /// Hardware configuration.
    pub config: GpuConfig,
}

impl Gpu {
    /// A GPU with `config`.
    #[must_use]
    pub fn new(config: GpuConfig) -> Gpu {
        Gpu { config }
    }

    /// Runs `kernel` to completion.
    ///
    /// Blocks execute sequentially on the single SM (as on FlexGripPlus with
    /// one SM); shared memory and the barrier state reset per block; global
    /// memory persists across blocks.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by the program: out-of-bounds accesses, bad
    /// control targets, divergence misuse, barrier deadlock, or the cycle
    /// limit.
    pub fn run(&self, kernel: &Kernel, opts: &RunOptions) -> Result<RunResult, SimError> {
        let encoded = encode_program(&kernel.program);
        let mut cc = 0u64;
        let mut trace = Trace::new();
        let mut patterns = ModulePatterns::new(self.config.sp_cores, self.config.sfus);
        let mut signatures = vec![0u32; kernel.config.total_threads()];
        let mut global = kernel.data.global().clone();
        let constant = kernel.data.constant().clone();

        for block in 0..kernel.config.blocks {
            let mut exec = BlockExec::new(
                &self.config,
                opts,
                &kernel.program,
                &encoded,
                block,
                kernel.config.threads_per_block,
            );
            let sig_lo = block * kernel.config.threads_per_block;
            let sig_hi = sig_lo + kernel.config.threads_per_block;
            exec.run(
                &mut cc,
                &mut trace,
                &mut patterns,
                &mut signatures[sig_lo..sig_hi],
                &mut global,
                &constant,
            )?;
        }
        Ok(RunResult {
            cycles: cc,
            trace,
            patterns,
            signatures,
            global_mem: global,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelConfig;
    use warpstl_isa::asm;

    fn run_asm(src: &str, threads: usize, opts: RunOptions) -> RunResult {
        let program = asm::assemble(src).expect("asm");
        let kernel = Kernel::new("t", program, KernelConfig::new(1, threads));
        Gpu::default().run(&kernel, &opts).expect("run")
    }

    #[test]
    fn tid_indexed_store() {
        let r = run_asm(
            "S2R R0, SR_TID_X;\n\
             SHL R1, R0, 0x2;\n\
             STG [R1], R0;\n\
             EXIT;",
            32,
            RunOptions::default(),
        );
        for t in 0..32u64 {
            assert_eq!(r.global_mem.load_word(t * 4).unwrap(), t as u32);
        }
    }

    #[test]
    fn divergent_if_else_writes_both_sides() {
        // Threads with tid < 16 write 111, the rest write 222.
        let r = run_asm(
            "S2R R0, SR_TID_X;\n\
             SHL R1, R0, 0x2;\n\
             ISETP.LT P0, R0, 0x10;\n\
             SSY join;\n\
             @P0 BRA low;\n\
             MOV32I R2, 222;\n\
             BRA join;\n\
             low: MOV32I R2, 111;\n\
             join: SYNC;\n\
             STG [R1], R2;\n\
             EXIT;",
            32,
            RunOptions::default(),
        );
        for t in 0..32u64 {
            let want = if t < 16 { 111 } else { 222 };
            assert_eq!(r.global_mem.load_word(t * 4).unwrap(), want, "tid {t}");
        }
    }

    #[test]
    fn loop_with_backward_branch() {
        // Sum 0..5 per thread.
        let r = run_asm(
            "MOV32I R1, 0;\n\
             MOV32I R2, 0;\n\
             top: IADD R1, R1, R2;\n\
             IADD R2, R2, 0x1;\n\
             ISETP.LT P0, R2, 0x5;\n\
             @P0 BRA top;\n\
             S2R R0, SR_TID_X;\n\
             SHL R3, R0, 0x2;\n\
             STG [R3], R1;\n\
             EXIT;",
            8,
            RunOptions::default(),
        );
        for t in 0..8u64 {
            assert_eq!(r.global_mem.load_word(t * 4).unwrap(), 10, "tid {t}");
        }
    }

    #[test]
    fn barrier_synchronizes_warps() {
        // Warp 0 threads write; all warps barrier; then all read.
        let src = "S2R R0, SR_TID_X;\n\
             SHL R1, R0, 0x2;\n\
             STS [R1], R0;\n\
             BAR;\n\
             LDS R2, [R1];\n\
             STG [R1], R2;\n\
             EXIT;";
        let r = run_asm(src, 64, RunOptions::default());
        for t in 0..64u64 {
            assert_eq!(r.global_mem.load_word(t * 4).unwrap(), t as u32);
        }
    }

    #[test]
    fn multiple_blocks_run_sequentially() {
        let program = asm::assemble(
            "S2R R0, SR_TID_X;\n\
             S2R R1, SR_CTAID_X;\n\
             SHL R2, R1, 0x7;\n\
             SHL R3, R0, 0x2;\n\
             IADD R2, R2, R3;\n\
             STG [R2], R1;\n\
             EXIT;",
        )
        .unwrap();
        let kernel = Kernel::new("b", program, KernelConfig::new(3, 32));
        let r = Gpu::default().run(&kernel, &RunOptions::default()).unwrap();
        for b in 0..3u64 {
            assert_eq!(r.global_mem.load_word(b * 128).unwrap(), b as u32);
        }
        assert_eq!(r.signatures.len(), 96);
    }

    #[test]
    fn trace_and_patterns_are_captured() {
        let r = run_asm(
            "MOV32I R1, 0x55;\n\
             IADD R2, R1, 0x1;\n\
             RCP R3, R2;\n\
             EXIT;",
            32,
            RunOptions::capture_all(),
        );
        assert_eq!(r.trace.len(), 4);
        assert_eq!(r.patterns.du.len(), 4);
        // MOV32I + IADD execute on 8 SPs, 32 threads -> 4 patterns per SP
        // per instruction.
        assert_eq!(r.patterns.sp[0].len(), 2 * 4);
        // RCP executes on 2 SFUs -> 16 patterns each.
        assert_eq!(r.patterns.sfu[0].len(), 16);
        assert_eq!(r.patterns.sfu[1].len(), 16);
        // Pattern cc stamps fall inside the instruction's trace interval.
        let recs = r.trace.records();
        for i in 0..r.patterns.du.len() {
            let cc = r.patterns.du.cc(i);
            assert!(recs.iter().any(|t| t.cc_start <= cc && cc < t.cc_end));
        }
    }

    #[test]
    fn signatures_fold_results() {
        let a = run_asm("MOV32I R1, 1;\nEXIT;", 8, RunOptions::default());
        let b = run_asm("MOV32I R1, 2;\nEXIT;", 8, RunOptions::default());
        assert_ne!(a.signatures, b.signatures);
        assert!(a.signatures.iter().all(|&s| s != 0));
    }

    #[test]
    fn guarded_writes_skip_inactive_threads() {
        let r = run_asm(
            "S2R R0, SR_TID_X;\n\
             ISETP.LT P0, R0, 0x4;\n\
             MOV32I R2, 7;\n\
             @P0 MOV32I R2, 9;\n\
             SHL R1, R0, 0x2;\n\
             STG [R1], R2;\n\
             EXIT;",
            8,
            RunOptions::default(),
        );
        for t in 0..8u64 {
            let want = if t < 4 { 9 } else { 7 };
            assert_eq!(r.global_mem.load_word(t * 4).unwrap(), want);
        }
    }

    #[test]
    fn errors_surface() {
        let program = asm::assemble("LDG R1, [R0+0x10];\nEXIT;").unwrap();
        let mut kernel = Kernel::new("e", program, KernelConfig::new(1, 1));
        kernel.data = crate::KernelData::new(8, 8); // tiny memory
        let err = Gpu::default()
            .run(&kernel, &RunOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::MemoryOutOfBounds { .. }));
    }

    #[test]
    fn cycle_limit_catches_runaways() {
        let program = asm::assemble("top: BRA top;").unwrap();
        let kernel = Kernel::new("r", program, KernelConfig::new(1, 32));
        let config = GpuConfig {
            max_cycles: 10_000,
            ..GpuConfig::default()
        };
        let err = Gpu::new(config)
            .run(&kernel, &RunOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { .. }));
    }

    #[test]
    fn duration_scales_with_warps() {
        let src = "MOV32I R1, 3;\nIADD R1, R1, 0x1;\nEXIT;";
        let one = run_asm(src, 32, RunOptions::default());
        let program = asm::assemble(src).unwrap();
        let kernel = Kernel::new("w", program, KernelConfig::new(1, 1024));
        let many = Gpu::default().run(&kernel, &RunOptions::default()).unwrap();
        // 32 warps execute serially: ~32x the cycles.
        let ratio = many.cycles as f64 / one.cycles as f64;
        assert!((28.0..36.0).contains(&ratio), "ratio {ratio}");
    }
}
