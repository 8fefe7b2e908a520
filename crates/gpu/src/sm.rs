//! The streaming-multiprocessor executor: runs one block's warps through
//! the five-stage pipeline, serially per warp instruction, with tracing and
//! module pattern capture.

use warpstl_isa::{encoding, ExecUnit, Instruction, Opcode, SpecialReg, SrcOperand};
use warpstl_netlist::modules::{decoder_unit, fp32, sfu, sp_core};

use crate::exec::{exec_alu, fp_op_for, sfu_func_for, sp_op_for};
use crate::timing::{decode_offset, execute_offset, instruction_cost};
use crate::trace::{ModulePatterns, Trace, TraceRecord};
use crate::warp::Warp;
use crate::{GpuConfig, Memory, RunOptions, SimError};

pub(crate) struct BlockExec<'a> {
    config: &'a GpuConfig,
    opts: &'a RunOptions,
    program: &'a [Instruction],
    encoded: &'a [u64],
    block: usize,
    threads: usize,
    warps: Vec<Warp>,
    regs: Vec<u32>,
    preds: Vec<bool>,
    shared: Memory,
    local: Vec<u32>,
    /// Scoreboard shadow for the Decoder Unit pattern: the previous decoded
    /// instruction's destination register and write-enable.
    prev_dst: u8,
    prev_we: bool,
}

impl<'a> BlockExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: &'a GpuConfig,
        opts: &'a RunOptions,
        program: &'a [Instruction],
        encoded: &'a [u64],
        block: usize,
        threads: usize,
    ) -> BlockExec<'a> {
        let n_warps = threads.div_ceil(config.warp_size);
        let warps = (0..n_warps)
            .map(|w| {
                let lo = w * config.warp_size;
                let width = config.warp_size.min(threads - lo);
                Warp::new(w, width)
            })
            .collect();
        BlockExec {
            config,
            opts,
            program,
            encoded,
            block,
            threads,
            warps,
            regs: vec![0; threads * config.regs_per_thread],
            preds: vec![false; threads * 4],
            shared: Memory::new("shared", config.shared_mem_bytes),
            local: vec![0; threads * config.local_mem_bytes.div_ceil(4)],
            prev_dst: 0,
            prev_we: false,
        }
    }

    fn reg(&self, tid: usize, r: u8) -> u32 {
        self.regs[tid * self.config.regs_per_thread + r as usize]
    }

    fn set_reg(&mut self, tid: usize, r: u8, v: u32, signatures: &mut [u32]) {
        self.regs[tid * self.config.regs_per_thread + r as usize] = v;
        let s = &mut signatures[tid];
        *s = s.rotate_left(1) ^ v;
    }

    fn pred(&self, tid: usize, p: u8) -> bool {
        if p >= 4 {
            return true; // PT
        }
        self.preds[tid * 4 + p as usize]
    }

    fn special(&self, tid: usize, sr: SpecialReg) -> u32 {
        match sr {
            SpecialReg::TidX => tid as u32,
            SpecialReg::CtaIdX => self.block as u32,
            SpecialReg::NTidX => self.threads as u32,
            SpecialReg::LaneId => (tid % self.config.warp_size) as u32,
            SpecialReg::WarpId => (tid / self.config.warp_size) as u32,
        }
    }

    /// Resolves the (a, b, c) operand values for `tid`.
    fn operands(&self, instr: &Instruction, tid: usize) -> (u32, u32, u32) {
        let mut vals = [0u32; 3];
        for (i, s) in instr.srcs.iter().take(3).enumerate() {
            vals[i] = match s {
                SrcOperand::Reg(r) => self.reg(tid, r.index()),
                SrcOperand::Imm(v) => *v as u32,
                SrcOperand::Special(sr) => self.special(tid, *sr),
                SrcOperand::Pred(p) => self.pred(tid, p.index()) as u32,
                SrcOperand::Mem(_) => 0,
            };
        }
        (vals[0], vals[1], vals[2])
    }

    fn guard_mask(&self, instr: &Instruction, warp: &Warp) -> u32 {
        let base = warp.id() * self.config.warp_size;
        let mut mask = 0u32;
        let active = warp.active_mask();
        for lane in 0..self.config.warp_size {
            if active >> lane & 1 == 0 {
                continue;
            }
            let tid = base + lane;
            if tid >= self.threads {
                continue;
            }
            let pv = if instr.guard.pred.is_true() {
                true
            } else {
                self.pred(tid, instr.guard.pred.index())
            };
            if instr.guard.passes(pv) {
                mask |= 1 << lane;
            }
        }
        mask
    }

    fn check_target(&self, pc: usize, target: Option<usize>) -> Result<usize, SimError> {
        match target {
            Some(t) if t <= self.program.len() => Ok(t),
            Some(t) => Err(SimError::BadTarget { pc, target: t }),
            None => Err(SimError::BadTarget {
                pc,
                target: usize::MAX,
            }),
        }
    }

    /// Executes one instruction for warp `w`, advancing `cc`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_warp(
        &mut self,
        w: usize,
        cc: &mut u64,
        trace: &mut Trace,
        patterns: &mut ModulePatterns,
        signatures: &mut [u32],
        global: &mut Memory,
        constant: &Memory,
    ) -> Result<(), SimError> {
        let pc = self.warps[w].pc();
        if pc >= self.program.len() {
            return Err(SimError::RanOffEnd);
        }
        let instr = &self.program[pc];
        let op = instr.opcode;
        let cost = instruction_cost(op, self.config);
        let cc_start = *cc;
        *cc = cc_start + cost;

        let active = self.warps[w].active_mask();
        if self.opts.trace {
            trace.push(TraceRecord {
                cc_start,
                cc_end: *cc,
                pc,
                block: self.block,
                warp: w,
                opcode: op,
                active_mask: active,
            });
        }
        if self.opts.capture_du {
            let row =
                decoder_unit::pack_row(self.encoded[pc], pc as u16, self.prev_dst, self.prev_we);
            patterns.du.push_row(cc_start + decode_offset(), &row);
        }
        self.prev_we = instr.dst.is_some();
        self.prev_dst = instr.dst.map_or(0, |d| d.index());

        let guard = self.guard_mask(instr, &self.warps[w]);
        let base = w * self.config.warp_size;

        match op {
            // --- Control flow ---
            Opcode::Bra => {
                let t = self.check_target(pc, instr.target())?;
                self.warps[w].diverge(t, guard)?;
            }
            Opcode::Ssy => {
                let t = self.check_target(pc, instr.target())?;
                self.warps[w].push_sync(t);
                self.warps[w].advance();
            }
            Opcode::Sync => self.warps[w].sync(),
            Opcode::Bar => {
                self.warps[w].set_at_barrier(true);
                self.warps[w].advance();
            }
            Opcode::Cal => {
                let t = self.check_target(pc, instr.target())?;
                self.warps[w].call(t)?;
            }
            Opcode::Ret => self.warps[w].ret()?,
            Opcode::Exit => {
                let _ = self.warps[w].exit();
            }
            Opcode::Nop => self.warps[w].advance(),

            // --- Memory ---
            _ if op.is_memory() => {
                let m = instr
                    .mem_ref()
                    .ok_or(SimError::BadTarget { pc, target: 0 })?;
                for lane in 0..self.config.warp_size {
                    if guard >> lane & 1 == 0 {
                        continue;
                    }
                    let tid = base + lane;
                    if tid >= self.threads {
                        continue;
                    }
                    let addr = self.reg(tid, m.base.index()) as u64 + m.offset as u64;
                    match op {
                        Opcode::Ldg => {
                            let v = global.load_word(addr)?;
                            let d = instr.dst.expect("load has dst").index();
                            self.set_reg(tid, d, v, signatures);
                        }
                        Opcode::Ldc => {
                            let v = constant.load_word(addr)?;
                            let d = instr.dst.expect("load has dst").index();
                            self.set_reg(tid, d, v, signatures);
                        }
                        Opcode::Lds => {
                            let v = self.shared.load_word(addr)?;
                            let d = instr.dst.expect("load has dst").index();
                            self.set_reg(tid, d, v, signatures);
                        }
                        Opcode::Ldl => {
                            let v = self.load_local(tid, addr)?;
                            let d = instr.dst.expect("load has dst").index();
                            self.set_reg(tid, d, v, signatures);
                        }
                        Opcode::Stg => {
                            let v = self.store_value(instr, tid);
                            global.store_word(addr, v)?;
                        }
                        Opcode::Sts => {
                            let v = self.store_value(instr, tid);
                            self.shared.store_word(addr, v)?;
                        }
                        Opcode::Stl => {
                            let v = self.store_value(instr, tid);
                            self.store_local(tid, addr, v)?;
                        }
                        _ => unreachable!("memory opcode {op}"),
                    }
                }
                self.warps[w].advance();
            }

            // --- ALU / FP / SFU / moves ---
            _ => {
                let units = match ExecUnit::of(op) {
                    ExecUnit::Sfu => self.config.sfus,
                    _ => self.config.sp_cores,
                };
                let sp_sel = sp_op_for(op, instr.cmp);
                let sfu_sel = sfu_func_for(op);
                let fp_sel = fp_op_for(op, instr.cmp);
                for lane in 0..self.config.warp_size {
                    let tid = base + lane;
                    if tid >= self.threads {
                        break;
                    }
                    let is_active = active >> lane & 1 == 1;
                    if !is_active {
                        continue;
                    }
                    let (a, b, c) = self.operands(instr, tid);
                    // Pattern capture: active lanes drive the unit whether
                    // or not the guard lets them write back.
                    let pass = lane / units;
                    let unit = lane % units;
                    let pat_cc = cc_start + execute_offset(op, pass);
                    if self.opts.capture_sp {
                        if let Some((spop, cmpb)) = sp_sel {
                            let row = sp_core::pack_row(spop, cmpb, a, b, c);
                            patterns.sp[unit].push_row(pat_cc, &row);
                        }
                    }
                    if self.opts.capture_sfu {
                        if let Some(f) = sfu_sel {
                            patterns.sfu[unit].push_row(pat_cc, &sfu::pack_row(f, a));
                        }
                    }
                    if self.opts.capture_fp32 {
                        if let Some(fop) = fp_sel {
                            patterns.fp32[unit].push_row(pat_cc, &fp32::pack_row(fop, a, b));
                        } else if op == Opcode::Ffma {
                            // FFMA occupies the unit twice: multiply, then
                            // add of the product and the addend.
                            let row = fp32::pack_row(fp32::OP_FMUL, a, b);
                            patterns.fp32[unit].push_row(pat_cc, &row);
                            let prod = fp32::reference(fp32::OP_FMUL, a, b);
                            let row = fp32::pack_row(fp32::OP_FADD, prod, c);
                            patterns.fp32[unit].push_row(pat_cc + 1, &row);
                        }
                    }
                    if guard >> lane & 1 == 0 {
                        continue;
                    }
                    let (result, pred_result) = exec_alu(op, instr.cmp, a, b, c);
                    if let (Some(v), Some(d)) = (result, instr.dst) {
                        self.set_reg(tid, d.index(), v, signatures);
                    }
                    if let (Some(pv), Some(p)) = (pred_result, instr.pdst) {
                        self.preds[tid * 4 + p.index() as usize] = pv;
                    }
                }
                self.warps[w].advance();
            }
        }
        Ok(())
    }

    fn store_value(&self, instr: &Instruction, tid: usize) -> u32 {
        match instr.srcs.get(1) {
            Some(SrcOperand::Reg(r)) => self.reg(tid, r.index()),
            _ => 0,
        }
    }

    fn local_words_per_thread(&self) -> usize {
        self.config.local_mem_bytes.div_ceil(4)
    }

    fn load_local(&self, tid: usize, addr: u64) -> Result<u32, SimError> {
        let wpt = self.local_words_per_thread();
        let idx = (addr / 4) as usize;
        if idx >= wpt {
            return Err(SimError::MemoryOutOfBounds {
                space: "local",
                addr,
                size: wpt * 4,
            });
        }
        Ok(self.local[tid * wpt + idx])
    }

    fn store_local(&mut self, tid: usize, addr: u64, v: u32) -> Result<(), SimError> {
        let wpt = self.local_words_per_thread();
        let idx = (addr / 4) as usize;
        if idx >= wpt {
            return Err(SimError::MemoryOutOfBounds {
                space: "local",
                addr,
                size: wpt * 4,
            });
        }
        self.local[tid * wpt + idx] = v;
        Ok(())
    }

    /// Runs the whole block to completion.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &mut self,
        cc: &mut u64,
        trace: &mut Trace,
        patterns: &mut ModulePatterns,
        signatures: &mut [u32],
        global: &mut Memory,
        constant: &Memory,
    ) -> Result<(), SimError> {
        loop {
            let mut progressed = false;
            for w in 0..self.warps.len() {
                if self.warps[w].is_done() || self.warps[w].at_barrier() {
                    continue;
                }
                self.step_warp(w, cc, trace, patterns, signatures, global, constant)?;
                progressed = true;
                if *cc > self.config.max_cycles {
                    return Err(SimError::CycleLimit {
                        limit: self.config.max_cycles,
                    });
                }
            }
            let all_done = self.warps.iter().all(Warp::is_done);
            if all_done {
                return Ok(());
            }
            let waiting = self
                .warps
                .iter()
                .filter(|w| !w.is_done() && w.at_barrier())
                .count();
            let not_done = self.warps.iter().filter(|w| !w.is_done()).count();
            if waiting == not_done && waiting > 0 {
                // Barrier satisfied by every live warp: release.
                for w in &mut self.warps {
                    w.set_at_barrier(false);
                }
                progressed = true;
            }
            if !progressed {
                return Err(SimError::BarrierDeadlock);
            }
        }
    }
}

/// Encodes a program once for DU pattern capture.
pub(crate) fn encode_program(program: &[Instruction]) -> Vec<u64> {
    encoding::encode_program(program)
}
