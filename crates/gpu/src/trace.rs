//! The hardware monitor: execution tracing and module pattern capture.

use std::fmt;

use warpstl_isa::Opcode;
use warpstl_netlist::modules::{decoder_unit, fp32, sfu, sp_core};
use warpstl_netlist::PatternSeq;

/// One record of the RT-level tracing report: "the decoded instruction, the
/// program counter value, the executed instruction per warp, the warp
/// identifier, and the cc value".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Clock cycle at which the warp issued the instruction.
    pub cc_start: u64,
    /// First clock cycle after the instruction completed.
    pub cc_end: u64,
    /// Program counter (instruction index).
    pub pc: usize,
    /// Block index within the grid.
    pub block: usize,
    /// Warp id within the block.
    pub warp: usize,
    /// The decoded operation.
    pub opcode: Opcode,
    /// The active thread mask during execution.
    pub active_mask: u32,
}

/// The full tracing report of a kernel run, with per-PC lookup.
///
/// # Examples
///
/// ```
/// use warpstl_gpu::{Gpu, Kernel, KernelConfig, RunOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = warpstl_isa::asm::assemble("NOP;\nEXIT;")?;
/// let kernel = Kernel::new("t", program, KernelConfig::new(1, 32));
/// let result = Gpu::default().run(&kernel, &RunOptions::tracing())?;
/// let nops = result.trace.records_for_pc(0).count();
/// assert_eq!(nops, 1); // one warp executed the NOP once
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    /// Record indices per program counter, dense over `0..=max pc`.
    by_pc: Vec<Vec<usize>>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends a record.
    pub fn push(&mut self, rec: TraceRecord) {
        if rec.pc >= self.by_pc.len() {
            self.by_pc.resize_with(rec.pc + 1, Vec::new);
        }
        self.by_pc[rec.pc].push(self.records.len());
        self.records.push(rec);
    }

    /// All records in execution order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The records of every execution of the instruction at `pc` (one per
    /// warp per dynamic execution).
    pub fn records_for_pc(&self, pc: usize) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.by_pc
            .get(pc)
            .into_iter()
            .flatten()
            .map(move |&i| &self.records[i])
    }

    /// The number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# cc_start cc_end pc block warp opcode mask")?;
        for r in &self.records {
            writeln!(
                f,
                "{} {} {} {} {} {} {:#010x}",
                r.cc_start, r.cc_end, r.pc, r.block, r.warp, r.opcode, r.active_mask
            )?;
        }
        Ok(())
    }
}

/// The gate-level test-pattern report: per-clock-cycle input vectors for
/// each target-module instance, as captured by the hardware monitor.
///
/// The Decoder Unit has one instance; the SP cores and SFUs have one
/// pattern stream per physical instance (lane).
#[derive(Debug, Clone)]
pub struct ModulePatterns {
    /// Decode-stage stimuli seen by the Decoder Unit.
    pub du: PatternSeq,
    /// Operand streams per SP core.
    pub sp: Vec<PatternSeq>,
    /// Operand streams per SFU.
    pub sfu: Vec<PatternSeq>,
    /// Operand streams per FP32 unit (paired with the SP cores).
    pub fp32: Vec<PatternSeq>,
}

impl ModulePatterns {
    /// Empty capture buffers for `sp_cores` SP/FP32 instance pairs and
    /// `sfus` SFU instances.
    #[must_use]
    pub fn new(sp_cores: usize, sfus: usize) -> ModulePatterns {
        ModulePatterns {
            du: PatternSeq::new(decoder_unit::PATTERN_WIDTH),
            sp: (0..sp_cores)
                .map(|_| PatternSeq::new(sp_core::PATTERN_WIDTH))
                .collect(),
            sfu: (0..sfus)
                .map(|_| PatternSeq::new(sfu::PATTERN_WIDTH))
                .collect(),
            fp32: (0..sp_cores)
                .map(|_| PatternSeq::new(fp32::PATTERN_WIDTH))
                .collect(),
        }
    }

    /// Total captured patterns across all modules.
    #[must_use]
    pub fn total_patterns(&self) -> usize {
        self.du.len()
            + self.sp.iter().map(PatternSeq::len).sum::<usize>()
            + self.sfu.iter().map(PatternSeq::len).sum::<usize>()
            + self.fp32.iter().map(PatternSeq::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: usize, warp: usize, cc: u64) -> TraceRecord {
        TraceRecord {
            cc_start: cc,
            cc_end: cc + 60,
            pc,
            block: 0,
            warp,
            opcode: Opcode::Iadd,
            active_mask: u32::MAX,
        }
    }

    #[test]
    fn by_pc_lookup() {
        let mut t = Trace::new();
        t.push(rec(0, 0, 0));
        t.push(rec(1, 0, 60));
        t.push(rec(0, 1, 120));
        assert_eq!(t.records_for_pc(0).count(), 2);
        assert_eq!(t.records_for_pc(1).count(), 1);
        assert_eq!(t.records_for_pc(9).count(), 0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn display_lists_records() {
        let mut t = Trace::new();
        t.push(rec(4, 2, 100));
        let s = t.to_string();
        assert!(s.contains("100 160 4 0 2 IADD"));
    }

    #[test]
    fn pattern_buffers_have_module_widths() {
        let p = ModulePatterns::new(8, 2);
        assert_eq!(p.du.width(), decoder_unit::PATTERN_WIDTH);
        assert_eq!(p.sp.len(), 8);
        assert_eq!(p.sp[0].width(), sp_core::PATTERN_WIDTH);
        assert_eq!(p.sfu.len(), 2);
        assert_eq!(p.fp32.len(), 8);
        assert_eq!(p.fp32[0].width(), fp32::PATTERN_WIDTH);
        assert_eq!(p.total_patterns(), 0);
    }
}
