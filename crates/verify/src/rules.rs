//! The diagnostic rule set.
//!
//! Each rule takes the shared analysis context (program + CFG + dataflow)
//! and returns its findings. Severities follow one principle: *errors* mean
//! the CPTP is malformed and running it would be meaningless or misleading;
//! *warnings* mean the shape is suspicious but the program still runs.

use std::collections::{HashMap, HashSet};

use warpstl_isa::{Instruction, Opcode, SpecialReg, SrcOperand};
use warpstl_programs::{segment_small_blocks, BasicBlocks, ControlFlowGraph, Ptp};

use crate::dataflow::{def_mask, slot_name, strong_def_mask, use_slots, Dataflow};
use crate::diag::{Diagnostic, Rule, Severity};

/// Shared per-program analysis state handed to every rule.
pub(crate) struct Ctx<'a> {
    pub program: &'a [Instruction],
    pub bbs: &'a BasicBlocks,
    pub cfg: &'a ControlFlowGraph,
    pub df: &'a Dataflow,
}

/// Rule 1: every read must have a reaching definition. A read with no
/// definition on *any* path is an error (the classic symptom of removing
/// the SB that produced an operand); a read defined on only *some* paths is
/// a warning.
pub(crate) fn use_before_def(ctx: &Ctx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for b in ctx.bbs.iter() {
        if !ctx.df.reachable[b] {
            continue;
        }
        let mut may = ctx.df.may_in[b];
        let mut must = ctx.df.must_in[b];
        for pc in ctx.bbs.range(b) {
            let instr = &ctx.program[pc];
            for slot in use_slots(instr) {
                let bit = 1u128 << slot;
                if may & bit == 0 {
                    out.push(Diagnostic::error(
                        Rule::UseBeforeDef,
                        pc,
                        format!("{} is read but never defined on any path", slot_name(slot)),
                    ));
                } else if must & bit == 0 {
                    out.push(Diagnostic::warning(
                        Rule::UseBeforeDef,
                        pc,
                        format!("{} may be undefined on some path", slot_name(slot)),
                    ));
                }
            }
            may |= def_mask(instr);
            must |= strong_def_mask(instr);
        }
    }
    out
}

/// Rule 2: Small-Block structural integrity. (a) An SB of a single
/// instruction is a bare store with no load/operate phase. (b) A store-less
/// run whose computed values are all dead at the end of the run is an
/// orphaned operate phase: it computes results that are never propagated —
/// typically the residue of a partial SB removal.
pub(crate) fn sb_structure(ctx: &Ctx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let sbs = segment_small_blocks(ctx.program, ctx.bbs);
    for sb in &sbs {
        if sb.len() == 1 {
            out.push(Diagnostic::warning(
                Rule::SbStructure,
                sb.start,
                "bare store: SB has no load/operate phase before the propagation".to_string(),
            ));
        }
    }

    for b in ctx.bbs.iter() {
        if !ctx.df.reachable[b] {
            continue;
        }
        let range = ctx.bbs.range(b);
        // Live slots immediately *after* each pc of the block.
        let mut live_after = vec![0u128; range.len()];
        let mut live = ctx.df.live_out[b];
        for pc in range.clone().rev() {
            live_after[pc - range.start] = live;
            let instr = &ctx.program[pc];
            live &= !strong_def_mask(instr);
            for slot in use_slots(instr) {
                live |= 1 << slot;
            }
        }
        // Re-walk the SB segmentation to find store-less runs.
        let mut run_start = range.start;
        let flush = |run: std::ops::Range<usize>, out: &mut Vec<Diagnostic>| {
            if run.is_empty() {
                return;
            }
            let defined: u128 = run
                .clone()
                .map(|pc| def_mask(&ctx.program[pc]))
                .fold(0, |a, m| a | m);
            if defined == 0 {
                return;
            }
            let end_live = live_after[run.end - 1 - range.start];
            if defined & end_live == 0 {
                out.push(Diagnostic::warning(
                    Rule::SbStructure,
                    run.start,
                    format!(
                        "orphaned operate run: {} instruction(s) compute values that are never propagated",
                        run.len()
                    ),
                ));
            }
        };
        for pc in range.clone() {
            let op = ctx.program[pc].opcode;
            if op.is_control_flow() || op == Opcode::Nop {
                flush(run_start..pc, &mut out);
                run_start = pc + 1;
            } else if op.is_store() {
                run_start = pc + 1; // a complete SB, not an orphan
            }
        }
        flush(run_start..range.end, &mut out);
    }
    out
}

/// Rule 3: ARC admissibility. Removed instructions must not come from
/// basic blocks that participate in CFG cycles (the paper excludes loop
/// bodies from the Area of Reduction Candidates). Runs of consecutive
/// removed pcs are reported as one diagnostic.
pub(crate) fn arc_admissibility(
    original: &Ptp,
    removed_pcs: &[usize],
    severity: Severity,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let bbs = BasicBlocks::of(&original.program);
    let cfg = ControlFlowGraph::of(&original.program, &bbs);
    let offending: Vec<(usize, usize)> = removed_pcs
        .iter()
        .filter_map(|&pc| {
            let b = bbs.block_of(pc)?;
            cfg.in_cycle(b).then_some((pc, b))
        })
        .collect();
    let mut i = 0;
    while i < offending.len() {
        let (start, block) = offending[i];
        let mut end = start;
        while i + 1 < offending.len()
            && offending[i + 1].0 == offending[i].0 + 1
            && offending[i + 1].1 == block
        {
            i += 1;
            end = offending[i].0;
        }
        let count = end - start + 1;
        out.push(Diagnostic {
            rule: Rule::ArcAdmissibility,
            severity,
            pc: Some(start),
            message: format!(
                "removed {count} instruction(s) at pc {start}..={end} from loop block {block}, \
                 outside the admissible reduction area"
            ),
        });
        i += 1;
    }
    out
}

/// Rule 4: divergence pairing and branch-target validity. Every explicit
/// target must land inside the program (`BasicBlocks::of` is deliberately
/// lenient about this; the verifier is where it surfaces). `SSY`/`SYNC`
/// must nest: an abstract divergence-stack depth is propagated over the
/// CFG, flagging pops of an empty stack, inconsistent depths at joins, and
/// exits inside an open region.
pub(crate) fn divergence_pairing(ctx: &Ctx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let len = ctx.program.len();
    for (pc, instr) in ctx.program.iter().enumerate() {
        if !instr.opcode.has_target() {
            continue;
        }
        match instr.target() {
            Some(t) if t >= len => out.push(Diagnostic::error(
                Rule::DivergencePairing,
                pc,
                format!(
                    "{} target {t} is outside the program (len {len})",
                    instr.opcode
                ),
            )),
            Some(t) if instr.opcode == Opcode::Ssy && ctx.program[t].opcode != Opcode::Sync => {
                out.push(Diagnostic::warning(
                    Rule::DivergencePairing,
                    pc,
                    format!("SSY reconvergence target pc {t} is not a SYNC"),
                ));
            }
            _ => {}
        }
    }

    let n = ctx.bbs.count();
    let mut depth_in: Vec<Option<usize>> = vec![None; n];
    if n == 0 {
        return out;
    }
    depth_in[0] = Some(0);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut depth = depth_in[b].expect("queued with depth");
        let mut poisoned = false;
        for pc in ctx.bbs.range(b) {
            match ctx.program[pc].opcode {
                Opcode::Ssy => depth += 1,
                Opcode::Sync => {
                    if depth == 0 {
                        out.push(Diagnostic::error(
                            Rule::DivergencePairing,
                            pc,
                            "SYNC with no matching SSY (divergence stack underflow)".to_string(),
                        ));
                        poisoned = true;
                        break;
                    }
                    depth -= 1;
                }
                Opcode::Exit if depth > 0 => {
                    out.push(Diagnostic::error(
                        Rule::DivergencePairing,
                        pc,
                        format!("EXIT inside {depth} unterminated SSY region(s)"),
                    ));
                }
                _ => {}
            }
        }
        if poisoned {
            continue;
        }
        for &s in ctx.cfg.successors(b) {
            match depth_in[s] {
                None => {
                    depth_in[s] = Some(depth);
                    work.push(s);
                }
                Some(d) if d != depth => out.push(Diagnostic::error(
                    Rule::DivergencePairing,
                    ctx.bbs.range(s).start,
                    format!("inconsistent divergence depth at join ({d} vs {depth})"),
                )),
                Some(_) => {}
            }
        }
    }
    out
}

/// Thread-uniformity class of a register value, for warp-level race
/// detection: `Uniform` — every lane holds the same value; `Distinct` —
/// every lane holds a different value (derived injectively from the thread
/// id); `Unknown` — anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cls {
    Uniform,
    Distinct,
    Unknown,
}

fn cls_join(a: Cls, b: Cls) -> Cls {
    if a == b {
        a
    } else {
        Cls::Unknown
    }
}

type UniState = [Cls; 64];

/// Abstract transfer of one instruction over the uniformity state.
fn uniformity_transfer(state: &mut UniState, instr: &Instruction) {
    let Some(dst) = instr.writes() else {
        return;
    };
    let src_cls = |s: &SrcOperand| match s {
        SrcOperand::Reg(r) => state[r.index() as usize],
        // Immediates and specials resolved below; predicates don't feed
        // address arithmetic.
        _ => Cls::Uniform,
    };
    let new = match instr.opcode {
        Opcode::S2r => match instr.srcs.iter().find_map(|s| match s {
            SrcOperand::Special(sr) => Some(*sr),
            _ => None,
        }) {
            // Per-lane identifiers are injective within the warp; block
            // and launch geometry are warp-uniform.
            Some(SpecialReg::TidX | SpecialReg::LaneId) => Cls::Distinct,
            _ => Cls::Uniform,
        },
        Opcode::Mov32i => Cls::Uniform,
        Opcode::Mov => instr.srcs.first().map_or(Cls::Unknown, src_cls),
        Opcode::Iadd | Opcode::Isub | Opcode::Iadd32i => {
            // Adding a uniform offset to an injective value stays injective.
            let classes: Vec<Cls> = instr.srcs.iter().map(src_cls).collect();
            let distinct = classes.iter().filter(|&&c| c == Cls::Distinct).count();
            if classes.contains(&Cls::Unknown) || distinct > 1 {
                Cls::Unknown
            } else if distinct == 1 {
                Cls::Distinct
            } else {
                Cls::Uniform
            }
        }
        Opcode::Shl => {
            // A left shift by a uniform immediate preserves injectivity.
            let base = instr.srcs.first().map_or(Cls::Unknown, src_cls);
            match (base, instr.srcs.get(1)) {
                (c, Some(SrcOperand::Imm(_))) => c,
                (Cls::Uniform, Some(SrcOperand::Reg(r)))
                    if state[r.index() as usize] == Cls::Uniform =>
                {
                    Cls::Uniform
                }
                _ => Cls::Unknown,
            }
        }
        Opcode::Ldg | Opcode::Lds | Opcode::Ldl | Opcode::Ldc => Cls::Unknown,
        _ => {
            if instr.srcs.iter().all(|s| src_cls(s) == Cls::Uniform) {
                Cls::Uniform
            } else {
                Cls::Unknown
            }
        }
    };
    let slot = dst.index() as usize;
    state[slot] = if instr.guard.is_always_true() {
        new
    } else {
        cls_join(state[slot], new)
    };
}

/// Rule 5: warp-level memory races. Threads of a warp execute stores in
/// lockstep; a global or shared store whose address is warp-uniform makes
/// every lane write the same location, so the observed word is
/// lane-order-dependent and the test's propagation is unreliable. Local
/// memory (`STL`) is per-thread and never races; `Unknown` bases stay
/// silent to avoid noise.
pub(crate) fn memory_race(ctx: &Ctx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = ctx.bbs.count();
    if n == 0 {
        return out;
    }
    // Forward fixpoint of per-register uniformity over the CFG. The GPR
    // file starts zeroed, i.e. warp-uniform.
    let mut entry: Vec<Option<UniState>> = vec![None; n];
    entry[0] = Some([Cls::Uniform; 64]);
    let mut work = vec![0usize];
    let mut queued = vec![false; n];
    queued[0] = true;
    while let Some(b) = work.pop() {
        queued[b] = false;
        let mut state = entry[b].expect("queued with state");
        for pc in ctx.bbs.range(b) {
            uniformity_transfer(&mut state, &ctx.program[pc]);
        }
        for &s in ctx.cfg.successors(b) {
            let merged = match entry[s] {
                None => state,
                Some(prev) => {
                    let mut m = prev;
                    for (slot, cls) in m.iter_mut().enumerate() {
                        *cls = cls_join(*cls, state[slot]);
                    }
                    m
                }
            };
            if entry[s] != Some(merged) {
                entry[s] = Some(merged);
                if !queued[s] {
                    queued[s] = true;
                    work.push(s);
                }
            }
        }
    }

    for b in ctx.bbs.iter() {
        let Some(mut state) = entry[b] else { continue };
        for pc in ctx.bbs.range(b) {
            let instr = &ctx.program[pc];
            if matches!(instr.opcode, Opcode::Stg | Opcode::Sts) {
                if let Some(m) = instr.mem_ref() {
                    if state[m.base.index() as usize] == Cls::Uniform {
                        out.push(Diagnostic::warning(
                            Rule::MemoryRace,
                            pc,
                            format!(
                                "{} base R{} is warp-uniform: every lane stores to the same \
                                 address (intra-warp write race)",
                                instr.opcode,
                                m.base.index()
                            ),
                        ));
                    }
                }
            }
            uniformity_transfer(&mut state, instr);
        }
    }
    out
}

/// Rule 6: relocation soundness. After SB removal relocates the input
/// region, every surviving slot load must still address a laid-out SB and
/// find a backing word in `global_init` for every thread.
///
/// The backed threads of each (SB, word) are counted once, from the data
/// image: `SbSlots::locate` maps each distinct data address to the one
/// (thread, SB, word) whose slot it is, and bounds the thread. So the rule
/// costs O(data words + loads), whatever thread count the layout claims.
pub(crate) fn relocation(ptp: &Ptp) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(slots) = ptp.sb_slots else {
        return out;
    };
    let have: HashSet<u64> = ptp.global_init.iter().map(|&(addr, _)| addr).collect();
    let mut backed: HashMap<(usize, usize), usize> = HashMap::new();
    for &addr in &have {
        if let Some((_, sb, w)) = slots.locate(addr) {
            *backed.entry((sb, w)).or_default() += 1;
        }
    }
    for (pc, instr) in ptp.program.iter().enumerate() {
        if instr.opcode != Opcode::Ldg {
            continue;
        }
        let Some(m) = instr.mem_ref() else { continue };
        if m.base.index() != slots.base_reg {
            continue;
        }
        let word = m.offset as usize / 4;
        let sb = word / slots.words_per_sb;
        let w = word % slots.words_per_sb;
        if sb >= slots.sb_count {
            out.push(Diagnostic::error(
                Rule::Relocation,
                pc,
                format!(
                    "slot load addresses SB {sb}, beyond the relocated layout of {} SB(s)",
                    slots.sb_count
                ),
            ));
            continue;
        }
        let missing = slots.threads - backed.get(&(sb, w)).copied().unwrap_or(0);
        if missing > 0 {
            out.push(Diagnostic::error(
                Rule::Relocation,
                pc,
                format!(
                    "slot load of SB {sb} word {w} has no backing data word for \
                     {missing}/{} thread(s)",
                    slots.threads
                ),
            ));
        }
    }
    out
}
