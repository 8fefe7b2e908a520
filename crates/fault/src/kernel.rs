//! The levelized SoA batch kernel: pattern-parallel fault simulation over
//! rank-major gate arrays, the engine's one simulation path.
//!
//! **Bit lanes are patterns.** A block is `W` consecutive 64-bit lane
//! words — `W = BLOCK_WORDS = 4` (256 patterns), autovectorizable as plain
//! `[u64; 4]` arithmetic, with `W = 1` as the remainder path for spans
//! that don't fill a wide block. The block width is a const generic that
//! only in-crate tests set to anything else.
//!
//! The 2D batching then looks like this:
//!
//! - **Pattern-parallel within a block.** The good machine is evaluated once
//!   per worker for the whole pattern span, rank by rank over the
//!   [`Levelization`] segments — each segment is one branch-free loop over
//!   gates of one kind, reading and writing a flat `net × word` span
//!   buffer.
//! - **Fault-parallel across 63-fault batches.** Workers take batches off
//!   one shared counter; within a batch each fault is evaluated alone: its
//!   faulty machine differs from the good one only where the fault's effect
//!   survives, so the kernel forces the fault's seed words (a
//!   [`SiteOverride`]: one site for stuck-at and transition faults, both
//!   endpoints for a bridge) and follows the difference.
//!
//! The general walk is the **difference frontier** ([`frontier`]) through
//! the levelization's rank buckets — a gate is (re)evaluated for a block
//! only if one of its inputs actually changed, and the frontier dies
//! wherever the faulty word equals the good word. Fanout-cone pruning is
//! implicit: the frontier is confined to the seeds' cones and is usually
//! far smaller. A bridge's two seeds walk it per fault.
//!
//! **Stem-shared propagation** (critical-path tracing inside fanout-free
//! regions) serves every one-seed fault. The region table
//! ([`Ctx::reader`]) gives each net its unique reader, or marks it a stem:
//! a module output, or a net whose pin reads are not exactly one. The
//! seed's diff walks the region's one path to the stem with one plain
//! gate evaluation per step ([`region_path`]). Only the stem leaves the
//! region, so past it the fault is a flip of the stem in the lanes of the
//! stem's diff, and bit lanes are independent: the fault is detected
//! where that diff meets the stem's observability. Each worker caches the
//! observability of its current stem lane by lane ([`Frontier::observed`])
//! and settles only lanes no earlier fault of the stem settled, with one
//! frontier walk of a stem flip in exactly those lanes. Targets are
//! sorted by stem before batching, so a region's faults meet one cache,
//! and the cache restarts at every batch, so the walks a batch takes do
//! not depend on which worker took it.
//!
//! Two screens keep per-fault work near zero for inert blocks: an
//! activation screen (a fault whose override equals the good value in
//! every lane of a block cannot change anything) and the walks themselves
//! (a pin fault whose effect is absorbed by the seed gate propagates
//! nowhere). Detection, activation, and per-pattern tallies are extracted
//! per pattern. Tallies are sums and each fault's first detection is a fact
//! about the fault, so neither depends on which worker ran which batch in
//! which order: reports are bit-identical to the serial oracle the tests
//! keep.
//!
//! Fault dropping maps naturally: a dropped fault simply stops after the
//! block containing its first detection. In drop mode the first `W` words
//! of each fault are probed as narrow blocks (most faults detect within
//! the first few dozen patterns; evaluating a full 256-lane block to find
//! a detection in lane 3 wastes the width) and only faults that survive
//! the probe graduate to wide blocks.
//!
//! Workers run one of two jobs over the same good machine, screens and
//! frontier, both through the same claim loop ([`claim`]).
//! [`run_batches_kernel`] is a per-instance run: tallies and first
//! detections. [`settle_batches`] is the pass over a lock-step union
//! (`lockstep.rs`): each fault carries the mask of instances still open,
//! a detecting union row settles the open instances that apply it, and,
//! when asked, every activating union row is credited to the open
//! instances that apply it, a whole word at a time. The frontier and the
//! stem cache are allocated on a worker's first propagation. Each worker
//! counts its work by cost center (`Work`) and flushes it into the
//! `fsim.kernel.*` counters once.

use std::cell::OnceCell;
use std::sync::atomic::Ordering;

use warpstl_netlist::{GateKind, Levelization};
use warpstl_obs::{names, Metrics, Obs, ObsExt, Span};

use warpstl_sync::AtomicUsize;

use crate::engine::{Ctx, WorkerOut, STEM};
use crate::{FaultId, SiteOverride};

/// The block width, in 64-bit words, of every public simulation entry
/// point: 256 patterns per wide block.
pub(crate) const BLOCK_WORDS: usize = 4;

/// The good machine over one pattern window: gate-major rows of `stride`
/// words, bit `t` of word `w` = pattern `p0 + 64·w + t`.
struct Window<'a, C> {
    good: &'a [u64],
    /// Valid-pattern masks: all-ones except the window's tail word.
    mask: &'a [u64],
    stride: usize,
    p0: usize,
    /// A net's good bit one pattern before the window (bit 0).
    carry_in: C,
}

impl<C: Fn(usize) -> u64> Window<'_, C> {
    /// The good word of `net` at `word`.
    #[inline]
    fn at(&self, net: usize, word: usize) -> u64 {
        self.good[net * self.stride + word]
    }

    /// The good word of `net` one pattern earlier: bit `t` holds pattern
    /// `t − 1`, carried across words and, through `carry_in`, windows.
    #[inline]
    fn prev(&self, net: usize, word: usize) -> u64 {
        let carry = if word == 0 {
            (self.carry_in)(net)
        } else {
            self.at(net, word - 1) >> 63
        };
        (self.at(net, word) << 1) | carry
    }
}

/// Evaluates one run of same-kind gates over the gate-major span buffer
/// (`row` words per net, block at word offset `base`). Operands are staged
/// through fixed-size arrays so each access is one bounds-checked slice
/// copy instead of `BW` indexed loads.
#[inline]
fn eval_run_strided<const BW: usize>(
    kind: GateKind,
    nodes: &[u32],
    pins: &[[u32; 3]],
    vals: &mut [u64],
    row: usize,
    base: usize,
) {
    macro_rules! unary {
        ($f:expr) => {
            for (k, &g) in nodes.iter().enumerate() {
                let mut a = [0u64; BW];
                a.copy_from_slice(&vals[pins[k][0] as usize * row + base..][..BW]);
                let o0 = g as usize * row + base;
                for (w, dst) in vals[o0..o0 + BW].iter_mut().enumerate() {
                    *dst = $f(a[w]);
                }
            }
        };
    }
    macro_rules! binary {
        ($f:expr) => {
            for (k, &g) in nodes.iter().enumerate() {
                let mut a = [0u64; BW];
                a.copy_from_slice(&vals[pins[k][0] as usize * row + base..][..BW]);
                let mut b = [0u64; BW];
                b.copy_from_slice(&vals[pins[k][1] as usize * row + base..][..BW]);
                let o0 = g as usize * row + base;
                for (w, dst) in vals[o0..o0 + BW].iter_mut().enumerate() {
                    *dst = $f(a[w], b[w]);
                }
            }
        };
    }
    match kind {
        GateKind::Buf => unary!(|a: u64| a),
        GateKind::Not => unary!(|a: u64| !a),
        GateKind::And => binary!(|a: u64, b: u64| a & b),
        GateKind::Or => binary!(|a: u64, b: u64| a | b),
        GateKind::Nand => binary!(|a: u64, b: u64| !(a & b)),
        GateKind::Nor => binary!(|a: u64, b: u64| !(a | b)),
        GateKind::Xor => binary!(|a: u64, b: u64| a ^ b),
        GateKind::Xnor => binary!(|a: u64, b: u64| !(a ^ b)),
        GateKind::Mux => {
            for (k, &g) in nodes.iter().enumerate() {
                let mut s = [0u64; BW];
                s.copy_from_slice(&vals[pins[k][0] as usize * row + base..][..BW]);
                let mut a = [0u64; BW];
                a.copy_from_slice(&vals[pins[k][1] as usize * row + base..][..BW]);
                let mut b = [0u64; BW];
                b.copy_from_slice(&vals[pins[k][2] as usize * row + base..][..BW]);
                let o0 = g as usize * row + base;
                for (w, dst) in vals[o0..o0 + BW].iter_mut().enumerate() {
                    *dst = (s[w] & a[w]) | (!s[w] & b[w]);
                }
            }
        }
        // Sources never appear in logic segments: the good pass handles
        // them explicitly, and DFFs never reach the kernel.
        GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {
            unreachable!("source/state kinds are not evaluated by segment runs")
        }
    }
}

/// Evaluates the good machine for one `BW`-word block of the span, writing
/// into the gate-major span buffer `good` (`stride` words per gate, block at
/// word offset `base`). Inputs come from the transposed pattern words.
fn good_block<const BW: usize>(
    levels: &Levelization,
    in_slot: &[u32],
    in_words: &[u64],
    good: &mut [u64],
    stride: usize,
    base: usize,
) {
    for seg in levels.segments() {
        let nodes = &levels.order()[seg.range()];
        match seg.kind {
            GateKind::Input => {
                for &g in nodes {
                    let o0 = g as usize * stride + base;
                    let slot = in_slot[g as usize];
                    if slot == u32::MAX {
                        // An input gate absent from the port map is never
                        // driven: it stays at 0.
                        good[o0..o0 + BW].fill(0);
                    } else {
                        let s0 = slot as usize * stride + base;
                        good[o0..o0 + BW].copy_from_slice(&in_words[s0..s0 + BW]);
                    }
                }
            }
            GateKind::Const0 | GateKind::Const1 => {
                let v = if seg.kind == GateKind::Const1 {
                    !0u64
                } else {
                    0
                };
                for &g in nodes {
                    let o0 = g as usize * stride + base;
                    good[o0..o0 + BW].fill(v);
                }
            }
            kind => {
                let pins = &levels.pins()[seg.range()];
                eval_run_strided::<BW>(kind, nodes, pins, good, stride, base);
            }
        }
    }
}

/// The good machine on pattern `t` alone: one word per net, bit 0 holding
/// the net's value.
fn good_at(ctx: &Ctx<'_>, in_slot: &[u32], t: usize) -> Vec<u64> {
    let in_words: Vec<u64> = (0..ctx.in_nets.len())
        .map(|bit_pos| u64::from(ctx.patterns.bit(t, bit_pos)))
        .collect();
    let mut good = vec![0u64; ctx.gates.len()];
    good_block::<1>(ctx.levels, in_slot, &in_words, &mut good, 1, 0);
    good
}

/// Adds 1 to `tally[t_base + bit]` for every set bit of `word`, and
/// returns how many bits that was.
#[inline]
fn tally_bits(mut word: u64, t_base: usize, tally: &mut [u32]) -> u64 {
    let bits = u64::from(word.count_ones());
    while word != 0 {
        let b = word.trailing_zeros() as usize;
        word &= word - 1;
        tally[t_base + b] += 1;
    }
    bits
}

/// Per-fault cross-block state.
struct FaultRun<F> {
    fid: FaultId,
    fault: F,
    /// Whether the fault's first detection in the window was found.
    detected: bool,
}

/// Reusable difference-frontier state, epoch-stamped so nothing is cleared
/// between walks or blocks, and the worker's stem-observability cache.
struct Frontier {
    /// Faulty words of perturbed nets, `BLOCK_WORDS` words per net
    /// (narrower blocks use the first words of a row).
    faulty: Vec<u64>,
    /// `stamp_val[net] == epoch` means `faulty` holds net's block words;
    /// otherwise the net carries the good value.
    stamp_val: Vec<u32>,
    /// Queue de-duplication stamp.
    stamp_queued: Vec<u32>,
    epoch: u32,
    /// One pending-gate bucket per levelization rank; gates are drained in
    /// ascending rank order, which is a valid evaluation order.
    buckets: Vec<Vec<u32>>,
    /// The stem the two masks below describe (`usize::MAX` before any).
    stem: usize,
    /// Per window word, the lanes whose observability of `stem` is
    /// settled.
    known: Vec<u64>,
    /// Per window word, the settled lanes where a flip of `stem` reaches a
    /// module output.
    observed: Vec<u64>,
}

impl Frontier {
    fn new(ctx: &Ctx<'_>, stride: usize) -> Frontier {
        let n = ctx.gates.len();
        Frontier {
            faulty: vec![0u64; n * BLOCK_WORDS],
            stamp_val: vec![0u32; n],
            stamp_queued: vec![0u32; n],
            epoch: 0,
            buckets: vec![Vec::new(); ctx.levels.ranks()],
            stem: usize::MAX,
            known: vec![0; stride],
            observed: vec![0; stride],
        }
    }

    /// Forgets the cached stem at a batch's start, so the stem walks a
    /// batch takes depend on its own faults alone, not on which batches
    /// its worker took before, and the kernel's counters repeat run to
    /// run.
    fn start_batch(fr: &mut Option<Frontier>) {
        if let Some(fr) = fr {
            fr.stem = usize::MAX;
        }
    }

    /// `d`, a diff of the non-output stem `stem` in the block at word
    /// `base`, masked to the lanes where a flip of the stem reaches a
    /// module output. Lanes an earlier fault of the stem settled are read
    /// back; the rest of `d`'s lanes are settled by one frontier walk of a
    /// stem flip in exactly those lanes, so a walk never costs more than
    /// the fault's own propagation past the stem. Observability is a fact
    /// of the good machine, so a settled lane holds for every fault of the
    /// stem; the masks restart whenever the stem changes.
    fn observed<C, const BW: usize>(
        &mut self,
        ctx: &Ctx<'_>,
        win: &Window<'_, C>,
        base: usize,
        stem: usize,
        d: [u64; BW],
        work: &mut Work,
    ) -> [u64; BW] {
        if stem != self.stem {
            self.stem = stem;
            self.known.fill(0);
            self.observed.fill(0);
        }
        let mut need = [0u64; BW];
        for w in 0..BW {
            need[w] = d[w] & !self.known[base + w];
        }
        if need != [0; BW] {
            work.stem_walks += 1;
            let seen = frontier(ctx, self, win, base, &[(stem, need)], &mut work.cone_gates);
            for w in 0..BW {
                self.known[base + w] |= need[w];
                self.observed[base + w] |= seen[w];
            }
        }
        let mut out = d;
        for (o, &seen) in out.iter_mut().zip(&self.observed[base..]) {
            *o &= seen;
        }
        out
    }
}

/// The seeds' diffs in the block at word `base`: the injected faulty word
/// against each seed's good word (the second is zero for a one-seed
/// fault), masked to the valid lanes so no walk chases garbage in a span's
/// tail bits.
fn seed_diffs<F: SiteOverride, C: Fn(usize) -> u64, const BW: usize>(
    ctx: &Ctx<'_>,
    fault: &F,
    win: &Window<'_, C>,
    base: usize,
) -> [[u64; BW]; 2] {
    let (s0, s1) = fault.seeds();
    let (mut d0, mut d1) = ([0u64; BW], [0u64; BW]);
    for (w, (d0, d1)) in d0.iter_mut().zip(&mut d1).enumerate() {
        let word = base + w;
        let at = |net: usize| win.at(net, word);
        let prev = |net: usize| win.prev(net, word);
        let faulty = fault.faulty_word(ctx.gates, at, prev);
        *d0 = (faulty ^ at(s0)) & win.mask[word];
        if let Some(s1) = s1 {
            *d1 = (faulty ^ at(s1)) & win.mask[word];
        }
    }
    [d0, d1]
}

/// Walks the difference frontier of `seeds` — each a net and its diff
/// words, confined to the window's valid lanes — through the block at
/// word `base`, returning the diff word(s) observed at the module outputs
/// and counting evaluated gates into `gate_evals`.
///
/// Every seed is forced to its good word flipped in its diff's lanes. Two
/// seeds never lie in each other's cone, so the rank walk starts after the
/// lower one and never revisits a seed.
fn frontier<C, const BW: usize>(
    ctx: &Ctx<'_>,
    fr: &mut Frontier,
    win: &Window<'_, C>,
    base: usize,
    seeds: &[(usize, [u64; BW])],
    gate_evals: &mut u64,
) -> [u64; BW] {
    let levels = ctx.levels;
    let (good, stride) = (win.good, win.stride);
    fr.epoch += 1;
    let epoch = fr.epoch;

    let mut d_acc = [0u64; BW];
    let store = |fr: &mut Frontier, net: usize, words: &[u64; BW]| {
        let at = net * BLOCK_WORDS;
        fr.faulty[at..at + BW].copy_from_slice(words);
        fr.stamp_val[net] = epoch;
    };
    let push = |fr: &mut Frontier, levels: &Levelization, max_rank: &mut usize, from: usize| {
        for &r in ctx.cones.successors(from) {
            let ri = r as usize;
            if fr.stamp_queued[ri] != epoch {
                fr.stamp_queued[ri] = epoch;
                let rank = levels.rank_of(ri) as usize;
                fr.buckets[rank].push(r);
                if rank > *max_rank {
                    *max_rank = rank;
                }
            }
        }
    };
    let mut rank = usize::MAX;
    let mut max_rank = 0usize;
    for &(seed, diff) in seeds {
        if diff == [0; BW] {
            // The seed absorbed the fault in every lane of this block
            // (possible for pin faults when another input is controlling).
            continue;
        }
        let g0 = seed * stride + base;
        let mut fw = [0u64; BW];
        for w in 0..BW {
            fw[w] = good[g0 + w] ^ diff[w];
        }
        store(fr, seed, &fw);
        if ctx.is_out[seed] {
            for w in 0..BW {
                d_acc[w] |= diff[w];
            }
        }
        rank = rank.min(levels.rank_of(seed) as usize + 1);
        push(fr, levels, &mut max_rank, seed);
    }

    while rank <= max_rank {
        if fr.buckets[rank].is_empty() {
            rank += 1;
            continue;
        }
        let mut bucket = std::mem::take(&mut fr.buckets[rank]);
        for &gi in &bucket {
            let gi = gi as usize;
            let gate = &ctx.gates[gi];
            // Operands: faulty where perturbed this epoch, good otherwise.
            let mut ops = [[0u64; BW]; 3];
            for (q, &p) in gate.inputs().iter().enumerate() {
                let pi = p.index();
                if fr.stamp_val[pi] == epoch {
                    let at = pi * BLOCK_WORDS;
                    ops[q].copy_from_slice(&fr.faulty[at..at + BW]);
                } else {
                    let g = pi * stride + base;
                    ops[q].copy_from_slice(&good[g..g + BW]);
                }
            }
            let o0 = gi * stride + base;
            let mut out = [0u64; BW];
            let mut changed = 0u64;
            for w in 0..BW {
                out[w] = gate.kind.eval(ops[0][w], ops[1][w], ops[2][w]);
                changed |= out[w] ^ good[o0 + w];
            }
            *gate_evals += 1;
            if changed != 0 {
                store(fr, gi, &out);
                if ctx.is_out[gi] {
                    for w in 0..BW {
                        d_acc[w] |= out[w] ^ good[o0 + w];
                    }
                }
                push(fr, levels, &mut max_rank, gi);
            }
        }
        bucket.clear();
        fr.buckets[rank] = bucket;
        rank += 1;
    }
    d_acc
}

/// Walks the diff `d` of net `net` down its fanout-free region's unique
/// path: every net on it but the stem has one reader, which reads it on
/// one pin and reads nothing else the fault can perturb, so one plain
/// gate evaluation per step gives the reader's diff. Returns where the
/// walk stopped with that net's diff: the region's stem, or the net where
/// the diff died (then all zero). Counts evaluated gates into
/// `gate_evals`.
fn region_path<C, const BW: usize>(
    ctx: &Ctx<'_>,
    win: &Window<'_, C>,
    base: usize,
    mut net: usize,
    mut d: [u64; BW],
    gate_evals: &mut u64,
) -> (usize, [u64; BW]) {
    let (good, stride) = (win.good, win.stride);
    while d != [0; BW] && ctx.reader[net] != STEM {
        let r = ctx.reader[net] as usize;
        let gate = &ctx.gates[r];
        let mut ops = [[0u64; BW]; 3];
        for (q, &p) in gate.inputs().iter().enumerate() {
            let g = p.index() * stride + base;
            ops[q].copy_from_slice(&good[g..g + BW]);
            if p.index() == net {
                for w in 0..BW {
                    ops[q][w] ^= d[w];
                }
            }
        }
        let o0 = r * stride + base;
        for w in 0..BW {
            d[w] = gate.kind.eval(ops[0][w], ops[1][w], ops[2][w]) ^ good[o0 + w];
        }
        *gate_evals += 1;
        net = r;
    }
    (net, d)
}

/// The detect word(s) of `fault` in the block at word `base`, confined to
/// the window's valid lanes. A bridge's two seeds walk one frontier. A
/// one-seed fault walks its region's path ([`region_path`]) and leaves the
/// region only as a flip of the stem in the lanes of the stem's diff; bit
/// lanes are independent, so it is detected exactly where that diff meets
/// the stem's observability ([`Frontier::observed`]), or wherever the stem
/// differs when the stem is a module output.
fn detect<F: SiteOverride, C: Fn(usize) -> u64, const BW: usize>(
    ctx: &Ctx<'_>,
    fr: &mut Frontier,
    fault: &F,
    win: &Window<'_, C>,
    base: usize,
    work: &mut Work,
) -> [u64; BW] {
    let [d0, d1] = seed_diffs::<F, C, BW>(ctx, fault, win, base);
    let (s0, s1) = fault.seeds();
    if let Some(s1) = s1 {
        return frontier(
            ctx,
            fr,
            win,
            base,
            &[(s0, d0), (s1, d1)],
            &mut work.cone_gates,
        );
    }
    let (stem, d) = region_path(ctx, win, base, s0, d0, &mut work.cone_gates);
    if d == [0; BW] || ctx.is_out[stem] {
        return d;
    }
    fr.observed(ctx, win, base, stem, d, work)
}

/// Folds one evaluated block into the window's tallies and first
/// detections: activation is counted per pattern up to and including a
/// dropped fault's detecting pattern; the `detected` tally counts only the
/// first observation in drop mode, every observation otherwise, and each
/// fault's first detection in the window is recorded. Both `d` and `a`
/// arrive masked to the window's valid lanes; tallies are indexed from the
/// window's first pattern `p0`. Returns the bits the tallies added.
fn absorb_block<F, const BW: usize>(
    d: [u64; BW],
    mut a: [u64; BW],
    run: &mut FaultRun<F>,
    base: usize,
    p0: usize,
    drop: bool,
    out: &mut WorkerOut,
) -> u64 {
    let first = d.iter().position(|&dw| dw != 0);
    let mut tallied = 0;
    if drop {
        if let Some(hw) = first {
            let hb = d[hw].trailing_zeros();
            let k = (base + hw) * 64 + hb as usize;
            // The fault is skipped from the pattern after its detection on:
            // clip activation to bits <= the detecting pattern.
            for aw in a.iter_mut().skip(hw + 1) {
                *aw = 0;
            }
            a[hw] &= if hb == 63 { !0 } else { (1u64 << (hb + 1)) - 1 };
            run.detected = true;
            out.detections.push((run.fid, p0 + k));
            out.detected[k] += 1;
            tallied += 1;
        }
        for (w, &aw) in a.iter().enumerate() {
            tallied += tally_bits(aw, (base + w) * 64, &mut out.activated);
        }
    } else {
        for w in 0..BW {
            let t_base = (base + w) * 64;
            tallied += tally_bits(a[w], t_base, &mut out.activated);
            tallied += tally_bits(d[w], t_base, &mut out.detected);
        }
        if let Some(w) = first.filter(|_| !run.detected) {
            run.detected = true;
            let t = p0 + (base + w) * 64 + d[w].trailing_zeros() as usize;
            out.detections.push((run.fid, t));
        }
    }
    tallied
}

/// A worker's kernel work by cost center, flushed into its metrics once.
#[derive(Default)]
struct Work {
    /// Good-machine gate-word evaluations.
    good_words: u64,
    /// (fault, block) activation screens.
    screened_blocks: u64,
    /// (fault, block) pairs that passed the screen and were propagated.
    fault_blocks: u64,
    /// Gate evaluations of propagation: region-path gates plus
    /// frontier-walk gates.
    cone_gates: u64,
    /// Frontier walks of stem flips ([`Frontier::observed`]).
    stem_walks: u64,
    /// Bits the tallies and union credits added.
    tallied_bits: u64,
}

/// Screens and evaluates one block for one fault: `None` when the override
/// equals the good machine in every lane of the block (the faulty machine
/// is identical there: no detection, no activation), else the detect and
/// activation words, both confined to the window's valid lanes. The
/// frontier is built on the first propagation, so a worker whose faults
/// never pass the screen never allocates it.
fn eval_block<F: SiteOverride, C: Fn(usize) -> u64, const BW: usize>(
    ctx: &Ctx<'_>,
    fr: &mut Option<Frontier>,
    fault: &F,
    win: &Window<'_, C>,
    base: usize,
    work: &mut Work,
) -> Option<([u64; BW], [u64; BW])> {
    work.screened_blocks += 1;
    let mut a = [0u64; BW];
    let mut any = 0u64;
    for (w, aw) in a.iter_mut().enumerate() {
        let word = base + w;
        let at = |net: usize| win.at(net, word);
        let prev = |net: usize| win.prev(net, word);
        *aw = fault.activation(ctx.gates, at, prev) & win.mask[word];
        any |= *aw;
    }
    if any == 0 {
        return None;
    }
    work.fault_blocks += 1;
    let fr = fr.get_or_insert_with(|| Frontier::new(ctx, win.stride));
    let d = detect::<F, C, BW>(ctx, fr, fault, win, base, work);
    Some((d, a))
}

/// Runs one block for one fault of a per-instance run: [`eval_block`],
/// then the tally/detection fold.
#[allow(clippy::too_many_arguments)]
fn fault_block<F: SiteOverride, C: Fn(usize) -> u64, const BW: usize>(
    ctx: &Ctx<'_>,
    fr: &mut Option<Frontier>,
    run: &mut FaultRun<F>,
    win: &Window<'_, C>,
    base: usize,
    drop: bool,
    out: &mut WorkerOut,
    work: &mut Work,
) {
    if let Some((d, a)) = eval_block::<F, C, BW>(ctx, fr, &run.fault, win, base, work) {
        work.tallied_bits += absorb_block::<F, BW>(d, a, run, base, win.p0, drop, out);
    }
}

/// Walks one fault's blocks across a `stride`-word window in order,
/// calling `block(base, wide)` until it reports the fault finished. With
/// `probe` (drop mode) the first `W` words run as narrow blocks — most
/// faults detect within the first few dozen patterns, so evaluating a full
/// 256-lane block to find a detection in lane 3 wastes the width — and
/// survivors use full-width blocks where aligned. Spans that don't fill a
/// wide block fall through to the 64-bit remainder path.
fn walk_blocks<const W: usize>(
    stride: usize,
    probe: bool,
    mut block: impl FnMut(usize, bool) -> bool,
) {
    let mut base = 0usize;
    while base < stride {
        let wide = base.is_multiple_of(W) && base + W <= stride && !(probe && base < W);
        if block(base, wide) {
            return;
        }
        base += if wide { W } else { 1 };
    }
}

/// A worker's good machine over its pattern window, evaluated once for
/// every fault of its batches.
struct GoodSpan {
    /// Gate-major rows of `stride` words.
    good: Vec<u64>,
    /// Valid-pattern masks: all-ones except the window's tail word.
    mask: Vec<u64>,
    stride: usize,
    /// Input slot of each input gate (`u32::MAX` for undriven ones).
    in_slot: Vec<u32>,
    /// Good-machine blocks evaluated (wide plus remainder).
    blocks: usize,
}

impl GoodSpan {
    /// Transposes the window's patterns into one `stride`-word row per
    /// input bit, then evaluates the good machine in `W`-word blocks and
    /// 64-bit remainders.
    fn evaluate<const W: usize>(ctx: &Ctx<'_>, (p0, p1): (usize, usize)) -> GoodSpan {
        let n_gates = ctx.gates.len();
        let span = p1 - p0;
        let stride = span.div_ceil(64);
        let mut mask = vec![!0u64; stride];
        if span % 64 != 0 {
            mask[stride - 1] = (1u64 << (span % 64)) - 1;
        }
        let mut in_words = vec![0u64; ctx.in_nets.len() * stride];
        for bit_pos in 0..ctx.in_nets.len() {
            let row = &mut in_words[bit_pos * stride..][..stride];
            for t in 0..span {
                if ctx.patterns.bit(p0 + t, bit_pos) {
                    row[t >> 6] |= 1u64 << (t & 63);
                }
            }
        }
        let mut in_slot = vec![u32::MAX; n_gates];
        for (i, &net) in ctx.in_nets.iter().enumerate() {
            in_slot[net] = i as u32;
        }
        let mut good = vec![0u64; n_gates * stride];
        let wide_end = stride - stride % W;
        let mut base = 0usize;
        while base < wide_end {
            good_block::<W>(ctx.levels, &in_slot, &in_words, &mut good, stride, base);
            base += W;
        }
        while base < stride {
            good_block::<1>(ctx.levels, &in_slot, &in_words, &mut good, stride, base);
            base += 1;
        }
        GoodSpan {
            good,
            mask,
            stride,
            in_slot,
            blocks: (wide_end / W) + (stride - wide_end),
        }
    }

    /// The good-machine gate-word evaluations behind this span: every gate
    /// once per word, plus the pattern before the window when `before`
    /// holds it.
    fn good_words(&self, before: &OnceCell<Vec<u64>>) -> u64 {
        (self.good.len() + before.get().map_or(0, Vec::len)) as u64
    }

    /// The window over this span starting at pattern `p0`. `prev`'s carry
    /// into its first word: a stream's first pattern is its own
    /// predecessor, so it never launches a transition; a later window (a
    /// repacking segment) reads pattern p0 − 1, evaluated into `before` on
    /// first use because only transition faults read `prev`.
    fn window<'s>(
        &'s self,
        ctx: &'s Ctx<'s>,
        p0: usize,
        before: &'s OnceCell<Vec<u64>>,
    ) -> Window<'s, impl Fn(usize) -> u64 + 's> {
        Window {
            good: &self.good,
            mask: &self.mask,
            stride: self.stride,
            p0,
            carry_in: move |net: usize| {
                if p0 == 0 {
                    self.good[net * self.stride] & 1
                } else {
                    before.get_or_init(|| good_at(ctx, &self.in_slot, p0 - 1))[net] & 1
                }
            },
        }
    }
}

/// One worker's set-up shared by both jobs: its `fsim.worker` span, and
/// the good machine over `pat_range` under an `fsim.kernel` span. `None`
/// when there is nothing to evaluate.
fn start_worker<'o, const W: usize>(
    ctx: &Ctx<'_>,
    obs: Obs<'o>,
    pat_range: (usize, usize),
    local: &mut Metrics,
) -> (Span<'o>, Option<(Span<'o>, GoodSpan)>) {
    let worker_span = obs.span("fsim", names::FSIM_WORKER);
    if pat_range.1 == pat_range.0 || ctx.gates.is_empty() {
        return (worker_span, None);
    }
    let mut kernel_span = obs.span("fsim", names::FSIM_KERNEL);
    let gs = GoodSpan::evaluate::<W>(ctx, pat_range);
    if obs.enabled() {
        kernel_span.arg("width", W * 64);
        kernel_span.arg("blocks", gs.blocks);
        kernel_span.arg("rank_count", ctx.levels.ranks());
        local.add(names::FSIM_KERNEL_BLOCKS, gs.blocks as u64);
    }
    (worker_span, Some((kernel_span, gs)))
}

/// The claim loop every worker runs: takes batches off `batches` by the
/// shared counter `next` until none is left, calling `job` on each, and
/// returns how many it took. The batches balance dynamically, and which
/// worker takes which batch is unobservable: tallies are sums, and first
/// detections and settlements are facts about faults.
fn claim<T>(batches: &[T], next: &AtomicUsize, mut job: impl FnMut(&T)) -> usize {
    let mut taken = 0;
    // Relaxed: the counter only hands out indices; the batches were
    // written before the workers started.
    while let Some(batch) = batches.get(next.fetch_add(1, Ordering::Relaxed)) {
        job(batch);
        taken += 1;
    }
    taken
}

/// Flushes a worker's batch count, kernel work and local metrics into
/// `obs`.
fn finish_worker(obs: Obs<'_>, span: &mut Span<'_>, mut local: Metrics, taken: usize, work: &Work) {
    if let Some(rec) = obs {
        span.arg("batches", taken);
        local.add(names::FSIM_BATCHES, taken as u64);
        local.add(names::FSIM_KERNEL_GOOD_WORDS, work.good_words);
        local.add(names::FSIM_KERNEL_SCREENED_BLOCKS, work.screened_blocks);
        local.add(names::FSIM_KERNEL_FAULT_BLOCKS, work.fault_blocks);
        local.add(names::FSIM_KERNEL_CONE_GATES, work.cone_gates);
        local.add(names::FSIM_KERNEL_STEM_WALKS, work.stem_walks);
        local.add(names::FSIM_KERNEL_TALLIED_BITS, work.tallied_bits);
        rec.merge_metrics(&local);
        rec.record(names::FSIM_BATCHES_PER_WORKER, taken as f64);
    }
}

/// One worker's job in a per-instance run: takes batches off `batches` by
/// the shared counter `next` (see [`claim`]), simulates their faults over
/// the pattern window `pat_range`, and returns their first detections and
/// the window's exact per-pattern tallies. `W` is the block width in words
/// (see [`walk_blocks`]).
pub(crate) fn run_batches_kernel<F: SiteOverride, const W: usize>(
    ctx: &Ctx<'_>,
    batches: &[Vec<(FaultId, F)>],
    next: &AtomicUsize,
    obs: Obs<'_>,
    pat_range: (usize, usize),
) -> WorkerOut {
    const { assert!(W <= BLOCK_WORDS, "frontier rows hold BLOCK_WORDS words") };
    let span = pat_range.1 - pat_range.0;
    let mut out = WorkerOut {
        detections: Vec::new(),
        activated: vec![0u32; span],
        detected: vec![0u32; span],
    };
    let mut local = Metrics::default();
    let (mut worker_span, started) = start_worker::<W>(ctx, obs, pat_range, &mut local);
    let Some((_kernel_span, gs)) = started else {
        return out;
    };
    let before = OnceCell::new();
    let win = gs.window(ctx, pat_range.0, &before);
    let drop = ctx.config.drop_detected;
    let mut fr = None;
    let mut work = Work::default();

    let taken = claim(batches, next, |batch| {
        Frontier::start_batch(&mut fr);
        for &(fid, fault) in batch {
            let mut run = FaultRun {
                fid,
                fault,
                detected: false,
            };
            walk_blocks::<W>(gs.stride, drop, |base, wide| {
                if wide {
                    fault_block::<F, _, W>(
                        ctx, &mut fr, &mut run, &win, base, drop, &mut out, &mut work,
                    );
                } else {
                    fault_block::<F, _, 1>(
                        ctx, &mut fr, &mut run, &win, base, drop, &mut out, &mut work,
                    );
                }
                drop && run.detected
            });
        }
    });
    work.good_words = gs.good_words(&before);
    finish_worker(obs, &mut worker_span, local, taken, &work);
    out
}

/// One settlement: the instances (a bit mask) whose first detection of
/// the fault is at pattern position `t`.
pub(crate) type Settlement = (FaultId, u64, usize);

/// Where a union pass credits activation (see [`settle_batches`]).
pub(crate) struct Lanes {
    /// Every member of the union, bit `j` for member `j`.
    pub(crate) members: u64,
    /// Per member, the U-rows it applies in the window: bit `k % 64` of
    /// word `k / 64` for the window's `k`-th U-row.
    pub(crate) maps: Vec<Vec<u64>>,
}

/// One worker's activation credit over a window of a union pass, indexed
/// by the window's U-rows. Tallies are sums, so merging credits across
/// workers and windows is order-free.
#[derive(Default)]
pub(crate) struct Credit {
    /// Activations of faults open on every member: each counts once for
    /// every instance applying the U-row.
    pub(crate) shared: Vec<u32>,
    /// Per member, activations credited to it alone; empty until first
    /// use.
    pub(crate) lanes: Vec<Vec<u32>>,
}

impl Credit {
    /// Credits the activating U-rows `bits` (the word at window-relative
    /// row `k0`) to the `open` members that apply them: whole words, into
    /// the shared counter when every member is open, else masked by each
    /// open member's lane. Returns the bits the credit added.
    #[inline]
    fn add(&mut self, bits: u64, open: u64, k0: usize, lanes: &Lanes) -> u64 {
        if bits == 0 {
            return 0;
        }
        if open == lanes.members {
            return tally_bits(bits, k0, &mut self.shared);
        }
        let mut tallied = 0;
        let mut rest = open;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let mine = bits & lanes.maps[i][k0 / 64];
            if mine != 0 {
                let counts = &mut self.lanes[i];
                if counts.is_empty() {
                    counts.resize(self.shared.len(), 0);
                }
                tallied += tally_bits(mine, k0, counts);
            }
        }
        tallied
    }
}

/// One worker's job in a lock-step union pass (`ctx.patterns` holds the
/// union rows U, each stamped with its pattern position): takes batches
/// off `batches` by the shared counter `next` (see [`claim`]), and walks
/// each fault over the window `pat_range` of U in drop-mode block order
/// with its `open` instance mask. At each detecting U-row `u`, in
/// ascending order, the open instances among `users[u]` settle at U-row
/// `u`'s position and leave the mask; the fault stops when none is left
/// open.
///
/// With `lanes`, each activating U-row is also credited to the open
/// instances applying it, and a detecting U-row is credited before its
/// settled instances leave the mask: a per-instance drop-mode run counts
/// a fault's activation at every pattern up to and including its first
/// detection, so each instance gets exactly its own run's tallies.
#[allow(clippy::too_many_arguments)]
pub(crate) fn settle_batches<F: SiteOverride, const W: usize>(
    ctx: &Ctx<'_>,
    users: &[u64],
    lanes: Option<&Lanes>,
    batches: &[Vec<(FaultId, F, u64)>],
    next: &AtomicUsize,
    obs: Obs<'_>,
    pat_range: (usize, usize),
) -> (Vec<Settlement>, Credit) {
    const { assert!(W <= BLOCK_WORDS, "frontier rows hold BLOCK_WORDS words") };
    let mut settled = Vec::new();
    let mut credit = Credit::default();
    if let Some(lanes) = lanes {
        credit.shared = vec![0; pat_range.1 - pat_range.0];
        credit.lanes = vec![Vec::new(); lanes.maps.len()];
    }
    let mut local = Metrics::default();
    let (mut worker_span, started) = start_worker::<W>(ctx, obs, pat_range, &mut local);
    let Some((_kernel_span, gs)) = started else {
        return (settled, credit);
    };
    let before = OnceCell::new();
    let win = gs.window(ctx, pat_range.0, &before);
    let mut fr = None;
    let mut work = Work::default();

    let mut tallied = 0;
    let mut fold = |d: &[u64], a: &[u64], base: usize, fid: FaultId, open: &mut u64| {
        for (w, (&dw, &aw)) in d.iter().zip(a).enumerate() {
            let k0 = (base + w) * 64;
            let (mut dw, mut aw) = (dw, aw);
            while *open != 0 {
                // The activations up to and including the next detecting
                // row are credited under the mask that row settles from.
                let upto = if dw == 0 {
                    !0
                } else {
                    u64::MAX >> (63 - dw.trailing_zeros())
                };
                if let Some(lanes) = lanes {
                    tallied += credit.add(aw & upto, *open, k0, lanes);
                }
                aw &= !upto;
                if dw == 0 {
                    break;
                }
                let u = win.p0 + k0 + dw.trailing_zeros() as usize;
                dw &= dw - 1;
                let hits = *open & users[u];
                if hits != 0 {
                    settled.push((fid, hits, ctx.patterns.cc(u) as usize));
                    *open &= !hits;
                }
            }
        }
    };
    let taken = claim(batches, next, |batch| {
        Frontier::start_batch(&mut fr);
        for &(fid, fault, mut open) in batch {
            walk_blocks::<W>(gs.stride, true, |base, wide| {
                if wide {
                    if let Some((d, a)) =
                        eval_block::<F, _, W>(ctx, &mut fr, &fault, &win, base, &mut work)
                    {
                        fold(&d, &a, base, fid, &mut open);
                    }
                } else if let Some((d, a)) =
                    eval_block::<F, _, 1>(ctx, &mut fr, &fault, &win, base, &mut work)
                {
                    fold(&d, &a, base, fid, &mut open);
                }
                open == 0
            });
        }
    });
    work.good_words = gs.good_words(&before);
    work.tallied_bits = tallied;
    finish_worker(obs, &mut worker_span, local, taken, &work);
    (settled, credit)
}

#[cfg(test)]
mod tests {
    //! The block-width axis: whole streams at `W = 1` (every block on the
    //! 64-bit remainder path) and `W = BLOCK_WORDS` give identical reports
    //! and list states for every fault model, in drop and non-drop mode,
    //! over pattern counts that hit every block shape and up to three
    //! windows. And the stem-shared oracle: at both widths, every one-seed
    //! fault's detect word in every block is `==` a plain frontier walk
    //! from its own seed diff. The netlists stay tiny so the suite runs
    //! under Miri.

    use std::cell::OnceCell;
    use std::fmt::Display;

    use warpstl_netlist::{Builder, Netlist, PatternSeq};

    use super::{
        detect, frontier, seed_diffs, walk_blocks, Frontier, GoodSpan, Window, Work, BLOCK_WORDS,
    };
    use crate::engine::{simulate_guided, windows, Ctx, Layout};
    use crate::tdf::TdfList;
    use crate::{
        BridgeConfig, BridgeUniverse, FaultList, FaultSimConfig, FaultSimReport, FaultUniverse,
        SimGuide, SiteOverride,
    };

    /// Narrow-only spans, a one-word tail, exact wide blocks, and wide
    /// blocks with a remainder and a masked tail word.
    const SHAPES: [usize; 7] = [1, 63, 64, 65, 100, 256, 320];

    fn netlist() -> Netlist {
        let mut b = Builder::new("kernel-widths");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let w = b.input("w");
        let a = b.and(x, y);
        let o = b.or(a, z);
        let m = b.mux(w, o, x);
        let n = b.not(y);
        let q = b.xor(m, n);
        let r = b.nand(z, w);
        b.output("q", q);
        b.output("r", r);
        b.output("o", o);
        b.finish()
    }

    /// The region table's edge cases: a fanout-free chain through an
    /// output that exactly one later gate reads, a gate reading one net on
    /// two pins, and a dead-end gate.
    fn regions() -> Netlist {
        let mut b = Builder::new("kernel-regions");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let a = b.and(x, y);
        let c = b.or(a, z);
        let d = b.not(c);
        let e = b.and(d, d);
        let f = b.nand(e, x);
        let g = b.xor(f, y);
        b.nor(g, z);
        b.output("c", c);
        b.output("g", g);
        b.finish()
    }

    fn patterns(width: usize, count: usize) -> PatternSeq {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ count as u64;
        let mut p = PatternSeq::new(width);
        for cc in 0..count as u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            p.push_value(cc, state);
        }
        p
    }

    fn run<F: SiteOverride + Display, const W: usize>(
        netlist: &Netlist,
        p: &PatternSeq,
        mut list: FaultList<F>,
        cfg: &FaultSimConfig,
    ) -> (FaultSimReport, String) {
        let guide = SimGuide::default();
        let report = simulate_guided::<F, W>(netlist, p, &mut list, cfg, None, &guide);
        (report, list.to_report_text())
    }

    fn assert_widths_agree<F: SiteOverride + Display>(fresh: impl Fn(&Netlist) -> FaultList<F>) {
        let n = netlist();
        assert!(!fresh(&n).is_empty());
        for n_pat in SHAPES {
            let p = patterns(n.inputs().width(), n_pat);
            for drop_detected in [true, false] {
                let cfg = FaultSimConfig {
                    drop_detected,
                    threads: 1,
                };
                assert_eq!(
                    run::<F, 1>(&n, &p, fresh(&n), &cfg),
                    run::<F, BLOCK_WORDS>(&n, &p, fresh(&n), &cfg),
                    "{n_pat} patterns, drop={drop_detected}"
                );
            }
        }
    }

    /// Asserts, for every fault of `list` and every block of every window
    /// over every [`SHAPES`] stream at width `W`, that the stem-shared
    /// detect word `==` a plain frontier walk from the fault's own seed
    /// diff. Faults run in the engine's (stem, id) order, so later faults
    /// of a stem read lanes earlier ones settled. Returns the stem walks.
    fn assert_stem_shared_is_exact<F: SiteOverride, const W: usize>(
        n: &Netlist,
        list: &FaultList<F>,
    ) -> u64 {
        let layout = Layout::of(n, &SimGuide::default());
        let mut ids: Vec<usize> = (0..list.len()).collect();
        layout.sort_by_stem(&mut ids, list);
        let mut work = Work::default();
        for n_pat in SHAPES {
            let p = patterns(n.inputs().width(), n_pat);
            let ctx = layout.ctx(n, &p, &FaultSimConfig::default());
            for range in windows(n_pat, usize::MAX) {
                let gs = GoodSpan::evaluate::<W>(&ctx, range);
                let before = OnceCell::new();
                let win = gs.window(&ctx, range.0, &before);
                let mut shared = Frontier::new(&ctx, gs.stride);
                let mut plain = Frontier::new(&ctx, gs.stride);
                for &id in &ids {
                    let f = list.fault(id);
                    walk_blocks::<W>(gs.stride, false, |base, wide| {
                        let (sh, pl) = (&mut shared, &mut plain);
                        if wide {
                            assert_block::<F, _, W>(&ctx, sh, pl, &win, base, &f, &mut work);
                        } else {
                            assert_block::<F, _, 1>(&ctx, sh, pl, &win, base, &f, &mut work);
                        }
                        false
                    });
                }
            }
        }
        work.stem_walks
    }

    /// One block of [`assert_stem_shared_is_exact`]: `shared` carries the
    /// stem cache across faults, `plain` only walks.
    fn assert_block<F: SiteOverride, C: Fn(usize) -> u64, const BW: usize>(
        ctx: &Ctx<'_>,
        shared: &mut Frontier,
        plain: &mut Frontier,
        win: &Window<'_, C>,
        base: usize,
        f: &F,
        work: &mut Work,
    ) {
        let [d0, _] = seed_diffs::<F, C, BW>(ctx, f, win, base);
        let want = frontier(ctx, plain, win, base, &[(f.seeds().0, d0)], &mut 0);
        let got = detect::<F, C, BW>(ctx, shared, f, win, base, work);
        assert_eq!(got, want, "window at {}, word {base}", win.p0);
    }

    #[test]
    fn stem_shared_detect_words_equal_per_fault_frontiers() {
        for n in [netlist(), regions()] {
            let stuck = FaultList::new(&FaultUniverse::enumerate(&n));
            let tdf = TdfList::enumerate(&n);
            assert!(assert_stem_shared_is_exact::<_, 1>(&n, &stuck) > 0);
            assert!(assert_stem_shared_is_exact::<_, BLOCK_WORDS>(&n, &stuck) > 0);
            assert!(assert_stem_shared_is_exact::<_, 1>(&n, &tdf) > 0);
            assert!(assert_stem_shared_is_exact::<_, BLOCK_WORDS>(&n, &tdf) > 0);
        }
    }

    #[test]
    fn stuck_at_is_identical_at_every_block_width() {
        assert_widths_agree(|n| FaultList::new(&FaultUniverse::enumerate(n)));
    }

    #[test]
    fn bridging_is_identical_at_every_block_width() {
        assert_widths_agree(|n| BridgeUniverse::sample(n, &BridgeConfig::default()).new_list());
    }

    #[test]
    fn transition_faults_are_identical_at_every_block_width() {
        assert_widths_agree(TdfList::enumerate);
    }
}
