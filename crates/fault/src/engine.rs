//! The parallel fault-simulation engine: batch-level threading over the
//! levelized kernel.
//!
//! [`fault_simulate`](crate::fault_simulate) partitions its target faults
//! into 63-fault batches. The batches are *fully independent*: the target
//! snapshot is taken once per run, every fault belongs to exactly one
//! batch, and the [`FaultList`] is only written after all batches finish.
//! Batches are split into contiguous ranges and fanned out over a scoped
//! worker pool (`std::thread::scope`; worker count from
//! [`FaultSimConfig::threads`](crate::FaultSimConfig::threads), the
//! `WARPSTL_THREADS` environment variable, or the machine's available
//! parallelism). Each worker runs the levelized kernel (`kernel.rs`) over
//! its range into private buffers, which are merged in global batch order
//! afterwards, so the resulting [`FaultSimReport`] is **bit-identical** for
//! every worker count: detections replay batch-major in serial
//! `(pattern, lane)` order, and per-pattern tallies are exact integer sums,
//! which are order-independent.
//!
//! The kernel carries no flip-flop state across patterns, so the engine
//! runs combinational netlists only; every bundled module is one.
//!
//! A module's instances run through `lockstep.rs`, which fans them out
//! over this engine and may first settle every first detection in one
//! lock-step union pass; the runs then read their stamps (`Ctx::stamps`).

use std::borrow::Cow;

use warpstl_netlist::{FanoutCones, Gate, Levelization, Netlist, PatternSeq};
use warpstl_obs::{names, Obs, ObsExt};

use crate::kernel::{run_batches_kernel, Stamp};
use crate::{
    FaultId, FaultList, FaultSimConfig, FaultSimReport, FaultStatus, SimGuide, SiteOverride,
};

/// The host's available parallelism, queried **once per process** and
/// cached. The engine resolves its worker budget on every invocation, and a
/// long-running daemon resolves it once per job on top of that — re-querying
/// the OS each time is wasted syscall traffic and, worse, lets two layers
/// (a serve worker pool and the engine inside each worker) disagree about
/// the budget mid-flight. One cached value means every layer divides the
/// same number.
#[must_use]
pub fn host_parallelism() -> usize {
    static HOST: warpstl_sync::OnceLock<usize> = warpstl_sync::OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolves the worker count: explicit config, then `WARPSTL_THREADS`, then
/// the machine's available parallelism — always clamped to the host's
/// available parallelism (resolved once per process, see
/// [`host_parallelism`]). Oversubscribing OS threads on a smaller host only
/// adds scheduling overhead (up to 20 % on a 1-core host in `BENCH_fsim`),
/// and the engine's results are bit-identical for every worker count, so
/// capping is safe.
pub(crate) fn resolve_threads(config: &FaultSimConfig) -> usize {
    let host = host_parallelism();
    if config.threads > 0 {
        return config.threads.min(host);
    }
    // An invalid WARPSTL_THREADS warns once per process (the engine is
    // called in loops) via the shared helper, then falls back to auto.
    warpstl_sync::env::parsed_var(
        "WARPSTL_THREADS",
        "a positive integer",
        "available parallelism",
        |s| s.trim().parse::<usize>().ok().filter(|n| *n > 0),
    )
    .map_or(host, |n| n.min(host))
}

/// Read-only state shared by every worker.
pub(crate) struct Ctx<'a> {
    pub(crate) gates: &'a [Gate],
    pub(crate) patterns: &'a PatternSeq,
    pub(crate) cones: &'a FanoutCones,
    pub(crate) in_nets: &'a [usize],
    pub(crate) out_nets: &'a [usize],
    pub(crate) config: FaultSimConfig,
    /// Rank-major netlist layout (borrowed from the guide or levelized per
    /// run).
    pub(crate) levels: &'a Levelization,
    /// Settled first detections on this stream, indexed by [`FaultId`]
    /// (a stamped run of a lock-step union, see `lockstep.rs`): a settled
    /// fault's blocks read their detect word from its stamp instead of
    /// propagating. `None` propagates every fault.
    pub(crate) stamps: Option<&'a [Stamp]>,
}

/// What one worker hands back: per-batch detection logs (in the worker's
/// batch order) plus per-pattern tallies summed over its batches.
pub(crate) struct WorkerOut {
    pub(crate) detections: Vec<Vec<(FaultId, u64, usize)>>,
    pub(crate) activated: Vec<u32>,
    pub(crate) detected: Vec<u32>,
}

/// Runs `job(w)` for every worker `w` in `0..workers` and returns the
/// outputs in worker order. One worker runs inline on the caller's thread
/// (spawning an OS thread for a single worker only costs: the
/// threads=8-on-1-core regression of BENCH_fsim); more run on a scoped
/// pool.
pub(crate) fn fan_out<R: Send>(workers: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if workers <= 1 {
        return vec![job(0)];
    }
    let job = &job;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || job(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a fault-simulation worker panicked"))
            .collect()
    })
}

/// Runs one explicit target list through the worker pool: plans batches,
/// fans them out, and merges detections into `list`/`report` and
/// per-pattern tallies into the caller's accumulators. Guided runs call
/// this several times (direct targets, residual dominators, and once per
/// repacking segment), so per-pattern stats are accumulated here and
/// turned into `record_pattern` rows exactly once by the caller.
/// `pat_range` is the half-open pattern window to simulate — `(0, n_pat)`
/// for a monolithic run — and `W` the kernel's block width in words.
#[allow(clippy::too_many_arguments)]
fn run_target_list<F: SiteOverride, const W: usize>(
    ctx: &Ctx<'_>,
    targets: &[FaultId],
    list: &mut FaultList<F>,
    report: &mut FaultSimReport,
    activated_per_pattern: &mut [u32],
    detected_per_pattern: &mut [u32],
    obs: Obs<'_>,
    pat_range: (usize, usize),
) {
    if targets.is_empty() {
        return;
    }
    // Snapshot fault data so workers need no access to the list.
    let batches: Vec<Vec<(FaultId, F)>> = targets
        .chunks(63)
        .map(|c| c.iter().map(|&fid| (fid, list.fault(fid))).collect())
        .collect();
    let workers = resolve_threads(&ctx.config).min(batches.len()).max(1);
    if obs.enabled() {
        obs.add(names::FSIM_TARGET_FAULTS, targets.len() as u64);
        obs.add(names::FSIM_WORKERS, workers as u64);
    }
    // Contiguous ranges keep the merge order trivial: worker w owns
    // batches [w·k, (w+1)·k), so concatenating worker outputs in worker
    // order is global batch order.
    let per = batches.len().div_ceil(workers);
    let outs = fan_out(batches.len().div_ceil(per), |w| {
        let range = &batches[w * per..batches.len().min((w + 1) * per)];
        obs.record(names::FSIM_BATCHES_PER_WORKER, range.len() as f64);
        run_batches_kernel::<F, W>(ctx, range, obs, w * per, pat_range)
    });

    // Merge. A serial simulator's detections are batch-major (the pattern
    // loop nests inside the batch loop), so replaying per-batch logs in
    // global batch order reproduces its report byte-for-byte; per-pattern
    // tallies are exact integer sums and thus order-independent.
    let n_pat = ctx.patterns.len();
    for w in &outs {
        for t in 0..n_pat {
            activated_per_pattern[t] += w.activated[t];
            detected_per_pattern[t] += w.detected[t];
        }
    }
    for w in outs {
        for batch_log in w.detections {
            for (fid, cc, t) in batch_log {
                list.mark_detected(fid, cc, t);
                report.record_detection(fid, cc, t);
            }
        }
    }
}

/// The parallel engine behind [`fault_simulate`](crate::fault_simulate):
/// plans batches, fans them out over a scoped worker pool, and merges the
/// results deterministically.
pub(crate) fn simulate<F: SiteOverride>(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList<F>,
    config: &FaultSimConfig,
    obs: Obs<'_>,
) -> FaultSimReport {
    simulate_guided::<F, { crate::kernel::BLOCK_WORDS }>(
        netlist,
        patterns,
        list,
        config,
        obs,
        &SimGuide::default(),
        None,
    )
}

/// The targets of one run over `list`: its undetected faults in drop mode
/// (every fault otherwise) within the guide's target mask, minus the
/// statically proven untestable ones, whose count comes second.
pub(crate) fn run_targets<F>(
    list: &FaultList<F>,
    config: &FaultSimConfig,
    guide: &SimGuide<'_>,
) -> (Vec<FaultId>, usize) {
    let testable = |id: FaultId| {
        guide
            .untestable
            .is_none_or(|u| !u.get(id).copied().unwrap_or(false))
    };
    let masked_in = |&id: &FaultId| {
        guide
            .targets
            .is_none_or(|m| m.get(id).copied().unwrap_or(false))
    };
    let all_targets: Vec<FaultId> = if config.drop_detected {
        list.undetected().filter(masked_in).collect()
    } else {
        (0..list.len()).filter(masked_in).collect()
    };
    let targets: Vec<FaultId> = all_targets
        .iter()
        .copied()
        .filter(|&id| testable(id))
        .collect();
    let untestable = all_targets.len() - targets.len();
    (targets, untestable)
}

/// The netlist-side state a run's workers read: fanout cones, port nets,
/// and the levelization.
pub(crate) struct Layout<'g> {
    cones: FanoutCones,
    in_nets: Vec<usize>,
    out_nets: Vec<usize>,
    levels: Cow<'g, Levelization>,
}

impl<'g> Layout<'g> {
    /// The layout of `netlist`. The kernel needs the rank-major layout;
    /// levelize here only when the guide did not bring the module's cached
    /// copy (O(gates log gates), negligible next to one pattern sweep).
    pub(crate) fn of(netlist: &Netlist, guide: &SimGuide<'g>) -> Layout<'g> {
        Layout {
            cones: netlist.fanout_cones(),
            in_nets: netlist.inputs().nets().iter().map(|n| n.index()).collect(),
            out_nets: netlist.outputs().nets().iter().map(|n| n.index()).collect(),
            levels: guide
                .levels
                .map_or_else(|| Cow::Owned(netlist.levelize()), Cow::Borrowed),
        }
    }

    /// The workers' shared state for one run over `patterns`.
    pub(crate) fn ctx<'a>(
        &'a self,
        netlist: &'a Netlist,
        patterns: &'a PatternSeq,
        config: &FaultSimConfig,
        stamps: Option<&'a [Stamp]>,
    ) -> Ctx<'a> {
        Ctx {
            gates: netlist.gates(),
            patterns,
            cones: &self.cones,
            in_nets: &self.in_nets,
            out_nets: &self.out_nets,
            config: *config,
            levels: &self.levels,
            stamps,
        }
    }
}

/// Reorders the target list at worker-group granularity: targets are
/// chunked into the 63-fault batches they will become, and the *chunks*
/// are stably sorted by descending mean observability cost. Batch contents
/// keep enumeration order. Group order puts the hardest (least
/// observable) batches first, so multi-worker runs schedule their longest
/// jobs first. Per-fault first detections are independent of batch
/// composition and order, so stamps are unchanged.
pub(crate) fn order_groups_hardest_first<F: SiteOverride>(
    targets: &mut Vec<FaultId>,
    keys: &[f64],
    list: &FaultList<F>,
) {
    if targets.is_empty() {
        return;
    }
    let key = |id: FaultId| keys.get(list.fault(id).seeds().0).copied().unwrap_or(0.0);
    let mut groups: Vec<&[FaultId]> = targets.chunks(63).collect();
    let mean = |g: &[FaultId]| g.iter().map(|&id| key(id)).sum::<f64>() / g.len() as f64;
    // Descending mean cost; ties keep ascending first-id order so the
    // layout is deterministic.
    groups.sort_by(|a, b| mean(b).total_cmp(&mean(a)).then(a[0].cmp(&b[0])));
    let reordered: Vec<FaultId> = groups.into_iter().flatten().copied().collect();
    *targets = reordered;
}

/// How many patterns the first repacking segment of
/// [`run_dropping_repacked`] spans; each later segment doubles, so a run
/// of `n` patterns repacks `O(log n)` times. Detections concentrate in
/// the earliest patterns of a pseudorandom sequence, so short early
/// segments capture most drops while long late segments keep the
/// re-planning overhead negligible.
pub(crate) const REPACK_SEGMENT: usize = 64;

/// Drop-mode runner: the target list is simulated in growing pattern
/// segments, and between segments the still-undetected faults are
/// re-packed into fresh 63-fault batches (enumeration order, then
/// hardest-first group order), so the batch count and the worker ranges
/// shrink as coverage accumulates.
///
/// First-detection stamps are unchanged: every fault still sees every
/// pattern in order until it drops, drop mode ignores later detections
/// anyway, and the kernel carries the good machine's previous pattern
/// into each segment (transition faults read it).
#[allow(clippy::too_many_arguments)]
fn run_dropping_repacked<F: SiteOverride, const W: usize>(
    ctx: &Ctx<'_>,
    mut targets: Vec<FaultId>,
    keys: &[f64],
    list: &mut FaultList<F>,
    report: &mut FaultSimReport,
    activated_per_pattern: &mut [u32],
    detected_per_pattern: &mut [u32],
    obs: Obs<'_>,
) {
    debug_assert!(ctx.config.drop_detected);
    let n_pat = ctx.patterns.len();
    let mut segment = REPACK_SEGMENT;
    let mut start = 0usize;
    while start < n_pat && !targets.is_empty() {
        let end = n_pat.min(start + segment);
        // Re-pack in enumeration order (adjacent ids share fanout cones,
        // keeping union cones tight), then order groups hardest-first.
        targets.sort_unstable();
        order_groups_hardest_first(&mut targets, keys, list);
        run_target_list::<F, W>(
            ctx,
            &targets,
            list,
            report,
            activated_per_pattern,
            detected_per_pattern,
            obs,
            (start, end),
        );
        targets.retain(|&id| matches!(list.status(id), FaultStatus::Undetected));
        if obs.enabled() {
            obs.add(names::FSIM_REPACK_SEGMENTS, 1);
        }
        start = end;
        segment = segment.saturating_mul(2);
    }
}

/// Dispatches one guided target list: the segmented repacking runner when
/// the guide provides observability keys in drop mode, the monolithic path
/// (with at most a one-shot group reordering) otherwise. Without keys this
/// is byte-identical to the unguided engine.
#[allow(clippy::too_many_arguments)]
fn run_guided_list<F: SiteOverride, const W: usize>(
    ctx: &Ctx<'_>,
    targets: Vec<FaultId>,
    guide: &SimGuide<'_>,
    list: &mut FaultList<F>,
    report: &mut FaultSimReport,
    activated_per_pattern: &mut [u32],
    detected_per_pattern: &mut [u32],
    obs: Obs<'_>,
) {
    match guide.order_keys {
        Some(keys) if ctx.config.drop_detected => {
            run_dropping_repacked::<F, W>(
                ctx,
                targets,
                keys,
                list,
                report,
                activated_per_pattern,
                detected_per_pattern,
                obs,
            );
        }
        keys => {
            let mut targets = targets;
            if let Some(keys) = keys {
                order_groups_hardest_first(&mut targets, keys, list);
            }
            run_target_list::<F, W>(
                ctx,
                &targets,
                list,
                report,
                activated_per_pattern,
                detected_per_pattern,
                obs,
                (0, ctx.patterns.len()),
            );
        }
    }
}

/// [`simulate`] with static-analysis guidance (see
/// [`fault_simulate_guided`](crate::fault_simulate_guided)):
///
/// - **Hardest-first group ordering** (`guide.order_keys`): the 63-fault
///   worker batches are reordered by descending mean observability cost
///   (see [`order_groups_hardest_first`]); batch contents keep enumeration
///   order. In drop mode the ordering is applied *repeatedly*: the run
///   proceeds in growing pattern segments and the
///   still-undetected faults are re-packed into fresh hardest-first
///   groups between segments (see [`run_dropping_repacked`]), so the
///   batch count shrinks as faults drop. The detected set and every
///   detection stamp are unchanged either way.
/// - **Dominance reduction** (`guide.dominance`, drop mode only): removed
///   dominator classes are excluded from direct simulation. After the
///   direct pass they *inherit* detection from their earliest-detected
///   supporter (iterated to a fixpoint — supporters may themselves be
///   inherited dominators), and whatever remains undetected gets an
///   explicit residual pass. The final detected set — and therefore the
///   reported coverage — is identical to simulating every class: a
///   supporter detection implies the dominator is detectable by that very
///   pattern, and undetected dominators are still simulated for real.
///
/// `W` is the kernel's block width in words: [`crate::kernel::BLOCK_WORDS`]
/// for every public entry point; only in-crate tests pick another.
/// `stamps`, when present, are the run's settled first detections (see
/// [`Ctx::stamps`]): a stamped run of a lock-step union.
///
/// # Panics
///
/// Panics if `patterns.width()` differs from the netlist's input width, or
/// if the netlist is sequential and the list is not empty.
pub(crate) fn simulate_guided<F: SiteOverride, const W: usize>(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList<F>,
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
    stamps: Option<&[Stamp]>,
) -> FaultSimReport {
    assert_eq!(
        patterns.width(),
        netlist.inputs().width(),
        "pattern width must match netlist inputs"
    );
    assert!(
        netlist.is_combinational() || list.is_empty(),
        "fault simulation is combinational-only: the kernel carries no flip-flop state"
    );
    let mut run_span = obs.span("fsim", names::FSIM_RUN);
    list.begin_run();
    let mut report = FaultSimReport::new();

    // Statically-proven-untestable classes are dropped from the target
    // list before batching: they can never be detected, so the detected
    // set is unchanged, but the engine stops paying for their cones. A
    // target mask restricts the candidates first, so the untestable row
    // counts masked-in faults only.
    let (targets, untestable) = run_targets(list, config, guide);
    report.set_untestable(untestable as u32);

    let layout = Layout::of(netlist, guide);
    let ctx = layout.ctx(netlist, patterns, config, stamps);

    let n_pat = patterns.len();
    let mut activated_per_pattern = vec![0u32; n_pat];
    let mut detected_per_pattern = vec![0u32; n_pat];
    if obs.enabled() {
        run_span.arg("faults", targets.len());
        run_span.arg("patterns", patterns.len());
        obs.add(names::FSIM_RUNS, 1);
        obs.add(names::FSIM_KERNEL_RUNS, 1);
        obs.add(names::FSIM_PATTERNS, patterns.len() as u64);
        obs.add(
            names::FSIM_UNTESTABLE_PRUNED,
            u64::from(report.untestable_count()),
        );
    }

    // Dominance is per-pattern reasoning over *first* detections; in
    // non-drop mode every pattern's observations are reported, so the
    // reduction would change the per-pattern stats. Apply it in drop mode
    // only (ordering is safe in both).
    let dominance = guide
        .dominance
        .filter(|d| !d.is_identity() && config.drop_detected);
    match dominance {
        None => {
            run_guided_list::<F, W>(
                &ctx,
                targets,
                guide,
                list,
                &mut report,
                &mut activated_per_pattern,
                &mut detected_per_pattern,
                obs,
            );
        }
        Some(dom) => {
            // Phase 1: simulate the non-dominator classes directly.
            let (direct, deferred): (Vec<FaultId>, Vec<FaultId>) =
                targets.iter().partition(|&&id| !dom.is_removed(id));
            run_guided_list::<F, W>(
                &ctx,
                direct,
                guide,
                list,
                &mut report,
                &mut activated_per_pattern,
                &mut detected_per_pattern,
                obs,
            );
            // Phase 2: removed dominators inherit detection from their
            // earliest-detected supporter. Iterate to a fixpoint:
            // supporters can themselves be dominators whose detection
            // only appears in a previous sweep.
            let mut inherited = 0u64;
            loop {
                let mut changed = false;
                for &id in &deferred {
                    if !matches!(list.status(id), FaultStatus::Undetected) {
                        continue;
                    }
                    let mut best: Option<(usize, u64)> = None;
                    for &s in dom.supporters(id) {
                        if let FaultStatus::Detected { cc, pattern, .. } = list.status(s) {
                            if best.is_none_or(|(bt, _)| pattern < bt) {
                                best = Some((pattern, cc));
                            }
                        }
                    }
                    if let Some((t, cc)) = best {
                        list.mark_detected(id, cc, t);
                        report.record_detection(id, cc, t);
                        // Supporters detected in a previous run carry that
                        // run's pattern index; only stamps from this
                        // sequence can be tallied per pattern.
                        if t < n_pat {
                            detected_per_pattern[t] += 1;
                        }
                        inherited += 1;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            // Phase 3: dominators nothing vouched for are simulated after
            // all — they may still be detectable by patterns that detect
            // none of their supporters.
            let residual: Vec<FaultId> = deferred
                .iter()
                .copied()
                .filter(|&id| matches!(list.status(id), FaultStatus::Undetected))
                .collect();
            if obs.enabled() {
                obs.add(names::FSIM_DOMINANCE_REMOVED, deferred.len() as u64);
                obs.add(names::FSIM_DOMINANCE_INHERITED, inherited);
                obs.add(names::FSIM_DOMINANCE_RESIDUAL, residual.len() as u64);
            }
            run_guided_list::<F, W>(
                &ctx,
                residual,
                guide,
                list,
                &mut report,
                &mut activated_per_pattern,
                &mut detected_per_pattern,
                obs,
            );
        }
    }

    for t in 0..n_pat {
        report.record_pattern(
            patterns.cc(t),
            activated_per_pattern[t],
            detected_per_pattern[t],
        );
    }
    if obs.enabled() {
        obs.add(
            names::FSIM_DETECTIONS,
            u64::from(detected_per_pattern.iter().sum::<u32>()),
        );
        obs.add(
            names::FSIM_ACTIVATIONS,
            activated_per_pattern.iter().map(|&a| u64::from(a)).sum(),
        );
    }
    report
}
