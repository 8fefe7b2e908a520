//! The parallel fault-simulation engine: batch-level threading over the
//! levelized kernel.
//!
//! [`fault_simulate`](crate::fault_simulate) partitions its target faults
//! into 63-fault batches. The batches are *fully independent*: the target
//! snapshot is taken once per window, every fault belongs to exactly one
//! batch, and the [`FaultList`] is only written after all batches finish.
//! A scoped worker pool (`std::thread::scope`; worker count from
//! [`FaultSimConfig::threads`](crate::FaultSimConfig::threads), the
//! `WARPSTL_THREADS` environment variable, or the machine's available
//! parallelism) takes the batches off one shared counter, each worker
//! running the levelized kernel (`kernel.rs`) into private buffers. The
//! merge sums per-pattern tallies and marks each fault's first detection
//! on the list; both are order-independent, so the resulting
//! [`FaultSimReport`] and list are **bit-identical** for every worker
//! count.
//!
//! Every run walks one window schedule (`walk_windows`): doubling
//! pattern windows, with drop mode re-packing the survivors between them.
//!
//! The kernel carries no flip-flop state across patterns, so the engine
//! runs combinational netlists only; every bundled module is one.
//!
//! A module's instances run through `lockstep.rs`, which either fans them
//! out over this engine or simulates them together in one lock-step union
//! pass on the same schedule.

use std::borrow::Cow;

use warpstl_netlist::{FanoutCones, Gate, Levelization, Netlist, PatternSeq};
use warpstl_obs::{names, Obs, ObsExt, Span};
use warpstl_sync::AtomicUsize;

use crate::kernel::run_batches_kernel;
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
}

/// What one worker hands back for one window: the first detection
/// `(fault, pattern)` of every fault it saw detected, in no particular
/// order, and per-pattern tallies summed over its batches, indexed from the
/// window's first pattern.
pub(crate) struct WorkerOut {
    pub(crate) detections: Vec<(FaultId, usize)>,
    pub(crate) activated: Vec<u32>,
    pub(crate) detected: Vec<u32>,
}

/// Packs `targets` into 63-fault batches of `item(id)` and fans them out
/// over the worker pool: every worker runs `job(batches, next)`, taking
/// batches off the one shared counter `next`. Outputs come back one per
/// worker, in an order nothing downstream may read. The caller's thread
/// runs one worker itself and the rest run on a scoped pool, so a
/// one-worker window spawns no OS thread (spawning for a single worker
/// only costs: the threads=8-on-1-core regression of BENCH_fsim) and every
/// window spawns one thread fewer than it has workers.
pub(crate) fn fan_out_batches<T: Sync, R: Send>(
    config: &FaultSimConfig,
    targets: &[FaultId],
    item: impl Fn(FaultId) -> T,
    job: impl Fn(&[Vec<T>], &AtomicUsize) -> R + Sync,
) -> Vec<R> {
    let batches: Vec<Vec<T>> = targets
        .chunks(63)
        .map(|c| c.iter().map(|&id| item(id)).collect())
        .collect();
    let workers = resolve_threads(config).min(batches.len());
    let next = AtomicUsize::new(0);
    let (batches, next, job) = (&batches, &next, &job);
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers)
            .map(|_| s.spawn(move || job(batches, next)))
            .collect();
        let mut outs = vec![job(batches, next)];
        outs.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("a fault-simulation worker panicked")),
        );
        outs
    })
}

/// How many patterns the first of [`windows`] spans; each later window
/// doubles, so a run of `n` patterns walks `O(log n)` windows. Detections
/// concentrate in the earliest patterns of a pseudorandom sequence, so
/// short early windows drop most faults while long late windows keep the
/// re-planning overhead negligible.
const REPACK_SEGMENT: usize = 64;

/// The window schedule over an `n_pat`-pattern stream: `(start, end)`
/// pattern ranges of [`REPACK_SEGMENT`], 2·[`REPACK_SEGMENT`], … patterns,
/// none longer than `cap`, in order, the last one clipped to the stream.
/// A stream without patterns has one empty window.
pub(crate) fn windows(n_pat: usize, cap: usize) -> impl Iterator<Item = (usize, usize)> {
    debug_assert!(cap > 0, "a window spans at least one pattern");
    let mut next = Some((0usize, REPACK_SEGMENT));
    std::iter::from_fn(move || {
        let (start, len) = next?;
        let end = start + (n_pat - start).min(len.min(cap));
        next = (end < n_pat).then(|| (end, len.saturating_mul(2)));
        Some((start, end))
    })
}

/// The one window schedule of every pass, per-instance runs and the
/// lock-step union passes alike: `window(targets, range)` simulates the
/// targets over each of [`windows`]`(n_pat, cap)` in order, and in drop
/// mode retains the survivors, which the next window re-packs into fresh
/// batches in enumeration order. The walk ends after the last window or
/// once no target is left; a stream without patterns still gets its one
/// empty window, so its workers' spans bracket the run.
///
/// First detections are unchanged by the windows: every fault still sees
/// every pattern in order until it drops, drop mode ignores later
/// detections anyway, and the kernel carries the good machine's previous
/// pattern into each window (transition faults read it).
pub(crate) fn walk_windows(
    n_pat: usize,
    cap: usize,
    targets: &mut Vec<FaultId>,
    obs: Obs<'_>,
    mut window: impl FnMut(&mut Vec<FaultId>, (usize, usize)),
) {
    for range in windows(n_pat, cap) {
        if targets.is_empty() {
            break;
        }
        if obs.enabled() {
            obs.add(names::FSIM_TARGET_FAULTS, targets.len() as u64);
            obs.add(names::FSIM_REPACK_SEGMENTS, 1);
        }
        window(targets, range);
    }
}

/// Opens one kernel pass's `fsim.run` span and counts the pass: a
/// per-instance run, a lock-step union pass and a detection pass each add
/// one to `fsim.runs` and the rows they walk to `fsim.patterns`.
pub(crate) fn begin_pass<'o>(obs: Obs<'o>, rows: usize) -> Span<'o> {
    let mut span = obs.span("fsim", names::FSIM_RUN);
    if obs.enabled() {
        span.arg("patterns", rows);
        obs.add(names::FSIM_RUNS, 1);
        obs.add(names::FSIM_KERNEL_RUNS, 1);
        obs.add(names::FSIM_PATTERNS, rows as u64);
    }
    span
}

/// The Fault Sim Report of one instance's run over `patterns`: one row
/// per pattern from the run's tallies, and its untestable count. Counts
/// the report's detections, activations and pruned classes.
pub(crate) fn tally_report(
    patterns: &PatternSeq,
    activated: &[u32],
    detected: &[u32],
    untestable: usize,
    obs: Obs<'_>,
) -> FaultSimReport {
    let mut report = FaultSimReport::new();
    report.set_untestable(untestable as u32);
    for (t, (&a, &d)) in activated.iter().zip(detected).enumerate() {
        report.record_pattern(patterns.cc(t), a, d);
    }
    if obs.enabled() {
        obs.add(names::FSIM_UNTESTABLE_PRUNED, untestable as u64);
        obs.add(
            names::FSIM_DETECTIONS,
            detected.iter().map(|&d| u64::from(d)).sum(),
        );
        obs.add(
            names::FSIM_ACTIVATIONS,
            activated.iter().map(|&a| u64::from(a)).sum(),
        );
    }
    report
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
    ) -> Ctx<'a> {
        Ctx {
            gates: netlist.gates(),
            patterns,
            cones: &self.cones,
            in_nets: &self.in_nets,
            out_nets: &self.out_nets,
            config: *config,
            levels: &self.levels,
        }
    }
}

/// The engine behind [`fault_simulate_guided`](crate::fault_simulate_guided)
/// and of each per-instance run: plans the targets and simulates them over
/// the whole stream in one pass on the window schedule ([`walk_windows`]),
/// marking first detections on `list` and turning the per-pattern tallies
/// into the report's rows.
///
/// `W` is the kernel's block width in words: [`crate::kernel::BLOCK_WORDS`]
/// for every public entry point; only in-crate tests pick another.
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
    let mut run_span = begin_pass(obs, patterns.len());
    list.begin_run();

    // Statically-proven-untestable classes are dropped from the target
    // list before batching: they can never be detected, so the detected
    // set is unchanged, but the engine stops paying for their cones. A
    // target mask restricts the candidates first, so the untestable row
    // counts masked-in faults only.
    let (mut targets, untestable) = run_targets(list, config, guide);
    if obs.enabled() {
        run_span.arg("faults", targets.len());
    }

    let layout = Layout::of(netlist, guide);
    let ctx = layout.ctx(netlist, patterns, config);

    let n_pat = patterns.len();
    let mut activated_per_pattern = vec![0u32; n_pat];
    let mut detected_per_pattern = vec![0u32; n_pat];
    let drop = config.drop_detected;
    walk_windows(n_pat, usize::MAX, &mut targets, obs, |targets, (p0, p1)| {
        let outs = fan_out_batches(
            config,
            targets,
            |id| (id, list.fault(id)),
            |batches, next| run_batches_kernel::<F, W>(&ctx, batches, next, obs, (p0, p1)),
        );
        if obs.enabled() {
            obs.add(names::FSIM_WORKERS, outs.len() as u64);
        }
        for w in outs {
            for (k, (&a, &d)) in w.activated.iter().zip(&w.detected).enumerate() {
                activated_per_pattern[p0 + k] += a;
                detected_per_pattern[p0 + k] += d;
            }
            for (fid, t) in w.detections {
                list.mark_detected(fid, patterns.cc(t), t);
            }
        }
        if drop {
            targets.retain(|&id| matches!(list.status(id), FaultStatus::Undetected));
        }
    });
    tally_report(
        patterns,
        &activated_per_pattern,
        &detected_per_pattern,
        untestable,
        obs,
    )
}
