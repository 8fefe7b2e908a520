//! The parallel fault-simulation engine: batch-level threading plus
//! fanout-cone pruning.
//!
//! [`fault_simulate`](crate::fault_simulate) partitions its target faults
//! into 63-fault batches (63 faulty machines + the good machine per 64-bit
//! word). The batches are *fully independent*: the target snapshot is taken
//! once per run, every fault belongs to exactly one batch, and the
//! [`FaultList`] is only written after all batches finish. That independence
//! is exploited twice:
//!
//! 1. **Threading** — batches are split into contiguous ranges and fanned
//!    out over a scoped worker pool (`std::thread::scope`; worker count from
//!    [`FaultSimConfig::threads`](crate::FaultSimConfig::threads), the
//!    `WARPSTL_THREADS` environment variable, or the machine's available
//!    parallelism). Each worker fills private buffers which are merged in
//!    global batch order afterwards, so the resulting [`FaultSimReport`] is
//!    **bit-identical** to a serial run: serial detections are emitted
//!    batch-major, and per-pattern tallies are exact integer sums, which are
//!    order-independent.
//!
//! 2. **Fanout-cone pruning** — a gate's lanes can differ from the good
//!    machine only if the gate is an injection site or (transitively) reads
//!    one, i.e. only inside the union fanout cone
//!    ([`FanoutCones`]) of the batch's ≤ 63 injection sites. The engine
//!    therefore evaluates the good machine once per pattern per batch
//!    *group* and re-evaluates only cone gates per batch, instead of the
//!    whole netlist per batch.

use warpstl_netlist::{FanoutCones, Gate, GateKind, Levelization, Netlist, PatternSeq};
use warpstl_obs::{Metrics, Obs, ObsExt};

use crate::{
    Fault, FaultId, FaultList, FaultSimConfig, FaultSimReport, FaultSite, FaultStatus, Polarity,
    SimBackend, SimGuide, SiteOverride,
};

/// How many batches a worker interleaves in one pattern sweep. Each batch in
/// a group costs a full-width value buffer, so the group bounds memory while
/// still amortizing the shared good-machine evaluation across its members.
const GROUP: usize = 16;

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

/// Resolves the simulation backend: explicit config, then
/// `WARPSTL_SIM_BACKEND`, then auto — and every kernel choice falls back to
/// the event path on sequential netlists, since only the event path carries
/// flip-flop state across patterns. Models without an event path
/// (`event_path == false`) are combinational by construction, so an event
/// request runs them on the kernel. Both paths produce bit-identical
/// results, so this is purely a performance knob (and, like the thread
/// count, it never enters artifact-cache keys).
pub(crate) fn resolve_backend(
    config: &FaultSimConfig,
    combinational: bool,
    event_path: bool,
) -> SimBackend {
    let requested = if config.backend != SimBackend::Auto {
        config.backend
    } else {
        // An unknown WARPSTL_SIM_BACKEND warns once per process via the
        // shared helper, then runs on auto.
        warpstl_sync::env::parsed_var(
            "WARPSTL_SIM_BACKEND",
            "auto, event, or kernel",
            "auto",
            SimBackend::parse,
        )
        .unwrap_or(SimBackend::Auto)
    };
    let backend = match requested {
        SimBackend::Event => SimBackend::Event,
        SimBackend::Auto => {
            if combinational {
                SimBackend::Kernel
            } else {
                SimBackend::Event
            }
        }
        kernel => {
            if combinational {
                kernel
            } else {
                SimBackend::Event
            }
        }
    };
    if backend == SimBackend::Event && !event_path {
        SimBackend::Kernel
    } else {
        backend
    }
}

/// Read-only state shared by every worker.
pub(crate) struct Ctx<'a> {
    pub(crate) gates: &'a [Gate],
    pub(crate) patterns: &'a PatternSeq,
    pub(crate) cones: &'a FanoutCones,
    pub(crate) in_nets: &'a [usize],
    pub(crate) out_nets: &'a [usize],
    pub(crate) dff_nets: &'a [usize],
    pub(crate) config: FaultSimConfig,
    /// The resolved backend — never [`SimBackend::Auto`], and never a
    /// kernel variant when `dff_nets` is non-empty.
    pub(crate) backend: SimBackend,
    /// Rank-major netlist layout; present whenever `backend` is a kernel
    /// variant (borrowed from the guide or levelized per run).
    pub(crate) levels: Option<&'a Levelization>,
}

/// One 63-fault batch, fully resolved for simulation: injection masks are
/// stored per *cone position* so the pattern loop never touches full-width
/// mask tables.
struct BatchPlan {
    /// `(fault id, fault)` per lane; lane `i + 1` simulates `faults[i]`.
    faults: Vec<(FaultId, Fault)>,
    /// Bits of the faulty lanes (bit 0, the good machine, excluded).
    lanes_mask: u64,
    /// Union fanout cone of the injection sites, ascending gate indices
    /// (ascending is a topological order of the combinational logic).
    cone: Vec<u32>,
    /// Nets read by cone gates but not in the cone: they always carry the
    /// good-machine value and are copied in before each cone evaluation.
    boundary: Vec<u32>,
    /// Stuck-at output masks, aligned with `cone`.
    out_sa0: Vec<u64>,
    out_sa1: Vec<u64>,
    /// Stuck-at input-pin masks, aligned with `cone`.
    pin_sa0: Vec<[u64; 3]>,
    pin_sa1: Vec<[u64; 3]>,
    /// Cone flip-flops in cone order: `(q gate, d net, pin-0 sa0, pin-0 sa1)`.
    dffs: Vec<(u32, u32, u64, u64)>,
    /// Output nets inside the cone (the only ones that can observe a diff).
    outs: Vec<u32>,
}

impl BatchPlan {
    /// Resolves one batch: builds injection masks, the union cone, and its
    /// boundary. `in_cone` is caller-provided scratch of `gates.len()`,
    /// false on entry and restored to false on exit.
    fn build(ctx: &Ctx<'_>, faults: &[(FaultId, Fault)], in_cone: &mut [bool]) -> BatchPlan {
        let cone = ctx
            .cones
            .union_cone(faults.iter().map(|&(_, f)| f.site.gate().index()));
        for &g in &cone {
            in_cone[g as usize] = true;
        }

        let mut out_sa0 = vec![0u64; cone.len()];
        let mut out_sa1 = vec![0u64; cone.len()];
        let mut pin_sa0 = vec![[0u64; 3]; cone.len()];
        let mut pin_sa1 = vec![[0u64; 3]; cone.len()];
        for (lane0, &(_, f)) in faults.iter().enumerate() {
            let bit = 1u64 << (lane0 + 1);
            let g = f.site.gate().index() as u32;
            let j = cone.binary_search(&g).expect("site gate is a cone seed");
            match (f.site, f.polarity) {
                (FaultSite::Output(_), Polarity::Sa0) => out_sa0[j] |= bit,
                (FaultSite::Output(_), Polarity::Sa1) => out_sa1[j] |= bit,
                (FaultSite::InputPin(_, p), Polarity::Sa0) => pin_sa0[j][p as usize] |= bit,
                (FaultSite::InputPin(_, p), Polarity::Sa1) => pin_sa1[j][p as usize] |= bit,
            }
        }

        let mut boundary: Vec<u32> = Vec::new();
        let mut dffs = Vec::new();
        for (j, &gu) in cone.iter().enumerate() {
            let gate = &ctx.gates[gu as usize];
            for &pin in gate.inputs() {
                if !in_cone[pin.index()] {
                    boundary.push(pin.index() as u32);
                }
            }
            if gate.kind == GateKind::Dff {
                let d = gate.pins[0].index() as u32;
                dffs.push((gu, d, pin_sa0[j][0], pin_sa1[j][0]));
            }
        }
        boundary.sort_unstable();
        boundary.dedup();
        let outs = ctx
            .out_nets
            .iter()
            .filter(|&&o| in_cone[o])
            .map(|&o| o as u32)
            .collect();

        for &g in &cone {
            in_cone[g as usize] = false;
        }
        let lanes_mask: u64 = if faults.len() == 63 {
            !1u64
        } else {
            ((1u64 << (faults.len() + 1)) - 1) & !1
        };
        BatchPlan {
            faults: faults.to_vec(),
            lanes_mask,
            cone,
            boundary,
            out_sa0,
            out_sa1,
            pin_sa0,
            pin_sa1,
            dffs,
            outs,
        }
    }
}

/// Per-batch mutable simulation state.
struct BatchState {
    /// Full-width value buffer; only cone and boundary slots are live.
    vals: Vec<u64>,
    /// Flip-flop state, aligned with `BatchPlan::dffs`.
    state: Vec<u64>,
    detected_mask: u64,
    /// Cleared on early exit; mirrors the serial engine's `break`.
    active: bool,
    /// Detections in occurrence order: `(fault, cc, pattern index)`.
    detections: Vec<(FaultId, u64, usize)>,
}

/// What one worker hands back: per-batch detection logs (in the worker's
/// batch order) plus per-pattern tallies summed over its batches.
pub(crate) struct WorkerOut {
    pub(crate) detections: Vec<Vec<(FaultId, u64, usize)>>,
    pub(crate) activated: Vec<u32>,
    pub(crate) detected: Vec<u32>,
}

/// Dispatches one worker's contiguous batch range to the backend selected
/// in the context. Both runners honor the same contract — detections per
/// batch in serial `(pattern, lane)` order, exact per-pattern tallies — so
/// the merge in [`run_target_list`] is backend-agnostic.
fn run_range<F: SiteOverride>(
    ctx: &Ctx<'_>,
    batches: &[Vec<(FaultId, F)>],
    obs: Obs<'_>,
    first_batch: usize,
    pat_range: (usize, usize),
) -> WorkerOut {
    match ctx.backend {
        SimBackend::Kernel => crate::kernel::run_batches_kernel::<F, 4>(
            ctx,
            ctx.levels.expect("kernel backend carries a levelization"),
            batches,
            obs,
            first_batch,
            pat_range,
        ),
        SimBackend::Kernel64 => crate::kernel::run_batches_kernel::<F, 1>(
            ctx,
            ctx.levels.expect("kernel backend carries a levelization"),
            batches,
            obs,
            first_batch,
            pat_range,
        ),
        _ => run_batches(
            ctx,
            F::as_stuck_at(batches).expect("only models with an event path resolve to it"),
            obs,
            first_batch,
            pat_range,
        ),
    }
}

/// Simulates a contiguous range of batches, interleaving them in groups of
/// [`GROUP`] so the good machine is evaluated once per pattern per group.
///
/// When observability is live, the whole range is wrapped in a
/// `fsim.worker` span, each group gets a nested `fsim.group` span, and
/// per-batch counters (batches, cone sizes, executed batch-steps, early
/// exits) accumulate in a worker-local [`Metrics`] buffer flushed once at
/// the end — the pattern loop itself stays untouched.
fn run_batches(
    ctx: &Ctx<'_>,
    batches: &[Vec<(FaultId, Fault)>],
    obs: Obs<'_>,
    first_batch: usize,
    pat_range: (usize, usize),
) -> WorkerOut {
    let mut worker_span = obs.span("fsim", "fsim.worker");
    worker_span.arg("first_batch", first_batch);
    worker_span.arg("batches", batches.len());
    let mut local = Metrics::default();

    let n_pat = ctx.patterns.len();
    let n_gates = ctx.gates.len();
    let mut out = WorkerOut {
        detections: Vec::with_capacity(batches.len()),
        activated: vec![0u32; n_pat],
        detected: vec![0u32; n_pat],
    };
    let mut in_cone = vec![false; n_gates];
    let mut good = vec![0u64; n_gates];
    let mut good_state = vec![0u64; ctx.dff_nets.len()];

    for (gi, group) in batches.chunks(GROUP).enumerate() {
        let mut group_span = obs.span("fsim", "fsim.group");
        let plans: Vec<BatchPlan> = group
            .iter()
            .map(|b| BatchPlan::build(ctx, b, &mut in_cone))
            .collect();
        if obs.enabled() {
            let cone_gates: usize = plans.iter().map(|p| p.cone.len()).sum();
            group_span.arg("first_batch", first_batch + gi * GROUP);
            group_span.arg("batches", group.len());
            group_span.arg("cone_gates", cone_gates);
            local.add("fsim.batches", group.len() as u64);
            local.add("fsim.cone_gates", cone_gates as u64);
            local.add("fsim.cone_gate_slots", (n_gates * group.len()) as u64);
        }
        let mut states: Vec<BatchState> = plans
            .iter()
            .map(|p| BatchState {
                vals: vec![0u64; n_gates],
                state: vec![0u64; p.dffs.len()],
                detected_mask: 0,
                active: true,
                detections: Vec::new(),
            })
            .collect();
        // The serial engine starts every batch from all-zero values and
        // state; the good machine's trajectory is identical across batches,
        // so resetting once per group reproduces it.
        good.fill(0);
        good_state.fill(0);

        let mut steps: u64 = 0;
        for t in pat_range.0..pat_range.1 {
            if states.iter().all(|s| !s.active) {
                break;
            }
            // Good machine: inputs broadcast to every lane, no injections.
            for (bit_pos, &net) in ctx.in_nets.iter().enumerate() {
                good[net] = if ctx.patterns.bit(t, bit_pos) { !0 } else { 0 };
            }
            let mut dff_i = 0;
            for (i, g) in ctx.gates.iter().enumerate() {
                good[i] = match g.kind {
                    GateKind::Input => good[i],
                    GateKind::Const0 => 0,
                    GateKind::Const1 => !0,
                    GateKind::Dff => {
                        let s = good_state[dff_i];
                        dff_i += 1;
                        s
                    }
                    kind => {
                        let p = g.pins;
                        let a = good[p[0].index()];
                        let (b, c) = match kind.arity() {
                            2 => (good[p[1].index()], 0),
                            3 => (good[p[1].index()], good[p[2].index()]),
                            _ => (0, 0),
                        };
                        kind.eval(a, b, c)
                    }
                };
            }
            for (k, &q) in ctx.dff_nets.iter().enumerate() {
                good_state[k] = good[ctx.gates[q].pins[0].index()];
            }

            let cc = ctx.patterns.cc(t);
            for (plan, st) in plans.iter().zip(states.iter_mut()) {
                if !st.active {
                    continue;
                }
                step_batch(ctx, plan, st, &good, t, cc, &mut out);
                steps += 1;
            }
        }
        if obs.enabled() {
            let early = states.iter().filter(|s| !s.active).count();
            local.add("fsim.batch_steps", steps);
            local.add("fsim.early_exit_batches", early as u64);
        }
        for st in states {
            out.detections.push(st.detections);
        }
    }
    if let Some(rec) = obs {
        rec.merge_metrics(&local);
    }
    out
}

/// Advances one batch by one pattern: cone evaluation, flip-flop capture,
/// output observation, activation counting, and detection recording —
/// the same sequence, in the same order, as the serial reference.
fn step_batch(
    ctx: &Ctx<'_>,
    plan: &BatchPlan,
    st: &mut BatchState,
    good: &[u64],
    t: usize,
    cc: u64,
    out: &mut WorkerOut,
) {
    let vals = &mut st.vals;
    for &p in &plan.boundary {
        vals[p as usize] = good[p as usize];
    }
    let mut dff_i = 0;
    for (j, &gu) in plan.cone.iter().enumerate() {
        let i = gu as usize;
        let g = &ctx.gates[i];
        let mut v = match g.kind {
            // Inputs are driven broadcast, so the good word *is* the
            // 64-lane input word. Constants likewise.
            GateKind::Input => good[i],
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Dff => {
                let s = st.state[dff_i];
                dff_i += 1;
                s
            }
            kind => {
                let p = g.pins;
                let ps0 = &plan.pin_sa0[j];
                let ps1 = &plan.pin_sa1[j];
                let a = (vals[p[0].index()] & !ps0[0]) | ps1[0];
                let (b, c) = match kind.arity() {
                    2 => ((vals[p[1].index()] & !ps0[1]) | ps1[1], 0),
                    3 => (
                        (vals[p[1].index()] & !ps0[1]) | ps1[1],
                        (vals[p[2].index()] & !ps0[2]) | ps1[2],
                    ),
                    _ => (0, 0),
                };
                kind.eval(a, b, c)
            }
        };
        v = (v & !plan.out_sa0[j]) | plan.out_sa1[j];
        vals[i] = v;
    }
    // Capture cone flip-flops (pin-0 masks apply at the D input). A cone
    // DFF's D net is a cone-gate input, so it is in the cone or boundary
    // and `vals` holds its post-evaluation value.
    for (k, &(_, d, m0, m1)) in plan.dffs.iter().enumerate() {
        st.state[k] = (vals[d as usize] & !m0) | m1;
    }

    // Observe: only cone outputs can differ from the good machine.
    let mut diff: u64 = 0;
    for &o in &plan.outs {
        let v = vals[o as usize];
        let good_bcast = (v & 1).wrapping_neg();
        diff |= v ^ good_bcast;
    }
    diff &= plan.lanes_mask;

    // Activation counts read the good machine (lane 0 is unaffected by
    // injection masks, so `good` matches the serial engine's lane 0).
    let drop = ctx.config.drop_detected;
    let mut activated = 0u32;
    for (lane0, &(_, f)) in plan.faults.iter().enumerate() {
        if drop && st.detected_mask >> (lane0 + 1) & 1 == 1 {
            continue;
        }
        let good_bit = match f.site {
            FaultSite::Output(n) => good[n.index()] & 1 == 1,
            FaultSite::InputPin(n, p) => {
                let src = ctx.gates[n.index()].pins[p as usize].index();
                good[src] & 1 == 1
            }
        };
        if good_bit != f.polarity.value() {
            activated += 1;
        }
    }
    out.activated[t] += activated;

    if drop {
        let newly = diff & !st.detected_mask;
        if newly != 0 {
            let mut rest = newly;
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                st.detections.push((plan.faults[lane - 1].0, cc, t));
            }
            out.detected[t] += newly.count_ones();
            st.detected_mask |= newly;
            if ctx.config.early_exit && st.detected_mask == plan.lanes_mask {
                st.active = false;
            }
        }
    } else {
        out.detected[t] += diff.count_ones();
        let mut rest = diff & !st.detected_mask;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            st.detections.push((plan.faults[lane - 1].0, cc, t));
        }
        st.detected_mask |= diff;
    }
}

/// Runs one explicit target list through the worker pool: plans batches,
/// fans them out, and merges detections into `list`/`report` and
/// per-pattern tallies into the caller's accumulators. Guided runs call
/// this several times (direct targets, residual dominators, and once per
/// repacking segment), so per-pattern stats are accumulated here and
/// turned into `record_pattern` rows exactly once by the caller.
/// `pat_range` is the half-open pattern window to simulate — `(0, n_pat)`
/// for a monolithic run.
#[allow(clippy::too_many_arguments)]
fn run_target_list<F: SiteOverride>(
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
        obs.add("fsim.target_faults", targets.len() as u64);
        obs.add("fsim.workers", workers as u64);
    }
    // `workers == 1` runs inline on the caller's thread: spawning an OS
    // thread for a single worker only costs (the threads=8-on-1-core
    // regression of BENCH_fsim).
    let outs: Vec<WorkerOut> = if workers <= 1 {
        obs.record("fsim.batches_per_worker", batches.len() as f64);
        vec![run_range(ctx, &batches, obs, 0, pat_range)]
    } else {
        // Contiguous ranges keep the merge order trivial: worker w owns
        // batches [w·k, (w+1)·k), so concatenating worker outputs in spawn
        // order is global batch order.
        let per = batches.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = batches
                .chunks(per)
                .enumerate()
                .map(|(w, range)| {
                    obs.record("fsim.batches_per_worker", range.len() as f64);
                    s.spawn(move || run_range(ctx, range, obs, w * per, pat_range))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };

    // Merge. Serial detections are batch-major (the pattern loop nests
    // inside the batch loop), so replaying per-batch logs in global batch
    // order reproduces the serial report byte-for-byte; per-pattern tallies
    // are exact integer sums and thus order-independent.
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
    simulate_guided(netlist, patterns, list, config, obs, &SimGuide::default())
}

/// Reorders the target list at worker-group granularity: targets are
/// chunked into the 63-fault batches they will become, and the *chunks*
/// are stably sorted by descending mean observability cost. Batch contents
/// keep enumeration order — that adjacency is what keeps union fanout
/// cones small, and scattering faults by per-fault cost was measured to
/// cost more in cone bloat than homogeneity saves. Group order puts the
/// hardest (least observable) batches first, so multi-worker runs
/// schedule their longest jobs first and the dropping list sheds its
/// stubborn classes as early as possible. Per-fault first detections are
/// independent of batch composition and order, so stamps are unchanged.
fn order_groups_hardest_first<F: SiteOverride>(
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
const REPACK_SEGMENT: usize = 64;

/// Drop-mode driver that makes fault dropping actually *converge*: the
/// target list is simulated in growing pattern segments, and between
/// segments the still-undetected faults are re-packed into fresh 63-fault
/// batches (enumeration order for cone locality, then hardest-first group
/// order). In the monolithic run a batch keeps paying its full union-cone
/// evaluation for every remaining pattern as long as *one* lane is
/// undetected; re-packing shrinks the batch count — and with it the
/// per-pattern cone work — as coverage accumulates.
///
/// Only sound when each pattern is independent of the last, so callers
/// gate this on combinational netlists (no flip-flop state to carry
/// across a re-pack). First-detection stamps are unchanged: every fault
/// still sees every pattern in order until it drops, and drop mode
/// ignores later detections anyway.
#[allow(clippy::too_many_arguments)]
fn run_dropping_repacked<F: SiteOverride>(
    ctx: &Ctx<'_>,
    mut targets: Vec<FaultId>,
    keys: &[f64],
    list: &mut FaultList<F>,
    report: &mut FaultSimReport,
    activated_per_pattern: &mut [u32],
    detected_per_pattern: &mut [u32],
    obs: Obs<'_>,
) {
    debug_assert!(ctx.dff_nets.is_empty() && ctx.config.drop_detected);
    let n_pat = ctx.patterns.len();
    let mut segment = REPACK_SEGMENT;
    let mut start = 0usize;
    while start < n_pat && !targets.is_empty() {
        let end = n_pat.min(start + segment);
        // Re-pack in enumeration order (adjacent ids share fanout cones,
        // keeping union cones tight), then order groups hardest-first.
        targets.sort_unstable();
        order_groups_hardest_first(&mut targets, keys, list);
        run_target_list(
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
            obs.add("fsim.repack_segments", 1);
        }
        start = end;
        segment = segment.saturating_mul(2);
    }
}

/// Dispatches one guided target list: the segmented repacking driver when
/// the guide provides observability keys and the netlist is combinational
/// drop-mode, the monolithic path (with at most a one-shot group
/// reordering) otherwise. Without keys this is byte-identical to the
/// unguided engine.
#[allow(clippy::too_many_arguments)]
fn run_guided_list<F: SiteOverride>(
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
        Some(keys) if ctx.config.drop_detected && ctx.dff_nets.is_empty() => {
            run_dropping_repacked(
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
            run_target_list(
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
///   order, preserving the cone locality batching exploits. On
///   combinational netlists in drop mode the ordering is applied
///   *repeatedly*: the run proceeds in growing pattern segments and the
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
pub(crate) fn simulate_guided<F: SiteOverride>(
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
        F::EVENT_PATH || netlist.is_combinational() || list.is_empty(),
        "models without an event path are combinational-only"
    );
    let mut run_span = obs.span("fsim", "fsim.run");
    list.begin_run();
    let mut report = FaultSimReport::new();

    // Statically-proven-untestable classes are dropped from the target
    // list before batching: they can never be detected, so the detected
    // set is unchanged, but the engine stops paying for their cones. A
    // target mask restricts the candidates first, so the untestable row
    // counts masked-in faults only.
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
    report.set_untestable((all_targets.len() - targets.len()) as u32);

    let cones = netlist.fanout_cones();
    let in_nets: Vec<usize> = netlist.inputs().nets().iter().map(|n| n.index()).collect();
    let out_nets: Vec<usize> = netlist.outputs().nets().iter().map(|n| n.index()).collect();
    let dff_nets: Vec<usize> = netlist.dffs().iter().map(|n| n.index()).collect();
    let backend = resolve_backend(config, dff_nets.is_empty(), F::EVENT_PATH);
    // The kernel needs the rank-major layout; levelize here only when the
    // guide did not bring the module's cached copy (O(gates log gates),
    // negligible next to one pattern sweep).
    let owned_levels: Option<Levelization> = match (backend, guide.levels) {
        (SimBackend::Event, _) | (_, Some(_)) => None,
        _ => Some(netlist.levelize()),
    };
    let levels = guide.levels.or(owned_levels.as_ref());
    let ctx = Ctx {
        gates: netlist.gates(),
        patterns,
        cones: &cones,
        in_nets: &in_nets,
        out_nets: &out_nets,
        dff_nets: &dff_nets,
        config: *config,
        backend,
        levels,
    };

    let n_pat = patterns.len();
    let mut activated_per_pattern = vec![0u32; n_pat];
    let mut detected_per_pattern = vec![0u32; n_pat];
    if obs.enabled() {
        run_span.arg("faults", targets.len());
        run_span.arg("patterns", patterns.len());
        run_span.arg("backend", backend);
        obs.add("fsim.runs", 1);
        obs.add("fsim.patterns", patterns.len() as u64);
        obs.add(
            "fsim.untestable_pruned",
            u64::from(report.untestable_count()),
        );
        if backend != SimBackend::Event {
            obs.add("fsim.kernel.runs", 1);
        }
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
            run_guided_list(
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
            run_guided_list(
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
                obs.add("fsim.dominance_removed", deferred.len() as u64);
                obs.add("fsim.dominance_inherited", inherited);
                obs.add("fsim.dominance_residual", residual.len() as u64);
            }
            run_guided_list(
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
            "fsim.detections",
            u64::from(detected_per_pattern.iter().sum::<u32>()),
        );
        obs.add(
            "fsim.activations",
            activated_per_pattern.iter().map(|&a| u64::from(a)).sum(),
        );
    }
    report
}
