//! Lock-step rows: one fault simulation across a module's instances.
//!
//! The SM runs a warp in lock-step, so a module's instances (8 SP cores,
//! 2 SFUs) apply the same row at the same pattern position wherever no
//! operand depends on the lane. Simulating each instance's stream alone
//! simulates those shared (fault, row) pairs once per instance. In drop
//! mode, for a model whose detection does not read the previous pattern,
//! [`simulate_instances`] runs them in two steps instead:
//!
//! 1. **Union pass.** One drop-mode simulation over the *lock-step union*
//!    U: for t = 0, 1, …, each distinct row among the instances' rows at
//!    position t becomes one U-row carrying t and the mask of instances
//!    applying it, so U is ordered by t. Each fault starts with the mask of
//!    instances that target it, exactly as their own runs would. At each
//!    detecting U-row, in ascending order, the open instances among its
//!    users settle at its t and leave the mask; the fault leaves the pass
//!    when none is open. Instances still open at the end never detect it.
//! 2. **Stamped runs.** The unchanged per-instance engine runs once per
//!    instance, with every target settled: a block reads its detect word
//!    from the stamp instead of propagating (see `kernel.rs`). The window
//!    schedule and tallies are the engine's own, so reports and lists are
//!    byte-identical.
//!
//! **Why the stamps are exact.** On a combinational module a row's
//! detections do not depend on what precedes it or on repeats. Instance
//! i's row at position t is exactly one U-row at t, and U is ordered by t,
//! so the first detecting U-row i uses is at i's first detecting pattern.
//! Stamps are facts about (fault, instance) pairs, so neither batch
//! composition nor thread count changes them.
//!
//! **When it pays.** The stamped runs cost about a quarter of the
//! per-instance runs they replace (good machine and activation screens,
//! no propagation), so union plus stamped runs cost about
//! (|U| / Σ len + ¼) of the per-instance runs and break even near
//! |U| = ¾ Σ len. The union path runs only when |U| ≤ ½ Σ len, which
//! leaves a margin; otherwise every instance runs alone.

use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::{names, Obs, ObsExt};

use crate::engine::{
    fan_out_batches, resolve_threads, run_targets, simulate_guided, walk_windows, windows, Layout,
};
use crate::kernel::{settle_batches, Stamp, BLOCK_WORDS, NEVER, OPEN};
use crate::{FaultId, FaultList, FaultSimConfig, FaultSimReport, SimGuide, SiteOverride};

/// The lock-step union U of the member instances' streams.
struct Union {
    /// The U-rows, ordered by position; each row's cc is its position.
    rows: PatternSeq,
    /// Per U-row: the instances applying it, bit `i` for instance `i`.
    users: Vec<u64>,
    /// Per U-row: its pattern position t.
    at: Vec<Stamp>,
}

impl Union {
    /// Builds U over the streams of `members` (instance indices below 64),
    /// or `None` as soon as it would hold more than `limit` rows.
    fn build(streams: &[&PatternSeq], members: &[usize], limit: usize) -> Option<Union> {
        let len = |i: usize| streams[i].len();
        let max_len = members.iter().map(|&i| len(i)).max().unwrap_or(0);
        let mut union = Union {
            rows: PatternSeq::new(streams[members[0]].width()),
            users: Vec::new(),
            at: Vec::new(),
        };
        let mut here: Vec<(&[u64], u64)> = Vec::with_capacity(members.len());
        for t in 0..max_len {
            here.clear();
            for &i in members.iter().filter(|&&i| len(i) > t) {
                let row = streams[i].row(t);
                match here.iter_mut().find(|(r, _)| *r == row) {
                    Some((_, users)) => *users |= 1 << i,
                    None => here.push((row, 1 << i)),
                }
            }
            if union.users.len() + here.len() > limit {
                return None;
            }
            for &(row, users) in &here {
                union.rows.push_row(t as u64, row);
                union.users.push(users);
                union.at.push(t as Stamp);
            }
        }
        Some(union)
    }
}

/// The settled stamps of every instance (indexed by instance, then by
/// [`FaultId`]), when the lock-step union applies to this call: drop mode,
/// a model that does not read the previous pattern, at least two
/// instances with a non-empty stream and a target, and a union that
/// removes at least half of their rows. `None` runs every instance alone.
fn settle<F: SiteOverride>(
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &[FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guides: &[SimGuide<'_>],
    runs: &[bool],
) -> Option<Vec<Vec<Stamp>>> {
    let running = runs.iter().filter(|&&r| r).count();
    if !config.drop_detected || F::READS_PREV || running < 2 || streams.len() > 64 {
        return None;
    }
    // Instance i's targets are exactly what its own run targets, so the
    // stamped runs never propagate.
    let n = lists.first().map_or(0, FaultList::len);
    let mut open = vec![0u64; n];
    let mut members = Vec::new();
    for (i, list) in lists.iter().enumerate().filter(|&(i, _)| runs[i]) {
        let (targets, _) = run_targets(list, config, &guides[i]);
        if !targets.is_empty() {
            members.push(i);
            for id in targets {
                open[id] |= 1 << i;
            }
        }
    }
    let instance_rows: usize = members.iter().map(|&i| streams[i].len()).sum();
    let longest = members.iter().map(|&i| streams[i].len()).max().unwrap_or(0);
    if members.len() < 2 || longest >= NEVER as usize {
        return None;
    }
    let union = Union::build(streams, &members, instance_rows / 2)?;

    let mut run_span = obs.span("fsim", names::FSIM_RUN);
    let lead = &lists[members[0]];
    let mut targets: Vec<FaultId> = (0..n).filter(|&id| open[id] != 0).collect();
    if obs.enabled() {
        run_span.arg("union_rows", union.rows.len());
        run_span.arg("instance_rows", instance_rows);
        run_span.arg("targets", targets.len());
        obs.add(names::FSIM_UNION_RUNS, 1);
        obs.add(names::FSIM_UNION_ROWS, union.rows.len() as u64);
        obs.add(names::FSIM_UNION_INSTANCE_ROWS, instance_rows as u64);
    }
    // Every instance's guide shares the levelization.
    let layout = Layout::of(netlist, &guides[members[0]]);
    let ctx = layout.ctx(netlist, &union.rows, config, None);
    let mut stamps = vec![vec![OPEN; n]; streams.len()];
    let mut stamp = |id: FaultId, mut instances: u64, t: Stamp| {
        while instances != 0 {
            stamps[instances.trailing_zeros() as usize][id] = t;
            instances &= instances - 1;
        }
    };
    // The engine's window schedule over U, capped at the longest window a
    // member's own run would use, so no worker buffer outgrows a
    // per-instance run's.
    let cap = windows(longest, usize::MAX)
        .map(|(start, end)| end - start)
        .max()
        .expect("every stream has a window");
    walk_windows(
        union.rows.len(),
        cap,
        &mut targets,
        obs,
        |targets, range| {
            let settled = fan_out_batches(
                config,
                targets,
                |id| (id, lead.fault(id), open[id]),
                |batches, next| {
                    settle_batches::<F, BLOCK_WORDS>(
                        &ctx,
                        &union.users,
                        &union.at,
                        batches,
                        next,
                        obs,
                        range,
                    )
                },
            );
            for (id, instances, t) in settled.into_iter().flatten() {
                open[id] &= !instances;
                stamp(id, instances, t);
            }
            targets.retain(|&id| open[id] != 0);
        },
    );
    for id in targets {
        stamp(id, open[id], NEVER);
    }
    Some(stamps)
}

/// The engine behind
/// [`fault_simulate_instances`](crate::fault_simulate_instances): settles
/// the lock-step union when it applies, then runs each instance with
/// something to simulate ([`SimGuide::runs_over`]) on its own list,
/// concurrently, with the thread budget split across them so instance- and
/// batch-level parallelism compose instead of oversubscribing.
pub(crate) fn simulate_instances<F: SiteOverride>(
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
    targets: &[Option<&[bool]>],
) -> Vec<Option<FaultSimReport>> {
    assert_eq!(streams.len(), lists.len(), "one stream per instance list");
    assert!(
        lists.windows(2).all(|w| w[0].len() == w[1].len()),
        "a module's instance lists share one fault universe"
    );
    let guides: Vec<SimGuide<'_>> = (0..streams.len())
        .map(|i| guide.for_instance(targets, i))
        .collect();
    let runs: Vec<bool> = streams
        .iter()
        .zip(&guides)
        .map(|(s, g)| g.runs_over(s))
        .collect();
    let stamps = settle(netlist, streams, lists, config, obs, &guides, &runs);

    let active = runs.iter().filter(|&&r| r).count();
    let budget = resolve_threads(config);
    let per_instance = FaultSimConfig {
        threads: (budget / active.max(1)).max(1),
        ..*config
    };
    let sim = |i: usize, list: &mut FaultList<F>| {
        let stamps = stamps.as_ref().map(|s| s[i].as_slice());
        simulate_guided::<F, BLOCK_WORDS>(
            netlist,
            streams[i],
            list,
            &per_instance,
            obs,
            &guides[i],
            stamps,
        )
    };
    if active <= 1 || budget <= 1 {
        return lists
            .iter_mut()
            .enumerate()
            .map(|(i, list)| runs[i].then(|| sim(i, list)))
            .collect();
    }
    let sim = &sim;
    std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter_mut()
            .enumerate()
            .map(|(i, list)| runs[i].then(|| scope.spawn(move || sim(i, list))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.map(|h| h.join().expect("an instance's fault simulation panicked")))
            .collect()
    })
}
