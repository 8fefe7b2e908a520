//! Lock-step rows: one fault simulation across a module's instances.
//!
//! The SM runs a warp in lock-step, so a module's instances (8 SP cores,
//! 2 SFUs) apply the same row at the same pattern position wherever no
//! operand depends on the lane. Simulating each instance's stream alone
//! simulates those shared (fault, row) pairs once per instance. In drop
//! mode, for a model whose detection does not read the previous pattern,
//! one pass over a *lock-step union* serves every instance instead.
//!
//! **The union pass.** For t = 0, 1, …, each distinct row among the
//! instances' rows at position t becomes one U-row carrying t and the mask
//! of instances applying it, so U is ordered by t. Each fault starts with
//! the mask of instances that target it, exactly as their own runs would.
//! At each detecting U-row, in ascending order, the open instances among
//! its users settle at its t and leave the mask; the fault leaves the pass
//! when none is open. Instances still open at the end never detect it.
//!
//! **Why the settlements are exact.** On a combinational module a row's
//! detections do not depend on what precedes it or on repeats. Instance
//! i's row at position t is exactly one U-row at t, and U is ordered by t,
//! so the first detecting U-row i uses is at i's first detecting pattern.
//! Settlements are facts about (fault, instance) pairs, so neither batch
//! composition nor thread count changes them.
//!
//! **Stage 3a: the union tallies.** [`simulate_instances`] also needs each
//! instance's per-pattern activation tallies. A per-instance drop-mode run
//! counts a fault's activation at every pattern up to and including its
//! first detection, and in the union a fault is open for instance i until
//! the U-row that settles i. So the pass credits each activating U-row to
//! the open instances among its users, a settling U-row before its settled
//! instances leave the mask, and each instance gets exactly its own run's
//! tallies. A fold then writes each instance's report and stamps without
//! any kernel work, byte-identical to its own run.
//!
//! **When it pays.** The union path runs only when |U| ≤ ½ Σ len. The
//! pass walks every (fault, U-row) block an instance's own run would walk
//! at most once, but crediting tallies to open instances one lane at a
//! time costs more than a plain settlement once the instances' lists
//! disagree, so a union that keeps more than half of the rows is left to
//! the per-instance engine.
//!
//! **Evaluation: first-occurrence rows.** [`detect_instances`] needs only
//! each instance's detected set and stamps, no report. In drop mode on a
//! combinational module an instance first detects a fault at the first
//! occurrence of its first detecting row, so its repeats can be skipped:
//! the union U′ keeps, at each t, the rows that are some instance's first
//! application of that value, grouped by value. U′ is still ordered by t,
//! so its settlements are exact for any instance count, with no ½ rule.

use std::collections::HashSet;

use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::{names, Obs, ObsExt};

use crate::engine::{
    begin_pass, fan_out_batches, resolve_threads, run_targets, simulate_guided, tally_report,
    walk_windows, windows, Layout,
};
use crate::kernel::{settle_batches, Credit, Lanes, Settlement, BLOCK_WORDS};
use crate::{FaultId, FaultList, FaultSimConfig, FaultSimReport, SimGuide, SiteOverride};

/// A lock-step union of up to 64 member streams; bit `j` of a row's users
/// is member `j`.
struct Union {
    /// The U-rows, ordered by position; each row's cc is its position t.
    rows: PatternSeq,
    /// Per U-row: the members applying it.
    users: Vec<u64>,
}

impl Union {
    /// Builds the union of `streams`, or `None` as soon as it would hold
    /// more than `limit` rows. With `first_only`, a member uses a row at t
    /// only when t is the first position it applies that row value.
    fn build(streams: &[&PatternSeq], first_only: bool, limit: usize) -> Option<Union> {
        debug_assert!(streams.len() <= 64, "a union has at most 64 members");
        let max_len = streams.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut union = Union {
            rows: PatternSeq::new(streams[0].width()),
            users: Vec::new(),
        };
        let mut seen: Vec<HashSet<&[u64]>> = vec![HashSet::new(); streams.len()];
        let mut here: Vec<(&[u64], u64)> = Vec::with_capacity(streams.len());
        for t in 0..max_len {
            here.clear();
            for (j, stream) in streams.iter().enumerate().filter(|(_, s)| s.len() > t) {
                let row = stream.row(t);
                if first_only && !seen[j].insert(row) {
                    continue;
                }
                match here.iter_mut().find(|(r, _)| *r == row) {
                    Some((_, users)) => *users |= 1 << j,
                    None => here.push((row, 1 << j)),
                }
            }
            if union.users.len() + here.len() > limit {
                return None;
            }
            for &(row, users) in &here {
                union.rows.push_row(t as u64, row);
                union.users.push(users);
            }
        }
        Some(union)
    }

    /// Each of `members` members' U-rows in the window `(p0, p1)`, for
    /// crediting activation (see [`Lanes`]).
    fn lanes(&self, (p0, p1): (usize, usize), members: usize) -> Lanes {
        let mut maps = vec![vec![0u64; (p1 - p0).div_ceil(64)]; members];
        for (k, &users) in self.users[p0..p1].iter().enumerate() {
            for_each_bit(users, |j| maps[j][k / 64] |= 1 << (k % 64));
        }
        Lanes {
            members: u64::MAX >> (64 - members),
            maps,
        }
    }

    /// Adds one worker's credit over the window starting at U-row `p0`
    /// into the members' per-position activation tallies.
    fn distribute(&self, credit: &Credit, p0: usize, tallies: &mut [Vec<u32>]) {
        for (k, &count) in credit.shared.iter().enumerate() {
            if count != 0 {
                let t = self.rows.cc(p0 + k) as usize;
                for_each_bit(self.users[p0 + k], |j| tallies[j][t] += count);
            }
        }
        for (counts, tally) in credit.lanes.iter().zip(tallies) {
            for (k, &count) in counts.iter().enumerate() {
                if count != 0 {
                    tally[self.rows.cc(p0 + k) as usize] += count;
                }
            }
        }
    }
}

/// Calls `f` with the index of every set bit of `mask`, in ascending order.
fn for_each_bit(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// What one instance's own run would simulate: its targets and the count
/// of masked-in classes it prunes as untestable, or `None` when the
/// instance does not run ([`SimGuide::runs_over`]).
type Plan = Option<(Vec<FaultId>, usize)>;

/// Every instance's guide and [`Plan`].
fn plan<'g, F>(
    streams: &[&PatternSeq],
    lists: &[FaultList<F>],
    config: &FaultSimConfig,
    guide: &SimGuide<'g>,
    targets: &[Option<&'g [bool]>],
) -> (Vec<SimGuide<'g>>, Vec<Plan>) {
    let guides: Vec<SimGuide<'g>> = (0..streams.len())
        .map(|i| guide.for_instance(targets, i))
        .collect();
    let plans = (0..streams.len())
        .map(|i| {
            let guide = &guides[i];
            guide
                .runs_over(streams[i])
                .then(|| run_targets(&lists[i], config, guide))
        })
        .collect();
    (guides, plans)
}

/// The running instances that have a target: the members of a union.
fn members(plans: &[Plan]) -> Vec<usize> {
    (0..plans.len())
        .filter(|&i| plans[i].as_ref().is_some_and(|(ids, _)| !ids.is_empty()))
        .collect()
}

/// One pass over `union`, the union of the streams of `group` (at most
/// 64 instances with a target; bit `j` is `group[j]`): every instance's
/// targets start open, and each (fault, instance) first detection the
/// pass settles is marked on the instance's list at its position in the
/// instance's stream. With `tallies` (one per group member, indexed by
/// position), each member is also credited its own run's activation
/// tallies. The windows over U are capped at the longest window a
/// member's own run would use, so no worker buffer outgrows a
/// per-instance run's.
#[allow(clippy::too_many_arguments)]
fn settle<F: SiteOverride>(
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guides: &[SimGuide<'_>],
    plans: &[Plan],
    group: &[usize],
    union: &Union,
    mut tallies: Option<&mut [Vec<u32>]>,
) {
    let lead = group[0];
    let mut open = vec![0u64; lists[lead].len()];
    for (j, &i) in group.iter().enumerate() {
        for &id in plans[i].iter().flat_map(|(ids, _)| ids) {
            open[id] |= 1 << j;
        }
    }
    let mut targets: Vec<FaultId> = (0..open.len()).filter(|&id| open[id] != 0).collect();
    let longest = group.iter().map(|&i| streams[i].len()).max().unwrap_or(0);
    let cap = windows(longest, usize::MAX)
        .map(|(start, end)| end - start)
        .max()
        .expect("every stream has a window");
    // Every instance's guide shares the levelization.
    let layout = Layout::of(netlist, &guides[lead]);
    layout.sort_by_stem(&mut targets, &lists[lead]);
    let ctx = layout.ctx(netlist, &union.rows, config);
    let mut settled: Vec<Settlement> = Vec::new();
    walk_windows(
        union.rows.len(),
        cap,
        &mut targets,
        obs,
        |targets, range| {
            let lanes = tallies.as_ref().map(|t| union.lanes(range, t.len()));
            let outs = fan_out_batches(
                config,
                targets,
                |id| (id, lists[lead].fault(id), open[id]),
                |batches, next| {
                    settle_batches::<F, BLOCK_WORDS>(
                        &ctx,
                        &union.users,
                        lanes.as_ref(),
                        batches,
                        next,
                        obs,
                        range,
                    )
                },
            );
            for (found, credit) in outs {
                for &(id, users, _) in &found {
                    open[id] &= !users;
                }
                settled.extend(found);
                if let Some(tallies) = tallies.as_deref_mut() {
                    union.distribute(&credit, range.0, tallies);
                }
            }
            targets.retain(|&id| open[id] != 0);
        },
    );
    for (id, users, t) in settled {
        for_each_bit(users, |j| {
            let i = group[j];
            lists[i].mark_detected(id, streams[i].cc(t), t);
        });
    }
}

/// Asserts what every instance call requires: one stream per list, lists
/// over one fault universe, streams as wide as the netlist's inputs, and
/// a combinational netlist unless every list is empty.
fn check_instances<F>(netlist: &Netlist, streams: &[&PatternSeq], lists: &[FaultList<F>]) {
    assert_eq!(streams.len(), lists.len(), "one stream per instance list");
    assert!(
        lists.windows(2).all(|w| w[0].len() == w[1].len()),
        "a module's instance lists share one fault universe"
    );
    assert!(
        streams
            .iter()
            .all(|s| s.is_empty() || s.width() == netlist.inputs().width()),
        "pattern width must match netlist inputs"
    );
    assert!(
        netlist.is_combinational() || lists.iter().all(FaultList::is_empty),
        "fault simulation is combinational-only: the kernel carries no flip-flop state"
    );
}

/// The engine behind
/// [`fault_simulate_instances`](crate::fault_simulate_instances): one
/// union pass with tallies when the lock-step union applies, else each
/// instance with something to simulate ([`SimGuide::runs_over`]) on its
/// own list, concurrently, with the thread budget split across them so
/// instance- and batch-level parallelism compose instead of
/// oversubscribing.
pub(crate) fn simulate_instances<F: SiteOverride>(
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
    targets: &[Option<&[bool]>],
) -> Vec<Option<FaultSimReport>> {
    check_instances(netlist, streams, lists);
    let (guides, plans) = plan(streams, lists, config, guide, targets);
    if let Some(reports) = simulate_union(netlist, streams, lists, config, obs, &guides, &plans) {
        return reports;
    }

    let active = plans.iter().filter(|p| p.is_some()).count();
    let budget = resolve_threads(config);
    let per_instance = FaultSimConfig {
        threads: (budget / active.max(1)).max(1),
        ..*config
    };
    let sim = |i: usize, list: &mut FaultList<F>| {
        simulate_guided::<F, BLOCK_WORDS>(netlist, streams[i], list, &per_instance, obs, &guides[i])
    };
    if active <= 1 || budget <= 1 {
        return lists
            .iter_mut()
            .enumerate()
            .map(|(i, list)| plans[i].is_some().then(|| sim(i, list)))
            .collect();
    }
    let sim = &sim;
    std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter_mut()
            .enumerate()
            .map(|(i, list)| {
                plans[i]
                    .is_some()
                    .then(|| scope.spawn(move || sim(i, list)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.map(|h| h.join().expect("an instance's fault simulation panicked")))
            .collect()
    })
}

/// Every instance's report from one union pass, when the lock-step union
/// applies to this call: drop mode, a model that does not read the
/// previous pattern, at most 64 instances, at least two of them with a
/// non-empty stream and a target, and a union that removes at least half
/// of their rows. `None` runs every instance alone.
///
/// The pass settles and tallies; the rest is a fold that does what each
/// instance's own run leaves, without kernel work: a new run on its list,
/// its targets marked at their settled positions, and a report whose
/// detected column counts those marks and whose activated column is the
/// pass's tallies. Running instances without a target get all-zero rows.
fn simulate_union<F: SiteOverride>(
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guides: &[SimGuide<'_>],
    plans: &[Plan],
) -> Option<Vec<Option<FaultSimReport>>> {
    let running = plans.iter().filter(|p| p.is_some()).count();
    if !config.drop_detected || F::READS_PREV || running < 2 || streams.len() > 64 {
        return None;
    }
    let members = members(plans);
    if members.len() < 2 {
        return None;
    }
    let member_streams: Vec<&PatternSeq> = members.iter().map(|&i| streams[i]).collect();
    let instance_rows: usize = member_streams.iter().map(|s| s.len()).sum();
    let union = Union::build(&member_streams, false, instance_rows / 2)?;

    let mut run_span = begin_pass(obs, union.rows.len());
    if obs.enabled() {
        let faults: usize = plans.iter().flatten().map(|(ids, _)| ids.len()).sum();
        run_span.arg("instance_rows", instance_rows);
        run_span.arg("faults", faults);
        obs.add(names::FSIM_UNION_RUNS, 1);
        obs.add(names::FSIM_UNION_ROWS, union.rows.len() as u64);
        obs.add(names::FSIM_UNION_INSTANCE_ROWS, instance_rows as u64);
    }
    let runs: Vec<Option<u32>> = lists
        .iter_mut()
        .zip(plans)
        .map(|(list, plan)| plan.as_ref().map(|_| list.begin_run()))
        .collect();
    let mut activated: Vec<Vec<u32>> = member_streams.iter().map(|s| vec![0; s.len()]).collect();
    settle(
        netlist,
        streams,
        lists,
        config,
        obs,
        guides,
        plans,
        &members,
        &union,
        Some(&mut activated),
    );
    drop(run_span);

    // The members, in instance order, take their tallies; a running
    // instance without a target tallies nothing.
    let mut activated = activated.into_iter();
    let reports = (0..lists.len())
        .map(|i| {
            let (ids, untestable) = plans[i].as_ref()?;
            let len = streams[i].len();
            let activated = if ids.is_empty() {
                vec![0; len]
            } else {
                activated.next().expect("one tally per member")
            };
            let mut detected = vec![0; len];
            for (_, _, t, run) in lists[i].detected() {
                if Some(run) == runs[i] {
                    detected[t] += 1;
                }
            }
            Some(tally_report(
                streams[i],
                &activated,
                &detected,
                *untestable,
                obs,
            ))
        })
        .collect();
    Some(reports)
}

/// The engine behind
/// [`fault_detect_instances`](crate::fault_detect_instances): one new run
/// on every running instance's list, then one pass over the
/// first-occurrence union U′ of the streams of the instances with a
/// target, in groups of at most 64.
///
/// # Panics
///
/// As [`simulate_instances`], and unless `config` is in drop mode and the
/// model does not read the previous pattern.
pub(crate) fn detect_instances<F: SiteOverride>(
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
    targets: &[Option<&[bool]>],
) {
    check_instances(netlist, streams, lists);
    assert!(
        config.drop_detected && !F::READS_PREV,
        "a detection pass needs drop mode and a model that does not read the previous pattern"
    );
    let (guides, plans) = plan(streams, lists, config, guide, targets);
    if plans.iter().all(Option::is_none) {
        return;
    }
    let members = members(&plans);
    let unions: Vec<Union> = members
        .chunks(64)
        .map(|group| {
            let group_streams: Vec<&PatternSeq> = group.iter().map(|&i| streams[i]).collect();
            Union::build(&group_streams, true, usize::MAX).expect("no row limit")
        })
        .collect();
    let rows: usize = unions.iter().map(|u| u.rows.len()).sum();
    let mut run_span = begin_pass(obs, rows);
    if obs.enabled() {
        let planned = plans.iter().flatten();
        let faults: usize = planned.clone().map(|(ids, _)| ids.len()).sum();
        let untestable: usize = planned.map(|&(_, untestable)| untestable).sum();
        run_span.arg("faults", faults);
        obs.add(names::FSIM_DETECT_RUNS, 1);
        obs.add(names::FSIM_DETECT_ROWS, rows as u64);
        obs.add(names::FSIM_UNTESTABLE_PRUNED, untestable as u64);
    }
    for (list, plan) in lists.iter_mut().zip(&plans) {
        if plan.is_some() {
            list.begin_run();
        }
    }
    for (group, union) in members.chunks(64).zip(&unions) {
        settle(
            netlist, streams, lists, config, obs, &guides, &plans, group, union, None,
        );
    }
}
