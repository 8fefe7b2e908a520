//! The cached artifact and its compute wrappers.
//!
//! One artifact kind is persisted: **fsim stamps** — everything one
//! fault-engine invocation produced: the per-pattern report rows and the
//! *fault-list delta* (which faults flipped to detected, and where). Keyed
//! by [`key_fsim`], which absorbs the entry fault-list state, so replaying
//! the delta onto a list in that same state is bit-exact with re-running
//! the engine. A detection pass builds no report, so its entries carry no
//! report rows and live under detection-tagged keys of their own.
//!
//! The wrappers are the whole integration surface for the pipeline: call
//! [`cached_fault_sim`] where `fault_simulate_instances` would be called,
//! and [`cached_detect`] where `fault_detect_instances` would be, with an
//! optional store.

use warpstl_fault::{
    fault_detect_instances, fault_simulate_instances, FaultList, FaultSimConfig, FaultSimReport,
    SimGuide,
};
use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::{Obs, ObsExt};

use crate::codec::{ByteReader, ByteWriter};
use crate::hash::{key_detect, key_fsim, Key, KeyedFault};
use crate::store::{EntryKind, Store};

/// The persisted result of one fault-engine invocation.
///
/// `list_updates` is the list *delta*, not the list: diffing detection
/// flags before/after the engine call captures every fault the run
/// flipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsimStamps {
    /// Per-pattern `(cc, activated, detected)` report rows, in order.
    pub patterns: Vec<(u64, u32, u32)>,
    /// Faults the run newly detected: `(fault, cc, pattern)` stamps to
    /// replay onto the fault list.
    pub list_updates: Vec<(usize, u64, usize)>,
    /// Target faults the run pruned as statically untestable (the
    /// report's untestable row).
    pub untestable: u32,
}

impl FsimStamps {
    /// Serializes into a cache payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_len(self.patterns.len());
        for &(cc, activated, detected) in &self.patterns {
            w.u64(cc);
            w.u32(activated);
            w.u32(detected);
        }
        w.write_len(self.list_updates.len());
        for &(fault, cc, pattern) in &self.list_updates {
            w.write_len(fault);
            w.u64(cc);
            w.write_len(pattern);
        }
        w.u32(self.untestable);
        w.into_bytes()
    }

    /// Deserializes a cache payload; `None` on any malformation.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<FsimStamps> {
        let mut r = ByteReader::new(bytes);
        let n = r.read_len()?;
        if n > r.remaining() {
            return None;
        }
        let mut patterns = Vec::with_capacity(n);
        for _ in 0..n {
            patterns.push((r.u64()?, r.u32()?, r.u32()?));
        }
        let n = r.read_len()?;
        if n > r.remaining() {
            return None; // each triple is ≥ 24 bytes; reject absurd counts
        }
        let mut list_updates = Vec::with_capacity(n);
        for _ in 0..n {
            list_updates.push((r.read_len()?, r.u64()?, r.read_len()?));
        }
        let untestable = r.u32()?;
        r.at_end().then_some(FsimStamps {
            patterns,
            list_updates,
            untestable,
        })
    }

    /// Whether every fault id referenced is below `fault_count` (replay
    /// over the wrong list would otherwise index out of bounds).
    #[must_use]
    pub fn bounded_by(&self, fault_count: usize) -> bool {
        self.list_updates
            .iter()
            .all(|&(fault, _, _)| fault < fault_count)
    }

    /// Captures the stamps of a just-finished engine run from its report
    /// and the list's detection flags `before` the run (see
    /// [`FaultList::detection_flags`]). Generic over the ledger's fault type: stamps
    /// carry only ids, so stuck-at and bridging runs share the codec (their
    /// keys are domain-separated by the model tag).
    #[must_use]
    pub fn capture<F>(report: &FaultSimReport, list: &FaultList<F>, before: &[bool]) -> FsimStamps {
        let patterns = report
            .patterns()
            .iter()
            .map(|p| (p.cc, p.activated, p.detected))
            .collect();
        let list_updates = list
            .detected()
            .filter(|&(id, _, _, _)| !before.get(id).copied().unwrap_or(false))
            .map(|(id, cc, pattern, _)| (id, cc, pattern))
            .collect();
        FsimStamps {
            patterns,
            list_updates,
            untestable: report.untestable_count(),
        }
    }

    /// Replays the stamps: starts a new run on `list`, applies the
    /// detection stamps, and rebuilds the engine's report. Equivalent to
    /// re-running the engine from the same entry list state.
    #[must_use]
    pub fn replay<F>(&self, list: &mut FaultList<F>) -> FaultSimReport {
        list.begin_run();
        for &(fault, cc, pattern) in &self.list_updates {
            list.mark_detected(fault, cc, pattern);
        }
        let mut report = FaultSimReport::new();
        for &(cc, activated, detected) in &self.patterns {
            report.record_pattern(cc, activated, detected);
        }
        report.set_untestable(self.untestable);
        report
    }
}

impl Store {
    /// Looks up cached fsim stamps; `fault_count` bounds the fault ids a
    /// valid entry may reference (out-of-range entries are demoted to
    /// corrupt misses rather than trusted into a replay).
    #[must_use]
    pub fn get_stamps(&self, key: Key, fault_count: usize, obs: Obs<'_>) -> Option<FsimStamps> {
        let payload = self.get_verified(EntryKind::FsimStamps, key, obs)?;
        match FsimStamps::decode(&payload).filter(|s| s.bounded_by(fault_count)) {
            Some(stamps) => {
                self.note_hit(obs);
                Some(stamps)
            }
            None => {
                self.note_payload_corrupt(obs);
                None
            }
        }
    }

    /// Persists fsim stamps under `key`.
    pub fn put_stamps(&self, key: Key, stamps: &FsimStamps, obs: Obs<'_>) {
        self.put(EntryKind::FsimStamps, key, &stamps.encode(), obs);
    }
}

/// The cache handle threaded through the pipeline: an optional store plus
/// the netlist key every per-module artifact key derives from (computed
/// once per module, not once per lookup).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCtx<'a> {
    /// The store, when caching is enabled.
    pub store: Option<&'a Store>,
    /// [`key_netlist`](crate::hash::key_netlist) of the module's netlist.
    pub netlist_key: Key,
}

impl<'a> CacheCtx<'a> {
    /// A context with caching off: every lookup misses silently (no
    /// counters), every write is skipped.
    #[must_use]
    pub fn disabled() -> CacheCtx<'a> {
        CacheCtx::default()
    }
}

/// [`fault_simulate_instances`] behind the cache, for any fault model the
/// key covers ([`KeyedFault`]: stuck-at and bridging): a module's
/// instances, one stream and list each, instance `i` restricted to
/// `targets[i]` when present (else to `guide.targets`). Returns the
/// engine's per-instance reports.
///
/// Every instance the engine would run ([`SimGuide::runs_over`]) is keyed
/// with [`key_fsim`], and the instances are grouped by key: lock-step
/// instances with identical streams, lists and masks (the two SFUs) share
/// one. Each distinct key is looked up once. A hit is replayed onto every
/// instance of its group (new run, detection stamps, rebuilt report) under
/// a `store.replay` span. Each missed key is simulated once, on its first
/// instance, with every other instance sitting out on an empty stream, so
/// the engine's lock-step union spans the missed keys; its stamps are
/// persisted once and replayed onto the group's other instances. The
/// result is bit-identical to running the engine uncached, because each
/// key absorbs its instances' entry state.
#[allow(clippy::too_many_arguments)]
pub fn cached_fault_sim<F: KeyedFault>(
    cache: CacheCtx<'_>,
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
    targets: &[Option<&[bool]>],
) -> Vec<Option<FaultSimReport>> {
    let Some(store) = cache.store else {
        return fault_simulate_instances(netlist, streams, lists, config, obs, guide, targets);
    };
    let key = |stream: &PatternSeq, list: &FaultList<F>, guide: &SimGuide<'_>| {
        key_fsim(cache.netlist_key, stream, list, config, guide)
    };
    cached_instances(
        store,
        netlist,
        streams,
        lists,
        obs,
        guide,
        targets,
        key,
        |run, lists| fault_simulate_instances(netlist, run, lists, config, obs, guide, targets),
    )
}

/// [`fault_detect_instances`] behind the cache: what [`cached_fault_sim`]
/// does for [`fault_simulate_instances`], with the same grouping, lookup,
/// replay and write-back. A detection pass builds no report, so its
/// entries hold only the fault-list delta (no report rows), under a
/// detection-tagged derivation of [`key_fsim`]: a run over the same
/// inputs that does build a report keys apart and never replays such an
/// entry.
#[allow(clippy::too_many_arguments)]
pub fn cached_detect<F: KeyedFault>(
    cache: CacheCtx<'_>,
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
    targets: &[Option<&[bool]>],
) {
    let Some(store) = cache.store else {
        fault_detect_instances(netlist, streams, lists, config, obs, guide, targets);
        return;
    };
    let key = |stream: &PatternSeq, list: &FaultList<F>, guide: &SimGuide<'_>| {
        key_detect(cache.netlist_key, stream, list, config, guide)
    };
    cached_instances(
        store,
        netlist,
        streams,
        lists,
        obs,
        guide,
        targets,
        key,
        |run, lists| {
            fault_detect_instances(netlist, run, lists, config, obs, guide, targets);
            Vec::new()
        },
    );
}

/// The store side both cached entry points share: keys every running
/// instance with `key`, groups the instances by key, replays each hit onto
/// its group, and runs `simulate` once over the missed keys' first
/// instances (every other instance on an empty stream) before persisting
/// and replaying each missed key's stamps. `simulate` returns the
/// per-instance reports, or none for a pass that builds no report; its
/// entries then carry no report rows.
#[allow(clippy::too_many_arguments)]
fn cached_instances<F: KeyedFault>(
    store: &Store,
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
    targets: &[Option<&[bool]>],
    key: impl Fn(&PatternSeq, &FaultList<F>, &SimGuide<'_>) -> Key,
    simulate: impl FnOnce(&[&PatternSeq], &mut [FaultList<F>]) -> Vec<Option<FaultSimReport>>,
) -> Vec<Option<FaultSimReport>> {
    // The running instances grouped by key, in instance order.
    let mut groups: Vec<(Key, Vec<usize>)> = Vec::new();
    for (i, (stream, list)) in streams.iter().zip(lists.iter()).enumerate() {
        let guide = guide.for_instance(targets, i);
        if !guide.runs_over(stream) {
            continue;
        }
        let key = key(stream, list, &guide);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut reports: Vec<Option<FaultSimReport>> = vec![None; lists.len()];
    let replay = |stamps: &FsimStamps,
                  members: &[usize],
                  lists: &mut [FaultList<F>],
                  reports: &mut [Option<FaultSimReport>]| {
        let _span = obs.span("store", "store.replay");
        for &i in members {
            reports[i] = Some(stamps.replay(&mut lists[i]));
        }
    };
    let mut misses: Vec<(Key, Vec<usize>, Vec<bool>)> = Vec::new();
    for (key, members) in groups {
        let lead = &lists[members[0]];
        match store.get_stamps(key, lead.len(), obs) {
            Some(stamps) => replay(&stamps, &members, lists, &mut reports),
            None => misses.push((key, members, lead.detection_flags())),
        }
    }
    if misses.is_empty() {
        return reports;
    }
    // Only each missed key's first instance runs: an empty stream runs
    // nothing.
    let idle = PatternSeq::new(netlist.inputs().width());
    let run: Vec<&PatternSeq> = (0..streams.len())
        .map(|i| {
            if misses.iter().any(|(_, members, _)| members[0] == i) {
                streams[i]
            } else {
                &idle
            }
        })
        .collect();
    let mut fresh = simulate(&run, lists);
    for (key, members, before) in misses {
        let lead = members[0];
        let report = fresh
            .get_mut(lead)
            .and_then(Option::take)
            .unwrap_or_default();
        let stamps = FsimStamps::capture(&report, &lists[lead], &before);
        store.put_stamps(key, &stamps, obs);
        reports[lead] = Some(report);
        if members.len() > 1 {
            replay(&stamps, &members[1..], lists, &mut reports);
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_fault::{fault_simulate_guided, FaultUniverse, SiteOverride};
    use warpstl_netlist::Builder;
    use warpstl_obs::{names, Recorder};

    /// [`cached_fault_sim`] on a single instance.
    fn cached_one<F: KeyedFault>(
        cache: CacheCtx<'_>,
        netlist: &Netlist,
        patterns: &PatternSeq,
        list: &mut FaultList<F>,
        config: &FaultSimConfig,
        obs: Obs<'_>,
        guide: &SimGuide<'_>,
    ) -> FaultSimReport {
        let lists = std::slice::from_mut(list);
        cached_fault_sim(cache, netlist, &[patterns], lists, config, obs, guide, &[])
            .remove(0)
            .expect("a non-empty stream runs")
    }

    fn build_netlist() -> Netlist {
        let mut b = Builder::new("cache_t");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let a = b.and(x, y);
        let o = b.xor(a, z);
        let n = b.not(o);
        b.output("o", o);
        b.output("n", n);
        b.finish()
    }

    fn patterns_for(netlist: &Netlist, rows: usize) -> PatternSeq {
        let width = netlist.inputs().width();
        let mut seq = PatternSeq::new(width);
        let mut state = 0x9e37_79b9_u64;
        for i in 0..rows {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push_value(10 + i as u64, state);
        }
        seq
    }

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "warpstl-artifacts-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn stamps_codec_round_trips() {
        let stamps = FsimStamps {
            patterns: vec![(10, 4, 1), (11, 0, 0)],
            list_updates: vec![(3, 10, 0), (5, 11, 1)],
            untestable: 2,
        };
        let decoded = FsimStamps::decode(&stamps.encode()).unwrap();
        assert_eq!(decoded, stamps);
        assert!(decoded.bounded_by(6));
        assert!(!decoded.bounded_by(5));
        // Truncated payloads decode to None, never panic.
        let bytes = stamps.encode();
        for cut in 0..bytes.len() {
            assert_eq!(FsimStamps::decode(&bytes[..cut]), None);
        }
    }

    #[test]
    fn cached_fault_sim_warm_replay_is_bit_identical() {
        let netlist = build_netlist();
        let universe = FaultUniverse::enumerate(&netlist);
        let patterns = patterns_for(&netlist, 6);
        let config = FaultSimConfig::default();
        let guide = SimGuide::default();
        let store = temp_store("warm");
        let cache = CacheCtx {
            store: Some(&store),
            netlist_key: crate::hash::key_netlist(&netlist),
        };

        let mut cold_list = FaultList::new(&universe);
        let cold = cached_one(
            cache,
            &netlist,
            &patterns,
            &mut cold_list,
            &config,
            None,
            &guide,
        );

        let rec = Recorder::new();
        let mut warm_list = FaultList::new(&universe);
        let warm = cached_one(
            cache,
            &netlist,
            &patterns,
            &mut warm_list,
            &config,
            Some(&rec),
            &guide,
        );
        assert_eq!(warm, cold);
        assert_eq!(warm_list.to_report_text(), cold_list.to_report_text());
        assert_eq!(rec.metrics().counter(names::CACHE_HIT), 1);
        assert!(rec.spans().iter().any(|s| s.name == "store.replay"));

        // A different entry list state (one fault pre-detected) keys
        // differently and misses.
        let rec2 = Recorder::new();
        let mut other_list = FaultList::new(&universe);
        other_list.begin_run();
        other_list.mark_detected(0, 1, 0);
        let _ = cached_one(
            cache,
            &netlist,
            &patterns,
            &mut other_list,
            &config,
            Some(&rec2),
            &guide,
        );
        assert_eq!(rec2.metrics().counter(names::CACHE_MISS), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn masked_fault_sim_replays_bit_identically_from_a_warm_store() {
        let netlist = build_netlist();
        let universe = FaultUniverse::enumerate(&netlist);
        let patterns = patterns_for(&netlist, 6);
        let config = FaultSimConfig::default();
        let store = temp_store("masked");
        let cache = CacheCtx {
            store: Some(&store),
            netlist_key: crate::hash::key_netlist(&netlist),
        };
        let n = universe.collapsed_len();
        let mask: Vec<bool> = (0..n).map(|id| id % 2 == 0).collect();
        let masked = SimGuide {
            targets: Some(&mask),
            ..SimGuide::default()
        };
        let run = |guide: &SimGuide<'_>, rec: Option<&Recorder>| {
            let mut list = FaultList::new(&universe);
            let report = cached_one(cache, &netlist, &patterns, &mut list, &config, rec, guide);
            (report, list.to_report_text(), list.detection_flags())
        };

        let cold = run(&masked, None);
        let rec = Recorder::new();
        let warm = run(&masked, Some(&rec));
        assert_eq!(rec.metrics().counter(names::CACHE_HIT), 1);
        assert_eq!(warm, cold);
        // The masked entry is its own: the unmasked run misses, and its
        // detected set restricted to the mask is the masked run's.
        let rec = Recorder::new();
        let full = run(&SimGuide::default(), Some(&rec));
        assert_eq!(rec.metrics().counter(names::CACHE_MISS), 1);
        let restricted: Vec<bool> = full.2.iter().zip(&mask).map(|(&d, &m)| d && m).collect();
        assert_eq!(cold.2, restricted);
        assert!(restricted.contains(&true) && full.2 != restricted);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn cached_fault_sim_bridging_warm_replay_is_bit_identical() {
        use warpstl_fault::{BridgeConfig, BridgeUniverse};
        let netlist = build_netlist();
        let universe = BridgeUniverse::sample(&netlist, &BridgeConfig::default());
        assert!(!universe.is_empty());
        let patterns = patterns_for(&netlist, 6);
        let config = FaultSimConfig::default();
        let guide = SimGuide::default();
        let store = temp_store("bridge-warm");
        let cache = CacheCtx {
            store: Some(&store),
            netlist_key: crate::hash::key_netlist(&netlist),
        };

        let mut cold_list = universe.new_list();
        let cold = cached_one(
            cache,
            &netlist,
            &patterns,
            &mut cold_list,
            &config,
            None,
            &guide,
        );

        let rec = Recorder::new();
        let mut warm_list = universe.new_list();
        let warm = cached_one(
            cache,
            &netlist,
            &patterns,
            &mut warm_list,
            &config,
            Some(&rec),
            &guide,
        );
        assert_eq!(warm, cold);
        assert_eq!(warm_list.to_report_text(), cold_list.to_report_text());
        assert_eq!(rec.metrics().counter(names::CACHE_HIT), 1);

        // A stuck-at run over the same netlist/patterns/config must miss:
        // the model tag domain-separates the key spaces.
        let sa_universe = FaultUniverse::enumerate(&netlist);
        let rec2 = Recorder::new();
        let mut sa_list = FaultList::new(&sa_universe);
        let _ = cached_one(
            cache,
            &netlist,
            &patterns,
            &mut sa_list,
            &config,
            Some(&rec2),
            &guide,
        );
        assert_eq!(rec2.metrics().counter(names::CACHE_MISS), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn instances_replay_hits_and_simulate_misses_together() {
        let netlist = build_netlist();
        let universe = FaultUniverse::enumerate(&netlist);
        let config = FaultSimConfig::default();
        let guide = SimGuide::default();
        let store = temp_store("instances");
        let cache = CacheCtx {
            store: Some(&store),
            netlist_key: crate::hash::key_netlist(&netlist),
        };
        // Four lock-step lanes: one shared body behind a one-row prologue
        // per lane, so the misses take the engine's union pass.
        let body = patterns_for(&netlist, 12);
        let streams: Vec<PatternSeq> = (0..4u64)
            .map(|lane| {
                let mut p = PatternSeq::new(netlist.inputs().width());
                p.push_value(0, lane);
                for t in 0..body.len() {
                    p.push_row(t as u64 + 1, body.row(t));
                }
                p
            })
            .collect();
        let streams: Vec<&PatternSeq> = streams.iter().collect();
        let mask: Vec<bool> = (0..universe.collapsed_len())
            .map(|id| id % 3 != 0)
            .collect();
        let targets = [None, Some(mask.as_slice()), None, None];
        let run = |cache: CacheCtx<'_>, rec: Option<&Recorder>| {
            let mut lists = vec![FaultList::new(&universe); 4];
            let reports = cached_fault_sim(
                cache, &netlist, &streams, &mut lists, &config, rec, &guide, &targets,
            );
            let texts: Vec<String> = lists.iter().map(FaultList::to_report_text).collect();
            (reports, texts)
        };
        let uncached = run(CacheCtx::disabled(), None);
        assert!(uncached.0.iter().all(Option::is_some));

        // Warm lane 1 alone: the module call then replays it and simulates
        // the other three together, persisting each.
        let mut warm1 = FaultList::new(&universe);
        let lane1 = SimGuide {
            targets: Some(&mask),
            ..guide
        };
        cached_one(
            cache, &netlist, streams[1], &mut warm1, &config, None, &lane1,
        );
        let rec = Recorder::new();
        assert_eq!(run(cache, Some(&rec)), uncached);
        let m = rec.metrics();
        assert_eq!(m.counter(names::CACHE_HIT), 1);
        assert_eq!(m.counter(names::CACHE_MISS), 3);
        // The three misses run as one union pass.
        assert_eq!(m.counter(names::FSIM_UNION_RUNS), 1);
        assert_eq!(m.counter(names::FSIM_RUNS), 1);
        // Every lane hits now.
        let rec = Recorder::new();
        assert_eq!(run(cache, Some(&rec)), uncached);
        assert_eq!(rec.metrics().counter(names::CACHE_HIT), 4);
        assert_eq!(rec.metrics().counter(names::FSIM_RUNS), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn instances_sharing_a_key_look_up_simulate_and_write_once() {
        let netlist = build_netlist();
        let universe = FaultUniverse::enumerate(&netlist);
        let config = FaultSimConfig::default();
        let guide = SimGuide::default();
        let store = temp_store("shared-key");
        let cache = CacheCtx {
            store: Some(&store),
            netlist_key: crate::hash::key_netlist(&netlist),
        };
        // Lanes 0 and 2 apply one stream, as the two SFUs do; lane 1
        // applies the same rows in reverse, so its key differs.
        let shared = patterns_for(&netlist, 12);
        let mut reversed = PatternSeq::new(netlist.inputs().width());
        for t in (0..shared.len()).rev() {
            reversed.push_row(shared.cc(t), shared.row(t));
        }
        let streams = [&shared, &reversed, &shared];
        let run = |cache: CacheCtx<'_>, rec: Option<&Recorder>| {
            let mut lists = vec![FaultList::new(&universe); 3];
            let reports = cached_fault_sim(
                cache,
                &netlist,
                &streams,
                &mut lists,
                &config,
                rec,
                &guide,
                &[],
            );
            let texts: Vec<String> = lists.iter().map(FaultList::to_report_text).collect();
            (reports, texts)
        };
        let uncached = run(CacheCtx::disabled(), None);
        assert!(uncached.0.iter().all(Option::is_some));

        // Cold: one lookup, one simulation and one write per distinct key.
        let rec = Recorder::new();
        assert_eq!(run(cache, Some(&rec)), uncached);
        let m = rec.metrics();
        assert_eq!(m.counter(names::CACHE_MISS), 2);
        assert_eq!(m.counter(names::CACHE_WRITE), 2);
        assert_eq!(m.counter(names::FSIM_RUNS), 2);
        assert_eq!(store.scan().unwrap().valid_count(), 2);
        // Warm: one hit per distinct key, replayed onto every lane.
        let rec = Recorder::new();
        assert_eq!(run(cache, Some(&rec)), uncached);
        let m = rec.metrics();
        assert_eq!(m.counter(names::CACHE_HIT), 2);
        assert_eq!(m.counter(names::CACHE_MISS), 0);
        assert_eq!(m.counter(names::FSIM_RUNS), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn cached_detect_replays_lists_and_keys_apart_from_runs() {
        let netlist = build_netlist();
        let universe = FaultUniverse::enumerate(&netlist);
        let config = FaultSimConfig::default();
        let guide = SimGuide::default();
        let store = temp_store("detect");
        let cache = CacheCtx {
            store: Some(&store),
            netlist_key: crate::hash::key_netlist(&netlist),
        };
        // Lanes 0 and 2 apply one stream (one key); lane 1 reverses it.
        let shared = patterns_for(&netlist, 12);
        let mut reversed = PatternSeq::new(netlist.inputs().width());
        for t in (0..shared.len()).rev() {
            reversed.push_row(shared.cc(t), shared.row(t));
        }
        let streams = [&shared, &reversed, &shared];
        let detect = |cache: CacheCtx<'_>, rec: Option<&Recorder>| {
            let mut lists = vec![FaultList::new(&universe); 3];
            cached_detect(
                cache,
                &netlist,
                &streams,
                &mut lists,
                &config,
                rec,
                &guide,
                &[],
            );
            lists
                .iter()
                .map(FaultList::to_report_text)
                .collect::<Vec<_>>()
        };
        let uncached = detect(CacheCtx::disabled(), None);
        let alone: Vec<String> = streams
            .iter()
            .map(|s| {
                let mut list = FaultList::new(&universe);
                fault_simulate_guided(&netlist, s, &mut list, &config, None, &guide);
                list.to_report_text()
            })
            .collect();
        assert_eq!(uncached, alone);

        // Cold: one lookup, one write per distinct key, one pass in all.
        let rec = Recorder::new();
        assert_eq!(detect(cache, Some(&rec)), uncached);
        let m = rec.metrics();
        assert_eq!(m.counter(names::CACHE_MISS), 2);
        assert_eq!(m.counter(names::CACHE_WRITE), 2);
        assert_eq!(m.counter(names::FSIM_DETECT_RUNS), 1);
        // Warm: every lane replays.
        let rec = Recorder::new();
        assert_eq!(detect(cache, Some(&rec)), uncached);
        let m = rec.metrics();
        assert_eq!(m.counter(names::CACHE_HIT), 2);
        assert_eq!(m.counter(names::FSIM_RUNS), 0);
        // A run over the same inputs needs report rows, which detection
        // entries lack: it keys apart and misses.
        let rec = Recorder::new();
        let mut lists = vec![FaultList::new(&universe); 3];
        let reports = cached_fault_sim(
            cache,
            &netlist,
            &streams,
            &mut lists,
            &config,
            Some(&rec),
            &guide,
            &[],
        );
        let m = rec.metrics();
        assert_eq!(
            (m.counter(names::CACHE_HIT), m.counter(names::CACHE_MISS)),
            (0, 2)
        );
        assert_eq!(reports[0].as_ref().unwrap().patterns().len(), shared.len());
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Runs `list` over `patterns` under `guide` and returns the key it ran
    /// under, its report and the stamps a store would persist.
    fn keyed_run<F: KeyedFault>(
        netlist: &Netlist,
        patterns: &PatternSeq,
        mut list: FaultList<F>,
        guide: &SimGuide<'_>,
    ) -> (Key, FaultSimReport, FsimStamps) {
        let config = FaultSimConfig::default();
        let key = key_fsim(
            crate::hash::key_netlist(netlist),
            patterns,
            &list,
            &config,
            guide,
        );
        let before = list.detection_flags();
        let report = fault_simulate_guided(netlist, patterns, &mut list, &config, None, guide);
        let stamps = FsimStamps::capture(&report, &list, &before);
        (key, report, stamps)
    }

    /// Two copies of `fresh` with the even-numbered faults the earlier
    /// stream `pre` detects marked detected: one as a run masked to them
    /// stamped them, one with other stamps and a later run number. The
    /// mask leaves faults undetected that share a detecting pattern with
    /// detected ones, as an evaluation's masked runs do.
    fn restamped<F: SiteOverride + std::fmt::Display>(
        netlist: &Netlist,
        pre: &PatternSeq,
        fresh: &FaultList<F>,
    ) -> (FaultList<F>, FaultList<F>) {
        let mut earlier = fresh.clone();
        let even: Vec<bool> = (0..fresh.len()).map(|id| id % 2 == 0).collect();
        let masked = SimGuide {
            targets: Some(&even),
            ..SimGuide::default()
        };
        let config = FaultSimConfig::default();
        fault_simulate_guided(netlist, pre, &mut earlier, &config, None, &masked);
        let mut other = fresh.clone();
        for _ in 0..3 {
            other.begin_run();
        }
        for (id, cc, pattern, _) in earlier.detected() {
            other.mark_detected(id, cc + 1000, pre.len() - 1 - pattern);
        }
        assert_ne!(other.to_report_text(), earlier.to_report_text());
        assert_eq!(other.detection_flags(), earlier.detection_flags());
        (earlier, other)
    }

    #[test]
    fn earlier_stamps_and_run_numbers_never_steer_a_run() {
        // `key_fsim` leaves earlier detection stamps and the run counter
        // out, so two lists that differ only there must run identically.
        let netlist = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
        let width = netlist.inputs().width();
        let (mut patterns, mut pre) = (PatternSeq::new(width), PatternSeq::new(width));
        let mut state = 0x5eed_u64;
        for t in 0..30u64 {
            let bits: Vec<bool> = (0..width)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 1 == 1
                })
                .collect();
            let seq = if t < 24 { &mut patterns } else { &mut pre };
            seq.push_bits(t, &bits);
        }

        let universe = FaultUniverse::enumerate(&netlist);
        let (a, b) = restamped(&netlist, &pre, &FaultList::new(&universe));
        let n = a.len();
        let unt: Vec<bool> = (0..n).map(|id| id % 11 == 0).collect();
        let mask: Vec<bool> = (0..n).map(|id| id % 3 != 0).collect();
        let guide = SimGuide {
            untestable: Some(&unt),
            targets: Some(&mask),
            ..SimGuide::default()
        };
        let run_a = keyed_run(&netlist, &patterns, a, &guide);
        assert!(!run_a.2.list_updates.is_empty(), "the run detects nothing");
        assert_eq!(run_a, keyed_run(&netlist, &patterns, b, &guide));

        let bridges = warpstl_fault::BridgeUniverse::sample(
            &netlist,
            &warpstl_fault::BridgeConfig::default(),
        );
        let (a, b) = restamped(&netlist, &pre, &bridges.new_list());
        let mask: Vec<bool> = (0..a.len()).map(|id| id % 3 != 0).collect();
        let guide = SimGuide {
            targets: Some(&mask),
            ..SimGuide::default()
        };
        let run_a = keyed_run(&netlist, &patterns, a, &guide);
        assert!(!run_a.2.list_updates.is_empty(), "the run detects nothing");
        assert_eq!(run_a, keyed_run(&netlist, &patterns, b, &guide));
    }

    #[test]
    fn disabled_cache_is_transparent() {
        let netlist = build_netlist();
        let universe = FaultUniverse::enumerate(&netlist);
        let patterns = patterns_for(&netlist, 4);
        let config = FaultSimConfig::default();
        let guide = SimGuide::default();

        let mut direct_list = FaultList::new(&universe);
        let direct =
            fault_simulate_guided(&netlist, &patterns, &mut direct_list, &config, None, &guide);
        let mut cached_list = FaultList::new(&universe);
        let cached = cached_one(
            CacheCtx::disabled(),
            &netlist,
            &patterns,
            &mut cached_list,
            &config,
            None,
            &guide,
        );
        assert_eq!(cached, direct);
        assert_eq!(cached_list.to_report_text(), direct_list.to_report_text());
    }

    #[test]
    fn out_of_bounds_stamps_demote_to_corrupt_miss() {
        let store = temp_store("bounds");
        let key = Key(5);
        let stamps = FsimStamps {
            patterns: vec![(1, 1, 1)],
            list_updates: vec![(99, 1, 0)],
            untestable: 0,
        };
        store.put_stamps(key, &stamps, None);
        let rec = Recorder::new();
        assert_eq!(store.get_stamps(key, 10, Some(&rec)), None);
        assert_eq!(rec.metrics().counter(names::CACHE_MISS_CORRUPT), 1);
        // With a large enough universe the same entry is valid.
        assert_eq!(store.get_stamps(key, 100, None), Some(stamps));
        let _ = std::fs::remove_dir_all(store.root());
    }
}
