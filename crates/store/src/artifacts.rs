//! Typed cache artifacts and the cached compute wrappers.
//!
//! Two artifact kinds are persisted:
//!
//! - **Analysis** — a netlist's [`AnalyzeReport`], keyed by the netlist
//!   alone ([`key_analysis`]).
//! - **Fsim stamps** — everything one fault-engine invocation produced:
//!   the per-pattern report rows, the individual detection events, and the
//!   *fault-list delta* (which faults flipped to detected, and where).
//!   Keyed by [`key_fsim`], which absorbs the entry
//!   fault-list state, so replaying the delta onto a list in that same
//!   state is bit-exact with re-running the engine.
//!
//! The wrappers [`cached_analyze`] and [`cached_fault_sim`] are the whole
//! integration surface for the pipeline: call them where `analyze_observed`
//! / `fault_simulate_guided` used to be called, with an optional store.

use warpstl_analyze::{
    analyze_observed, AnalyzeReport, Diagnostic, ImplicationStats, Rule, Severity,
};
use warpstl_fault::{fault_simulate_guided, FaultList, FaultSimConfig, FaultSimReport, SimGuide};
use warpstl_netlist::{NetId, Netlist, PatternSeq};
use warpstl_obs::{Obs, ObsExt};

use crate::codec::{ByteReader, ByteWriter};
use crate::hash::{key_analysis, key_fsim, Key, KeyedFault};
use crate::store::{EntryKind, Store};

/// The persisted result of one fault-engine invocation.
///
/// `list_updates` is the list *delta*, not the list: diffing detection
/// flags before/after the engine call captures every fault the run flipped
/// — including faults a dominance view marked by inheritance, which never
/// surface as report detection events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsimStamps {
    /// Per-pattern `(cc, activated, detected)` report rows, in order.
    pub patterns: Vec<(u64, u32, u32)>,
    /// Individual `(fault, cc, pattern)` detection events of the report.
    pub report_detections: Vec<(usize, u64, usize)>,
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
        w.write_len(self.report_detections.len());
        for &(fault, cc, pattern) in &self.report_detections {
            w.write_len(fault);
            w.u64(cc);
            w.write_len(pattern);
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
        fn triples(r: &mut ByteReader<'_>) -> Option<Vec<(usize, u64, usize)>> {
            let n = r.read_len()?;
            if n > r.remaining() {
                return None; // each triple is ≥ 24 bytes; reject absurd counts
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push((r.read_len()?, r.u64()?, r.read_len()?));
            }
            Some(out)
        }
        let mut r = ByteReader::new(bytes);
        let n = r.read_len()?;
        if n > r.remaining() {
            return None;
        }
        let mut patterns = Vec::with_capacity(n);
        for _ in 0..n {
            patterns.push((r.u64()?, r.u32()?, r.u32()?));
        }
        let report_detections = triples(&mut r)?;
        let list_updates = triples(&mut r)?;
        let untestable = r.u32()?;
        r.at_end().then_some(FsimStamps {
            patterns,
            report_detections,
            list_updates,
            untestable,
        })
    }

    /// Whether every fault id referenced is below `fault_count` (replay
    /// over the wrong list would otherwise index out of bounds).
    #[must_use]
    pub fn bounded_by(&self, fault_count: usize) -> bool {
        self.report_detections
            .iter()
            .chain(&self.list_updates)
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
        let report_detections = report.detections().to_vec();
        let list_updates = list
            .detected()
            .filter(|&(id, _, _, _)| !before.get(id).copied().unwrap_or(false))
            .map(|(id, cc, pattern, _)| (id, cc, pattern))
            .collect();
        FsimStamps {
            patterns,
            report_detections,
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
        for &(fault, cc, pattern) in &self.report_detections {
            report.record_detection(fault, cc, pattern);
        }
        report.set_untestable(self.untestable);
        report
    }
}

fn encode_analysis(report: &AnalyzeReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(&report.name);
    w.write_len(report.gates);
    w.write_len(report.implications.edges);
    w.write_len(report.implications.impossible);
    w.write_len(report.implications.untestable);
    w.write_len(report.implications.merges);
    w.write_len(report.diagnostics.len());
    for d in &report.diagnostics {
        w.u8(d.rule.index() as u8);
        w.u8(match d.severity {
            Severity::Warning => 0,
            Severity::Error => 1,
        });
        match d.net {
            Some(net) => {
                w.u8(1);
                w.u32(net.0);
            }
            None => w.u8(0),
        }
        w.str(&d.message);
    }
    w.into_bytes()
}

fn decode_analysis(bytes: &[u8]) -> Option<AnalyzeReport> {
    let mut r = ByteReader::new(bytes);
    let name = r.str()?;
    let gates = r.read_len()?;
    let implications = ImplicationStats {
        edges: r.read_len()?,
        impossible: r.read_len()?,
        untestable: r.read_len()?,
        merges: r.read_len()?,
    };
    let n = r.read_len()?;
    if n > r.remaining() {
        return None;
    }
    let mut diagnostics = Vec::with_capacity(n);
    for _ in 0..n {
        let rule = *Rule::ALL.get(usize::from(r.u8()?))?;
        let severity = match r.u8()? {
            0 => Severity::Warning,
            1 => Severity::Error,
            _ => return None,
        };
        let net = match r.u8()? {
            0 => None,
            1 => Some(NetId(r.u32()?)),
            _ => return None,
        };
        let message = r.str()?;
        diagnostics.push(Diagnostic {
            rule,
            severity,
            net,
            message,
        });
    }
    r.at_end().then_some(AnalyzeReport {
        name,
        gates,
        diagnostics,
        implications,
    })
}

impl Store {
    /// Looks up a cached [`AnalyzeReport`]; counts a hit only when the
    /// payload also decodes (a checksum-valid payload that fails typed
    /// decoding — payload-schema skew — is demoted to a corrupt miss).
    #[must_use]
    pub fn get_analysis(&self, key: Key, obs: Obs<'_>) -> Option<AnalyzeReport> {
        let payload = self.get_verified(EntryKind::Analysis, key, obs)?;
        match decode_analysis(&payload) {
            Some(report) => {
                self.note_hit(obs);
                Some(report)
            }
            None => {
                self.note_payload_corrupt(obs);
                None
            }
        }
    }

    /// Persists an [`AnalyzeReport`] under `key`.
    pub fn put_analysis(&self, key: Key, report: &AnalyzeReport, obs: Obs<'_>) {
        self.put(EntryKind::Analysis, key, &encode_analysis(report), obs);
    }

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

/// [`analyze_observed`] behind the cache: returns the lint report from the
/// store when present, else analyzes and persists. SCOAP scores are not
/// cached — the pipeline consumes only the report.
#[must_use]
pub fn cached_analyze(
    store: Option<&Store>,
    netlist_key: Key,
    netlist: &Netlist,
    obs: Obs<'_>,
) -> AnalyzeReport {
    let key = key_analysis(netlist_key);
    if let Some(store) = store {
        if let Some(report) = store.get_analysis(key, obs) {
            return report;
        }
    }
    let report = analyze_observed(netlist, obs).report;
    if let Some(store) = store {
        store.put_analysis(key, &report, obs);
    }
    report
}

/// [`fault_simulate_guided`] behind the cache, for any fault model the key
/// covers ([`KeyedFault`]: stuck-at and bridging).
///
/// On a hit the persisted stamps are replayed onto `list` (new run,
/// detection stamps, rebuilt report) under a `store.replay` span — the
/// result is bit-identical to re-running the engine from the same entry
/// state, because the key absorbs that state. On a miss the engine runs
/// and its stamps are captured and persisted.
pub fn cached_fault_sim<F: KeyedFault>(
    cache: CacheCtx<'_>,
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList<F>,
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
) -> FaultSimReport {
    let Some(store) = cache.store else {
        return fault_simulate_guided(netlist, patterns, list, config, obs, guide);
    };
    let key = key_fsim(cache.netlist_key, patterns, list, config, guide);
    if let Some(stamps) = store.get_stamps(key, list.len(), obs) {
        let _span = obs.span("store", "store.replay");
        return stamps.replay(list);
    }
    let before = list.detection_flags();
    let report = fault_simulate_guided(netlist, patterns, list, config, obs, guide);
    store.put_stamps(key, &FsimStamps::capture(&report, list, &before), obs);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_fault::FaultUniverse;
    use warpstl_netlist::Builder;
    use warpstl_obs::{names, Recorder};

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
            report_detections: vec![(3, 10, 0)],
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
    fn analysis_codec_round_trips() {
        let report = AnalyzeReport {
            name: "m".into(),
            gates: 12,
            diagnostics: vec![
                Diagnostic {
                    rule: Rule::UndrivenNet,
                    severity: Severity::Error,
                    net: Some(NetId(4)),
                    message: "net n4 has no driver".into(),
                },
                Diagnostic {
                    rule: Rule::DeadLogic,
                    severity: Severity::Warning,
                    net: None,
                    message: "constant cone".into(),
                },
            ],
            implications: ImplicationStats {
                edges: 40,
                impossible: 2,
                untestable: 6,
                merges: 1,
            },
        };
        let decoded = decode_analysis(&encode_analysis(&report)).unwrap();
        assert_eq!(decoded, report);
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
        let cold = cached_fault_sim(
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
        let warm = cached_fault_sim(
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
        let _ = cached_fault_sim(
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
            let report =
                cached_fault_sim(cache, &netlist, &patterns, &mut list, &config, rec, guide);
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
        let cold = cached_fault_sim(
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
        let warm = cached_fault_sim(
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
        let _ = cached_fault_sim(
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
    fn cached_analyze_hits_and_survives_corruption() {
        let netlist = build_netlist();
        let key = crate::hash::key_netlist(&netlist);
        let store = temp_store("analyze");

        let cold = cached_analyze(Some(&store), key, &netlist, None);
        let rec = Recorder::new();
        let warm = cached_analyze(Some(&store), key, &netlist, Some(&rec));
        assert_eq!(warm, cold);
        assert_eq!(rec.metrics().counter(names::CACHE_HIT), 1);

        // Corrupt the entry: the next lookup recomputes identically.
        let path = store.entry_path(EntryKind::Analysis, key_analysis(key));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let rec = Recorder::new();
        let recovered = cached_analyze(Some(&store), key, &netlist, Some(&rec));
        assert_eq!(recovered, cold);
        assert_eq!(rec.metrics().counter(names::CACHE_MISS_CORRUPT), 1);
        // ... and the recompute rewrote a valid entry.
        let rec = Recorder::new();
        let rewarm = cached_analyze(Some(&store), key, &netlist, Some(&rec));
        assert_eq!(rewarm, cold);
        assert_eq!(rec.metrics().counter(names::CACHE_HIT), 1);
        let _ = std::fs::remove_dir_all(store.root());
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
        let cached = cached_fault_sim(
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
            report_detections: vec![],
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
