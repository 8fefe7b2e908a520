//! Per-module compaction context: the netlist and the shared fault lists.

use std::borrow::Cow;
use std::sync::Arc;

use warpstl_analyze::{analyze, Analysis};
use warpstl_fault::{
    BridgeConfig, BridgeList, BridgeUniverse, DominanceView, Fault, FaultId, FaultList, FaultModel,
    FaultSimConfig, FaultSimReport, FaultSite, FaultStatus, FaultUniverse, Polarity, SimGuide,
};
use warpstl_gpu::ModulePatterns;
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{Levelization, NetId, Netlist, PatternSeq};
use warpstl_obs::Obs;
use warpstl_store::{key_netlist, CacheCtx, Key, Store};

use crate::pipeline::simulate_instances;

/// The per-target-module state shared across the PTPs of an STL: the module
/// netlist, its collapsed fault universe, and one fault list per physical
/// instance (8 SP cores, 2 SFUs, 1 DU) under the active fault model.
///
/// This is the paper's fault-dropping mechanism: "this fault list report
/// initially includes all faults of a target module; after each fault
/// simulation (one per PTP) the fault list is updated and detected faults
/// are removed."
///
/// # Examples
///
/// ```
/// use warpstl_core::Compactor;
/// use warpstl_netlist::modules::ModuleKind;
///
/// let ctx = Compactor::default().context_for(ModuleKind::Sfu);
/// assert_eq!(ctx.instances(), 2);
/// assert_eq!(ctx.coverage(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ModuleContext {
    module: ModuleKind,
    netlist: Netlist,
    universe: FaultUniverse,
    /// The shared per-instance ledgers: the one place the context names
    /// its fault model.
    ledger: Ledger,
    analysis: Analysis,
    dominance: DominanceView,
    order_keys: Vec<f64>,
    levels: Levelization,
    /// Per collapsed-class flag: statically proven untestable.
    untestable: Vec<bool>,
    store: Option<Arc<Store>>,
    netlist_key: Key,
}

/// One detection ledger per module instance, under one fault model.
#[derive(Debug, Clone)]
pub(crate) enum Ledger {
    /// Collapsed stuck-at lists, born with the proven-untestable classes
    /// marked.
    StuckAt(Vec<FaultList>),
    /// Lists over a deterministically sampled two-net bridge universe.
    /// Untestability proofs and dominance are stuck-at constructs, so
    /// bridging lists carry neither — every sampled bridge counts in the
    /// coverage denominator.
    Bridging(Vec<BridgeList>),
}

/// Evaluates `$body` with `$lists` bound to the ledger's lists, whatever
/// their fault type.
macro_rules! with_lists {
    ($ledger:expr, $lists:ident => $body:expr) => {
        match $ledger {
            Ledger::StuckAt($lists) => $body,
            Ledger::Bridging($lists) => $body,
        }
    };
}

impl Ledger {
    /// The number of instances (= lists).
    fn len(&self) -> usize {
        with_lists!(self, lists => lists.len())
    }

    /// Mean fault coverage across the instances (`0.0` when empty).
    pub(crate) fn coverage(&self) -> f64 {
        with_lists!(self, lists => {
            lists.iter().map(FaultList::coverage).sum::<f64>() / lists.len().max(1) as f64
        })
    }

    /// Total (uncollapsed) faults across the instances.
    fn total_faults(&self) -> u64 {
        with_lists!(self, lists => lists.iter().map(FaultList::total_weight).sum())
    }

    /// Classes marked statically untestable per instance (0 for bridging).
    fn untestable_count(&self) -> usize {
        with_lists!(self, lists => lists.first().map_or(0, FaultList::untestable_count))
    }

    /// Sets every fault undetected again (untestability marks kept).
    pub(crate) fn reset(&mut self) {
        with_lists!(self, lists => lists.iter_mut().for_each(FaultList::reset));
    }

    /// The same lists with every fault undetected again (untestability
    /// marks kept): the starting point of a standalone evaluation.
    fn fresh(&self) -> Ledger {
        let mut fresh = self.clone();
        fresh.reset();
        fresh
    }

    /// Per-instance detection flags (see [`FaultList::detection_flags`]).
    pub(crate) fn detection_flags(&self) -> Vec<Vec<bool>> {
        with_lists!(self, lists => lists.iter().map(FaultList::detection_flags).collect())
    }

    /// Instance `i`'s detection stamp of fault `id`: the index of the
    /// detecting pattern in the stream of the run that detected it, `None`
    /// while undetected.
    pub(crate) fn stamp(&self, i: usize, id: FaultId) -> Option<usize> {
        with_lists!(self, lists => match lists[i].status(id) {
            FaultStatus::Detected { pattern, .. } => Some(pattern),
            FaultStatus::Undetected => None,
        })
    }

    /// The [`coverage`](Ledger::coverage) these lists would report if
    /// instance `i` had detected exactly the faults flagged in
    /// `detected[i]` — bit-identical, since each list sums its own weights
    /// over the flags exactly as it sums them over its statuses.
    pub(crate) fn coverage_of(&self, detected: &[Vec<bool>]) -> f64 {
        debug_assert_eq!(detected.len(), self.len());
        with_lists!(self, lists => {
            lists
                .iter()
                .zip(detected)
                .map(|(list, flags)| list.coverage_of(flags))
                .sum::<f64>()
                / lists.len().max(1) as f64
        })
    }

    /// Fault-simulates one pattern stream per instance into the lists (see
    /// [`simulate_instances`]), instance `i` restricted to `targets[i]`
    /// when present. `guide` is the stuck-at guide of the module; bridging
    /// takes only its levelization, since dominance, untestability and
    /// ordering index the stuck-at universe.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn simulate(
        &mut self,
        netlist: &Netlist,
        streams: &[Cow<'_, PatternSeq>],
        config: &FaultSimConfig,
        obs: Obs<'_>,
        guide: SimGuide<'_>,
        targets: &[Option<&[bool]>],
        cache: CacheCtx<'_>,
    ) -> Vec<Option<FaultSimReport>> {
        match self {
            Ledger::StuckAt(lists) => {
                simulate_instances(netlist, streams, lists, config, obs, guide, targets, cache)
            }
            Ledger::Bridging(lists) => {
                let guide = SimGuide {
                    levels: guide.levels,
                    ..SimGuide::default()
                };
                simulate_instances(netlist, streams, lists, config, obs, guide, targets, cache)
            }
        }
    }
}

/// Maps the analyzer's per-site untestability proofs and equivalence
/// merges onto the collapsed fault classes of `universe`: the returned
/// bitmap flags every class with a proven-untestable member (equivalent
/// faults share test sets, so one proven member condemns the class), and
/// the pairs are `(pin-fault class, output-fault class)` equivalences for
/// the dominance view. Untestability propagates across the pairs before
/// they are returned.
fn map_untestability(
    netlist: &Netlist,
    universe: &FaultUniverse,
    analysis: &Analysis,
) -> (Vec<bool>, Vec<(FaultId, FaultId)>) {
    let unt = &analysis.untestable;
    let mut bitmap = vec![false; universe.collapsed_len()];
    let rep = |site: FaultSite, stuck: bool| {
        universe.rep_of(Fault::new(site, Polarity::BOTH[usize::from(stuck)]))
    };
    // The proofs are indexed by site, so walk every enumerable site and
    // map it through the universe — checking only class representatives
    // would miss proofs landing on a non-representative member.
    for (i, g) in netlist.gates().iter().enumerate() {
        let id = NetId(i as u32);
        for stuck in [false, true] {
            if unt.output_untestable(i, stuck) {
                if let Some(c) = rep(FaultSite::Output(id), stuck) {
                    bitmap[c] = true;
                }
            }
            for p in 0..g.kind.arity() {
                if unt.pin_untestable(i, p, stuck) {
                    if let Some(c) = rep(FaultSite::InputPin(id, p as u8), stuck) {
                        bitmap[c] = true;
                    }
                }
            }
        }
    }
    let pairs: Vec<(FaultId, FaultId)> = unt
        .merges()
        .iter()
        .filter_map(|m| {
            let id = NetId(m.gate as u32);
            let dropped = rep(FaultSite::InputPin(id, m.pin), m.pin_polarity)?;
            let kept = rep(FaultSite::Output(id), m.out_polarity)?;
            Some((dropped, kept))
        })
        .collect();
    // Equivalent classes share test sets: untestability crosses the
    // pairs (iterated, since merges can chain through shared classes).
    loop {
        let mut changed = false;
        for &(a, b) in &pairs {
            if bitmap[a] != bitmap[b] {
                bitmap[a] = true;
                bitmap[b] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (bitmap, pairs)
}

impl ModuleContext {
    /// Builds the context for `module` with `instances` fault lists.
    ///
    /// The one-pass static analysis (SCOAP measures, lints, implication
    /// closure), the dominance view — strengthened with the analyzer's
    /// implication-derived fault equivalences — and the untestability
    /// bitmap all run here, once per module; every PTP compacted against
    /// this context reuses them. Each fault list is born with the proven
    /// classes [marked untestable](FaultList::mark_untestable), so
    /// coverage denominators count testable faults only.
    ///
    /// # Panics
    ///
    /// The analysis is the pipeline's lint gate: lint errors (a
    /// combinational loop, an undriven net) leave the fault model
    /// undefined, so this asserts a clean report before enumerating any
    /// fault. Every bundled module passes it, so a failure is a generator
    /// bug, not bad input.
    #[must_use]
    pub fn new(module: ModuleKind, instances: usize) -> ModuleContext {
        let netlist = module.build();
        let analysis = analyze(&netlist);
        assert!(
            analysis.is_clean(),
            "netlist {} failed static analysis:\n{}",
            netlist.name(),
            analysis.report
        );
        let universe = FaultUniverse::enumerate(&netlist);
        let (untestable, equiv_pairs) = map_untestability(&netlist, &universe, &analysis);
        let mut dominance = universe.dominance(&netlist);
        dominance.extend_with_equivalences(&equiv_pairs);
        let lists = (0..instances)
            .map(|_| {
                let mut l = FaultList::new(&universe);
                l.mark_untestable(&untestable);
                l
            })
            .collect();
        let ledger = Ledger::StuckAt(lists);
        let order_keys = analysis.scoap.observability_keys();
        let levels = netlist.levelize();
        let netlist_key = key_netlist(&netlist);
        ModuleContext {
            module,
            netlist,
            universe,
            ledger,
            analysis,
            dominance,
            order_keys,
            levels,
            untestable,
            store: None,
            netlist_key,
        }
    }

    /// Selects the fault model of the per-instance ledgers.
    /// [`FaultModel::Bridging`] samples the two-net bridge universe
    /// (deterministic in `config`); the stuck-at universe and analysis
    /// products stay available (the lint gate is model-independent).
    /// [`FaultModel::StuckAt`] restores the default.
    #[must_use]
    pub fn with_model(mut self, model: FaultModel, config: &BridgeConfig) -> ModuleContext {
        let instances = self.instances();
        match (model, &self.ledger) {
            // Already stuck-at (every context starts so): keep the lists.
            (FaultModel::StuckAt, Ledger::StuckAt(_)) => {}
            (FaultModel::StuckAt, Ledger::Bridging(_)) => {
                self.ledger = Ledger::StuckAt(self.fresh_lists());
            }
            (FaultModel::Bridging, _) => {
                let universe = BridgeUniverse::sample(&self.netlist, config);
                self.ledger =
                    Ledger::Bridging((0..instances).map(|_| universe.new_list()).collect());
            }
        }
        self
    }

    /// Attaches (or detaches) the artifact store: every fault-engine
    /// invocation run against this context then consults it before
    /// simulating. PTPs sharing the context (the STL flow) share its hits.
    #[must_use]
    pub fn with_store(mut self, store: Option<Arc<Store>>) -> ModuleContext {
        self.store = store;
        self
    }

    /// The cache handle fault-simulation call sites thread through to
    /// [`cached_fault_sim`](warpstl_store::cached_fault_sim).
    #[must_use]
    pub fn cache_ctx(&self) -> CacheCtx<'_> {
        CacheCtx {
            store: self.store.as_deref(),
            netlist_key: self.netlist_key,
        }
    }

    /// The target module.
    #[must_use]
    pub fn module(&self) -> ModuleKind {
        self.module
    }

    /// The gate-level netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The collapsed fault universe.
    #[must_use]
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// The module's static analysis (SCOAP measures + lint report).
    #[must_use]
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The module's fault-dominance view over the collapsed universe.
    #[must_use]
    pub fn dominance(&self) -> &DominanceView {
        &self.dominance
    }

    /// Per-gate observability keys (hardest-first ordering uses them).
    #[must_use]
    pub fn order_keys(&self) -> &[f64] {
        &self.order_keys
    }

    /// The module's levelization (rank-major gate ordering); the levelized
    /// simulation kernel evaluates over it.
    #[must_use]
    pub fn levels(&self) -> &Levelization {
        &self.levels
    }

    /// The per-class untestability bitmap (indexed by collapsed class id).
    #[must_use]
    pub fn untestable_bitmap(&self) -> &[bool] {
        &self.untestable
    }

    /// Number of fault classes statically proven untestable. The proofs
    /// are stuck-at constructs; in bridging mode this is always 0.
    #[must_use]
    pub fn untestable_count(&self) -> usize {
        self.ledger.untestable_count()
    }

    /// The simulation guide (dominance + untestable pruning + ordering)
    /// borrowed from this context — hand it to
    /// [`fault_simulate_guided`](warpstl_fault::fault_simulate_guided).
    #[must_use]
    pub fn sim_guide(&self) -> SimGuide<'_> {
        SimGuide {
            dominance: Some(&self.dominance),
            untestable: Some(&self.untestable),
            targets: None,
            order_keys: Some(&self.order_keys),
            levels: Some(&self.levels),
        }
    }

    /// The number of module instances (= fault lists).
    #[must_use]
    pub fn instances(&self) -> usize {
        self.ledger.len()
    }

    /// Fresh ledgers under the active model (for standalone evaluations):
    /// every fault undetected, untestability marks kept so coverage uses
    /// the same denominator as the shared ledgers.
    pub(crate) fn fresh_ledger(&self) -> Ledger {
        self.ledger.fresh()
    }

    /// Fault-simulates one pattern stream per instance against the shared
    /// ledgers, with the module's guide and cache handle, and returns the
    /// per-instance reports in instance order (`None` where a stream was
    /// empty). Instances run concurrently, each through the artifact
    /// cache.
    pub(crate) fn simulate(
        &mut self,
        streams: &[Cow<'_, PatternSeq>],
        config: &FaultSimConfig,
        obs: Obs<'_>,
    ) -> Vec<Option<FaultSimReport>> {
        // Built field by field so the guide and cache borrow beside the
        // mutable ledger.
        let guide = SimGuide {
            dominance: Some(&self.dominance),
            untestable: Some(&self.untestable),
            targets: None,
            order_keys: Some(&self.order_keys),
            levels: Some(&self.levels),
        };
        let cache = CacheCtx {
            store: self.store.as_deref(),
            netlist_key: self.netlist_key,
        };
        self.ledger
            .simulate(&self.netlist, streams, config, obs, guide, &[], cache)
    }

    /// Per-instance detection flags of the shared ledgers.
    pub(crate) fn detection_flags(&self) -> Vec<Vec<bool>> {
        self.ledger.detection_flags()
    }

    /// The shared ledgers' detection stamp of fault `id` on instance `i`
    /// (see [`Ledger::stamp`]).
    pub(crate) fn stamp(&self, i: usize, id: FaultId) -> Option<usize> {
        self.ledger.stamp(i, id)
    }

    /// Fresh fault lists (for standalone evaluations), untestability marks
    /// applied so their coverage uses the same denominator as the shared
    /// lists.
    #[must_use]
    pub fn fresh_lists(&self) -> Vec<FaultList> {
        (0..self.instances())
            .map(|_| {
                let mut l = FaultList::new(&self.universe);
                l.mark_untestable(&self.untestable);
                l
            })
            .collect()
    }

    /// The per-instance pattern streams of this module from a capture.
    #[must_use]
    pub fn streams<'a>(&self, patterns: &'a ModulePatterns) -> Vec<&'a PatternSeq> {
        match self.module {
            ModuleKind::DecoderUnit => vec![&patterns.du],
            ModuleKind::SpCore => patterns.sp.iter().collect(),
            ModuleKind::Sfu => patterns.sfu.iter().collect(),
            ModuleKind::Fp32 => patterns.fp32.iter().collect(),
        }
    }

    /// [`ModuleContext::streams`] with each stream reduced to its
    /// [distinct](PatternSeq::distinct) rows: what a set-level evaluation
    /// simulates. Exact only on a combinational module, where a drop-mode
    /// run's detected set depends on which rows are applied, not on their
    /// order or repeats — every bundled module is (asserted here).
    pub(crate) fn distinct_streams(&self, patterns: &ModulePatterns) -> Vec<PatternSeq> {
        assert!(
            self.netlist.is_combinational(),
            "set-level evaluation needs a combinational module"
        );
        self.streams(patterns)
            .into_iter()
            .map(PatternSeq::distinct)
            .collect()
    }

    /// Aggregate fault coverage across all instances (weighted over the
    /// full universe of every instance), under the active fault model.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.ledger.coverage()
    }

    /// Total faults across instances under the active fault model (the
    /// paper counts the functional units' faults over all 8 SP cores /
    /// 2 SFUs).
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.ledger.total_faults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_fault::fault_simulate_guided;

    #[test]
    fn instances_match_module_kind() {
        let c = ModuleContext::new(ModuleKind::SpCore, ModuleKind::SpCore.instances_per_sm());
        assert_eq!(c.instances(), 8);
        assert_eq!(c.module(), ModuleKind::SpCore);
        assert!(c.total_faults() > 8 * 1000);
    }

    #[test]
    fn streams_select_the_right_capture() {
        let c = ModuleContext::new(ModuleKind::Sfu, 2);
        let caps = ModulePatterns::new(8, 2);
        assert_eq!(c.streams(&caps).len(), 2);
        let c = ModuleContext::new(ModuleKind::DecoderUnit, 1);
        assert_eq!(c.streams(&caps).len(), 1);
    }

    #[test]
    fn context_carries_analysis_products() {
        let c = ModuleContext::new(ModuleKind::DecoderUnit, 1);
        // Bundled modules pass the lint gate.
        assert!(c.analysis().is_clean());
        // Dominance genuinely shrinks the collapsed universe...
        assert!(!c.dominance().is_identity());
        assert!(c.dominance().reduction_ratio() < 1.0);
        // ...and the ordering keys cover every gate.
        assert_eq!(c.order_keys().len(), c.netlist().gates().len());
        let guide = c.sim_guide();
        assert!(guide.dominance.is_some() && guide.order_keys.is_some());
    }

    #[test]
    fn pruning_toggle_leaves_detection_bit_identical() {
        // Pruning is always on, and sound: simulating with the proven
        // untestable classes dropped from the target set detects exactly
        // the same faults, with the same stamps, as simulating them all.
        for module in ModuleKind::ALL {
            let ctx = ModuleContext::new(module, 1);
            let netlist = ctx.netlist();
            let width = netlist.inputs().width();
            let mut patterns = PatternSeq::new(width);
            let mut seed = 0x5eed_0001_u64;
            for cc in 0..48u64 {
                let bits: Vec<bool> = (0..width)
                    .map(|_| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        seed & 1 == 1
                    })
                    .collect();
                patterns.push_bits(cc, &bits);
            }
            let run = |guide: &SimGuide<'_>| {
                let mut list = ctx.fresh_lists().remove(0);
                let report = fault_simulate_guided(
                    netlist,
                    &patterns,
                    &mut list,
                    &FaultSimConfig::default(),
                    None,
                    guide,
                );
                (list.to_report_text(), list.coverage(), report)
            };
            let pruned = ctx.sim_guide();
            assert!(pruned.untestable.is_some());
            let (text_on, cov_on, rep_on) = run(&pruned);
            let (text_off, cov_off, rep_off) = run(&SimGuide {
                untestable: None,
                ..ctx.sim_guide()
            });
            assert_eq!(text_on, text_off, "{module}: fault-list report text");
            assert_eq!(cov_on.to_bits(), cov_off.to_bits(), "{module}: coverage");
            assert_eq!(rep_on.total_detected(), rep_off.total_detected());
            // The pruned run accounts for exactly the proven classes; the
            // unpruned run prunes nothing.
            assert!(ctx.untestable_count() > 0, "{module}: no proofs");
            assert_eq!(rep_on.untestable_count() as usize, ctx.untestable_count());
            assert_eq!(rep_off.untestable_count(), 0);
            let proven = ctx.untestable_bitmap().iter().filter(|&&u| u).count();
            assert_eq!(ctx.untestable_count(), proven);
        }
    }

    #[test]
    fn coverage_averages_instances() {
        let mut c = ModuleContext::new(ModuleKind::DecoderUnit, 1);
        assert_eq!(c.coverage(), 0.0);
        let Ledger::StuckAt(lists) = &mut c.ledger else {
            unreachable!("contexts start under stuck-at")
        };
        lists[0].begin_run();
        for id in 0..lists[0].len() {
            lists[0].mark_detected(id, 0, 0);
        }
        assert!((c.coverage() - 1.0).abs() < 1e-12);
        // A fresh ledger starts from zero again.
        assert_eq!(c.fresh_ledger().coverage(), 0.0);
    }

    #[test]
    fn bridging_model_swaps_the_ledger() {
        let c = ModuleContext::new(ModuleKind::Sfu, 2)
            .with_model(FaultModel::Bridging, &BridgeConfig::default());
        assert!(matches!(&c.ledger, Ledger::Bridging(lists) if lists.len() == 2));
        assert_eq!(c.instances(), 2);
        // Two faults per sampled pair, per instance; no untestable proofs.
        assert_eq!(
            c.total_faults(),
            2 * 2 * BridgeConfig::default().pairs as u64
        );
        assert_eq!(c.untestable_count(), 0);
        let back = c.with_model(FaultModel::StuckAt, &BridgeConfig::default());
        assert!(matches!(back.ledger, Ledger::StuckAt(_)));
        assert!(back.untestable_count() > 0);
    }
}
