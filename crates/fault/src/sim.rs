//! Parallel fault simulation over pattern sequences.

use warpstl_netlist::{Levelization, Netlist, PatternSeq};

use crate::{FaultList, FaultSimReport, SiteOverride};

/// Configuration of a fault-simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSimConfig {
    /// Simulate only still-undetected faults and record first detections
    /// (the paper's fault-dropping mode). When `false`, every fault is
    /// simulated across the whole sequence and the per-pattern report counts
    /// *all* faults observed at each cycle, not just new ones.
    pub drop_detected: bool,
    /// Worker threads for batch-level parallelism. `0` (the default) means
    /// auto: the `WARPSTL_THREADS` environment variable if set, otherwise
    /// the machine's available parallelism. Requests beyond the host's
    /// available parallelism are clamped to it (oversubscription only adds
    /// scheduling overhead), and results are bit-identical for every
    /// thread count.
    pub threads: usize,
}

impl FaultSimConfig {
    /// The worker count this configuration resolves to: `threads` if
    /// nonzero, else `WARPSTL_THREADS`, else the machine's available
    /// parallelism — clamped to the host's available parallelism in every
    /// case. Callers running several simulations concurrently can use this
    /// to split the budget across them.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        crate::engine::resolve_threads(self)
    }
}

impl Default for FaultSimConfig {
    fn default() -> Self {
        FaultSimConfig {
            drop_detected: true,
            threads: 0,
        }
    }
}

/// Static-analysis guidance for a fault-simulation run — the bridge from
/// `warpstl-analyze` to the engine without a crate dependency: the
/// analyzer's untestability proofs travel as a plain per-fault slice.
///
/// Every field is optional and independent; the default (all `None`)
/// makes [`fault_simulate_guided`] behave exactly like [`fault_simulate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimGuide<'a> {
    /// Per-fault untestability bitmap, indexed by [`FaultId`](crate::FaultId): classes the
    /// static implication engine proved redundant are excluded from the
    /// target list entirely — they can never be detected, so the detected
    /// set is bit-identical to the unpruned run while the engine skips
    /// their batches. Because the *pattern tallies* of the report change
    /// with the target set, this field participates in cache keys
    /// (`key_fsim`), unlike `levels`.
    pub untestable: Option<&'a [bool]>,
    /// Per-fault target mask, indexed by [`FaultId`](crate::FaultId): the run simulates
    /// only the faults flagged here (intersected with the undetected and
    /// the testable ones), so its detected set is the unmasked run's
    /// detected set restricted to the mask, and the report's untestable
    /// row counts only masked-in untestable faults. Entries beyond the
    /// slice are masked out. Every fault model honors it. Like
    /// `untestable`, the mask changes the report, so its content is key
    /// material (`key_fsim`).
    pub targets: Option<&'a [bool]>,
    /// Precomputed [`Levelization`] of the netlist (rank-major SoA layout
    /// for the levelized kernel). Purely an accelerator: when `None` the
    /// engine levelizes on demand, and the results are identical either
    /// way, so — unlike the fields above — this never enters cache
    /// keys. Callers holding a `ModuleContext` pass its cached copy.
    pub levels: Option<&'a Levelization>,
}

impl<'a> SimGuide<'a> {
    /// Instance `i`'s guide in a call over a module's instances
    /// ([`fault_simulate_instances`]): this guide with `targets[i]` as its
    /// target mask when present, else with its own.
    #[must_use]
    pub fn for_instance(&self, targets: &[Option<&'a [bool]>], i: usize) -> SimGuide<'a> {
        SimGuide {
            targets: targets.get(i).copied().flatten().or(self.targets),
            ..*self
        }
    }

    /// Whether a run over `stream` under this guide has anything to
    /// simulate: the stream is not empty and the target mask, if any,
    /// selects a fault. [`fault_simulate_instances`] runs exactly the
    /// instances for which this holds.
    #[must_use]
    pub fn runs_over(&self, stream: &PatternSeq) -> bool {
        !stream.is_empty() && self.targets.is_none_or(|m| m.contains(&true))
    }
}

/// Runs one fault simulation of `patterns` against `netlist`, updating
/// `list` and returning the per-pattern Fault Sim Report.
///
/// The engine is generic over the fault model ([`SiteOverride`]): the
/// ledger may hold stuck-at [`Fault`](crate::Fault)s,
/// [`BridgeFault`](crate::BridgeFault)s or
/// [`TransitionFault`](crate::tdf::TransitionFault)s. Discrepancies are
/// observed at the module outputs — the paper's *module-level fault
/// observability*.
///
/// Fault batches are independent, so the engine fans them out over
/// [`FaultSimConfig::threads`] workers, each running the levelized kernel
/// (see [`crate::engine`]); the report is bit-identical for every thread
/// count. This is [`fault_simulate_guided`] with no observability handle
/// and the default guide.
///
/// # Panics
///
/// Panics if `patterns.width()` differs from the netlist's input width, or
/// if the netlist is sequential and the list is not empty: the kernel
/// carries no flip-flop state across patterns. Every bundled module is
/// combinational, and [`BridgeUniverse::sample`](crate::BridgeUniverse::sample)
/// returns an empty universe for sequential netlists.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse};
/// use warpstl_netlist::{Builder, PatternSeq};
///
/// let mut b = Builder::new("xor2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.xor(x, y);
/// b.output("z", z);
/// let n = b.finish();
///
/// let universe = FaultUniverse::enumerate(&n);
/// let mut list = FaultList::new(&universe);
/// let mut pats = PatternSeq::new(2);
/// for (cc, v) in [(0, 0b00), (1, 0b01), (2, 0b10), (3, 0b11)] {
///     pats.push_value(cc, v);
/// }
/// let report = fault_simulate(&n, &pats, &mut list, &FaultSimConfig::default());
/// assert_eq!(list.coverage(), 1.0); // exhaustive patterns test XOR fully
/// assert_eq!(report.total_detected() as usize, list.len());
/// ```
pub fn fault_simulate<F: SiteOverride>(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList<F>,
    config: &FaultSimConfig,
) -> FaultSimReport {
    fault_simulate_guided(netlist, patterns, list, config, None, &SimGuide::default())
}

/// [`fault_simulate`] with an observability handle and guidance: a
/// [`SimGuide`] carrying an optional untestability bitmap, target mask and
/// cached levelization.
///
/// When `obs` is `Some(recorder)`, the engine emits `fsim.run` /
/// `fsim.worker` / `fsim.kernel` spans and its internal counters (batches,
/// fault blocks, cone gates, detections, activations) into the recorder;
/// the disabled path reads no clock and takes no lock. With `None` and
/// [`SimGuide::default`] this is exactly [`fault_simulate`].
///
/// Every target is simulated in one pass, so each detected fault carries
/// its own first-detection stamp. Pruning proven-untestable faults leaves
/// the detected set and every stamp unchanged (the proofs are sound); a
/// target mask restricts the detected set to the mask.
///
/// # Panics
///
/// As [`fault_simulate`].
///
/// # Examples
///
/// ```
/// use warpstl_fault::{
///     fault_simulate_guided, FaultList, FaultSimConfig, FaultUniverse, SimGuide,
/// };
/// use warpstl_netlist::{Builder, PatternSeq};
///
/// let mut b = Builder::new("and2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.and(x, y);
/// b.output("z", z);
/// let n = b.finish();
///
/// let universe = FaultUniverse::enumerate(&n);
/// let mut list = FaultList::new(&universe);
/// let mut pats = PatternSeq::new(2);
/// for (cc, v) in [(0, 0b11), (1, 0b01), (2, 0b10)] {
///     pats.push_value(cc, v);
/// }
/// // These patterns detect every fault; the mask keeps the first half.
/// let mask: Vec<bool> = (0..list.len()).map(|id| 2 * id < list.len()).collect();
/// let guide = SimGuide { targets: Some(&mask), ..SimGuide::default() };
/// fault_simulate_guided(&n, &pats, &mut list, &FaultSimConfig::default(), None, &guide);
/// assert_eq!(list.detection_flags(), mask);
/// ```
pub fn fault_simulate_guided<F: SiteOverride>(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList<F>,
    config: &FaultSimConfig,
    obs: warpstl_obs::Obs<'_>,
    guide: &SimGuide<'_>,
) -> FaultSimReport {
    crate::engine::simulate_guided::<F, { crate::kernel::BLOCK_WORDS }>(
        netlist, patterns, list, config, obs, guide,
    )
}

/// Fault-simulates a module's instances: one pattern stream per instance
/// against that instance's list, instance `i` restricted to `targets[i]`
/// when present (missing entries take `guide.targets`, so `&[]` with the
/// default guide masks nothing), everything else from `guide`. Returns
/// one report per instance, in instance order: `None` where the stream is
/// empty or the mask selects no fault, and that list untouched.
///
/// Every report and list is `==` to what
/// [`fault_simulate_guided`] produces for that instance alone, for every
/// thread count. In drop mode, for a model that does not read the previous
/// pattern ([`SiteOverride::READS_PREV`]), a module whose instances apply
/// the same rows at the same positions (the SM's lock-step lanes) is
/// simulated in one pass over the union of those rows, which settles each
/// instance's first detections and tallies its activations; each report
/// and list is then written from that pass without further simulation.
/// The union runs when at least two instances have something to simulate
/// and it removes at least half of their rows. Otherwise the instances run
/// alone, concurrently, the thread budget split across them.
///
/// # Panics
///
/// Panics if `streams` and `lists` differ in length, if the lists differ
/// in length (a module's instances share one fault universe), or as
/// [`fault_simulate`] for any instance's run.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{
///     fault_simulate_guided, fault_simulate_instances, FaultList, FaultSimConfig,
///     FaultUniverse, SimGuide,
/// };
/// use warpstl_netlist::{Builder, PatternSeq};
///
/// let mut b = Builder::new("and2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.and(x, y);
/// b.output("z", z);
/// let n = b.finish();
/// let universe = FaultUniverse::enumerate(&n);
///
/// // Three lanes that agree on every row but the first: 6 distinct
/// // (position, row) pairs among 12 rows, so the union pass runs.
/// let lanes: Vec<PatternSeq> = (0..3u64)
///     .map(|lane| {
///         let mut p = PatternSeq::new(2);
///         for (cc, v) in [lane, 0b11, 0b10, 0b01].into_iter().enumerate() {
///             p.push_value(cc as u64, v);
///         }
///         p
///     })
///     .collect();
/// let streams: Vec<&PatternSeq> = lanes.iter().collect();
/// let config = FaultSimConfig::default();
/// let guide = SimGuide::default();
/// let mut lists = vec![FaultList::new(&universe); 3];
/// let reports = fault_simulate_instances(&n, &streams, &mut lists, &config, None, &guide, &[]);
///
/// // Byte-identical to simulating each lane alone.
/// for ((stream, list), report) in streams.iter().zip(&lists).zip(&reports) {
///     let mut alone = FaultList::new(&universe);
///     let expected = fault_simulate_guided(&n, stream, &mut alone, &config, None, &guide);
///     assert_eq!(report.as_ref(), Some(&expected));
///     assert_eq!(list.to_report_text(), alone.to_report_text());
/// }
/// ```
pub fn fault_simulate_instances<F: SiteOverride>(
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: warpstl_obs::Obs<'_>,
    guide: &SimGuide<'_>,
    targets: &[Option<&[bool]>],
) -> Vec<Option<FaultSimReport>> {
    crate::lockstep::simulate_instances(netlist, streams, lists, config, obs, guide, targets)
}

/// The set-level sibling of [`fault_simulate_instances`]: the same
/// arguments, but only the lists change and no report is built. Every
/// running instance's list ends `==` to what [`fault_simulate_guided`]
/// leaves over that instance's whole stream (one new run, first detections
/// stamped at their positions in that stream), for every thread count.
///
/// In drop mode on a combinational module an instance first detects a
/// fault at the first occurrence of its first detecting row, so the call
/// simulates one pass over the rows the instances apply *first*, grouped
/// by value at each position: repeats are skipped and lock-step lanes
/// share their rows, whatever the instance count (instances beyond 64 are
/// detected in groups of at most 64). This is the standalone evaluation's
/// simulation: its coverages need detected sets, not tallies.
///
/// # Panics
///
/// As [`fault_simulate_instances`], and if `config` is not in drop mode or
/// the model reads the previous pattern ([`SiteOverride::READS_PREV`]):
/// first detections then depend on repeats and order.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{
///     fault_detect_instances, fault_simulate_guided, FaultList, FaultSimConfig, FaultUniverse,
///     SimGuide,
/// };
/// use warpstl_netlist::{Builder, PatternSeq};
///
/// let mut b = Builder::new("and2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.and(x, y);
/// b.output("z", z);
/// let n = b.finish();
/// let universe = FaultUniverse::enumerate(&n);
///
/// // Two lanes that repeat their rows.
/// let lanes: Vec<PatternSeq> = (0..2u64)
///     .map(|lane| {
///         let mut p = PatternSeq::new(2);
///         for (cc, v) in [lane, 0b11, lane, 0b10, 0b11, 0b01].into_iter().enumerate() {
///             p.push_value(cc as u64, v);
///         }
///         p
///     })
///     .collect();
/// let streams: Vec<&PatternSeq> = lanes.iter().collect();
/// let config = FaultSimConfig::default();
/// let guide = SimGuide::default();
/// let mut lists = vec![FaultList::new(&universe); 2];
/// fault_detect_instances(&n, &streams, &mut lists, &config, None, &guide, &[]);
///
/// // The same stamps as simulating each whole lane alone.
/// for (stream, list) in streams.iter().zip(&lists) {
///     let mut alone = FaultList::new(&universe);
///     fault_simulate_guided(&n, stream, &mut alone, &config, None, &guide);
///     assert_eq!(list.to_report_text(), alone.to_report_text());
/// }
/// ```
pub fn fault_detect_instances<F: SiteOverride>(
    netlist: &Netlist,
    streams: &[&PatternSeq],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: warpstl_obs::Obs<'_>,
    guide: &SimGuide<'_>,
    targets: &[Option<&[bool]>],
) {
    crate::lockstep::detect_instances(netlist, streams, lists, config, obs, guide, targets);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultUniverse;
    use warpstl_netlist::Builder;

    fn and2() -> Netlist {
        let mut b = Builder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.and(x, y);
        b.output("z", z);
        b.finish()
    }

    fn exhaustive(width: usize) -> PatternSeq {
        let mut p = PatternSeq::new(width);
        for v in 0..(1u64 << width) {
            p.push_value(v, v);
        }
        p
    }

    #[test]
    fn exhaustive_patterns_reach_full_coverage() {
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let r = fault_simulate(&n, &exhaustive(2), &mut l, &FaultSimConfig::default());
        assert_eq!(l.coverage(), 1.0, "{l}");
        assert_eq!(r.total_detected() as usize, u.collapsed_len());
    }

    #[test]
    fn single_pattern_detects_expected_subset() {
        // x=1, y=1 detects z/SA0 (and its class) but not x/SA1 etc.
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b11);
        fault_simulate(&n, &p, &mut l, &FaultSimConfig::default());
        assert!(l.coverage() > 0.0 && l.coverage() < 1.0);
        // The detected class is the big SA0 class (5 of 10 faults).
        assert!((l.coverage() - 0.5).abs() < 1e-9, "{}", l.coverage());
    }

    #[test]
    fn dropping_skips_already_detected() {
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let cfg = FaultSimConfig::default();
        let r1 = fault_simulate(&n, &exhaustive(2), &mut l, &cfg);
        assert!(r1.total_detected() > 0);
        // Second run with dropping: nothing left to detect.
        let r2 = fault_simulate(&n, &exhaustive(2), &mut l, &cfg);
        assert_eq!(r2.total_detected(), 0);
    }

    #[test]
    fn non_dropping_counts_every_observation() {
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let cfg = FaultSimConfig {
            drop_detected: false,
            ..FaultSimConfig::default()
        };
        // Two identical detecting patterns: both report detections.
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b11);
        p.push_value(1, 0b11);
        let r = fault_simulate(&n, &p, &mut l, &cfg);
        assert_eq!(r.patterns()[0].detected, r.patterns()[1].detected);
        assert!(r.patterns()[1].detected > 0);
    }

    #[test]
    fn detections_carry_cc_stamps() {
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let mut p = PatternSeq::new(2);
        p.push_value(100, 0b00);
        p.push_value(200, 0b11);
        fault_simulate(&n, &p, &mut l, &FaultSimConfig::default());
        for (_, cc, _, _) in l.detected() {
            assert!(cc == 100 || cc == 200);
        }
        // The SA0 class is detected by the second pattern.
        let at_200 = l.detected().filter(|&(_, cc, _, _)| cc == 200).count();
        assert!(at_200 >= 1);
    }

    #[test]
    #[should_panic(expected = "combinational")]
    fn sequential_netlists_are_rejected() {
        // The kernel carries no flip-flop state across patterns, so a
        // sequential netlist with faults to simulate is a precondition
        // violation, not a silent wrong answer.
        let mut b = Builder::new("ff");
        let d = b.input("d");
        let q = b.dff(d);
        b.output("q", q);
        let n = b.finish();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        fault_simulate(&n, &exhaustive(1), &mut l, &FaultSimConfig::default());
    }

    #[test]
    fn activation_without_propagation_is_counted() {
        // z = AND(x, y); pattern x=1,y=0 activates z/SA1? good z=0, so z/SA1
        // activated and detected; x/SA0 activated (x=1) and... masked by y=0.
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b01); // x=1, y=0
        let r = fault_simulate(&n, &p, &mut l, &FaultSimConfig::default());
        let stats = r.patterns()[0];
        assert!(stats.activated > stats.detected, "{stats:?}");
    }

    #[test]
    fn large_module_batches_are_consistent() {
        // >63 faults forces multiple batches; drop mode coverage must equal
        // the union of per-batch detections.
        let n = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
        let u = FaultUniverse::enumerate(&n);
        assert!(u.collapsed_len() > 63);
        let mut l = FaultList::new(&u);
        let width = n.inputs().width();
        let mut p = PatternSeq::new(width);
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for cc in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bits: Vec<bool> = (0..width).map(|b| (x >> (b % 64)) & 1 == 1).collect();
            p.push_bits(cc, &bits);
        }
        let r = fault_simulate(&n, &p, &mut l, &FaultSimConfig::default());
        let listed = l.detected().count() as u32;
        assert_eq!(listed, r.total_detected());
        assert!(l.coverage() > 0.1, "{l}");
    }
}
