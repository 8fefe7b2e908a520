//! Bridging faults: AND/OR-type two-net bridges over a deterministically
//! sampled adjacent-net pair list.
//!
//! A bridging fault shorts two nets `a` and `b` together; the wired value
//! both nets carry is `AND(a, b)` or `OR(a, b)` of the fault-free values
//! (wired-AND / wired-OR). The universe is *sampled*, not exhaustive: real
//! bridge defects couple physically adjacent wires, and without layout data
//! the best structural proxy for adjacency is nets feeding adjacent input
//! pins of the same gate — those routes converge on one cell. The sampler
//! draws a deterministic pseudorandom subset of those candidate pairs (see
//! [`BridgeConfig`]), so universes are reproducible and cacheable.
//!
//! Two restrictions keep single-pass simulation *exact*:
//!
//! - **Combinational only** — wired values have no defined clock semantics
//!   across flip-flops here, so sampling a sequential netlist yields an
//!   empty universe.
//! - **Non-feedback pairs only** — if one net lay in the other's fanout
//!   cone, forcing the wired value would feed back into its own inputs
//!   (potential oscillation). Excluding those pairs means the fault-free
//!   values of `a` and `b` are unaffected by the injection, so
//!   `w = kind(good_a, good_b)` computed from the good machine is the exact
//!   steady-state wired value.
//!
//! A bridge is a [`SiteOverride`]: both endpoints are seed gates and both
//! carry `wired(good_a, good_b)`. Bridging therefore runs on the shared
//! engine — [`fault_simulate`](crate::fault_simulate) and friends, with
//! the same batching, worker threads, 256-bit kernel blocks, and drop-mode
//! narrow probe as every other model — over the generic ledger [`BridgeList`],
//! producing the same [`FaultSimReport`](crate::FaultSimReport). A bridge
//! is *activated* by a pattern when `good_a != good_b` (equal values make
//! the wired value a no-op) and *detected* when the forced evaluation
//! differs from the good machine at a module output.

use std::fmt;

use warpstl_netlist::{Gate, GateKind, NetId, Netlist};

use crate::{FaultList, SiteOverride};

/// The detection ledger for bridging faults: the generic [`FaultList`]
/// instantiated at [`BridgeFault`]. Every fault weighs 1 (bridges carry no
/// equivalence-class collapsing), and coverage/report/serialization behave
/// exactly as for stuck-at lists.
pub type BridgeList = FaultList<BridgeFault>;

/// The wired function of a two-net bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BridgeKind {
    /// Wired-AND: both nets carry `a & b`.
    And,
    /// Wired-OR: both nets carry `a | b`.
    Or,
}

impl BridgeKind {
    /// Both wired functions.
    pub const BOTH: [BridgeKind; 2] = [BridgeKind::And, BridgeKind::Or];

    /// The wired value for fault-free endpoint values `a` and `b`.
    #[must_use]
    pub fn wired(self, a: bool, b: bool) -> bool {
        match self {
            BridgeKind::And => a && b,
            BridgeKind::Or => a || b,
        }
    }

    /// [`wired`](BridgeKind::wired) over lane- or pattern-parallel words.
    #[must_use]
    pub fn wired_word(self, a: u64, b: u64) -> u64 {
        match self {
            BridgeKind::And => a & b,
            BridgeKind::Or => a | b,
        }
    }
}

impl fmt::Display for BridgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BridgeKind::And => "AND",
            BridgeKind::Or => "OR",
        })
    }
}

/// A single two-net bridging fault. Endpoints are normalized `a < b` by the
/// sampler so `(a, b)` and `(b, a)` name the same defect.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{BridgeFault, BridgeKind};
/// use warpstl_netlist::NetId;
///
/// let f = BridgeFault::new(NetId(3), NetId(7), BridgeKind::And);
/// assert_eq!(f.to_string(), "bridge(n3,n7)/AND");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BridgeFault {
    /// The lower-indexed endpoint net.
    pub a: NetId,
    /// The higher-indexed endpoint net.
    pub b: NetId,
    /// The wired function.
    pub kind: BridgeKind,
}

impl BridgeFault {
    /// Creates a bridging fault.
    #[must_use]
    pub fn new(a: NetId, b: NetId, kind: BridgeKind) -> BridgeFault {
        BridgeFault { a, b, kind }
    }
}

impl fmt::Display for BridgeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bridge({},{})/{}", self.a, self.b, self.kind)
    }
}

/// Which fault model a simulation/compaction run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// Single stuck-at faults (the paper's model; the default).
    #[default]
    StuckAt,
    /// Sampled AND/OR two-net bridging faults.
    Bridging,
}

impl FaultModel {
    /// Parses a model name (`stuck-at` or `bridging`, with a few common
    /// spellings), case-insensitively. Returns `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultModel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "stuck-at" | "stuckat" | "stuck_at" | "sa" => Some(FaultModel::StuckAt),
            "bridging" | "bridge" => Some(FaultModel::Bridging),
            _ => None,
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultModel::StuckAt => "stuck-at",
            FaultModel::Bridging => "bridging",
        })
    }
}

/// Configuration of the bridge-pair sampler. Both fields are **cache-key
/// material**: they determine the sampled universe, whose faults
/// `key_fsim` in `warpstl-store` absorbs, and therefore every downstream
/// result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BridgeConfig {
    /// How many candidate net pairs to sample; each pair yields one
    /// wired-AND and one wired-OR fault. Fewer candidates than requested
    /// samples them all.
    pub pairs: usize,
    /// Seed of the deterministic xorshift selection. `0` falls back to a
    /// fixed default so the default config never degenerates.
    pub seed: u64,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig { pairs: 64, seed: 0 }
    }
}

/// A sampled bridging-fault universe over one netlist.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{BridgeConfig, BridgeUniverse};
/// use warpstl_netlist::Builder;
///
/// let mut b = Builder::new("n");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.and(x, y);
/// b.output("z", z);
/// let u = BridgeUniverse::sample(&b.finish(), &BridgeConfig::default());
/// assert_eq!(u.len(), 2); // one adjacent pair, wired-AND + wired-OR
/// let list = u.new_list();
/// assert_eq!(list.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BridgeUniverse {
    faults: Vec<BridgeFault>,
    candidate_pairs: usize,
}

impl BridgeUniverse {
    /// Samples a bridging universe: candidate pairs are the distinct net
    /// pairs feeding *adjacent input pins* of any gate (the structural
    /// adjacency proxy), minus constant nets and feedback pairs (one net in
    /// the other's fanout cone); `config.pairs` of them are selected by a
    /// deterministic xorshift shuffle and emitted in ascending `(a, b)`
    /// order, wired-AND before wired-OR per pair. Sequential netlists yield
    /// an empty universe (bridging simulation is combinational-only).
    #[must_use]
    pub fn sample(netlist: &Netlist, config: &BridgeConfig) -> BridgeUniverse {
        if !netlist.is_combinational() {
            return BridgeUniverse {
                faults: Vec::new(),
                candidate_pairs: 0,
            };
        }
        let mut pairs = adjacent_pairs(netlist);
        retain_non_feedback(netlist, &mut pairs);
        let candidate_pairs = pairs.len();

        let keep = config.pairs.min(pairs.len());
        let mut state = if config.seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            config.seed
        };
        // Partial Fisher-Yates: the first `keep` slots end up holding a
        // uniform sample, then ascending order restores determinism of the
        // fault numbering regardless of the draw order.
        for i in 0..keep {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = i + (state as usize) % (pairs.len() - i);
            pairs.swap(i, j);
        }
        pairs.truncate(keep);
        pairs.sort_unstable();

        let mut faults = Vec::with_capacity(keep * 2);
        for (a, b) in pairs {
            for kind in BridgeKind::BOTH {
                faults.push(BridgeFault::new(a, b, kind));
            }
        }
        BridgeUniverse {
            faults,
            candidate_pairs,
        }
    }

    /// The sampled faults, in ascending `(a, b, kind)` order.
    #[must_use]
    pub fn faults(&self) -> &[BridgeFault] {
        &self.faults
    }

    /// The number of sampled faults (two per sampled pair).
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// How many candidate pairs survived the adjacency/feedback filters
    /// (the sampling pool size, before the `pairs` cut).
    #[must_use]
    pub fn candidate_pairs(&self) -> usize {
        self.candidate_pairs
    }

    /// A fresh unit-weight detection ledger over this universe.
    #[must_use]
    pub fn new_list(&self) -> BridgeList {
        BridgeList::from_faults(self.faults.clone())
    }
}

/// Both endpoints are seeds and both carry the wired value. The sampler
/// admits only non-feedback pairs, so neither endpoint's good value
/// depends on the injection and `wired(good_a, good_b)` is exact.
impl SiteOverride for BridgeFault {
    fn seeds(&self) -> (usize, Option<usize>) {
        (self.a.index(), Some(self.b.index()))
    }

    #[inline]
    fn faulty_word(
        &self,
        _gates: &[Gate],
        good: impl Fn(usize) -> u64,
        _prev: impl Fn(usize) -> u64,
    ) -> u64 {
        self.kind
            .wired_word(good(self.a.index()), good(self.b.index()))
    }

    /// `good_a ^ good_b`: equal endpoint values make the wired value a
    /// no-op.
    #[inline]
    fn activation(
        &self,
        _gates: &[Gate],
        good: impl Fn(usize) -> u64,
        _prev: impl Fn(usize) -> u64,
    ) -> u64 {
        good(self.a.index()) ^ good(self.b.index())
    }
}

/// Every pair of distinct non-constant nets feeding adjacent input pins of
/// one gate, as `(lower, higher)` in ascending order, each once.
fn adjacent_pairs(netlist: &Netlist) -> Vec<(NetId, NetId)> {
    let gates = netlist.gates();
    let is_const = |n: NetId| matches!(gates[n.index()].kind, GateKind::Const0 | GateKind::Const1);
    let mut pairs: Vec<(NetId, NetId)> = Vec::new();
    for g in gates {
        for w in g.inputs().windows(2) {
            let (mut a, mut b) = (w[0], w[1]);
            if a == b || is_const(a) || is_const(b) {
                continue;
            }
            if a.index() > b.index() {
                std::mem::swap(&mut a, &mut b);
            }
            pairs.push((a, b));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The non-feedback filter: drops each `(a, b)` pair whose higher net `b`
/// lies in the fanout cone of `a`. Ascending index is a topological order
/// of combinational logic, so only the lower net's cone can reach the
/// higher net, and every path from `a` to `b` runs through nets between
/// them: a search from `a` that never steps above `b` and stops on
/// reaching it decides each pair. One epoch-stamped visited array serves
/// every pair.
fn retain_non_feedback(netlist: &Netlist, pairs: &mut Vec<(NetId, NetId)>) {
    let cones = netlist.fanout_cones();
    let mut seen = vec![0u32; netlist.gates().len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut epoch = 0u32;
    pairs.retain(|&(a, b)| {
        let (a, b) = (a.index(), b.index());
        epoch += 1;
        seen[a] = epoch;
        stack.clear();
        stack.push(a);
        while let Some(n) = stack.pop() {
            for &s in cones.successors(n) {
                let s = s as usize;
                if s == b {
                    return false;
                }
                if s < b && seen[s] != epoch {
                    seen[s] = epoch;
                    stack.push(s);
                }
            }
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fault_simulate, FaultSimConfig};
    use warpstl_netlist::{Builder, PatternSeq};

    fn small_netlist() -> Netlist {
        let mut b = Builder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let a = b.and(x, y);
        let o = b.or(a, z);
        let q = b.xor(a, o);
        b.output("o", o);
        b.output("q", q);
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
    fn sampling_is_deterministic_and_normalized() {
        let n = small_netlist();
        let cfg = BridgeConfig::default();
        let u1 = BridgeUniverse::sample(&n, &cfg);
        let u2 = BridgeUniverse::sample(&n, &cfg);
        assert_eq!(u1.faults(), u2.faults());
        assert!(!u1.is_empty());
        for f in u1.faults() {
            assert!(f.a.index() < f.b.index(), "{f}");
        }
        // A different seed over a clipped pool can pick a different subset.
        let clipped = BridgeConfig { pairs: 1, seed: 1 };
        let u3 = BridgeUniverse::sample(&n, &clipped);
        assert_eq!(u3.len(), 2);
        assert!(u3.candidate_pairs() >= 1);
    }

    #[test]
    fn sampled_pairs_are_non_feedback() {
        let n = small_netlist();
        let u = BridgeUniverse::sample(&n, &BridgeConfig::default());
        let cones = n.fanout_cones();
        for f in u.faults() {
            assert!(
                cones
                    .union_cone([f.a.index()])
                    .binary_search(&(f.b.index() as u32))
                    .is_err(),
                "feedback pair sampled: {f}"
            );
        }
    }

    #[test]
    fn bounded_search_keeps_the_cone_filter_pairs_on_every_module() {
        for kind in warpstl_netlist::modules::ModuleKind::ALL {
            let n = kind.build();
            let all = adjacent_pairs(&n);
            let cones = n.fanout_cones();
            let expected: Vec<(NetId, NetId)> = all
                .iter()
                .copied()
                .filter(|&(a, b)| {
                    cones
                        .union_cone([a.index()])
                        .binary_search(&(b.index() as u32))
                        .is_err()
                })
                .collect();
            let mut kept = all.clone();
            retain_non_feedback(&n, &mut kept);
            assert_eq!(kept, expected, "{kind}");
            // The filter bites: some adjacent pairs are feedback pairs.
            assert!(kept.len() < all.len(), "{kind}");
        }
    }

    #[test]
    fn sequential_netlists_yield_empty_universe() {
        let mut b = Builder::new("seq");
        let d = b.input("d");
        let q = b.dff(d);
        let o = b.and(d, q);
        b.output("o", o);
        let n = b.finish();
        let u = BridgeUniverse::sample(&n, &BridgeConfig::default());
        assert!(u.is_empty());
        // Simulating the empty list is a no-op that still reports patterns.
        let mut list = u.new_list();
        let r = fault_simulate(&n, &exhaustive(1), &mut list, &FaultSimConfig::default());
        assert_eq!(r.total_detected(), 0);
        assert_eq!(r.patterns().len(), 2);
    }

    #[test]
    fn exhaustive_patterns_detect_bridges() {
        let n = small_netlist();
        let u = BridgeUniverse::sample(&n, &BridgeConfig::default());
        let mut list = u.new_list();
        let r = fault_simulate(&n, &exhaustive(3), &mut list, &FaultSimConfig::default());
        assert!(r.total_detected() > 0, "{r}");
        assert!(list.coverage() > 0.0);
        assert_eq!(list.detected().count() as u32, r.total_detected());
    }

    #[test]
    fn dropping_skips_already_detected() {
        let n = small_netlist();
        let u = BridgeUniverse::sample(&n, &BridgeConfig::default());
        let mut list = u.new_list();
        let cfg = FaultSimConfig::default();
        let r1 = fault_simulate(&n, &exhaustive(3), &mut list, &cfg);
        let r2 = fault_simulate(&n, &exhaustive(3), &mut list, &cfg);
        assert!(r1.total_detected() > 0);
        assert_eq!(r2.total_detected(), 0);
    }

    #[test]
    fn report_text_round_trips_for_bridges() {
        let n = small_netlist();
        let u = BridgeUniverse::sample(&n, &BridgeConfig::default());
        let mut list = u.new_list();
        fault_simulate(&n, &exhaustive(3), &mut list, &FaultSimConfig::default());
        let text = list.to_report_text();
        assert!(text.contains("bridge("), "{text}");
        let mut fresh = u.new_list();
        fresh.apply_report_text(&text).unwrap();
        assert_eq!(fresh.coverage(), list.coverage());
    }

    #[test]
    fn model_parse_round_trips() {
        for m in [FaultModel::StuckAt, FaultModel::Bridging] {
            assert_eq!(FaultModel::parse(&m.to_string()), Some(m));
        }
        assert_eq!(FaultModel::parse("bridge"), Some(FaultModel::Bridging));
        assert_eq!(FaultModel::parse("nope"), None);
    }
}
