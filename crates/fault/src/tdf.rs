//! Transition-delay faults (the paper's future-work fault model).
//!
//! A transition fault makes a line *slow to rise* or *slow to fall*: it is
//! detected by a pattern **pair** — the first pattern sets the line to the
//! initial value, the second launches the transition and must propagate the
//! stale value to an observable output. Because the compaction method's
//! Fault Sim Report interface is just "detections per clock cycle",
//! [`tdf_simulate`]'s output plugs into the unchanged instruction-labeling
//! and reduction stages.

use warpstl_netlist::{GateKind, NetId, Netlist, PatternSeq};

use crate::{FaultList, FaultSimConfig, FaultSimReport, Polarity};

/// The slow transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Transition {
    /// Slow to rise (behaves as stuck-at-0 during a 0→1 launch).
    SlowToRise,
    /// Slow to fall (behaves as stuck-at-1 during a 1→0 launch).
    SlowToFall,
}

impl Transition {
    /// Both directions.
    pub const BOTH: [Transition; 2] = [Transition::SlowToRise, Transition::SlowToFall];

    /// The stuck value the line presents while the transition is late.
    #[must_use]
    pub fn stale_polarity(self) -> Polarity {
        match self {
            Transition::SlowToRise => Polarity::Sa0,
            Transition::SlowToFall => Polarity::Sa1,
        }
    }
}

impl std::fmt::Display for Transition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transition::SlowToRise => "STR",
            Transition::SlowToFall => "STF",
        })
    }
}

/// A transition-delay fault on a gate-output line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionFault {
    /// The faulted line (stem).
    pub net: NetId,
    /// The slow direction.
    pub transition: Transition,
}

impl std::fmt::Display for TransitionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.net, self.transition)
    }
}

/// The transition-fault ledger: the generic [`FaultList`] over
/// [`TransitionFault`], every fault weighing 1.
///
/// # Examples
///
/// ```
/// use warpstl_fault::tdf::{tdf_simulate, TdfList};
/// use warpstl_fault::FaultSimConfig;
/// use warpstl_netlist::{Builder, PatternSeq};
///
/// let mut b = Builder::new("buf");
/// let x = b.input("x");
/// let y = b.buf(x);
/// b.output("y", y);
/// let n = b.finish();
///
/// let mut list = TdfList::enumerate(&n);
/// let mut p = PatternSeq::new(1);
/// p.push_value(0, 0);
/// p.push_value(1, 1); // launches the rising transition
/// p.push_value(2, 0); // launches the falling transition
/// tdf_simulate(&n, &p, &mut list, &FaultSimConfig::default());
/// assert_eq!(list.coverage(), 1.0);
/// ```
pub type TdfList = FaultList<TransitionFault>;

impl TdfList {
    /// Enumerates both transitions on every gate-output line (constants
    /// excluded: they never transition).
    #[must_use]
    pub fn enumerate(netlist: &Netlist) -> TdfList {
        let mut faults = Vec::new();
        for (i, g) in netlist.gates().iter().enumerate() {
            if matches!(g.kind, GateKind::Const0 | GateKind::Const1) {
                continue;
            }
            for t in Transition::BOTH {
                faults.push(TransitionFault {
                    net: NetId(i as u32),
                    transition: t,
                });
            }
        }
        TdfList::from_faults(faults)
    }
}

/// Runs a transition-delay fault simulation over a timestamped pattern
/// sequence, treating consecutive patterns as launch/capture pairs.
///
/// Uses the same parallel-fault packing as [`fault_simulate`]: the stale
/// value is injected as a stuck-at every cycle, but a detection is credited
/// only when the pattern actually *launches* the slow transition (the good
/// machine moved the line in the fault's direction since the previous
/// pattern).
///
/// # Panics
///
/// Panics if `patterns.width()` differs from the netlist's input width.
///
/// [`fault_simulate`]: crate::fault_simulate
pub fn tdf_simulate(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut TdfList,
    config: &FaultSimConfig,
) -> FaultSimReport {
    assert_eq!(
        patterns.width(),
        netlist.inputs().width(),
        "pattern width must match netlist inputs"
    );
    list.begin_run();
    let mut report = FaultSimReport::new();
    let targets: Vec<usize> = if config.drop_detected {
        list.undetected().collect()
    } else {
        (0..list.len()).collect()
    };
    let n_pat = patterns.len();
    let gates = netlist.gates();
    let out_nets: Vec<usize> = netlist.outputs().nets().iter().map(|n| n.index()).collect();
    let in_nets: Vec<usize> = netlist.inputs().nets().iter().map(|n| n.index()).collect();
    let dff_nets: Vec<usize> = netlist.dffs().iter().map(|n| n.index()).collect();

    let mut values = vec![0u64; gates.len()];
    let mut out_sa0 = vec![0u64; gates.len()];
    let mut out_sa1 = vec![0u64; gates.len()];
    let mut dirty: Vec<usize> = Vec::new();
    let mut detected_per_pattern = vec![0u32; n_pat];
    let mut launched_per_pattern = vec![0u32; n_pat];

    for batch in targets.chunks(63) {
        for d in dirty.drain(..) {
            out_sa0[d] = 0;
            out_sa1[d] = 0;
        }
        for (lane0, &fi) in batch.iter().enumerate() {
            let f = list.fault(fi);
            let bit = 1u64 << (lane0 + 1);
            match f.transition.stale_polarity() {
                Polarity::Sa0 => out_sa0[f.net.index()] |= bit,
                Polarity::Sa1 => out_sa1[f.net.index()] |= bit,
            }
            dirty.push(f.net.index());
        }
        let lanes_mask: u64 = if batch.len() == 63 {
            !1u64
        } else {
            ((1u64 << (batch.len() + 1)) - 1) & !1
        };

        values.fill(0);
        let mut state = vec![0u64; dff_nets.len()];
        let mut detected_mask: u64 = 0;
        let mut prev_site_good: Vec<Option<bool>> = vec![None; batch.len()];

        for t in 0..n_pat {
            for (bit_pos, &net) in in_nets.iter().enumerate() {
                values[net] = if patterns.bit(t, bit_pos) { !0 } else { 0 };
            }
            let mut dff_i = 0;
            for (i, g) in gates.iter().enumerate() {
                let kind = g.kind;
                let mut v = match kind {
                    GateKind::Input => values[i],
                    GateKind::Const0 => 0,
                    GateKind::Const1 => !0,
                    GateKind::Dff => {
                        let s = state[dff_i];
                        dff_i += 1;
                        s
                    }
                    _ => {
                        let p = g.pins;
                        let a = values[p[0].index()];
                        let (b, c) = match kind.arity() {
                            2 => (values[p[1].index()], 0),
                            3 => (values[p[1].index()], values[p[2].index()]),
                            _ => (0, 0),
                        };
                        kind.eval(a, b, c)
                    }
                };
                v = (v & !out_sa0[i]) | out_sa1[i];
                values[i] = v;
            }
            for (k, &q) in dff_nets.iter().enumerate() {
                let d = gates[q].pins[0].index();
                state[k] = values[d];
            }

            let mut diff: u64 = 0;
            for &o in &out_nets {
                let v = values[o];
                let good = (v & 1).wrapping_neg();
                diff |= v ^ good;
            }
            diff &= lanes_mask;

            // Launch gating: credit a lane only if the good machine moved
            // the line in the slow direction since the previous pattern.
            let cc = patterns.cc(t);
            let mut launched = 0u32;
            for (lane0, &fi) in batch.iter().enumerate() {
                let lane_bit = 1u64 << (lane0 + 1);
                if config.drop_detected && detected_mask & lane_bit != 0 {
                    continue;
                }
                let f = list.fault(fi);
                // Good-machine value of the site *with the fault's own lane
                // masked out* equals lane 0 (the stimuli are identical).
                let cur = values[f.net.index()] & 1 == 1;
                let launch = match (prev_site_good[lane0], f.transition) {
                    (Some(false), Transition::SlowToRise) => cur,
                    (Some(true), Transition::SlowToFall) => !cur,
                    _ => false,
                };
                prev_site_good[lane0] = Some(cur);
                if !launch {
                    continue;
                }
                launched += 1;
                if diff & lane_bit != 0 && detected_mask & lane_bit == 0 {
                    list.mark_detected(fi, cc, t);
                    report.record_detection(fi, cc, t);
                    detected_per_pattern[t] += 1;
                    detected_mask |= lane_bit;
                }
            }
            launched_per_pattern[t] += launched;
            if config.drop_detected && config.early_exit && detected_mask == lanes_mask {
                break;
            }
        }
    }

    for t in 0..n_pat {
        report.record_pattern(
            patterns.cc(t),
            launched_per_pattern[t],
            detected_per_pattern[t],
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultStatus;
    use warpstl_netlist::Builder;

    fn and2() -> Netlist {
        let mut b = Builder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.and(x, y);
        b.output("z", z);
        b.finish()
    }

    #[test]
    fn single_pattern_detects_nothing() {
        // Transition faults need pairs: one pattern cannot launch.
        let n = and2();
        let mut list = TdfList::enumerate(&n);
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b11);
        let r = tdf_simulate(&n, &p, &mut list, &FaultSimConfig::default());
        assert_eq!(r.total_detected(), 0);
        assert_eq!(list.coverage(), 0.0);
    }

    #[test]
    fn rising_pair_detects_slow_to_rise() {
        let n = and2();
        let mut list = TdfList::enumerate(&n);
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b01); // z = 0, x = 1, y = 0
        p.push_value(1, 0b11); // z rises, x holds, y rises
        tdf_simulate(&n, &p, &mut list, &FaultSimConfig::default());
        // Detected: z/STR (z rose and the stale 0 is visible) and y/STR
        // (y's rise is what made z rise). x held, so x/STR launched nothing.
        let detected: Vec<String> = (0..list.len())
            .filter(|&i| list.status(i) != FaultStatus::Undetected)
            .map(|i| list.fault(i).to_string())
            .collect();
        assert!(detected.contains(&"n2/STR".to_string()), "{detected:?}");
        assert!(detected.contains(&"n1/STR".to_string()), "{detected:?}");
        assert!(!detected.contains(&"n0/STR".to_string()), "{detected:?}");
        assert!(!detected.iter().any(|d| d.ends_with("STF")));
    }

    #[test]
    fn exhaustive_walk_covers_all_transitions() {
        // A walk that rises and falls every line with propagation.
        let n = and2();
        let mut list = TdfList::enumerate(&n);
        let mut p = PatternSeq::new(2);
        for (cc, v) in [
            (0, 0b01),
            (1, 0b11),
            (2, 0b01),
            (3, 0b10),
            (4, 0b11),
            (5, 0b10),
        ] {
            p.push_value(cc, v);
        }
        tdf_simulate(&n, &p, &mut list, &FaultSimConfig::default());
        assert_eq!(
            list.coverage(),
            1.0,
            "undetected: {:?}",
            list.undetected()
                .map(|i| list.fault(i).to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn detection_stamps_use_the_launch_cycle() {
        let n = and2();
        let mut list = TdfList::enumerate(&n);
        let mut p = PatternSeq::new(2);
        p.push_value(100, 0b01);
        p.push_value(200, 0b11);
        tdf_simulate(&n, &p, &mut list, &FaultSimConfig::default());
        for (i, cc, _, _) in list.detected() {
            assert_eq!(cc, 200, "{}", list.fault(i));
        }
    }

    #[test]
    fn dropping_skips_detected() {
        let n = and2();
        let mut list = TdfList::enumerate(&n);
        let mut p = PatternSeq::new(2);
        for (cc, v) in [
            (0, 0b01),
            (1, 0b11),
            (2, 0b01),
            (3, 0b10),
            (4, 0b11),
            (5, 0b10),
        ] {
            p.push_value(cc, v);
        }
        let cfg = FaultSimConfig::default();
        tdf_simulate(&n, &p, &mut list, &cfg);
        let r2 = tdf_simulate(&n, &p, &mut list, &cfg);
        assert_eq!(r2.total_detected(), 0);
        list.reset();
        assert_eq!(list.coverage(), 0.0);
    }

    #[test]
    fn tdf_coverage_is_harder_than_stuck_at() {
        // On the decoder unit with random patterns, transition coverage
        // trails stuck-at coverage (pairs are harder than single patterns).
        let n = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
        let width = n.inputs().width();
        let mut p = PatternSeq::new(width);
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        for cc in 0..60 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bits: Vec<bool> = (0..width).map(|b| (x >> (b % 64)) & 1 == 1).collect();
            p.push_bits(cc, &bits);
        }
        let mut tdf = TdfList::enumerate(&n);
        tdf_simulate(&n, &p, &mut tdf, &FaultSimConfig::default());

        let u = crate::FaultUniverse::enumerate(&n);
        let mut sa = crate::FaultList::new(&u);
        crate::fault_simulate(&n, &p, &mut sa, &FaultSimConfig::default());
        assert!(
            tdf.coverage() < sa.coverage(),
            "TDF {} >= SA {}",
            tdf.coverage(),
            sa.coverage()
        );
        assert!(tdf.coverage() > 0.05, "TDF {}", tdf.coverage());
    }
}
