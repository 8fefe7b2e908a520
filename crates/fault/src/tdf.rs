//! Transition-delay faults (the paper's future-work fault model).
//!
//! A transition fault makes a line *slow to rise* or *slow to fall*: it is
//! detected by a pattern **pair** — the first pattern sets the line to the
//! initial value, the second launches the transition and must propagate the
//! stale value to an observable output. A [`TransitionFault`] is a
//! [`SiteOverride`], so [`fault_simulate`](crate::fault_simulate) runs a
//! [`TdfList`] on the same kernel, threads and blocks as stuck-at, and its
//! Fault Sim Report — "detections per clock cycle" — plugs into the
//! unchanged instruction-labeling and reduction stages.

use warpstl_netlist::{Gate, GateKind, NetId, Netlist};

use crate::{FaultList, Polarity, SiteOverride};

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
/// use warpstl_fault::tdf::TdfList;
/// use warpstl_fault::{fault_simulate, FaultSimConfig};
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
/// fault_simulate(&n, &p, &mut list, &FaultSimConfig::default());
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

/// On a combinational module a transition fault is a stuck-at at its
/// stale value, gated by the launch mask: the line keeps its previous
/// value exactly where the good machine moves it in the slow direction.
/// Slow-to-rise therefore carries `good & prev` (the line rises only where
/// it was already high) and slow-to-fall `good | prev`; the activation
/// word is the launch mask. A stream's first pattern is its own
/// predecessor, so it never launches.
impl SiteOverride for TransitionFault {
    const READS_PREV: bool = true;

    fn seeds(&self) -> (usize, Option<usize>) {
        (self.net.index(), None)
    }

    #[inline]
    fn faulty_word(
        &self,
        _gates: &[Gate],
        good: impl Fn(usize) -> u64,
        prev: impl Fn(usize) -> u64,
    ) -> u64 {
        let (now, before) = (good(self.net.index()), prev(self.net.index()));
        match self.transition {
            Transition::SlowToRise => now & before,
            Transition::SlowToFall => now | before,
        }
    }

    #[inline]
    fn activation(
        &self,
        _gates: &[Gate],
        good: impl Fn(usize) -> u64,
        prev: impl Fn(usize) -> u64,
    ) -> u64 {
        let (now, before) = (good(self.net.index()), prev(self.net.index()));
        match self.transition {
            Transition::SlowToRise => now & !before,
            Transition::SlowToFall => before & !now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fault_simulate, FaultSimConfig, FaultStatus};
    use warpstl_netlist::{Builder, PatternSeq};

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
        let r = fault_simulate(&n, &p, &mut list, &FaultSimConfig::default());
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
        fault_simulate(&n, &p, &mut list, &FaultSimConfig::default());
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
        fault_simulate(&n, &p, &mut list, &FaultSimConfig::default());
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
        fault_simulate(&n, &p, &mut list, &FaultSimConfig::default());
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
        fault_simulate(&n, &p, &mut list, &cfg);
        let r2 = fault_simulate(&n, &p, &mut list, &cfg);
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
        fault_simulate(&n, &p, &mut tdf, &FaultSimConfig::default());

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
