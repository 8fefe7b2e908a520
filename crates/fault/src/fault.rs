//! Single stuck-at faults, their sites, and the site-override trait every
//! fault model implements for the shared simulation engine.

use std::fmt;

use warpstl_netlist::{Gate, NetId};

/// The stuck value of a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Polarity {
    /// Stuck-at-0.
    Sa0,
    /// Stuck-at-1.
    Sa1,
}

impl Polarity {
    /// Both polarities.
    pub const BOTH: [Polarity; 2] = [Polarity::Sa0, Polarity::Sa1];

    /// The stuck logic value.
    #[must_use]
    pub fn value(self) -> bool {
        self == Polarity::Sa1
    }

    /// The opposite polarity.
    #[must_use]
    pub fn inverted(self) -> Polarity {
        match self {
            Polarity::Sa0 => Polarity::Sa1,
            Polarity::Sa1 => Polarity::Sa0,
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Polarity::Sa0 => "SA0",
            Polarity::Sa1 => "SA1",
        })
    }
}

/// Where a fault sits: a net (gate-output stem) or a gate input pin
/// (fanout branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The output net of a gate (stem fault).
    Output(NetId),
    /// Input pin `pin` of the gate driving `NetId` (branch fault).
    InputPin(NetId, u8),
}

impl FaultSite {
    /// The gate the site belongs to.
    #[must_use]
    pub fn gate(self) -> NetId {
        match self {
            FaultSite::Output(n) | FaultSite::InputPin(n, _) => n,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Output(n) => write!(f, "{n}"),
            FaultSite::InputPin(n, p) => write!(f, "{n}.in{p}"),
        }
    }
}

/// A single stuck-at fault.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{Fault, FaultSite, Polarity};
/// use warpstl_netlist::NetId;
///
/// let f = Fault::new(FaultSite::Output(NetId(3)), Polarity::Sa1);
/// assert_eq!(f.to_string(), "n3/SA1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fault {
    /// The fault site.
    pub site: FaultSite,
    /// The stuck value.
    pub polarity: Polarity,
}

impl Fault {
    /// Creates a fault.
    #[must_use]
    pub fn new(site: FaultSite, polarity: Polarity) -> Fault {
        Fault { site, polarity }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.site, self.polarity)
    }
}

/// A fault model expressed as a **site override on good-machine words**:
/// the faulty machine equals the good one except at one or two *seed*
/// gates, whose output words the fault replaces with a function of the
/// good words. The levelized kernel consumes exactly this — it forces the
/// seed words and chases the difference frontier from there — so every
/// model implementing the trait shares one engine (batching, threading,
/// guided ordering, tallies, detection merge).
///
/// Words are pattern-parallel: bit `p` of every word is pattern `p` of the
/// block, `good(net)` reads the good-machine word of `net`, and
/// `prev(net)` reads the same word one pattern earlier (bit `p` holds
/// pattern `p − 1`; a stream's first pattern is its own predecessor). The
/// engine is generic over the model (never `dyn`), so each implementation
/// compiles into its own specialized inner loop, and a model that ignores
/// `prev` pays nothing for it.
pub trait SiteOverride: Copy + Send + Sync {
    /// Whether detection reads the previous pattern (`prev`). A model that
    /// does not detects on a row regardless of what precedes it, so the
    /// engine may simulate a row that several module instances apply at
    /// one pattern position once for all of them (the lock-step union of
    /// [`fault_simulate_instances`](crate::fault_simulate_instances)).
    const READS_PREV: bool = false;

    /// The seed gates: the overridden gate, plus a second one for two-site
    /// faults. Two seeds never lie in each other's fanout cone.
    fn seeds(&self) -> (usize, Option<usize>);

    /// The word every seed carries in the faulty machine.
    fn faulty_word(
        &self,
        gates: &[Gate],
        good: impl Fn(usize) -> u64,
        prev: impl Fn(usize) -> u64,
    ) -> u64;

    /// The activation word: the patterns where the override differs from
    /// the good machine at the fault site.
    fn activation(
        &self,
        gates: &[Gate],
        good: impl Fn(usize) -> u64,
        prev: impl Fn(usize) -> u64,
    ) -> u64;
}

impl Fault {
    /// The stuck value broadcast to a full word.
    fn stuck_word(self) -> u64 {
        if self.polarity.value() {
            !0
        } else {
            0
        }
    }
}

impl SiteOverride for Fault {
    fn seeds(&self) -> (usize, Option<usize>) {
        (self.site.gate().index(), None)
    }

    /// A stem fault forces the stuck constant; a branch fault evaluates
    /// its gate with the stuck pin forced (the other inputs are upstream
    /// of the cone, so they carry good values).
    #[inline]
    fn faulty_word(
        &self,
        gates: &[Gate],
        good: impl Fn(usize) -> u64,
        _prev: impl Fn(usize) -> u64,
    ) -> u64 {
        let stuck = self.stuck_word();
        match self.site {
            FaultSite::Output(_) => stuck,
            FaultSite::InputPin(n, p) => {
                let gate = &gates[n.index()];
                let pin = |q: usize| {
                    if q == p as usize {
                        stuck
                    } else {
                        good(gate.pins[q].index())
                    }
                };
                let (b, c) = match gate.kind.arity() {
                    2 => (pin(1), 0),
                    3 => (pin(1), pin(2)),
                    _ => (0, 0),
                };
                gate.kind.eval(pin(0), b, c)
            }
        }
    }

    /// `good ^ stuck` at the site's source net (the driver of a faulted
    /// pin).
    #[inline]
    fn activation(
        &self,
        gates: &[Gate],
        good: impl Fn(usize) -> u64,
        _prev: impl Fn(usize) -> u64,
    ) -> u64 {
        let src = match self.site {
            FaultSite::Output(n) => n.index(),
            FaultSite::InputPin(n, p) => gates[n.index()].pins[p as usize].index(),
        };
        good(src) ^ self.stuck_word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_helpers() {
        assert!(!Polarity::Sa0.value());
        assert!(Polarity::Sa1.value());
        assert_eq!(Polarity::Sa0.inverted(), Polarity::Sa1);
        assert_eq!(Polarity::Sa1.inverted(), Polarity::Sa0);
    }

    #[test]
    fn display_formats() {
        let f = Fault::new(FaultSite::InputPin(NetId(7), 1), Polarity::Sa0);
        assert_eq!(f.to_string(), "n7.in1/SA0");
        assert_eq!(f.site.gate(), NetId(7));
    }

    #[test]
    fn ordering_is_total() {
        let a = Fault::new(FaultSite::Output(NetId(1)), Polarity::Sa0);
        let b = Fault::new(FaultSite::Output(NetId(1)), Polarity::Sa1);
        let c = Fault::new(FaultSite::InputPin(NetId(0), 0), Polarity::Sa0);
        let mut v = vec![b, c, a];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }
}
