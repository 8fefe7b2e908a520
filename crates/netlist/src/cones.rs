//! The fanout successor graph: which gates read each net's value.
//!
//! Three walks run over it, all in `warpstl-fault`. The fault kernel's
//! difference frontier pushes a fault's faulty-vs-good difference from a
//! net to the gates that read it, rank by rank, until the difference dies
//! out. Bridge sampling's non-feedback filter (`retain_non_feedback`)
//! searches forward from a pair's lower net for its higher one. The
//! engine's region table reads each net's successors once per pass: a
//! net with exactly one successor that is not a module output belongs to
//! that reader's fanout-free region, and every other net is a stem.
//!
//! The graph is the *static* gate graph including the D-input edges of
//! flip-flops: a DFF is a successor of its D input.

use crate::Netlist;

/// Precomputed fanout successor graph of a [`Netlist`], in compressed
/// sparse-row form.
///
/// Built once per netlist (O(gates + pins)); each [`FanoutCones::successors`]
/// query is a slice lookup.
///
/// # Examples
///
/// ```
/// use warpstl_netlist::{Builder, FanoutCones};
///
/// let mut b = Builder::new("chain");
/// let a = b.input("a");
/// let x = b.not(a);     // n1
/// let y = b.and(a, x);  // n2
/// b.output("y", y);
/// let n = b.finish();
///
/// let cones = FanoutCones::of(&n);
/// // `a` is read by `x` and `y`, `x` by `y`, and `y` by nothing.
/// assert_eq!(cones.successors(a.index()), [x.index() as u32, y.index() as u32]);
/// assert_eq!(cones.successors(x.index()), [y.index() as u32]);
/// assert!(cones.successors(y.index()).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FanoutCones {
    /// CSR offsets: successors of gate `g` are `succs[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    /// Successor gate indices, grouped by source gate.
    succs: Vec<u32>,
}

impl FanoutCones {
    /// Builds the successor graph of `netlist`.
    #[must_use]
    pub fn of(netlist: &Netlist) -> FanoutCones {
        let gates = netlist.gates();
        let n = gates.len();
        let mut counts = vec![0u32; n + 1];
        for g in gates {
            for &pin in g.inputs() {
                counts[pin.index() + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut next = offsets.clone();
        let mut succs = vec![0u32; offsets[n] as usize];
        for (i, g) in gates.iter().enumerate() {
            for &pin in g.inputs() {
                let slot = next[pin.index()] as usize;
                succs[slot] = i as u32;
                next[pin.index()] += 1;
            }
        }
        FanoutCones { offsets, succs }
    }

    /// The number of gates in the underlying netlist.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the netlist has no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The gates directly reading net `net` (DFFs appear as successors of
    /// their D input).
    #[must_use]
    pub fn successors(&self, net: usize) -> &[u32] {
        &self.succs[self.offsets[net] as usize..self.offsets[net + 1] as usize]
    }
}

impl Netlist {
    /// Builds the [`FanoutCones`] analysis for this netlist.
    #[must_use]
    pub fn fanout_cones(&self) -> FanoutCones {
        FanoutCones::of(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::Builder;

    #[test]
    fn dff_is_a_successor_of_its_d_input() {
        // d -> DFF -> NOT: the DFF reads its D input like any other gate
        // reads a pin, and its readers read its output.
        let mut b = Builder::new("seq");
        let d = b.input("d");
        let q = b.dff(d);
        let z = b.not(q);
        b.output("z", z);
        let n = b.finish();
        let cones = n.fanout_cones();
        assert_eq!(cones.successors(d.index()), [q.index() as u32]);
        assert_eq!(cones.successors(q.index()), [z.index() as u32]);
        assert!(cones.successors(z.index()).is_empty());
    }
}
