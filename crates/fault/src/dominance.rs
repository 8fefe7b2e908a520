//! Fault dominance layered on the equivalence classes of a
//! [`FaultUniverse`].
//!
//! Fault *f* dominates fault *g* when every test detecting *g* also
//! detects *f*. The classic per-gate rules (for single-pattern,
//! combinational detection):
//!
//! | gate | removed dominator | supporters |
//! |------|-------------------|------------|
//! | AND  | output SA1        | each input-pin SA1 |
//! | OR   | output SA0        | each input-pin SA0 |
//! | NAND | output SA0        | each input-pin SA1 |
//! | NOR  | output SA1        | each input-pin SA0 |
//!
//! (A test for AND pin-a SA1 sets `a = 0` with the other pin non-masking,
//! which drives the good output to 0 and the faulty output to 1 — exactly
//! the difference output SA1 produces, propagated the same way.)
//!
//! Equivalent faults have identical test sets, so the relation lifts
//! soundly to the equivalence classes of the universe: class *F*
//! dominates class *G* iff any members do.
//!
//! The view is an analysis product: `warpstl analyze` prints it. The
//! fault engine simulates every class, so each detection carries the
//! class's own first-detection stamp.
//!
//! Dominance is **per-pattern** reasoning: with state, the dominator's
//! faulty machine and the supporter's faulty machine diverge over time.
//! Sequential netlists therefore get the identity view (nothing removed).

use warpstl_netlist::{GateKind, NetId, Netlist};

use crate::{Fault, FaultId, FaultSite, FaultUniverse, Polarity};

/// The dominance relation over a [`FaultUniverse`]'s equivalence classes:
/// which classes are *dominated* (removed by dominance collapsing, because
/// detecting any of their supporters implies their detection), with their
/// supporters, and which are not.
///
/// # Examples
///
/// ```
/// use warpstl_fault::FaultUniverse;
/// use warpstl_netlist::Builder;
///
/// let mut b = Builder::new("and2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.and(x, y);
/// b.output("z", z);
/// let n = b.finish();
/// let u = FaultUniverse::enumerate(&n);
/// let dom = u.dominance(&n);
/// // z/SA1 is dominated by the pin SA1 faults: one class drops out.
/// assert_eq!(dom.removed().len(), 1);
/// assert_eq!(dom.direct().len() + dom.removed().len(), u.collapsed_len());
/// ```
#[derive(Debug, Clone)]
pub struct DominanceView {
    /// `supporters[id]`: class ids whose detection implies `id`'s
    /// detection. Empty for direct classes.
    supporters: Vec<Vec<FaultId>>,
    /// Class ids with no supporters.
    direct: Vec<FaultId>,
    /// Class ids with supporters.
    removed: Vec<FaultId>,
}

impl DominanceView {
    /// Builds the view for `universe` over `netlist` (the netlist the
    /// universe was enumerated from). Sequential netlists yield the
    /// identity view.
    pub(crate) fn build(universe: &FaultUniverse, netlist: &Netlist) -> DominanceView {
        let n = universe.collapsed_len();
        let mut supporters: Vec<Vec<FaultId>> = vec![Vec::new(); n];
        if netlist.is_combinational() {
            for (i, g) in netlist.gates().iter().enumerate() {
                let id = NetId(i as u32);
                let (out_pol, pin_pol) = match g.kind {
                    GateKind::And => (Polarity::Sa1, Polarity::Sa1),
                    GateKind::Or => (Polarity::Sa0, Polarity::Sa0),
                    GateKind::Nand => (Polarity::Sa0, Polarity::Sa1),
                    GateKind::Nor => (Polarity::Sa1, Polarity::Sa0),
                    _ => continue,
                };
                let dom = universe.rep_of(Fault::new(FaultSite::Output(id), out_pol));
                let Some(dom) = dom else { continue };
                for pin in 0..g.kind.arity() as u8 {
                    let sup = universe.rep_of(Fault::new(FaultSite::InputPin(id, pin), pin_pol));
                    // Tied pins are not enumerated; a supporter equal to
                    // the dominator (merged by equivalence elsewhere)
                    // carries no information.
                    let Some(sup) = sup else { continue };
                    if sup != dom && !supporters[dom].contains(&sup) {
                        supporters[dom].push(sup);
                    }
                }
            }
        }
        let mut direct = Vec::new();
        let mut removed = Vec::new();
        for (id, sups) in supporters.iter().enumerate() {
            if sups.is_empty() {
                direct.push(id);
            } else {
                removed.push(id);
            }
        }
        DominanceView {
            supporters,
            direct,
            removed,
        }
    }

    /// Class ids no other class dominates, ascending.
    #[must_use]
    pub fn direct(&self) -> &[FaultId] {
        &self.direct
    }

    /// Removed dominator class ids, ascending.
    #[must_use]
    pub fn removed(&self) -> &[FaultId] {
        &self.removed
    }

    /// The supporters of class `id`: detection of any one implies `id`'s
    /// detection. Empty for direct classes.
    #[must_use]
    pub fn supporters(&self, id: FaultId) -> &[FaultId] {
        &self.supporters[id]
    }

    /// Fraction of classes dominance collapsing keeps (1.0 when nothing
    /// is dominated).
    #[must_use]
    pub fn reduction_ratio(&self) -> f64 {
        let total = self.supporters.len();
        if total == 0 {
            return 1.0;
        }
        self.direct.len() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_netlist::Builder;

    #[test]
    fn and_output_sa1_is_dominated_by_pin_sa1() {
        let mut b = Builder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.and(x, y);
        b.output("z", z);
        let n = b.finish();
        let u = FaultUniverse::enumerate(&n);
        let dom = u.dominance(&n);
        let z_sa1 = u
            .rep_of(Fault::new(FaultSite::Output(z), Polarity::Sa1))
            .unwrap();
        assert_eq!(dom.removed(), &[z_sa1]);
        assert_eq!(dom.supporters(z_sa1).len(), 2);
        for &s in dom.supporters(z_sa1) {
            assert!(
                dom.supporters(s).is_empty(),
                "supporter must be direct here"
            );
        }
        assert!(!dom.removed().is_empty());
        assert!(dom.reduction_ratio() < 1.0);
    }

    #[test]
    fn xor_gates_produce_no_dominance() {
        let mut b = Builder::new("xor2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.xor(x, y);
        b.output("z", z);
        let n = b.finish();
        let u = FaultUniverse::enumerate(&n);
        let dom = u.dominance(&n);
        assert!(dom.removed().is_empty());
        assert_eq!(dom.direct().len(), u.collapsed_len());
        assert_eq!(dom.reduction_ratio(), 1.0);
    }

    #[test]
    fn sequential_netlists_get_identity_view() {
        let mut b = Builder::new("seq");
        let x = b.input("x");
        let q = b.dff_placeholder();
        let z = b.and(x, q);
        b.connect_dff(q, z);
        b.output("z", z);
        let n = b.finish();
        assert!(!n.is_combinational());
        let u = FaultUniverse::enumerate(&n);
        let dom = u.dominance(&n);
        assert!(dom.removed().is_empty());
        assert_eq!(dom.direct().len(), u.collapsed_len());
    }

    #[test]
    fn module_dominance_removes_classes() {
        for kind in warpstl_netlist::modules::ModuleKind::ALL {
            let n = kind.build();
            let u = FaultUniverse::enumerate(&n);
            let dom = u.dominance(&n);
            assert_eq!(
                dom.direct().len() + dom.removed().len(),
                u.collapsed_len(),
                "{}",
                kind.name()
            );
            assert!(
                !dom.removed().is_empty(),
                "{}: bundled modules all contain AND/OR logic",
                kind.name()
            );
            assert!(
                dom.reduction_ratio() < 0.95,
                "{}: ratio {}",
                kind.name(),
                dom.reduction_ratio()
            );
            // Supporters are always real class ids.
            for &r in dom.removed() {
                for &s in dom.supporters(r) {
                    assert!(s < u.collapsed_len());
                    assert_ne!(s, r);
                }
            }
        }
    }
}
