//! Fault enumeration and structural equivalence collapsing.

use std::collections::HashMap;

use warpstl_netlist::{GateKind, NetId, Netlist};

use crate::{DominanceView, Fault, FaultId, FaultSite, Polarity};

/// The complete single-stuck-at fault universe of a netlist, collapsed by
/// structural equivalence.
///
/// Enumeration covers every gate output (stem) and every gate input pin
/// (fanout branch), excluding constants. Collapsing applies the classic
/// per-gate equivalences (an AND input stuck-at-0 is indistinguishable from
/// its output stuck-at-0, and so on) plus stem/branch equivalence on
/// fanout-free nets; each surviving representative carries the size of its
/// equivalence class so coverage can be reported over the *full* universe,
/// as fault-injection campaigns do.
///
/// # Examples
///
/// ```
/// use warpstl_fault::FaultUniverse;
/// use warpstl_netlist::Builder;
///
/// let mut b = Builder::new("c");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.and(x, y);
/// b.output("z", z);
/// let u = FaultUniverse::enumerate(&b.finish());
/// assert!(u.collapsed_len() < u.total_len());
/// ```
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    representatives: Vec<Fault>,
    class_sizes: Vec<u32>,
    /// Every enumerated fault mapped to the index of its representative in
    /// `representatives` — the lookup dominance analysis lifts fault-level
    /// relations to class level with.
    rep_of: HashMap<Fault, u32>,
    total: usize,
}

impl FaultUniverse {
    /// Enumerates and collapses the fault universe of `netlist`.
    #[must_use]
    pub fn enumerate(netlist: &Netlist) -> FaultUniverse {
        // 1. Enumerate all sites.
        let mut faults: Vec<Fault> = Vec::new();
        for (i, g) in netlist.gates().iter().enumerate() {
            if matches!(g.kind, GateKind::Const0 | GateKind::Const1) {
                continue;
            }
            let id = NetId(i as u32);
            for pol in Polarity::BOTH {
                faults.push(Fault::new(FaultSite::Output(id), pol));
            }
            for pin in 0..g.kind.arity() as u8 {
                // Pins fed by constants are tied; skip them.
                let src = g.pins[pin as usize];
                if matches!(
                    netlist.gates()[src.index()].kind,
                    GateKind::Const0 | GateKind::Const1
                ) {
                    continue;
                }
                for pol in Polarity::BOTH {
                    faults.push(Fault::new(FaultSite::InputPin(id, pin), pol));
                }
            }
        }
        let total = faults.len();
        let index: HashMap<Fault, usize> =
            faults.iter().enumerate().map(|(i, &f)| (f, i)).collect();

        // 2. Union equivalent faults.
        let mut uf = UnionFind::new(faults.len());
        let mut union = |a: Fault, b: Fault| {
            if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
                uf.union(ia, ib);
            }
        };
        for (i, g) in netlist.gates().iter().enumerate() {
            let id = NetId(i as u32);
            let out = |p| Fault::new(FaultSite::Output(id), p);
            let pin = |k, p| Fault::new(FaultSite::InputPin(id, k), p);
            match g.kind {
                GateKind::And => {
                    union(out(Polarity::Sa0), pin(0, Polarity::Sa0));
                    union(out(Polarity::Sa0), pin(1, Polarity::Sa0));
                }
                GateKind::Nand => {
                    union(out(Polarity::Sa1), pin(0, Polarity::Sa0));
                    union(out(Polarity::Sa1), pin(1, Polarity::Sa0));
                }
                GateKind::Or => {
                    union(out(Polarity::Sa1), pin(0, Polarity::Sa1));
                    union(out(Polarity::Sa1), pin(1, Polarity::Sa1));
                }
                GateKind::Nor => {
                    union(out(Polarity::Sa0), pin(0, Polarity::Sa1));
                    union(out(Polarity::Sa0), pin(1, Polarity::Sa1));
                }
                GateKind::Not => {
                    union(out(Polarity::Sa0), pin(0, Polarity::Sa1));
                    union(out(Polarity::Sa1), pin(0, Polarity::Sa0));
                }
                GateKind::Buf | GateKind::Dff => {
                    union(out(Polarity::Sa0), pin(0, Polarity::Sa0));
                    union(out(Polarity::Sa1), pin(0, Polarity::Sa1));
                }
                _ => {}
            }
            // Stem/branch equivalence on fanout-free nets: the branch fault
            // at this gate's pin is equivalent to the stem fault at the
            // driver.
            for k in 0..g.kind.arity() as u8 {
                let src = g.pins[k as usize];
                if g.kind != GateKind::Dff && netlist.fanout(src) == 1 {
                    for pol in Polarity::BOTH {
                        union(Fault::new(FaultSite::Output(src), pol), pin(k, pol));
                    }
                }
            }
        }

        // 3. Pick representatives (prefer stem faults, then lowest site).
        let mut class_members: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..faults.len() {
            class_members.entry(uf.find(i)).or_default().push(i);
        }
        let mut reps: Vec<(Fault, u32, Vec<usize>)> = class_members
            .into_values()
            .map(|members| {
                let rep = members
                    .iter()
                    .map(|&m| faults[m])
                    .min_by_key(|f| match f.site {
                        FaultSite::Output(n) => (0u8, n, 0u8, f.polarity),
                        FaultSite::InputPin(n, p) => (1u8, n, p, f.polarity),
                    })
                    .expect("non-empty class");
                (rep, members.len() as u32, members)
            })
            .collect();
        reps.sort_by_key(|(f, _, _)| *f);
        let mut representatives = Vec::with_capacity(reps.len());
        let mut class_sizes = Vec::with_capacity(reps.len());
        let mut rep_of = HashMap::with_capacity(faults.len());
        for (idx, (rep, size, members)) in reps.into_iter().enumerate() {
            for m in members {
                rep_of.insert(faults[m], idx as u32);
            }
            representatives.push(rep);
            class_sizes.push(size);
        }
        FaultUniverse {
            representatives,
            class_sizes,
            rep_of,
            total,
        }
    }

    /// The collapsed representative faults, in deterministic order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.representatives
    }

    /// The number of collapsed faults.
    #[must_use]
    pub fn collapsed_len(&self) -> usize {
        self.representatives.len()
    }

    /// The size of the equivalence class represented by fault `i`.
    #[must_use]
    pub fn class_size(&self, i: usize) -> u32 {
        self.class_sizes[i]
    }

    /// The total (uncollapsed) number of faults.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// The collapse ratio (collapsed / total). An empty universe (a
    /// netlist with nothing but constants) has nothing to collapse and
    /// reports `1.0` rather than `0/0 = NaN`.
    #[must_use]
    pub fn collapse_ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.collapsed_len() as f64 / self.total_len() as f64
    }

    /// The id of the equivalence class containing `fault`, or `None` for
    /// faults outside the universe (constant-gate sites and tied pins are
    /// never enumerated).
    #[must_use]
    pub fn rep_of(&self, fault: Fault) -> Option<FaultId> {
        self.rep_of.get(&fault).map(|&i| i as usize)
    }

    /// Layers fault dominance on top of the equivalence classes: a
    /// [`DominanceView`] naming which classes dominance collapsing would
    /// remove because detecting one of their *supporters* implies their
    /// detection. An analysis product: the engine simulates every class.
    /// Identity (nothing removed) for sequential netlists, where
    /// per-pattern dominance does not hold.
    #[must_use]
    pub fn dominance(&self, netlist: &Netlist) -> DominanceView {
        DominanceView::build(self, netlist)
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_netlist::Builder;

    #[test]
    fn inverter_chain_collapses_fully() {
        // x -> NOT -> NOT -> y: all faults collapse onto one chain of
        // equivalences; 2 classes remain per polarity pairing.
        let mut b = Builder::new("chain");
        let x = b.input("x");
        let n1 = b.not(x);
        let n2 = b.not(n1);
        b.output("y", n2);
        let u = FaultUniverse::enumerate(&b.finish());
        // Universe: outputs x,n1,n2 (6) + pins n1.in0, n2.in0 (4) = 10.
        assert_eq!(u.total_len(), 10);
        // All collapse into {x/SA0 ≡ n1.in0/SA0 ≡ n1/SA1 ≡ n2.in0/SA1 ≡ n2/SA0}
        // and the dual class.
        assert_eq!(u.collapsed_len(), 2);
        assert_eq!(u.class_size(0) + u.class_size(1), 10);
    }

    #[test]
    fn and_gate_collapse() {
        let mut b = Builder::new("and");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.and(x, y);
        b.output("z", z);
        let u = FaultUniverse::enumerate(&b.finish());
        // Universe: 3 outputs (6) + 2 pins (4) = 10.
        assert_eq!(u.total_len(), 10);
        // {z/SA0, z.in0/SA0, z.in1/SA0, x/SA0, y/SA0} collapse (pins are
        // fanout-free branches of x and y) -> classes:
        //   {z/SA0, in0/SA0, in1/SA0, x/SA0, y/SA0}, {z/SA1},
        //   {x/SA1 ≡ in0/SA1}, {y/SA1 ≡ in1/SA1}
        assert_eq!(u.collapsed_len(), 4);
        let total: u32 = (0..4).map(|i| u.class_size(i)).sum();
        assert_eq!(total as usize, 10);
    }

    #[test]
    fn fanout_branches_stay_distinct() {
        // x feeds two gates: branch faults must not collapse with the stem.
        let mut b = Builder::new("fan");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.and(x, y);
        let o = b.or(x, y);
        b.output("a", a);
        b.output("o", o);
        let u = FaultUniverse::enumerate(&b.finish());
        // x/SA0 stem must be a distinct representative from a.in0/SA0 and
        // o.in0/SA0 (x has fanout 2).
        let has = |f: Fault| u.faults().contains(&f);
        assert!(has(Fault::new(FaultSite::Output(NetId(0)), Polarity::Sa0)));
        // a's SA0 class absorbed its own pins; but x's branch into `a`
        // collapses into a/SA0 (AND rule), not into x/SA0.
        assert!(u.collapsed_len() > 4);
    }

    #[test]
    fn constants_are_skipped() {
        let mut b = Builder::new("c");
        let x = b.input("x");
        let one = b.const1();
        let z = b.and(x, one);
        b.output("z", z);
        let u = FaultUniverse::enumerate(&b.finish());
        // No fault mentions the constant gate or the pin tied to it.
        for f in u.faults() {
            match f.site {
                FaultSite::Output(n) => assert_ne!(n, NetId(1)),
                FaultSite::InputPin(n, p) => {
                    assert!(!(n == NetId(2) && p == 1), "tied pin fault kept");
                }
            }
        }
    }

    #[test]
    fn empty_universe_has_unit_collapse_ratio() {
        // A netlist of constants only enumerates zero faults; the ratio
        // must be 1.0, not 0/0 = NaN.
        let mut b = Builder::new("consts");
        let k = b.const1();
        b.output("k", k);
        let u = FaultUniverse::enumerate(&b.finish());
        assert_eq!(u.total_len(), 0);
        assert_eq!(u.collapsed_len(), 0);
        assert_eq!(u.collapse_ratio(), 1.0);
    }

    #[test]
    fn not_gate_inverts_equivalence() {
        // NOT: in/SA0 ≡ out/SA1 and in/SA1 ≡ out/SA0 — the pin classes
        // merge with the *opposite* output polarity.
        let mut b = Builder::new("not");
        let x = b.input("x");
        let y = b.not(x);
        b.output("y", y);
        let u = FaultUniverse::enumerate(&b.finish());
        // Universe: x, y outputs (4) + y.in0 (2) = 6; two classes remain.
        assert_eq!(u.total_len(), 6);
        assert_eq!(u.collapsed_len(), 2);
        let rep = |f| u.rep_of(f).expect("in universe");
        let pin = |p| Fault::new(FaultSite::InputPin(NetId(1), 0), p);
        let out = |p| Fault::new(FaultSite::Output(NetId(1)), p);
        assert_eq!(rep(pin(Polarity::Sa0)), rep(out(Polarity::Sa1)));
        assert_eq!(rep(pin(Polarity::Sa1)), rep(out(Polarity::Sa0)));
        assert_ne!(rep(pin(Polarity::Sa0)), rep(pin(Polarity::Sa1)));
    }

    #[test]
    fn xor_and_xnor_pins_do_not_collapse_into_output() {
        // XOR/XNOR have no controlling value: no per-gate equivalence (or
        // dominance) exists, so with shared fanout the pin faults stay
        // distinct classes from the output faults.
        for xnor in [false, true] {
            let mut b = Builder::new(if xnor { "xnor" } else { "xor" });
            let x = b.input("x");
            let y = b.input("y");
            // Give x and y fanout 2 so stem/branch equivalence cannot
            // merge the pins with their drivers either.
            let g = if xnor { b.xnor(x, y) } else { b.xor(x, y) };
            let spare = b.and(x, y);
            b.output("g", g);
            b.output("s", spare);
            let u = FaultUniverse::enumerate(&b.finish());
            let rep = |f| u.rep_of(f).expect("in universe");
            let gate = g;
            for pin in 0..2u8 {
                for pol in Polarity::BOTH {
                    let branch = Fault::new(FaultSite::InputPin(gate, pin), pol);
                    for out_pol in Polarity::BOTH {
                        let stem = Fault::new(FaultSite::Output(gate), out_pol);
                        assert_ne!(
                            rep(branch),
                            rep(stem),
                            "xnor={xnor} pin{pin}/{pol:?} collapsed into output"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rep_of_covers_every_enumerated_fault() {
        let n = warpstl_netlist::modules::ModuleKind::Sfu.build();
        let u = FaultUniverse::enumerate(&n);
        // Representatives map to themselves, at their own index.
        for (i, &f) in u.faults().iter().enumerate() {
            assert_eq!(u.rep_of(f), Some(i));
        }
        // Class sizes and the rep_of map agree on the universe total.
        let sizes: u32 = (0..u.collapsed_len()).map(|i| u.class_size(i)).sum();
        assert_eq!(sizes as usize, u.total_len());
    }

    #[test]
    fn modules_have_plausible_fault_counts() {
        let n = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
        let u = FaultUniverse::enumerate(&n);
        assert!(u.total_len() > 2000, "total {}", u.total_len());
        assert!(u.collapse_ratio() < 0.8, "ratio {}", u.collapse_ratio());
        assert!(u.collapse_ratio() > 0.3, "ratio {}", u.collapse_ratio());
    }
}
