//! SCOAP testability measures: controllability and observability per net.
//!
//! The classic Sandia Controllability/Observability Analysis Program
//! metrics (Goldstein 1979), computed structurally in two linear passes
//! over the netlist:
//!
//! - **CC0/CC1** (combinational 0/1-controllability): a lower bound on how
//!   many pin assignments it takes to drive a net to 0/1. Primary inputs
//!   cost 1; every gate adds 1 plus the cost of justifying its inputs.
//! - **CO** (combinational observability): how many pin assignments it
//!   takes to propagate a net's value to a primary output. Outputs cost 0;
//!   side pins must be set to non-controlling values, paid for with their
//!   controllabilities.
//!
//! Creation order is a topological order of the combinational logic, so
//! one ascending pass computes controllability and one descending pass
//! computes observability. Sequential feedback (DFF `d` pins referencing
//! later nets) is approximated, not iterated to a fixpoint: a forward
//! reference reads [`Scoap::INF`] and a flip-flop adds one time-frame
//! cost. The paper's modules are purely combinational, where the passes
//! are exact.
//!
//! High CO = hard to observe; the CLI's analyze summary reports it. PODEM
//! picks the cheapest-to-justify pin by CC.

use warpstl_netlist::{GateKind, NetId, Netlist};

/// Per-net SCOAP scores for one netlist.
///
/// # Examples
///
/// ```
/// use warpstl_analyze::Scoap;
/// use warpstl_netlist::Builder;
///
/// let mut b = Builder::new("c");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.and(x, y);
/// b.output("z", z);
/// let n = b.finish();
/// let s = Scoap::compute(&n);
/// // AND output: 1 to set either input to 0, plus the gate's own level.
/// assert_eq!(s.cc0(z), 2);
/// // ...but both inputs must be 1 for a 1 at the output.
/// assert_eq!(s.cc1(z), 3);
/// // The output is directly observable.
/// assert_eq!(s.co(z), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

/// Saturating sum, so [`Scoap::INF`] is absorbing.
fn add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

/// Saturating three-way sum.
fn add3(a: u32, b: u32, c: u32) -> u32 {
    a.saturating_add(b).saturating_add(c)
}

impl Scoap {
    /// The sentinel for "not controllable/observable from here": constant
    /// nets' impossible value, nets cut off from every output, and
    /// unresolved sequential feedback.
    pub const INF: u32 = u32::MAX;

    /// Computes the scores for `netlist` (one forward pass, one backward
    /// pass). Robust to fixture netlists: dangling pins read [`Scoap::INF`].
    #[must_use]
    pub fn compute(netlist: &Netlist) -> Scoap {
        let n = netlist.gates().len();
        let mut cc0 = vec![Scoap::INF; n];
        let mut cc1 = vec![Scoap::INF; n];

        // Forward pass: controllability in creation (topological) order.
        for (i, g) in netlist.gates().iter().enumerate() {
            let at = |v: &[u32], pin: usize| {
                let idx = g.pins[pin].index();
                v.get(idx).copied().unwrap_or(Scoap::INF)
            };
            let (z, o) = match g.kind {
                GateKind::Input => (1, 1),
                GateKind::Const0 => (0, Scoap::INF),
                GateKind::Const1 => (Scoap::INF, 0),
                GateKind::Buf => (add(at(&cc0, 0), 1), add(at(&cc1, 0), 1)),
                GateKind::Not => (add(at(&cc1, 0), 1), add(at(&cc0, 0), 1)),
                GateKind::And => (
                    add(at(&cc0, 0).min(at(&cc0, 1)), 1),
                    add3(at(&cc1, 0), at(&cc1, 1), 1),
                ),
                GateKind::Or => (
                    add3(at(&cc0, 0), at(&cc0, 1), 1),
                    add(at(&cc1, 0).min(at(&cc1, 1)), 1),
                ),
                GateKind::Nand => (
                    add3(at(&cc1, 0), at(&cc1, 1), 1),
                    add(at(&cc0, 0).min(at(&cc0, 1)), 1),
                ),
                GateKind::Nor => (
                    add(at(&cc1, 0).min(at(&cc1, 1)), 1),
                    add3(at(&cc0, 0), at(&cc0, 1), 1),
                ),
                GateKind::Xor => (
                    add(
                        add(at(&cc0, 0), at(&cc0, 1)).min(add(at(&cc1, 0), at(&cc1, 1))),
                        1,
                    ),
                    add(
                        add(at(&cc0, 0), at(&cc1, 1)).min(add(at(&cc1, 0), at(&cc0, 1))),
                        1,
                    ),
                ),
                GateKind::Xnor => (
                    add(
                        add(at(&cc0, 0), at(&cc1, 1)).min(add(at(&cc1, 0), at(&cc0, 1))),
                        1,
                    ),
                    add(
                        add(at(&cc0, 0), at(&cc0, 1)).min(add(at(&cc1, 0), at(&cc1, 1))),
                        1,
                    ),
                ),
                // Mux pins are (sel, a, b) with output = sel ? a : b.
                GateKind::Mux => (
                    add(
                        add(at(&cc1, 0), at(&cc0, 1)).min(add(at(&cc0, 0), at(&cc0, 2))),
                        1,
                    ),
                    add(
                        add(at(&cc1, 0), at(&cc1, 1)).min(add(at(&cc0, 0), at(&cc1, 2))),
                        1,
                    ),
                ),
                // One time-frame of cost; feedback reads INF (single pass).
                GateKind::Dff => (add(at(&cc0, 0), 1), add(at(&cc1, 0), 1)),
            };
            cc0[i] = z;
            cc1[i] = o;
        }

        // Backward pass: observability against the creation order.
        let mut co = vec![Scoap::INF; n];
        for &out in netlist.outputs().nets() {
            if out.index() < n {
                co[out.index()] = 0;
            }
        }
        for i in (0..n).rev() {
            let g = &netlist.gates()[i];
            let here = co[i];
            let ctrl = |v: &[u32], pin: usize| {
                let idx = g.pins[pin].index();
                v.get(idx).copied().unwrap_or(Scoap::INF)
            };
            for (p, &src) in g.inputs().iter().enumerate() {
                if src.index() >= n {
                    continue;
                }
                let branch = match g.kind {
                    GateKind::Buf | GateKind::Not => add(here, 1),
                    GateKind::And | GateKind::Nand => add3(here, ctrl(&cc1, 1 - p), 1),
                    GateKind::Or | GateKind::Nor => add3(here, ctrl(&cc0, 1 - p), 1),
                    GateKind::Xor | GateKind::Xnor => {
                        add3(here, ctrl(&cc0, 1 - p).min(ctrl(&cc1, 1 - p)), 1)
                    }
                    GateKind::Mux => match p {
                        // Observing sel needs the data inputs to differ.
                        0 => add3(
                            here,
                            add(ctrl(&cc1, 1), ctrl(&cc0, 2))
                                .min(add(ctrl(&cc0, 1), ctrl(&cc1, 2))),
                            1,
                        ),
                        // A data input is observed when sel selects it.
                        1 => add3(here, ctrl(&cc1, 0), 1),
                        _ => add3(here, ctrl(&cc0, 0), 1),
                    },
                    GateKind::Dff => add(here, 1),
                    GateKind::Input | GateKind::Const0 | GateKind::Const1 => continue,
                };
                // A net's observability is its best fanout branch.
                co[src.index()] = co[src.index()].min(branch);
            }
        }
        Scoap { cc0, cc1, co }
    }

    /// 0-controllability of `net`.
    #[must_use]
    pub fn cc0(&self, net: NetId) -> u32 {
        self.cc0[net.index()]
    }

    /// 1-controllability of `net`.
    #[must_use]
    pub fn cc1(&self, net: NetId) -> u32 {
        self.cc1[net.index()]
    }

    /// Observability of `net`.
    #[must_use]
    pub fn co(&self, net: NetId) -> u32 {
        self.co[net.index()]
    }

    /// The cost of controlling `net` to `value`.
    #[must_use]
    pub fn control_cost(&self, net: NetId, value: bool) -> u32 {
        if value {
            self.cc1(net)
        } else {
            self.cc0(net)
        }
    }

    /// A per-net test-hardness proxy: observability plus the worse
    /// controllability, saturating at [`Scoap::INF`].
    #[must_use]
    pub fn difficulty(&self, net: NetId) -> u32 {
        add(self.co(net), self.cc0(net).max(self.cc1(net)))
    }

    /// `(max, mean)` of the finite observability scores — the summary the
    /// CLI prints. Returns `(0, 0.0)` when nothing is observable.
    #[must_use]
    pub fn co_summary(&self) -> (u32, f64) {
        let finite: Vec<u32> = self
            .co
            .iter()
            .copied()
            .filter(|&v| v < Scoap::INF)
            .collect();
        if finite.is_empty() {
            return (0, 0.0);
        }
        let max = *finite.iter().max().expect("non-empty");
        let mean = f64::from(finite.iter().sum::<u32>()) / finite.len() as f64;
        (max, mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_netlist::Builder;

    #[test]
    fn input_costs_one() {
        let mut b = Builder::new("i");
        let x = b.input("x");
        b.output("y", x);
        let s = Scoap::compute(&b.finish());
        assert_eq!(s.cc0(x), 1);
        assert_eq!(s.cc1(x), 1);
        assert_eq!(s.co(x), 0);
    }

    #[test]
    fn and_or_duality() {
        let mut b = Builder::new("ao");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.and(x, y);
        let o = b.or(x, y);
        b.output("a", a);
        b.output("o", o);
        let s = Scoap::compute(&b.finish());
        assert_eq!(s.cc1(a), 3); // both inputs to 1
        assert_eq!(s.cc0(a), 2); // either input to 0
        assert_eq!(s.cc0(o), 3);
        assert_eq!(s.cc1(o), 2);
        // Observing x through the AND needs y=1 (cost 1) + 1.
        assert_eq!(s.co(x), 2);
    }

    #[test]
    fn inverters_swap_controllabilities() {
        let mut b = Builder::new("n");
        let x = b.input("x");
        let y = b.input("y"); // make x's cc asymmetric via an AND
        let a = b.and(x, y);
        let n = b.not(a);
        b.output("n", n);
        let s = Scoap::compute(&b.finish());
        assert_eq!(s.cc0(n), add(s.cc1(a), 1));
        assert_eq!(s.cc1(n), add(s.cc0(a), 1));
        assert_eq!(s.co(a), 1);
    }

    #[test]
    fn xor_takes_cheapest_parity() {
        let mut b = Builder::new("x");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.xor(x, y);
        b.output("z", z);
        let s = Scoap::compute(&b.finish());
        // 0 via (0,0) or (1,1): 1+1+1; 1 via (0,1) or (1,0): 1+1+1.
        assert_eq!(s.cc0(z), 3);
        assert_eq!(s.cc1(z), 3);
        // Observing x needs y at either value: min(1,1)+1.
        assert_eq!(s.co(x), 2);
    }

    #[test]
    fn constants_are_one_sided() {
        let mut b = Builder::new("c");
        let x = b.input("x");
        let k = b.const0();
        let z = b.or(x, k);
        b.output("z", z);
        let s = Scoap::compute(&b.finish());
        assert_eq!(s.cc0(k), 0);
        assert_eq!(s.cc1(k), Scoap::INF);
        // z = x | 0: cc0 = 1 + 0 + 1.
        assert_eq!(s.cc0(z), 2);
    }

    #[test]
    fn observability_grows_with_depth() {
        let mut b = Builder::new("deep");
        let x = b.input("x");
        let y = b.input("y");
        let mut v = x;
        for _ in 0..5 {
            v = b.and(v, y);
        }
        b.output("v", v);
        let s = Scoap::compute(&b.finish());
        // Each AND level adds at least cost 2 on the path from x.
        assert!(s.co(x) >= 10, "co(x) = {}", s.co(x));
        assert_eq!(s.co(v), 0);
    }

    #[test]
    fn unobservable_net_is_inf() {
        let mut b = Builder::new("u");
        let x = b.input("x");
        let y = b.input("y");
        let dead = b.and(x, y); // never read, not an output
        let z = b.or(x, y);
        b.output("z", z);
        let s = Scoap::compute(&b.finish());
        assert_eq!(s.co(dead), Scoap::INF);
        assert_eq!(s.difficulty(dead), Scoap::INF);
    }

    #[test]
    fn mux_steering_costs() {
        let mut b = Builder::new("m");
        let sel = b.input("s");
        let a = b.input("a");
        let c = b.input("b");
        let m = b.mux(sel, a, c);
        b.output("m", m);
        let s = Scoap::compute(&b.finish());
        // Data input a observed when sel=1: co(m)=0 + cc1(sel)=1 + 1.
        assert_eq!(s.co(a), 2);
        assert_eq!(s.co(c), 2);
        // sel observed when the data inputs differ: 0 + (1+1) + 1.
        assert_eq!(s.co(sel), 3);
    }

    #[test]
    fn fixture_netlists_do_not_panic() {
        let s = Scoap::compute(&warpstl_netlist::fixtures::combinational_loop());
        // The loop gate's forward reference reads INF.
        assert_eq!(s.cc1(NetId(2)), Scoap::INF);
        let s = Scoap::compute(&warpstl_netlist::fixtures::undriven());
        assert_eq!(s.cc1(NetId(2)), Scoap::INF);
    }

    #[test]
    fn module_scores_are_plausible() {
        // The bundled decoder: outputs observable, a nonzero summary.
        let n = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
        let s = Scoap::compute(&n);
        for &out in n.outputs().nets() {
            assert_eq!(s.co(out), 0);
        }
        let (max, mean) = s.co_summary();
        assert!(max > 0 && mean > 0.0);
    }
}
