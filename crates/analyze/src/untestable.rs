//! Fault-independent untestability proofs from the implication closure.
//!
//! A stuck-at fault is *untestable* (redundant) when no input pattern can
//! both activate it and propagate its effect to an observation point. The
//! implication engine proves that statically for three situations, each a
//! *sound* (never-wrong) but incomplete rule:
//!
//! 1. **Activation impossible** — testing `line` stuck-at-`s` requires the
//!    fault-free circuit to drive the line to `!s`; if the literal
//!    `line = !s` is [impossible](crate::Implications::is_impossible), no
//!    pattern activates the fault.
//! 2. **Propagation contradiction** — the fault effect must pass through
//!    the gate reading the faulty line, which pins the gate's *other*
//!    inputs to their non-controlling values (AND/NAND sides at 1, OR/NOR
//!    sides at 0, a MUX data pin needs its select value). If that literal
//!    set together with the activation literal is
//!    [contradictory](crate::Implications::contradicts), no pattern tests
//!    the fault. Applied one gate deep: to every input-pin fault, and to
//!    stem faults whose net has exactly one reader and is not itself a
//!    primary output.
//! 3. **Unobservable** — a fault on a gate from which no primary output is
//!    reachable (treating DFFs as transparent — the optimistic direction,
//!    which keeps the proof sound) can never be observed.
//!
//! The same degeneracy that drives rule 2 yields **equivalence merges**:
//! when one input of a 2-input gate is implied constant at its
//! non-controlling value, the gate degenerates to a buffer or inverter of
//! the other pin, making that pin's faults behaviorally identical to the
//! output's — equivalences beyond what structural collapsing sees, which
//! spread untestability proofs across the merged classes. Nets that are *reachable* yet have both stem
//! polarities proven untestable are flagged by the `redundant-logic` lint:
//! the logic they compute provably never influences an output under any
//! input.

use warpstl_netlist::{GateKind, NetId, Netlist};

use crate::diag::{Diagnostic, Rule};
use crate::Implications;

/// One implication-derived fault equivalence: the input-pin fault
/// `pin` stuck-at-`pin_polarity` of gate `gate` behaves identically to the
/// gate's output fault stuck-at-`out_polarity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivMerge {
    /// The gate whose pin fault is merged.
    pub gate: usize,
    /// The pin index.
    pub pin: u8,
    /// The pin fault's stuck value.
    pub pin_polarity: bool,
    /// The equivalent output fault's stuck value.
    pub out_polarity: bool,
}

/// Untestability proofs and equivalence merges for every fault site of one
/// netlist, derived from its [`Implications`].
///
/// Sites are addressed the way the fault universe addresses them: the
/// *output* (stem) fault of the gate driving net `n`, and the *input-pin*
/// fault of gate `g` at pin `p`. Constant gates and constant-tied pins are
/// skipped — they carry no enumerated faults.
///
/// # Examples
///
/// ```
/// use warpstl_netlist::Builder;
///
/// // r = OR(x, NOT x) is always 1: r stuck-at-1 changes nothing.
/// let mut b = Builder::new("red");
/// let x = b.input("x");
/// let nx = b.not(x);
/// let r = b.or(x, nx);
/// let w = b.input("w");
/// let y = b.and(w, r);
/// b.output("y", y);
/// let netlist = b.finish();
/// let imp = warpstl_analyze::Implications::compute(&netlist);
/// let unt = warpstl_analyze::Untestability::compute(&netlist, &imp);
/// assert!(unt.output_untestable(r.index(), true));
/// assert!(!unt.output_untestable(r.index(), false));
/// ```
#[derive(Debug, Clone)]
pub struct Untestability {
    /// Per gate: output/stem fault proven untestable, `[sa0, sa1]`.
    out: Vec<[bool; 2]>,
    /// Per gate, per pin: input-pin fault proven untestable, `[sa0, sa1]`.
    pins: Vec<[[bool; 2]; 3]>,
    /// Implication-derived fault equivalences.
    merges: Vec<EquivMerge>,
    /// `redundant-logic` findings: reachable nets with both stem faults
    /// proven untestable.
    diagnostics: Vec<Diagnostic>,
    /// Total site flags proven (outputs and pins, both polarities).
    proven: usize,
}

impl Untestability {
    /// Runs every proof rule over `netlist` using the closure queries of
    /// `imp` (which must come from the same netlist).
    #[must_use]
    pub fn compute(netlist: &Netlist, imp: &Implications) -> Untestability {
        let gates = netlist.gates();
        let n = gates.len();
        let is_const = |idx: usize| matches!(gates[idx].kind, GateKind::Const0 | GateKind::Const1);

        // Reader index: (gate, pin) pairs per net, for the stem rule.
        let mut readers: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n];
        for (i, g) in gates.iter().enumerate() {
            for (p, &pin) in g.inputs().iter().enumerate() {
                if pin.index() < n {
                    readers[pin.index()].push((i as u32, p as u8));
                }
            }
        }
        // Observation reachability, backward from the primary outputs
        // through every edge (DFFs transparent).
        let mut reached = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for &o in netlist.outputs().nets() {
            if o.index() < n && !reached[o.index()] {
                reached[o.index()] = true;
                stack.push(o.index());
            }
        }
        while let Some(i) = stack.pop() {
            for &pin in gates[i].inputs() {
                if pin.index() < n && !reached[pin.index()] {
                    reached[pin.index()] = true;
                    stack.push(pin.index());
                }
            }
        }
        let mut is_output = vec![false; n];
        for &o in netlist.outputs().nets() {
            if o.index() < n {
                is_output[o.index()] = true;
            }
        }

        // The non-controlling side literals propagation through (gate,
        // pin) requires; `None` when the gate cannot propagate a
        // single-pin condition (conservatively no constraint).
        let side_literals = |gate: usize, pin: usize| -> Vec<(usize, bool)> {
            let g = &gates[gate];
            let other = |p: usize| {
                let idx = g.pins[p].index();
                (idx < n).then_some(idx)
            };
            match (g.kind, pin) {
                (GateKind::And | GateKind::Nand, p @ (0 | 1)) => {
                    other(1 - p).map(|o| (o, true)).into_iter().collect()
                }
                (GateKind::Or | GateKind::Nor, p @ (0 | 1)) => {
                    other(1 - p).map(|o| (o, false)).into_iter().collect()
                }
                // A MUX data pin only propagates while selected.
                (GateKind::Mux, 1) => other(0).map(|s| (s, true)).into_iter().collect(),
                (GateKind::Mux, 2) => other(0).map(|s| (s, false)).into_iter().collect(),
                // XOR/XNOR propagate under any side value; BUF/NOT/DFF
                // have no sides; the MUX select pin needs a two-literal
                // condition (a != b) this engine does not model.
                _ => Vec::new(),
            }
        };

        let mut out = vec![[false; 2]; n];
        let mut pins = vec![[[false; 2]; 3]; n];
        let mut proven = 0usize;

        for (i, g) in gates.iter().enumerate() {
            if is_const(i) {
                continue;
            }
            // Output (stem) faults of net i.
            for s in [false, true] {
                let activation = (i, !s);
                let untestable = !reached[i]
                    || imp.is_impossible(i, !s)
                    || (!is_output[i] && readers[i].len() == 1 && {
                        let (rg, rp) = readers[i][0];
                        let mut req = side_literals(rg as usize, rp as usize);
                        req.push(activation);
                        imp.contradicts(&req)
                    });
                if untestable {
                    out[i][usize::from(s)] = true;
                    proven += 1;
                }
            }
            // Input-pin faults of gate i.
            for (p, &pin) in g.inputs().iter().enumerate() {
                let src = pin.index();
                if src >= n || is_const(src) {
                    continue;
                }
                for s in [false, true] {
                    let untestable = !reached[i] || imp.is_impossible(src, !s) || {
                        let mut req = side_literals(i, p);
                        req.push((src, !s));
                        imp.contradicts(&req)
                    };
                    if untestable {
                        pins[i][p][usize::from(s)] = true;
                        proven += 1;
                    }
                }
            }
        }

        // Equivalence merges: a 2-input gate whose other pin is implied
        // constant at the listed value degenerates to BUF (inverted =
        // false) or NOT (inverted = true) of the remaining pin.
        let mut merges = Vec::new();
        for (i, g) in gates.iter().enumerate() {
            let degeneracies: &[(bool, bool)] = match g.kind {
                GateKind::And => &[(true, false)],
                GateKind::Or => &[(false, false)],
                GateKind::Nand => &[(true, true)],
                GateKind::Nor => &[(false, true)],
                GateKind::Xor => &[(false, false), (true, true)],
                GateKind::Xnor => &[(true, false), (false, true)],
                _ => &[],
            };
            for p in 0..2usize {
                let other = g.pins[1 - p].index();
                if other >= n || g.pins[p].index() >= n {
                    continue;
                }
                for &(fixed, inverted) in degeneracies {
                    // `other` is implied constant `fixed` iff the opposite
                    // literal is impossible; skip degenerate nets where
                    // both literals are impossible.
                    if imp.is_impossible(other, !fixed) && !imp.is_impossible(other, fixed) {
                        for s in [false, true] {
                            merges.push(EquivMerge {
                                gate: i,
                                pin: p as u8,
                                pin_polarity: s,
                                out_polarity: s ^ inverted,
                            });
                        }
                    }
                }
            }
            // MUX with an implied-constant select degenerates to the
            // selected data pin.
            if g.kind == GateKind::Mux {
                let sel = g.pins[0].index();
                if sel < n {
                    for (sel_value, data_pin) in [(true, 1u8), (false, 2u8)] {
                        if imp.is_impossible(sel, !sel_value) && !imp.is_impossible(sel, sel_value)
                        {
                            let data = g.pins[data_pin as usize].index();
                            if data < n {
                                for s in [false, true] {
                                    merges.push(EquivMerge {
                                        gate: i,
                                        pin: data_pin,
                                        pin_polarity: s,
                                        out_polarity: s,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        // redundant-logic: reachable, non-constant nets with both stem
        // polarities proven untestable. Unreachable gates already carry an
        // `unreachable` warning; re-flagging them here would be noise.
        let mut diagnostics = Vec::new();
        for (i, g) in gates.iter().enumerate() {
            if reached[i] && !is_const(i) && out[i][0] && out[i][1] {
                diagnostics.push(Diagnostic::warning(
                    Rule::RedundantLogic,
                    NetId(i as u32),
                    format!(
                        "gate n{i} ({}) is redundant: both stuck-at faults are \
                         provably untestable",
                        g.kind
                    ),
                ));
            }
        }

        Untestability {
            out,
            pins,
            merges,
            diagnostics,
            proven,
        }
    }

    /// Whether the output (stem) fault of `gate` stuck-at the given value
    /// is proven untestable.
    #[must_use]
    pub fn output_untestable(&self, gate: usize, stuck: bool) -> bool {
        self.out
            .get(gate)
            .is_some_and(|flags| flags[usize::from(stuck)])
    }

    /// Whether the input-pin fault of `gate` at `pin` stuck-at the given
    /// value is proven untestable.
    #[must_use]
    pub fn pin_untestable(&self, gate: usize, pin: usize, stuck: bool) -> bool {
        pin < 3
            && self
                .pins
                .get(gate)
                .is_some_and(|flags| flags[pin][usize::from(stuck)])
    }

    /// Number of site/polarity pairs proven untestable.
    #[must_use]
    pub fn proven_count(&self) -> usize {
        self.proven
    }

    /// The implication-derived fault equivalences.
    #[must_use]
    pub fn merges(&self) -> &[EquivMerge] {
        &self.merges
    }

    /// The `redundant-logic` findings (warning severity).
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_netlist::Builder;

    /// `r = OR(x, NOT x)` (always 1) gating `y = AND(w, r)`.
    fn tautology_netlist() -> (Netlist, NetId, NetId) {
        let mut b = Builder::new("taut");
        let x = b.input("x");
        let nx = b.not(x);
        let r = b.or(x, nx);
        let w = b.input("w");
        let y = b.and(w, r);
        b.output("y", y);
        (b.finish(), r, y)
    }

    #[test]
    fn activation_rule_proves_stuck_at_constant_untestable() {
        let (netlist, r, _) = tautology_netlist();
        let imp = Implications::compute(&netlist);
        let unt = Untestability::compute(&netlist, &imp);
        // r is always 1: stuck-at-1 can never be activated...
        assert!(unt.output_untestable(r.index(), true));
        // ...but stuck-at-0 forces y to 0 with w = 1 — testable.
        assert!(!unt.output_untestable(r.index(), false));
        assert!(unt.proven_count() > 0);
    }

    #[test]
    fn degenerate_and_produces_equivalence_merges() {
        let (netlist, _, y) = tautology_netlist();
        let imp = Implications::compute(&netlist);
        let unt = Untestability::compute(&netlist, &imp);
        // AND(w, r) with r implied 1 degenerates to BUF(w): pin-0 faults
        // merge with the output faults at the same polarity.
        let m: Vec<_> = unt
            .merges()
            .iter()
            .filter(|m| m.gate == y.index() && m.pin == 0)
            .collect();
        assert_eq!(m.len(), 2, "{:?}", unt.merges());
        assert!(m.iter().all(|m| m.pin_polarity == m.out_polarity));
    }

    #[test]
    fn deselected_mux_input_is_redundant_logic() {
        // s = OR(a, NOT a) is always 1, so MUX(s, w, g2) never selects g2:
        // g2's stem faults cannot propagate.
        let mut b = Builder::new("mux_red");
        let a = b.input("a");
        let na = b.not(a);
        let s = b.or(a, na);
        let c = b.input("c");
        let d = b.input("d");
        let g2 = b.and(c, d);
        let w = b.input("w");
        let m = b.mux(s, w, g2);
        b.output("m", m);
        let netlist = b.finish();
        let imp = Implications::compute(&netlist);
        let unt = Untestability::compute(&netlist, &imp);
        assert!(unt.output_untestable(g2.index(), false));
        assert!(unt.output_untestable(g2.index(), true));
        assert!(unt.pin_untestable(m.index(), 2, false));
        assert!(unt.pin_untestable(m.index(), 2, true));
        // The selected path stays testable.
        assert!(!unt.pin_untestable(m.index(), 1, false));
        let redundant: Vec<_> = unt.diagnostics().iter().filter_map(|d| d.net).collect();
        assert!(redundant.contains(&g2), "{:?}", unt.diagnostics());
        // The select degeneracy also merges the selected pin's faults.
        assert!(unt
            .merges()
            .iter()
            .any(|e| e.gate == m.index() && e.pin == 1));
    }

    #[test]
    fn healthy_logic_is_left_alone() {
        let mut b = Builder::new("clean");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.xor(x, y);
        b.output("z", z);
        let netlist = b.finish();
        let imp = Implications::compute(&netlist);
        let unt = Untestability::compute(&netlist, &imp);
        assert_eq!(unt.proven_count(), 0);
        assert!(unt.merges().is_empty());
        assert!(unt.diagnostics().is_empty());
    }
}
