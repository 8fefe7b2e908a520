//! Topological levelization: ranks every gate by logic depth and packs the
//! result into flat, rank-major structure-of-arrays form.
//!
//! This is the classic GPU-simulator layout (GATSPI-style): gates of equal
//! rank are independent, so a simulator can evaluate one rank after another
//! as tight loops over contiguous arrays instead of dispatching per gate.
//! Within a rank the gates are additionally grouped by [`GateKind`], so each
//! run of identical cells — a [`LevelSegment`] — evaluates as one branch-free
//! loop over wide pattern words. The fault engine's levelized kernel
//! (`warpstl-fault`) evaluates the good machine over these segments, and its
//! difference frontier walks the companion [`FanoutCones`] successor graph
//! in rank order, one bucket per rank.
//!
//! Ranks follow the same convention as [`Netlist::logic_depth`]: primary
//! inputs, constants, and flip-flop outputs are rank 0 (their values are
//! fixed before combinational settling), and a logic gate's rank is one more
//! than the maximum rank of its inputs.
//!
//! [`FanoutCones`]: crate::FanoutCones

use crate::{GateKind, Netlist};

/// A maximal run of same-kind gates within one rank of a [`Levelization`]:
/// `order[start..end]` all have kind `kind` and rank `rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSegment {
    /// The cell type shared by every gate in the segment.
    pub kind: GateKind,
    /// The topological rank shared by every gate in the segment.
    pub rank: u32,
    /// First index into [`Levelization::order`] (inclusive).
    pub start: u32,
    /// Last index into [`Levelization::order`] (exclusive).
    pub end: u32,
}

impl LevelSegment {
    /// The segment's index range into [`Levelization::order`].
    #[must_use]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    /// The number of gates in the segment.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the segment is empty (never produced by [`Levelization::of`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Rank-major structure-of-arrays view of a [`Netlist`], built once per
/// module and reused by every simulation run (see the module docs).
///
/// # Examples
///
/// ```
/// use warpstl_netlist::Builder;
///
/// let mut b = Builder::new("chain");
/// let a = b.input("a");
/// let x = b.not(a);
/// let y = b.not(x);
/// b.output("y", y);
/// let n = b.finish();
///
/// let levels = n.levelize();
/// assert_eq!(levels.ranks(), 3); // input at 0, the two inverters at 1, 2
/// assert_eq!(levels.rank_of(y.index()), 2);
/// // Segments partition the rank-major order into same-kind runs.
/// assert_eq!(levels.segments().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Levelization {
    /// Topological rank per gate, indexed by gate index.
    rank_of: Vec<u32>,
    /// Number of distinct ranks (`max rank + 1`; 0 for an empty netlist).
    ranks: u32,
    /// Gate indices sorted by `(rank, kind, index)` — the evaluation order.
    order: Vec<u32>,
    /// Input net ids per gate, aligned with `order` (unused pins hold
    /// `u32::MAX` and must not be read past the kind's arity).
    pins: Vec<[u32; 3]>,
    /// Same-kind runs within each rank, covering `order` exactly.
    segments: Vec<LevelSegment>,
}

impl Levelization {
    /// Builds the levelization of `netlist`.
    ///
    /// Well-formed netlists (the [`Builder`](crate::Builder) and
    /// `Netlist::from_parts` invariant: non-DFF gates read strictly
    /// earlier nets) get exact ranks. On relaxed netlists a forward or
    /// self reference contributes rank 0, keeping the pass total; such
    /// netlists fail the lint gate before any simulator consumes this.
    #[must_use]
    pub fn of(netlist: &Netlist) -> Levelization {
        let gates = netlist.gates();
        let n = gates.len();
        let mut rank_of = vec![0u32; n];
        let mut max_rank = 0u32;
        for (i, g) in gates.iter().enumerate() {
            let r = match g.kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => 0,
                _ => {
                    let mut m = 0u32;
                    for &p in g.inputs() {
                        if p.index() < i {
                            m = m.max(rank_of[p.index()]);
                        }
                    }
                    m + 1
                }
            };
            rank_of[i] = r;
            max_rank = max_rank.max(r);
        }

        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&g| (rank_of[g as usize], gates[g as usize].kind as u8, g));
        let pins: Vec<[u32; 3]> = order
            .iter()
            .map(|&g| {
                let p = gates[g as usize].pins;
                [p[0].0, p[1].0, p[2].0]
            })
            .collect();

        let mut segments = Vec::new();
        let mut s = 0usize;
        while s < order.len() {
            let g0 = order[s] as usize;
            let (rank, kind) = (rank_of[g0], gates[g0].kind);
            let mut e = s + 1;
            while e < order.len() && {
                let gi = order[e] as usize;
                rank_of[gi] == rank && gates[gi].kind == kind
            } {
                e += 1;
            }
            segments.push(LevelSegment {
                kind,
                rank,
                start: s as u32,
                end: e as u32,
            });
            s = e;
        }

        Levelization {
            rank_of,
            ranks: if n == 0 { 0 } else { max_rank + 1 },
            order,
            pins,
            segments,
        }
    }

    /// The number of gates covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rank_of.len()
    }

    /// Whether the underlying netlist had no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rank_of.is_empty()
    }

    /// The number of distinct ranks (`max rank + 1`; 0 when empty).
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.ranks as usize
    }

    /// The topological rank of gate `gate`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    #[must_use]
    pub fn rank_of(&self, gate: usize) -> u32 {
        self.rank_of[gate]
    }

    /// Gate indices in rank-major `(rank, kind, index)` order.
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Input net ids aligned with [`Levelization::order`]; entries past a
    /// gate's arity hold `u32::MAX`.
    #[must_use]
    pub fn pins(&self) -> &[[u32; 3]] {
        &self.pins
    }

    /// The same-kind runs partitioning [`Levelization::order`].
    #[must_use]
    pub fn segments(&self) -> &[LevelSegment] {
        &self.segments
    }
}

impl Netlist {
    /// Builds the [`Levelization`] analysis for this netlist.
    #[must_use]
    pub fn levelize(&self) -> Levelization {
        Levelization::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    #[test]
    fn single_gate_module_is_one_rank() {
        // Smallest well-formed module: one input fed straight to an output.
        let mut b = Builder::new("wire");
        let a = b.input("a");
        b.output("a_out", a);
        let n = b.finish();
        let l = n.levelize();
        assert_eq!(l.len(), 1);
        assert_eq!(l.ranks(), 1);
        assert_eq!(l.rank_of(0), 0);
        assert_eq!(l.order(), &[0]);
        assert_eq!(l.segments().len(), 1);
        assert_eq!(l.segments()[0].kind, GateKind::Input);
        assert_eq!(l.segments()[0].range(), 0..1);
    }

    #[test]
    fn maximum_rank_chain_counts_every_gate() {
        // A chain of N inverters must produce N + 1 ranks with exactly one
        // gate in each logic rank — the worst case for rank count.
        const N: usize = 97;
        let mut b = Builder::new("chain");
        let mut net = b.input("a");
        for _ in 0..N {
            net = b.not(net);
        }
        b.output("z", net);
        let n = b.finish();
        let l = n.levelize();
        assert_eq!(l.ranks(), N + 1);
        assert_eq!(l.rank_of(net.index()), N as u32);
        assert_eq!(l.segments().len(), N + 1);
        assert!(l.segments().iter().skip(1).all(|s| s.len() == 1));
    }

    #[test]
    fn disconnected_outputs_and_sinkless_gates_are_ranked() {
        // An output net nothing reads, plus logic that feeds no output at
        // all: levelization ranks every gate regardless of observability.
        let mut b = Builder::new("loose");
        let a = b.input("a");
        let c = b.input("c");
        let dangling = b.and(a, c); // never read, never an output
        let solo = b.not(a);
        b.output("solo", solo); // read by nothing downstream
        let n = b.finish();
        let l = n.levelize();
        assert_eq!(l.len(), n.gates().len());
        assert_eq!(l.rank_of(dangling.index()), 1);
        assert_eq!(l.rank_of(solo.index()), 1);
        // The order is a permutation of all gates.
        let mut seen = l.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..n.gates().len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn segments_partition_order_and_respect_dependencies() {
        let n = crate::modules::ModuleKind::DecoderUnit.build();
        let l = n.levelize();
        // Segments tile `order` exactly, in rank order.
        let mut pos = 0u32;
        for s in l.segments() {
            assert_eq!(s.start, pos);
            assert!(s.end > s.start);
            for &g in &l.order()[s.range()] {
                assert_eq!(l.rank_of(g as usize), s.rank);
                assert_eq!(n.gates()[g as usize].kind, s.kind);
            }
            pos = s.end;
        }
        assert_eq!(pos as usize, n.gates().len());
        // Every logic gate's inputs sit at strictly lower ranks, so a
        // rank-major sweep is a valid evaluation order.
        for (i, g) in n.gates().iter().enumerate() {
            if g.kind.arity() > 0 && g.kind != GateKind::Dff {
                for &p in g.inputs() {
                    assert!(l.rank_of(p.index()) < l.rank_of(i));
                }
            }
        }
        // Pins travel with the order.
        for (k, &g) in l.order().iter().enumerate() {
            let gate = &n.gates()[g as usize];
            for (q, &p) in gate.inputs().iter().enumerate() {
                assert_eq!(l.pins()[k][q], p.0);
            }
        }
    }

    #[test]
    fn dffs_rank_zero_like_inputs() {
        // q <- XOR(q, in): the flip-flop output is a rank-0 source even
        // though its D cone feeds back.
        let mut b = Builder::new("acc");
        let i = b.input("in");
        let q = b.dff_placeholder();
        let x = b.xor(q, i);
        b.connect_dff(q, x);
        b.output("q", q);
        let n = b.finish();
        let l = n.levelize();
        assert_eq!(l.rank_of(q.index()), 0);
        assert_eq!(l.rank_of(x.index()), 1);
        assert_eq!(l.ranks(), 2);
    }

    #[test]
    fn matches_logic_depth() {
        // `ranks` agrees with the netlist's own depth metric on a real
        // module: logic_depth is the maximum logic rank.
        for kind in crate::modules::ModuleKind::ALL {
            let n = kind.build();
            let l = n.levelize();
            assert_eq!(l.ranks(), n.logic_depth() + 1, "{kind:?}");
        }
    }
}
