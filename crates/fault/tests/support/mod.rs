//! Serial test oracles for the fault-simulation engine, shared by the
//! integration tests of `warpstl-fault` and the workspace root
//! (`tests/properties.rs` includes this file by `#[path]`).
//!
//! Both oracles are deliberately naive: 63 faulty machines plus the good
//! machine per 64-bit word, the *whole* netlist evaluated once per pattern
//! per batch, one pattern at a time. They share no code with the engine —
//! not the kernel, not the levelization, not the `SiteOverride` words — so
//! agreeing with them is evidence, not tautology. Reports follow the
//! documented contract of `FaultSimConfig::drop_detected`: drop mode counts
//! first detections, non-drop mode counts every observation.

#![allow(dead_code)]

use warpstl_fault::tdf::{TdfList, Transition};
use warpstl_fault::{FaultId, FaultList, FaultSimConfig, FaultSimReport, FaultSite, Polarity};
use warpstl_netlist::{Builder, Gate, GateKind, NetId, Netlist, PatternSeq};

/// One random gate: `kind` selects the operator, `a`/`b`/`c` pick operands
/// among the already-built nets (mod current count).
pub type GateSpec = (u8, u8, u8, u8);

/// Builds a random combinational netlist from a gate-spec list: every gate
/// reads already-existing nets, and the tail nets become outputs so late
/// logic stays observable.
pub fn build_netlist(n_inputs: usize, specs: &[GateSpec]) -> Netlist {
    let mut b = Builder::new("prop");
    let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();
    for &(kind, a, bb, c) in specs {
        let pick = |sel: u8| nets[sel as usize % nets.len()];
        let (x, y, z) = (pick(a), pick(bb), pick(c));
        let net = match kind % 9 {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.nand(x, y),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            5 => b.xnor(x, y),
            6 => b.not(x),
            7 => b.buf(x),
            _ => b.mux(x, y, z),
        };
        nets.push(net);
    }
    let n_out = nets.len().clamp(1, 4);
    for (k, &net) in nets.iter().rev().take(n_out).enumerate() {
        b.output(&format!("o{k}"), net);
    }
    b.finish()
}

/// Builds a chain-biased random combinational netlist for the kernel's
/// fanout-free-region edge cases. Every gate's first operand is the newest
/// net, so long fanout-free chains form. Its other operands are mostly
/// inputs, which keeps the chains fanout-free. Sometimes they are the
/// newest net again (a gate reading one net on two pins), one of the last
/// four nets (a stem mid-chain), or any net. A spec's fourth byte gives
/// the gate's role: a mid-chain output that the next gate reads, a dead
/// end that nothing reads and no output observes, or a plain link. The
/// newest net is an output.
pub fn build_chain_netlist(n_inputs: usize, specs: &[GateSpec]) -> Netlist {
    let mut b = Builder::new("chain");
    let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();
    let mut n_out = 0;
    for &(kind, a, bb, role) in specs {
        let pick = |sel: u8| match sel % 8 {
            0 => nets[nets.len() - 1],
            1 => nets[nets.len() - 1 - (sel as usize / 8) % nets.len().min(4)],
            2 => nets[sel as usize % nets.len()],
            _ => nets[sel as usize % n_inputs],
        };
        let (x, y, z) = (nets[nets.len() - 1], pick(a), pick(bb));
        let net = match kind % 9 {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.nand(x, y),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            5 => b.xnor(x, y),
            6 => b.not(x),
            7 => b.buf(x),
            _ => b.mux(y, x, z),
        };
        match role % 8 {
            0 => {}
            1 => {
                b.output(&format!("o{n_out}"), net);
                n_out += 1;
                nets.push(net);
            }
            _ => nets.push(net),
        }
    }
    b.output(&format!("o{n_out}"), nets[nets.len() - 1]);
    b.finish()
}

/// `count` xorshift rows over `width` inputs, stamped with their index.
pub fn pseudorandom_patterns(width: usize, count: usize, mut seed: u64) -> PatternSeq {
    seed |= 1;
    let mut p = PatternSeq::new(width);
    for cc in 0..count {
        let bits: Vec<bool> = (0..width)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & 1 == 1
            })
            .collect();
        p.push_bits(cc as u64, &bits);
    }
    p
}

/// Per-batch injection tables: per-gate output masks and per-pin masks.
/// Lane 0 (bit 0) is the good machine and is never injected.
struct Injection {
    out_sa0: Vec<u64>,
    out_sa1: Vec<u64>,
    pin_sa0: Vec<[u64; 3]>,
    pin_sa1: Vec<[u64; 3]>,
}

impl Injection {
    fn new(n: usize) -> Injection {
        Injection {
            out_sa0: vec![0; n],
            out_sa1: vec![0; n],
            pin_sa0: vec![[0; 3]; n],
            pin_sa1: vec![[0; 3]; n],
        }
    }

    fn stick(&mut self, site: FaultSite, polarity: Polarity, bit: u64) {
        match (site, polarity) {
            (FaultSite::Output(n), Polarity::Sa0) => self.out_sa0[n.index()] |= bit,
            (FaultSite::Output(n), Polarity::Sa1) => self.out_sa1[n.index()] |= bit,
            (FaultSite::InputPin(n, p), Polarity::Sa0) => {
                self.pin_sa0[n.index()][p as usize] |= bit
            }
            (FaultSite::InputPin(n, p), Polarity::Sa1) => {
                self.pin_sa1[n.index()][p as usize] |= bit
            }
        }
    }

    /// Evaluates every gate of a combinational netlist on pattern `t`
    /// (broadcast to every lane) with the injections applied.
    fn eval(&self, gates: &[Gate], in_nets: &[usize], patterns: &PatternSeq, t: usize) -> Vec<u64> {
        let mut values = vec![0u64; gates.len()];
        for (bit_pos, &net) in in_nets.iter().enumerate() {
            values[net] = if patterns.bit(t, bit_pos) { !0 } else { 0 };
        }
        for (i, g) in gates.iter().enumerate() {
            let v = match g.kind {
                GateKind::Input => values[i],
                GateKind::Const0 => 0,
                GateKind::Const1 => !0,
                GateKind::Dff => unreachable!("the oracles are combinational"),
                kind => {
                    let pin = |q: usize| {
                        (values[g.pins[q].index()] & !self.pin_sa0[i][q]) | self.pin_sa1[i][q]
                    };
                    let (b, c) = match kind.arity() {
                        2 => (pin(1), 0),
                        3 => (pin(1), pin(2)),
                        _ => (0, 0),
                    };
                    kind.eval(pin(0), b, c)
                }
            };
            values[i] = (v & !self.out_sa0[i]) | self.out_sa1[i];
        }
        values
    }
}

/// Lanes of the faulty machines in a batch of `n` faults (bit 0 excluded).
fn lanes_mask(n: usize) -> u64 {
    if n == 63 {
        !1
    } else {
        ((1u64 << (n + 1)) - 1) & !1
    }
}

/// Output lanes that differ from the good machine (lane 0).
fn observe(values: &[u64], out_nets: &[usize], lanes: u64) -> u64 {
    let mut diff = 0u64;
    for &o in out_nets {
        diff |= values[o] ^ (values[o] & 1).wrapping_neg();
    }
    diff & lanes
}

struct Setup {
    in_nets: Vec<usize>,
    out_nets: Vec<usize>,
}

fn setup(netlist: &Netlist, patterns: &PatternSeq) -> Setup {
    assert_eq!(
        patterns.width(),
        netlist.inputs().width(),
        "pattern width must match netlist inputs"
    );
    assert!(netlist.is_combinational(), "the oracles are combinational");
    Setup {
        in_nets: netlist.inputs().nets().iter().map(|n| n.index()).collect(),
        out_nets: netlist.outputs().nets().iter().map(|n| n.index()).collect(),
    }
}

fn finish(report: &mut FaultSimReport, patterns: &PatternSeq, activated: &[u32], detected: &[u32]) {
    for t in 0..patterns.len() {
        report.record_pattern(patterns.cc(t), activated[t], detected[t]);
    }
}

/// The serial stuck-at oracle: the same report and list state
/// `fault_simulate` must produce, computed the slow way.
pub fn fault_simulate_reference(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList,
    config: &FaultSimConfig,
) -> FaultSimReport {
    let Setup { in_nets, out_nets } = setup(netlist, patterns);
    let gates = netlist.gates();
    list.begin_run();
    let mut report = FaultSimReport::new();
    let targets: Vec<FaultId> = if config.drop_detected {
        list.undetected().collect()
    } else {
        (0..list.len()).collect()
    };
    let mut activated = vec![0u32; patterns.len()];
    let mut detected = vec![0u32; patterns.len()];

    for batch in targets.chunks(63) {
        let mut inj = Injection::new(gates.len());
        for (lane0, &fid) in batch.iter().enumerate() {
            let f = list.fault(fid);
            inj.stick(f.site, f.polarity, 1 << (lane0 + 1));
        }
        let lanes = lanes_mask(batch.len());
        let mut detected_mask = 0u64;
        for t in 0..patterns.len() {
            let values = inj.eval(gates, &in_nets, patterns, t);
            let diff = observe(&values, &out_nets, lanes);
            // Activation: the good machine (lane 0) opposes the stuck value
            // at the site's source net.
            for (lane0, &fid) in batch.iter().enumerate() {
                if config.drop_detected && detected_mask >> (lane0 + 1) & 1 == 1 {
                    continue;
                }
                let f = list.fault(fid);
                let src = match f.site {
                    FaultSite::Output(n) => n.index(),
                    FaultSite::InputPin(n, p) => gates[n.index()].pins[p as usize].index(),
                };
                if (values[src] & 1 == 1) != f.polarity.value() {
                    activated[t] += 1;
                }
            }
            let cc = patterns.cc(t);
            let newly = diff & !detected_mask;
            let mut rest = newly;
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                list.mark_detected(batch[lane - 1], cc, t);
            }
            detected[t] += if config.drop_detected {
                newly.count_ones()
            } else {
                diff.count_ones()
            };
            detected_mask |= diff;
        }
    }
    finish(&mut report, patterns, &activated, &detected);
    report
}

/// The serial transition-delay oracle. The stale value is injected as a
/// stuck-at every pattern, and a lane counts only where the pattern
/// *launches* the slow transition: the good machine moved the line in the
/// fault's direction since the previous pattern. A stream's first pattern
/// has no predecessor, so it launches nothing.
pub fn tdf_simulate_reference(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut TdfList,
    config: &FaultSimConfig,
) -> FaultSimReport {
    let Setup { in_nets, out_nets } = setup(netlist, patterns);
    let gates = netlist.gates();
    list.begin_run();
    let mut report = FaultSimReport::new();
    let targets: Vec<FaultId> = if config.drop_detected {
        list.undetected().collect()
    } else {
        (0..list.len()).collect()
    };
    let mut launched = vec![0u32; patterns.len()];
    let mut detected = vec![0u32; patterns.len()];

    for batch in targets.chunks(63) {
        let mut inj = Injection::new(gates.len());
        for (lane0, &fid) in batch.iter().enumerate() {
            let f = list.fault(fid);
            let stale = f.transition.stale_polarity();
            inj.stick(FaultSite::Output(f.net), stale, 1 << (lane0 + 1));
        }
        let lanes = lanes_mask(batch.len());
        let mut detected_mask = 0u64;
        let mut prev_site_good: Vec<Option<bool>> = vec![None; batch.len()];
        for t in 0..patterns.len() {
            let values = inj.eval(gates, &in_nets, patterns, t);
            let diff = observe(&values, &out_nets, lanes);
            let cc = patterns.cc(t);
            for (lane0, &fid) in batch.iter().enumerate() {
                let lane_bit = 1u64 << (lane0 + 1);
                if config.drop_detected && detected_mask & lane_bit != 0 {
                    continue;
                }
                let f = list.fault(fid);
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
                launched[t] += 1;
                if diff & lane_bit == 0 {
                    continue;
                }
                if detected_mask & lane_bit == 0 {
                    list.mark_detected(fid, cc, t);
                    detected_mask |= lane_bit;
                    detected[t] += 1;
                } else if !config.drop_detected {
                    detected[t] += 1;
                }
            }
        }
    }
    finish(&mut report, patterns, &launched, &detected);
    report
}
