//! Lock-step lane streams for the multi-instance tests (`instances_prop`,
//! `detect_prop`): pseudorandom rows, per-fault flag vectors, and the four
//! ways a module's instance streams relate.

use proptest::prelude::*;
use warpstl_netlist::PatternSeq;

/// xorshift64 draws; `state` must be nonzero.
pub fn draws(mut state: u64) -> impl Iterator<Item = u64> {
    std::iter::repeat_with(move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    })
}

/// `count` pseudorandom rows over `width` inputs, stamped `cc0 + index`.
pub fn patterns(width: usize, count: usize, seed: u64, cc0: u64) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for (t, v) in draws(seed | 1).take(count).enumerate() {
        let bits: Vec<bool> = (0..width).map(|b| (v >> b) & 1 == 1).collect();
        p.push_bits(cc0 + t as u64, &bits);
    }
    p
}

/// A pseudorandom per-fault flag vector selecting about half of `n`.
pub fn flags(n: usize, seed: u64) -> Vec<bool> {
    draws(seed | 1).take(n).map(|v| v >> 40 & 1 == 1).collect()
}

/// How the instances' streams relate.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Every instance applies the same stream.
    Identical,
    /// A shared body behind a short per-instance prologue (the SP
    /// programs' thread-id set-up).
    Prologue,
    /// Independently drawn streams.
    Disjoint,
    /// One body cut at different lengths (possibly empty).
    Unequal,
}

pub fn shape() -> impl Strategy<Value = Shape> {
    (0u8..4).prop_map(|v| match v {
        0 => Shape::Identical,
        1 => Shape::Prologue,
        2 => Shape::Disjoint,
        _ => Shape::Unequal,
    })
}

pub fn streams(width: usize, k: usize, shape: Shape, len: usize, seed: u64) -> Vec<PatternSeq> {
    let body = patterns(width, len, seed, 0);
    (0..k)
        .map(|i| {
            let lane = seed.rotate_left(9) ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            match shape {
                Shape::Identical => body.clone(),
                Shape::Prologue => {
                    let mut p = patterns(width, 1 + len / 8, lane, 0);
                    let cc0 = p.len() as u64;
                    for t in 0..body.len() {
                        p.push_row(cc0 + t as u64, body.row(t));
                    }
                    p
                }
                Shape::Disjoint => patterns(width, len, lane, 0),
                Shape::Unequal => {
                    let mut p = PatternSeq::new(width);
                    for t in 0..len * i / k.max(1) {
                        p.push_row(t as u64, body.row(t));
                    }
                    p
                }
            }
        })
        .collect()
}
