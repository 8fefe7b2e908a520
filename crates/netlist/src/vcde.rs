//! The "VCDE" pattern-sequence format.
//!
//! The paper's flow stores "the sequence of test patterns per clock cycle
//! applied to the target module" in VCDE files consumed by the fault
//! simulator. [`PatternSeq`] is the in-memory form: a timestamped sequence of
//! fixed-width bit vectors; [`PatternSeq::to_vcde`] / [`PatternSeq::from_vcde`]
//! give the text form:
//!
//! ```text
//! VCDE 1 <width>
//! <cc> <hex-vector>
//! ...
//! ```

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A timestamped sequence of fixed-width test patterns.
///
/// Row `i` is the input vector applied at clock cycle [`PatternSeq::cc`]`(i)`.
/// Bit 0 is the first flat input-bit position of the target module's port
/// map. Rows are bit-packed.
///
/// # Examples
///
/// ```
/// use warpstl_netlist::PatternSeq;
///
/// let mut p = PatternSeq::new(12);
/// p.push_value(100, 0xabc);
/// p.push_value(105, 0x123);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.value(0), 0xabc);
/// assert_eq!(p.cc(1), 105);
///
/// let text = p.to_vcde();
/// let back = PatternSeq::from_vcde(&text)?;
/// assert_eq!(back, p);
/// # Ok::<(), warpstl_netlist::ParseVcdeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSeq {
    width: usize,
    words_per_row: usize,
    ccs: Vec<u64>,
    data: Vec<u64>,
}

impl PatternSeq {
    /// An empty sequence of `width`-bit patterns.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    #[must_use]
    pub fn new(width: usize) -> PatternSeq {
        assert!(width > 0, "pattern width must be positive");
        PatternSeq {
            width,
            words_per_row: width.div_ceil(64),
            ccs: Vec::new(),
            data: Vec::new(),
        }
    }

    /// The pattern width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ccs.len()
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ccs.is_empty()
    }

    /// The clock-cycle stamp of row `i`.
    #[must_use]
    pub fn cc(&self, i: usize) -> u64 {
        self.ccs[i]
    }

    /// The packed words of row `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Bit `bit` of row `i`.
    #[must_use]
    pub fn bit(&self, i: usize, bit: usize) -> bool {
        debug_assert!(bit < self.width);
        (self.row(i)[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Row `i` as an integer (only valid for widths up to 64).
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    #[must_use]
    pub fn value(&self, i: usize) -> u64 {
        assert!(self.width <= 64, "value() requires width <= 64");
        let mask = if self.width == 64 {
            !0
        } else {
            (1u64 << self.width) - 1
        };
        self.row(i)[0] & mask
    }

    /// Appends a row from packed words.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong number of words.
    pub fn push_row(&mut self, cc: u64, row: &[u64]) {
        assert_eq!(row.len(), self.words_per_row, "wrong row width");
        self.ccs.push(cc);
        self.data.extend_from_slice(row);
        // Mask out bits beyond the width so Eq and hex round-trips are exact.
        if !self.width.is_multiple_of(64) {
            let last = self.data.len() - 1;
            self.data[last] &= (1u64 << (self.width % 64)) - 1;
        }
    }

    /// Appends a row from individual bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the width.
    pub fn push_bits(&mut self, cc: u64, bits: &[bool]) {
        assert_eq!(bits.len(), self.width, "wrong bit count");
        let mut row = vec![0u64; self.words_per_row];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                row[i / 64] |= 1 << (i % 64);
            }
        }
        self.push_row(cc, &row);
    }

    /// Appends a row from an integer (widths up to 64).
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn push_value(&mut self, cc: u64, value: u64) {
        assert!(self.width <= 64, "push_value() requires width <= 64");
        self.push_row(cc, &[value]);
    }

    /// A copy with the rows in reverse order (the paper applies the
    /// SFU_IMM patterns "in reverse order during the fault simulation").
    #[must_use]
    pub fn reversed(&self) -> PatternSeq {
        PatternSeq {
            width: self.width,
            words_per_row: self.words_per_row,
            ccs: self.ccs.iter().rev().copied().collect(),
            data: self
                .data
                .chunks_exact(self.words_per_row)
                .rev()
                .flatten()
                .copied()
                .collect(),
        }
    }

    /// Whether every row of `self` also occurs somewhere in `other`
    /// (clock-cycle stamps ignored). Sequences of different widths share
    /// no rows, so the test is then `false` unless `self` is empty.
    #[must_use]
    pub fn rows_subset_of(&self, other: &PatternSeq) -> bool {
        if self.is_empty() {
            return true;
        }
        if self.width != other.width {
            return false;
        }
        let rows = other.row_set();
        self.data
            .chunks_exact(self.words_per_row)
            .all(|row| rows.contains(row))
    }

    /// The row values the sequence applies, each once, borrowed from it
    /// (clock-cycle stamps ignored): the membership test behind
    /// [`PatternSeq::rows_subset_of`]. Rows are compared as packed words,
    /// so only rows of sequences of one width may be looked up.
    #[must_use]
    pub fn row_set(&self) -> HashSet<&[u64]> {
        self.data.chunks_exact(self.words_per_row).collect()
    }

    /// Serializes to VCDE text.
    #[must_use]
    pub fn to_vcde(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "VCDE 1 {}", self.width);
        let nibbles = self.width.div_ceil(4);
        for i in 0..self.len() {
            let _ = write!(s, "{} ", self.cc(i));
            // MSB-first hex.
            for n in (0..nibbles).rev() {
                let mut v = 0u8;
                for b in 0..4 {
                    let bit = n * 4 + b;
                    if bit < self.width && self.bit(i, bit) {
                        v |= 1 << b;
                    }
                }
                let _ = write!(s, "{v:x}");
            }
            s.push('\n');
        }
        s
    }

    /// Parses VCDE text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseVcdeError`] on malformed headers, rows, or hex fields.
    pub fn from_vcde(text: &str) -> Result<PatternSeq, ParseVcdeError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| ParseVcdeError::new("empty file"))?;
        let mut parts = header.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("VCDE"), Some("1")) => {}
            _ => return Err(ParseVcdeError::new("bad header")),
        }
        let width: usize = parts
            .next()
            .and_then(|w| w.parse().ok())
            .filter(|&w| w > 0)
            .ok_or_else(|| ParseVcdeError::new("bad width"))?;
        let mut seq = PatternSeq::new(width);
        let nibbles = width.div_ceil(4);
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let cc: u64 = parts
                .next()
                .and_then(|c| c.parse().ok())
                .ok_or_else(|| ParseVcdeError::new(format!("row {}: bad cc", lineno + 2)))?;
            let hex = parts.next().ok_or_else(|| {
                ParseVcdeError::new(format!("row {}: missing vector", lineno + 2))
            })?;
            if hex.len() != nibbles {
                return Err(ParseVcdeError::new(format!(
                    "row {}: expected {nibbles} hex digits, got {}",
                    lineno + 2,
                    hex.len()
                )));
            }
            let mut bits = vec![false; width];
            for (pos, ch) in hex.chars().rev().enumerate() {
                let v = ch
                    .to_digit(16)
                    .ok_or_else(|| ParseVcdeError::new(format!("row {}: bad hex", lineno + 2)))?;
                for b in 0..4 {
                    let bit = pos * 4 + b;
                    if bit < width {
                        bits[bit] = (v >> b) & 1 == 1;
                    } else if (v >> b) & 1 == 1 {
                        return Err(ParseVcdeError::new(format!(
                            "row {}: set bit beyond width",
                            lineno + 2
                        )));
                    }
                }
            }
            seq.push_bits(cc, &bits);
        }
        Ok(seq)
    }
}

/// An error produced while parsing VCDE text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVcdeError(String);

impl ParseVcdeError {
    fn new(msg: impl Into<String>) -> ParseVcdeError {
        ParseVcdeError(msg.into())
    }
}

impl fmt::Display for ParseVcdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid VCDE: {}", self.0)
    }
}

impl Error for ParseVcdeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_bits_wide() {
        let mut p = PatternSeq::new(100);
        let bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        p.push_bits(7, &bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(p.bit(0, i), b, "bit {i}");
        }
        assert_eq!(p.cc(0), 7);
        assert_eq!(p.row(0).len(), 2);
    }

    #[test]
    fn vcde_round_trip_wide() {
        let mut p = PatternSeq::new(67);
        for i in 0..10u64 {
            let bits: Vec<bool> = (0..67).map(|b| (b as u64 + i) % 5 < 2).collect();
            p.push_bits(i * 3, &bits);
        }
        let text = p.to_vcde();
        assert_eq!(PatternSeq::from_vcde(&text).unwrap(), p);
    }

    #[test]
    fn vcde_rejects_garbage() {
        assert!(PatternSeq::from_vcde("").is_err());
        assert!(PatternSeq::from_vcde("VCDE 2 8\n").is_err());
        assert!(PatternSeq::from_vcde("VCDE 1 0\n").is_err());
        assert!(PatternSeq::from_vcde("VCDE 1 8\nxx ff\n").is_err());
        assert!(PatternSeq::from_vcde("VCDE 1 8\n0 f\n").is_err());
        assert!(PatternSeq::from_vcde("VCDE 1 8\n0 zz\n").is_err());
        // Set bit beyond declared width.
        assert!(PatternSeq::from_vcde("VCDE 1 7\n0 ff\n").is_err());
    }

    #[test]
    fn reversed_swaps_order_and_keeps_stamps() {
        let mut p = PatternSeq::new(8);
        p.push_value(1, 0x11);
        p.push_value(2, 0x22);
        p.push_value(3, 0x33);
        let r = p.reversed();
        assert_eq!(r.value(0), 0x33);
        assert_eq!(r.cc(0), 3);
        assert_eq!(r.value(2), 0x11);
        assert_eq!(r.reversed(), p);
    }

    #[test]
    fn rows_subset_ignores_stamps_and_detects_new_rows() {
        let mut p = PatternSeq::new(8);
        p.push_value(1, 0x11);
        p.push_value(2, 0x22);
        let mut q = PatternSeq::new(8);
        q.push_value(100, 0x22);
        q.push_value(200, 0x22);
        assert!(q.rows_subset_of(&p), "stamps must not matter");
        assert!(!p.rows_subset_of(&q), "0x11 is a new row for q");
        // The row set behind the test holds each applied row once.
        let rows = q.row_set();
        assert_eq!(rows.len(), 1);
        assert!(rows.contains(p.row(1)) && !rows.contains(p.row(0)));
        q.push_value(300, 0x33);
        assert!(!q.rows_subset_of(&p));
        // Widths never mix, except that the empty stream is a subset of
        // anything.
        let mut wide = PatternSeq::new(9);
        wide.push_value(1, 0x11);
        assert!(!wide.rows_subset_of(&p));
        assert!(PatternSeq::new(9).rows_subset_of(&p));
    }

    #[test]
    fn push_row_masks_spare_bits() {
        let mut p = PatternSeq::new(4);
        p.push_row(0, &[0xff]);
        assert_eq!(p.value(0), 0xf);
        let mut q = PatternSeq::new(4);
        q.push_value(0, 0xf);
        assert_eq!(p, q);
    }

    #[test]
    fn width_64_value() {
        let mut p = PatternSeq::new(64);
        p.push_value(0, u64::MAX);
        assert_eq!(p.value(0), u64::MAX);
    }
}
