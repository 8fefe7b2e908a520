//! Text serialization for PTPs and STLs.
//!
//! An STL is shipped to customers as source artifacts; this module defines
//! a plain-text container holding the assembly plus the launch
//! configuration and data image, so compacted libraries can be saved,
//! diffed and reloaded:
//!
//! ```text
//! ; PTP IMM
//! ; target decoder_unit
//! ; kernel 1 32
//! ; slots 0 5 2 64 128 32        (optional: SB input-slot layout)
//! ; data 0x100 0xdeadbeef        (repeated: initial global-memory words)
//! <assembly text>
//! ; END
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use warpstl_gpu::KernelConfig;
use warpstl_isa::asm;
use warpstl_netlist::modules::ModuleKind;

use crate::{Ptp, SbSlots, Stl};

/// An error produced while parsing PTP/STL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePtpError(String);

impl ParsePtpError {
    fn new(msg: impl Into<String>) -> ParsePtpError {
        ParsePtpError(msg.into())
    }
}

impl fmt::Display for ParsePtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid PTP text: {}", self.0)
    }
}

impl Error for ParsePtpError {}

/// Serializes a PTP to its text container.
///
/// # Examples
///
/// ```
/// use warpstl_programs::generators::{generate_mem, MemConfig};
/// use warpstl_programs::serialize::{ptp_from_text, ptp_to_text};
///
/// let ptp = generate_mem(&MemConfig { sb_count: 4, ..MemConfig::default() });
/// let text = ptp_to_text(&ptp);
/// let back = ptp_from_text(&text)?;
/// assert_eq!(back.name, ptp.name);
/// assert_eq!(back.program, ptp.program);
/// assert_eq!(back.global_init, ptp.global_init);
/// assert_eq!(back.sb_slots, ptp.sb_slots);
/// # Ok::<(), warpstl_programs::serialize::ParsePtpError>(())
/// ```
#[must_use]
pub fn ptp_to_text(ptp: &Ptp) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "; PTP {}", ptp.name);
    let _ = writeln!(s, "; target {}", ptp.target);
    let _ = writeln!(
        s,
        "; kernel {} {}",
        ptp.kernel_config.blocks, ptp.kernel_config.threads_per_block
    );
    if let Some(sl) = &ptp.sb_slots {
        let _ = writeln!(
            s,
            "; slots {} {} {} {} {} {}",
            sl.base, sl.base_reg, sl.words_per_sb, sl.sb_count, sl.stride_words, sl.threads
        );
    }
    for &(addr, value) in &ptp.global_init {
        let _ = writeln!(s, "; data {addr:#x} {value:#x}");
    }
    s.push_str(&asm::disassemble(&ptp.program));
    s.push_str("; END\n");
    s
}

/// Parses a PTP from its text container.
///
/// # Errors
///
/// Returns [`ParsePtpError`] on malformed headers or assembly.
pub fn ptp_from_text(text: &str) -> Result<Ptp, ParsePtpError> {
    let mut name = None;
    let mut target = None;
    let mut kernel = None;
    let mut slots = None;
    let mut data = Vec::new();
    let mut asm_lines = Vec::new();

    for line in text.lines() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix(';') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("PTP") => name = parts.next().map(str::to_string),
                Some("target") => {
                    let t = parts
                        .next()
                        .ok_or_else(|| ParsePtpError::new("missing target"))?;
                    target = Some(
                        ModuleKind::ALL
                            .into_iter()
                            .find(|m| m.name() == t)
                            .ok_or_else(|| ParsePtpError::new(format!("unknown module `{t}`")))?,
                    );
                }
                Some("kernel") => {
                    let b = parse_positive(parts.next(), "kernel blocks")?;
                    let t = parse_positive(parts.next(), "kernel threads")?;
                    kernel = Some(KernelConfig::new(b, t));
                }
                Some("slots") => {
                    let layout = SbSlots {
                        base: parse_num(parts.next(), "slots base")?,
                        base_reg: parse_num(parts.next(), "slots base_reg")?,
                        words_per_sb: parse_slot_words(parts.next())?,
                        sb_count: parse_num(parts.next(), "slots count")?,
                        stride_words: parse_positive(parts.next(), "slots stride")?,
                        threads: parse_num(parts.next(), "slots threads")?,
                    };
                    check_slot_stride(&layout)?;
                    slots = Some(layout);
                }
                Some("data") => {
                    let addr = parse_hex(parts.next(), "data addr")?;
                    let value = parse_hex(parts.next(), "data value")?;
                    let value = u32::try_from(value).map_err(|_| {
                        ParsePtpError::new(format!("data value {value:#x} exceeds 32 bits"))
                    })?;
                    data.push((addr, value));
                }
                Some("END") | None => {}
                Some(other) => {
                    return Err(ParsePtpError::new(format!("unknown directive `{other}`")))
                }
            }
        } else {
            asm_lines.push(line);
        }
    }

    let program = asm::assemble(&asm_lines.join("\n"))
        .map_err(|e| ParsePtpError::new(format!("assembly: {e}")))?;
    let mut ptp = Ptp::new(
        &name.ok_or_else(|| ParsePtpError::new("missing `; PTP <name>`"))?,
        target.ok_or_else(|| ParsePtpError::new("missing `; target`"))?,
        kernel.ok_or_else(|| ParsePtpError::new("missing `; kernel`"))?,
        program,
    );
    ptp.global_init = data;
    ptp.sb_slots = slots;
    Ok(ptp)
}

/// Serializes a whole STL (PTPs concatenated under an `; STL` header).
#[must_use]
pub fn stl_to_text(stl: &Stl) -> String {
    let mut s = format!("; STL {}\n", stl.name());
    for ptp in stl.ptps() {
        s.push_str(&ptp_to_text(ptp));
    }
    s
}

/// Parses an STL.
///
/// # Errors
///
/// Returns [`ParsePtpError`] on malformed content.
pub fn stl_from_text(text: &str) -> Result<Stl, ParsePtpError> {
    let mut lines = text.lines().peekable();
    let header = lines
        .next()
        .ok_or_else(|| ParsePtpError::new("empty STL"))?;
    let name = header
        .trim()
        .strip_prefix("; STL ")
        .ok_or_else(|| ParsePtpError::new("missing `; STL <name>` header"))?;
    let mut stl = Stl::new(name.trim());

    let mut current: Vec<&str> = Vec::new();
    for line in lines {
        current.push(line);
        if line.trim() == "; END" {
            stl.push(ptp_from_text(&current.join("\n"))?);
            current.clear();
        }
    }
    if current.iter().any(|l| !l.trim().is_empty()) {
        return Err(ParsePtpError::new("trailing content after last `; END`"));
    }
    Ok(stl)
}

fn parse_num<T: std::str::FromStr>(s: Option<&str>, what: &str) -> Result<T, ParsePtpError> {
    s.and_then(|v| v.parse().ok())
        .ok_or_else(|| ParsePtpError::new(format!("bad {what}")))
}

/// A count the launch shape or the slot layout divides by, so 0 is
/// rejected here rather than panicking downstream.
fn parse_positive(s: Option<&str>, what: &str) -> Result<usize, ParsePtpError> {
    match parse_num(s, what)? {
        0 => Err(ParsePtpError::new(format!("{what} must be at least 1"))),
        n => Ok(n),
    }
}

/// A slot's word count: the reducer divides load offsets by its byte size
/// (`words_per_sb * 4`), which must therefore neither be 0 nor wrap to 0.
fn parse_slot_words(s: Option<&str>) -> Result<usize, ParsePtpError> {
    let words = parse_positive(s, "slots words")?;
    if words > usize::MAX / 4 {
        return Err(ParsePtpError::new(format!(
            "slots words {words} overflows a byte size"
        )));
    }
    Ok(words)
}

/// A thread's slot array must fit its stride: only then is
/// `SbSlots::locate` the inverse of `SbSlots::addr`, which the reducer's
/// data relocation and the verifier's relocation rule rely on.
fn check_slot_stride(slots: &SbSlots) -> Result<(), ParsePtpError> {
    let array = slots.words_per_sb.checked_mul(slots.sb_count);
    if array.is_none_or(|words| slots.stride_words < words) {
        return Err(ParsePtpError::new(format!(
            "slots stride {} is shorter than {} SB(s) of {} word(s)",
            slots.stride_words, slots.sb_count, slots.words_per_sb
        )));
    }
    Ok(())
}

fn parse_hex(s: Option<&str>, what: &str) -> Result<u64, ParsePtpError> {
    let s = s.ok_or_else(|| ParsePtpError::new(format!("missing {what}")))?;
    let v = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(v, 16).map_err(|_| ParsePtpError::new(format!("bad {what} `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate_cntrl, generate_imm, CntrlConfig, ImmConfig};

    #[test]
    fn ptp_round_trips_with_control_flow() {
        let ptp = generate_cntrl(&CntrlConfig {
            regions: 2,
            loops: 1,
            threads: 64,
            ..CntrlConfig::default()
        });
        let text = ptp_to_text(&ptp);
        let back = ptp_from_text(&text).unwrap();
        assert_eq!(back.program, ptp.program);
        assert_eq!(back.kernel_config, ptp.kernel_config);
        assert_eq!(back.target, ptp.target);
    }

    #[test]
    fn stl_round_trips() {
        let mut stl = Stl::new("lib");
        stl.push(generate_imm(&ImmConfig {
            sb_count: 2,
            ..ImmConfig::default()
        }));
        stl.push(generate_cntrl(&CntrlConfig {
            regions: 1,
            loops: 1,
            threads: 32,
            ..CntrlConfig::default()
        }));
        let text = stl_to_text(&stl);
        let back = stl_from_text(&text).unwrap();
        assert_eq!(back.name(), "lib");
        assert_eq!(back.len(), 2);
        assert_eq!(back.ptps()[0].program, stl.ptps()[0].program);
        assert_eq!(back.ptps()[1].program, stl.ptps()[1].program);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(ptp_from_text("IADD R1, R2, R3;").is_err()); // no headers
        assert!(ptp_from_text("; PTP x\n; target bogus\n; kernel 1 1\nEXIT;").is_err());
        assert!(ptp_from_text("; PTP x\n; target sfu\n; kernel 1 1\nFROB;").is_err());
        assert!(stl_from_text("").is_err());
        assert!(stl_from_text("not a header").is_err());
    }

    /// Parses `header` as the one extra header line of an otherwise valid
    /// PTP and returns the error message.
    fn header_error(header: &str) -> String {
        let text = format!("; PTP x\n; target sfu\n; kernel 1 32\n{header}\nEXIT;\n; END\n");
        ptp_from_text(&text).unwrap_err().to_string()
    }

    #[test]
    fn zero_kernel_blocks_is_a_parse_error() {
        let err = header_error("; kernel 0 32");
        assert!(err.contains("kernel blocks"), "{err}");
    }

    #[test]
    fn zero_kernel_threads_is_a_parse_error() {
        let err = header_error("; kernel 1 0");
        assert!(err.contains("kernel threads"), "{err}");
    }

    #[test]
    fn slot_words_without_a_byte_size_are_parse_errors() {
        let err = header_error("; slots 0 5 0 2 4 32");
        assert!(err.contains("slots words"), "{err}");
        // A word count whose byte size wraps to 0 divides by zero too.
        let err = header_error(&format!("; slots 0 5 {} 2 4 32", usize::MAX / 4 + 1));
        assert!(err.contains("slots words"), "{err}");
    }

    #[test]
    fn zero_slot_stride_is_a_parse_error() {
        let err = header_error("; slots 0 5 2 2 0 32");
        assert!(err.contains("slots stride"), "{err}");
    }

    #[test]
    fn slot_stride_shorter_than_a_slot_array_is_a_parse_error() {
        let err = header_error("; slots 0 5 2 3 5 32");
        assert!(err.contains("slots stride"), "{err}");
        // An array size that overflows never fits.
        let err = header_error(&format!("; slots 0 5 2 {} 8 32", usize::MAX / 2 + 1));
        assert!(err.contains("slots stride"), "{err}");
        // An array that exactly fills its stride parses.
        let text = "; PTP x\n; target sfu\n; kernel 1 32\n; slots 0 5 2 3 6 32\nEXIT;\n; END\n";
        assert!(ptp_from_text(text).is_ok());
    }

    #[test]
    fn data_value_wider_than_a_word_is_a_parse_error() {
        let err = header_error("; data 0x0 0x1ffffffff");
        assert!(err.contains("data value"), "{err}");
        // The widest word still parses.
        let text = "; PTP x\n; target sfu\n; kernel 1 32\n; data 0x0 0xffffffff\nEXIT;\n; END\n";
        assert_eq!(ptp_from_text(text).unwrap().global_init, [(0, u32::MAX)]);
    }

    #[test]
    fn data_and_slots_survive() {
        use warpstl_gpu::KernelConfig;
        use warpstl_isa::{Instruction, Opcode};
        let mut ptp = Ptp::new(
            "d",
            warpstl_netlist::modules::ModuleKind::Sfu,
            KernelConfig::new(2, 64),
            vec![Instruction::bare(Opcode::Exit)],
        );
        ptp.global_init = vec![(0x40, 0xabcd), (0x44, 1)];
        ptp.sb_slots = Some(SbSlots {
            base: 0,
            base_reg: 5,
            words_per_sb: 2,
            sb_count: 9,
            stride_words: 32,
            threads: 64,
        });
        let back = ptp_from_text(&ptp_to_text(&ptp)).unwrap();
        assert_eq!(back.global_init, ptp.global_init);
        assert_eq!(back.sb_slots, ptp.sb_slots);
        assert_eq!(back.kernel_config.blocks, 2);
    }
}
