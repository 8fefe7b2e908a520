//! The verifier's relocation rule against a per-thread oracle. The rule
//! counts each (SB, word)'s backed threads once from the data image; the
//! oracle below probes every thread's address of every slot load. On
//! generated MEM programs, before and after reduction and with data words
//! deleted, both report the same findings, and both layouts pass the
//! parser's slot-stride check. A header claiming 2^32 threads lints in
//! well under a second.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use warpstl_core::Compactor;
use warpstl_isa::Opcode;
use warpstl_netlist::modules::ModuleKind;
use warpstl_programs::generators::{generate_mem, MemConfig};
use warpstl_programs::serialize::{ptp_from_text, ptp_to_text};
use warpstl_programs::Ptp;
use warpstl_verify::{verify_ptp, Rule};

/// The relocation findings of `ptp`, probing every thread of every slot
/// load for its backing data word: (pc, message).
fn per_thread_oracle(ptp: &Ptp) -> Vec<(Option<usize>, String)> {
    let Some(slots) = ptp.sb_slots else {
        return Vec::new();
    };
    let have: HashSet<u64> = ptp.global_init.iter().map(|&(addr, _)| addr).collect();
    let mut out = Vec::new();
    for (pc, instr) in ptp.program.iter().enumerate() {
        let Some(m) = instr.mem_ref().filter(|_| instr.opcode == Opcode::Ldg) else {
            continue;
        };
        if m.base.index() != slots.base_reg {
            continue;
        }
        let word = m.offset as usize / 4;
        let (sb, w) = (word / slots.words_per_sb, word % slots.words_per_sb);
        if sb >= slots.sb_count {
            let n = slots.sb_count;
            let message =
                format!("slot load addresses SB {sb}, beyond the relocated layout of {n} SB(s)");
            out.push((Some(pc), message));
            continue;
        }
        let missing = (0..slots.threads)
            .filter(|&t| !have.contains(&slots.addr(t, sb, w)))
            .count();
        if missing > 0 {
            let message = format!(
                "slot load of SB {sb} word {w} has no backing data word for {missing}/{} thread(s)",
                slots.threads
            );
            out.push((Some(pc), message));
        }
    }
    out
}

/// The rule's findings, in program order.
fn relocation_findings(ptp: &Ptp) -> Vec<(Option<usize>, String)> {
    verify_ptp(ptp)
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == Rule::Relocation)
        .map(|d| (d.pc, d.message))
        .collect()
}

/// `ptp` without every `k`-th data word, counting from `skip`.
fn deleting(ptp: &Ptp, k: usize, skip: usize) -> Ptp {
    let mut out = ptp.clone();
    out.global_init = ptp
        .global_init
        .iter()
        .enumerate()
        .filter(|&(i, _)| i < skip || !(i - skip).is_multiple_of(k))
        .map(|(_, &word)| word)
        .collect();
    out
}

#[test]
fn relocation_findings_equal_the_per_thread_count() {
    let compactor = Compactor::default();
    let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
    let (mut findings, mut relocated) = (0, 0);
    for (sb_count, threads, seed) in [(6, 32, 1), (12, 8, 7), (20, 3, 0x3333_4444)] {
        let ptp = generate_mem(&MemConfig {
            sb_count,
            seed,
            threads,
        });
        let compacted = compactor
            .compact(&ptp, &mut ctx)
            .expect("compacts")
            .compacted;
        relocated += usize::from(compacted.global_init.len() < ptp.global_init.len());
        for program in [&ptp, &compacted] {
            // The generator's and the reduction's layouts fit their
            // stride, so both reparse under the stride check.
            let reparsed = ptp_from_text(&ptp_to_text(program)).expect("reparses");
            assert_eq!(reparsed.sb_slots, program.sb_slots);
            assert!(relocation_findings(program).is_empty());
            for (k, skip) in [(1, 0), (2, 1), (5, 3), (17, 0)] {
                let gappy = deleting(program, k, skip);
                let want = per_thread_oracle(&gappy);
                assert_eq!(
                    relocation_findings(&gappy),
                    want,
                    "every {k}th word from {skip}"
                );
                findings += want.len();
            }
        }
    }
    assert!(findings > 0, "no case left a slot load unbacked");
    assert!(relocated > 0, "no reduction relocated the data image");
}

#[test]
fn a_four_billion_thread_header_lints_in_under_a_second() {
    let ptp = generate_mem(&MemConfig {
        sb_count: 4,
        threads: 32,
        ..MemConfig::default()
    });
    let slots = ptp.sb_slots.expect("MEM lays out slots");
    let header = |threads: u64| {
        format!(
            "; slots {} {} {} {} {} {threads}",
            slots.base, slots.base_reg, slots.words_per_sb, slots.sb_count, slots.stride_words
        )
    };
    let text = ptp_to_text(&ptp).replace(&header(32), &header(1 << 32));
    let huge = ptp_from_text(&text).expect("parses");
    let start = Instant::now();
    let findings = relocation_findings(&huge);
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "lint took {elapsed:?}");
    // Every slot load still finds the 32 generated threads' words.
    let missing = format!("{}/{} thread(s)", (1u64 << 32) - 32, 1u64 << 32);
    assert!(!findings.is_empty());
    assert!(
        findings.iter().all(|(_, m)| m.ends_with(&missing)),
        "{findings:?}"
    );
}
