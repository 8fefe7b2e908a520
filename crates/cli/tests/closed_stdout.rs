//! A reader that closes stdout early (`warpstl analyze decoder_unit |
//! head -1`) ends the command quietly: exit status 0 and no panic on
//! stderr, instead of a "failed printing to stdout" backtrace.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_analyze_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_warpstl"))
        .args(["analyze", "decoder_unit"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn warpstl analyze");
    // Close the read end before the command writes its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for warpstl analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
