//! The `analyze` summary's dominance line is an analysis count: the engine
//! simulates every fault class, whatever the dominance relation it prints.

use std::process::Command;

fn analyze_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_warpstl"))
        .arg("analyze")
        .arg("decoder_unit")
        .args(args)
        .output()
        .expect("run warpstl analyze");
    assert!(
        out.status.success(),
        "analyze {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn dominance_line_is_an_analysis_count() {
    // The engine simulates every class, so the stuck-at summary reports the
    // dominance relation without claiming classes are skipped.
    let stuck_at = analyze_stdout(&["--fault-model", "stuck-at"]);
    let line = stuck_at
        .lines()
        .find(|l| l.starts_with("dominance"))
        .unwrap_or_else(|| panic!("no dominance line:\n{stuck_at}"));
    assert!(line.contains("dominated"), "{line}");
    assert!(!line.contains("of classes simulated"), "{line}");
}
