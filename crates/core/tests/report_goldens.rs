//! Report goldens: the deterministic `CompactionReport::to_json` bytes of
//! one small PTP per target module, under stuck-at and under bridging
//! faults, pinned against fixtures under `tests/fixtures/report_goldens/`.
//! Two PTPs per module are compacted in order against one context, so
//! the second report also pins the fault-dropping state the first run
//! left in the shared lists.
//!
//! The fixtures were written by the simulators these reports came from
//! before stuck-at and bridging shared one fault-simulation core, so a
//! passing run proves the shared core reproduces every report byte: the
//! per-cycle Fault Sim Report feeds labeling and reduction, and the JSON
//! carries the resulting sizes, durations, SB counts, and coverages.

use std::path::PathBuf;

use warpstl_core::Compactor;
use warpstl_fault::{BridgeConfig, FaultModel};
use warpstl_netlist::modules::ModuleKind;
use warpstl_programs::generators::{
    generate_fpu, generate_imm, generate_rand_sp, generate_sfu_imm, FpuConfig, ImmConfig,
    RandConfig, SfuImmConfig,
};
use warpstl_programs::Ptp;

/// The bridge-pair budget of the bridging goldens.
const BRIDGE_PAIRS: usize = 16;

/// Two small PTPs per module, differing only in their generator seed:
/// IMM on the DU, RAND on the SP cores, SFU_IMM (reverse-order fault
/// simulation, as the paper runs it) on the SFUs, and the FPU program on
/// the FP32 units.
fn cases() -> Vec<(&'static str, ModuleKind, [Ptp; 2], bool)> {
    let imm = |seed| {
        generate_imm(&ImmConfig {
            sb_count: 6,
            seed,
            ..ImmConfig::default()
        })
    };
    let rand = |seed| {
        generate_rand_sp(&RandConfig {
            sb_count: 4,
            seed,
            ..RandConfig::default()
        })
    };
    let sfu_imm = |seed| {
        generate_sfu_imm(&SfuImmConfig {
            max_patterns: 8,
            seed,
            ..SfuImmConfig::default()
        })
    };
    let fpu = |seed| {
        generate_fpu(&FpuConfig {
            sb_count: 4,
            seed,
            ..FpuConfig::default()
        })
    };
    vec![
        (
            "decoder_unit",
            ModuleKind::DecoderUnit,
            [imm(1), imm(2)],
            false,
        ),
        ("sp_core", ModuleKind::SpCore, [rand(1), rand(2)], false),
        ("sfu", ModuleKind::Sfu, [sfu_imm(1), sfu_imm(2)], true),
        ("fp32", ModuleKind::Fp32, [fpu(1), fpu(2)], false),
    ]
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/report_goldens")
        .join(format!("{name}.json"))
}

/// The JSON of both reports, each followed by a newline.
fn report_json(module: ModuleKind, ptps: &[Ptp; 2], reverse: bool, model: FaultModel) -> String {
    let compactor = Compactor {
        fault_model: model,
        bridge_config: BridgeConfig {
            pairs: BRIDGE_PAIRS,
            ..BridgeConfig::default()
        },
        reverse_patterns: reverse,
        ..Compactor::default()
    };
    let mut ctx = compactor.context_for(module);
    let mut json = String::new();
    for ptp in ptps {
        let out = compactor
            .compact(ptp, &mut ctx)
            .expect("golden PTP compacts");
        json.push_str(&out.report.to_json());
        json.push('\n');
    }
    json
}

#[test]
fn reports_match_the_pinned_goldens() {
    let mut mismatches = Vec::new();
    for (module_name, module, ptps, reverse) in cases() {
        for model in [FaultModel::StuckAt, FaultModel::Bridging] {
            let name = format!("{module_name}-{model}");
            let expected = std::fs::read_to_string(fixture(&name))
                .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
            let got = report_json(module, &ptps, reverse, model);
            if got != expected {
                mismatches.push(format!("{name}:\n  expected {expected}\n  got      {got}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "report bytes drifted from the goldens:\n{}",
        mismatches.join("\n")
    );
}
