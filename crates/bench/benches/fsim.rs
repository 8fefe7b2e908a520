//! Criterion benches for the parallel fault-simulation engine.
//!
//! Times the engine (`fault_simulate`) at several thread counts, with and
//! without a live recorder, and a single-thread drop-mode run, on the
//! Decoder Unit and on the SFU datapath; plus one single-thread kernel row
//! per module at 512 patterns. Non-drop mode is
//! used where runs should process the same work regardless of detection
//! order. Run with `cargo bench -p warpstl-bench --bench fsim`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use warpstl_fault::{
    fault_simulate, fault_simulate_guided, FaultList, FaultSimConfig, FaultUniverse, SimGuide,
};
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::Recorder;

fn pseudorandom_patterns(width: usize, count: usize, mut seed: u64) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for cc in 0..count as u64 {
        let bits: Vec<bool> = (0..width)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & 1 == 1
            })
            .collect();
        p.push_bits(cc, &bits);
    }
    p
}

fn non_drop() -> FaultSimConfig {
    FaultSimConfig {
        drop_detected: false,
        ..FaultSimConfig::default()
    }
}

fn bench_module(c: &mut Criterion, name: &str, netlist: &Netlist, patterns: usize) {
    let pats = pseudorandom_patterns(
        netlist.inputs().width(),
        patterns,
        0xb5eed ^ patterns as u64,
    );
    let universe = FaultUniverse::enumerate(netlist);

    // Oversubscribed thread counts resolve to the host core count; only
    // bench distinct effective configurations.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for threads in [1usize, 2, 4, 8].into_iter().filter(|&t| t <= cores) {
        c.bench_function(&format!("fsim/{name}/engine/{threads}"), |b| {
            b.iter_batched(
                || FaultList::new(&universe),
                |mut list| {
                    fault_simulate(
                        netlist,
                        &pats,
                        &mut list,
                        &FaultSimConfig {
                            threads,
                            ..non_drop()
                        },
                    )
                },
                BatchSize::SmallInput,
            );
        });
    }

    // The observability guard: `engine/1` above is the Obs=None path (what
    // every caller gets without --trace-out); this is the same run with a
    // live recorder. The two must stay within noise of each other, and
    // `engine_observed` bounds the enabled cost.
    let recorder = Recorder::new();
    c.bench_function(&format!("fsim/{name}/engine_observed/1"), |b| {
        b.iter_batched(
            || FaultList::new(&universe),
            |mut list| {
                fault_simulate_guided(
                    netlist,
                    &pats,
                    &mut list,
                    &FaultSimConfig {
                        threads: 1,
                        ..non_drop()
                    },
                    Some(&recorder),
                    &SimGuide::default(),
                )
            },
            BatchSize::SmallInput,
        );
    });

    // Drop mode, single thread: the mode the compaction flow runs.
    let drop1 = FaultSimConfig {
        threads: 1,
        ..FaultSimConfig::default()
    };
    c.bench_function(&format!("fsim/{name}/drop/baseline"), |b| {
        b.iter_batched(
            || FaultList::new(&universe),
            |mut list| fault_simulate(netlist, &pats, &mut list, &drop1),
            BatchSize::SmallInput,
        );
    });
}

/// The levelized kernel, single thread in non-drop mode at 512 patterns
/// (so the 256-bit wide path sees full blocks): `kernel/<module>/kernel256`.
fn bench_kernel_module(c: &mut Criterion, name: &str, netlist: &Netlist, patterns: usize) {
    let pats = pseudorandom_patterns(netlist.inputs().width(), patterns, 0x5e7e ^ patterns as u64);
    let universe = FaultUniverse::enumerate(netlist);
    let cfg = FaultSimConfig {
        drop_detected: false,
        threads: 1,
    };
    c.bench_function(&format!("kernel/{name}/kernel256"), |b| {
        b.iter_batched(
            || FaultList::new(&universe),
            |mut list| fault_simulate(netlist, &pats, &mut list, &cfg),
            BatchSize::SmallInput,
        );
    });
}

/// The analyzer itself (SCOAP + all four lint passes) per bundled module —
/// the pipeline runs this once per compaction as its gate, so its cost must
/// stay negligible next to a fault simulation.
fn bench_analyze(c: &mut Criterion) {
    for kind in ModuleKind::ALL {
        let netlist = kind.build();
        c.bench_function(&format!("analyze/{}", kind.name()), |b| {
            b.iter(|| warpstl_analyze::analyze(&netlist));
        });
    }
}

fn bench_fsim(c: &mut Criterion) {
    bench_module(c, "du_256", &ModuleKind::DecoderUnit.build(), 256);
    bench_module(c, "sfu_128", &ModuleKind::Sfu.build(), 128);
    bench_kernel_module(c, "du_512", &ModuleKind::DecoderUnit.build(), 512);
    bench_kernel_module(c, "sfu_512", &ModuleKind::Sfu.build(), 512);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fsim, bench_analyze
}
criterion_main!(benches);
