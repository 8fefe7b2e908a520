//! Runs every workload of `BENCHMARK.json` at `--quick` size and checks
//! that the binary prints every metric the JSON names with a finite value
//! and passes its correctness checks — so the binary and `BENCHMARK.json`
//! cannot drift apart.

use std::path::Path;
use std::process::{Child, Command, Stdio};

use warpstl_serve::json::{self, Json};

const EXE: &str = env!("CARGO_BIN_EXE_bench_e2e");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks `{key}`");
    };
    items
        .iter()
        .map(|i| {
            i.get("name")
                .and_then(Json::as_str)
                .expect("named entry")
                .to_string()
        })
        .collect()
}

/// Starts one quick workload.
fn spawn(workload: &str, trace: &str) -> Child {
    Command::new(EXE)
        .args([
            "--workload",
            workload,
            "--quick",
            "--seed",
            "7",
            "--trace",
            trace,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run bench_e2e")
}

/// Waits for a run; returns its output lines and the parsed result line.
fn finish(child: Child, what: &str) -> (String, Json) {
    let out = child.wait_with_output().expect("wait for bench_e2e");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{what} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    (stdout, result)
}

fn assert_metrics(result: &Json, expected: &[String], what: &str) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_count)
            .is_some_and(|n| n >= 1),
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_count),
        Some(0),
        "{what}"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let printed: Vec<&String> = metrics.keys().collect();
    let mut wanted: Vec<&String> = expected.iter().collect();
    wanted.sort();
    assert_eq!(
        printed, wanted,
        "{what}: printed metrics differ from BENCHMARK.json"
    );
    for (name, m) in metrics {
        match m.get("value") {
            Some(Json::Num(v)) if v.is_finite() => {}
            other => panic!("{what}: {name} has value {other:?}"),
        }
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{what}: {name} has no unit"
        );
    }
}

/// The value of the human-readable line `name value unit`.
fn printed(lines: &str, name: &str) -> Option<f64> {
    lines.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?.strip_prefix(' ')?;
        rest.split(' ').next()?.parse().ok()
    })
}

// Traced runs also print the end-to-end metrics as text, so one traced
// run per workload checks both tables; one untraced run checks the
// end-to-end result line. The runs go concurrently to keep the test short.
#[test]
fn every_workload_prints_every_declared_metric() {
    let doc = benchmark_json();
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    let workloads = names(&doc, "workloads");
    let untraced = spawn(&workloads[0], "0");
    let traced: Vec<(String, Child)> = workloads
        .iter()
        .map(|w| (w.clone(), spawn(w, "1")))
        .collect();

    let (_, result) = finish(untraced, "untraced run");
    assert_metrics(&result, &end_to_end, "untraced run");
    for (workload, child) in traced {
        let what = format!("{workload} traced");
        let (lines, result) = finish(child, &what);
        assert_metrics(&result, &per_layer, &what);
        for name in &end_to_end {
            assert!(
                printed(&lines, name).is_some_and(f64::is_finite),
                "{what}: no {name} line"
            );
        }
        assert!(lines.contains("report_digest "), "{what}: no report digest");
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace/{workload}.json"));
        assert!(
            trace.is_file(),
            "{what}: no Chrome trace at {}",
            trace.display()
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--seed"]] {
        let out = Command::new(EXE)
            .args(args)
            .output()
            .expect("run bench_e2e");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn compare_reads_the_committed_run_sets() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let out = Command::new(EXE)
        .arg("--compare")
        .args([
            results.join("baseline-a.jsonl"),
            results.join("baseline-b.jsonl"),
        ])
        .output()
        .expect("run bench_e2e --compare");
    let table = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = benchmark_json();
    let rows = names(&doc, "workloads").len() * names(&doc, "end_to_end").len();
    assert_eq!(table.lines().count(), 1 + rows, "{table}");
}
