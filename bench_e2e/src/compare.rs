//! `--compare BASE NEW`: one row per workload × end-to-end metric between
//! two run sets, judged against the bounds in `BENCHMARK.json`.
//!
//! A run set is a JSON-lines file, one line per benchmark run:
//! `{"workload": …, "seed": …, "trace": 0, "host_cores": …, "rev": …,
//! "result": <the run's last output line>}` — what `runset.sh` writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use warpstl_serve::json::{self, Json};

use crate::stats;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Values of one run set: `(workload, metric) → one value per run`.
type RunSet = BTreeMap<(String, String), Vec<f64>>;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The workload names and end-to-end metrics of a `BENCHMARK.json`.
fn declared(text: &str) -> Result<(Vec<String>, Vec<Declared>), String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json lacks `{key}`")),
    };
    let str_of = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry lacks `{key}`"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| str_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: str_of(m, "name")?,
                higher_is_better: str_of(m, "better")? == "higher",
                bound: match m.get("bound") {
                    Some(Json::Num(b)) => *b,
                    _ => return Err("BENCHMARK.json metric lacks `bound`".to_string()),
                },
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

fn run_set(path: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in read(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = row
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = row.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}:{}: no result metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(Json::Num(v)) = m.get("value") {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(*v);
            }
        }
    }
    Ok(set)
}

/// better / worse / unresolved / same for one metric (see the module
/// docs of `main` for the rule).
fn verdict(base: &[f64], new: &[f64], m: &Declared) -> &'static str {
    let sign = if m.higher_is_better { 1.0 } else { -1.0 };
    if new
        .iter()
        .all(|n| base.iter().all(|b| sign * (n - b) > 0.0))
    {
        return "better";
    }
    let rel_iqr = |v: &[f64]| {
        let med = stats::median(v).unwrap_or(0.0).abs().max(f64::MIN_POSITIVE);
        stats::iqr(v).unwrap_or(0.0) / med
    };
    if rel_iqr(base) > m.bound || rel_iqr(new) > m.bound {
        return "unresolved";
    }
    let (mb, mn) = (
        stats::median(base).unwrap_or(0.0),
        stats::median(new).unwrap_or(0.0),
    );
    let gain = sign * (mn - mb) / mb.abs().max(f64::MIN_POSITIVE);
    if gain < -m.bound {
        "worse"
    } else if gain > rel_iqr(base) {
        "better"
    } else {
        "same"
    }
}

/// Renders the comparison table of two run-set files.
///
/// # Errors
///
/// An unreadable or malformed file, or a workload × metric pair that one
/// side lacks.
pub fn compare(benchmark_json: &str, base: &str, new: &str) -> Result<String, String> {
    let (workloads, metrics) = declared(&read(benchmark_json)?)?;
    let (base_set, new_set) = (run_set(base)?, run_set(new)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<24} {:>14} {:>9} {:>14} {:>9} {:>9}  verdict (bound)",
        "workload", "metric", "base median", "base IQR", "new median", "new IQR", "delta"
    );
    for w in &workloads {
        for m in &metrics {
            let key = (w.clone(), m.name.clone());
            let (Some(b), Some(n)) = (base_set.get(&key), new_set.get(&key)) else {
                return Err(format!("{w} / {}: missing from a run set", m.name));
            };
            let (mb, mn) = (
                stats::median(b).unwrap_or(0.0),
                stats::median(n).unwrap_or(0.0),
            );
            let pct = |x: f64, of: f64| 100.0 * x / of.abs().max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "{w:<10} {:<24} {mb:>14.6} {:>8.2}% {mn:>14.6} {:>8.2}% {:>+8.2}%  {} ({:.0}%)",
                m.name,
                pct(stats::iqr(b).unwrap_or(0.0), mb),
                pct(stats::iqr(n).unwrap_or(0.0), mn),
                pct(mn - mb, mb),
                verdict(b, n, m),
                100.0 * m.bound,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "compact_s".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Every new run beats every base run: better, whatever the spread.
        assert_eq!(verdict(&base, &[0.90, 0.91, 0.89], &lower(0.01)), "better");
        // Within the bound: same.
        assert_eq!(
            verdict(&base, &[1.00, 1.02, 0.99, 1.01], &lower(0.1)),
            "same"
        );
        // Worse by more than the bound, with tight spreads: worse.
        assert_eq!(
            verdict(&base, &[1.20, 1.21, 1.19, 1.2], &lower(0.1)),
            "worse"
        );
        // A side whose spread exceeds the bound cannot be judged.
        assert_eq!(
            verdict(&base, &[0.5, 2.0, 1.0, 1.5, 0.7], &lower(0.1)),
            "unresolved"
        );
    }

    #[test]
    fn declared_reads_workloads_and_bounds() {
        let text = r#"{"workloads": [{"name": "a", "why": "x"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "higher", "bound": 0.1}]}"#;
        let (w, m) = declared(text).unwrap();
        assert_eq!(w, vec!["a".to_string()]);
        assert!(m[0].higher_is_better);
        assert_eq!(m[0].bound, 0.1);
    }
}
