//! Compaction reports: the rows of the paper's Tables I–III.

use std::fmt;
use std::time::Duration;

use warpstl_analyze::AnalyzeStats;
use warpstl_obs::Metrics;
use warpstl_verify::VerifyStats;

/// The features of a PTP before compaction — one row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct PtpFeatures {
    /// PTP name.
    pub name: String,
    /// Size in instructions.
    pub size: usize,
    /// Fraction of instructions inside the ARC.
    pub arc_fraction: f64,
    /// Duration in clock cycles.
    pub duration: u64,
    /// Standalone fault coverage (fresh fault list), in [0, 1].
    pub fault_coverage: f64,
}

impl fmt::Display for PtpFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:>9} {:>7.1} {:>12} {:>7.2}",
            self.name,
            self.size,
            self.arc_fraction * 100.0,
            self.duration,
            self.fault_coverage * 100.0
        )
    }
}

/// The result of compacting one PTP — one row of Table II/III.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionReport {
    /// PTP name.
    pub name: String,
    /// Original size in instructions.
    pub original_size: usize,
    /// Compacted size in instructions.
    pub compacted_size: usize,
    /// Original duration in clock cycles.
    pub original_duration: u64,
    /// Compacted duration in clock cycles.
    pub compacted_duration: u64,
    /// Standalone fault coverage before compaction, in [0, 1]: the
    /// coverage of the set of faults the original program detects on
    /// fresh lists of the module (the paper's per-PTP FC column). The
    /// set is the faults the method's own simulation newly detected plus
    /// those of the already-dropped faults that a masked run over the
    /// original's distinct rows detects; the value is bit-identical to
    /// simulating the whole captured stream on fresh lists.
    pub fc_before: f64,
    /// Standalone fault coverage after compaction, in [0, 1]: the
    /// coverage of the set the compacted program detects on fresh lists.
    /// The set is the original's detected faults whose detecting row the
    /// compacted program still applies, plus what one run over its
    /// distinct rows detects among the rest (restricted to the original's
    /// detected set when the compacted program applies no row the
    /// original did not, and skipped when nothing is left). Bit-identical
    /// to simulating the whole captured stream on fresh lists.
    pub fc_after: f64,
    /// Small Blocks found / removed.
    pub sbs_total: usize,
    /// Small Blocks removed.
    pub sbs_removed: usize,
    /// Instructions labeled essential.
    pub essential_instructions: usize,
    /// Fault simulations used *by the compaction itself* (the paper's
    /// claim: exactly one).
    pub fault_sim_runs: usize,
    /// Logic simulations used by the compaction itself (exactly one).
    pub logic_sim_runs: usize,
    /// Fault classes of the target module statically proven untestable by
    /// the implication engine — excluded from the coverage denominator
    /// and from simulation.
    pub untestable: usize,
    /// Wall-clock time of the compaction (the paper's last column). The
    /// `stage.*` spans of an attached recorder split it by stage.
    pub compaction_time: Duration,
    /// Per-rule diagnostic counts from the netlist lint gate, which the
    /// module's context passed when it was built (so these are the
    /// surviving warnings plus zeroed error rows).
    pub analyze: AnalyzeStats,
    /// Per-rule diagnostic counts from the post-reduction verification
    /// gate (a report only exists when the gate found no errors, so these
    /// are the surviving warnings plus zeroed error rows).
    pub verify: VerifyStats,
    /// Aggregated observability counters and histograms for this
    /// compaction (empty unless the [`Compactor`](crate::Compactor) ran
    /// with a recorder attached). For a shared recorder the compactor
    /// stores the per-PTP *delta*, so sibling reports don't double-count.
    pub metrics: Metrics,
}

impl CompactionReport {
    /// Size reduction as a percentage (the paper's `(%)` columns report the
    /// reduction with a minus sign).
    #[must_use]
    pub fn size_reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.compacted_size as f64 / self.original_size.max(1) as f64)
    }

    /// Duration reduction as a percentage.
    #[must_use]
    pub fn duration_reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.compacted_duration as f64 / self.original_duration.max(1) as f64)
    }

    /// Fault-coverage difference in percentage points (positive = the
    /// compacted PTP covers more).
    #[must_use]
    pub fn fc_diff_pct(&self) -> f64 {
        (self.fc_after - self.fc_before) * 100.0
    }

    /// Serializes the report's *deterministic* fields as a JSON object.
    ///
    /// The wall-clock `compaction_time` and the observability `metrics`
    /// are excluded: they vary run to run. What remains is reproducible
    /// from the inputs alone, so two runs over identical inputs — cached
    /// or not — emit byte-identical JSON. The CLI's `--json`, the bench's
    /// cold-vs-warm block, and the check.sh cache smoke all diff this form.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        format!(
            concat!(
                "{{\n",
                "  \"name\": \"{}\",\n",
                "  \"original_size\": {},\n",
                "  \"compacted_size\": {},\n",
                "  \"original_duration\": {},\n",
                "  \"compacted_duration\": {},\n",
                "  \"fc_before\": {},\n",
                "  \"fc_after\": {},\n",
                "  \"sbs_total\": {},\n",
                "  \"sbs_removed\": {},\n",
                "  \"essential_instructions\": {},\n",
                "  \"fault_sim_runs\": {},\n",
                "  \"logic_sim_runs\": {},\n",
                "  \"untestable\": {},\n",
                "  \"analyze_errors\": {},\n",
                "  \"analyze_warnings\": {},\n",
                "  \"verify_errors\": {},\n",
                "  \"verify_warnings\": {}\n",
                "}}"
            ),
            esc(&self.name),
            self.original_size,
            self.compacted_size,
            self.original_duration,
            self.compacted_duration,
            self.fc_before,
            self.fc_after,
            self.sbs_total,
            self.sbs_removed,
            self.essential_instructions,
            self.fault_sim_runs,
            self.logic_sim_runs,
            self.untestable,
            self.analyze.total_errors(),
            self.analyze.total_warnings(),
            self.verify.total_errors(),
            self.verify.total_warnings(),
        )
    }

    /// Merges several reports into a combined row (the paper's
    /// `IMM+MEM+CNTRL` / `TPGEN+RAND` rows). Coverage fields must be
    /// supplied by the caller (combined FC is not a sum).
    #[must_use]
    pub fn combined(
        name: &str,
        parts: &[&CompactionReport],
        fc_before: f64,
        fc_after: f64,
    ) -> CompactionReport {
        CompactionReport {
            name: name.to_string(),
            original_size: parts.iter().map(|r| r.original_size).sum(),
            compacted_size: parts.iter().map(|r| r.compacted_size).sum(),
            original_duration: parts.iter().map(|r| r.original_duration).sum(),
            compacted_duration: parts.iter().map(|r| r.compacted_duration).sum(),
            fc_before,
            fc_after,
            sbs_total: parts.iter().map(|r| r.sbs_total).sum(),
            sbs_removed: parts.iter().map(|r| r.sbs_removed).sum(),
            essential_instructions: parts.iter().map(|r| r.essential_instructions).sum(),
            fault_sim_runs: parts.iter().map(|r| r.fault_sim_runs).sum(),
            logic_sim_runs: parts.iter().map(|r| r.logic_sim_runs).sum(),
            // Combined rows target one module: the proven set is shared,
            // not additive (mirrors `FaultSimReport::merge`).
            untestable: parts.iter().map(|r| r.untestable).max().unwrap_or(0),
            compaction_time: parts.iter().map(|r| r.compaction_time).sum(),
            analyze: parts
                .iter()
                .fold(AnalyzeStats::default(), |acc, r| acc.merged(&r.analyze)),
            verify: parts
                .iter()
                .fold(VerifyStats::default(), |acc, r| acc.merged(&r.verify)),
            metrics: parts.iter().fold(Metrics::default(), |mut acc, r| {
                acc.merge(&r.metrics);
                acc
            }),
        }
    }
}

impl fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:>8} {:>7.2} {:>12} {:>7.2} {:>+7.2} {:>9.2?}",
            self.name,
            self.compacted_size,
            -self.size_reduction_pct(),
            self.compacted_duration,
            -self.duration_reduction_pct(),
            self.fc_diff_pct(),
            self.compaction_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompactionReport {
        CompactionReport {
            name: "IMM".into(),
            original_size: 1000,
            compacted_size: 30,
            original_duration: 66_000,
            compacted_duration: 2_700,
            fc_before: 0.7113,
            fc_after: 0.7119,
            sbs_total: 60,
            sbs_removed: 58,
            essential_instructions: 25,
            fault_sim_runs: 1,
            logic_sim_runs: 1,
            untestable: 4,
            compaction_time: Duration::from_millis(1234),
            analyze: {
                let mut a = AnalyzeStats::default();
                a.warnings[2] = 1; // one dead-logic warning survived the gate
                a
            },
            verify: {
                let mut v = VerifyStats::default();
                v.warnings[0] = 1;
                v
            },
            metrics: {
                let mut m = Metrics::default();
                m.add("pipeline.fsim_runs", 1);
                m
            },
        }
    }

    #[test]
    fn reductions_are_percentages() {
        let r = sample();
        assert!((r.size_reduction_pct() - 97.0).abs() < 1e-9);
        assert!((r.duration_reduction_pct() - 95.909_09).abs() < 1e-3);
        assert!((r.fc_diff_pct() - 0.06).abs() < 1e-9);
    }

    #[test]
    fn combined_sums_counts() {
        let a = sample();
        let b = sample();
        let c = CompactionReport::combined("BOTH", &[&a, &b], 0.8, 0.79);
        assert_eq!(c.original_size, 2000);
        assert_eq!(c.fault_sim_runs, 2);
        // Shared universe: untestable is a max, not a sum.
        assert_eq!(c.untestable, 4);
        assert!((c.fc_diff_pct() + 1.0).abs() < 1e-9);
        assert_eq!(c.compaction_time, Duration::from_millis(2468));
        assert_eq!(c.analyze.total_warnings(), 2);
        assert_eq!(c.analyze.total_errors(), 0);
        assert_eq!(c.verify.total_warnings(), 2);
        assert_eq!(c.verify.total_errors(), 0);
        assert_eq!(c.metrics.counter("pipeline.fsim_runs"), 2);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut r = sample();
        r.name = "IM\"M\\x".into();
        let j = r.to_json();
        assert_eq!(j, r.clone().to_json());
        assert!(j.contains("\"name\": \"IM\\\"M\\\\x\""));
        assert!(j.contains("\"fc_before\": 0.7113"));
        assert!(j.contains("\"untestable\": 4"));
        assert!(j.contains("\"analyze_warnings\": 1"));
        // Volatile fields stay out: equal inputs give equal JSON even when
        // timings and metrics differ.
        let mut other = r.clone();
        other.compaction_time = Duration::from_secs(99);
        other.metrics = Metrics::default();
        assert_eq!(other.to_json(), j);
        assert!(!j.contains("compaction_time"));
    }

    #[test]
    fn display_is_one_row() {
        let r = sample();
        let s = r.to_string();
        assert!(s.contains("IMM"));
        assert!(s.contains("-97.00"));
        assert_eq!(s.lines().count(), 1);
    }

    #[test]
    fn features_display() {
        let f = PtpFeatures {
            name: "MEM".into(),
            size: 32581,
            arc_fraction: 1.0,
            duration: 3_186_236,
            fault_coverage: 0.7659,
        };
        let s = f.to_string();
        assert!(s.contains("MEM"));
        assert!(s.contains("76.59"));
    }

    #[test]
    fn zero_size_is_guarded() {
        let mut r = sample();
        r.original_size = 0;
        r.compacted_size = 0;
        r.original_duration = 0;
        r.compacted_duration = 0;
        assert!(r.size_reduction_pct().is_finite());
        assert!(r.duration_reduction_pct().is_finite());
    }
}
