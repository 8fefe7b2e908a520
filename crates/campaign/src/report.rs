//! Campaign reports: per-cell rows plus cross-cell aggregates, rendered
//! as deterministic JSON.
//!
//! The JSON carries only fields that are reproducible functions of the
//! spec — sizes, cycle-accurate durations, coverages, Small-Block counts.
//! Wall-clock timings and cache-traffic counters are excluded on purpose:
//! concurrent cold cells race their store writes, so per-cell hit counts
//! differ between `--jobs 1` and `--jobs N` runs whose results are
//! otherwise identical. Byte-compare the JSON; read cache traffic off the
//! store session or the campaign recorder.

use std::fmt;

use warpstl_core::CompactionReport;
use warpstl_netlist::modules::ModuleKind;
use warpstl_serve::json::escape;

use crate::spec::Cell;

/// One matrix cell's outcome: the compaction report, or why it failed.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// The job's report, or its error rendered as text.
    pub outcome: Result<CompactionReport, String>,
}

/// The winning GPU shape for one module (see [`CampaignReport::best_shape`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestShape {
    /// The module.
    pub module: ModuleKind,
    /// Lane count of the winning cell.
    pub lanes: usize,
    /// That cell's post-compaction coverage.
    pub fc_after: f64,
}

/// Every cell of a finished campaign, in matrix order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The spec's `name`.
    pub name: String,
    /// One row per matrix cell, index-aligned with
    /// [`CampaignSpec::expand`](crate::CampaignSpec::expand).
    pub cells: Vec<CellResult>,
}

impl CampaignReport {
    /// Completed cells (failed rows excluded), with their indices.
    fn ok_cells(&self) -> impl Iterator<Item = (usize, &Cell, &CompactionReport)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.outcome.as_ref().ok().map(|rep| (i, &r.cell, rep)))
    }

    /// The module's *baseline* cell: its first completed cell in matrix
    /// order (the spec's first listed shape/model combination).
    #[must_use]
    pub fn baseline_of(&self, module: ModuleKind) -> Option<&CompactionReport> {
        self.ok_cells()
            .find(|(_, cell, _)| cell.module == module)
            .map(|(_, _, rep)| rep)
    }

    /// Post-compaction coverage delta of cell `index` vs its module's
    /// baseline cell, in coverage points. `None` for failed cells; exactly
    /// `0.0` for each baseline cell itself.
    #[must_use]
    pub fn coverage_delta(&self, index: usize) -> Option<f64> {
        let report = self.cells.get(index)?.outcome.as_ref().ok()?;
        let baseline = self.baseline_of(self.cells[index].cell.module)?;
        Some(report.fc_after - baseline.fc_after)
    }

    /// The best GPU shape per module: among completed cells, the highest
    /// post-compaction coverage, ties broken toward fewer lanes (the
    /// cheaper shape). Modules appear in first-cell order; a module with
    /// no completed cells has no entry.
    #[must_use]
    pub fn best_shape(&self) -> Vec<BestShape> {
        let mut best: Vec<BestShape> = Vec::new();
        for (_, cell, report) in self.ok_cells() {
            match best.iter_mut().find(|b| b.module == cell.module) {
                None => best.push(BestShape {
                    module: cell.module,
                    lanes: cell.lanes,
                    fc_after: report.fc_after,
                }),
                Some(entry) => {
                    let better = report.fc_after > entry.fc_after
                        || (report.fc_after == entry.fc_after && cell.lanes < entry.lanes);
                    if better {
                        entry.lanes = cell.lanes;
                        entry.fc_after = report.fc_after;
                    }
                }
            }
        }
        best
    }

    /// Completed-cell count.
    #[must_use]
    pub fn ok_count(&self) -> usize {
        self.cells.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// Serializes the campaign's *deterministic* fields as a JSON object —
    /// byte-identical across pool widths and warm-store reruns (see the
    /// module docs for what is excluded and why).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"campaign\": \"{}\",\n", escape(&self.name)));
        out.push_str("  \"cells\": [");
        for (index, row) in self.cells.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let cell = &row.cell;
            out.push_str(&format!("      \"module\": \"{}\",\n", cell.module.name()));
            out.push_str(&format!("      \"lanes\": {},\n", cell.lanes));
            out.push_str(&format!("      \"fault_model\": \"{}\",\n", cell.model));
            out.push_str(&format!(
                "      \"drop_detected\": {},\n",
                cell.drop_detected
            ));
            match &row.outcome {
                Err(err) => {
                    out.push_str("      \"status\": \"failed\",\n");
                    out.push_str(&format!("      \"error\": \"{}\"\n", escape(err)));
                }
                Ok(report) => {
                    out.push_str("      \"status\": \"ok\",\n");
                    out.push_str(&format!(
                        "      \"original_size\": {},\n",
                        report.original_size
                    ));
                    out.push_str(&format!(
                        "      \"compacted_size\": {},\n",
                        report.compacted_size
                    ));
                    out.push_str(&format!(
                        "      \"size_ratio\": {},\n",
                        report.compacted_size as f64 / report.original_size.max(1) as f64
                    ));
                    out.push_str(&format!(
                        "      \"original_duration\": {},\n",
                        report.original_duration
                    ));
                    out.push_str(&format!(
                        "      \"compacted_duration\": {},\n",
                        report.compacted_duration
                    ));
                    out.push_str(&format!("      \"fc_before\": {},\n", report.fc_before));
                    out.push_str(&format!("      \"fc_after\": {},\n", report.fc_after));
                    out.push_str(&format!("      \"sbs_total\": {},\n", report.sbs_total));
                    out.push_str(&format!("      \"sbs_removed\": {},\n", report.sbs_removed));
                    out.push_str(&format!("      \"untestable\": {},\n", report.untestable));
                    out.push_str(&format!(
                        "      \"coverage_delta\": {}\n",
                        self.coverage_delta(index).unwrap_or(0.0)
                    ));
                }
            }
            out.push_str("    }");
        }
        if !self.cells.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        out.push_str("  \"aggregates\": {\n");
        out.push_str(&format!("    \"cells_total\": {},\n", self.cells.len()));
        out.push_str(&format!("    \"cells_ok\": {},\n", self.ok_count()));
        out.push_str(&format!(
            "    \"cells_failed\": {},\n",
            self.cells.len() - self.ok_count()
        ));
        out.push_str("    \"best_shape\": [");
        let best = self.best_shape();
        for (i, b) in best.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"module\": \"{}\", \"lanes\": {}, \"fc_after\": {}}}",
                b.module.name(),
                b.lanes,
                b.fc_after
            ));
        }
        if !best.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n");
        out.push_str("  }\n}\n");
        out
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign {}: {} cell(s), {} ok, {} failed",
            self.name,
            self.cells.len(),
            self.ok_count(),
            self.cells.len() - self.ok_count()
        )?;
        for (index, row) in self.cells.iter().enumerate() {
            match &row.outcome {
                Ok(report) => writeln!(
                    f,
                    "{:<36} size {:>5} -> {:<5} cycles {:>8} -> {:<8} fc {:.2}% -> {:.2}% ({:+.2} vs baseline)",
                    row.cell.to_string(),
                    report.original_size,
                    report.compacted_size,
                    report.original_duration,
                    report.compacted_duration,
                    report.fc_before * 100.0,
                    report.fc_after * 100.0,
                    self.coverage_delta(index).unwrap_or(0.0) * 100.0,
                )?,
                Err(err) => writeln!(f, "{:<36} FAILED: {err}", row.cell.to_string())?,
            }
        }
        for b in self.best_shape() {
            writeln!(
                f,
                "best shape for {:<12} {:>2} lanes (fc_after {:.2}%)",
                b.module.name(),
                b.lanes,
                b.fc_after * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_core::{compact_job, JobOptions};
    use warpstl_fault::FaultModel;
    use warpstl_programs::generators::{generate_imm, ImmConfig};
    use warpstl_programs::serialize::ptp_to_text;

    fn base_report() -> CompactionReport {
        let text = ptp_to_text(&generate_imm(&ImmConfig {
            sb_count: 2,
            ..ImmConfig::default()
        }));
        compact_job(&text, &JobOptions::default(), None, None)
            .unwrap()
            .report
    }

    fn cell(module: ModuleKind, lanes: usize) -> Cell {
        Cell {
            module,
            lanes,
            model: FaultModel::StuckAt,
            drop_detected: true,
        }
    }

    fn ok_row(module: ModuleKind, lanes: usize, fc_after: f64) -> CellResult {
        let mut report = base_report();
        report.fc_after = fc_after;
        CellResult {
            cell: cell(module, lanes),
            outcome: Ok(report),
        }
    }

    #[test]
    fn best_shape_prefers_coverage_then_fewer_lanes() {
        let report = CampaignReport {
            name: "t".into(),
            cells: vec![
                ok_row(ModuleKind::DecoderUnit, 32, 0.75),
                ok_row(ModuleKind::DecoderUnit, 8, 0.80),
                ok_row(ModuleKind::Sfu, 16, 0.60),
                ok_row(ModuleKind::Sfu, 8, 0.60), // tie: fewer lanes wins
            ],
        };
        let best = report.best_shape();
        assert_eq!(best.len(), 2);
        assert_eq!(
            (best[0].module, best[0].lanes),
            (ModuleKind::DecoderUnit, 8)
        );
        assert_eq!((best[1].module, best[1].lanes), (ModuleKind::Sfu, 8));
    }

    #[test]
    fn coverage_delta_is_relative_to_the_first_ok_cell_of_the_module() {
        let report = CampaignReport {
            name: "t".into(),
            cells: vec![
                CellResult {
                    cell: cell(ModuleKind::DecoderUnit, 12),
                    outcome: Err("bad request: invalid lane count 12".into()),
                },
                ok_row(ModuleKind::DecoderUnit, 8, 0.50),
                ok_row(ModuleKind::DecoderUnit, 16, 0.75),
            ],
        };
        // The failed cell is skipped: the baseline is the first *ok* cell.
        assert_eq!(report.coverage_delta(0), None);
        assert_eq!(report.coverage_delta(1), Some(0.0));
        assert_eq!(report.coverage_delta(2), Some(0.25));
    }

    #[test]
    fn json_is_deterministic_and_escapes_errors() {
        let report = CampaignReport {
            name: "q\"uote".into(),
            cells: vec![
                ok_row(ModuleKind::DecoderUnit, 8, 0.5),
                CellResult {
                    cell: cell(ModuleKind::DecoderUnit, 12),
                    outcome: Err("lane \"12\" rejected".into()),
                },
            ],
        };
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert!(json.contains("\"campaign\": \"q\\\"uote\""), "{json}");
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("\"error\": \"lane \\\"12\\\" rejected\""));
        assert!(json.contains("\"cells_total\": 2"));
        assert!(json.contains("\"cells_ok\": 1"));
        assert!(json.contains("\"cells_failed\": 1"));
        assert!(json.contains("\"coverage_delta\": 0\n"));
        assert!(json.contains("\"best_shape\": [\n      {\"module\": \"decoder_unit\", \"lanes\": 8, \"fc_after\": 0.5}"));
        // Volatile fields stay out of the byte-compared document.
        assert!(!json.contains("compaction_time"));
        assert!(!json.contains("cache"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn display_lists_cells_and_winners() {
        let report = CampaignReport {
            name: "view".into(),
            cells: vec![
                ok_row(ModuleKind::DecoderUnit, 8, 0.5),
                CellResult {
                    cell: cell(ModuleKind::DecoderUnit, 12),
                    outcome: Err("nope".into()),
                },
            ],
        };
        let text = report.to_string();
        assert!(text.contains("campaign view: 2 cell(s), 1 ok, 1 failed"));
        assert!(text.contains("FAILED: nope"));
        assert!(text.contains("best shape for decoder_unit"));
    }
}
