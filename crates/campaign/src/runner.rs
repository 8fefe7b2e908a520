//! The campaign runner: matrix expansion, the bounded worker pool, and
//! per-cell job planning.
//!
//! Every cell funnels through [`compact_job`] — the same store-keyed entry
//! point the CLI and `warpstl serve` dispatch — so a campaign cell is
//! byte-identical to the equivalent `warpstl compact` invocation by
//! construction. The pool mirrors serve's sizing: `N` workers each hand
//! their jobs `host_parallelism() / N` engine threads (at least 1), so a
//! wide matrix does not oversubscribe the host.
//!
//! Worker scheduling is observable but not *load-bearing*: results land in
//! an index-addressed slot table, so the report's row order is the matrix
//! order no matter which worker finished first.

use std::sync::Arc;

use warpstl_core::{compact_job, JobOptions};
use warpstl_fault::host_parallelism;
use warpstl_netlist::modules::ModuleKind;
use warpstl_obs::{names, Obs, ObsExt, Recorder};
use warpstl_programs::generators::{
    generate_fpu, generate_imm, generate_rand_sp, generate_sfu_imm, FpuConfig, ImmConfig,
    RandConfig, SfuImmConfig,
};
use warpstl_programs::serialize::ptp_to_text;
use warpstl_serve::queue::JobQueue;
use warpstl_store::Store;
use warpstl_sync::Mutex;

use crate::report::{CampaignReport, CellResult};
use crate::spec::{CampaignSpec, Cell};

/// How to run a campaign: pool width and the shared facilities.
#[derive(Debug, Clone, Default)]
pub struct CampaignConfig {
    /// Concurrent cells. `0` resolves like serve's worker default:
    /// `min(4, host_parallelism())`.
    pub jobs: usize,
    /// The artifact store shared by *every* cell (one warm store is the
    /// point of a campaign); `None` runs uncached.
    pub store: Option<Arc<Store>>,
    /// Observability sink: receives one `campaign.cell` span plus a
    /// `campaign.hit` / `campaign.miss` / `campaign.failed` count per
    /// cell, and the merged per-cell pipeline metrics.
    pub obs: Option<Arc<Recorder>>,
}

/// Expands the spec's matrix and runs every cell to completion.
///
/// Cells are independent jobs: a failed cell (bad lane count, compaction
/// failure) becomes an error row in the report and the rest of the matrix
/// still runs. The returned report is deterministic — identical for any
/// `jobs` setting and across warm-store reruns.
#[must_use]
pub fn run_campaign(spec: &CampaignSpec, config: &CampaignConfig) -> CampaignReport {
    let cells = spec.expand();
    let ptps = generate_ptps(spec);

    let jobs = if config.jobs == 0 {
        host_parallelism().min(4)
    } else {
        config.jobs
    };
    let workers = jobs.min(cells.len()).max(1);
    let threads_each = (host_parallelism() / workers).max(1);

    let queue: JobQueue<usize> = JobQueue::new(cells.len().max(1));
    for index in 0..cells.len() {
        if queue.try_push(index).is_err() {
            break; // capacity equals the cell count; rejection is impossible
        }
    }
    queue.close();

    let slots: Mutex<Vec<Option<CellResult>>> =
        Mutex::new((0..cells.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(index) = queue.pop() {
                    let cell = cells[index];
                    let outcome = run_cell(spec, &cell, &ptps, threads_each, config);
                    slots.lock()[index] = Some(CellResult { cell, outcome });
                }
            });
        }
    });

    let mut collected = std::mem::take(&mut *slots.lock());
    let results = cells
        .iter()
        .zip(collected.drain(..))
        .map(|(&cell, slot)| {
            slot.unwrap_or_else(|| CellResult {
                cell,
                outcome: Err("cell never ran (worker lost)".to_string()),
            })
        })
        .collect();

    CampaignReport {
        name: spec.name.clone(),
        cells: results,
    }
}

/// One generated test program per *distinct* module, in spec order. Cells
/// of the same module share the text — the compaction input is part of
/// what a shape/model comparison must hold fixed.
fn generate_ptps(spec: &CampaignSpec) -> Vec<(ModuleKind, String)> {
    let mut ptps: Vec<(ModuleKind, String)> = Vec::new();
    for &module in &spec.modules {
        if !ptps.iter().any(|(kind, _)| *kind == module) {
            ptps.push((module, ptp_text_for(module, spec.sb_count, spec.seed)));
        }
    }
    ptps
}

/// The bundled generator targeting `module`, sized by the spec's knobs.
fn ptp_text_for(module: ModuleKind, sb_count: usize, seed: u64) -> String {
    match module {
        ModuleKind::DecoderUnit => ptp_to_text(&generate_imm(&ImmConfig {
            sb_count,
            seed,
            ..ImmConfig::default()
        })),
        ModuleKind::SpCore => ptp_to_text(&generate_rand_sp(&RandConfig {
            sb_count,
            seed,
            ..RandConfig::default()
        })),
        ModuleKind::Sfu => ptp_to_text(&generate_sfu_imm(&SfuImmConfig {
            max_patterns: sb_count,
            seed,
            ..SfuImmConfig::default()
        })),
        ModuleKind::Fp32 => ptp_to_text(&generate_fpu(&FpuConfig {
            sb_count,
            seed,
            ..FpuConfig::default()
        })),
    }
}

fn run_cell(
    spec: &CampaignSpec,
    cell: &Cell,
    ptps: &[(ModuleKind, String)],
    threads: usize,
    config: &CampaignConfig,
) -> Result<warpstl_core::CompactionReport, String> {
    let obs: Obs<'_> = config.obs.as_deref();
    let _span = obs
        .span("campaign", names::CAMPAIGN_CELL)
        .with_arg("module", cell.module.name())
        .with_arg("lanes", cell.lanes)
        .with_arg("model", cell.model);

    let text = ptps
        .iter()
        .find(|(kind, _)| *kind == cell.module)
        .map_or("", |(_, text)| text.as_str());

    let opts = JobOptions {
        // Mirror the STL flow's per-module convention so a campaign cell
        // and `compact-stl` agree on the SFU's pattern order.
        reverse: cell.module == ModuleKind::Sfu,
        threads,
        lanes: cell.lanes,
        fault_model: cell.model,
        bridge_pairs: spec.bridge_pairs,
        drop_detected: cell.drop_detected,
        ..JobOptions::default()
    };

    // A fresh recorder per cell isolates its cache traffic; the metrics
    // fold into the campaign recorder afterwards so nothing is lost.
    let cell_rec = Arc::new(Recorder::new());
    let out = compact_job(text, &opts, config.store.clone(), Some(cell_rec.clone()));

    let cell_metrics = cell_rec.metrics();
    let hits = cell_metrics.counter(names::CACHE_HIT);
    if let Some(rec) = config.obs.as_deref() {
        rec.merge_metrics(&cell_metrics);
    }
    match out {
        Ok(result) => {
            obs.add(
                if hits > 0 {
                    names::CAMPAIGN_HIT
                } else {
                    names::CAMPAIGN_MISS
                },
                1,
            );
            Ok(result.report)
        }
        Err(err) => {
            obs.add(names::CAMPAIGN_FAILED, 1);
            Err(err.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn spec(text: &str) -> CampaignSpec {
        CampaignSpec::parse(text).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("warpstl-campaign-{tag}-{}", std::process::id()))
    }

    #[test]
    fn report_is_byte_identical_across_pool_widths() {
        let spec = spec(r#"{"modules": ["decoder_unit", "sfu"], "lanes": [8, 16], "sb_count": 3}"#);
        let serial = run_campaign(
            &spec,
            &CampaignConfig {
                jobs: 1,
                ..CampaignConfig::default()
            },
        );
        let wide = run_campaign(
            &spec,
            &CampaignConfig {
                jobs: 4,
                ..CampaignConfig::default()
            },
        );
        assert_eq!(serial.cells.len(), 4);
        assert_eq!(serial.to_json(), wide.to_json());
    }

    #[test]
    fn invalid_shapes_fail_their_cells_without_sinking_the_campaign() {
        let rec = Arc::new(Recorder::new());
        let spec = spec(r#"{"modules": ["decoder_unit"], "lanes": [8, 12], "sb_count": 3}"#);
        let report = run_campaign(
            &spec,
            &CampaignConfig {
                jobs: 2,
                obs: Some(rec.clone()),
                ..CampaignConfig::default()
            },
        );
        assert!(report.cells[0].outcome.is_ok());
        let err = report.cells[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("invalid lane count 12"), "{err}");
        let metrics = rec.metrics();
        assert_eq!(metrics.counter(names::CAMPAIGN_FAILED), 1);
        assert_eq!(
            metrics.counter(names::CAMPAIGN_HIT) + metrics.counter(names::CAMPAIGN_MISS),
            1
        );
        // One span per cell, failures included.
        let cell_spans = rec
            .spans()
            .iter()
            .filter(|s| s.name == names::CAMPAIGN_CELL)
            .count();
        assert_eq!(cell_spans, 2);
    }

    #[test]
    fn both_fault_models_complete_in_one_matrix() {
        let spec = spec(
            r#"{"modules": ["decoder_unit"], "fault_models": ["stuck-at", "bridging"], "sb_count": 3, "bridge_pairs": 16}"#,
        );
        let report = run_campaign(&spec, &CampaignConfig::default());
        let stuck = report.cells[0].outcome.as_ref().unwrap();
        let bridge = report.cells[1].outcome.as_ref().unwrap();
        assert!(stuck.fc_before > 0.0);
        assert!(bridge.fc_before > 0.0);
        // Untestability proofs are stuck-at constructs.
        assert_eq!(bridge.untestable, 0);
    }

    #[test]
    fn warm_store_reruns_hit_the_cache_and_keep_the_bytes() {
        let dir = temp_dir("warm");
        let spec = spec(r#"{"modules": ["decoder_unit"], "lanes": [8, 16], "sb_count": 3}"#);

        let cold_store = Arc::new(Store::open(&dir).unwrap());
        let cold = run_campaign(
            &spec,
            &CampaignConfig {
                jobs: 2,
                store: Some(cold_store.clone()),
                ..CampaignConfig::default()
            },
        );
        assert!(cold_store.session().writes > 0);

        let warm_store = Arc::new(Store::open(&dir).unwrap());
        let rec = Arc::new(Recorder::new());
        let warm = run_campaign(
            &spec,
            &CampaignConfig {
                jobs: 2,
                store: Some(warm_store.clone()),
                obs: Some(rec.clone()),
            },
        );
        assert!(warm_store.session().hits > 0);
        assert_eq!(rec.metrics().counter(names::CAMPAIGN_HIT), 2);
        assert_eq!(cold.to_json(), warm.to_json());

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
