#![warn(missing_docs)]
//! # warpstl-campaign
//!
//! Declarative compaction campaigns: one JSON spec names a **matrix of
//! scenarios** — {target module × GPU shape × fault model × drop mode} —
//! and the runner expands the matrix, plans each
//! cell as a store-keyed [`compact_job`](warpstl_core::compact_job), fans
//! the cells out over a bounded worker pool, and folds the results into a
//! deterministic [`CampaignReport`].
//!
//! The point of a campaign is the *comparison*: the same test program
//! compacted against 8/16/32-lane GPU shapes, or against stuck-at vs
//! bridging fault universes, in one invocation with one warm artifact
//! store. Cells that share work share cache entries — identical (netlist,
//! stream, fault-list, model) cells replay fault-simulation stamps — so the
//! matrix costs far less than its cell count suggests.
//!
//! Three layers, mirroring `warpstl serve`'s split:
//!
//! - [`CampaignSpec`] ([`spec`]) — the parsed, validated spec: matrix axes
//!   plus generator knobs (`sb_count`, `seed`, `bridge_pairs`).
//! - [`run_campaign`] ([`runner`]) — matrix expansion, the
//!   [`JobQueue`](warpstl_serve::queue::JobQueue)-fed worker pool, and
//!   per-cell observability (`campaign.cell` spans, `campaign.hit` /
//!   `campaign.miss` / `campaign.failed` counters).
//! - [`CampaignReport`] ([`report`]) — per-cell rows plus cross-cell
//!   aggregates (best shape per module, coverage delta vs each module's
//!   baseline cell), rendered as JSON that is byte-identical across rerun
//!   and across `--jobs 1` vs `--jobs N`.
//!
//! # Determinism contract
//!
//! [`CampaignReport::to_json`] carries only fields that are reproducible
//! functions of the spec: sizes, cycle-accurate durations, coverages,
//! Small-Block counts. Wall-clock timings and cache-traffic counts are
//! deliberately excluded — concurrent cold cells race their store writes,
//! so hit counts differ between `--jobs 1` and `--jobs N` even when every
//! result byte matches. Cache traffic is still visible: per-cell metrics
//! merge into the campaign [`Recorder`](warpstl_obs::Recorder) and the
//! shared store's session counters.
//!
//! # Examples
//!
//! ```
//! use warpstl_campaign::{run_campaign, CampaignConfig, CampaignSpec};
//!
//! # fn main() -> Result<(), String> {
//! let spec = CampaignSpec::parse(
//!     r#"{
//!         "name": "shape-sweep",
//!         "modules": ["decoder_unit"],
//!         "lanes": [8, 32],
//!         "sb_count": 3
//!     }"#,
//! )?;
//! let report = run_campaign(&spec, &CampaignConfig::default());
//! assert_eq!(report.cells.len(), 2);
//! assert_eq!(report.to_json(), run_campaign(&spec, &CampaignConfig::default()).to_json());
//! # Ok(())
//! # }
//! ```

pub mod report;
pub mod runner;
pub mod spec;

pub use report::{CampaignReport, CellResult};
pub use runner::{run_campaign, CampaignConfig};
pub use spec::{CampaignSpec, Cell};
