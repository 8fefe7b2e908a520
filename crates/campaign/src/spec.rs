//! Campaign specs: the declarative JSON naming a scenario matrix.
//!
//! A spec is a flat object. `modules` is the only required field; every
//! axis and knob has a default, so the smallest useful spec is one line:
//!
//! ```json
//! { "modules": ["decoder_unit"] }
//! ```
//!
//! The full schema (defaults in parentheses):
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `name` | string (`"campaign"`) | report title |
//! | `modules` | \[string\] (required) | target modules, by [`ModuleKind`] name |
//! | `lanes` | \[number\] (`[8]`) | SP lanes per SM; validated *per cell* by the job layer, so `[8, 12]` runs the 8-lane cells and reports the 12-lane cells as failed |
//! | `fault_models` | \[string\] (`["stuck-at"]`) | `stuck-at` / `bridging` |
//! | `backends` | \[string\] (`["auto"]`) | `auto` / `event` / `kernel` / `kernel64`: a cell label only — every cell runs the one levelized kernel, so cells that differ only here report identical results |
//! | `drop` | \[bool\] (`[true]`) | fault dropping between patterns |
//! | `sb_count` | number (`6`) | Small Blocks per generated test program |
//! | `seed` | number (`1`) | generator seed |
//! | `bridge_pairs` | number (`0` = model default) | bridging net-pair budget |
//!
//! Axis values are *not* deduplicated: the matrix is exactly the cross
//! product in spec order, module-major, so cell indices are stable and
//! the report is reproducible from the spec text alone.

use std::fmt;

use warpstl_fault::{FaultModel, SimBackend};
use warpstl_netlist::modules::ModuleKind;
use warpstl_serve::json::{parse, Json};

/// One point of the campaign matrix: everything that varies between jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Target module.
    pub module: ModuleKind,
    /// SP lanes per SM (validated by the job layer; 8/16/32 are valid).
    pub lanes: usize,
    /// Fault model the cell compacts against.
    pub model: FaultModel,
    /// The `backends` axis value: a label in the cell name and report.
    /// Fault simulation has one path, so it steers nothing.
    pub backend: SimBackend,
    /// Drop detected faults between patterns.
    pub drop_detected: bool,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}x{}/{}{}",
            self.module.name(),
            self.lanes,
            self.model,
            self.backend,
            if self.drop_detected { "" } else { "/no-drop" }
        )
    }
}

/// A parsed campaign spec: the matrix axes plus generator knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign title, echoed into the report.
    pub name: String,
    /// Target modules, in spec order (the outermost matrix axis).
    pub modules: Vec<ModuleKind>,
    /// Lane counts to sweep. Not validated here: a bad shape becomes a
    /// *failed cell* (the job layer's `BadRequest`), not a dead spec.
    pub lanes: Vec<usize>,
    /// Fault models to sweep.
    pub fault_models: Vec<FaultModel>,
    /// Backend labels to sweep (see [`Cell::backend`]).
    pub backends: Vec<SimBackend>,
    /// Fault-dropping modes to sweep.
    pub drop: Vec<bool>,
    /// Small Blocks per generated test program.
    pub sb_count: usize,
    /// Generator seed.
    pub seed: u64,
    /// Bridging net-pair budget (`0` keeps the model default).
    pub bridge_pairs: usize,
}

impl CampaignSpec {
    /// Parses and validates a spec document.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON, a missing or empty
    /// `modules` array, an unknown module/model/backend name, or a field
    /// of the wrong type. Lane *values* are deliberately not validated
    /// (see [`CampaignSpec::lanes`]).
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let doc = parse(text)?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("campaign spec must be a JSON object".to_string());
        }

        let name = match doc.get("name") {
            None => "campaign".to_string(),
            Some(v) => v
                .as_str()
                .ok_or("field `name` must be a string")?
                .to_string(),
        };

        let modules = string_axis(&doc, "modules")?
            .ok_or("field `modules` is required (an array of module names)")?
            .iter()
            .map(|s| module_by_name(s))
            .collect::<Result<Vec<_>, _>>()?;

        let lanes = match doc.get("lanes") {
            None => vec![8],
            Some(v) => non_empty(count_array(v, "lanes")?, "lanes")?,
        };

        let fault_models = match string_axis(&doc, "fault_models")? {
            None => vec![FaultModel::StuckAt],
            Some(names) => names
                .iter()
                .map(|s| {
                    FaultModel::parse(s)
                        .ok_or_else(|| format!("unknown fault model `{s}` (stuck-at|bridging)"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };

        let backends = match string_axis(&doc, "backends")? {
            None => vec![SimBackend::Auto],
            Some(names) => names
                .iter()
                .map(|s| {
                    SimBackend::parse(s).ok_or_else(|| {
                        format!("unknown backend `{s}` (auto|event|kernel|kernel64)")
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };

        let drop = match doc.get("drop") {
            None => vec![true],
            Some(Json::Arr(items)) => non_empty(
                items
                    .iter()
                    .map(|v| {
                        v.as_bool()
                            .ok_or("field `drop` must be an array of booleans")
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                "drop",
            )?,
            Some(_) => return Err("field `drop` must be an array of booleans".to_string()),
        };

        let sb_count = count_field(&doc, "sb_count")?.unwrap_or(6);
        if sb_count == 0 {
            return Err("field `sb_count` must be at least 1".to_string());
        }
        let seed = count_field(&doc, "seed")?.unwrap_or(1) as u64;
        let bridge_pairs = count_field(&doc, "bridge_pairs")?.unwrap_or(0);

        Ok(CampaignSpec {
            name,
            modules,
            lanes,
            fault_models,
            backends,
            drop,
            sb_count,
            seed,
            bridge_pairs,
        })
    }

    /// Expands the matrix in spec order, module-major: for each module,
    /// every lane count, then every fault model, backend, and drop mode.
    /// Cell indices are the report's row order.
    #[must_use]
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells =
            Vec::with_capacity(self.modules.len() * self.lanes.len() * self.fault_models.len());
        for &module in &self.modules {
            for &lanes in &self.lanes {
                for &model in &self.fault_models {
                    for &backend in &self.backends {
                        for &drop_detected in &self.drop {
                            cells.push(Cell {
                                module,
                                lanes,
                                model,
                                backend,
                                drop_detected,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

fn module_by_name(name: &str) -> Result<ModuleKind, String> {
    ModuleKind::ALL
        .iter()
        .copied()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = ModuleKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown module `{name}` (one of: {})", known.join(", "))
        })
}

/// An optional axis of strings; `Ok(None)` when absent.
fn string_axis(doc: &Json, field: &str) -> Result<Option<Vec<String>>, String> {
    match doc.get(field) {
        None => Ok(None),
        Some(Json::Arr(items)) => {
            let values = items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("field `{field}` must be an array of strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Some(non_empty(values, field)?))
        }
        Some(_) => Err(format!("field `{field}` must be an array of strings")),
    }
}

fn count_array(value: &Json, field: &str) -> Result<Vec<usize>, String> {
    match value {
        Json::Arr(items) => items
            .iter()
            .map(|v| {
                v.as_count().ok_or_else(|| {
                    format!("field `{field}` must be an array of non-negative integers")
                })
            })
            .collect(),
        _ => Err(format!(
            "field `{field}` must be an array of non-negative integers"
        )),
    }
}

fn count_field(doc: &Json, field: &str) -> Result<Option<usize>, String> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_count()
            .map(Some)
            .ok_or_else(|| format!("field `{field}` must be a non-negative integer")),
    }
}

fn non_empty<T>(values: Vec<T>, field: &str) -> Result<Vec<T>, String> {
    if values.is_empty() {
        Err(format!("field `{field}` must not be empty"))
    } else {
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_fills_every_default() {
        let spec = CampaignSpec::parse(r#"{"modules": ["decoder_unit"]}"#).unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.modules, vec![ModuleKind::DecoderUnit]);
        assert_eq!(spec.lanes, vec![8]);
        assert_eq!(spec.fault_models, vec![FaultModel::StuckAt]);
        assert_eq!(spec.backends, vec![SimBackend::Auto]);
        assert_eq!(spec.drop, vec![true]);
        assert_eq!(spec.sb_count, 6);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.bridge_pairs, 0);
    }

    #[test]
    fn full_spec_round_trips_every_axis() {
        let spec = CampaignSpec::parse(
            r#"{
                "name": "sweep",
                "modules": ["sfu", "fp32"],
                "lanes": [8, 16, 32],
                "fault_models": ["stuck-at", "bridging"],
                "backends": ["event", "kernel"],
                "drop": [true, false],
                "sb_count": 4,
                "seed": 7,
                "bridge_pairs": 32
            }"#,
        )
        .unwrap();
        assert_eq!(spec.modules, vec![ModuleKind::Sfu, ModuleKind::Fp32]);
        assert_eq!(spec.lanes, vec![8, 16, 32]);
        assert_eq!(
            spec.fault_models,
            vec![FaultModel::StuckAt, FaultModel::Bridging]
        );
        assert_eq!(spec.backends, vec![SimBackend::Event, SimBackend::Kernel]);
        assert_eq!(spec.drop, vec![true, false]);
        assert_eq!((spec.sb_count, spec.seed, spec.bridge_pairs), (4, 7, 32));
        assert_eq!(spec.expand().len(), 2 * 3 * 2 * 2 * 2);
    }

    #[test]
    fn expansion_is_module_major_and_ordered() {
        let spec = CampaignSpec::parse(
            r#"{"modules": ["decoder_unit", "sfu"], "lanes": [8, 32], "fault_models": ["stuck-at", "bridging"]}"#,
        )
        .unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 8);
        // Outermost axis first: all decoder_unit cells precede all sfu cells.
        assert!(cells[..4]
            .iter()
            .all(|c| c.module == ModuleKind::DecoderUnit));
        assert!(cells[4..].iter().all(|c| c.module == ModuleKind::Sfu));
        // Within a module: lanes-major, then model.
        assert_eq!((cells[0].lanes, cells[0].model), (8, FaultModel::StuckAt));
        assert_eq!((cells[1].lanes, cells[1].model), (8, FaultModel::Bridging));
        assert_eq!((cells[2].lanes, cells[2].model), (32, FaultModel::StuckAt));
        assert_eq!(cells[0].to_string(), "decoder_unit/8xstuck-at/auto");
    }

    #[test]
    fn bad_specs_name_the_offending_field() {
        for (text, needle) in [
            ("[]", "must be a JSON object"),
            ("{", ""), // parser error; any message
            (r#"{"lanes": [8]}"#, "`modules` is required"),
            (r#"{"modules": []}"#, "must not be empty"),
            (r#"{"modules": ["warp_scheduler"]}"#, "unknown module"),
            (
                r#"{"modules": ["sfu"], "fault_models": ["nope"]}"#,
                "unknown fault model",
            ),
            (
                r#"{"modules": ["sfu"], "backends": ["gpu"]}"#,
                "unknown backend",
            ),
            (r#"{"modules": ["sfu"], "lanes": [-8]}"#, "non-negative"),
            (r#"{"modules": ["sfu"], "lanes": 8}"#, "array"),
            (r#"{"modules": ["sfu"], "drop": [1]}"#, "booleans"),
            (r#"{"modules": ["sfu"], "sb_count": 0}"#, "at least 1"),
            (
                r#"{"modules": ["sfu"], "name": 3}"#,
                "`name` must be a string",
            ),
        ] {
            let err = CampaignSpec::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn invalid_lane_values_parse_but_stay_in_the_matrix() {
        // The job layer owns shape validation; the spec only types the axis.
        let spec = CampaignSpec::parse(r#"{"modules": ["sfu"], "lanes": [8, 12]}"#).unwrap();
        assert_eq!(spec.lanes, vec![8, 12]);
    }
}
