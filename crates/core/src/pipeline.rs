//! The five-stage compaction pipeline.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use warpstl_fault::{
    BridgeConfig, FaultId, FaultList, FaultModel, FaultSimConfig, FaultSimReport, SimGuide,
};
use warpstl_gpu::{Gpu, ModulePatterns, RunOptions, RunResult, SimError};
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::{names, Metrics, Obs, ObsExt, Recorder};
use warpstl_programs::{ArcAnalysis, BasicBlocks, Ptp};
use warpstl_store::{cached_fault_sim, CacheCtx, KeyedFault, Store};
use warpstl_verify::{verify_reduction_observed, Severity, VerifyOptions};

use crate::context::Ledger;
use crate::{label_instructions, CompactionError, CompactionReport, ModuleContext, PtpFeatures};

/// Fault-simulates the per-instance pattern streams against their fault
/// lists through [`cached_fault_sim`], one scoped worker per instance with
/// something to simulate (instance-level parallelism), and returns the
/// per-instance reports in instance order (`None` where the stream was
/// empty or the mask selects no fault, and the list untouched). Generic
/// over the fault model of the lists.
///
/// `targets[i]`, when present, is instance `i`'s target mask
/// ([`SimGuide::targets`]); missing entries run unmasked, so `&[]` masks
/// nothing.
///
/// The engine's thread budget is divided across the concurrent instances so
/// instance- and batch-level parallelism compose instead of oversubscribing.
/// Reports and list updates are bit-identical to a serial instance loop:
/// each instance owns its list, and results are collected in instance order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_instances<F: KeyedFault>(
    netlist: &Netlist,
    streams: &[Cow<'_, PatternSeq>],
    lists: &mut [FaultList<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: SimGuide<'_>,
    targets: &[Option<&[bool]>],
    cache: CacheCtx<'_>,
) -> Vec<Option<FaultSimReport>> {
    debug_assert_eq!(streams.len(), lists.len());
    let mask = |i: usize| targets.get(i).copied().flatten();
    let runs: Vec<bool> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| !s.is_empty() && mask(i).is_none_or(|m| m.contains(&true)))
        .collect();
    let active = runs.iter().filter(|&&r| r).count();
    let budget = config.resolved_threads();
    let per_instance = FaultSimConfig {
        threads: (budget / active.max(1)).max(1),
        ..*config
    };
    let mut span = obs.span("pipeline", "pipeline.instances");
    span.arg("active", active);
    span.arg("threads_each", per_instance.threads);
    let sim = |i: usize, s: &PatternSeq, list: &mut FaultList<F>| {
        let guide = SimGuide {
            targets: mask(i),
            ..guide
        };
        cached_fault_sim(cache, netlist, s, list, &per_instance, obs, &guide)
    };
    if active <= 1 || budget <= 1 {
        return streams
            .iter()
            .zip(lists.iter_mut())
            .enumerate()
            .map(|(i, (s, list))| runs[i].then(|| sim(i, s.as_ref(), list)))
            .collect();
    }
    let sim = &sim;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(lists.iter_mut())
            .enumerate()
            .map(|(i, (s, list))| runs[i].then(|| scope.spawn(move || sim(i, s.as_ref(), list))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.map(|h| h.join().expect("fault-sim worker panicked")))
            .collect()
    })
}

/// One instance's witnessed set W: the faults of D(P) whose *witness
/// row* — the row at their detection stamp — the compacted program still
/// applies (`applied`, the rows of P′). On a combinational module that row
/// detects the fault wherever it is applied, so W ⊆ D(P′) without a run.
///
/// Each stamp indexes the stream of the run that wrote it. A fault outside
/// `dropped_before` was newly detected by stage 3a: its stamp
/// (`stage3a_stamp`, from the shared ledger) indexes `simulated`, the
/// stream stage 3a ran — reversed for SFU_IMM. An inherited dominator
/// carries its supporter's stamp, whose row detects it too. A fault in
/// `dropped_before` was re-detected by the masked D(P) run: its stamp
/// (`rerun_stamp`, from the scratch ledger) indexes `original`, which is
/// `P.distinct()`. Stamps are only read here, never written to a ledger,
/// so no dominance inheritance ever sees a copied one.
fn witnessed(
    dropped_before: &[bool],
    stage3a_stamp: impl Fn(FaultId) -> Option<usize>,
    rerun_stamp: impl Fn(FaultId) -> Option<usize>,
    simulated: &PatternSeq,
    original: &PatternSeq,
    applied: &HashSet<&[u64]>,
) -> Vec<bool> {
    dropped_before
        .iter()
        .enumerate()
        .map(|(id, &before)| {
            let row = if before {
                rerun_stamp(id).map(|p| original.row(p))
            } else {
                stage3a_stamp(id).map(|p| simulated.row(p))
            };
            row.is_some_and(|row| applied.contains(row))
        })
        .collect()
}

/// The compaction method's driver.
///
/// One `Compactor` compacts the PTPs of an STL one by one, sharing a
/// [`ModuleContext`] (the dropping fault list) per target module — the
/// paper's flow: IMM, then MEM, then CNTRL against the Decoder Unit list;
/// TPGEN then RAND against the SP-core lists; SFU_IMM against the SFU
/// lists.
#[derive(Debug, Clone)]
pub struct Compactor {
    /// The GPU model used for the logic-tracing stage.
    pub gpu: Gpu,
    /// Fault-simulation configuration (dropping on by default).
    pub fsim_config: FaultSimConfig,
    /// The fault model the pipeline targets (stuck-at by default). The
    /// bridging model replaces the collapsed stuck-at universe with a
    /// deterministically sampled set of two-net wired-AND/OR bridges; the
    /// trace/label/reduce/verify stages are model-agnostic.
    pub fault_model: FaultModel,
    /// Bridge-universe sampling parameters (bridging model only).
    pub bridge_config: BridgeConfig,
    /// Apply the module patterns in reverse order during the fault
    /// simulation (the paper uses this for SFU_IMM).
    pub reverse_patterns: bool,
    /// Restrict removal to the Admissible Regions for Compaction (stage 1).
    /// Disabling this reproduces the failure mode the paper warns about
    /// (see the ARC ablation).
    pub respect_arc: bool,
    /// Observability sink. `None` (the default) keeps every instrumentation
    /// point a guaranteed no-op; `Some` collects spans and metrics for all
    /// pipeline stages and the fault-engine internals, exportable with
    /// [`Recorder::to_chrome_trace`]. Share one recorder across the PTPs of
    /// an STL to get a single contiguous trace.
    pub obs: Option<Arc<Recorder>>,
    /// Content-addressed artifact store. `None` (the default) computes
    /// everything; `Some` makes every fault-engine invocation consult the
    /// cache first and persist misses, so a rerun over unchanged inputs
    /// replays detection stamps instead of simulating. Results are
    /// bit-identical either way.
    pub store: Option<Arc<Store>>,
}

impl Default for Compactor {
    fn default() -> Self {
        Compactor {
            gpu: Gpu::default(),
            fsim_config: FaultSimConfig::default(),
            fault_model: FaultModel::default(),
            bridge_config: BridgeConfig::default(),
            reverse_patterns: false,
            respect_arc: true,
            obs: None,
            store: None,
        }
    }
}

/// Everything a compaction run produces.
#[derive(Debug, Clone)]
pub struct CompactionOutcome {
    /// The compacted PTP (the CPTP of the paper).
    pub compacted: Ptp,
    /// The Table II/III row.
    pub report: CompactionReport,
}

impl Compactor {
    /// The borrowed observability handle instrumented code passes around
    /// (`None` when no recorder is attached).
    #[must_use]
    pub fn observer(&self) -> Obs<'_> {
        self.obs.as_deref()
    }

    /// Builds the shared per-module context (netlist, static analysis,
    /// collapsed fault universe, one dropping fault list per instance).
    /// The analysis is the lint gate, passed once here for every PTP
    /// compacted against the context (see [`ModuleContext::new`]).
    #[must_use]
    pub fn context_for(&self, module: ModuleKind) -> ModuleContext {
        let instances = match module {
            ModuleKind::DecoderUnit => 1,
            ModuleKind::SpCore | ModuleKind::Fp32 => self.gpu.config.sp_cores,
            ModuleKind::Sfu => self.gpu.config.sfus,
        };
        ModuleContext::new(module, instances)
            .with_store(self.store.clone())
            .with_model(self.fault_model, &self.bridge_config)
    }

    /// Runs `ptp` with the hardware monitor on (the stage-2 logic
    /// simulation): the tracing report plus the pattern streams of the
    /// PTP's target module (`ptp.target`). Other modules' streams in the
    /// result are empty.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model.
    pub fn trace(&self, ptp: &Ptp) -> Result<RunResult, SimError> {
        self.trace_for(ptp, ptp.target)
    }

    /// [`Compactor::trace`] capturing `module`'s streams: the ones the
    /// fault simulation against a `module` context reads.
    fn trace_for(&self, ptp: &Ptp, module: ModuleKind) -> Result<RunResult, SimError> {
        let kernel = ptp.to_kernel()?;
        self.gpu.run(&kernel, &RunOptions::capturing(module))
    }

    /// Fault-simulates a traced run's module patterns against the context's
    /// shared fault lists, merging the per-instance Fault Sim Reports, and
    /// hands back the streams it simulated: the ones the new detection
    /// stamps index (reversed when `reverse_patterns` is set).
    ///
    /// The netlist is borrowed (not cloned) and the pattern streams are only
    /// materialized when `reverse_patterns` demands it; the instances run
    /// concurrently (see [`simulate_instances`]).
    fn fault_sim<'p>(
        &self,
        patterns: &'p ModulePatterns,
        ctx: &mut ModuleContext,
    ) -> (FaultSimReport, Vec<Cow<'p, PatternSeq>>) {
        let streams: Vec<Cow<'p, PatternSeq>> = ctx
            .streams(patterns)
            .into_iter()
            .map(|s| {
                if self.reverse_patterns {
                    Cow::Owned(s.reversed())
                } else {
                    Cow::Borrowed(s)
                }
            })
            .collect();
        debug_assert_eq!(
            streams.len(),
            ctx.instances(),
            "context instance count must match the GPU configuration"
        );
        let reports = ctx.simulate(&streams, &self.fsim_config, self.observer());
        let mut merged = FaultSimReport::new();
        for report in reports.iter().flatten() {
            merged.merge(report);
        }
        (merged, streams)
    }

    /// Compacts one PTP: stages 1–5 of the paper, using exactly one logic
    /// simulation and one fault simulation.
    ///
    /// `ctx` carries the shared dropping fault list: compact the PTPs of an
    /// STL in order against the same context. The report's `fc_before` /
    /// `fc_after` are *standalone* coverages (fresh fault lists), matching
    /// the paper's per-PTP FC columns — this is also where RAND's large FC
    /// drop comes from: its compaction dropped faults TPGEN already covers.
    /// They are computed as detected sets with the least simulation that
    /// yields them (see [`CompactionReport::fc_before`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model (original or compacted
    /// program) as [`CompactionError::Sim`], and aborts with
    /// [`CompactionError::Verify`] when the post-reduction static
    /// verification gate finds the compacted PTP malformed — the structured
    /// report replaces a misleading fault-coverage number.
    pub fn compact(
        &self,
        ptp: &Ptp,
        ctx: &mut ModuleContext,
    ) -> Result<CompactionOutcome, CompactionError> {
        let start = Instant::now();
        let obs = self.observer();
        // Snapshot the shared recorder so the report carries this PTP's
        // metric *delta* even when several compacts share one recorder.
        let metrics_before = self.obs.as_deref().map(Recorder::metrics);
        let mut compact_span = obs.span("pipeline", "compact");
        compact_span.arg("ptp", &ptp.name);

        // The netlist lint gate passed when `ctx` was built.
        // Stage 1: partitioning (BBs, ARC) happens inside reduce_ptp; the
        // stage is cheap and pure, so it is recomputed there.
        // Stage 2: ONE logic simulation with tracing + pattern capture.
        let run = {
            let _s = obs.span("stage", "stage.trace");
            self.trace_for(ptp, ctx.module())?
        };
        obs.add("pipeline.logic_sim_runs", 1);

        // What the shared lists had dropped before this PTP: the part of
        // the original's detected set stage 3a cannot see (evaluation).
        let dropped_before = ctx.detection_flags();

        // Stage 3a: ONE fault simulation against the shared dropping list.
        let (fsr, simulated) = {
            let _s = obs.span("stage", "stage.fsim");
            self.fault_sim(&run.patterns, ctx)
        };
        obs.add("pipeline.fsim_runs", 1);

        // Stage 3b: instruction labeling (Fig. 2).
        let labels = {
            let _s = obs.span("stage", "stage.label");
            label_instructions(ptp.program.len(), &run.trace, &fsr)
        };
        obs.add("label.essential", labels.essential_count() as u64);

        // Stage 4: reduction (Fig. 3) + stage 5: reassembling.
        let reduce_span = obs.span("stage", "stage.reduce");
        let reduction = crate::reduce_ptp_with(ptp, &labels, self.respect_arc);

        let mut compacted = ptp.clone();
        compacted.program = reduction.program;
        compacted.global_init = reduction.global_init;
        compacted.sb_slots = reduction.sb_slots;
        drop(reduce_span);
        obs.add("reduce.sbs_total", reduction.total_sbs as u64);
        obs.add("reduce.sbs_removed", reduction.removed_sbs as u64);
        obs.add(
            "reduce.instructions_removed",
            reduction.removed_pcs.len() as u64,
        );

        // Mandatory gate: statically verify the reassembled CPTP before
        // spending fault simulations on it. ARC violations are only
        // possible when the ARC filter is off (the ablation), where they
        // are expected — downgrade them to warnings there.
        let verify_opts = VerifyOptions {
            arc_severity: if self.respect_arc {
                Severity::Error
            } else {
                Severity::Warning
            },
        };
        let verify_report = {
            let _s = obs.span("stage", "stage.verify");
            verify_reduction_observed(ptp, &compacted, &reduction.removed_pcs, &verify_opts, obs)
        };
        let compaction_time = start.elapsed();
        if !verify_report.is_clean() {
            obs.add("pipeline.verify_rejects", 1);
            return Err(CompactionError::Verify {
                name: ptp.name.clone(),
                report: verify_report,
            });
        }

        // Evaluation (outside the method's fault-simulation budget): the
        // standalone FC of the original and compacted programs, and the
        // compacted duration.
        let (fc_before, compacted_run, fc_after) = {
            let _s = obs.span("stage", "stage.eval");
            let compacted_run = self.trace_for(&compacted, ctx.module())?;
            let (fc_before, fc_after) = self.evaluate(
                ctx,
                &simulated,
                &dropped_before,
                &run.patterns,
                &compacted_run.patterns,
            );
            (fc_before, compacted_run, fc_after)
        };

        obs.add("pipeline.ptps", 1);
        obs.record(
            "pipeline.size_reduction_pct",
            100.0 * (1.0 - compacted.size() as f64 / ptp.size().max(1) as f64),
        );

        compact_span.arg("compacted_size", compacted.size());
        drop(compact_span);
        // The per-PTP slice of the recorder: everything added since the
        // snapshot above (on a private recorder this is simply everything).
        let metrics = match (&metrics_before, self.obs.as_deref()) {
            (Some(before), Some(rec)) => rec.metrics().delta_since(before),
            _ => Metrics::default(),
        };

        let report = CompactionReport {
            name: ptp.name.clone(),
            original_size: ptp.size(),
            compacted_size: compacted.size(),
            original_duration: run.cycles,
            compacted_duration: compacted_run.cycles,
            fc_before,
            fc_after,
            sbs_total: reduction.total_sbs,
            sbs_removed: reduction.removed_sbs,
            essential_instructions: labels.essential_count(),
            fault_sim_runs: 1,
            logic_sim_runs: 1,
            untestable: ctx.untestable_count(),
            compaction_time,
            analyze: ctx.analysis().report.stats(),
            verify: verify_report.stats(),
            metrics,
        };
        Ok(CompactionOutcome { compacted, report })
    }

    /// The standalone coverages `(fc_before, fc_after)` of the original
    /// program P and the compacted P′. A standalone FC is the coverage of
    /// a detected *set*, so each is computed with the least simulation
    /// that yields that set (DESIGN.md §5, "Set-level evaluation"). Per
    /// instance:
    ///
    /// - D(P) is what stage 3a newly detected plus a run over
    ///   `P.distinct()` masked to the faults `dropped_before` it (none for
    ///   a module's first PTP).
    /// - D(P′) is the [witnessed] set W plus a run over `P′.distinct()`
    ///   masked to the rest: D(P) ∖ W when P′ applies no row P does not
    ///   (it then detects nothing outside D(P)), every fault ∖ W otherwise,
    ///   and unmasked when W is empty too.
    ///
    /// `simulated` are the streams stage 3a ran, whose stamps the shared
    /// ledgers of `ctx` hold; `original` and `compacted` are the captures
    /// of P and P′. One scratch ledger serves both runs.
    fn evaluate(
        &self,
        ctx: &ModuleContext,
        simulated: &[Cow<'_, PatternSeq>],
        dropped_before: &[Vec<bool>],
        original: &ModulePatterns,
        compacted: &ModulePatterns,
    ) -> (f64, f64) {
        let mut scratch = ctx.fresh_ledger();
        // D(P): stage 3a found every detection outside the faults dropped
        // before it; only those need a (masked) run.
        let original = ctx.distinct_streams(original);
        let masks: Vec<Option<&[bool]>> =
            dropped_before.iter().map(|d| Some(d.as_slice())).collect();
        self.simulate_standalone(ctx, &mut scratch, &original, &masks);
        let detected: Vec<Vec<bool>> = scratch
            .detection_flags()
            .into_iter()
            .zip(ctx.detection_flags())
            .zip(dropped_before)
            .map(|((redetected, now), before)| {
                redetected
                    .iter()
                    .zip(now)
                    .zip(before)
                    .map(|((&again, now), &before)| again || (now && !before))
                    .collect()
            })
            .collect();
        let fc_before = scratch.coverage_of(&detected);

        // D(P′): a fault whose witness row P′ still applies needs no run.
        let cptp = ctx.distinct_streams(compacted);
        let witnessed: Vec<Vec<bool>> = (0..ctx.instances())
            .map(|i| {
                witnessed(
                    &dropped_before[i],
                    |id| ctx.stamp(i, id),
                    |id| scratch.stamp(i, id),
                    &simulated[i],
                    &original[i],
                    &cptp[i].row_set(),
                )
            })
            .collect();
        // The run leaves W out instead of pre-marking it, so no copied
        // stamp feeds dominance inheritance; W joins its flags afterwards.
        // With new rows and an empty W it stays unmasked, keeping its
        // store key.
        let masks: Vec<Option<Vec<bool>>> = cptp
            .iter()
            .zip(&original)
            .zip(&detected)
            .zip(&witnessed)
            .map(|(((c, o), d), w)| {
                let new_rows = !c.rows_subset_of(o);
                (!new_rows || w.contains(&true)).then(|| {
                    w.iter()
                        .zip(d)
                        .map(|(&w, &d)| !w && (d || new_rows))
                        .collect()
                })
            })
            .collect();
        let resimulated: usize = masks
            .iter()
            .zip(&cptp)
            .zip(dropped_before)
            .filter(|((_, c), _)| !c.is_empty())
            .map(|((m, _), all)| {
                m.as_ref()
                    .map_or(all.len(), |m| m.iter().filter(|&&t| t).count())
            })
            .sum();
        let masks: Vec<Option<&[bool]>> = masks.iter().map(Option::as_deref).collect();
        scratch.reset();
        self.simulate_standalone(ctx, &mut scratch, &cptp, &masks);
        let after: Vec<Vec<bool>> = scratch
            .detection_flags()
            .into_iter()
            .zip(&witnessed)
            .map(|(run, w)| run.iter().zip(w).map(|(&r, &w)| r || w).collect())
            .collect();
        let obs = self.observer();
        let settled = witnessed.iter().flatten().filter(|&&w| w).count();
        obs.add(names::EVAL_WITNESSED, settled as u64);
        obs.add(names::EVAL_RESIMULATED, resimulated as u64);
        (fc_before, scratch.coverage_of(&after))
    }

    /// Fault-simulates one stream per instance into `scratch` (standalone
    /// evaluation ledgers) in drop mode, with the compactor's thread
    /// choice: the one simulation path of every standalone
    /// coverage (`fc_before`/`fc_after`, [`Compactor::features`],
    /// [`Compactor::combined_coverage`]). Callers pass
    /// [distinct](ModuleContext::distinct_streams) streams. `targets[i]`,
    /// when present, restricts instance `i` to a mask; an instance whose
    /// mask selects no fault detects nothing and is not simulated.
    fn simulate_standalone(
        &self,
        ctx: &ModuleContext,
        scratch: &mut Ledger,
        streams: &[PatternSeq],
        targets: &[Option<&[bool]>],
    ) {
        let cfg = FaultSimConfig {
            threads: self.fsim_config.threads,
            ..FaultSimConfig::default()
        };
        let streams: Vec<Cow<'_, PatternSeq>> = streams.iter().map(Cow::Borrowed).collect();
        scratch.simulate(
            ctx.netlist(),
            &streams,
            &cfg,
            self.observer(),
            ctx.sim_guide(),
            targets,
            ctx.cache_ctx(),
        );
    }

    /// Evaluates a PTP's Table I features: size, ARC fraction, duration and
    /// standalone fault coverage.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model.
    pub fn features(&self, ptp: &Ptp, ctx: &ModuleContext) -> Result<PtpFeatures, SimError> {
        let bbs = BasicBlocks::of(&ptp.program);
        let arc = ArcAnalysis::of(&ptp.program, &bbs);
        let run = self.trace_for(ptp, ctx.module())?;
        let mut scratch = ctx.fresh_ledger();
        self.simulate_standalone(ctx, &mut scratch, &ctx.distinct_streams(&run.patterns), &[]);
        let fc = scratch.coverage();
        Ok(PtpFeatures {
            name: ptp.name.clone(),
            size: ptp.size(),
            arc_fraction: arc.arc_fraction(),
            duration: run.cycles,
            fault_coverage: fc,
        })
    }

    /// The combined standalone coverage of several PTPs applied in order to
    /// fresh fault lists (used for the `IMM+MEM+CNTRL`-style rows).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model.
    pub fn combined_coverage(&self, ptps: &[&Ptp], ctx: &ModuleContext) -> Result<f64, SimError> {
        let mut scratch = ctx.fresh_ledger();
        for ptp in ptps {
            let run = self.trace_for(ptp, ctx.module())?;
            self.simulate_standalone(ctx, &mut scratch, &ctx.distinct_streams(&run.patterns), &[]);
        }
        Ok(scratch.coverage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_programs::generators::{
        generate_imm, generate_mem, generate_sfu_imm, ImmConfig, MemConfig, SfuImmConfig,
    };

    #[test]
    fn imm_compaction_shrinks_and_keeps_coverage() {
        let ptp = generate_imm(&ImmConfig {
            sb_count: 24,
            ..ImmConfig::default()
        });
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let out = compactor.compact(&ptp, &mut ctx).unwrap();
        let r = &out.report;
        assert!(r.compacted_size < r.original_size, "{r}");
        assert!(r.compacted_duration < r.original_duration);
        assert!(r.sbs_removed > 0);
        assert_eq!(r.fault_sim_runs, 1);
        assert_eq!(r.logic_sim_runs, 1);
        // Module-level observability: pseudorandom DU programs repeat
        // formats heavily, so compaction barely moves the coverage.
        assert!(r.fc_diff_pct().abs() < 5.0, "ΔFC {}", r.fc_diff_pct());
        assert!(r.fc_before > 0.3, "FC {}", r.fc_before);
        // The verification gate ran and passed: zero errors on record.
        assert_eq!(r.verify.total_errors(), 0);
    }

    #[test]
    fn dropping_across_ptps_boosts_second_compaction() {
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let imm = generate_imm(&ImmConfig {
            sb_count: 16,
            ..ImmConfig::default()
        });
        let mem = generate_mem(&MemConfig {
            sb_count: 16,
            ..MemConfig::default()
        });
        let r1 = compactor.compact(&imm, &mut ctx).unwrap().report;
        let r2 = compactor.compact(&mem, &mut ctx).unwrap().report;
        // MEM compacts harder than it would standalone: most DU faults are
        // already dropped. Sanity: reduction percentages are meaningful.
        assert!(r1.size_reduction_pct() > 10.0, "{r1}");
        assert!(r2.size_reduction_pct() > 10.0, "{r2}");

        // Compare against a fresh context for MEM: the shared-list run must
        // remove at least as many SBs.
        let mut fresh = compactor.context_for(ModuleKind::DecoderUnit);
        let r2_fresh = compactor.compact(&mem, &mut fresh).unwrap().report;
        assert!(
            r2.sbs_removed >= r2_fresh.sbs_removed,
            "dropping removed {} vs fresh {}",
            r2.sbs_removed,
            r2_fresh.sbs_removed
        );
    }

    #[test]
    fn second_ptp_after_saturation_loses_standalone_coverage() {
        // The paper's RAND effect, demonstrated on the fast-saturating DU:
        // once the shared list is nearly covered by a first program, a
        // second program compacts away almost everything — and its
        // *standalone* coverage drops accordingly (Table III's −17.07 pp
        // for RAND after TPGEN).
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let first = generate_imm(&ImmConfig {
            sb_count: 48,
            ..ImmConfig::default()
        });
        let second = generate_imm(&ImmConfig {
            sb_count: 16,
            seed: 0xdead_beef,
            ..ImmConfig::default()
        });
        let _ = compactor.compact(&first, &mut ctx).unwrap();
        let r2 = compactor.compact(&second, &mut ctx).unwrap().report;
        assert!(
            r2.size_reduction_pct() > 50.0,
            "expected heavy compaction, got {}",
            r2.size_reduction_pct()
        );
        assert!(
            r2.fc_diff_pct() < -1.0,
            "expected a standalone FC drop, got {}",
            r2.fc_diff_pct()
        );
    }

    #[test]
    fn compacted_ptp_still_runs_and_is_smaller_on_sfu() {
        let compactor = Compactor {
            reverse_patterns: true, // the paper's SFU_IMM trick
            ..Compactor::default()
        };
        let ptp = generate_sfu_imm(&SfuImmConfig {
            max_patterns: 16,
            ..SfuImmConfig::default()
        });
        let mut ctx = compactor.context_for(ModuleKind::Sfu);
        let out = compactor.compact(&ptp, &mut ctx).unwrap();
        assert!(out.compacted.size() <= ptp.size());
        // SFU SBs are independent: coverage must not drop measurably.
        assert!(
            out.report.fc_diff_pct() > -1.0,
            "ΔFC {}",
            out.report.fc_diff_pct()
        );
    }

    #[test]
    fn observed_compaction_records_stage_spans_and_metrics() {
        let compactor = Compactor {
            obs: Some(Arc::new(Recorder::new())),
            ..Compactor::default()
        };
        let ptp = generate_imm(&ImmConfig {
            sb_count: 8,
            ..ImmConfig::default()
        });
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let out = compactor.compact(&ptp, &mut ctx).unwrap();

        let rec = compactor.obs.as_deref().unwrap();
        let spans = rec.spans();
        for stage in [
            "stage.trace",
            "stage.fsim",
            "stage.label",
            "stage.reduce",
            "stage.verify",
            "stage.eval",
        ] {
            assert_eq!(
                spans.iter().filter(|s| s.name == stage).count(),
                1,
                "expected exactly one {stage} span"
            );
        }
        assert!(
            spans.iter().any(|s| s.name == "fsim.worker"),
            "fault-engine worker spans missing"
        );
        // The netlist analysis ran once, in `context_for`, outside the
        // compactor's recorder: no PTP pays for it again.
        assert!(
            !spans.iter().any(|s| s.name.starts_with("analyze.")),
            "compact re-ran the netlist analysis"
        );
        // The report carries the delta, which on a fresh recorder is the
        // whole run; its pipeline counters match the report's fields.
        let m = &out.report.metrics;
        assert_eq!(m.counter("pipeline.ptps"), 1);
        assert_eq!(
            m.counter("pipeline.fsim_runs"),
            out.report.fault_sim_runs as u64
        );
        assert_eq!(
            m.counter("label.essential"),
            out.report.essential_instructions as u64
        );
        assert_eq!(
            m.counter("reduce.sbs_removed"),
            out.report.sbs_removed as u64
        );
        assert_eq!(m.counter("verify.errors"), 0);
        assert_eq!(m.counter("analyze.errors"), 0);
        assert_eq!(out.report.analyze.total_errors(), 0);
        // The evaluation reports how much of D(P′) witness rows settled
        // and how many faults it simulated again. A module's first PTP
        // needs no D(P) run, so the raw engine counter is the method's
        // one run plus a D(P′) run exactly when something was left.
        assert!(m.counter(names::EVAL_WITNESSED) > 0);
        assert_eq!(
            m.counter("fsim.runs"),
            1 + u64::from(m.counter(names::EVAL_RESIMULATED) > 0)
        );
    }

    #[test]
    fn witnessed_reads_each_stamp_in_the_stream_that_wrote_it() {
        let seq = |rows: &[u64]| {
            let mut p = PatternSeq::new(8);
            for (cc, &row) in rows.iter().enumerate() {
                p.push_value(cc as u64, row);
            }
            p
        };
        let (a, b, c) = (0xa, 0xb, 0xc);
        // P is [a, b, a, c]; stage 3a ran it reversed, and the D(P) run
        // ran its distinct rows. P′ applies a and b, not c.
        let captured = seq(&[a, b, a, c]);
        let simulated = captured.reversed();
        let original = captured.distinct();
        let rows = |p: &PatternSeq| (0..p.len()).map(|i| p.value(i)).collect::<Vec<_>>();
        assert_eq!(rows(&simulated), [c, a, b, a]);
        assert_eq!(rows(&original), [a, b, c]);
        let cptp = seq(&[b, a]);
        // Fault 0: stage 3a stamp 0 names c (captured row 0 and distinct
        // row 0 are a). Fault 1: stage 3a stamp 3 names a (captured row 3
        // is c). Fault 2: D(P)-run stamp 2 names c (stage 3a's row 2 is
        // b, captured row 2 is a). Fault 3: D(P)-run stamp 0 names a
        // (stage 3a's row 0 is c). Faults 4 and 5 went undetected.
        let dropped_before = [false, false, true, true, false, true];
        let stage3a = [Some(0), Some(3), None, None, None, None];
        let rerun = [None, None, Some(2), Some(0), None, None];
        let w = witnessed(
            &dropped_before,
            |id| stage3a[id],
            |id| rerun[id],
            &simulated,
            &original,
            &cptp.row_set(),
        );
        assert_eq!(w, [false, true, false, true, false, false]);
    }

    #[test]
    fn evaluation_reads_stage_3a_witnesses_in_the_reversed_stream() {
        use warpstl_fault::fault_simulate;
        use warpstl_netlist::modules::sfu;
        // SFU_IMM's stage 3a runs each stream reversed, so its stamp t
        // names row len − 1 − t of the captured stream. P = [x, y] runs as
        // [y, x]: what y detects carries stamp 0. P′ keeps x alone, which
        // is captured row 0, so reading stage 3a's stamps in the captured
        // stream would credit P′ with everything y detects.
        let compactor = Compactor {
            reverse_patterns: true,
            obs: Some(Arc::new(Recorder::new())),
            ..Compactor::default()
        };
        let mut ctx = compactor.context_for(ModuleKind::Sfu);
        let x = sfu::pack_row(sfu::F_SIN, 0x3f80_0000);
        let y = sfu::pack_row(sfu::F_LG2, 0x1234_5678);
        let capture = |rows: &[[u64; 1]]| {
            let mut p = ModulePatterns::new(0, 2);
            for (cc, row) in rows.iter().enumerate() {
                p.sfu[0].push_row(cc as u64, row);
            }
            p
        };
        let (original, compacted) = (capture(&[x, y]), capture(&[x]));
        let dropped_before = ctx.detection_flags();
        let (_, simulated) = compactor.fault_sim(&original, &mut ctx);
        let (fc_before, fc_after) =
            compactor.evaluate(&ctx, &simulated, &dropped_before, &original, &compacted);

        // The reference: fresh lists, whole streams, unguided runs.
        let reference = |patterns: &ModulePatterns| {
            let mut lists = ctx.fresh_lists();
            for (stream, list) in ctx.streams(patterns).into_iter().zip(&mut lists) {
                if !stream.is_empty() {
                    fault_simulate(ctx.netlist(), stream, list, &FaultSimConfig::default());
                }
            }
            let coverage = lists.iter().map(FaultList::coverage).sum::<f64>() / 2.0;
            (coverage, lists[0].detection_flags())
        };
        let (before, p_set) = reference(&original);
        let (after, cptp_set) = reference(&compacted);
        assert_eq!(fc_before.to_bits(), before.to_bits());
        assert_eq!(fc_after.to_bits(), after.to_bits());
        // The case bites: y detects faults x does not, and x detects
        // faults y does not, so P′ has both witnessed and re-simulated
        // faults.
        assert!(p_set.iter().zip(&cptp_set).any(|(&p, &c)| p && !c));
        let m = compactor.obs.as_deref().unwrap().metrics();
        assert!(m.counter(names::EVAL_WITNESSED) > 0);
        assert!(m.counter(names::EVAL_RESIMULATED) > 0);
    }

    #[test]
    fn disabled_observer_leaves_metrics_empty() {
        let compactor = Compactor::default();
        let ptp = generate_imm(&ImmConfig {
            sb_count: 6,
            ..ImmConfig::default()
        });
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let out = compactor.compact(&ptp, &mut ctx).unwrap();
        assert!(out.report.metrics.is_empty());
    }

    #[test]
    fn features_match_table1_shape() {
        let compactor = Compactor::default();
        let ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let ptp = generate_imm(&ImmConfig {
            sb_count: 8,
            ..ImmConfig::default()
        });
        let f = compactor.features(&ptp, &ctx).unwrap();
        assert_eq!(f.size, ptp.size());
        assert!(f.arc_fraction > 0.99);
        assert!(f.duration > 0);
        assert!(f.fault_coverage > 0.0);
    }
}
