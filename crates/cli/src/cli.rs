//! Command dispatch and argument handling.

use std::error::Error;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use warpstl_core::Compactor;
use warpstl_fault::{BridgeConfig, BridgeUniverse, FaultModel, FaultUniverse};
use warpstl_netlist::modules::ModuleKind;
use warpstl_obs::Recorder;
use warpstl_programs::generators::{
    generate_cntrl, generate_fpu, generate_imm, generate_mem, generate_rand_sp, generate_sfu_imm,
    generate_tpgen, CntrlConfig, FpuConfig, ImmConfig, MemConfig, RandConfig, SfuImmConfig,
    TpgenConfig,
};
use warpstl_programs::serialize::{ptp_from_text, ptp_to_text};
use warpstl_programs::{ArcAnalysis, BasicBlocks, Ptp};
use warpstl_store::{atomic_write, EntryStatus, Store};

type CliResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
usage:
  warpstl generate    <IMM|MEM|CNTRL|RAND|TPGEN|SFU_IMM|FPU>
                      [--sb-count N] [--patterns N] [--seed N] [--out FILE]
  warpstl features    <PTP-FILE>
  warpstl compact     <PTP-FILE> [--out FILE] [--reverse] [--no-arc]
                      [--trace-out FILE] [--json FILE]
                      [--cache-dir DIR] [--no-cache]
                      [--fault-model stuck-at|bridging] [--lanes 8|16|32]
  warpstl compact-stl <STL-FILE> [--out FILE] [--trace-out FILE]
                      [--json FILE] [--cache-dir DIR] [--no-cache]
  warpstl cache       <stats|gc|verify|clear> [--cache-dir DIR]
  warpstl lint        <PTP-FILE> [--json]
  warpstl analyze     <MODULE> [--json] [--implications]
                      [--fault-model stuck-at|bridging] [--lanes 8|16|32]
                      (a module name from `warpstl modules`, or the
                       `comb-loop` / `undriven` / `redundant-logic`
                       demo fixtures)
  warpstl campaign    <SPEC-FILE> [--jobs N] [--json FILE]
                      [--cache-dir DIR] [--no-cache] [--trace-out FILE]
                      (runs the spec's scenario matrix — module x lanes x
                       fault model x drop mode — over a bounded worker
                       pool with one shared artifact store; the
                       --json report is byte-identical for any --jobs
                       value and across warm-cache reruns)
  warpstl run         <PTP-FILE> [--trace]
  warpstl patterns    <PTP-FILE> --out-dir DIR
  warpstl modules
  warpstl serve       [--addr HOST:PORT] [--workers N] [--queue N]
                      [--cache-dir DIR] [--no-cache]
  warpstl xlint       [--json] [ROOT]
                      (source-level policy lint over the workspace:
                       raw-sync, safety-comment, no-unwrap,
                       timestamp-in-key; nonzero exit on findings)

caching: compact and compact-stl reuse stored artifacts when --cache-dir
(or the WARPSTL_CACHE_DIR environment variable) names a directory;
--no-cache disables the cache for one run.

pruning: compact and compact-stl drop faults the static implication
engine proves untestable before simulating (the proofs are sound, so
pruned faults were never detectable) and leave them out of the coverage
denominator.

fault models: --fault-model picks the simulated fault universe:
`stuck-at` (default; untestability proofs and pruning apply) or
`bridging` (wired-AND/OR faults over a deterministically sampled set of
adjacent net pairs). --lanes overrides the GPU shape (SP lanes per SM);
the two compose freely with caching — cache keys absorb both.";

/// Parses and runs one invocation.
pub fn dispatch(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("features") => features(&args[1..]),
        Some("compact") => compact(&args[1..]),
        Some("compact-stl") => compact_stl(&args[1..]),
        Some("cache") => cache(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("patterns") => patterns(&args[1..]),
        Some("modules") => modules(),
        Some("serve") => serve(&args[1..]),
        Some("xlint") => crate::xlint::run(&args[1..]),
        Some("--help") | Some("-h") | None => {
            outln!("{USAGE}")?;
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

/// A minimal flag scanner: `--key value` pairs and boolean `--flags`.
struct Flags<'a> {
    rest: &'a [String],
}

impl<'a> Flags<'a> {
    fn new(rest: &'a [String]) -> Flags<'a> {
        Flags { rest }
    }

    fn value(&self, key: &str) -> Option<&'a str> {
        self.rest
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    fn num(&self, key: &str) -> Result<Option<u64>, Box<dyn Error>> {
        match self.value(key) {
            None => Ok(None),
            Some(v) => Ok(Some(v.parse().map_err(|_| format!("bad {key}: `{v}`"))?)),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.rest.iter().any(|a| a == key)
    }
}

/// Resolves the cache directory for one invocation: `--no-cache` wins over
/// everything, an explicit `--cache-dir DIR` wins over the environment,
/// and `env` (the caller passes `WARPSTL_CACHE_DIR`'s value, which keeps
/// this testable without mutating the process environment) is the
/// fallback. `None` means caching stays off.
fn resolve_cache_dir(flags: &Flags, env: Option<&str>) -> Option<PathBuf> {
    if flags.has("--no-cache") {
        return None;
    }
    flags.value("--cache-dir").or(env).map(PathBuf::from)
}

/// Resolves `--fault-model` for one invocation. The fault model changes
/// what is simulated, so an invalid value is an error, not a warning.
fn resolve_fault_model(flags: &Flags) -> Result<FaultModel, Box<dyn Error>> {
    match flags.value("--fault-model") {
        None => Ok(FaultModel::StuckAt),
        Some(v) => FaultModel::parse(v)
            .ok_or_else(|| format!("invalid --fault-model `{v}` (stuck-at|bridging)").into()),
    }
}

/// Opens the artifact store for a compaction command, if one is
/// configured.
fn open_store(flags: &Flags) -> Result<Option<Arc<Store>>, Box<dyn Error>> {
    let env = warpstl_core::env::string_var("WARPSTL_CACHE_DIR", "a directory path", "no cache");
    match resolve_cache_dir(flags, env.as_deref()) {
        None => Ok(None),
        Some(dir) => Ok(Some(Arc::new(Store::open(&dir)?))),
    }
}

/// One-line cache traffic summary, printed after a cached compaction so
/// cold/warm runs are distinguishable from the console output alone.
fn print_cache_line(store: &Store) -> CliResult {
    let s = store.session();
    outln!(
        "cache    {} hit(s), {} miss(es), {} write(s)",
        s.hits,
        s.misses,
        s.writes
    )?;
    Ok(())
}

/// Inspects and maintains the on-disk artifact cache. `stats` and
/// `verify` only read; `gc` removes corrupt or version-skewed entries;
/// `clear` removes every recognized entry (foreign files are never
/// touched). `verify` exits nonzero when any entry fails its checksum, so
/// CI can assert cache integrity.
fn cache(args: &[String]) -> CliResult {
    let action = args
        .first()
        .ok_or("cache: missing action (stats|gc|verify|clear)")?;
    let flags = Flags::new(&args[1..]);
    let env = warpstl_core::env::string_var("WARPSTL_CACHE_DIR", "a directory path", "no cache");
    let dir = resolve_cache_dir(&flags, env.as_deref())
        .ok_or("cache: no directory (pass --cache-dir DIR or set WARPSTL_CACHE_DIR)")?;
    let store = Store::open(&dir)?;
    match action.as_str() {
        "stats" => {
            let scan = store.scan()?;
            outln!("dir      {}", store.root().display())?;
            outln!(
                "entries  {} valid, {} invalid, {} byte(s) total",
                scan.valid_count(),
                scan.invalid_count(),
                scan.total_bytes()
            )?;
            let count = scan.valid_count();
            outln!(
                "fsim-stamps  {count} entr{}, {} byte(s)",
                plural_y(count),
                scan.valid_bytes()
            )?;
            Ok(())
        }
        "gc" => {
            let (removed, freed) = store.gc()?;
            outln!("removed {removed} invalid or stale file(s), freed {freed} byte(s)")?;
            Ok(())
        }
        "verify" => {
            let scan = store.scan()?;
            for e in &scan.entries {
                let status = match e.status {
                    EntryStatus::Valid => continue,
                    EntryStatus::Corrupt => "corrupt",
                    EntryStatus::VersionMismatch => "version mismatch",
                };
                outln!("{}: {status}", e.path.display())?;
            }
            outln!(
                "verified {} entr{}: {} valid, {} invalid",
                scan.entries.len(),
                plural_y(scan.entries.len()),
                scan.valid_count(),
                scan.invalid_count()
            )?;
            if scan.invalid_count() == 0 {
                Ok(())
            } else {
                Err(format!(
                    "cache: {} invalid entr{}",
                    scan.invalid_count(),
                    plural_y(scan.invalid_count())
                )
                .into())
            }
        }
        "clear" => {
            let removed = store.clear()?;
            outln!("removed {removed} entr{}", plural_y(removed))?;
            Ok(())
        }
        other => Err(format!("cache: unknown action `{other}` (stats|gc|verify|clear)").into()),
    }
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn generate(args: &[String]) -> CliResult {
    let name = args
        .first()
        .ok_or("generate: missing PTP name")?
        .to_ascii_uppercase();
    let flags = Flags::new(&args[1..]);
    let sb = flags.num("--sb-count")?.map(|n| n as usize);
    let patterns = flags.num("--patterns")?.map(|n| n as usize);
    let seed = flags.num("--seed")?;

    let ptp: Ptp = match name.as_str() {
        "IMM" => {
            let mut c = ImmConfig::default();
            if let Some(n) = sb {
                c.sb_count = n;
            }
            if let Some(s) = seed {
                c.seed = s;
            }
            generate_imm(&c)
        }
        "MEM" => {
            let mut c = MemConfig::default();
            if let Some(n) = sb {
                c.sb_count = n;
            }
            if let Some(s) = seed {
                c.seed = s;
            }
            generate_mem(&c)
        }
        "CNTRL" => {
            let mut c = CntrlConfig::default();
            if let Some(s) = seed {
                c.seed = s;
            }
            generate_cntrl(&c)
        }
        "RAND" => {
            let mut c = RandConfig::default();
            if let Some(n) = sb {
                c.sb_count = n;
            }
            if let Some(s) = seed {
                c.seed = s;
            }
            generate_rand_sp(&c)
        }
        "TPGEN" => {
            let mut c = TpgenConfig::default();
            if let Some(n) = patterns {
                c.max_patterns = n;
            }
            if let Some(s) = seed {
                c.seed = s;
            }
            generate_tpgen(&c)
        }
        "SFU_IMM" => {
            let mut c = SfuImmConfig::default();
            if let Some(n) = patterns {
                c.max_patterns = n;
            }
            if let Some(s) = seed {
                c.seed = s;
            }
            generate_sfu_imm(&c)
        }
        "FPU" => {
            let mut c = FpuConfig::default();
            if let Some(n) = sb {
                c.sb_count = n;
            }
            if let Some(s) = seed {
                c.seed = s;
            }
            generate_fpu(&c)
        }
        other => return Err(format!("unknown PTP `{other}`").into()),
    };

    let text = ptp_to_text(&ptp);
    match flags.value("--out") {
        Some(path) => {
            fs::write(path, &text)?;
            eprintln!(
                "wrote {} ({} instructions, target {})",
                path,
                ptp.size(),
                ptp.target
            );
        }
        None => out!("{text}")?,
    }
    Ok(())
}

fn load(args: &[String]) -> Result<Ptp, Box<dyn Error>> {
    let path = args.first().ok_or("missing PTP file")?;
    let text = fs::read_to_string(path)?;
    Ok(ptp_from_text(&text)?)
}

fn features(args: &[String]) -> CliResult {
    let ptp = load(args)?;
    let compactor = Compactor::default();
    let ctx = compactor.context_for(ptp.target);
    let f = compactor.features(&ptp, &ctx)?;
    outln!("PTP      {}", f.name)?;
    outln!("target   {}", ptp.target)?;
    outln!("size     {} instructions", f.size)?;
    outln!("ARC      {:.1} %", f.arc_fraction * 100.0)?;
    outln!("duration {} ccs", f.duration)?;
    outln!("FC       {:.2} %", f.fault_coverage * 100.0)?;
    Ok(())
}

/// Builds the recorder backing `--trace-out` (attached only when the flag
/// is present, so the default path stays instrumentation-free) and, after
/// the run, writes the Chrome trace JSON next to a metrics summary.
fn write_trace(path: &str, rec: &Recorder) -> CliResult {
    atomic_write(path, rec.to_chrome_trace().as_bytes())?;
    let m = rec.metrics();
    eprintln!(
        "wrote trace {path} ({} spans, {} counters, {} histograms) — open in ui.perfetto.dev or about://tracing",
        rec.spans().len(),
        m.counters.len(),
        m.histograms.len()
    );
    Ok(())
}

fn compact(args: &[String]) -> CliResult {
    let ptp = load(args)?;
    let flags = Flags::new(&args[1..]);
    let recorder = flags
        .value("--trace-out")
        .map(|_| Arc::new(Recorder::new()));
    let store = open_store(&flags)?;
    let lanes = flags.num("--lanes")?.map_or(0, |n| n as usize);
    let compactor = Compactor {
        gpu: warpstl_core::gpu_for_lanes(lanes)?,
        reverse_patterns: flags.has("--reverse"),
        respect_arc: !flags.has("--no-arc"),
        fault_model: resolve_fault_model(&flags)?,
        obs: recorder.clone(),
        store: store.clone(),
        ..Compactor::default()
    };
    let mut ctx = compactor.context_for(ptp.target);
    let out = compactor.compact(&ptp, &mut ctx)?;
    let r = &out.report;
    outln!(
        "size     {} -> {} instructions ({:+.2} %)",
        r.original_size,
        r.compacted_size,
        -r.size_reduction_pct()
    )?;
    outln!(
        "duration {} -> {} ccs ({:+.2} %)",
        r.original_duration,
        r.compacted_duration,
        -r.duration_reduction_pct()
    )?;
    outln!(
        "coverage {:.2} % -> {:.2} % ({:+.2} pp)",
        r.fc_before * 100.0,
        r.fc_after * 100.0,
        r.fc_diff_pct()
    )?;
    outln!(
        "SBs      {} of {} removed; {} logic + {} fault simulation(s) in {:.2?}",
        r.sbs_removed,
        r.sbs_total,
        r.logic_sim_runs,
        r.fault_sim_runs,
        r.compaction_time
    )?;
    if let Some(st) = store.as_deref() {
        print_cache_line(st)?;
    }
    if let Some(path) = flags.value("--out") {
        atomic_write(path, ptp_to_text(&out.compacted).as_bytes())?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = flags.value("--json") {
        atomic_write(path, out.report.to_json().as_bytes())?;
        eprintln!("wrote {path}");
    }
    if let (Some(path), Some(rec)) = (flags.value("--trace-out"), recorder.as_deref()) {
        write_trace(path, rec)?;
    }
    Ok(())
}

/// Statically verifies one PTP file: use-before-def, SB structure,
/// divergence pairing, memory races and relocation soundness — the same
/// rule set the compaction pipeline runs as its post-reduction gate. Exits
/// nonzero (via `Err`) when the verifier finds errors; warnings print but
/// pass.
fn lint(args: &[String]) -> CliResult {
    let ptp = load(args)?;
    let flags = Flags::new(&args[1..]);
    let report = warpstl_verify::verify_ptp(&ptp);
    if flags.has("--json") {
        outln!("{}", report.to_json())?;
    } else {
        outln!("{report}")?;
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{}: {} verification error(s)",
            ptp.name,
            report.error_count()
        )
        .into())
    }
}

/// Statically analyzes one module netlist: SCOAP testability measures,
/// the fault-dominance relation on top of the equivalence-collapsed
/// universe (an analysis count: the fault engine simulates every class),
/// and the structural lints the compaction pipeline runs as its pre-simulation
/// gate. Exits nonzero (via `Err`) when a lint error fires; warnings print
/// but pass.
fn analyze(args: &[String]) -> CliResult {
    let name = args.first().ok_or("analyze: missing module name")?;
    let flags = Flags::new(&args[1..]);
    // Netlists are shape-independent, but the lane override is validated
    // here so `analyze --lanes 12` fails like any other job-layer caller.
    let lanes = flags.num("--lanes")?.map_or(0, |n| n as usize);
    let _ = warpstl_core::gpu_for_lanes(lanes)?;
    let model = resolve_fault_model(&flags)?;
    let netlist = warpstl_core::jobs::netlist_by_name(name)?;
    let analysis = warpstl_analyze::analyze(&netlist);
    if flags.has("--json") {
        outln!("{}", analysis.report.to_json())?;
    } else {
        let (max_co, mean_co) = analysis.scoap.co_summary();
        outln!(
            "netlist    {} ({} gates, depth {})",
            netlist.name(),
            netlist.logic_gate_count(),
            netlist.logic_depth()
        )?;
        outln!("SCOAP CO   max {max_co}, mean {mean_co:.1}")?;
        if flags.has("--implications") {
            let s = &analysis.report.implications;
            outln!(
                "implied    {} implication edge(s), {} impossible literal(s)",
                s.edges,
                s.impossible
            )?;
            outln!(
                "untestable {} fault site(s) proven, {} equivalence merge(s)",
                s.untestable,
                s.merges
            )?;
        }
        let levels = netlist.levelize();
        outln!(
            "levels     {} ranks, {} segments",
            levels.ranks(),
            levels.segments().len(),
        )?;
        // The fault model (and with it the dominance relation) is only
        // defined on netlists that pass the lint gate — that is what the
        // gate protects the pipeline from.
        if analysis.is_clean() {
            match model {
                FaultModel::StuckAt => {
                    let universe = FaultUniverse::enumerate(&netlist);
                    let dominance = universe.dominance(&netlist);
                    outln!(
                        "faults     {} total, {} after equivalence ({:.1} %)",
                        universe.total_len(),
                        universe.collapsed_len(),
                        universe.collapse_ratio() * 100.0
                    )?;
                    outln!(
                        "dominance  {} undominated + {} dominated class(es) ({:.1} % undominated; \
                         analysis only, every class is simulated)",
                        dominance.direct().len(),
                        dominance.removed().len(),
                        dominance.reduction_ratio() * 100.0
                    )?;
                }
                FaultModel::Bridging => {
                    let universe = BridgeUniverse::sample(&netlist, &BridgeConfig::default());
                    outln!(
                        "bridges    {} wired-AND/OR fault(s) over {} sampled net pair(s)",
                        universe.len(),
                        universe.candidate_pairs()
                    )?;
                }
            }
        }
        outln!("{}", analysis.report)?;
    }
    if analysis.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{}: {} analysis error(s)",
            netlist.name(),
            analysis.report.error_count()
        )
        .into())
    }
}

fn run(args: &[String]) -> CliResult {
    let ptp = load(args)?;
    let flags = Flags::new(&args[1..]);
    let kernel = ptp.to_kernel()?;
    let opts = if flags.has("--trace") {
        warpstl_gpu::RunOptions::tracing()
    } else {
        warpstl_gpu::RunOptions::default()
    };
    let result = warpstl_gpu::Gpu::default().run(&kernel, &opts)?;
    outln!("cycles     {}", result.cycles)?;
    let digest = result
        .signatures
        .iter()
        .fold(0u32, |acc, &s| acc.rotate_left(1) ^ s);
    outln!(
        "signature  {digest:#010x} (over {} threads)",
        result.signatures.len()
    )?;
    if flags.has("--trace") {
        outln!("trace      {} records", result.trace.len())?;
        let bbs = BasicBlocks::of(&ptp.program);
        let arc = ArcAnalysis::of(&ptp.program, &bbs);
        outln!(
            "structure  {} basic blocks, ARC {:.1} %",
            bbs.count(),
            arc.arc_fraction() * 100.0
        )?;
    }
    Ok(())
}

/// Compacts a whole STL file: PTPs group by target module and compact in
/// file order against shared dropping fault lists, exactly as the paper's
/// flow prescribes (SFU programs get the reverse-order fault simulation).
fn compact_stl(args: &[String]) -> CliResult {
    use warpstl_programs::serialize::{stl_from_text, stl_to_text};
    let path = args.first().ok_or("missing STL file")?;
    let flags = Flags::new(&args[1..]);
    let stl = stl_from_text(&fs::read_to_string(path)?)?;

    // One recorder shared by every module's compactor: the trace shows the
    // whole STL on a single timeline and the metrics aggregate across PTPs.
    let recorder = flags
        .value("--trace-out")
        .map(|_| Arc::new(Recorder::new()));
    let store = open_store(&flags)?;
    let outcome = warpstl_core::compact_stl_with(&stl, |module| Compactor {
        reverse_patterns: module == ModuleKind::Sfu,
        obs: recorder.clone(),
        store: store.clone(),
        ..Compactor::default()
    })?;
    for r in &outcome.reports {
        outln!(
            "{:<10} {:>7} -> {:>6} instr ({:+.2} %), ΔFC {:+.2} pp",
            r.name,
            r.original_size,
            r.compacted_size,
            -r.size_reduction_pct(),
            r.fc_diff_pct()
        )?;
    }
    outln!(
        "STL: {:.2} % size / {:.2} % duration reduction, {} fault simulation(s)",
        outcome.size_reduction_pct(),
        outcome.duration_reduction_pct(),
        outcome.fault_sim_runs()
    )?;
    if let Some(st) = store.as_deref() {
        print_cache_line(st)?;
    }
    if let Some(out) = flags.value("--out") {
        atomic_write(out, stl_to_text(&outcome.compacted).as_bytes())?;
        eprintln!("wrote {out}");
    }
    if let Some(path) = flags.value("--json") {
        let json = warpstl_core::stl_report_array(&outcome.reports);
        atomic_write(path, json.as_bytes())?;
        eprintln!("wrote {path}");
    }
    if let (Some(trace_path), Some(rec)) = (flags.value("--trace-out"), recorder.as_deref()) {
        write_trace(trace_path, rec)?;
    }
    Ok(())
}

/// Dumps the per-module VCDE pattern reports of one traced run — the
/// gate-level test-pattern artifacts of the paper's stage 2.
fn patterns(args: &[String]) -> CliResult {
    let ptp = load(args)?;
    let flags = Flags::new(&args[1..]);
    let dir = flags.value("--out-dir").ok_or("missing --out-dir DIR")?;
    fs::create_dir_all(dir)?;
    let kernel = ptp.to_kernel()?;
    let run = warpstl_gpu::Gpu::default().run(&kernel, &warpstl_gpu::RunOptions::capture_all())?;

    let mut written = Vec::new();
    let mut dump = |name: String, seq: &warpstl_netlist::PatternSeq| -> CliResult {
        if seq.is_empty() {
            return Ok(());
        }
        let path = format!("{dir}/{name}.vcde");
        fs::write(&path, seq.to_vcde())?;
        written.push((name, seq.len()));
        Ok(())
    };
    dump("decoder_unit".into(), &run.patterns.du)?;
    for (i, s) in run.patterns.sp.iter().enumerate() {
        dump(format!("sp_core{i}"), s)?;
    }
    for (i, s) in run.patterns.sfu.iter().enumerate() {
        dump(format!("sfu{i}"), s)?;
    }
    for (i, s) in run.patterns.fp32.iter().enumerate() {
        dump(format!("fp32_{i}"), s)?;
    }
    for (name, n) in &written {
        outln!("{name}: {n} patterns")?;
    }
    outln!("wrote {} VCDE files to {dir}", written.len())?;
    Ok(())
}

/// Runs the compaction daemon in the foreground: binds, prints the URL
/// (port 0 resolves to the actually-bound port, so scripts can parse it),
/// and blocks until `POST /shutdown` or SIGTERM/SIGINT drains the queue.
/// The cache flags mean exactly what they mean on `compact`; every job
/// shares the one store.
fn serve(args: &[String]) -> CliResult {
    let flags = Flags::new(args);
    let env = warpstl_core::env::string_var("WARPSTL_CACHE_DIR", "a directory path", "no cache");
    let config = warpstl_serve::ServeConfig {
        addr: flags.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: flags.num("--workers")?.map(|n| n as usize),
        queue_cap: flags
            .num("--queue")?
            .map_or(warpstl_serve::ServeConfig::default().queue_cap, |n| {
                n as usize
            }),
        cache_dir: resolve_cache_dir(&flags, env.as_deref()),
    };
    warpstl_serve::run(&config, |addr| {
        // Stdout is line-buffered: the URL reaches a piped reader
        // immediately, which is what the smoke scripts parse. Nobody
        // reading it stops nothing: the daemon serves on.
        let _ = outln!("serving on http://{addr}");
    })?;
    outln!("drained")?;
    Ok(())
}

/// Runs a campaign spec: expands the scenario matrix, fans the cells out
/// over a bounded worker pool sharing one warm artifact store, prints the
/// per-cell table plus the best-shape aggregates, and writes the
/// deterministic report JSON. Failed cells (bad GPU shape, compaction
/// failure) are error rows, not fatal — the command only exits nonzero
/// when *no* cell completed (or on spec/IO errors).
fn campaign(args: &[String]) -> CliResult {
    let path = args.first().ok_or("campaign: missing SPEC file")?;
    let flags = Flags::new(&args[1..]);
    let spec = warpstl_campaign::CampaignSpec::parse(&fs::read_to_string(path)?)
        .map_err(|e| format!("campaign spec {path}: {e}"))?;
    let store = open_store(&flags)?;
    let recorder = flags
        .value("--trace-out")
        .map(|_| Arc::new(Recorder::new()));
    let config = warpstl_campaign::CampaignConfig {
        jobs: flags.num("--jobs")?.map_or(0, |n| n as usize),
        store: store.clone(),
        obs: recorder.clone(),
    };
    let report = warpstl_campaign::run_campaign(&spec, &config);
    out!("{report}")?;
    if let Some(st) = store.as_deref() {
        print_cache_line(st)?;
    }
    if let Some(out) = flags.value("--json") {
        atomic_write(out, report.to_json().as_bytes())?;
        eprintln!("wrote {out}");
    }
    if let (Some(trace_path), Some(rec)) = (flags.value("--trace-out"), recorder.as_deref()) {
        write_trace(trace_path, rec)?;
    }
    if report.ok_count() == 0 {
        return Err(format!("campaign {}: every cell failed", spec.name).into());
    }
    Ok(())
}

fn modules() -> CliResult {
    outln!(
        "{:<14} {:>7} {:>6} {:>8} {:>9} {:>10} {:>10}",
        "module",
        "gates",
        "depth",
        "inputs",
        "outputs",
        "faults",
        "collapsed"
    )?;
    for kind in ModuleKind::ALL {
        let n = kind.build();
        let u = FaultUniverse::enumerate(&n);
        outln!(
            "{:<14} {:>7} {:>6} {:>8} {:>9} {:>10} {:>10}",
            kind.name(),
            n.logic_gate_count(),
            n.logic_depth(),
            n.inputs().width(),
            n.outputs().width(),
            u.total_len(),
            u.collapsed_len()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(dispatch(&s(&["--help"])).is_ok());
        assert!(dispatch(&s(&[])).is_ok());
        assert!(dispatch(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn modules_lists_all() {
        assert!(dispatch(&s(&["modules"])).is_ok());
    }

    #[test]
    fn generate_compact_round_trip_via_files() {
        let dir = std::env::temp_dir().join("warpstl-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let ptp_path = dir.join("imm.ptp");
        let out_path = dir.join("imm-compact.ptp");
        dispatch(&s(&[
            "generate",
            "IMM",
            "--sb-count",
            "6",
            "--out",
            ptp_path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&s(&[
            "compact",
            ptp_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        let compacted = ptp_from_text(&fs::read_to_string(&out_path).unwrap()).unwrap();
        assert!(compacted.size() > 0);
        dispatch(&s(&["run", out_path.to_str().unwrap(), "--trace"])).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_stl_and_patterns_flow() {
        use warpstl_programs::generators::{generate_imm, ImmConfig};
        use warpstl_programs::serialize::stl_to_text;
        use warpstl_programs::Stl;
        let dir = std::env::temp_dir().join("warpstl-cli-stl-test");
        fs::create_dir_all(&dir).unwrap();
        let stl_path = dir.join("lib.stl");
        let out_path = dir.join("lib-compact.stl");
        let mut stl = Stl::new("lib");
        stl.push(generate_imm(&ImmConfig {
            sb_count: 4,
            ..ImmConfig::default()
        }));
        fs::write(&stl_path, stl_to_text(&stl)).unwrap();
        dispatch(&s(&[
            "compact-stl",
            stl_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        let back =
            warpstl_programs::serialize::stl_from_text(&fs::read_to_string(&out_path).unwrap())
                .unwrap();
        assert_eq!(back.len(), 1);

        // VCDE dump of the compacted PTP.
        let ptp_path = dir.join("only.ptp");
        fs::write(
            &ptp_path,
            warpstl_programs::serialize::ptp_to_text(&back.ptps()[0]),
        )
        .unwrap();
        let vcde_dir = dir.join("vcde");
        dispatch(&s(&[
            "patterns",
            ptp_path.to_str().unwrap(),
            "--out-dir",
            vcde_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let du = fs::read_to_string(vcde_dir.join("decoder_unit.vcde")).unwrap();
        assert!(du.starts_with("VCDE 1 "));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_stl_json_matches_the_job_report_array() {
        use warpstl_programs::generators::{generate_imm, generate_sfu_imm};
        use warpstl_programs::serialize::stl_to_text;
        use warpstl_programs::Stl;
        let dir =
            std::env::temp_dir().join(format!("warpstl-cli-stl-json-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Two modules, one of them the SFU the STL flow simulates reversed.
        let mut stl = Stl::new("lib");
        stl.push(generate_imm(&ImmConfig {
            sb_count: 4,
            ..ImmConfig::default()
        }));
        stl.push(generate_sfu_imm(&SfuImmConfig {
            max_patterns: 8,
            ..SfuImmConfig::default()
        }));
        let text = stl_to_text(&stl);
        let stl_path = dir.join("lib.stl");
        let json_path = dir.join("lib.json");
        fs::write(&stl_path, &text).unwrap();
        dispatch(&s(&[
            "compact-stl",
            stl_path.to_str().unwrap(),
            "--no-cache",
            "--json",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();
        let job =
            warpstl_core::compact_stl_job(&text, &warpstl_core::JobOptions::default(), None, None)
                .unwrap();
        assert_eq!(fs::read_to_string(&json_path).unwrap(), job.report_json);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_writes_chrome_trace_with_stage_spans() {
        let dir = std::env::temp_dir().join("warpstl-cli-trace-test");
        fs::create_dir_all(&dir).unwrap();
        let ptp_path = dir.join("imm.ptp");
        let trace_path = dir.join("trace.json");
        dispatch(&s(&[
            "generate",
            "IMM",
            "--sb-count",
            "4",
            "--out",
            ptp_path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&s(&[
            "compact",
            ptp_path.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let trace = fs::read_to_string(&trace_path).unwrap();
        assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
        for stage in [
            "stage.trace",
            "stage.fsim",
            "stage.label",
            "stage.reduce",
            "stage.verify",
            "stage.eval",
        ] {
            assert!(trace.contains(&format!("\"{stage}\"")), "missing {stage}");
        }
        assert!(trace.contains("\"fsim.worker\""));
        assert!(trace.contains("\"warpstlMetrics\""));

        // The same flag on compact-stl shares one recorder across modules.
        let stl_path = dir.join("lib.stl");
        let stl_trace = dir.join("stl-trace.json");
        {
            use warpstl_programs::generators::{generate_imm, ImmConfig};
            use warpstl_programs::serialize::stl_to_text;
            use warpstl_programs::Stl;
            let mut stl = Stl::new("lib");
            stl.push(generate_imm(&ImmConfig {
                sb_count: 4,
                ..ImmConfig::default()
            }));
            fs::write(&stl_path, stl_to_text(&stl)).unwrap();
        }
        dispatch(&s(&[
            "compact-stl",
            stl_path.to_str().unwrap(),
            "--trace-out",
            stl_trace.to_str().unwrap(),
        ]))
        .unwrap();
        let trace = fs::read_to_string(&stl_trace).unwrap();
        assert!(trace.contains("\"stl.module\""));
        assert!(trace.contains("\"stage.fsim\""));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_flags_broken_cptp_and_passes_clean_one() {
        use warpstl_gpu::KernelConfig;
        use warpstl_isa::asm;
        let dir = std::env::temp_dir().join("warpstl-cli-lint-test");
        fs::create_dir_all(&dir).unwrap();

        // The hand-crafted broken CPTP: use-before-def on R1/R6 plus an
        // unpaired SSY.
        let broken = Ptp::new(
            "broken",
            ModuleKind::DecoderUnit,
            KernelConfig::new(1, 32),
            asm::assemble("SSY 0x3;\nIADD R4, R1, R1;\nSTG [R6], R4;\nEXIT;").unwrap(),
        );
        let broken_path = dir.join("broken.ptp");
        fs::write(&broken_path, ptp_to_text(&broken)).unwrap();
        assert!(dispatch(&s(&["lint", broken_path.to_str().unwrap()])).is_err());
        assert!(dispatch(&s(&["lint", broken_path.to_str().unwrap(), "--json"])).is_err());

        // A pipeline-relevant generated PTP verifies clean.
        let clean_path = dir.join("clean.ptp");
        dispatch(&s(&[
            "generate",
            "IMM",
            "--sb-count",
            "6",
            "--out",
            clean_path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&s(&["lint", clean_path.to_str().unwrap()])).unwrap();
        dispatch(&s(&["lint", clean_path.to_str().unwrap(), "--json"])).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_passes_modules_and_flags_fixtures() {
        // Every bundled module passes the gate, plain and JSON.
        for kind in ModuleKind::ALL {
            assert!(dispatch(&s(&["analyze", kind.name()])).is_ok());
        }
        assert!(dispatch(&s(&["analyze", "decoder_unit", "--json"])).is_ok());

        // The seeded fixtures fail with a nonzero exit (an Err here).
        let err = dispatch(&s(&["analyze", "comb-loop"])).unwrap_err();
        assert!(err.to_string().contains("analysis error"));
        assert!(dispatch(&s(&["analyze", "comb-loop", "--json"])).is_err());
        assert!(dispatch(&s(&["analyze", "undriven"])).is_err());

        // Unknown names and a missing argument are flagged.
        assert!(dispatch(&s(&["analyze", "warp_scheduler"])).is_err());
        assert!(dispatch(&s(&["analyze"])).is_err());
    }

    #[test]
    fn analyze_implications_and_redundant_fixture() {
        // The redundant-logic fixture warns (the gate passes) and its
        // implication summary is reachable in both output modes.
        assert!(dispatch(&s(&["analyze", "redundant-logic"])).is_ok());
        assert!(dispatch(&s(&["analyze", "redundant-logic", "--implications"])).is_ok());
        assert!(dispatch(&s(&["analyze", "redundant-logic", "--json"])).is_ok());
        assert!(dispatch(&s(&["analyze", "decoder_unit", "--implications"])).is_ok());
    }

    #[test]
    fn compact_report_is_backend_invariant() {
        let dir =
            std::env::temp_dir().join(format!("warpstl-cli-backend-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ptp_path = dir.join("imm.ptp");
        dispatch(&s(&[
            "generate",
            "IMM",
            "--sb-count",
            "4",
            "--out",
            ptp_path.to_str().unwrap(),
        ]))
        .unwrap();

        // `--sim-backend` names a retired choice: the flag scanner ignores
        // it like any key it does not read, so the report JSON (which
        // carries no timings) is byte-identical with and without it.
        let mut reports = Vec::new();
        for extra in [&[][..], &["--sim-backend", "event"][..]] {
            let out = dir.join(format!("{}.json", reports.len()));
            let mut args = vec!["compact", ptp_path.to_str().unwrap()];
            args.extend_from_slice(extra);
            args.extend_from_slice(&["--json", out.to_str().unwrap()]);
            dispatch(&s(&args)).unwrap();
            reports.push(fs::read_to_string(&out).unwrap());
        }
        assert_eq!(
            reports[0], reports[1],
            "--sim-backend changed the report JSON"
        );

        // `analyze` ignores it too.
        dispatch(&s(&["analyze", "decoder_unit", "--sim-backend", "event"])).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_model_and_lanes_flags_reshape_compact() {
        let dir =
            std::env::temp_dir().join(format!("warpstl-cli-model-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ptp_path = dir.join("imm.ptp");
        dispatch(&s(&[
            "generate",
            "IMM",
            "--sb-count",
            "4",
            "--out",
            ptp_path.to_str().unwrap(),
        ]))
        .unwrap();

        let sa = dir.join("sa.json");
        let bridge = dir.join("bridge.json");
        dispatch(&s(&[
            "compact",
            ptp_path.to_str().unwrap(),
            "--fault-model",
            "stuck-at",
            "--lanes",
            "16",
            "--json",
            sa.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&s(&[
            "compact",
            ptp_path.to_str().unwrap(),
            "--fault-model",
            "bridging",
            "--json",
            bridge.to_str().unwrap(),
        ]))
        .unwrap();
        let bridge_json = fs::read_to_string(&bridge).unwrap();
        // Bridging never claims stuck-at untestability proofs.
        assert!(bridge_json.contains("\"untestable\": 0"), "{bridge_json}");
        assert_ne!(fs::read_to_string(&sa).unwrap(), bridge_json);

        // Invalid values are hard errors, not silent fallbacks.
        assert!(dispatch(&s(&[
            "compact",
            ptp_path.to_str().unwrap(),
            "--fault-model",
            "transient"
        ]))
        .is_err());
        assert!(dispatch(&s(&[
            "compact",
            ptp_path.to_str().unwrap(),
            "--lanes",
            "12"
        ]))
        .is_err());

        // `analyze` takes both flags; bad shapes fail there identically.
        dispatch(&s(&[
            "analyze",
            "decoder_unit",
            "--fault-model",
            "bridging",
            "--lanes",
            "32",
        ]))
        .unwrap();
        assert!(dispatch(&s(&["analyze", "decoder_unit", "--lanes", "12"])).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_runs_a_matrix_deterministically() {
        let dir =
            std::env::temp_dir().join(format!("warpstl-cli-campaign-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        fs::write(
            &spec_path,
            r#"{"name": "cli-smoke", "modules": ["decoder_unit"], "lanes": [8, 16], "sb_count": 3}"#,
        )
        .unwrap();

        let cache = dir.join("cache");
        let r1 = dir.join("r1.json");
        let r2 = dir.join("r2.json");
        for (jobs, out) in [("1", &r1), ("4", &r2)] {
            dispatch(&s(&[
                "campaign",
                spec_path.to_str().unwrap(),
                "--jobs",
                jobs,
                "--cache-dir",
                cache.to_str().unwrap(),
                "--json",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let cold = fs::read_to_string(&r1).unwrap();
        let warm = fs::read_to_string(&r2).unwrap();
        assert_eq!(cold, warm, "--jobs 1 cold vs --jobs 4 warm report JSON");
        assert!(cold.contains("\"campaign\": \"cli-smoke\""));
        assert!(cold.contains("\"cells_total\": 2"));
        assert!(cold.contains("\"best_shape\""));

        // Spec and file errors are surfaced.
        assert!(dispatch(&s(&["campaign"])).is_err());
        assert!(dispatch(&s(&["campaign", "/nonexistent/spec.json"])).is_err());
        let bad = dir.join("bad.json");
        fs::write(&bad, r#"{"modules": []}"#).unwrap();
        assert!(dispatch(&s(&["campaign", bad.to_str().unwrap()])).is_err());

        // A matrix with no completable cell exits nonzero.
        let doomed = dir.join("doomed.json");
        fs::write(
            &doomed,
            r#"{"modules": ["decoder_unit"], "lanes": [12], "sb_count": 3}"#,
        )
        .unwrap();
        let err = dispatch(&s(&["campaign", doomed.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("every cell failed"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_rejects_bad_flags() {
        assert!(dispatch(&s(&["generate", "IMM", "--sb-count", "zebra"])).is_err());
        assert!(dispatch(&s(&["generate", "BOGUS"])).is_err());
        assert!(dispatch(&s(&["features", "/nonexistent/x.ptp"])).is_err());
    }

    #[test]
    fn cache_dir_resolver_precedence() {
        let args = s(&["--cache-dir", "/x"]);
        let flags = Flags::new(&args);
        assert_eq!(
            resolve_cache_dir(&flags, Some("/env")),
            Some(PathBuf::from("/x"))
        );

        let args = s(&[]);
        let flags = Flags::new(&args);
        assert_eq!(
            resolve_cache_dir(&flags, Some("/env")),
            Some(PathBuf::from("/env"))
        );
        assert_eq!(resolve_cache_dir(&flags, None), None);

        let args = s(&["--no-cache", "--cache-dir", "/x"]);
        let flags = Flags::new(&args);
        assert_eq!(resolve_cache_dir(&flags, Some("/env")), None);
    }

    #[test]
    fn cached_compact_is_byte_identical_and_cache_subcommands_work() {
        let dir =
            std::env::temp_dir().join(format!("warpstl-cli-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ptp_path = dir.join("imm.ptp");
        dispatch(&s(&[
            "generate",
            "IMM",
            "--sb-count",
            "4",
            "--out",
            ptp_path.to_str().unwrap(),
        ]))
        .unwrap();

        let cache_dir = dir.join("cache");
        let r1 = dir.join("r1.json");
        let r2 = dir.join("r2.json");
        for report in [&r1, &r2] {
            dispatch(&s(&[
                "compact",
                ptp_path.to_str().unwrap(),
                "--cache-dir",
                cache_dir.to_str().unwrap(),
                "--json",
                report.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let cold = fs::read_to_string(&r1).unwrap();
        let warm = fs::read_to_string(&r2).unwrap();
        assert_eq!(cold, warm, "warm rerun must reproduce the report JSON");
        assert!(cold.contains("\"fc_after\""));

        // The warm run found entries on disk; stats/verify agree.
        let cd = cache_dir.to_str().unwrap();
        dispatch(&s(&["cache", "stats", "--cache-dir", cd])).unwrap();
        dispatch(&s(&["cache", "verify", "--cache-dir", cd])).unwrap();

        // Corrupt every entry: verify flags it, gc reclaims it, verify
        // passes again, and clear empties the rest.
        let mut corrupted = 0;
        for dent in fs::read_dir(&cache_dir).unwrap() {
            let path = dent.unwrap().path();
            let mut bytes = fs::read(&path).unwrap();
            let len = bytes.len();
            bytes.truncate(len / 2);
            fs::write(&path, &bytes).unwrap();
            corrupted += 1;
        }
        assert!(corrupted > 0, "the cached run must have written entries");
        assert!(dispatch(&s(&["cache", "verify", "--cache-dir", cd])).is_err());
        dispatch(&s(&["cache", "gc", "--cache-dir", cd])).unwrap();
        dispatch(&s(&["cache", "verify", "--cache-dir", cd])).unwrap();
        dispatch(&s(&["cache", "clear", "--cache-dir", cd])).unwrap();
        assert!(warpstl_store::Store::open(&cache_dir)
            .unwrap()
            .scan()
            .unwrap()
            .entries
            .is_empty());

        // --no-cache wins over --cache-dir: no new entries appear.
        dispatch(&s(&[
            "compact",
            ptp_path.to_str().unwrap(),
            "--cache-dir",
            cd,
            "--no-cache",
        ]))
        .unwrap();
        assert!(warpstl_store::Store::open(&cache_dir)
            .unwrap()
            .scan()
            .unwrap()
            .entries
            .is_empty());

        // Bad invocations are flagged.
        assert!(dispatch(&s(&["cache", "frobnicate", "--cache-dir", cd])).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
