//! End-to-end cache behavior through the full compaction pipeline: a warm
//! rerun replays stored artifacts and reproduces the cold report
//! byte-for-byte, and every corruption mode — truncation, a flipped
//! checksum byte, a bumped format version — degrades to a recompute with
//! the right `cache.miss` counters, never an error.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use warpstl_core::Compactor;
use warpstl_netlist::modules::ModuleKind;
use warpstl_obs::{names, Recorder};
use warpstl_programs::generators::{generate_imm, ImmConfig};
use warpstl_programs::Ptp;
use warpstl_store::{Store, FORMAT_VERSION, MAGIC};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("warpstl-cache-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn test_ptp() -> Ptp {
    generate_imm(&ImmConfig {
        sb_count: 8,
        ..ImmConfig::default()
    })
}

/// What one cached compaction run observed.
struct RunObs {
    metrics: warpstl_obs::Metrics,
    span_names: Vec<String>,
}

/// Compacts the IMM PTP against a fresh DU context with a store opened on
/// `dir`, returning the deterministic report JSON, the recorded
/// observability, and the store's session stats.
fn run_with_cache(dir: &Path) -> (String, RunObs, warpstl_store::SessionStats) {
    let store = Arc::new(Store::open(dir).unwrap());
    let rec = Arc::new(Recorder::new());
    let compactor = Compactor {
        store: Some(store.clone()),
        obs: Some(rec.clone()),
        ..Compactor::default()
    };
    let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
    let out = compactor.compact(&test_ptp(), &mut ctx).unwrap();
    let stats = store.session();
    let obs = RunObs {
        metrics: rec.metrics(),
        span_names: rec.spans().into_iter().map(|s| s.name).collect(),
    };
    (out.report.to_json(), obs, stats)
}

/// Applies `mutate` to every cache entry file (`.fsr`) under `dir`,
/// returning how many files were touched.
fn mutate_entries(dir: &Path, mutate: impl Fn(&mut Vec<u8>)) -> usize {
    let mut touched = 0;
    for dent in fs::read_dir(dir).unwrap() {
        let path = dent.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("fsr") {
            continue;
        }
        let mut bytes = fs::read(&path).unwrap();
        mutate(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        touched += 1;
    }
    touched
}

#[test]
fn warm_rerun_is_byte_identical_and_hits_the_cache() {
    let dir = temp_dir("warm");

    let (cold_json, cold_rec, cold_stats) = run_with_cache(&dir);
    assert!(cold_stats.writes > 0, "cold run must populate the cache");

    let (warm_json, warm_rec, warm_stats) = run_with_cache(&dir);
    assert_eq!(warm_json, cold_json, "warm report must be byte-identical");
    assert!(warm_stats.hits > 0, "warm run must hit the cache");
    assert_eq!(warm_stats.corrupt, 0);

    // The counters surface on the report's metric delta (via the recorder),
    // so callers see cache traffic without reaching into the store.
    assert!(warm_rec.metrics.counter(names::CACHE_HIT) >= 1);
    // The warm run replayed at least one fault sim instead of running it.
    assert!(warm_rec.span_names.iter().any(|s| s == "store.replay"));
    assert!(warm_rec.span_names.iter().any(|s| s == "store.read"));
    // The cold run recorded its writes under the same scheme.
    assert!(cold_rec.metrics.counter(names::CACHE_WRITE) >= 1);
    assert!(cold_rec.span_names.iter().any(|s| s == "store.write"));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entries_degrade_to_recompute() {
    let dir = temp_dir("truncate");
    let (cold_json, _, _) = run_with_cache(&dir);

    let touched = mutate_entries(&dir, |bytes| bytes.truncate(bytes.len() / 2));
    assert!(touched > 0);

    let (json, rec, stats) = run_with_cache(&dir);
    assert_eq!(json, cold_json, "degraded run must reproduce the report");
    assert!(stats.corrupt > 0, "truncation must count as corrupt misses");
    assert!(rec.metrics.counter(names::CACHE_MISS) >= 1);
    assert!(rec.metrics.counter(names::CACHE_MISS_CORRUPT) >= 1);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_checksum_byte_degrades_to_recompute() {
    let dir = temp_dir("checksum");
    let (cold_json, _, _) = run_with_cache(&dir);

    // Header layout: magic 8 | version 4 | kind 1 | len 8 | checksum 16.
    // Byte 25 sits inside the stored checksum.
    let touched = mutate_entries(&dir, |bytes| bytes[25] ^= 0xff);
    assert!(touched > 0);

    let (json, rec, stats) = run_with_cache(&dir);
    assert_eq!(json, cold_json);
    assert!(stats.corrupt > 0);
    assert!(rec.metrics.counter(names::CACHE_MISS_CORRUPT) >= 1);
    // The recompute rewrote valid entries; a final rerun hits again.
    let (rewarm_json, _, rewarm_stats) = run_with_cache(&dir);
    assert_eq!(rewarm_json, cold_json);
    assert!(rewarm_stats.hits > 0);
    assert_eq!(rewarm_stats.corrupt, 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bumped_format_version_degrades_to_recompute() {
    let dir = temp_dir("version");
    let (cold_json, _, _) = run_with_cache(&dir);

    let touched = mutate_entries(&dir, |bytes| {
        assert_eq!(&bytes[..8], &MAGIC);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    });
    assert!(touched > 0);

    let (json, rec, stats) = run_with_cache(&dir);
    assert_eq!(json, cold_json);
    assert!(stats.version_mismatch > 0);
    assert_eq!(stats.corrupt, 0, "version skew is not corruption");
    assert!(rec.metrics.counter(names::CACHE_MISS_VERSION) >= 1);

    let _ = fs::remove_dir_all(&dir);
}
