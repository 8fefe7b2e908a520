#![warn(missing_docs)]
//! # warpstl-store
//!
//! A persistent, **content-addressed artifact cache** for incremental STL
//! compaction. The paper's economy is "one logic simulation and one fault
//! simulation per PTP"; this crate extends it across invocations — when
//! the netlist, pattern streams, fault-sim config, and entry fault-list state
//! are byte-identical to a prior run, the pipeline replays persisted
//! detection stamps instead of re-simulating, so re-compacting an STL
//! where only one PTP changed pays only for that PTP.
//!
//! The crate has four parts:
//!
//! - [`hash`] — a deterministic canonical hasher producing stable 128-bit
//!   [`Key`]s over netlist structure, pattern streams, fault-list state,
//!   and [`FaultSimConfig`](warpstl_fault::FaultSimConfig)
//!   — independent of `HashMap` iteration order, pointer values, and
//!   thread count.
//! - [`codec`] — a minimal little-endian payload codec (the build has no
//!   serde); decoding is total, so malformed payloads become misses.
//! - [`store`] — the on-disk store: versioned, checksummed entries written
//!   atomically (temp file + rename), with per-session traffic counters
//!   and scan/gc/clear maintenance. Corrupt or version-mismatched entries
//!   degrade to misses, never errors.
//! - [`artifacts`] — the typed artifact (fault-sim stamps) and the
//!   [`cached_fault_sim`] and [`cached_detect`] wrappers the pipeline
//!   calls in place of the raw engine.
//!
//! A module's static analysis is not cached: a compaction context runs it
//! once, in memory, when it is built.
//!
//! # Examples
//!
//! ```
//! use warpstl_fault::{FaultList, FaultSimConfig, FaultUniverse, SimGuide};
//! use warpstl_netlist::{Builder, PatternSeq};
//! use warpstl_store::{cached_fault_sim, key_netlist, CacheCtx, Store};
//!
//! let mut b = Builder::new("m");
//! let x = b.input("x");
//! let y = b.not(x);
//! b.output("y", y);
//! let netlist = b.finish();
//! let universe = FaultUniverse::enumerate(&netlist);
//! let mut patterns = PatternSeq::new(netlist.inputs().width());
//! patterns.push_value(10, 0b1);
//! patterns.push_value(11, 0b0);
//!
//! let dir = std::env::temp_dir().join(format!("warpstl-doc-{}", std::process::id()));
//! let store = Store::open(&dir).unwrap();
//! let cache = CacheCtx { store: Some(&store), netlist_key: key_netlist(&netlist) };
//!
//! // Cold: simulates and persists. Warm: replays, bit-identical. The
//! // wrapper takes a module's instances; this module has one.
//! let mut cold = vec![FaultList::new(&universe)];
//! let r1 = cached_fault_sim(
//!     cache, &netlist, &[&patterns], &mut cold,
//!     &FaultSimConfig::default(), None, &SimGuide::default(), &[],
//! );
//! let mut warm = vec![FaultList::new(&universe)];
//! let r2 = cached_fault_sim(
//!     cache, &netlist, &[&patterns], &mut warm,
//!     &FaultSimConfig::default(), None, &SimGuide::default(), &[],
//! );
//! assert_eq!(r1, r2);
//! assert_eq!(store.session().hits, 1);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod artifacts;
pub mod codec;
pub mod hash;
pub mod store;

pub use artifacts::{cached_detect, cached_fault_sim, CacheCtx, FsimStamps};
pub use hash::{key_fsim, key_netlist, CanonicalHasher, Key, KeyedFault, FSIM_SCHEMA};
pub use store::{
    atomic_write, EntryInfo, EntryStatus, ScanReport, SessionStats, Store, FORMAT_VERSION, MAGIC,
    TEMP_MAX_AGE,
};

// `store.rs` counts cache traffic under these shared names.
pub use warpstl_obs::names;
