#![warn(missing_docs)]
//! # warpstl-fault
//!
//! Fault models and fault simulation for the gate-level modules of
//! [`warpstl-netlist`](warpstl_netlist).
//!
//! The crate provides:
//!
//! - [`Fault`] / [`FaultSite`] — single stuck-at faults on gate outputs
//!   (stems) and gate input pins (fanout branches);
//! - [`BridgeFault`] / [`BridgeUniverse`] — sampled wired-AND/OR two-net
//!   bridging faults;
//! - [`SiteOverride`] — the one trait a fault model implements to run on
//!   the shared engine: its seed gates, their faulty word, and its
//!   activation word, all computed from good-machine words (and, for
//!   transition faults, the previous pattern's);
//! - [`FaultUniverse`] — exhaustive stuck-at enumeration with structural
//!   equivalence collapsing;
//! - [`FaultList`] — the mutable detection ledger, generic over the fault
//!   type, that the compaction flow shares across test programs (the
//!   paper's *fault dropping* mechanism);
//! - [`tdf`] — transition-delay faults, the third model on the same
//!   engine;
//! - [`fault_simulate`] — the parallel fault-simulation engine over
//!   timestamped pattern sequences: one levelized, pattern-parallel kernel,
//!   generic over the model, producing the per-cycle *Fault Sim Report*
//!   the instruction-labeling stage consumes. It simulates combinational
//!   netlists, which every bundled module is;
//! - [`fault_simulate_instances`] — a module's instances (8 SP cores,
//!   2 SFUs) at once: in drop mode the rows they apply in lock-step are
//!   simulated once for all of them, and each instance's report is still
//!   byte-identical to its own run;
//! - [`fault_detect_instances`] — the same call without reports: only the
//!   detected sets and their stamps, from one pass over the rows the
//!   instances apply first.
//!
//! # Examples
//!
//! ```
//! use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse};
//! use warpstl_netlist::{Builder, PatternSeq};
//!
//! let mut b = Builder::new("and2");
//! let x = b.input("x");
//! let y = b.input("y");
//! let z = b.and(x, y);
//! b.output("z", z);
//! let netlist = b.finish();
//!
//! let universe = FaultUniverse::enumerate(&netlist);
//! let mut list = FaultList::new(&universe);
//!
//! let mut patterns = PatternSeq::new(2);
//! patterns.push_value(0, 0b11); // detects all stuck-at-0 faults
//! patterns.push_value(1, 0b01); // x=1, y=0
//! patterns.push_value(2, 0b10);
//!
//! let report = fault_simulate(&netlist, &patterns, &mut list, &FaultSimConfig::default());
//! assert_eq!(list.coverage(), 1.0); // the AND gate is fully testable
//! assert!(report.total_detected() > 0);
//! ```

mod bridge;
mod dominance;
pub mod engine;
mod fault;
mod kernel;
mod list;
mod lockstep;
mod report;
mod sim;
pub mod tdf;
mod universe;

pub use bridge::{BridgeConfig, BridgeFault, BridgeKind, BridgeList, BridgeUniverse, FaultModel};
pub use dominance::DominanceView;
pub use engine::host_parallelism;
pub use fault::{Fault, FaultSite, Polarity, SiteOverride};
pub use list::{FaultId, FaultList, FaultStatus};
pub use report::{FaultSimReport, PatternStats};
pub use sim::{
    fault_detect_instances, fault_simulate, fault_simulate_guided, fault_simulate_instances,
    FaultSimConfig, SimGuide,
};
pub use universe::FaultUniverse;
