#![warn(missing_docs)]
//! # warpstl-netlist
//!
//! The gate-level substrate of the warpstl workspace: structural netlists,
//! a bit-parallel logic simulator, a pattern-sequence format ("VCDE", after
//! the format named in the paper), and generators for the three GPU modules
//! the paper targets (Decoder Unit, SP core, SFU datapath).
//!
//! The paper synthesizes these modules from the FlexGripPlus RTL with a
//! commercial flow onto the Nangate 15 nm library. We instead *construct*
//! gate-level implementations directly: real gate graphs with the same I/O
//! semantics the instruction stream exercises, sized at a few thousand gates
//! each. Stuck-at fault behaviour (warpstl-fault) and ATPG (warpstl-atpg)
//! operate on these structures.
//!
//! # Examples
//!
//! Build a 4-bit adder and simulate it:
//!
//! ```
//! use warpstl_netlist::{Builder, LogicSim};
//!
//! let mut b = Builder::new("adder4");
//! let a = b.input_bus("a", 4);
//! let c = b.input_bus("b", 4);
//! let (sum, carry) = b.add(&a, &c);
//! b.output_bus("sum", &sum);
//! b.output("carry", carry);
//! let netlist = b.finish();
//!
//! let mut sim = LogicSim::new(&netlist);
//! sim.set_input_u64("a", 11);
//! sim.set_input_u64("b", 6);
//! sim.eval_comb();
//! assert_eq!(sim.output_u64("sum"), (11 + 6) & 0xf);
//! assert_eq!(sim.output_u64("carry"), 1);
//! ```

mod builder;
mod cones;
pub mod fixtures;
mod gate;
mod level;
pub mod modules;
mod netlist;
mod sim;
mod vcde;

pub use builder::{Builder, Bus};
pub use cones::FanoutCones;
pub use gate::{Gate, GateKind, NetId};
pub use level::{LevelSegment, Levelization};
pub use netlist::{Netlist, NetlistError, PortMap};
pub use sim::{simulate_seq, LogicSim};
pub use vcde::{ParseVcdeError, PatternSeq};
