//! # vortex-mem
//!
//! The Vortex memory subsystem (paper §4.1.4 and §4.3): a functional flat
//! [RAM](ram::Ram) plus a cycle-level timing model of the high-bandwidth
//! non-blocking cache hierarchy:
//!
//! * [`cache::Cache`] — the multi-banked, non-blocking, pipelined cache of
//!   Figure 6: bank selector (with the virtual-port coalescing of
//!   Algorithm 2), per-bank four-stage pipelines (schedule → tag → data →
//!   response), per-bank [MSHRs](mshr), and the bank merger at the back-end.
//! * [`dram::Dram`] — a latency + channel-bandwidth model of the FPGA's
//!   on-board memory (2 banks on Arria 10, 8 on Stratix 10).
//! * [`hierarchy::MemHierarchy`] — composes per-core L1s with optional
//!   shared L2/L3 levels above the DRAM, routing responses back to their
//!   requesters.
//! * [`smem::SharedMem`] — the banked shared-memory scratchpad.
//!
//! ### Modelling approach
//!
//! Like the paper's own SIMX driver, the simulator is *functional-first*:
//! data values live in [`ram::Ram`] and are read/written by the core at
//! issue time, while this crate models *when* each access completes —
//! bank conflicts, misses, MSHR occupancy, memory bandwidth. Cache
//! structures therefore track tags and timing only, never data, which keeps
//! the timing model independent from the functional state (and matches how
//! the paper reports cache behaviour: bank utilization and IPC, Figure 19).
//!
//! All inter-component links are [`elastic`] ready/valid queues, mirroring
//! the paper's elastic-pipeline design discipline (§4.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod elastic;
pub mod hierarchy;
pub mod mshr;
pub mod ram;
pub mod req;
pub mod shadow;
pub mod smem;

pub use cache::{Cache, CacheConfig, CacheOccupancy, CacheStats};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{HierarchyConfig, HierarchyOccupancy, MemHierarchy};
pub use ram::Ram;
pub use req::{MemReq, MemRsp, Tag};
pub use shadow::{RamView, WriteLog};
pub use smem::{SharedMem, SharedMemConfig};
