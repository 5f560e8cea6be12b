//! # sIOPMP — scalable I/O Physical Memory Protection
//!
//! A from-scratch functional model of the sIOPMP hardware proposed in
//! *"sIOPMP: Scalable and Efficient I/O Protection for TEEs"* (ASPLOS 2024),
//! together with calibrated timing and area models that reproduce the paper's
//! clock-frequency and hardware-cost evaluations.
//!
//! The crate models, at the register/table level:
//!
//! * the standard IOPMP configuration structures — the [`tables::Src2MdTable`]
//!   (SID → memory-domain bitmap), the [`tables::MdCfgTable`] (memory domain →
//!   entry-index window) and the priority [`tables::EntryTable`];
//! * the **Multi-stage-Tree-based checker** (§4.1): [`checker`] contains the
//!   functional permission check plus interchangeable micro-architectural
//!   strategies (linear, pipelined, tree arbitration, and the combined MT
//!   checker) whose decisions are provably identical but whose
//!   [`timing`]/[`area`] characteristics differ;
//! * the **mountable IOPMP** (§4.2): an extended table held in protected
//!   memory that lets an unlimited number of *cold* devices share the last
//!   hardware memory domain, via [`mountable`];
//! * **IOPMP remapping** (§4.3): the [`remap::DeviceId2SidCam`] content
//!   addressable memory with a clock/LRU eviction policy that switches devices
//!   between hot and cold status;
//! * **violation handling** (§5.2): packet masking (write-strobe/read-clear
//!   with the SID2Addr table) and bus-error handling, in [`violation`];
//! * **atomic update primitives** (§5.3): the per-SID block bitmap and the
//!   deterministic modification-latency model, in [`atomic`].
//!
//! The top-level [`Siopmp`] type wires all of these together and is what the
//! bus simulator (`siopmp-bus`), the secure monitor (`siopmp-monitor`) and the
//! experiment harness (`siopmp-experiments`) instantiate.
//!
//! ## Quick example
//!
//! ```
//! use siopmp::{Siopmp, SiopmpConfig};
//! use siopmp::ids::{DeviceId, MdIndex};
//! use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
//! use siopmp::request::{AccessKind, DmaRequest};
//!
//! # fn main() -> Result<(), siopmp::error::SiopmpError> {
//! let mut iopmp = Siopmp::build(SiopmpConfig::default(), None);
//!
//! // Give device 0x10 a hot SID and one readable+writable region.
//! let sid = iopmp.map_hot_device(DeviceId(0x10))?;
//! let md = MdIndex(0);
//! iopmp.associate_sid_with_md(sid, md)?;
//! iopmp.install_entry(md, IopmpEntry::new(
//!     AddressRange::new(0x8000_0000, 0x1000)?, Permissions::rw()))?;
//!
//! // A DMA read inside the region is allowed ...
//! let ok = iopmp.check(&DmaRequest::new(DeviceId(0x10), AccessKind::Read,
//!                                       0x8000_0010, 64));
//! assert!(ok.is_allowed());
//! // ... and one outside it is denied.
//! let bad = iopmp.check(&DmaRequest::new(DeviceId(0x10), AccessKind::Write,
//!                                        0x9000_0000, 64));
//! assert!(bad.is_denied());
//! # Ok(())
//! # }
//! ```

pub mod area;
pub mod atomic;
pub mod canonical;
pub mod checker;
pub mod cli;
pub mod config;
pub mod entry;
pub mod error;
pub mod explore;
pub mod ids;
pub mod json;
pub mod mmio;
pub mod mountable;
pub mod pipeline;
pub mod quiesce;
pub mod remap;
pub mod request;
pub mod snapshot;
pub mod stats;
pub mod tables;
pub mod telemetry;
pub mod timing;
pub mod tree;
pub mod violation;

mod unit;

pub use crate::config::SiopmpConfig;
pub use crate::snapshot::{PinnedChecker, SharedSiopmp, ViolationLog};
pub use crate::unit::{CheckOutcome, Siopmp, SwitchReport};
