//! # siopmp-scenario — SoC topologies as data
//!
//! The workspace grew one hand-coded Rust function per interesting
//! topology (the `repro` exercises, the test systems, the example
//! SoCs). This crate replaces that pattern with a declarative, versioned
//! `.scn` format: a scenario file describes the sIOPMP unit
//! configuration, the bus timing, the domains with their devices /
//! entries / DMA masters / fault schedules, and the invariants the run is
//! expected to satisfy — and the compiler lowers it onto the *existing*
//! machinery ([`siopmp::Siopmp`], [`siopmp_bus::parallel::ParallelSim`],
//! [`siopmp_bus::FaultPlan`], [`siopmp_verify::analyze`]). Nothing is
//! simulated here; the format is a front-end, the engines stay the single
//! source of truth.
//!
//! ## The format in one example
//!
//! ```text
//! scenario quickstart
//! describe One tenant, one NIC streaming into its buffer.
//! config sids=8 mds=8 entries=32 cold_entries=4
//!
//! domain tenant0
//!   device 1 hot md=0
//!   entry md=0 0x1000 0x1000 rw
//!   master device=1 kind=read mode=stream base=0x1000 stride=64 count=4
//!
//! run max_cycles=100000
//! expect completed
//! expect total_ok == 4
//! expect lint clean
//! ```
//!
//! Directives, one per line (`#` comments, numbers decimal or `0x` hex
//! with `_` separators):
//!
//! | directive | meaning |
//! |---|---|
//! | `scenario <name>` | names the scenario; must come first |
//! | `describe <text>` | free-text description |
//! | `config k=v ...` | unit parameters: `sids mds entries cold_entries log checker violation placement mountable` |
//! | `bus k=v ...` | bus timing: `bytes beats read_latency write_latency issue_gap derive_checker` |
//! | `domain <name>` | opens a domain (one shard of the parallel engine) |
//! | `home <base> <len>` | the domain's owned address window |
//! | `device <id>[..<end>] hot\|cold [md=l]` | a device ID range (end exclusive); hot = hardware SID, cold = mountable table |
//! | `record <base> <len> <perms>` | an IOPMP rule of the preceding cold device |
//! | `entry md=<md> <base> <len> <perms> [locked]` | an entry installed into a memory domain |
//! | `block <id>` | blocks the hot device's SID after assembly |
//! | `master device=<id> kind=.. mode=.. base=.. [stride=..] count=.. [outstanding=..] [retry=m:b] [retry_sid_missing]` | one DMA master |
//! | `then kind=.. mode=.. base=.. [stride=..] count=..` | chains another traffic segment onto the last master |
//! | `faults seed=.. horizon=.. budget=.. [block=l] [cold=l] [churn=l]` | a seeded fault schedule for this domain |
//! | `fleet rate=.. burst=.. [deadline=..] [retry=m:b]` | admission-control limits `siopmp-serviced` applies to this scenario's tenants |
//! | `explore entries=l [cam_ways=l] [stages=l] [cache=l] [shards=l]` | design-space sweep ranges for `siopmp-scenario explore` (omitted axes pin the paper point) |
//! | `run k=v ...` | `max_cycles epoch threads` |
//! | `expect completed \| lint clean \| <metric> <op> <value>` | an invariant the run must satisfy |
//!
//! Numbers are bounded where they size work: a `device` range spans at
//! most [`parse::MAX_DEVICE_RANGE`] IDs, a traffic `count` is at most
//! [`parse::MAX_BURSTS`], a stream's last burst address must fit in 64
//! bits, and `config` sizes must pass [`siopmp::SiopmpConfig::validate`].
//!
//! The canonical form (what [`render()`] prints) spells every `config` /
//! `bus` / `run` key explicitly; `parse(render(s)) == s` for every valid
//! scenario, pinned by the round-trip property test.
//!
//! ## Driving it from Rust
//!
//! ```
//! use siopmp_scenario::{parse, run, RunOptions};
//!
//! let text = "\
//! scenario tiny
//! config sids=8 mds=8 entries=32 cold_entries=4
//! domain d0
//!   device 1 hot md=0
//!   entry md=0 0x1000 0x1000 rw
//!   master device=1 kind=read mode=stream base=0x1000 stride=64 count=4
//! expect completed
//! ";
//! let scenario = parse(text).unwrap();
//! let outcome = run(&scenario, &RunOptions::default()).unwrap();
//! assert!(outcome.passed());
//! assert_eq!(outcome.report.masters.len(), 1);
//! ```
//!
//! The `siopmp-scenario` binary exposes the same pipeline as
//! `run | lint | prove | explore | list` subcommands with the workspace's
//! one flag grammar ([`siopmp::cli`]); the committed corpus under
//! `corpus/` is the library of shipped topologies. `prove` lowers each
//! domain into the bounded model checker ([`prove`]).

pub mod ast;
pub mod compile;
pub mod explore;
pub mod parse;
pub mod prove;
pub mod render;

pub use ast::{ExploreParams, FleetParams, Scenario};
pub use compile::{
    compile, domain_units, lint, metric_value, run, CompileError, DomainLint, DomainUnit, Outcome,
    RunOptions,
};
pub use explore::{evaluate_with_sim, sweep_from_params, ExploreOutcome, Explorer, PointReport};
pub use parse::{parse, ScnError};
pub use prove::lower;
pub use render::render;
