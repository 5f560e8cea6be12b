//! The scenario data model: an SoC topology as plain data.
//!
//! A [`Scenario`] is the parsed form of one `.scn` file — the unit
//! configuration, bus timing, per-domain devices/entries/masters/faults,
//! run parameters and expected invariants. It is deliberately a dumb
//! value type: [`crate::parse()`] produces it, [`crate::render()`] prints it
//! canonically, and [`crate::compile()`] lowers it onto the simulator.
//! `parse(render(s)) == s` holds for every valid scenario (pinned by the
//! round-trip property test).

/// Checker micro-architecture, mirroring `siopmp::checker::CheckerKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checker {
    /// Combinational linear priority chain.
    Linear,
    /// Pipeline-only checker.
    Pipelined {
        /// Pipeline stages (>= 1).
        stages: u8,
    },
    /// Single-cycle tree arbitration.
    Tree {
        /// Reduction arity.
        arity: u8,
    },
    /// Multi-stage-Tree checker (the paper's design).
    Mt {
        /// Pipeline stages.
        stages: u8,
        /// Tree reduction arity per stage.
        arity: u8,
    },
}

/// Violation signalling mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// In-place packet masking.
    Masking,
    /// Redirect to a bus-error dummy node.
    BusError,
}

/// Checker placement in the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementSpec {
    /// One checker per master device.
    PerDevice,
    /// One shared checker on the system bus.
    Centralized,
}

/// The `config` directive: static sIOPMP unit parameters. Defaults are
/// the paper's headline configuration (`SiopmpConfig::default()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitParams {
    /// Number of source IDs (last one is the cold mount slot).
    pub sids: usize,
    /// Number of memory domains (last one is the cold MD).
    pub mds: usize,
    /// Total hardware IOPMP entries.
    pub entries: usize,
    /// Entry slots reserved to the cold MD.
    pub cold_entries: usize,
    /// Violation-log capacity.
    pub log: usize,
    /// Checker micro-architecture.
    pub checker: Checker,
    /// Violation mechanism.
    pub violation: Violation,
    /// Checker placement.
    pub placement: PlacementSpec,
    /// Whether the mountable/extended table exists.
    pub mountable: bool,
}

impl Default for UnitParams {
    fn default() -> Self {
        UnitParams {
            sids: 64,
            mds: 63,
            entries: 1024,
            cold_entries: 8,
            log: 4096,
            checker: Checker::Mt {
                stages: 2,
                arity: 2,
            },
            violation: Violation::Masking,
            placement: PlacementSpec::PerDevice,
            mountable: true,
        }
    }
}

/// The `bus` directive: interconnect timing. Defaults mirror
/// `siopmp_bus::BusConfig::default()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusParams {
    /// Payload bytes per beat.
    pub bytes: u64,
    /// Beats per burst.
    pub beats: u32,
    /// Memory read latency in cycles.
    pub read_latency: u32,
    /// Memory write latency in cycles.
    pub write_latency: u32,
    /// Master issue gap in cycles.
    pub issue_gap: u32,
    /// When `true`, the compiler derives the checker/violation/placement
    /// timing overheads from the unit configuration
    /// (`BusConfig::with_checker` + `with_placement`). When `false` the
    /// bus times requests as if the checker were combinational — the
    /// behaviour of the hand-coded exercises this format replaces.
    pub derive_checker: bool,
}

impl Default for BusParams {
    fn default() -> Self {
        BusParams {
            bytes: 8,
            beats: 8,
            read_latency: 14,
            write_latency: 8,
            issue_gap: 1,
            derive_checker: false,
        }
    }
}

/// Access permissions of an entry or cold record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perms {
    /// Read-only.
    R,
    /// Write-only.
    W,
    /// Read-write.
    Rw,
}

/// A `device` declaration: a contiguous ID range (`count >= 1`) that is
/// either hot (holds a hardware SID) or cold (lives in the mountable
/// table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDecl {
    /// First device ID of the range.
    pub first: u64,
    /// Number of consecutive device IDs declared by this line.
    pub count: u64,
    /// Hot or cold, with the associated memory domains.
    pub kind: DeviceKind,
}

/// Hot/cold split of a [`DeviceDecl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceKind {
    /// Mapped to a hardware SID at build time and associated with `mds`.
    Hot {
        /// Memory domains this device's SID is associated with.
        mds: Vec<u16>,
    },
    /// Registered in the mountable table with `mds` plus private records.
    Cold {
        /// Memory domains mounted alongside the device.
        mds: Vec<u16>,
        /// The device's own IOPMP rules (`record` lines), mounted into
        /// the cold MD on a switch.
        records: Vec<RecordDecl>,
    },
}

/// One `record` line: an IOPMP rule in a cold device's mountable entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordDecl {
    /// Region base address.
    pub base: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Permissions.
    pub perms: Perms,
}

/// One `entry` line: an IOPMP entry installed into a memory domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryDecl {
    /// Target memory domain.
    pub md: u16,
    /// Region base address.
    pub base: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Permissions.
    pub perms: Perms,
    /// Whether the entry is locked against later modification.
    pub locked: bool,
}

/// Burst direction of a traffic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read bursts.
    Read,
    /// Write bursts.
    Write,
}

/// Address pattern of a traffic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every burst targets `base`.
    Uniform,
    /// Bursts walk a buffer from `base`, advancing `stride` per burst.
    Stream {
        /// Bytes advanced per burst.
        stride: u64,
    },
}

/// One traffic program segment (a `master` line or a `then` continuation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficDecl {
    /// Burst direction.
    pub kind: Kind,
    /// Address pattern.
    pub mode: Mode,
    /// Base (or sole) address.
    pub base: u64,
    /// Number of bursts.
    pub count: usize,
}

/// Retry policy of a master (`retry=<max>:<backoff>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryDecl {
    /// Maximum re-issues per burst.
    pub max: u32,
    /// Exponential backoff base in cycles.
    pub backoff: u64,
    /// Whether SID-missing refusals are retried too (`retry_sid_missing`).
    pub sid_missing: bool,
}

/// A `master` line plus its `then` continuations: one DMA master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterDecl {
    /// Device ID stamped on every burst.
    pub device: u64,
    /// Chained traffic segments, in order (never empty).
    pub programs: Vec<TrafficDecl>,
    /// Outstanding-transaction limit (>= 1).
    pub outstanding: usize,
    /// Retry policy, if any.
    pub retry: Option<RetryDecl>,
}

/// A domain-local `faults` line: a seeded fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDecl {
    /// PRNG seed (overridden by the CLI's `--seed`).
    pub seed: u64,
    /// Cycles over which events are scheduled.
    pub horizon: u64,
    /// Number of fault events (the finite budget).
    pub budget: usize,
    /// Hot devices whose SIDs are eligible for block-storm pulses.
    pub block: Vec<u64>,
    /// Cold devices eligible for undrained cold-switch faults.
    pub cold: Vec<u64>,
    /// Cold devices eligible for CAM-eviction churn.
    pub churn: Vec<u64>,
}

/// One `domain` block: a shard of the parallel engine with its own unit,
/// masters and faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    /// Domain name (reported in lint output; also the shard order key is
    /// the declaration order, not the name).
    pub name: String,
    /// `(base, len)` home address window; `None` keeps all traffic local.
    pub home: Option<(u64, u64)>,
    /// Device declarations, in order (hot SIDs are assigned in this
    /// order).
    pub devices: Vec<DeviceDecl>,
    /// Entries installed into the domain's unit, in order.
    pub entries: Vec<EntryDecl>,
    /// Hot devices whose SIDs are blocked after assembly.
    pub blocks: Vec<u64>,
    /// DMA masters, in order.
    pub masters: Vec<MasterDecl>,
    /// Optional fault schedule.
    pub faults: Option<FaultDecl>,
}

impl Domain {
    /// An empty domain with the given name.
    pub fn named(name: impl Into<String>) -> Self {
        Domain {
            name: name.into(),
            home: None,
            devices: Vec::new(),
            entries: Vec::new(),
            blocks: Vec::new(),
            masters: Vec::new(),
            faults: None,
        }
    }
}

/// The `run` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Cycle budget.
    pub max_cycles: u64,
    /// Epoch (barrier spacing) of the parallel engine.
    pub epoch: u64,
    /// Default worker-thread count; the CLI's `--threads` wins.
    pub threads: Option<usize>,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            max_cycles: 100_000,
            epoch: siopmp_bus::parallel::DEFAULT_EPOCH_CYCLES,
            threads: None,
        }
    }
}

/// The optional scenario-level `fleet` directive: admission-control
/// parameters `siopmp-serviced` applies to every tenant this scenario
/// contributes when loaded into a fleet. Scenarios without a `fleet`
/// stanza get the daemon's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetParams {
    /// Per-tenant token-bucket refill rate, in tokens per 1000 virtual
    /// ticks (one admitted request costs one token).
    pub rate: u64,
    /// Token-bucket capacity — the largest burst a tenant can spend at
    /// once — in whole tokens.
    pub burst: u64,
    /// Default per-request admission deadline in ticks; `None` defers to
    /// the daemon default.
    pub deadline: Option<u64>,
    /// Bounded retry budget for `Stalled` verdicts as
    /// `(max_retries, backoff_base_ticks)`; `None` defers to the daemon
    /// default.
    pub retry: Option<(u32, u64)>,
}

/// The optional scenario-level `explore` directive: design-space sweep
/// ranges for `siopmp-scenario explore`. Each field lists the values of
/// one hardware sizing knob; the cross product is the candidate set
/// (`siopmp::explore::Sweep`). Lists are kept exactly as written — order
/// and duplicates included — so `parse(render(s)) == s`; the explorer
/// canonicalizes (sorts + dedups) before enumerating, which is what makes
/// sweep output permutation-invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreParams {
    /// IOPMP entry counts to sweep (required, each >= 1).
    pub entries: Vec<u64>,
    /// Remap-CAM way counts to sweep (each >= 1; default `64`).
    pub cam_ways: Vec<u64>,
    /// Checker pipeline depths to sweep (1..=8; default `3`).
    pub stages: Vec<u64>,
    /// Modelled hardware decision-cache slot counts to sweep (0 = none;
    /// default `1024`).
    pub cache: Vec<u64>,
    /// Checker shard counts to sweep (1..=64; default `1`).
    pub shards: Vec<u64>,
}

impl Default for ExploreParams {
    fn default() -> Self {
        // The paper's calibrated point on every axis
        // (`siopmp::explore::DesignPoint::paper()`).
        ExploreParams {
            entries: vec![1024],
            cam_ways: vec![64],
            stages: vec![3],
            cache: vec![1024],
            shards: vec![1],
        }
    }
}

/// A report metric an `expect` line can constrain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cycles simulated.
    Cycles,
    /// Cycle of the last completion.
    Makespan,
    /// Number of masters in the merged report (bridges included).
    Masters,
    /// Bursts that reached a terminal status.
    TotalCompleted,
    /// Bursts that completed `Ok`.
    TotalOk,
    /// Payload bytes transferred.
    TotalBytes,
    /// Bursts masked by packet masking.
    TotalMasked,
    /// Bursts truncated with a bus error.
    TotalBusError,
    /// Refusals whose verdict was a stall.
    TotalStalled,
    /// Refusals whose device had no mounted state.
    TotalSidMissing,
    /// Retry re-issues.
    TotalRetried,
    /// Bursts whose retry budget ran out.
    TotalRetryExhausted,
    /// Control-plane faults applied.
    ControlFaults,
    /// All injected faults (data-plane + control-plane).
    FaultsInjected,
    /// Cross-domain bursts exchanged at barriers.
    CrossDomain,
    /// Egress bursts no home window claimed.
    Unrouted,
}

impl Metric {
    /// Every metric with its directive spelling, for parsing and help
    /// text.
    pub const ALL: [(Metric, &'static str); 16] = [
        (Metric::Cycles, "cycles"),
        (Metric::Makespan, "makespan"),
        (Metric::Masters, "masters"),
        (Metric::TotalCompleted, "total_completed"),
        (Metric::TotalOk, "total_ok"),
        (Metric::TotalBytes, "total_bytes"),
        (Metric::TotalMasked, "total_masked"),
        (Metric::TotalBusError, "total_bus_error"),
        (Metric::TotalStalled, "total_stalled"),
        (Metric::TotalSidMissing, "total_sid_missing"),
        (Metric::TotalRetried, "total_retried"),
        (Metric::TotalRetryExhausted, "total_retry_exhausted"),
        (Metric::ControlFaults, "control_faults"),
        (Metric::FaultsInjected, "faults_injected"),
        (Metric::CrossDomain, "cross_domain"),
        (Metric::Unrouted, "unrouted"),
    ];

    /// The directive spelling.
    pub fn as_str(self) -> &'static str {
        Metric::ALL
            .iter()
            .find(|(m, _)| *m == self)
            .map(|(_, s)| *s)
            .expect("every metric is in ALL")
    }

    /// Parses a directive spelling.
    pub fn from_token(s: &str) -> Option<Metric> {
        Metric::ALL
            .iter()
            .find(|(_, name)| *name == s)
            .map(|(m, _)| *m)
    }
}

/// Comparison operator of a metric expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
}

impl CmpOp {
    /// The directive spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
        }
    }

    /// Parses a directive spelling.
    pub fn from_token(s: &str) -> Option<CmpOp> {
        Some(match s {
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            "<=" => CmpOp::Le,
            ">=" => CmpOp::Ge,
            "<" => CmpOp::Lt,
            ">" => CmpOp::Gt,
            _ => return None,
        })
    }

    /// Applies the comparison.
    pub fn holds(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Gt => lhs > rhs,
        }
    }
}

/// One `expect` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// `expect completed` — every master drained within the cycle budget.
    Completed,
    /// `expect lint clean` — the static analyzer finds no Error-severity
    /// diagnostic in any domain's unit.
    LintClean,
    /// `expect <metric> <op> <value>`.
    Metric {
        /// The constrained metric.
        metric: Metric,
        /// The comparison.
        op: CmpOp,
        /// The right-hand side.
        value: u64,
    },
}

/// One parsed `.scn` scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[a-z0-9_-]+`).
    pub name: String,
    /// Free-text description, if any.
    pub description: Option<String>,
    /// Unit configuration shared by every domain.
    pub unit: UnitParams,
    /// Bus timing shared by every domain.
    pub bus: BusParams,
    /// Admission-control parameters for `siopmp-serviced`, if declared.
    pub fleet: Option<FleetParams>,
    /// Design-space sweep ranges for `siopmp-scenario explore`, if
    /// declared.
    pub explore: Option<ExploreParams>,
    /// Domains, in shard order.
    pub domains: Vec<Domain>,
    /// Run parameters.
    pub run: RunParams,
    /// Expected invariants, in order.
    pub expects: Vec<Expectation>,
}

impl Scenario {
    /// An empty scenario with the given name and all defaults.
    pub fn named(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            description: None,
            unit: UnitParams::default(),
            bus: BusParams::default(),
            fleet: None,
            explore: None,
            domains: Vec::new(),
            run: RunParams::default(),
            expects: Vec::new(),
        }
    }
}
