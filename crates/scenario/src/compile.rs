//! Compiler: [`Scenario`] → live simulator, linter and expectation judge.
//!
//! A scenario lowers onto the existing machinery unchanged: its `config`
//! becomes a [`SiopmpConfig`], each `domain` block becomes a per-shard
//! [`Siopmp`] unit (hot devices get SIDs in declaration order) wrapped in
//! a [`DomainSpec`], and `run` drives [`ParallelSim`]. Nothing here
//! simulates anything itself — the format is a front-end, the engine
//! stays the single source of truth.

use crate::ast::*;
use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::error::SiopmpError;
use siopmp::ids::{DeviceId, MdIndex, SourceId};
use siopmp::json::Json;
use siopmp::mountable::MountableEntry;
use siopmp::telemetry::Telemetry;
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_bus::parallel::{DomainSpec, ParallelSim};
use siopmp_bus::{
    BurstKind, BusConfig, FaultPlan, FaultPlanConfig, MasterProgram, RetryPolicy, SimReport,
    SiopmpPolicy,
};

/// A semantic error found while lowering a parsed scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The domain being compiled, when the error is domain-scoped.
    pub domain: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.domain {
            Some(d) => write!(f, "domain `{d}`: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for CompileError {}

fn fail<T>(domain: Option<&str>, message: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        domain: domain.map(str::to_string),
        message: message.into(),
    })
}

/// Overrides the CLI layers on top of the file: `--seed` replaces every
/// domain's fault seed, `--threads` replaces `run threads=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Replacement fault seed for every `faults` line.
    pub seed: Option<u64>,
    /// Replacement worker-thread count.
    pub threads: Option<usize>,
}

/// Lowers the `config` directive to the core configuration.
pub fn siopmp_config(u: &UnitParams) -> SiopmpConfig {
    SiopmpConfig {
        num_sids: u.sids,
        num_mds: u.mds,
        num_entries: u.entries,
        cold_md_entries: u.cold_entries,
        checker: match u.checker {
            Checker::Linear => siopmp::checker::CheckerKind::Linear,
            Checker::Pipelined { stages } => siopmp::checker::CheckerKind::Pipelined { stages },
            Checker::Tree { arity } => siopmp::checker::CheckerKind::Tree { tree_arity: arity },
            Checker::Mt { stages, arity } => siopmp::checker::CheckerKind::MtChecker {
                stages,
                tree_arity: arity,
            },
        },
        violation_mode: match u.violation {
            Violation::Masking => siopmp::violation::ViolationMode::PacketMasking,
            Violation::BusError => siopmp::violation::ViolationMode::BusError,
        },
        placement: match u.placement {
            PlacementSpec::PerDevice => siopmp::config::Placement::PerDevice,
            PlacementSpec::Centralized => siopmp::config::Placement::Centralized,
        },
        mountable: u.mountable,
        violation_log_capacity: u.log,
    }
}

/// Lowers the `bus` directive to the simulator configuration. With
/// `derive_checker=on` the checker/violation/placement timing overheads
/// come from the unit configuration; off (the default) keeps the bus
/// timing combinational, which is what the hand-coded exercises did.
pub fn bus_config(s: &Scenario) -> BusConfig {
    let base = BusConfig::default()
        .with_bytes_per_beat(s.bus.bytes)
        .with_beats_per_burst(s.bus.beats)
        .with_mem_read_latency(s.bus.read_latency)
        .with_mem_write_latency(s.bus.write_latency)
        .with_issue_gap(s.bus.issue_gap);
    if s.bus.derive_checker {
        let cfg = siopmp_config(&s.unit);
        base.with_checker(cfg.checker, cfg.violation_mode)
            .with_placement(cfg.placement)
    } else {
        base
    }
}

pub(crate) fn permissions(p: Perms) -> Permissions {
    match p {
        Perms::R => Permissions::read_only(),
        Perms::W => Permissions::write_only(),
        Perms::Rw => Permissions::rw(),
    }
}

fn range(domain: &str, what: &str, base: u64, len: u64) -> Result<AddressRange, CompileError> {
    AddressRange::new(base, len).map_err(|_| CompileError {
        domain: Some(domain.to_string()),
        message: format!("{what} [{base:#x}, len {len:#x}) is not a valid address range"),
    })
}

/// A domain's compiled unit plus its device → SID table (declaration
/// order), shared by the simulator build and the linter.
struct BuiltUnit {
    unit: Siopmp,
    telemetry: Telemetry,
    /// Hot device → assigned SID, in declaration order.
    sids: Vec<(u64, SourceId)>,
}

fn build_unit(s: &Scenario, d: &Domain) -> Result<BuiltUnit, CompileError> {
    let name = d.name.as_str();
    let cfg = siopmp_config(&s.unit);
    if let Err(e) = cfg.validate() {
        return fail(None, format!("invalid `config`: {e}"));
    }
    let telemetry = Telemetry::new();
    let mut unit = Siopmp::build(cfg, telemetry.clone());
    let mut sids: Vec<(u64, SourceId)> = Vec::new();
    let declared_twice = |id: u64| fail(Some(name), format!("device {id} declared twice"));
    for dev in &d.devices {
        let ids = dev.first..dev.first + dev.count;
        match &dev.kind {
            DeviceKind::Hot { mds } => {
                for id in ids {
                    if hot_sid(&sids, id).is_some() {
                        return declared_twice(id);
                    }
                    let sid = unit
                        .map_hot_device(DeviceId(id))
                        .map_err(|e| CompileError {
                            domain: Some(name.to_string()),
                            message: format!("cannot map hot device {id}: {e}"),
                        })?;
                    for &md in mds {
                        unit.associate_sid_with_md(sid, MdIndex(md))
                            .map_err(|e| CompileError {
                                domain: Some(name.to_string()),
                                message: format!("device {id}: cannot associate md {md}: {e}"),
                            })?;
                    }
                    sids.push((id, sid));
                }
            }
            DeviceKind::Cold { mds, records } => {
                // One publish for the whole stanza. Errors come in the
                // order a per-ID loop meets them: a hot ID ends the
                // registered prefix, and record ranges are checked at the
                // first ID.
                let first_hot = ids.clone().find(|&id| hot_sid(&sids, id).is_some());
                if first_hot != Some(dev.first) {
                    let mut entries = Vec::with_capacity(records.len());
                    for r in records {
                        entries.push(IopmpEntry::new(
                            range(name, "record", r.base, r.len)?,
                            permissions(r.perms),
                        ));
                    }
                    let record = MountableEntry {
                        domains: mds.iter().map(|&md| MdIndex(md)).collect(),
                        entries,
                    };
                    let cold = dev.first..first_hot.unwrap_or(ids.end);
                    unit.register_cold_devices(cold.map(|id| (DeviceId(id), record.clone())))
                        .map_err(|e| {
                            let id = match e {
                                SiopmpError::DeviceAlreadyMapped(device) => device.0,
                                _ => dev.first,
                            };
                            CompileError {
                                domain: Some(name.to_string()),
                                message: format!("cannot register cold device {id}: {e}"),
                            }
                        })?;
                }
                if let Some(id) = first_hot {
                    return declared_twice(id);
                }
            }
        }
    }
    for e in &d.entries {
        let r = range(name, "entry", e.base, e.len)?;
        let entry = if e.locked {
            IopmpEntry::new_locked(r, permissions(e.perms))
        } else {
            IopmpEntry::new(r, permissions(e.perms))
        };
        unit.install_entry(MdIndex(e.md), entry)
            .map_err(|e2| CompileError {
                domain: Some(name.to_string()),
                message: format!("cannot install entry into md {}: {e2}", e.md),
            })?;
    }
    for &blocked in &d.blocks {
        let sid = hot_sid(&sids, blocked).ok_or_else(|| CompileError {
            domain: Some(name.to_string()),
            message: format!("`block {blocked}` names no hot device of this domain"),
        })?;
        unit.block_sid(sid);
    }
    Ok(BuiltUnit {
        unit,
        telemetry,
        sids,
    })
}

fn hot_sid(sids: &[(u64, SourceId)], device: u64) -> Option<SourceId> {
    sids.iter()
        .find(|&&(id, _)| id == device)
        .map(|&(_, sid)| sid)
}

fn master_program(m: &MasterDecl) -> MasterProgram {
    let mut program: Option<MasterProgram> = None;
    for t in &m.programs {
        let kind = match t.kind {
            Kind::Read => BurstKind::Read,
            Kind::Write => BurstKind::Write,
        };
        let segment = match t.mode {
            Mode::Uniform => MasterProgram::uniform(m.device, kind, t.base, t.count),
            Mode::Stream { stride } => {
                MasterProgram::streaming(m.device, kind, t.base, stride, t.count)
            }
        };
        program = Some(match program {
            None => segment,
            Some(p) => p.chain(segment),
        });
    }
    let mut program = program
        .expect("the parser never produces a master without a program")
        .with_outstanding(m.outstanding);
    if let Some(r) = m.retry {
        let mut retry = RetryPolicy::bounded(r.max, r.backoff);
        if r.sid_missing {
            retry = retry.with_sid_missing_retry();
        }
        program = program.with_retry(retry);
    }
    program
}

fn fault_plan(
    d: &Domain,
    index: usize,
    sids: &[(u64, SourceId)],
    seed_override: Option<u64>,
) -> Result<FaultPlan, CompileError> {
    let Some(f) = &d.faults else {
        return Ok(FaultPlan::empty());
    };
    let mut block_sids = Vec::with_capacity(f.block.len());
    for &dev in &f.block {
        block_sids.push(hot_sid(sids, dev).ok_or_else(|| CompileError {
            domain: Some(d.name.clone()),
            message: format!("faults `block={dev}` names no hot device of this domain"),
        })?);
    }
    let cfg = FaultPlanConfig {
        horizon: f.horizon,
        budget: f.budget,
        masters: d.masters.len(),
        block_sids,
        cold_devices: f.cold.iter().map(|&id| DeviceId(id)).collect(),
        churn_devices: f.churn.iter().map(|&id| DeviceId(id)).collect(),
    };
    let seed = seed_override.unwrap_or(f.seed);
    Ok(FaultPlan::for_domain(seed, index as u64, &cfg))
}

/// Compiles `s` into a ready-to-run [`ParallelSim`]. Run it with
/// `psim.run(s.run.max_cycles)` or go through [`run`], which also judges
/// the `expect` lines.
///
/// # Errors
///
/// Returns the first semantic error: an invalid `config`, a device
/// declared twice, an out-of-range MD, an unmappable hot device, or a
/// `block`/`faults` reference to an unknown device.
pub fn compile(s: &Scenario, opts: &RunOptions) -> Result<ParallelSim, CompileError> {
    if s.domains.is_empty() {
        return fail(None, "scenario declares no domains");
    }
    let threads = opts.threads.or(s.run.threads).unwrap_or(1);
    let bus = bus_config(s);
    let mut psim = ParallelSim::new(s.run.epoch, threads);
    for (index, d) in s.domains.iter().enumerate() {
        let built = build_unit(s, d)?;
        let plan = fault_plan(d, index, &built.sids, opts.seed)?;
        let mut spec = DomainSpec::for_policy(SiopmpPolicy::new(built.unit))
            .with_config(bus.clone())
            .with_telemetry(built.telemetry)
            .with_fault_plan(plan);
        if let Some((base, len)) = d.home {
            spec = spec.with_home_window(base, len);
        }
        for m in &d.masters {
            spec = spec.with_master(master_program(m));
        }
        psim.add_domain(spec);
    }
    Ok(psim)
}

/// One domain's compiled sIOPMP unit, exposed for consumers that need
/// the raw hardware state rather than a simulator (the static linter
/// and the `prove` subcommand's model lowering).
pub struct DomainUnit {
    /// Domain name from the scenario.
    pub domain: String,
    /// The compiled unit, exactly as [`compile`] would shard it.
    pub unit: Siopmp,
    /// Hot device → assigned SID, in declaration order.
    pub hot: Vec<(u64, SourceId)>,
}

/// Compiles every domain's unit without building a simulator.
///
/// # Errors
///
/// Same failure modes as [`compile`].
pub fn domain_units(s: &Scenario) -> Result<Vec<DomainUnit>, CompileError> {
    if s.domains.is_empty() {
        return fail(None, "scenario declares no domains");
    }
    s.domains
        .iter()
        .map(|d| {
            let built = build_unit(s, d)?;
            Ok(DomainUnit {
                domain: d.name.clone(),
                unit: built.unit,
                hot: built.sids,
            })
        })
        .collect()
}

/// One domain's static-analysis result.
pub struct DomainLint {
    /// Domain name from the scenario.
    pub domain: String,
    /// The analyzer's report over the domain's compiled unit.
    pub report: siopmp_verify::Report,
}

/// Compiles each domain's unit and runs the static analyzer over it.
/// "Lint clean" means no domain has an Error-severity finding.
///
/// # Errors
///
/// Returns the first semantic error (same failure modes as [`compile`]).
pub fn lint(s: &Scenario) -> Result<Vec<DomainLint>, CompileError> {
    if s.domains.is_empty() {
        return fail(None, "scenario declares no domains");
    }
    s.domains
        .iter()
        .map(|d| {
            let built = build_unit(s, d)?;
            Ok(DomainLint {
                domain: d.name.clone(),
                report: siopmp_verify::analyze(&built.unit, None),
            })
        })
        .collect()
}

/// The result of one scenario run: the merged report, the engine's
/// routing counters, and the verdict on every `expect` line.
pub struct Outcome {
    /// Scenario name.
    pub scenario: String,
    /// The fault-seed override that was applied, if any.
    pub seed: Option<u64>,
    /// Worker threads actually used.
    pub threads: usize,
    /// The merged simulation report.
    pub report: SimReport,
    /// Cross-domain bursts exchanged at barriers.
    pub cross_domain: u64,
    /// Egress bursts no home window claimed.
    pub unrouted: u64,
    /// One entry per failed `expect` line, in file order; empty = pass.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The machine-readable payload (wrap it with
    /// [`siopmp::json::envelope`] for emission).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("passed", Json::u64(self.passed() as u64)),
            ("failures", Json::array(self.failures.iter().map(Json::str))),
            ("cross_domain", Json::u64(self.cross_domain)),
            ("unrouted", Json::u64(self.unrouted)),
            ("report", self.report.to_json()),
        ])
    }
}

/// Reads one metric off a finished run.
pub fn metric_value(m: Metric, report: &SimReport, cross_domain: u64, unrouted: u64) -> u64 {
    match m {
        Metric::Cycles => report.cycles,
        Metric::Makespan => report.makespan(),
        Metric::Masters => report.masters.len() as u64,
        Metric::TotalCompleted => report
            .masters
            .iter()
            .map(|m| m.bursts_completed as u64)
            .sum(),
        Metric::TotalOk => report.masters.iter().map(|m| m.bursts_ok as u64).sum(),
        Metric::TotalBytes => report.total_bytes(),
        Metric::TotalMasked => report.masters.iter().map(|m| m.bursts_masked as u64).sum(),
        Metric::TotalBusError => report
            .masters
            .iter()
            .map(|m| m.bursts_bus_error as u64)
            .sum(),
        Metric::TotalStalled => report.total_stalled() as u64,
        Metric::TotalSidMissing => report.total_sid_missing() as u64,
        Metric::TotalRetried => report.total_retried() as u64,
        Metric::TotalRetryExhausted => report.total_retry_exhausted() as u64,
        Metric::ControlFaults => report.control_faults as u64,
        Metric::FaultsInjected => report.total_faults_injected() as u64,
        Metric::CrossDomain => cross_domain,
        Metric::Unrouted => unrouted,
    }
}

/// Compiles, runs and judges `s` in one call.
///
/// # Errors
///
/// Returns the first semantic error (same failure modes as [`compile`]);
/// failed expectations are *not* errors — they land in
/// [`Outcome::failures`].
pub fn run(s: &Scenario, opts: &RunOptions) -> Result<Outcome, CompileError> {
    let threads = opts.threads.or(s.run.threads).unwrap_or(1);
    let mut psim = compile(s, opts)?;
    let report = psim.run(s.run.max_cycles);
    let cross_domain = psim
        .telemetry()
        .counter("parallel.cross_domain_bursts")
        .get();
    let unrouted = psim.telemetry().counter("parallel.unrouted_egress").get();
    let mut failures = Vec::new();
    for e in &s.expects {
        match e {
            Expectation::Completed => {
                if !report.completed {
                    failures.push(format!(
                        "expect completed: masters still busy after {} cycles",
                        report.cycles
                    ));
                }
            }
            Expectation::LintClean => {
                for l in lint(s)? {
                    if l.report.has_errors() {
                        let worst = l
                            .report
                            .diagnostics()
                            .iter()
                            .find(|d| d.severity == siopmp_verify::Severity::Error)
                            .expect("has_errors implies an Error diagnostic");
                        failures.push(format!(
                            "expect lint clean: domain `{}` has {}: {}",
                            l.domain, worst.code, worst.message
                        ));
                    }
                }
            }
            Expectation::Metric { metric, op, value } => {
                let got = metric_value(*metric, &report, cross_domain, unrouted);
                if !op.holds(got, *value) {
                    failures.push(format!(
                        "expect {} {} {}: actual value is {got}",
                        metric.as_str(),
                        op.as_str(),
                        value
                    ));
                }
            }
        }
    }
    Ok(Outcome {
        scenario: s.name.clone(),
        seed: opts.seed,
        threads,
        report,
        cross_domain,
        unrouted,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const TINY: &str = "\
scenario tiny
config sids=8 mds=8 entries=32 cold_entries=4
domain d0
  device 1 hot md=0
  entry md=0 0x1000 0x1000 rw
  master device=1 kind=read mode=stream base=0x1000 stride=64 count=4
expect completed
expect total_ok == 4
expect lint clean
";

    #[test]
    fn tiny_scenario_runs_and_passes() {
        let s = parse(TINY).unwrap();
        let out = run(&s, &RunOptions::default()).unwrap();
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.threads, 1);
        assert!(out.report.completed);
    }

    #[test]
    fn failed_expectation_is_reported_not_fatal() {
        let mut s = parse(TINY).unwrap();
        s.expects.push(Expectation::Metric {
            metric: Metric::TotalOk,
            op: CmpOp::Eq,
            value: 999,
        });
        let out = run(&s, &RunOptions::default()).unwrap();
        assert!(!out.passed());
        assert_eq!(out.failures.len(), 1);
        assert!(
            out.failures[0].contains("total_ok == 999"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn unknown_block_device_is_a_compile_error() {
        let s = parse("scenario t\ndomain d0\n  device 1 hot md=0\n  block 9\n").unwrap();
        let err = compile(&s, &RunOptions::default()).unwrap_err();
        assert_eq!(err.domain.as_deref(), Some("d0"));
        assert!(err.message.contains("block 9"), "{err}");
    }

    #[test]
    fn duplicate_device_is_a_compile_error() {
        // Cold ranges register with one publish, but report the device a
        // per-ID loop would stop at.
        for (devices, message) in [
            (
                "device 1..3 hot\n  device 2 cold",
                "device 2 declared twice",
            ),
            (
                "device 1..3 hot\n  device 0..4 cold",
                "device 1 declared twice",
            ),
            (
                "device 4 hot\n  device 2..9 cold",
                "device 4 declared twice",
            ),
            (
                "device 5 cold\n  device 3..8 cold",
                "cannot register cold device 5: ",
            ),
        ] {
            let s = parse(&format!("scenario t\ndomain d0\n  {devices}\n")).unwrap();
            let err = compile(&s, &RunOptions::default()).unwrap_err();
            assert!(err.message.starts_with(message), "{devices}: {err}");
        }
    }

    #[test]
    fn a_cold_range_registers_with_one_publish() {
        let build = |text: &str| {
            let s = parse(text).unwrap();
            build_unit(&s, &s.domains[0]).unwrap().unit
        };
        let bare = build("scenario t\ndomain d0\n");
        let cold = build("scenario t\ndomain d0\n  device 2..1026 cold\n");
        assert_eq!(cold.cold_device_count(), 1024);
        assert_eq!(cold.generation(), bare.generation() + 1);
    }

    #[test]
    fn lint_flags_a_blocked_sid_free_config_clean() {
        let s = parse(TINY).unwrap();
        let lints = lint(&s).unwrap();
        assert_eq!(lints.len(), 1);
        assert!(!lints[0].report.has_errors());
    }

    #[test]
    fn threads_override_wins_over_run_directive() {
        let mut s = parse(TINY).unwrap();
        s.run.threads = Some(2);
        let out = run(
            &s,
            &RunOptions {
                threads: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.threads, 4);
    }
}
