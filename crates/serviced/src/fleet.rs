//! Fleet loading: a directory of `.scn` tenant configs → live units.
//!
//! Every domain of every scenario file becomes one *tenant* named
//! `<scenario>/<domain>`. Tenants are compiled through the scenario
//! crate's [`domain_units`] lowering — the same path `siopmp-scenario
//! run` takes — so the daemon admits against exactly the policy the
//! rest of the toolchain simulates, lints and proves.
//!
//! The fleet's identity is [`Fleet::fleet_hash`]: an FNV fold of every
//! tenant's name and [`policy_fingerprint`] in sorted tenant order.
//! The journal measures this hash into each record, and restart replay
//! refuses to proceed if re-applying the journal lands anywhere else.
//!
//! [`domain_units`]: siopmp_scenario::domain_units
//! [`policy_fingerprint`]: siopmp::Siopmp::policy_fingerprint

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use siopmp::canonical::{fnv1a_extend, FNV_OFFSET};
use siopmp::ids::SourceId;
use siopmp::Siopmp;
use siopmp_scenario::{domain_units, parse, FleetParams, Scenario};

use crate::admission::TokenBucket;

/// Daemon-default token rate (tokens per kilotick) when a scenario has
/// no `fleet` stanza.
pub const DEFAULT_RATE: u64 = 64_000;
/// Daemon-default burst capacity in tokens.
pub const DEFAULT_BURST: u64 = 64;
/// Daemon-default per-request deadline in ticks.
pub const DEFAULT_DEADLINE: u64 = 1000;
/// Daemon-default Stalled-retry budget: `(max_retries, backoff_base)`.
pub const DEFAULT_RETRY: (u32, u64) = (3, 2);

/// Resolved per-tenant admission limits (fleet stanza + defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLimits {
    /// Token-bucket refill rate, tokens per 1000 ticks.
    pub rate: u64,
    /// Token-bucket capacity in tokens.
    pub burst: u64,
    /// Default admission deadline in ticks.
    pub deadline: u64,
    /// Stalled-retry budget `(max_retries, backoff_base_ticks)`.
    pub retry: (u32, u64),
}

impl TenantLimits {
    /// Resolves a scenario's optional `fleet` stanza against defaults.
    pub fn from_fleet(fleet: Option<&FleetParams>) -> TenantLimits {
        match fleet {
            Some(f) => TenantLimits {
                rate: f.rate,
                burst: f.burst,
                deadline: f.deadline.unwrap_or(DEFAULT_DEADLINE),
                retry: f.retry.unwrap_or(DEFAULT_RETRY),
            },
            None => TenantLimits {
                rate: DEFAULT_RATE,
                burst: DEFAULT_BURST,
                deadline: DEFAULT_DEADLINE,
                retry: DEFAULT_RETRY,
            },
        }
    }
}

/// One live tenant: a compiled unit plus its admission state.
pub struct Tenant {
    /// `<scenario>/<domain>`.
    pub name: String,
    /// The owning unit (mutated only for cold switches).
    pub unit: Siopmp,
    /// Lock-free data-plane handle; answers every `check` from the
    /// unit's latest published snapshot while `unit` mutates.
    pub shared: siopmp::snapshot::SharedSiopmp,
    /// Hot device → SID assignments, declaration order.
    pub hot: Vec<(u64, SourceId)>,
    /// Cold (mountable) device IDs, declaration order.
    pub cold: Vec<u64>,
    /// Admission rate limiter.
    pub bucket: TokenBucket,
    /// Resolved limits.
    pub limits: TenantLimits,
}

impl Tenant {
    /// The tenant's current policy measurement.
    pub fn policy_fingerprint(&self) -> u64 {
        self.unit.policy_fingerprint()
    }
}

/// A loaded fleet of tenants, sorted by name.
pub struct Fleet {
    tenants: Vec<Tenant>,
}

/// Why a fleet failed to load.
#[derive(Debug)]
pub enum FleetError {
    /// Filesystem failure reading the fleet source.
    Io(PathBuf, io::Error),
    /// `.scn` parse failure.
    Parse(PathBuf, String),
    /// Scenario-to-unit lowering failure.
    Compile(PathBuf, String),
    /// Two domains resolved to the same tenant name.
    DuplicateTenant(String),
    /// The fleet directory held no `.scn` files.
    Empty(PathBuf),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            FleetError::Parse(p, e) => write!(f, "{}: parse error: {e}", p.display()),
            FleetError::Compile(p, e) => write!(f, "{}: compile error: {e}", p.display()),
            FleetError::DuplicateTenant(n) => write!(f, "duplicate tenant name `{n}`"),
            FleetError::Empty(p) => write!(f, "{}: no .scn files found", p.display()),
        }
    }
}

impl std::error::Error for FleetError {}

/// Stem used as the tenant-name prefix for a scenario file.
fn scenario_stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".to_string())
}

impl Fleet {
    /// Loads every `.scn` file directly inside `dir` (sorted by name).
    ///
    /// # Errors
    ///
    /// [`FleetError`] on I/O, parse, compile or naming failures.
    pub fn load_dir(dir: &Path) -> Result<Fleet, FleetError> {
        let entries = fs::read_dir(dir).map_err(|e| FleetError::Io(dir.to_path_buf(), e))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "scn"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(FleetError::Empty(dir.to_path_buf()));
        }
        Fleet::load_paths(&paths)
    }

    /// Loads an explicit list of `.scn` files.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fleet::load_dir`].
    pub fn load_paths(paths: &[PathBuf]) -> Result<Fleet, FleetError> {
        let mut sources = Vec::new();
        for path in paths {
            let text = fs::read_to_string(path).map_err(|e| FleetError::Io(path.clone(), e))?;
            sources.push((scenario_stem(path), path.clone(), text));
        }
        let parsed: Result<Vec<_>, FleetError> = sources
            .into_iter()
            .map(|(stem, path, text)| match parse(&text) {
                Ok(s) => Ok((stem, path, s)),
                Err(e) => Err(FleetError::Parse(path, e.to_string())),
            })
            .collect();
        let parsed = parsed?;
        Fleet::from_scenarios(
            parsed
                .iter()
                .map(|(stem, path, s)| (stem.as_str(), Some(path.as_path()), s)),
        )
    }

    /// Builds a fleet from already-parsed scenarios (used by tests and
    /// the repository benchmark, which have no files on disk).
    ///
    /// # Errors
    ///
    /// [`FleetError::Compile`] / [`FleetError::DuplicateTenant`].
    pub fn from_scenarios<'a>(
        scenarios: impl IntoIterator<Item = (&'a str, Option<&'a Path>, &'a Scenario)>,
    ) -> Result<Fleet, FleetError> {
        let mut tenants: Vec<Tenant> = Vec::new();
        for (stem, path, scenario) in scenarios {
            let origin = || path.map(Path::to_path_buf).unwrap_or_else(|| stem.into());
            let units =
                domain_units(scenario).map_err(|e| FleetError::Compile(origin(), e.to_string()))?;
            let limits = TenantLimits::from_fleet(scenario.fleet.as_ref());
            for (domain, unit) in units.into_iter().map(|u| (u.domain.clone(), u)) {
                let name = format!("{stem}/{domain}");
                if tenants.iter().any(|t| t.name == name) {
                    return Err(FleetError::DuplicateTenant(name));
                }
                let decl = scenario
                    .domains
                    .iter()
                    .find(|d| d.name == domain)
                    .expect("domain_units yields declared domains");
                let cold = decl
                    .devices
                    .iter()
                    .filter(|d| matches!(d.kind, siopmp_scenario::ast::DeviceKind::Cold { .. }))
                    .flat_map(|d| d.first..d.first + d.count)
                    .collect();
                let shared = unit.unit.share();
                tenants.push(Tenant {
                    name,
                    unit: unit.unit,
                    shared,
                    hot: unit.hot,
                    cold,
                    bucket: TokenBucket::new(limits.rate, limits.burst, 0),
                    limits,
                });
            }
        }
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Fleet { tenants })
    }

    /// Tenants, sorted by name.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Mutable tenant access (cold switches, bucket refills).
    pub fn tenants_mut(&mut self) -> &mut [Tenant] {
        &mut self.tenants
    }

    /// Index of a tenant by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    /// The fleet's policy measurement: FNV over every tenant's name and
    /// unit fingerprint, in sorted tenant order. Any cold switch in any
    /// tenant changes this hash.
    pub fn fleet_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for t in &self.tenants {
            h = fnv1a_extend(h, t.name.as_bytes());
            h = fnv1a_extend(h, &t.policy_fingerprint().to_le_bytes());
        }
        h
    }

    /// Runs the static analyzer over every tenant's unit; returns the
    /// names of tenants whose report contains Error-severity findings.
    pub fn verify_errors(&self) -> Vec<(String, siopmp_verify::Report)> {
        self.tenants
            .iter()
            .filter_map(|t| {
                let report = siopmp_verify::analyze(&t.unit, None);
                report.has_errors().then(|| (t.name.clone(), report))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCN: &str = "\
scenario fleet-test
config sids=8 mds=8 entries=32 cold_entries=4

domain alpha
  device 1 hot md=0
  entry md=0 0x1000 0x1000 r
  device 7 cold
  record 0x8000 0x100 rw

domain beta
  device 2 hot md=0
  entry md=0 0x2000 0x1000 rw
";

    #[test]
    fn fleet_builds_tenants_sorted_with_cold_rosters() {
        let s = parse(SCN).unwrap();
        let fleet = Fleet::from_scenarios([("t", None, &s)]).unwrap();
        let names: Vec<&str> = fleet.tenants().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["t/alpha", "t/beta"]);
        assert_eq!(fleet.tenants()[0].cold, [7]);
        assert!(fleet.tenants()[1].cold.is_empty());
        assert!(fleet.verify_errors().is_empty(), "clean fleet lints clean");
    }

    #[test]
    fn fleet_hash_tracks_cold_switches() {
        let s = parse(SCN).unwrap();
        let mut fleet = Fleet::from_scenarios([("t", None, &s)]).unwrap();
        let before = fleet.fleet_hash();
        let t = &mut fleet.tenants_mut()[0];
        t.unit
            .handle_sid_missing(siopmp::ids::DeviceId(7))
            .expect("cold device mounts");
        assert_ne!(fleet.fleet_hash(), before, "mount changes the measurement");
    }

    #[test]
    fn duplicate_tenant_names_are_rejected() {
        let s = parse(SCN).unwrap();
        let Err(err) = Fleet::from_scenarios([("t", None, &s), ("t", None, &s)]) else {
            panic!("duplicate tenant accepted");
        };
        assert!(matches!(err, FleetError::DuplicateTenant(_)));
    }

    #[test]
    fn limits_resolve_fleet_stanza_over_defaults() {
        let defaults = TenantLimits::from_fleet(None);
        assert_eq!(defaults.rate, DEFAULT_RATE);
        let f = FleetParams {
            rate: 5,
            burst: 2,
            deadline: None,
            retry: Some((7, 3)),
        };
        let limits = TenantLimits::from_fleet(Some(&f));
        assert_eq!(limits.rate, 5);
        assert_eq!(limits.deadline, DEFAULT_DEADLINE);
        assert_eq!(limits.retry, (7, 3));
    }
}
