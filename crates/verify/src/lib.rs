//! # siopmp-verify — static configuration analyzer for sIOPMP tables
//!
//! The paper's security argument rests on the sIOPMP tables (remapping
//! CAM, SRC2MD, MDCFG, entry table, mountable sub-tables) and the secure
//! monitor's capability state agreeing at all times. This crate checks
//! that agreement *statically*: [`analyze`] takes a snapshot of a
//! [`Siopmp`] unit (and optionally the monitor's exported
//! [`CapabilityMap`]), computes each SID's reachable address map through
//! the interval/priority abstract domain in [`domain`], and emits
//! severity-ranked, machine-readable diagnostics:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `shadowed-entry` | Warning/Info | an occupied entry can never decide an access |
//! | `priority-conflict` | Warning/Info | overlapping entries disagree on permissions |
//! | `permission-widening` | Warning | re-mounting the cold device would widen access |
//! | `cross-sid-overlap` | Error | a SID reaches another TEE's enclave memory |
//! | `capability-divergence` | Error | a table grant has no backing live capability |
//!
//! The analyzer is *sound with respect to the hardware model*: the
//! differential property test in `tests/differential.rs` replays tens of
//! thousands of randomized probes through both [`SidView::predict`] and
//! [`Siopmp::check`] and requires byte-identical outcomes.
//!
//! ## Example
//!
//! ```
//! use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
//! use siopmp::ids::{DeviceId, MdIndex};
//! use siopmp::{Siopmp, SiopmpConfig};
//! use siopmp_verify::{analyze, DiagnosticCode};
//!
//! let mut unit = Siopmp::build(SiopmpConfig::small(), None);
//! let sid = unit.map_hot_device(DeviceId(1)).unwrap();
//! unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
//! let wide = IopmpEntry::new(AddressRange::new(0x1000, 0x1000).unwrap(), Permissions::rw());
//! let dead = IopmpEntry::new(AddressRange::new(0x1800, 0x100).unwrap(), Permissions::read_only());
//! unit.install_entry(MdIndex(0), wide).unwrap();
//! unit.install_entry(MdIndex(0), dead).unwrap();
//!
//! let report = analyze(&unit, None);
//! assert!(report
//!     .diagnostics()
//!     .iter()
//!     .any(|d| d.code == DiagnosticCode::ShadowedEntry));
//! ```

pub mod differential;
pub mod domain;

use siopmp::entry::IopmpEntry;
use siopmp::ids::{DeviceId, EntryIndex, MdIndex, SourceId};
use siopmp::json::Json;
use siopmp::request::AccessKind;
use siopmp::{CheckOutcome, Siopmp};
use std::collections::BTreeSet;

pub use domain::{interval_at, reachable, Interval};

/// How bad a diagnostic is. `Error` findings are isolation violations;
/// the pre-switch monitor hook and the `verify-lint` CI job reject on
/// them. Ordered so `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, not necessarily wrong.
    Info,
    /// Suspicious configuration (dead entries, conflicting rules).
    Warning,
    /// An isolation invariant is violated.
    Error,
}

impl Severity {
    /// Lower-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The diagnostic taxonomy (see the crate-level table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// An occupied entry that can never decide any access.
    ShadowedEntry,
    /// Overlapping entries whose permissions disagree: the outcome over
    /// the overlap silently depends on entry order.
    PriorityConflict,
    /// Re-mounting the currently mounted cold device would grant access
    /// the in-table cold window does not grant today.
    PermissionWidening,
    /// A SID's reachable map extends into memory owned by a different
    /// TEE's enclave.
    CrossSidOverlap,
    /// A hardware table grant not justified by a live capability.
    CapabilityDivergence,
}

impl DiagnosticCode {
    /// The stable machine-readable code string.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::ShadowedEntry => "shadowed-entry",
            DiagnosticCode::PriorityConflict => "priority-conflict",
            DiagnosticCode::PermissionWidening => "permission-widening",
            DiagnosticCode::CrossSidOverlap => "cross-sid-overlap",
            DiagnosticCode::CapabilityDivergence => "capability-divergence",
        }
    }
}

impl core::fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which invariant class the finding belongs to.
    pub code: DiagnosticCode,
    /// How bad it is.
    pub severity: Severity,
    /// The SID whose view the finding concerns, when SID-specific.
    pub sid: Option<SourceId>,
    /// The device involved, when known.
    pub device: Option<DeviceId>,
    /// The entry the finding anchors to, when entry-specific.
    pub entry: Option<EntryIndex>,
    /// The address region `[start, end)` concerned, when range-specific.
    pub region: Option<(u64, u64)>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Serializes the finding for the JSON report.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("code", Json::str(self.code.as_str())),
            ("severity", Json::str(self.severity.label())),
            ("message", Json::str(self.message.clone())),
        ];
        if let Some(sid) = self.sid {
            pairs.push(("sid", Json::u64(u64::from(sid.0))));
        }
        if let Some(device) = self.device {
            pairs.push(("device", Json::u64(device.0)));
        }
        if let Some(entry) = self.entry {
            pairs.push(("entry", Json::u64(u64::from(entry.0))));
        }
        if let Some((start, end)) = self.region {
            pairs.push((
                "region",
                Json::object([("start", Json::u64(start)), ("end", Json::u64(end))]),
            ));
        }
        Json::object(pairs)
    }
}

/// A memory right the monitor has granted to a device: the byte range a
/// live capability covers and which accesses it justifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryGrant {
    /// Base of the granted range.
    pub base: u64,
    /// Length of the granted range in bytes.
    pub len: u64,
    /// Whether the capability justifies device reads.
    pub read: bool,
    /// Whether the capability justifies device writes.
    pub write: bool,
}

impl MemoryGrant {
    fn end(&self) -> u64 {
        self.base.saturating_add(self.len)
    }
}

/// The grants backing one device, and which TEE owns the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceGrants {
    /// The device.
    pub device: DeviceId,
    /// Numeric id of the owning TEE.
    pub tee: u32,
    /// Live memory capabilities referenced by the device's mappings.
    pub grants: Vec<MemoryGrant>,
}

/// A memory region owned by a TEE (enclave memory): any *other* TEE's
/// device reaching into it is a cross-SID isolation violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeeRegion {
    /// Numeric id of the owning TEE.
    pub tee: u32,
    /// Base of the owned region.
    pub base: u64,
    /// Length of the owned region in bytes.
    pub len: u64,
}

impl TeeRegion {
    fn end(&self) -> u64 {
        self.base.saturating_add(self.len)
    }
}

/// The monitor's capability/ownership state, exported as plain data so
/// the analyzer stays free of a monitor dependency (the monitor depends
/// on this crate for the pre-switch hook, not the other way around).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapabilityMap {
    /// Per-device grant lists.
    pub devices: Vec<DeviceGrants>,
    /// Enclave-owned memory regions (one per live TEE memory capability).
    pub regions: Vec<TeeRegion>,
}

impl CapabilityMap {
    /// The grants recorded for `device`, if the map knows it.
    pub fn grants_for(&self, device: DeviceId) -> Option<&DeviceGrants> {
        self.devices.iter().find(|g| g.device == device)
    }
}

/// What the analyzer predicts [`Siopmp::check`] will say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicted {
    /// Allowed by the winning entry.
    Allowed {
        /// The entry that wins the priority match.
        matched: EntryIndex,
    },
    /// Denied: no entry fully contains the access.
    DeniedNoMatch,
    /// Denied: the winning entry lacks the required permission.
    DeniedPermission {
        /// The entry that wins the priority match.
        matched: EntryIndex,
    },
    /// The SID is blocked; the request stalls.
    Stalled,
    /// The device is registered cold but not mounted.
    SidMissing,
}

impl Predicted {
    /// Whether this prediction matches a concrete [`CheckOutcome`]
    /// (including the winning entry index for allowed accesses).
    pub fn agrees_with(&self, outcome: &CheckOutcome) -> bool {
        match (self, outcome) {
            (Predicted::Allowed { matched }, CheckOutcome::Allowed { matched: m, .. }) => {
                matched == m
            }
            (
                Predicted::DeniedNoMatch | Predicted::DeniedPermission { .. },
                CheckOutcome::Denied(_),
            ) => true,
            (Predicted::Stalled, CheckOutcome::Stalled { .. }) => true,
            (Predicted::SidMissing, CheckOutcome::SidMissing { .. }) => true,
            _ => false,
        }
    }
}

/// One SID's abstract view of the tables: which entries it can see
/// (SRC2MD mask ∘ MDCFG windows, in global priority order) and the
/// reachability map they induce.
#[derive(Debug, Clone)]
pub struct SidView {
    /// The SID.
    pub sid: SourceId,
    /// The device resolving to this SID (CAM row, or the mounted cold
    /// device for the cold SID), when any.
    pub device: Option<DeviceId>,
    /// Whether the SID is currently blocked.
    pub blocked: bool,
    /// The memory domains associated with the SID.
    pub domains: Vec<MdIndex>,
    /// Visible occupied entries, ascending index.
    pub visible: Vec<(EntryIndex, IopmpEntry)>,
    /// The reachability map (disjoint, sorted by start).
    pub intervals: Vec<Interval>,
    /// Visible entries that can never decide an access.
    pub dead: Vec<EntryIndex>,
}

impl SidView {
    /// Predicts the checker's outcome for an access from this SID. Exact
    /// with respect to [`Siopmp::check`] — validated by the differential
    /// property test.
    pub fn predict(&self, kind: AccessKind, addr: u64, len: u64) -> Predicted {
        if self.blocked {
            return Predicted::Stalled;
        }
        for (idx, entry) in &self.visible {
            if entry.matches(addr, len) {
                return if entry.permissions().allows(kind.required()) {
                    Predicted::Allowed { matched: *idx }
                } else {
                    Predicted::DeniedPermission { matched: *idx }
                };
            }
        }
        Predicted::DeniedNoMatch
    }

    /// The interval covering `addr`, if the SID can reach it at all.
    pub fn reach_at(&self, addr: u64) -> Option<&Interval> {
        interval_at(&self.intervals, addr)
    }
}

/// The analyzer's output: diagnostics (most severe first) plus the
/// per-SID views they were derived from.
#[derive(Debug, Clone)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
    views: Vec<SidView>,
    hot: Vec<(SourceId, DeviceId)>,
    mounted: Option<DeviceId>,
    cold: Vec<DeviceId>,
    cold_sid: SourceId,
}

impl Report {
    /// The findings, sorted most severe first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// All per-SID views (one per configured SID).
    pub fn views(&self) -> &[SidView] {
        &self.views
    }

    /// The view of a specific SID.
    pub fn view(&self, sid: SourceId) -> Option<&SidView> {
        self.views.iter().find(|v| v.sid == sid)
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any Error-severity finding exists (isolation violated).
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Predicts the checker's outcome for a device-level DMA request,
    /// replaying the CAM → eSID → extended-table resolution order.
    pub fn predict(&self, device: DeviceId, kind: AccessKind, addr: u64, len: u64) -> Predicted {
        if let Some((sid, _)) = self.hot.iter().find(|(_, d)| *d == device) {
            return self
                .view(*sid)
                .map(|v| v.predict(kind, addr, len))
                .unwrap_or(Predicted::DeniedNoMatch);
        }
        if self.mounted == Some(device) {
            return self
                .view(self.cold_sid)
                .map(|v| v.predict(kind, addr, len))
                .unwrap_or(Predicted::DeniedNoMatch);
        }
        if self.cold.contains(&device) {
            return Predicted::SidMissing;
        }
        Predicted::DeniedNoMatch
    }

    /// Serializes the report: a summary block plus every diagnostic.
    pub fn to_json(&self) -> Json {
        let intervals: usize = self.views.iter().map(|v| v.intervals.len()).sum();
        Json::object([
            (
                "summary",
                Json::object([
                    ("errors", Json::u64(self.count(Severity::Error) as u64)),
                    ("warnings", Json::u64(self.count(Severity::Warning) as u64)),
                    ("info", Json::u64(self.count(Severity::Info) as u64)),
                    ("sids_analyzed", Json::u64(self.views.len() as u64)),
                    ("intervals", Json::u64(intervals as u64)),
                    ("hot_devices", Json::u64(self.hot.len() as u64)),
                    ("cold_devices", Json::u64(self.cold.len() as u64)),
                ]),
            ),
            (
                "diagnostics",
                Json::array(self.diagnostics.iter().map(Diagnostic::to_json)),
            ),
        ])
    }
}

fn fmt_region(start: u64, end: u64) -> String {
    format!("[{start:#x}, {end:#x})")
}

/// Analyzes a snapshot of `unit` (and optionally the monitor's exported
/// capability state) and returns the diagnostics plus per-SID views.
///
/// The analysis is read-only and side-effect free; it never touches the
/// compiled per-SID views, the CAM's reference bits, or the violation log.
pub fn analyze(unit: &Siopmp, caps: Option<&CapabilityMap>) -> Report {
    let cfg = unit.config();
    let hot = unit.hot_devices();
    let mounted = unit.mounted_cold_device();
    let cold: Vec<DeviceId> = unit.cold_devices().map(|(d, _)| d).collect();
    let cold_sid = cfg.cold_sid();

    // ------------------------------------------------------------------
    // Per-SID views through the abstract domain.
    // ------------------------------------------------------------------
    let mut views = Vec::with_capacity(cfg.num_sids);
    for s in 0..cfg.num_sids {
        let sid = SourceId(s as u16);
        let domains = unit.sid_domains(sid).unwrap_or_default();
        let mut visible: Vec<(EntryIndex, IopmpEntry)> = Vec::new();
        for md in &domains {
            if let Ok((start, end)) = unit.md_window(*md) {
                for j in start..end {
                    if let Ok(Some(entry)) = unit.entry(EntryIndex(j)) {
                        visible.push((EntryIndex(j), entry));
                    }
                }
            }
        }
        visible.sort_unstable_by_key(|(i, _)| *i);
        let (intervals, dead) = domain::reachable(&visible);
        let device = if sid == cold_sid {
            mounted
        } else {
            hot.iter().find(|(s2, _)| *s2 == sid).map(|(_, d)| *d)
        };
        views.push(SidView {
            sid,
            device,
            blocked: unit.is_sid_blocked(sid),
            domains,
            visible,
            intervals,
            dead,
        });
    }

    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // ------------------------------------------------------------------
    // shadowed-entry: occupied entries that can never decide an access.
    // ------------------------------------------------------------------
    let entry_md: Vec<Option<MdIndex>> = {
        let mut map = vec![None; cfg.num_entries];
        for m in 0..cfg.num_mds {
            let md = MdIndex(m as u16);
            if let Ok((start, end)) = unit.md_window(md) {
                for j in start..end {
                    map[j as usize] = Some(md);
                }
            }
        }
        map
    };
    for (idx, entry) in unit.entries() {
        let md = entry_md[idx.index()];
        let viewers: Vec<&SidView> = match md {
            Some(md) => views.iter().filter(|v| v.domains.contains(&md)).collect(),
            None => Vec::new(),
        };
        if viewers.is_empty() {
            diagnostics.push(Diagnostic {
                code: DiagnosticCode::ShadowedEntry,
                severity: Severity::Info,
                sid: None,
                device: None,
                entry: Some(idx),
                region: Some((entry.range().base(), entry.range().end())),
                message: format!(
                    "{idx} ({entry}) sits in a window no SID is associated with; it can never match"
                ),
            });
        } else if viewers.iter().all(|v| v.dead.contains(&idx)) {
            let sids: Vec<String> = viewers.iter().map(|v| v.sid.to_string()).collect();
            diagnostics.push(Diagnostic {
                code: DiagnosticCode::ShadowedEntry,
                severity: Severity::Warning,
                sid: Some(viewers[0].sid),
                device: viewers[0].device,
                entry: Some(idx),
                region: Some((entry.range().base(), entry.range().end())),
                message: format!(
                    "{idx} ({entry}) is fully shadowed by higher-priority entries in every view that sees it ({})",
                    sids.join(", ")
                ),
            });
        }
    }

    // ------------------------------------------------------------------
    // priority-conflict: overlapping visible entries with differing
    // permissions. Deduplicated per entry pair across views.
    // ------------------------------------------------------------------
    let mut seen_pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut seen_views: BTreeSet<Vec<u32>> = BTreeSet::new();
    for view in &views {
        if view.visible.len() < 2 {
            continue;
        }
        let signature: Vec<u32> = view.visible.iter().map(|(i, _)| i.0).collect();
        if !seen_views.insert(signature) {
            continue; // identical view already scanned
        }
        for (a, (idx_hi, hi)) in view.visible.iter().enumerate() {
            for (idx_lo, lo) in view.visible.iter().skip(a + 1) {
                let r = lo.range();
                if !hi.range().overlaps(r.base(), r.len()) {
                    continue;
                }
                if hi.permissions() == lo.permissions() {
                    continue;
                }
                if !seen_pairs.insert((idx_hi.0, idx_lo.0)) {
                    continue;
                }
                // The higher-priority entry decides the overlap; widening
                // (granting a right the shadowed rule withholds) is the
                // dangerous direction.
                let widens = (hi.permissions().read() && !lo.permissions().read())
                    || (hi.permissions().write() && !lo.permissions().write());
                let ov_start = hi.range().base().max(r.base());
                let ov_end = hi.range().end().min(r.end());
                diagnostics.push(Diagnostic {
                    code: DiagnosticCode::PriorityConflict,
                    severity: if widens { Severity::Warning } else { Severity::Info },
                    sid: Some(view.sid),
                    device: view.device,
                    entry: Some(*idx_lo),
                    region: Some((ov_start, ov_end)),
                    message: format!(
                        "{idx_hi} ({hi}) overrides {idx_lo} ({lo}) over {}; the outcome {} on entry order",
                        fmt_region(ov_start, ov_end),
                        if widens { "widens access depending" } else { "depends" },
                    ),
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // permission-widening: the mounted cold device's extended record vs
    // the cold window actually loaded in hardware. Re-mounting replays
    // the record; any right the record grants beyond the live window
    // appears silently at the next switch.
    // ------------------------------------------------------------------
    if let Some(device) = mounted {
        if let Some((_, record)) = unit.cold_devices().find(|(d, _)| *d == device) {
            let table_view: Vec<(EntryIndex, IopmpEntry)> = unit
                .md_window(cfg.cold_md())
                .map(|(start, end)| {
                    (start..end)
                        .filter_map(|j| {
                            unit.entry(EntryIndex(j))
                                .ok()
                                .flatten()
                                .map(|e| (EntryIndex(j), e))
                        })
                        .collect()
                })
                .unwrap_or_default();
            let record_view: Vec<(EntryIndex, IopmpEntry)> = record
                .entries
                .iter()
                .enumerate()
                .map(|(k, e)| (EntryIndex(k as u32), *e))
                .collect();
            let (now, _) = domain::reachable(&table_view);
            let (next, _) = domain::reachable(&record_view);
            for (start, end, right) in domain::widened(&now, &next) {
                diagnostics.push(Diagnostic {
                    code: DiagnosticCode::PermissionWidening,
                    severity: Severity::Warning,
                    sid: Some(cold_sid),
                    device: Some(device),
                    entry: None,
                    region: Some((start, end)),
                    message: format!(
                        "re-mounting {device} would gain {right} access over {} that the live cold window does not grant",
                        fmt_region(start, end)
                    ),
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Capability-backed checks (need the monitor's exported map).
    // ------------------------------------------------------------------
    if let Some(caps) = caps {
        for view in &views {
            let Some(device) = view.device else { continue };
            let owner = caps.grants_for(device);

            // cross-sid-overlap: reachable spans intruding into another
            // TEE's enclave memory.
            for region in &caps.regions {
                if owner.is_some_and(|g| g.tee == region.tee) {
                    continue; // the device's own TEE owns this region
                }
                let intruding = domain::merge_spans(
                    view.intervals
                        .iter()
                        .filter(|iv| iv.perms.read() || iv.perms.write())
                        .map(|iv| (iv.start.max(region.base), iv.end.min(region.end())))
                        .filter(|&(s, e)| s < e)
                        .collect(),
                );
                for (start, end) in intruding {
                    diagnostics.push(Diagnostic {
                        code: DiagnosticCode::CrossSidOverlap,
                        severity: Severity::Error,
                        sid: Some(view.sid),
                        device: Some(device),
                        entry: None,
                        region: Some((start, end)),
                        message: format!(
                            "{} ({device}) reaches {} inside memory owned by TEE {}",
                            view.sid,
                            fmt_region(start, end),
                            region.tee
                        ),
                    });
                }
            }

            // capability-divergence: every granted right in the reachable
            // map must be covered by a live capability of the device.
            let grants = owner.map(|g| g.grants.as_slice()).unwrap_or(&[]);
            push_divergence(
                &mut diagnostics,
                &view.intervals,
                grants,
                Some(view.sid),
                device,
                "hardware table",
            );
        }

        // Cold records awaiting a mount are table state too: a grant in a
        // record with no live capability becomes an isolation violation
        // the moment the device DMAs. The mounted device is already
        // checked through the live cold-SID view above.
        for (device, record) in unit.cold_devices() {
            if Some(device) == mounted {
                continue;
            }
            let record_view: Vec<(EntryIndex, IopmpEntry)> = record
                .entries
                .iter()
                .enumerate()
                .map(|(k, e)| (EntryIndex(k as u32), *e))
                .collect();
            let (map, _) = domain::reachable(&record_view);
            let grants = caps
                .grants_for(device)
                .map(|g| g.grants.as_slice())
                .unwrap_or(&[]);
            push_divergence(
                &mut diagnostics,
                &map,
                grants,
                None,
                device,
                "extended-table record",
            );
        }
    }

    diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(&b.code)));
    Report {
        diagnostics,
        views,
        hot,
        mounted,
        cold,
        cold_sid,
    }
}

/// Emits `capability-divergence` findings for every span of `map` that
/// grants a right no capability in `grants` justifies.
fn push_divergence(
    diagnostics: &mut Vec<Diagnostic>,
    map: &[Interval],
    grants: &[MemoryGrant],
    sid: Option<SourceId>,
    device: DeviceId,
    what: &str,
) {
    for (write, right) in [(false, "read"), (true, "write")] {
        let justified = domain::merge_spans(
            grants
                .iter()
                .filter(|g| if write { g.write } else { g.read })
                .map(|g| (g.base, g.end()))
                .collect(),
        );
        for span in domain::granted_spans(map, write) {
            for (start, end) in domain::subtract(span, &justified) {
                diagnostics.push(Diagnostic {
                    code: DiagnosticCode::CapabilityDivergence,
                    severity: Severity::Error,
                    sid,
                    device: Some(device),
                    entry: interval_at(map, start).map(|iv| iv.winner),
                    region: Some((start, end)),
                    message: format!(
                        "{what} grants {device} {right} access over {} with no backing live capability",
                        fmt_region(start, end)
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siopmp::entry::{AddressRange, Permissions};
    use siopmp::SiopmpConfig;

    fn entry(base: u64, len: u64, p: Permissions) -> IopmpEntry {
        IopmpEntry::new(AddressRange::new(base, len).unwrap(), p)
    }

    #[test]
    fn clean_unit_reports_nothing() {
        let mut unit = Siopmp::build(SiopmpConfig::small(), None);
        let sid = unit.map_hot_device(DeviceId(1)).unwrap();
        unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        unit.install_entry(MdIndex(0), entry(0x1000, 0x100, Permissions::rw()))
            .unwrap();
        let report = analyze(&unit, None);
        assert!(
            report.diagnostics().is_empty(),
            "{:?}",
            report.diagnostics()
        );
        assert!(!report.has_errors());
        let v = report.view(sid).unwrap();
        assert_eq!(v.intervals.len(), 1);
        assert_eq!(v.device, Some(DeviceId(1)));
    }

    #[test]
    fn severity_orders_and_labels() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
        assert_eq!(
            DiagnosticCode::CapabilityDivergence.to_string(),
            "capability-divergence"
        );
    }

    #[test]
    fn report_json_has_summary_and_diagnostics() {
        let unit = Siopmp::build(SiopmpConfig::small(), None);
        let report = analyze(&unit, None);
        let rendered = report.to_json().to_string();
        assert!(rendered.contains("\"summary\""));
        assert!(rendered.contains("\"errors\":0"));
        assert!(rendered.contains("\"diagnostics\":[]"));
    }

    #[test]
    fn predict_resolves_unknown_devices_to_deny() {
        let unit = Siopmp::build(SiopmpConfig::small(), None);
        let report = analyze(&unit, None);
        assert_eq!(
            report.predict(DeviceId(99), AccessKind::Read, 0x0, 8),
            Predicted::DeniedNoMatch
        );
    }

    #[test]
    fn predict_flags_cold_devices_as_sid_missing() {
        let mut unit = Siopmp::build(SiopmpConfig::small(), None);
        unit.register_cold_device(
            DeviceId(7),
            siopmp::mountable::MountableEntry {
                domains: vec![],
                entries: vec![entry(0x4000, 0x100, Permissions::rw())],
            },
        )
        .unwrap();
        let report = analyze(&unit, None);
        assert_eq!(
            report.predict(DeviceId(7), AccessKind::Read, 0x4000, 8),
            Predicted::SidMissing
        );
        // After mounting, the cold SID's view answers.
        unit.handle_sid_missing(DeviceId(7)).unwrap();
        let report = analyze(&unit, None);
        assert!(matches!(
            report.predict(DeviceId(7), AccessKind::Read, 0x4000, 8),
            Predicted::Allowed { .. }
        ));
    }
}
