//! The secure monitor: ownership-based interfaces over the sIOPMP hardware
//! (§5.4, Figure 9).
//!
//! Flow mirroring the paper's example:
//!
//! 1. at boot the monitor owns every capability ([`SecureMonitor::build`]
//!    mints roots and hands the boot system what it is given);
//! 2. `create_tee(caps)` transfers device and memory capabilities from the
//!    boot system into a fresh TEE;
//! 3. `device_map(tee, cap_dev, cap_mem, perms)` installs IOPMP entries for
//!    the device, after validating that the TEE really owns both
//!    capabilities and that the requested range/permissions are covered by
//!    the memory capability;
//! 4. `device_unmap` clears the entries under the per-SID blocking
//!    protocol (fast and deterministic — the property Figure 13/15 relies
//!    on);
//! 5. interrupts from the sIOPMP unit (SID-missing, violations) are routed
//!    through [`SecureMonitor::handle_interrupts`].

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::error::SiopmpError;
use siopmp::ids::{DeviceId, EntryIndex, MdIndex};
use siopmp::mountable::MountableEntry;
use siopmp::quiesce::{ColdSwitchDrain, DrainConfig, DrainPoll};
use siopmp::telemetry::{Counter, Telemetry};
use siopmp::{CheckOutcome, Siopmp, SiopmpConfig};

/// Pre-resolved handles for the `monitor.*` metrics.
#[derive(Debug, Clone)]
struct MonitorCounters {
    tees_created: Counter,
    tees_destroyed: Counter,
    device_maps: Counter,
    device_unmaps: Counter,
    dma_checks: Counter,
    interrupts_handled: Counter,
    cycles_spent: Counter,
    drains_committed: Counter,
    drains_refused: Counter,
    measured_switches: Counter,
}

impl MonitorCounters {
    fn attach(t: &Telemetry) -> Self {
        MonitorCounters {
            tees_created: t.counter("monitor.tees_created"),
            tees_destroyed: t.counter("monitor.tees_destroyed"),
            device_maps: t.counter("monitor.device_maps"),
            device_unmaps: t.counter("monitor.device_unmaps"),
            dma_checks: t.counter("monitor.dma_checks"),
            interrupts_handled: t.counter("monitor.interrupts_handled"),
            cycles_spent: t.counter("monitor.cycles_spent"),
            drains_committed: t.counter("monitor.drains_committed"),
            drains_refused: t.counter("monitor.drains_refused"),
            measured_switches: t.counter("monitor.measured_switches"),
        }
    }
}

/// One measured cold-switch record: the attestation evidence that a
/// particular policy state was in force after a particular mount. The
/// records form a hash chain (`chain` folds the previous record's chain
/// with this record's device and post-switch policy fingerprint), so a
/// remote auditor holding the latest `chain` value can detect any
/// dropped, reordered or rewritten switch in the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchMeasurement {
    /// Position in the chain (0-based).
    pub seq: u64,
    /// The device the switch mounted at the eSID.
    pub device: DeviceId,
    /// [`Siopmp::policy_fingerprint`] of the post-switch state.
    pub policy_hash: u64,
    /// Running FNV-1a chain over `(prev_chain, device, policy_hash)`.
    pub chain: u64,
    /// Modelled cycle cost of the switch.
    pub cycles: u64,
}

/// Measured switch records kept in memory; older history is only
/// reachable through the chain value each retained record carries.
const MEASUREMENT_CAPACITY: usize = 1024;

use crate::cap::{CapId, Capability, MemPerms};
use crate::controllers::{InterruptController, MonitorInterrupt, PmpController};
use crate::ownership::{CapError, CapTable, EntityId};
use crate::tee::{DeviceBinding, TeeId, TeeManager};
use siopmp_verify::{analyze, CapabilityMap, DeviceGrants, MemoryGrant, Report, TeeRegion};

/// Errors surfaced by monitor calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// Capability-layer refusal (wrong owner, revoked, bad derivation).
    Cap(CapError),
    /// sIOPMP hardware refusal.
    Hw(SiopmpError),
    /// The named TEE does not exist.
    NoSuchTee(TeeId),
    /// The capability is of the wrong kind for the call.
    WrongCapKind(CapId),
    /// The requested range/permissions exceed the memory capability.
    OutsideCapability(CapId),
    /// The device is not bound to the TEE (device_map before create_tee
    /// transferred it, or after unbind).
    DeviceNotBound(DeviceId),
    /// No free memory domain to give the device.
    NoFreeMd,
    /// The pre-switch verifier rejected the cold switch (the post-switch
    /// state carried Error-severity findings), so no drain was started.
    SwitchRejected(DeviceId),
}

impl core::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MonitorError::Cap(e) => write!(f, "capability error: {e}"),
            MonitorError::Hw(e) => write!(f, "hardware error: {e}"),
            MonitorError::NoSuchTee(t) => write!(f, "{t} does not exist"),
            MonitorError::WrongCapKind(c) => write!(f, "{c} has the wrong kind"),
            MonitorError::OutsideCapability(c) => {
                write!(f, "request exceeds the scope of {c}")
            }
            MonitorError::DeviceNotBound(d) => write!(f, "{d} is not bound to the TEE"),
            MonitorError::NoFreeMd => write!(f, "no free memory domain"),
            MonitorError::SwitchRejected(d) => {
                write!(f, "pre-switch verification rejected mounting {d}")
            }
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<CapError> for MonitorError {
    fn from(e: CapError) -> Self {
        MonitorError::Cap(e)
    }
}

impl From<SiopmpError> for MonitorError {
    fn from(e: SiopmpError) -> Self {
        MonitorError::Hw(e)
    }
}

/// The secure monitor.
///
/// # Examples
///
/// ```
/// use siopmp_monitor::{SecureMonitor, MemPerms};
/// use siopmp::ids::DeviceId;
///
/// # fn main() -> Result<(), siopmp_monitor::MonitorError> {
/// let mut monitor = SecureMonitor::build(siopmp::SiopmpConfig::small(), None);
/// let mem = monitor.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
/// let dev = monitor.mint_device(DeviceId(0x10));
/// let tee = monitor.create_tee(vec![mem, dev])?;
/// monitor.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SecureMonitor {
    caps: CapTable,
    tees: TeeManager,
    siopmp: Siopmp,
    pmp: PmpController,
    irqs: InterruptController,
    /// Next never-used hot memory domain to hand out.
    next_md: u16,
    /// Hot memory domains returned by destroyed TEEs, reused before
    /// `next_md` advances.
    free_mds: Vec<MdIndex>,
    /// When set, a cold switch is committed only after the static analyzer
    /// clears the post-switch state of Error-severity findings.
    preswitch_verify: bool,
    telemetry: Telemetry,
    counters: MonitorCounters,
    /// Measured cold-switch records, oldest first (bounded ring).
    measurements: Vec<SwitchMeasurement>,
    /// Chain head: [`siopmp::canonical::FNV_OFFSET`] before any switch.
    measurement_chain: u64,
    /// Total switches measured (also the next record's `seq`).
    measurement_seq: u64,
}

impl SecureMonitor {
    /// Boots the monitor over a fresh sIOPMP unit, registering both the
    /// monitor's `monitor.*` metrics and the unit's `siopmp.*` metrics in
    /// `telemetry` — pass `None` for a private registry. The PMP guard
    /// over the extended IOPMP table is installed here (slot 0, §4.2).
    pub fn build(config: SiopmpConfig, telemetry: impl Into<Option<Telemetry>>) -> Self {
        let telemetry = telemetry.into().unwrap_or_else(Telemetry::new);
        let mut pmp = PmpController::new();
        // Protect the (model's) extended-table region from S/U mode.
        pmp.protect(0, EXT_TABLE_BASE, EXT_TABLE_LEN);
        SecureMonitor {
            caps: CapTable::new(),
            tees: TeeManager::new(),
            siopmp: Siopmp::build(config, telemetry.clone()),
            pmp,
            irqs: InterruptController::new(),
            next_md: 0,
            free_mds: Vec::new(),
            preswitch_verify: false,
            counters: MonitorCounters::attach(&telemetry),
            telemetry,
            measurements: Vec::new(),
            measurement_chain: siopmp::canonical::FNV_OFFSET,
            measurement_seq: 0,
        }
    }

    /// The monitor's telemetry registry (shared with its sIOPMP unit).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mints a root memory capability (boot-time resource enumeration) and
    /// hands it to the boot system.
    pub fn mint_memory(&mut self, base: u64, len: u64, perms: MemPerms) -> CapId {
        let id = self.caps.mint(Capability::Memory { base, len, perms });
        self.caps
            .transfer(EntityId::Monitor, id, EntityId::BootSystem)
            .expect("freshly minted cap is monitor-owned");
        id
    }

    /// Mints a root device capability and hands it to the boot system.
    pub fn mint_device(&mut self, device: DeviceId) -> CapId {
        let id = self.caps.mint(Capability::Device { device });
        self.caps
            .transfer(EntityId::Monitor, id, EntityId::BootSystem)
            .expect("freshly minted cap is monitor-owned");
        id
    }

    /// Read access to the capability table (for audits and tests).
    pub fn caps(&self) -> &CapTable {
        &self.caps
    }

    /// Read access to the sIOPMP unit.
    pub fn siopmp(&self) -> &Siopmp {
        &self.siopmp
    }

    /// Mutable access to the sIOPMP unit — exposed so full-system
    /// simulations can route DMA checks through the same unit the monitor
    /// configures.
    pub fn siopmp_mut(&mut self) -> &mut Siopmp {
        &mut self.siopmp
    }

    /// A shared, thread-safe checker handle over the monitor's sIOPMP
    /// unit: bus shards (or any other thread) can check DMA wait-free
    /// against the configuration this monitor publishes, while the monitor
    /// itself remains the only writer — the paper's split between the
    /// multi-ported checker data path and the M-mode control path.
    pub fn shared_checker(&self) -> siopmp::SharedSiopmp {
        self.siopmp.share()
    }

    /// Read access to the PMP controller.
    pub fn pmp(&self) -> &PmpController {
        &self.pmp
    }

    /// Total cycles the monitor has spent in configuration operations
    /// (the `monitor.cycles_spent` telemetry counter).
    pub fn cycles_spent(&self) -> u64 {
        self.counters.cycles_spent.get()
    }

    /// `Create_TEE`: transfers `caps` from the boot system into a new TEE
    /// (Figure 9). Device capabilities get the device registered with the
    /// sIOPMP unit (hot if a SID is free, cold otherwise) and a memory
    /// domain allocated.
    ///
    /// # Errors
    ///
    /// Capability-ownership errors; hardware errors from device
    /// registration. On error, already-transferred capabilities stay with
    /// the TEE (the caller can destroy it).
    pub fn create_tee(&mut self, caps: Vec<CapId>) -> Result<TeeId, MonitorError> {
        let tee = self.tees.create(caps.clone());
        for cap in &caps {
            self.caps
                .transfer(EntityId::BootSystem, *cap, tee.entity())?;
        }
        // Bind device capabilities.
        for cap in &caps {
            if let Some(device) = self.caps.capability(*cap)?.as_device() {
                self.bind_device(tee, device)?;
            }
        }
        self.counters.tees_created.inc();
        Ok(tee)
    }

    fn alloc_md(&mut self) -> Result<MdIndex, MonitorError> {
        if let Some(md) = self.free_mds.pop() {
            return Ok(md);
        }
        let hot_mds = (self.siopmp.config().num_mds - 1) as u16;
        if self.next_md >= hot_mds {
            return Err(MonitorError::NoFreeMd);
        }
        let md = MdIndex(self.next_md);
        self.next_md += 1;
        Ok(md)
    }

    fn bind_device(&mut self, tee: TeeId, device: DeviceId) -> Result<(), MonitorError> {
        let md = self.alloc_md()?;
        let sid = match self.siopmp.map_hot_device(device) {
            Ok(sid) => {
                self.siopmp.associate_sid_with_md(sid, md)?;
                Some(sid)
            }
            Err(SiopmpError::HotSidsExhausted) => {
                let record = MountableEntry {
                    domains: vec![md],
                    entries: vec![],
                };
                if let Err(e) = self.siopmp.register_cold_device(device, record) {
                    self.free_mds.push(md);
                    return Err(e.into());
                }
                None
            }
            Err(e) => {
                self.free_mds.push(md);
                return Err(e.into());
            }
        };
        let t = self.tees.get_mut(tee).ok_or(MonitorError::NoSuchTee(tee))?;
        t.devices.insert(
            device,
            DeviceBinding {
                device,
                sid,
                md,
                mappings: std::collections::HashMap::new(),
            },
        );
        Ok(())
    }

    fn resolve_device_cap(&self, tee: TeeId, cap_dev: CapId) -> Result<DeviceId, MonitorError> {
        self.caps.check_owner(tee.entity(), cap_dev)?;
        self.caps
            .capability(cap_dev)?
            .as_device()
            .ok_or(MonitorError::WrongCapKind(cap_dev))
    }

    /// `Device_map`: installs an IOPMP entry letting `cap_dev`'s device
    /// access `[base, base+len)` with `perms`. The TEE must own both
    /// capabilities and the range/permissions must be covered by `cap_mem`.
    /// Returns the installed entry index.
    ///
    /// # Errors
    ///
    /// Ownership, coverage, and hardware errors.
    pub fn device_map(
        &mut self,
        tee: TeeId,
        cap_dev: CapId,
        cap_mem: CapId,
        base: u64,
        len: u64,
        perms: MemPerms,
    ) -> Result<EntryIndex, MonitorError> {
        let device = self.resolve_device_cap(tee, cap_dev)?;
        self.caps.check_owner(tee.entity(), cap_mem)?;
        if !self.caps.capability(cap_mem)?.covers(base, len, perms) {
            return Err(MonitorError::OutsideCapability(cap_mem));
        }
        let t = self.tees.get(tee).ok_or(MonitorError::NoSuchTee(tee))?;
        let binding = t
            .devices
            .get(&device)
            .ok_or(MonitorError::DeviceNotBound(device))?;
        let md = binding.md;
        let sid = binding.sid;
        let entry = IopmpEntry::new(
            AddressRange::new(base, len)?,
            Permissions::from_bits(perms.read, perms.write),
        );
        let idx = if sid.is_some() {
            self.siopmp.install_entry(md, entry)?
        } else {
            // Cold device: extend its mountable record instead.
            self.install_cold_entry(device, entry)?
        };
        self.counters
            .cycles_spent
            .add(siopmp::atomic::modification_cycles(1, true));
        self.counters.device_maps.inc();
        let t = self.tees.get_mut(tee).expect("checked above");
        t.devices
            .get_mut(&device)
            .expect("checked above")
            .mappings
            .entry(cap_mem)
            .or_default()
            .push(idx);
        Ok(idx)
    }

    fn install_cold_entry(
        &mut self,
        device: DeviceId,
        entry: IopmpEntry,
    ) -> Result<EntryIndex, MonitorError> {
        // Rewrite the extended-table record with the new entry appended.
        // The entry index returned is the position within the record; it
        // becomes a hardware index only while mounted.
        let unit = &mut self.siopmp;
        let was_mounted = unit.mounted_cold_device() == Some(device);
        // Take, extend, re-register.
        if !unit.is_cold(device) {
            return Err(MonitorError::DeviceNotBound(device));
        }
        let mut record = unit_extended_get(unit, device)?;
        let idx = EntryIndex(record.entries.len() as u32);
        record.entries.push(entry);
        unit_extended_put(unit, device, record);
        if was_mounted {
            // Force a reload so the hardware window reflects the new entry
            // set (`handle_sid_missing` would treat the already-mounted
            // device as a free no-op and skip the reload).
            if let Err(e) = unit.remount_cold_device(device) {
                // The window did not change (it is full): drop the entry
                // again, or the record would keep a grant no mapping owns.
                let mut record = unit_extended_get(unit, device)?;
                record.entries.pop();
                unit_extended_put(unit, device, record);
                return Err(e.into());
            }
        }
        Ok(idx)
    }

    /// `Device_unmap`: removes the entries installed for `(cap_dev,
    /// cap_mem)` under the per-SID blocking protocol. Returns the modelled
    /// cycle cost (block + per-entry writes, Figure 13).
    ///
    /// # Errors
    ///
    /// Ownership and hardware errors; unknown mappings are a no-op cost.
    pub fn device_unmap(
        &mut self,
        tee: TeeId,
        cap_dev: CapId,
        cap_mem: CapId,
    ) -> Result<u64, MonitorError> {
        let device = self.resolve_device_cap(tee, cap_dev)?;
        let t = self.tees.get_mut(tee).ok_or(MonitorError::NoSuchTee(tee))?;
        let binding = t
            .devices
            .get_mut(&device)
            .ok_or(MonitorError::DeviceNotBound(device))?;
        let Some(indices) = binding.mappings.remove(&cap_mem) else {
            return Ok(0);
        };
        let cycles = match binding.sid {
            Some(sid) => {
                let updates: Vec<(EntryIndex, Option<IopmpEntry>)> =
                    indices.into_iter().map(|i| (i, None)).collect();
                self.siopmp.modify_entries_atomically(sid, &updates)?
            }
            None => {
                // Cold device: rewrite the extended record without the
                // unmapped entries.
                let mut record = unit_extended_get(&mut self.siopmp, device)?;
                let drop: std::collections::HashSet<u32> = indices.iter().map(|i| i.0).collect();
                record.entries = record
                    .entries
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !drop.contains(&(*i as u32)))
                    .map(|(_, e)| e)
                    .collect();
                // The surviving mappings' positions close up over the gaps.
                for idx in binding.mappings.values_mut().flatten() {
                    idx.0 -= drop.iter().filter(|&&d| d < idx.0).count() as u32;
                }
                let n = drop.len();
                let was_mounted = self.siopmp.mounted_cold_device() == Some(device);
                unit_extended_put(&mut self.siopmp, device, record);
                if was_mounted {
                    // Forced reload: the no-op fast path of
                    // `handle_sid_missing` must not skip this rewrite.
                    self.siopmp.remount_cold_device(device)?;
                }
                siopmp::atomic::modification_cycles(n, true)
            }
        };
        self.counters.cycles_spent.add(cycles);
        self.counters.device_unmaps.inc();
        Ok(cycles)
    }

    /// Destroys a TEE: revokes its capabilities, clears every entry it
    /// installed, releases its devices from the unit (hot devices give up
    /// their SID, cold devices their extended-table record and any mount)
    /// and returns their memory domains for reuse.
    ///
    /// # Errors
    ///
    /// [`MonitorError::NoSuchTee`]; hardware errors from clearing entries
    /// or releasing a device.
    pub fn destroy_tee(&mut self, tee: TeeId) -> Result<(), MonitorError> {
        let state = self.tees.destroy(tee).ok_or(MonitorError::NoSuchTee(tee))?;
        for (device, binding) in state.devices {
            let indices: Vec<EntryIndex> = binding.mappings.into_values().flatten().collect();
            if let Some(sid) = binding.sid {
                let updates: Vec<(EntryIndex, Option<IopmpEntry>)> =
                    indices.into_iter().map(|i| (i, None)).collect();
                let cycles = self.siopmp.modify_entries_atomically(sid, &updates)?;
                self.counters.cycles_spent.add(cycles);
            }
            match self.siopmp.release_device(device) {
                // Already gone from the unit: nothing left to release.
                Ok(()) | Err(SiopmpError::UnknownDevice(_)) => {}
                Err(e) => return Err(e.into()),
            }
            self.free_mds.push(binding.md);
        }
        for cap in state.caps {
            self.caps.revoke(EntityId::Monitor, cap)?;
        }
        self.counters.tees_destroyed.inc();
        Ok(())
    }

    /// Presents one DMA request to the sIOPMP unit and services any
    /// resulting interrupt inline (the full-system check path). Returns
    /// the final outcome after at most one cold-device switch.
    pub fn check_dma(&mut self, req: &siopmp::request::DmaRequest) -> CheckOutcome {
        self.counters.dma_checks.inc();
        match self.siopmp.check(req) {
            CheckOutcome::SidMissing { device } => {
                self.irqs.raise(MonitorInterrupt::SidMissing { device });
                self.handle_interrupts();
                self.siopmp.check(req)
            }
            CheckOutcome::Denied(record) => {
                self.irqs.raise(MonitorInterrupt::Violation(record));
                self.handle_interrupts();
                CheckOutcome::Denied(record)
            }
            other => other,
        }
    }

    /// Drains and services pending interrupts. Returns how many were
    /// handled.
    pub fn handle_interrupts(&mut self) -> usize {
        let mut handled = 0;
        while let Some(irq) = self.irqs.take_next() {
            match irq {
                MonitorInterrupt::SidMissing { device } => {
                    if self.preswitch_verify && !self.preswitch_allows(device) {
                        // The analyzer found an isolation violation in the
                        // post-switch state: leave the device unmounted.
                        // Its next access raises SID-missing again, so a
                        // repaired capability map unblocks it naturally.
                    } else if let Ok(report) = self.siopmp.handle_sid_missing(device) {
                        self.counters.cycles_spent.add(report.cycles);
                        self.record_switch_measurement(report.mounted, report.cycles);
                    }
                }
                MonitorInterrupt::Violation(_record) => {
                    // Recorded in the unit's violation log; a real monitor
                    // would notify the owning TEE here.
                }
            }
            handled += 1;
        }
        self.counters.interrupts_handled.add(handled as u64);
        handled
    }

    /// Violations the hardware has recorded (drains the unit's log).
    pub fn take_violations(&mut self) -> Vec<siopmp::violation::ViolationRecord> {
        self.siopmp.take_violations()
    }

    // ------------------------------------------------------------------
    // Static verification (siopmp-verify integration)
    // ------------------------------------------------------------------

    /// Enables or disables pre-switch verification: when on,
    /// [`SecureMonitor::handle_interrupts`] refuses to commit a cold
    /// switch whose post-switch table state the analyzer flags with an
    /// Error-severity finding (capability divergence or cross-SID
    /// overlap). Off by default — switches stay on the paper's fast path.
    pub fn set_preswitch_verify(&mut self, on: bool) {
        self.preswitch_verify = on;
    }

    /// Whether pre-switch verification is enabled.
    pub fn preswitch_verify(&self) -> bool {
        self.preswitch_verify
    }

    /// Exports the monitor's capability/ownership state as the plain-data
    /// map the analyzer consumes: per-device grants (the live memory
    /// capabilities referenced by each device's mappings — revoked ones
    /// drop out) and per-TEE owned memory regions. Deterministically
    /// ordered.
    pub fn capability_map(&self) -> CapabilityMap {
        let mut devices = Vec::new();
        let mut regions = Vec::new();
        for tee in self.tees.iter() {
            for cap in self.caps.owned_by(tee.id.entity()) {
                if let Ok(Capability::Memory { base, len, .. }) = self.caps.capability(cap) {
                    regions.push(TeeRegion {
                        tee: tee.id.0,
                        base,
                        len,
                    });
                }
            }
            for (device, binding) in &tee.devices {
                let mut grants = Vec::new();
                for cap_mem in binding.mappings.keys() {
                    // A revoked capability fails the lookup and drops out,
                    // which is exactly what turns a stale table grant into
                    // a divergence finding.
                    if let Ok(Capability::Memory { base, len, perms }) =
                        self.caps.capability(*cap_mem)
                    {
                        grants.push(MemoryGrant {
                            base,
                            len,
                            read: perms.read,
                            write: perms.write,
                        });
                    }
                }
                grants.sort_unstable_by_key(|g| (g.base, g.len));
                devices.push(DeviceGrants {
                    device: *device,
                    tee: tee.id.0,
                    grants,
                });
            }
        }
        devices.sort_unstable_by_key(|g| g.device);
        regions.sort_unstable_by_key(|r| (r.tee, r.base));
        CapabilityMap { devices, regions }
    }

    /// Runs the static analyzer over the live hardware state and the
    /// current capability map.
    pub fn verify_now(&self) -> Report {
        analyze(&self.siopmp, Some(&self.capability_map()))
    }

    /// Dry-runs the cold switch for `device` on a cloned unit and reports
    /// whether the post-switch state is free of Error-severity findings.
    /// A clone whose switch itself fails is approved — the real call will
    /// surface the hardware error through its own path.
    fn preswitch_allows(&self, device: DeviceId) -> bool {
        let mut shadow = self.siopmp.clone();
        if shadow.remount_cold_device(device).is_err() {
            return true;
        }
        !analyze(&shadow, Some(&self.capability_map())).has_errors()
    }

    // ------------------------------------------------------------------
    // Quiesced cold switching (drain protocol)
    // ------------------------------------------------------------------

    /// Starts a *quiesced* cold switch towards `device`: runs the
    /// pre-switch verifier (when enabled), prechecks the switch, and blocks
    /// the cold SID so no new access can be authorized through the cold
    /// window while the bus drains. Drive the returned machine with
    /// [`SecureMonitor::poll_cold_switch`] once per cycle.
    ///
    /// # Errors
    ///
    /// [`MonitorError::SwitchRejected`] when the verifier flags the
    /// post-switch state; hardware errors from the precheck (unknown
    /// device, record too large for the cold window). In every error case
    /// nothing is blocked and nothing is mounted.
    pub fn begin_cold_switch(
        &mut self,
        device: DeviceId,
        now: u64,
        config: DrainConfig,
    ) -> Result<ColdSwitchDrain, MonitorError> {
        if self.preswitch_verify && !self.preswitch_allows(device) {
            self.counters.drains_refused.inc();
            return Err(MonitorError::SwitchRejected(device));
        }
        Ok(ColdSwitchDrain::begin(
            &mut self.siopmp,
            device,
            now,
            config,
        )?)
    }

    /// Advances a drain started by [`SecureMonitor::begin_cold_switch`]
    /// with the caller's current in-flight count. Commits only at zero in
    /// flight; refuses when the abort grace runs out. Cycle costs of a
    /// committed switch land in `monitor.cycles_spent`, and terminal
    /// outcomes are counted in `monitor.drains_committed` /
    /// `monitor.drains_refused`.
    pub fn poll_cold_switch(
        &mut self,
        drain: &mut ColdSwitchDrain,
        in_flight: usize,
        now: u64,
    ) -> DrainPoll {
        let was_terminal = drain.is_terminal();
        let poll = drain.poll(&mut self.siopmp, in_flight, now);
        if !was_terminal {
            match poll {
                DrainPoll::Committed(report) => {
                    self.counters.cycles_spent.add(report.cycles);
                    self.counters.drains_committed.inc();
                    self.record_switch_measurement(report.mounted, report.cycles);
                }
                DrainPoll::Refused => self.counters.drains_refused.inc(),
                _ => {}
            }
        }
        poll
    }

    /// Appends a measured record for a just-committed cold switch: the
    /// post-switch [`Siopmp::policy_fingerprint`] folded into the running
    /// hash chain. Every commit path (interrupt-driven mounts and
    /// quiesced drains) lands here.
    fn record_switch_measurement(&mut self, device: DeviceId, cycles: u64) {
        use siopmp::canonical::fnv1a_extend;
        let policy_hash = self.siopmp.policy_fingerprint();
        let mut chain = fnv1a_extend(
            self.measurement_chain,
            &self.measurement_chain.to_le_bytes(),
        );
        chain = fnv1a_extend(chain, &device.0.to_le_bytes());
        chain = fnv1a_extend(chain, &policy_hash.to_le_bytes());
        let record = SwitchMeasurement {
            seq: self.measurement_seq,
            device,
            policy_hash,
            chain,
            cycles,
        };
        self.measurement_chain = chain;
        self.measurement_seq += 1;
        if self.measurements.len() == MEASUREMENT_CAPACITY {
            self.measurements.remove(0);
        }
        self.measurements.push(record);
        self.counters.measured_switches.inc();
    }

    /// The retained measured cold-switch records, oldest first.
    pub fn switch_measurements(&self) -> &[SwitchMeasurement] {
        &self.measurements
    }

    /// The most recent measured cold-switch record, if any switch has
    /// committed since boot.
    pub fn last_switch_measurement(&self) -> Option<&SwitchMeasurement> {
        self.measurements.last()
    }

    /// The current head of the measurement hash chain
    /// ([`siopmp::canonical::FNV_OFFSET`] before the first switch). This
    /// is the single value a remote auditor tracks to verify the full
    /// switch history.
    pub fn measurement_chain(&self) -> u64 {
        self.measurement_chain
    }

    /// Abandons a drain without mounting, releasing the quiesce block.
    pub fn cancel_cold_switch(&mut self, drain: ColdSwitchDrain) {
        let was_terminal = drain.is_terminal();
        drain.cancel(&mut self.siopmp);
        if !was_terminal {
            self.counters.drains_refused.inc();
        }
    }
}

/// Model address of the extended IOPMP table in protected memory.
pub const EXT_TABLE_BASE: u64 = 0xFF00_0000;
/// Model size of the extended IOPMP table region.
pub const EXT_TABLE_LEN: u64 = 0x10_0000;

// Small helpers: the core crate exposes the extended table only through
// register/remove; the monitor needs read-modify-write.
fn unit_extended_get(unit: &mut Siopmp, device: DeviceId) -> Result<MountableEntry, MonitorError> {
    // Remove and return; caller must put it back.
    unit.take_cold_record(device).map_err(MonitorError::Hw)
}

fn unit_extended_put(unit: &mut Siopmp, device: DeviceId, record: MountableEntry) {
    unit.put_cold_record(device, record);
}

#[cfg(test)]
mod tests {
    use super::*;
    use siopmp::request::{AccessKind, DmaRequest};

    fn booted() -> SecureMonitor {
        SecureMonitor::build(SiopmpConfig::small(), None)
    }

    #[test]
    fn boot_protects_extended_table() {
        let m = booted();
        assert!(!m.pmp().cpu_access_allowed(EXT_TABLE_BASE + 0x100, 8, true));
    }

    #[test]
    fn create_tee_transfers_ownership() {
        let mut m = booted();
        let mem = m.mint_memory(0x1000, 0x1000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        assert_eq!(m.caps().owner(mem).unwrap(), tee.entity());
        assert_eq!(m.caps().owner(dev).unwrap(), tee.entity());
        // Ownership chain: monitor -> boot system -> tee.
        assert_eq!(m.caps().chain(mem).unwrap().len(), 3);
    }

    #[test]
    fn device_map_installs_working_entry() {
        let mut m = booted();
        let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
            .unwrap();
        let out = m.check_dma(&DmaRequest::new(
            DeviceId(1),
            AccessKind::Write,
            0x8000_0100,
            64,
        ));
        assert!(out.is_allowed());
        let out = m.check_dma(&DmaRequest::new(
            DeviceId(1),
            AccessKind::Write,
            0x9000_0000,
            64,
        ));
        assert!(out.is_denied());
    }

    #[test]
    fn device_map_requires_capability_coverage() {
        let mut m = booted();
        let mem = m.mint_memory(0x8000_0000, 0x1000, MemPerms::ro());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        // Range escape.
        assert!(matches!(
            m.device_map(tee, dev, mem, 0x8000_0000, 0x2000, MemPerms::ro()),
            Err(MonitorError::OutsideCapability(_))
        ));
        // Permission escalation.
        assert!(matches!(
            m.device_map(tee, dev, mem, 0x8000_0000, 0x100, MemPerms::rw()),
            Err(MonitorError::OutsideCapability(_))
        ));
    }

    #[test]
    fn device_map_requires_ownership() {
        let mut m = booted();
        let mem = m.mint_memory(0x8000_0000, 0x1000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee_a = m.create_tee(vec![dev]).unwrap();
        let _tee_b = m.create_tee(vec![mem]).unwrap();
        // tee_a does not own the memory capability.
        assert!(matches!(
            m.device_map(tee_a, dev, mem, 0x8000_0000, 0x100, MemPerms::rw()),
            Err(MonitorError::Cap(CapError::NotOwner { .. }))
        ));
    }

    #[test]
    fn unmap_closes_access_quickly() {
        let mut m = booted();
        let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
            .unwrap();
        let cycles = m.device_unmap(tee, dev, mem).unwrap();
        // One entry cleared under blocking: 35 + 14 cycles.
        assert_eq!(cycles, 49);
        let out = m.check_dma(&DmaRequest::new(
            DeviceId(1),
            AccessKind::Read,
            0x8000_0100,
            64,
        ));
        assert!(out.is_denied());
    }

    #[test]
    fn destroy_tee_revokes_and_clears() {
        let mut m = booted();
        let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
            .unwrap();
        m.destroy_tee(tee).unwrap();
        // Capability gone, hardware entry gone.
        assert!(m.caps().owner(mem).is_err());
        let out = m.check_dma(&DmaRequest::new(
            DeviceId(1),
            AccessKind::Read,
            0x8000_0100,
            64,
        ));
        assert!(!out.is_allowed());
    }

    /// Two hot SIDs: devices 0 and 1 bind hot, device 2 binds cold and is
    /// mapped over `[0x8000_2000, +0x100)`. Returns the TEE, its memory
    /// capability and device 2's capability.
    fn tee_with_cold_device(m: &mut SecureMonitor) -> (TeeId, CapId, CapId) {
        let mem = m.mint_memory(0x8000_0000, 0x100_0000, MemPerms::rw());
        let devs: Vec<CapId> = (0..3).map(|d| m.mint_device(DeviceId(d))).collect();
        let tee = m.create_tee([vec![mem], devs.clone()].concat()).unwrap();
        assert!(m.siopmp().is_cold(DeviceId(2)));
        m.device_map(tee, devs[2], mem, 0x8000_2000, 0x100, MemPerms::rw())
            .unwrap();
        (tee, mem, devs[2])
    }

    fn two_hot_sids() -> SecureMonitor {
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 3;
        SecureMonitor::build(cfg, None)
    }

    #[test]
    fn destroy_tee_revokes_and_clears_cold_devices() {
        for mounted in [false, true] {
            let mut m = two_hot_sids();
            let (tee, mem, _) = tee_with_cold_device(&mut m);
            let probe = DmaRequest::new(DeviceId(2), AccessKind::Read, 0x8000_2000, 64);
            if mounted {
                assert!(m.check_dma(&probe).is_allowed());
                assert_eq!(m.siopmp().mounted_cold_device(), Some(DeviceId(2)));
            }
            m.destroy_tee(tee).unwrap();
            assert!(m.caps().owner(mem).is_err());
            assert!(!m.check_dma(&probe).is_allowed(), "mounted={mounted}");
            assert!(!m.siopmp().is_cold(DeviceId(2)));
            assert!(!m.siopmp().is_hot(DeviceId(0)));
            assert_eq!(m.siopmp().mounted_cold_device(), None);
            let report = m.verify_now();
            assert!(!report.has_errors(), "{:?}", report.diagnostics());
        }
    }

    #[test]
    fn destroyed_devices_can_be_bound_again() {
        let mut m = two_hot_sids();
        let (tee, ..) = tee_with_cold_device(&mut m);
        m.destroy_tee(tee).unwrap();
        let (tee, ..) = tee_with_cold_device(&mut m);
        assert!(m.siopmp().is_hot(DeviceId(0)) && m.siopmp().is_hot(DeviceId(1)));
        let probe = DmaRequest::new(DeviceId(2), AccessKind::Write, 0x8000_2000, 64);
        assert!(m.check_dma(&probe).is_allowed());
        m.destroy_tee(tee).unwrap();
        assert!(!m.check_dma(&probe).is_allowed());
    }

    #[test]
    fn a_device_bound_to_a_live_tee_cannot_be_bound_again() {
        let mut m = two_hot_sids();
        let mem_a = m.mint_memory(0x8000_0000, 0x1000, MemPerms::rw());
        let hot: Vec<CapId> = (0..2).map(|d| m.mint_device(DeviceId(d))).collect();
        let a = m.create_tee([vec![mem_a], hot].concat()).unwrap();
        let mem_b = m.mint_memory(0x8010_0000, 0x1000, MemPerms::rw());
        let cold = m.mint_device(DeviceId(2));
        let b = m.create_tee(vec![mem_b, cold]).unwrap();
        assert!(m.siopmp().is_cold(DeviceId(2)));
        m.device_map(b, cold, mem_b, 0x8010_0000, 0x100, MemPerms::rw())
            .unwrap();
        let bind_again = |m: &mut SecureMonitor, device: DeviceId| {
            let mem = m.mint_memory(0x8020_0000 + device.0 * 0x1000, 0x1000, MemPerms::rw());
            let again = m.mint_device(device);
            m.create_tee(vec![mem, again])
        };
        assert!(matches!(
            bind_again(&mut m, DeviceId(0)),
            Err(MonitorError::Hw(SiopmpError::DeviceAlreadyMapped(
                DeviceId(0)
            )))
        ));
        // Both hot SIDs come free, yet device 2 stays B's.
        m.destroy_tee(a).unwrap();
        assert!(matches!(
            bind_again(&mut m, DeviceId(2)),
            Err(MonitorError::Hw(SiopmpError::DeviceAlreadyMapped(
                DeviceId(2)
            )))
        ));
        assert!(!m.siopmp().is_hot(DeviceId(2)));
        let probe = DmaRequest::new(DeviceId(2), AccessKind::Read, 0x8010_0000, 64);
        assert!(m.check_dma(&probe).is_allowed(), "B's mapping survives");
        let report = m.verify_now();
        assert!(!report.has_errors(), "{:?}", report.diagnostics());
        // Once B is gone the device binds again, hot this time.
        m.destroy_tee(b).unwrap();
        assert!(!m.check_dma(&probe).is_allowed());
        let mem = m.mint_memory(0x8030_0000, 0x1000, MemPerms::rw());
        let again = m.mint_device(DeviceId(2));
        m.create_tee(vec![mem, again]).unwrap();
        assert!(m.siopmp().is_hot(DeviceId(2)) && !m.siopmp().is_cold(DeviceId(2)));
        assert!(!m.verify_now().has_errors());
    }

    #[test]
    fn create_destroy_cycles_recycle_memory_domains() {
        let mut m = booted();
        let hot_mds = m.siopmp().config().num_mds - 1;
        for cycle in 0..3 * hot_mds as u64 {
            let mem = m.mint_memory(0x8000_0000, 0x1000, MemPerms::rw());
            let dev = m.mint_device(DeviceId(100 + cycle));
            let tee = m.create_tee(vec![mem, dev]).unwrap();
            m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
                .unwrap();
            m.destroy_tee(tee).unwrap();
        }
        assert!(m.siopmp().hot_devices().is_empty());
        assert!(!m.verify_now().has_errors());
    }

    #[test]
    fn cold_unmap_keeps_other_mappings_in_step() {
        let mut m = two_hot_sids();
        let a = m.mint_memory(0x8000_0000, 0x1000, MemPerms::rw());
        let b = m.mint_memory(0x8000_1000, 0x1000, MemPerms::rw());
        let devs: Vec<CapId> = (0..3).map(|d| m.mint_device(DeviceId(d))).collect();
        let tee = m.create_tee([vec![a, b], devs.clone()].concat()).unwrap();
        m.device_map(tee, devs[2], a, 0x8000_0000, 0x100, MemPerms::rw())
            .unwrap();
        m.device_map(tee, devs[2], b, 0x8000_1000, 0x100, MemPerms::rw())
            .unwrap();
        // Unmapping `a` shifts `b`'s entry to the front of the record;
        // unmapping `b` must still find and remove it.
        m.device_unmap(tee, devs[2], a).unwrap();
        m.device_unmap(tee, devs[2], b).unwrap();
        let probe = DmaRequest::new(DeviceId(2), AccessKind::Read, 0x8000_1000, 64);
        assert!(!m.check_dma(&probe).is_allowed());
        assert!(m
            .siopmp()
            .cold_record(DeviceId(2))
            .unwrap()
            .entries
            .is_empty());
        assert!(!m.verify_now().has_errors());
    }

    #[test]
    fn refused_cold_map_leaves_the_record_unchanged() {
        let mut m = two_hot_sids();
        let (tee, mem, dev_cap) = tee_with_cold_device(&mut m);
        let dev = DeviceId(2);
        let probe = DmaRequest::new(dev, AccessKind::Read, 0x8000_2000, 64);
        assert!(m.check_dma(&probe).is_allowed(), "mounts device 2");
        let window = m.siopmp().config().cold_md_entries as u64;
        for k in 1..window {
            m.device_map(
                tee,
                dev_cap,
                mem,
                0x8000_2000 + k * 0x100,
                0x100,
                MemPerms::rw(),
            )
            .unwrap();
        }
        let full = m.siopmp().cold_record(dev).unwrap().clone();
        assert!(matches!(
            m.device_map(tee, dev_cap, mem, 0x8000_3000, 0x100, MemPerms::rw()),
            Err(MonitorError::Hw(SiopmpError::MdFull(_)))
        ));
        assert_eq!(m.siopmp().cold_record(dev).unwrap(), &full);
        m.device_unmap(tee, dev_cap, mem).unwrap();
        assert!(m.siopmp().cold_record(dev).unwrap().entries.is_empty());
        assert!(!m.verify_now().has_errors());
    }

    #[test]
    fn cold_devices_bind_when_sids_exhausted() {
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 3; // 2 hot SIDs only
        let mut m = SecureMonitor::build(cfg, None);
        let mem = m.mint_memory(0x8000_0000, 0x100_0000, MemPerms::rw());
        let mut devs = Vec::new();
        for d in 0..4u64 {
            devs.push(m.mint_device(DeviceId(d)));
        }
        let mut caps = vec![mem];
        caps.extend(devs.clone());
        let tee = m.create_tee(caps).unwrap();
        // Two devices got hot SIDs, two went cold.
        assert!(m.siopmp().is_hot(DeviceId(0)));
        assert!(m.siopmp().is_hot(DeviceId(1)));
        assert!(m.siopmp().is_cold(DeviceId(2)));
        assert!(m.siopmp().is_cold(DeviceId(3)));
        // Mapping through a cold device works via the extended table +
        // automatic mounting in check_dma.
        m.device_map(tee, devs[2], mem, 0x8000_2000, 0x100, MemPerms::rw())
            .unwrap();
        let out = m.check_dma(&DmaRequest::new(
            DeviceId(2),
            AccessKind::Read,
            0x8000_2000,
            64,
        ));
        assert!(out.is_allowed(), "{out:?}");
    }

    #[test]
    fn telemetry_spans_monitor_and_unit() {
        let t = Telemetry::new();
        let mut m = SecureMonitor::build(SiopmpConfig::small(), t.clone());
        let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
            .unwrap();
        m.check_dma(&DmaRequest::new(
            DeviceId(1),
            AccessKind::Read,
            0x8000_0100,
            64,
        ));
        let snap = t.snapshot();
        assert_eq!(snap.counters["monitor.tees_created"], 1);
        assert_eq!(snap.counters["monitor.device_maps"], 1);
        assert_eq!(snap.counters["monitor.dma_checks"], 1);
        // The unit's own counters live in the same registry.
        assert_eq!(snap.counters["siopmp.checks"], 1);
        assert_eq!(snap.counters["siopmp.allowed"], 1);
        assert_eq!(snap.counters["monitor.cycles_spent"], m.cycles_spent());
    }

    #[test]
    fn capability_map_tracks_grants_and_regions() {
        let mut m = booted();
        let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
            .unwrap();
        let map = m.capability_map();
        assert_eq!(map.regions.len(), 1);
        assert_eq!(map.regions[0].base, 0x8000_0000);
        let grants = &map.grants_for(DeviceId(1)).unwrap().grants;
        assert_eq!(grants.len(), 1);
        assert!(grants[0].read && grants[0].write);
        // Everything the table grants is capability-backed.
        assert!(!m.verify_now().has_errors());
    }

    #[test]
    fn verify_now_flags_out_of_band_table_edits() {
        let mut m = booted();
        let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
            .unwrap();
        // Smuggle an entry past the capability layer, straight into the
        // device's memory domain.
        let md = m.tees.get(tee).unwrap().devices[&DeviceId(1)].md;
        m.siopmp_mut()
            .install_entry(
                md,
                IopmpEntry::new(
                    AddressRange::new(0xDEAD_0000, 0x1000).unwrap(),
                    Permissions::rw(),
                ),
            )
            .unwrap();
        let report = m.verify_now();
        assert!(report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == siopmp_verify::DiagnosticCode::CapabilityDivergence));
    }

    #[test]
    fn preswitch_verify_rejects_divergent_cold_switch() {
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 2; // 1 hot SID: the second device goes cold
        let mut m = SecureMonitor::build(cfg, None);
        let mem = m.mint_memory(0x8000_0000, 0x100_0000, MemPerms::rw());
        let d0 = m.mint_device(DeviceId(0));
        let d1 = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, d0, d1]).unwrap();
        assert!(m.siopmp().is_cold(DeviceId(1)));
        m.device_map(tee, d1, mem, 0x8000_2000, 0x100, MemPerms::rw())
            .unwrap();

        // Poison the cold record behind the capability layer's back: an
        // entry granting rw over memory no capability covers.
        let mut record = m.siopmp_mut().take_cold_record(DeviceId(1)).unwrap();
        record.entries.push(IopmpEntry::new(
            AddressRange::new(0xDEAD_0000, 0x1000).unwrap(),
            Permissions::rw(),
        ));
        m.siopmp_mut().put_cold_record(DeviceId(1), record);

        // With verification on, the switch is refused: the DMA keeps
        // reporting SID-missing instead of being served.
        m.set_preswitch_verify(true);
        let probe = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x8000_2000, 64);
        let out = m.check_dma(&probe);
        assert!(
            matches!(out, CheckOutcome::SidMissing { .. }),
            "switch must be rejected, got {out:?}"
        );
        assert_eq!(m.siopmp().mounted_cold_device(), None);

        // With verification off, the (divergent) switch goes through —
        // the paper's unchecked fast path.
        m.set_preswitch_verify(false);
        assert!(m.check_dma(&probe).is_allowed());
        assert_eq!(m.siopmp().mounted_cold_device(), Some(DeviceId(1)));
    }

    #[test]
    fn preswitch_verify_passes_clean_cold_switch() {
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 2;
        let mut m = SecureMonitor::build(cfg, None);
        let mem = m.mint_memory(0x8000_0000, 0x100_0000, MemPerms::rw());
        let d0 = m.mint_device(DeviceId(0));
        let d1 = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, d0, d1]).unwrap();
        m.device_map(tee, d1, mem, 0x8000_2000, 0x100, MemPerms::rw())
            .unwrap();
        m.set_preswitch_verify(true);
        let out = m.check_dma(&DmaRequest::new(
            DeviceId(1),
            AccessKind::Read,
            0x8000_2000,
            64,
        ));
        assert!(out.is_allowed(), "{out:?}");
        assert_eq!(m.siopmp().mounted_cold_device(), Some(DeviceId(1)));
    }

    /// Monitor with one hot device (0) and one cold device (1) mapped over
    /// `[0x8000_2000, +0x100)`.
    fn with_cold_device() -> SecureMonitor {
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 2; // 1 hot SID: the second device goes cold
        let mut m = SecureMonitor::build(cfg, None);
        let mem = m.mint_memory(0x8000_0000, 0x100_0000, MemPerms::rw());
        let d0 = m.mint_device(DeviceId(0));
        let d1 = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, d0, d1]).unwrap();
        m.device_map(tee, d1, mem, 0x8000_2000, 0x100, MemPerms::rw())
            .unwrap();
        m
    }

    #[test]
    fn quiesced_switch_commits_only_after_drain() {
        let t = Telemetry::new();
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 2;
        let mut m = SecureMonitor::build(cfg, t.clone());
        let mem = m.mint_memory(0x8000_0000, 0x100_0000, MemPerms::rw());
        let d0 = m.mint_device(DeviceId(0));
        let d1 = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, d0, d1]).unwrap();
        m.device_map(tee, d1, mem, 0x8000_2000, 0x100, MemPerms::rw())
            .unwrap();

        let mut drain = m
            .begin_cold_switch(DeviceId(1), 0, siopmp::quiesce::DrainConfig::default())
            .unwrap();
        // Two bursts still in flight: nothing mounts.
        for now in 1..4 {
            assert!(matches!(
                m.poll_cold_switch(&mut drain, 2, now),
                DrainPoll::Draining { in_flight: 2 }
            ));
            assert_eq!(m.siopmp().mounted_cold_device(), None);
        }
        // Drained: commit, and the switch cycles are accounted.
        let before = m.cycles_spent();
        assert!(matches!(
            m.poll_cold_switch(&mut drain, 0, 4),
            DrainPoll::Committed(_)
        ));
        assert_eq!(m.siopmp().mounted_cold_device(), Some(DeviceId(1)));
        assert!(m.cycles_spent() > before);
        assert_eq!(t.snapshot().counters["monitor.drains_committed"], 1);
    }

    #[test]
    fn committed_switches_append_measured_records_to_the_chain() {
        let t = Telemetry::new();
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 2;
        let mut m = SecureMonitor::build(cfg, t.clone());
        let mem = m.mint_memory(0x8000_0000, 0x100_0000, MemPerms::rw());
        let d0 = m.mint_device(DeviceId(0));
        let d1 = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, d0, d1]).unwrap();
        m.device_map(tee, d1, mem, 0x8000_2000, 0x100, MemPerms::rw())
            .unwrap();
        assert_eq!(m.switch_measurements(), &[]);
        assert_eq!(m.measurement_chain(), siopmp::canonical::FNV_OFFSET);

        // Interrupt-driven mount (check_dma raises SID-missing, the
        // monitor mounts): one measured record.
        assert!(m
            .check_dma(&DmaRequest::new(
                DeviceId(1),
                AccessKind::Read,
                0x8000_2000,
                64
            ))
            .is_allowed());
        assert_eq!(m.switch_measurements().len(), 1);
        let first = *m.last_switch_measurement().unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(first.device, DeviceId(1));
        assert_eq!(first.policy_hash, m.siopmp().policy_fingerprint());
        assert_eq!(first.chain, m.measurement_chain());
        assert_ne!(first.chain, siopmp::canonical::FNV_OFFSET);

        // Quiesced drain commit: the chain extends, seq advances, and
        // the record measures the (unchanged no-op remount) state.
        let mut drain = m
            .begin_cold_switch(DeviceId(1), 10, siopmp::quiesce::DrainConfig::default())
            .unwrap();
        assert!(matches!(
            m.poll_cold_switch(&mut drain, 0, 11),
            DrainPoll::Committed(_)
        ));
        assert_eq!(m.switch_measurements().len(), 2);
        let second = *m.last_switch_measurement().unwrap();
        assert_eq!(second.seq, 1);
        assert_ne!(second.chain, first.chain, "chain must advance");
        assert_eq!(
            t.snapshot().counters["monitor.measured_switches"],
            2,
            "both commit paths are measured"
        );
    }

    #[test]
    fn quiesced_switch_refuses_when_traffic_never_drains() {
        let mut m = with_cold_device();
        let cfg = siopmp::quiesce::DrainConfig {
            timeout_cycles: 8,
            abort_grace_cycles: 4,
        };
        let mut drain = m.begin_cold_switch(DeviceId(1), 0, cfg).unwrap();
        assert!(matches!(
            m.poll_cold_switch(&mut drain, 1, 8),
            DrainPoll::AbortRequested { in_flight: 1 }
        ));
        assert_eq!(m.poll_cold_switch(&mut drain, 1, 12), DrainPoll::Refused);
        // Refused: nothing mounted, quiesce block released.
        assert_eq!(m.siopmp().mounted_cold_device(), None);
        assert!(!m.siopmp().is_sid_blocked(m.siopmp().config().cold_sid()));
    }

    #[test]
    fn preswitch_verify_rejects_quiesced_switch_up_front() {
        let mut m = with_cold_device();
        let mut record = m.siopmp_mut().take_cold_record(DeviceId(1)).unwrap();
        record.entries.push(IopmpEntry::new(
            AddressRange::new(0xDEAD_0000, 0x1000).unwrap(),
            Permissions::rw(),
        ));
        m.siopmp_mut().put_cold_record(DeviceId(1), record);
        m.set_preswitch_verify(true);
        assert!(matches!(
            m.begin_cold_switch(DeviceId(1), 0, siopmp::quiesce::DrainConfig::default()),
            Err(MonitorError::SwitchRejected(DeviceId(1)))
        ));
        // Nothing blocked, nothing mounted.
        assert!(!m.siopmp().is_sid_blocked(m.siopmp().config().cold_sid()));
        assert_eq!(m.siopmp().mounted_cold_device(), None);
    }

    #[test]
    fn cancel_cold_switch_releases_quiesce_block() {
        let mut m = with_cold_device();
        let drain = m
            .begin_cold_switch(DeviceId(1), 0, siopmp::quiesce::DrainConfig::default())
            .unwrap();
        assert!(m.siopmp().is_sid_blocked(m.siopmp().config().cold_sid()));
        m.cancel_cold_switch(drain);
        assert!(!m.siopmp().is_sid_blocked(m.siopmp().config().cold_sid()));
        assert_eq!(m.siopmp().mounted_cold_device(), None);
    }

    #[test]
    fn cold_remount_reloads_extended_record_edits() {
        let mut m = with_cold_device();
        // Mount device 1, then map a second region while it is mounted: the
        // monitor must force-reload the window even though the device is
        // already mounted (the no-op remount fast path must not swallow it).
        let probe1 = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x8000_2000, 64);
        assert!(m.check_dma(&probe1).is_allowed());
        assert_eq!(m.siopmp().mounted_cold_device(), Some(DeviceId(1)));
        let tee = m.tees.iter().next().unwrap().id;
        let (dev_cap, mem_cap) = {
            let caps: Vec<CapId> = m.caps.owned_by(tee.entity());
            let dev = caps
                .iter()
                .copied()
                .find(|c| m.caps.capability(*c).unwrap().as_device() == Some(DeviceId(1)))
                .unwrap();
            let mem = caps
                .iter()
                .copied()
                .find(|c| m.caps.capability(*c).unwrap().as_device().is_none())
                .unwrap();
            (dev, mem)
        };
        m.device_map(tee, dev_cap, mem_cap, 0x8000_4000, 0x100, MemPerms::rw())
            .unwrap();
        let probe2 = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x8000_4000, 64);
        assert!(m.check_dma(&probe2).is_allowed(), "window must be reloaded");
        // And unmapping while mounted closes access again (both mappings
        // ride the same memory capability, so both go).
        m.device_unmap(tee, dev_cap, mem_cap).unwrap();
        assert!(m.check_dma(&probe2).is_denied());
        assert!(m.check_dma(&probe1).is_denied());
    }

    #[test]
    fn violations_are_logged() {
        let mut m = booted();
        let out = m.check_dma(&DmaRequest::new(DeviceId(9), AccessKind::Write, 0x0, 64));
        assert!(out.is_denied());
        let v = m.take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].device, DeviceId(9));
    }

    #[test]
    fn shared_checker_tracks_monitor_reconfiguration() {
        let mut m = booted();
        let shared = m.shared_checker();
        let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
        let dev = m.mint_device(DeviceId(1));
        let tee = m.create_tee(vec![mem, dev]).unwrap();
        m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
            .unwrap();
        let probe = DmaRequest::new(DeviceId(1), AccessKind::Write, 0x8000_0100, 64);
        // The handle (taken before the mapping existed) sees the mapping...
        assert!(shared.check(&probe).is_allowed());
        // ...and its removal, publishing through the same unit the
        // monitor's own check path uses.
        m.device_unmap(tee, dev, mem).unwrap();
        assert!(shared.check(&probe).is_denied());
        assert_eq!(shared.check(&probe), m.check_dma(&probe));
    }
}
