//! The top-level sIOPMP unit: CAM → SRC2MD → MDCFG → entry table, plus the
//! mountable/extended table, blocking bitmap and violation bookkeeping.
//!
//! Since the shared-checker rework the unit's *check path* lives in an
//! immutable [`CheckerSnapshot`](crate::snapshot::CheckerSnapshot): every
//! mutator rebuilds and publishes a fresh snapshot, the owner's
//! [`Siopmp::check`] answers from the latest one, and any number of
//! [`SharedSiopmp`] handles ([`Siopmp::share`]) answer wait-free from
//! other threads. See [`crate::snapshot`] for the publication protocol.

use crate::atomic::SidBlockBitmap;
use crate::canonical::CanonicalState;
use crate::config::SiopmpConfig;
use crate::entry::{IopmpEntry, RangeKind};
use crate::error::{Result, SiopmpError};
use crate::ids::{DeviceId, EntryIndex, MdIndex, SourceId};
use crate::mountable::{cold_switch_cycles, EsidRegister, ExtendedIopmpTable, MountableEntry};
use crate::remap::DeviceId2SidCam;
use crate::request::DmaRequest;
use crate::snapshot::{
    CheckEffects, CheckerSnapshot, DeviceRoute, SharedSiopmp, SharedState, SnapshotSources,
    ViolationLog, ViolationSink,
};
use crate::stats::{CoreCounters, SiopmpStats};
use crate::tables::{EntryTable, MdCfgTable, Src2MdTable};
use crate::telemetry::{Histogram, Telemetry};
use crate::violation::ViolationRecord;
use std::collections::VecDeque;
use std::sync::Arc;

/// Capacity of the `siopmp.violation_events` telemetry ring: enough for a
/// post-mortem window without unbounded growth (the full, precise log is
/// still [`Siopmp::violation_log`]).
const VIOLATION_RING_CAPACITY: usize = 64;

/// Outcome of presenting one DMA request to the sIOPMP unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The access is authorised; the winning entry index is reported.
    Allowed {
        /// Entry that granted the access.
        matched: EntryIndex,
        /// SID the device resolved to.
        sid: SourceId,
    },
    /// The access is denied; a violation record was captured and a
    /// violation interrupt raised.
    Denied(ViolationRecord),
    /// The requesting device's SID is blocked (a table update or cold
    /// switch is in progress); the request stalls and must be retried.
    Stalled {
        /// The blocked SID.
        sid: SourceId,
    },
    /// The device is unknown to the hardware tables; a SID-missing
    /// interrupt was raised so the monitor can mount it (cold switching).
    SidMissing {
        /// The device that needs mounting.
        device: DeviceId,
    },
}

impl CheckOutcome {
    /// Whether the request was authorised.
    pub fn is_allowed(&self) -> bool {
        matches!(self, CheckOutcome::Allowed { .. })
    }

    /// Whether the request was positively denied (not stalled/missing).
    pub fn is_denied(&self) -> bool {
        matches!(self, CheckOutcome::Denied(_))
    }
}

/// Report returned by a completed cold-device switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchReport {
    /// The device now mounted at the eSID.
    pub mounted: DeviceId,
    /// The device that was unmounted, if any.
    pub unmounted: Option<DeviceId>,
    /// Hardware entries loaded into the cold memory domain.
    pub entries_loaded: usize,
    /// Modelled cost of the switch in CPU cycles (paper: 341 for 8 entries).
    pub cycles: u64,
}

/// The complete sIOPMP unit (Figure 6): remapping CAM, SRC2MD, MDCFG and
/// entry tables in hardware; the extended IOPMP table in protected memory.
///
/// The unit is the *writer* side of the shared-checker split: mutators
/// take `&mut self`, rebuild the published [`CheckerSnapshot`] and swap it
/// in; checks — from the owner or from [`SharedSiopmp`] handles — are pure
/// reads of a snapshot plus atomic counter bumps.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Siopmp {
    config: SiopmpConfig,
    cam: DeviceId2SidCam,
    src2md: Src2MdTable,
    mdcfg: MdCfgTable,
    entries: EntryTable,
    extended: ExtendedIopmpTable,
    esid: EsidRegister,
    blocks: SidBlockBitmap,
    telemetry: Telemetry,
    counters: CoreCounters,
    switch_cycles: Histogram,
    /// The snapshot most recently published by this unit — the owner's
    /// check path reads this directly, skipping the shared acquire.
    snapshot: Arc<CheckerSnapshot>,
    /// Publication point shared with every [`SharedSiopmp`] handle.
    shared: Arc<SharedState>,
}

impl Clone for Siopmp {
    /// Clones the unit with a *forked* telemetry registry: the clone keeps
    /// every counter value accumulated so far but counts independently from
    /// here on (matching the old value-struct stats semantics). The clone
    /// publishes its own fresh snapshot — existing [`SharedSiopmp`] handles
    /// keep following the original, and the clone's decision cache starts
    /// cold.
    fn clone(&self) -> Self {
        let telemetry = self.telemetry.fork();
        let counters = CoreCounters::attach(&telemetry);
        let snapshot = Arc::new(CheckerSnapshot::capture(SnapshotSources {
            config: &self.config,
            cam: &self.cam,
            esid: &self.esid,
            extended: &self.extended,
            blocks: &self.blocks,
            src2md: &self.src2md,
            mdcfg: &self.mdcfg,
            entries: &self.entries,
        }));
        let effects = CheckEffects::new(
            counters.clone(),
            telemetry.ring("siopmp.violation_events", VIOLATION_RING_CAPACITY),
            self.shared.effects().violations().clone(),
        );
        Siopmp {
            config: self.config.clone(),
            cam: self.cam.clone(),
            src2md: self.src2md.clone(),
            mdcfg: self.mdcfg.clone(),
            entries: self.entries.clone(),
            extended: self.extended.clone(),
            esid: self.esid.clone(),
            blocks: self.blocks.clone(),
            counters,
            switch_cycles: telemetry.histogram("siopmp.cold_switch_cycles"),
            telemetry,
            snapshot: snapshot.clone(),
            shared: Arc::new(SharedState::new(snapshot, effects)),
        }
    }
}

impl Siopmp {
    /// Creates a unit from `config`. Pass a [`Telemetry`] registry to have
    /// the unit record its metrics (the `siopmp.*` namespace) in the
    /// caller's shared registry — how the monitor, the bus simulator and
    /// the test suites observe one unit through a single snapshot — or
    /// `None` for a private registry.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SiopmpConfig::validate`]; construct and
    /// validate the configuration first when it comes from untrusted input.
    pub fn build(config: SiopmpConfig, telemetry: impl Into<Option<Telemetry>>) -> Self {
        let telemetry = telemetry.into().unwrap_or_else(Telemetry::new);
        config.validate().expect("invalid sIOPMP configuration");
        let mut mdcfg = MdCfgTable::new(config.num_mds, config.num_entries);
        // Pre-carve the cold MD window at the top of the entry table and
        // spread the remaining hardware entries evenly across the hot
        // domains (the monitor can re-partition later via MDCFG writes).
        let hot_entries = config.num_entries - config.cold_md_entries;
        let hot_mds = config.num_mds - 1;
        let per_md = hot_entries / hot_mds;
        let remainder = hot_entries % hot_mds;
        let mut top = 0u32;
        for md in 0..hot_mds {
            top += per_md as u32 + u32::from(md < remainder);
            mdcfg
                .set_top(MdIndex(md as u16), top)
                .expect("monotone by construction");
        }
        mdcfg
            .set_top(config.cold_md(), config.num_entries as u32)
            .expect("cold window fits by validation");
        let cam = DeviceId2SidCam::new(config.num_hot_sids());
        let src2md = Src2MdTable::new(config.num_sids, config.num_mds);
        let entries = EntryTable::new(config.num_entries);
        let extended = ExtendedIopmpTable::new();
        let esid = EsidRegister::new();
        let blocks = SidBlockBitmap::new(config.num_sids);
        let counters = CoreCounters::attach(&telemetry);
        let snapshot = Arc::new(CheckerSnapshot::capture(SnapshotSources {
            config: &config,
            cam: &cam,
            esid: &esid,
            extended: &extended,
            blocks: &blocks,
            src2md: &src2md,
            mdcfg: &mdcfg,
            entries: &entries,
        }));
        let effects = CheckEffects::new(
            counters.clone(),
            telemetry.ring("siopmp.violation_events", VIOLATION_RING_CAPACITY),
            ViolationSink {
                capacity: config.violation_log_capacity,
                log: VecDeque::new(),
            },
        );
        Siopmp {
            cam,
            src2md,
            entries,
            extended,
            esid,
            blocks,
            counters,
            switch_cycles: telemetry.histogram("siopmp.cold_switch_cycles"),
            telemetry,
            snapshot: snapshot.clone(),
            shared: Arc::new(SharedState::new(snapshot, effects)),
            mdcfg,
            config,
        }
    }

    /// The unit's telemetry registry (shared with whoever constructed the
    /// unit through [`Siopmp::build`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The unit's static configuration.
    pub fn config(&self) -> &SiopmpConfig {
        &self.config
    }

    /// Runtime counters, materialized from the telemetry registry.
    pub fn stats(&self) -> SiopmpStats {
        self.counters.snapshot()
    }

    /// A cloneable, thread-safe checker handle over this unit's published
    /// snapshots: [`SharedSiopmp::check`] takes `&self` and is safe to
    /// call from any number of threads while this unit keeps mutating.
    pub fn share(&self) -> SharedSiopmp {
        SharedSiopmp::new(self.shared.clone())
    }

    /// The publish generation, shared with every [`SharedSiopmp`] handle
    /// ([`SharedSiopmp::generation`]). It starts at 1 and moves by one
    /// each time a mutator publishes a fresh snapshot, whose decision
    /// slots and compiled views start empty. So two equal readings around
    /// an operation prove no cached verdict was invalidated in between,
    /// and a changed reading proves stale cache hits are impossible
    /// afterwards. A clone publishes on its own and restarts at 1.
    pub fn generation(&self) -> u64 {
        self.shared.generation()
    }

    /// Captured violation records, oldest first. The log is a bounded ring
    /// ([`SiopmpConfig::violation_log_capacity`]); once full, each new
    /// record evicts the oldest and bumps `siopmp.violation_log_dropped`.
    ///
    /// The returned guard locks the log (it is shared with every
    /// [`SharedSiopmp`] handle); drop it before issuing checks that could
    /// deny on this thread.
    pub fn violation_log(&self) -> ViolationLog<'_> {
        ViolationLog::new(self.shared.effects().violations())
    }

    /// Drains the violation log (the monitor does this in its interrupt
    /// handler).
    pub fn take_violations(&mut self) -> Vec<ViolationRecord> {
        self.shared.effects().violations().log.drain(..).collect()
    }

    /// Resizes the violation ring at runtime. Shrinking below the current
    /// occupancy evicts the oldest records, each counted in
    /// `siopmp.violation_log_dropped` exactly as an adversarial overflow
    /// would be.
    ///
    /// # Errors
    ///
    /// [`SiopmpError::InvalidConfig`] for a zero capacity (the ring must be
    /// able to hold at least one record).
    pub fn set_violation_log_capacity(&mut self, capacity: usize) -> Result<()> {
        if capacity == 0 {
            return Err(SiopmpError::InvalidConfig(
                "violation log needs room for at least one record",
            ));
        }
        self.config.violation_log_capacity = capacity;
        let mut sink = self.shared.effects().violations();
        sink.capacity = capacity;
        while sink.log.len() > capacity {
            sink.log.pop_front();
            self.counters.violation_log_dropped.inc();
        }
        Ok(())
    }

    /// Runs one mutation and republishes the checker snapshot afterwards —
    /// unconditionally, including on error paths, because a mutator may
    /// have changed a table before it failed and readers must never keep
    /// a stale snapshot. Correctness of the shared read path rests on
    /// every mutator going through here.
    fn mutate<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let result = f(self);
        self.publish();
        result
    }

    /// Rebuilds the immutable snapshot from the live tables and publishes
    /// it with a single pointer swap (readers keep whatever snapshot they
    /// already pinned; new checks see this one).
    fn publish(&mut self) {
        let snapshot = Arc::new(CheckerSnapshot::capture(SnapshotSources {
            config: &self.config,
            cam: &self.cam,
            esid: &self.esid,
            extended: &self.extended,
            blocks: &self.blocks,
            src2md: &self.src2md,
            mdcfg: &self.mdcfg,
            entries: &self.entries,
        }));
        self.snapshot = snapshot.clone();
        self.shared.publish(snapshot);
    }

    // ------------------------------------------------------------------
    // Configuration interface (MMIO side, used by the secure monitor)
    // ------------------------------------------------------------------

    /// Registers `device` as hot: assigns it a SID through the CAM.
    ///
    /// # Errors
    ///
    /// * [`SiopmpError::DeviceAlreadyMapped`] when already registered (hot
    ///   or cold; a cold device goes hot only through
    ///   [`Siopmp::promote_with_eviction`]);
    /// * [`SiopmpError::HotSidsExhausted`] when the CAM is full (use
    ///   [`Siopmp::register_cold_device`] or
    ///   [`Siopmp::promote_with_eviction`]).
    pub fn map_hot_device(&mut self, device: DeviceId) -> Result<SourceId> {
        if self.extended.contains(device) {
            return Err(SiopmpError::DeviceAlreadyMapped(device));
        }
        self.mutate(|u| u.cam.insert(device))
    }

    /// Associates `sid` with memory domain `md`.
    ///
    /// # Errors
    ///
    /// Propagates [`Src2MdTable::associate`] errors; additionally rejects
    /// the cold MD, which is managed exclusively by the switch logic.
    pub fn associate_sid_with_md(&mut self, sid: SourceId, md: MdIndex) -> Result<()> {
        if md == self.config.cold_md() {
            return Err(SiopmpError::InvalidConfig(
                "the cold memory domain is managed by cold-device switching",
            ));
        }
        self.mutate(|u| u.src2md.associate(sid, md))
    }

    /// Installs `entry` in the first free hardware slot of `md`'s window.
    /// Returns the entry index used.
    ///
    /// # Errors
    ///
    /// * [`SiopmpError::MdFull`] when the domain window has no free slot;
    /// * table errors for bad indices.
    pub fn install_entry(&mut self, md: MdIndex, entry: IopmpEntry) -> Result<EntryIndex> {
        self.mutate(|u| {
            let (start, end) = u.mdcfg.window(md)?;
            for j in start..end {
                let idx = EntryIndex(j);
                if u.entries.get(idx)?.is_none() {
                    u.entries.set(idx, Some(entry))?;
                    return Ok(idx);
                }
            }
            Err(SiopmpError::MdFull(md))
        })
    }

    /// Replaces the entry at `index` (used by `dma_unmap`-style flows that
    /// clear a specific rule). The affected SID must be blocked first when
    /// `require_block` semantics are desired; see
    /// [`Siopmp::modify_entries_atomically`].
    ///
    /// # Errors
    ///
    /// Table errors for bad indices or locked entries.
    pub fn set_entry(&mut self, index: EntryIndex, entry: Option<IopmpEntry>) -> Result<()> {
        self.mutate(|u| u.entries.set(index, entry))
    }

    /// Reads the entry at `index`.
    ///
    /// # Errors
    ///
    /// [`SiopmpError::EntryOutOfRange`].
    pub fn entry(&self, index: EntryIndex) -> Result<Option<IopmpEntry>> {
        self.entries.get(index)
    }

    /// The MDCFG window `[start, end)` of `md`.
    ///
    /// # Errors
    ///
    /// [`SiopmpError::MdOutOfRange`].
    pub fn md_window(&self, md: MdIndex) -> Result<(u32, u32)> {
        self.mdcfg.window(md)
    }

    /// Rewrites `MD[md].T` (repartitioning the entry table). Exposed for
    /// the MMIO front-end; preserves the MDCFG monotonicity invariants.
    ///
    /// # Errors
    ///
    /// [`crate::tables::MdCfgTable::set_top`] errors.
    pub fn set_md_top(&mut self, md: MdIndex, top: u32) -> Result<()> {
        self.mutate(|u| u.mdcfg.set_top(md, top))
    }

    /// Whether `md` is associated with `sid`.
    ///
    /// # Errors
    ///
    /// [`SiopmpError::SidOutOfRange`].
    pub fn is_associated(&self, sid: SourceId, md: MdIndex) -> Result<bool> {
        self.src2md.is_associated(sid, md)
    }

    /// Removes the association between `sid` and `md`.
    ///
    /// # Errors
    ///
    /// Table errors (bounds, sticky lock).
    pub fn dissociate_sid_from_md(&mut self, sid: SourceId, md: MdIndex) -> Result<()> {
        self.mutate(|u| u.src2md.dissociate(sid, md))
    }

    /// Performs a batch of entry updates under the per-SID blocking
    /// protocol (§5.3): block `sid`, apply `updates`, unblock. Returns the
    /// modelled cycle cost ([`crate::atomic::modification_cycles`]).
    ///
    /// Concurrent readers never observe the intermediate states: the
    /// snapshot is republished once, after the unblock, so a shared check
    /// sees either the pre-update or the post-update configuration.
    ///
    /// # Errors
    ///
    /// If any update fails, already-applied updates are kept (hardware has
    /// no rollback) but the SID is still unblocked before returning the
    /// error, so the device is never wedged.
    pub fn modify_entries_atomically(
        &mut self,
        sid: SourceId,
        updates: &[(EntryIndex, Option<IopmpEntry>)],
    ) -> Result<u64> {
        self.mutate(|u| {
            u.blocks.block(sid);
            let mut result = Ok(());
            for (idx, entry) in updates {
                result = u.entries.set(*idx, *entry);
                if result.is_err() {
                    break;
                }
            }
            u.blocks.unblock(sid);
            result.map(|()| crate::atomic::modification_cycles(updates.len(), true))
        })
    }

    /// Blocks DMA from `sid` (exposed for the monitor's switch sequence).
    pub fn block_sid(&mut self, sid: SourceId) {
        self.mutate(|u| {
            u.blocks.block(sid);
        });
    }

    /// Unblocks DMA from `sid`.
    pub fn unblock_sid(&mut self, sid: SourceId) {
        self.mutate(|u| {
            u.blocks.unblock(sid);
        });
    }

    /// Whether `sid` is currently blocked.
    pub fn is_sid_blocked(&self, sid: SourceId) -> bool {
        self.blocks.is_blocked(sid)
    }

    /// Registers `device` as cold: its IOPMP state lives in the extended
    /// table until a DMA from it triggers mounting.
    ///
    /// # Errors
    ///
    /// [`SiopmpError::DeviceAlreadyMapped`] when already registered (hot or
    /// cold).
    pub fn register_cold_device(&mut self, device: DeviceId, record: MountableEntry) -> Result<()> {
        if !self.config.mountable {
            return Err(SiopmpError::InvalidConfig(
                "the original IOPMP has no extended table; all devices must be hot",
            ));
        }
        if self.cam.peek(device).is_some() {
            return Err(SiopmpError::DeviceAlreadyMapped(device));
        }
        self.mutate(|u| u.extended.register(device, record))
    }

    /// Releases `device` from the unit, so no SID speaks for it any more.
    /// A hot device loses its CAM row and its SID's SRC2MD associations;
    /// a cold device is unmounted if mounted (clearing the cold window and
    /// the cold SID's associations) and its extended-table record is
    /// removed. Entries in the device's hot memory domains are left for
    /// the caller to clear.
    ///
    /// # Errors
    ///
    /// * [`SiopmpError::UnknownDevice`] when the device is neither hot nor
    ///   cold;
    /// * [`SiopmpError::Locked`] when the SRC2MD register to clear is
    ///   locked; nothing is released then.
    pub fn release_device(&mut self, device: DeviceId) -> Result<()> {
        self.mutate(|u| {
            if let Some(sid) = u.cam.peek(device) {
                u.src2md.clear(sid)?;
                u.cam.remove(device)?;
                return Ok(());
            }
            if !u.extended.contains(device) {
                return Err(SiopmpError::UnknownDevice(device));
            }
            if u.esid.matches(device) {
                let (start, end) = u.mdcfg.window(u.config.cold_md())?;
                u.src2md.clear(u.config.cold_sid())?;
                u.entries.clear_window(start, end);
                u.esid.unmount();
            }
            u.extended.remove(device)?;
            Ok(())
        })
    }

    /// Whether `device` currently holds a hot SID.
    pub fn is_hot(&self, device: DeviceId) -> bool {
        self.cam.peek(device).is_some()
    }

    /// Whether `device` is registered as a cold device.
    pub fn is_cold(&self, device: DeviceId) -> bool {
        self.extended.contains(device)
    }

    /// Number of cold devices registered in the extended table.
    pub fn cold_device_count(&self) -> usize {
        self.extended.len()
    }

    /// The device currently mounted at the eSID, if any.
    pub fn mounted_cold_device(&self) -> Option<DeviceId> {
        self.esid.mounted()
    }

    /// Removes and returns `device`'s extended-table record so the monitor
    /// can rewrite it (read-modify-write of mountable state). The caller
    /// must follow up with [`Siopmp::put_cold_record`]; while the record is
    /// out, DMA from the device is denied rather than SID-missing.
    ///
    /// # Errors
    ///
    /// [`SiopmpError::UnknownDevice`] when the device has no record.
    pub fn take_cold_record(&mut self, device: DeviceId) -> Result<MountableEntry> {
        self.mutate(|u| u.extended.remove(device))
    }

    /// (Re)installs `device`'s extended-table record (counterpart of
    /// [`Siopmp::take_cold_record`]).
    pub fn put_cold_record(&mut self, device: DeviceId, record: MountableEntry) {
        self.mutate(|u| {
            u.extended.upsert(device, record);
        });
    }

    /// Read-only view of `device`'s extended-table record. Unlike
    /// [`Siopmp::take_cold_record`] this does not disturb the decision
    /// cache.
    ///
    /// # Errors
    ///
    /// [`SiopmpError::UnknownDevice`].
    pub fn cold_record(&self, device: DeviceId) -> Result<&MountableEntry> {
        self.extended.get(device)
    }

    /// Validates that a cold switch to `device` could commit right now —
    /// the device has an extended record and it fits the cold window —
    /// without touching any state. Returns the number of entries the
    /// switch would load. The quiesce/drain protocol
    /// ([`crate::quiesce::ColdSwitchDrain`]) runs this before blocking
    /// anything so a doomed switch is refused up front instead of after a
    /// full drain.
    ///
    /// # Errors
    ///
    /// Same as [`Siopmp::handle_sid_missing`]:
    /// [`SiopmpError::UnknownDevice`] or [`SiopmpError::MdFull`].
    pub fn cold_switch_precheck(&self, device: DeviceId) -> Result<usize> {
        let record = self.extended.get(device)?;
        let cold_md = self.config.cold_md();
        let (start, end) = self.mdcfg.window(cold_md)?;
        let window = (end - start) as usize;
        if record.entries.len() > window {
            return Err(SiopmpError::MdFull(cold_md));
        }
        Ok(record.entries.len())
    }

    // ------------------------------------------------------------------
    // State snapshot (read-only introspection for audits and the static
    // analyzer in `siopmp-verify`)
    // ------------------------------------------------------------------

    /// The hot device mappings currently held in the remapping CAM, in
    /// ascending SID order. Reading does not disturb the CAM's clock
    /// (reference) bits.
    pub fn hot_devices(&self) -> Vec<(SourceId, DeviceId)> {
        self.cam.iter().map(|(sid, dev, _)| (sid, dev)).collect()
    }

    /// The memory domains associated with `sid`, ascending.
    ///
    /// # Errors
    ///
    /// [`SiopmpError::SidOutOfRange`].
    pub fn sid_domains(&self, sid: SourceId) -> Result<Vec<MdIndex>> {
        self.src2md.domains_of(sid)
    }

    /// The cold devices registered in the extended table and their
    /// mountable records (iteration order is unspecified).
    pub fn cold_devices(&self) -> impl Iterator<Item = (DeviceId, &MountableEntry)> {
        self.extended.iter()
    }

    /// The occupied hardware entries in global priority order.
    pub fn entries(&self) -> impl Iterator<Item = (EntryIndex, &IopmpEntry)> {
        self.entries.iter()
    }

    /// Captures the unit's policy-relevant state as a deterministic
    /// [`CanonicalState`] — the dedup key the bounded model checker
    /// (`siopmp-prove`) hashes reachable configurations by. See
    /// [`crate::canonical`] for exactly what is in and out of the
    /// encoding (the publish generation, telemetry and the violation log
    /// are excluded;
    /// CAM reference bits are included).
    pub fn canonical_state(&self) -> CanonicalState {
        fn rule(entry: &IopmpEntry) -> (u64, u64, u8, u8, bool) {
            let range = entry.range();
            let kind = match range.kind() {
                RangeKind::Plain => 0u8,
                RangeKind::Napot => 1,
                RangeKind::Tor => 2,
            };
            let perms = entry.permissions();
            let bits = perms.read() as u8 | (perms.write() as u8) << 1;
            (range.base(), range.len(), kind, bits, entry.is_locked())
        }

        let domains = (0..self.config.num_sids)
            .map(|sid| {
                self.src2md
                    .domains_of(SourceId(sid as u16))
                    .map(|mds| mds.iter().fold(0u64, |mask, md| mask | 1 << md.0))
                    .unwrap_or(0)
            })
            .collect();
        let windows = (0..self.config.num_mds)
            .map(|md| self.mdcfg.window(MdIndex(md as u16)).unwrap_or((0, 0)))
            .collect();
        let mut cold: Vec<crate::canonical::CanonicalColdRecord> = self
            .extended
            .iter()
            .map(|(dev, record)| {
                let mask = record.domains.iter().fold(0u64, |m, md| m | 1 << md.0);
                (dev.0, mask, record.entries.iter().map(rule).collect())
            })
            .collect();
        cold.sort_by_key(|&(dev, ..)| dev);
        // Every configuration field except the decision-cache sizing and the
        // violation-log capacity, which never change a verdict. No `..`: a
        // new field must be placed on one side or the other to compile.
        let SiopmpConfig {
            num_sids,
            num_mds,
            num_entries,
            cold_md_entries,
            checker,
            violation_mode,
            placement,
            mountable,
            decision_cache_slots: _,
            violation_log_capacity: _,
        } = &self.config;
        CanonicalState {
            config: format!(
                "sids={num_sids} mds={num_mds} entries={num_entries} cold_entries={cold_md_entries} checker={checker:?} violation={violation_mode:?} placement={placement:?} mountable={mountable}"
            ),
            hot: self
                .cam
                .iter()
                .map(|(sid, dev, referenced)| (sid.0, dev.0, referenced))
                .collect(),
            domains,
            windows,
            entries: self
                .entries
                .iter()
                .map(|(idx, entry)| {
                    let (base, len, kind, perms, locked) = rule(entry);
                    (idx.0, base, len, kind, perms, locked)
                })
                .collect(),
            cold,
            mounted: self.esid.mounted().map(|dev| dev.0),
            blocked: (0..self.config.num_sids)
                .map(|sid| self.blocks.is_blocked(SourceId(sid as u16)))
                .collect(),
        }
    }

    /// 64-bit measurement of the current policy state: the FNV-1a
    /// [`CanonicalState::fingerprint`] of [`Siopmp::canonical_state`].
    /// This is the value attested config journals and measured
    /// cold-switch records capture, so a remote party can audit which
    /// policy was in force when; two units answer identically to every
    /// probe whenever their fingerprints agree (modulo 64-bit hashing).
    pub fn policy_fingerprint(&self) -> u64 {
        self.canonical_state().fingerprint()
    }

    // ------------------------------------------------------------------
    // Check path (bus side)
    // ------------------------------------------------------------------

    /// Presents one DMA request to the checker. This is the functional
    /// fast path; cycle-level latency is modelled by the bus simulator
    /// using [`crate::checker::CheckerKind::extra_cycles`] and
    /// [`crate::violation::ViolationMode::legal_path_overhead_cycles`].
    ///
    /// Delegates to the unit's published [`CheckerSnapshot`] — the same
    /// code path a [`SharedSiopmp`] handle takes — after the one side
    /// effect only the owner may perform: training the CAM's clock
    /// reference bit for the requesting device.
    pub fn check(&mut self, req: &DmaRequest) -> CheckOutcome {
        let route = route_device(&mut self.cam, &self.snapshot, req.device());
        self.snapshot
            .check_routed(req, route, self.shared.effects())
    }

    /// Presents a whole burst's beats (or any batch of requests) to the
    /// checker, producing exactly the outcomes a per-beat [`Siopmp::check`]
    /// loop would — same verdicts, same counters, same violation events,
    /// same CAM reference bits — while resolving each distinct device's
    /// SID route only once (see [`CheckerSnapshot`]'s batch loop, which
    /// [`SharedSiopmp::check_batch`] shares).
    pub fn check_batch(&mut self, reqs: &[DmaRequest]) -> Vec<CheckOutcome> {
        self.snapshot
            .check_batch(reqs, self.shared.effects(), |device| {
                route_device(&mut self.cam, &self.snapshot, device)
            })
    }

    // ------------------------------------------------------------------
    // Cold device switching (monitor side, §4.2)
    // ------------------------------------------------------------------

    /// Handles a SID-missing interrupt: mounts `device`'s extended-table
    /// record into the cold memory domain. The cold SID is blocked for the
    /// duration of the switch so the new tenant can never see the previous
    /// tenant's rules (§5.3, device consistency).
    ///
    /// Re-mounting the device that is **already mounted** is free: the
    /// hardware window already holds its entries, so no cycles are paid,
    /// no switch is counted and nothing is published, so the generation
    /// stays put and cached verdicts stay valid. A SID-missing interrupt for
    /// the mounted device can only be spurious — the eSID register would
    /// have matched. Callers that rewrote the device's extended record
    /// while it was mounted must use [`Siopmp::remount_cold_device`]
    /// instead to force the hardware window to be reloaded.
    ///
    /// # Errors
    ///
    /// * [`SiopmpError::UnknownDevice`] when the device has no extended
    ///   record;
    /// * [`SiopmpError::MdFull`] when the record holds more entries than
    ///   the cold window (callers should split the record or promote the
    ///   device to hot).
    pub fn handle_sid_missing(&mut self, device: DeviceId) -> Result<SwitchReport> {
        if self.esid.matches(device) {
            // No-op remount: the record must still exist (so spurious
            // interrupts for unregistered devices keep erroring), but the
            // hardware window is already correct.
            let entries_loaded = self.extended.get(device)?.entries.len();
            return Ok(SwitchReport {
                mounted: device,
                unmounted: None,
                entries_loaded,
                cycles: 0,
            });
        }
        self.remount_cold_device(device)
    }

    /// Performs a full cold switch to `device` unconditionally, reloading
    /// the hardware window from the extended table even when the device is
    /// already mounted. This is the forced-reload path the monitor uses
    /// after rewriting a mounted device's extended record
    /// ([`Siopmp::put_cold_record`]): that rewrite published a fresh
    /// snapshot, so no stale verdict survives it, but the hardware entry
    /// window is not reloaded by it, so
    /// the record must be pushed back out to hardware explicitly.
    ///
    /// The intermediate switch states (cold SID blocked, window
    /// half-loaded) are never published: concurrent readers answer from
    /// the pre-switch snapshot until the switch commits, so a switch can
    /// never transiently widen permissions.
    ///
    /// Pays the full [`cold_switch_cycles`] cost and bumps the
    /// `siopmp.cold_switches` counter.
    ///
    /// # Errors
    ///
    /// Same as [`Siopmp::handle_sid_missing`].
    pub fn remount_cold_device(&mut self, device: DeviceId) -> Result<SwitchReport> {
        let record = self.extended.get(device)?.clone();
        let cold_md = self.config.cold_md();
        let (start, end) = self.mdcfg.window(cold_md)?;
        let window = (end - start) as usize;
        if record.entries.len() > window {
            return Err(SiopmpError::MdFull(cold_md));
        }
        self.mutate(|u| {
            let cold_sid = u.config.cold_sid();
            u.blocks.block(cold_sid);

            // Flush the previous tenant's entries and SRC2MD row.
            let unmounted = u.esid.mounted();
            u.entries.clear_window(start, end);
            u.src2md.clear(cold_sid)?;

            // Load the new tenant.
            for (k, entry) in record.entries.iter().enumerate() {
                u.entries.set(EntryIndex(start + k as u32), Some(*entry))?;
            }
            u.src2md.associate(cold_sid, cold_md)?;
            for md in &record.domains {
                u.src2md.associate(cold_sid, *md)?;
            }
            u.esid.mount(device);
            u.blocks.unblock(cold_sid);
            u.counters.cold_switches.inc();
            let cycles = cold_switch_cycles(record.entries.len());
            u.switch_cycles.record(cycles);
            Ok(SwitchReport {
                mounted: device,
                unmounted,
                entries_loaded: record.entries.len(),
                cycles,
            })
        })
    }

    /// Promotes a cold device to hot status, evicting a CAM victim with the
    /// clock algorithm when necessary (implicit switching, §4.3). The
    /// victim, if any, is demoted into the extended table with its current
    /// domain associations.
    ///
    /// # Errors
    ///
    /// * [`SiopmpError::UnknownDevice`] when `device` has no extended
    ///   record;
    /// * CAM errors when the device is already hot.
    pub fn promote_with_eviction(&mut self, device: DeviceId) -> Result<SourceId> {
        self.mutate(|u| {
            let record = u.extended.remove(device)?;
            let (sid, evicted) = match u.cam.insert_with_eviction(device) {
                Ok(pair) => pair,
                Err(e) => {
                    // Restore the record so the device is not lost.
                    u.extended.upsert(device, record);
                    return Err(e);
                }
            };
            if let Some(victim) = evicted {
                // Demote the victim: capture its domains, clear its row.
                let domains = u.src2md.domains_of(sid)?;
                u.blocks.block(sid);
                u.src2md.clear(sid)?;
                u.blocks.unblock(sid);
                u.extended.upsert(
                    victim,
                    MountableEntry {
                        domains,
                        entries: Vec::new(),
                    },
                );
            }
            // Wire the promoted device's domains into its new SID.
            u.blocks.block(sid);
            u.src2md.clear(sid)?;
            for md in &record.domains {
                u.src2md.associate(sid, *md)?;
            }
            u.blocks.unblock(sid);
            // If the device was mounted at the eSID, unmount it.
            if u.esid.matches(device) {
                u.esid.unmount();
            }
            Ok(sid)
        })
    }

    /// Total cold switches performed (from the eSID register's counter).
    pub fn cold_switch_count(&self) -> u64 {
        self.esid.switch_count()
    }
}

/// The owner's route for `device`: the CAM lookup, which trains a hot
/// device's clock reference bit, else the snapshot's pure route (eSID,
/// extended table). Every mutator republishes the snapshot, so the two
/// agree on every device and the owner and shared paths route alike.
fn route_device(
    cam: &mut DeviceId2SidCam,
    snapshot: &CheckerSnapshot,
    device: DeviceId,
) -> DeviceRoute {
    match cam.lookup(device) {
        Some(sid) => DeviceRoute::Hot(sid),
        None => snapshot.route(device),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{AddressRange, Permissions};
    use crate::request::AccessKind;

    fn entry(base: u64, len: u64, p: Permissions) -> IopmpEntry {
        IopmpEntry::new(AddressRange::new(base, len).unwrap(), p)
    }

    fn unit() -> Siopmp {
        Siopmp::build(SiopmpConfig::small(), None)
    }

    #[test]
    fn hot_device_allowed_inside_region() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(MdIndex(0), entry(0x1000, 0x100, Permissions::rw()))
            .unwrap();
        let out = u.check(&DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8));
        assert!(out.is_allowed());
        assert_eq!(u.stats().hot_hits, 1);
    }

    #[test]
    fn hot_device_denied_outside_region() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(MdIndex(0), entry(0x1000, 0x100, Permissions::rw()))
            .unwrap();
        let out = u.check(&DmaRequest::new(DeviceId(1), AccessKind::Write, 0x2000, 8));
        assert!(out.is_denied());
        assert_eq!(u.violation_log().len(), 1);
    }

    #[test]
    fn unregistered_device_denied_with_violation() {
        let mut u = unit();
        let out = u.check(&DmaRequest::new(DeviceId(99), AccessKind::Read, 0x0, 8));
        assert!(out.is_denied());
        assert_eq!(u.stats().violations, 1);
    }

    #[test]
    fn entries_in_foreign_domains_are_invisible() {
        let mut u = unit();
        let a = u.map_hot_device(DeviceId(1)).unwrap();
        let b = u.map_hot_device(DeviceId(2)).unwrap();
        u.associate_sid_with_md(a, MdIndex(0)).unwrap();
        u.associate_sid_with_md(b, MdIndex(1)).unwrap();
        u.install_entry(MdIndex(1), entry(0x1000, 0x100, Permissions::rw()))
            .unwrap();
        // Device 1 cannot use device 2's entry.
        let out = u.check(&DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8));
        assert!(out.is_denied());
        // Device 2 can.
        let out = u.check(&DmaRequest::new(DeviceId(2), AccessKind::Read, 0x1000, 8));
        assert!(out.is_allowed());
    }

    #[test]
    fn priority_deny_shadows_lower_allow() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        let first = u
            .install_entry(MdIndex(0), entry(0x1000, 0x100, Permissions::none()))
            .unwrap();
        let second = u
            .install_entry(MdIndex(0), entry(0x1000, 0x100, Permissions::rw()))
            .unwrap();
        assert!(first < second);
        let out = u.check(&DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 4));
        assert!(out.is_denied());
        assert_eq!(u.stats().denied_permission, 1);
    }

    #[test]
    fn cold_device_triggers_sid_missing_then_mounts() {
        let mut u = unit();
        u.register_cold_device(
            DeviceId(7),
            MountableEntry {
                domains: vec![],
                entries: vec![entry(0x4000, 0x100, Permissions::rw())],
            },
        )
        .unwrap();
        let req = DmaRequest::new(DeviceId(7), AccessKind::Read, 0x4000, 8);
        // First access: SID missing.
        let out = u.check(&req);
        assert_eq!(
            out,
            CheckOutcome::SidMissing {
                device: DeviceId(7)
            }
        );
        // Monitor mounts it.
        let report = u.handle_sid_missing(DeviceId(7)).unwrap();
        assert_eq!(report.mounted, DeviceId(7));
        assert_eq!(report.entries_loaded, 1);
        // Retry succeeds via the eSID path.
        let out = u.check(&req);
        assert!(out.is_allowed());
        let stats = u.stats();
        assert_eq!(stats.cold_hits, 1);
        assert_eq!(stats.sid_missing_interrupts, 1);
        assert_eq!(stats.cold_switches, 1);
    }

    #[test]
    fn a_device_is_never_both_hot_and_cold() {
        let mut u = unit();
        let record = MountableEntry {
            domains: vec![],
            entries: vec![],
        };
        u.map_hot_device(DeviceId(1)).unwrap();
        u.register_cold_device(DeviceId(2), record.clone()).unwrap();
        let generation = u.generation();
        assert_eq!(
            u.register_cold_device(DeviceId(1), record),
            Err(SiopmpError::DeviceAlreadyMapped(DeviceId(1)))
        );
        // A free hot SID does not let a cold device take a second identity.
        assert!(u.config().num_hot_sids() > 1);
        assert_eq!(
            u.map_hot_device(DeviceId(2)),
            Err(SiopmpError::DeviceAlreadyMapped(DeviceId(2)))
        );
        assert!(u.is_hot(DeviceId(1)) && !u.is_cold(DeviceId(1)));
        assert!(u.is_cold(DeviceId(2)) && !u.is_hot(DeviceId(2)));
        assert_eq!(
            u.generation(),
            generation,
            "a refused registration publishes nothing"
        );
    }

    #[test]
    fn cold_switch_replaces_previous_tenant() {
        let mut u = unit();
        for d in [7u64, 8] {
            u.register_cold_device(
                DeviceId(d),
                MountableEntry {
                    domains: vec![],
                    entries: vec![entry(0x1000 * d, 0x100, Permissions::rw())],
                },
            )
            .unwrap();
        }
        u.handle_sid_missing(DeviceId(7)).unwrap();
        let report = u.handle_sid_missing(DeviceId(8)).unwrap();
        assert_eq!(report.unmounted, Some(DeviceId(7)));
        // Device 8's region works; device 7's old region must not leak to 8.
        assert!(u
            .check(&DmaRequest::new(DeviceId(8), AccessKind::Read, 0x8000, 8))
            .is_allowed());
        assert!(u
            .check(&DmaRequest::new(DeviceId(8), AccessKind::Read, 0x7000, 8))
            .is_denied());
        // Device 7 is unmounted: SID-missing again.
        assert_eq!(
            u.check(&DmaRequest::new(DeviceId(7), AccessKind::Read, 0x7000, 8)),
            CheckOutcome::SidMissing {
                device: DeviceId(7)
            }
        );
    }

    #[test]
    fn noop_remount_is_free_but_forced_remount_reloads() {
        let mut u = unit();
        for d in [7u64, 8] {
            u.register_cold_device(
                DeviceId(d),
                MountableEntry {
                    domains: vec![],
                    entries: vec![entry(0x1000 * d, 0x100, Permissions::rw())],
                },
            )
            .unwrap();
        }
        u.handle_sid_missing(DeviceId(7)).unwrap();
        assert_eq!(u.cold_switch_count(), 1);
        let switches_before = u.stats().cold_switches;
        let generation_before = u.generation();

        // Spurious SID-missing for the already-mounted device: free no-op —
        // zero cycles, no switch counted, nothing published.
        let report = u.handle_sid_missing(DeviceId(7)).unwrap();
        assert_eq!(report.cycles, 0);
        assert_eq!(report.unmounted, None);
        assert_eq!(u.cold_switch_count(), 1);
        assert_eq!(u.stats().cold_switches, switches_before);
        assert_eq!(u.generation(), generation_before);

        // Rewriting the mounted record then forcing a remount pushes the
        // new rules out to hardware (the path the monitor relies on).
        let mut rec = u.take_cold_record(DeviceId(7)).unwrap();
        rec.entries = vec![entry(0x9000, 0x100, Permissions::rw())];
        u.put_cold_record(DeviceId(7), rec);
        let report = u.remount_cold_device(DeviceId(7)).unwrap();
        assert!(report.cycles > 0);
        assert!(u
            .check(&DmaRequest::new(DeviceId(7), AccessKind::Read, 0x9000, 8))
            .is_allowed());
        assert!(u
            .check(&DmaRequest::new(DeviceId(7), AccessKind::Read, 0x7000, 8))
            .is_denied());
        // A forced reload of the same tenant is not a tenant change.
        assert_eq!(u.cold_switch_count(), 1);
    }

    #[test]
    fn real_cold_switch_bumps_generation() {
        // Regression for the stale-decision-cache hazard: any real switch
        // must publish a fresh snapshot so verdicts cached for the
        // previous tenant can never be served to the next one.
        let mut u = Siopmp::build(SiopmpConfig::default(), None);
        for d in [7u64, 8] {
            // Page-sized regions: the page-granular cache only stores
            // verdicts for pages that resolve uniformly.
            u.register_cold_device(
                DeviceId(d),
                MountableEntry {
                    domains: vec![],
                    entries: vec![entry(0x1000 * d, 0x1000, Permissions::rw())],
                },
            )
            .unwrap();
        }
        assert!(
            u.config().decision_cache_slots > 0,
            "default config enables the cache"
        );
        u.handle_sid_missing(DeviceId(7)).unwrap();
        // Populate the cache for tenant 7.
        let req7 = DmaRequest::new(DeviceId(7), AccessKind::Read, 0x7000, 8);
        assert!(u.check(&req7).is_allowed());
        assert!(u.check(&req7).is_allowed());
        assert!(u.stats().cache_hits > 0);
        let generation = u.generation();
        // Real switch: a publish, and tenant 7's cached verdict is dead.
        u.handle_sid_missing(DeviceId(8)).unwrap();
        assert!(u.generation() > generation);
        assert_eq!(
            u.check(&req7),
            CheckOutcome::SidMissing {
                device: DeviceId(7)
            }
        );
    }

    #[test]
    fn oversized_cold_record_rejected() {
        let mut u = unit(); // cold window = 4 entries
        let entries = (0..5)
            .map(|i| entry(0x1000 + 0x100 * i, 0x100, Permissions::rw()))
            .collect();
        u.register_cold_device(
            DeviceId(7),
            MountableEntry {
                domains: vec![],
                entries,
            },
        )
        .unwrap();
        assert!(matches!(
            u.handle_sid_missing(DeviceId(7)),
            Err(SiopmpError::MdFull(_))
        ));
    }

    #[test]
    fn blocked_sid_stalls_requests() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(MdIndex(0), entry(0x1000, 0x100, Permissions::rw()))
            .unwrap();
        u.block_sid(sid);
        let out = u.check(&DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8));
        assert_eq!(out, CheckOutcome::Stalled { sid });
        u.unblock_sid(sid);
        assert!(u
            .check(&DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8))
            .is_allowed());
    }

    #[test]
    fn atomic_modification_costs_and_applies() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        let idx = u
            .install_entry(MdIndex(0), entry(0x1000, 0x100, Permissions::rw()))
            .unwrap();
        let cycles = u.modify_entries_atomically(sid, &[(idx, None)]).unwrap();
        assert_eq!(cycles, crate::atomic::modification_cycles(1, true));
        assert!(!u.is_sid_blocked(sid));
        assert!(u
            .check(&DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8))
            .is_denied());
    }

    #[test]
    fn atomic_modification_unblocks_on_error() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        let bad = EntryIndex(10_000);
        assert!(u.modify_entries_atomically(sid, &[(bad, None)]).is_err());
        assert!(!u.is_sid_blocked(sid));
    }

    #[test]
    fn promote_with_eviction_moves_device_to_hot() {
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 3; // 2 hot SIDs
        let mut u = Siopmp::build(cfg, None);
        u.map_hot_device(DeviceId(1)).unwrap();
        u.map_hot_device(DeviceId(2)).unwrap();
        u.register_cold_device(
            DeviceId(3),
            MountableEntry {
                domains: vec![MdIndex(0)],
                entries: vec![],
            },
        )
        .unwrap();
        let sid = u.promote_with_eviction(DeviceId(3)).unwrap();
        assert!(u.is_hot(DeviceId(3)));
        assert!(u.src2md_domains(sid).contains(&MdIndex(0)));
        // One of the previous hot devices is now cold.
        assert_eq!(u.cold_device_count(), 1);
    }

    #[test]
    fn cold_md_cannot_be_associated_manually() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        assert!(u.associate_sid_with_md(sid, u.config().cold_md()).is_err());
    }

    #[test]
    fn repeated_single_page_check_hits_decision_cache() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(MdIndex(0), entry(0x1000, 0x1000, Permissions::rw()))
            .unwrap();
        let req = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1100, 8);
        assert!(u.check(&req).is_allowed());
        assert!(u.check(&req).is_allowed());
        let s = u.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_view_rebuilds, 1);
    }

    #[test]
    fn reads_writes_and_sids_sharing_a_page_keep_their_own_slots() {
        let mut u = unit();
        for dev in [1, 2] {
            let sid = u.map_hot_device(DeviceId(dev)).unwrap();
            u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        }
        u.install_entry(MdIndex(0), entry(0x1000, 0x1000, Permissions::rw()))
            .unwrap();
        let read = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1100, 8);
        let write = DmaRequest::new(DeviceId(1), AccessKind::Write, 0x1100, 8);
        let other = DmaRequest::new(DeviceId(2), AccessKind::Read, 0x1100, 8);
        // One SID alternating read and write on one page, then two SIDs
        // alternating reads on it: each key misses once (the read is
        // already warm for the second pattern), every other check hits.
        for (a, b, new_keys) in [(&read, &write, 2), (&read, &other, 1)] {
            let before = u.stats();
            for _ in 0..10 {
                assert!(u.check(a).is_allowed());
                assert!(u.check(b).is_allowed());
            }
            let s = u.stats();
            assert_eq!(s.cache_misses - before.cache_misses, new_keys);
            assert_eq!(s.cache_hits - before.cache_hits, 20 - new_keys);
        }
    }

    #[test]
    fn mutation_invalidates_cached_verdicts() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        let idx = u
            .install_entry(MdIndex(0), entry(0x1000, 0x1000, Permissions::rw()))
            .unwrap();
        let req = DmaRequest::new(DeviceId(1), AccessKind::Write, 0x1000, 8);
        assert!(u.check(&req).is_allowed());
        assert!(u.check(&req).is_allowed());
        // Dropping the entry must be visible on the very next check even
        // though the previous verdict for this page was cached.
        u.set_entry(idx, None).unwrap();
        assert!(u.check(&req).is_denied());
        let s = u.stats();
        assert!(s.cache_view_rebuilds >= 2);
    }

    #[test]
    fn block_unblock_round_trips_through_cache() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(MdIndex(0), entry(0x1000, 0x1000, Permissions::rw()))
            .unwrap();
        let req = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8);
        assert!(u.check(&req).is_allowed());
        u.block_sid(sid);
        assert!(matches!(u.check(&req), CheckOutcome::Stalled { .. }));
        u.unblock_sid(sid);
        assert!(u.check(&req).is_allowed());
    }

    #[test]
    fn multi_page_requests_bypass_the_cache() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(MdIndex(0), entry(0x1000, 0x4000, Permissions::rw()))
            .unwrap();
        // Spans two pages: eligible for neither lookup nor insert.
        let req = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1ffc, 16);
        assert!(u.check(&req).is_allowed());
        assert!(u.check(&req).is_allowed());
        let s = u.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
    }

    #[test]
    fn disabled_cache_still_checks_correctly() {
        let cfg = SiopmpConfig {
            decision_cache_slots: 0,
            ..SiopmpConfig::small()
        };
        let mut u = Siopmp::build(cfg, None);
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(MdIndex(0), entry(0x1000, 0x1000, Permissions::rw()))
            .unwrap();
        let req = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8);
        assert!(u.check(&req).is_allowed());
        assert!(u.check(&req).is_allowed());
        let s = u.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
        assert_eq!(s.cache_view_rebuilds, 0);
    }

    #[test]
    fn shared_handle_agrees_with_owner() {
        let mut u = unit();
        let shared = u.share();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(MdIndex(0), entry(0x1000, 0x1000, Permissions::rw()))
            .unwrap();
        let allow = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8);
        let deny = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x9000, 8);
        // The handle sees mutations made after `share()` was called.
        assert_eq!(shared.check(&allow), u.check(&allow));
        assert_eq!(shared.check(&deny), u.check(&deny));
        assert_eq!(shared.generation(), u.generation());
        // Both paths feed the same counters and the same violation log.
        assert_eq!(shared.stats(), u.stats());
        assert_eq!(u.stats().checks, 4);
        assert_eq!(u.violation_log().len(), 2);
    }

    #[test]
    fn owner_clone_publishes_independently() {
        let mut u = unit();
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        let idx = u
            .install_entry(MdIndex(0), entry(0x1000, 0x1000, Permissions::rw()))
            .unwrap();
        let shared = u.share();
        let mut fork = u.clone();
        // Mutating the clone does not affect the original's handles...
        fork.set_entry(idx, None).unwrap();
        let req = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8);
        assert!(shared.check(&req).is_allowed());
        assert!(fork.check(&req).is_denied());
        // ...and vice versa.
        let gen_before = shared.generation();
        u.set_entry(idx, None).unwrap();
        assert!(shared.generation() > gen_before);
        assert!(shared.check(&req).is_denied());
    }

    #[test]
    fn violation_log_is_a_bounded_ring() {
        let cfg = SiopmpConfig {
            violation_log_capacity: 2,
            ..SiopmpConfig::small()
        };
        let mut u = Siopmp::build(cfg, None);
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        for i in 0..4u64 {
            let req = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x9000 + i * 0x10, 8);
            assert!(u.check(&req).is_denied());
        }
        assert_eq!(u.violation_log().len(), 2);
        assert_eq!(u.stats().violation_log_dropped, 2);
        // The survivors are the two newest records.
        let addrs: Vec<u64> = u.violation_log().iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0x9020, 0x9030]);
        // Draining resets the ring but not the dropped counter.
        assert_eq!(u.take_violations().len(), 2);
        assert!(u.violation_log().is_empty());
        assert_eq!(u.stats().violation_log_dropped, 2);
    }

    /// Builds a unit whose device 1 has no matching entry, so every probe
    /// at a distinct address lands in the violation log.
    fn violating_unit(capacity: usize) -> Siopmp {
        let cfg = SiopmpConfig {
            violation_log_capacity: capacity,
            ..SiopmpConfig::small()
        };
        let mut u = Siopmp::build(cfg, None);
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u
    }

    fn violate_at(u: &mut Siopmp, addr: u64) {
        let req = DmaRequest::new(DeviceId(1), AccessKind::Read, addr, 8);
        assert!(u.check(&req).is_denied());
    }

    #[test]
    fn violation_ring_preserves_order_at_and_past_capacity() {
        let mut u = violating_unit(4);
        // Exactly at capacity: nothing dropped, insertion order kept.
        for i in 0..4u64 {
            violate_at(&mut u, 0x9000 + i * 0x10);
        }
        assert_eq!(u.stats().violation_log_dropped, 0);
        let addrs: Vec<u64> = u.violation_log().iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0x9000, 0x9010, 0x9020, 0x9030]);
        // Push well past capacity — more than one full wraparound — and
        // the survivors must still be the newest records, oldest first.
        for i in 4..13u64 {
            violate_at(&mut u, 0x9000 + i * 0x10);
        }
        assert_eq!(u.violation_log().len(), 4);
        let addrs: Vec<u64> = u.violation_log().iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0x9090, 0x90A0, 0x90B0, 0x90C0]);
    }

    #[test]
    fn violation_ring_dropped_counter_counts_every_eviction() {
        let mut u = violating_unit(3);
        for i in 0..10u64 {
            violate_at(&mut u, 0x9000 + i * 0x10);
            let expected = i.saturating_sub(2); // first 3 fit for free
            assert_eq!(u.stats().violation_log_dropped, expected);
        }
        // Drained records are not drops; the counter is monotonic.
        u.take_violations();
        assert_eq!(u.stats().violation_log_dropped, 7);
        violate_at(&mut u, 0xA000);
        assert_eq!(u.stats().violation_log_dropped, 7);
    }

    #[test]
    fn violation_ring_resizes_mid_run() {
        let mut u = violating_unit(4);
        for i in 0..4u64 {
            violate_at(&mut u, 0x9000 + i * 0x10);
        }
        // Shrinking evicts the oldest records and counts each one.
        u.set_violation_log_capacity(2).unwrap();
        assert_eq!(u.stats().violation_log_dropped, 2);
        let addrs: Vec<u64> = u.violation_log().iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0x9020, 0x9030]);
        // Growing keeps the survivors and restores headroom.
        u.set_violation_log_capacity(5).unwrap();
        for i in 0..3u64 {
            violate_at(&mut u, 0xA000 + i * 0x10);
        }
        assert_eq!(u.violation_log().len(), 5);
        assert_eq!(u.stats().violation_log_dropped, 2);
        violate_at(&mut u, 0xB000);
        assert_eq!(u.violation_log().len(), 5);
        assert_eq!(u.stats().violation_log_dropped, 3);
        let addrs: Vec<u64> = u.violation_log().iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0x9030, 0xA000, 0xA010, 0xA020, 0xB000]);
        // A zero capacity is rejected without disturbing the ring.
        assert!(matches!(
            u.set_violation_log_capacity(0),
            Err(SiopmpError::InvalidConfig(_))
        ));
        assert_eq!(u.violation_log().len(), 5);
    }

    impl Siopmp {
        fn src2md_domains(&self, sid: SourceId) -> Vec<MdIndex> {
            self.src2md.domains_of(sid).unwrap()
        }
    }
}
