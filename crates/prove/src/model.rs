//! The bounded world the prover explores.
//!
//! A [`Model`] pins down everything the exhaustive search needs to stay
//! finite: a concrete starting [`Siopmp`] unit, a per-tenant description
//! of which devices, memory domains, candidate entries and mountable
//! records the monitor may legally use, and a coarse probe grid aligned
//! to every region boundary the entry candidates can produce.
//!
//! The isolation invariant is stated against the tenant table: a DMA
//! access that the hardware allows must come from a device the model
//! knows, and must lie entirely inside that device's tenant region.
//! Because the candidate entries, records and association targets a
//! mutator may install are all drawn from the owning tenant's lists, a
//! *legal* mutator sequence can never widen any SID's reach beyond its
//! tenant region — which is exactly what [`crate::explore::explore`]
//! proves by enumeration, and what the planted mutations in
//! [`crate::mutations`] break on purpose.

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_verify::{CapabilityMap, DeviceGrants, MemoryGrant, TeeRegion};

/// A device the model tracks but no tenant owns: probes from it must
/// never be allowed in any reachable state.
pub const UNKNOWN_DEVICE: DeviceId = DeviceId(0xDEAD);

/// One tenant (TEE) in the bounded world: its exclusive memory region
/// and the raw material its monitor may legally wire into the unit.
#[derive(Debug, Clone)]
pub struct TenantModel {
    /// Numeric TEE id (also the capability-map `tee` value).
    pub id: u32,
    /// Exclusive memory region `[base, end)` owned by this tenant.
    pub region: (u64, u64),
    /// Devices that may be mapped hot through the CAM.
    pub hot_devices: Vec<DeviceId>,
    /// Devices that start life in the extended (cold) table.
    pub cold_devices: Vec<DeviceId>,
    /// Memory domains the tenant's SIDs may associate with.
    pub mds: Vec<MdIndex>,
    /// Candidate entries (all inside `region`) the monitor may install.
    pub entry_grid: Vec<IopmpEntry>,
    /// Candidate extended-table records (all inside `region`).
    pub records: Vec<MountableEntry>,
}

impl TenantModel {
    /// Whether `device` belongs to this tenant.
    pub fn owns(&self, device: DeviceId) -> bool {
        self.hot_devices.contains(&device) || self.cold_devices.contains(&device)
    }

    /// Whether `[addr, addr+len)` lies entirely inside the tenant region.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        match addr.checked_add(len) {
            Some(end) => addr >= self.region.0 && end <= self.region.1,
            None => false,
        }
    }
}

/// The complete bounded world: initial unit, tenant table, probe grid.
#[derive(Debug, Clone)]
pub struct Model {
    /// Display name (shows up in the JSON report).
    pub name: String,
    /// The state exploration starts from. Rebuilding a state replays a
    /// mutator path against a clone of this unit.
    pub initial: Siopmp,
    /// The tenant table the isolation invariant is stated against.
    pub tenants: Vec<TenantModel>,
    /// Probe addresses — every region boundary ±1 plus out-of-bounds.
    pub probe_addrs: Vec<u64>,
    /// Probe lengths — zero, a byte, and a full window.
    pub probe_lens: Vec<u64>,
}

impl Model {
    /// All devices the model knows, ascending, plus [`UNKNOWN_DEVICE`].
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self
            .tenants
            .iter()
            .flat_map(|t| t.hot_devices.iter().chain(&t.cold_devices).copied())
            .collect();
        out.sort_by_key(|d| d.0);
        out.dedup();
        out.push(UNKNOWN_DEVICE);
        out
    }

    /// The tenant owning `device`, if any.
    pub fn tenant_of(&self, device: DeviceId) -> Option<&TenantModel> {
        self.tenants.iter().find(|t| t.owns(device))
    }

    /// The full probe grid evaluated at every explored state: every
    /// device (plus the unknown one) × read/write × boundary-aligned
    /// addresses × lengths.
    pub fn probes(&self) -> Vec<DmaRequest> {
        let mut out = Vec::new();
        for device in self.devices() {
            for kind in [AccessKind::Read, AccessKind::Write] {
                for &addr in &self.probe_addrs {
                    for &len in &self.probe_lens {
                        out.push(DmaRequest::new(device, kind, addr, len));
                    }
                }
            }
        }
        out
    }

    /// A reduced grid (single-byte probes only) used for the pinned
    /// -snapshot stability check run on *every* cold-switch transition —
    /// small enough to pay twice per switch, still boundary-complete.
    pub fn atomicity_probes(&self) -> Vec<DmaRequest> {
        let mut out = Vec::new();
        for device in self.devices() {
            for kind in [AccessKind::Read, AccessKind::Write] {
                for &addr in &self.probe_addrs {
                    out.push(DmaRequest::new(device, kind, addr, 1));
                }
            }
        }
        out
    }

    /// The capability map the cross-validation hands to the analyzer:
    /// every device holds a live rw grant over its whole tenant region,
    /// and every tenant region is enclave memory of its TEE. In a legal
    /// state this map produces **zero** Error diagnostics; any Error the
    /// analyzer raises must therefore be corroborated by an allowed
    /// probe inside the flagged region or it counts as a false positive.
    pub fn caps(&self) -> CapabilityMap {
        let mut devices = Vec::new();
        let mut regions = Vec::new();
        for t in &self.tenants {
            let (base, end) = t.region;
            regions.push(TeeRegion {
                tee: t.id,
                base,
                len: end - base,
            });
            for &device in t.hot_devices.iter().chain(&t.cold_devices) {
                devices.push(DeviceGrants {
                    device,
                    tee: t.id,
                    grants: vec![MemoryGrant {
                        base,
                        len: end - base,
                        read: true,
                        write: true,
                    }],
                });
            }
        }
        CapabilityMap { devices, regions }
    }

    /// The micro world the `siopmp-prove` binary explores: two tenants
    /// with adjacent 8 KiB regions, one hot and one cold device each,
    /// one hot memory domain per tenant (two entry slots), a one-slot
    /// cold window, four candidate entries and three candidate records
    /// per tenant.
    ///
    /// Small enough that breadth-first search reaches tens of thousands
    /// of *canonically distinct* configurations within a few mutator
    /// steps; rich enough to exercise every mutator in the alphabet,
    /// CAM eviction (3 hot SIDs, up to 4 promotable devices), cold
    /// mount/remount/promote churn, entry shadowing (a `none` guard
    /// entry) and the per-SID interval index.
    pub fn two_tenant_micro() -> Model {
        let mut config = SiopmpConfig::small();
        config.num_sids = 4; // 3 hot SIDs + the cold mount SID
        config.num_mds = 3; // MD0 = tenant 0, MD1 = tenant 1, MD2 = cold
        config.num_entries = 5; // windows: MD0 [0,2), MD1 [2,4), MD2 [4,5)
        config.cold_md_entries = 1;
        config.violation_log_capacity = 64;
        let initial = Siopmp::build(config, None);

        let tenant = |id: u32, base: u64, hot: u64, cold: u64, md: u16| {
            let rw = Permissions::rw();
            let ro = Permissions::read_only();
            let grid = vec![
                IopmpEntry::new(AddressRange::new(base, 0x1000).unwrap(), rw),
                IopmpEntry::new(AddressRange::new(base + 0x1000, 0x1000).unwrap(), ro),
                IopmpEntry::new(AddressRange::new(base, 0x2000).unwrap(), rw),
                // A guard entry: shadows anything below it in priority.
                IopmpEntry::new(
                    AddressRange::new(base, 0x1000).unwrap(),
                    Permissions::none(),
                ),
            ];
            let records = vec![
                MountableEntry {
                    domains: vec![],
                    entries: vec![],
                },
                MountableEntry {
                    domains: vec![],
                    entries: vec![IopmpEntry::new(
                        AddressRange::new(base, 0x1000).unwrap(),
                        rw,
                    )],
                },
                // A record that also rides the tenant's hot domain.
                MountableEntry {
                    domains: vec![MdIndex(md)],
                    entries: vec![IopmpEntry::new(
                        AddressRange::new(base + 0x1000, 0x1000).unwrap(),
                        ro,
                    )],
                },
            ];
            TenantModel {
                id,
                region: (base, base + 0x2000),
                hot_devices: vec![DeviceId(hot)],
                cold_devices: vec![DeviceId(cold)],
                mds: vec![MdIndex(md)],
                entry_grid: grid,
                records,
            }
        };

        Model {
            name: "two-tenant-micro".to_string(),
            initial,
            tenants: vec![tenant(0, 0x0, 1, 3, 0), tenant(1, 0x2000, 2, 4, 1)],
            probe_addrs: vec![
                0x0, 0xfff, 0x1000, 0x1fff, 0x2000, 0x2fff, 0x3000, 0x3fff, 0x4000,
            ],
            probe_lens: vec![0, 1, 0x1000],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_model_is_internally_consistent() {
        let m = Model::two_tenant_micro();
        assert_eq!(m.tenants.len(), 2);
        for t in &m.tenants {
            for e in &t.entry_grid {
                assert!(
                    e.range().base() >= t.region.0 && e.range().end() <= t.region.1,
                    "grid entry escapes the tenant region"
                );
            }
            for r in &t.records {
                for e in &r.entries {
                    assert!(e.range().base() >= t.region.0 && e.range().end() <= t.region.1);
                }
            }
        }
        // Regions are disjoint.
        assert!(m.tenants[0].region.1 <= m.tenants[1].region.0);
        // The probe grid covers both regions and beyond.
        assert!(m.probe_addrs.iter().any(|&a| a >= m.tenants[1].region.1));
        assert!(m.probes().len() > 200);
        assert!(m.tenant_of(UNKNOWN_DEVICE).is_none());
    }

    #[test]
    fn caps_map_grants_each_device_its_whole_region() {
        let m = Model::two_tenant_micro();
        let caps = m.caps();
        assert_eq!(caps.regions.len(), 2);
        for t in &m.tenants {
            for &d in t.hot_devices.iter().chain(&t.cold_devices) {
                let g = caps.grants_for(d).expect("every device has grants");
                assert_eq!(g.tee, t.id);
                assert_eq!(g.grants.len(), 1);
                assert_eq!(g.grants[0].base, t.region.0);
            }
        }
    }
}
