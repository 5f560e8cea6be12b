//! Access policies plugged into the bus checker stage.
//!
//! The simulator separates *timing* (owned by [`crate::sim::BusSim`]) from
//! *authorisation* (this trait), so microbenchmarks can use trivial
//! policies while full-system runs plug in a real [`siopmp::Siopmp`] unit.

use siopmp::ids::{DeviceId, SourceId};
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::CheckOutcome;

/// What the policy decided about one access, mirroring
/// [`siopmp::CheckOutcome`] without the outcome payloads so the bus can
/// account for each class of refusal separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyVerdict {
    /// The access may proceed.
    Allowed,
    /// The access was denied by the protection rules (no match or no
    /// permission) — the bus masks or errors the burst.
    Denied,
    /// The source is temporarily blocked (e.g. mid cold-switch); the
    /// request would be retried by real hardware, the simulator masks it
    /// but reports it as a stall, not a violation.
    Stalled,
    /// The device has no mounted protection state; the monitor must
    /// service a SID-missing interrupt before traffic can flow.
    SidMissing,
}

impl PolicyVerdict {
    /// `true` only for [`PolicyVerdict::Allowed`].
    pub fn is_allowed(self) -> bool {
        matches!(self, PolicyVerdict::Allowed)
    }
}

impl From<&CheckOutcome> for PolicyVerdict {
    fn from(outcome: &CheckOutcome) -> Self {
        match outcome {
            CheckOutcome::Allowed { .. } => PolicyVerdict::Allowed,
            CheckOutcome::Denied(_) => PolicyVerdict::Denied,
            CheckOutcome::Stalled { .. } => PolicyVerdict::Stalled,
            CheckOutcome::SidMissing { .. } => PolicyVerdict::SidMissing,
        }
    }
}

/// A control-plane reconfiguration the fault injector (or a monitor model)
/// applies to the policy *while traffic is in flight*. Trivial policies
/// ignore these; [`SiopmpPolicy`] maps them onto the unit's mutators, which
/// is exactly what makes mid-run SID-block storms, CAM-eviction races and
/// undrained cold switches expressible in a fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Block `sid`: its traffic stalls until unblocked.
    BlockSid(SourceId),
    /// Unblock `sid`.
    UnblockSid(SourceId),
    /// Cold-switch the mountable window to `device` immediately — the
    /// *undrained* switch the quiesce protocol exists to prevent.
    ColdSwitch(DeviceId),
    /// Promote `device` from cold to hot, evicting a CAM victim when the
    /// CAM is full (implicit-switching churn, §4.3).
    CamChurn(DeviceId),
}

/// Decides whether a DMA access is authorised.
///
/// `Send` is required so a whole simulator (policy included) can be moved
/// to — or borrowed by — a worker thread in the parallel sharded engine
/// ([`crate::parallel`]); every policy here is plain owned data, so the
/// bound costs implementors nothing.
pub trait AccessPolicy: Send {
    /// Classifies the access.
    fn decide(&mut self, device: DeviceId, kind: AccessKind, addr: u64, len: u64) -> PolicyVerdict;

    /// Classifies a batch of accesses, in order. Observationally identical
    /// to calling [`AccessPolicy::decide`] once per element — same
    /// verdicts, same counters, same violation records — but
    /// implementations may amortise shared per-batch work: the sIOPMP
    /// adapter resolves each device's SID route once per batch via
    /// [`siopmp::Siopmp::check_batch`]. The bus engine funnels every
    /// cycle's issues through this entry point.
    fn decide_batch(&mut self, reqs: &[(DeviceId, AccessKind, u64, u64)]) -> Vec<PolicyVerdict> {
        reqs.iter()
            .map(|&(device, kind, addr, len)| self.decide(device, kind, addr, len))
            .collect()
    }

    /// Applies a control-plane reconfiguration, returning `true` when the
    /// policy's configuration actually changed. The default ignores every
    /// op — stateless policies have no control plane.
    fn control(&mut self, op: &ControlOp) -> bool {
        let _ = op;
        false
    }

    /// The wrapped [`siopmp::Siopmp`] unit, for policies that have one.
    /// Lets differential tests snapshot the live configuration without
    /// downcasting through `Box<dyn AccessPolicy>`.
    fn siopmp_unit(&self) -> Option<&siopmp::Siopmp> {
        None
    }

    /// Mutable counterpart of [`AccessPolicy::siopmp_unit`].
    fn siopmp_unit_mut(&mut self) -> Option<&mut siopmp::Siopmp> {
        None
    }
}

/// Allows every access (the "no protection" baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAll;

impl AccessPolicy for AllowAll {
    fn decide(&mut self, _: DeviceId, _: AccessKind, _: u64, _: u64) -> PolicyVerdict {
        PolicyVerdict::Allowed
    }
}

/// Denies accesses that touch `[base, base+len)`; everything else passes.
/// Used to create violating traffic in the latency microbenchmarks.
#[derive(Debug, Clone, Copy)]
pub struct DenyRange {
    /// Base of the forbidden region.
    pub base: u64,
    /// Length of the forbidden region.
    pub len: u64,
}

impl AccessPolicy for DenyRange {
    fn decide(&mut self, _: DeviceId, _: AccessKind, addr: u64, len: u64) -> PolicyVerdict {
        let end = addr.saturating_add(len);
        let deny_end = self.base.saturating_add(self.len);
        if addr < deny_end && end > self.base {
            PolicyVerdict::Denied
        } else {
            PolicyVerdict::Allowed
        }
    }
}

/// Adapts a full [`siopmp::Siopmp`] unit as a bus policy. Stalled and
/// SID-missing outcomes surface as their own verdicts so the bus can count
/// them; the owner is expected to service the unit's interrupts between
/// runs.
#[derive(Debug)]
pub struct SiopmpPolicy {
    unit: siopmp::Siopmp,
}

impl SiopmpPolicy {
    /// Wraps `unit`.
    pub fn new(unit: siopmp::Siopmp) -> Self {
        SiopmpPolicy { unit }
    }

    /// Access to the wrapped unit (e.g. to drain violations).
    pub fn unit(&self) -> &siopmp::Siopmp {
        &self.unit
    }

    /// Mutable access to the wrapped unit.
    pub fn unit_mut(&mut self) -> &mut siopmp::Siopmp {
        &mut self.unit
    }

    /// Consumes the adapter, returning the unit.
    pub fn into_inner(self) -> siopmp::Siopmp {
        self.unit
    }
}

impl AccessPolicy for SiopmpPolicy {
    fn decide(&mut self, device: DeviceId, kind: AccessKind, addr: u64, len: u64) -> PolicyVerdict {
        PolicyVerdict::from(&self.unit.check(&DmaRequest::new(device, kind, addr, len)))
    }

    fn decide_batch(&mut self, reqs: &[(DeviceId, AccessKind, u64, u64)]) -> Vec<PolicyVerdict> {
        let reqs: Vec<DmaRequest> = reqs
            .iter()
            .map(|&(device, kind, addr, len)| DmaRequest::new(device, kind, addr, len))
            .collect();
        self.unit
            .check_batch(&reqs)
            .iter()
            .map(PolicyVerdict::from)
            .collect()
    }

    fn control(&mut self, op: &ControlOp) -> bool {
        match *op {
            ControlOp::BlockSid(sid) => {
                if self.unit.is_sid_blocked(sid) {
                    return false;
                }
                self.unit.block_sid(sid);
                true
            }
            ControlOp::UnblockSid(sid) => {
                if !self.unit.is_sid_blocked(sid) {
                    return false;
                }
                self.unit.unblock_sid(sid);
                true
            }
            // A switch to the already-mounted device is a free no-op and
            // does not change configuration, so it reports `false`.
            ControlOp::ColdSwitch(device) => self
                .unit
                .handle_sid_missing(device)
                .map(|report| report.cycles > 0)
                .unwrap_or(false),
            ControlOp::CamChurn(device) => self.unit.promote_with_eviction(device).is_ok(),
        }
    }

    fn siopmp_unit(&self) -> Option<&siopmp::Siopmp> {
        Some(&self.unit)
    }

    fn siopmp_unit_mut(&mut self) -> Option<&mut siopmp::Siopmp> {
        Some(&mut self.unit)
    }
}

/// Adapts a [`siopmp::SharedSiopmp`] handle to the bus policy trait: the
/// checker is *shared*, not owned, so any number of bus shards (or other
/// threads) can check concurrently against one unit while its owner keeps
/// mutating — the software analogue of the paper's multi-port MT checker.
///
/// Compared to [`SiopmpPolicy`] this adapter has no control plane
/// ([`AccessPolicy::control`] reports no change) and exposes no unit
/// reference: reconfiguration belongs to whoever owns the
/// [`siopmp::Siopmp`] writer, typically the monitor thread.
#[derive(Debug, Clone)]
pub struct SharedSiopmpPolicy {
    checker: siopmp::SharedSiopmp,
}

impl SharedSiopmpPolicy {
    /// Wraps a shared checker handle (see [`siopmp::Siopmp::share`]).
    pub fn new(checker: siopmp::SharedSiopmp) -> Self {
        SharedSiopmpPolicy { checker }
    }

    /// The wrapped shared handle.
    pub fn checker(&self) -> &siopmp::SharedSiopmp {
        &self.checker
    }
}

impl AccessPolicy for SharedSiopmpPolicy {
    fn decide(&mut self, device: DeviceId, kind: AccessKind, addr: u64, len: u64) -> PolicyVerdict {
        PolicyVerdict::from(
            &self
                .checker
                .check(&DmaRequest::new(device, kind, addr, len)),
        )
    }

    fn decide_batch(&mut self, reqs: &[(DeviceId, AccessKind, u64, u64)]) -> Vec<PolicyVerdict> {
        let reqs: Vec<DmaRequest> = reqs
            .iter()
            .map(|&(device, kind, addr, len)| DmaRequest::new(device, kind, addr, len))
            .collect();
        self.checker
            .check_batch(&reqs)
            .iter()
            .map(PolicyVerdict::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_all_allows() {
        let mut p = AllowAll;
        assert_eq!(
            p.decide(DeviceId(1), AccessKind::Read, 0, 64),
            PolicyVerdict::Allowed
        );
    }

    #[test]
    fn deny_range_blocks_overlap_only() {
        let mut p = DenyRange {
            base: 0x1000,
            len: 0x100,
        };
        assert_eq!(
            p.decide(DeviceId(1), AccessKind::Read, 0x1000, 8),
            PolicyVerdict::Denied
        );
        assert_eq!(
            p.decide(DeviceId(1), AccessKind::Write, 0x0ff8, 16),
            PolicyVerdict::Denied
        );
        assert!(p
            .decide(DeviceId(1), AccessKind::Read, 0x2000, 8)
            .is_allowed());
        assert!(p
            .decide(DeviceId(1), AccessKind::Read, 0x0f00, 0x100)
            .is_allowed());
    }

    #[test]
    fn control_ops_are_noops_on_stateless_policies() {
        let mut p = AllowAll;
        assert!(!p.control(&ControlOp::BlockSid(SourceId(0))));
        assert!(p.siopmp_unit().is_none());
    }

    #[test]
    fn siopmp_policy_applies_control_ops() {
        use siopmp::mountable::MountableEntry;

        let mut unit = siopmp::Siopmp::build(siopmp::SiopmpConfig::small(), None);
        let sid = unit.map_hot_device(DeviceId(5)).unwrap();
        unit.register_cold_device(
            DeviceId(9),
            MountableEntry {
                domains: vec![],
                entries: vec![],
            },
        )
        .unwrap();
        let mut p = SiopmpPolicy::new(unit);

        assert!(p.control(&ControlOp::BlockSid(sid)));
        assert!(!p.control(&ControlOp::BlockSid(sid)), "already blocked");
        assert_eq!(
            p.decide(DeviceId(5), AccessKind::Read, 0x8000, 64),
            PolicyVerdict::Stalled
        );
        assert!(p.control(&ControlOp::UnblockSid(sid)));

        assert!(p.control(&ControlOp::ColdSwitch(DeviceId(9))));
        assert_eq!(
            p.siopmp_unit().unwrap().mounted_cold_device(),
            Some(DeviceId(9))
        );
        assert!(
            !p.control(&ControlOp::ColdSwitch(DeviceId(9))),
            "no-op remount reports no change"
        );
        assert!(!p.control(&ControlOp::ColdSwitch(DeviceId(404))));

        assert!(p.control(&ControlOp::CamChurn(DeviceId(9))));
        assert!(p.siopmp_unit().unwrap().is_hot(DeviceId(9)));
        assert!(!p.control(&ControlOp::CamChurn(DeviceId(9))), "already hot");
    }

    #[test]
    fn siopmp_policy_maps_each_outcome_class() {
        use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
        use siopmp::ids::MdIndex;
        use siopmp::mountable::MountableEntry;

        let mut unit = siopmp::Siopmp::build(siopmp::SiopmpConfig::small(), None);
        let sid = unit.map_hot_device(DeviceId(5)).unwrap();
        unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        unit.install_entry(
            MdIndex(0),
            IopmpEntry::new(
                AddressRange::new(0x8000, 0x1000).unwrap(),
                Permissions::rw(),
            ),
        )
        .unwrap();
        unit.register_cold_device(
            DeviceId(9),
            MountableEntry {
                domains: vec![],
                entries: vec![],
            },
        )
        .unwrap();

        let mut p = SiopmpPolicy::new(unit);
        assert_eq!(
            p.decide(DeviceId(5), AccessKind::Read, 0x8000, 64),
            PolicyVerdict::Allowed
        );
        assert_eq!(
            p.decide(DeviceId(5), AccessKind::Read, 0x4000, 64),
            PolicyVerdict::Denied
        );
        assert_eq!(
            p.decide(DeviceId(6), AccessKind::Read, 0x8000, 64),
            PolicyVerdict::Denied
        );
        assert_eq!(
            p.decide(DeviceId(9), AccessKind::Read, 0x8000, 64),
            PolicyVerdict::SidMissing
        );
        p.unit_mut().block_sid(sid);
        assert_eq!(
            p.decide(DeviceId(5), AccessKind::Read, 0x8000, 64),
            PolicyVerdict::Stalled
        );
        assert_eq!(p.unit().stats().violations, 2);
    }

    #[test]
    fn shared_policy_matches_owned_policy_verdicts() {
        use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
        use siopmp::ids::MdIndex;

        let mut unit = siopmp::Siopmp::build(siopmp::SiopmpConfig::small(), None);
        let sid = unit.map_hot_device(DeviceId(5)).unwrap();
        unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        unit.install_entry(
            MdIndex(0),
            IopmpEntry::new(
                AddressRange::new(0x8000, 0x1000).unwrap(),
                Permissions::rw(),
            ),
        )
        .unwrap();

        let mut shared = SharedSiopmpPolicy::new(unit.share());
        let mut owned = SiopmpPolicy::new(unit);
        let probes = [
            (DeviceId(5), AccessKind::Read, 0x8000u64, 64u64),
            (DeviceId(5), AccessKind::Write, 0x4000, 64),
            (DeviceId(6), AccessKind::Read, 0x8000, 64),
        ];
        for &(d, k, a, l) in &probes {
            assert_eq!(shared.decide(d, k, a, l), owned.decide(d, k, a, l));
        }
        assert_eq!(shared.decide_batch(&probes), owned.decide_batch(&probes));
        // The shared adapter has no control plane: ops report no change
        // and the configuration (owned by the unit's writer) is untouched.
        assert!(!shared.control(&ControlOp::BlockSid(sid)));
        assert_eq!(
            shared.decide(DeviceId(5), AccessKind::Read, 0x8000, 64),
            PolicyVerdict::Allowed
        );
        // Writer-side mutations are visible through the shared adapter.
        owned.unit_mut().block_sid(sid);
        assert_eq!(
            shared.decide(DeviceId(5), AccessKind::Read, 0x8000, 64),
            PolicyVerdict::Stalled
        );
    }
}
