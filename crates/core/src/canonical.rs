//! Canonical encoding of a unit's *policy-relevant* state.
//!
//! The bounded model checker (`siopmp-prove`) explores the graph of
//! configurations reachable through the monitor-facing mutator API. Two
//! mutator sequences frequently land on the same configuration — install
//! then remove, block then unblock, remount the mounted device — and the
//! sweep only completes in CI because such states are deduplicated. The
//! dedup key is the [`CanonicalState`]: a deterministic byte encoding of
//! everything that can influence a *future* check verdict or a future
//! mutator's outcome, and nothing else.
//!
//! Included: the configuration knobs that shape verdicts, the CAM rows
//! **with their clock
//! reference bits** (they steer [`crate::Siopmp::promote_with_eviction`]'s
//! victim choice, so states differing only in reference bits can still
//! transition differently), the SRC2MD associations, the MDCFG windows,
//! the entry table, the extended/mountable table, the eSID mount point
//! and the block bitmap.
//!
//! Excluded: the publish generation (a monotone counter — keying on it
//! would make every state unique and the dedup vacuous),
//! telemetry counters, the violation log and its capacity, the compiled
//! per-SID views, and whether the unit walks them or the reference path
//! (all observability or derived state, none of it feeds back into
//! verdicts).
//!
//! The encoding is self-delimiting (every variable-length section is
//! length-prefixed), so distinct states cannot collide byte-wise; the
//! [`CanonicalState::fingerprint`] is FNV-1a over those bytes for cheap
//! hash-set membership, with the full encoding available when a checker
//! wants collision-proof dedup.

/// One encoded IOPMP rule: `(base, len, range_kind, perms, locked)`.
pub type CanonicalRule = (u64, u64, u8, u8, bool);

/// One extended-table record: `(device, domain_mask, rules)`.
pub type CanonicalColdRecord = (u64, u64, Vec<CanonicalRule>);

/// Policy-relevant state captured from a [`crate::Siopmp`] via
/// [`crate::Siopmp::canonical_state`]. Field order is encoding order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalState {
    /// The [`crate::SiopmpConfig`] fields that shape verdicts — geometry,
    /// checker strategy, violation mode, placement and mountability — in
    /// one stable string. Cache sizing and the violation-log capacity are
    /// left out.
    pub config: String,
    /// CAM rows `(sid, device, reference_bit)` in SID order.
    pub hot: Vec<(u16, u64, bool)>,
    /// Per-SID memory-domain bitmask (bit `m` = associated with MD `m`).
    pub domains: Vec<u64>,
    /// Per-MD `(start, end)` entry-index windows.
    pub windows: Vec<(u32, u32)>,
    /// Occupied entry slots `(index, base, len, range_kind, perms, locked)`.
    pub entries: Vec<(u32, u64, u64, u8, u8, bool)>,
    /// Extended-table records `(device, domain_mask, rules)` sorted by
    /// device id; rules are `(base, len, range_kind, perms, locked)`.
    pub cold: Vec<CanonicalColdRecord>,
    /// The device currently mounted at the eSID, if any.
    pub mounted: Option<u64>,
    /// Per-SID block bits.
    pub blocked: Vec<bool>,
}

impl CanonicalState {
    /// The deterministic, self-delimiting byte encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        push_bytes(&mut out, self.config.as_bytes());
        push_len(&mut out, self.hot.len());
        for &(sid, dev, referenced) in &self.hot {
            out.extend_from_slice(&sid.to_le_bytes());
            out.extend_from_slice(&dev.to_le_bytes());
            out.push(referenced as u8);
        }
        push_len(&mut out, self.domains.len());
        for &mask in &self.domains {
            out.extend_from_slice(&mask.to_le_bytes());
        }
        push_len(&mut out, self.windows.len());
        for &(start, end) in &self.windows {
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&end.to_le_bytes());
        }
        push_len(&mut out, self.entries.len());
        for &(idx, base, len, kind, perms, locked) in &self.entries {
            out.extend_from_slice(&idx.to_le_bytes());
            push_rule(&mut out, base, len, kind, perms, locked);
        }
        push_len(&mut out, self.cold.len());
        for (dev, mask, rules) in &self.cold {
            out.extend_from_slice(&dev.to_le_bytes());
            out.extend_from_slice(&mask.to_le_bytes());
            push_len(&mut out, rules.len());
            for &(base, len, kind, perms, locked) in rules {
                push_rule(&mut out, base, len, kind, perms, locked);
            }
        }
        match self.mounted {
            Some(dev) => {
                out.push(1);
                out.extend_from_slice(&dev.to_le_bytes());
            }
            None => out.push(0),
        }
        push_len(&mut out, self.blocked.len());
        for &b in &self.blocked {
            out.push(b as u8);
        }
        out
    }

    /// 64-bit FNV-1a over [`CanonicalState::encode`].
    pub fn fingerprint(&self) -> u64 {
        fnv1a_extend(FNV_OFFSET, &self.encode())
    }
}

/// FNV-1a 64-bit offset basis — the seed value of every measurement
/// hash and hash chain in the workspace (policy fingerprints, the
/// monitor's measured-switch chain, the attested config journal).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running 64-bit FNV-1a hash `h`. Start from
/// [`FNV_OFFSET`] and chain calls to hash multi-part records — this is
/// the primitive behind [`CanonicalState::fingerprint`] and the
/// hash-chained measurement records (monitor cold switches, the
/// `siopmp-serviced` config journal).
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn push_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u64).to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    push_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn push_rule(out: &mut Vec<u8>, base: u64, len: u64, kind: u8, perms: u8, locked: bool) {
    out.extend_from_slice(&base.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind);
    out.push(perms);
    out.push(locked as u8);
}

#[cfg(test)]
mod tests {
    use crate::entry::{AddressRange, IopmpEntry, Permissions};
    use crate::ids::{DeviceId, MdIndex};
    use crate::{Siopmp, SiopmpConfig};

    fn unit() -> Siopmp {
        grant_one_page(Siopmp::build(SiopmpConfig::small(), None))
    }

    /// Device 1 granted `[0x1000, 0x2000)` rw through MD 0.
    fn grant_one_page(mut u: Siopmp) -> Siopmp {
        let sid = u.map_hot_device(DeviceId(1)).unwrap();
        u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        u.install_entry(
            MdIndex(0),
            IopmpEntry::new(
                AddressRange::new(0x1000, 0x1000).unwrap(),
                Permissions::rw(),
            ),
        )
        .unwrap();
        u
    }

    #[test]
    fn identical_configurations_share_a_fingerprint() {
        let a = unit();
        let b = unit();
        assert_eq!(a.canonical_state(), b.canonical_state());
        assert_eq!(
            a.canonical_state().fingerprint(),
            b.canonical_state().fingerprint()
        );
        assert_eq!(a.canonical_state().encode(), b.canonical_state().encode());
    }

    #[test]
    fn different_routes_to_the_same_policy_converge() {
        let a = unit();
        let mut b = unit();
        // Install-then-remove and block-then-unblock are policy no-ops.
        let idx = b
            .install_entry(
                MdIndex(0),
                IopmpEntry::new(
                    AddressRange::new(0x8000, 0x1000).unwrap(),
                    Permissions::rw(),
                ),
            )
            .unwrap();
        b.set_entry(idx, None).unwrap();
        let (sid, _) = b.hot_devices()[0];
        b.block_sid(sid);
        b.unblock_sid(sid);
        // The generation moved; the canonical state must not have.
        assert!(b.generation() > a.generation());
        assert_eq!(a.canonical_state(), b.canonical_state());
    }

    #[test]
    fn every_policy_dimension_lands_in_the_encoding() {
        let base = unit().canonical_state();
        // Entry change.
        let mut u = unit();
        u.install_entry(
            MdIndex(1),
            IopmpEntry::new(
                AddressRange::new(0x4000, 0x1000).unwrap(),
                Permissions::read_only(),
            ),
        )
        .unwrap();
        assert_ne!(u.canonical_state(), base);
        // Block-bit change.
        let mut u = unit();
        let (sid, _) = u.hot_devices()[0];
        u.block_sid(sid);
        assert_ne!(u.canonical_state(), base);
        // Extended-table / mount change.
        let mut u = unit();
        u.register_cold_device(
            DeviceId(9),
            crate::mountable::MountableEntry {
                domains: vec![],
                entries: vec![],
            },
        )
        .unwrap();
        let with_record = u.canonical_state();
        assert_ne!(with_record, base);
        u.handle_sid_missing(DeviceId(9)).unwrap();
        assert_ne!(u.canonical_state(), with_record);
    }

    #[test]
    fn fingerprint_ignores_cache_sizing_and_log_capacity() {
        let base = unit().policy_fingerprint();
        let mut u = unit();
        u.set_violation_log_capacity(8).unwrap();
        assert_eq!(u.policy_fingerprint(), base);
        // The reference walk decides like the index: same policy, same
        // fingerprint.
        let reference = grant_one_page(Siopmp::build_reference(SiopmpConfig::small(), None));
        assert_eq!(reference.policy_fingerprint(), base);
        // A geometry change is policy: it must move the fingerprint.
        let wider = Siopmp::build(
            SiopmpConfig {
                num_entries: 64,
                ..SiopmpConfig::small()
            },
            None,
        );
        let narrow = Siopmp::build(SiopmpConfig::small(), None);
        assert_ne!(wider.policy_fingerprint(), narrow.policy_fingerprint());
    }

    #[test]
    fn probing_through_shared_handles_is_state_neutral() {
        let u = unit();
        let before = u.canonical_state();
        let shared = u.share();
        for addr in [0x0u64, 0xfff, 0x1000, 0x1fff, 0x2000] {
            for kind in [
                crate::request::AccessKind::Read,
                crate::request::AccessKind::Write,
            ] {
                let _ = shared.check(&crate::request::DmaRequest::new(DeviceId(1), kind, addr, 8));
            }
        }
        assert_eq!(u.canonical_state(), before);
    }
}
