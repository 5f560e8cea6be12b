//! Property-based tests for the monitor's capability layer: privilege can
//! only shrink, ownership checks gate every mutation, and revocation is
//! total over derivation trees. The last property drives whole TEE
//! lifecycles and checks the hardware state against the capabilities.

use siopmp_testkit::{check, check_eq, prop_check, Gen};

use siopmp::error::SiopmpError;
use siopmp::ids::DeviceId;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::SiopmpConfig;
use siopmp_monitor::cap::{Capability, MemPerms};
use siopmp_monitor::ownership::{CapTable, EntityId};
use siopmp_monitor::{CapId, MonitorError, SecureMonitor, TeeId};

fn arb_entity(g: &mut Gen) -> EntityId {
    match g.u8(0..3) {
        0 => EntityId::Monitor,
        1 => EntityId::BootSystem,
        _ => EntityId::Tee(g.u32(0..4)),
    }
}

fn arb_perms(g: &mut Gen) -> MemPerms {
    MemPerms {
        read: g.bool(),
        write: g.bool(),
    }
}

/// Derivation chains are monotone: any capability reachable by
/// derivation covers a subset of what its ancestor covers.
#[test]
fn derivation_is_monotone() {
    prop_check(96, |g| {
        let steps = g.vec(1..10, |g| {
            (g.u64(0..0x1000), g.u64(1..0x1000), arb_perms(g))
        });
        let root = Capability::Memory {
            base: 0,
            len: 0x1_0000,
            perms: MemPerms::rw(),
        };
        let mut current = root;
        for (off, len, perms) in steps {
            let (cbase, clen) = match current {
                Capability::Memory { base, len, .. } => (base, len),
                Capability::Device { .. } => unreachable!(),
            };
            let base = cbase + off % clen.max(1);
            let len = len.min(cbase + clen - base).max(1);
            if let Ok(child) = current.derive_memory(base, len, perms) {
                // Everything the child covers, the parent covers too.
                check!(current.covers(base, len, perms));
                // Probe a few points.
                for probe in [base, base + len / 2, base + len - 1] {
                    if child.covers(probe, 1, perms) {
                        check!(current.covers(probe, 1, perms));
                        check!(root.covers(probe, 1, perms));
                    }
                }
                current = child;
            }
        }
        Ok(())
    });
}

/// Only the owner can transfer or derive; ownership transfers compose
/// into a faithful chain.
#[test]
fn ownership_gates_every_mutation() {
    prop_check(96, |g| {
        let transfers = g.vec(1..20, |g| (arb_entity(g), arb_entity(g)));
        let mut table = CapTable::new();
        let id = table.mint(Capability::Memory {
            base: 0,
            len: 0x1000,
            perms: MemPerms::rw(),
        });
        let mut owner = EntityId::Monitor;
        let mut chain_len = 1usize;
        for (actor, to) in transfers {
            let result = table.transfer(actor, id, to);
            if actor == owner {
                check!(result.is_ok());
                owner = to;
                chain_len += 1;
            } else {
                check!(result.is_err());
            }
            check_eq!(table.owner(id).unwrap(), owner);
            check_eq!(table.chain(id).unwrap().len(), chain_len);
        }
        Ok(())
    });
}

/// Revoking a capability revokes the entire derivation subtree and
/// nothing outside it.
#[test]
fn revocation_is_exactly_the_subtree() {
    prop_check(64, |g| {
        let split = g.u64(1..15);
        let mut table = CapTable::new();
        let a = table.mint(Capability::Memory {
            base: 0,
            len: 0x1000,
            perms: MemPerms::rw(),
        });
        let b = table.mint(Capability::Memory {
            base: 0x1000,
            len: 0x1000,
            perms: MemPerms::rw(),
        });
        // Build a chain of derivations under `a`.
        let mut subtree = vec![a];
        let mut parent = a;
        for i in 0..split.min(6) {
            // Nested shrinking windows: each child strictly inside its
            // parent's range.
            let child = table
                .derive(EntityId::Monitor, parent, i * 8, 64 - i * 8, MemPerms::ro())
                .unwrap();
            subtree.push(child);
            parent = child;
        }
        let revoked = table.revoke(EntityId::Monitor, a).unwrap();
        check_eq!(revoked, subtree.len());
        for id in subtree {
            check!(table.capability(id).is_err());
        }
        // `b` is untouched.
        check!(table.capability(b).is_ok());
        Ok(())
    });
}

/// One live TEE as the property test sees it: its memory and device
/// capabilities.
struct TeeCaps {
    id: TeeId,
    mems: Vec<CapId>,
    devices: Vec<(DeviceId, CapId)>,
}

/// Devices bound to a live TEE, per the monitor's exported capability map.
fn bound_devices(m: &SecureMonitor) -> Vec<DeviceId> {
    m.capability_map()
        .devices
        .iter()
        .map(|g| g.device)
        .collect()
}

/// Random create / map / unmap / destroy / check sequences on a unit with
/// two hot SIDs, so most TEEs hold cold devices too. A create that names a
/// device some TEE already binds, hot or cold, is refused. After every
/// call, including refused ones, the analyzer finds no Error against the
/// live capability map, and a device bound to no TEE is never allowed — in
/// particular a destroyed TEE's device, until a later TEE binds it.
#[test]
fn tee_lifecycles_leave_no_stale_grants() {
    const DEVICES: u64 = 5;
    prop_check(256, |g| {
        let mut cfg = SiopmpConfig::small();
        cfg.num_sids = 3;
        let mut m = SecureMonitor::build(cfg, None);
        let mut live: Vec<TeeCaps> = Vec::new();
        let mut dead: Vec<TeeId> = Vec::new();
        let mut created = 0u64;
        // Every (device, address) a successful map ever granted.
        let mut granted: Vec<(DeviceId, u64)> = Vec::new();
        // Weighted: create 3, map 7, unmap 4, destroy 2, check 4.
        let ops = g.vec(1..48, |g| g.u8(0..20));
        for (step, op) in ops.into_iter().enumerate() {
            let call = match op {
                0..=2 => {
                    let bound = bound_devices(&m);
                    let (mut picked, free): (Vec<DeviceId>, Vec<DeviceId>) =
                        (0..DEVICES).map(DeviceId).partition(|d| bound.contains(d));
                    // Sometimes one device some TEE already binds, placed
                    // anywhere among the free ones.
                    let taken =
                        (!picked.is_empty() && g.bool_with(0.25)).then(|| *g.choose(&picked));
                    picked.clear();
                    if !free.is_empty() {
                        picked.extend(&free[..g.usize(1..free.len().min(3) + 1)]);
                    }
                    if let Some(d) = taken {
                        let at = g.usize(0..picked.len() + 1);
                        picked.insert(at, d);
                    }
                    if picked.is_empty() {
                        continue;
                    }
                    // A fresh, disjoint region per TEE, split over two
                    // memory capabilities.
                    let base = 0x8000_0000 + created * 0x10_0000;
                    created += 1;
                    let mems = vec![
                        m.mint_memory(base, 0x8000, MemPerms::rw()),
                        m.mint_memory(base + 0x8000, 0x8000, MemPerms::rw()),
                    ];
                    let devices: Vec<(DeviceId, CapId)> =
                        picked.iter().map(|&d| (d, m.mint_device(d))).collect();
                    let caps = mems
                        .iter()
                        .copied()
                        .chain(devices.iter().map(|&(_, c)| c))
                        .collect();
                    let result = m.create_tee(caps);
                    let call = format!("create {devices:?} -> {result:?}");
                    match (result, taken) {
                        (Ok(id), None) => live.push(TeeCaps { id, mems, devices }),
                        (Err(_), None) => {}
                        (Err(MonitorError::Hw(SiopmpError::DeviceAlreadyMapped(d))), Some(t))
                            if d == t => {}
                        // Running out of memory domains may come first.
                        (Err(MonitorError::NoFreeMd), Some(_)) => {}
                        (result, Some(_)) => {
                            return Err(format!(
                                "step {step} ({call}): a bound device was bound again: {result:?}"
                            ))
                        }
                    }
                    call
                }
                3..=9 if !live.is_empty() => {
                    let tee = &live[g.usize(0..live.len())];
                    let (device, dev) = *g.choose(&tee.devices);
                    // Mostly the TEE's own memory, sometimes another's.
                    let owner = if g.bool_with(0.85) {
                        tee
                    } else {
                        &live[g.usize(0..live.len())]
                    };
                    let mem = *g.choose(&owner.mems);
                    let Ok(Capability::Memory { base, .. }) = m.caps().capability(mem) else {
                        return Err(format!(
                            "step {step}: live memory capability {mem:?} missing"
                        ));
                    };
                    // Some maps overrun the capability and are refused.
                    let addr = base + g.u64(0..0x88) * 0x100;
                    let len = g.u64(1..0x10) * 0x100;
                    let perms = if g.bool() {
                        MemPerms::rw()
                    } else {
                        MemPerms::ro()
                    };
                    let result = m.device_map(tee.id, dev, mem, addr, len, perms);
                    if result.is_ok() {
                        granted.push((device, addr));
                    }
                    format!("map {device} {addr:#x}+{len:#x} -> {result:?}")
                }
                10..=13 if !live.is_empty() => {
                    let tee = &live[g.usize(0..live.len())];
                    let (device, dev) = *g.choose(&tee.devices);
                    let mem = *g.choose(&tee.mems);
                    let result = m.device_unmap(tee.id, dev, mem);
                    format!("unmap {device} -> {result:?}")
                }
                14..=15 if !live.is_empty() || !dead.is_empty() => {
                    // Mostly a live TEE; sometimes one already destroyed.
                    let tee = if dead.is_empty() || (!live.is_empty() && g.bool_with(0.9)) {
                        let tee = live.swap_remove(g.usize(0..live.len())).id;
                        dead.push(tee);
                        tee
                    } else {
                        *g.choose(&dead)
                    };
                    let result = m.destroy_tee(tee);
                    format!("destroy {tee:?} -> {result:?}")
                }
                _ if !granted.is_empty() => {
                    let (device, addr) = *g.choose(&granted);
                    let kind = if g.bool() {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let out = m.check_dma(&DmaRequest::new(device, kind, addr, 64));
                    format!("check {device} {addr:#x} -> {out:?}")
                }
                _ => continue,
            };
            let report = m.verify_now();
            check!(
                !report.has_errors(),
                "step {step} ({call}): {:?}",
                report.diagnostics()
            );
            let bound = bound_devices(&m);
            for &(device, addr) in &granted {
                if bound.contains(&device) {
                    continue;
                }
                for kind in [AccessKind::Read, AccessKind::Write] {
                    let out = m.check_dma(&DmaRequest::new(device, kind, addr, 64));
                    check!(
                        !out.is_allowed(),
                        "step {step} ({call}): unbound {device} allowed at {addr:#x}: {out:?}"
                    );
                }
            }
        }
        Ok(())
    });
}
