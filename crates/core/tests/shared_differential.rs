//! Differential testing of the shared (wait-free, `&self`) check path
//! against the owning `&mut` path.
//!
//! Two identically-built units replay one random operation stream. All
//! mutations go through each unit's `&mut` owner; the *owned* unit also
//! checks through `Siopmp::check`, while the *shared* unit checks through
//! a [`siopmp::SharedSiopmp`] handle taken once at build time. Any
//! divergence in mutator results, check outcomes, violation logs, or
//! functional counters is a soundness bug in the snapshot publication
//! protocol — most likely a mutation that forgot to publish, or a
//! snapshot capturing half-updated tables.
//!
//! A second suite hammers one unit from many reader threads while the
//! owner mutates, proving readers only ever observe fully-published
//! configurations (no torn states, and a cold switch never transiently
//! widens permissions).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use siopmp_testkit::{check_eq, prop_check, Gen};

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, EntryIndex, MdIndex, SourceId};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{CheckOutcome, SharedSiopmp, Siopmp, SiopmpConfig};

/// Reader-thread count for the concurrency suite. CI sweeps this via the
/// `SIOPMP_THREADS` matrix (1 / 4 / 16); locally it defaults to 16 so the
/// `&self`-across-16-threads acceptance bar is exercised by default.
fn reader_threads() -> usize {
    std::env::var("SIOPMP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(16)
}

/// One step of the interleaved mutation/check stream (the same op shape
/// as `cache_differential.rs`, plus a batch-check arm so the shared
/// `check_batch` path is differentially covered too).
#[derive(Debug, Clone)]
enum Op {
    MapHot(u64),
    Associate(u64, u16),
    Dissociate(u64, u16),
    Install {
        md: u16,
        base: u64,
        len: u64,
        perms: Permissions,
    },
    SetEntry {
        index: u32,
        entry: Option<IopmpEntry>,
    },
    SetMdTop {
        md: u16,
        top: u32,
    },
    ModifyAtomically {
        slot: u64,
        index: u32,
        entry: Option<IopmpEntry>,
    },
    Block(u64),
    Unblock(u64),
    RegisterCold(u64),
    ColdMount(u64),
    Check {
        device: u64,
        kind: AccessKind,
        addr: u64,
        len: u64,
    },
    CheckBatch(Vec<(u64, AccessKind, u64, u64)>),
}

fn arb_entry(g: &mut Gen) -> IopmpEntry {
    let base = 0x1_0000 + g.u64(0..0x40) * 0x400;
    let len = *g.choose(&[0x40u64, 0x100, 0x400, 0x1000, 0x3000]);
    IopmpEntry::new(
        AddressRange::new(base, len).expect("valid by construction"),
        Permissions::from_bits(g.bool(), g.bool()),
    )
}

fn arb_beat(g: &mut Gen) -> (u64, AccessKind, u64, u64) {
    (
        *g.choose(&[0, 1, 2, 3, 4, 10, 11, 12, 99]),
        *g.choose(&[AccessKind::Read, AccessKind::Write]),
        0x1_0000 + g.u64(0..0x110) * 0x80,
        *g.choose(&[1u64, 8, 0x40, 0x100, 0x1000, 0x1800]),
    )
}

fn arb_op(g: &mut Gen) -> Op {
    // Checks dominate so published snapshots are exercised between
    // mutations.
    match g.u64(0..20) {
        0 => Op::MapHot(g.u64(0..5)),
        1 => Op::Associate(g.u64(0..5), g.u16(0..4)),
        2 => Op::Dissociate(g.u64(0..5), g.u16(0..4)),
        3 | 4 => {
            let e = arb_entry(g);
            Op::Install {
                md: g.u16(0..4),
                base: e.range().base(),
                len: e.range().len(),
                perms: e.permissions(),
            }
        }
        5 => {
            let entry = if g.bool() { Some(arb_entry(g)) } else { None };
            Op::SetEntry {
                index: g.u64(0..32) as u32,
                entry,
            }
        }
        6 => Op::SetMdTop {
            md: g.u16(0..4),
            top: g.u64(0..32) as u32,
        },
        7 => {
            let entry = if g.bool() { Some(arb_entry(g)) } else { None };
            Op::ModifyAtomically {
                slot: g.u64(0..5),
                index: g.u64(0..32) as u32,
                entry,
            }
        }
        8 => Op::Block(g.u64(0..5)),
        9 => Op::Unblock(g.u64(0..5)),
        10 => Op::RegisterCold(10 + g.u64(0..3)),
        11 => Op::ColdMount(10 + g.u64(0..3)),
        12 => Op::CheckBatch(g.vec(1..6, arb_beat)),
        _ => {
            let (device, kind, addr, len) = arb_beat(g);
            Op::Check {
                device,
                kind,
                addr,
                len,
            }
        }
    }
}

/// How a unit's checks are issued: through the owning `&mut` receiver, or
/// through a `SharedSiopmp` handle taken once after build.
enum CheckVia {
    Owner,
    Shared(SharedSiopmp),
}

/// Applies `op`, routing checks via `via`. Returns a token describing
/// what happened, for cross-unit comparison.
fn apply(unit: &mut Siopmp, sids: &mut [Option<SourceId>], via: &CheckVia, op: &Op) -> String {
    let sid_for = |sids: &[Option<SourceId>], slot: u64| sids[slot as usize];
    match op {
        Op::MapHot(slot) => {
            let r = unit.map_hot_device(DeviceId(*slot));
            if let Ok(sid) = r {
                sids[*slot as usize] = Some(sid);
            }
            format!("{r:?}")
        }
        Op::Associate(slot, md) => match sid_for(sids, *slot) {
            Some(sid) => format!("{:?}", unit.associate_sid_with_md(sid, MdIndex(*md))),
            None => "unmapped".into(),
        },
        Op::Dissociate(slot, md) => match sid_for(sids, *slot) {
            Some(sid) => format!("{:?}", unit.dissociate_sid_from_md(sid, MdIndex(*md))),
            None => "unmapped".into(),
        },
        Op::Install {
            md,
            base,
            len,
            perms,
        } => {
            let entry = IopmpEntry::new(AddressRange::new(*base, *len).unwrap(), *perms);
            format!("{:?}", unit.install_entry(MdIndex(*md), entry))
        }
        Op::SetEntry { index, entry } => {
            format!("{:?}", unit.set_entry(EntryIndex(*index), *entry))
        }
        Op::SetMdTop { md, top } => format!("{:?}", unit.set_md_top(MdIndex(*md), *top)),
        Op::ModifyAtomically { slot, index, entry } => match sid_for(sids, *slot) {
            Some(sid) => format!(
                "{:?}",
                unit.modify_entries_atomically(sid, &[(EntryIndex(*index), *entry)])
            ),
            None => "unmapped".into(),
        },
        Op::Block(slot) => match sid_for(sids, *slot) {
            Some(sid) => {
                unit.block_sid(sid);
                "blocked".into()
            }
            None => "unmapped".into(),
        },
        Op::Unblock(slot) => match sid_for(sids, *slot) {
            Some(sid) => {
                unit.unblock_sid(sid);
                "unblocked".into()
            }
            None => "unmapped".into(),
        },
        Op::RegisterCold(device) => {
            let record = MountableEntry {
                domains: vec![MdIndex(0)],
                entries: vec![IopmpEntry::new(
                    AddressRange::new(0x1_0000 + device * 0x1000, 0x1000).unwrap(),
                    Permissions::rw(),
                )],
            };
            format!("{:?}", unit.register_cold_device(DeviceId(*device), record))
        }
        Op::ColdMount(device) => format!("{:?}", unit.handle_sid_missing(DeviceId(*device))),
        Op::Check {
            device,
            kind,
            addr,
            len,
        } => {
            let req = DmaRequest::new(DeviceId(*device), *kind, *addr, *len);
            match via {
                CheckVia::Owner => format!("{:?}", unit.check(&req)),
                CheckVia::Shared(handle) => format!("{:?}", handle.check(&req)),
            }
        }
        Op::CheckBatch(beats) => {
            let reqs: Vec<DmaRequest> = beats
                .iter()
                .map(|&(d, k, a, l)| DmaRequest::new(DeviceId(d), k, a, l))
                .collect();
            match via {
                CheckVia::Owner => format!("{:?}", unit.check_batch(&reqs)),
                CheckVia::Shared(handle) => format!("{:?}", handle.check_batch(&reqs)),
            }
        }
    }
}

/// ≥10k interleaved operations: checks through a `SharedSiopmp` handle
/// are byte-identical to checks through the owning `&mut` path — same
/// `Debug` tokens per step, same violation history, same functional and
/// cache counters (the shared path shares the decision cache semantics,
/// so even hit/miss counts must line up).
#[test]
fn shared_handle_matches_owner_path() {
    let interleavings = AtomicU64::new(0);
    prop_check(300, |g| {
        let ops = g.vec(30..60, arb_op);
        let mut owned = Siopmp::build(SiopmpConfig::small(), None);
        let mut shared_unit = Siopmp::build(SiopmpConfig::small(), None);
        let shared_via = CheckVia::Shared(shared_unit.share());
        let owned_via = CheckVia::Owner;
        let mut owned_sids = vec![None; 5];
        let mut shared_sids = vec![None; 5];

        for (step, op) in ops.iter().enumerate() {
            let a = apply(&mut owned, &mut owned_sids, &owned_via, op);
            let b = apply(&mut shared_unit, &mut shared_sids, &shared_via, op);
            check_eq!(a, b, "step {} diverged on {:?}", step, op);
            interleavings.fetch_add(1, Ordering::Relaxed);
        }

        let va: Vec<_> = owned.violation_log().iter().copied().collect();
        let vb: Vec<_> = shared_unit.violation_log().iter().copied().collect();
        check_eq!(va, vb, "violation logs diverged");
        check_eq!(owned.stats(), shared_unit.stats());
        check_eq!(owned.generation(), shared_unit.generation());
        Ok(())
    });
    let total = interleavings.load(Ordering::Relaxed);
    assert!(
        total >= 10_000,
        "only {total} interleaved ops — raise cases"
    );
}

/// Builds the two-tenant unit the concurrency suite hammers: hot device
/// 1 owns page `0x1000`; cold devices 10 and 11 are registered with
/// disjoint rw pages (`0x2_0000` / `0x3_0000`) and device 10 starts
/// mounted.
fn two_tenant_unit() -> (Siopmp, SourceId) {
    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
    let sid = unit.map_hot_device(DeviceId(1)).unwrap();
    unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
    unit.install_entry(
        MdIndex(0),
        IopmpEntry::new(
            AddressRange::new(0x1000, 0x1000).unwrap(),
            Permissions::rw(),
        ),
    )
    .unwrap();
    for (device, base) in [(10u64, 0x2_0000u64), (11, 0x3_0000)] {
        unit.register_cold_device(
            DeviceId(device),
            MountableEntry {
                domains: vec![],
                entries: vec![IopmpEntry::new(
                    AddressRange::new(base, 0x1000).unwrap(),
                    Permissions::rw(),
                )],
            },
        )
        .unwrap();
    }
    unit.handle_sid_missing(DeviceId(10)).unwrap();
    (unit, sid)
}

fn allowed(outcome: &CheckOutcome) -> bool {
    matches!(outcome, CheckOutcome::Allowed { .. })
}

/// `check` is callable from `&self` across ≥16 concurrent reader threads
/// while the owner mutates. Every observed outcome corresponds to a
/// fully-published configuration: a probe inside hot device 1's window is
/// `Allowed` or `Stalled` (the writer toggles its block bit) and *never*
/// denied, while a probe outside every window is denied and never
/// allowed — a torn snapshot would leak an intermediate table state and
/// break one of the two.
#[test]
fn concurrent_readers_see_only_published_states() {
    let (mut unit, sid) = two_tenant_unit();
    let shared = unit.share();
    let stop = AtomicBool::new(false);
    let in_window = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1800, 8);
    let outside = DmaRequest::new(DeviceId(1), AccessKind::Write, 0x9_0000, 8);

    thread::scope(|scope| {
        let readers: Vec<_> = (0..reader_threads())
            .map(|_| {
                let shared = shared.clone();
                let (stop, in_window, outside) = (&stop, &in_window, &outside);
                scope.spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        match shared.check(in_window) {
                            CheckOutcome::Allowed { .. } | CheckOutcome::Stalled { .. } => {}
                            other => panic!("in-window probe saw {other:?}"),
                        }
                        match shared.check(outside) {
                            CheckOutcome::Denied(_) | CheckOutcome::Stalled { .. } => {}
                            other => panic!("out-of-window probe saw {other:?}"),
                        }
                        seen += 2;
                    }
                    seen
                })
            })
            .collect();

        // The writer churns through block/unblock cycles and entry
        // installs in other domains — every one republishes.
        for i in 0..200 {
            unit.block_sid(sid);
            unit.unblock_sid(sid);
            let base = 0x1_0000 + (i % 0x20) * 0x400;
            let _ = unit.install_entry(
                MdIndex(1),
                IopmpEntry::new(AddressRange::new(base, 0x100).unwrap(), Permissions::rw()),
            );
            thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        assert!(total > 0, "readers made progress");
    });
}

/// A cold switch from tenant A (device 10) to tenant B (device 11) never
/// transiently widens permissions: readers pin a snapshot and probe both
/// tenants' windows from that one consistent state — at no point are both
/// tenants allowed at once, because each published snapshot mounts at
/// most one cold device.
#[test]
fn cold_switch_never_transiently_widens() {
    let (mut unit, _sid) = two_tenant_unit();
    let shared = unit.share();
    let stop = AtomicBool::new(false);
    let probe_a = DmaRequest::new(DeviceId(10), AccessKind::Read, 0x2_0400, 8);
    let probe_b = DmaRequest::new(DeviceId(11), AccessKind::Read, 0x3_0400, 8);

    thread::scope(|scope| {
        let readers: Vec<_> = (0..reader_threads())
            .map(|_| {
                let shared = shared.clone();
                let (stop, probe_a, probe_b) = (&stop, &probe_a, &probe_b);
                scope.spawn(move || {
                    let mut observations = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let pinned = shared.pin();
                        let a = pinned.check(probe_a);
                        let b = pinned.check(probe_b);
                        assert!(
                            !(allowed(&a) && allowed(&b)),
                            "one snapshot granted both tenants: {a:?} vs {b:?}"
                        );
                        observations += 1;
                    }
                    observations
                })
            })
            .collect();

        for i in 0..300 {
            let next = DeviceId(if i % 2 == 0 { 11 } else { 10 });
            unit.handle_sid_missing(next)
                .expect("registered cold device");
            thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        assert!(total > 0, "readers made progress");
    });

    // Quiesced: exactly the last-mounted tenant answers.
    assert_eq!(unit.mounted_cold_device(), Some(DeviceId(10)));
    assert!(allowed(&shared.check(&probe_a)));
    assert!(!allowed(&shared.check(&probe_b)));
}
