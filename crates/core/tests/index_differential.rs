//! Differential testing of the per-SID interval index against the
//! reference walk.
//!
//! Two units share one random operation stream: the *indexed* unit is
//! built with `Siopmp::build`, the *reference* unit with
//! `Siopmp::build_reference` (every check walks and sorts the masked
//! entry list). Any divergence in check outcomes, mutator results, or
//! violation logs is a soundness bug in the index — most likely a view
//! surviving a mutation, a segment cut in the wrong place, or a label
//! naming an entry that does not cover its whole segment.
//!
//! A second property probes random overlapping views at every segment
//! edge and checks which probes the index answers and which fall back to
//! the walk.

use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::atomic::{AtomicU64, Ordering};

use siopmp_testkit::{check_eq, prop_check, Gen};

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, EntryIndex, MdIndex, SourceId};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{Siopmp, SiopmpConfig};

/// One step of the interleaved mutation/check stream.
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
}

fn arb_entry(g: &mut Gen) -> IopmpEntry {
    let base = 0x1_0000 + g.u64(0..0x40) * 0x400;
    // Mix page-sized regions with sub-page ones, so segments are cut at
    // many granularities and checks often span them.
    let len = *g.choose(&[0x40u64, 0x100, 0x400, 0x1000, 0x3000]);
    IopmpEntry::new(
        AddressRange::new(base, len).expect("valid by construction"),
        Permissions::from_bits(g.bool(), g.bool()),
    )
}

fn arb_op(g: &mut Gen) -> Op {
    // Checks dominate so compiled views are exercised between mutations.
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
        _ => Op::Check {
            // Hot slots, cold devices, and a never-registered device.
            device: *g.choose(&[0, 1, 2, 3, 4, 10, 11, 12, 99]),
            kind: *g.choose(&[AccessKind::Read, AccessKind::Write]),
            addr: 0x1_0000 + g.u64(0..0x110) * 0x80,
            len: *g.choose(&[1u64, 8, 0x40, 0x100, 0x1000, 0x1800]),
        },
    }
}

/// Applies `op` to one unit. `sid_of` resolves device slots to the SIDs
/// the unit handed out (identical across units since allocation is
/// deterministic). Returns a token describing what happened, for
/// cross-unit comparison.
fn apply(unit: &mut Siopmp, sids: &mut [Option<SourceId>], op: &Op) -> String {
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
            format!("{:?}", unit.check(&req))
        }
    }
}

/// ≥10k interleaved operations: the indexed unit and the reference walk
/// produce identical results for every single one, and their violation
/// logs are record-for-record identical at the end.
#[test]
fn indexed_unit_matches_the_reference_walk() {
    let interleavings = AtomicU64::new(0);
    prop_check(300, |g| {
        let ops = g.vec(30..60, arb_op);
        let mut cached = Siopmp::build(SiopmpConfig::small(), None);
        let mut reference = Siopmp::build_reference(SiopmpConfig::small(), None);
        let mut cached_sids = vec![None; 5];
        let mut reference_sids = vec![None; 5];

        for (step, op) in ops.iter().enumerate() {
            let a = apply(&mut cached, &mut cached_sids, op);
            let b = apply(&mut reference, &mut reference_sids, op);
            check_eq!(a, b, "step {} diverged on {:?}", step, op);
            interleavings.fetch_add(1, Ordering::Relaxed);
        }

        // Byte-identical violation history, not just matching outcomes.
        let va: Vec<_> = cached.violation_log().iter().copied().collect();
        let vb: Vec<_> = reference.violation_log().iter().copied().collect();
        check_eq!(va, vb, "violation logs diverged");

        // Functional counters agree; the index's counters are allowed to
        // differ (that is the point of the fast path).
        let sa = cached.stats();
        let sb = reference.stats();
        check_eq!(sa.checks, sb.checks);
        check_eq!(sa.allowed, sb.allowed);
        check_eq!(sa.denied_permission, sb.denied_permission);
        check_eq!(sa.denied_no_match, sb.denied_no_match);
        check_eq!(sa.blocked, sb.blocked);
        check_eq!(sa.violations, sb.violations);
        check_eq!(sa.sid_missing_interrupts, sb.sid_missing_interrupts);
        check_eq!(
            sb.cache_hits + sb.cache_misses,
            0,
            "the reference has no index"
        );
        Ok(())
    });
    let total = interleavings.load(Ordering::Relaxed);
    assert!(
        total >= 10_000,
        "only {total} interleaved ops — raise cases"
    );
}

/// The violation ring gives both units identical *recent* history even
/// after overflow: with a tiny capacity the survivors match exactly.
#[test]
fn bounded_ring_keeps_identical_tails() {
    prop_check(40, |g| {
        let cfg = SiopmpConfig {
            violation_log_capacity: 8,
            ..SiopmpConfig::small()
        };
        let mut cached = Siopmp::build(cfg.clone(), None);
        let mut reference = Siopmp::build_reference(cfg, None);
        for u in [&mut cached, &mut reference] {
            let sid = u.map_hot_device(DeviceId(1)).unwrap();
            u.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        }
        // Every check denies (no entries installed): the ring overflows.
        let checks = g.vec(20..40, |g| (g.u64(0..0x40) * 0x100, g.u64(1..0x100)));
        for (off, len) in checks {
            let req = DmaRequest::new(DeviceId(1), AccessKind::Write, 0x2_0000 + off, len);
            let a = cached.check(&req);
            let b = reference.check(&req);
            check_eq!(a, b);
        }
        check_eq!(cached.violation_log().len(), 8);
        let va: Vec<_> = cached.violation_log().iter().copied().collect();
        let vb: Vec<_> = reference.violation_log().iter().copied().collect();
        check_eq!(va, vb);
        check_eq!(
            cached.stats().violation_log_dropped,
            reference.stats().violation_log_dropped
        );
        Ok(())
    });
}

/// A random overlapping view for one SID: sub-page and multi-page
/// entries, a `none` guard above a wider grant, and an entry that ends at
/// `u64::MAX`, in random priority order (the guard always above its
/// grant).
fn arb_view(g: &mut Gen) -> Vec<IopmpEntry> {
    let entry = |base: u64, len: u64, perms: Permissions| {
        IopmpEntry::new(AddressRange::new(base, len).expect("in range"), perms)
    };
    let mut view = g.vec(0..12, |g| {
        let base = 0x1_0000 + g.u64(0..0x40) * 0x40 + *g.choose(&[0u64, 1, 0x3f]);
        let len = *g.choose(&[1u64, 0x10, 0x40, 0x100, 0x1000, 0x3000]);
        entry(base, len, Permissions::from_bits(g.bool(), g.bool()))
    });
    let guard = 0x1_0000 + g.u64(0..0x40) * 0x40;
    let at = g.usize(0..view.len() + 1);
    view.insert(at, entry(guard, 0x40, Permissions::none()));
    let below = g.usize(at + 1..view.len() + 1);
    view.insert(below, entry(guard - 0x100, 0x1000, Permissions::rw()));
    let top_len = *g.choose(&[1u64, 0x40, 0x1000]);
    let at = g.usize(0..view.len() + 1);
    view.insert(at, entry(u64::MAX - top_len, top_len, Permissions::rw()));
    view
}

/// Probes at every segment start and end, one byte either side: empty,
/// one and eight bytes long, ending exactly at the next edge, crossing
/// it, and wrapping past the top of the address space.
fn edge_probes(edges: &BTreeSet<u64>) -> Vec<(u64, u64)> {
    let mut probes = Vec::new();
    for &edge in edges {
        for addr in [edge.checked_sub(1), Some(edge), edge.checked_add(1)]
            .into_iter()
            .flatten()
        {
            let next = edges.range((Excluded(addr), Unbounded)).next().copied();
            let mut lens = vec![0, 1, 8, u64::MAX, (u64::MAX - addr).wrapping_add(1)];
            if let Some(next) = next {
                lens.extend([next - addr, (next - addr).saturating_add(1)]);
            }
            probes.extend(lens.into_iter().map(|len| (addr, len)));
        }
    }
    probes
}

/// Every probe at a segment edge decides as the reference walk does, and
/// `siopmp.cache.misses` moves for exactly the probes the index cannot
/// answer: empty ones, wrapping ones, and ones that an edge cuts.
#[test]
fn segment_edges_match_the_reference_walk() {
    let probes_seen = AtomicU64::new(0);
    prop_check(120, |g| {
        let view = arb_view(g);
        let cfg = SiopmpConfig {
            num_mds: 2,
            num_entries: 64,
            violation_log_capacity: 1,
            ..SiopmpConfig::small()
        };
        let mut indexed = Siopmp::build(cfg.clone(), None);
        let mut reference = Siopmp::build_reference(cfg, None);
        for unit in [&mut indexed, &mut reference] {
            let sid = unit.map_hot_device(DeviceId(1)).expect("free SID");
            unit.associate_sid_with_md(sid, MdIndex(0)).expect("MD 0");
            for entry in &view {
                unit.install_entry(MdIndex(0), *entry)
                    .expect("room in MD 0");
            }
        }
        let mut edges = BTreeSet::from([0]);
        for entry in &view {
            edges.extend([entry.range().base(), entry.range().end()]);
        }
        for (addr, len) in edge_probes(&edges) {
            let indexed_answers = addr
                .checked_add(len)
                .filter(|_| len > 0)
                .is_some_and(|end| edges.range(addr + 1..end).next().is_none());
            for kind in [AccessKind::Read, AccessKind::Write] {
                let req = DmaRequest::new(DeviceId(1), kind, addr, len);
                let misses = indexed.stats().cache_misses;
                let got = indexed.check(&req);
                let walked = indexed.stats().cache_misses - misses;
                check_eq!(got, reference.check(&req), "{:?} in {:?}", req, view);
                check_eq!(
                    walked,
                    u64::from(!indexed_answers),
                    "misses for {:?} in {:?}",
                    req,
                    view
                );
                probes_seen.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    });
    let total = probes_seen.load(Ordering::Relaxed);
    assert!(total >= 10_000, "only {total} probes — raise cases");
}
