//! Differential property test: `Siopmp::check_batch` is observationally
//! identical to a per-beat `Siopmp::check` loop.
//!
//! Two identically-built units process the same request stream — one in
//! testkit-generated batches, one beat at a time — interleaved with
//! identical mutator calls (entry installs, SID blocks, cold switches)
//! that bump the decision-cache epoch *between* batches. After every batch
//! the outcomes must match; after every case the stats, violation logs,
//! telemetry counters, violation rings and cache epochs must match too.
//! Over the whole run this exercises well over 10k batches.

use siopmp_testkit::{check_eq, prop_check, Gen};

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex, SourceId};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{Siopmp, SiopmpConfig};

const BATCHES_PER_CASE: usize = 7;
const CASES: u64 = 1500; // 1500 × 7 = 10_500 batches

/// Hot device 1 (rw window), hot device 2 (ro window), cold device 7
/// (registered + mounted), cold device 8 (registered, unmounted), and
/// device 99 is unknown everywhere.
fn build_unit() -> (Siopmp, SourceId, SourceId) {
    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
    let sid1 = unit.map_hot_device(DeviceId(1)).unwrap();
    unit.associate_sid_with_md(sid1, MdIndex(0)).unwrap();
    unit.install_entry(
        MdIndex(0),
        IopmpEntry::new(
            AddressRange::new(0x1000, 0x2000).unwrap(),
            Permissions::rw(),
        ),
    )
    .unwrap();
    let sid2 = unit.map_hot_device(DeviceId(2)).unwrap();
    unit.associate_sid_with_md(sid2, MdIndex(1)).unwrap();
    unit.install_entry(
        MdIndex(1),
        IopmpEntry::new(
            AddressRange::new(0x8000, 0x1000).unwrap(),
            Permissions::from_bits(true, false),
        ),
    )
    .unwrap();
    unit.register_cold_device(
        DeviceId(7),
        MountableEntry {
            domains: vec![],
            entries: vec![IopmpEntry::new(
                AddressRange::new(0x2_0000, 0x1000).unwrap(),
                Permissions::rw(),
            )],
        },
    )
    .unwrap();
    unit.register_cold_device(
        DeviceId(8),
        MountableEntry {
            domains: vec![],
            entries: vec![IopmpEntry::new(
                AddressRange::new(0x3_0000, 0x1000).unwrap(),
                Permissions::rw(),
            )],
        },
    )
    .unwrap();
    unit.handle_sid_missing(DeviceId(7)).unwrap();
    (unit, sid1, sid2)
}

fn arb_request(g: &mut Gen) -> DmaRequest {
    let device = *g.choose(&[1u64, 1, 1, 2, 2, 7, 8, 99]);
    // Bias towards the configured windows so all outcome classes appear.
    let candidates = [
        g.u64(0x1000..0x3000),
        g.u64(0x8000..0x9000),
        g.u64(0x2_0000..0x2_1000),
        g.u64(0..0x4_0000),
    ];
    let addr = *g.choose(&candidates);
    let len = g.u64(1..0x200);
    let kind = *g.choose(&[AccessKind::Read, AccessKind::Write]);
    DmaRequest::new(DeviceId(device), kind, addr, len)
}

/// A mutator applied identically to both units between batches. Most arms
/// bump the decision-cache epoch, so consecutive batches straddle the
/// bump.
fn mutate(g: &mut Gen, unit: &mut Siopmp, sid1: SourceId, sid2: SourceId) {
    match g.u8(0..5) {
        0 => {
            let base = g.u64(1..0x40) * 0x100;
            let perms = Permissions::from_bits(g.bool(), g.bool());
            let _ = unit.install_entry(
                MdIndex(0),
                IopmpEntry::new(AddressRange::new(base, 0x100).unwrap(), perms),
            );
        }
        1 => unit.block_sid(sid1),
        2 => {
            unit.unblock_sid(sid1);
            unit.unblock_sid(sid2);
        }
        3 => {
            // Cold switch: mount whichever of 7/8 is currently unmounted.
            let device = if unit.mounted_cold_device() == Some(DeviceId(7)) {
                DeviceId(8)
            } else {
                DeviceId(7)
            };
            let _ = unit.handle_sid_missing(device);
        }
        _ => unit.block_sid(sid2),
    }
}

#[test]
fn check_batch_agrees_with_per_beat_check() {
    prop_check(CASES, |g| {
        let (mut batched, b_sid1, b_sid2) = build_unit();
        let (mut serial, s_sid1, s_sid2) = build_unit();
        check_eq!(b_sid1, s_sid1);
        check_eq!(b_sid2, s_sid2);
        for _ in 0..BATCHES_PER_CASE {
            let batch = g.vec(1..9, arb_request);
            let got = batched.check_batch(&batch);
            let want: Vec<_> = batch.iter().map(|r| serial.check(r)).collect();
            check_eq!(got, want);
            if g.bool_with(0.6) {
                // Replay the identical mutation on both units by seeding
                // two child generators with the same draw.
                let seed = g.u64(0..u64::MAX);
                mutate(&mut Gen::new(seed), &mut batched, b_sid1, b_sid2);
                mutate(&mut Gen::new(seed), &mut serial, s_sid1, s_sid2);
            }
            check_eq!(batched.generation(), serial.generation());
        }
        check_eq!(batched.stats(), serial.stats());
        let vl_b: Vec<_> = batched.violation_log().iter().copied().collect();
        let vl_s: Vec<_> = serial.violation_log().iter().copied().collect();
        check_eq!(vl_b, vl_s);
        let snap_b = batched.telemetry().snapshot();
        let snap_s = serial.telemetry().snapshot();
        check_eq!(snap_b.counters, snap_s.counters);
        check_eq!(snap_b.rings, snap_s.rings);
        Ok(())
    });
}

/// Directed case: a batch whose beats hit a cached page, then an entry
/// install bumps the epoch, then the same batch re-walks (and re-fills)
/// the invalidated cache — batched and per-beat engines must agree on the
/// miss/hit pattern either side of the bump.
#[test]
fn batches_straddling_an_epoch_bump_agree() {
    let (mut batched, _, _) = build_unit();
    let (mut serial, _, _) = build_unit();
    let batch: Vec<DmaRequest> = (0..8)
        .map(|i| DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000 + 64 * i, 64))
        .collect();

    let epoch_before = batched.generation();
    let got = batched.check_batch(&batch);
    let want: Vec<_> = batch.iter().map(|r| serial.check(r)).collect();
    assert_eq!(got, want);

    for unit in [&mut batched, &mut serial] {
        unit.install_entry(
            MdIndex(0),
            IopmpEntry::new(AddressRange::new(0x4000, 0x100).unwrap(), Permissions::rw()),
        )
        .unwrap();
    }
    assert!(batched.generation() > epoch_before, "mutator bumps epoch");

    let got = batched.check_batch(&batch);
    let want: Vec<_> = batch.iter().map(|r| serial.check(r)).collect();
    assert_eq!(got, want);
    assert_eq!(batched.stats(), serial.stats());
    assert_eq!(
        batched.telemetry().snapshot().counters,
        serial.telemetry().snapshot().counters
    );
}

/// Repeated devices within one batch replicate the per-beat routing
/// counters exactly (the memo must not skip counter increments).
#[test]
fn route_memo_replicates_counters_per_beat() {
    let (mut batched, _, _) = build_unit();
    let (mut serial, _, _) = build_unit();
    let batch: Vec<DmaRequest> = [1u64, 1, 7, 7, 8, 8, 99, 99, 1, 99]
        .iter()
        .map(|&d| DmaRequest::new(DeviceId(d), AccessKind::Read, 0x1000, 64))
        .collect();
    let got = batched.check_batch(&batch);
    let want: Vec<_> = batch.iter().map(|r| serial.check(r)).collect();
    assert_eq!(got, want);
    let stats = batched.stats();
    assert_eq!(stats, serial.stats());
    assert_eq!(stats.checks, 10);
    assert_eq!(
        batched.telemetry().snapshot().rings,
        serial.telemetry().snapshot().rings,
        "violation ring events must match event-for-event"
    );
}
