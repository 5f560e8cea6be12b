//! Hand-rolled (loom-style) interleaving tests for the snapshot publish
//! protocol: acquire/release pairing between `publish` and `snapshot`,
//! generation monotonicity, and pinned-snapshot stability across a cold
//! switch.
//!
//! The linearizability argument mirrors what loom would explore
//! exhaustively, shrunk to the one invariant schedules can violate: a
//! reader that observes the same generation `G` immediately before and
//! after a check must have checked against exactly the configuration
//! published at `G`. Since `generation` is monotone and each mutator
//! publishes exactly once, `G`'s parity identifies the configuration
//! (the writer alternates removing/installing one entry), so any verdict
//! disagreeing with the parity means the Release store of the snapshot
//! pointer was observed without its preceding table writes — a broken
//! acquire/release pairing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{CheckOutcome, Siopmp, SiopmpConfig};

fn allowed(outcome: &CheckOutcome) -> bool {
    matches!(outcome, CheckOutcome::Allowed { .. })
}

/// One hot device with a single rw page at `0x1000`; returns the unit and
/// the entry index the writer will flap.
fn flap_unit() -> (Siopmp, siopmp::ids::EntryIndex, IopmpEntry) {
    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
    let sid = unit.map_hot_device(DeviceId(1)).unwrap();
    unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
    let entry = IopmpEntry::new(
        AddressRange::new(0x1000, 0x1000).unwrap(),
        Permissions::rw(),
    );
    let index = unit.install_entry(MdIndex(0), entry).unwrap();
    (unit, index, entry)
}

/// The publish generation is monotone from every reader's point of view,
/// and a stable read (same generation before and after the check) yields
/// exactly the verdict of the configuration published at that
/// generation. `set_entry` publishes once per call, so generation parity
/// says whether the flapped entry is installed: starting from generation
/// `g0` (entry present), generation `g0 + k` has the entry present iff
/// `k` is even.
#[test]
fn stable_generation_reads_match_the_published_config() {
    let (mut unit, index, entry) = flap_unit();
    let shared = unit.share();
    let g0 = shared.generation();
    let probe = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1400, 8);
    let stop = AtomicBool::new(false);

    thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                let (stop, probe) = (&stop, &probe);
                scope.spawn(move || {
                    let mut last = 0u64;
                    let mut stable_reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let before = shared.generation();
                        assert!(before >= last, "generation went backwards");
                        last = before;
                        let outcome = shared.check(probe);
                        let after = shared.generation();
                        assert!(after >= before, "generation went backwards");
                        if before == after {
                            let installed = (before - g0) % 2 == 0;
                            assert_eq!(
                                allowed(&outcome),
                                installed,
                                "stable read at generation {before} returned a \
                                 verdict from a different configuration"
                            );
                            stable_reads += 1;
                        }
                    }
                    stable_reads
                })
            })
            .collect();

        // Each iteration is two publishes: remove (odd offset), reinstall
        // (even offset) — the quiescent state always has the entry back.
        for _ in 0..2_000 {
            unit.set_entry(index, None).unwrap();
            unit.set_entry(index, Some(entry)).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let stable: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        // With a quiescent tail after the writer stops, stable reads are
        // guaranteed to accumulate.
        assert!(stable > 0, "no reader ever saw a stable generation");
    });
    assert_eq!(
        (shared.generation() - g0) % 2,
        0,
        "writer performed publish pairs"
    );
}

/// A pinned snapshot is immutable: it keeps answering from the epoch it
/// was pinned at even after the owner performs a cold switch, while an
/// unpinned handle tracks the new configuration. This is the regression
/// guard for snapshot lifetime — reclaiming or mutating a published
/// snapshot in place would make the pinned verdicts flip.
#[test]
fn pinned_snapshot_survives_a_cold_switch() {
    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
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

    let shared = unit.share();
    let pinned = shared.pin();
    let epoch_before = pinned.generation();
    let probe_old = DmaRequest::new(DeviceId(10), AccessKind::Read, 0x2_0100, 8);
    let probe_new = DmaRequest::new(DeviceId(11), AccessKind::Read, 0x3_0100, 8);
    assert!(allowed(&pinned.check(&probe_old)));
    assert!(!allowed(&pinned.check(&probe_new)));

    // Cold switch: unmount tenant 10, mount tenant 11.
    unit.handle_sid_missing(DeviceId(11)).unwrap();

    // The pinned snapshot still answers from the pre-switch epoch…
    assert_eq!(pinned.generation(), epoch_before);
    assert!(
        allowed(&pinned.check(&probe_old)),
        "pin lost the old tenant"
    );
    assert!(
        !allowed(&pinned.check(&probe_new)),
        "pin leaked the new tenant"
    );

    // …while the live handle and the owner moved on.
    assert!(shared.generation() > epoch_before);
    assert!(!allowed(&shared.check(&probe_old)));
    assert!(allowed(&shared.check(&probe_new)));
    assert_eq!(unit.mounted_cold_device(), Some(DeviceId(11)));
}

/// Batch checks through a pinned snapshot are atomic with respect to
/// publication: every beat of the batch answers from the pinned epoch
/// even if the owner republishes mid-stream (here: between constructing
/// the pin and issuing the batch).
#[test]
fn pinned_batch_is_epoch_atomic() {
    let (mut unit, index, _entry) = flap_unit();
    let shared = unit.share();
    let pinned = shared.pin();
    let batch: Vec<DmaRequest> = (0..8)
        .map(|i| DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000 + i * 0x100, 8))
        .collect();

    unit.set_entry(index, None).unwrap();

    let outcomes = pinned.check_batch(&batch);
    assert!(
        outcomes.iter().all(allowed),
        "pinned batch must answer from the pre-removal snapshot"
    );
    let live = shared.check_batch(&batch);
    assert!(
        live.iter().all(|o| !allowed(o)),
        "live handle must answer from the post-removal snapshot"
    );
}
