//! Edge-case pinning for [`Predicted::agrees_with`] and the predict path:
//! zero-length accesses, exclusive-end interval boundaries, top-of-address
//! -space overflow and a zero-length probe inside an indexed segment — the
//! off-by-one surface the model checker's probe grid sweeps, pinned here
//! as named examples.
//!
//! Hardware ground rules these tests encode:
//!
//! * a zero-length access matches **no** entry (an empty byte set is not
//!   "fully contained"), so it always denies — even mid-interval, even
//!   inside a segment whose index label allows (zero-length accesses
//!   bypass the index and walk the view);
//! * entry ranges are half-open `[base, end)`: `end - 1` is the last
//!   matching byte, `end` matches nothing, and an access ending exactly
//!   at `end` still matches;
//! * an access whose `addr + len` overflows matches nothing.

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{CheckOutcome, Siopmp, SiopmpConfig};
use siopmp_verify::{analyze, Predicted};

const DEV: DeviceId = DeviceId(1);

/// One hot device viewing `[0x1000, 0x2000)` rw; `cached` picks the
/// interval index over the reference walk.
fn unit_with_window(cached: bool) -> Siopmp {
    let mut unit = if cached {
        Siopmp::build(SiopmpConfig::small(), None)
    } else {
        Siopmp::build_reference(SiopmpConfig::small(), None)
    };
    let sid = unit.map_hot_device(DEV).unwrap();
    unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
    unit.install_entry(
        MdIndex(0),
        IopmpEntry::new(
            AddressRange::new(0x1000, 0x1000).unwrap(),
            Permissions::rw(),
        ),
    )
    .unwrap();
    unit
}

/// Predicts and checks one probe, asserting agreement, and returns the
/// pair for shape assertions.
fn agree(
    report: &siopmp_verify::Report,
    unit: &mut Siopmp,
    kind: AccessKind,
    addr: u64,
    len: u64,
) -> (Predicted, CheckOutcome) {
    let predicted = report.predict(DEV, kind, addr, len);
    let outcome = unit.check(&DmaRequest::new(DEV, kind, addr, len));
    assert!(
        predicted.agrees_with(&outcome),
        "divergence at addr={addr:#x} len={len} kind={kind:?}: \
         predicted {predicted:?}, hardware said {outcome:?}"
    );
    (predicted, outcome)
}

#[test]
fn zero_length_accesses_always_deny_and_agree() {
    for cached in [false, true] {
        let mut unit = unit_with_window(cached);
        let report = analyze(&unit, None);
        // Mid-interval, both boundaries, and outside — a zero-length
        // access matches nothing anywhere.
        for addr in [0x0u64, 0xfff, 0x1000, 0x1800, 0x1fff, 0x2000, u64::MAX] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                let (predicted, outcome) = agree(&report, &mut unit, kind, addr, 0);
                assert_eq!(predicted, Predicted::DeniedNoMatch, "addr={addr:#x}");
                assert!(outcome.is_denied(), "addr={addr:#x}");
            }
        }
    }
}

#[test]
fn zero_length_bypasses_a_hot_cached_page_verdict() {
    // Compile the index with an allowed access, then fire a zero-length
    // probe inside the very same segment: its Allow label must not leak
    // into the empty access.
    let mut unit = unit_with_window(true);
    let report = analyze(&unit, None);
    let warm = unit.check(&DmaRequest::new(DEV, AccessKind::Read, 0x1010, 8));
    assert!(warm.is_allowed());
    let (predicted, outcome) = agree(&report, &mut unit, AccessKind::Read, 0x1010, 0);
    assert_eq!(predicted, Predicted::DeniedNoMatch);
    assert!(outcome.is_denied());
}

#[test]
fn exclusive_end_boundaries_agree_byte_for_byte() {
    for cached in [false, true] {
        let mut unit = unit_with_window(cached);
        let report = analyze(&unit, None);
        let cases: &[(u64, u64, bool)] = &[
            (0x0fff, 1, false),      // last byte before base
            (0x0fff, 2, false),      // straddles base: not fully contained
            (0x1000, 1, true),       // first byte
            (0x1000, 0x1000, true),  // ends exactly at end — contained
            (0x1000, 0x1001, false), // one byte past end
            (0x1fff, 1, true),       // last byte
            (0x1fff, 2, false),      // last byte plus one past end
            (0x2000, 1, false),      // end itself is exclusive
        ];
        for &(addr, len, allowed) in cases {
            let (predicted, outcome) = agree(&report, &mut unit, AccessKind::Read, addr, len);
            assert_eq!(
                outcome.is_allowed(),
                allowed,
                "cached={cached} addr={addr:#x} len={len}: {outcome:?} / {predicted:?}"
            );
        }
    }
}

#[test]
fn interval_lookup_respects_the_exclusive_end() {
    let unit = unit_with_window(false);
    let report = analyze(&unit, None);
    let (sid, _) = unit.hot_devices()[0];
    let view = report.view(sid).unwrap();
    assert!(view.reach_at(0x1000).is_some());
    assert!(view.reach_at(0x1fff).is_some());
    assert!(view.reach_at(0x0fff).is_none(), "below base must not reach");
    assert!(
        view.reach_at(0x2000).is_none(),
        "the exclusive end must not reach"
    );
}

#[test]
fn boundary_between_adjacent_entries_picks_the_right_winner() {
    // [0x1000, 0x2000) read-only at index 0, [0x2000, 0x3000) rw at
    // index 1: the boundary byte 0x2000 belongs to the second entry, and
    // a write one byte below it must deny on permissions via entry 0.
    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
    let sid = unit.map_hot_device(DEV).unwrap();
    unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
    let ro = unit
        .install_entry(
            MdIndex(0),
            IopmpEntry::new(
                AddressRange::new(0x1000, 0x1000).unwrap(),
                Permissions::read_only(),
            ),
        )
        .unwrap();
    let rw = unit
        .install_entry(
            MdIndex(0),
            IopmpEntry::new(
                AddressRange::new(0x2000, 0x1000).unwrap(),
                Permissions::rw(),
            ),
        )
        .unwrap();
    let report = analyze(&unit, None);

    let (predicted, _) = agree(&report, &mut unit, AccessKind::Write, 0x1fff, 1);
    assert_eq!(predicted, Predicted::DeniedPermission { matched: ro });
    let (predicted, outcome) = agree(&report, &mut unit, AccessKind::Write, 0x2000, 1);
    assert_eq!(predicted, Predicted::Allowed { matched: rw });
    assert!(outcome.is_allowed());
    // An access spanning both entries is contained by neither.
    let (predicted, _) = agree(&report, &mut unit, AccessKind::Read, 0x1800, 0x1000);
    assert_eq!(predicted, Predicted::DeniedNoMatch);
}

#[test]
fn top_of_address_space_overflow_denies_on_both_sides() {
    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
    let sid = unit.map_hot_device(DEV).unwrap();
    unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
    // The topmost representable range: ends exactly at u64::MAX.
    unit.install_entry(
        MdIndex(0),
        IopmpEntry::new(
            AddressRange::new(u64::MAX - 0x1000, 0x1000).unwrap(),
            Permissions::rw(),
        ),
    )
    .unwrap();
    let report = analyze(&unit, None);

    let (_, outcome) = agree(&report, &mut unit, AccessKind::Read, u64::MAX - 0x1000, 1);
    assert!(outcome.is_allowed());
    let (_, outcome) = agree(&report, &mut unit, AccessKind::Read, u64::MAX - 1, 1);
    assert!(outcome.is_allowed(), "last byte of the top range");
    // addr + len overflows: matches nothing.
    let (predicted, outcome) = agree(&report, &mut unit, AccessKind::Read, u64::MAX - 1, 2);
    assert_eq!(predicted, Predicted::DeniedNoMatch);
    assert!(outcome.is_denied());
    // The exclusive end u64::MAX itself.
    let (predicted, outcome) = agree(&report, &mut unit, AccessKind::Read, u64::MAX, 1);
    assert_eq!(predicted, Predicted::DeniedNoMatch);
    assert!(outcome.is_denied());
}

#[test]
fn zero_length_still_stalls_blocked_sids_and_reports_missing_devices() {
    // Stall and SID-missing resolution outrank the no-match denial, even
    // for empty accesses — predict and hardware must agree on the order.
    let mut unit = unit_with_window(false);
    let (sid, _) = unit.hot_devices()[0];
    unit.block_sid(sid);
    let report = analyze(&unit, None);
    let (predicted, outcome) = agree(&report, &mut unit, AccessKind::Read, 0x1800, 0);
    assert_eq!(predicted, Predicted::Stalled);
    assert!(matches!(outcome, CheckOutcome::Stalled { .. }));

    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
    unit.register_cold_device(
        DeviceId(1),
        MountableEntry {
            domains: vec![],
            entries: vec![],
        },
    )
    .unwrap();
    let report = analyze(&unit, None);
    let (predicted, outcome) = agree(&report, &mut unit, AccessKind::Read, 0x1800, 0);
    assert_eq!(predicted, Predicted::SidMissing);
    assert!(matches!(outcome, CheckOutcome::SidMissing { .. }));
}
