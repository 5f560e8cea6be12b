//! The check fast path over page-sized entries: the interval-index arm
//! against the reference arm (`Siopmp::build_reference`), which walks and
//! sorts the masked entry list on every check.
//!
//! Every test but one runs in every test pass. The `#[ignore]`d
//! wall-clock guard runs in release with
//! `cargo test --release -p siopmp --test fastpath -- --ignored`.

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::telemetry::Telemetry;
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_testkit::median_wall_ns;
use std::hint::black_box;

const ENTRIES: usize = 1024;
const BASE: u64 = 0x10_0000;
const PAGE_SIZE: u64 = 0x1000;

/// Checks per timed call: half allowed on the last entry's page, half
/// denied on an unmapped page. The index answers both.
const CHECKS_PER_CALL: u64 = 128;

/// Wall-clock bound of the indexed arm, in ns per check: 150 plus 15%.
const CACHED_NS_PER_CHECK_BOUND: f64 = 150.0 * 1.15;

/// One hot device whose domains hold `entries` page-sized rw rules from
/// `BASE` upward, spilling into the next memory domain as each window
/// fills. `reference` builds the reference arm.
fn page_unit(
    entries: usize,
    reference: bool,
    telemetry: impl Into<Option<Telemetry>>,
) -> (Siopmp, DeviceId) {
    let cfg = SiopmpConfig {
        num_entries: entries.max(8) * 2,
        cold_md_entries: 8,
        ..SiopmpConfig::default()
    };
    let mut unit = if reference {
        Siopmp::build_reference(cfg, telemetry)
    } else {
        Siopmp::build(cfg, telemetry)
    };
    let dev = DeviceId(0x42);
    let sid = unit.map_hot_device(dev).unwrap();
    let mut md = MdIndex(0);
    unit.associate_sid_with_md(sid, md).unwrap();
    let mut installed = 0;
    while installed < entries {
        let range = AddressRange::new(BASE + installed as u64 * PAGE_SIZE, PAGE_SIZE).unwrap();
        if unit
            .install_entry(md, IopmpEntry::new(range, Permissions::rw()))
            .is_ok()
        {
            installed += 1;
        } else {
            md = MdIndex(md.0 + 1);
            unit.associate_sid_with_md(sid, md).unwrap();
        }
    }
    (unit, dev)
}

/// Checks that both probes resolve as intended on one arm (which also
/// compiles the indexed arm's view), and returns its wall-clock ns per
/// check.
fn arm_ns_per_check(unit: &mut Siopmp, dev: DeviceId) -> f64 {
    let last_page = BASE + (ENTRIES as u64 - 1) * PAGE_SIZE;
    let allowed = DmaRequest::new(dev, AccessKind::Read, last_page + 0x40, 16);
    let denied = DmaRequest::new(dev, AccessKind::Read, 0xdead_0000, 16);
    assert!(unit.check(&allowed).is_allowed(), "last entry reachable");
    assert!(unit.check(&denied).is_denied(), "denied page unmapped");
    let ns = median_wall_ns(|| {
        for _ in 0..CHECKS_PER_CALL / 2 {
            black_box(unit.check(black_box(&allowed)));
            black_box(unit.check(black_box(&denied)));
        }
    });
    ns as f64 / CHECKS_PER_CALL as f64
}

#[test]
fn cached_beats_uncached_at_1024_entries() {
    // The bar is 2x; the real margin (a binary search against a walk and
    // sort of 1024 entries) is orders larger, so this holds under noise
    // and in debug builds.
    let (mut cached, dev) = page_unit(ENTRIES, false, None);
    let (mut uncached, _) = page_unit(ENTRIES, true, None);
    let cached_ns = arm_ns_per_check(&mut cached, dev);
    let uncached_ns = arm_ns_per_check(&mut uncached, dev);
    assert!(
        cached_ns * 2.0 <= uncached_ns,
        "cached {cached_ns:.1} ns/check vs uncached {uncached_ns:.1}"
    );
}

#[test]
fn check_fastpath_dump_has_cache_counters() {
    let telemetry = Telemetry::new();
    let (mut unit, dev) = page_unit(ENTRIES, false, telemetry.clone());
    arm_ns_per_check(&mut unit, dev);
    // Both probes lie inside one segment, so the index answers every
    // check, warm-up included, and the unit's telemetry dump carries the
    // cache counters.
    let stats = unit.stats();
    assert_eq!(stats.cache_misses, 0);
    assert!(stats.cache_hits > stats.cache_misses);
    let dump = telemetry.snapshot();
    assert_eq!(dump.counters["siopmp.cache.hits"], stats.cache_hits);
    assert_eq!(dump.counters["siopmp.cache.misses"], stats.cache_misses);
    let json = dump.to_json().to_string();
    for key in [
        "siopmp.cache.hits",
        "siopmp.cache.misses",
        "siopmp.cache.view_rebuilds",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
}

#[test]
fn page_helper_arms_agree_and_only_one_caches() {
    let (mut cached, dev) = page_unit(32, false, None);
    let (mut reference, _) = page_unit(32, true, None);
    for addr in [BASE, BASE + 31 * PAGE_SIZE, 0xdead_0000] {
        for _ in 0..2 {
            let req = DmaRequest::new(dev, AccessKind::Read, addr, 16);
            assert_eq!(
                cached.check(&req),
                reference.check(&req),
                "arms diverged at {addr:#x}"
            );
        }
    }
    assert!(cached.stats().cache_hits > 0);
    let stats = reference.stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, 0);
}

#[test]
#[ignore = "wall clock; run in release with --ignored"]
fn indexed_check_stays_under_its_wall_clock_bound() {
    let (mut unit, dev) = page_unit(ENTRIES, false, None);
    let ns = arm_ns_per_check(&mut unit, dev);
    println!("indexed check at {ENTRIES} entries: {ns:.1} ns/check");
    assert!(
        ns <= CACHED_NS_PER_CHECK_BOUND,
        "{ns:.1} ns/check exceeds {CACHED_NS_PER_CHECK_BOUND:.1}"
    );
}
