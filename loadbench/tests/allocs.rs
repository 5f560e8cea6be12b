//! Allocation counts of single checks, through the benchmark's counting
//! allocator (this test binary links it as its global allocator).

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_loadbench::alloc::{set_counting, thread_allocs};

fn unit() -> (Siopmp, DeviceId) {
    let mut unit = Siopmp::build(SiopmpConfig::default(), None);
    let dev = DeviceId(7);
    let sid = unit.map_hot_device(dev).expect("free SID");
    unit.associate_sid_with_md(sid, MdIndex(0)).expect("MD 0");
    unit.install_entry(
        MdIndex(0),
        IopmpEntry::new(
            AddressRange::new(0x8000, 0x1000).expect("page"),
            Permissions::rw(),
        ),
    )
    .expect("room in MD 0");
    (unit, dev)
}

/// Allocations made by the second of two identical checks.
fn allocs_of_repeat(unit: &mut Siopmp, req: &DmaRequest) -> u64 {
    unit.check(req);
    let before = thread_allocs();
    unit.check(req);
    thread_allocs() - before
}

#[test]
fn a_cached_allowed_check_allocates_nothing() {
    set_counting(true);
    let (mut unit, dev) = unit();
    let allowed = DmaRequest::new(dev, AccessKind::Read, 0x8040, 64);
    assert!(unit.check(&allowed).is_allowed());
    let hits = unit.stats().cache_hits;
    assert_eq!(allocs_of_repeat(&mut unit, &allowed), 0);
    assert_eq!(
        unit.stats().cache_hits,
        hits + 2,
        "both repeats were cache hits"
    );

    // Recorded, not pinned: the deny path's allocations are what a later
    // change to violation logging is expected to remove.
    let denied = DmaRequest::new(dev, AccessKind::Read, 0x20_0000, 64);
    println!(
        "a repeated denied check allocates {} times",
        allocs_of_repeat(&mut unit, &denied)
    );
}
