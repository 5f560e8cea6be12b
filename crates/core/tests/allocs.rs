//! Allocation guard for the check path. Once a thread is warm and the
//! violation ring and log are full, a check allocates nothing — allowed by
//! the interval index or by the walk of the compiled view, or denied —
//! through the owner's `Siopmp::check` or a `SharedSiopmp` handle. A deny records a typed event that renders as
//! text only when the ring is read.
//!
//! Counting is per thread, so tests running in parallel do not disturb
//! each other's counts.

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{CheckOutcome, SharedSiopmp, Siopmp, SiopmpConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting allocations (reallocations
/// included) on the calling thread.
struct Counting;

impl Counting {
    fn note(&self) {
        // `try_with`: an allocation during thread teardown goes uncounted.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DEVICE: DeviceId = DeviceId(7);
const BASE: u64 = 0x8000;
const PAGE_SIZE: u64 = 0x1000;

/// One hot device granted two pages by one entry, beneath a
/// higher-priority read-only entry over the first page's last 256 bytes,
/// with a small violation log.
fn unit() -> Siopmp {
    let mut unit = Siopmp::build(SiopmpConfig::default(), None);
    let sid = unit.map_hot_device(DEVICE).expect("free SID");
    unit.associate_sid_with_md(sid, MdIndex(0)).expect("MD 0");
    for (base, len, perms) in [
        (BASE + PAGE_SIZE - 0x100, 0x100, Permissions::read_only()),
        (BASE, 2 * PAGE_SIZE, Permissions::rw()),
    ] {
        let range = AddressRange::new(base, len).expect("valid range");
        unit.install_entry(MdIndex(0), IopmpEntry::new(range, perms))
            .expect("room in MD 0");
    }
    unit.set_violation_log_capacity(4)
        .expect("non-zero capacity");
    unit
}

/// An access inside one segment of the index, an access that straddles
/// the read-only entry's end (it spans two segments, so the compiled view
/// is walked, and only the two-page grant contains it), and an access
/// outside every entry.
fn requests() -> [(&'static str, DmaRequest); 3] {
    [
        (
            "indexed allowed",
            DmaRequest::new(DEVICE, AccessKind::Read, BASE + 0x40, 64),
        ),
        (
            "walked allowed",
            DmaRequest::new(DEVICE, AccessKind::Read, BASE + PAGE_SIZE - 64, 128),
        ),
        (
            "denied",
            DmaRequest::new(DEVICE, AccessKind::Read, 0x20_0000, 64),
        ),
    ]
}

/// The capacity of the unit's `siopmp.violation_events` ring.
fn ring_capacity(unit: &Siopmp) -> usize {
    unit.telemetry().snapshot().rings["siopmp.violation_events"].capacity
}

/// Warms `check` on this thread and fills the violation ring and log,
/// then asserts that each request class allocates nothing and takes the
/// path its name says.
fn assert_warm_checks_allocate_nothing(
    path: &str,
    ring_capacity: usize,
    shared: &SharedSiopmp,
    mut check: impl FnMut(&DmaRequest) -> CheckOutcome,
) {
    let requests = requests();
    for (_, req) in &requests {
        check(req);
    }
    for _ in 0..ring_capacity {
        assert!(check(&requests[2].1).is_denied());
    }
    for (class, req) in &requests {
        let before = shared.stats();
        let at = ALLOCS.with(Cell::get);
        let outcome = check(req);
        let allocs = ALLOCS.with(Cell::get) - at;
        let after = shared.stats();
        assert_eq!(allocs, 0, "{path}: a warm {class} check allocated");
        let hits = after.cache_hits - before.cache_hits;
        let misses = after.cache_misses - before.cache_misses;
        let dropped = after.violation_log_dropped - before.violation_log_dropped;
        let took_its_path = match *class {
            "indexed allowed" => outcome.is_allowed() && (hits, misses) == (1, 0),
            "walked allowed" => outcome.is_allowed() && (hits, misses) == (0, 1),
            _ => outcome.is_denied() && dropped == 1,
        };
        assert!(took_its_path, "{path}: {class}: {outcome:?}, {after:?}");
    }
}

#[test]
fn warm_owner_checks_allocate_nothing() {
    let mut unit = unit();
    let (capacity, shared) = (ring_capacity(&unit), unit.share());
    assert_warm_checks_allocate_nothing("owner", capacity, &shared, |req| unit.check(req));
}

#[test]
fn warm_shared_checks_allocate_nothing() {
    let unit = unit();
    let shared = unit.share();
    assert_warm_checks_allocate_nothing("shared", ring_capacity(&unit), &shared, |req| {
        shared.check(req)
    });
}

#[test]
fn a_deny_renders_its_event_when_read() {
    let mut unit = unit();
    let denied = DmaRequest::new(DEVICE, AccessKind::Write, 0x20_0000, 64);
    assert!(unit.check(&denied).is_denied());
    let snap = unit.telemetry().snapshot();
    let events = &snap.rings["siopmp.violation_events"].events;
    assert_eq!(events.len(), 1);
    assert_eq!(
        events[0].message,
        "deny device=7 addr=0x200000 len=64 kind=write"
    );
}
