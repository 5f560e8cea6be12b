//! RCU-style published checker snapshots: wait-free `check` from any
//! thread.
//!
//! The paper's MT-sIOPMP services every bus master concurrently — the
//! checker is a combinational read port over configuration registers that
//! the monitor rewrites only occasionally. The software model mirrors
//! that split:
//!
//! * every configuration mutator on [`crate::Siopmp`] rebuilds an
//!   immutable [`CheckerSnapshot`] (routing tables, SRC2MD/MDCFG/entry
//!   clones, per-SID compiled views, page-granular decision slots) and
//!   **publishes** it with a single pointer swap;
//! * readers — the owner's `&mut self` check path, and any number of
//!   [`SharedSiopmp`] handles on other threads — resolve requests against
//!   whichever snapshot was current when they started. A reader therefore
//!   observes either the entire pre-mutation configuration or the entire
//!   post-mutation one, never a torn mixture; in particular a cold switch
//!   can never transiently widen permissions, because the intermediate
//!   states (cold SID blocked, window half-loaded) are simply never
//!   published.
//!
//! # Why not a bare `AtomicPtr`
//!
//! The textbook RCU shape — `AtomicPtr<CheckerSnapshot>` swapped by the
//! writer — is unsound in safe Rust without deferred reclamation: between
//! a reader's pointer load and its refcount bump the writer may drop the
//! last `Arc`, freeing the snapshot under the reader (and an ABA
//! reallocation makes `Arc::increment_strong_count` corrupt an unrelated
//! object). Hazard pointers or epoch GC solve this with `unsafe`; we
//! instead keep the canonical `Arc` behind a mutex and make readers
//! *avoid the mutex entirely* in steady state:
//!
//! * a monotone **generation** counter ([`SharedSiopmp::generation`]) is
//!   bumped (release) on every publish;
//! * each reader thread caches `(state, generation, Arc)` in TLS. A check
//!   loads the generation (acquire); on a match it borrows the cached
//!   snapshot — one atomic load, no refcount write, no shared-state
//!   writes, wait-free. Only when the generation moved (a mutation
//!   actually happened) does the reader take the mutex for the few
//!   nanoseconds an `Arc::clone` costs.
//!
//! Readers that cannot tolerate even that occasional re-acquire can
//! [`SharedSiopmp::pin`] a snapshot and keep checking against it — the
//! paper's analogue of a master that issued before a register rewrite
//! landed.
//!
//! # The shared decision cache
//!
//! Each snapshot carries its own direct-mapped page-verdict table, so
//! publishing a snapshot *is* the cache invalidation: a fresh snapshot
//! starts with every slot empty, and the generation is the one publish
//! counter. Because many threads fill the same slots, each slot is a
//! miniature **seqlock**: writers claim the slot by bumping its version
//! to odd (losers simply drop their fill — a benign lost insert), store
//! the payload, then release an even version; readers re-check the
//! version after reading and treat any interference as a miss.
//! Verdicts are never *wrong*, only occasionally *absent*, and a
//! miss just replays the compiled-view walk that produced the verdict in
//! the first place.
//!
//! Per-SID compiled views are built lazily behind [`OnceLock`] on first
//! use per snapshot, preserving the `siopmp.cache.view_rebuilds`
//! accounting of the single-threaded path (one rebuild per SID per
//! publish, paid by the first check that needs it).

use crate::atomic::SidBlockBitmap;
use crate::cache::{self, PAGE_SHIFT};
use crate::checker::{CheckerKind, Decision};
use crate::config::SiopmpConfig;
use crate::entry::IopmpEntry;
use crate::ids::{DeviceId, EntryIndex, SourceId};
use crate::mountable::{EsidRegister, ExtendedIopmpTable};
use crate::remap::DeviceId2SidCam;
use crate::request::{AccessKind, DmaRequest};
use crate::stats::{CoreCounters, SiopmpStats};
use crate::tables::{EntryTable, MdCfgTable, Src2MdTable};
use crate::telemetry::EventRing;
use crate::unit::CheckOutcome;
use crate::violation::ViolationRecord;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// How a device ID resolved through the SID-routing stage (CAM → eSID →
/// extended table). Routes are pure functions of a snapshot, so they stay
/// valid for as long as the snapshot is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeviceRoute {
    /// CAM hit: a hot device with a dedicated SID.
    Hot(SourceId),
    /// eSID hit: the currently mounted cold device.
    Cold(SourceId),
    /// Registered cold device that is not mounted: SID-missing.
    Missing,
    /// Not in any table: unconditional deny.
    Unknown,
}

/// The bounded violation log, shared by every checker handle. Lives
/// behind a mutex in [`CheckEffects`]; the capacity mirrors
/// [`SiopmpConfig::violation_log_capacity`] and is resizable at runtime.
#[derive(Debug, Clone)]
pub(crate) struct ViolationSink {
    pub(crate) capacity: usize,
    pub(crate) log: VecDeque<ViolationRecord>,
}

impl ViolationSink {
    pub(crate) fn record(&mut self, record: ViolationRecord, dropped: &crate::telemetry::Counter) {
        if self.log.len() >= self.capacity {
            self.log.pop_front();
            dropped.inc();
        }
        self.log.push_back(record);
    }
}

/// Read guard over the captured violation records (oldest first).
/// Dereferences to the underlying queue, so existing `len()` / `iter()`
/// call sites read through it unchanged. Holding the guard briefly blocks
/// concurrent *denied* checks (they append records); drop it before
/// issuing checks on the same unit.
#[derive(Debug)]
pub struct ViolationLog<'a>(MutexGuard<'a, ViolationSink>);

impl<'a> ViolationLog<'a> {
    pub(crate) fn new(guard: MutexGuard<'a, ViolationSink>) -> Self {
        ViolationLog(guard)
    }
}

impl Deref for ViolationLog<'_> {
    type Target = VecDeque<ViolationRecord>;

    fn deref(&self) -> &Self::Target {
        &self.0.log
    }
}

/// The side-effect channels a check writes to, independent of which
/// snapshot served it: the `siopmp.*` counters, the violation telemetry
/// ring, and the bounded violation log. All are internally synchronized,
/// so any number of concurrent checks may share one `CheckEffects`.
#[derive(Debug)]
pub(crate) struct CheckEffects {
    pub(crate) counters: CoreCounters,
    pub(crate) events: EventRing,
    violations: SinkLine,
}

/// The violation log on a cache line of its own. Every denying thread
/// writes it, and every check reads the counter handles beside it, so a
/// shared line would make each deny stall the other threads' checks.
#[derive(Debug)]
#[repr(align(64))]
struct SinkLine(Mutex<ViolationSink>);

impl CheckEffects {
    pub(crate) fn new(counters: CoreCounters, events: EventRing, sink: ViolationSink) -> Self {
        CheckEffects {
            counters,
            events,
            violations: SinkLine(Mutex::new(sink)),
        }
    }

    pub(crate) fn violations(&self) -> MutexGuard<'_, ViolationSink> {
        self.violations.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn deny(&self, req: &DmaRequest, sid: Option<SourceId>, decision: Decision) -> CheckOutcome {
        match decision {
            Decision::DenyPermission { .. } => self.counters.denied_permission.inc(),
            _ => self.counters.denied_no_match.inc(),
        }
        self.counters.violations.inc();
        let record = ViolationRecord {
            device: req.device(),
            sid,
            addr: req.addr(),
            len: req.len(),
            kind: req.kind(),
        };
        self.events.push_deny(record);
        self.violations()
            .record(record, &self.counters.violation_log_dropped);
        CheckOutcome::Denied(record)
    }
}

/// One direct-mapped decision slot, usable by any number of concurrent
/// readers and fillers: a per-slot seqlock. `version == 0` means never
/// filled; odd means a fill is in flight; any other even value is stable.
#[derive(Debug)]
struct SeqlockSlot {
    version: AtomicU64,
    page: AtomicU64,
    meta: AtomicU64,
}

/// Packs `(sid, kind)` into the low 17 bits of a slot's meta word (the
/// tag compared on lookup).
fn slot_tag(sid: SourceId, kind: AccessKind) -> u64 {
    u64::from(sid.0) | ((kind as u64) << 16)
}

/// Meta word layout: bits 0..17 tag, bits 17..19 decision variant
/// (1 = Allow, 2 = DenyPermission, 3 = DenyNoMatch), bits 19..51 the
/// matched entry index.
fn encode_meta(sid: SourceId, kind: AccessKind, decision: Decision) -> u64 {
    let (variant, matched) = match decision {
        Decision::Allow { matched } => (1u64, matched.0),
        Decision::DenyPermission { matched } => (2, matched.0),
        Decision::DenyNoMatch => (3, 0),
    };
    slot_tag(sid, kind) | (variant << 17) | (u64::from(matched) << 19)
}

fn decode_decision(meta: u64) -> Decision {
    let matched = EntryIndex((meta >> 19) as u32);
    match (meta >> 17) & 0b11 {
        1 => Decision::Allow { matched },
        2 => Decision::DenyPermission { matched },
        _ => Decision::DenyNoMatch,
    }
}

impl SeqlockSlot {
    fn new() -> Self {
        SeqlockSlot {
            version: AtomicU64::new(0),
            page: AtomicU64::new(0),
            meta: AtomicU64::new(0),
        }
    }

    /// Seqlock read: any interference (empty slot, in-flight fill, version
    /// moved under us) reads as a miss, never as a torn verdict.
    fn load(&self, sid: SourceId, page: u64, kind: AccessKind) -> Option<Decision> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 == 0 || v1 & 1 == 1 {
            return None;
        }
        let slot_page = self.page.load(Ordering::Relaxed);
        let meta = self.meta.load(Ordering::Relaxed);
        // Pairs with the release fence in `store`: if either data load saw
        // a fill's value, the re-read below must see its claimed version.
        fence(Ordering::Acquire);
        if self.version.load(Ordering::Relaxed) != v1 {
            return None;
        }
        (slot_page == page && meta & 0x1_FFFF == slot_tag(sid, kind)).then(|| decode_decision(meta))
    }

    /// Seqlock fill. A filler that loses the claim race simply drops its
    /// verdict — the next miss recomputes it — so fills never block.
    fn store(&self, sid: SourceId, page: u64, kind: AccessKind, decision: Decision) {
        let v = self.version.load(Ordering::Relaxed);
        if v & 1 == 1 {
            return;
        }
        if self
            .version
            .compare_exchange(v, v + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        self.page.store(page, Ordering::Relaxed);
        self.meta
            .store(encode_meta(sid, kind, decision), Ordering::Relaxed);
        self.version.store(v + 2, Ordering::Release);
    }
}

/// Borrowed views of the unit's master state, bundled for
/// [`CheckerSnapshot::capture`].
pub(crate) struct SnapshotSources<'a> {
    pub config: &'a SiopmpConfig,
    pub cam: &'a DeviceId2SidCam,
    pub esid: &'a EsidRegister,
    pub extended: &'a ExtendedIopmpTable,
    pub blocks: &'a SidBlockBitmap,
    pub src2md: &'a Src2MdTable,
    pub mdcfg: &'a MdCfgTable,
    pub entries: &'a EntryTable,
}

/// One immutable, internally-consistent copy of everything the check path
/// reads: routing state, protection tables, compiled views and the
/// page-granular decision slots. Shared freely across threads; the only
/// interior mutability is monotone (lazy view compilation, seqlock verdict
/// fills), so two checks of the same request against the same snapshot
/// always agree.
#[derive(Debug)]
pub struct CheckerSnapshot {
    checker: CheckerKind,
    cold_sid: SourceId,
    hot: HashMap<DeviceId, SourceId>,
    mounted: Option<DeviceId>,
    cold: HashSet<DeviceId>,
    blocks: SidBlockBitmap,
    src2md: Src2MdTable,
    mdcfg: MdCfgTable,
    entries: EntryTable,
    /// Lazily compiled per-SID masked views; empty when the decision
    /// cache is disabled (the reference walk-and-sort path is used).
    views: Vec<OnceLock<Vec<(EntryIndex, IopmpEntry)>>>,
    slots: Vec<SeqlockSlot>,
    mask: u64,
}

impl CheckerSnapshot {
    pub(crate) fn capture(src: SnapshotSources<'_>) -> Self {
        let slots = if src.config.decision_cache_slots == 0 {
            0
        } else {
            src.config.decision_cache_slots.next_power_of_two()
        };
        let views = if slots == 0 { 0 } else { src.config.num_sids };
        CheckerSnapshot {
            checker: src.config.checker,
            cold_sid: src.config.cold_sid(),
            hot: src.cam.iter().map(|(sid, dev, _)| (dev, sid)).collect(),
            mounted: src.esid.mounted(),
            cold: src.extended.iter().map(|(dev, _)| dev).collect(),
            blocks: src.blocks.clone(),
            src2md: src.src2md.clone(),
            mdcfg: src.mdcfg.clone(),
            entries: src.entries.clone(),
            views: (0..views).map(|_| OnceLock::new()).collect(),
            slots: (0..slots).map(|_| SeqlockSlot::new()).collect(),
            mask: (slots as u64).wrapping_sub(1),
        }
    }

    fn cache_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The direct-mapped slot for `(sid, page, kind)`: bits 24.. of a
    /// Fibonacci hash of the key. A product's bit `i` depends only on the
    /// multiplicand's bits `0..=i`, so the key's high half (the SID at bit
    /// 48, the access kind at bit 63) is folded into the low half first;
    /// otherwise neither could reach the index, and one SID reading and
    /// writing a page — or two SIDs sharing it — would evict each other on
    /// every check.
    fn slot_index(&self, sid: SourceId, page: u64, kind: AccessKind) -> usize {
        let key = (page >> PAGE_SHIFT) ^ (u64::from(sid.0) << 48) ^ ((kind as u64) << 63);
        let key = key ^ (key >> 32);
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) & self.mask) as usize
    }

    /// Resolves which SID (if any) speaks for `device`. Pure — unlike the
    /// owner's CAM path this never touches clock reference bits (the
    /// read-port analogy: lookups through a shared handle do not train
    /// the eviction policy).
    pub(crate) fn route(&self, device: DeviceId) -> DeviceRoute {
        if let Some(&sid) = self.hot.get(&device) {
            return DeviceRoute::Hot(sid);
        }
        if self.mounted == Some(device) {
            return DeviceRoute::Cold(self.cold_sid);
        }
        if self.cold.contains(&device) {
            DeviceRoute::Missing
        } else {
            DeviceRoute::Unknown
        }
    }

    pub(crate) fn check(&self, req: &DmaRequest, effects: &CheckEffects) -> CheckOutcome {
        let route = self.route(req.device());
        self.check_routed(req, route, effects)
    }

    pub(crate) fn check_routed(
        &self,
        req: &DmaRequest,
        route: DeviceRoute,
        effects: &CheckEffects,
    ) -> CheckOutcome {
        effects.counters.checks.inc();
        match route {
            DeviceRoute::Hot(sid) => {
                effects.counters.hot_hits.inc();
                self.check_with_sid(req, sid, effects)
            }
            DeviceRoute::Cold(sid) => {
                effects.counters.cold_hits.inc();
                self.check_with_sid(req, sid, effects)
            }
            DeviceRoute::Missing => {
                effects.counters.sid_missing_interrupts.inc();
                CheckOutcome::SidMissing {
                    device: req.device(),
                }
            }
            DeviceRoute::Unknown => effects.deny(req, None, Decision::DenyNoMatch),
        }
    }

    fn check_with_sid(
        &self,
        req: &DmaRequest,
        sid: SourceId,
        effects: &CheckEffects,
    ) -> CheckOutcome {
        if self.blocks.is_blocked(sid) {
            effects.counters.blocked.inc();
            return CheckOutcome::Stalled { sid };
        }
        let reg = match self.src2md.register(sid) {
            Ok(r) => r,
            Err(_) => {
                // A SID outside the table cannot match anything.
                return effects.deny(req, Some(sid), Decision::DenyNoMatch);
            }
        };

        if !self.cache_enabled() {
            // Cache-free reference path: mask the entry table down to this
            // SID's domains, preserving global priority order.
            let mut masked: Vec<(EntryIndex, &IopmpEntry)> = Vec::new();
            for md in reg.iter() {
                if let Ok((start, end)) = self.mdcfg.window(md) {
                    masked.extend(self.entries.iter_window(start, end));
                }
            }
            masked.sort_by_key(|(i, _)| *i);
            let decision = self
                .checker
                .decide(masked, req.addr(), req.len(), req.kind());
            return self.resolve(req, sid, decision, effects);
        }

        // Fast path: a seqlock hit answers single-page requests without
        // touching the entry table at all.
        let page = cache::page_of(req.addr());
        let cacheable = cache::within_one_page(req.addr(), req.len());
        if cacheable {
            let slot = &self.slots[self.slot_index(sid, page, req.kind())];
            if let Some(decision) = slot.load(sid, page, req.kind()) {
                effects.counters.cache_hits.inc();
                return self.resolve(req, sid, decision, effects);
            }
            effects.counters.cache_misses.inc();
        }

        // Slow path: walk this SID's compiled view, building it on first
        // use for this snapshot (== once per SID per publish).
        let view = self.views[sid.0 as usize].get_or_init(|| {
            effects.counters.cache_view_rebuilds.inc();
            let mut buf: Vec<(EntryIndex, IopmpEntry)> = Vec::new();
            for md in reg.iter() {
                if let Ok((start, end)) = self.mdcfg.window(md) {
                    buf.extend(self.entries.iter_window(start, end).map(|(i, e)| (i, *e)));
                }
            }
            buf.sort_unstable_by_key(|(i, _)| *i);
            buf
        });
        let decision = self.checker.decide(
            view.iter().map(|(i, e)| (*i, e)),
            req.addr(),
            req.len(),
            req.kind(),
        );
        if cacheable {
            if let Some(verdict) = cache::page_verdict(view, page, req.kind()) {
                // A cacheable page verdict is by construction the decision
                // for every access confined to that page, including this
                // one.
                debug_assert_eq!(verdict, decision);
                self.slots[self.slot_index(sid, page, req.kind())].store(
                    sid,
                    page,
                    req.kind(),
                    verdict,
                );
            }
        }
        self.resolve(req, sid, decision, effects)
    }

    fn resolve(
        &self,
        req: &DmaRequest,
        sid: SourceId,
        decision: Decision,
        effects: &CheckEffects,
    ) -> CheckOutcome {
        match decision {
            Decision::Allow { matched } => {
                effects.counters.allowed.inc();
                CheckOutcome::Allowed { matched, sid }
            }
            other => effects.deny(req, Some(sid), other),
        }
    }

    /// Batched checks against this one snapshot, the one route-memo loop
    /// behind every `check_batch`: identical outcomes and counters to a
    /// per-request loop, with each distinct device routed through
    /// `resolve` only once. The owner passes a router that trains the
    /// CAM's reference bits; shared and pinned handles pass the snapshot's
    /// pure [`CheckerSnapshot::route`].
    ///
    /// The memo deliberately stops at the *routing* stage (CAM / eSID /
    /// extended table): nothing on the check path mutates those
    /// structures, and the only side effect of a repeated CAM lookup is
    /// re-setting an already-set reference bit, so a route resolved at the
    /// first beat is valid for the whole batch. Decisions themselves are
    /// **not** memoised across beats: the decision cache is direct-mapped,
    /// so a fill for one page can evict another mid-batch, and a
    /// batch-level decision memo would diverge from the per-beat engine's
    /// hit/miss counters the moment that happens.
    pub(crate) fn check_batch(
        &self,
        reqs: &[DmaRequest],
        effects: &CheckEffects,
        mut resolve: impl FnMut(DeviceId) -> DeviceRoute,
    ) -> Vec<CheckOutcome> {
        let mut routes: Vec<(DeviceId, DeviceRoute)> = Vec::new();
        reqs.iter()
            .map(|req| {
                let route = match routes.iter().find(|(d, _)| *d == req.device()) {
                    Some(&(_, route)) => route,
                    None => {
                        let route = resolve(req.device());
                        routes.push((req.device(), route));
                        route
                    }
                };
                self.check_routed(req, route, effects)
            })
            .collect()
    }
}

/// Uniquifies [`SharedState`] instances so thread-local snapshot caches
/// from dropped units can never alias a new unit's cache line.
static NEXT_STATE_ID: AtomicU64 = AtomicU64::new(1);

/// Per-thread cache of recently acquired snapshots, keyed by state id.
/// Bounded: a thread touching many units keeps at most this many
/// snapshots alive.
const TLS_CACHE_CAP: usize = 8;

thread_local! {
    static SNAPSHOT_TLS: RefCell<Vec<(u64, u64, Arc<CheckerSnapshot>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The publication point shared by the owning [`crate::Siopmp`] and every
/// [`SharedSiopmp`] handle: the current snapshot, the generation counter
/// readers race on, and the shared side-effect channels.
#[derive(Debug)]
pub(crate) struct SharedState {
    state_id: u64,
    generation: AtomicU64,
    current: Mutex<Arc<CheckerSnapshot>>,
    effects: CheckEffects,
}

impl SharedState {
    pub(crate) fn new(initial: Arc<CheckerSnapshot>, effects: CheckEffects) -> Self {
        SharedState {
            state_id: NEXT_STATE_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(1),
            current: Mutex::new(initial),
            effects,
        }
    }

    pub(crate) fn effects(&self) -> &CheckEffects {
        &self.effects
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publishes `snapshot` as the current one. The generation bump is
    /// inside the critical section, so `(state_id, generation)` names
    /// exactly one snapshot ever.
    pub(crate) fn publish(&self, snapshot: Arc<CheckerSnapshot>) {
        let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        *current = snapshot;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Runs `f` on the current snapshot and the exact publish generation
    /// it was current at. The pair is consistent even against concurrent
    /// publishes: a TLS hit's pair was recorded under the lock, and a miss
    /// re-reads both under the lock.
    ///
    /// Steady state (no publish since this thread's last call) is one
    /// acquire load plus a TLS hit, and `f` borrows the cached snapshot:
    /// wait-free, with no lock, no read-modify-write and no allocation.
    /// Only a changed generation takes the mutex, to clone the new `Arc`
    /// into the cache. `f` must not acquire a snapshot itself.
    fn with_snapshot<R>(&self, f: impl FnOnce(&Arc<CheckerSnapshot>, u64) -> R) -> R {
        let generation = self.generation.load(Ordering::Acquire);
        SNAPSHOT_TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let at = match tls.iter().position(|(id, ..)| *id == self.state_id) {
                Some(at) => {
                    if tls[at].1 != generation {
                        let (snapshot, generation) = self.acquire_slow();
                        tls[at] = (self.state_id, generation, snapshot);
                    }
                    at
                }
                None => {
                    if tls.len() >= TLS_CACHE_CAP {
                        tls.remove(0);
                    }
                    let (snapshot, generation) = self.acquire_slow();
                    tls.push((self.state_id, generation, snapshot));
                    tls.len() - 1
                }
            };
            let (_, generation, snapshot) = &tls[at];
            f(snapshot, *generation)
        })
    }

    fn acquire_slow(&self) -> (Arc<CheckerSnapshot>, u64) {
        let current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        let snapshot = current.clone();
        // Read under the lock, where the generation cannot move: the pair
        // cached in TLS is exact, never skewed by a concurrent publish.
        let generation = self.generation.load(Ordering::Relaxed);
        (snapshot, generation)
    }
}

/// A cloneable, thread-safe checker handle over a [`crate::Siopmp`]
/// unit's published snapshots (obtained via [`crate::Siopmp::share`]).
///
/// Checks through this handle are observationally identical to the
/// owner's `&mut self` check path — same outcomes, same `siopmp.*`
/// counters, same violation log — with two documented exceptions: shared
/// lookups never train the CAM's clock reference bits, and concurrent
/// fills of the same decision slot may drop one verdict (costing a cache
/// miss, never a wrong answer).
///
/// # Examples
///
/// ```
/// use siopmp::{Siopmp, SiopmpConfig};
/// use siopmp::ids::{DeviceId, MdIndex};
/// use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
/// use siopmp::request::{AccessKind, DmaRequest};
///
/// # fn main() -> Result<(), siopmp::error::SiopmpError> {
/// let mut unit = Siopmp::build(SiopmpConfig::small(), None);
/// let sid = unit.map_hot_device(DeviceId(1))?;
/// unit.associate_sid_with_md(sid, MdIndex(0))?;
/// unit.install_entry(MdIndex(0), IopmpEntry::new(
///     AddressRange::new(0x1000, 0x1000)?, Permissions::rw()))?;
///
/// let shared = unit.share();
/// let req = DmaRequest::new(DeviceId(1), AccessKind::Read, 0x1000, 8);
/// let handles: Vec<_> = std::thread::scope(|s| {
///     (0..4).map(|_| {
///         let shared = shared.clone();
///         let req = req.clone();
///         s.spawn(move || shared.check(&req).is_allowed()).join().unwrap()
///     }).collect()
/// });
/// assert!(handles.into_iter().all(|allowed| allowed));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedSiopmp {
    state: Arc<SharedState>,
}

impl SharedSiopmp {
    pub(crate) fn new(state: Arc<SharedState>) -> Self {
        SharedSiopmp { state }
    }

    /// Presents one DMA request to the current published snapshot.
    pub fn check(&self, req: &DmaRequest) -> CheckOutcome {
        let effects = self.state.effects();
        self.state
            .with_snapshot(|snapshot, _| snapshot.check(req, effects))
    }

    /// Checks a batch against one snapshot (each distinct device routed
    /// once), so a publish cannot land mid-batch.
    pub fn check_batch(&self, reqs: &[DmaRequest]) -> Vec<CheckOutcome> {
        let effects = self.state.effects();
        self.state.with_snapshot(|snapshot, _| {
            snapshot.check_batch(reqs, effects, |device| snapshot.route(device))
        })
    }

    /// Pins the current snapshot for repeated checks.
    pub fn pin(&self) -> PinnedChecker {
        let (snapshot, pinned_generation) = self
            .state
            .with_snapshot(|snapshot, generation| (snapshot.clone(), generation));
        PinnedChecker {
            snapshot,
            pinned_generation,
            state: self.state.clone(),
        }
    }

    /// Monotone publish counter: bumps on every mutator call that
    /// publishes, so two equal readings bracket an interval with no
    /// configuration activity at all (see [`crate::Siopmp::generation`]).
    pub fn generation(&self) -> u64 {
        self.state.generation()
    }

    /// Runtime counters, shared with the owning unit.
    pub fn stats(&self) -> SiopmpStats {
        self.state.effects().counters.snapshot()
    }

    /// The shared violation log (see [`crate::Siopmp::violation_log`]).
    pub fn violation_log(&self) -> ViolationLog<'_> {
        ViolationLog(self.state.effects().violations())
    }
}

/// A checker pinned to one specific snapshot: every check answers from
/// the configuration as of [`SharedSiopmp::pin`] time, regardless of
/// publishes since. This models a hardware master whose request entered
/// the check pipeline before a register rewrite landed — and is the
/// device the regression test for "a snapshot held across a cold switch
/// still answers from the old configuration" drives.
#[derive(Debug, Clone)]
pub struct PinnedChecker {
    snapshot: Arc<CheckerSnapshot>,
    /// Publish-generation the pin was taken at (see
    /// [`PinnedChecker::generation`]).
    pinned_generation: u64,
    state: Arc<SharedState>,
}

impl PinnedChecker {
    /// Checks against the pinned snapshot.
    pub fn check(&self, req: &DmaRequest) -> CheckOutcome {
        self.snapshot.check(req, self.state.effects())
    }

    /// Batch counterpart of [`PinnedChecker::check`].
    pub fn check_batch(&self, reqs: &[DmaRequest]) -> Vec<CheckOutcome> {
        self.snapshot
            .check_batch(reqs, self.state.effects(), |device| {
                self.snapshot.route(device)
            })
    }

    /// The publish generation this pin was taken at (constant for the
    /// pin's life). Comparing it against the live
    /// [`SharedSiopmp::generation`] tells exactly how many publishes the
    /// pinned view has missed: equal readings mean the pin is current,
    /// and a delta of one across a cold switch is the atomicity witness
    /// the model checker asserts — the switch was a single publication,
    /// so no hybrid old/new snapshot was ever observable.
    pub fn generation(&self) -> u64 {
        self.pinned_generation
    }

    /// Whether the owning unit has published past this pin.
    pub fn is_stale(&self) -> bool {
        self.pinned_generation != self.state.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedSiopmp>();
        assert_send_sync::<PinnedChecker>();
        assert_send_sync::<CheckerSnapshot>();
    }

    #[test]
    fn meta_word_round_trips_every_decision() {
        let sid = SourceId(0x1ABC);
        for kind in [AccessKind::Read, AccessKind::Write] {
            for decision in [
                Decision::Allow {
                    matched: EntryIndex(u32::MAX),
                },
                Decision::DenyPermission {
                    matched: EntryIndex(12345),
                },
                Decision::DenyNoMatch,
            ] {
                let meta = encode_meta(sid, kind, decision);
                assert_eq!(meta & 0x1_FFFF, slot_tag(sid, kind));
                assert_eq!(decode_decision(meta), decision);
            }
        }
    }

    #[test]
    fn seqlock_slot_misses_when_empty_or_mismatched() {
        let slot = SeqlockSlot::new();
        let sid = SourceId(3);
        assert_eq!(slot.load(sid, 0x1000, AccessKind::Read), None);
        let d = Decision::Allow {
            matched: EntryIndex(7),
        };
        slot.store(sid, 0x1000, AccessKind::Read, d);
        assert_eq!(slot.load(sid, 0x1000, AccessKind::Read), Some(d));
        assert_eq!(slot.load(sid, 0x1000, AccessKind::Write), None);
        assert_eq!(slot.load(SourceId(4), 0x1000, AccessKind::Read), None);
        assert_eq!(slot.load(sid, 0x2000, AccessKind::Read), None);
    }

    #[test]
    fn seqlock_slot_never_serves_a_torn_verdict_under_contention() {
        // Two writers hammer the same slot with distinguishable payloads;
        // readers must only ever observe one of the two exact pairs.
        let slot = Arc::new(SeqlockSlot::new());
        let a = (
            SourceId(1),
            0x1000u64,
            Decision::Allow {
                matched: EntryIndex(11),
            },
        );
        let b = (
            SourceId(2),
            0x2000u64,
            Decision::DenyPermission {
                matched: EntryIndex(22),
            },
        );
        std::thread::scope(|s| {
            for &(sid, page, decision) in [&a, &b] {
                let slot = slot.clone();
                s.spawn(move || {
                    for _ in 0..20_000 {
                        slot.store(sid, page, AccessKind::Read, decision);
                    }
                });
            }
            for _ in 0..4 {
                let slot = slot.clone();
                s.spawn(move || {
                    for _ in 0..20_000 {
                        for &(sid, page, decision) in [&a, &b] {
                            if let Some(d) = slot.load(sid, page, AccessKind::Read) {
                                assert_eq!(d, decision, "torn or cross-keyed verdict");
                            }
                        }
                    }
                });
            }
        });
    }
}
