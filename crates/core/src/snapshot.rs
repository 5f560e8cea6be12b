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
//!   clones, and per-SID compiled views with their interval indexes) and
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
//! # The per-SID interval index
//!
//! Each SID's compiled view is built lazily behind a [`OnceLock`] on first
//! use per snapshot — one build per SID per publish, counted in
//! `siopmp.cache.view_rebuilds` — and carries an interval index beside
//! the entries. The entries' bases and ends cut the address space into
//! segments, the first starting at 0. Every entry either covers a whole
//! segment or misses it entirely, so an access that lies inside one
//! segment is contained by exactly the entries that cover that segment,
//! and the lowest-index one decides it, as [`CheckerKind::decide`] would.
//! The index stores the segment starts, sorted, and beside them each
//! segment's label: the lowest-index covering entry and its permissions,
//! or none. A check is one binary search plus one label read, counted in
//! `siopmp.cache.hits`. An access that spans segments, is empty or wraps
//! walks the view in priority order instead, counted in
//! `siopmp.cache.misses`.
//!
//! Nothing in a snapshot changes after its `OnceLock`s are set, so two
//! checks of the same request against the same snapshot always agree,
//! from any thread.

use crate::atomic::SidBlockBitmap;
use crate::checker::{CheckerKind, Decision};
use crate::config::SiopmpConfig;
use crate::entry::{IopmpEntry, Permissions};
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
use std::hint::select_unpredictable;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// One SID's compiled view: the entries its SRC2MD registration reaches,
/// and the interval index that decides an access inside one segment
/// without walking them (see the module docs).
#[derive(Debug)]
struct SidView {
    /// The reachable entries in ascending index order: what a miss walks.
    entries: Vec<(EntryIndex, IopmpEntry)>,
    /// Segment starts, ascending and distinct; `starts[0] == 0`.
    starts: Vec<u64>,
    /// `labels[i]`: the lowest-index entry covering segment `i` and its
    /// permissions, or `None` when no entry covers it.
    labels: Vec<Option<(EntryIndex, Permissions)>>,
}

impl SidView {
    /// Indexes `entries`, which must be sorted by index. Painting the
    /// entries in index order labels each segment with the first entry to
    /// cover it. A skip array (union-find with path halving) leads each
    /// painter past the segments already labelled, so the build is
    /// O(n log n) however much the entries overlap.
    fn new(entries: Vec<(EntryIndex, IopmpEntry)>) -> Self {
        let mut starts = Vec::with_capacity(2 * entries.len() + 1);
        starts.push(0);
        for (_, entry) in &entries {
            starts.extend([entry.range().base(), entry.range().end()]);
        }
        starts.sort_unstable();
        starts.dedup();
        let mut labels = vec![None; starts.len()];
        // `next[i]` leads to the first unlabelled segment at or after `i`;
        // `next[starts.len()]` is the end sentinel.
        let mut next: Vec<usize> = (0..=starts.len()).collect();
        for &(index, entry) in &entries {
            let range = entry.range();
            let end = starts.partition_point(|&s| s < range.end());
            let mut i = unlabelled(&mut next, starts.partition_point(|&s| s < range.base()));
            while i < end {
                labels[i] = Some((index, entry.permissions()));
                next[i] = i + 1;
                i = unlabelled(&mut next, i + 1);
            }
        }
        SidView {
            entries,
            starts,
            labels,
        }
    }

    /// The decision for an access inside one segment: its label's. `None`
    /// when the access is empty, wraps, or spans segments.
    fn lookup(&self, addr: u64, len: u64, kind: AccessKind) -> Option<Decision> {
        let end = addr.checked_add(len).filter(|_| len > 0)?;
        // The last segment starting at or below `addr`, by a branchless
        // lower bound: the loop's only branch is its trip count.
        let mut at = 0;
        let mut size = self.starts.len();
        while size > 1 {
            let half = size / 2;
            at = select_unpredictable(self.starts[at + half] <= addr, at + half, at);
            size -= half;
        }
        // Every non-wrapping access ends at or below `u64::MAX`, so the
        // last segment contains any that starts in it.
        if end > self.starts.get(at + 1).copied().unwrap_or(u64::MAX) {
            return None;
        }
        Some(match self.labels[at] {
            Some((matched, perms)) if perms.allows(kind.required()) => Decision::Allow { matched },
            Some((matched, _)) => Decision::DenyPermission { matched },
            None => Decision::DenyNoMatch,
        })
    }
}

/// Follows `next` from `i` to the first unlabelled segment, halving the
/// path on the way.
fn unlabelled(next: &mut [usize], mut i: usize) -> usize {
    while next[i] != i {
        next[i] = next[next[i]];
        i = next[i];
    }
    i
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
    /// Whether checks walk and sort the masked entry list every time (the
    /// reference semantics the differential suites compare against)
    /// instead of compiling per-SID views.
    pub reference: bool,
}

/// One immutable, internally-consistent copy of everything the check path
/// reads: routing state, protection tables, and per-SID compiled views
/// with their interval indexes. Shared freely across threads; the only
/// interior mutability is each view's one-time lazy build, so two checks
/// of the same request against the same snapshot always agree.
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
    /// Lazily compiled per-SID views; empty in a reference unit, which
    /// walks and sorts the masked entry list on every check.
    views: Vec<OnceLock<SidView>>,
}

impl CheckerSnapshot {
    pub(crate) fn capture(src: SnapshotSources<'_>) -> Self {
        let views = if src.reference {
            0
        } else {
            src.config.num_sids
        };
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
        }
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

        if self.views.is_empty() {
            // Reference walk: mask the entry table down to this SID's
            // domains, preserving global priority order.
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

        // Compile this SID's view and index on first use in this snapshot
        // (== once per SID per publish).
        let view = self.views[sid.0 as usize].get_or_init(|| {
            effects.counters.cache_view_rebuilds.inc();
            let mut buf: Vec<(EntryIndex, IopmpEntry)> = Vec::new();
            for md in reg.iter() {
                if let Ok((start, end)) = self.mdcfg.window(md) {
                    buf.extend(self.entries.iter_window(start, end).map(|(i, e)| (i, *e)));
                }
            }
            buf.sort_unstable_by_key(|(i, _)| *i);
            SidView::new(buf)
        });
        let decision = match view.lookup(req.addr(), req.len(), req.kind()) {
            Some(decision) => {
                effects.counters.cache_hits.inc();
                decision
            }
            None => {
                effects.counters.cache_misses.inc();
                self.checker.decide(
                    view.entries.iter().map(|(i, e)| (*i, e)),
                    req.addr(),
                    req.len(),
                    req.kind(),
                )
            }
        };
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
    /// **not** memoised across beats: each beat is one index lookup, and
    /// it counts its own index hit or miss, as the per-beat engine does.
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
/// counters, same violation log — with one documented exception: shared
/// lookups never train the CAM's clock reference bits.
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
}
