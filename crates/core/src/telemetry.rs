//! Unified, zero-dependency observability: monotonic counters, log2-bucketed
//! latency histograms and bounded event rings, collected in a shared
//! [`Telemetry`] registry.
//!
//! The paper's whole evaluation (Figs. 10–14) is counter-driven — checker
//! hits, cold switches, added cycles per burst, bandwidth — so every crate
//! in the workspace registers its metrics here instead of growing its own
//! ad-hoc stats struct. The legacy [`crate::stats::SiopmpStats`] and the bus
//! `SimReport` aggregates are now *views* over this registry.
//!
//! Handles are cheap (`Arc` clones) and thread-safe: counters and histogram
//! buckets are atomics, rings take a mutex only on push/snapshot. Hot paths
//! hold a pre-resolved handle ([`Telemetry::counter`] is get-or-create, done
//! once at construction). A [`Counter`] is striped: each thread adds to a
//! cache line of its own (one thread-local read and one relaxed add), and
//! a read sums the lines, so checks running on several threads never write
//! the same line. A ring may hold typed deny records, which render as text
//! only when read, so recording one allocates nothing once the ring is full.
//!
//! ```
//! use siopmp::telemetry::Telemetry;
//!
//! let t = Telemetry::new();
//! let checks = t.counter("siopmp.checks");
//! let lat = t.histogram("bus.burst_latency_cycles");
//! checks.inc();
//! lat.record(17);
//! let snap = t.snapshot();
//! assert_eq!(snap.counters["siopmp.checks"], 1);
//! // Bucket [16,31], clamped to the observed max.
//! assert_eq!(snap.histograms["bus.burst_latency_cycles"].p50(), 17);
//! ```

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::violation::ViolationRecord;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Cells per [`Counter`], a power of two. Up to this many threads alive at
/// once each add to a cell of their own; more share cells.
const CELLS: usize = 8;

/// One counter cell, alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct PaddedCell(AtomicU64);

/// Cells held by live threads, one bit per cell index. Relaxed: the bits
/// only spread threads over cells, and no count depends on them.
static CELLS_HELD: AtomicUsize = AtomicUsize::new(0);

/// Hands out cell indices once every cell is held.
static CELLS_SHARED: AtomicUsize = AtomicUsize::new(0);

/// Marks a thread that has not added to any counter yet.
const NO_CELL: usize = usize::MAX;

thread_local! {
    /// The cell index this thread adds to, or [`NO_CELL`].
    static CELL: Cell<usize> = const { Cell::new(NO_CELL) };
    /// The cell index this thread holds, freed when the thread exits.
    static HELD: HeldCell = const { HeldCell(Cell::new(None)) };
}

struct HeldCell(Cell<Option<usize>>);

impl Drop for HeldCell {
    fn drop(&mut self) {
        if let Some(i) = self.0.get() {
            CELLS_HELD.fetch_and(!(1 << i), Ordering::Relaxed);
        }
    }
}

/// The calling thread's cell index, below [`CELLS`].
#[inline]
fn thread_cell() -> usize {
    let i = CELL.with(Cell::get);
    if i < CELLS {
        i
    } else {
        claim_cell()
    }
}

/// Gives the calling thread the lowest cell no live thread holds, or, when
/// every cell is held, one in turn to share.
#[cold]
fn claim_cell() -> usize {
    let all = (1usize << CELLS) - 1;
    let mut held = CELLS_HELD.load(Ordering::Relaxed);
    let i = loop {
        let free = !held & all;
        if free == 0 {
            break CELLS_SHARED.fetch_add(1, Ordering::Relaxed) % CELLS;
        }
        let i = free.trailing_zeros() as usize;
        match CELLS_HELD.compare_exchange_weak(
            held,
            held | 1 << i,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                // A thread already tearing down its thread-locals cannot
                // hold a cell until exit: it shares this one instead.
                if HELD.try_with(|h| h.0.set(Some(i))).is_err() {
                    CELLS_HELD.fetch_and(!(1 << i), Ordering::Relaxed);
                }
                break i;
            }
            Err(now) => held = now,
        }
    };
    CELL.with(|c| c.set(i));
    i
}

/// A monotonic counter handle. Cloning shares the underlying cells.
///
/// The count is striped over eight cells, each on a cache line of its
/// own. A thread adds to the cell it was given at its first add, and
/// threads alive at the same time get different cells while there are no
/// more of them than cells, so they do not write one line.
/// [`Counter::get`] returns the wrapping sum of the cells, which equals
/// what a single cell would hold, wraparound included.
#[derive(Clone, Default)]
pub struct Counter(Arc<[PaddedCell; CELLS]>);

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping on overflow — counters are monotone deltas, and
    /// wrapping keeps the hot path branch-free).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[thread_cell() % CELLS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The current value: the wrapping sum of every thread's adds.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.iter().fold(0, |sum, cell| {
            sum.wrapping_add(cell.0.load(Ordering::Relaxed))
        })
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log2-bucketed histogram handle: values land in bucket
/// `⌊log2(v)⌋ + 1` (zero in bucket 0), so the full `u64` range fits in
/// [`HISTOGRAM_BUCKETS`] cells and percentiles are answered without storing
/// samples. Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index `value` lands in: 0 for 0, else `64 − clz(value)`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The largest value bucket `i` can hold (`0`, then `2^i − 1`;
    /// `u64::MAX` for the last bucket). Percentiles report this upper
    /// bound, i.e. they are conservative (never under-estimate).
    pub fn bucket_ceiling(i: usize) -> u64 {
        match i {
            0 => 0,
            i if i >= 64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &*self.0;
        inner.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        }
    }

    /// Adds a snapshot's buckets, count and sum into this histogram
    /// (wrapping) and raises `max` to the snapshot's. The building block
    /// for merging per-shard histograms into a fleet-wide one.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        let inner = &*self.0;
        for (i, b) in snap.buckets.iter().enumerate() {
            inner.buckets[i].fetch_add(*b, Ordering::Relaxed);
        }
        inner.count.fetch_add(snap.count, Ordering::Relaxed);
        inner.sum.fetch_add(snap.sum, Ordering::Relaxed);
        inner.max.fetch_max(snap.max, Ordering::Relaxed);
    }
}

/// Frozen histogram state with percentile queries. The default is the
/// empty histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`Histogram::bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, reported as the ceiling of
    /// the bucket the quantile falls in (clamped to the observed max).
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= rank {
                return Histogram::bucket_ceiling(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (conservative bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile (conservative bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// The samples recorded between `prev` and `self`, where `prev` is an
    /// earlier snapshot of the *same* histogram: buckets, count and sum are
    /// wrapping differences (matching [`Histogram::record`]'s wrapping
    /// arithmetic); `max` is carried over as the current high-water mark,
    /// because a running maximum has no meaningful delta and
    /// [`Histogram::absorb`] folds it with `fetch_max` anyway.
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_sub(prev.buckets[i])),
            count: self.count.wrapping_sub(prev.count),
            sum: self.sum.wrapping_sub(prev.sum),
            max: self.max,
        }
    }

    /// Arithmetic mean of the exact recorded sum; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// JSON form: `{count, sum, max, p50, p99, mean, buckets: {"<floor>": n}}`
    /// with only non-empty buckets listed (keyed by their floor value).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<(String, Json)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| **b > 0)
            .map(|(i, b)| {
                let floor = if i == 0 { 0 } else { 1u64 << (i - 1) };
                (floor.to_string(), Json::u64(*b))
            })
            .collect();
        Json::object([
            ("count", Json::u64(self.count)),
            ("sum", Json::u64(self.sum)),
            ("max", Json::u64(self.max)),
            ("p50", Json::u64(self.p50())),
            ("p99", Json::u64(self.p99())),
            ("mean", Json::f64(self.mean())),
            ("buckets", Json::Object(buckets)),
        ])
    }
}

// ---------------------------------------------------------------------------
// Event ring
// ---------------------------------------------------------------------------

/// One entry in an [`EventRing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number (never reused, so consumers can detect
    /// gaps created by drops).
    pub seq: u64,
    /// Free-form payload.
    pub message: String,
}

/// What a ring holds per event: free text, or a typed deny record that
/// renders as text only when read.
#[derive(Debug, Clone)]
enum Payload {
    Text(String),
    Deny(ViolationRecord),
}

impl Payload {
    fn render(&self) -> String {
        match self {
            Payload::Text(message) => message.clone(),
            Payload::Deny(r) => format!(
                "deny device={} addr={:#x} len={} kind={}",
                r.device.0, r.addr, r.len, r.kind
            ),
        }
    }
}

#[derive(Debug)]
struct RingInner {
    capacity: usize,
    dropped: u64,
    /// Retained events, oldest first. They carry consecutive sequence
    /// numbers starting at `dropped`, the number evicted before them.
    events: VecDeque<Payload>,
}

impl RingInner {
    /// The retained events with sequence number `seq` or later, rendered.
    fn render_since(&self, seq: u64) -> Vec<Event> {
        let skip = seq.saturating_sub(self.dropped) as usize;
        (self.dropped..)
            .zip(&self.events)
            .skip(skip)
            .map(|(seq, payload)| Event {
                seq,
                message: payload.render(),
            })
            .collect()
    }
}

/// A bounded ring of recent events. When full, the *oldest* event is
/// overwritten and counted in `dropped` — the same accountability contract
/// as the bus `TraceBuffer` (which reports `dropped` too, though it keeps
/// the earliest events instead; a ring keeps the most recent because its
/// consumers are post-mortem debuggers).
#[derive(Debug, Clone)]
pub struct EventRing(Arc<Mutex<RingInner>>);

impl EventRing {
    /// A fresh ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventRing(Arc::new(Mutex::new(RingInner {
            capacity: capacity.max(1),
            dropped: 0,
            events: VecDeque::new(),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        self.0.lock().expect("no ring holder panicked")
    }

    /// Appends an event, evicting (and counting) the oldest when full.
    pub fn push(&self, message: impl Into<String>) {
        self.push_payload(Payload::Text(message.into()));
    }

    /// Appends a deny record, read back as
    /// `deny device=… addr=0x… len=… kind=…`. Once the ring is full this
    /// allocates nothing.
    pub(crate) fn push_deny(&self, record: ViolationRecord) {
        self.push_payload(Payload::Deny(record));
    }

    fn push_payload(&self, payload: Payload) {
        let mut inner = self.lock();
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(payload);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Copies of the retained events with sequence number `seq` or later,
    /// oldest first. Events evicted before the call are not returned.
    pub fn events_since(&self, seq: u64) -> Vec<Event> {
        self.lock().render_since(seq)
    }

    /// Pushes into `into` the retained events with sequence number `seq`
    /// or later, deny records staying typed, and returns the sequence
    /// number after the last event seen. The events are copied out before
    /// `into` is locked, so two rings copying into each other cannot
    /// deadlock.
    fn copy_since(&self, seq: u64, into: &EventRing) -> u64 {
        let (copied, next) = {
            let inner = self.lock();
            let skip = seq.saturating_sub(inner.dropped) as usize;
            let copied: Vec<Payload> = inner.events.iter().skip(skip).cloned().collect();
            (copied, inner.dropped + inner.events.len() as u64)
        };
        for payload in copied {
            into.push_payload(payload);
        }
        next.max(seq)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> RingSnapshot {
        let inner = self.lock();
        RingSnapshot {
            capacity: inner.capacity,
            dropped: inner.dropped,
            events: inner.render_since(0),
        }
    }
}

/// Frozen [`EventRing`] state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSnapshot {
    /// Ring capacity.
    pub capacity: usize,
    /// Events evicted before this snapshot.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

impl RingSnapshot {
    /// JSON form: `{capacity, dropped, events: [{seq, message}]}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("capacity", Json::u64(self.capacity as u64)),
            ("dropped", Json::u64(self.dropped)),
            (
                "events",
                Json::array(self.events.iter().map(|e| {
                    Json::object([
                        ("seq", Json::u64(e.seq)),
                        ("message", Json::str(e.message.clone())),
                    ])
                })),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct TelemetryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    rings: Mutex<BTreeMap<String, EventRing>>,
    /// Metrics of any kind registered so far; a [`DeltaFold`] re-resolves
    /// its handles only when this moves.
    registered: AtomicUsize,
}

/// The shared metric registry. Cloning shares the registry; use
/// [`Telemetry::fork`] for an independent copy (what [`crate::Siopmp`]'s
/// `Clone` does, so a cloned unit keeps its history but counts alone).
///
/// Metric names are dotted paths by convention: `<crate>.<metric>`, e.g.
/// `siopmp.cold_switches`, `bus.burst_latency_cycles`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Arc<TelemetryInner>);

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// The counter registered under `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_register(&self.0.counters, name, Counter::default)
    }

    /// The histogram registered under `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_register(&self.0.histograms, name, Histogram::default)
    }

    /// The event ring registered under `name`, created with `capacity` on
    /// first use (an existing ring keeps its original capacity).
    pub fn ring(&self, name: &str, capacity: usize) -> EventRing {
        self.get_or_register(&self.0.rings, name, || EventRing::new(capacity))
    }

    fn get_or_register<T: Clone>(
        &self,
        map: &Mutex<BTreeMap<String, T>>,
        name: &str,
        create: impl FnOnce() -> T,
    ) -> T {
        let mut map = map.lock().expect("no registry holder panicked");
        if let Some(metric) = map.get(name) {
            return metric.clone();
        }
        self.0.registered.fetch_add(1, Ordering::Relaxed);
        map.entry(name.to_string()).or_insert_with(create).clone()
    }

    /// An independent registry pre-loaded with this one's current values:
    /// counters keep their totals, histograms their buckets, rings their
    /// retained events — but future updates on either side are invisible
    /// to the other.
    pub fn fork(&self) -> Telemetry {
        let fresh = Telemetry::new();
        for (name, counter) in self.0.counters.lock().unwrap().iter() {
            fresh.counter(name).add(counter.get());
        }
        for (name, histogram) in self.0.histograms.lock().unwrap().iter() {
            fresh.histogram(name).absorb(&histogram.snapshot());
        }
        for (name, ring) in self.0.rings.lock().unwrap().iter() {
            let capacity = ring.lock().capacity;
            ring.copy_since(0, &fresh.ring(name, capacity));
        }
        fresh
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .0
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .0
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            rings: self
                .0
                .rings
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Frozen [`Telemetry`] state, ready for JSON export.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Ring snapshots by name.
    pub rings: BTreeMap<String, RingSnapshot>,
}

impl TelemetrySnapshot {
    /// JSON form: `{counters: {...}, histograms: {...}, rings: {...}}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::u64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "rings",
                Json::Object(
                    self.rings
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One fold pairing: a source metric, its namesake in the target, and
/// the fold state (what the source had reached at the last fold).
#[derive(Debug)]
struct Pair<T, S> {
    name: String,
    from: T,
    into: T,
    seen: S,
}

/// Folds one registry's activity into another, incrementally: each
/// [`DeltaFold::fold`] adds what the source recorded since the previous
/// fold. Counters grow by the wrapping difference, histograms absorb the
/// bucket/count/sum deltas, and ring events pushed since the last fold
/// are re-pushed into the target (whose rings assign their own sequence
/// numbers and eviction accounting; events the source evicted before a
/// fold saw them are not folded).
///
/// Every source metric is paired with its target namesake once, and the
/// pairs are re-resolved only when the source registers a new metric, so
/// a fold costs a few atomic loads per metric and no name lookups.
/// Metrics fold by kind (counters, histograms, rings) and by name within
/// a kind, so folding several sources in a fixed order always produces
/// the same target state — what the parallel bus engine relies on when it
/// folds its per-shard registries at every epoch barrier.
///
/// ```
/// use siopmp::telemetry::{DeltaFold, Telemetry};
///
/// let (shard, merged) = (Telemetry::new(), Telemetry::new());
/// let mut fold = DeltaFold::new(&shard, &merged);
/// shard.counter("bus.bursts_ok").add(3);
/// fold.fold();
/// fold.fold(); // nothing new: a no-op
/// assert_eq!(merged.counter("bus.bursts_ok").get(), 3);
/// ```
#[derive(Debug)]
pub struct DeltaFold {
    source: Telemetry,
    target: Telemetry,
    /// The source's `registered` count when the pairs were resolved.
    resolved: usize,
    counters: Vec<Pair<Counter, u64>>,
    histograms: Vec<Pair<Histogram, HistogramSnapshot>>,
    rings: Vec<Pair<EventRing, u64>>,
}

impl DeltaFold {
    /// A fold of everything `source` records, from its beginning, into
    /// `target`. Nothing is resolved or folded until the first
    /// [`DeltaFold::fold`].
    pub fn new(source: &Telemetry, target: &Telemetry) -> Self {
        DeltaFold {
            source: source.clone(),
            target: target.clone(),
            resolved: 0,
            counters: Vec::new(),
            histograms: Vec::new(),
            rings: Vec::new(),
        }
    }

    /// Adds the source's activity since the previous fold to the target,
    /// registering there every metric the source has.
    pub fn fold(&mut self) {
        // Relaxed: the maps are read under their own mutexes, and a stale
        // count only defers pairing a new metric to the next fold, which
        // then folds it from its beginning.
        let registered = self.source.0.registered.load(Ordering::Relaxed);
        if registered != self.resolved {
            self.resolve();
            self.resolved = registered;
        }
        for p in &mut self.counters {
            let now = p.from.get();
            if now != p.seen {
                p.into.add(now.wrapping_sub(p.seen));
                p.seen = now;
            }
        }
        for p in &mut self.histograms {
            // A histogram's count moves with every sample, so an equal
            // count means nothing was recorded since the last fold.
            if p.from.count() != p.seen.count {
                let now = p.from.snapshot();
                p.into.absorb(&now.delta_since(&p.seen));
                p.seen = now;
            }
        }
        for p in &mut self.rings {
            p.seen = p.from.copy_since(p.seen, &p.into);
        }
    }

    /// Pairs every source metric with its target namesake, keeping the
    /// fold state of metrics paired before.
    fn resolve(&mut self) {
        let (source, target) = (&self.source.0, &self.target);
        self.counters = pair_up(
            &source.counters,
            std::mem::take(&mut self.counters),
            |name, _| target.counter(name),
        );
        self.histograms = pair_up(
            &source.histograms,
            std::mem::take(&mut self.histograms),
            |name, _| target.histogram(name),
        );
        self.rings = pair_up(
            &source.rings,
            std::mem::take(&mut self.rings),
            |name, ring| target.ring(name, ring.lock().capacity),
        );
    }
}

/// The metrics of one kind in `source`, in name order, each paired with
/// the target handle `into` resolves and the fold state it had in `old`
/// (the empty state for metrics new since then).
fn pair_up<T: Clone, S: Default>(
    source: &Mutex<BTreeMap<String, T>>,
    old: Vec<Pair<T, S>>,
    into: impl Fn(&str, &T) -> T,
) -> Vec<Pair<T, S>> {
    // Copy the handles out first: the target may be locked below.
    let current: Vec<(String, T)> = source
        .lock()
        .expect("no registry holder panicked")
        .iter()
        .map(|(name, metric)| (name.clone(), metric.clone()))
        .collect();
    let mut old: BTreeMap<String, S> = old.into_iter().map(|p| (p.name, p.seen)).collect();
    current
        .into_iter()
        .map(|(name, from)| Pair {
            into: into(&name, &from),
            seen: old.remove(&name).unwrap_or_default(),
            from,
            name,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_handles() {
        let t = Telemetry::new();
        let a = t.counter("x");
        let b = t.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(t.counter("x").get(), 3);
        assert_eq!(t.counter("y").get(), 0);
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
    }

    #[test]
    fn bucket_ceiling_edges() {
        assert_eq!(Histogram::bucket_ceiling(0), 0);
        assert_eq!(Histogram::bucket_ceiling(1), 1);
        assert_eq!(Histogram::bucket_ceiling(2), 3);
        assert_eq!(Histogram::bucket_ceiling(64), u64::MAX);
    }

    #[test]
    fn percentiles_are_conservative_and_empty_safe() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile(0.5), 0);
        assert_eq!(h.snapshot().p99(), 0);
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 falls in bucket [16,31] → reported as 31.
        assert_eq!(s.p50(), 31);
        // p99 falls in the 1000 sample's bucket, clamped to max.
        assert_eq!(s.p99(), 1000.min(Histogram::bucket_ceiling(10)));
        assert_eq!(s.max, 1000);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn ring_reports_drops() {
        let r = EventRing::new(2);
        r.push("a");
        r.push("b");
        r.push("c");
        assert_eq!(r.dropped(), 1);
        let s = r.snapshot();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].message, "b");
        assert_eq!(s.events[1].seq, 2);
    }

    #[test]
    fn fork_is_independent() {
        let t = Telemetry::new();
        t.counter("c").add(5);
        t.histogram("h").record(7);
        t.ring("r", 4).push("e");
        let f = t.fork();
        assert_eq!(f.counter("c").get(), 5);
        assert_eq!(f.histogram("h").count(), 1);
        assert_eq!(f.ring("r", 4).len(), 1);
        t.counter("c").inc();
        f.counter("c").add(10);
        assert_eq!(t.counter("c").get(), 6);
        assert_eq!(f.counter("c").get(), 15);
    }

    #[test]
    fn delta_fold_folds_only_the_new_activity() {
        let shard = Telemetry::new();
        let merged = Telemetry::new();
        let mut fold = DeltaFold::new(&shard, &merged);
        shard.counter("c").add(5);
        shard.histogram("h").record(7);
        shard.ring("r", 2).push("a");
        fold.fold();
        assert_eq!(merged.counter("c").get(), 5);
        assert_eq!(merged.histogram("h").count(), 1);
        assert_eq!(merged.ring("r", 2).len(), 1);

        shard.counter("c").add(3);
        shard.histogram("h").record(100);
        shard.ring("r", 2).push("b");
        shard.ring("r", 2).push("c"); // evicts "a" in the shard ring

        // Registered between two folds: folded from its beginning.
        shard.counter("a_new").add(2);
        shard.ring("q", 8).push("q0");
        fold.fold();
        assert_eq!(merged.counter("c").get(), 8);
        assert_eq!(merged.counter("a_new").get(), 2);
        let h = merged.histogram("h").snapshot();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 107);
        assert_eq!(h.max, 100);
        // Only "b" and "c" are new; "a" must not be double-folded even
        // though the shard ring no longer retains it.
        let r = merged.ring("r", 2).snapshot();
        assert_eq!(r.dropped, 1);
        let msgs: Vec<&str> = r.events.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, ["b", "c"]);
        assert_eq!(merged.ring("q", 8).snapshot().events[0].message, "q0");

        // Events evicted before any fold saw them are not folded: of
        // "d", "e" and "f" the shard ring retains only "e" and "f".
        for m in ["d", "e", "f"] {
            shard.ring("r", 2).push(m);
        }
        fold.fold();
        fold.fold(); // nothing new
        let r = merged.ring("r", 2).snapshot();
        let msgs: Vec<&str> = r.events.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, ["e", "f"]);
        assert_eq!(r.dropped, 3, "the merged ring evicted a, b and c");
        assert_eq!(merged.counter("c").get(), 8);
        assert_eq!(merged.histogram("h").count(), 2);
    }

    #[test]
    fn delta_since_carries_the_high_water_mark() {
        let h = Histogram::new();
        h.record(50);
        let first = h.snapshot();
        h.record(3);
        let delta = h.snapshot().delta_since(&first);
        assert_eq!(delta.count, 1);
        assert_eq!(delta.sum, 3);
        assert_eq!(delta.max, 50, "max is a running maximum, not a delta");
    }

    #[test]
    fn deny_records_render_when_read_and_stay_typed_when_copied() {
        use crate::ids::DeviceId;
        use crate::request::AccessKind;
        let t = Telemetry::new();
        let ring = t.ring("r", 2);
        ring.push("text");
        ring.push_deny(ViolationRecord {
            device: DeviceId(3),
            sid: None,
            addr: 0x1000,
            len: 8,
            kind: AccessKind::Write,
        });
        let deny = "deny device=3 addr=0x1000 len=8 kind=write";
        let since = ring.events_since(1);
        assert_eq!((since.len(), since[0].seq), (1, 1));
        assert_eq!(since[0].message, deny);
        let merged = Telemetry::new();
        DeltaFold::new(&t, &merged).fold();
        for copy in [&t, &t.fork(), &merged] {
            let snap = copy.ring("r", 2).snapshot();
            let msgs: Vec<&str> = snap.events.iter().map(|e| e.message.as_str()).collect();
            assert_eq!(msgs, ["text", deny]);
            assert!(matches!(
                copy.ring("r", 2).lock().events[1],
                Payload::Deny(_)
            ));
        }
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let t = Telemetry::new();
        t.counter("siopmp.checks").add(3);
        t.histogram("lat").record(100);
        t.ring("viol", 8).push("deny");
        let json = t.snapshot().to_json().to_string();
        assert!(json.contains("\"siopmp.checks\":3"), "{json}");
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"deny\""), "{json}");
    }
}
