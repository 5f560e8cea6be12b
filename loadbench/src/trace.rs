//! Spans around the calls the benchmark makes into each layer.
//!
//! A span has a layer name, start, end, its own id, the id of the span
//! that caused it and a request id. Each producer (a workload thread, or
//! one shard's policy wrapper) owns a [`SpanBuf`]: no span write touches
//! shared state. A buffer folds every closed span into per-layer totals
//! at once — busy time, self time (busy time minus the time its children
//! on the same thread cover), items, allocations — and keeps the first
//! spans verbatim for the trace file. Buffers are merged into one
//! [`LayerTable`] when the workload ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use siopmp::json::Json;

use crate::alloc::thread_allocs;

static ORIGIN: OnceLock<Instant> = OnceLock::new();
static NEXT_BUF: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the first call in this process, on the monotonic
/// clock every thread shares.
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer the span times.
    pub layer: &'static str,
    /// Start, from [`now_ns`].
    pub start: u64,
    /// End, from [`now_ns`].
    pub end: u64,
    /// This span's id (unique in the process).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// Request (or job) the span served.
    pub req: u64,
}

/// Totals of one layer's closed spans.
#[derive(Debug, Clone, Default)]
pub struct LayerAgg {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Work items the spans carried (requests per policy call, ...).
    pub items: u64,
    /// Allocations made inside the spans, children included.
    pub allocs: u64,
    /// Every duration, when the buffer keeps them (for medians).
    pub durations: Vec<u64>,
}

impl LayerAgg {
    fn absorb(&mut self, other: LayerAgg) {
        self.count += other.count;
        self.busy_ns += other.busy_ns;
        self.self_ns += other.self_ns;
        self.items += other.items;
        self.allocs += other.allocs;
        self.durations.extend(other.durations);
    }

    /// Mean busy time per span, ns.
    pub fn mean_ns(&self) -> f64 {
        crate::stats::mean(self.busy_ns as f64, self.count)
    }

    /// Median span duration, ns (needs kept durations).
    pub fn p50_ns(&self) -> f64 {
        crate::stats::median(&self.durations)
    }
}

struct Open {
    layer: usize,
    start: u64,
    id: u64,
    parent: u64,
    req: u64,
    child_ns: u64,
    allocs_at_open: u64,
}

/// One producer's span recorder. See the module docs.
pub struct SpanBuf {
    layers: &'static [&'static str],
    aggs: Vec<LayerAgg>,
    open: Vec<Open>,
    spans: Vec<Span>,
    keep_spans: usize,
    keep_durations: bool,
    tag: u64,
    next: u64,
}

impl SpanBuf {
    /// A recorder for spans of `layers` (indexed by position), keeping the
    /// first `keep_spans` spans verbatim and, with `keep_durations`, every
    /// duration for medians.
    pub fn new(layers: &'static [&'static str], keep_spans: usize, keep_durations: bool) -> Self {
        SpanBuf {
            layers,
            aggs: vec![LayerAgg::default(); layers.len()],
            open: Vec::new(),
            spans: Vec::new(),
            keep_spans,
            keep_durations,
            tag: NEXT_BUF.fetch_add(1, Ordering::Relaxed),
            next: 0,
        }
    }

    /// A new span id, for a span whose children on other threads must
    /// name it before it opens.
    pub fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.tag << 40) | self.next
    }

    /// Opens a span of `layer` for request `req`. Its parent is the
    /// innermost open span on this buffer, or `parent` when none is open
    /// (a span caused from another thread). Returns the span's id.
    pub fn open(&mut self, layer: usize, parent: u64, req: u64) -> u64 {
        let id = self.fresh_id();
        self.open_id(layer, id, parent, req);
        id
    }

    /// [`SpanBuf::open`] with an id from [`SpanBuf::fresh_id`].
    pub fn open_id(&mut self, layer: usize, id: u64, parent: u64, req: u64) {
        let parent = self.open.last().map_or(parent, |o| o.id);
        self.open.push(Open {
            layer,
            start: now_ns(),
            id,
            parent,
            req,
            child_ns: 0,
            allocs_at_open: thread_allocs(),
        });
    }

    /// Closes the innermost open span, crediting it `items` work items.
    pub fn close(&mut self, items: u64) {
        let o = self.open.pop().expect("close without a matching open");
        let allocs = thread_allocs() - o.allocs_at_open;
        let end = now_ns();
        self.finish(
            o.layer, o.start, end, o.id, o.parent, o.req, o.child_ns, items, allocs,
        );
    }

    /// Records an already-timed leaf span (cheaper than open/close in a hot
    /// loop) under the innermost open span, or under `parent` when none is
    /// open.
    #[allow(clippy::too_many_arguments)]
    pub fn leaf(
        &mut self,
        layer: usize,
        start: u64,
        end: u64,
        parent: u64,
        req: u64,
        items: u64,
        allocs: u64,
    ) {
        let id = if self.spans.len() < self.keep_spans {
            self.fresh_id()
        } else {
            0
        };
        let parent = self.open.last().map_or(parent, |o| o.id);
        self.finish(layer, start, end, id, parent, req, 0, items, allocs);
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        layer: usize,
        start: u64,
        end: u64,
        id: u64,
        parent: u64,
        req: u64,
        child_ns: u64,
        items: u64,
        allocs: u64,
    ) {
        let dur = end.saturating_sub(start);
        if let Some(p) = self.open.last_mut() {
            p.child_ns += dur;
        }
        let agg = &mut self.aggs[layer];
        agg.count += 1;
        agg.busy_ns += dur;
        agg.self_ns += dur.saturating_sub(child_ns);
        agg.items += items;
        agg.allocs += allocs;
        if self.keep_durations {
            agg.durations.push(dur);
        }
        if self.spans.len() < self.keep_spans {
            self.spans.push(Span {
                layer: self.layers[layer],
                start,
                end,
                id,
                parent,
                req,
            });
        }
    }

    /// Totals of `layer` so far.
    pub fn agg(&self, layer: usize) -> &LayerAgg {
        &self.aggs[layer]
    }

    /// Removes `ns` of `layer`'s self time: time its children on other
    /// threads covered, which this buffer could not see.
    pub fn subtract_self(&mut self, layer: usize, ns: u64) {
        let agg = &mut self.aggs[layer];
        agg.self_ns = agg.self_ns.saturating_sub(ns);
    }
}

/// Every buffer's totals, merged by layer name, plus the kept spans.
#[derive(Debug, Default)]
pub struct LayerTable {
    layers: BTreeMap<&'static str, LayerAgg>,
    spans: Vec<Span>,
}

/// Most spans written verbatim to one trace file.
const TRACE_FILE_SPANS: usize = 50_000;

impl LayerTable {
    /// Folds a finished buffer in.
    pub fn absorb(&mut self, buf: SpanBuf) {
        assert!(buf.open.is_empty(), "buffer absorbed with open spans");
        for (name, agg) in buf.layers.iter().zip(buf.aggs) {
            if agg.count > 0 {
                self.layers.entry(name).or_default().absorb(agg);
            }
        }
        let room = TRACE_FILE_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(buf.spans.into_iter().take(room));
    }

    /// Totals of `layer` (empty when it recorded nothing).
    pub fn get(&self, layer: &str) -> LayerAgg {
        self.layers.get(layer).cloned().unwrap_or_default()
    }

    /// Sum of every layer's self time.
    pub fn self_sum_ns(&self) -> u64 {
        self.layers.values().map(|a| a.self_ns).sum()
    }

    /// The trace file's document: per-layer totals, the consistency check
    /// against `wall_ns` (the independently timed span of every traced
    /// timeline), and the kept spans.
    pub fn to_json(&self, workload: &str, seed: u64, wall_ns: u64) -> Json {
        let layers = self.layers.iter().map(|(name, a)| {
            (
                *name,
                Json::object([
                    ("count", Json::u64(a.count)),
                    ("busy_ns", Json::u64(a.busy_ns)),
                    ("self_ns", Json::u64(a.self_ns)),
                    ("items", Json::u64(a.items)),
                    ("allocs", Json::u64(a.allocs)),
                ]),
            )
        });
        let spans = self.spans.iter().map(|s| {
            Json::object([
                ("layer", Json::str(s.layer)),
                ("start", Json::u64(s.start)),
                ("end", Json::u64(s.end)),
                ("id", Json::u64(s.id)),
                ("parent", Json::u64(s.parent)),
                ("req", Json::u64(s.req)),
            ])
        });
        Json::object([
            ("workload", Json::str(workload)),
            ("seed", Json::u64(seed)),
            ("wall_ns", Json::u64(wall_ns)),
            ("self_sum_ns", Json::u64(self.self_sum_ns())),
            ("layers", Json::object(layers)),
            ("spans", Json::array(spans)),
        ])
    }
}

/// Total length of the union of `intervals` (each `(start, end)`), after
/// clipping them to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYERS: &[&str] = &["outer", "inner"];

    #[test]
    fn self_time_excludes_same_thread_children() {
        let mut buf = SpanBuf::new(LAYERS, 10, true);
        buf.open(0, 0, 1);
        buf.leaf(1, 10, 30, 0, 1, 3, 0);
        buf.leaf(1, 40, 45, 0, 1, 1, 0);
        // The outer span runs on the real clock: keep it longer than its
        // synthetic children.
        std::thread::sleep(std::time::Duration::from_millis(1));
        buf.close(0);
        let mut table = LayerTable::default();
        table.absorb(buf);
        let (outer, inner) = (table.get("outer"), table.get("inner"));
        assert_eq!(inner.busy_ns, 25);
        assert_eq!(inner.items, 4);
        assert_eq!(outer.self_ns, outer.busy_ns - 25);
        assert_eq!(table.self_sum_ns(), outer.busy_ns);
        assert_eq!(table.spans.len(), 3);
        assert_eq!(table.spans[0].parent, table.spans[2].id);
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 15), (0, 3), (10, 20), (30, 40)];
        // [2,3) + [5,15) + [15,20) + [30,35)
        assert_eq!(covered_ns(&mut iv, 2, 35), 1 + 10 + 5 + 5);
    }
}
