//! `check_mix`: the sIOPMP checker alone, at the paper's table size.
//!
//! One unit with the paper-default configuration holds 1024 page entries
//! for 32 hot devices, plus 8 cold devices with one of them mounted. The
//! owner thread calls `Siopmp::check`; a second thread calls
//! `SharedSiopmp::check` on a handle to the same unit. Each replays its
//! own seeded stream: 70% repeat pages (a small hot set), 15% allowed
//! pages anywhere in the table, 10% denied addresses, 4% the mounted cold
//! device and 1% unmounted cold devices. Every 4096 of its checks the
//! owner toggles an entry no stream touches, which republishes the
//! snapshot and empties the decision cache without changing any expected
//! verdict. Every verdict must be the one its stream item expects.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, EntryIndex, MdIndex};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{CheckOutcome, Siopmp, SiopmpConfig};

use crate::alloc::thread_allocs;
use crate::rng::SplitMix64;
use crate::stats::{mean, median, quantile, NsHistogram};
use crate::sys;
use crate::trace::{now_ns, LayerTable, SpanBuf};
use crate::{Outcome, Params};

const PAGE: u64 = 0x1000;
const HOT_DEVICES: u64 = 32;
const COLD_DEVICES: u64 = 8;
/// Hot-page entries per device: 1015 grants plus the toggled entry fill
/// the 1016 hot entries of the 1024-entry table.
fn pages_of(device: u64) -> u64 {
    match device {
        0..=23 => 32,
        24..=30 => 31,
        _ => 30,
    }
}
const STREAM_LEN: usize = 1 << 18;
const HOT_SET: usize = 48;
const BATCH: u64 = 4096;
/// Untraced runs time one check in this many for the latency quantiles.
const SAMPLE_EVERY: u64 = 32;
const WINDOW_NS: u64 = 100_000_000;
/// Each run is split into this many trials, each on a freshly built unit
/// and fresh threads, so one unlucky memory layout or thread placement
/// moves only a share of the windows the medians are taken over.
const TRIALS: usize = 5;
/// Set-ups (unit and both streams) timed per run for `setup_s`.
const SETUPS: usize = 15;

fn hot_base(device: u64) -> u64 {
    0x1000_0000 + (device << 20)
}

fn cold_base(c: u64) -> u64 {
    0x4000_0000 + (c << 20)
}

const UNMAPPED_BASE: u64 = 0x7000_0000;

/// What the generator expects of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Repeat,
    Spread,
    Deny,
    ColdMounted,
    ColdUnmounted,
}

impl Class {
    fn expects(self, outcome: &CheckOutcome) -> bool {
        match self {
            Class::Repeat | Class::Spread | Class::ColdMounted => outcome.is_allowed(),
            Class::Deny => outcome.is_denied(),
            Class::ColdUnmounted => matches!(outcome, CheckOutcome::SidMissing { .. }),
        }
    }

    fn layer(self) -> usize {
        match self {
            Class::Repeat => 1,
            Class::Spread => 2,
            Class::Deny => 3,
            Class::ColdMounted | Class::ColdUnmounted => 4,
        }
    }
}

const LAYERS: &[&str] = &[
    "check.loop",
    "core.check.repeat",
    "core.check.spread",
    "core.check.deny",
    "core.check.cold",
    "core.publish",
];
const LAYER_LOOP: usize = 0;
const LAYER_PUBLISH: usize = 5;

fn page_entry(base: u64) -> IopmpEntry {
    IopmpEntry::new(
        AddressRange::new(base, PAGE).expect("page-aligned range"),
        Permissions::rw(),
    )
}

/// The unit, the toggled entry's index, and that entry.
fn build_unit() -> (Siopmp, EntryIndex, IopmpEntry) {
    let mut unit = Siopmp::build(SiopmpConfig::default(), None);
    // Re-partition the 62 hot memory domains so device d owns MD d with
    // exactly its pages; raising tops from the last domain down keeps
    // MDCFG monotone at every write.
    let hot_mds = unit.config().num_mds as u64 - 1;
    let tops: Vec<u64> = (0..hot_mds)
        .scan(0, |top, md| {
            if md < HOT_DEVICES {
                // The last device's domain also holds the toggled entry.
                *top += pages_of(md) + u64::from(md == HOT_DEVICES - 1);
            }
            Some(*top)
        })
        .collect();
    for md in (0..hot_mds).rev() {
        unit.set_md_top(MdIndex(md as u16), tops[md as usize] as u32)
            .expect("tops are monotone and cover the hot entries");
    }
    let mut toggle = None;
    for d in 0..HOT_DEVICES {
        let sid = unit
            .map_hot_device(DeviceId(0x10 + d))
            .expect("hot SIDs free");
        unit.associate_sid_with_md(sid, MdIndex(d as u16))
            .expect("MD in range");
        for i in 0..pages_of(d) {
            unit.install_entry(MdIndex(d as u16), page_entry(hot_base(d) + i * PAGE))
                .expect("memory domain sized for its pages");
        }
        if d == HOT_DEVICES - 1 {
            let entry = page_entry(hot_base(d) + 0xF_0000);
            let index = unit
                .install_entry(MdIndex(d as u16), entry)
                .expect("slot reserved");
            toggle = Some((index, entry));
        }
    }
    for c in 0..COLD_DEVICES {
        unit.register_cold_device(
            DeviceId(0x80 + c),
            MountableEntry {
                domains: vec![],
                entries: (0..8)
                    .map(|i| page_entry(cold_base(c) + i * PAGE))
                    .collect(),
            },
        )
        .expect("fresh unit accepts cold devices");
    }
    unit.handle_sid_missing(DeviceId(0x80)).expect("registered");
    let (index, entry) = toggle.expect("last device installs the toggled entry");
    (unit, index, entry)
}

fn request(rng: &mut SplitMix64, device: u64, page: u64) -> DmaRequest {
    let kind = if rng.below(2) == 0 {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    DmaRequest::new(DeviceId(device), kind, page + rng.below(PAGE / 64) * 64, 64)
}

/// One thread's seeded stream of `(request, class)`.
fn stream(seed: u64, thread: u64) -> Vec<(DmaRequest, Class)> {
    let mut rng = SplitMix64::new(seed, 0x100 + thread);
    let spread_page = |rng: &mut SplitMix64| {
        let d = rng.below(HOT_DEVICES);
        (0x10 + d, hot_base(d) + rng.below(pages_of(d)) * PAGE)
    };
    let hot: Vec<(u64, u64)> = (0..HOT_SET).map(|_| spread_page(&mut rng)).collect();
    (0..STREAM_LEN)
        .map(|_| {
            let roll = rng.below(100);
            let (class, device, page) = if roll < 70 {
                let (d, p) = hot[rng.below(HOT_SET as u64) as usize];
                (Class::Repeat, d, p)
            } else if roll < 85 {
                let (d, p) = spread_page(&mut rng);
                (Class::Spread, d, p)
            } else if roll < 95 {
                let d = 0x10 + rng.below(HOT_DEVICES);
                (Class::Deny, d, UNMAPPED_BASE + rng.below(4096) * PAGE)
            } else if roll < 99 {
                (Class::ColdMounted, 0x80, cold_base(0) + rng.below(8) * PAGE)
            } else {
                let c = 1 + rng.below(COLD_DEVICES - 1);
                (
                    Class::ColdUnmounted,
                    0x80 + c,
                    cold_base(c) + rng.below(8) * PAGE,
                )
            };
            (request(&mut rng, device, page), class)
        })
        .collect()
}

/// What one checking thread measured.
struct Tally {
    checks: u64,
    failed: u64,
    per_window: Vec<u64>,
    latency: NsHistogram,
    buf: SpanBuf,
    wall_ns: u64,
}

/// One thread's way into the checker.
trait Checker {
    fn check(&mut self, req: &DmaRequest) -> CheckOutcome;

    /// Runs after every batch of checks.
    fn between(&mut self, _buf: &mut SpanBuf, _trace: bool) {}
}

impl Checker for &siopmp::SharedSiopmp {
    fn check(&mut self, req: &DmaRequest) -> CheckOutcome {
        siopmp::SharedSiopmp::check(self, req)
    }
}

/// The owner: checks through the unit and toggles the reserved entry.
struct Owner {
    unit: Siopmp,
    toggle: (EntryIndex, IopmpEntry),
    present: bool,
}

impl Checker for Owner {
    fn check(&mut self, req: &DmaRequest) -> CheckOutcome {
        self.unit.check(req)
    }

    fn between(&mut self, buf: &mut SpanBuf, trace: bool) {
        self.present = !self.present;
        if trace {
            buf.open(LAYER_PUBLISH, 0, 0);
        }
        let (index, entry) = self.toggle;
        self.unit
            .set_entry(index, self.present.then_some(entry))
            .expect("toggled index is in range");
        if trace {
            buf.close(1);
        }
    }
}

/// Replays `items` through `checker` until `seconds` elapse.
fn drive(
    items: &[(DmaRequest, Class)],
    seconds: f64,
    trace: bool,
    checker: &mut impl Checker,
) -> Tally {
    let mut buf = SpanBuf::new(LAYERS, 2_000, false);
    let mut failed = 0u64;
    let mut per_window = Vec::new();
    let mut latency = NsHistogram::default();
    let limit_ns = (seconds * 1e9) as u64;
    let start = now_ns();
    if trace {
        buf.open(LAYER_LOOP, 0, 0);
    }
    let mut n = 0u64;
    let mut i = 0usize;
    loop {
        for _ in 0..BATCH {
            let (req, class) = &items[i];
            i = (i + 1) % items.len();
            let outcome = if trace {
                let allocs = thread_allocs();
                let t0 = now_ns();
                let outcome = checker.check(req);
                let t1 = now_ns();
                buf.leaf(class.layer(), t0, t1, 0, n, 1, thread_allocs() - allocs);
                if n.is_multiple_of(SAMPLE_EVERY) {
                    latency.record(t1 - t0);
                }
                outcome
            } else if n.is_multiple_of(SAMPLE_EVERY) {
                let t0 = Instant::now();
                let outcome = checker.check(req);
                latency.record(t0.elapsed().as_nanos() as u64);
                outcome
            } else {
                checker.check(req)
            };
            if !class.expects(&outcome) {
                failed += 1;
            }
            n += 1;
        }
        checker.between(&mut buf, trace);
        let elapsed = now_ns() - start;
        let w = (elapsed / WINDOW_NS) as usize;
        if per_window.len() <= w {
            per_window.resize(w + 1, 0);
        }
        per_window[w] += BATCH;
        if elapsed >= limit_ns {
            break;
        }
    }
    if trace {
        buf.close(n);
    }
    Tally {
        checks: n,
        failed,
        per_window,
        latency,
        buf,
        wall_ns: now_ns() - start,
    }
}

/// One trial: builds the unit and streams, then runs the owner and the
/// shared checker side by side for `seconds`.
fn trial(p: &Params, seconds: f64) -> (Owner, [Tally; 2]) {
    let (unit, index, entry) = build_unit();
    let (owner_items, shared_items) = (stream(p.seed, 0), stream(p.seed, 1));
    let shared = unit.share();
    let mut owner = Owner {
        unit,
        toggle: (index, entry),
        present: true,
    };
    let barrier = Barrier::new(2);
    let tallies = std::thread::scope(|s| {
        let other = s.spawn(|| {
            barrier.wait();
            drive(&shared_items, seconds, p.trace, &mut &shared)
        });
        barrier.wait();
        let mine = drive(&owner_items, seconds, p.trace, &mut owner);
        [mine, other.join().expect("shared checker thread")]
    });
    (owner, tallies)
}

/// Runs `check_mix`. See the module docs.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box((build_unit(), stream(p.seed, 0), stream(p.seed, 1)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let mut rates = Vec::new();
    let mut latency = NsHistogram::default();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut table = LayerTable::default();
    // Busy time and checks per role (owner, shared), for the traced run.
    let mut role_busy = [(0u64, 0u64); 2];
    let mut wall_ns = 0;
    let cpu0 = sys::self_cpu_seconds();
    for _ in 0..TRIALS {
        let (owner, tallies) = trial(p, p.seconds / TRIALS as f64);
        for (name, v) in owner.unit.telemetry().snapshot().counters {
            *counters.entry(name).or_default() += v;
        }
        let [a, b] = &tallies;
        // The last window of each thread is partial.
        let full = a
            .per_window
            .len()
            .min(b.per_window.len())
            .saturating_sub(1)
            .max(1);
        rates.extend((0..full).map(|w| {
            let n = a.per_window.get(w).copied().unwrap_or(0)
                + b.per_window.get(w).copied().unwrap_or(0);
            n as f64 * 1e9 / WINDOW_NS as f64
        }));
        for (role, t) in tallies.into_iter().enumerate() {
            out.attempted += t.checks;
            out.failed += t.failed;
            latency.merge(&t.latency);
            wall_ns += t.wall_ns;
            for layer in 1..=4 {
                role_busy[role].0 += t.buf.agg(layer).busy_ns;
                role_busy[role].1 += t.buf.agg(layer).count;
            }
            table.absorb(t.buf);
        }
    }
    let cpu = sys::self_cpu_seconds().and_then(|end| cpu0.map(|start| end - start));

    out.metric("ops_per_s", median(&rates));
    out.metric("p50_us", latency.quantile(0.5) / 1e3);
    out.metric("p99_us", latency.quantile(0.99) / 1e3);
    match cpu {
        Ok(cpu) => out.metric("cpu_us_per_op", cpu * 1e6 / out.attempted.max(1) as f64),
        Err(e) => out.problem(format!("cannot read CPU time: {e}")),
    }
    match sys::peak_rss_mb(std::process::id()) {
        Ok(mb) => out.metric("peak_rss_mb", mb),
        Err(e) => out.problem(format!("cannot read peak RSS: {e}")),
    }
    out.setup(&setup_s);
    out.notes.push(format!(
        "{} checks in {TRIALS} trials, {} windows of {} ms (window rates: min {:.0}, median {:.0}, max {:.0}); latency from {} sampled checks (1 in {SAMPLE_EVERY})",
        out.attempted,
        rates.len(),
        WINDOW_NS / 1_000_000,
        quantile(&rates, 0.0),
        median(&rates),
        quantile(&rates, 1.0),
        latency.count()
    ));

    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let hits = count("siopmp.cache.hits");
    out.metric(
        "core.cache_hit_ratio",
        hits / (hits + count("siopmp.cache.misses")).max(1.0),
    );
    out.notes.push(format!(
        "decision cache: {hits} hits, {} misses, {} view rebuilds, {} invalidations",
        count("siopmp.cache.misses"),
        count("siopmp.cache.view_rebuilds"),
        count("siopmp.cache.invalidations")
    ));
    if p.trace {
        let [owner, shared] = role_busy.map(|(busy, n)| mean(busy as f64, n));
        out.metric("core.shared_vs_owner_ns", shared - owner);
        for (metric, layer) in [
            ("core.check_ns.repeat", "core.check.repeat"),
            ("core.check_ns.spread", "core.check.spread"),
            ("core.check_ns.deny", "core.check.deny"),
            ("core.check_ns.cold", "core.check.cold"),
        ] {
            out.metric(metric, table.get(layer).mean_ns());
        }
        for (metric, layer) in [
            ("core.allocs_per_check.repeat", "core.check.repeat"),
            ("core.allocs_per_check.spread", "core.check.spread"),
            ("core.allocs_per_check.deny", "core.check.deny"),
        ] {
            let a = table.get(layer);
            out.metric(metric, mean(a.allocs as f64, a.count));
        }
        out.metric("core.publish_ns", table.get("core.publish").mean_ns());
        out.finish_trace(&table, "check_mix", p, wall_ns);
    }
    out
}
