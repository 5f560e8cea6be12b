//! The `siopmp.*` counters stay exact under concurrency. The owner and
//! `SIOPMP_THREADS` shared readers (16 by default: more threads than a
//! counter has cells, so some threads share a cell) check a fixed mix at
//! once, and every counter ends at the sum of what the threads tallied,
//! read through `stats()`, the telemetry snapshot, `Telemetry::fork` and
//! a `DeltaFold` that the owner runs while the readers check.

use std::sync::Barrier;
use std::thread;

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::stats::SiopmpStats;
use siopmp::telemetry::{Counter, DeltaFold, Telemetry};
use siopmp::{CheckOutcome, Siopmp, SiopmpConfig};

/// Shared reader threads besides the owner; CI sweeps `SIOPMP_THREADS`.
fn reader_threads() -> usize {
    std::env::var("SIOPMP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(16)
}

/// A thread checks each probe 1 to 4 times this often (see [`run_mix`]).
const ROUNDS: u64 = 2_000;

const HOT: DeviceId = DeviceId(1);
const UNKNOWN: DeviceId = DeviceId(99);
const COLD: DeviceId = DeviceId(50);

/// Every stats field with its counter's registry name. No `..`: a new
/// field must be listed here to compile.
fn by_name(s: &SiopmpStats) -> [(&'static str, u64); 14] {
    let SiopmpStats {
        checks,
        allowed,
        denied_permission,
        denied_no_match,
        blocked,
        sid_missing_interrupts,
        cold_switches,
        cold_hits,
        hot_hits,
        violations,
        cache_hits,
        cache_misses,
        cache_view_rebuilds,
        violation_log_dropped,
    } = *s;
    [
        ("siopmp.checks", checks),
        ("siopmp.allowed", allowed),
        ("siopmp.denied_permission", denied_permission),
        ("siopmp.denied_no_match", denied_no_match),
        ("siopmp.blocked", blocked),
        ("siopmp.sid_missing_interrupts", sid_missing_interrupts),
        ("siopmp.cold_switches", cold_switches),
        ("siopmp.cold_hits", cold_hits),
        ("siopmp.hot_hits", hot_hits),
        ("siopmp.violations", violations),
        ("siopmp.cache.hits", cache_hits),
        ("siopmp.cache.misses", cache_misses),
        ("siopmp.cache.view_rebuilds", cache_view_rebuilds),
        ("siopmp.violation_log_dropped", violation_log_dropped),
    ]
}

/// `a + b`, field by field.
fn add(a: [u64; 14], b: &SiopmpStats) -> [u64; 14] {
    let b = by_name(b);
    std::array::from_fn(|i| a[i] + b[i].1)
}

/// One request of the mix, whether its outcome is the right one, and
/// what it adds to each counter once the unit is warm: its page verdict
/// cached, its view compiled, and the violation log full.
struct Probe {
    req: DmaRequest,
    expect: fn(&CheckOutcome) -> bool,
    adds: SiopmpStats,
}

fn mix() -> [Probe; 4] {
    let hot = SiopmpStats {
        checks: 1,
        hot_hits: 1,
        cache_hits: 1,
        ..SiopmpStats::default()
    };
    let denied = |s: SiopmpStats| SiopmpStats {
        violations: 1,
        violation_log_dropped: 1,
        ..s
    };
    [
        Probe {
            req: DmaRequest::new(HOT, AccessKind::Read, 0x1040, 64),
            expect: CheckOutcome::is_allowed,
            adds: SiopmpStats { allowed: 1, ..hot },
        },
        Probe {
            req: DmaRequest::new(HOT, AccessKind::Write, 0x3000, 8),
            expect: CheckOutcome::is_denied,
            adds: denied(SiopmpStats {
                denied_permission: 1,
                ..hot
            }),
        },
        Probe {
            req: DmaRequest::new(UNKNOWN, AccessKind::Read, 0x1040, 64),
            expect: CheckOutcome::is_denied,
            adds: denied(SiopmpStats {
                checks: 1,
                denied_no_match: 1,
                ..SiopmpStats::default()
            }),
        },
        Probe {
            req: DmaRequest::new(COLD, AccessKind::Read, 0x1040, 64),
            expect: |o| matches!(o, CheckOutcome::SidMissing { .. }),
            adds: SiopmpStats {
                checks: 1,
                sid_missing_interrupts: 1,
                ..SiopmpStats::default()
            },
        },
    ]
}

/// Thread `t` checks probe `k` `ROUNDS * (1 + (t + k) % 4)` times,
/// interleaved, and returns its own tally.
fn run_mix(t: u64, mut check: impl FnMut(&DmaRequest) -> CheckOutcome) -> [u64; 14] {
    let mix = mix();
    let times = |k: usize| ROUNDS * (1 + (t + k as u64) % 4);
    let mut tally = [0; 14];
    for round in 0..4 * ROUNDS {
        for (k, probe) in mix.iter().enumerate() {
            if round < times(k) {
                let outcome = check(&probe.req);
                assert!((probe.expect)(&outcome), "thread {t}: {outcome:?}");
                tally = add(tally, &probe.adds);
            }
        }
    }
    tally
}

/// A hot device with a read-write page at 0x1000 and a read-only page at
/// 0x3000, a registered but unmounted cold device, and a one-record
/// violation log.
fn unit() -> Siopmp {
    let mut unit = Siopmp::build(SiopmpConfig::default(), None);
    let sid = unit.map_hot_device(HOT).expect("free SID");
    unit.associate_sid_with_md(sid, MdIndex(0)).expect("MD 0");
    for (base, perms) in [
        (0x1000, Permissions::rw()),
        (0x3000, Permissions::read_only()),
    ] {
        let range = AddressRange::new(base, 0x1000).expect("page");
        unit.install_entry(MdIndex(0), IopmpEntry::new(range, perms))
            .expect("room in MD 0");
    }
    let record = MountableEntry {
        domains: vec![],
        entries: vec![],
    };
    unit.register_cold_device(COLD, record)
        .expect("mountable unit");
    unit.set_violation_log_capacity(1)
        .expect("non-zero capacity");
    unit
}

#[test]
fn counters_are_the_sum_of_every_threads_tally() {
    let mut unit = unit();
    // Warm up (the first hot check compiles the SID's view), then check
    // that a second pass adds exactly the probes' declared counts: each
    // hot probe lies inside one index segment, so each is one hit.
    for probe in &mix() {
        unit.check(&probe.req);
    }
    let mut expected = by_name(&unit.stats()).map(|(_, v)| v);
    for probe in &mix() {
        unit.check(&probe.req);
        expected = add(expected, &probe.adds);
    }
    assert_eq!(by_name(&unit.stats()).map(|(_, v)| v), expected);

    let merged = Telemetry::new();
    let mut fold = DeltaFold::new(unit.telemetry(), &merged);
    let shared = unit.share();
    let readers = reader_threads();
    let start = Barrier::new(readers + 1);
    let tallies: Vec<[u64; 14]> = thread::scope(|s| {
        let handles: Vec<_> = (1..=readers as u64)
            .map(|t| {
                let (shared, start) = (shared.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    run_mix(t, |req| shared.check(req))
                })
            })
            .collect();
        start.wait();
        let mut checks = 0u64;
        let owner = run_mix(0, |req| {
            checks += 1;
            if checks.is_multiple_of(1_000) {
                fold.fold();
            }
            unit.check(req)
        });
        let mut tallies = vec![owner];
        tallies.extend(handles.into_iter().map(|h| h.join().expect("reader")));
        tallies
    });
    fold.fold();

    let total: [u64; 14] =
        std::array::from_fn(|i| expected[i] + tallies.iter().map(|t| t[i]).sum::<u64>());
    let stats = by_name(&unit.stats());
    let snapshot = unit.telemetry().snapshot().counters;
    let fork = unit.telemetry().fork().snapshot().counters;
    let folded = merged.snapshot().counters;
    for (i, (name, value)) in stats.into_iter().enumerate() {
        assert_eq!(value, total[i], "stats(): {name}");
        assert_eq!(snapshot[name], value, "telemetry snapshot: {name}");
        assert_eq!(fork[name], value, "fork: {name}");
        assert_eq!(folded[name], value, "DeltaFold: {name}");
    }
}

#[test]
fn a_counter_wraps_past_u64_max_as_one_cell_would() {
    let (shard, merged) = (Telemetry::new(), Telemetry::new());
    let mut fold = DeltaFold::new(&shard, &merged);
    let counter = shard.counter("c");
    counter.add(u64::MAX - 2);
    fold.fold();
    let threads = reader_threads() as u64;
    let start = Barrier::new(threads as usize);
    thread::scope(|s| {
        for _ in 0..threads {
            let (counter, start) = (counter.clone(), &start);
            s.spawn(move || {
                start.wait();
                counter.add(2);
                counter.inc();
            });
        }
    });
    let value = (u64::MAX - 2).wrapping_add(3 * threads);
    assert_eq!(counter.get(), value);
    assert_eq!(format!("{counter:?}"), format!("Counter({value})"));
    fold.fold();
    assert_eq!(merged.counter("c").get(), value);

    let single = Counter::new();
    single.add(u64::MAX);
    single.add(2);
    assert_eq!(single.get(), 1);
}
