//! Determinism differential: chaos-style pinned-seed multi-domain
//! schedules run at several worker-thread counts must produce
//! byte-identical reports and merged telemetry (violation rings
//! included).
//!
//! Each schedule assembles four domains, each owning a disjoint address
//! window and running its own sIOPMP-policed [`siopmp_bus::BusSim`]:
//! a legal local reader, a cross-domain writer targeting the next
//! domain's window (authorised both at the source and — hierarchical
//! double-check — at the destination), and a stray writer whose window
//! is read-only, so every domain logs violations. Per-domain fault
//! plans ([`FaultPlan::for_domain`]) add SID block storms and data-plane
//! faults on top, with bounded retries absorbing the transients.
//!
//! The CI matrix re-runs this suite with `SIOPMP_THREADS` set to each
//! leg's thread count; the value is appended to the built-in `[1, 2, 4,
//! 8]` sweep so a determinism break at any matrix point fails the leg.
//!
//! A last test pins the paper-scale system (8 domains × 4 masters, 1024
//! entries) to its exact simulated cost, identical at 1 and 8 threads.

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::telemetry::Telemetry;
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_bus::parallel::{DomainSpec, ParallelSim};
use siopmp_bus::{BurstKind, FaultPlan, FaultPlanConfig, MasterProgram, RetryPolicy, SiopmpPolicy};

const DOMAINS: usize = 4;
const EPOCH_CYCLES: u64 = 96;
const MAX_CYCLES: u64 = 200_000;

fn window(domain: usize) -> (u64, u64) {
    (0x10_0000 * (domain as u64 + 1), 0x10_0000)
}

fn entry(base: u64, len: u64, perms: Permissions) -> IopmpEntry {
    IopmpEntry::new(AddressRange::new(base, len).unwrap(), perms)
}

/// Device IDs are globally unique so cross-domain bursts arrive at the
/// destination under their original (source) identity.
fn devices(domain: usize) -> (u64, u64, u64) {
    let d = domain as u64;
    (d * 10 + 1, d * 10 + 2, d * 10 + 3)
}

/// One domain's sIOPMP unit, built against the shard's own telemetry
/// registry. It authorises the local reader over the home window, the
/// local cross writer over the *next* domain's window (source-side
/// egress check), the previous domain's cross writer over the home
/// window (destination-side ingress check), and gives the stray writer
/// a read-only window so its writes are denied.
fn domain_unit(domain: usize, telemetry: Telemetry) -> (Siopmp, FaultPlanConfig) {
    let (base, _) = window(domain);
    let (next_base, _) = window((domain + 1) % DOMAINS);
    let (local, cross, stray) = devices(domain);
    let (_, prev_cross, _) = devices((domain + DOMAINS - 1) % DOMAINS);

    let mut unit = Siopmp::build(SiopmpConfig::small(), telemetry);
    let mut sids = Vec::new();
    for (dev, md, win_base, perms) in [
        (local, 0u16, base, Permissions::rw()),
        (cross, 1, next_base, Permissions::rw()),
        (stray, 2, base + 0x2000, Permissions::read_only()),
        (prev_cross, 3, base, Permissions::rw()),
    ] {
        let sid = unit.map_hot_device(DeviceId(dev)).unwrap();
        unit.associate_sid_with_md(sid, MdIndex(md)).unwrap();
        unit.install_entry(MdIndex(md), entry(win_base, 0x1000, perms))
            .unwrap();
        sids.push(sid);
    }
    let plan_config = FaultPlanConfig {
        horizon: 500,
        budget: 10,
        masters: 3,
        block_sids: sids,
        cold_devices: vec![],
        churn_devices: vec![],
    };
    (unit, plan_config)
}

fn domain_masters(domain: usize) -> Vec<MasterProgram> {
    let (base, _) = window(domain);
    let (next_base, _) = window((domain + 1) % DOMAINS);
    let (local, cross, stray) = devices(domain);
    let retry = RetryPolicy::bounded(3, 2);
    vec![
        MasterProgram::streaming(local, BurstKind::Read, base, 64, 10)
            .with_outstanding(2)
            .with_retry(retry),
        MasterProgram::streaming(cross, BurstKind::Write, next_base, 64, 6)
            .with_outstanding(2)
            .with_retry(retry),
        // Stray: writes into its own read-only window — denied under
        // every reachable configuration, retried until exhaustion.
        MasterProgram::streaming(stray, BurstKind::Write, base + 0x2000, 64, 4).with_retry(retry),
    ]
}

fn build_sim(seed: u64, threads: usize) -> ParallelSim {
    let mut psim = ParallelSim::new(EPOCH_CYCLES, threads);
    for domain in 0..DOMAINS {
        let telemetry = Telemetry::new();
        let (unit, plan_config) = domain_unit(domain, telemetry.clone());
        let (base, len) = window(domain);
        let mut spec = DomainSpec::for_policy(SiopmpPolicy::new(unit))
            .with_home_window(base, len)
            .with_fault_plan(FaultPlan::for_domain(seed, domain as u64, &plan_config))
            .with_telemetry(telemetry);
        for program in domain_masters(domain) {
            spec = spec.with_master(program);
        }
        psim.add_domain(spec);
    }
    psim
}

/// Threads to sweep: the fixed matrix plus whatever the CI leg pins via
/// `SIOPMP_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    if let Ok(env) = std::env::var("SIOPMP_THREADS") {
        let extra: usize = env
            .parse()
            .unwrap_or_else(|_| panic!("SIOPMP_THREADS must be a thread count, got {env:?}"));
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

#[test]
fn thread_count_never_changes_reports_or_telemetry() {
    for seed in [0x5EED_0001u64, 0xC0FF_EE42, 7] {
        let (want_report, want_telemetry) = {
            let mut psim = build_sim(seed, 1);
            let report = psim.run(MAX_CYCLES);
            assert!(report.completed, "seed {seed:#x} must drain");
            (
                report.to_json().pretty(),
                psim.telemetry().snapshot().to_json().pretty(),
            )
        };
        for threads in thread_counts() {
            let mut psim = build_sim(seed, threads);
            let report = psim.run(MAX_CYCLES);
            assert_eq!(
                report.to_json().pretty(),
                want_report,
                "seed {seed:#x}, threads {threads}: report diverged"
            );
            assert_eq!(
                psim.telemetry().snapshot().to_json().pretty(),
                want_telemetry,
                "seed {seed:#x}, threads {threads}: merged telemetry \
                 (counters, histograms, violation rings) diverged"
            );
        }
    }
}

/// The schedule must actually exercise the machinery the differential
/// claims to cover: cross-domain exchange, violations in every domain's
/// ring, and retries — otherwise the byte-equality above is vacuous.
#[test]
fn pinned_schedule_exercises_cross_traffic_violations_and_retries() {
    let mut psim = build_sim(0x5EED_0001, 2);
    let report = psim.run(MAX_CYCLES);
    assert!(report.completed);
    let telemetry = psim.telemetry();
    assert!(
        telemetry.counter("parallel.cross_domain_bursts").get() >= DOMAINS as u64,
        "every domain's cross writer must produce egress"
    );
    assert_eq!(telemetry.counter("parallel.unrouted_egress").get(), 0);
    assert!(
        telemetry.counter("siopmp.violations").get() > 0
            || report.masters.iter().any(|m| m.bursts_bus_error > 0),
        "stray writers must be denied"
    );
    let snapshot = telemetry.snapshot();
    let ring = snapshot
        .rings
        .get("siopmp.violation_events")
        .expect("violation ring folded into the merged registry");
    assert!(!ring.events.is_empty());
    assert!(telemetry.counter("bus.retries").get() > 0);
}

/// Domains and masters per domain of the paper-scale system: each domain
/// runs a 128-entry unit, 1024 entries across the system.
const SCALE_DOMAINS: usize = 8;
const SCALE_MASTERS: usize = 4;
const SCALE_BURSTS: usize = 16;

fn scale_window(domain: usize) -> u64 {
    0x100_0000 * (domain as u64 + 1)
}

/// The peer-visible ingress range near the top of `domain`'s window.
fn scale_ingress(domain: usize) -> u64 {
    scale_window(domain) + 0xF0_0000
}

/// The paper-scale sharded system. Every domain's unit serves four local
/// readers (one MD each); master 0 doubles as a cross-domain writer into
/// the next domain's ingress range, authorised by egress entries at the
/// source and, under its original device ID, by ingress entries at the
/// destination (the hierarchical double-check).
fn scale_sim(threads: usize) -> ParallelSim {
    let device = |domain: usize, m: usize| (domain * 10 + m + 1) as u64;
    let mut psim = ParallelSim::build(256, threads, Telemetry::new());
    for domain in 0..SCALE_DOMAINS {
        let base = scale_window(domain);
        let next = (domain + 1) % SCALE_DOMAINS;
        let prev = (domain + SCALE_DOMAINS - 1) % SCALE_DOMAINS;
        let telemetry = Telemetry::new();
        let config = SiopmpConfig {
            num_entries: 128,
            ..SiopmpConfig::small()
        };
        let mut unit = Siopmp::build(config, telemetry.clone());
        let mut grant = |dev: u64, md: u16, pages: &[u64]| {
            let sid = unit.map_hot_device(DeviceId(dev)).unwrap();
            unit.associate_sid_with_md(sid, MdIndex(md)).unwrap();
            for &page in pages {
                unit.install_entry(MdIndex(md), entry(page, 0x1000, Permissions::rw()))
                    .unwrap();
            }
        };
        for m in 0..SCALE_MASTERS {
            // 12 local pages, plus 4 egress pages into the next domain
            // for master 0: within the 17-entry share of each MD.
            let local = base + m as u64 * 0x4_0000;
            let mut pages: Vec<u64> = (0..12).map(|i| local + i * 0x1000).collect();
            if m == 0 {
                pages.extend((0..4).map(|i| scale_ingress(next) + i * 0x1000));
            }
            grant(device(domain, m), m as u16, &pages);
        }
        let ingress: Vec<u64> = (0..4).map(|i| scale_ingress(domain) + i * 0x1000).collect();
        grant(device(prev, 0), SCALE_MASTERS as u16, &ingress);

        let mut spec = DomainSpec::for_policy(SiopmpPolicy::new(unit))
            .with_home_window(base, 0x100_0000)
            .with_telemetry(telemetry);
        for m in 0..SCALE_MASTERS {
            let local = base + m as u64 * 0x4_0000;
            let mut program = MasterProgram::streaming(
                device(domain, m),
                BurstKind::Read,
                local,
                64,
                SCALE_BURSTS,
            );
            if m == 0 {
                program = program.chain(MasterProgram::streaming(
                    device(domain, 0),
                    BurstKind::Write,
                    scale_ingress(next),
                    64,
                    SCALE_BURSTS / 4,
                ));
            }
            spec = spec.with_master(program.with_outstanding(4));
        }
        psim.add_domain(spec);
    }
    psim
}

/// The barrier and exchange machinery costs no simulated time of its
/// own: the paper-scale system drains in exactly 808 cycles for its 576
/// bursts, at 1 and at 8 threads. Any change to that count is a change
/// to the timing model and must update the pin on purpose.
#[test]
fn paper_scale_system_pins_its_simulated_cost() {
    let serial = scale_sim(1).run(5_000_000);
    let mut psim = scale_sim(8);
    let report = psim.run(5_000_000);
    assert_eq!(
        report.to_json().pretty(),
        serial.to_json().pretty(),
        "threads=1 and threads=8 must be byte-identical"
    );
    assert!(report.completed, "the workload must drain");
    let bursts: usize = report.masters.iter().map(|m| m.bursts_completed).sum();
    assert_eq!((report.cycles, bursts), (808, 576));
    let telemetry = psim.telemetry();
    assert!(telemetry.counter("parallel.cross_domain_bursts").get() > 0);
    assert_eq!(telemetry.counter("parallel.unrouted_egress").get(), 0);
}
