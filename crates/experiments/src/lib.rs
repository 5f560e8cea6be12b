//! # siopmp-experiments — regenerating the sIOPMP evaluation
//!
//! One module per table/figure of the paper's evaluation section (§6),
//! each exposing a structured `data()` function (used by tests) and a
//! `render()` function producing the text table the `repro` binary
//! prints.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table 1 — qualitative mechanism comparison |
//! | [`table2`] | Table 2 — platform/sIOPMP configurations |
//! | [`fig10`] | Figure 10 — achievable clock frequency vs. entries |
//! | [`fig11`] | Figure 11 — worst-case DMA burst latency |
//! | [`fig12`] | Figure 12 — maximum DMA throughput |
//! | [`fig13`] | Figure 13 — IOPMP modification latency |
//! | [`fig14`] | Figure 14 — hardware resource cost |
//! | [`fig15`] | Figure 15 — iperf network bandwidth |
//! | [`fig16`] | Figure 16 — memcached latency vs. QPS |
//! | [`fig17`] | Figure 17 — cold-device switching overhead |
//! | [`coldswitch`] | §6.3 — single cold-switch cost (341 cycles) |
//!
//! [`contention`] is test support (the shared-checker workload of the
//! `contended_readers` suite), not a paper artifact, so it is absent from
//! [`ALL`].
//!
//! Run them all with `cargo run -p siopmp-experiments --bin repro`, or one
//! with `repro fig15`.

pub mod ablations;
pub mod coldswitch;
pub mod contention;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod iotlb_pressure;
pub mod lightload;
pub mod security;
pub mod table1;
pub mod table2;

/// Names of all experiments, in paper order.
pub const ALL: [&str; 15] = [
    "table1",
    "table2",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "coldswitch",
    "ablations",
    "lightload",
    "security",
    "iotlb",
];

/// Exercises a representative monitored system — TEE creation, a device
/// mapping, an allowed and a denied DMA, and a cold-device mount — against
/// one shared telemetry registry, and returns its snapshot. This is the
/// live-counter dump `repro --json` emits alongside the rendered tables:
/// it carries `monitor.*` and `siopmp.*` counters plus the
/// `siopmp.cold_switch_cycles` histogram.
pub fn telemetry_exercise() -> siopmp::telemetry::TelemetrySnapshot {
    use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
    use siopmp::ids::DeviceId;
    use siopmp::mountable::MountableEntry;
    use siopmp::request::{AccessKind, DmaRequest};
    use siopmp::telemetry::Telemetry;
    use siopmp::SiopmpConfig;
    use siopmp_monitor::{MemPerms, SecureMonitor};

    let telemetry = Telemetry::new();
    let mut m = SecureMonitor::build(SiopmpConfig::small(), telemetry.clone());
    let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
    let dev = m.mint_device(DeviceId(1));
    let tee = m.create_tee(vec![mem, dev]).expect("fresh monitor");
    m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
        .expect("capability covers the mapping");
    let allowed = m.check_dma(&DmaRequest::new(
        DeviceId(1),
        AccessKind::Read,
        0x8000_0100,
        64,
    ));
    assert!(allowed.is_allowed());
    m.check_dma(&DmaRequest::new(
        DeviceId(1),
        AccessKind::Write,
        0x9000_0000,
        64,
    ));
    // A cold device goes through the SID-missing interrupt + mount path.
    m.siopmp_mut()
        .register_cold_device(
            DeviceId(2),
            MountableEntry {
                domains: vec![],
                entries: vec![IopmpEntry::new(
                    AddressRange::new(0x20_0000, 0x1000).unwrap(),
                    Permissions::rw(),
                )],
            },
        )
        .expect("fresh unit accepts cold devices");
    let cold = m.check_dma(&DmaRequest::new(
        DeviceId(2),
        AccessKind::Read,
        0x20_0000,
        64,
    ));
    assert!(cold.is_allowed(), "cold device mounts transparently");
    telemetry.snapshot()
}

/// Drives a small bus simulation that exercises both refusal verdict
/// classes — a blocked (stalling) hot SID and an unmounted cold device
/// raising SID-missing — and returns the run report. This is the
/// `PolicyVerdict` breakdown `repro --json` serializes in its `bus`
/// section: the terminal bus statuses alone cannot distinguish a stall
/// from a missing mount, but the per-master report counts them
/// separately.
pub fn bus_exercise() -> siopmp_bus::SimReport {
    use siopmp_bus::{BurstKind, BusConfig, BusSim, MasterProgram, SiopmpPolicy};

    let mut sim = BusSim::build(
        BusConfig::default(),
        Box::new(SiopmpPolicy::new(bus_exercise_unit())),
        None,
    );
    sim.add_master(MasterProgram::uniform(1, BurstKind::Read, 0x0, 3));
    sim.add_master(MasterProgram::uniform(2, BurstKind::Read, 0x0, 2));
    sim.run_to_completion(100_000)
}

/// Drives a pinned-seed fault storm — slave errors, dropped beats,
/// delayed grants, device resets and SID-block pulses against retrying
/// masters — and returns the run report. This is the `faults` section of
/// `repro --json`: its per-master `bursts_retried` / `retry_exhausted` /
/// `faults_injected` counters show the recovery machinery working on a
/// deterministic schedule (the seed is fixed, so the numbers are stable
/// across runs and machines).
pub fn faults_exercise() -> siopmp_bus::SimReport {
    use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
    use siopmp::ids::{DeviceId, MdIndex};
    use siopmp_bus::{
        BurstKind, BusConfig, BusSim, FaultPlan, FaultPlanConfig, MasterProgram, RetryPolicy,
        SiopmpPolicy,
    };

    let mut unit = siopmp::Siopmp::build(siopmp::SiopmpConfig::small(), None);
    let mut sids = Vec::new();
    for (dev, md, base) in [(1u64, 0u16, 0x1_0000u64), (2, 1, 0x2_0000)] {
        let sid = unit.map_hot_device(DeviceId(dev)).expect("hot SIDs free");
        unit.associate_sid_with_md(sid, MdIndex(md))
            .expect("MD in range");
        unit.install_entry(
            MdIndex(md),
            IopmpEntry::new(
                AddressRange::new(base, 0x1000).expect("aligned range"),
                Permissions::rw(),
            ),
        )
        .expect("window has room");
        sids.push(sid);
    }
    let mut sim = BusSim::build(
        BusConfig::default(),
        Box::new(SiopmpPolicy::new(unit)),
        None,
    );
    let retry = RetryPolicy::bounded(3, 2);
    sim.add_master(
        MasterProgram::streaming(1, BurstKind::Read, 0x1_0000, 64, 8)
            .with_outstanding(2)
            .with_retry(retry),
    );
    sim.add_master(
        MasterProgram::streaming(2, BurstKind::Write, 0x2_0000, 64, 8)
            .with_outstanding(2)
            .with_retry(retry),
    );
    sim.set_fault_plan(FaultPlan::generate(
        7,
        &FaultPlanConfig {
            horizon: 200,
            budget: 16,
            masters: 2,
            block_sids: sids,
            cold_devices: vec![],
            churn_devices: vec![],
        },
    ));
    sim.run_to_completion(100_000)
}

/// Drives a two-domain sharded parallel simulation — each domain running
/// its own sIOPMP-policed shard with a local reader and a cross-domain
/// writer into the peer's window (authorised at both ends) — and returns
/// the merged report. This is the `parallel` section of `repro --json`;
/// `threads` picks the worker count (`--threads N`) and, by the engine's
/// determinism guarantee, never changes a byte of the output.
pub fn parallel_exercise(threads: usize) -> siopmp_bus::SimReport {
    use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
    use siopmp::ids::{DeviceId, MdIndex};
    use siopmp::telemetry::Telemetry;
    use siopmp_bus::parallel::{DomainSpec, ParallelSim};
    use siopmp_bus::{BurstKind, MasterProgram, SiopmpPolicy};

    const DOMAINS: usize = 2;
    let window = |domain: usize| 0x10_0000 * (domain as u64 + 1);
    let mut psim = ParallelSim::new(64, threads);
    for domain in 0..DOMAINS {
        let base = window(domain);
        let peer_base = window((domain + 1) % DOMAINS);
        let local = domain as u64 * 10 + 1;
        let cross = domain as u64 * 10 + 2;
        let peer_cross = ((domain + 1) % DOMAINS) as u64 * 10 + 2;
        let registry = Telemetry::new();
        let mut unit = siopmp::Siopmp::build(siopmp::SiopmpConfig::small(), registry.clone());
        for (dev, md, win) in [
            (local, 0u16, base),   // local reader over the home window
            (cross, 1, peer_base), // egress grant into the peer's window
            (peer_cross, 2, base), // ingress grant for the peer's writer
        ] {
            let sid = unit.map_hot_device(DeviceId(dev)).expect("hot SIDs free");
            unit.associate_sid_with_md(sid, MdIndex(md))
                .expect("MD in range");
            unit.install_entry(
                MdIndex(md),
                IopmpEntry::new(
                    AddressRange::new(win, 0x1000).expect("aligned range"),
                    Permissions::rw(),
                ),
            )
            .expect("window has room");
        }
        psim.add_domain(
            DomainSpec::for_policy(SiopmpPolicy::new(unit))
                .with_home_window(base, 0x10_0000)
                .with_telemetry(registry)
                .with_master(
                    MasterProgram::streaming(local, BurstKind::Read, base, 64, 6)
                        .with_outstanding(2),
                )
                .with_master(MasterProgram::streaming(
                    cross,
                    BurstKind::Write,
                    peer_base,
                    64,
                    3,
                )),
        );
    }
    psim.run(100_000)
}

/// The sIOPMP state [`bus_exercise`] drives traffic against: one blocked
/// hot SID (device 1) and one registered-but-unmounted cold device
/// (device 2). Split out so the lint-coverage tests can run the static
/// analyzer over exactly this configuration.
fn bus_exercise_unit() -> siopmp::Siopmp {
    use siopmp::ids::DeviceId;
    use siopmp::mountable::MountableEntry;
    use siopmp::SiopmpConfig;

    let mut unit = siopmp::Siopmp::build(SiopmpConfig::small(), None);
    let sid = unit
        .map_hot_device(DeviceId(1))
        .expect("fresh unit has hot SIDs");
    unit.block_sid(sid); // every burst from device 1 stalls
    unit.register_cold_device(
        DeviceId(2),
        MountableEntry {
            domains: vec![],
            entries: vec![],
        },
    )
    .expect("fresh unit accepts cold devices"); // device 2 raises SID-missing
    unit
}

/// Renders the experiment called `name`, or `None` for an unknown name.
pub fn render(name: &str) -> Option<String> {
    Some(match name {
        "table1" => table1::render(),
        "table2" => table2::render(),
        "fig10" => fig10::render(),
        "fig11" => fig11::render(),
        "fig12" => fig12::render(),
        "fig13" => fig13::render(),
        "fig14" => fig14::render(),
        "fig15" => fig15::render(),
        "fig16" => fig16::render(),
        "fig17" => fig17::render(),
        "coldswitch" => coldswitch::render(),
        "ablations" => ablations::render(),
        "lightload" => lightload::render(),
        "security" => security::render(),
        "iotlb" => iotlb_pressure::render(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_renders_nonempty() {
        for name in ALL {
            let out = render(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(out.len() > 50, "{name} output too small");
            assert!(out.contains('\n'));
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(render("fig99").is_none());
    }

    #[test]
    fn experiment_configs_lint_clean() {
        use siopmp::{Siopmp, SiopmpConfig};
        // Every configuration the experiments assemble must pass the
        // static analyzer without Error-severity findings.
        for (name, cfg) in [
            ("default", SiopmpConfig::default()),
            ("original-iopmp", SiopmpConfig::original_iopmp()),
            ("small", SiopmpConfig::small()),
        ] {
            let report = siopmp_verify::analyze(&Siopmp::build(cfg, None), None);
            assert!(!report.has_errors(), "{name}: {:?}", report.diagnostics());
        }
        let report = siopmp_verify::analyze(&bus_exercise_unit(), None);
        assert!(
            report.diagnostics().is_empty(),
            "bus exercise: {:?}",
            report.diagnostics()
        );
    }

    #[test]
    fn bus_exercise_separates_verdict_classes() {
        let r = bus_exercise();
        assert!(r.completed);
        assert_eq!(r.total_stalled(), 3);
        assert_eq!(r.total_sid_missing(), 2);
        let text = r.to_json().pretty();
        assert!(text.contains("\"bursts_stalled\": 3"), "{text}");
        assert!(text.contains("\"bursts_sid_missing\": 2"), "{text}");
    }

    #[test]
    fn faults_exercise_reports_recovery_counters() {
        let r = faults_exercise();
        assert!(r.completed, "fault storm must converge");
        assert!(r.total_faults_injected() > 0, "plan must land faults");
        assert!(r.total_retried() > 0, "retries must be exercised");
        let text = r.to_json().pretty();
        assert!(text.contains("\"bursts_retried\""), "{text}");
        assert!(text.contains("\"retry_exhausted\""), "{text}");
        assert!(text.contains("\"faults_injected\""), "{text}");
        // Pinned seed: the storm is deterministic.
        assert_eq!(text, faults_exercise().to_json().pretty());
    }

    #[test]
    fn parallel_exercise_is_thread_count_invariant() {
        let want = parallel_exercise(1);
        assert!(want.completed, "the exercise must drain");
        // 2 domains × (local + cross + bridge): cross traffic reached both.
        assert_eq!(want.masters.len(), 6);
        for threads in [2, 4] {
            assert_eq!(
                parallel_exercise(threads).to_json().pretty(),
                want.to_json().pretty(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn telemetry_exercise_covers_hot_and_cold_paths() {
        let snap = telemetry_exercise();
        assert_eq!(snap.counters["monitor.tees_created"], 1);
        assert_eq!(snap.counters["monitor.device_maps"], 1);
        assert_eq!(snap.counters["monitor.dma_checks"], 3);
        assert_eq!(snap.counters["siopmp.cold_switches"], 1);
        assert_eq!(snap.counters["siopmp.violations"], 1);
        assert!(snap.histograms.contains_key("siopmp.cold_switch_cycles"));
    }
}
