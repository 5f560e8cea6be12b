//! Chaos suite: deterministic fault schedules against the full
//! bus + sIOPMP stack, differentially checked against the static
//! analyzer.
//!
//! For every seeded [`FaultPlan`] the simulator records one
//! [`DecisionRecord`] per issued burst attempt, tagged with the
//! control-plane *generation* live when the verdict was pinned. The suite
//! snapshots a [`siopmp_verify::analyze`] report per generation and
//! asserts two invariants over ≥1000 distinct schedules:
//!
//! * **safety** — every pinned verdict agrees class-wise with what the
//!   static analysis of that generation's configuration predicts, and no
//!   burst ever completes `Ok` without an `Allowed` verdict. In
//!   particular the stray master (whose traffic is never authorized under
//!   *any* reachable configuration) transfers zero bytes under every
//!   schedule.
//! * **liveness** — with a finite fault budget every run either completes
//!   its programs or cleanly reports retry exhaustion; nothing hangs and
//!   nothing is silently dropped.
//!
//! A separate family drives the quiesce/drain protocol with traffic in
//! flight and proves the drained-or-refused guarantee: a cold switch
//! issued while bursts are live commits only once the affected traffic
//! has reached zero in flight, or refuses without mounting.
//!
//! Finally, four pinned fault storms fix the exact simulated cost of
//! recovery, so any change to retry, backoff or drain timing shows up as
//! a changed cycle count.

use std::collections::HashMap;

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex, SourceId};
use siopmp::mountable::MountableEntry;
use siopmp::quiesce::{ColdSwitchDrain, DrainConfig, DrainPoll};
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_bus::{
    BurstKind, BurstStatus, BusConfig, BusSim, DecisionRecord, FaultPlan, FaultPlanConfig,
    MasterProgram, PolicyVerdict, RetryPolicy, SiopmpPolicy,
};
use siopmp_verify::{analyze, Predicted, Report};

/// Index of the stray master whose traffic must never be admitted.
const STRAY: usize = 2;

fn entry(base: u64, len: u64, perms: Permissions) -> IopmpEntry {
    IopmpEntry::new(AddressRange::new(base, len).unwrap(), perms)
}

/// The chaos unit: three hot devices (1, 2, 3), two registered cold
/// devices (7, 8) with device 7 initially mounted. Device 3's region is
/// read-only, so its master's writes are denied-by-permission and its
/// probes outside any window are denied-by-no-match — under every
/// configuration any fault schedule can reach.
fn chaos_unit() -> (Siopmp, Vec<SourceId>) {
    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
    let mut sids = Vec::new();
    for (dev, md, base, perms) in [
        (1u64, 0u16, 0x1_0000u64, Permissions::rw()),
        (2, 1, 0x2_0000, Permissions::rw()),
        (3, 2, 0x3_0000, Permissions::read_only()),
    ] {
        let sid = unit.map_hot_device(DeviceId(dev)).unwrap();
        unit.associate_sid_with_md(sid, MdIndex(md)).unwrap();
        unit.install_entry(MdIndex(md), entry(base, 0x1000, perms))
            .unwrap();
        sids.push(sid);
    }
    unit.register_cold_device(
        DeviceId(7),
        MountableEntry {
            domains: vec![],
            entries: vec![entry(0x7_0000, 0x1000, Permissions::rw())],
        },
    )
    .unwrap();
    unit.register_cold_device(
        DeviceId(8),
        MountableEntry {
            domains: vec![],
            entries: vec![entry(0x8_0000, 0x1000, Permissions::rw())],
        },
    )
    .unwrap();
    unit.handle_sid_missing(DeviceId(7)).unwrap();
    (unit, sids)
}

/// The chaos traffic mix: two legal hot masters, one stray master whose
/// every burst is illegal, and one master on the mounted cold device.
fn chaos_masters(retry: RetryPolicy) -> Vec<MasterProgram> {
    vec![
        MasterProgram::streaming(1, BurstKind::Read, 0x1_0000, 64, 10)
            .with_outstanding(2)
            .with_retry(retry),
        MasterProgram::streaming(2, BurstKind::Write, 0x2_0000, 64, 10)
            .with_outstanding(2)
            .with_retry(retry),
        // Stray: writes into its own read-only window (denied by
        // permission) chained with reads of another tenant's window
        // (denied by no-match — device 3 cannot see MD0's entries).
        MasterProgram::streaming(3, BurstKind::Write, 0x3_0000, 64, 5)
            .chain(MasterProgram::streaming(
                3,
                BurstKind::Read,
                0x1_0000,
                64,
                5,
            ))
            .with_outstanding(2)
            .with_retry(retry),
        MasterProgram::streaming(7, BurstKind::Read, 0x7_0000, 64, 8)
            .with_outstanding(2)
            .with_retry(retry),
    ]
}

fn build_sim(programs: Vec<MasterProgram>) -> BusSim {
    let (unit, _) = chaos_unit();
    let mut sim = BusSim::build(
        BusConfig::default(),
        Box::new(SiopmpPolicy::new(unit)),
        None,
    );
    for p in programs {
        sim.add_master(p);
    }
    sim
}

/// Runs `sim` to completion (bounded by `max_cycles`), snapshotting a
/// static-analysis report for every configuration generation that was
/// ever live at the end of a step. Faults are applied at the top of
/// `step()` — before that cycle's issues — so the post-step snapshot is
/// exactly the configuration the cycle's decisions were pinned under.
fn run_with_snapshots(sim: &mut BusSim, max_cycles: u64) -> HashMap<u64, Report> {
    let mut snapshots = HashMap::new();
    snapshots.insert(0, analyze(sim.policy().siopmp_unit().unwrap(), None));
    while !sim.all_done() && sim.cycle() < max_cycles {
        sim.step();
        let generation = sim.generation();
        snapshots
            .entry(generation)
            .or_insert_with(|| analyze(sim.policy().siopmp_unit().unwrap(), None));
    }
    snapshots
}

fn predicted_class(p: &Predicted) -> PolicyVerdict {
    match p {
        Predicted::Allowed { .. } => PolicyVerdict::Allowed,
        Predicted::DeniedNoMatch | Predicted::DeniedPermission { .. } => PolicyVerdict::Denied,
        Predicted::Stalled => PolicyVerdict::Stalled,
        Predicted::SidMissing => PolicyVerdict::SidMissing,
    }
}

/// Safety invariant: every pinned verdict agrees with the per-generation
/// static analysis, and completion status never outranks the verdict.
fn assert_decisions_match_oracle(
    seed: u64,
    decisions: &[DecisionRecord],
    snapshots: &HashMap<u64, Report>,
) {
    for rec in decisions {
        let report = snapshots.get(&rec.generation).unwrap_or_else(|| {
            panic!("seed {seed}: decision at cycle {rec:?} under unsnapshotted generation")
        });
        let predicted = report.predict(rec.device, rec.kind.access(), rec.addr, rec.len);
        assert_eq!(
            predicted_class(&predicted),
            rec.verdict,
            "seed {seed}: verdict diverges from analysis at {rec:?} (predicted {predicted:?})"
        );
        if rec.status == Some(BurstStatus::Ok) {
            assert_eq!(
                rec.verdict,
                PolicyVerdict::Allowed,
                "seed {seed}: burst completed Ok without an Allowed verdict: {rec:?}"
            );
        }
    }
}

/// The headline property: ≥1000 distinct seeded fault schedules, each
/// differentially checked against the analyzer and against a fault-free
/// run of the same programs.
#[test]
fn chaos_schedules_never_admit_protected_accesses_and_always_terminate() {
    // Fault-free baseline: every legal burst completes Ok, the stray
    // master completes nothing Ok.
    let mut baseline = build_sim(chaos_masters(RetryPolicy::bounded(3, 2)));
    let baseline = baseline.run_to_completion(100_000);
    assert!(baseline.completed, "fault-free run must drain");
    for (i, m) in baseline.masters.iter().enumerate() {
        if i == STRAY {
            assert_eq!(m.bursts_ok, 0, "stray baseline must complete nothing");
        } else {
            assert_eq!(m.bursts_ok, m.bursts_completed, "legal baseline is all Ok");
        }
    }

    let plan_config = FaultPlanConfig {
        horizon: 300,
        budget: 24,
        masters: 4,
        block_sids: {
            let (_, sids) = chaos_unit();
            let mut sids = sids;
            sids.push(SiopmpConfig::small().cold_sid());
            sids
        },
        cold_devices: vec![DeviceId(7), DeviceId(8)],
        churn_devices: vec![DeviceId(8)],
    };

    for seed in 0..1024u64 {
        let mut sim = build_sim(chaos_masters(RetryPolicy::bounded(3, 2)));
        sim.enable_decision_log();
        sim.set_fault_plan(FaultPlan::generate(seed, &plan_config));
        let snapshots = run_with_snapshots(&mut sim, 100_000);

        // Liveness: the finite fault budget must not wedge the run.
        let report = sim.run_to_completion(0);
        assert!(
            report.completed,
            "seed {seed}: run hung at cycle {} with faults exhausted",
            report.cycles
        );
        let program_lens: Vec<usize> = chaos_masters(RetryPolicy::bounded(3, 2))
            .iter()
            .map(|p| p.bursts.len())
            .collect();
        for (i, m) in report.masters.iter().enumerate() {
            assert_eq!(
                m.bursts_completed, program_lens[i],
                "seed {seed}: master {i} dropped bursts"
            );
        }

        // Safety: differential against the per-generation analysis.
        let decisions = sim.decision_log().expect("logging enabled");
        assert!(!decisions.is_empty());
        assert_decisions_match_oracle(seed, decisions, &snapshots);

        // Differential against the fault-free run: faults may only take
        // accesses away, never grant new ones.
        for (i, m) in report.masters.iter().enumerate() {
            assert!(
                m.bursts_ok <= baseline.masters[i].bursts_ok,
                "seed {seed}: master {i} completed more Ok bursts ({}) than fault-free ({})",
                m.bursts_ok,
                baseline.masters[i].bursts_ok
            );
        }
        assert_eq!(
            report.masters[STRAY].bursts_ok, 0,
            "seed {seed}: a fault schedule admitted the stray master"
        );
        assert_eq!(
            report.masters[STRAY].bytes_transferred, 0,
            "seed {seed}: the stray master moved data"
        );
    }
}

/// Replays are bit-for-bit: the same seed yields the same decision log
/// and the same report, which is what makes a failing chaos seed a
/// directed regression test.
#[test]
fn chaos_runs_replay_bit_for_bit_from_their_seed() {
    let plan_config = FaultPlanConfig {
        horizon: 200,
        budget: 16,
        masters: 4,
        block_sids: vec![SourceId(0), SourceId(1)],
        cold_devices: vec![DeviceId(7), DeviceId(8)],
        churn_devices: vec![DeviceId(8)],
    };
    let run = |seed: u64| {
        let mut sim = build_sim(chaos_masters(RetryPolicy::bounded(2, 2)));
        sim.enable_decision_log();
        sim.set_fault_plan(FaultPlan::generate(seed, &plan_config));
        let report = sim.run_to_completion(100_000);
        (
            sim.decision_log().unwrap().to_vec(),
            report.to_json().pretty(),
        )
    };
    let (log_a, report_a) = run(99);
    let (log_b, report_b) = run(99);
    assert_eq!(log_a, log_b);
    assert_eq!(report_a, report_b);
    let (log_c, _) = run(100);
    assert_ne!(log_a, log_c, "distinct seeds must differ");
}

/// S3: CAM remap/eviction churn concurrent with in-flight bursts. The CAM
/// is filled to capacity so every promotion evicts a victim with live
/// traffic; verdicts must still match the post-hoc analysis of whichever
/// configuration was live at check time.
#[test]
fn cam_eviction_churn_verdicts_match_posthoc_analysis() {
    let build = || {
        let mut unit = Siopmp::build(SiopmpConfig::small(), None);
        // Fill all 7 hot SIDs so CamChurn must evict.
        for (dev, md, base, perms) in [
            (1u64, 0u16, 0x1_0000u64, Permissions::rw()),
            (2, 1, 0x2_0000, Permissions::rw()),
            (3, 2, 0x3_0000, Permissions::read_only()),
        ] {
            let sid = unit.map_hot_device(DeviceId(dev)).unwrap();
            unit.associate_sid_with_md(sid, MdIndex(md)).unwrap();
            unit.install_entry(MdIndex(md), entry(base, 0x1000, perms))
                .unwrap();
        }
        for filler in [4u64, 5, 6, 10] {
            unit.map_hot_device(DeviceId(filler)).unwrap();
        }
        // Promotable cold devices carry a real domain association so an
        // eviction-promotion rewires SRC2MD, not just the CAM.
        unit.install_entry(MdIndex(3), entry(0x7_0000, 0x1000, Permissions::rw()))
            .unwrap();
        for cold in [7u64, 8] {
            unit.register_cold_device(
                DeviceId(cold),
                MountableEntry {
                    domains: vec![MdIndex(3)],
                    entries: vec![entry(0x7_0000, 0x1000, Permissions::rw())],
                },
            )
            .unwrap();
        }
        unit.handle_sid_missing(DeviceId(7)).unwrap();
        let mut sim = BusSim::build(
            BusConfig::default(),
            Box::new(SiopmpPolicy::new(unit)),
            None,
        );
        let retry = RetryPolicy::bounded(2, 1);
        sim.add_master(
            MasterProgram::streaming(1, BurstKind::Read, 0x1_0000, 64, 12)
                .with_outstanding(2)
                .with_retry(retry),
        );
        sim.add_master(
            MasterProgram::streaming(2, BurstKind::Write, 0x2_0000, 64, 12)
                .with_outstanding(2)
                .with_retry(retry),
        );
        sim.add_master(
            MasterProgram::streaming(7, BurstKind::Read, 0x7_0000, 64, 10)
                .with_outstanding(2)
                .with_retry(retry),
        );
        sim
    };

    let plan_config = FaultPlanConfig {
        horizon: 250,
        budget: 20,
        masters: 3,
        block_sids: vec![],
        cold_devices: vec![DeviceId(7), DeviceId(8)],
        churn_devices: vec![DeviceId(7), DeviceId(8)],
    };
    let mut churn_seen = false;
    for seed in 0..256u64 {
        let plan = FaultPlan::generate(seed, &plan_config);
        let mut sim = build();
        sim.enable_decision_log();
        sim.set_fault_plan(plan);
        let snapshots = run_with_snapshots(&mut sim, 100_000);
        let report = sim.run_to_completion(0);
        assert!(report.completed, "seed {seed}: churn run hung");
        churn_seen |= snapshots.len() > 1;
        assert_decisions_match_oracle(seed, sim.decision_log().unwrap(), &snapshots);
    }
    assert!(churn_seen, "no schedule exercised a control-plane change");
}

/// Drained-or-refused, the voluntary-drain arm: a cold switch begun with
/// bursts in flight commits only once the mounted device's traffic has
/// drained to zero — never interleaved with it.
#[test]
fn cold_switch_with_traffic_in_flight_commits_only_after_drain() {
    let mut sim = build_sim(vec![MasterProgram::streaming(
        7,
        BurstKind::Read,
        0x7_0000,
        64,
        6,
    )
    .with_outstanding(2)]);
    // Get at least one burst airborne before the switch is requested.
    while sim.in_flight_for_device(DeviceId(7)) == 0 {
        sim.step();
    }
    assert!(sim.in_flight_for_device(DeviceId(7)) >= 1);
    let now = sim.cycle();
    let unit = sim.policy_mut().siopmp_unit_mut().unwrap();
    let mut drain = ColdSwitchDrain::begin(unit, DeviceId(8), now, DrainConfig::default()).unwrap();

    let mut committed = false;
    for _ in 0..10_000 {
        sim.step();
        let now = sim.cycle();
        let in_flight = sim.in_flight_for_device(DeviceId(7));
        let mounted_before = sim.policy().siopmp_unit().unwrap().mounted_cold_device();
        let unit = sim.policy_mut().siopmp_unit_mut().unwrap();
        match drain.poll(unit, in_flight, now) {
            DrainPoll::Committed(report) => {
                assert_eq!(report.mounted, DeviceId(8));
                assert_eq!(in_flight, 0, "committed with bursts still in flight");
                assert_eq!(mounted_before, Some(DeviceId(7)), "single commit point");
                committed = true;
                break;
            }
            DrainPoll::Refused => panic!("voluntary drain should commit, not refuse"),
            DrainPoll::AbortRequested { .. } | DrainPoll::Draining { .. } => {
                // Until the commit point the old tenant must stay mounted.
                assert_eq!(mounted_before, Some(DeviceId(7)));
            }
        }
    }
    assert!(committed, "drain never reached a terminal phase");
    assert_eq!(
        sim.policy().siopmp_unit().unwrap().mounted_cold_device(),
        Some(DeviceId(8))
    );
}

/// Drained-or-refused, the refusal arm: when the caller cannot abort the
/// stragglers (a wedged bus) the switch refuses inside its grace window
/// and leaves the previous tenant mounted — it never mounts over live
/// traffic.
#[test]
fn cold_switch_that_cannot_drain_refuses_without_mounting() {
    let mut sim = build_sim(vec![
        // A long program with deep outstanding keeps device 7 bursts in
        // flight continuously, so the drain deadline always passes.
        MasterProgram::streaming(7, BurstKind::Read, 0x7_0000, 64, 64).with_outstanding(4),
    ]);
    while sim.in_flight_for_device(DeviceId(7)) == 0 {
        sim.step();
    }
    let now = sim.cycle();
    let config = DrainConfig {
        timeout_cycles: 4,
        abort_grace_cycles: 2,
    };
    let unit = sim.policy_mut().siopmp_unit_mut().unwrap();
    let mut drain = ColdSwitchDrain::begin(unit, DeviceId(8), now, config).unwrap();

    let mut refused = false;
    for _ in 0..10_000 {
        sim.step();
        let now = sim.cycle();
        let in_flight = sim.in_flight_for_device(DeviceId(7));
        let unit = sim.policy_mut().siopmp_unit_mut().unwrap();
        match drain.poll(unit, in_flight, now) {
            DrainPoll::Committed(_) => {
                assert_eq!(in_flight, 0, "committed with bursts still in flight");
                break;
            }
            DrainPoll::Refused => {
                refused = true;
                break;
            }
            // The wedged caller never services the abort request.
            DrainPoll::AbortRequested { in_flight } => assert!(in_flight > 0),
            DrainPoll::Draining { .. } => {}
        }
    }
    assert!(refused, "undrainable switch must refuse");
    let unit = sim.policy().siopmp_unit().unwrap();
    assert_eq!(unit.mounted_cold_device(), Some(DeviceId(7)));
    assert!(!unit.is_sid_blocked(unit.config().cold_sid()));
    // The refused switch left the configuration as it was: traffic drains
    // normally afterwards.
    let report = sim.run_to_completion(100_000);
    assert!(report.completed);
}

/// Seeded drain storms: under arbitrary data-plane fault schedules the
/// quiesced switch still commits only at zero in flight or refuses.
#[test]
fn quiesced_switches_under_fault_storms_stay_drained_or_refused() {
    let plan_config = FaultPlanConfig {
        horizon: 150,
        budget: 12,
        masters: 2,
        block_sids: vec![SourceId(0)],
        cold_devices: vec![],
        churn_devices: vec![],
    };
    let mut commits = 0usize;
    let mut refusals = 0usize;
    for seed in 0..64u64 {
        let mut sim = build_sim(vec![
            MasterProgram::streaming(1, BurstKind::Read, 0x1_0000, 64, 12)
                .with_outstanding(2)
                .with_retry(RetryPolicy::bounded(3, 2)),
            MasterProgram::streaming(7, BurstKind::Read, 0x7_0000, 64, 8)
                .with_outstanding(2)
                .with_retry(RetryPolicy::bounded(3, 2)),
        ]);
        sim.set_fault_plan(FaultPlan::generate(seed, &plan_config));
        while sim.in_flight_for_device(DeviceId(7)) == 0 && !sim.all_done() {
            sim.step();
        }
        if sim.all_done() {
            continue;
        }
        let now = sim.cycle();
        let config = DrainConfig {
            timeout_cycles: 32,
            abort_grace_cycles: 16,
        };
        let unit = sim.policy_mut().siopmp_unit_mut().unwrap();
        let mut drain = ColdSwitchDrain::begin(unit, DeviceId(8), now, config).unwrap();
        loop {
            sim.step();
            let now = sim.cycle();
            let in_flight = sim.in_flight_for_device(DeviceId(7));
            let unit = sim.policy_mut().siopmp_unit_mut().unwrap();
            match drain.poll(unit, in_flight, now) {
                DrainPoll::Committed(report) => {
                    assert_eq!(in_flight, 0, "seed {seed}: interleaved commit");
                    assert_eq!(report.mounted, DeviceId(8));
                    commits += 1;
                    break;
                }
                DrainPoll::Refused => {
                    let unit = sim.policy().siopmp_unit().unwrap();
                    assert_eq!(
                        unit.mounted_cold_device(),
                        Some(DeviceId(7)),
                        "seed {seed}: refusal must not mount"
                    );
                    refusals += 1;
                    break;
                }
                DrainPoll::AbortRequested { .. } => {
                    sim.abort_in_flight_for_device(DeviceId(7));
                }
                DrainPoll::Draining { .. } => {}
            }
            assert!(now < 100_000, "seed {seed}: drain never terminated");
        }
        // Whatever the outcome, traffic still terminates afterwards.
        let report = sim.run_to_completion(100_000);
        assert!(report.completed, "seed {seed}: post-drain run hung");
    }
    assert!(commits > 0, "no storm schedule ever committed a switch");
    // Refusals are possible but not required with these deadlines; the
    // assertion above is the load-bearing one.
    let _ = refusals;
}

/// One pinned fault storm: two retrying hot masters (devices 1 and 2) and
/// the mounted cold device 7 under a schedule of slave errors, dropped
/// beats, delayed grants, device resets, SID-block pulses and undrained
/// cold switches between devices 7 and 8.
fn storm(seed: u64) -> siopmp_bus::SimReport {
    let mut unit = Siopmp::build(SiopmpConfig::small(), None);
    let mut sids = Vec::new();
    for (dev, md, base) in [(1u64, 0u16, 0x1_0000u64), (2, 1, 0x2_0000)] {
        let sid = unit.map_hot_device(DeviceId(dev)).unwrap();
        unit.associate_sid_with_md(sid, MdIndex(md)).unwrap();
        unit.install_entry(MdIndex(md), entry(base, 0x1000, Permissions::rw()))
            .unwrap();
        sids.push(sid);
    }
    for cold in [7u64, 8] {
        unit.register_cold_device(
            DeviceId(cold),
            MountableEntry {
                domains: vec![],
                entries: vec![entry(0x7_0000, 0x1000, Permissions::rw())],
            },
        )
        .unwrap();
    }
    unit.handle_sid_missing(DeviceId(7)).unwrap();
    sids.push(unit.config().cold_sid());

    let mut sim = BusSim::build(
        BusConfig::default(),
        Box::new(SiopmpPolicy::new(unit)),
        None,
    );
    let retry = RetryPolicy::bounded(3, 2);
    for (dev, kind, base, bursts) in [
        (1, BurstKind::Read, 0x1_0000, 12),
        (2, BurstKind::Write, 0x2_0000, 12),
        (7, BurstKind::Read, 0x7_0000, 8),
    ] {
        sim.add_master(
            MasterProgram::streaming(dev, kind, base, 64, bursts)
                .with_outstanding(2)
                .with_retry(retry),
        );
    }
    sim.set_fault_plan(FaultPlan::generate(
        seed,
        &FaultPlanConfig {
            horizon: 300,
            budget: 24,
            masters: 3,
            block_sids: sids,
            cold_devices: vec![DeviceId(7), DeviceId(8)],
            churn_devices: vec![],
        },
    ));
    sim.run_to_completion(100_000)
}

#[test]
fn fault_storm_recovery_costs_exact_cycles_per_seed() {
    for (seed, cycles) in [(2, 267), (7, 198), (42, 289), (1337, 243)] {
        let report = storm(seed);
        assert!(report.completed, "storm seed {seed} must converge");
        let bursts: usize = report.masters.iter().map(|m| m.bursts_completed).sum();
        assert_eq!((report.cycles, bursts), (cycles, 32), "storm seed {seed}");
        assert!(report.total_retried() > 0, "seed {seed} retries nothing");
        assert!(
            report.total_faults_injected() > 0,
            "seed {seed} injects nothing"
        );
    }
}
