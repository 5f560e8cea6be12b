//! Golden-trace snapshots: small serial-engine runs are pinned to
//! committed fixtures, and the parallel engine (short epochs, several
//! worker-thread counts) must reproduce each one event-for-event.
//!
//! This guards future refactors of the barrier ordering: any change that
//! makes the sharded engine's step sequence diverge from the serial
//! engine's — even by one cycle — shows up as a fixture diff.
//!
//! Two inputs are pinned:
//!
//! * `golden_trace.txt` — a short run of two masters, one of them
//!   denied;
//! * `golden_arbitration.txt` — eight masters with 1 to 8 outstanding
//!   bursts, a denied window, device resets, slave errors, dropped beats
//!   and grant stalls under bounded retries. The whole trace and the
//!   decision log (verdict, attempt, generation and status of every
//!   issued attempt) are pinned, so A/D round-robin order is fixed across
//!   the many points where the engine retires resolved flights.
//!
//! To regenerate the fixtures after an *intentional* timing-model change,
//! run with `SIOPMP_BLESS=1` and commit the rewritten files.

use siopmp_bus::parallel::{DomainSpec, ParallelSim};
use siopmp_bus::policy::{AccessPolicy, AllowAll, DenyRange};
use siopmp_bus::{
    BurstKind, BurstRequest, BusConfig, BusSim, DecisionRecord, FaultEvent, FaultKind, FaultPlan,
    MasterProgram, RetryPolicy, SimReport,
};
use siopmp_testkit::Rng;

/// One pinned input: a single-domain system and the fixture its serial
/// run must render to.
struct Case {
    fixture: &'static str,
    path: &'static str,
    trace_capacity: usize,
    decision_log: bool,
    epoch_cycles: u64,
    policy: fn() -> Box<dyn AccessPolicy>,
    masters: fn() -> Vec<MasterProgram>,
    faults: fn() -> FaultPlan,
}

const CASES: [Case; 2] = [
    Case {
        fixture: include_str!("fixtures/golden_trace.txt"),
        path: concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_trace.txt"
        ),
        trace_capacity: 128,
        decision_log: false,
        epoch_cycles: 16,
        policy: two_master_policy,
        masters: two_masters,
        faults: FaultPlan::empty,
    },
    Case {
        fixture: include_str!("fixtures/golden_arbitration.txt"),
        path: concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_arbitration.txt"
        ),
        trace_capacity: 1 << 16,
        decision_log: true,
        epoch_cycles: 7,
        policy: arbitration_policy,
        masters: arbitration_masters,
        faults: arbitration_faults,
    },
];

fn two_master_policy() -> Box<dyn AccessPolicy> {
    // Master 1 reads legally; master 2 writes into the denied window.
    Box::new(DenyRange {
        base: 0x2000,
        len: 0x1000,
    })
}

fn two_masters() -> Vec<MasterProgram> {
    vec![
        MasterProgram::streaming(1, BurstKind::Read, 0x1000, 64, 4),
        MasterProgram::streaming(2, BurstKind::Write, 0x2000, 64, 4),
    ]
}

/// Seed of the arbitration input. Its schedule reaches the round-robin
/// corner that flight retirement must preserve: a channel picks the last
/// live flight while flights issued after it have already been retired,
/// so the next scan must go on past it instead of wrapping to slot 0.
const ARBITRATION_SEED: u64 = 3650;

fn arbitration_policy() -> Box<dyn AccessPolicy> {
    Box::new(DenyRange {
        base: 0x400,
        len: 0xc00,
    })
}

/// Eight masters with 1 to 8 outstanding bursts and bounded retries, each
/// issuing 60 random reads and writes over 6 KiB, half of it denied: the
/// bus-error truncations resolve flights out of issue order beside
/// full-length legal bursts.
fn arbitration_masters() -> Vec<MasterProgram> {
    let mut rng = Rng::seed_from_u64(ARBITRATION_SEED);
    (0..8u64)
        .map(|m| {
            let mut p = MasterProgram::empty(m + 1)
                .with_outstanding(m as usize + 1)
                .with_retry(RetryPolicy::bounded(3, 2));
            let device = p.device;
            p.bursts = (0..60)
                .map(|_| BurstRequest {
                    device,
                    kind: if rng.gen_bool(0.5) {
                        BurstKind::Read
                    } else {
                        BurstKind::Write
                    },
                    addr: rng.gen_range(0..96) * 64,
                })
                .collect();
            p
        })
        .collect()
}

/// Device resets, slave errors, dropped beats and grant stalls at random
/// cycles against random masters.
fn arbitration_faults() -> FaultPlan {
    let mut rng = Rng::seed_from_u64(ARBITRATION_SEED + 1);
    let events = (0..40u64)
        .map(|i| {
            let master = rng.gen_usize(0..8);
            let kind = match i % 4 {
                0 => FaultKind::DeviceReset { master },
                1 => FaultKind::SlaveError { master },
                2 => FaultKind::DropBeat { master },
                _ => FaultKind::DelayedGrant {
                    cycles: rng.gen_range_inclusive(1, 16),
                },
            };
            FaultEvent {
                at: rng.gen_range(0..2000),
                kind,
            }
        })
        .collect();
    FaultPlan::from_events(ARBITRATION_SEED + 1, events)
}

fn render(
    trace: &siopmp_bus::trace::TraceBuffer,
    report: &SimReport,
    log: Option<&[DecisionRecord]>,
) -> String {
    let mut out = String::new();
    for e in trace.events() {
        out.push_str(&format!(
            "{:>5} m{} {:?} {:?}\n",
            e.cycle, e.master, e.burst_kind, e.kind
        ));
    }
    out.push_str(&format!(
        "cycles={} completed={} dropped={}\n",
        report.cycles,
        report.completed,
        trace.dropped()
    ));
    for d in log.unwrap_or_default() {
        out.push_str(&format!(
            "{:>5} m{} {:?} {:#x} {:?} attempt={} gen={} {:?}\n",
            d.cycle, d.master, d.kind, d.addr, d.verdict, d.attempt, d.generation, d.status
        ));
    }
    out
}

fn serial_run(case: &Case) -> String {
    let mut sim = BusSim::build(BusConfig::default(), (case.policy)(), None);
    sim.enable_trace(case.trace_capacity);
    if case.decision_log {
        sim.enable_decision_log();
    }
    sim.set_fault_plan((case.faults)());
    for p in (case.masters)() {
        sim.add_master(p);
    }
    let report = sim.run_to_completion(1_000_000);
    render(sim.trace().unwrap(), &report, sim.decision_log())
}

/// The case's domain plus an idle second domain (no masters, no window),
/// so thread counts above 1 really hand shards to worker threads; the
/// idle domain never produces traffic and adds nothing to the report.
fn parallel_run(case: &Case, threads: usize) -> String {
    let mut psim = ParallelSim::new(case.epoch_cycles, threads);
    let mut spec = DomainSpec::for_boxed_policy((case.policy)()).with_fault_plan((case.faults)());
    for p in (case.masters)() {
        spec = spec.with_master(p);
    }
    let domain = psim.add_domain(spec);
    psim.add_domain(DomainSpec::for_policy(AllowAll));
    psim.enable_trace(case.trace_capacity);
    if case.decision_log {
        psim.domain_mut(domain).enable_decision_log();
    }
    let report = psim.run(1_000_000);
    let sim = psim.domain(domain);
    render(sim.trace().unwrap(), &report, sim.decision_log())
}

#[test]
fn serial_engine_matches_committed_fixture() {
    for case in &CASES {
        let actual = serial_run(case);
        if std::env::var("SIOPMP_BLESS").is_ok() {
            std::fs::write(case.path, &actual).unwrap();
            continue;
        }
        assert_eq!(
            actual, case.fixture,
            "serial trace diverged from {} \
             (SIOPMP_BLESS=1 regenerates it after intentional changes)",
            case.path
        );
    }
}

#[test]
fn parallel_engine_reproduces_the_fixture_exactly() {
    if std::env::var("SIOPMP_BLESS").is_ok() {
        return; // fixtures being regenerated by the serial test
    }
    // Short epochs force many barriers mid-run; thread counts above the
    // domain count exercise the clamping path. Neither may perturb the
    // step sequence.
    for case in &CASES {
        for threads in [1, 2, 4] {
            assert_eq!(
                parallel_run(case, threads),
                case.fixture,
                "parallel engine must reproduce {} byte-for-byte (threads={threads})",
                case.path
            );
        }
    }
}
