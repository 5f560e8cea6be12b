//! `soc_stream` and `soc_churn`: DMA bursts through the sharded SoC
//! simulator (`ParallelSim`, two worker threads), every burst checked by
//! a per-domain sIOPMP unit.
//!
//! One *job* builds the whole system from the seed and runs it to
//! completion. Jobs repeat until the duration elapses; every job is the
//! same simulation, so its report must be byte-identical to the first
//! one's. The first job runs untimed with the decision log on, and every
//! verdict in it must match the generator's policy: allowed exactly when
//! the burst lies inside the issuing device's grant (a cold device may
//! also be refused as SID-missing or stalled while it is not mounted).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex};
use siopmp::mountable::MountableEntry;
use siopmp::telemetry::Telemetry;
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_bus::policy::AccessPolicy;
use siopmp_bus::{
    BurstKind, BurstRequest, BusConfig, ControlOp, DomainSpec, FaultPlan, FaultPlanConfig,
    MasterProgram, ParallelSim, PolicyVerdict, RetryPolicy, SimReport, SiopmpPolicy,
};

use crate::rng::SplitMix64;
use crate::stats::{mean, median, quantile};
use crate::sys;
use crate::trace::{covered_ns, now_ns, LayerTable, SpanBuf};
use crate::{Outcome, Params};

const PAGE: u64 = 0x1000;
/// Bytes per burst under the default bus (8 beats of 8 bytes).
const BURST: u64 = 64;
const THREADS: usize = 2;
const EPOCH_CYCLES: u64 = 256;
const MAX_CYCLES: u64 = 50_000_000;

/// Which SoC workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper scale: 8 domains × 4 masters, 128 entries per domain; each
    /// master streams 1024 reads over 12 granted pages, 4 outstanding.
    Stream,
    /// 2 paper-default units; per domain 16 hot masters (80% in-policy,
    /// 20% unmapped traffic) and 4 cold devices retrying on SID-missing,
    /// with seeded undrained cold switches.
    Churn,
}

/// What each device may reach: granted page bases, and whether the
/// device is cold (mountable) rather than hot.
#[derive(Debug, Default)]
struct Grants(BTreeMap<DeviceId, (BTreeSet<u64>, bool)>);

impl Grants {
    fn grant(&mut self, device: DeviceId, pages: &[u64], cold: bool) {
        let entry = self
            .0
            .entry(device)
            .or_insert_with(|| (BTreeSet::new(), cold));
        entry.0.extend(pages.iter().copied());
    }

    /// Whether `verdict` is the one the generator's policy prescribes.
    fn expects(&self, device: DeviceId, addr: u64, len: u64, verdict: PolicyVerdict) -> bool {
        let Some((pages, cold)) = self.0.get(&device) else {
            return false;
        };
        let inside = pages.contains(&(addr & !(PAGE - 1))) && addr % PAGE + len <= PAGE;
        match verdict {
            PolicyVerdict::Allowed => inside,
            PolicyVerdict::Denied => !inside,
            PolicyVerdict::SidMissing | PolicyVerdict::Stalled => *cold,
        }
    }
}

fn page_entry(base: u64) -> IopmpEntry {
    IopmpEntry::new(
        AddressRange::new(base, PAGE).expect("page-aligned range"),
        Permissions::rw(),
    )
}

/// Maps `device` hot onto memory domain `md` and installs one entry per
/// page.
fn grant_hot(unit: &mut Siopmp, grants: &mut Grants, device: DeviceId, md: u16, pages: &[u64]) {
    let sid = unit.map_hot_device(device).expect("hot SIDs free");
    unit.associate_sid_with_md(sid, MdIndex(md))
        .expect("MD in range");
    for &page in pages {
        unit.install_entry(MdIndex(md), page_entry(page))
            .expect("memory domain has room");
    }
    grants.grant(device, pages, false);
}

fn pages(base: u64, count: u64) -> Vec<u64> {
    (0..count).map(|i| base + i * PAGE).collect()
}

/// A burst at a random 64-byte slot of `page`.
fn burst(rng: &mut SplitMix64, device: DeviceId, kind: BurstKind, page: u64) -> BurstRequest {
    BurstRequest {
        device,
        kind,
        addr: page + rng.below(PAGE / BURST) * BURST,
    }
}

/// One domain's unit, masters and fault plan, before the policy is chosen.
struct Domain {
    unit: Siopmp,
    telemetry: Telemetry,
    masters: Vec<MasterProgram>,
    faults: FaultPlan,
}

fn stream_domains(seed: u64, grants: &mut Grants) -> Vec<Domain> {
    (0..8u64)
        .map(|d| {
            let telemetry = Telemetry::new();
            let config = SiopmpConfig {
                num_entries: 128,
                ..SiopmpConfig::small()
            };
            let mut unit = Siopmp::build(config, telemetry.clone());
            let mut rng = SplitMix64::new(seed, d);
            let masters = (0..4u64)
                .map(|m| {
                    let device = DeviceId(0x100 * (d + 1) + m);
                    let granted = pages(((d + 1) << 28) + (m << 20), 12);
                    grant_hot(&mut unit, grants, device, m as u16, &granted);
                    let bursts = (0..1024)
                        .map(|_| {
                            let page = granted[rng.below(12) as usize];
                            burst(&mut rng, device, BurstKind::Read, page)
                        })
                        .collect();
                    MasterProgram {
                        device,
                        bursts,
                        outstanding: 4,
                        retry: RetryPolicy::none(),
                    }
                })
                .collect();
            Domain {
                unit,
                telemetry,
                masters,
                faults: FaultPlan::empty(),
            }
        })
        .collect()
}

fn churn_domains(seed: u64, grants: &mut Grants) -> Vec<Domain> {
    (0..2u64)
        .map(|d| {
            let telemetry = Telemetry::new();
            let mut unit = Siopmp::build(SiopmpConfig::default(), telemetry.clone());
            let mut rng = SplitMix64::new(seed, d);
            let base = (d + 1) << 28;
            // Pages no device is granted: the 20% of hot traffic that
            // must be denied (and masked on the bus).
            let unmapped = pages(base + (0xF << 20), 64);
            let mut masters = Vec::new();
            for m in 0..16u64 {
                let device = DeviceId(0x100 * (d + 1) + m);
                let granted = pages(base + (m << 20), 14);
                grant_hot(&mut unit, grants, device, m as u16, &granted);
                let bursts = (0..512)
                    .map(|_| {
                        let kind = if rng.below(4) == 0 {
                            BurstKind::Write
                        } else {
                            BurstKind::Read
                        };
                        let page = if rng.below(100) < 80 {
                            granted[rng.below(14) as usize]
                        } else {
                            unmapped[rng.below(64) as usize]
                        };
                        burst(&mut rng, device, kind, page)
                    })
                    .collect();
                masters.push(MasterProgram {
                    device,
                    bursts,
                    outstanding: 4,
                    retry: RetryPolicy::none(),
                });
            }
            let mut cold = Vec::new();
            for c in 0..4u64 {
                let device = DeviceId(0x100 * (d + 1) + 0x80 + c);
                let record = pages(base + ((0x20 + c) << 20), 4);
                unit.register_cold_device(
                    device,
                    MountableEntry {
                        domains: vec![],
                        entries: record.iter().map(|&p| page_entry(p)).collect(),
                    },
                )
                .expect("fresh unit accepts cold devices");
                grants.grant(device, &record, true);
                let bursts = (0..64)
                    .map(|_| {
                        let page = record[rng.below(4) as usize];
                        burst(&mut rng, device, BurstKind::Read, page)
                    })
                    .collect();
                masters.push(MasterProgram {
                    device,
                    bursts,
                    outstanding: 2,
                    retry: RetryPolicy::bounded(8, 4).with_sid_missing_retry(),
                });
                cold.push(device);
            }
            let faults = FaultPlan::for_domain(
                seed,
                d,
                &FaultPlanConfig {
                    horizon: 20_000,
                    budget: 56,
                    cold_devices: cold,
                    ..FaultPlanConfig::default()
                },
            );
            Domain {
                unit,
                telemetry,
                masters,
                faults,
            }
        })
        .collect()
}

/// Policy calls per latency segment. A segment is the host time one
/// domain takes for this many checker calls, about as many bursts: the
/// latency of a stretch of that domain's DMA traffic.
const SEGMENT: u64 = 256;

/// What one shard's policy wrapper hands back when the job's simulator
/// drops.
#[derive(Default)]
struct ShardLog {
    /// [`now_ns`] at every [`SEGMENT`]-th policy call.
    marks: Vec<u64>,
    /// Traced runs: the span buffer and the intervals its calls covered.
    spans: Option<(SpanBuf, Vec<(u64, u64)>)>,
}

type ShardSink = Arc<Mutex<Vec<ShardLog>>>;

/// The timed jobs' policy: the sIOPMP adapter, stamped every [`SEGMENT`]
/// calls and, in traced runs, with a span around every `decide_batch`.
/// Each shard owns one, so recording shares nothing between worker
/// threads.
struct MeteredPolicy {
    inner: SiopmpPolicy,
    calls: u64,
    log: ShardLog,
    /// The `bus.run` span the traced calls belong to, and the job.
    parent: u64,
    job: u64,
    sink: ShardSink,
}

impl AccessPolicy for MeteredPolicy {
    fn decide(
        &mut self,
        device: DeviceId,
        kind: siopmp::request::AccessKind,
        addr: u64,
        len: u64,
    ) -> PolicyVerdict {
        self.decide_batch(&[(device, kind, addr, len)])[0]
    }

    fn decide_batch(
        &mut self,
        reqs: &[(DeviceId, siopmp::request::AccessKind, u64, u64)],
    ) -> Vec<PolicyVerdict> {
        if self.calls.is_multiple_of(SEGMENT) {
            self.log.marks.push(now_ns());
        }
        self.calls += 1;
        let Some((buf, intervals)) = &mut self.log.spans else {
            return self.inner.decide_batch(reqs);
        };
        let allocs = crate::alloc::thread_allocs();
        let start = now_ns();
        let verdicts = self.inner.decide_batch(reqs);
        let end = now_ns();
        buf.leaf(
            LAYER_DECIDE,
            start,
            end,
            self.parent,
            self.job,
            reqs.len() as u64,
            crate::alloc::thread_allocs() - allocs,
        );
        intervals.push((start, end));
        verdicts
    }

    fn control(&mut self, op: &ControlOp) -> bool {
        self.inner.control(op)
    }

    fn siopmp_unit(&self) -> Option<&Siopmp> {
        self.inner.siopmp_unit()
    }

    fn siopmp_unit_mut(&mut self) -> Option<&mut Siopmp> {
        self.inner.siopmp_unit_mut()
    }
}

impl Drop for MeteredPolicy {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.log));
        }
    }
}

const LAYERS: &[&str] = &[
    "job",
    "job.setup",
    "bus.run",
    "job.verify",
    "policy.decide_batch",
];
const LAYER_JOB: usize = 0;
const LAYER_SETUP: usize = 1;
const LAYER_RUN: usize = 2;
const LAYER_VERIFY: usize = 3;
const LAYER_DECIDE: usize = 4;

/// How a job's policies are built: the plain adapter (the reference job),
/// or metered, traced or not, under `bus.run` span `parent` of job `job`.
enum Policies<'a> {
    Plain,
    Metered {
        trace: bool,
        parent: u64,
        job: u64,
        sink: &'a ShardSink,
    },
}

fn build(kind: Kind, seed: u64, threads: usize, policies: &Policies<'_>) -> (ParallelSim, Grants) {
    let mut grants = Grants::default();
    let domains = match kind {
        Kind::Stream => stream_domains(seed, &mut grants),
        Kind::Churn => churn_domains(seed, &mut grants),
    };
    let mut sim = ParallelSim::build(EPOCH_CYCLES, threads, None);
    for domain in domains {
        let config = BusConfig::default().with_checker(
            domain.unit.config().checker,
            domain.unit.config().violation_mode,
        );
        let inner = SiopmpPolicy::new(domain.unit);
        let spec = match policies {
            Policies::Plain => DomainSpec::for_policy(inner),
            Policies::Metered {
                trace,
                parent,
                job,
                sink,
            } => DomainSpec::for_policy(MeteredPolicy {
                inner,
                calls: 0,
                log: ShardLog {
                    marks: Vec::new(),
                    spans: trace.then(|| (SpanBuf::new(LAYERS, 2_000, false), Vec::new())),
                },
                parent: *parent,
                job: *job,
                sink: Arc::clone(sink),
            }),
        };
        let mut spec = spec
            .with_config(config)
            .with_fault_plan(domain.faults)
            .with_telemetry(domain.telemetry);
        for master in domain.masters {
            spec = spec.with_master(master);
        }
        sim.add_domain(spec);
    }
    (sim, grants)
}

fn bursts_completed(report: &SimReport) -> u64 {
    report
        .masters
        .iter()
        .map(|m| m.bursts_completed as u64)
        .sum()
}

/// Runs one SoC workload. See the module docs.
pub fn run(kind: Kind, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let workload = match kind {
        Kind::Stream => "soc_stream",
        Kind::Churn => "soc_churn",
    };

    // The reference job: untimed, every verdict checked. It runs on one
    // thread (any thread count gives the same report), so its allocations
    // happen in a fixed order and the peak memory read after it repeats.
    let (mut sim, grants) = build(kind, p.seed, 1, &Policies::Plain);
    for d in 0..sim.domains() {
        sim.domain_mut(d).enable_decision_log();
    }
    let reference = sim.run(MAX_CYCLES);
    if !reference.completed {
        out.problem("the reference job did not drain");
    }
    for d in 0..sim.domains() {
        for r in sim.domain(d).decision_log().unwrap_or_default() {
            out.attempted += 1;
            if !grants.expects(r.device, r.addr, r.len, r.verdict) {
                out.failed += 1;
            }
        }
    }
    let per_job = bursts_completed(&reference);
    let cycles = reference.cycles;
    // Simulated counts are the same in every job, whatever the thread
    // count, so the reference job's registry stands for all of them.
    let counters = sim.telemetry().snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let reference = reference.to_json().to_string();
    drop(sim);
    match sys::peak_rss_mb(std::process::id()) {
        Ok(mb) => out.metric("peak_rss_mb", mb),
        Err(e) => out.problem(format!("cannot read peak RSS: {e}")),
    }

    let sink: ShardSink = Arc::default();
    let mut main_buf = SpanBuf::new(LAYERS, 2_000, false);
    let mut table = LayerTable::default();
    let mut setup_s = Vec::new();
    let mut us_per_burst = Vec::new();
    let mut segments_us = Vec::new();
    let cpu0 = sys::self_cpu_seconds();
    let started = now_ns();
    let limit_ns = (p.seconds * 1e9) as u64;
    let mut job = 0u64;
    while job == 0 || now_ns() - started < limit_ns {
        job += 1;
        let job_span = main_buf.open(LAYER_JOB, 0, job);
        let setup_start = now_ns();
        main_buf.open(LAYER_SETUP, 0, job);
        let run_span = main_buf.fresh_id();
        let policies = Policies::Metered {
            trace: p.trace,
            parent: run_span,
            job,
            sink: &sink,
        };
        let (mut sim, _) = build(kind, p.seed, THREADS, &policies);
        main_buf.close(0);
        let run_start = now_ns();
        main_buf.open_id(LAYER_RUN, run_span, job_span, job);
        let report = sim.run(MAX_CYCLES);
        main_buf.close(per_job);
        let run_end = now_ns();
        main_buf.open(LAYER_VERIFY, 0, job);
        drop(sim);
        let done = bursts_completed(&report);
        out.attempted += done;
        if report.to_json().to_string() != reference {
            out.failed += done;
            out.problem(format!("job {job} report differs from the reference job"));
        }
        for log in sink.lock().expect("no shard panicked").drain(..) {
            // The last segment of each shard is partial.
            segments_us.extend(log.marks.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e3));
            if let Some((buf, mut intervals)) = log.spans {
                main_buf.subtract_self(LAYER_RUN, covered_ns(&mut intervals, run_start, run_end));
                table.absorb(buf);
            }
        }
        main_buf.close(0);
        main_buf.close(0);
        setup_s.push((run_start - setup_start) as f64 / 1e9);
        us_per_burst.push((run_end - run_start) as f64 / 1e3 / done.max(1) as f64);
    }
    let wall_ns = now_ns() - started;
    let cpu = sys::self_cpu_seconds().and_then(|end| cpu0.map(|start| end - start));
    table.absorb(main_buf);

    out.metric("ops_per_s", 1e6 / median(&us_per_burst));
    out.metric("p50_us", median(&segments_us));
    out.metric("p99_us", quantile(&segments_us, 0.99));
    match cpu {
        Ok(cpu) => out.metric("cpu_us_per_op", cpu * 1e6 / (job * per_job) as f64),
        Err(e) => out.problem(format!("cannot read CPU time: {e}")),
    }
    out.setup(&setup_s);
    out.notes.push(format!(
        "{job} timed jobs of {per_job} bursts; throughput is the median over jobs; latency is per {SEGMENT} policy calls of one domain, {} segments",
        segments_us.len()
    ));

    out.metric(
        "bus.sim_cycles_per_burst",
        cycles as f64 / per_job.max(1) as f64,
    );
    out.metric("bus.retries", count("bus.retries"));
    out.metric("bus.bursts_sid_missing", count("bus.bursts_sid_missing"));
    out.metric("core.view_rebuilds", count("siopmp.cache.view_rebuilds"));
    out.metric("core.cold_switches", count("siopmp.cold_switches"));
    let hits = count("siopmp.cache.hits");
    out.metric(
        "core.cache_hit_ratio",
        hits / (hits + count("siopmp.cache.misses")).max(1.0),
    );
    if p.trace {
        let run = table.get("bus.run");
        let decide = table.get("policy.decide_batch");
        let bursts = (job * per_job).max(1) as f64;
        out.metric("bus.self_ns_per_burst", run.self_ns as f64 / bursts);
        out.metric(
            "policy.ns_per_req",
            mean(decide.busy_ns as f64, decide.items),
        );
        out.metric(
            "policy.reqs_per_call",
            mean(decide.items as f64, decide.count),
        );
        out.metric(
            "policy.allocs_per_call",
            mean(decide.allocs as f64, decide.count),
        );
        out.finish_trace(&table, workload, p, wall_ns);
    }
    out
}
