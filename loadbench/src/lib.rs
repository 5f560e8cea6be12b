//! # siopmp-loadbench — the repository benchmark
//!
//! Four seeded workloads, each run for a fixed duration in a fresh
//! process, over the two end-to-end paths of the system: a DMA burst
//! through the simulated SoC (`soc_stream`, `soc_churn`), a check through
//! the sIOPMP checker alone (`check_mix`), and an admission request
//! through the `siopmp-serviced` daemon (`admit_storm`). An untraced run
//! reports the end-to-end metrics; a traced run times the public calls the
//! benchmark makes into each layer and reports per-layer metrics. Every
//! run checks the program's outputs against what its own generator
//! expects. See `README.md` for the workloads, metrics and bounds.

use std::path::PathBuf;

pub mod admit;
pub mod alloc;
pub mod check;
pub mod json;
pub mod rng;
pub mod soc;
pub mod stats;
pub mod sys;
pub mod trace;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["soc_stream", "soc_churn", "check_mix", "admit_storm"];

/// End-to-end metrics and units: every untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics and units: every traced run reports all of them, 0
/// for a layer the workload does not use.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bus.self_ns_per_burst", "ns"),
    ("policy.ns_per_req", "ns"),
    ("policy.reqs_per_call", "count"),
    ("policy.allocs_per_call", "count"),
    ("bus.sim_cycles_per_burst", "cycles"),
    ("bus.retries", "count"),
    ("bus.bursts_sid_missing", "count"),
    ("core.view_rebuilds", "count"),
    ("core.cold_switches", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.check_ns.repeat", "ns"),
    ("core.check_ns.spread", "ns"),
    ("core.check_ns.deny", "ns"),
    ("core.check_ns.cold", "ns"),
    ("core.allocs_per_check.repeat", "count"),
    ("core.allocs_per_check.spread", "count"),
    ("core.allocs_per_check.deny", "count"),
    ("core.shared_vs_owner_ns", "ns"),
    ("core.publish_ns", "ns"),
    ("serviced.proto.read_ns", "ns"),
    ("serviced.proto.parse_ns", "ns"),
    ("serviced.proto.write_ns", "ns"),
    ("serviced.json.encode_ns", "ns"),
    ("serviced.daemon.handle_ns.check", "ns"),
    ("serviced.daemon.handle_ns.shed", "ns"),
    ("serviced.daemon.handle_ns.switch", "ns"),
    ("serviced.allocs_per_req.check", "count"),
    ("serviced.allocs_per_req.shed", "count"),
    ("serviced.allocs_per_req.switch", "count"),
    ("serviced.syscalls_per_req", "count"),
    ("serviced.admitted", "count"),
    ("serviced.shed.tenant_rate", "count"),
    ("serviced.shed.deadline", "count"),
    ("serviced.quiet_p99_us", "us"),
    ("serviced.switch_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("trace.ops_per_s", "1/s"),
    ("trace.p50_us", "us"),
];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the traced run writes `TRACE_<workload>.json` and where the
    /// daemon's fleet, journal and socket live.
    pub work_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (bursts, checks or requests).
    pub attempted: u64,
    /// Operations whose result differed from the generator's expectation.
    pub failed: u64,
    /// Whole-run checks that failed (determinism, journal contents, trace
    /// consistency), one line each.
    pub problems: Vec<String>,
    /// Metric values by name (units come from [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable detail: sample counts and what each number covers.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records `setup_s`, the median of the set-up times `samples`.
    pub fn setup(&mut self, samples: &[f64]) {
        self.metric("setup_s", stats::median(samples));
        self.notes.push(format!(
            "set-up timed {} times: min {:.6} s, max {:.6} s",
            samples.len(),
            stats::quantile(samples, 0.0),
            stats::quantile(samples, 1.0)
        ));
    }

    /// Records a failed whole-run check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Writes the traced run's trace file and reports its consistency:
    /// self times of all spans against the independently timed wall time
    /// of the traced timelines, which must agree within 5%.
    pub fn finish_trace(
        &mut self,
        table: &trace::LayerTable,
        workload: &str,
        p: &Params,
        wall_ns: u64,
    ) {
        let ratio = table.self_sum_ns() as f64 / wall_ns.max(1) as f64;
        self.notes.push(format!(
            "layer self times sum to {ratio:.4} of the traced wall time"
        ));
        if (ratio - 1.0).abs() > 0.05 {
            self.problem(format!(
                "layer self times sum to {ratio:.3} of the traced wall time (allowed 0.95..1.05)"
            ));
        }
        let path = p.work_dir.join(format!("TRACE_{workload}.json"));
        let doc = table.to_json(workload, p.seed, wall_ns);
        match std::fs::write(&path, doc.to_string()) {
            Ok(()) => self
                .notes
                .push(format!("trace written to {}", path.display())),
            Err(e) => self.problem(format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// Runs `workload` once.
///
/// # Errors
///
/// A message when the workload name is unknown or its set-up fails.
pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    alloc::set_counting(p.trace);
    std::fs::create_dir_all(&p.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", p.work_dir.display()))?;
    match workload {
        "soc_stream" => Ok(soc::run(soc::Kind::Stream, p)),
        "soc_churn" => Ok(soc::run(soc::Kind::Churn, p)),
        "check_mix" => Ok(check::run(p)),
        "admit_storm" => admit::run(p),
        other => Err(format!(
            "unknown workload `{other}`; known: {}",
            WORKLOADS.join(", ")
        )),
    }
}
