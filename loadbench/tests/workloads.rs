//! Runs every workload for one second, untraced and traced, and checks
//! the benchmark's contract: every metric `BENCHMARK.json` names is
//! reported with its unit, no operation fails, simulated counts repeat
//! exactly under the same seed, and layer self times account for the
//! traced wall time within 5% (a traced run reports itself incorrect
//! otherwise).

use std::process::Command;
use std::sync::Mutex;

use siopmp::json::Json;
use siopmp_loadbench::json::{get, get_f64, get_str, parse};
use siopmp_loadbench::{END_TO_END, PER_LAYER, WORKLOADS};

/// Per-layer metrics that are simulated counts: identical on every run
/// of a seed, whatever the host does.
const EXACT: &[&str] = &[
    "bus.sim_cycles_per_burst",
    "bus.retries",
    "bus.bursts_sid_missing",
    "core.view_rebuilds",
    "core.cold_switches",
];

/// Runs are timed; one at a time keeps them from competing for cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: &str, trace: bool) -> Json {
    let work_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/loadbench-test");
    let out = Command::new(env!("CARGO_BIN_EXE_siopmp-loadbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--work-dir",
            work_dir,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last line is JSON");
    assert_eq!(get(&result, "correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(get_f64(&result, "failed"), Some(0.0), "fail_frac must be 0");
    assert!(get_f64(&result, "attempted").unwrap_or(0.0) >= 1.0);
    result
}

fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(items)) = get(&doc, section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            (
                get_str(m, "name").expect("metric name").to_string(),
                get_str(m, "unit").expect("metric unit").to_string(),
            )
        })
        .collect()
}

/// The result's metrics as `(name, unit, value)`, in output order.
fn metrics(result: &Json) -> Vec<(String, String, f64)> {
    let Some(Json::Object(pairs)) = get(result, "metrics") else {
        panic!("no metrics object");
    };
    pairs
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                get_str(m, "unit").expect("unit").to_string(),
                get_f64(m, "value").expect("numeric value"),
            )
        })
        .collect()
}

fn check_workload(workload: &str) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let declared: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        declared,
        benchmark_metrics("end_to_end"),
        "end-to-end list drifted"
    );
    let declared: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        declared,
        benchmark_metrics("per_layer"),
        "per-layer list drifted"
    );

    let untraced = metrics(&run(workload, false));
    let names: Vec<(String, String)> = untraced
        .iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect();
    assert_eq!(names, benchmark_metrics("end_to_end"));
    for (name, _, value) in &untraced {
        assert!(
            value.is_finite() && *value > 0.0,
            "{workload}: {name} = {value}"
        );
    }

    let first = metrics(&run(workload, true));
    let second = metrics(&run(workload, true));
    let names: Vec<(String, String)> = first
        .iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect();
    assert_eq!(names, benchmark_metrics("per_layer"));
    let value = |m: &[(String, String, f64)], name: &str| {
        m.iter()
            .find(|(n, ..)| n == name)
            .map(|(.., v)| *v)
            .expect("metric present")
    };
    for name in EXACT {
        assert_eq!(
            value(&first, name),
            value(&second, name),
            "{workload}: {name} must repeat exactly"
        );
    }
    println!(
        "{workload}: untraced {:.1} ops/s, traced {:.1} ops/s (tracing overhead {:.1}%)",
        value(&untraced, "ops_per_s"),
        value(&first, "trace.ops_per_s"),
        100.0 * (1.0 - value(&first, "trace.ops_per_s") / value(&untraced, "ops_per_s"))
    );
}

#[test]
fn benchmark_json_lists_exactly_these_workloads() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(items)) = get(&doc, "workloads") else {
        panic!("no workloads list");
    };
    let names: Vec<&str> = items.iter().filter_map(|w| get_str(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn soc_stream_meets_the_contract() {
    check_workload("soc_stream");
}

#[test]
fn soc_churn_meets_the_contract() {
    check_workload("soc_churn");
}

#[test]
fn check_mix_meets_the_contract() {
    check_workload("check_mix");
}

#[test]
fn admit_storm_meets_the_contract() {
    check_workload("admit_storm");
}
