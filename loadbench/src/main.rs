//! `siopmp-loadbench`: runs one benchmark workload and prints its result.
//!
//! ```text
//! siopmp-loadbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics, and writes
//! `TRACE_<workload>.json` into the work directory (by default
//! `loadbench-work` next to this binary, inside the build directory).

use std::path::PathBuf;
use std::process::ExitCode;

use siopmp::json::Json;
use siopmp_loadbench::{run, Params, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: siopmp-loadbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(parse_u64(value).ok_or(format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .ok_or(format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let work_dir = match work_dir {
        Some(dir) => dir,
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this binary: {e}"))?
            .with_file_name("loadbench-work"),
    };
    Ok((
        workload,
        Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            work_dir,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, params) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&workload, &params) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("siopmp-loadbench: {workload}: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    let wanted = if params.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in wanted {
        // The traced run reports its own end-to-end numbers as `trace.*`,
        // for the tracing overhead against the untraced run.
        let source = name.strip_prefix("trace.").unwrap_or(name);
        let v = match value(source) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                missing.push(format!("metric {name} is {v}"));
                0.0
            }
            // A layer this workload does not use reads 0; an end-to-end
            // metric every workload must measure.
            None if params.trace => 0.0,
            None => {
                missing.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.push((name, unit, v));
    }
    outcome.problems.extend(missing);

    println!(
        "siopmp-loadbench {workload} seed={} seconds={} trace={}",
        params.seed,
        params.seconds,
        u8::from(params.trace)
    );
    for (name, unit, v) in &metrics {
        println!("  {name:<34} {v:>16.4} {unit}");
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for problem in &outcome.problems {
        println!("  FAILED: {problem}");
    }
    println!(
        "  attempted {} failed {} fail_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(outcome.attempted.max(1))),
        ("failed", Json::u64(outcome.failed)),
        (
            "metrics",
            Json::object(metrics.iter().map(|&(name, unit, v)| {
                (
                    name,
                    Json::object([("value", Json::f64(v)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
