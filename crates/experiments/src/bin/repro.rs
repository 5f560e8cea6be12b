//! `repro` — regenerate the sIOPMP evaluation tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro              # run every experiment, in paper order
//! repro fig15 fig17  # run a subset
//! repro --list       # list experiment names
//! repro --json       # machine-readable output + live telemetry dump
//! repro --threads 4  # worker threads for the parallel section
//! ```
//!
//! The command line goes through the workspace's one flag grammar
//! ([`siopmp::cli::Spec`]), so `--json`, `--list`, `--threads` and
//! `--out` spell the same here as in `siopmp-scenario` and
//! `siopmp-verify`.
//!
//! With `--json`, the selected experiments' outputs are wrapped in the
//! workspace JSON envelope (`siopmp::json::envelope` — `schema_version`,
//! `scenario`, `seed`, `threads`, `payload`) together with a telemetry
//! snapshot of a representative monitored run (see
//! `siopmp_experiments::telemetry_exercise`), a bus-simulation report
//! whose `PolicyVerdict` breakdown separates stalled bursts from
//! SID-missing ones (see `siopmp_experiments::bus_exercise`), a `faults`
//! section from a pinned-seed fault storm showing the retry/recovery
//! counters (see `siopmp_experiments::faults_exercise`), and a `parallel`
//! section from the sharded two-domain engine (see
//! `siopmp_experiments::parallel_exercise`). `--threads N` sets the
//! parallel section's worker count — by the engine's determinism
//! guarantee the output is byte-identical for every `N`. `--out PATH`
//! additionally writes the JSON document to a file.

use siopmp::cli::Spec;
use siopmp::json::{envelope, Json};
use std::process::ExitCode;

const SPEC: Spec = Spec {
    tool: "repro",
    usage: "usage: repro [--list] [--json] [--threads N] [--out PATH] [experiment ...]",
    flags: &["--list", "--json"],
    options: &["--threads", "--out"],
};

fn main() -> ExitCode {
    let args = match SPEC.parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{}", SPEC.usage);
        println!("experiments: {}", siopmp_experiments::ALL.join(" "));
        return ExitCode::SUCCESS;
    }
    if args.list {
        for name in siopmp_experiments::ALL {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let threads = args.threads.unwrap_or(1);
    let selected: Vec<&str> = if args.positional.is_empty() {
        siopmp_experiments::ALL.to_vec()
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    let mut rendered: Vec<(String, String)> = Vec::new();
    for name in selected {
        match siopmp_experiments::render(name) {
            Some(output) => {
                if args.json {
                    rendered.push((name.to_string(), output));
                } else {
                    println!("==== {name} ====");
                    println!("{output}");
                }
            }
            None => {
                eprintln!(
                    "unknown experiment '{name}' (known: {})",
                    siopmp_experiments::ALL.join(", ")
                );
                failed = true;
            }
        }
    }
    if args.json && !failed {
        let payload = Json::object([
            (
                "experiments",
                Json::array(rendered.into_iter().map(|(name, output)| {
                    Json::object([("name", Json::str(name)), ("output", Json::str(output))])
                })),
            ),
            (
                "telemetry",
                siopmp_experiments::telemetry_exercise().to_json(),
            ),
            ("bus", siopmp_experiments::bus_exercise().to_json()),
            ("faults", siopmp_experiments::faults_exercise().to_json()),
            (
                "parallel",
                Json::object([
                    ("threads", Json::u64(threads as u64)),
                    (
                        "report",
                        siopmp_experiments::parallel_exercise(threads).to_json(),
                    ),
                ]),
            ),
        ]);
        let doc = envelope("repro", None, threads, payload);
        println!("{}", doc.pretty());
        if let Some(path) = &args.out {
            if let Err(e) = std::fs::write(path, format!("{}\n", doc.pretty())) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
