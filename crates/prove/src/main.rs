//! `siopmp-prove` — run the bounded model checker over the shipped
//! micro model and the planted-mutation corpus.
//!
//! ```text
//! siopmp-prove [--profile smoke|full] [--max-depth N] [--max-states N]
//!              [--skip-mutations] [--json] [--out PATH]
//! ```
//!
//! * `--profile smoke` (default) explores > 10^4 canonically-distinct
//!   states in seconds — the every-push CI gate;
//! * `--profile full` is the nightly bound: an order of magnitude more
//!   states and deeper mutator sequences;
//! * `--max-depth` / `--max-states` override the profile's bounds;
//! * `--skip-mutations` skips the seeded mutation-testing pass.
//!
//! Exit code: failure when the exploration finds any isolation,
//! soundness or atomicity violation, or when any planted mutation goes
//! undetected. JSON output (stdout with `--json`, file with `--out`)
//! uses the workspace envelope shared with `siopmp-verify`,
//! `siopmp-scenario` and `repro --json`.

use siopmp::cli::Spec;
use siopmp::json::{envelope, Json};
use siopmp_prove::{explore, run_all, Bounds, Model, Profile};
use std::process::ExitCode;

const USAGE: &str = "usage: siopmp-prove [--profile smoke|full] [--max-depth N] \
[--max-states N] [--skip-mutations] [--json] [--out PATH]";

const SPEC: Spec = Spec {
    tool: "siopmp-prove",
    usage: USAGE,
    flags: &["--json", "--skip-mutations"],
    options: &["--out", "--profile", "--max-depth", "--max-states"],
};

fn parse_bound(args: &siopmp::cli::Args, name: &str, default: usize) -> Result<usize, String> {
    match args.option(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("{name} wants a positive integer, got `{raw}`")),
    }
}

fn run() -> Result<bool, String> {
    let args = SPEC.parse(std::env::args().skip(1))?;
    if args.help {
        println!("{USAGE}");
        return Ok(true);
    }
    let profile = match args.option("--profile") {
        None => Profile::Smoke,
        Some(raw) => Profile::parse(raw)
            .ok_or_else(|| format!("unknown profile `{raw}` (want smoke|full)\n{USAGE}"))?,
    };
    let defaults = profile.bounds();
    let bounds = Bounds {
        max_depth: parse_bound(&args, "--max-depth", defaults.max_depth)?,
        max_states: parse_bound(&args, "--max-states", defaults.max_states)?,
    };

    let model = Model::two_tenant_micro();
    let started = std::time::Instant::now();
    let report = explore(&model, bounds);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let outcomes = if args.has("--skip-mutations") {
        Vec::new()
    } else {
        run_all(&model)
    };
    let missed: Vec<_> = outcomes.iter().filter(|o| !o.detected).collect();

    if !args.json {
        println!(
            "model {}  profile {}  depth<= {}  states {}  transitions {}  dup {}  probes {}",
            report.model,
            profile.name(),
            report.max_depth_reached,
            report.states,
            report.transitions,
            report.duplicate_hits,
            report.probes,
        );
        println!(
            "isolation {}  soundness {}  atomicity {}  errors {} (corroborated {}, spurious {})  fp-rate {:.4}  {} ms",
            report.isolation_failures,
            report.soundness_failures,
            report.atomicity_failures,
            report.error_diagnostics,
            report.corroborated_errors,
            report.spurious_diagnostics,
            report.false_positive_rate(),
            elapsed_ms,
        );
        for msg in report
            .isolation_examples
            .iter()
            .chain(&report.soundness_examples)
            .chain(&report.atomicity_examples)
        {
            println!("  VIOLATION {msg}");
        }
        if !outcomes.is_empty() {
            println!(
                "mutations: {}/{} detected",
                outcomes.iter().filter(|o| o.detected).count(),
                outcomes.len()
            );
            for o in &outcomes {
                let verdict = if o.detected { "caught" } else { "MISSED" };
                println!("  {verdict:<7} {:<26} {}", o.name, o.how);
            }
        }
    }

    let payload = Json::object([
        ("profile", Json::str(profile.name())),
        ("elapsed_ms", Json::u64(elapsed_ms)),
        ("report", report.to_json()),
        (
            "mutations",
            Json::object([
                ("planted", Json::u64(outcomes.len() as u64)),
                (
                    "detected",
                    Json::u64(outcomes.iter().filter(|o| o.detected).count() as u64),
                ),
                (
                    "outcomes",
                    Json::array(outcomes.iter().map(|o| o.to_json())),
                ),
            ]),
        ),
    ]);
    let doc = envelope("prove", None, 1, payload);
    if args.json {
        println!("{}", doc.pretty());
    }
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{}\n", doc.pretty()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    Ok(report.violations_total() == 0 && missed.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
